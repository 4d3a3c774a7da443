//! The syscall transaction: shard locking plus an undo journal.
//!
//! Every syscall body runs against a [`Txn`]. The transaction owns the
//! set of shard locks the syscall has acquired so far (two-phase
//! locking: shards are added in ascending [`ShardKey`] order and held
//! until commit/rollback) and an undo journal: the *first* mutation of
//! any table entry snapshots that entry. The dispatch loop in
//! [`crate::kernel::Kernel::syscall_on`] then either commits (drops the
//! journal) or rolls back — on an internal panic caught at the syscall
//! boundary *or* on an error return — restoring every journalled entry
//! in reverse order, so a failed or faulted syscall is a byte-for-byte
//! no-op on the security state. Rollback only ever touches entries in
//! shards the transaction holds: journalling happens strictly after the
//! corresponding shard lock is acquired.
//!
//! If a body needs a shard *below* the highest one it already holds, the
//! accessor returns the internal [`OsError::Retry`] sentinel; the
//! dispatcher rolls back, widens its lock footprint and restarts the
//! body with every needed shard pre-locked in ascending order. The
//! [`IdCache`] keeps restarts deterministic: the nth id allocation of a
//! kind returns the same id on every attempt, so the footprint converges
//! instead of chasing freshly minted ids.
//!
//! Deliberate exceptions to journalling:
//!
//! * LSM hook counts are monotonic observability (tests pin that the
//!   counter only grows), not security state. They accumulate in the
//!   transaction and are flushed to the kernel's atomic counter on every
//!   exit *except* a footprint restart, so restarts do not inflate them.
//! * The [`laminar_difc::TagAllocator`] lives outside the journal; a tag
//!   id minted by an aborted `alloc_tag` is simply never used, which is
//!   invisible (tag ids are opaque and unique). The same holds for
//!   task/process/inode ids cached by an aborted attempt.
//!
//! Resource quotas ([`Quotas`]) are enforced here too, at the points
//! where a transaction allocates: inode creation, fd insertion and tag
//! minting. Exhaustion returns [`OsError::QuotaExceeded`] — typed,
//! side-effect free (the transaction rolls back), and transient: the
//! operation succeeds again once the resource is released.

use crate::error::{OsError, OsResult};
use crate::kernel::Kernel;
use crate::shard::{HeldShard, ShardGuard, ShardKey};
use crate::task::{ProcessId, ProcessStruct, TaskId, TaskSec, TaskStruct, UserId};
use crate::vfs::file::{Fd, OpenFile};
use crate::vfs::inode::{Inode, InodeId, InodeKind, Xattrs};
use laminar_difc::{CapSet, SecPair, Tag};
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::atomic::Ordering;

/// Resource limits enforced per kernel instance (fixed at boot).
///
/// Exhaustion degrades gracefully: the failing syscall returns
/// [`OsError::QuotaExceeded`] naming the resource, changes nothing, and
/// the same call succeeds after a `close`/`unlink` frees the resource.
#[derive(Clone, Debug)]
pub struct Quotas {
    /// Maximum simultaneously open descriptors per process.
    pub max_fds_per_process: usize,
    /// Maximum live inodes (files, dirs, pipes, sockets, symlinks).
    pub max_inodes: usize,
    /// Byte capacity of newly created pipe buffers.
    pub pipe_capacity: usize,
    /// Maximum tags a single user may mint via `alloc_tag`.
    pub max_tags_per_user: u64,
    /// Maximum byte length of a regular file's contents. Bounds the
    /// allocation a single sparse write (`seek(huge)` + `write`) can
    /// force: without it, one syscall could `resize` a file buffer to
    /// gigabytes before any label check could object.
    pub max_file_size: usize,
}

impl Default for Quotas {
    fn default() -> Self {
        Quotas {
            max_fds_per_process: 4096,
            max_inodes: 1 << 20,
            pipe_capacity: crate::vfs::pipe::PIPE_CAPACITY,
            max_tags_per_user: 1 << 16,
            max_file_size: 1 << 26, // 64 MiB
        }
    }
}

/// Stages a trusted audit event for a quota denial and returns the
/// typed error. Every `QuotaExceeded` produced by the transaction layer
/// goes through here so the audit log sees each denial exactly once
/// (the stage is discarded on footprint restarts).
pub(crate) fn quota_denied(resource: &'static str) -> OsError {
    laminar_obs::emit(laminar_obs::Event::QuotaExceeded { resource });
    OsError::QuotaExceeded(resource)
}

/// Per-syscall cache of freshly minted ids. Ids come from the kernel's
/// global atomic counters (so they are unique across threads), but the
/// cache replays them positionally across footprint restarts: the nth
/// allocation of a kind yields the same id on every attempt, keeping the
/// restarted body's lock footprint stable.
#[derive(Default)]
pub(crate) struct IdCache {
    tasks: Replay<TaskId>,
    procs: Replay<ProcessId>,
    inodes: Replay<InodeId>,
    tags: Replay<Tag>,
}

impl IdCache {
    /// Rewinds the positional cursors for a fresh attempt.
    pub(crate) fn reset_cursors(&mut self) {
        self.tasks.cursor = 0;
        self.procs.cursor = 0;
        self.inodes.cursor = 0;
        self.tags.cursor = 0;
    }
}

/// The ids of one kind minted by a syscall, and the replay position of
/// the current attempt.
struct Replay<T> {
    minted: Vec<T>,
    cursor: usize,
}

impl<T> Default for Replay<T> {
    fn default() -> Self {
        Replay { minted: Vec::new(), cursor: 0 }
    }
}

impl<T: Copy> Replay<T> {
    /// The attempt's next id: replayed if an earlier attempt minted it,
    /// otherwise freshly minted by `mint`.
    fn next(&mut self, mint: impl FnOnce() -> T) -> T {
        let i = self.cursor;
        self.cursor += 1;
        if i == self.minted.len() {
            self.minted.push(mint());
        }
        self.minted[i]
    }
}

/// Puts `prev` back as the entry for `key` (`None` removes it) and
/// returns the change in the map's entry count.
fn restore<K: Hash + Eq, V>(map: &mut HashMap<K, V>, key: K, prev: Option<V>) -> i64 {
    match prev {
        Some(v) => i64::from(map.insert(key, v).is_none()),
        None => -i64::from(map.remove(&key).is_some()),
    }
}

/// One undo record: the state of an entry before its first mutation in
/// this transaction (`None` = the entry did not exist).
enum Undo {
    Task(TaskId, Option<TaskStruct>),
    Proc(ProcessId, Option<ProcessStruct>),
    Inode(InodeId, Option<Inode>),
    /// Fine-grained record for regular-file writes: restoring `old_len`
    /// and the overwritten byte range avoids cloning whole files on the
    /// write hot path.
    FileRange {
        ino: InodeId,
        offset: usize,
        old_len: usize,
        old_bytes: Vec<u8>,
    },
    /// Fine-grained record for fd offset bumps on the read/write paths.
    FdOffset(ProcessId, Fd, u64),
    PersistentCaps(UserId, Option<CapSet>),
    TagsMinted(UserId, Option<u64>),
}

/// An in-flight syscall transaction (see the module docs).
pub(crate) struct Txn<'a> {
    kernel: &'a Kernel,
    /// Held shard locks, sorted ascending by key (the total lock order).
    guards: Vec<HeldShard<'a>>,
    journal: Vec<Undo>,
    ids: &'a mut IdCache,
    /// LSM hook invocations this attempt; flushed by the dispatcher.
    hooks: u64,
}

impl<'a> Txn<'a> {
    /// Starts a transaction with every shard in `footprint` pre-locked
    /// in ascending order.
    pub(crate) fn begin(
        kernel: &'a Kernel,
        footprint: &BTreeSet<ShardKey>,
        ids: &'a mut IdCache,
    ) -> Self {
        ids.reset_cursors();
        let mut guards = Vec::with_capacity(footprint.len() + 4);
        for &key in footprint {
            guards.push(kernel.tables.lock(key));
        }
        Txn { kernel, guards, journal: Vec::new(), ids, hooks: 0 }
    }

    /// Ensures the shard for `key` is held, acquiring it if it is above
    /// every held shard; returns its index in the guard list.
    ///
    /// # Errors
    /// [`OsError::Retry`] if acquiring would violate the total lock
    /// order — the dispatcher widens the footprint and restarts.
    fn require(&mut self, key: ShardKey) -> OsResult<usize> {
        if let Some(i) = self.guards.iter().position(|g| g.key == key) {
            return Ok(i);
        }
        if let Some(last) = self.guards.last() {
            if last.key > key {
                return Err(OsError::Retry(key.0));
            }
        }
        self.guards.push(self.kernel.tables.lock(key));
        Ok(self.guards.len() - 1)
    }

    // --- held-shard map access ----------------------------------------------

    fn tasks_map(&mut self, id: TaskId) -> OsResult<&mut HashMap<TaskId, TaskStruct>> {
        let i = self.require(ShardKey::task(id))?;
        match &mut self.guards[i].guard {
            ShardGuard::Tasks(g) => Ok(&mut **g),
            _ => Err(OsError::Internal),
        }
    }

    fn procs_map(
        &mut self,
        id: ProcessId,
    ) -> OsResult<&mut HashMap<ProcessId, ProcessStruct>> {
        let i = self.require(ShardKey::proc(id))?;
        match &mut self.guards[i].guard {
            ShardGuard::Procs(g) => Ok(&mut **g),
            _ => Err(OsError::Internal),
        }
    }

    fn inodes_map(&mut self, id: InodeId) -> OsResult<&mut HashMap<InodeId, Inode>> {
        let i = self.require(ShardKey::inode(id))?;
        match &mut self.guards[i].guard {
            ShardGuard::Inodes(g) => Ok(&mut **g),
            _ => Err(OsError::Internal),
        }
    }

    fn registry_map(&mut self) -> OsResult<&mut crate::shard::Registry> {
        let i = self.require(ShardKey::registry())?;
        match &mut self.guards[i].guard {
            ShardGuard::Registry(g) => Ok(&mut **g),
            _ => Err(OsError::Internal),
        }
    }

    /// Restores every journalled entry (reverse order), making the
    /// transaction a no-op on kernel state.
    pub(crate) fn rollback(&mut self) {
        while let Some(entry) = self.journal.pop() {
            // Entries are journalled only after their shard is locked, so
            // the `*_map` lookups in `undo` find held shards: they never
            // lock, restart or fail.
            let _ = self.undo(entry);
        }
    }

    fn undo(&mut self, entry: Undo) -> OsResult<()> {
        match entry {
            Undo::Task(id, prev) => {
                restore(self.tasks_map(id)?, id, prev);
            }
            Undo::Proc(id, prev) => {
                restore(self.procs_map(id)?, id, prev);
            }
            Undo::Inode(id, prev) => {
                let delta = restore(self.inodes_map(id)?, id, prev);
                // Atomic adds wrap, so adding a negative delta's two's
                // complement subtracts it.
                self.kernel.inode_count.fetch_add(delta as u64, Ordering::Relaxed);
            }
            Undo::FileRange { ino, offset, old_len, old_bytes } => {
                if let Some(InodeKind::File { data }) =
                    self.inodes_map(ino)?.get_mut(&ino).map(|i| &mut i.kind)
                {
                    data.truncate(old_len);
                    let end = (offset + old_bytes.len()).min(data.len());
                    if offset <= end {
                        data[offset..end].copy_from_slice(&old_bytes[..end - offset]);
                    }
                }
            }
            Undo::FdOffset(pid, fd, off) => {
                if let Some(f) =
                    self.procs_map(pid)?.get_mut(&pid).and_then(|p| p.fds.get_mut(fd))
                {
                    f.offset = off;
                }
            }
            Undo::PersistentCaps(user, prev) => {
                restore(&mut self.registry_map()?.persistent_caps, user, prev);
            }
            Undo::TagsMinted(user, prev) => {
                restore(&mut self.registry_map()?.tags_minted, user, prev);
            }
        }
        Ok(())
    }

    /// Bumps the per-attempt LSM hook count (flushed at commit); the
    /// panic-at-hook failpoint fires here.
    pub(crate) fn count_hook(&mut self) {
        self.hooks += 1;
        #[cfg(feature = "fault-injection")]
        self.kernel.failpoints.fire_panic_at_hook();
    }

    /// Adds this attempt's hook count to the kernel's monotonic counter.
    /// Called by the dispatcher on every exit except a footprint restart
    /// (so restarts do not inflate the count).
    pub(crate) fn flush_hooks(&mut self) {
        if self.hooks > 0 {
            self.kernel.hook_counter.fetch_add(self.hooks, Ordering::Relaxed);
            self.hooks = 0;
        }
    }

    // --- read accessors ------------------------------------------------------

    /// The task entry, if present (dead or alive).
    pub(crate) fn task_opt(&mut self, id: TaskId) -> OsResult<Option<&TaskStruct>> {
        Ok(self.tasks_map(id)?.get(&id))
    }

    /// The task entry; [`OsError::NoSuchTask`] if missing.
    pub(crate) fn task(&mut self, id: TaskId) -> OsResult<&TaskStruct> {
        self.tasks_map(id)?.get(&id).ok_or(OsError::NoSuchTask)
    }

    /// The task entry, filtered to alive tasks.
    pub(crate) fn task_alive(&mut self, id: TaskId) -> OsResult<&TaskStruct> {
        self.tasks_map(id)?.get(&id).filter(|t| t.alive).ok_or(OsError::NoSuchTask)
    }

    /// A clone of an alive task's security context.
    pub(crate) fn task_sec(&mut self, id: TaskId) -> OsResult<TaskSec> {
        Ok(self.task_alive(id)?.security.clone())
    }

    /// The process entry, if present.
    pub(crate) fn proc_opt(&mut self, id: ProcessId) -> OsResult<Option<&ProcessStruct>> {
        Ok(self.procs_map(id)?.get(&id))
    }

    /// The process entry; a missing process for a live task is an
    /// internal invariant failure.
    pub(crate) fn proc(&mut self, id: ProcessId) -> OsResult<&ProcessStruct> {
        self.procs_map(id)?.get(&id).ok_or(OsError::Internal)
    }

    /// The inode entry, if present.
    pub(crate) fn inode_opt(&mut self, id: InodeId) -> OsResult<Option<&Inode>> {
        Ok(self.inodes_map(id)?.get(&id))
    }

    /// The inode's labels; [`OsError::NotFound`] if missing.
    pub(crate) fn inode_labels(&mut self, id: InodeId) -> OsResult<SecPair> {
        self.inodes_map(id)?.get(&id).map(|i| i.labels().clone()).ok_or(OsError::NotFound)
    }

    // --- journalled mutators -------------------------------------------------

    fn save_task(&mut self, id: TaskId) -> OsResult<()> {
        if self.journal.iter().any(|u| matches!(u, Undo::Task(t, _) if *t == id)) {
            return Ok(());
        }
        let prev = self.tasks_map(id)?.get(&id).cloned();
        self.journal.push(Undo::Task(id, prev));
        Ok(())
    }

    fn save_proc(&mut self, id: ProcessId) -> OsResult<()> {
        if self.journal.iter().any(|u| matches!(u, Undo::Proc(p, _) if *p == id)) {
            return Ok(());
        }
        let prev = self.procs_map(id)?.get(&id).cloned();
        self.journal.push(Undo::Proc(id, prev));
        Ok(())
    }

    fn save_inode(&mut self, id: InodeId) -> OsResult<()> {
        if self.journal.iter().any(|u| matches!(u, Undo::Inode(i, _) if *i == id)) {
            return Ok(());
        }
        let prev = self.inodes_map(id)?.get(&id).cloned();
        self.journal.push(Undo::Inode(id, prev));
        Ok(())
    }

    pub(crate) fn task_mut(&mut self, id: TaskId) -> OsResult<&mut TaskStruct> {
        self.save_task(id)?;
        self.tasks_map(id)?.get_mut(&id).ok_or(OsError::NoSuchTask)
    }

    pub(crate) fn proc_mut(&mut self, id: ProcessId) -> OsResult<&mut ProcessStruct> {
        self.save_proc(id)?;
        self.procs_map(id)?.get_mut(&id).ok_or(OsError::Internal)
    }

    pub(crate) fn inode_mut(&mut self, id: InodeId) -> OsResult<&mut Inode> {
        self.save_inode(id)?;
        self.inodes_map(id)?.get_mut(&id).ok_or(OsError::NotFound)
    }

    /// Like [`Txn::inode_mut`] but yields `None` for a genuinely missing
    /// inode while still propagating lock-order restarts — callers that
    /// tolerate absence must not swallow [`OsError::Retry`].
    pub(crate) fn inode_mut_opt(&mut self, id: InodeId) -> OsResult<Option<&mut Inode>> {
        self.save_inode(id)?;
        Ok(self.inodes_map(id)?.get_mut(&id))
    }

    pub(crate) fn remove_task(&mut self, id: TaskId) -> OsResult<()> {
        self.save_task(id)?;
        self.tasks_map(id)?.remove(&id);
        Ok(())
    }

    pub(crate) fn remove_process(&mut self, id: ProcessId) -> OsResult<()> {
        self.save_proc(id)?;
        self.procs_map(id)?.remove(&id);
        Ok(())
    }

    pub(crate) fn remove_inode(&mut self, id: InodeId) -> OsResult<()> {
        self.save_inode(id)?;
        if self.inodes_map(id)?.remove(&id).is_some() {
            self.kernel.inode_count.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Allocates a fresh inode, enforcing the inode quota.
    pub(crate) fn alloc_inode(
        &mut self,
        kind: InodeKind,
        labels: SecPair,
    ) -> OsResult<InodeId> {
        #[cfg(feature = "fault-injection")]
        if self.kernel.failpoints.take_quota() {
            return Err(quota_denied("injected allocation failure"));
        }
        if self.kernel.inode_count.load(Ordering::Relaxed) as usize
            >= self.kernel.quotas.max_inodes
        {
            return Err(quota_denied("inodes"));
        }
        let next = &self.kernel.next_inode;
        let id = self.ids.inodes.next(|| InodeId(next.fetch_add(1, Ordering::Relaxed)));
        // Lock (and possibly restart) *before* journalling, so rollback
        // never needs a shard the transaction does not hold.
        self.require(ShardKey::inode(id))?;
        self.journal.push(Undo::Inode(id, None));
        self.inodes_map(id)?
            .insert(id, Inode { id, kind, xattrs: Xattrs { labels }, nlink: 1 });
        self.kernel.inode_count.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Inserts an open file into a process's fd table, enforcing the
    /// per-process fd quota (which counts *open* descriptors, so closing
    /// frees quota even though fd numbers are never reused).
    pub(crate) fn fd_insert(&mut self, pid: ProcessId, file: OpenFile) -> OsResult<Fd> {
        #[cfg(feature = "fault-injection")]
        if self.kernel.failpoints.take_quota() {
            return Err(quota_denied("injected allocation failure"));
        }
        let open = match self.proc_opt(pid)? {
            Some(p) => p.fds.len(),
            None => 0,
        };
        if open >= self.kernel.quotas.max_fds_per_process {
            return Err(quota_denied("file descriptors"));
        }
        Ok(self.proc_mut(pid)?.fds.insert(file))
    }

    /// Sets an fd's offset via a fine-grained undo record (avoids
    /// snapshotting the whole process on the read/write hot paths).
    pub(crate) fn fd_set_offset(
        &mut self,
        pid: ProcessId,
        fd: Fd,
        offset: u64,
    ) -> OsResult<()> {
        let old = {
            let f = self
                .procs_map(pid)?
                .get_mut(&pid)
                .and_then(|p| p.fds.get_mut(fd))
                .ok_or(OsError::BadFd)?;
            let old = f.offset;
            f.offset = offset;
            old
        };
        self.journal.push(Undo::FdOffset(pid, fd, old));
        Ok(())
    }

    /// Journalled in-place write to a regular file's contents: records
    /// only the overwritten range plus the old length, then applies the
    /// write (extending the file if needed).
    ///
    /// The resulting file length is bounded by [`Quotas::max_file_size`]
    /// and the offset arithmetic is checked: a sparse write past the
    /// quota (or one whose `offset + len` overflows) is a fail-closed
    /// [`OsError::QuotaExceeded`] *before* any allocation happens, so a
    /// single `seek(huge)` + `write` can no longer force a multi-gigabyte
    /// `resize`.
    pub(crate) fn write_file_data(
        &mut self,
        ino: InodeId,
        offset: usize,
        buf: &[u8],
    ) -> OsResult<()> {
        let new_end = match offset.checked_add(buf.len()) {
            Some(end) if end <= self.kernel.quotas.max_file_size => end,
            _ => return Err(quota_denied("file size")),
        };
        let undo = {
            let data = match self.inodes_map(ino)?.get_mut(&ino).map(|i| &mut i.kind) {
                Some(InodeKind::File { data }) => data,
                _ => return Err(OsError::Internal),
            };
            let old_len = data.len();
            let end = new_end.min(old_len);
            let old_bytes =
                if offset < end { data[offset..end].to_vec() } else { Vec::new() };
            if new_end > data.len() {
                data.resize(new_end, 0);
            }
            data[offset..new_end].copy_from_slice(buf);
            Undo::FileRange { ino, offset, old_len, old_bytes }
        };
        self.journal.push(undo);
        Ok(())
    }

    /// Journalled update of a user's persistent capability file.
    pub(crate) fn set_persistent_caps(
        &mut self,
        user: UserId,
        caps: CapSet,
    ) -> OsResult<()> {
        let prev = self.registry_map()?.persistent_caps.get(&user).cloned();
        if !self
            .journal
            .iter()
            .any(|u| matches!(u, Undo::PersistentCaps(w, _) if *w == user))
        {
            self.journal.push(Undo::PersistentCaps(user, prev));
        }
        self.registry_map()?.persistent_caps.insert(user, caps);
        Ok(())
    }

    /// Accounts one tag minted by `user`, enforcing the per-user tag
    /// quota.
    pub(crate) fn mint_tag(&mut self, user: UserId) -> OsResult<()> {
        #[cfg(feature = "fault-injection")]
        if self.kernel.failpoints.take_quota() {
            return Err(quota_denied("injected allocation failure"));
        }
        let minted = self.registry_map()?.tags_minted.get(&user).copied();
        if minted.unwrap_or(0) >= self.kernel.quotas.max_tags_per_user {
            return Err(quota_denied("tags"));
        }
        if !self.journal.iter().any(|u| matches!(u, Undo::TagsMinted(w, _) if *w == user))
        {
            self.journal.push(Undo::TagsMinted(user, minted));
        }
        *self.registry_map()?.tags_minted.entry(user).or_insert(0) += 1;
        Ok(())
    }

    /// Mints a fresh tag, replay-stable across footprint restarts.
    pub(crate) fn fresh_tag(&mut self) -> Tag {
        let tags = &self.kernel.tags;
        self.ids.tags.next(|| tags.fresh())
    }

    /// Spawns a fresh single-task process (journalled); used by `fork`.
    /// Returns `(task, process)` ids.
    pub(crate) fn spawn_process(
        &mut self,
        user: UserId,
        cwd: InodeId,
        caps: CapSet,
    ) -> OsResult<(TaskId, ProcessId)> {
        let tid = self.fresh_task_id();
        let next = &self.kernel.next_proc;
        let pid = self.ids.procs.next(|| ProcessId(next.fetch_add(1, Ordering::Relaxed)));
        // Ascending domains: task shards rank below process shards.
        self.require(ShardKey::task(tid))?;
        self.require(ShardKey::proc(pid))?;
        self.journal.push(Undo::Proc(pid, None));
        self.procs_map(pid)?.insert(pid, ProcessStruct::fresh(pid, tid, cwd));
        self.journal.push(Undo::Task(tid, None));
        self.tasks_map(tid)?.insert(
            tid,
            TaskStruct::fresh(tid, pid, user, TaskSec::new(SecPair::unlabeled(), caps)),
        );
        Ok((tid, pid))
    }

    /// Mints a fresh task id (replay-stable); used by `spawn_thread`,
    /// which inserts the task itself.
    pub(crate) fn fresh_task_id(&mut self) -> TaskId {
        let next = &self.kernel.next_task;
        self.ids.tasks.next(|| TaskId(next.fetch_add(1, Ordering::Relaxed)))
    }

    /// Records a task insertion (for `spawn_thread`).
    pub(crate) fn insert_task(&mut self, task: TaskStruct) -> OsResult<()> {
        let id = task.id;
        self.require(ShardKey::task(id))?;
        let prev = self.tasks_map(id)?.get(&id).cloned();
        self.journal.push(Undo::Task(id, prev));
        self.tasks_map(id)?.insert(id, task);
        Ok(())
    }
}
