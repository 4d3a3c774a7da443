//! The syscall transaction: shard locking plus a logical undo journal.
//!
//! Every syscall body runs against a [`Txn`]. The transaction owns the
//! set of shard locks the syscall has acquired so far (two-phase
//! locking: shards are added in ascending [`ShardKey`] order and held
//! until commit/rollback) and an undo journal. Bodies decide first and
//! mutate last, and every mutation goes through a named `Txn` mutator
//! that applies one change and journals its inverse. A record holds
//! only what its own call changed:
//!
//! * a whole task, process or inode entry only when the transaction
//!   created it (`None`: remove it) or removed it (the entry is moved
//!   into the record, not cloned);
//! * a directory entry: one name and the child it named before;
//! * a channel queue change ([`QueueUndo`]): a pushed message, a popped
//!   message (moved in), the bytes a partial read took off the head, or
//!   a pipe reader/writer count;
//! * an fd install (undo also rewinds the fd counter) or removal (the
//!   open file is moved in), and an fd offset;
//! * a task's [`TaskSec`] (O(1): labels are interned, caps an `Arc`), a
//!   queued or dequeued signal, a thread joining or leaving a process;
//! * a process's cwd, one vma map/unmap/protect (with `next_mmap_page`),
//!   and `exec`'s reset of the address space;
//! * the overwritten range of a regular file, and the registry's
//!   persistent caps and per-user tag count.
//!
//! So journalling a call costs O(its own effect), never O(the size of
//! the object it touches). The dispatch loop in
//! [`crate::kernel::Kernel::syscall_on`] then either commits (drops the
//! journal) or rolls back — on an internal panic caught at the syscall
//! boundary *or* on an error return — undoing the records newest first,
//! so a failed or faulted syscall is a byte-for-byte no-op on the
//! security state. Rollback only ever touches entries in shards the
//! transaction holds: a record is journalled strictly after the
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
//!   The bytes journalled are counted the same way.
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
use crate::task::{
    ProcessId, ProcessStruct, Signal, TaskId, TaskSec, TaskStruct, UserId, VmArea,
    FIRST_MMAP_PAGE, PENDING_SIGNAL_LIMIT,
};
use crate::vfs::file::{Fd, FdTable, OpenFile, PipeEnd, Queue};
use crate::vfs::inode::{Inode, InodeId, InodeKind, Xattrs};
use crate::vfs::pipe::{PipeBuffer, QueueUndo};
use laminar_difc::{CapSet, SecPair, Tag};
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::mem;
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

/// One undo record: the inverse of one change (see the module docs).
enum Undo {
    /// A task entry the transaction created (`None`) or removed.
    Task(TaskId, Option<TaskStruct>),
    /// A process entry the transaction created (`None`) or removed.
    Proc(ProcessId, Option<ProcessStruct>),
    /// An inode the transaction created (`None`) or removed.
    Inode(InodeId, Option<Inode>),
    /// A task's security context before a label or capability change.
    Sec(TaskId, TaskSec),
    /// A signal queued at the back (`None`) or taken off the front.
    Signal(TaskId, Option<Signal>),
    /// A thread added to a process (`None`) or removed from an index.
    Thread(ProcessId, Option<(usize, TaskId)>),
    Cwd(ProcessId, InodeId),
    /// An fd installed (`None`) or removed (the open file, moved in).
    Fd(ProcessId, Fd, Option<OpenFile>),
    FdOffset(ProcessId, Fd, u64),
    /// A mapping appended; `next_mmap_page` was its start.
    VmaMap(ProcessId, u64),
    /// A mapping removed from an index.
    VmaUnmap(ProcessId, usize, VmArea),
    /// A mapping's protection before `mprotect`.
    VmaProtect(ProcessId, usize, VmArea),
    /// `exec`'s reset: the old mappings, next mapping page and binary.
    Exec(ProcessId, Vec<VmArea>, u64, String),
    /// Directory entry `name` before a link or unlink (`None`: absent).
    DirEntry(InodeId, String, Option<InodeId>),
    Queue(InodeId, Queue, QueueUndo),
    /// Regular-file write: the overwritten range and the old length.
    FileRange {
        ino: InodeId,
        offset: usize,
        old_len: usize,
        old_bytes: Vec<u8>,
    },
    PersistentCaps(UserId, Option<CapSet>),
    TagsMinted(UserId, Option<u64>),
}

impl Undo {
    /// Bytes the record owns besides itself: names, message bytes, file
    /// ranges and `exec`'s old image. A created or removed whole entry
    /// is moved, not copied, so it counts as its record only.
    fn payload(&self) -> usize {
        match self {
            Undo::Exec(_, areas, _, binary) => {
                areas.len() * mem::size_of::<VmArea>() + binary.len()
            }
            Undo::DirEntry(_, name, _) => name.len(),
            Undo::Queue(_, _, QueueUndo::Pop(msg)) => msg.len(),
            Undo::Queue(_, _, QueueUndo::Split(b))
            | Undo::FileRange { old_bytes: b, .. } => b.len(),
            _ => 0,
        }
    }

    /// Applies the inverse. Records are undone newest first, so each
    /// finds its object as its own change left it.
    fn apply(self, held: &mut Held<'_>) -> OsResult<()> {
        match self {
            Undo::Task(id, prev) => _ = restore(held.tasks_map(id)?, id, prev),
            Undo::Proc(id, prev) => _ = restore(held.procs_map(id)?, id, prev),
            Undo::Inode(id, prev) => {
                let delta = restore(held.inodes_map(id)?, id, prev);
                // Atomic adds wrap, so adding a negative delta's two's
                // complement subtracts it.
                held.kernel.inode_count.fetch_add(delta as u64, Ordering::Relaxed);
            }
            Undo::Sec(id, sec) => held.task_at(id)?.security = sec,
            Undo::Signal(id, popped) => {
                let q = &mut held.task_at(id)?.pending_signals;
                match popped {
                    Some(sig) => q.push_front(sig),
                    None => drop(q.pop_back()),
                }
            }
            Undo::Thread(pid, removed) => {
                let tasks = &mut held.proc_at(pid)?.tasks;
                match removed {
                    Some((i, tid)) => tasks.insert(i, tid),
                    None => drop(tasks.pop()),
                }
            }
            Undo::Cwd(pid, cwd) => held.proc_at(pid)?.cwd = cwd,
            Undo::Fd(pid, fd, removed) => held.proc_at(pid)?.fds.restore(fd, removed),
            Undo::FdOffset(pid, fd, off) => {
                if let Some(f) = held.proc_at(pid)?.fds.get_mut(fd) {
                    f.offset = off;
                }
            }
            Undo::VmaMap(pid, start) => {
                let p = held.proc_at(pid)?;
                p.vm_areas.pop();
                p.next_mmap_page = start;
            }
            Undo::VmaUnmap(pid, i, area) => held.proc_at(pid)?.vm_areas.insert(i, area),
            Undo::VmaProtect(pid, i, area) => {
                if let Some(a) = held.proc_at(pid)?.vm_areas.get_mut(i) {
                    *a = area;
                }
            }
            Undo::Exec(pid, areas, next, binary) => {
                let p = held.proc_at(pid)?;
                (p.vm_areas, p.next_mmap_page, p.binary) = (areas, next, binary);
            }
            Undo::DirEntry(dir, name, prev) => {
                if let Some(InodeKind::Dir { entries }) =
                    held.inode_at(dir)?.map(|i| &mut i.kind)
                {
                    match prev {
                        Some(child) => entries.insert(name, child),
                        None => entries.remove(&name),
                    };
                }
            }
            Undo::Queue(ino, q, undo) => {
                if let Some(buffer) = held.inode_at(ino)?.and_then(|i| q.of(&mut i.kind))
                {
                    buffer.undo(undo);
                }
            }
            Undo::FileRange { ino, offset, old_len, old_bytes } => {
                if let Some(InodeKind::File { data }) =
                    held.inode_at(ino)?.map(|i| &mut i.kind)
                {
                    data.truncate(old_len);
                    let end = (offset + old_bytes.len()).min(data.len());
                    if offset <= end {
                        data[offset..end].copy_from_slice(&old_bytes[..end - offset]);
                    }
                }
            }
            Undo::PersistentCaps(user, prev) => {
                _ = restore(&mut held.registry_map()?.persistent_caps, user, prev)
            }
            Undo::TagsMinted(user, prev) => {
                _ = restore(&mut held.registry_map()?.tags_minted, user, prev)
            }
        }
        Ok(())
    }
}

/// The undo records of one attempt, plus the bytes they cost.
#[derive(Default)]
struct Journal {
    records: Vec<Undo>,
    bytes: u64,
}

impl Journal {
    fn push(&mut self, undo: Undo) {
        self.bytes += (mem::size_of::<Undo>() + undo.payload()) as u64;
        self.records.push(undo);
    }
}

/// The shard locks a transaction holds, sorted ascending by key (the
/// total lock order).
struct Held<'a> {
    kernel: &'a Kernel,
    guards: Vec<HeldShard<'a>>,
}

impl Held<'_> {
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

    /// The task entry to mutate; [`OsError::NoSuchTask`] if missing.
    fn task_at(&mut self, id: TaskId) -> OsResult<&mut TaskStruct> {
        self.tasks_map(id)?.get_mut(&id).ok_or(OsError::NoSuchTask)
    }

    /// The process entry to mutate; a missing process for a live task
    /// is an internal invariant failure.
    fn proc_at(&mut self, id: ProcessId) -> OsResult<&mut ProcessStruct> {
        self.procs_map(id)?.get_mut(&id).ok_or(OsError::Internal)
    }

    /// The inode entry to mutate, if present. Absence is not an error,
    /// but lock-order restarts still propagate.
    fn inode_at(&mut self, id: InodeId) -> OsResult<Option<&mut Inode>> {
        Ok(self.inodes_map(id)?.get_mut(&id))
    }
}

/// An in-flight syscall transaction (see the module docs).
pub(crate) struct Txn<'a> {
    held: Held<'a>,
    journal: Journal,
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
        Txn { held: Held { kernel, guards }, journal: Journal::default(), ids, hooks: 0 }
    }

    fn kernel(&self) -> &'a Kernel {
        self.held.kernel
    }

    /// Undoes every journalled change (newest first), making the
    /// transaction a no-op on kernel state.
    pub(crate) fn rollback(&mut self) {
        while let Some(undo) = self.journal.records.pop() {
            // Records are journalled only after their shard is locked, so
            // the map lookups in `apply` find held shards: they never
            // lock, restart or fail.
            let _ = undo.apply(&mut self.held);
        }
    }

    /// Bumps the per-attempt LSM hook count (flushed at commit); the
    /// panic-at-hook failpoint fires here.
    pub(crate) fn count_hook(&mut self) {
        self.hooks += 1;
        #[cfg(feature = "fault-injection")]
        self.kernel().failpoints.fire_panic_at_hook();
    }

    /// Adds this attempt's hook count and journalled bytes to the
    /// kernel's monotonic counters. Called by the dispatcher on every
    /// exit except a footprint restart (so restarts do not inflate them).
    pub(crate) fn flush_counters(&mut self) {
        let kernel = self.kernel();
        if self.hooks > 0 {
            kernel.hook_counter.fetch_add(mem::take(&mut self.hooks), Ordering::Relaxed);
        }
        if self.journal.bytes > 0 {
            let bytes = mem::take(&mut self.journal.bytes);
            kernel.journal_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    // --- read accessors ------------------------------------------------------

    /// The task entry, if present (dead or alive).
    pub(crate) fn task_opt(&mut self, id: TaskId) -> OsResult<Option<&TaskStruct>> {
        Ok(self.held.tasks_map(id)?.get(&id))
    }

    /// The task entry; [`OsError::NoSuchTask`] if missing.
    pub(crate) fn task(&mut self, id: TaskId) -> OsResult<&TaskStruct> {
        self.held.tasks_map(id)?.get(&id).ok_or(OsError::NoSuchTask)
    }

    /// The task entry, filtered to alive tasks.
    pub(crate) fn task_alive(&mut self, id: TaskId) -> OsResult<&TaskStruct> {
        self.held.tasks_map(id)?.get(&id).filter(|t| t.alive).ok_or(OsError::NoSuchTask)
    }

    /// A clone of an alive task's security context.
    pub(crate) fn task_sec(&mut self, id: TaskId) -> OsResult<TaskSec> {
        Ok(self.task_alive(id)?.security.clone())
    }

    /// The process entry; a missing process for a live task is an
    /// internal invariant failure.
    pub(crate) fn proc(&mut self, id: ProcessId) -> OsResult<&ProcessStruct> {
        self.held.procs_map(id)?.get(&id).ok_or(OsError::Internal)
    }

    /// The inode entry, if present.
    pub(crate) fn inode_opt(&mut self, id: InodeId) -> OsResult<Option<&Inode>> {
        Ok(self.held.inodes_map(id)?.get(&id))
    }

    /// The inode's labels; [`OsError::NotFound`] if missing.
    pub(crate) fn inode_labels(&mut self, id: InodeId) -> OsResult<SecPair> {
        self.held
            .inodes_map(id)?
            .get(&id)
            .map(|i| i.labels().clone())
            .ok_or(OsError::NotFound)
    }

    // --- task mutators ---------------------------------------------------------

    /// The task's security context, for a label or capability change;
    /// journals the old context (O(1)).
    pub(crate) fn sec_mut(&mut self, id: TaskId) -> OsResult<&mut TaskSec> {
        let t = self.held.task_at(id)?;
        self.journal.push(Undo::Sec(id, t.security.clone()));
        Ok(&mut t.security)
    }

    /// Queues a signal for `id`. Returns `false` if the target already
    /// has [`PENDING_SIGNAL_LIMIT`] pending (the signal is dropped).
    pub(crate) fn push_signal(&mut self, id: TaskId, sig: Signal) -> OsResult<bool> {
        let q = &mut self.held.task_at(id)?.pending_signals;
        if q.len() >= PENDING_SIGNAL_LIMIT {
            return Ok(false);
        }
        q.push_back(sig);
        self.journal.push(Undo::Signal(id, None));
        Ok(true)
    }

    /// Dequeues `id`'s next pending signal.
    pub(crate) fn pop_signal(&mut self, id: TaskId) -> OsResult<Option<Signal>> {
        let sig = self.held.task_at(id)?.pending_signals.pop_front();
        if sig.is_some() {
            self.journal.push(Undo::Signal(id, sig));
        }
        Ok(sig)
    }

    /// Mints a fresh task id (replay-stable) for [`Self::insert_task`].
    pub(crate) fn fresh_task_id(&mut self) -> TaskId {
        let next = &self.kernel().next_task;
        self.ids.tasks.next(|| TaskId(next.fetch_add(1, Ordering::Relaxed)))
    }

    /// Inserts a task entry.
    pub(crate) fn insert_task(&mut self, task: TaskStruct) -> OsResult<()> {
        let id = task.id;
        let prev = self.held.tasks_map(id)?.insert(id, task);
        self.journal.push(Undo::Task(id, prev));
        Ok(())
    }

    /// Removes a task entry, moving it into the journal.
    pub(crate) fn remove_task(&mut self, id: TaskId) -> OsResult<()> {
        let prev = self.held.tasks_map(id)?.remove(&id);
        self.journal.push(Undo::Task(id, prev));
        Ok(())
    }

    // --- process mutators ------------------------------------------------------

    /// Spawns a fresh single-task process (used by `fork`) whose task has
    /// security context `sec` and whose process gets `fds` and `binary`.
    /// Returns `(task, process)` ids.
    pub(crate) fn spawn_process(
        &mut self,
        user: UserId,
        sec: TaskSec,
        cwd: InodeId,
        fds: FdTable,
        binary: String,
    ) -> OsResult<(TaskId, ProcessId)> {
        let tid = self.fresh_task_id();
        let next = &self.kernel().next_proc;
        let pid = self.ids.procs.next(|| ProcessId(next.fetch_add(1, Ordering::Relaxed)));
        // Ascending domains: task shards rank below process shards.
        self.held.require(ShardKey::task(tid))?;
        self.held.require(ShardKey::proc(pid))?;
        let proc = ProcessStruct { fds, binary, ..ProcessStruct::fresh(pid, tid, cwd) };
        let prev = self.held.procs_map(pid)?.insert(pid, proc);
        self.journal.push(Undo::Proc(pid, prev));
        self.insert_task(TaskStruct::fresh(tid, pid, user, sec))?;
        Ok((tid, pid))
    }

    /// Removes a process entry (with its fd table), moving it into the
    /// journal.
    pub(crate) fn remove_process(&mut self, id: ProcessId) -> OsResult<()> {
        let prev = self.held.procs_map(id)?.remove(&id);
        self.journal.push(Undo::Proc(id, prev));
        Ok(())
    }

    /// Adds thread `tid` to process `pid`.
    pub(crate) fn add_thread(&mut self, pid: ProcessId, tid: TaskId) -> OsResult<()> {
        self.held.proc_at(pid)?.tasks.push(tid);
        self.journal.push(Undo::Thread(pid, None));
        Ok(())
    }

    /// Removes thread `tid` from process `pid`; returns whether the
    /// process has no thread left.
    pub(crate) fn remove_thread(
        &mut self,
        pid: ProcessId,
        tid: TaskId,
    ) -> OsResult<bool> {
        let tasks = &mut self.held.proc_at(pid)?.tasks;
        if let Some(i) = tasks.iter().position(|&t| t == tid) {
            tasks.remove(i);
            self.journal.push(Undo::Thread(pid, Some((i, tid))));
        }
        Ok(tasks.is_empty())
    }

    /// Sets a process's working directory.
    pub(crate) fn set_cwd(&mut self, pid: ProcessId, cwd: InodeId) -> OsResult<()> {
        let old = mem::replace(&mut self.held.proc_at(pid)?.cwd, cwd);
        self.journal.push(Undo::Cwd(pid, old));
        Ok(())
    }

    /// Inserts an open file into a process's fd table, enforcing the
    /// per-process fd quota (which counts *open* descriptors, so closing
    /// frees quota even though fd numbers are never reused).
    pub(crate) fn fd_insert(&mut self, pid: ProcessId, file: OpenFile) -> OsResult<Fd> {
        #[cfg(feature = "fault-injection")]
        if self.kernel().failpoints.take_quota() {
            return Err(quota_denied("injected allocation failure"));
        }
        let max = self.kernel().quotas.max_fds_per_process;
        let fds = &mut self.held.proc_at(pid)?.fds;
        if fds.len() >= max {
            return Err(quota_denied("file descriptors"));
        }
        let fd = fds.insert(file);
        self.journal.push(Undo::Fd(pid, fd, None));
        Ok(fd)
    }

    /// Removes an fd, moving its open file into the journal; returns a
    /// copy (an open file owns no heap data).
    pub(crate) fn fd_remove(&mut self, pid: ProcessId, fd: Fd) -> OsResult<OpenFile> {
        let file = self.held.proc_at(pid)?.fds.remove(fd).ok_or(OsError::BadFd)?;
        let copy = file.clone();
        self.journal.push(Undo::Fd(pid, fd, Some(file)));
        Ok(copy)
    }

    /// Sets an fd's offset.
    pub(crate) fn fd_set_offset(
        &mut self,
        pid: ProcessId,
        fd: Fd,
        offset: u64,
    ) -> OsResult<()> {
        let f = self.held.proc_at(pid)?.fds.get_mut(fd).ok_or(OsError::BadFd)?;
        let old = mem::replace(&mut f.offset, offset);
        self.journal.push(Undo::FdOffset(pid, fd, old));
        Ok(())
    }

    /// Maps `pages` fresh read-write pages; returns the start page.
    ///
    /// # Errors
    /// [`OsError::InvalidArgument`] (nothing changed) if the mapping
    /// would overflow the address space.
    pub(crate) fn map_vma(&mut self, pid: ProcessId, pages: u64) -> OsResult<u64> {
        let p = self.held.proc_at(pid)?;
        let start = p.next_mmap_page;
        p.next_mmap_page = start
            .checked_add(pages)
            .ok_or(OsError::InvalidArgument("mapping overflows the address space"))?;
        p.vm_areas.push(VmArea { start, pages, read: true, write: true });
        self.journal.push(Undo::VmaMap(pid, start));
        Ok(start)
    }

    /// Unmaps every area starting at `start`.
    ///
    /// # Errors
    /// [`OsError::Fault`] (nothing changed) if there is none.
    pub(crate) fn unmap_vma(&mut self, pid: ProcessId, start: u64) -> OsResult<()> {
        let areas = &mut self.held.proc_at(pid)?.vm_areas;
        let mut found = false;
        while let Some(i) = areas.iter().position(|a| a.start == start) {
            self.journal.push(Undo::VmaUnmap(pid, i, areas.remove(i)));
            found = true;
        }
        found.then_some(()).ok_or(OsError::Fault)
    }

    /// Sets the protection of the area starting at `start`.
    ///
    /// # Errors
    /// [`OsError::Fault`] if there is none.
    pub(crate) fn protect_vma(
        &mut self,
        pid: ProcessId,
        start: u64,
        read: bool,
        write: bool,
    ) -> OsResult<()> {
        let areas = &mut self.held.proc_at(pid)?.vm_areas;
        let i = areas.iter().position(|a| a.start == start).ok_or(OsError::Fault)?;
        let new = VmArea { read, write, ..areas[i] };
        self.journal.push(Undo::VmaProtect(pid, i, mem::replace(&mut areas[i], new)));
        Ok(())
    }

    /// `exec`'s reset: drops every mapping (moved into the journal),
    /// rewinds the mapping cursor and records the new binary's name.
    pub(crate) fn exec_reset(&mut self, pid: ProcessId, binary: String) -> OsResult<()> {
        let p = self.held.proc_at(pid)?;
        self.journal.push(Undo::Exec(
            pid,
            mem::take(&mut p.vm_areas),
            mem::replace(&mut p.next_mmap_page, FIRST_MMAP_PAGE),
            mem::replace(&mut p.binary, binary),
        ));
        Ok(())
    }

    // --- inode mutators --------------------------------------------------------

    /// Allocates a fresh inode, enforcing the inode quota.
    pub(crate) fn alloc_inode(
        &mut self,
        kind: InodeKind,
        labels: SecPair,
    ) -> OsResult<InodeId> {
        let kernel = self.kernel();
        #[cfg(feature = "fault-injection")]
        if kernel.failpoints.take_quota() {
            return Err(quota_denied("injected allocation failure"));
        }
        if kernel.inode_count.load(Ordering::Relaxed) as usize >= kernel.quotas.max_inodes
        {
            return Err(quota_denied("inodes"));
        }
        let next = &kernel.next_inode;
        let id = self.ids.inodes.next(|| InodeId(next.fetch_add(1, Ordering::Relaxed)));
        // Lock (and possibly restart) *before* journalling, so rollback
        // never needs a shard the transaction does not hold.
        let map = self.held.inodes_map(id)?;
        self.journal.push(Undo::Inode(id, None));
        map.insert(id, Inode { id, kind, xattrs: Xattrs { labels }, nlink: 1 });
        kernel.inode_count.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Removes an inode, moving it into the journal.
    pub(crate) fn remove_inode(&mut self, id: InodeId) -> OsResult<()> {
        let prev = self.held.inodes_map(id)?.remove(&id);
        if prev.is_some() {
            self.kernel().inode_count.fetch_sub(1, Ordering::Relaxed);
        }
        self.journal.push(Undo::Inode(id, prev));
        Ok(())
    }

    /// Links `name` to `child` in directory `dir` (`None` unlinks it),
    /// journalling only that entry. A no-op if `dir` is not a directory.
    pub(crate) fn dir_set(
        &mut self,
        dir: InodeId,
        name: String,
        child: Option<InodeId>,
    ) -> OsResult<()> {
        let Some(InodeKind::Dir { entries }) =
            self.held.inode_at(dir)?.map(|i| &mut i.kind)
        else {
            return Ok(());
        };
        let (name, prev) = match child {
            Some(child) => {
                let prev = entries.insert(name.clone(), child);
                (name, prev)
            }
            None => match entries.remove_entry(&name) {
                Some((name, prev)) => (name, Some(prev)),
                None => return Ok(()),
            },
        };
        self.journal.push(Undo::DirEntry(dir, name, prev));
        Ok(())
    }

    /// Runs `f` on queue `q` of channel inode `ino`, journalling each
    /// change `f` logs; `None` if there is no such queue (`q` is `None`,
    /// or `ino` is not a channel of its kind).
    pub(crate) fn queue<R>(
        &mut self,
        ino: InodeId,
        q: Option<Queue>,
        f: impl FnOnce(&mut PipeBuffer, &mut dyn FnMut(QueueUndo)) -> R,
    ) -> OsResult<Option<R>> {
        let Txn { held, journal, .. } = self;
        let Some(q) = q else { return Ok(None) };
        let Some(buffer) = held.inode_at(ino)?.and_then(|i| q.of(&mut i.kind)) else {
            return Ok(None);
        };
        Ok(Some(f(buffer, &mut |undo| journal.push(Undo::Queue(ino, q, undo)))))
    }

    /// Adds (`fork`) or drops (`close`, `exit`) one reference to a pipe
    /// end.
    pub(crate) fn pipe_ref(
        &mut self,
        ino: InodeId,
        end: PipeEnd,
        add: bool,
    ) -> OsResult<()> {
        self.queue(ino, Some(Queue::Pipe), |b, log| b.count_ref(end, add, log)).map(drop)
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
            Some(end) if end <= self.kernel().quotas.max_file_size => end,
            _ => return Err(quota_denied("file size")),
        };
        let Some(InodeKind::File { data }) =
            self.held.inode_at(ino)?.map(|i| &mut i.kind)
        else {
            return Err(OsError::Internal);
        };
        let old_len = data.len();
        let end = new_end.min(old_len);
        let old_bytes =
            if offset < end { data[offset..end].to_vec() } else { Vec::new() };
        if new_end > data.len() {
            data.resize(new_end, 0);
        }
        data[offset..new_end].copy_from_slice(buf);
        self.journal.push(Undo::FileRange { ino, offset, old_len, old_bytes });
        Ok(())
    }

    // --- registry mutators -----------------------------------------------------

    /// Journalled update of a user's persistent capability file.
    pub(crate) fn set_persistent_caps(
        &mut self,
        user: UserId,
        caps: CapSet,
    ) -> OsResult<()> {
        let prev = self.held.registry_map()?.persistent_caps.insert(user, caps);
        self.journal.push(Undo::PersistentCaps(user, prev));
        Ok(())
    }

    /// Accounts one tag minted by `user`, enforcing the per-user tag
    /// quota.
    pub(crate) fn mint_tag(&mut self, user: UserId) -> OsResult<()> {
        #[cfg(feature = "fault-injection")]
        if self.kernel().failpoints.take_quota() {
            return Err(quota_denied("injected allocation failure"));
        }
        let max = self.kernel().quotas.max_tags_per_user;
        let minted = &mut self.held.registry_map()?.tags_minted;
        let prev = minted.get(&user).copied();
        if prev.unwrap_or(0) >= max {
            return Err(quota_denied("tags"));
        }
        minted.insert(user, prev.unwrap_or(0) + 1);
        self.journal.push(Undo::TagsMinted(user, prev));
        Ok(())
    }

    /// Mints a fresh tag, replay-stable across footprint restarts.
    pub(crate) fn fresh_tag(&mut self) -> Tag {
        let tags = &self.kernel().tags;
        self.ids.tags.next(|| tags.fresh())
    }
}

#[cfg(test)]
mod tests {
    use crate::{Kernel, LaminarModule, OpenMode, Signal, UserId};
    use std::sync::atomic::Ordering;

    /// Runs `f`, appending the bytes it journalled to `bytes`.
    fn cost<R>(k: &Kernel, bytes: &mut Vec<u64>, f: impl FnOnce() -> R) -> R {
        let before = k.journal_bytes.load(Ordering::Relaxed);
        let r = f();
        bytes.push(k.journal_bytes.load(Ordering::Relaxed) - before);
        r
    }

    /// Journal bytes of each call of a fixed script, on a kernel whose
    /// cwd holds `entries` names, whose process holds `fds` open fds and
    /// `vmas` mappings, and whose pipe and signal queue hold `queued`
    /// items.
    fn journal_bytes_per_call(
        entries: usize,
        fds: usize,
        queued: usize,
        vmas: usize,
    ) -> Vec<u64> {
        let k = Kernel::boot(LaminarModule);
        k.add_user(UserId(1), "alice");
        let t = k.login(UserId(1)).unwrap();
        for i in 0..entries {
            t.close(t.create(&format!("e{i}")).unwrap()).unwrap();
        }
        for _ in 0..fds {
            t.open("e0", OpenMode::Read).unwrap();
        }
        let (r, w) = t.pipe().unwrap();
        for _ in 0..queued {
            t.write(w, b"m").unwrap();
            t.kill(t.id(), Signal(1)).unwrap();
        }
        for _ in 0..vmas {
            t.mmap(1, None).unwrap();
        }
        let b = &mut Vec::new();
        let fd = cost(&k, b, || t.create("x").unwrap());
        cost(&k, b, || t.close(fd).unwrap());
        cost(&k, b, || t.unlink("x").unwrap());
        let fd = cost(&k, b, || t.open("e0", OpenMode::Read).unwrap());
        cost(&k, b, || t.close(fd).unwrap());
        cost(&k, b, || t.write(w, b"m").unwrap());
        cost(&k, b, || t.read(r, 1).unwrap());
        cost(&k, b, || t.chdir("/tmp").unwrap());
        let start = cost(&k, b, || t.mmap(1, None).unwrap());
        cost(&k, b, || t.munmap(start).unwrap());
        cost(&k, b, || t.kill(t.id(), Signal(2)).unwrap());
        cost(&k, b, || t.next_signal().unwrap());
        b.clone()
    }

    /// The journal records only each call's own effect: its bytes do not
    /// grow with directory size, fd count, queue depth, vma count or
    /// signal backlog.
    #[test]
    fn journal_bytes_per_call_are_independent_of_object_size() {
        let small = journal_bytes_per_call(16, 4, 4, 1);
        assert!(small.iter().all(|&b| b > 0), "every call journals: {small:?}");
        assert_eq!(small, journal_bytes_per_call(4096, 512, 2048, 64));
    }
}
