//! Sharded kernel tables and the total lock order.
//!
//! PR 4 replaces the big kernel lock with per-subsystem sharded locks so
//! syscalls from distinct tasks can execute in parallel (the structure
//! Laminar's per-object LSM hooks admit, §4). The shard map:
//!
//! | domain            | shards | key space          | rank range      |
//! |-------------------|--------|--------------------|-----------------|
//! | task table        | 8      | `TaskId % 8`       | `0x000..=0x007` |
//! | process table     | 8      | `ProcessId % 8`    | `0x100..=0x107` |
//! | inode/VFS table   | 16     | `InodeId % 16`     | `0x200..=0x20f` |
//! | registry          | 1      | (singleton)        | `0x300`         |
//!
//! Pipe and socket buffers live inside their inodes, so they are covered
//! by the inode shards; the registry shard holds the per-user persistent
//! capability store, home-directory map and minted-tag accounting.
//!
//! **Total lock order:** locks must be acquired in strictly ascending
//! numeric [`ShardKey`] order (task shards before process shards before
//! inode shards before the registry). The order is enforced at runtime
//! by [`laminar_util::sync::lock_order`]; a syscall body that discovers
//! it needs a shard *below* one it already holds returns the internal
//! [`OsError::Retry`](crate::OsError) sentinel, and the dispatcher rolls
//! back, widens its lock footprint and restarts with all needed shards
//! pre-locked in ascending order (two-phase locking with restart).

use crate::task::{ProcessId, ProcessStruct, TaskId, TaskStruct, UserId};
use crate::vfs::inode::{Inode, InodeId};
use laminar_difc::CapSet;
use laminar_util::sync::lock_order;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Number of task-table shards.
pub const TASK_SHARDS: usize = 8;
/// Number of process-table shards.
pub const PROC_SHARDS: usize = 8;
/// Number of inode-table shards (pipes and sockets live here too).
pub const INODE_SHARDS: usize = 16;
/// Total number of kernel lock shards (all domains plus the registry).
pub const SHARD_COUNT: usize = TASK_SHARDS + PROC_SHARDS + INODE_SHARDS + 1;

const DOM_TASK: u16 = 0x000;
const DOM_PROC: u16 = 0x100;
const DOM_INODE: u16 = 0x200;
const DOM_REGISTRY: u16 = 0x300;
const DOM_MASK: u16 = 0xF00;
const IDX_MASK: u16 = 0x0FF;

/// Identifies one kernel lock shard. The numeric value *is* the total
/// lock order: a `ShardKey` with a smaller value must be locked first.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ShardKey(pub(crate) u16);

impl ShardKey {
    /// The task-table shard holding `tid`.
    #[must_use]
    pub fn task(tid: TaskId) -> Self {
        ShardKey(DOM_TASK | (tid.0 % TASK_SHARDS as u64) as u16)
    }

    /// The process-table shard holding `pid`.
    #[must_use]
    pub fn proc(pid: ProcessId) -> Self {
        ShardKey(DOM_PROC | (pid.0 % PROC_SHARDS as u64) as u16)
    }

    /// The inode-table shard holding `ino`.
    #[must_use]
    pub fn inode(ino: InodeId) -> Self {
        ShardKey(DOM_INODE | (ino.0 % INODE_SHARDS as u64) as u16)
    }

    /// The (singleton) registry shard.
    #[must_use]
    pub fn registry() -> Self {
        ShardKey(DOM_REGISTRY)
    }

    /// Maps a flat ordinal in `0..SHARD_COUNT` onto the shard map:
    /// task shards first, then process, inode, registry. Ordinals wrap.
    #[must_use]
    pub fn from_ordinal(n: usize) -> Self {
        let n = n % SHARD_COUNT;
        if n < TASK_SHARDS {
            ShardKey(DOM_TASK | n as u16)
        } else if n < TASK_SHARDS + PROC_SHARDS {
            ShardKey(DOM_PROC | (n - TASK_SHARDS) as u16)
        } else if n < TASK_SHARDS + PROC_SHARDS + INODE_SHARDS {
            ShardKey(DOM_INODE | (n - TASK_SHARDS - PROC_SHARDS) as u16)
        } else {
            ShardKey(DOM_REGISTRY)
        }
    }

    /// The shard's position in the total lock order (used as the
    /// [`lock_order`] rank).
    #[must_use]
    pub fn rank(self) -> u32 {
        u32::from(self.0)
    }

    /// The shard's index within its domain's array.
    fn index(self) -> usize {
        usize::from(self.0 & IDX_MASK)
    }
}

/// The kernel-global singleton state guarded by the registry shard.
#[derive(Default, Debug)]
pub(crate) struct Registry {
    /// Persistent per-user capability store (§4.4: "The OS stores the
    /// persistent capabilities for each user in a file. On login, the OS
    /// gives the login shell all of the user's persistent capabilities").
    pub persistent_caps: HashMap<UserId, CapSet>,
    pub homes: HashMap<UserId, InodeId>,
    /// Tags minted per user via `alloc_tag` (for the tag quota).
    pub tags_minted: HashMap<UserId, u64>,
}

/// The sharded kernel tables. Each map fragment has its own mutex;
/// [`Tables::lock`] enforces the total order via [`lock_order`].
pub(crate) struct Tables {
    tasks: [Mutex<HashMap<TaskId, TaskStruct>>; TASK_SHARDS],
    procs: [Mutex<HashMap<ProcessId, ProcessStruct>>; PROC_SHARDS],
    inodes: [Mutex<HashMap<InodeId, Inode>>; INODE_SHARDS],
    registry: Mutex<Registry>,
    /// Shard acquisitions that found the mutex poisoned and recovered it.
    poison_recoveries: AtomicU64,
}

impl std::fmt::Debug for Tables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tables").finish_non_exhaustive()
    }
}

/// A locked view of one shard: the guard plus which table it belongs to.
pub(crate) enum ShardGuard<'a> {
    Tasks(MutexGuard<'a, HashMap<TaskId, TaskStruct>>),
    Procs(MutexGuard<'a, HashMap<ProcessId, ProcessStruct>>),
    Inodes(MutexGuard<'a, HashMap<InodeId, Inode>>),
    Registry(MutexGuard<'a, Registry>),
}

/// A held shard lock; dropping it releases both the mutex and the
/// thread's [`lock_order`] bookkeeping entry.
pub(crate) struct HeldShard<'a> {
    pub key: ShardKey,
    pub guard: ShardGuard<'a>,
}

impl Drop for HeldShard<'_> {
    fn drop(&mut self) {
        lock_order::release(self.key.rank());
    }
}

/// A tracked guard for the admin/boot paths, which lock exactly one
/// shard at a time. Derefs to the shard's map.
pub(crate) struct Tracked<'a, T: ?Sized> {
    rank: u32,
    guard: MutexGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for Tracked<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for Tracked<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for Tracked<'_, T> {
    fn drop(&mut self) {
        lock_order::release(self.rank);
    }
}

impl Tables {
    pub(crate) fn new() -> Self {
        Tables {
            tasks: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            procs: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            inodes: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            registry: Mutex::new(Registry::default()),
            poison_recoveries: AtomicU64::new(0),
        }
    }

    /// Acquires one shard mutex: the only place the tables lock a shard.
    /// A poisoned mutex (a syscall panicked while holding it) is
    /// recovered and counted; an unpoisoned one costs nothing extra.
    fn acquire<'a, T: ?Sized>(&self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|poisoned| {
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    /// Number of poisoned shard acquisitions these tables recovered.
    pub(crate) fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Locks the shard identified by `key`, recording the acquisition in
    /// the thread's lock-order lint state. Callers must acquire keys in
    /// ascending order or the lint panics.
    pub(crate) fn lock(&self, key: ShardKey) -> HeldShard<'_> {
        lock_order::acquire(key.rank());
        let idx = key.index();
        let guard = match key.0 & DOM_MASK {
            DOM_TASK => ShardGuard::Tasks(self.acquire(&self.tasks[idx])),
            DOM_PROC => ShardGuard::Procs(self.acquire(&self.procs[idx])),
            DOM_INODE => ShardGuard::Inodes(self.acquire(&self.inodes[idx])),
            _ => ShardGuard::Registry(self.acquire(&self.registry)),
        };
        HeldShard { key, guard }
    }

    /// Locks one shard for the admin/boot paths, recording the
    /// acquisition in the thread's lock-order lint state.
    fn tracked<'a, T>(&'a self, key: ShardKey, m: &'a Mutex<T>) -> Tracked<'a, T> {
        lock_order::acquire(key.rank());
        Tracked { rank: key.rank(), guard: self.acquire(m) }
    }

    /// Locks the task shard for `tid` (admin paths: one shard at a time).
    pub(crate) fn tasks_for(
        &self,
        tid: TaskId,
    ) -> Tracked<'_, HashMap<TaskId, TaskStruct>> {
        let key = ShardKey::task(tid);
        self.tracked(key, &self.tasks[key.index()])
    }

    /// Locks the process shard for `pid`.
    pub(crate) fn procs_for(
        &self,
        pid: ProcessId,
    ) -> Tracked<'_, HashMap<ProcessId, ProcessStruct>> {
        let key = ShardKey::proc(pid);
        self.tracked(key, &self.procs[key.index()])
    }

    /// Locks the inode shard for `ino`.
    pub(crate) fn inodes_for(
        &self,
        ino: InodeId,
    ) -> Tracked<'_, HashMap<InodeId, Inode>> {
        let key = ShardKey::inode(ino);
        self.tracked(key, &self.inodes[key.index()])
    }

    /// Locks the registry shard.
    pub(crate) fn registry(&self) -> Tracked<'_, Registry> {
        self.tracked(ShardKey::registry(), &self.registry)
    }

    /// Poisons the underlying mutex of one shard (fault injection).
    #[cfg(feature = "fault-injection")]
    pub(crate) fn poison(&self, key: ShardKey) {
        let idx = key.index();
        match key.0 & DOM_MASK {
            DOM_TASK => poison_mutex(&self.tasks[idx]),
            DOM_PROC => poison_mutex(&self.procs[idx]),
            DOM_INODE => poison_mutex(&self.inodes[idx]),
            _ => poison_mutex(&self.registry),
        }
    }
}

/// Poisons `m` by panicking a helper thread while it holds the guard, so
/// the *next* acquisition takes the recovery path. The injected panic is
/// silenced and joined before returning; the helper mutates nothing.
#[cfg(feature = "fault-injection")]
fn poison_mutex<T: Send>(m: &Mutex<T>) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let _ = std::thread::scope(|s| {
        s.spawn(|| {
            let _guard = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            panic!("injected lock poison");
        })
        .join()
    });
    std::panic::set_hook(prev);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_keys_are_totally_ordered_by_domain() {
        let t = ShardKey::task(TaskId(7));
        let p = ShardKey::proc(ProcessId(0));
        let i = ShardKey::inode(InodeId(15));
        let r = ShardKey::registry();
        assert!(t < p && p < i && i < r);
        assert!(t.rank() < p.rank() && i.rank() < r.rank());
    }

    #[test]
    fn from_ordinal_covers_every_shard_exactly_once() {
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..SHARD_COUNT {
            seen.insert(ShardKey::from_ordinal(n));
        }
        assert_eq!(seen.len(), SHARD_COUNT);
        // wraps
        assert_eq!(ShardKey::from_ordinal(SHARD_COUNT), ShardKey::from_ordinal(0));
    }

    #[test]
    fn same_id_maps_to_same_shard() {
        assert_eq!(ShardKey::inode(InodeId(3)), ShardKey::inode(InodeId(3 + 16)));
        assert_eq!(ShardKey::task(TaskId(2)), ShardKey::task(TaskId(10)));
    }

    #[test]
    fn lock_unlock_round_trip_clears_lint_state() {
        let t = Tables::new();
        {
            let _a = t.lock(ShardKey::task(TaskId(1)));
            let _b = t.lock(ShardKey::inode(InodeId(1)));
            assert_eq!(lock_order::held_count(), 2);
        }
        assert_eq!(lock_order::held_count(), 0);
    }
}
