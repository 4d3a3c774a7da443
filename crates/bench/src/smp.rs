//! The multi-threaded syscall fixtures shared by the `pr4_smp` and
//! `obs_overhead` targets, and the big-lock baseline `pr4_smp` measures
//! the sharded kernel against.
//!
//! * `labeled_file_read_heavy` — per-worker labeled file in a secret
//!   dir, 7 reads : 1 write. Disjoint inode shards; the workload the
//!   shard split exists for, and one that crosses flow checks at every
//!   traced layer.
//! * `pipe_pingpong` — per-worker pipe, 64-byte write then read: the
//!   LSM delivery verdict on every write.
//! * `create_unlink_churn` — per-worker path created, closed and
//!   unlinked; two directory-mutating syscalls per iteration on the
//!   shared `/tmp`, three commits.

use laminar_difc::{CapSet, Label, LabelType, SecPair};
use laminar_os::{Fd, Kernel, LaminarModule, TaskHandle, UserId};
use laminar_util::sync::Mutex;
use std::sync::Arc;

/// The pre-shard big kernel lock, rebuilt outside the kernel: when
/// enabled, every syscall a fixture issues holds one global mutex, so
/// all syscalls serialise as they did before the kernel was sharded.
#[derive(Debug, Default)]
pub struct BigLock(Option<Mutex<()>>);

impl BigLock {
    /// A lock that serialises every syscall issued through it.
    #[must_use]
    pub fn enabled() -> Self {
        BigLock(Some(Mutex::new(())))
    }

    /// Issues one syscall, holding the lock if it is enabled.
    pub fn sys<R>(&self, syscall: impl FnOnce() -> R) -> R {
        let _held = self.0.as_ref().map(Mutex::lock);
        syscall()
    }
}

/// One iteration of a workload: `f(lock, worker_index, handle, iteration)`.
pub type WorkerBody = Box<dyn Fn(&BigLock, usize, &TaskHandle, usize) + Sync>;

/// A workload fixture: a booted kernel plus one task handle per worker,
/// and the per-iteration body each worker runs.
pub struct Fixture {
    /// The kernel the workers run on.
    pub kernel: Arc<Kernel>,
    /// One task per worker thread.
    pub workers: Vec<TaskHandle>,
    /// The per-iteration body.
    pub run: WorkerBody,
}

impl Fixture {
    /// Runs `ops_per_worker` iterations on every worker at once, one
    /// thread per worker, through [`Kernel::run_parallel`].
    pub fn run_all(&self, lock: &BigLock, ops_per_worker: usize) {
        let task_sets = self.workers.iter().map(|t| vec![t.clone()]).collect();
        self.kernel.run_parallel(task_sets, |w, own| {
            for i in 0..ops_per_worker {
                (self.run)(lock, w, &own[0], i);
            }
        });
    }
}

/// Builds a workload's fixture for a given worker count.
pub type Build = fn(usize) -> Fixture;

/// The three workloads, by name.
pub const WORKLOADS: &[(&str, Build)] = &[
    ("labeled_file_read_heavy", labeled_file_read_heavy),
    ("pipe_pingpong", pipe_pingpong),
    ("create_unlink_churn", create_unlink_churn),
];

fn boot() -> (Arc<Kernel>, TaskHandle) {
    let k = Kernel::boot(LaminarModule);
    k.add_user(UserId(1), "bench");
    let root = k.login(UserId(1)).unwrap();
    (k, root)
}

/// Per-worker labeled file in a secret dir; workers are tainted at fork
/// so every read and write crosses a real flow check. 7 reads : 1 write.
fn labeled_file_read_heavy(n: usize) -> Fixture {
    let (kernel, root) = boot();
    let tag = root.alloc_tag().unwrap();
    let secret = SecPair::secrecy_only(Label::singleton(tag));
    kernel.install_dir("/tmp/vault", secret.clone()).unwrap();
    root.set_task_label(LabelType::Secrecy, Label::singleton(tag)).unwrap();
    for w in 0..n {
        let fd = root
            .create_file_labeled(&format!("/tmp/vault/w{w}.dat"), secret.clone())
            .unwrap();
        root.write(fd, &[0u8; 64]).unwrap();
        root.close(fd).unwrap();
    }
    // Forked while tainted: the workers inherit the secrecy label.
    let workers = (0..n).map(|_| root.fork(Some(CapSet::new())).unwrap()).collect();
    Fixture {
        kernel,
        workers,
        run: Box::new(|lock, w, t, i| {
            let path = format!("/tmp/vault/w{w}.dat");
            if i % 8 == 7 {
                lock.sys(|| t.write_file_at(&path, &[i as u8; 64])).unwrap();
            } else {
                lock.sys(|| t.read_file_at(&path, 64)).unwrap();
            }
        }),
    }
}

/// Per-worker pipe: one 64-byte write, one 64-byte read per iteration.
fn pipe_pingpong(n: usize) -> Fixture {
    let (kernel, root) = boot();
    let pipes: Vec<(Fd, Fd)> = (0..n).map(|_| root.pipe().unwrap()).collect();
    let workers = (0..n).map(|_| root.fork(Some(CapSet::new())).unwrap()).collect();
    Fixture {
        kernel,
        workers,
        run: Box::new(move |lock, w, t, _| {
            let (r, wr) = pipes[w];
            lock.sys(|| t.write(wr, &[0x42u8; 64])).unwrap();
            let got = lock.sys(|| t.read(r, 64)).unwrap();
            assert_eq!(got.len(), 64);
        }),
    }
}

/// Per-worker path in the shared `/tmp`: create, close, unlink.
fn create_unlink_churn(n: usize) -> Fixture {
    let (kernel, root) = boot();
    let workers = (0..n).map(|_| root.fork(Some(CapSet::new())).unwrap()).collect();
    Fixture {
        kernel,
        workers,
        run: Box::new(|lock, w, t, _| {
            let path = format!("/tmp/churn{w}");
            let fd = lock.sys(|| t.create(&path)).unwrap();
            lock.sys(|| t.close(fd)).unwrap();
            lock.sys(|| t.unlink(&path)).unwrap();
        }),
    }
}
