//! The two kernel workloads: `syscall_small` and `fs_large_state`.
//!
//! Both drive `TaskHandle` syscalls directly from two client tasks.
//! `syscall_small` keeps every object tiny, so the fixed per-syscall path
//! dominates. `fs_large_state` gives the same path thousands of directory
//! entries, hundreds of open fds and a deep pipe queue, so costs that grow
//! with the size of the touched object show. In both, each client names
//! its files relative to its own working directory: shard locks are held
//! for a whole syscall, so a shared directory would make a client whose
//! CPU the host preempts stall the other one.

use crate::counters::Sources;
use crate::harness::{deal, Baseline, Client, Sizing, Variant, Workload};
use crate::trace::{self, TimedModule};
use laminar_difc::{CapSet, Capability, Label, LabelType, SecPair};
use laminar_os::{
    Fd, Kernel, LaminarModule, NullModule, OpenMode, OsError, OsResult, TaskHandle,
    UserId,
};
use laminar_util::SplitMix64;
use std::collections::VecDeque;
use std::sync::Arc;

/// Clients per kernel workload.
pub const CLIENTS: usize = 2;

/// Boots a kernel for a variant: Laminar or the `NullModule` baseline,
/// optionally behind the timing module.
#[must_use]
pub fn boot(variant: Variant) -> Arc<Kernel> {
    match variant {
        Variant::Secure => Kernel::boot(LaminarModule),
        Variant::SecureTimed => Kernel::boot(TimedModule(LaminarModule)),
        Variant::Baseline => Kernel::boot(NullModule),
        Variant::BaselineTimed => Kernel::boot(TimedModule(NullModule)),
    }
}

fn os<const T: bool, R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if T {
        trace::span(name, f)
    } else {
        f()
    }
}

/// What a syscall group returned.
#[derive(Debug, PartialEq, Eq)]
pub enum Got {
    /// Bytes read.
    Data(Vec<u8>),
    /// A size or byte count.
    Len(u64),
    /// Nothing to report.
    Unit,
}

fn payloads<const N: usize>(rng: &mut SplitMix64, count: usize) -> Vec<[u8; N]> {
    (0..count)
        .map(|_| {
            let mut p = [0u8; N];
            for b in &mut p {
                *b = rng.next_u32() as u8;
            }
            p
        })
        .collect()
}

// ----- syscall_small ----------------------------------------------------

/// Bytes per file or pipe payload in `syscall_small`.
const SMALL_PAYLOAD: usize = 64;
const SMALL_PAYLOADS: usize = 16;

/// One `syscall_small` operation.
#[derive(Copy, Clone, Debug)]
pub enum SmallOp {
    /// `stat` of the client's labeled file.
    Stat,
    /// `read_file_at` of the client's file.
    ReadAt,
    /// `write_file_at` of payload `k` to the client's file.
    WriteAt(u8),
    /// `open` + `read` + `close` of the client's file.
    OpenRead,
    /// `open` + `read` + `close` of `/dev/null`.
    DevNull,
    /// Pipe write of payload `k` then read, on the client's labeled pipe.
    Pipe(u8),
    /// Must-deny probe: a tainted `create` in unlabeled `/tmp`, a write
    /// down that the flow rule refuses.
    DenyCreate,
    /// Silent-drop probe: a tainted write of payload `k` into an unlabeled
    /// pipe, whose reader must then see nothing.
    DropProbe(u8),
}

/// Generated inputs of `syscall_small`.
#[derive(Debug)]
pub struct SyscallSmall {
    ops: Vec<Arc<[SmallOp]>>,
    payloads: Vec<Arc<[[u8; SMALL_PAYLOAD]]>>,
}

impl SyscallSmall {
    /// Generates both clients' inputs from `seed`.
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5eed_0001);
        // Two thirds single syscalls, the largest class in the middle of
        // the latency order, so the median falls inside one class instead
        // of on the boundary between two.
        let deck = [
            (10, SmallOp::Stat),
            (10, SmallOp::ReadAt),
            (14, SmallOp::WriteAt(0)),
            (6, SmallOp::OpenRead),
            (2, SmallOp::DevNull),
            (6, SmallOp::Pipe(0)),
            (1, SmallOp::DenyCreate),
            (1, SmallOp::DropProbe(0)),
        ];
        let mut ops = Vec::new();
        let mut pays = Vec::new();
        for _ in 0..CLIENTS {
            let draw = |r: &mut SplitMix64, op| {
                let k = r.below(SMALL_PAYLOADS as u64) as u8;
                match op {
                    SmallOp::WriteAt(_) => SmallOp::WriteAt(k),
                    SmallOp::Pipe(_) => SmallOp::Pipe(k),
                    SmallOp::DropProbe(_) => SmallOp::DropProbe(k),
                    other => other,
                }
            };
            ops.push(deal(&mut rng, &deck, 1000, draw).into());
            pays.push(payloads::<SMALL_PAYLOAD>(&mut rng, SMALL_PAYLOADS).into());
        }
        SyscallSmall { ops, payloads: pays }
    }
}

/// One `syscall_small` client: a tainted task with its own labeled file,
/// a labeled pipe, an unlabeled pipe and `/dev/null`.
#[derive(Debug)]
pub struct SmallClient {
    task: TaskHandle,
    ops: Arc<[SmallOp]>,
    payloads: Arc<[[u8; SMALL_PAYLOAD]]>,
    file: String,
    probe: String,
    labeled: (Fd, Fd),
    unlabeled: (Fd, Fd),
    /// The world runs the `NullModule`, which allows every flow.
    permissive: bool,
    /// Payload last written to the file.
    last: u8,
}

impl SmallClient {
    fn open_read<const T: bool>(&self, path: &str) -> OsResult<Got> {
        let t = &self.task;
        let fd = os::<T, _>("os.open", || t.open(path, OpenMode::Read))?;
        let data = os::<T, _>("os.read", || t.read(fd, SMALL_PAYLOAD));
        os::<T, _>("os.close", || t.close(fd))?;
        Ok(Got::Data(data?))
    }

    fn pipe_round<const T: bool>(&self, (r, w): (Fd, Fd), k: u8) -> OsResult<Got> {
        let t = &self.task;
        let p = &self.payloads[usize::from(k)];
        let n = os::<T, _>("os.write", || t.write(w, p))?;
        if n != p.len() {
            return Ok(Got::Len(n as u64));
        }
        os::<T, _>("os.read", || t.read(r, SMALL_PAYLOAD)).map(Got::Data)
    }

    /// Checks the file still holds the last payload written.
    fn file_intact(&self) -> bool {
        self.task.read_file_at(&self.file, SMALL_PAYLOAD).ok().as_deref()
            == Some(&self.payloads[usize::from(self.last)][..])
    }
}

impl Client for SmallClient {
    type Out = OsResult<Got>;

    fn input_len(&self) -> usize {
        self.ops.len()
    }

    fn exec<const T: bool>(&mut self, i: usize) -> OsResult<Got> {
        let t = &self.task;
        match self.ops[i] {
            SmallOp::Stat => {
                os::<T, _>("os.stat", || t.stat(&self.file)).map(|m| Got::Len(m.size))
            }
            SmallOp::ReadAt => os::<T, _>("os.read_file_at", || {
                t.read_file_at(&self.file, SMALL_PAYLOAD)
            })
            .map(Got::Data),
            SmallOp::WriteAt(k) => {
                let p = &self.payloads[usize::from(k)];
                os::<T, _>("os.write_file_at", || t.write_file_at(&self.file, p))
                    .map(|n| Got::Len(n as u64))
            }
            SmallOp::OpenRead => self.open_read::<T>(&self.file),
            SmallOp::DevNull => self.open_read::<T>("/dev/null"),
            SmallOp::Pipe(k) => self.pipe_round::<T>(self.labeled, k),
            SmallOp::DenyCreate => {
                let fd = os::<T, _>("os.create", || t.create(&self.probe))?;
                // Allowed (by the baseline, or wrongly): undo it so the
                // next probe starts from the same state.
                os::<T, _>("os.close", || t.close(fd))?;
                os::<T, _>("os.unlink", || t.unlink(&self.probe))?;
                Ok(Got::Unit)
            }
            SmallOp::DropProbe(k) => self.pipe_round::<T>(self.unlabeled, k),
        }
    }

    fn check(&mut self, i: usize, out: OsResult<Got>) -> bool {
        let last = &self.payloads[usize::from(self.last)];
        match (self.ops[i], out) {
            (SmallOp::Stat, Ok(Got::Len(n))) => n == SMALL_PAYLOAD as u64,
            (SmallOp::ReadAt | SmallOp::OpenRead, Ok(Got::Data(d))) => d == last,
            (SmallOp::WriteAt(k), Ok(Got::Len(n))) => {
                self.last = k;
                n == SMALL_PAYLOAD as u64
            }
            (SmallOp::DevNull, Ok(Got::Data(d))) => d.is_empty(),
            (SmallOp::Pipe(k), Ok(Got::Data(d))) => d == self.payloads[usize::from(k)],
            (SmallOp::DenyCreate, Ok(Got::Unit)) => self.permissive,
            (SmallOp::DenyCreate, Err(OsError::FlowDenied(_))) => !self.permissive,
            (SmallOp::DropProbe(k), Ok(Got::Data(d))) => {
                if self.permissive {
                    d == self.payloads[usize::from(k)]
                } else {
                    d.is_empty()
                }
            }
            _ => false,
        }
    }
}

impl Workload for SyscallSmall {
    type World = Arc<Kernel>;
    type Client = SmallClient;

    fn build(&self, variant: Variant) -> (Arc<Kernel>, Vec<SmallClient>) {
        let kernel = boot(variant);
        let permissive = matches!(variant, Variant::Baseline | Variant::BaselineTimed);
        let clients = (0..CLIENTS)
            .map(|c| {
                let user = UserId(100 + c as u32);
                kernel.add_user(user, &format!("client{c}"));
                let task = kernel.login(user).expect("login");
                let tag = task.alloc_tag().expect("alloc_tag");
                // Relative to the client's home directory, its cwd.
                let file = "small.dat".to_string();
                let payloads = Arc::clone(&self.payloads[c]);
                let fd = task
                    .create_file_labeled(
                        &file,
                        SecPair::secrecy_only(Label::singleton(tag)),
                    )
                    .expect("create labeled file");
                task.write(fd, &payloads[0]).expect("fill file");
                task.close(fd).expect("close");
                // Created before tainting, so this pipe stays unlabeled.
                let (ur, uw) = task.pipe().expect("unlabeled pipe");
                task.set_task_label(LabelType::Secrecy, Label::singleton(tag))
                    .expect("taint");
                let (lr, lw) = task.pipe().expect("labeled pipe");
                SmallClient {
                    task,
                    ops: Arc::clone(&self.ops[c]),
                    payloads,
                    file,
                    probe: format!("/tmp/probe{c}"),
                    labeled: (lr, lw),
                    unlabeled: (ur, uw),
                    permissive,
                    last: 0,
                }
            })
            .collect();
        (kernel, clients)
    }

    fn sources<'a>(
        &self,
        world: &'a Arc<Kernel>,
        _clients: &'a [Self::Client],
    ) -> Sources<'a> {
        Sources { kernels: vec![world], ..Sources::default() }
    }

    fn finish(&self, _world: &Arc<Kernel>, clients: &[SmallClient]) -> u64 {
        clients.iter().filter(|c| !c.file_intact()).count() as u64
    }

    fn sizing(&self) -> Sizing {
        Sizing { warmup: 500, epoch: 300_000, trace: 40_000 }
    }

    fn baseline(&self) -> Baseline {
        Baseline::NullModule
    }
}

// ----- fs_large_state ---------------------------------------------------

/// Entries prefilled into each client's directory.
pub const ENTRIES: usize = 2048;
/// Open fds each client holds for the whole run.
pub const HELD_FDS: usize = 256;
/// Messages kept queued in each client's pipe (below `PIPE_MSG_LIMIT`).
pub const PIPE_DEPTH: usize = 1024;
const ENTRY_BYTES: usize = 32;
const PIPE_PAYLOADS: usize = 64;
const CREATE_SLOTS: usize = 16;
const BIG_DIR: &str = "/tmp/big";

/// One `fs_large_state` operation.
#[derive(Copy, Clone, Debug)]
pub enum FsOp {
    /// `create` + `close` + `unlink` of the client's scratch name `k`.
    Create(u8),
    /// `stat` of prefilled entry `j`.
    Stat(u16),
    /// `open` + `read` + `close` of prefilled entry `j`.
    OpenRead(u16),
    /// Pipe write of payload `k` then read of the oldest message.
    Pipe(u8),
}

/// Generated inputs of `fs_large_state`.
#[derive(Debug)]
pub struct FsLargeState {
    entries: Arc<[String]>,
    contents: Arc<[[u8; ENTRY_BYTES]]>,
    pipe_payloads: Arc<[[u8; ENTRY_BYTES]]>,
    prefill: Vec<Vec<u8>>,
    ops: Vec<Arc<[FsOp]>>,
}

impl FsLargeState {
    /// Generates the directory contents and both clients' inputs from
    /// `seed`.
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5eed_0002);
        let entries: Arc<[String]> = (0..ENTRIES).map(|j| format!("e{j:05}")).collect();
        let contents = payloads::<ENTRY_BYTES>(&mut rng, ENTRIES).into();
        let pipe_payloads = payloads::<ENTRY_BYTES>(&mut rng, PIPE_PAYLOADS).into();
        // Cheapest to dearest: stat, open+read+close, pipe, create. As many
        // operations are cheaper than open+read+close as dearer, so the
        // median is that class's median; creates are exactly the dearest
        // 2%, so the 99th percentile is their median. An operation the
        // host preempts now and then moves neither.
        let deck = [
            (10, FsOp::Stat(0)),
            (30, FsOp::OpenRead(0)),
            (9, FsOp::Pipe(0)),
            (1, FsOp::Create(0)),
        ];
        let mut ops = Vec::new();
        let mut prefill = Vec::new();
        for _ in 0..CLIENTS {
            let draw = |r: &mut SplitMix64, op| match op {
                FsOp::Create(_) => FsOp::Create(r.below(CREATE_SLOTS as u64) as u8),
                FsOp::Stat(_) => FsOp::Stat(r.below(ENTRIES as u64) as u16),
                FsOp::OpenRead(_) => FsOp::OpenRead(r.below(ENTRIES as u64) as u16),
                FsOp::Pipe(_) => FsOp::Pipe(r.below(PIPE_PAYLOADS as u64) as u8),
            };
            ops.push(deal(&mut rng, &deck, 500, draw).into());
            prefill.push(
                (0..PIPE_DEPTH).map(|_| rng.below(PIPE_PAYLOADS as u64) as u8).collect(),
            );
        }
        FsLargeState { entries, contents, pipe_payloads, prefill, ops }
    }
}

/// One `fs_large_state` client: a tainted process holding hundreds of
/// fds and a deep pipe, working in the shared labeled directory.
#[derive(Debug)]
pub struct FsClient {
    task: TaskHandle,
    ops: Arc<[FsOp]>,
    entries: Arc<[String]>,
    contents: Arc<[[u8; ENTRY_BYTES]]>,
    pipe_payloads: Arc<[[u8; ENTRY_BYTES]]>,
    scratch: Vec<String>,
    pipe: (Fd, Fd),
    /// Payload indices queued in the pipe, oldest first.
    queued: VecDeque<u8>,
}

impl Client for FsClient {
    type Out = OsResult<Got>;

    fn input_len(&self) -> usize {
        self.ops.len()
    }

    fn exec<const T: bool>(&mut self, i: usize) -> OsResult<Got> {
        let t = &self.task;
        match self.ops[i] {
            FsOp::Create(k) => {
                let path = &self.scratch[usize::from(k)];
                let fd = os::<T, _>("os.create", || t.create(path))?;
                os::<T, _>("os.close", || t.close(fd))?;
                os::<T, _>("os.unlink", || t.unlink(path))?;
                Ok(Got::Unit)
            }
            FsOp::Stat(j) => {
                let path = &self.entries[usize::from(j)];
                os::<T, _>("os.stat", || t.stat(path)).map(|m| Got::Len(m.size))
            }
            FsOp::OpenRead(j) => {
                let path = &self.entries[usize::from(j)];
                let fd = os::<T, _>("os.open", || t.open(path, OpenMode::Read))?;
                let data = os::<T, _>("os.read", || t.read(fd, ENTRY_BYTES));
                os::<T, _>("os.close", || t.close(fd))?;
                Ok(Got::Data(data?))
            }
            FsOp::Pipe(k) => {
                let (r, w) = self.pipe;
                let p = &self.pipe_payloads[usize::from(k)];
                os::<T, _>("os.write", || t.write(w, p))?;
                os::<T, _>("os.read", || t.read(r, ENTRY_BYTES)).map(Got::Data)
            }
        }
    }

    fn check(&mut self, i: usize, out: OsResult<Got>) -> bool {
        match (self.ops[i], out) {
            (FsOp::Create(_), Ok(Got::Unit)) => true,
            (FsOp::Stat(_), Ok(Got::Len(n))) => n == ENTRY_BYTES as u64,
            (FsOp::OpenRead(j), Ok(Got::Data(d))) => d == self.contents[usize::from(j)],
            (FsOp::Pipe(k), Ok(Got::Data(d))) => {
                self.queued.push_back(k);
                let oldest =
                    self.queued.pop_front().expect("queue holds the new message");
                d == self.pipe_payloads[usize::from(oldest)]
            }
            _ => false,
        }
    }
}

impl Workload for FsLargeState {
    type World = Arc<Kernel>;
    type Client = FsClient;

    fn build(&self, variant: Variant) -> (Arc<Kernel>, Vec<FsClient>) {
        let kernel = boot(variant);
        kernel.add_user(UserId(100), "owner");
        let root = kernel.login(UserId(100)).expect("login");
        let tag = root.alloc_tag().expect("alloc_tag");
        let labels = SecPair::secrecy_only(Label::singleton(tag));
        root.set_task_label(LabelType::Secrecy, Label::singleton(tag)).expect("taint");
        let mut caps = CapSet::new();
        caps.grant(Capability::plus(tag));
        let clients = (0..CLIENTS)
            .map(|c| {
                let dir = format!("{BIG_DIR}{c}");
                kernel.install_dir(&dir, labels.clone()).expect("install dir");
                for (name, data) in self.entries.iter().zip(self.contents.iter()) {
                    let path = format!("{dir}/{name}");
                    kernel
                        .install_file(&path, labels.clone(), data)
                        .expect("install entry");
                }
                // Forked while tainted: the client inherits the label and
                // may create in the labeled directory with `tag+`. Names are
                // relative to its directory, so the two clients share no
                // directory lock.
                let task = root.fork(Some(caps.clone())).expect("fork");
                task.chdir(&dir).expect("chdir");
                for name in self.entries.iter().take(HELD_FDS) {
                    task.open(name, OpenMode::Read).expect("hold fd");
                }
                let (r, w) = task.pipe().expect("pipe");
                for &k in &self.prefill[c] {
                    task.write(w, &self.pipe_payloads[usize::from(k)]).expect("queue");
                }
                FsClient {
                    task,
                    ops: Arc::clone(&self.ops[c]),
                    entries: Arc::clone(&self.entries),
                    contents: Arc::clone(&self.contents),
                    pipe_payloads: Arc::clone(&self.pipe_payloads),
                    scratch: (0..CREATE_SLOTS).map(|k| format!("w{k}")).collect(),
                    pipe: (r, w),
                    queued: self.prefill[c].iter().copied().collect(),
                }
            })
            .collect();
        (kernel, clients)
    }

    fn sources<'a>(
        &self,
        world: &'a Arc<Kernel>,
        _clients: &'a [Self::Client],
    ) -> Sources<'a> {
        Sources { kernels: vec![world], ..Sources::default() }
    }

    fn finish(&self, _world: &Arc<Kernel>, clients: &[FsClient]) -> u64 {
        let listed = |c: &FsClient| c.task.readdir(".").ok().map(|v| v.len());
        clients.iter().filter(|c| listed(c) != Some(ENTRIES)).count() as u64
    }

    fn sizing(&self) -> Sizing {
        Sizing { warmup: 50, epoch: 15_000, trace: 5_000 }
    }

    fn baseline(&self) -> Baseline {
        Baseline::NullModule
    }
}
