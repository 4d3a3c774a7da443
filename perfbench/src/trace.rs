//! In-memory span recording for the traced run, and the timing security
//! module that wraps a real one.
//!
//! A span is one call into a layer: its name, start, end, the span that
//! caused it and the request (operation) it belongs to. Spans live in a
//! per-thread buffer while the workload runs and are handed back when the
//! thread stops recording; nothing is written out until the run ends.
//! The untraced run never calls into this module: every call site is
//! compiled out through the `TRACE` const parameter of the client loop.

use laminar_difc::SecPair;
use laminar_os::{Access, DeliveryVerdict, OsResult, SecurityModule, TaskSec};
use std::cell::RefCell;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `os.stat` or `lsm.inode_permission`.
    pub name: &'static str,
    /// Index of the parent span in the same buffer, if any.
    pub parent: Option<u32>,
    /// Request (operation) id the span belongs to.
    pub req: u32,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Duration of the span.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on the calling thread, with room for `capacity`
/// spans reserved up front so that recording does not reallocate.
pub fn start(origin: Instant, capacity: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin,
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
            req: 0,
        });
    });
}

/// Stops recording on the calling thread and returns its spans.
#[must_use]
pub fn stop() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|rec| rec.spans).unwrap_or_default())
}

/// Runs `f` inside a span named `name`. Without an active recorder the
/// call is just `f()`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = u32::try_from(rec.spans.len()).expect("span index fits in u32");
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        let parent = rec.open.last().copied();
        let req = rec.req;
        rec.spans.push(Span { name, parent, req, start_ns, end_ns: start_ns });
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let end = rec.origin.elapsed().as_nanos() as u64;
                rec.spans[idx as usize].end_ns = end;
                rec.open.pop();
            }
        });
    }
    out
}

/// Runs one operation as a request: a root span named `op` under a
/// fresh request id.
pub fn request<R>(f: impl FnOnce() -> R) -> R {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.req += 1;
        }
    });
    span("op", f)
}

/// A security module that records one `lsm.<hook>` span around each
/// hook of the module it wraps and otherwise passes every call and
/// verdict through unchanged.
#[derive(Debug, Default, Clone, Copy)]
pub struct TimedModule<M>(pub M);

impl<M: SecurityModule> SecurityModule for TimedModule<M> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn inode_permission(
        &self,
        task: &TaskSec,
        inode: &SecPair,
        mask: Access,
    ) -> OsResult<()> {
        span("lsm.inode_permission", || self.0.inode_permission(task, inode, mask))
    }

    fn inode_create(
        &self,
        task: &TaskSec,
        parent: &SecPair,
        new: &SecPair,
    ) -> OsResult<()> {
        span("lsm.inode_create", || self.0.inode_create(task, parent, new))
    }

    fn inode_unlink(
        &self,
        task: &TaskSec,
        parent: &SecPair,
        victim: &SecPair,
    ) -> OsResult<()> {
        span("lsm.inode_unlink", || self.0.inode_unlink(task, parent, victim))
    }

    fn file_permission(
        &self,
        task: &TaskSec,
        inode: &SecPair,
        mask: Access,
    ) -> OsResult<()> {
        span("lsm.file_permission", || self.0.file_permission(task, inode, mask))
    }

    fn file_mmap(&self, task: &TaskSec, backing: Option<&SecPair>) -> OsResult<()> {
        span("lsm.file_mmap", || self.0.file_mmap(task, backing))
    }

    fn task_kill(&self, sender: &TaskSec, target: &TaskSec) -> DeliveryVerdict {
        span("lsm.task_kill", || self.0.task_kill(sender, target))
    }

    fn task_set_label(&self, task: &TaskSec, new: &SecPair) -> OsResult<()> {
        span("lsm.task_set_label", || self.0.task_set_label(task, new))
    }

    fn pipe_write(&self, task: &TaskSec, pipe: &SecPair) -> DeliveryVerdict {
        span("lsm.pipe_write", || self.0.pipe_write(task, pipe))
    }

    fn pipe_read(&self, task: &TaskSec, pipe: &SecPair) -> OsResult<()> {
        span("lsm.pipe_read", || self.0.pipe_read(task, pipe))
    }

    fn cap_transfer(&self, sender: &TaskSec, pipe: &SecPair) -> DeliveryVerdict {
        span("lsm.cap_transfer", || self.0.cap_transfer(sender, pipe))
    }

    fn cap_receive(&self, receiver: &TaskSec, pipe: &SecPair) -> OsResult<()> {
        span("lsm.cap_receive", || self.0.cap_receive(receiver, pipe))
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p as usize] += s.dur_ns();
        }
    }
    spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
}
