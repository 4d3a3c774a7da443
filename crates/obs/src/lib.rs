//! # laminar-obs — trusted audit & decision-trace subsystem
//!
//! Laminar's enforcement is deliberately *silent* toward untrusted
//! subjects: pipe writes, capability transfers and signals that fail the
//! flow check are dropped with no error, because the error code would
//! itself be a channel (§5.2). The flip side is that the reference
//! monitor's decisions are invisible — to operators and auditors as well
//! as to adversaries. This crate restores visibility **on the trusted
//! side only**: a low-overhead decision trace that records what the
//! enforcement layers decided (the OS LSM hooks and syscall transaction
//! boundary, the VM barriers and security regions), correlated with the
//! kernel's commit tickets so an audit trail can be replayed against the
//! linearization witness.
//!
//! ## One log per owner
//!
//! An [`Audit`] is the whole sink: an enable flag, one bounded ring with
//! its own dense sequence numbers, its truncation count and its
//! per-syscall latency histograms. Each kernel owns one and each VM owns
//! one; nothing here is process-global, so one kernel's log never holds
//! another's decisions. The `laminar-difc` memo cache does not trace: one
//! verdict there serves every kernel in the process, so a miss records
//! cache state, not any monitor's decision. The layer that asked — an
//! LSM hook, a syscall's outcome, a barrier — records the decision.
//!
//! ## Trust gating
//!
//! The read side ([`Audit::snapshot`]) is reached only through the
//! owner: `Kernel::audit()` and `Vm::audit()`. `TaskHandle` has no path
//! to its kernel, so no syscall exposes an audit, and nothing here is
//! keyed by or filtered to a calling task. A subject that could observe
//! its own `SilentDrop` events would have exactly the covert channel
//! §5.2 closes — the audit log is the operator's view.
//!
//! ## Exactly-once semantics
//!
//! Syscall bodies may rerun (the sharded kernel's footprint-restart
//! loop), so events a body reports through [`emit`] are *staged* in a
//! thread-local buffer that [`Audit::syscall_begin`] opens — only when
//! that kernel's audit is enabled. A restart discards the stage. A final
//! outcome (success or typed denial) moves the attempt into the owner's
//! ring under one lock, so each syscall's records are contiguous and
//! densely numbered (commit tickets, taken earlier, stay the
//! cross-thread order witness); a caught panic (rollback) discards the
//! staged decisions, since the half-executed body's effects were undone.
//! [`emit`] with no open stage does nothing. Events outside any syscall
//! (VM barriers, region entry and abort) go straight into their owner's
//! ring through [`Audit::record`].
//!
//! ## Cost
//!
//! Disabled, a syscall or barrier reads its owner's flag with one
//! relaxed atomic load: no clock reads, no locks, no allocation. Enabled,
//! a dispatch that decided nothing — no staged events, no typed error —
//! leaves no records, and one dispatch in [`LATENCY_SAMPLE_EVERY`] per
//! thread reads the clock for the log2 latency histograms, so the ring
//! lock is taken only by dispatches that decided something or were
//! sampled. LSM hooks record only denials.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Which enforcement layer produced an event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The OS kernel: LSM hooks and the syscall transaction boundary.
    Os,
    /// The managed runtime: VM read/write barriers and security regions.
    Vm,
}

impl Layer {
    fn as_str(self) -> &'static str {
        match self {
            Layer::Os => "os",
            Layer::Vm => "vm",
        }
    }
}

/// The unreliable channel on which a message was silently dropped.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DropChannel {
    /// A pipe write (flow veto or full buffer).
    Pipe,
    /// A socket write (same semantics as pipes).
    Socket,
    /// A signal whose sender → target flow was vetoed.
    Signal,
    /// A capability transfer through a pipe.
    Cap,
}

impl DropChannel {
    fn as_str(self) -> &'static str {
        match self {
            DropChannel::Pipe => "pipe",
            DropChannel::Socket => "socket",
            DropChannel::Signal => "signal",
            DropChannel::Cap => "cap",
        }
    }
}

/// The outcome of one flow/subset check.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The flow was allowed.
    Allow,
    /// The flow was denied (for unreliable channels: silently dropped).
    Deny,
}

/// One audit event. All payloads are plain ids and static strings so
/// events are `Copy` and recording never allocates per-event payloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// One flow decision. `subject`/`object` are interned pair ids
    /// (`laminar-difc` interning makes them stable process-wide for the
    /// life of the run).
    FlowCheck {
        /// Layer that asked the question.
        layer: Layer,
        /// Which check: the LSM hook or barrier name.
        op: &'static str,
        /// Interned id of the subject (task / source) label or pair.
        subject: u32,
        /// Interned id of the object (target) label or pair.
        object: u32,
        /// The decision.
        verdict: Verdict,
    },
    /// A message silently dropped on an unreliable channel (§5.2). The
    /// subject saw full success; only this trusted log records the drop.
    SilentDrop {
        /// Which channel dropped.
        channel: DropChannel,
    },
    /// A task label change that passed the label-change rule. A shrink
    /// of the secrecy label (or growth of integrity) is a
    /// declassification-side transition and sets `declassify`.
    LabelChange {
        /// Task whose label changed.
        task: u64,
        /// `"secrecy"` or `"integrity"`.
        ty: &'static str,
        /// Interned label id before the change.
        before: u32,
        /// Interned label id after the change.
        after: u32,
        /// Whether the transition released information (secrecy shrank
        /// or integrity grew) — the §4.3 declassification direction.
        declassify: bool,
    },
    /// A security-region entry decision.
    RegionEnter {
        /// Layer that evaluated the entry rule.
        layer: Layer,
        /// The decision (a denied entry never runs the region body).
        verdict: Verdict,
    },
    /// A security region aborted: its body faulted and its labeled
    /// writes were rolled back (secure termination, §4.3.3).
    RegionAbort {
        /// Layer that performed the abort.
        layer: Layer,
    },
    /// A syscall entered the dispatch loop. Recorded at flush time,
    /// immediately before the events its body staged.
    SyscallEnter {
        /// Static syscall name.
        name: &'static str,
    },
    /// A syscall reached a final outcome (success *or* typed denial) and
    /// took a commit ticket.
    SyscallCommit {
        /// Static syscall name.
        name: &'static str,
        /// The commit ticket (PR 4 linearization witness position).
        ticket: u64,
        /// Wall-clock latency of the whole dispatch, in nanoseconds —
        /// `None` when this dispatch was not latency-sampled (see
        /// [`LATENCY_SAMPLE_EVERY`]).
        latency_ns: Option<u64>,
        /// `Some(reason)` when the outcome was a typed denial.
        denied: Option<&'static str>,
    },
    /// A syscall was rolled back after a caught panic: its staged
    /// decision events were discarded along with its side effects.
    SyscallRollback {
        /// Static syscall name.
        name: &'static str,
        /// The commit ticket the rollback consumed.
        ticket: u64,
        /// Wall-clock latency of the whole dispatch, in nanoseconds —
        /// `None` when this dispatch was not latency-sampled.
        latency_ns: Option<u64>,
    },
    /// A resource allocation was denied by a [`Quotas`]-style limit.
    ///
    /// [`Quotas`]: https://docs.rs/laminar-os
    QuotaExceeded {
        /// Static name of the exhausted resource.
        resource: &'static str,
    },
}

/// One recorded event with its sequence number. Each [`Audit`] numbers
/// its records densely from 0 in the order they enter its ring.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Position in the owning audit's sequence.
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// Number of log2 latency buckets: bucket `i` counts syscalls whose
/// latency `t` satisfies `2^i ≤ t < 2^(i+1)` nanoseconds (bucket 0 also
/// absorbs `t < 1 ns`; the last bucket absorbs everything ≥ 2^31 ns).
pub const HIST_BUCKETS: usize = 32;

/// A fixed log2-bucket latency histogram for one syscall.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LatencyHist {
    /// Bucket counts; see [`HIST_BUCKETS`] for the bucket boundaries.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist { buckets: [0; HIST_BUCKETS] }
    }
}

impl LatencyHist {
    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    fn record(&mut self, nanos: u64) {
        let b = if nanos == 0 {
            0
        } else {
            (63 - nanos.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[b] += 1;
    }
}

/// Ring capacity of one [`Audit`], in records; past it the oldest go.
pub const RING_CAPACITY: usize = 8192;

/// Latency sampling period: one syscall dispatch in this many per thread
/// reads the clock and feeds the per-syscall histograms; the rest record
/// `latency_ns: None`, which keeps clock reads off the common path.
pub const LATENCY_SAMPLE_EVERY: u32 = 64;

/// One audit's bounded event ring plus its latency histograms.
#[derive(Default)]
struct Ring {
    buf: VecDeque<Record>,
    next_seq: u64,
    /// Oldest-record drops forced by the capacity bound.
    truncated: u64,
    hist: BTreeMap<&'static str, LatencyHist>,
}

impl Ring {
    fn push(&mut self, event: Event) {
        self.buf.push_back(Record { seq: self.next_seq, event });
        self.next_seq += 1;
        if self.buf.len() > RING_CAPACITY {
            self.buf.pop_front();
            self.truncated += 1;
        }
    }
}

/// The audit log of one owner (a kernel or a VM): its enable flag and
/// its ring. Disabled by default. **Trusted**: reach it through the
/// owner, never through a subject's handle (see the module docs).
#[derive(Default)]
pub struct Audit {
    enabled: AtomicBool,
    ring: Mutex<Ring>,
}

impl fmt::Debug for Audit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Audit").field("enabled", &self.enabled()).finish_non_exhaustive()
    }
}

/// The syscall attempt in flight on this thread (when its kernel's audit
/// is enabled): the events its body staged, plus the thread's
/// latency-sampling tick.
struct Stage {
    open: bool,
    events: Vec<Event>,
    tick: u32,
}

thread_local! {
    static STAGE: RefCell<Stage> =
        const { RefCell::new(Stage { open: false, events: Vec::new(), tick: 0 }) };
}

/// Stages one event for the syscall attempt in flight on this thread. A
/// no-op when no stage is open: outside a syscall, or while the kernel's
/// audit is disabled.
pub fn emit(event: Event) {
    STAGE.with(|s| {
        let mut s = s.borrow_mut();
        if s.open {
            s.events.push(event);
        }
    });
}

impl Audit {
    /// A disabled, empty audit.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables recording into this audit.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether this audit records.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one event outside any syscall (VM barriers and regions).
    /// No-op when disabled.
    pub fn record(&self, event: Event) {
        if self.enabled() {
            self.ring().push(event);
        }
    }

    /// Opens this thread's stage for one syscall dispatch. Returns `None`
    /// (and costs one atomic load) when disabled. Spans do not nest: a
    /// syscall body never issues another syscall.
    #[must_use]
    pub fn syscall_begin(&self, name: &'static str) -> Option<SyscallSpan<'_>> {
        if !self.enabled() {
            return None;
        }
        let sampled = STAGE.with(|s| {
            let mut s = s.borrow_mut();
            s.open = true;
            let sampled = s.tick % LATENCY_SAMPLE_EVERY == 0;
            s.tick = s.tick.wrapping_add(1);
            sampled
        });
        Some(SyscallSpan { audit: self, name, start: sampled.then(Instant::now) })
    }

    /// Copies the ring into an [`AuditLog`] without draining it.
    /// **Trusted read API** (see the module docs).
    #[must_use]
    pub fn snapshot(&self) -> AuditLog {
        let ring = self.ring();
        AuditLog {
            records: ring.buf.iter().copied().collect(),
            truncated: ring.truncated,
            histograms: ring.hist.clone(),
        }
    }
}

/// An in-flight syscall dispatch on an enabled [`Audit`]: this thread's
/// stage is open, and (when this dispatch is latency-sampled) the span
/// holds the start timestamp. Finished with [`SyscallSpan::commit`] or
/// [`SyscallSpan::rollback`]; dropping it closes the stage and discards
/// whatever is staged.
#[derive(Debug)]
pub struct SyscallSpan<'a> {
    audit: &'a Audit,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SyscallSpan<'_> {
    fn drop(&mut self) {
        STAGE.with(|s| {
            let mut s = s.borrow_mut();
            s.open = false;
            s.events.clear();
        });
    }
}

impl SyscallSpan<'_> {
    /// Discards events staged by an attempt that is about to rerun
    /// (footprint restart): the body re-executes, so its decisions must
    /// not be recorded twice.
    pub fn retry(&self) {
        STAGE.with(|s| s.borrow_mut().events.clear());
    }

    fn latency_ns(&self) -> Option<u64> {
        self.start.map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Records the span as a final outcome. A **decision-bearing**
    /// dispatch — one that staged at least one event, or ended in a
    /// typed denial — records `SyscallEnter`, the staged body events,
    /// then `SyscallCommit` (with `denied` naming the typed error, if
    /// any), contiguously and under one ring lock. A decision-free
    /// success leaves no records at all: an Enter/Commit pair would tell
    /// the auditor nothing, and *not* logging it keeps enabled tracing
    /// nearly free on the hot path. Either way, a sampled latency joins
    /// the per-syscall histogram.
    pub fn commit(self, ticket: u64, denied: Option<&'static str>) {
        let latency_ns = self.latency_ns();
        STAGE.with(|s| {
            let mut s = s.borrow_mut();
            let decided = !s.events.is_empty() || denied.is_some();
            if !decided && latency_ns.is_none() {
                return;
            }
            let mut ring = self.audit.ring();
            if decided {
                ring.push(Event::SyscallEnter { name: self.name });
                for event in s.events.drain(..) {
                    ring.push(event);
                }
                ring.push(Event::SyscallCommit {
                    name: self.name,
                    ticket,
                    latency_ns,
                    denied,
                });
            }
            if let Some(ns) = latency_ns {
                ring.hist.entry(self.name).or_default().record(ns);
            }
        });
    }

    /// Records the span as a caught-panic rollback: the staged decision
    /// events are discarded (the body's effects were undone) and only
    /// `SyscallEnter` + `SyscallRollback` are recorded.
    pub fn rollback(self, ticket: u64) {
        let latency_ns = self.latency_ns();
        let mut ring = self.audit.ring();
        ring.push(Event::SyscallEnter { name: self.name });
        ring.push(Event::SyscallRollback { name: self.name, ticket, latency_ns });
        if let Some(ns) = latency_ns {
            ring.hist.entry(self.name).or_default().record(ns);
        }
    }
}

/// A snapshot of one [`Audit`]: the trusted audit log of its owner.
#[derive(Clone, Debug, Default)]
pub struct AuditLog {
    /// The records still in the ring, in sequence order.
    pub records: Vec<Record>,
    /// Oldest records discarded by the ring-capacity bound. Non-zero
    /// means the log is a suffix, not a full history.
    pub truncated: u64,
    /// Per-syscall latency histograms.
    pub histograms: BTreeMap<&'static str, LatencyHist>,
}

impl AuditLog {
    /// Serialises the log as JSON lines: one object per record, then one
    /// per histogram, then a trailing summary object. Hand-rolled (the
    /// workspace is dependency-free); all strings are static identifiers
    /// but are escaped anyway.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&record_json(r));
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"syscall\":{},\"count\":{},\"log2_ns_buckets\":[{}]}}\n",
                json_str(name),
                h.count(),
                h.buckets.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
            ));
        }
        out.push_str(&format!(
            "{{\"type\":\"summary\",\"records\":{},\"truncated\":{}}}\n",
            self.records.len(),
            self.truncated
        ));
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn record_json(r: &Record) -> String {
    let body = match &r.event {
        Event::FlowCheck { layer, op, subject, object, verdict } => format!(
            "\"type\":\"flow_check\",\"layer\":\"{}\",\"op\":{},\"subject\":{subject},\
             \"object\":{object},\"verdict\":\"{}\"",
            layer.as_str(),
            json_str(op),
            if *verdict == Verdict::Allow { "allow" } else { "deny" },
        ),
        Event::SilentDrop { channel } => {
            format!("\"type\":\"silent_drop\",\"channel\":\"{}\"", channel.as_str())
        }
        Event::LabelChange { task, ty, before, after, declassify } => format!(
            "\"type\":\"label_change\",\"task\":{task},\"label\":{},\"before\":{before},\
             \"after\":{after},\"declassify\":{declassify}",
            json_str(ty),
        ),
        Event::RegionEnter { layer, verdict } => format!(
            "\"type\":\"region_enter\",\"layer\":\"{}\",\"verdict\":\"{}\"",
            layer.as_str(),
            if *verdict == Verdict::Allow { "allow" } else { "deny" },
        ),
        Event::RegionAbort { layer } => {
            format!("\"type\":\"region_abort\",\"layer\":\"{}\"", layer.as_str())
        }
        Event::SyscallEnter { name } => {
            format!("\"type\":\"syscall_enter\",\"name\":{}", json_str(name))
        }
        Event::SyscallCommit { name, ticket, latency_ns, denied } => format!(
            "\"type\":\"syscall_commit\",\"name\":{},\"ticket\":{ticket},\
             \"latency_ns\":{},\"denied\":{}",
            json_str(name),
            latency_ns.map_or_else(|| "null".to_string(), |ns| ns.to_string()),
            denied.map_or_else(|| "null".to_string(), json_str),
        ),
        Event::SyscallRollback { name, ticket, latency_ns } => format!(
            "\"type\":\"syscall_rollback\",\"name\":{},\"ticket\":{ticket},\
             \"latency_ns\":{}",
            json_str(name),
            latency_ns.map_or_else(|| "null".to_string(), |ns| ns.to_string()),
        ),
        Event::QuotaExceeded { resource } => {
            format!("\"type\":\"quota_exceeded\",\"resource\":{}", json_str(resource))
        }
    };
    format!("{{\"seq\":{},{body}}}", r.seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_event() -> Event {
        Event::SilentDrop { channel: DropChannel::Pipe }
    }

    fn enabled_audit() -> Audit {
        let audit = Audit::new();
        audit.set_enabled(true);
        audit
    }

    #[test]
    fn disabled_audit_records_nothing() {
        let audit = Audit::new();
        assert!(audit.syscall_begin("noop").is_none());
        emit(drop_event());
        audit.record(drop_event());
        assert!(audit.snapshot().records.is_empty());
    }

    #[test]
    fn audits_are_independent() {
        let (on, off) = (enabled_audit(), Audit::new());
        let span = on.syscall_begin("write").expect("enabled");
        assert!(off.syscall_begin("write").is_none());
        emit(drop_event());
        span.commit(1, None);
        off.record(drop_event());
        assert_eq!(on.snapshot().records.len(), 3, "enter, drop, commit");
        assert!(off.snapshot().records.is_empty());
    }

    #[test]
    fn ring_wraparound_counts_truncation() {
        let audit = enabled_audit();
        let total = RING_CAPACITY as u64 + 6;
        for ticket in 0..total {
            audit.record(Event::SyscallCommit {
                name: "w",
                ticket,
                latency_ns: None,
                denied: None,
            });
        }
        let log = audit.snapshot();
        assert_eq!(log.truncated, 6, "6 pushes past capacity drop the 6 oldest");
        // The survivors are the *newest* records, in order, numbered densely.
        assert!(log.records.iter().map(|r| r.seq).eq(6..total));
        let tickets = log.records.iter().map(|r| match r.event {
            Event::SyscallCommit { ticket, .. } => ticket,
            _ => u64::MAX,
        });
        assert!(tickets.eq(6..total));
    }

    #[test]
    fn staged_events_flush_on_commit_and_clear_on_retry() {
        let audit = enabled_audit();
        // Attempt 1 stages an event, then restarts: nothing recorded.
        let span = audit.syscall_begin("write").expect("enabled");
        emit(drop_event());
        span.retry();
        // Attempt 2 stages again and commits: exactly one drop recorded.
        emit(drop_event());
        span.commit(7, None);

        let recs = audit.snapshot().records;
        let drops =
            recs.iter().filter(|r| matches!(r.event, Event::SilentDrop { .. })).count();
        assert_eq!(drops, 1, "retry must discard the first attempt's stage");
        assert!(matches!(
            recs.first().map(|r| r.event),
            Some(Event::SyscallEnter { name: "write" })
        ));
        assert!(matches!(
            recs.last().map(|r| r.event),
            Some(Event::SyscallCommit { name: "write", ticket: 7, denied: None, .. })
        ));
    }

    #[test]
    fn rollback_discards_staged_decisions() {
        let audit = enabled_audit();
        let span = audit.syscall_begin("kill").expect("enabled");
        emit(drop_event());
        span.rollback(9);
        let recs = audit.snapshot().records;
        assert!(recs.iter().all(|r| !matches!(r.event, Event::SilentDrop { .. })));
        assert!(matches!(
            recs.last().map(|r| r.event),
            Some(Event::SyscallRollback { name: "kill", ticket: 9, .. })
        ));
    }

    #[test]
    fn unfinished_span_discards_stage_on_drop() {
        let audit = enabled_audit();
        {
            let _span = audit.syscall_begin("open").expect("enabled");
            emit(drop_event());
            // dropped without commit/rollback
        }
        // Nothing recorded, and the stage is closed: emits go nowhere.
        emit(drop_event());
        assert!(audit.snapshot().records.is_empty());
    }

    #[test]
    fn latency_histogram_buckets_are_log2() {
        let mut h = LatencyHist::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        h.record(u64::MAX); // clamped to the last bucket
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn one_dispatch_per_period_is_latency_sampled() {
        let audit = enabled_audit();
        // Any 2 * LATENCY_SAMPLE_EVERY consecutive dispatches on a thread
        // hold exactly two sampled ones. Each span stages a drop so its
        // commit is decision-bearing and recorded.
        for i in 0..2 * u64::from(LATENCY_SAMPLE_EVERY) {
            let span = audit.syscall_begin("seek").expect("enabled");
            emit(drop_event());
            span.commit(i, None);
        }
        let log = audit.snapshot();
        let commits: Vec<Option<u64>> = log
            .records
            .iter()
            .filter_map(|r| match r.event {
                Event::SyscallCommit { latency_ns, .. } => Some(latency_ns),
                _ => None,
            })
            .collect();
        assert_eq!(commits.len(), 2 * LATENCY_SAMPLE_EVERY as usize);
        assert_eq!(commits.iter().filter(|l| l.is_some()).count(), 2);
        assert_eq!(log.histograms.get("seek").map(LatencyHist::count), Some(2));
    }

    #[test]
    fn decision_free_success_leaves_no_records() {
        let audit = enabled_audit();
        // No staged events, no denial: nothing lands in the ring…
        for i in 0..u64::from(LATENCY_SAMPLE_EVERY) {
            audit.syscall_begin("read").expect("enabled").commit(i, None);
        }
        let log = audit.snapshot();
        assert!(log.records.is_empty());
        // …but the one sampled latency still feeds the histogram…
        assert_eq!(log.histograms.get("read").map(LatencyHist::count), Some(1));
        // …and a denied commit with no staged events is still recorded.
        audit.syscall_begin("read").expect("enabled").commit(99, Some("flow"));
        assert!(matches!(
            audit.snapshot().records.last().map(|r| r.event),
            Some(Event::SyscallCommit { denied: Some("flow"), .. })
        ));
    }

    #[test]
    fn concurrent_commits_are_numbered_densely() {
        let audit = enabled_audit();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..8 {
                        let span = audit.syscall_begin("write").expect("enabled");
                        emit(drop_event());
                        span.commit(i, None);
                    }
                });
            }
        });
        let log = audit.snapshot();
        assert!(log.records.iter().map(|r| r.seq).eq(0..4 * 8 * 3));
        // Each commit's three records are contiguous: one lock per commit.
        for chunk in log.records.chunks(3) {
            assert!(matches!(chunk[0].event, Event::SyscallEnter { .. }));
            assert!(matches!(chunk[1].event, Event::SilentDrop { .. }));
            assert!(matches!(chunk[2].event, Event::SyscallCommit { .. }));
        }
    }

    #[test]
    fn json_lines_export_is_one_object_per_line() {
        let audit = enabled_audit();
        let span = audit.syscall_begin("write").expect("enabled");
        emit(Event::QuotaExceeded { resource: "file size" });
        span.commit(3, Some("quota"));
        // One more period of dispatches holds one latency-sampled dispatch.
        for i in 0..u64::from(LATENCY_SAMPLE_EVERY) {
            audit.syscall_begin("read").expect("enabled").commit(i, None);
        }
        let json = audit.snapshot().to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert!(lines.len() >= 5, "3 records + histogram + summary");
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "not an object: {l}");
        }
        assert!(json.contains("\"type\":\"quota_exceeded\""));
        assert!(json.contains("\"denied\":\"quota\""));
        assert!(json.contains("\"type\":\"histogram\""));
    }
}

#[cfg(test)]
mod micro {
    use super::*;

    #[test]
    #[ignore = "manual microbenchmark"]
    fn span_cost() {
        let audit = Audit::new();
        audit.set_enabled(true);
        let n = 2_000_000u64;
        let t = Instant::now();
        for i in 0..n {
            let s = audit.syscall_begin("x").unwrap();
            s.commit(i, None);
        }
        let per = t.elapsed().as_nanos() as f64 / n as f64;
        eprintln!("enabled span+commit: {per:.1} ns/syscall");
        let t = Instant::now();
        for _ in 0..n {
            audit.record(Event::SilentDrop { channel: DropChannel::Pipe });
        }
        let per = t.elapsed().as_nanos() as f64 / n as f64;
        eprintln!("enabled record (direct): {per:.1} ns/event");
        audit.set_enabled(false);
        let t = Instant::now();
        for i in 0..n {
            if let Some(s) = audit.syscall_begin("x") {
                s.commit(i, None);
            }
        }
        let per = t.elapsed().as_nanos() as f64 / n as f64;
        eprintln!("disabled span+commit: {per:.1} ns/syscall");
    }
}
