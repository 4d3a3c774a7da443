//! Closed-loop clients and the fixed-work phases they run.
//!
//! Each client thread issues its next operation only after the previous
//! one returns (a closed loop), walking its pre-generated input list from
//! a start index and wrapping around at the end. The list of every
//! workload is built so that a full pass leaves the world as it found
//! it, so wrapping never changes an expected verdict. A phase runs a fixed
//! number of operations on every client of one freshly built world; the
//! harness times only `exec`, never the output check.

use crate::counters::{read_counters, Counters, Sources};
use crate::trace::{self, Span};
use laminar_util::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What a world is built with. Kernel workloads map these onto the
/// security module, the VM workload onto the barrier mode.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The secured program, untraced.
    Secure,
    /// The secured program with the timing security module (traced run).
    SecureTimed,
    /// The unsecured baseline: `NullModule`, or VM code without barriers.
    Baseline,
    /// The unsecured baseline with the timing security module.
    BaselineTimed,
}

/// The baseline a workload can be compared against in the traced run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Baseline {
    /// Same inputs on a kernel with `NullModule` (the Table 2 ratio).
    NullModule,
    /// Same calls on VMs compiled without barriers (Figure 8).
    NoBarriers,
    /// None.
    Nothing,
}

/// One client of a workload: executes and checks operations of its own
/// pre-generated input list.
pub trait Client: Send {
    /// What `exec` hands to `check`.
    type Out;
    /// Length of the input list.
    fn input_len(&self) -> usize;
    /// Executes operation `i` against the program. With `TRACE` set it
    /// wraps each call into a layer in a span.
    fn exec<const TRACE: bool>(&mut self, i: usize) -> Self::Out;
    /// Checks the output of operation `i` against the expected verdict
    /// and data, updating the client's record of the world's state.
    fn check(&mut self, i: usize, out: Self::Out) -> bool;
}

/// A workload: builds worlds of clients from inputs generated once.
pub trait Workload: Sync {
    /// Everything the clients share and the final checks need.
    type World;
    /// A client thread's state.
    type Client: Client;
    /// Boots and prefills a world and its clients.
    fn build(&self, variant: Variant) -> (Self::World, Vec<Self::Client>);
    /// Objects whose counters the traced run reads.
    fn sources<'a>(
        &self,
        world: &'a Self::World,
        clients: &'a [Self::Client],
    ) -> Sources<'a>;
    /// Checks the world's final state; returns the number of failed checks.
    fn finish(&self, world: &Self::World, clients: &[Self::Client]) -> u64;
    /// How many operations each client runs per phase.
    fn sizing(&self) -> Sizing;
    /// The baseline the traced run compares against.
    fn baseline(&self) -> Baseline;
    /// Per-layer metrics this workload adds from the traced phase.
    fn layer_metrics(&self, _world: &Self::World, _out: &mut crate::report::Layers) {}
}

/// Operations each client runs in the phases of a workload. Phases are
/// fixed work, so state a workload grows (inboxes, group logs, VM heaps)
/// reaches the same size in every phase whatever the throughput. Each is a
/// whole number of the workload's decks, so every phase runs its mix in
/// exact proportions.
#[derive(Copy, Clone, Debug)]
pub struct Sizing {
    /// Untimed, before every measured phase.
    pub warmup: usize,
    /// One epoch of the end-to-end run, about a second.
    pub epoch: usize,
    /// One phase of the traced run.
    pub trace: usize,
}

/// Deals `deck` (copies, op) into `decks` shuffled rounds, passing each op
/// through `draw` to pick its arguments. Every seed runs the same mix in a
/// different order.
pub fn deal<T: Copy>(
    rng: &mut SplitMix64,
    deck: &[(u32, T)],
    decks: usize,
    mut draw: impl FnMut(&mut SplitMix64, T) -> T,
) -> Vec<T> {
    let mut out = Vec::new();
    for _ in 0..decks {
        let mut round: Vec<T> = deck
            .iter()
            .flat_map(|&(n, op)| std::iter::repeat_n(op, n as usize))
            .collect();
        rng.shuffle(&mut round);
        out.extend(round.into_iter().map(|op| draw(rng, op)));
    }
    out
}

/// Operations attempted and failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted, plus final-state checks.
    pub attempted: u64,
    /// Operations whose output check failed or that panicked, plus failed
    /// final-state checks.
    pub failed: u64,
}

impl Tally {
    /// Adds another tally to this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The result of one phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations whose output check failed, or that panicked.
    pub failed: u64,
    /// Operations completed.
    pub ops: u64,
    /// Sum of the operations' latencies, in nanoseconds.
    pub lat_sum_ns: u64,
    /// Wall time from the first client's start to the last one's end.
    pub wall: Duration,
    /// A uniform sample of each client's operation latencies, in
    /// nanoseconds: every latency up to [`SAMPLE_CAP`] operations, a
    /// reservoir of that size beyond.
    pub lats_ns: Vec<u64>,
    /// Recorded spans, one buffer per client (traced phases only).
    pub spans: Vec<Vec<Span>>,
}

impl Phase {
    /// Operations completed per second over the phase.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }

    /// Mean operation latency in microseconds.
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        self.lat_sum_ns as f64 / self.ops.max(1) as f64 / 1e3
    }

    /// Operations attempted and failed.
    #[must_use]
    pub fn tally(&self) -> Tally {
        Tally { attempted: self.ops, failed: self.failed }
    }
}

/// Latencies each client keeps per phase. Keeping a bounded sample keeps
/// the benchmark's own memory, and so `peak_rss_mb`, independent of
/// throughput.
pub const SAMPLE_CAP: usize = 1 << 17;

struct ThreadOut {
    start: Instant,
    end: Instant,
    ops: u64,
    failed: u64,
    lat_sum_ns: u64,
    lats_ns: Vec<u64>,
    spans: Vec<Span>,
}

const SPANS_PER_OP: usize = 16;

fn drive<C: Client, const TRACE: bool>(
    c: &mut C,
    from: usize,
    n: usize,
    barrier: &Barrier,
) -> ThreadOut {
    let cap = n.min(SAMPLE_CAP);
    let mut lats_ns = Vec::with_capacity(cap);
    let mut reservoir = SplitMix64::new(0x1a7e_5a3b);
    let (mut ops, mut failed, mut lat_sum_ns) = (0u64, 0u64, 0u64);
    barrier.wait();
    let start = Instant::now();
    if TRACE {
        trace::start(start, cap * SPANS_PER_OP);
    }
    let len = c.input_len();
    let mut i = from % len;
    let mut end = start;
    while ops < n as u64 {
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            if TRACE {
                trace::request(|| c.exec::<true>(i))
            } else {
                c.exec::<false>(i)
            }
        }));
        end = Instant::now();
        let ns = (end - t0).as_nanos() as u64;
        ops += 1;
        lat_sum_ns += ns;
        if lats_ns.len() < SAMPLE_CAP {
            lats_ns.push(ns);
        } else if let Some(slot) = lats_ns.get_mut(reservoir.below(ops) as usize) {
            *slot = ns;
        }
        let ok = match out {
            Ok(o) => catch_unwind(AssertUnwindSafe(|| c.check(i, o))).unwrap_or(false),
            Err(_) => false,
        };
        failed += u64::from(!ok);
        i = (i + 1) % len;
    }
    let spans = if TRACE { trace::stop() } else { Vec::new() };
    ThreadOut { start, end, ops, failed, lat_sum_ns, lats_ns, spans }
}

/// Runs `n` operations of every client from operation `from`, one thread
/// per client, all released together.
pub fn run_phase<C: Client, const TRACE: bool>(
    clients: &mut [C],
    from: usize,
    n: usize,
) -> Phase {
    let barrier = Barrier::new(clients.len());
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || drive::<C, TRACE>(c, from, n, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked outside an operation"))
            .collect()
    });
    let first = outs.iter().map(|o| o.start).min().expect("at least one client");
    let last = outs.iter().map(|o| o.end).max().expect("at least one client");
    let mut phase = Phase { wall: last - first, ..Phase::default() };
    for o in outs {
        phase.ops += o.ops;
        phase.lat_sum_ns += o.lat_sum_ns;
        phase.failed += o.failed;
        phase.lats_ns.extend(o.lats_ns);
        phase.spans.push(o.spans);
    }
    phase
}

/// A measured phase on a fresh world, with its build time and the
/// counter deltas of its timed part.
pub struct Measured<W> {
    /// The world, kept for the per-layer metrics of the workload.
    pub world: W,
    /// Seconds spent building the world.
    pub setup_s: f64,
    /// The timed part.
    pub phase: Phase,
    /// Warm-up operations and final-state checks.
    pub untimed: Tally,
    /// Counter deltas over the timed part.
    pub counters: Counters,
}

/// Builds a world, warms its clients up, times `n` operations of each
/// client and checks the final state. `clients` limits the number of
/// clients used.
pub fn measure<L: Workload, const TRACE: bool>(
    wl: &L,
    variant: Variant,
    clients: usize,
    n: usize,
) -> Measured<L::World> {
    let t = Instant::now();
    let (world, mut cs) = wl.build(variant);
    let setup_s = t.elapsed().as_secs_f64();
    cs.truncate(clients);
    let warmup = wl.sizing().warmup;
    let mut untimed = run_phase::<L::Client, false>(&mut cs, 0, warmup).tally();
    let before = read_counters(&wl.sources(&world, &cs));
    let phase = run_phase::<L::Client, TRACE>(&mut cs, warmup, n);
    let counters = read_counters(&wl.sources(&world, &cs)) - before;
    untimed.add(Tally { attempted: 1, failed: wl.finish(&world, &cs) });
    Measured { world, setup_s, phase, untimed, counters }
}

impl<W> Measured<W> {
    /// Every operation and check of the measurement.
    #[must_use]
    pub fn tally(&self) -> Tally {
        let mut t = self.phase.tally();
        t.add(self.untimed);
        t
    }
}

/// Median of a list of values (the mean of the middle two for an even
/// count).
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0..=1) of latencies, in microseconds.
#[must_use]
pub fn percentile_us(lats_ns: &mut [u64], q: f64) -> f64 {
    if lats_ns.is_empty() {
        return 0.0;
    }
    let rank = ((q * lats_ns.len() as f64).ceil() as usize).clamp(1, lats_ns.len());
    let (_, v, _) = lats_ns.select_nth_unstable(rank - 1);
    *v as f64 / 1e3
}
