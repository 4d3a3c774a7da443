//! The end-to-end run and the traced run of one workload.

use crate::harness::{
    measure, median, percentile_us, Baseline, Measured, Tally, Variant, Workload,
};
use crate::report::{
    Layers, Metric, APP_CMDS, END_TO_END, LSM_HOOKS, OS_CALLS, VM_PROGRAMS,
};
use crate::trace::{self_times, Span};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Result of the end-to-end run.
#[derive(Debug)]
pub struct EndToEnd {
    /// Metrics listed in `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// `fail_frac`, printed but not listed: it is 0 on a correct program,
    /// so it cannot carry a relative bound.
    pub fail_frac: Metric,
    /// Operation totals.
    pub tally: Tally,
}

/// Peak resident set size of this process, in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worlds each setup thread builds back to back for `setup_s`: at least
/// this many, and more until a second has passed, up to [`MAX_SETUPS`].
const MIN_SETUPS: usize = 11;
const MAX_SETUPS: usize = 501;
/// Threads building worlds at once for `setup_s`, one per CPU of the
/// host it was tuned on. A single thread reads the speed of whichever CPU
/// it happens to run on; on a shared host two CPUs can differ by half.
const SETUP_THREADS: usize = 2;

/// Builds worlds back to back on [`SETUP_THREADS`] threads and returns the
/// mean over threads of each thread's median build time, in seconds, and
/// the number of builds. Each world is dropped only after the next one is
/// built, so the memory it frees is reused rather than handed back to the
/// OS between builds.
fn setup_s<L: Workload>(wl: &L) -> (f64, usize) {
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SETUP_THREADS)
            .map(|_| {
                s.spawn(|| {
                    let started = Instant::now();
                    let mut times = Vec::new();
                    let mut previous = None;
                    while times.len() < MIN_SETUPS
                        || (times.len() < MAX_SETUPS
                            && started.elapsed() < Duration::from_secs(1))
                    {
                        let t = Instant::now();
                        let world = wl.build(Variant::Secure);
                        times.push(t.elapsed().as_secs_f64());
                        previous = Some(world);
                    }
                    drop(previous);
                    times
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("setup thread panicked")).collect()
    });
    let medians: Vec<f64> = per_thread.iter().map(|t| median(t)).collect();
    let builds = per_thread.iter().map(Vec::len).sum();
    (medians.iter().sum::<f64>() / medians.len() as f64, builds)
}

/// Runs fixed-work epochs, each on a freshly built world, until `seconds`
/// have passed (at least two), and reports medians over epochs.
pub fn end_to_end<L: Workload>(wl: &L, seconds: f64) -> EndToEnd {
    let (setup, builds) = setup_s(wl);
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let epoch = wl.sizing().epoch;
    let mut tally = Tally::default();
    let (mut rate, mut p50, mut p99) = (vec![], vec![], vec![]);
    let (mut samples, mut ops) = (0u64, 0u64);
    while rate.len() < 2 || Instant::now() < until {
        let mut m = measure::<L, false>(wl, Variant::Secure, usize::MAX, epoch);
        tally.add(m.tally());
        let (r, lo, hi) = (
            m.phase.ops_per_s(),
            percentile_us(&mut m.phase.lats_ns, 0.50),
            percentile_us(&mut m.phase.lats_ns, 0.99),
        );
        println!(
            "epoch {}: ops={} ops_per_s={r:.1} lat_p50_us={lo:.3} lat_p99_us={hi:.3}",
            rate.len(),
            m.phase.ops,
        );
        rate.push(r);
        p50.push(lo);
        p99.push(hi);
        samples += m.phase.lats_ns.len() as u64;
        ops += m.phase.ops;
    }
    let epochs = rate.len();
    println!("timed ops = {ops}, latency samples = {samples}, epochs = {epochs}");
    let values = [
        (median(&rate), Some(epochs as u64)),
        (median(&p50), Some(samples)),
        (median(&p99), Some(samples)),
        (setup, Some(builds as u64)),
        (peak_rss_mb(), None),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        })
        .collect();
    let fail_frac = Metric {
        name: "fail_frac".into(),
        unit: "fraction",
        value: tally.failed as f64 / tally.attempted.max(1) as f64,
        samples: Some(tally.attempted),
    };
    EndToEnd { metrics, fail_frac, tally }
}

/// Result of the traced run.
#[derive(Debug)]
pub struct Traced {
    /// Per-layer metrics.
    pub layers: Layers,
    /// Operation totals.
    pub tally: Tally,
    /// Spans of the first traced phase, one buffer per client.
    pub spans: Vec<Vec<Span>>,
}

/// Runs rounds of fixed-work phases until `seconds` have passed (at least
/// one round). Each round runs, on fresh worlds with the same inputs:
/// all clients untraced; all clients traced; one client untraced; and the
/// workload's baseline. Span and counter metrics come from the first
/// round's traced phase; ratios between phases are medians over rounds.
pub fn traced<L: Workload>(wl: &L, seconds: f64) -> Traced {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let ops = wl.sizing().trace;
    let mut tally = Tally::default();
    let (mut overhead, mut waits, mut gaps, mut barrier_frac) =
        (vec![], vec![], vec![], vec![]);
    let (mut traced_rate, mut plain_rate) = (vec![], vec![]);
    let mut first: Option<Measured<L::World>> = None;
    let mut rounds = 0;
    loop {
        let all = measure::<L, false>(wl, Variant::Secure, usize::MAX, ops);
        tally.add(all.tally());
        let mut tr = measure::<L, true>(wl, Variant::SecureTimed, usize::MAX, ops);
        tally.add(tr.tally());
        plain_rate.push(all.phase.ops_per_s());
        traced_rate.push(tr.phase.ops_per_s());
        overhead.push(all.phase.ops_per_s() / tr.phase.ops_per_s() - 1.0);
        if all.phase.spans.len() > 1 {
            let one = measure::<L, false>(wl, Variant::Secure, 1, ops);
            tally.add(one.tally());
            waits.push(all.phase.mean_us() - one.phase.mean_us());
        }
        match wl.baseline() {
            Baseline::NullModule => {
                let mut null =
                    measure::<L, true>(wl, Variant::BaselineTimed, usize::MAX, ops);
                tally.add(null.tally());
                gaps.push(
                    percentile_us(&mut tr.phase.lats_ns, 0.5)
                        / percentile_us(&mut null.phase.lats_ns, 0.5),
                );
            }
            Baseline::NoBarriers => {
                let none = measure::<L, false>(wl, Variant::Baseline, usize::MAX, ops);
                tally.add(none.tally());
                let ratio = none.phase.lat_sum_ns as f64 / all.phase.lat_sum_ns as f64;
                barrier_frac.push(1.0 - ratio);
            }
            Baseline::Nothing => {}
        }
        rounds += 1;
        if first.is_none() {
            first = Some(tr);
        }
        if Instant::now() >= until {
            break;
        }
    }
    let mut first = first.expect("at least one round");
    let mut layers = Layers::default();
    span_metrics(&first.phase.spans, &mut layers);
    counter_metrics(&first, &mut layers);
    wl.layer_metrics(&first.world, &mut layers);
    layers.set("os.wait_us_per_op", median(&waits));
    layers.set("lsm.null_gap", median(&gaps));
    layers.set("vm.barrier_time_frac", median(&barrier_frac));
    layers.set("trace.ops_per_s", median(&traced_rate));
    layers.set("trace.untraced_ops_per_s", median(&plain_rate));
    layers.set("trace.overhead_frac", median(&overhead));
    layers.set("trace.rounds", f64::from(rounds));
    let spans = std::mem::take(&mut first.phase.spans);
    Traced { layers, tally, spans }
}

fn span_metrics(threads: &[Vec<Span>], out: &mut Layers) {
    let mut durs: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    // Total and self time per layer (the name up to its first dot).
    let mut layer_ns: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for spans in threads {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            durs.entry(s.name).or_default().push(s.dur_ns());
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let t = layer_ns.entry(layer).or_default();
            *t = (t.0 + s.dur_ns(), t.1 + own);
        }
    }
    let ns = |layer: &str| layer_ns.get(layer).copied().unwrap_or_default();
    let ops = durs.get("op").map_or(0, Vec::len).max(1) as f64;
    let (op_ns, op_self_ns) = ns("op");
    let (lsm_ns, _) = ns("lsm");
    let (_, os_self_ns) = ns("os");
    let mut pct =
        |name: &str, q: f64| durs.get_mut(name).map_or(0.0, |v| percentile_us(v, q));
    for c in OS_CALLS {
        out.set(&format!("os.{c}.p50_us"), pct(&format!("os.{c}"), 0.5));
    }
    for c in APP_CMDS {
        out.set(&format!("apps.{c}.p50_us"), pct(&format!("app.{c}"), 0.5));
        out.set(&format!("apps.{c}.p99_us"), pct(&format!("app.{c}"), 0.99));
    }
    for p in VM_PROGRAMS {
        out.set(&format!("vm.run_us.{p}"), pct(&format!("vm.{p}"), 0.5));
    }
    let count = |name: String| durs.get(name.as_str()).map_or(0, Vec::len) as f64;
    for c in OS_CALLS {
        out.set(&format!("os.{c}.calls"), count(format!("os.{c}")));
    }
    for h in LSM_HOOKS {
        out.set(&format!("lsm.{h}.calls"), count(format!("lsm.{h}")));
    }
    out.set("os.self_us_per_op", os_self_ns as f64 / ops / 1e3);
    out.set("lsm.us_per_op", lsm_ns as f64 / ops / 1e3);
    out.set("lsm.share", lsm_ns as f64 / op_ns as f64);
    out.set("trace.op_us", op_ns as f64 / ops / 1e3);
    out.set("trace.unattributed_frac", op_self_ns as f64 / op_ns as f64);
    out.set("trace.spans", threads.iter().map(Vec::len).sum::<usize>() as f64);
}

fn counter_metrics<W>(m: &Measured<W>, out: &mut Layers) {
    let c = &m.counters;
    let ops = m.phase.ops.max(1) as f64;
    let op_ns = m.phase.lat_sum_ns as f64;
    let checks = (c.difc_memo_hits + c.difc_misses + c.difc_fast_hits) as f64;
    let syncs = (c.core_os_syncs + c.core_os_syncs_elided) as f64;
    let per_op = |v: u64| v as f64 / ops;
    out.set("os.hooks_per_op", per_op(c.os_hooks));
    out.set("os.rollbacks", c.os_rollbacks as f64);
    out.set("difc.checks_per_op", checks / ops);
    out.set("difc.fast_frac", c.difc_fast_hits as f64 / checks);
    out.set("difc.memo_hit_frac", c.difc_memo_hits as f64 / checks);
    out.set("difc.miss_frac", c.difc_misses as f64 / checks);
    out.set("difc.evictions", c.difc_evictions as f64);
    out.set("difc.labels_interned", c.difc_labels as f64);
    out.set("core.regions_per_req", per_op(c.core_regions));
    out.set("core.region_time_frac", c.core_region_ns as f64 / op_ns);
    out.set("core.os_syncs_per_req", per_op(c.core_os_syncs));
    out.set("core.os_sync_elided_frac", c.core_os_syncs_elided as f64 / syncs);
    out.set("core.dyn_dispatch_per_req", per_op(c.core_dyn_dispatches));
    out.set("core.copies_per_req", per_op(c.core_copies));
    out.set("core.suppressed_per_req", per_op(c.core_suppressed));
    out.set("vm.barriers_per_run", per_op(c.vm_barriers));
    out.set("vm.dyn_dispatch_per_run", per_op(c.vm_dyn_dispatches));
    out.set("vm.insns_per_run", per_op(c.vm_insns));
}
