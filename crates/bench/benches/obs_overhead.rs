//! Decision-trace (`laminar-obs`) overhead on the PR 4 SMP workloads
//! ([`laminar_bench::smp`]): the same three syscall mixes, each measured
//! twice on the same kernel — its audit disabled (the default; each
//! syscall reads the kernel's flag with one relaxed atomic load) and
//! enabled (typed events staged per syscall, moved into the kernel's
//! bounded ring on commit).
//!
//! Nobody reads the ring during the run, so the enabled numbers are the
//! worst case of a lagging reader: the ring wraps and counts truncation
//! rather than blocking the hot path.
//!
//! Results go to stdout and `BENCH_obs_overhead.json` at the repo root.
//! `BENCH_SMOKE=1` shrinks volume and *asserts* the audited kernel
//! keeps ≥ 90% of untraced throughput in every cell (the ≤ 10%
//! enabled-overhead gate; disabled-mode overhead is gated separately by
//! the pr4_smp smoke run, which executes with tracing off).

use laminar_bench::smp::{BigLock, WORKLOADS};
use laminar_bench::{interleaved_best, overhead_pct};

struct Volume {
    ops_per_worker: usize,
    trials: usize,
    thread_counts: &'static [usize],
    smoke: bool,
}

fn volume() -> Volume {
    if std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1") {
        // Each trial must be long enough to dominate scheduling jitter —
        // sub-millisecond trials make the gate a coin flip on small hosts.
        Volume { ops_per_worker: 2_000, trials: 5, thread_counts: &[1, 2], smoke: true }
    } else {
        Volume {
            ops_per_worker: 4_000,
            trials: 5,
            thread_counts: &[1, 2, 4],
            smoke: false,
        }
    }
}

struct Cell {
    threads: usize,
    disabled: f64,
    enabled: f64,
}

fn main() {
    let vol = volume();
    let host_cpus =
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    println!(
        "laminar-obs tracing overhead — {} ops/worker, best of {} interleaved trials, \
         host_cpus={host_cpus}",
        vol.ops_per_worker, vol.trials
    );
    let mut json_workloads = Vec::new();
    let mut failures = Vec::new();
    for (name, build) in WORKLOADS {
        println!("\n{name}");
        println!(
            "  {:>7}  {:>15}  {:>14}  {:>9}",
            "threads", "disabled op/s", "enabled op/s", "overhead"
        );
        let mut cells: Vec<Cell> = Vec::new();
        for &n in vol.thread_counts {
            let fx = build(n);
            let lock = BigLock::default();
            let total = vol.ops_per_worker * n;
            // Interleaved trials: each runs disabled then enabled back to
            // back, so drift and cache warmth hit both variants. Best-of-N
            // rather than median, because this target gates CI on shared
            // hosts where scheduling noise exceeds the overhead budget.
            let (d_dis, d_en) = interleaved_best(
                vol.trials,
                || fx.run_all(&lock, vol.ops_per_worker),
                || {
                    fx.kernel.audit().set_enabled(true);
                    fx.run_all(&lock, vol.ops_per_worker);
                    fx.kernel.audit().set_enabled(false);
                },
            );
            let cell = Cell {
                threads: n,
                disabled: total as f64 / d_dis.as_secs_f64(),
                enabled: total as f64 / d_en.as_secs_f64(),
            };
            println!(
                "  {:>7}  {:>15.0}  {:>14.0}  {:>8.1}%",
                n,
                cell.disabled,
                cell.enabled,
                overhead_pct(d_dis, d_en)
            );
            cells.push(cell);
        }
        if vol.smoke {
            for c in &cells {
                if c.enabled < 0.90 * c.disabled {
                    failures.push(format!(
                        "{name}: enabled tracing exceeds the 10% overhead budget at \
                         {} threads ({:.0} vs {:.0} op/s)",
                        c.threads, c.enabled, c.disabled
                    ));
                }
            }
        }
        let rows: Vec<String> = cells
            .iter()
            .map(|c| {
                format!(
                    "        {{\"threads\": {}, \"disabled_ops_per_sec\": {:.0}, \
                     \"enabled_ops_per_sec\": {:.0}, \"enabled_vs_disabled\": {:.3}}}",
                    c.threads,
                    c.disabled,
                    c.enabled,
                    c.enabled / c.disabled
                )
            })
            .collect();
        json_workloads.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"rows\": [\n{}\n      ]\n    }}",
            rows.join(",\n")
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));

    let json = format!(
        "{{\n  \"bench\": \"BENCH_obs_overhead\",\n  \"host_cpus\": {host_cpus},\n  \
         \"smoke\": {},\n  \"ops_per_worker\": {},\n  \"trials\": {},\n  \
         \"caveat\": \"enabled numbers are the lagging-reader worst case: nothing \
         reads the kernel's ring mid-run, so it wraps and counts truncation; \
         disabled-mode overhead vs the untraced seed is gated by the pr4_smp \
         smoke run, which executes with tracing off\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        vol.smoke,
        vol.ops_per_worker,
        vol.trials,
        json_workloads.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs_overhead.json");
    if vol.smoke {
        println!("\nsmoke mode: all cells within the 10% budget; not overwriting {path}");
    } else {
        std::fs::write(path, json).unwrap();
        println!("\nwrote {path}");
    }
}
