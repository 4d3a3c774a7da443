//! **Table 2** — lmbench-style OS microbenchmarks.
//!
//! Runs the same simulated kernel twice — once with the do-nothing
//! [`NullModule`] ("unmodified Linux") and once with the Laminar LSM —
//! and reports per-operation latency and percentage overhead for the
//! paper's rows: `stat`, `fork`, `exec`, 0k file create, 0k file delete,
//! mmap latency, prot fault and null I/O.
//!
//! Methodology: both kernels are set up first; for each row the base and
//! Laminar variants are measured in *interleaved* trials (so CPU
//! frequency drift hits both equally), and medians are reported.
//!
//! Paper result: everything under 8% except null I/O at 31% (the
//! syscall does so little work that the label check dominates). Flume,
//! for comparison, adds 4–35× to syscall latency.

use laminar_bench::overhead_pct;
use laminar_os::{
    Kernel, LaminarModule, NullModule, OpenMode, SecurityModule, TaskHandle, UserId,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ITERS: usize = 4_000;
const TRIALS: usize = 9;

fn setup<M: SecurityModule + 'static>(module: M) -> (Arc<Kernel>, TaskHandle) {
    let k = Kernel::boot(module);
    k.add_user(UserId(1), "bench");
    let t = k.login(UserId(1)).unwrap();
    let fd = t.create("data.bin").unwrap();
    t.write(fd, &[0u8; 64]).unwrap();
    t.close(fd).unwrap();
    (k, t)
}

/// One microbenchmark: `run(task)` performs ITERS operations and leaves
/// the filesystem in its starting state.
struct Row {
    name: &'static str,
    paper: &'static str,
    run: Box<dyn Fn(&TaskHandle)>,
}

fn rows() -> Vec<Row> {
    let names: Arc<Vec<String>> =
        Arc::new((0..ITERS).map(|i| format!("t{i}.tmp")).collect());

    vec![
        Row {
            name: "stat",
            paper: "2.0%",
            run: Box::new(|t| {
                for _ in 0..ITERS {
                    t.stat("data.bin").unwrap();
                }
            }),
        },
        Row {
            name: "fork",
            paper: "0.6%",
            run: Box::new(|t| {
                for _ in 0..ITERS {
                    t.fork(None).unwrap().exit().unwrap();
                }
            }),
        },
        Row {
            name: "exec",
            paper: "0.6%",
            run: Box::new(|t| {
                for _ in 0..ITERS {
                    let c = t.fork(None).unwrap();
                    c.exec("data.bin").unwrap();
                    c.exit().unwrap();
                }
            }),
        },
        Row {
            name: "0k file create",
            paper: "4.0%",
            run: {
                let names = Arc::clone(&names);
                Box::new(move |t| {
                    for n in names.iter() {
                        let fd = t.create(n).unwrap();
                        t.close(fd).unwrap();
                    }
                    // Restore state (untimed share is identical across
                    // modules, so the comparison stays fair).
                    for n in names.iter() {
                        t.unlink(n).unwrap();
                    }
                })
            },
        },
        Row {
            name: "0k file delete",
            paper: "6.0%",
            run: {
                let names = Arc::clone(&names);
                Box::new(move |t| {
                    for n in names.iter() {
                        let fd = t.create(n).unwrap();
                        t.close(fd).unwrap();
                    }
                    for n in names.iter() {
                        t.unlink(n).unwrap();
                    }
                })
            },
        },
        Row {
            name: "mmap latency",
            paper: "2.0%",
            run: Box::new(|t| {
                for _ in 0..ITERS {
                    let a = t.mmap(16, None).unwrap();
                    t.munmap(a).unwrap();
                }
            }),
        },
        Row {
            name: "prot fault",
            paper: "7.0%",
            run: Box::new(|t| {
                let area = t.mmap(4, None).unwrap();
                t.mprotect(area, false, false).unwrap();
                for _ in 0..ITERS {
                    let _ = t.page_access(area, false);
                }
                t.munmap(area).unwrap();
            }),
        },
        Row {
            name: "null I/O",
            paper: "31.0%",
            run: Box::new(|t| {
                let w = t.open("/dev/null", OpenMode::Write).unwrap();
                let r = t.open("/dev/null", OpenMode::Read).unwrap();
                for _ in 0..ITERS {
                    t.write(w, &[0]).unwrap();
                    let _ = t.read(r, 1).unwrap();
                }
                t.close(w).unwrap();
                t.close(r).unwrap();
            }),
        },
    ]
}

fn main() {
    println!("Table 2: lmbench-style OS microbenchmarks (per-op latency)");
    println!("(kernel identical; only the loaded security module differs;");
    println!(" {TRIALS} interleaved trials of {ITERS} ops each, medians)");
    println!();

    let (_k0, base_task) = setup(NullModule);
    let (lam_kernel, lam_task) = setup(LaminarModule);

    let header = format!(
        "{:<16} {:>12} {:>14} {:>10}   {}",
        "benchmark", "linux(us)", "laminar(us)", "overhead", "paper"
    );
    println!("{header}");
    laminar_bench::rule_for(&header);

    for row in rows() {
        // Warmup both.
        (row.run)(&base_task);
        (row.run)(&lam_task);
        let mut base_samples = Vec::with_capacity(TRIALS);
        let mut lam_samples = Vec::with_capacity(TRIALS);
        for _ in 0..TRIALS {
            let t0 = Instant::now();
            (row.run)(&base_task);
            base_samples.push(t0.elapsed());
            let t1 = Instant::now();
            (row.run)(&lam_task);
            lam_samples.push(t1.elapsed());
        }
        base_samples.sort_unstable();
        lam_samples.sort_unstable();
        let b: Duration = base_samples[TRIALS / 2] / ITERS as u32;
        let l: Duration = lam_samples[TRIALS / 2] / ITERS as u32;
        println!(
            "{:<16} {:>12.3} {:>14.3} {:>9.1}%   {}",
            row.name,
            b.as_secs_f64() * 1e6,
            l.as_secs_f64() * 1e6,
            overhead_pct(b, l),
            row.paper
        );
    }
    println!();
    println!("laminar hook invocations during suite: {}", lam_kernel.hook_calls());
}
