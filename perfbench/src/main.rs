//! Command-line entry point; see the crate documentation.

use laminar_perfbench::chat::ChatSessions;
use laminar_perfbench::harness::{Tally, Workload};
use laminar_perfbench::kernel_wl::{FsLargeState, SyscallSmall};
use laminar_perfbench::report::{print_result, Metric};
use laminar_perfbench::run::{end_to_end, traced};
use laminar_perfbench::trace::Span;
use laminar_perfbench::vm::VmPrograms;
use std::io::Write as _;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] =
    ["syscall_small", "fs_large_state", "chat_sessions", "vm_programs"];
/// Spans written out per traced run; the rest only feed the metrics.
const SPANS_WRITTEN: usize = 20_000;
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// The commit being measured, read from `.git` when the checkout has one.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn write_spans(
    workload: &str,
    seed: u64,
    threads: &[Vec<Span>],
) -> std::io::Result<String> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/spans-{workload}-seed{seed}.jsonl");
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let per_thread = SPANS_WRITTEN / threads.len().max(1);
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().take(per_thread).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"thread\":{t},\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
    }
    f.flush()?;
    Ok(path)
}

/// Runs one workload; returns the totals, metrics printed as text only,
/// and the metrics of the result line.
fn run<L: Workload>(wl: &L, args: &Args) -> (Tally, Vec<Metric>, Vec<Metric>) {
    if args.trace {
        let t = traced(wl, args.seconds);
        match write_spans(&args.workload, args.seed, &t.spans) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
        (t.tally, Vec::new(), t.layers.entries())
    } else {
        let e = end_to_end(wl, args.seconds);
        (e.tally, vec![e.fail_frac], e.metrics)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit()
    );
    let (tally, text_only, metrics) = match args.workload.as_str() {
        "syscall_small" => run(&SyscallSmall::generate(args.seed), &args),
        "fs_large_state" => run(&FsLargeState::generate(args.seed), &args),
        "chat_sessions" => run(&ChatSessions::generate(args.seed), &args),
        _ => run(&VmPrograms::generate(args.seed), &args),
    };
    let correct = tally.failed == 0;
    print_result(correct, tally.attempted, tally.failed, &text_only, &metrics);
    ExitCode::SUCCESS
}
