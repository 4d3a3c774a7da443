//! # laminar-perfbench — the repository's benchmark
//!
//! One command runs one named workload against the Laminar stack and
//! prints every metric by name, with its unit, then a one-line JSON
//! result:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload syscall_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The workloads, metrics and the reason for each workload are listed in
//! `BENCHMARK.json` at the repository root. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` is a separate run that
//! records spans around the calls into each layer and reports the
//! per-layer metrics.

#![forbid(unsafe_code)]

pub mod chat;
pub mod counters;
pub mod harness;
pub mod kernel_wl;
pub mod report;
pub mod run;
pub mod trace;
pub mod vm;
