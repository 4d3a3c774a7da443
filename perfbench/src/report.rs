//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics and their units, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// OS calls timed in the traced run.
pub const OS_CALLS: [&str; 9] = [
    "stat",
    "open",
    "close",
    "read",
    "write",
    "create",
    "unlink",
    "read_file_at",
    "write_file_at",
];

/// LSM hooks whose calls are counted in the traced run.
pub const LSM_HOOKS: [&str; 6] = [
    "inode_permission",
    "inode_create",
    "inode_unlink",
    "file_permission",
    "pipe_write",
    "pipe_read",
];

/// Chat and Calendar commands timed in the traced run.
pub const APP_CMDS: [&str; 9] = [
    "join",
    "say",
    "leave",
    "theme",
    "whois",
    "msg",
    "read_inbox",
    "ban",
    "schedule_meeting",
];

/// The Figure 8 programs.
pub const VM_PROGRAMS: [&str; 6] =
    ["list_sort", "hash_churn", "object_graph", "matrix_mult", "vec_grow", "pseudojbb"];

/// Scalar per-layer metrics and their units.
const LAYER_SCALARS: [(&str, &str); 33] = [
    ("os.self_us_per_op", "us"),
    ("os.hooks_per_op", "count"),
    ("os.rollbacks", "count"),
    ("os.wait_us_per_op", "us"),
    ("lsm.us_per_op", "us"),
    ("lsm.share", "fraction"),
    ("lsm.null_gap", "ratio"),
    ("difc.checks_per_op", "count"),
    ("difc.fast_frac", "fraction"),
    ("difc.memo_hit_frac", "fraction"),
    ("difc.miss_frac", "fraction"),
    ("difc.evictions", "count"),
    ("difc.labels_interned", "count"),
    ("core.regions_per_req", "count"),
    ("core.region_time_frac", "fraction"),
    ("core.os_syncs_per_req", "count"),
    ("core.os_sync_elided_frac", "fraction"),
    ("core.dyn_dispatch_per_req", "count"),
    ("core.copies_per_req", "count"),
    ("core.suppressed_per_req", "count"),
    ("vm.barriers_per_run", "count"),
    ("vm.dyn_dispatch_per_run", "count"),
    ("vm.insns_per_run", "count"),
    ("vm.barrier_time_frac", "fraction"),
    ("vm.compile_us", "us"),
    ("vm.barriers_eliminated", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.op_us", "us"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.spans", "count"),
    ("trace.rounds", "count"),
];

/// Every per-layer metric name with its unit, in report order.
#[must_use]
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for c in OS_CALLS {
        v.push((format!("os.{c}.p50_us"), "us"));
        v.push((format!("os.{c}.calls"), "count"));
    }
    for h in LSM_HOOKS {
        v.push((format!("lsm.{h}.calls"), "count"));
    }
    for c in APP_CMDS {
        v.push((format!("apps.{c}.p50_us"), "us"));
        v.push((format!("apps.{c}.p99_us"), "us"));
    }
    for p in VM_PROGRAMS {
        v.push((format!("vm.run_us.{p}"), "us"));
    }
    v.extend(LAYER_SCALARS.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// Per-layer metric values. Every name starts at 0, which stands for "this
/// workload does not exercise the layer".
#[derive(Debug)]
pub struct Layers(BTreeMap<String, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(layer_metric_names().into_iter().map(|(n, _)| (n, 0.0)).collect())
    }
}

impl Layers {
    /// Sets a metric; the name must be one of [`layer_metric_names`].
    pub fn set(&mut self, name: &str, value: f64) {
        let slot =
            self.0.get_mut(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    /// Metrics in report order, with units.
    #[must_use]
    pub fn entries(&self) -> Vec<Metric> {
        layer_metric_names()
            .into_iter()
            .map(|(name, unit)| Metric {
                value: self.0[&name],
                name,
                unit,
                samples: None,
            })
            .collect()
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value, where it is an estimate over samples.
    pub samples: Option<u64>,
}

/// Prints one human-readable line per metric, then the result object as
/// the last line of standard output.
pub fn print_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    text_only: &[Metric],
    metrics: &[Metric],
) {
    for m in text_only.iter().chain(metrics) {
        match m.samples {
            Some(n) => {
                println!("metric {} = {} {} (samples={n})", m.name, m.value, m.unit)
            }
            None => println!("metric {} = {} {}", m.name, m.value, m.unit),
        }
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
