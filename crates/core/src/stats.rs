//! Per-principal runtime statistics and the global flow-cache counters.
//!
//! Table 3 reports the fraction of execution time spent inside security
//! regions; Figure 9 decomposes application overhead into region
//! start/end, allocation barriers and read/write barriers. Each
//! [`crate::Principal`] keeps its own [`RuntimeStats`]; the case-study
//! applications merge their principals' counters into one
//! `RuntimeStats`, which is what the benchmark harness reads.
//!
//! Fault counters live with the object whose events they count: each
//! kernel counts its shard-lock poison recoveries
//! ([`laminar_os::Kernel::poison_recoveries`]) and each VM its region
//! aborts ([`laminar_vm::VmStats::regions_aborted`]); syscall rollbacks
//! are counted process-wide ([`laminar_os::syscalls_rolled_back`]).
//! Callers read them as before/after deltas.
//!
//! The global label-interning and flow-check-cache counters of
//! `laminar_difc` are re-exported here ([`flow_cache_stats`],
//! [`intern_stats`], [`reset_flow_cache`]) so harnesses that only link
//! `laminar` can observe hot-path hit rates. They are process-global by
//! design: one memoized verdict serves every kernel and VM.

pub use laminar_difc::{
    flow_cache_stats, intern_stats, reset_flow_cache, FlowCacheStats, InternStats,
};

/// Counters accumulated by a [`crate::Principal`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Security regions entered.
    pub regions_entered: u64,
    /// Nanoseconds spent inside security regions (body + catch).
    pub region_ns: u64,
    /// Reads of labeled cells (static-barrier API).
    pub labeled_reads: u64,
    /// Writes of labeled cells (static-barrier API).
    pub labeled_writes: u64,
    /// Labeled allocations.
    pub labeled_allocs: u64,
    /// `copy_and_label` operations.
    pub copies: u64,
    /// Dynamic barriers that had to look up the region context.
    pub dynamic_dispatches: u64,
    /// Exceptions suppressed at region boundaries.
    pub exceptions_suppressed: u64,
    /// VM→OS label synchronisations performed.
    pub os_syncs: u64,
    /// Label synchronisations elided because the region made no syscall.
    pub os_syncs_elided: u64,
    /// Capabilities created via `create_and_add_capability`.
    pub caps_created: u64,
}

impl RuntimeStats {
    /// Merges another principal's counters into this one (for
    /// application-wide aggregation).
    pub fn merge(&mut self, other: &RuntimeStats) {
        self.regions_entered += other.regions_entered;
        self.region_ns += other.region_ns;
        self.labeled_reads += other.labeled_reads;
        self.labeled_writes += other.labeled_writes;
        self.labeled_allocs += other.labeled_allocs;
        self.copies += other.copies;
        self.dynamic_dispatches += other.dynamic_dispatches;
        self.exceptions_suppressed += other.exceptions_suppressed;
        self.os_syncs += other.os_syncs;
        self.os_syncs_elided += other.os_syncs_elided;
        self.caps_created += other.caps_created;
    }

    /// Total labeled-data accesses.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.labeled_reads + self.labeled_writes
    }

    /// Percentage of `total_ns` spent inside security regions (Table 3's
    /// "% time in SRs").
    #[must_use]
    pub fn pct_in_regions(&self, total_ns: u64) -> f64 {
        if total_ns == 0 {
            0.0
        } else {
            100.0 * self.region_ns as f64 / total_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums() {
        let mut a =
            RuntimeStats { labeled_reads: 2, region_ns: 10, ..Default::default() };
        let b =
            RuntimeStats { labeled_reads: 3, labeled_writes: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.labeled_reads, 5);
        assert_eq!(a.labeled_writes, 1);
        assert_eq!(a.region_ns, 10);
        assert_eq!(a.total_accesses(), 6);
    }

    #[test]
    fn pct_in_regions_handles_zero() {
        let s = RuntimeStats { region_ns: 50, ..Default::default() };
        assert_eq!(s.pct_in_regions(0), 0.0);
        assert!((s.pct_in_regions(200) - 25.0).abs() < 1e-9);
    }
}
