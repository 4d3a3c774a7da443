//! The one adapter between the benchmark and the program's own counters.
//!
//! Every counter the benchmark reports that the program keeps itself is
//! read here and nowhere else: the difc flow-cache and intern tables, the
//! kernel's rollback and LSM hook counts, the runtime statistics of the
//! applications and the VM statistics. Callers take a snapshot before and
//! after a phase and report the difference; nothing is ever reset, so the
//! flow cache keeps its memo table.

use laminar_apps::{calendar::CalendarSystem, freecs::ChatServer};
use laminar_os::Kernel;
use laminar_vm::{Vm, VmStats};
use std::ops::{Add, Sub};

/// The objects whose counters a snapshot covers. Process-global
/// counters (difc, rollbacks) are always read.
#[derive(Default)]
pub struct Sources<'a> {
    /// Kernels whose LSM hook counts are summed.
    pub kernels: Vec<&'a Kernel>,
    /// Chat servers whose runtime statistics are summed.
    pub chats: Vec<&'a ChatServer>,
    /// Calendar systems whose runtime statistics are summed.
    pub calendars: Vec<&'a CalendarSystem>,
    /// VMs whose statistics are summed.
    pub vms: Vec<&'a Vm>,
    /// Statistics of VMs already replaced, gathered with [`retire`].
    pub vms_retired: Vec<&'a VmStats>,
}

/// A snapshot of counters; subtract two to get a phase's deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Flow checks answered from the memo table.
    pub difc_memo_hits: u64,
    /// Flow checks that computed the verdict.
    pub difc_misses: u64,
    /// Flow checks answered by the lock-free fast paths.
    pub difc_fast_hits: u64,
    /// Memo-table shard clears.
    pub difc_evictions: u64,
    /// Distinct labels interned.
    pub difc_labels: u64,
    /// Syscalls rolled back after an internal fault.
    pub os_rollbacks: u64,
    /// LSM hook invocations.
    pub os_hooks: u64,
    /// Security regions entered.
    pub core_regions: u64,
    /// Nanoseconds spent inside security regions.
    pub core_region_ns: u64,
    /// VM-to-OS label synchronisations performed.
    pub core_os_syncs: u64,
    /// VM-to-OS label synchronisations elided.
    pub core_os_syncs_elided: u64,
    /// Dynamic-barrier context lookups in the runtime.
    pub core_dyn_dispatches: u64,
    /// `copy_and_label` operations.
    pub core_copies: u64,
    /// Exceptions suppressed at region boundaries.
    pub core_suppressed: u64,
    /// VM barriers executed.
    pub vm_barriers: u64,
    /// VM dynamic-barrier dispatches.
    pub vm_dyn_dispatches: u64,
    /// VM instructions interpreted.
    pub vm_insns: u64,
    /// VM barriers removed at compile time.
    pub vm_barriers_eliminated: u64,
}

/// Reads every counter the benchmark uses.
#[must_use]
pub fn read_counters(src: &Sources<'_>) -> Counters {
    let cache = laminar_difc::flow_cache_stats();
    let mut c = Counters {
        difc_memo_hits: cache.hits,
        difc_misses: cache.misses,
        difc_fast_hits: cache.fast_hits,
        difc_evictions: cache.evictions,
        difc_labels: laminar_difc::intern_stats().labels as u64,
        os_rollbacks: laminar_os::syscalls_rolled_back(),
        os_hooks: src.kernels.iter().map(|k| k.hook_calls()).sum(),
        ..Counters::default()
    };
    let apps = src
        .chats
        .iter()
        .map(|s| s.stats())
        .chain(src.calendars.iter().map(|s| s.stats()));
    for a in apps {
        c.core_regions += a.regions_entered;
        c.core_region_ns += a.region_ns;
        c.core_os_syncs += a.os_syncs;
        c.core_os_syncs_elided += a.os_syncs_elided;
        c.core_dyn_dispatches += a.dynamic_dispatches;
        c.core_copies += a.copies;
        c.core_suppressed += a.exceptions_suppressed;
    }
    for s in src.vms.iter().map(|vm| vm.stats()).chain(src.vms_retired.iter().copied()) {
        c.vm_barriers += s.total_barriers();
        c.vm_dyn_dispatches += s.dynamic_dispatches;
        c.vm_insns += s.instructions;
        c.vm_barriers_eliminated += s.barriers_eliminated;
    }
    c
}

/// Adds the statistics of a VM about to be replaced to `acc`.
pub fn retire(acc: &mut VmStats, vm: &Vm) {
    let s = vm.stats();
    acc.read_barriers += s.read_barriers;
    acc.write_barriers += s.write_barriers;
    acc.static_barriers += s.static_barriers;
    acc.alloc_barriers += s.alloc_barriers;
    acc.dynamic_dispatches += s.dynamic_dispatches;
    acc.instructions += s.instructions;
    acc.barriers_eliminated += s.barriers_eliminated;
}

macro_rules! fieldwise {
    ($trait:ident, $method:ident, $op:ident) => {
        impl $trait for Counters {
            type Output = Counters;
            fn $method(self, o: Counters) -> Counters {
                Counters {
                    difc_memo_hits: self.difc_memo_hits.$op(o.difc_memo_hits),
                    difc_misses: self.difc_misses.$op(o.difc_misses),
                    difc_fast_hits: self.difc_fast_hits.$op(o.difc_fast_hits),
                    difc_evictions: self.difc_evictions.$op(o.difc_evictions),
                    difc_labels: self.difc_labels.$op(o.difc_labels),
                    os_rollbacks: self.os_rollbacks.$op(o.os_rollbacks),
                    os_hooks: self.os_hooks.$op(o.os_hooks),
                    core_regions: self.core_regions.$op(o.core_regions),
                    core_region_ns: self.core_region_ns.$op(o.core_region_ns),
                    core_os_syncs: self.core_os_syncs.$op(o.core_os_syncs),
                    core_os_syncs_elided: self
                        .core_os_syncs_elided
                        .$op(o.core_os_syncs_elided),
                    core_dyn_dispatches: self
                        .core_dyn_dispatches
                        .$op(o.core_dyn_dispatches),
                    core_copies: self.core_copies.$op(o.core_copies),
                    core_suppressed: self.core_suppressed.$op(o.core_suppressed),
                    vm_barriers: self.vm_barriers.$op(o.vm_barriers),
                    vm_dyn_dispatches: self.vm_dyn_dispatches.$op(o.vm_dyn_dispatches),
                    vm_insns: self.vm_insns.$op(o.vm_insns),
                    vm_barriers_eliminated: self
                        .vm_barriers_eliminated
                        .$op(o.vm_barriers_eliminated),
                }
            }
        }
    };
}

fieldwise!(Add, add, wrapping_add);
fieldwise!(Sub, sub, wrapping_sub);
