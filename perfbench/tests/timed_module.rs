//! The timing security module must be transparent: on the same
//! `syscall_small` inputs it gives the same results and the same number of
//! LSM hook calls as the module it wraps.

use laminar_perfbench::counters::{read_counters, Sources};
use laminar_perfbench::harness::{Client, Variant, Workload};
use laminar_perfbench::kernel_wl::SyscallSmall;
use laminar_perfbench::trace;
use std::time::Instant;

const OPS: usize = 2_000;

/// Runs every client's first `OPS` operations; returns each result, the
/// number that failed their check, and the kernel's hook count.
fn outcomes(wl: &SyscallSmall, variant: Variant) -> (Vec<String>, usize, u64) {
    let (kernel, mut clients) = wl.build(variant);
    let traced = matches!(variant, Variant::SecureTimed | Variant::BaselineTimed);
    if traced {
        trace::start(Instant::now(), OPS * clients.len() * 8);
    }
    let mut results = Vec::new();
    let mut failed = 0;
    for c in &mut clients {
        for i in 0..OPS {
            let out = if traced {
                trace::request(|| c.exec::<true>(i))
            } else {
                c.exec::<false>(i)
            };
            results.push(format!("{out:?}"));
            failed += usize::from(!c.check(i, out));
        }
    }
    let spans = trace::stop();
    assert_eq!(spans.is_empty(), !traced, "spans are recorded only when traced");
    let hooks =
        read_counters(&Sources { kernels: vec![&kernel], ..Sources::default() }).os_hooks;
    (results, failed, hooks)
}

#[test]
fn timing_module_is_transparent_over_laminar() {
    let wl = SyscallSmall::generate(7);
    let bare = outcomes(&wl, Variant::Secure);
    let timed = outcomes(&wl, Variant::SecureTimed);
    assert_eq!(bare.1, 0, "every expected verdict holds under Laminar");
    assert_eq!(bare, timed);
}

#[test]
fn timing_module_is_transparent_over_null() {
    let wl = SyscallSmall::generate(7);
    let bare = outcomes(&wl, Variant::Baseline);
    let timed = outcomes(&wl, Variant::BaselineTimed);
    assert_eq!(bare.1, 0, "every flow is allowed under the null module");
    assert_eq!(bare, timed);
}

#[test]
fn probes_tell_the_modules_apart() {
    let wl = SyscallSmall::generate(7);
    assert_ne!(outcomes(&wl, Variant::Secure).0, outcomes(&wl, Variant::Baseline).0);
}
