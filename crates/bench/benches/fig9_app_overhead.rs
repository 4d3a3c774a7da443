//! **Figure 9** — overhead of the applications retrofitted with Laminar.
//!
//! Each case study runs the identical workload in its unsecured baseline
//! and its Laminar-secured variant; the total overhead is decomposed —
//! as in the paper's stacked bars — into *start/end SR*, *alloc
//! barriers*, and *read/write barriers* (static vs dynamic), by
//! multiplying measured per-event unit costs (microbenchmarked below)
//! with the per-app event counts from the runtime statistics.
//!
//! Paper results: GradeSheet +7%, Battleship +56% (static barriers; ~1%
//! in the display variant), Calendar +14%, FreeCS <1%.

use laminar::{Labeled, Laminar, RegionParams};
use laminar_apps::battleship::{BaselineBattleship, Battleship};
use laminar_apps::calendar::{BaselineCalendar, CalendarSystem};
use laminar_apps::freecs::{BaselineChatServer, ChatServer};
use laminar_apps::gradesheet::{BaselineGradeSheet, GradeSheet};
use laminar_bench::{interleaved_medians, median_time, overhead_pct};
use laminar_os::UserId;
use std::time::Duration;

const TRIALS: usize = 5;

/// Measured unit costs of the Laminar primitives on this machine.
struct UnitCosts {
    region_ns: f64,
    alloc_ns: f64,
    access_ns: f64,
    dyn_access_ns: f64,
}

fn unit_costs() -> UnitCosts {
    let sys = Laminar::boot();
    sys.add_user(UserId(9), "cal");
    let p = sys.login(UserId(9)).unwrap();
    let t = p.create_tag().unwrap();
    let params = RegionParams::new()
        .secrecy(laminar_difc::Label::singleton(t))
        .grant(laminar_difc::Capability::plus(t));

    const N: u32 = 3_000;
    let region = median_time(TRIALS, || {
        for _ in 0..N {
            p.secure(&params, |_| Ok(()), |_| {}).unwrap();
        }
    }) / N;

    let cell = p.secure(&params, |g| Ok(g.new_labeled(0u64)), |_| {}).unwrap().unwrap();
    let alloc = median_time(TRIALS, || {
        p.secure(
            &params,
            |g| {
                for _ in 0..64 {
                    std::hint::black_box(g.new_labeled(0u64));
                }
                Ok(())
            },
            |_| {},
        )
        .unwrap();
    }) / 64u32;

    let access = median_time(TRIALS, || {
        p.secure(
            &params,
            |g| {
                for _ in 0..64 {
                    cell.read(g, |v| std::hint::black_box(*v)).unwrap();
                }
                Ok(())
            },
            |_| {},
        )
        .unwrap();
    }) / 64;

    let dyn_access = median_time(TRIALS, || {
        p.secure(
            &params,
            |_g| {
                let c: &Labeled<u64> = &cell;
                for _ in 0..64 {
                    c.read_dyn(|v| std::hint::black_box(*v)).unwrap();
                }
                Ok(())
            },
            |_| {},
        )
        .unwrap();
    }) / 64;

    UnitCosts {
        region_ns: region.as_nanos() as f64,
        alloc_ns: alloc.as_nanos() as f64,
        access_ns: access.as_nanos() as f64,
        dyn_access_ns: (dyn_access.as_nanos() as f64 - access.as_nanos() as f64).max(0.0),
    }
}

struct AppRow {
    name: String,
    base: Duration,
    secured: Duration,
    start_end_ns: f64,
    alloc_ns: f64,
    static_ns: f64,
    dynamic_ns: f64,
    paper: &'static str,
}

fn breakdown(stats: &laminar::RuntimeStats, u: &UnitCosts) -> (f64, f64, f64, f64) {
    let static_accesses = stats.labeled_reads + stats.labeled_writes
        - stats.dynamic_dispatches.min(stats.labeled_reads + stats.labeled_writes);
    (
        stats.regions_entered as f64 * u.region_ns,
        stats.labeled_allocs as f64 * u.alloc_ns,
        static_accesses as f64 * u.access_ns,
        stats.dynamic_dispatches as f64 * (u.access_ns + u.dyn_access_ns),
    )
}

fn main() {
    println!("Figure 9: overhead of applications retrofitted with Laminar");
    println!();
    // Spin briefly so CPU frequency scaling settles before the first
    // row is measured.
    let warm = std::time::Instant::now();
    while warm.elapsed() < std::time::Duration::from_millis(700) {
        std::hint::black_box(laminar_apps::workload::request_work(&["warmup"], 512));
    }
    let u = unit_costs();
    println!(
        "unit costs: region start/end {:.0}ns, labeled alloc {:.0}ns, \
         static barrier {:.0}ns, dynamic dispatch +{:.0}ns",
        u.region_ns, u.alloc_ns, u.access_ns, u.dyn_access_ns
    );
    println!();

    let mut rows: Vec<AppRow> = Vec::new();

    // --- GradeSheet -------------------------------------------------------
    {
        let sys = Laminar::boot();
        let gs = GradeSheet::new(&sys, 12, 4).unwrap();
        let mut base_app = BaselineGradeSheet::new(12, 4);
        let q = 600;
        gs.reset_stats();
        let (base, secured) = interleaved_medians(
            TRIALS,
            || {
                std::hint::black_box(base_app.run_workload(q).unwrap());
            },
            || {
                std::hint::black_box(gs.run_workload(q).unwrap());
            },
        );
        let stats = gs.stats();
        let (se, al, st, dy) = breakdown(&stats, &u);
        rows.push(AppRow {
            name: "GradeSheet".into(),
            base,
            secured,
            start_end_ns: se / TRIALS as f64,
            alloc_ns: al / TRIALS as f64,
            static_ns: st / TRIALS as f64,
            dynamic_ns: dy / TRIALS as f64,
            paper: "+7%",
        });
    }

    // --- Battleship (no display) -------------------------------------------
    {
        let sys = Laminar::boot();
        let game = Battleship::new(&sys, 21, false).unwrap();
        let mut base_game = BaselineBattleship::new(&sys, 21, false).unwrap();
        game.reset_stats();
        let (base, secured) = interleaved_medians(
            TRIALS,
            || {
                std::hint::black_box(base_game.play(4).unwrap());
            },
            || {
                std::hint::black_box(game.play(4).unwrap());
            },
        );
        let stats = game.stats();
        let (se, al, st, dy) = breakdown(&stats, &u);
        rows.push(AppRow {
            name: "Battleship".into(),
            base,
            secured,
            start_end_ns: se / TRIALS as f64,
            alloc_ns: al / TRIALS as f64,
            static_ns: st / TRIALS as f64,
            dynamic_ns: dy / TRIALS as f64,
            paper: "+56%",
        });
    }

    // --- Battleship (display variant) --------------------------------------
    {
        let sys = Laminar::boot();
        let game = Battleship::new(&sys, 21, true).unwrap();
        let mut base_game = BaselineBattleship::new(&sys, 21, true).unwrap();
        let (base, secured) = interleaved_medians(
            TRIALS,
            || {
                std::hint::black_box(base_game.play(4).unwrap());
            },
            || {
                std::hint::black_box(game.play(4).unwrap());
            },
        );
        rows.push(AppRow {
            name: "Battleship+display".into(),
            base,
            secured,
            start_end_ns: 0.0,
            alloc_ns: 0.0,
            static_ns: 0.0,
            dynamic_ns: 0.0,
            paper: "+1%",
        });
    }

    // --- Calendar -----------------------------------------------------------
    {
        let sys = Laminar::boot();
        let cal = CalendarSystem::new(&sys).unwrap();
        let base_cal = BaselineCalendar::new(&sys).unwrap();
        let n = 250;
        cal.reset_stats();
        let (base, secured) = interleaved_medians(
            TRIALS,
            || {
                std::hint::black_box(base_cal.run_workload(n).unwrap());
            },
            || {
                std::hint::black_box(cal.run_workload(n).unwrap());
            },
        );
        let stats = cal.stats();
        let (se, al, st, dy) = breakdown(&stats, &u);
        rows.push(AppRow {
            name: "Calendar".into(),
            base,
            secured,
            start_end_ns: se / TRIALS as f64,
            alloc_ns: al / TRIALS as f64,
            static_ns: st / TRIALS as f64,
            dynamic_ns: dy / TRIALS as f64,
            paper: "+14%",
        });
    }

    // --- FreeCS --------------------------------------------------------------
    {
        let sys = Laminar::boot();
        let srv = ChatServer::new(&sys).unwrap();
        srv.login_user("owner", false).unwrap();
        srv.create_group("lobby", "owner").unwrap();
        let users = 128;
        for i in 0..users {
            srv.login_user(&format!("u{i}"), false).unwrap();
        }
        let mut base_srv = BaselineChatServer::new();
        base_srv.create_group("lobby", "owner");
        for i in 0..users {
            base_srv.login_user(&format!("u{i}"), false);
        }
        srv.reset_stats();
        let (base, secured) = interleaved_medians(
            TRIALS,
            || {
                std::hint::black_box(base_srv.run_workload(users, "lobby"));
            },
            || {
                std::hint::black_box(srv.run_workload(users, "lobby").unwrap());
            },
        );
        let stats = srv.stats();
        let (se, al, st, dy) = breakdown(&stats, &u);
        rows.push(AppRow {
            name: "FreeCS".into(),
            base,
            secured,
            start_end_ns: se / TRIALS as f64,
            alloc_ns: al / TRIALS as f64,
            static_ns: st / TRIALS as f64,
            dynamic_ns: dy / TRIALS as f64,
            paper: "<1%",
        });
    }

    let header = format!(
        "{:<19} {:>10} {:>12} {:>9} {:>8} | {:>9} {:>9} {:>9} {:>9}",
        "application",
        "base(ms)",
        "secured(ms)",
        "overhead",
        "paper",
        "startSR%",
        "alloc%",
        "static%",
        "dynamic%"
    );
    println!("{header}");
    laminar_bench::rule_for(&header);
    for r in rows {
        let base_ms = r.base.as_secs_f64() * 1e3;
        let sec_ms = r.secured.as_secs_f64() * 1e3;
        let extra = r.secured.as_nanos() as f64 - r.base.as_nanos() as f64;
        let frac = |x: f64| {
            if extra > 0.0 {
                100.0 * x / extra
            } else {
                0.0
            }
        };
        println!(
            "{:<19} {:>10.2} {:>12.2} {:>8.1}% {:>8} | {:>8.0}% {:>8.0}% {:>8.0}% {:>8.0}%",
            r.name,
            base_ms,
            sec_ms,
            overhead_pct(r.base, r.secured),
            r.paper,
            frac(r.start_end_ns),
            frac(r.alloc_ns),
            frac(r.static_ns),
            frac(r.dynamic_ns),
        );
    }
    println!();
    println!("(breakdown columns attribute the measured extra time to Laminar");
    println!(" primitives via counted events x microbenchmarked unit costs; they");
    println!(" can over/under-shoot 100% when cache effects dominate)");
}
