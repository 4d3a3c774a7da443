//! End-to-end scenarios across every layer: the §3.3 calendar story on
//! the full stack, cross-process secrecy in Battleship, and the FreeCS
//! ban policy — the complete paper narrative as executable assertions.

use laminar::{Laminar, RegionParams};
use laminar_apps::battleship::{BaselineBattleship, Battleship};
use laminar_apps::calendar::CalendarSystem;
use laminar_apps::freecs::{ChatServer, CmdOutcome};
use laminar_apps::gradesheet::{BaselineGradeSheet, GradeSheet};
use laminar_difc::{Capability, Label};
use laminar_os::{OpenMode, UserId};

#[test]
fn calendar_story_of_section_3_3() {
    let sys = Laminar::boot();
    let cal = CalendarSystem::new(&sys).unwrap();

    // The scheduler finds the common slot and writes it where only
    // Alice can read it.
    let slot = cal.schedule_meeting(10).unwrap();
    assert_eq!(slot, 13);
    assert_eq!(cal.alice_read_meeting().unwrap(), 13);

    // Updates to either calendar shift the outcome.
    cal.add_busy(0, 13).unwrap();
    assert_eq!(cal.schedule_meeting(10).unwrap(), 14);
    cal.add_busy(1, 14).unwrap();
    assert_eq!(cal.schedule_meeting(10).unwrap(), 15);
}

#[test]
fn battleship_opponent_cannot_see_boards() {
    let sys = Laminar::boot();
    let game = Battleship::new(&sys, 99, false).unwrap();
    let secured = game.play(123).unwrap();
    let mut baseline = BaselineBattleship::new(&sys, 99, false).unwrap();
    assert_eq!(secured, baseline.play(123).unwrap());
    // Every shot resolution entered a region and declassified ≤ 1 result.
    let stats = game.stats();
    assert!(stats.copies >= secured.shots);
    assert!(stats.regions_entered >= secured.shots);
}

#[test]
fn gradesheet_full_policy_sweep() {
    let sys = Laminar::boot();
    let gs = GradeSheet::new(&sys, 5, 3).unwrap();

    // Professor fills everything; every student reads exactly their row;
    // every TA updates exactly their column.
    for i in 0..5 {
        for j in 0..3 {
            gs.professor_set(i, j, (i * 10 + j) as i64).unwrap();
        }
    }
    for i in 0..5 {
        for j in 0..3 {
            assert_eq!(gs.student_read(i, j).unwrap(), (i * 10 + j) as i64);
            for other in 0..5 {
                if other != i {
                    assert!(gs.student_read_other(i, other, j).is_err());
                }
            }
        }
    }
    for ta in 0..3 {
        for j in 0..3 {
            let res = gs.ta_set(ta, 0, j, 99);
            assert_eq!(res.is_ok(), ta == j, "ta {ta} project {j}");
        }
    }
    // Averages agree with the baseline computation.
    let mut base = BaselineGradeSheet::new(5, 3);
    for i in 0..5 {
        for j in 0..3 {
            let v = gs.student_read(i, j).unwrap();
            base.set(laminar_apps::gradesheet::Role::Professor, i, j, v).unwrap();
        }
    }
    for j in 0..3 {
        assert_eq!(gs.professor_average(j).unwrap(), base.average(j));
    }
}

#[test]
fn freecs_server_queries_run_concurrently() {
    // The queries enter regions on the one server principal; from many
    // threads at once each must still succeed, never find that
    // principal's region stack held by another thread.
    let sys = Laminar::boot();
    let srv = ChatServer::new(&sys).unwrap();
    srv.login_user("owner", false).unwrap();
    srv.create_group("lobby", "owner").unwrap();
    srv.join("owner", "lobby").unwrap();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for i in 0..4 {
            let (srv, start) = (&srv, &start);
            s.spawn(move || {
                start.wait();
                for _ in 0..200 {
                    assert_eq!(srv.theme("lobby").unwrap(), "default");
                    assert_eq!(srv.list_groups().unwrap(), [("lobby".into(), 1)]);
                }
                srv.login_user(&format!("late{i}"), false).unwrap();
            });
        }
    });
}

#[test]
fn freecs_ban_policy_end_to_end() {
    let sys = Laminar::boot();
    let srv = ChatServer::new(&sys).unwrap();
    srv.login_user("boss", true).unwrap(); // VIP, will own the group
    srv.login_user("mod", false).unwrap();
    srv.login_user("troll", false).unwrap();
    srv.create_group("town", "boss").unwrap();

    assert_eq!(srv.join("troll", "town").unwrap(), CmdOutcome::Ok);
    assert_eq!(srv.say("troll", "town", "spam").unwrap(), CmdOutcome::Ok);

    // Only the VIP-superuser can ban; then the ban is effective and the
    // log stops growing for the troll.
    assert_eq!(srv.ban("mod", "town", "troll").unwrap(), CmdOutcome::Denied);
    assert_eq!(srv.ban("boss", "town", "troll").unwrap(), CmdOutcome::Ok);
    assert_eq!(srv.kick("boss", "town", "troll").unwrap(), CmdOutcome::Ok);
    let len_before = srv.log_len("town").unwrap();
    assert_eq!(srv.say("troll", "town", "more").unwrap(), CmdOutcome::Denied);
    assert_eq!(srv.join("troll", "town").unwrap(), CmdOutcome::Denied);
    assert_eq!(srv.log_len("town").unwrap(), len_before);
}

#[test]
fn raw_processes_are_constrained_by_the_os_alone() {
    // A non-Laminar (raw) process coexists with labeled files: OS
    // enforcement applies to all applications (§4.1).
    let sys = Laminar::boot();
    sys.add_user(UserId(50), "legacy");
    let raw = sys.login_raw(UserId(50)).unwrap();

    sys.add_user(UserId(51), "modern");
    let modern = sys.login(UserId(51)).unwrap();
    let t = modern.create_tag().unwrap();
    let params =
        RegionParams::new().secrecy(Label::singleton(t)).grant(Capability::plus(t));

    // The modern app pre-creates a labeled file and fills it in-region.
    let fd = modern
        .task()
        .unwrap()
        .create_file_labeled(
            "/tmp/modern.secret",
            laminar_difc::SecPair::secrecy_only(Label::singleton(t)),
        )
        .unwrap();
    modern.task().unwrap().close(fd).unwrap();
    modern
        .secure(
            &params,
            |g| {
                let os = g.os()?;
                let fd = os.open("/tmp/modern.secret", OpenMode::Write)?;
                os.write(fd, b"classified")?;
                os.close(fd)?;
                Ok(())
            },
            |_| {},
        )
        .unwrap()
        .unwrap();

    // The legacy process simply cannot open it.
    assert!(raw.open("/tmp/modern.secret", OpenMode::Read).is_err());
    // But unlabeled files remain freely shared.
    let fd = raw.create("/tmp/shared.txt").unwrap();
    raw.write(fd, b"hello").unwrap();
    raw.close(fd).unwrap();
    let fd = modern.task().unwrap().open("/tmp/shared.txt", OpenMode::Read).unwrap();
    assert_eq!(modern.task().unwrap().read(fd, 16).unwrap(), b"hello");
}

#[test]
fn memoization_pitfall_of_section_4_6() {
    // §4.6: a library memoizing results across labels breaks under any
    // DIFC system — the memoized (labeled) value cannot be returned to a
    // caller with different labels. Model the memo as a labeled cell.
    let sys = Laminar::boot();
    sys.add_user(UserId(60), "memo");
    let p = sys.login(UserId(60)).unwrap();
    let a = p.create_tag().unwrap();
    let b = p.create_tag().unwrap();

    let region_a =
        RegionParams::new().secrecy(Label::singleton(a)).grant(Capability::plus(a));
    let region_b =
        RegionParams::new().secrecy(Label::singleton(b)).grant(Capability::plus(b));

    // First call, inside {S(a)}: computes and memoizes.
    let memo =
        p.secure(&region_a, |g| Ok(g.new_labeled(42u64)), |_| {}).unwrap().unwrap();

    // Later call with a different label: the attempt to return the
    // memoized value is prevented (read suppressed).
    let reuse = p.secure(&region_b, |g| memo.read(g, |v| *v), |_| {}).unwrap();
    assert!(reuse.is_none(), "cross-label memo reuse must be blocked");
}
