//! Security-region semantics of the `laminar` runtime: entry rules,
//! nesting, capability scoping, exception confinement, the two barrier
//! APIs, lazy VM→OS label sync, and multithreaded principals with
//! heterogeneous labels.

use laminar::{Labeled, Laminar, LaminarError, Principal, RegionParams};
use laminar_difc::{CapKind, CapSet, Capability, Label, LabelType, SecPair, Tag};
use laminar_os::{OpenMode, UserId};
use std::sync::Arc;

fn alice() -> (Arc<Laminar>, Principal) {
    let sys = Laminar::boot();
    sys.add_user(UserId(1), "alice");
    let p = sys.login(UserId(1)).unwrap();
    (sys, p)
}

fn tagged_params(t: Tag) -> RegionParams {
    RegionParams::new()
        .secrecy(Label::singleton(t))
        .grant(Capability::plus(t))
        .grant(Capability::minus(t))
}

#[test]
fn entry_rule_1_needs_capability_or_label() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    // With t+ entry succeeds.
    let params =
        RegionParams::new().secrecy(Label::singleton(t)).grant(Capability::plus(t));
    assert!(p.secure(&params, |_| Ok(()), |_| {}).is_ok());

    // A principal without the capability cannot enter.
    let stranger = p.spawn_thread(Some(CapSet::new())).unwrap();
    assert!(matches!(
        stranger.secure(&params, |_| Ok(()), |_| {}),
        Err(LaminarError::RegionEntry(_))
    ));
}

#[test]
fn entry_rule_2_region_caps_subset() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    let other = Tag::from_raw(424_242);
    let params = RegionParams::new().grant(Capability::plus(t)).grant(
        // A capability the thread does not hold.
        Capability::minus(other),
    );
    assert!(matches!(
        p.secure(&params, |_| Ok(()), |_| {}),
        Err(LaminarError::RegionEntry(_))
    ));
}

#[test]
fn labels_are_empty_outside_regions_and_restored_on_exit() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    assert!(p.current_labels().is_unlabeled());
    p.secure(
        &tagged_params(t),
        |g| {
            assert_eq!(g.current_label(LabelType::Secrecy), Label::singleton(t));
            Ok(())
        },
        |_| {},
    )
    .unwrap();
    assert!(p.current_labels().is_unlabeled());
    assert!(!p.in_region());
}

#[test]
fn nested_regions_restore_the_outer_context() {
    let (_sys, p) = alice();
    let a = p.create_tag().unwrap();
    let b = p.create_tag().unwrap();
    let outer = RegionParams::new()
        .secrecy(Label::from_tags([a, b]))
        .grant(Capability::plus(a))
        .grant(Capability::plus(b))
        .grant(Capability::minus(a));
    p.secure(
        &outer,
        |g| {
            let inner = RegionParams::new()
                .secrecy(Label::singleton(b))
                .grant(Capability::minus(a));
            // Inner entry: b ∈ SP, a- ⊆ CP ✓ (Fig. 4's L4).
            g.secure(
                &inner,
                |g2| {
                    assert_eq!(g2.current_label(LabelType::Secrecy), Label::singleton(b));
                    Ok(())
                },
                |_| {},
            )?;
            // Outer context restored.
            assert_eq!(g.current_label(LabelType::Secrecy), Label::from_tags([a, b]));
            Ok(())
        },
        |_| {},
    )
    .unwrap()
    .unwrap();
}

#[test]
fn figure5_implicit_flow_is_confined() {
    // The secure/catch program of Fig. 5: the attempted write of public
    // L never happens, the invariant-restoring catch runs, execution
    // continues, and code outside cannot distinguish H=true from false.
    let (_sys, p) = alice();
    let h = p.create_tag().unwrap();

    for h_value in [false, true] {
        let params =
            RegionParams::new().secrecy(Label::singleton(h)).grant(Capability::plus(h));
        let h_cell =
            p.secure(&params, |g| Ok(g.new_labeled(h_value)), |_| {}).unwrap().unwrap();
        let l_cell = Labeled::unlabeled(false);
        let mut catch_ran = false;

        let out = p
            .secure(
                &params,
                |g| {
                    let secret = h_cell.read(g, |v| *v)?;
                    if secret {
                        // Attempted implicit leak: write fails (region has
                        // secrecy; cell is public).
                        l_cell.write(g, |l| *l = true)?;
                    }
                    Ok(())
                },
                |_| catch_ran = true,
            )
            .unwrap();

        // L is untouched either way: no bit of H escaped.
        assert!(!l_cell.read_dyn(|v| *v).unwrap());
        // Whether the catch ran equals h_value — but that fact is only
        // visible to *this test* (the TCB); region code cannot export it.
        assert_eq!(catch_ran, h_value);
        assert_eq!(out.is_none(), h_value);
    }
}

#[test]
fn panics_inside_regions_are_confined() {
    let (_sys, p) = alice();
    let out = p
        .secure::<()>(&RegionParams::new(), |_| panic!("runtime exception"), |_| {})
        .unwrap();
    assert!(out.is_none());
    // The principal is fully usable afterwards.
    assert!(!p.in_region());
    assert_eq!(p.secure(&RegionParams::new(), |_| Ok(7), |_| {}).unwrap(), Some(7));
}

#[test]
fn catch_block_panics_are_also_confined() {
    let (_sys, p) = alice();
    let out = p
        .secure::<()>(
            &RegionParams::new(),
            |g| g.throw("first"),
            |_| panic!("catch panicked too"),
        )
        .unwrap();
    assert!(out.is_none());
    assert!(p.stats().exceptions_suppressed >= 2);
}

#[test]
fn static_barriers_check_labels() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    let cell =
        p.secure(&tagged_params(t), |g| Ok(g.new_labeled(41)), |_| {}).unwrap().unwrap();

    // Region carrying the label reads/writes fine.
    let v = p
        .secure(
            &tagged_params(t),
            |g| {
                cell.write(g, |v| *v += 1)?;
                cell.read(g, |v| *v)
            },
            |_| {},
        )
        .unwrap();
    assert_eq!(v, Some(42));

    // An unlabeled region cannot read it (suppressed).
    let out = p.secure(&RegionParams::new(), |g| cell.read(g, |v| *v), |_| {}).unwrap();
    assert!(out.is_none());
}

#[test]
fn dynamic_barriers_find_the_context_at_runtime() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    let cell =
        p.secure(&tagged_params(t), |g| Ok(g.new_labeled(5)), |_| {}).unwrap().unwrap();

    // Outside any region: denied.
    assert!(matches!(cell.read_dyn(|v| *v), Err(LaminarError::NotInRegion)));
    // Inside the right region: allowed, via the same call.
    let v = p.secure(&tagged_params(t), |_| cell.read_dyn(|v| *v), |_| {}).unwrap();
    assert_eq!(v, Some(5));
    assert!(p.stats().dynamic_dispatches > 0);
}

#[test]
fn integrity_regions_cannot_read_unendorsed_data() {
    let (_sys, p) = alice();
    let i = p.create_tag().unwrap();
    let plain = Labeled::unlabeled(1);
    let params =
        RegionParams::new().integrity(Label::singleton(i)).grant(Capability::plus(i));
    // Reading unendorsed data from a high-integrity region: suppressed.
    let out = p.secure(&params, |g| plain.read(g, |v| *v), |_| {}).unwrap();
    assert!(out.is_none());
    // Writing down is fine.
    let out = p.secure(&params, |g| plain.write(g, |v| *v = 2), |_| {}).unwrap();
    assert_eq!(out, Some(()));
}

#[test]
fn copy_and_label_requires_capabilities() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    let cell =
        p.secure(&tagged_params(t), |g| Ok(g.new_labeled(9)), |_| {}).unwrap().unwrap();

    // Without t-: declassification is rejected inside the region
    // (suppressed at the boundary).
    let no_minus =
        RegionParams::new().secrecy(Label::singleton(t)).grant(Capability::plus(t));
    let out = p
        .secure(
            &no_minus,
            |g| {
                g.copy_and_label(&cell, SecPair::unlabeled())?;
                Ok(())
            },
            |_| {},
        )
        .unwrap();
    assert!(out.is_none());

    // With t- it succeeds and the copy is public.
    let public = p
        .secure(
            &tagged_params(t),
            |g| g.copy_and_label(&cell, SecPair::unlabeled()),
            |_| {},
        )
        .unwrap()
        .unwrap();
    assert!(public.labels().is_unlabeled());
    assert_eq!(public.read_dyn(|v| *v).unwrap(), 9);
    // The original is untouched.
    assert!(!cell.labels().is_unlabeled());
}

#[test]
fn scoped_capability_drop_is_restored_global_is_not() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();

    // Scoped drop: gone inside, back outside.
    p.secure(
        &tagged_params(t),
        |g| {
            g.remove_capability(t, CapKind::Minus, false)?;
            assert!(!g.current_caps().can_remove(t));
            Ok(())
        },
        |_| {},
    )
    .unwrap()
    .unwrap();
    assert!(p.current_caps().can_remove(t));

    // Global drop: gone for good.
    p.secure(
        &tagged_params(t),
        |g| {
            g.remove_capability(t, CapKind::Minus, true)?;
            Ok(())
        },
        |_| {},
    )
    .unwrap()
    .unwrap();
    assert!(!p.current_caps().can_remove(t));
    assert!(p.current_caps().can_add(t));
}

#[test]
fn capabilities_gained_in_regions_persist_after_exit() {
    let (_sys, p) = alice();
    let gained = p
        .secure(&RegionParams::new(), |g| g.create_and_add_capability(), |_| {})
        .unwrap()
        .unwrap();
    // §4.4: "By default, a thread that gains a capability within a
    // security region retains the capability on exit".
    assert!(p.current_caps().can_add(gained));
    assert!(p.current_caps().can_remove(gained));
}

#[test]
fn lazy_label_sync_elides_syscall_free_regions() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    p.reset_stats();

    // No syscall: no kernel label traffic.
    p.secure(&tagged_params(t), |_| Ok(()), |_| {}).unwrap();
    assert_eq!(p.stats().os_syncs, 0);
    assert_eq!(p.stats().os_syncs_elided, 1);

    // With a syscall, exactly one sync happens.
    let fd = p.task().unwrap().create("/tmp/pre.txt").unwrap(); // pre-create unlabeled? no — labels empty outside
    p.task().unwrap().close(fd).unwrap();
    p.secure(
        &tagged_params(t),
        |g| {
            let os = g.os()?;
            // Kernel task now carries {S(t)}: writing the unlabeled file
            // is denied by the LSM — proving the sync took effect.
            let fd = os.open("/tmp/pre.txt", OpenMode::Write)?;
            let denied = os.write(fd, b"x").is_err();
            os.close(fd).ok();
            assert!(denied, "kernel must see the region's labels");
            Ok(())
        },
        |_| {},
    )
    .unwrap();
    assert_eq!(p.stats().os_syncs, 1);

    // After exit the kernel task is unlabeled again.
    let fd = p.task().unwrap().open("/tmp/pre.txt", OpenMode::Write).unwrap();
    p.task().unwrap().write(fd, b"y").unwrap();
    p.task().unwrap().close(fd).unwrap();
}

#[test]
fn heterogeneous_thread_labels_in_one_process() {
    // The workload OS-granularity DIFC cannot express: two threads of
    // one process simultaneously inside regions with different labels.
    let (_sys, p) = alice();
    let a = p.create_tag().unwrap();
    let b = p.create_tag().unwrap();
    let mut caps_a = CapSet::new();
    caps_a.grant_both(a);
    let mut caps_b = CapSet::new();
    caps_b.grant_both(b);
    let pa = p.spawn_thread(Some(caps_a)).unwrap();
    let pb = p.spawn_thread(Some(caps_b)).unwrap();

    let cell_a = pa
        .secure(&tagged_params(a), |g| Ok(Arc::new(g.new_labeled(1))), |_| {})
        .unwrap()
        .unwrap();
    let cell_b = pb
        .secure(&tagged_params(b), |g| Ok(Arc::new(g.new_labeled(2))), |_| {})
        .unwrap()
        .unwrap();

    let (cb, ca) = (Arc::clone(&cell_b), Arc::clone(&cell_a));
    let ha = std::thread::spawn(move || {
        pa.secure(
            &tagged_params(a),
            |g| {
                // Own data: yes. Other thread's: no (suppressed if tried).
                let v = ca.read(g, |v| *v)?;
                assert!(cb.read(g, |v| *v).is_err());
                Ok(v)
            },
            |_| {},
        )
        .unwrap()
    });
    let hb = std::thread::spawn(move || {
        pb.secure(&tagged_params(b), |g| cell_b.read(g, |v| *v), |_| {}).unwrap()
    });
    assert_eq!(ha.join().unwrap(), Some(1));
    assert_eq!(hb.join().unwrap(), Some(2));
}

#[test]
fn a_principal_region_stack_belongs_to_one_thread() {
    // Thread A holds a secret inside an S{t} region on a shared
    // principal. If thread B could now enter an empty region on the same
    // principal, it would swap the unlabeled context in under A, and A's
    // write barrier would let the secret into a public cell.
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    let secret = p.secure(&tagged_params(t), |g| Ok(g.new_labeled(42)), |_| {}).unwrap();
    let secret = secret.unwrap();
    let public = Labeled::unlabeled(0);
    let (a_read, b_tried, a_wrote) = (
        std::sync::Barrier::new(2),
        std::sync::Barrier::new(2),
        std::sync::Barrier::new(2),
    );
    let b_entry = std::thread::scope(|s| {
        s.spawn(|| {
            p.secure(
                &tagged_params(t),
                |g| {
                    let v = secret.read(g, |v| *v)?;
                    a_read.wait();
                    b_tried.wait();
                    let written = public.write(g, |c| *c = v);
                    a_wrote.wait();
                    written
                },
                |_| {},
            )
            .unwrap()
        });
        s.spawn(|| {
            a_read.wait();
            let mut body_ran = false;
            let entry = p.secure(
                &RegionParams::new(),
                |_| {
                    body_ran = true;
                    b_tried.wait();
                    a_wrote.wait();
                    Ok(())
                },
                |_| {},
            );
            if !body_ran {
                b_tried.wait();
                a_wrote.wait();
            }
            entry
        })
        .join()
        .unwrap()
    });
    assert!(matches!(b_entry, Err(LaminarError::RegionEntry(_))), "{b_entry:?}");
    assert_eq!(public.read_dyn(|v| *v).unwrap(), 0, "the secret reached a public cell");
    // Once A's region has exited, the principal is free for any thread.
    let ok = std::thread::scope(|s| {
        s.spawn(|| p.secure(&RegionParams::new(), |_| Ok(()), |_| {})).join().unwrap()
    });
    assert_eq!(ok.unwrap(), Some(()));
}

#[test]
fn kernel_access_and_a_synced_region_exclude_each_other() {
    // Thread A's region pushes {S(t)} to the principal's kernel task. If
    // thread B could take the task meanwhile, it would read an {S(t)}
    // file into plain memory and, once the tcb resets the task's labels
    // at A's region exit, write it anywhere.
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    let path = "/tmp/secret.txt";
    let fd = p
        .task()
        .unwrap()
        .create_file_labeled(path, SecPair::secrecy_only(Label::singleton(t)))
        .unwrap();
    p.task().unwrap().close(fd).unwrap();
    let read_secret = |g: &laminar::RegionGuard<'_>| {
        let os = g.os()?;
        let fd = os.open(path, OpenMode::Read)?;
        Ok(os.read(fd, 16)?)
    };
    p.secure(
        &tagged_params(t),
        |g| {
            let os = g.os()?;
            let fd = os.open(path, OpenMode::Write)?;
            os.write(fd, b"42")?;
            Ok(())
        },
        |_| {},
    )
    .unwrap()
    .unwrap();

    let (synced, tried) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
    let b_read = std::thread::scope(|s| {
        s.spawn(|| {
            p.secure(
                &tagged_params(t),
                |g| {
                    let pushed = g.os().map(|_| ());
                    synced.wait();
                    tried.wait();
                    pushed
                },
                |_| {},
            )
            .unwrap()
        });
        s.spawn(|| {
            synced.wait();
            let read = p.task().and_then(|task| {
                let fd = task.open(path, OpenMode::Read)?;
                Ok(task.read(fd, 16)?)
            });
            tried.wait();
            read
        })
        .join()
        .unwrap()
    });
    assert!(matches!(b_read, Err(LaminarError::Busy(_))), "{b_read:?}");

    // The other order: B takes the task first. A's region opens, but its
    // first syscall fails (confined) instead of labeling a task B holds.
    let access = p.task().unwrap();
    let a_read = std::thread::scope(|s| {
        s.spawn(|| p.secure(&tagged_params(t), read_secret, |_| {})).join().unwrap()
    });
    assert_eq!(a_read.unwrap(), None);
    assert!(access.open(path, OpenMode::Read).is_err(), "the task took A's labels");
    drop(access);
    let a_read = p.secure(&tagged_params(t), read_secret, |_| {}).unwrap();
    assert_eq!(a_read, Some(b"42".to_vec()));
}

#[test]
fn labeled_cell_creation_requires_conformant_labels() {
    let (_sys, p) = alice();
    let t = p.create_tag().unwrap();
    // A {S(t)} region cannot mint a *public* cell directly (write-down).
    let out = p
        .secure(
            &tagged_params(t),
            |g| {
                g.new_labeled_with(1, SecPair::unlabeled())?;
                Ok(())
            },
            |_| {},
        )
        .unwrap();
    assert!(out.is_none());
    // But it can mint a more-secret cell (classification).
    let u = p.create_tag().unwrap();
    let stronger = SecPair::secrecy_only(Label::from_tags([t, u]));
    let out = p
        .secure(
            &tagged_params(t),
            |g| {
                g.new_labeled_with(1, stronger.clone())?;
                Ok(())
            },
            |_| {},
        )
        .unwrap();
    assert_eq!(out, Some(()));
}
