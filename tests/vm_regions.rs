//! MiniVM integration tests: the paper's figures as bytecode programs,
//! the static-barrier failure mode, lazy label sync over the real
//! kernel bridge, statics restrictions and `copyAndLabel`.

use laminar::KernelBridge;
use laminar_difc::{CapKind, CapSet, Capability, Label, SecPair, Tag};
use laminar_os::{Kernel, LaminarModule, OpenMode, UserId};
use laminar_vm::{BarrierMode, ClassId, ProgramBuilder, Value, Vm, VmError};

fn fresh_tag(n: u64) -> Tag {
    Tag::from_raw(n)
}

/// Figure 4: read a labeled calendar object in a `{S(a,b), I()}` region,
/// compute, then declassify inside a nested `{S(b)}` region using `a-`.
#[test]
fn figure4_calendar_flow() {
    let mut pb = ProgramBuilder::new();
    let cell = pb.add_class("Cell", 1);
    let _ = cell;

    // Inner region {S(b)} with C(a-): ret.val = copyAndLabel(s2, S(b)).
    let pair_b = pb.add_pair_spec(&[1], &[]);
    let inner = pb.region("declassify", 2, 3, |b| {
        // params: 0 = s2 (labeled {S(a,b)}), 1 = ret (labeled {S(b)})
        b.load(1); // ret
        b.load(0).copy_and_label(pair_b); // copy of s2 at {S(b)}
        b.get_field(0); // read the copy's field (labels {S(b)} ⊆ thread ✓)
        b.put_field(0); // ret.val = ...
        b.ret();
    });
    let inner_spec = pb.add_region_spec(pair_b, &[(0, CapKind::Minus)], None);

    // Outer region {S(a,b)} with C(a-).
    let pair_ab = pb.add_pair_spec(&[0, 1], &[]);
    let outer = pb.region("schedule", 2, 3, |b| {
        // params: 0 = cal {S(a,b)}, 1 = ret {S(b)}
        // s2 = new Cell (labels of region = {S(a,b)}); s2.val = cal.val * 2
        b.new_object(ClassId(0)).store(2);
        b.load(2);
        b.load(0).get_field(0).push_int(2).mul();
        b.put_field(0);
        b.load(2).load(1).call_secure(inner, inner_spec);
        b.ret();
    });
    let outer_spec = pb.add_region_spec(pair_ab, &[(0, CapKind::Minus)], None);

    pb.func("main", 2, false, 2, |b| {
        b.load(0).load(1).call_secure(outer, outer_spec).ret();
    });
    let program = pb.finish().unwrap();

    let (a, b) = (fresh_tag(1001), fresh_tag(1002));
    let mut vm = Vm::new(program, vec![a, b], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant(Capability::plus(a));
    caps.grant(Capability::plus(b));
    caps.grant(Capability::minus(a));
    vm.set_thread_caps(caps);

    let lab_ab = SecPair::secrecy_only(Label::from_tags([a, b]));
    let lab_b = SecPair::secrecy_only(Label::singleton(b));
    let cal = vm.host_alloc_object(ClassId(0), Some(lab_ab)).unwrap();
    vm.host_put_field(cal, 0, Value::Int(21)).unwrap();
    let ret = vm.host_alloc_object(ClassId(0), Some(lab_b.clone())).unwrap();

    vm.call_by_name("main", &[Value::Ref(cal), Value::Ref(ret)]).unwrap();
    assert_eq!(vm.host_get_field(ret, 0).unwrap(), Value::Int(42));
    assert!(vm.stats().copy_and_label == 1);
    assert_eq!(vm.stats().regions_entered, 2);
}

/// Figure 5 with the catch block: the invariant `y == 2x` is restored by
/// the catch after the implicit-flow exception.
#[test]
fn figure5_catch_restores_invariants() {
    // The paper's x, y live in the enclosing scope; our regions are
    // methods, so they live in a {S(h)}-labeled State{x, y} object the
    // region (and its catch) may freely update.
    let mut pb = ProgramBuilder::new();
    let _cell = pb.add_class("Cell", 1); // class 0: H and L holders
    let _state = pb.add_class("State", 2); // class 1: {x, y}

    // catch(H, L, state): y = 2 * x
    let catch = pb.region("catch", 3, 3, |b| {
        b.load(2);
        b.load(2).get_field(0).push_int(2).mul();
        b.put_field(1);
        b.ret();
    });
    // body(H, L, state): x++; if (H) L = true; y = 2*x
    let body = pb.region("body", 3, 3, |b| {
        b.load(2);
        b.load(2).get_field(0).push_int(1).add();
        b.put_field(0);
        b.load(0).get_field(0); // H.val (readable: region has S(h))
        let skip = b.new_label();
        b.jump_if_false(skip);
        b.load(1).push_bool(true).put_field(0); // L.val = true → violation
        b.bind(skip);
        b.load(2);
        b.load(2).get_field(0).push_int(2).mul();
        b.put_field(1);
        b.ret();
    });
    let pair_h = pb.add_pair_spec(&[0], &[]);
    let spec = pb.add_region_spec(pair_h, &[(0, CapKind::Plus)], Some(catch));
    pb.func("main", 3, false, 3, |b| {
        b.load(0).load(1).load(2).call_secure(body, spec).ret();
    });
    let program = pb.finish().unwrap();

    for h_value in [false, true] {
        let h = fresh_tag(7);
        let mut vm = Vm::new(program.clone(), vec![h], BarrierMode::Dynamic);
        let mut caps = CapSet::new();
        caps.grant(Capability::plus(h));
        vm.set_thread_caps(caps);
        let lab = SecPair::secrecy_only(Label::singleton(h));
        let h_obj = vm.host_alloc_object(ClassId(0), Some(lab.clone())).unwrap();
        vm.host_put_field(h_obj, 0, Value::Bool(h_value)).unwrap();
        let l_obj = vm.host_alloc_object(ClassId(0), None).unwrap();
        vm.host_put_field(l_obj, 0, Value::Bool(false)).unwrap();
        let state = vm.host_alloc_object(ClassId(1), Some(lab)).unwrap();
        vm.host_put_field(state, 0, Value::Int(10)).unwrap();
        vm.host_put_field(state, 1, Value::Int(20)).unwrap();

        vm.call_by_name(
            "main",
            &[Value::Ref(h_obj), Value::Ref(l_obj), Value::Ref(state)],
        )
        .unwrap();
        // Invariant y == 2x restored on both paths (via body or catch).
        let x = vm.host_get_field(state, 0).unwrap();
        let y = vm.host_get_field(state, 1).unwrap();
        assert_eq!(x, Value::Int(11), "H={h_value}");
        assert_eq!(y, Value::Int(22), "H={h_value}");
        // L never written.
        assert_eq!(vm.host_get_field(l_obj, 0).unwrap(), Value::Bool(false));
        // Exception suppressed exactly when H was true.
        assert_eq!(vm.stats().exceptions_suppressed > 0, h_value);
    }
}

/// Figure 7: reading two differently-labeled student records in a
/// `{S(s1,s2)}` region, then declassifying the sum with `s1-, s2-`.
#[test]
fn figure7_two_students() {
    let mut pb = ProgramBuilder::new();
    let _rec = pb.add_class("Rec", 1);

    let pair_empty = pb.add_pair_spec(&[], &[]);
    let inner = pb.region("declass", 2, 2, |b| {
        // params: 0 = obj {S(s1,s2)}, 1 = ret (unlabeled)
        b.load(1);
        b.load(0).copy_and_label(pair_empty);
        b.get_field(0);
        b.put_field(0);
        b.ret();
    });
    let inner_spec =
        pb.add_region_spec(pair_empty, &[(0, CapKind::Minus), (1, CapKind::Minus)], None);

    let pair_s12 = pb.add_pair_spec(&[0, 1], &[]);
    let outer = pb.region("sum", 3, 4, |b| {
        // params: 0 = student1, 1 = student2, 2 = ret
        b.new_object(ClassId(0)).store(3);
        b.load(3);
        b.load(0).get_field(0);
        b.load(1).get_field(0);
        b.add();
        b.put_field(0);
        b.load(3).load(2).call_secure(inner, inner_spec);
        b.ret();
    });
    let outer_spec = pb.add_region_spec(
        pair_s12,
        &[
            (0, CapKind::Plus),
            (1, CapKind::Plus),
            (0, CapKind::Minus),
            (1, CapKind::Minus),
        ],
        None,
    );
    pb.func("main", 3, false, 3, |b| {
        b.load(0).load(1).load(2).call_secure(outer, outer_spec).ret();
    });
    let program = pb.finish().unwrap();

    let (s1, s2) = (fresh_tag(11), fresh_tag(12));
    let mut vm = Vm::new(program, vec![s1, s2], BarrierMode::Static);
    let mut caps = CapSet::new();
    caps.grant_both(s1);
    caps.grant_both(s2);
    vm.set_thread_caps(caps);

    let m1 = vm
        .host_alloc_object(ClassId(0), Some(SecPair::secrecy_only(Label::singleton(s1))))
        .unwrap();
    vm.host_put_field(m1, 0, Value::Int(30)).unwrap();
    let m2 = vm
        .host_alloc_object(ClassId(0), Some(SecPair::secrecy_only(Label::singleton(s2))))
        .unwrap();
    vm.host_put_field(m2, 0, Value::Int(12)).unwrap();
    let ret = vm.host_alloc_object(ClassId(0), None).unwrap();

    vm.call_by_name("main", &[Value::Ref(m1), Value::Ref(m2), Value::Ref(ret)]).unwrap();
    assert_eq!(vm.host_get_field(ret, 0).unwrap(), Value::Int(42));
}

/// The static-barrier failure mode (§5.1): a method first compiled
/// outside a region, later called inside, is detected; dynamic barriers
/// handle the same program fine.
#[test]
fn static_barrier_context_mismatch() {
    let mut pb = ProgramBuilder::new();
    let _c = pb.add_class("C", 1);
    // A helper called from both contexts.
    let helper = pb.func("helper", 1, false, 1, |b| {
        b.load(0).get_field(0).pop().ret();
    });
    let body = pb.region("r", 1, 1, |b| {
        b.load(0).call(helper).ret();
    });
    let pair = pb.add_pair_spec(&[], &[]);
    let spec = pb.add_region_spec(pair, &[], None);
    pb.func("main", 1, false, 1, |b| {
        b.load(0).call(helper); // first call: compiled out-of-region
        b.load(0).call_secure(body, spec); // same method, now in-region
        b.ret();
    });
    let program = pb.finish().unwrap();

    let mk_obj = |vm: &mut Vm| {
        let o = vm.host_alloc_object(ClassId(0), None).unwrap();
        vm.host_put_field(o, 0, Value::Int(1)).unwrap();
        o
    };

    // Static mode: loud mismatch (the paper's approach would silently
    // run wrong barriers; we fail closed).
    let mut vm = Vm::new(program.clone(), vec![], BarrierMode::Static);
    let o = mk_obj(&mut vm);
    let err = vm.call_by_name("main", &[Value::Ref(o)]).unwrap_err();
    assert!(matches!(err, VmError::BarrierContextMismatch { .. }), "{err}");

    // Dynamic mode: fine.
    let mut vm = Vm::new(program.clone(), vec![], BarrierMode::Dynamic);
    let o = mk_obj(&mut vm);
    vm.call_by_name("main", &[Value::Ref(o)]).unwrap();
    assert!(vm.stats().dynamic_dispatches > 0);

    // Cloning mode (the §5.1 production design): also fine — the helper
    // is compiled once per context, with static-barrier dispatch and no
    // runtime context checks.
    let mut vm = Vm::new(program, vec![], BarrierMode::Cloning);
    let o = mk_obj(&mut vm);
    vm.call_by_name("main", &[Value::Ref(o)]).unwrap();
    assert_eq!(vm.stats().dynamic_dispatches, 0);
    // Two clones of `helper` plus the two callers were compiled.
    assert!(vm.stats().functions_compiled >= 4);
}

/// Labeled statics (the §5.1 "production implementation could support
/// labeling statics" extension): a `{S(g)}`-labeled static is writable
/// and readable only from regions whose labels permit the flow, and
/// inaccessible outside regions.
#[test]
fn labeled_statics_are_flow_checked() {
    let mut pb = ProgramBuilder::new();
    let pair_g = pb.add_pair_spec(&[0], &[]);
    let s = pb.add_static_labeled("secret_counter", pair_g);

    let bump = pb.region("bump", 0, 0, |b| {
        b.push_int(41).put_static(s);
        b.get_static(s).push_int(1).add().put_static(s).ret();
    });
    let spec_g = pb.add_region_spec(pair_g, &[(0, CapKind::Plus)], None);

    let leak = pb.region("leak", 0, 0, |b| {
        b.get_static(s).pop().ret();
    });
    let pair_empty = pb.add_pair_spec(&[], &[]);
    let spec_empty = pb.add_region_spec(pair_empty, &[], None);

    pb.func("init", 0, false, 0, |b| {
        // Outside any region a labeled static is unreachable; this
        // function exists to prove it (called under Dynamic mode).
        b.push_int(0).put_static(s).ret();
    });
    pb.func("run_bump", 0, false, 0, |b| {
        b.call_secure(bump, spec_g).ret();
    });
    pb.func("run_leak", 0, false, 0, |b| {
        b.call_secure(leak, spec_empty).ret();
    });
    let program = pb.finish().unwrap();

    let g = fresh_tag(77);
    let mut vm = Vm::new(program, vec![g], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant(Capability::plus(g));
    vm.set_thread_caps(caps);

    // Outside a region: denied (exception propagates to the host).
    let err = vm.call_by_name("init", &[]).unwrap_err();
    assert!(matches!(err, VmError::LabeledAccessOutsideRegion), "{err}");

    // Region carrying {S(g)}: read-modify-write succeeds.
    vm.call_by_name("run_bump", &[]).unwrap();
    assert_eq!(vm.stats().exceptions_suppressed, 0);

    // Unlabeled region: the read is a flow violation, confined.
    vm.call_by_name("run_leak", &[]).unwrap();
    assert_eq!(vm.stats().exceptions_suppressed, 1);
}

/// Statics restrictions (§5.1): secrecy regions may not write statics;
/// integrity regions may not read them.
#[test]
fn statics_restrictions_in_regions() {
    let mut pb = ProgramBuilder::new();
    let s = pb.add_static("g");
    let writer = pb.region("writer", 0, 0, |b| {
        b.push_int(1).put_static(s).ret();
    });
    let reader = pb.region("reader", 0, 0, |b| {
        b.get_static(s).pop().ret();
    });
    let secrecy = pb.add_pair_spec(&[0], &[]);
    let integrity = pb.add_pair_spec(&[], &[0]);
    let w_spec = pb.add_region_spec(secrecy, &[(0, CapKind::Plus)], None);
    let r_spec = pb.add_region_spec(integrity, &[(0, CapKind::Plus)], None);
    pb.func("main_w", 0, false, 0, |b| {
        b.call_secure(writer, w_spec).ret();
    });
    pb.func("main_r", 0, false, 0, |b| {
        b.call_secure(reader, r_spec).ret();
    });
    let program = pb.finish().unwrap();

    let t = fresh_tag(5);
    let mut vm = Vm::new(program, vec![t], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant_both(t);
    vm.set_thread_caps(caps);

    // Violations are suppressed at the region edge but counted.
    vm.call_by_name("main_w", &[]).unwrap();
    assert_eq!(vm.stats().exceptions_suppressed, 1);
    vm.call_by_name("main_r", &[]).unwrap();
    assert_eq!(vm.stats().exceptions_suppressed, 2);
}

/// Lazy VM→OS label sync over the real kernel (§4.4): a region that does
/// no syscall never touches the kernel; one that writes a file first
/// pushes its labels, and the kernel then enforces them.
#[test]
fn lazy_label_sync_through_kernel_bridge() {
    let kernel = Kernel::boot(LaminarModule);
    kernel.add_user(UserId(1), "vmuser");
    let task = kernel.login(UserId(1)).unwrap();
    kernel.bless_vm_process(&task).unwrap();
    let tcb = kernel.tcb_tag();
    let mut tcb_caps = CapSet::new();
    tcb_caps.grant_both(tcb);
    let vm_task = task.spawn_thread(Some(tcb_caps)).unwrap();
    vm_task
        .set_task_label(laminar_difc::LabelType::Integrity, Label::singleton(tcb))
        .unwrap();

    // Labeled destination file (pre-created) and a public one.
    let a = task.alloc_tag().unwrap();
    let sa = SecPair::secrecy_only(Label::singleton(a));
    let fd = task.create_file_labeled("secret.out", sa).unwrap();
    task.close(fd).unwrap();
    let fd = task.create("public.out").unwrap();
    task.close(fd).unwrap();

    let mut pb = ProgramBuilder::new();
    let secret_path = pb.add_string("secret.out");
    let public_path = pb.add_string("public.out");
    let quiet = pb.region("quiet", 0, 0, |b| {
        b.push_int(1).push_int(1).add().pop().ret();
    });
    let write_secret = pb.region("write_secret", 0, 0, |b| {
        b.push_int(42).os_write_byte(secret_path).ret();
    });
    let leak = pb.region("leak", 0, 0, |b| {
        b.push_int(9).os_write_byte(public_path).ret();
    });
    let pair_a = pb.add_pair_spec(&[0], &[]);
    let spec = pb.add_region_spec(pair_a, &[(0, CapKind::Plus)], None);
    pb.func("run_quiet", 0, false, 0, |b| {
        b.call_secure(quiet, spec).ret();
    });
    pb.func("run_write", 0, false, 0, |b| {
        b.call_secure(write_secret, spec).ret();
    });
    pb.func("run_leak", 0, false, 0, |b| {
        b.call_secure(leak, spec).ret();
    });
    let program = pb.finish().unwrap();

    let mut vm = Vm::new(program, vec![a], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant(Capability::plus(a));
    vm.set_thread_caps(caps);
    vm.set_bridge(Box::new(KernelBridge::new(task.clone(), vm_task.clone())));

    // Syscall-free region: zero kernel syncs.
    vm.call_by_name("run_quiet", &[]).unwrap();
    assert_eq!(vm.stats().os_label_syncs, 0);
    assert_eq!(vm.stats().os_label_syncs_elided, 1);

    // Region writing the labeled file: sync happens, write lands.
    vm.call_by_name("run_write", &[]).unwrap();
    assert_eq!(vm.stats().os_label_syncs, 1);
    task.set_task_label(laminar_difc::LabelType::Secrecy, Label::singleton(a)).unwrap();
    let fd = task.open("secret.out", OpenMode::Read).unwrap();
    assert_eq!(task.read(fd, 4).unwrap(), vec![42]);
    task.close(fd).unwrap();
    task.set_task_label(laminar_difc::LabelType::Secrecy, Label::empty()).unwrap();

    // Region trying to write the public file: the kernel denies it (the
    // sync carried the taint), and the exception is confined.
    vm.call_by_name("run_leak", &[]).unwrap();
    assert!(vm.stats().exceptions_suppressed >= 1);
    let fd = task.open("public.out", OpenMode::Read).unwrap();
    assert_eq!(task.read(fd, 4).unwrap(), Vec::<u8>::new());
    task.close(fd).unwrap();

    // After the regions, the kernel task is unlabeled again.
    assert!(task.current_labels().unwrap().is_unlabeled());
}

/// `copyAndLabel` alone cannot defeat the rules: label changes without
/// the minus capability raise (and are confined).
#[test]
fn copy_and_label_without_caps_fails() {
    let mut pb = ProgramBuilder::new();
    let _c = pb.add_class("C", 1);
    let pair_pub = pb.add_pair_spec(&[], &[]);
    let body = pb.region("steal", 1, 1, |b| {
        b.load(0).copy_and_label(pair_pub).pop().ret();
    });
    let pair_a = pb.add_pair_spec(&[0], &[]);
    // Region holds only a+ — classification, no declassification.
    let spec = pb.add_region_spec(pair_a, &[(0, CapKind::Plus)], None);
    pb.func("main", 1, false, 1, |b| {
        b.load(0).call_secure(body, spec).ret();
    });
    let program = pb.finish().unwrap();

    let a = fresh_tag(3);
    let mut vm = Vm::new(program, vec![a], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant(Capability::plus(a));
    vm.set_thread_caps(caps);
    let obj = vm
        .host_alloc_object(ClassId(0), Some(SecPair::secrecy_only(Label::singleton(a))))
        .unwrap();
    vm.call_by_name("main", &[Value::Ref(obj)]).unwrap();
    assert_eq!(vm.stats().exceptions_suppressed, 1);
    assert_eq!(vm.stats().copy_and_label, 0);
}

/// Secure termination (§4.3.3): a catchless region that faults after
/// mutating labeled state is *aborted* — every labeled write is rolled
/// back to the entry snapshot, so no partial update survives the fault.
#[test]
fn aborted_region_rolls_back_labeled_writes() {
    let mut pb = ProgramBuilder::new();
    let _state = pb.add_class("State", 2);
    // body(state): state.x = 99; state.y = 100; throw 7
    let body = pb.region("body", 1, 1, |b| {
        b.load(0).push_int(99).put_field(0);
        b.load(0).push_int(100).put_field(1);
        b.push_int(7).throw();
        b.ret();
    });
    let pair_h = pb.add_pair_spec(&[0], &[]);
    let spec = pb.add_region_spec(pair_h, &[(0, CapKind::Plus)], None);
    pb.func("main", 1, false, 1, |b| {
        b.load(0).call_secure(body, spec).ret();
    });
    let program = pb.finish().unwrap();

    let h = fresh_tag(41);
    let mut vm = Vm::new(program, vec![h], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant(Capability::plus(h));
    vm.set_thread_caps(caps);
    let lab = SecPair::secrecy_only(Label::singleton(h));
    let state = vm.host_alloc_object(ClassId(0), Some(lab)).unwrap();
    vm.host_put_field(state, 0, Value::Int(1)).unwrap();
    vm.host_put_field(state, 1, Value::Int(2)).unwrap();

    vm.call_by_name("main", &[Value::Ref(state)]).unwrap();

    // The throw was suppressed at the boundary AND the region's writes
    // were undone: the labeled object is byte-for-byte as it was.
    assert_eq!(vm.stats().exceptions_suppressed, 1);
    assert_eq!(vm.stats().regions_aborted, 1);
    assert_eq!(vm.host_get_field(state, 0).unwrap(), Value::Int(1));
    assert_eq!(vm.host_get_field(state, 1).unwrap(), Value::Int(2));
}

/// The catch-present contrast: with a catch block the region's writes
/// persist (the catch repairs invariants itself — Figure 5), so the undo
/// log must NOT fire.
#[test]
fn caught_region_keeps_writes_for_the_catch_to_repair() {
    let mut pb = ProgramBuilder::new();
    let _state = pb.add_class("State", 1);
    let catch = pb.region("catch", 1, 1, |b| {
        b.ret();
    });
    let body = pb.region("body", 1, 1, |b| {
        b.load(0).push_int(99).put_field(0);
        b.push_int(7).throw();
        b.ret();
    });
    let pair_h = pb.add_pair_spec(&[0], &[]);
    let spec = pb.add_region_spec(pair_h, &[(0, CapKind::Plus)], Some(catch));
    pb.func("main", 1, false, 1, |b| {
        b.load(0).call_secure(body, spec).ret();
    });
    let program = pb.finish().unwrap();

    let h = fresh_tag(42);
    let mut vm = Vm::new(program, vec![h], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant(Capability::plus(h));
    vm.set_thread_caps(caps);
    let lab = SecPair::secrecy_only(Label::singleton(h));
    let state = vm.host_alloc_object(ClassId(0), Some(lab)).unwrap();
    vm.host_put_field(state, 0, Value::Int(1)).unwrap();

    vm.call_by_name("main", &[Value::Ref(state)]).unwrap();
    assert_eq!(vm.stats().regions_aborted, 0);
    assert_eq!(vm.host_get_field(state, 0).unwrap(), Value::Int(99));
}

/// Nested regions: the inner region's normal exit commits its writes into
/// the outer scope, and an outer abort then rolls back *both* regions'
/// writes — the undo log is scoped per frame, not truncated on inner exit.
#[test]
fn outer_abort_undoes_committed_inner_region_writes() {
    let mut pb = ProgramBuilder::new();
    let _state = pb.add_class("State", 2);
    let pair_h = pb.add_pair_spec(&[0], &[]);
    // inner(state): state.y = 100 (runs to completion)
    let inner = pb.region("inner", 1, 1, |b| {
        b.load(0).push_int(100).put_field(1);
        b.ret();
    });
    let inner_spec = pb.add_region_spec(pair_h, &[(0, CapKind::Plus)], None);
    // outer(state): state.x = 99; inner(state); throw 7
    let outer = pb.region("outer", 1, 1, |b| {
        b.load(0).push_int(99).put_field(0);
        b.load(0).call_secure(inner, inner_spec);
        b.push_int(7).throw();
        b.ret();
    });
    let outer_spec = pb.add_region_spec(pair_h, &[(0, CapKind::Plus)], None);
    pb.func("main", 1, false, 1, |b| {
        b.load(0).call_secure(outer, outer_spec).ret();
    });
    let program = pb.finish().unwrap();

    let h = fresh_tag(43);
    let mut vm = Vm::new(program, vec![h], BarrierMode::Dynamic);
    let mut caps = CapSet::new();
    caps.grant(Capability::plus(h));
    vm.set_thread_caps(caps);
    let lab = SecPair::secrecy_only(Label::singleton(h));
    let state = vm.host_alloc_object(ClassId(0), Some(lab)).unwrap();
    vm.host_put_field(state, 0, Value::Int(1)).unwrap();
    vm.host_put_field(state, 1, Value::Int(2)).unwrap();

    vm.call_by_name("main", &[Value::Ref(state)]).unwrap();
    assert_eq!(vm.stats().regions_aborted, 1);
    assert_eq!(vm.host_get_field(state, 0).unwrap(), Value::Int(1));
    assert_eq!(vm.host_get_field(state, 1).unwrap(), Value::Int(2));
}

/// Region-entry failures terminate (propagate) rather than suppress
/// (§5.1: "the program terminates at L1").
#[test]
fn region_entry_failure_propagates() {
    let mut pb = ProgramBuilder::new();
    let body = pb.region("r", 0, 0, |b| {
        b.ret();
    });
    let pair = pb.add_pair_spec(&[0], &[]);
    let spec = pb.add_region_spec(pair, &[(0, CapKind::Plus)], None);
    pb.func("main", 0, false, 0, |b| {
        b.call_secure(body, spec).ret();
    });
    let program = pb.finish().unwrap();
    // Thread has NO capabilities.
    let mut vm = Vm::new(program, vec![fresh_tag(8)], BarrierMode::Dynamic);
    let err = vm.call_by_name("main", &[]).unwrap_err();
    assert!(matches!(err, VmError::RegionEntry(_)), "{err}");
}
