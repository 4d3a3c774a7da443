//! The VM's own decision trace (`Vm::audit()`): what an enabled audit
//! records for region entry, barriers and region abort, and that the
//! log belongs to one VM.

use laminar_difc::{CapKind, CapSet, Capability, Label, SecPair, Tag};
use laminar_obs::{Event, Layer, Verdict};
use laminar_vm::{BarrierMode, ClassId, ProgramBuilder, Value, Vm, VmError};

#[test]
fn an_enabled_vm_audit_records_its_own_decisions_in_order() {
    // body(secret, public): public.x = secret.x — the read passes its
    // barrier, the write is denied, and the catchless region aborts.
    let mut pb = ProgramBuilder::new();
    let _cell = pb.add_class("Cell", 1);
    let body = pb.region("leak", 2, 2, |b| {
        b.load(1).load(0).get_field(0).put_field(0);
        b.ret();
    });
    let pair_h = pb.add_pair_spec(&[0], &[]);
    let spec = pb.add_region_spec(pair_h, &[(0, CapKind::Plus)], None);
    pb.func("main", 2, false, 2, |b| {
        b.load(0).load(1).call_secure(body, spec).ret();
    });
    // Entering {S(k)} needs k+, which the thread never holds.
    let empty = pb.region("empty", 0, 0, |b| {
        b.ret();
    });
    let pair_k = pb.add_pair_spec(&[1], &[]);
    let denied = pb.add_region_spec(pair_k, &[], None);
    pb.func("denied", 0, false, 0, |b| {
        b.call_secure(empty, denied).ret();
    });
    let program = pb.finish().unwrap();

    let (h, k) = (Tag::from_raw(51), Tag::from_raw(52));
    let secret_pair = SecPair::secrecy_only(Label::singleton(h));
    let run = |audited: bool| {
        let mut vm = Vm::new(program.clone(), vec![h, k], BarrierMode::Dynamic);
        vm.audit().set_enabled(audited);
        let mut caps = CapSet::new();
        caps.grant(Capability::plus(h));
        vm.set_thread_caps(caps);
        let secret = vm.host_alloc_object(ClassId(0), Some(secret_pair.clone()));
        let public = vm.host_alloc_object(ClassId(0), None);
        let args = [Value::Ref(secret.unwrap()), Value::Ref(public.unwrap())];
        vm.call_by_name("main", &args).unwrap();
        assert!(matches!(vm.call_by_name("denied", &[]), Err(VmError::RegionEntry(_))));
        assert_eq!(vm.stats().regions_aborted, 1);
        vm
    };
    let audited = run(true);
    // A second VM runs while the first one's audit is still on.
    let quiet = run(false);

    let flow = |op, object: &SecPair, verdict| Event::FlowCheck {
        layer: Layer::Vm,
        op,
        subject: secret_pair.id().as_u32(),
        object: object.id().as_u32(),
        verdict,
    };
    let log = audited.audit().snapshot();
    let events: Vec<Event> = log.records.iter().map(|r| r.event).collect();
    assert_eq!(
        events,
        [
            Event::RegionEnter { layer: Layer::Vm, verdict: Verdict::Allow },
            flow("barrier_read", &secret_pair, Verdict::Allow),
            flow("barrier_write", &SecPair::unlabeled(), Verdict::Deny),
            Event::RegionAbort { layer: Layer::Vm },
            Event::RegionEnter { layer: Layer::Vm, verdict: Verdict::Deny },
        ]
    );
    assert!(log.records.iter().map(|r| r.seq).eq(0..5), "{:?}", log.records);
    assert_eq!(log.truncated, 0);
    assert!(quiet.audit().snapshot().records.is_empty());
}
