//! Direct demonstrations of the fail-closed fault contract, outside the
//! randomized explorer: an injected mid-syscall fault must leave the
//! kernel's security state byte-for-byte unchanged while the kernel
//! keeps serving, and resource exhaustion must degrade gracefully — a
//! typed error, no partial state, full recovery once the resource is
//! freed.

use laminar_difc::{Label, LabelType};
use laminar_os::{
    Kernel, LaminarModule, OpenMode, OsError, Quotas, SyscallFailpoint, TaskHandle,
    UserId,
};
use std::sync::Arc;

fn boot() -> (Arc<Kernel>, TaskHandle) {
    let k = Kernel::boot(LaminarModule);
    k.add_user(UserId(1), "alice");
    let t = k.login(UserId(1)).unwrap();
    (k, t)
}

#[test]
fn late_abort_rolls_back_a_fully_applied_label_change() {
    let (k, alice) = boot();
    let t = alice.alloc_tag().unwrap();
    let labels_before = alice.current_labels().unwrap();
    let caps_before = alice.current_caps().unwrap();
    let rolled_back_before = laminar_os::syscalls_rolled_back();

    // AbortLate panics *after* the syscall body succeeded: the label
    // change has been fully applied and the undo journal must unwind it.
    k.arm_failpoint_for_test(SyscallFailpoint::AbortLate);
    let err = alice.set_task_label(LabelType::Secrecy, Label::singleton(t)).unwrap_err();
    assert!(matches!(err, OsError::Internal), "got {err:?}");
    assert!(k.take_failpoint_fired());
    assert!(laminar_os::syscalls_rolled_back() > rolled_back_before);

    assert_eq!(alice.current_labels().unwrap(), labels_before);
    assert_eq!(alice.current_caps().unwrap(), caps_before);

    // The kernel keeps serving: the identical call now goes through.
    alice.set_task_label(LabelType::Secrecy, Label::singleton(t)).unwrap();
    assert_ne!(alice.current_labels().unwrap(), labels_before);
}

#[test]
fn hook_panic_mid_syscall_leaves_the_vfs_untouched() {
    let (k, alice) = boot();
    let fd = alice.create("/home/alice/ledger").unwrap();
    alice.write(fd, b"balance: 42").unwrap();
    alice.close(fd).unwrap();
    let ledger_before = k.inspect_node_for_test("/home/alice/ledger").unwrap();
    let labels_before = alice.current_labels().unwrap();

    // The panic fires inside an LSM hook during path traversal, halfway
    // through the create.
    k.arm_failpoint_for_test(SyscallFailpoint::PanicAtHook);
    let err = alice.create("/home/alice/scratch").unwrap_err();
    assert!(matches!(err, OsError::Internal), "got {err:?}");
    assert!(k.take_failpoint_fired());

    // Nothing was created and nothing else moved.
    assert!(matches!(
        k.inspect_node_for_test("/home/alice/scratch"),
        Err(OsError::NotFound)
    ));
    assert_eq!(k.inspect_node_for_test("/home/alice/ledger").unwrap(), ledger_before);
    assert_eq!(alice.current_labels().unwrap(), labels_before);

    // The kernel keeps serving.
    let fd = alice.create("/home/alice/scratch").unwrap();
    alice.close(fd).unwrap();
}

#[test]
fn injected_allocation_failure_is_fail_closed() {
    let (k, alice) = boot();
    k.arm_failpoint_for_test(SyscallFailpoint::QuotaNext);
    let err = alice.create("/home/alice/never").unwrap_err();
    assert!(matches!(err, OsError::QuotaExceeded(_)), "got {err:?}");
    assert!(k.take_failpoint_fired());
    assert!(matches!(
        k.inspect_node_for_test("/home/alice/never"),
        Err(OsError::NotFound)
    ));
    // One-shot: the retry allocates normally.
    let fd = alice.create("/home/alice/never").unwrap();
    alice.close(fd).unwrap();
}

#[test]
fn fd_quota_exhaustion_is_typed_and_recoverable() {
    let quotas = Quotas { max_fds_per_process: 4, ..Quotas::default() };
    let k = Kernel::boot_with_quotas(LaminarModule, quotas);
    k.add_user(UserId(1), "alice");
    let alice = k.login(UserId(1)).unwrap();
    let fd = alice.create("/home/alice/f").unwrap();
    alice.close(fd).unwrap();
    let labels_before = alice.current_labels().unwrap();

    let mut held = Vec::new();
    let err = loop {
        match alice.open("/home/alice/f", OpenMode::Read) {
            Ok(fd) => held.push(fd),
            Err(e) => break e,
        }
        assert!(held.len() <= 4, "fd quota was never enforced");
    };
    assert!(matches!(err, OsError::QuotaExceeded("file descriptors")), "got {err:?}");
    // The failed open perturbed nothing.
    assert_eq!(alice.current_labels().unwrap(), labels_before);

    // Graceful degradation: freeing one descriptor unblocks the caller.
    alice.close(held.pop().unwrap()).unwrap();
    let fd = alice.open("/home/alice/f", OpenMode::Read).unwrap();
    alice.close(fd).unwrap();
}

#[test]
fn pipe_overflow_drops_silently_and_drains_to_recover() {
    let quotas = Quotas { pipe_capacity: 8, ..Quotas::default() };
    let k = Kernel::boot_with_quotas(LaminarModule, quotas);
    k.add_user(UserId(1), "alice");
    let alice = k.login(UserId(1)).unwrap();
    let (r, w) = alice.pipe().unwrap();

    assert_eq!(alice.write(w, b"first!").unwrap(), 6);
    assert_eq!(k.inspect_pipe_for_test(alice.id(), r).unwrap().0, 6);

    // 6 + 6 > 8: the message is dropped whole, and — exactly as for a
    // label-mediated silent drop — the writer cannot observe it.
    assert_eq!(alice.write(w, b"second").unwrap(), 6);
    assert_eq!(k.inspect_pipe_for_test(alice.id(), r).unwrap().0, 6);

    // Draining restores capacity; delivery resumes with no residue of
    // the dropped message.
    assert_eq!(alice.read(r, 64).unwrap(), b"first!");
    assert_eq!(alice.write(w, b"third!").unwrap(), 6);
    assert_eq!(alice.read(r, 64).unwrap(), b"third!");
}
