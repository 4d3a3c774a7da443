//! OS-level DIFC integration tests: the syscall surface of Fig. 3 and
//! the §5.2 semantics (labeled files, directory rules, unreliable pipes,
//! signals, capability transfer, persistence).

use laminar_difc::{CapSet, Capability, Label, LabelType, SecPair};
use laminar_os::{
    Fd, Kernel, LaminarModule, NullModule, OpenMode, OsError, Quotas, Signal, UserId,
};

fn boot_alice() -> (std::sync::Arc<Kernel>, laminar_os::TaskHandle) {
    let k = Kernel::boot(LaminarModule);
    k.add_user(UserId(1), "alice");
    let t = k.login(UserId(1)).unwrap();
    (k, t)
}

#[test]
fn labeled_file_round_trip_requires_taint() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    let secret = SecPair::secrecy_only(Label::singleton(a));

    let fd = alice.create_file_labeled("cal.ics", secret.clone()).unwrap();
    alice.write(fd, b"busy tuesday").unwrap();
    alice.close(fd).unwrap();

    // Unlabeled task: open for read denied (no read up).
    assert!(matches!(alice.open("cal.ics", OpenMode::Read), Err(OsError::FlowDenied(_))));

    // Taint, then read succeeds.
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    let fd = alice.open("cal.ics", OpenMode::Read).unwrap();
    assert_eq!(alice.read(fd, 64).unwrap(), b"busy tuesday");
    alice.close(fd).unwrap();

    // Tainted task cannot write an unlabeled file (no write down).
    assert!(alice.create("/tmp/leak.txt").is_err()); // creation in unlabeled /tmp
                                                     // Untaint with a- and it works again.
    alice.set_task_label(LabelType::Secrecy, Label::empty()).unwrap();
    let fd = alice.create("/tmp/ok.txt").unwrap();
    alice.close(fd).unwrap();
}

#[test]
fn file_labels_survive_in_extended_attributes() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    let labels = SecPair::secrecy_only(Label::singleton(a));
    let fd = alice.create_file_labeled("x.dat", labels.clone()).unwrap();
    alice.close(fd).unwrap();
    // get_labels needs only parent traversal, not a taint.
    assert_eq!(alice.get_labels("x.dat").unwrap(), labels);
}

#[test]
fn label_change_requires_capabilities() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    // Drop the minus capability, keep plus.
    alice.drop_capabilities(&[Capability::minus(a)]).unwrap();
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    // Now the taint is sticky: the task cannot shed it.
    assert!(matches!(
        alice.set_task_label(LabelType::Secrecy, Label::empty()),
        Err(OsError::LabelChangeDenied(_))
    ));
}

#[test]
fn tainted_principal_cannot_create_in_unlabeled_dir() {
    // §5.2: a {S(a)} principal may not create even an {S(a)}-labeled
    // file in an unlabeled directory — the *name* would leak. It must
    // pre-create before tainting itself.
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    let sa = SecPair::secrecy_only(Label::singleton(a));

    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    assert!(alice.create_file_labeled("/tmp/secret2.txt", sa.clone()).is_err());

    // Inside an {S(a)} directory it is fine.
    alice.set_task_label(LabelType::Secrecy, Label::empty()).unwrap();
    alice.mkdir_labeled("/tmp/avault", sa.clone()).unwrap();
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    let fd = alice.create_file_labeled("/tmp/avault/notes.txt", sa).unwrap();
    alice.close(fd).unwrap();
}

#[test]
fn directory_listing_is_protected_by_directory_label() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    let sa = SecPair::secrecy_only(Label::singleton(a));
    alice.mkdir_labeled("/tmp/avault", sa).unwrap();

    // Unlabeled task cannot list the secret directory (names leak).
    assert!(alice.readdir("/tmp/avault").is_err());
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    assert!(alice.readdir("/tmp/avault").unwrap().is_empty());
}

#[test]
fn admin_integrity_on_system_dirs() {
    let (k, alice) = boot_alice();
    // An empty-integrity task traverses / freely.
    assert!(alice.stat("/etc").is_ok());
    // A task carrying its own integrity tag cannot read admin-labeled
    // dirs (no read down) — it must use relative paths (§5.2).
    let u = alice.alloc_tag().unwrap();
    alice.set_task_label(LabelType::Integrity, Label::singleton(u)).unwrap();
    assert!(alice.stat("/etc").is_err());
    // Relative path in its own cwd still works only if cwd files carry
    // the tag; drop back for cleanliness.
    alice.set_task_label(LabelType::Integrity, Label::empty()).unwrap();
    assert!(alice.stat("/etc").is_ok());
    assert_eq!(k.module_name(), "laminar");
}

#[test]
fn pipes_silently_drop_illegal_writes() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    let (r, w) = alice.pipe().unwrap(); // unlabeled pipe

    // Legal write delivers.
    assert_eq!(alice.write(w, b"ok").unwrap(), 2);
    assert_eq!(alice.read(r, 8).unwrap(), b"ok");

    // Tainted writer: the write *appears* to succeed but delivers
    // nothing (an error would leak, §5.2).
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    assert_eq!(alice.write(w, b"secret").unwrap(), 6);
    alice.set_task_label(LabelType::Secrecy, Label::empty()).unwrap();
    assert_eq!(alice.read(r, 8).unwrap(), b"", "dropped message must not arrive");
}

#[test]
fn pipe_reads_are_nonblocking_with_no_eof() {
    let (_k, alice) = boot_alice();
    let (r, w) = alice.pipe().unwrap();
    // Empty pipe: zero bytes, not an error, not EOF.
    assert_eq!(alice.read(r, 8).unwrap(), b"");
    alice.close(w).unwrap();
    // Writer gone: still just "no data".
    assert_eq!(alice.read(r, 8).unwrap(), b"");
}

#[test]
fn capability_transfer_is_kernel_mediated() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    let (r, w) = alice.pipe().unwrap();
    let child = alice.fork(Some(CapSet::new())).unwrap(); // no caps inherited

    // The sender must hold the capability.
    assert!(child.write_capability(Capability::plus(a), w).is_err());

    // Parent sends a+; child receives and can now taint itself.
    alice.write_capability(Capability::plus(a), w).unwrap();
    assert_eq!(child.read_capability(r).unwrap(), Some(Capability::plus(a)));
    child.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    // But it cannot shed the taint (no a- was sent).
    assert!(child.set_task_label(LabelType::Secrecy, Label::empty()).is_err());
}

#[test]
fn fork_restricts_capabilities_to_subsets() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    let mut just_plus = CapSet::new();
    just_plus.grant(Capability::plus(a));
    let child = alice.fork(Some(just_plus.clone())).unwrap();
    assert_eq!(child.current_caps().unwrap(), just_plus);

    // A superset is rejected.
    let b = laminar_difc::Tag::from_raw(9999);
    let mut superset = CapSet::new();
    superset.grant(Capability::plus(b));
    assert!(child.fork(Some(superset)).is_err());
}

#[test]
fn signals_respect_flow_rules_with_silent_drop() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    let child = alice.fork(None).unwrap();

    // Unlabeled → unlabeled: delivered.
    alice.kill(child.id(), Signal(15)).unwrap();
    assert_eq!(child.next_signal().unwrap(), Some(Signal(15)));

    // Tainted sender → unlabeled target: silently dropped.
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    alice.kill(child.id(), Signal(9)).unwrap();
    assert_eq!(child.next_signal().unwrap(), None);
}

#[test]
fn exec_checks_binary_integrity() {
    let (k, alice) = boot_alice();
    let i = alice.alloc_tag().unwrap();
    let vouched = SecPair::integrity_only(Label::singleton(i));

    // An {I(i)}-endorsed plugin tree is installed by the administrator —
    // strict Biba traversal means an integrity subtree cannot be grown
    // from inside the rules (the §5.2 directory-integrity tension; the
    // paper's system dirs are likewise labeled at install time).
    k.install_dir("/plugins", vouched.clone()).unwrap();
    k.install_file("/plugins/plugin.bin", vouched, b"ELF").unwrap();
    k.install_file("/plugins/random.bin", SecPair::unlabeled(), b"???").unwrap();

    // The server moves there while unlabeled, then raises its integrity:
    // the addons.mozilla.org pattern of §3.3 — it can exec only the
    // vouched plugin.
    alice.chdir("/plugins").unwrap();
    alice.set_task_label(LabelType::Integrity, Label::singleton(i)).unwrap();
    assert!(alice.exec("plugin.bin").is_ok());
    assert!(alice.exec("random.bin").is_err());
}

#[test]
fn persistent_caps_are_granted_at_login() {
    let k = Kernel::boot(LaminarModule);
    k.add_user(UserId(7), "carol");
    let carol = k.login(UserId(7)).unwrap();
    let t = carol.alloc_tag().unwrap();
    carol.save_persistent_caps().unwrap();

    let carol2 = k.login(UserId(7)).unwrap();
    assert!(carol2.current_caps().unwrap().can_add(t));
    assert!(carol2.current_caps().unwrap().can_remove(t));
}

#[test]
fn untrusted_multithreaded_processes_keep_homogeneous_labels() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    let _t2 = alice.spawn_thread(None).unwrap();
    // Two threads, process not blessed as a trusted VM: per-thread label
    // changes are rejected (§4.1).
    assert!(matches!(
        alice.set_task_label(LabelType::Secrecy, Label::singleton(a)),
        Err(OsError::PermissionDenied(_))
    ));
}

#[test]
fn null_module_enforces_nothing() {
    let k = Kernel::boot(NullModule);
    k.add_user(UserId(1), "alice");
    let alice = k.login(UserId(1)).unwrap();
    let a = alice.alloc_tag().unwrap();
    let secret = SecPair::secrecy_only(Label::singleton(a));
    let fd = alice.create_file_labeled("s.txt", secret).unwrap();
    alice.write(fd, b"x").unwrap();
    alice.close(fd).unwrap();
    // Stock Linux: labels stored but not enforced.
    assert!(alice.open("s.txt", OpenMode::Read).is_ok());
}

#[test]
fn tcb_paths_are_locked_down() {
    let (_k, alice) = boot_alice();
    // No tcb tag: privileged drops are denied.
    assert!(matches!(
        alice.drop_label_tcb(alice.id()),
        Err(OsError::PermissionDenied(_))
    ));
    assert!(alice.set_task_labels_tcb(alice.id(), SecPair::unlabeled()).is_err());
    assert!(alice.grant_capabilities_tcb(alice.id(), &CapSet::new()).is_err());
}

#[test]
fn unlink_is_a_write_to_the_parent() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    let sa = SecPair::secrecy_only(Label::singleton(a));
    alice.mkdir_labeled("/tmp/avault", sa.clone()).unwrap();
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    let fd = alice.create_file_labeled("/tmp/avault/f", sa).unwrap();
    alice.close(fd).unwrap();
    alice.set_task_label(LabelType::Secrecy, Label::empty()).unwrap();

    // Unlabeled task may not remove the name from the {S(a)} directory...
    assert!(alice.unlink("/tmp/avault/f").is_err());
    // ...but the tainted owner may.
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    alice.unlink("/tmp/avault/f").unwrap();
}

#[test]
fn labeled_pipes_silently_drop_in_both_lattice_directions() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    let i = alice.alloc_tag().unwrap();

    // An {S(a)} pipe, created while tainted.
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    let (sr, sw) = alice.pipe().unwrap();
    alice.set_task_label(LabelType::Secrecy, Label::empty()).unwrap();

    // An {I(i)} pipe, created while endorsed.
    alice.set_task_label(LabelType::Integrity, Label::singleton(i)).unwrap();
    let (_ir, iw) = alice.pipe().unwrap();
    alice.set_task_label(LabelType::Integrity, Label::empty()).unwrap();

    // Unlabeled → {S(a)}: a legal raise, delivered.
    assert_eq!(alice.write(sw, b"up").unwrap(), 2);
    // Unlabeled → {I(i)}: the writer cannot vouch, silently dropped —
    // the return value must be indistinguishable from delivery (§5.2).
    assert_eq!(alice.write(iw, b"forged").unwrap(), 6);

    // Drain the secrecy pipe from a tainted reader: only the legal
    // message arrived.
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    assert_eq!(alice.read(sr, 16).unwrap(), b"up");

    // An {S(a),S(b)}-tainted writer outranks the {S(a)} pipe: dropped.
    let b = alice.alloc_tag().unwrap();
    alice.set_task_label(LabelType::Secrecy, Label::from_tags([a, b])).unwrap();
    assert_eq!(alice.write(sw, b"too-high").unwrap(), 8);
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    assert_eq!(alice.read(sr, 16).unwrap(), b"", "over-tainted write must not arrive");
}

#[test]
fn pipe_read_flow_failure_is_a_visible_error() {
    // Reads are the *safe* direction: denying one reveals nothing the
    // reader couldn't already know, so unlike writes the failure is loud.
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    let (r, w) = alice.pipe().unwrap(); // {S(a)} pipe
    assert_eq!(alice.write(w, b"secret").unwrap(), 6);
    alice.set_task_label(LabelType::Secrecy, Label::empty()).unwrap();

    // Unlabeled reader: visible FlowDenied, not an empty read.
    assert!(matches!(alice.read(r, 16), Err(OsError::FlowDenied(_))));

    // Tainted again: nonblocking read returns the data, then empty —
    // never EOF, never an error.
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    assert_eq!(alice.read(r, 16).unwrap(), b"secret");
    assert_eq!(alice.read(r, 16).unwrap(), b"");
}

#[test]
fn create_file_labeled_checks_the_three_conditions_in_order() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    let i = alice.alloc_tag().unwrap();
    let sa = SecPair::secrecy_only(Label::singleton(a));
    alice.mkdir_labeled("/tmp/avault", sa.clone()).unwrap();

    // Condition 1a: an {S(a)} creator may not mint a file *below* its
    // taint, even inside the {S(a)} directory. PermissionDenied, not a
    // flow error — the checks short-circuit before the parent write.
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    assert!(matches!(
        alice.create_file_labeled("/tmp/avault/low", SecPair::unlabeled()),
        Err(OsError::PermissionDenied(_))
    ));

    // Condition 1b: nobody can stamp integrity they do not carry.
    assert!(matches!(
        alice.create_file_labeled(
            "/tmp/avault/vouched",
            SecPair::new(Label::singleton(a), Label::singleton(i))
        ),
        Err(OsError::PermissionDenied(_))
    ));

    // Condition 3: same creator, unlabeled parent — now it *is* the
    // flow check that fires (the name would leak into /tmp).
    assert!(matches!(
        alice.create_file_labeled("/tmp/leak", sa.clone()),
        Err(OsError::FlowDenied(_))
    ));

    // All conditions met: create succeeds.
    let fd = alice.create_file_labeled("/tmp/avault/ok", sa.clone()).unwrap();
    alice.close(fd).unwrap();

    // Condition 2: shed the a+ capability and the same create is
    // rejected — the taint is no longer voluntary.
    alice.drop_capabilities(&[Capability::plus(a)]).unwrap();
    assert!(matches!(
        alice.create_file_labeled("/tmp/avault/involuntary", sa),
        Err(OsError::PermissionDenied(_))
    ));
}

#[test]
fn mkdir_labeled_follows_the_same_create_conditions() {
    let (_k, alice) = boot_alice();
    let a = alice.alloc_tag().unwrap();
    let sa = SecPair::secrecy_only(Label::singleton(a));
    alice.mkdir_labeled("/tmp/avault", sa.clone()).unwrap();
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();

    // Condition 1a for directories.
    assert!(matches!(
        alice.mkdir_labeled("/tmp/avault/plain", SecPair::unlabeled()),
        Err(OsError::PermissionDenied(_))
    ));
    // Condition 3 for directories.
    assert!(matches!(
        alice.mkdir_labeled("/tmp/leakdir", sa.clone()),
        Err(OsError::FlowDenied(_))
    ));
    // Legal nested secret directory.
    alice.mkdir_labeled("/tmp/avault/inner", sa.clone()).unwrap();

    // Condition 2 for directories: involuntary taint blocks mkdir too.
    alice.drop_capabilities(&[Capability::plus(a)]).unwrap();
    assert!(matches!(
        alice.mkdir_labeled("/tmp/avault/involuntary", sa),
        Err(OsError::PermissionDenied(_))
    ));
}

#[test]
fn read_of_usize_max_after_a_partial_read_returns_the_rest() {
    let (_k, alice) = boot_alice();
    let fd = alice.create("f").unwrap();
    alice.write(fd, b"hello").unwrap();
    alice.close(fd).unwrap();
    let fd = alice.open("f", OpenMode::Read).unwrap();
    assert_eq!(alice.read(fd, 1).unwrap(), b"h");
    let rollbacks = laminar_os::syscalls_rolled_back();
    assert_eq!(alice.read(fd, usize::MAX).unwrap(), b"ello");
    assert_eq!(laminar_os::syscalls_rolled_back(), rollbacks);
}

#[test]
fn mmap_past_the_address_space_is_rejected_and_changes_nothing() {
    let (_k, alice) = boot_alice();
    let first = alice.mmap(4, None).unwrap();
    let rollbacks = laminar_os::syscalls_rolled_back();
    assert!(matches!(
        alice.mmap(u64::MAX - 0xFFF, None),
        Err(OsError::InvalidArgument(_))
    ));
    assert_eq!(laminar_os::syscalls_rolled_back(), rollbacks);
    // A later mapping still lands above every earlier one, and is usable.
    let next = alice.mmap(4, None).unwrap();
    assert!(next >= first + 4, "mapping at page {next} overlaps or precedes {first}");
    alice.page_access(next + 3, true).unwrap();
}

/// Regression: `kill` queued signals without bound, so any sender whose
/// labels flow to a target could grow the target's kernel memory at
/// will. Past the per-task limit a signal is dropped silently (audited
/// kernel-side), exactly like a message to a full pipe.
#[test]
fn pending_signals_are_bounded_and_the_excess_drops_silently() {
    /// The kernel's per-task pending-signal limit.
    const PENDING_SIGNAL_LIMIT: usize = 4096;
    let (_k, alice) = boot_alice();
    let sender = alice.fork(None).unwrap();
    for i in 0..PENDING_SIGNAL_LIMIT + 1000 {
        assert!(
            sender.kill(alice.id(), Signal(i as i32)).is_ok(),
            "kill {i} must succeed"
        );
    }
    let mut drained = 0;
    while let Some(sig) = alice.next_signal().unwrap() {
        assert_eq!(sig, Signal(drained as i32), "the oldest signals are kept, in order");
        drained += 1;
    }
    assert_eq!(drained, PENDING_SIGNAL_LIMIT);
}

/// A call that fails on the fd quota after it already linked a name,
/// allocated an inode or installed an fd must undo exactly those
/// changes, however large the directory and fd table around them.
#[test]
fn quota_failures_roll_back_cleanly_on_large_state() {
    const ENTRIES: usize = 4096;
    const MAX_FDS: usize = 64;
    let quotas = Quotas { max_fds_per_process: MAX_FDS, ..Quotas::default() };
    let k = Kernel::boot_with_quotas(LaminarModule, quotas);
    k.add_user(UserId(1), "alice");
    let alice = k.login(UserId(1)).unwrap();
    let a = alice.alloc_tag().unwrap();
    alice
        .mkdir_labeled("/tmp/vault", SecPair::secrecy_only(Label::singleton(a)))
        .unwrap();
    alice.set_task_label(LabelType::Secrecy, Label::singleton(a)).unwrap();
    alice.chdir("/tmp/vault").unwrap();
    for i in 0..ENTRIES {
        alice.close(alice.create(&format!("e{i:05}")).unwrap()).unwrap();
    }
    let mut held: Vec<Fd> =
        (0..MAX_FDS).map(|_| alice.open("e00000", OpenMode::Read).unwrap()).collect();
    let listing = alice.readdir(".").unwrap();
    let dir = format!("{:?}", alice.stat(".").unwrap());

    // `create` links the name and allocates the inode before its fd
    // install hits the quota: both must be undone.
    assert!(matches!(
        alice.create("new"),
        Err(OsError::QuotaExceeded("file descriptors"))
    ));
    assert!(matches!(alice.stat("new"), Err(OsError::NotFound)));
    assert_eq!(alice.readdir(".").unwrap(), listing);
    assert_eq!(format!("{:?}", alice.stat(".").unwrap()), dir);

    // With one fd free, `pipe` installs its read end and fails on the
    // write end: the install is undone, and so is the fd counter.
    let last = *held.last().unwrap();
    alice.close(held.pop().unwrap()).unwrap();
    assert!(matches!(alice.pipe(), Err(OsError::QuotaExceeded("file descriptors"))));
    let fd = alice.open("e00001", OpenMode::Read).unwrap();
    assert_eq!(fd, Fd(last.0 + 1), "the failed pipe must not consume fd numbers");

    // Freed descriptors make the same calls succeed.
    alice.close(fd).unwrap();
    alice.close(held.pop().unwrap()).unwrap();
    let (r, w) = alice.pipe().unwrap();
    alice.close(r).unwrap();
    alice.close(w).unwrap();
    alice.close(held.pop().unwrap()).unwrap();
    alice.close(alice.create("new").unwrap()).unwrap();
    assert_eq!(alice.readdir(".").unwrap().len(), ENTRIES + 1);
}
