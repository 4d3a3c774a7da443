//! Direct demonstrations of the fail-closed fault contract, outside the
//! randomized explorer: an injected mid-syscall fault must leave the
//! kernel's security state byte-for-byte unchanged while the kernel
//! keeps serving, and resource exhaustion must degrade gracefully — a
//! typed error, no partial state, full recovery once the resource is
//! freed.

use laminar_difc::{Capability, Label, LabelType};
use laminar_os::{
    Fd, Kernel, LaminarModule, OpenMode, OsError, Quotas, Signal, SyscallFailpoint,
    TaskHandle, UserId,
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

// ----- rollback of every undo record on a prefilled universe ------------

/// Names in the prefilled directory.
const ENTRIES: usize = 2048;
/// Extra fds the main task holds.
const HELD_FDS: usize = 256;
/// Messages queued in the data pipe.
const PIPE_MSGS: usize = 1024;
/// Messages queued in each direction of the socket pair.
const SOCKET_MSGS: usize = 256;
/// Signals pending for the main task.
const SIGNALS: usize = 512;

/// A kernel whose objects are all large: a directory of [`ENTRIES`]
/// names (the cwd), [`HELD_FDS`] open fds, a deep pipe, a pipe with a
/// capability at its head, a socket pair queued both ways, mappings and
/// pending signals. Each message carries its index, so an exact restore
/// shows in what is read back.
struct Universe {
    k: Arc<Kernel>,
    t: TaskHandle,
    pipe: (Fd, Fd),
    cap_pipe: (Fd, Fd),
    sock: (Fd, Fd),
    vmas: Vec<u64>,
    cap: Capability,
}

impl Universe {
    fn new() -> Self {
        let (k, t) = boot();
        t.mkdir("/tmp/big").unwrap();
        t.chdir("/tmp/big").unwrap();
        for i in 0..ENTRIES {
            let fd = t.create(&format!("e{i:05}")).unwrap();
            t.write(fd, format!("entry {i}").as_bytes()).unwrap();
            t.close(fd).unwrap();
        }
        for _ in 0..HELD_FDS {
            t.open("e00000", OpenMode::Read).unwrap();
        }
        let pipe = t.pipe().unwrap();
        for i in 0..PIPE_MSGS {
            t.write(pipe.1, format!("p{i:05}").as_bytes()).unwrap();
        }
        let cap = Capability::plus(t.alloc_tag().unwrap());
        let cap_pipe = t.pipe().unwrap();
        t.write_capability(cap, cap_pipe.1).unwrap();
        t.write(cap_pipe.1, b"behind the cap").unwrap();
        let sock = t.socketpair().unwrap();
        for i in 0..SOCKET_MSGS {
            t.write(sock.0, format!("ab{i:04}").as_bytes()).unwrap();
            t.write(sock.1, format!("ba{i:04}").as_bytes()).unwrap();
        }
        let vmas = (0..4).map(|_| t.mmap(2, None).unwrap()).collect();
        for i in 0..SIGNALS {
            t.kill(t.id(), Signal(i as i32)).unwrap();
        }
        Universe { k, t, pipe, cap_pipe, sock, vmas, cap }
    }

    /// Everything a rollback must leave identical, read without
    /// changing it.
    fn snapshot(&self) -> String {
        let t = &self.t;
        let vmas: Vec<_> = self
            .vmas
            .iter()
            .map(|&p| (t.page_access(p, false).is_ok(), t.page_access(p, true).is_ok()))
            .collect();
        format!(
            "{:?}",
            (
                t.readdir(".").unwrap(),
                t.stat(".").unwrap(),
                t.stat("e00000").unwrap(),
                self.k.inspect_node_for_test("/tmp/big/e00001").unwrap(),
                self.k.inspect_pipe_for_test(t.id(), self.pipe.0).unwrap(),
                self.k.inspect_pipe_for_test(t.id(), self.cap_pipe.0).unwrap(),
                t.current_labels().unwrap(),
                t.current_caps().unwrap(),
                vmas,
            )
        )
    }

    /// Arms `AbortLate`, then — for a call that runs an LSM hook —
    /// `PanicAtHook`, around `op`. Each armed attempt must fail with
    /// `Internal` and leave the snapshot identical; the un-armed retry
    /// must then succeed, and its result is returned.
    fn fail_then_retry<R>(&self, hooked: bool, op: impl Fn() -> Result<R, OsError>) -> R {
        let before = self.snapshot();
        let armed: &[SyscallFailpoint] = if hooked {
            &[SyscallFailpoint::AbortLate, SyscallFailpoint::PanicAtHook]
        } else {
            &[SyscallFailpoint::AbortLate]
        };
        for &fp in armed {
            self.k.arm_failpoint_for_test(fp);
            let err = op().err();
            assert!(self.k.take_failpoint_fired(), "{fp:?} did not fire");
            assert!(matches!(err, Some(OsError::Internal)), "{fp:?}: got {err:?}");
            assert_eq!(self.snapshot(), before, "{fp:?} left the state changed");
        }
        op().expect("the un-armed retry succeeds")
    }
}

#[test]
fn directory_records_roll_back_in_a_large_directory() {
    let u = Universe::new();
    let t = &u.t;
    let fd = u.fail_then_retry(true, || t.create("new"));
    t.close(fd).unwrap();
    u.fail_then_retry(true, || t.mkdir("newdir"));
    u.fail_then_retry(true, || t.symlink("e00000", "link"));
    u.fail_then_retry(true, || t.unlink("e00002"));
    assert_eq!(t.readdir(".").unwrap().len(), ENTRIES + 2);
    assert_eq!(t.readlink("link").unwrap(), "e00000");
    assert!(matches!(t.stat("e00002"), Err(OsError::NotFound)));
}

#[test]
fn fd_records_roll_back_with_hundreds_of_fds_open() {
    let u = Universe::new();
    let t = &u.t;
    // An undone install rewinds the fd counter: the retry gets the number
    // the failed attempts would have.
    let probe = t.open("e00000", OpenMode::Read).unwrap();
    t.close(probe).unwrap();
    let fd = u.fail_then_retry(true, || t.open("e00001", OpenMode::Read));
    assert_eq!(fd, Fd(probe.0 + 1));
    // An undone removal reinstalls the open file, offset included.
    assert_eq!(t.read(fd, 3).unwrap(), b"ent");
    u.fail_then_retry(false, || t.close(fd));
    assert!(matches!(t.read(fd, 1), Err(OsError::BadFd)));
    let (r, w) = u.fail_then_retry(false, || t.pipe());
    assert_eq!((r.0, w.0), (fd.0 + 1, fd.0 + 2));
    let (a, b) = u.fail_then_retry(false, || t.socketpair());
    assert_eq!((a.0, b.0), (w.0 + 1, w.0 + 2));
    // A regular-file write and its offset bump.
    let fd = t.open("e00003", OpenMode::ReadWrite).unwrap();
    u.fail_then_retry(true, || t.write(fd, b"ENTRY"));
    assert_eq!(
        u.k.inspect_node_for_test("/tmp/big/e00003").unwrap().1.unwrap(),
        b"ENTRY 3"
    );
}

#[test]
fn queue_records_roll_back_on_deep_pipes_and_sockets() {
    let u = Universe::new();
    let t = &u.t;
    let (pr, pw) = u.pipe;
    // A read that splits the head message, then one that takes the rest
    // and a whole message more: each is undone exactly.
    assert_eq!(u.fail_then_retry(true, || t.read(pr, 3)), b"p00");
    assert_eq!(u.fail_then_retry(true, || t.read(pr, 9)), b"000p00001");
    assert_eq!(u.fail_then_retry(true, || t.write(pw, b"tail")), 4);
    assert_eq!(u.k.inspect_pipe_for_test(t.id(), pr).unwrap().1, PIPE_MSGS - 1);
    // Socket pair, both directions: A writes `ab` and reads `ba`.
    let (a, b) = u.sock;
    u.fail_then_retry(true, || t.write(a, b"ab-new"));
    u.fail_then_retry(true, || t.write(b, b"ba-new"));
    assert_eq!(u.fail_then_retry(true, || t.read(b, 6)), b"ab0000");
    assert_eq!(u.fail_then_retry(true, || t.read(a, 8)), b"ba0000ba");
    assert_eq!(t.read(a, 4).unwrap(), b"0001");
    // Capabilities: the head of the cap pipe, then one more at the tail.
    let (cr, cw) = u.cap_pipe;
    assert_eq!(u.fail_then_retry(true, || t.read_capability(cr)), Some(u.cap));
    u.fail_then_retry(true, || t.write_capability(u.cap, cw));
    assert_eq!(t.read(cr, 64).unwrap(), b"behind the cap");
    assert_eq!(t.read_capability(cr).unwrap(), Some(u.cap));
}

#[test]
fn process_records_roll_back_with_large_state() {
    let u = Universe::new();
    let t = &u.t;
    // fork and exit of a child that inherits every fd and pipe end.
    let child = u.fail_then_retry(false, || t.fork(None));
    assert_eq!(child.read(u.pipe.0, 6).unwrap(), b"p00000");
    u.fail_then_retry(false, || child.exit());
    assert!(matches!(child.current_labels(), Err(OsError::NoSuchTask)));
    assert_eq!(t.read(u.pipe.0, 6).unwrap(), b"p00001");
    // Signals: the head is popped and the tail pushed exactly.
    assert_eq!(u.fail_then_retry(false, || t.next_signal()), Some(Signal(0)));
    u.fail_then_retry(true, || t.kill(t.id(), Signal(-1)));
    let mut pending = Vec::new();
    while let Some(sig) = t.next_signal().unwrap() {
        pending.push(sig.0);
    }
    assert_eq!(pending.len(), SIGNALS);
    assert_eq!((pending[0], pending[SIGNALS - 1]), (1, -1));
    // cwd.
    u.fail_then_retry(true, || t.chdir("/tmp"));
    assert!(t.stat("big").unwrap().is_dir);
}

#[test]
fn address_space_records_roll_back_with_several_mappings() {
    let u = Universe::new();
    let t = &u.t;
    let v = &u.vmas;
    // The retried mmap lands where the failed attempts would have.
    let next = v[v.len() - 1] + 2;
    assert_eq!(u.fail_then_retry(true, || t.mmap(1, None)), next);
    u.fail_then_retry(false, || t.mprotect(v[1], true, false));
    assert!(matches!(t.page_access(v[1], true), Err(OsError::Fault)));
    u.fail_then_retry(false, || t.munmap(v[0]));
    assert!(matches!(t.page_access(v[0], false), Err(OsError::Fault)));
    u.fail_then_retry(true, || t.exec("e00000"));
    assert!(v[1..].iter().all(|&p| t.page_access(p, false).is_err()));
}

#[test]
fn security_context_records_roll_back() {
    let u = Universe::new();
    let t = &u.t;
    let tag = u.fail_then_retry(false, || t.alloc_tag());
    u.fail_then_retry(true, || {
        t.set_task_label(LabelType::Secrecy, Label::singleton(tag))
    });
    u.fail_then_retry(false, || t.drop_capabilities(&[Capability::minus(tag)]));
    assert!(t.current_labels().unwrap().secrecy().contains(tag));
    assert!(!t.current_caps().unwrap().can_remove(tag));
}
