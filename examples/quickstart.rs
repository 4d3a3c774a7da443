//! Quickstart: the Laminar model in five minutes.
//!
//! Boots the system, mints a secrecy tag, labels a heap cell and a file,
//! and demonstrates the three core guarantees:
//!
//! 1. labeled data is only reachable inside security regions whose
//!    labels dominate it;
//! 2. a tainted region cannot write to public sinks (no write-down) —
//!    and violations are *confined*: the program keeps running;
//! 3. declassification is an explicit, capability-gated `copy_and_label`.
//!
//! Run with: `cargo run --example quickstart`

use laminar::{Laminar, LaminarError, RegionParams};
use laminar_difc::{Capability, Label, SecPair};
use laminar_os::{OpenMode, UserId};

fn main() -> Result<(), LaminarError> {
    // Boot the OS with the Laminar security module and log Alice in.
    let system = Laminar::boot();
    system.add_user(UserId(1), "alice");
    let alice = system.login(UserId(1))?;

    // Mint a tag: Alice now holds a+ (classify) and a- (declassify).
    let a = system.kernel(); // keep the kernel handy
    let tag = alice.create_tag()?;
    println!("alice minted tag {tag} (holds {tag}+ and {tag}-)");

    // A region carrying {S(a)} can create and use labeled data.
    let params = RegionParams::new()
        .secrecy(Label::singleton(tag))
        .grant(Capability::plus(tag))
        .grant(Capability::minus(tag));

    let diary = alice
        .secure(&params, |g| Ok(g.new_labeled(String::from("met bob at noon"))), |_| {})?
        .expect("region completed");
    println!("labeled cell created: {:?}", diary.labels());

    // (1) Outside a region the secret is unreachable.
    match diary.read_dyn(|d| d.clone()) {
        Err(LaminarError::NotInRegion) => {
            println!("outside any region: access denied, as required");
        }
        other => panic!("expected denial, got {other:?}"),
    }

    // (2) A tainted region cannot write a public file — and the failure
    // is confined to the region.
    let weaker =
        RegionParams::new().secrecy(Label::singleton(tag)).grant(Capability::plus(tag)); // note: no a- here
    let fd = alice.task()?.create("/tmp/public.txt")?;
    alice.task()?.close(fd)?;
    let outcome = alice.secure(
        &weaker,
        |g| {
            let os = g.os()?;
            let fd = os.open("/tmp/public.txt", OpenMode::Write)?;
            os.write(fd, b"leak!")?; // ← the kernel refuses this flow
            os.close(fd)?;
            Ok(())
        },
        |_| println!("catch block: restoring invariants"),
    )?;
    assert!(outcome.is_none(), "the violation must have been suppressed");
    println!("write-down denied and confined; execution continues");

    // (3) Explicit declassification with a-.
    let public = alice
        .secure(
            &params,
            |g| {
                let summary = g.new_labeled(String::from("alice is busy at noon"));
                let p = g.copy_and_label(&summary, SecPair::unlabeled())?;
                p.read(g, String::clone)
            },
            |_| {},
        )?
        .expect("declassification region completed");
    println!("declassified: {public}");

    println!(
        "kernel: {} LSM hook invocations under module '{}'",
        a.hook_calls(),
        a.module_name()
    );
    Ok(())
}
