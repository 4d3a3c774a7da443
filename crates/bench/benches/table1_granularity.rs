//! **Table 1 (quantified)** — what fine-grained labels buy.
//!
//! Table 1's central qualitative claim is that OS-level DIFC systems
//! either cannot express heterogeneously labeled data structures in one
//! address space or make them prohibitively expensive: Flume labels a
//! whole address space, so per-datum labels require one *process per
//! label* and IPC for every access; HiStar enforces at page granularity.
//! Laminar's per-object barriers make the same policy one in-process
//! check.
//!
//! This harness measures both designs *on the same kernel*: accessing a
//! `{S(s_i)}`-labeled datum (GradeSheet-style, one label per student)
//!
//! * the Laminar way — a `Labeled` cell read inside an already-entered
//!   security region (one barrier), and including the region cost; and
//! * the address-space-granularity way — a per-label worker process
//!   holding the datum, queried over labeled pipes (two mediated pipe
//!   crossings per access), like a Flume-style deployment.

use laminar::{Laminar, RegionParams};
use laminar_bench::median_time;
use laminar_difc::{Capability, Label, SecPair};
use laminar_os::{OpenMode, UserId};

const ACCESSES: u32 = 2_000;
const TRIALS: usize = 7;

fn main() {
    println!("Table 1 quantified: per-access cost of one heterogeneously-labeled datum");
    println!();

    let sys = Laminar::boot();
    sys.add_user(UserId(1), "bench");
    let p = sys.login(UserId(1)).unwrap();
    let t = p.create_tag().unwrap();
    let params = RegionParams::new()
        .secrecy(Label::singleton(t))
        .grant(Capability::plus(t))
        .grant(Capability::minus(t));

    // --- Laminar: fine-grained in-process labels -------------------------
    let cell = p.secure(&params, |g| Ok(g.new_labeled(42i64)), |_| {}).unwrap().unwrap();

    // (a) barrier only, region amortised over many accesses
    let barrier_only = median_time(TRIALS, || {
        p.secure(
            &params,
            |g| {
                for _ in 0..ACCESSES {
                    cell.read(g, |v| std::hint::black_box(*v)).unwrap();
                }
                Ok(())
            },
            |_| {},
        )
        .unwrap();
    }) / ACCESSES;

    // (b) one region per access (worst case for Laminar)
    let region_per_access = median_time(TRIALS, || {
        for _ in 0..ACCESSES / 10 {
            p.secure(&params, |g| cell.read(g, |v| std::hint::black_box(*v)), |_| {})
                .unwrap();
        }
    }) / (ACCESSES / 10);

    // --- Flume-style: one process per label, IPC per access --------------
    // The "worker" process holds the secret datum; it is tainted {S(t)}
    // for its whole life (address-space granularity). Queries arrive on a
    // request pipe; answers return on a {S(t)}-labeled response pipe (the
    // response derives from the secret). The *client* must taint itself
    // to read responses — whole-process, as Flume requires.
    let task = p.task().unwrap();
    // Both channels carry the label: the client process is itself
    // tainted for its whole life (address-space granularity), so even
    // its *requests* live at {S(t)}. Create the pipes while tainted.
    task.set_task_label(laminar_difc::LabelType::Secrecy, Label::singleton(t)).unwrap();
    let (req_r, req_w) = task.pipe().unwrap();
    let (resp_r, resp_w) = task.pipe().unwrap();
    task.set_task_label(laminar_difc::LabelType::Secrecy, Label::empty()).unwrap();

    let worker = task.fork(None).unwrap();
    worker.set_task_label(laminar_difc::LabelType::Secrecy, Label::singleton(t)).unwrap();
    let secret_datum = 42u8;

    // Client runs tainted too (it consumes labeled responses).
    let client = task.fork(None).unwrap();
    client.set_task_label(laminar_difc::LabelType::Secrecy, Label::singleton(t)).unwrap();

    let ipc = median_time(TRIALS, || {
        for _ in 0..ACCESSES {
            // client → worker: request
            client.write(req_w, &[1]).unwrap();
            // worker: serve
            let q = worker.read(req_r, 1).unwrap();
            assert_eq!(q.len(), 1);
            worker.write(resp_w, &[secret_datum]).unwrap();
            // client: consume labeled response
            let r = client.read(resp_r, 1).unwrap();
            assert_eq!(r, vec![42]);
        }
    }) / ACCESSES;

    // A file-mediated variant (per-label files instead of live workers).
    // Pre-created labeled by the untainted principal (§5.2 discipline).
    let fd = task
        .create_file_labeled(
            "/tmp/secret_cell",
            SecPair::secrecy_only(Label::singleton(t)),
        )
        .unwrap();
    task.close(fd).unwrap();
    let fd = client.open("/tmp/secret_cell", OpenMode::Write).unwrap();
    client.write(fd, &[42]).unwrap();
    client.close(fd).unwrap();
    let file = median_time(TRIALS, || {
        for _ in 0..ACCESSES / 10 {
            let fd = client.open("/tmp/secret_cell", OpenMode::Read).unwrap();
            std::hint::black_box(client.read(fd, 8).unwrap());
            client.close(fd).unwrap();
        }
    }) / (ACCESSES / 10);

    let header = format!("{:<52} {:>12}", "design", "per-access");
    println!("{header}");
    laminar_bench::rule_for(&header);
    println!(
        "{:<52} {:>9.0} ns",
        "Laminar: barrier (region amortised)",
        barrier_only.as_nanos()
    );
    println!(
        "{:<52} {:>9.0} ns",
        "Laminar: one region per access",
        region_per_access.as_nanos()
    );
    println!(
        "{:<52} {:>9.0} ns",
        "address-space granularity: worker process + pipes",
        ipc.as_nanos()
    );
    println!(
        "{:<52} {:>9.0} ns",
        "address-space granularity: labeled file per datum",
        file.as_nanos()
    );
    println!();
    println!(
        "fine-grained barrier vs process-per-label IPC: {:.0}x cheaper",
        ipc.as_secs_f64() / barrier_only.as_secs_f64()
    );
    println!();
    println!("…and the GradeSheet policy needs n×m distinct labels: one worker");
    println!("process per label under address-space DIFC, versus one Labeled");
    println!("cell each under Laminar (Table 1 / §7.5).");
}
