//! `vm_programs`: the six Figure 8 bytecode programs on `laminar-vm`.
//!
//! Two clients, each with its own VMs and its own dealt call list, call
//! each program's `main(n)` at small sizes under static and dynamic
//! barriers. The VM is single-threaded, so one client would read the speed
//! of whichever CPU it lands on; on a shared host two CPUs can differ by
//! half, and two clients, one per CPU, average them. The expected checksum of every call is computed
//! up front by a VM compiled without barriers. The MiniVM heap is never
//! collected, so a VM is replaced by a fresh one after a fixed number of
//! calls; its first call then includes compilation, as after a JIT
//! restart.

use crate::counters::{self, Sources};
use crate::harness::{deal, Baseline, Client, Sizing, Variant, Workload};
use crate::report::{Layers, VM_PROGRAMS};
use crate::trace;
use laminar_util::SplitMix64;
use laminar_vm::{BarrierMode, FuncId, Program, Value, Vm, VmResult, VmStats};
use std::sync::Arc;
use std::time::Instant;

/// Sizes each program is called with; two per program, all small.
const SIZES: [[i64; 2]; 6] = [[12, 24], [16, 16], [4, 5], [6, 10], [32, 128], [16, 48]];
/// Calls a VM serves before it is replaced. `hash_churn` allocates its
/// 32k-slot table on every call, so its VMs are replaced soonest.
const CALLS_PER_VM: [u32; 6] = [512, 16, 512, 512, 512, 512];
const MODES: [BarrierMode; 2] = [BarrierMode::Static, BarrierMode::Dynamic];
/// Client threads, one per CPU of the host the benchmark was tuned on.
const CLIENTS: usize = 2;
/// Span names of the programs, in `VM_PROGRAMS` order.
const VM_SPANS: [&str; 6] = [
    "vm.list_sort",
    "vm.hash_churn",
    "vm.object_graph",
    "vm.matrix_mult",
    "vm.vec_grow",
    "vm.pseudojbb",
];
const HASH_CHURN: u8 = 1;
const PSEUDOJBB: u8 = 5;

/// One call: program, barrier mode index and size index.
#[derive(Copy, Clone, Debug)]
pub struct VmCall {
    program: u8,
    mode: u8,
    size: u8,
}

/// Generated inputs of `vm_programs`.
#[derive(Debug)]
pub struct VmPrograms {
    programs: Arc<[(Program, FuncId)]>,
    /// One call list per client.
    calls: Vec<Arc<[VmCall]>>,
    /// Expected checksum per program and size index.
    expected: Arc<[[Option<Value>; 2]]>,
}

impl VmPrograms {
    /// Builds the programs, computes the expected checksums without
    /// barriers, and deals each client's call list from `seed`.
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let all = laminar_bench::workloads::all();
        assert_eq!(all.iter().map(|w| w.0).collect::<Vec<_>>(), VM_PROGRAMS);
        let programs: Arc<[(Program, FuncId)]> = all
            .into_iter()
            .map(|(_, p, _)| {
                let main = p.func_by_name("main").expect("program has main");
                (p, main)
            })
            .collect();
        let expected = programs
            .iter()
            .zip(SIZES)
            .map(|((p, main), sizes)| {
                sizes.map(|n| {
                    Vm::new(p.clone(), vec![], BarrierMode::None)
                        .call(*main, &[Value::Int(n)])
                        .expect("baseline run")
                })
            })
            .collect();
        let mut rng = SplitMix64::new(seed ^ 0x5eed_0004);
        let mut deck = Vec::new();
        for program in 0..VM_PROGRAMS.len() as u8 {
            for mode in 0..MODES.len() as u8 {
                // `hash_churn` costs the same at every size; one suffices.
                let sizes = if program == HASH_CHURN { 1 } else { 2 };
                for size in 0..sizes {
                    deck.push((1, VmCall { program, mode, size }));
                }
            }
        }
        // Four more small `pseudojbb` calls, which sit in the middle of the
        // latency order, so the median falls inside one class of calls
        // instead of on the boundary between two.
        for mode in 0..MODES.len() as u8 {
            deck.push((2, VmCall { program: PSEUDOJBB, mode, size: 0 }));
        }
        let calls =
            (0..CLIENTS).map(|_| deal(&mut rng, &deck, 100, |_, c| c).into()).collect();
        VmPrograms { programs, calls, expected }
    }
}

/// A VM with the number of calls it has served.
#[derive(Debug)]
struct Slot {
    vm: Vm,
    calls: u32,
}

/// The VM workload's world: compile-time figures measured at build.
#[derive(Debug)]
pub struct VmWorld {
    /// Mean of (first call − second call) over all VMs, in microseconds.
    compile_us: f64,
    /// Barriers removed at compile time over all VMs.
    barriers_eliminated: u64,
}

/// A VM client.
#[derive(Debug)]
pub struct VmClient {
    programs: Arc<[(Program, FuncId)]>,
    calls: Arc<[VmCall]>,
    expected: Arc<[[Option<Value>; 2]]>,
    /// One VM per program and mode index.
    slots: Vec<Slot>,
    modes: [BarrierMode; 2],
    /// Statistics of replaced VMs.
    retired: VmStats,
}

impl VmClient {
    fn slot(&self, c: VmCall) -> usize {
        usize::from(c.program) * MODES.len() + usize::from(c.mode)
    }
}

impl Client for VmClient {
    type Out = VmResult<Option<Value>>;

    fn input_len(&self) -> usize {
        self.calls.len()
    }

    fn exec<const T: bool>(&mut self, i: usize) -> VmResult<Option<Value>> {
        let c = self.calls[i];
        let main = self.programs[usize::from(c.program)].1;
        let n = SIZES[usize::from(c.program)][usize::from(c.size)];
        let slot = self.slot(c);
        let vm = &mut self.slots[slot].vm;
        if T {
            let name = VM_SPANS[usize::from(c.program)];
            trace::span(name, || vm.call(main, &[Value::Int(n)]))
        } else {
            vm.call(main, &[Value::Int(n)])
        }
    }

    fn check(&mut self, i: usize, out: VmResult<Option<Value>>) -> bool {
        let c = self.calls[i];
        let ok = out.as_ref().ok()
            == Some(&self.expected[usize::from(c.program)][usize::from(c.size)]);
        let idx = self.slot(c);
        let mode = self.modes[usize::from(c.mode)];
        let slot = &mut self.slots[idx];
        slot.calls += 1;
        if slot.calls >= CALLS_PER_VM[usize::from(c.program)] {
            let program = self.programs[usize::from(c.program)].0.clone();
            let old = std::mem::replace(
                slot,
                Slot { vm: Vm::new(program, vec![], mode), calls: 0 },
            );
            counters::retire(&mut self.retired, &old.vm);
        }
        ok
    }
}

impl Workload for VmPrograms {
    type World = VmWorld;
    type Client = VmClient;

    fn build(&self, variant: Variant) -> (VmWorld, Vec<VmClient>) {
        let modes = match variant {
            Variant::Baseline | Variant::BaselineTimed => [BarrierMode::None; 2],
            Variant::Secure | Variant::SecureTimed => MODES,
        };
        let mut compile_ns = 0.0;
        let mut clients = Vec::new();
        for calls in &self.calls {
            let mut slots = Vec::new();
            for ((p, main), sizes) in self.programs.iter().zip(SIZES) {
                for mode in modes {
                    let mut vm = Vm::new(p.clone(), vec![], mode);
                    let mut timed = || {
                        let t = Instant::now();
                        vm.call(*main, &[Value::Int(sizes[0])]).expect("warm-up call");
                        t.elapsed().as_nanos() as f64
                    };
                    let first = timed();
                    let second = timed();
                    compile_ns += (first - second).max(0.0);
                    slots.push(Slot { vm, calls: 0 });
                }
            }
            clients.push(VmClient {
                programs: Arc::clone(&self.programs),
                calls: Arc::clone(calls),
                expected: Arc::clone(&self.expected),
                slots,
                modes,
                retired: VmStats::default(),
            });
        }
        let vms: Vec<&Vm> =
            clients.iter().flat_map(|c| c.slots.iter().map(|s| &s.vm)).collect();
        let count = vms.len();
        let built = counters::read_counters(&Sources { vms, ..Sources::default() });
        let world = VmWorld {
            compile_us: compile_ns / count as f64 / 1e3,
            barriers_eliminated: built.vm_barriers_eliminated,
        };
        (world, clients)
    }

    fn sources<'a>(&self, _world: &'a VmWorld, clients: &'a [VmClient]) -> Sources<'a> {
        Sources {
            vms: clients.iter().flat_map(|c| c.slots.iter().map(|s| &s.vm)).collect(),
            vms_retired: clients.iter().map(|c| &c.retired).collect(),
            ..Sources::default()
        }
    }

    fn finish(&self, _world: &VmWorld, _clients: &[VmClient]) -> u64 {
        0
    }

    fn sizing(&self) -> Sizing {
        Sizing { warmup: 52, epoch: 2_002, trace: 468 }
    }

    fn baseline(&self) -> Baseline {
        Baseline::NoBarriers
    }

    fn layer_metrics(&self, world: &VmWorld, out: &mut Layers) {
        out.set("vm.compile_us", world.compile_us);
        out.set("vm.barriers_eliminated", world.barriers_eliminated as f64);
    }
}
