//! Launch replay's equivalence oracle (DESIGN.md §13, "Launch replay").
//!
//! A `CollComm` launch that finds its cached batch's recorded run
//! replayable applies that run's effect instead of simulating it again.
//! Every case here runs twice on identical inputs: on a plain engine,
//! which replays what it can, and on a twin with `enable_profiling()`,
//! which never replays. Each launch's `KernelTiming`, the final clock,
//! event and clamp counts, every counter and resource metric, every
//! resource's busy horizon, the pool's moved bytes and, for serving, the
//! `ServeReport` must be equal; the
//! plain engine must replay and the twin must not. The second half
//! checks that each condition a replay needs is checked: a launch that
//! fails one runs the DES and still equals its twin.

use std::cell::RefCell;
use std::rc::Rc;

use collective::{
    AllGatherAlgo, AllReduceAlgo, AllToAllAlgo, BroadcastAlgo, CollComm, PeerOrder,
    ReduceScatterAlgo, ScratchReuse,
};
use hw::{BufferId, DataType, EnvKind, Machine, Rank, ReduceOp};
use inference::{
    serve_trace_observed, synthetic_trace, ModelConfig, MscclppBackend, ServeConfig, ServingEngine,
    SloSpec,
};
use mscclpp::{KernelTiming, Result};
use sim::{Ctx, Duration, Engine, FaultPlan, Metrics, Step, Time};

/// What a run left behind: its launches' timings and the engine's state.
#[derive(Debug, PartialEq)]
struct Outcome {
    timings: Vec<KernelTiming>,
    now: Time,
    events: u64,
    clamped: u64,
    metrics: Metrics,
    moved: u64,
    horizons: Vec<Time>,
}

impl Outcome {
    fn of(engine: &mut Engine<Machine>, timings: Vec<KernelTiming>) -> Outcome {
        Outcome {
            timings,
            now: engine.now(),
            events: engine.events_processed(),
            clamped: engine.clamped_past_events(),
            metrics: engine.metrics().clone(),
            moved: engine.world().pool().moved_bytes(),
            horizons: horizons(engine),
        }
    }
}

/// Every resource's busy horizon, as a probe process reads them.
fn horizons(engine: &mut Engine<Machine>) -> Vec<Time> {
    let ids: Vec<_> = engine.metrics().resources().iter().map(|s| s.id).collect();
    let out = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&out);
    engine.spawn(move |ctx: &mut Ctx<'_, Machine>| {
        let free: Vec<Time> = ids.iter().map(|&r| ctx.resource_free_at(r)).collect();
        *sink.borrow_mut() = free;
        Step::Done
    });
    engine.run().unwrap();
    out.take()
}

/// Runs `case` on a fresh wired engine and on its profiled twin, asserts
/// that both leave the same outcome and that the twin never replays, and
/// returns how many launches the plain engine replayed.
fn twins(
    machine: impl Fn() -> Machine,
    case: impl Fn(&mut Engine<Machine>) -> Vec<KernelTiming>,
) -> u64 {
    let run = |profiled: bool| {
        let mut engine = Engine::new(machine());
        if profiled {
            engine.enable_profiling();
        }
        hw::wire(&mut engine);
        let timings = case(&mut engine);
        (Outcome::of(&mut engine, timings), engine.replayed_runs())
    };
    let (plain, replayed) = run(false);
    let (twin, twin_replayed) = run(true);
    assert_eq!(twin_replayed, 0, "a profiled engine must never replay");
    assert_eq!(plain, twin, "a replayed run left another state");
    replayed
}

fn timing_only(kind: EnvKind, nodes: usize) -> impl Fn() -> Machine {
    move || Machine::timing_only(kind.spec(nodes))
}

/// One collective: a launch of `count` elements from `inputs` to
/// `outputs`.
type Launch<'a> = &'a dyn Fn(&CollComm, &mut Engine<Machine>, &Bufs, usize) -> Result<KernelTiming>;

struct Bufs {
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
}

const DT: DataType = DataType::F16;
/// The two counts of the sequences: `B` outgrows `A`'s prepared capacity.
const A: usize = 1024;
const B: usize = 3072;
/// Counts go A, A, B, A, B, B: the second A and the last B reuse their
/// batch from a quiescent engine and replay, the rest rebuild it.
const SEQUENCE: [usize; 6] = [A, A, B, A, B, B];

/// Allocates per-rank buffers large enough for every collective here at
/// count `B` (AllGather and AllToAll take `world` chunks).
fn bufs(engine: &mut Engine<Machine>) -> Bufs {
    let n = engine.world().topology().world_size();
    let pool = engine.world_mut().pool_mut();
    let mut alloc = || -> Vec<BufferId> {
        (0..n)
            .map(|r| pool.alloc(Rank(r), B * DT.size() * n))
            .collect()
    };
    Bufs {
        inputs: alloc(),
        outputs: alloc(),
    }
}

/// Runs the count sequence of one collective on one communicator.
fn sequence(launch: Launch<'_>) -> impl Fn(&mut Engine<Machine>) -> Vec<KernelTiming> + '_ {
    move |engine| {
        let comm = CollComm::new();
        let b = bufs(engine);
        SEQUENCE
            .iter()
            .map(|&count| launch(&comm, engine, &b, count).expect("launch"))
            .collect()
    }
}

fn all_reduce(
    algo: AllReduceAlgo,
) -> impl Fn(&CollComm, &mut Engine<Machine>, &Bufs, usize) -> Result<KernelTiming> {
    move |comm, e, b, count| {
        comm.all_reduce_with(e, &b.inputs, &b.outputs, count, DT, ReduceOp::Sum, algo)
    }
}

#[test]
fn every_single_node_allreduce_replays_exactly() {
    let algos = [
        AllReduceAlgo::OnePhaseLl,
        AllReduceAlgo::TwoPhaseLl {
            reuse: ScratchReuse::Rotate,
            order: PeerOrder::Staggered,
        },
        AllReduceAlgo::TwoPhaseLl {
            reuse: ScratchReuse::Barrier,
            order: PeerOrder::Staggered,
        },
        AllReduceAlgo::TwoPhaseHb {
            order: PeerOrder::Staggered,
        },
        AllReduceAlgo::TwoPhaseHb {
            order: PeerOrder::Sequential,
        },
        AllReduceAlgo::Ring,
    ];
    for algo in algos {
        let replayed = twins(
            timing_only(EnvKind::A100_40G, 1),
            sequence(&all_reduce(algo)),
        );
        assert_eq!(replayed, 2, "{algo:?}");
    }
    let replayed = twins(
        timing_only(EnvKind::H100, 1),
        sequence(&all_reduce(AllReduceAlgo::TwoPhaseSwitch)),
    );
    assert_eq!(replayed, 2, "TwoPhaseSwitch");
}

#[test]
fn the_other_collectives_replay_exactly() {
    let cases: [(&str, Launch<'_>); 7] = [
        ("AllGather LL", &|comm, e, b, count| {
            comm.all_gather_with(
                e,
                &b.inputs,
                &b.outputs,
                count,
                DT,
                AllGatherAlgo::AllPairsLl,
            )
        }),
        ("AllGather HB", &|comm, e, b, count| {
            comm.all_gather_with(
                e,
                &b.inputs,
                &b.outputs,
                count,
                DT,
                AllGatherAlgo::AllPairsHb,
            )
        }),
        ("ReduceScatter LL", &|comm, e, b, count| {
            let algo = ReduceScatterAlgo::AllPairsLl;
            comm.reduce_scatter_with(e, &b.inputs, &b.outputs, count, DT, ReduceOp::Sum, algo)
        }),
        ("ReduceScatter HB", &|comm, e, b, count| {
            let algo = ReduceScatterAlgo::AllPairsHb;
            comm.reduce_scatter_with(e, &b.inputs, &b.outputs, count, DT, ReduceOp::Sum, algo)
        }),
        ("Broadcast", &|comm, e, b, count| {
            let algo = BroadcastAlgo::Direct;
            comm.broadcast_with(e, &b.inputs, &b.outputs, count, DT, Rank(2), algo)
        }),
        ("AllToAll LL", &|comm, e, b, count| {
            comm.all_to_all_with(
                e,
                &b.inputs,
                &b.outputs,
                count,
                DT,
                AllToAllAlgo::AllPairsLl,
            )
        }),
        ("AllToAll HB", &|comm, e, b, count| {
            comm.all_to_all_with(
                e,
                &b.inputs,
                &b.outputs,
                count,
                DT,
                AllToAllAlgo::AllPairsHb,
            )
        }),
    ];
    for (name, launch) in cases {
        let replayed = twins(timing_only(EnvKind::A100_40G, 1), sequence(launch));
        assert_eq!(replayed, 2, "{name}");
    }
}

/// Port channels keep proxy FIFOs and daemons the record does not
/// capture, so their plans always run the DES: the single-node DMA plan
/// and the two-node hierarchical ones.
#[test]
fn port_channel_plans_never_replay() {
    let replayed = twins(
        timing_only(EnvKind::A100_40G, 1),
        sequence(&all_reduce(AllReduceAlgo::TwoPhasePort)),
    );
    assert_eq!(replayed, 0);
    for algo in [AllReduceAlgo::HierLl, AllReduceAlgo::HierHb] {
        let replayed = twins(
            timing_only(EnvKind::A100_40G, 2),
            sequence(&all_reduce(algo)),
        );
        assert_eq!(replayed, 0, "{algo:?}");
    }
}

/// The perf gate's 2×-knee serving scenario: repeated AllReduces on one
/// communicator between compute kernels.
#[test]
fn overloaded_serving_replays_exactly() {
    let run = |profiled: bool| {
        let mut engine =
            ServingEngine::new(EnvKind::A100_80G, ModelConfig::llama2_13b(), 16 * 1024);
        if profiled {
            engine.engine_mut().enable_profiling();
        }
        let backend = MscclppBackend::new();
        let trace = synthetic_trace(40, 96, 12, 7_000.0, 9);
        let mut cfg = ServeConfig::slo_aware(8, SloSpec::new(100_000.0, 12_000.0));
        cfg.admission.max_queue_depth = 5;
        cfg.seed = 9;
        let (report, _) = serve_trace_observed(&mut engine, &backend, &trace, &cfg).unwrap();
        let e = engine.engine_mut();
        let replayed = e.replayed_runs();
        (report, Outcome::of(e, Vec::new()), replayed)
    };
    let (report, outcome, replayed) = run(false);
    let (twin_report, twin_outcome, twin_replayed) = run(true);
    assert_eq!(twin_replayed, 0);
    assert!(replayed > 0, "the serving AllReduces never replayed");
    assert_eq!(report, twin_report);
    assert_eq!(outcome, twin_outcome);
}

/// Runs `A` twice, the second time replayed where `replays` says so, lets
/// `between` change the engine, and launches `A` once more. The last
/// launch must run the DES and equal its profiled twin.
fn refused(machine: impl Fn() -> Machine, replays: bool, between: impl Fn(&mut Engine<Machine>)) {
    let launch = all_reduce(AllReduceAlgo::OnePhaseLl);
    let replayed = twins(machine, |engine| {
        let comm = CollComm::new();
        let b = bufs(engine);
        let mut timings = Vec::new();
        for _ in 0..2 {
            timings.push(launch(&comm, engine, &b, A).unwrap());
        }
        let before = engine.replayed_runs();
        between(engine);
        timings.push(launch(&comm, engine, &b, A).unwrap());
        assert_eq!(engine.replayed_runs(), before, "the last launch replayed");
        timings
    });
    assert_eq!(replayed, u64::from(replays));
}

#[test]
fn a_fault_plan_refuses_replay() {
    refused(timing_only(EnvKind::A100_40G, 1), true, |engine| {
        engine.set_fault_plan(FaultPlan::new(7));
    });
}

#[test]
fn a_bytes_pool_refuses_replay() {
    refused(|| Machine::new(EnvKind::A100_40G.spec(1)), false, |_| {});
}

/// A test process books rank 0's egress port for 1 ms and finishes at
/// once: the engine is quiescent, but a resource the record used is busy.
#[test]
fn a_busy_resource_refuses_replay() {
    refused(timing_only(EnvKind::A100_40G, 1), true, |engine| {
        let egress = hw::link_stats(engine)
            .into_iter()
            .find(|s| s.label == "egress r0")
            .expect("rank 0 egress")
            .id;
        engine.spawn(move |ctx: &mut Ctx<'_, Machine>| {
            ctx.acquire(egress, Duration::from_us(1000.0));
            Step::Done
        });
        engine.run().unwrap();
    });
}

/// A prepared DMA plan parks its port-channel proxies on the engine as
/// daemons: the engine is never quiescent again.
#[test]
fn parked_proxies_refuse_replay() {
    refused(timing_only(EnvKind::A100_40G, 1), true, |engine| {
        let comm = CollComm::new();
        let b = bufs(engine);
        let algo = AllReduceAlgo::TwoPhasePort;
        comm.all_reduce_with(engine, &b.inputs, &b.outputs, A, DT, ReduceOp::Sum, algo)
            .unwrap();
    });
}
