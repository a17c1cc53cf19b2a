//! Chaos tests: deterministic fault injection across the whole stack.
//!
//! The invariants, per DESIGN.md §9:
//!
//! * **transient faults never corrupt data** — link flaps, bandwidth
//!   degradation and stragglers delay a collective but every stack still
//!   produces the bit-exact reference result;
//! * **permanent faults fail typed or degrade** — with re-planning
//!   bypassed, a dead link surfaces [`mscclpp::Error::Timeout`] naming
//!   the blocked span; the default path re-plans and stays correct;
//! * **everything is reproducible** — the same seed and plan give
//!   bit-identical timings, counters, and outputs.

use collective::{AllReduceAlgo, CollComm, PeerOrder, RecoveryOutcome};
use hw::{BufferId, DataType, EnvKind, Machine, Rank, ReduceOp};
use mscclpp::Setup;
use proptest::prelude::*;
use sim::{fnv1a, Duration, Engine, FaultPlan, Time};

fn reference_allreduce(n: usize, count: usize, f: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    (0..count).map(|i| (0..n).map(|r| f(r, i)).sum()).collect()
}

fn val(r: usize, i: usize) -> f32 {
    ((r * 5 + i * 3) % 8) as f32
}

fn engine_with_plan(kind: EnvKind, plan: FaultPlan) -> Engine<Machine> {
    let mut e = Engine::new(Machine::new(kind.spec(1)));
    e.set_fault_plan(plan);
    hw::wire(&mut e);
    e
}

fn alloc_filled(e: &mut Engine<Machine>, n: usize, count: usize) -> Vec<BufferId> {
    (0..n)
        .map(|r| {
            let b = e.world_mut().pool_mut().alloc(Rank(r), count * 4);
            e.world_mut()
                .pool_mut()
                .fill_with(b, DataType::F32, move |i| val(r, i));
            b
        })
        .collect()
}

/// Flap every NVLink port of GPU 0 in `[start, end)`.
fn flap_gpu0(mut plan: FaultPlan, world: usize, start: Time, end: Time) -> FaultPlan {
    for dst in 1..world {
        plan = plan.link_flap(0, dst, start, end);
    }
    plan
}

fn us(x: u64) -> Time {
    Time::from_ps(x * 1_000_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A random transient fault plan (link-down windows, bandwidth
    /// degradation, stragglers) delays but never corrupts: all three
    /// stacks still compute the bit-exact reference sum.
    #[test]
    fn transient_faults_never_corrupt_any_stack(
        fault_seed in 0u64..1000,
        count in 512usize..3000,
    ) {
        let n = 8usize;
        let plan = FaultPlan::random_transient(fault_seed, n, Duration::from_us(150.0));
        let want = reference_allreduce(n, count, val);

        // MSCCL++ collective API (default selection; transient-only plans
        // never trigger a re-plan).
        {
            let mut e = engine_with_plan(EnvKind::A100_40G, plan.clone());
            let bufs = alloc_filled(&mut e, n, count);
            let comm = CollComm::new();
            comm.all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum)
                .unwrap();
            prop_assert_eq!(e.metrics().counter("fault.replans"), 0);
            for r in [0, n - 1] {
                let got = e.world().pool().to_f32_vec(bufs[r], DataType::F32);
                prop_assert_eq!(&got, &want, "mscclpp rank {} plan seed {}", r, fault_seed);
            }
        }

        // NCCL baseline.
        {
            let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
            e.set_fault_plan(plan.clone());
            let mut setup = Setup::new(&mut e);
            let comm = ncclsim::NcclComm::new(&mut setup, ncclsim::NcclConfig::nccl());
            let bufs = setup.alloc_all(count * 4);
            for (r, &b) in bufs.iter().enumerate() {
                e.world_mut()
                    .pool_mut()
                    .fill_with(b, DataType::F32, move |i| val(r, i));
            }
            comm.all_reduce(
                &mut e,
                &bufs,
                &bufs,
                count,
                DataType::F32,
                ReduceOp::Sum,
                ncclsim::tune(count * 4, 1),
            )
            .unwrap();
            let got = e.world().pool().to_f32_vec(bufs[3], DataType::F32);
            prop_assert_eq!(&got, &want, "nccl plan seed {}", fault_seed);
        }

        // MSCCL baseline.
        {
            let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
            e.set_fault_plan(plan.clone());
            let mut setup = Setup::new(&mut e);
            let comm = msccl::MscclComm::new(&mut setup, msccl::MscclConfig::default());
            let bufs = setup.alloc_all(count * 4);
            for (r, &b) in bufs.iter().enumerate() {
                e.world_mut()
                    .pool_mut()
                    .fill_with(b, DataType::F32, move |i| val(r, i));
            }
            comm.all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum, None)
                .unwrap();
            let got = e.world().pool().to_f32_vec(bufs[5], DataType::F32);
            prop_assert_eq!(&got, &want, "msccl plan seed {}", fault_seed);
        }
    }
}

/// The PortChannel stack's CPU proxies retry through a link flap with
/// exponential backoff and the collective still verifies.
#[test]
fn proxies_retry_through_flap_and_stay_correct() {
    let n = 8usize;
    let count = 100_000usize;
    let plan = flap_gpu0(FaultPlan::new(3), n, us(2), us(40));
    let mut e = engine_with_plan(EnvKind::A100_40G, plan);
    let bufs = alloc_filled(&mut e, n, count);
    let comm = CollComm::new();
    comm.all_reduce_with(
        &mut e,
        &bufs,
        &bufs,
        count,
        DataType::F32,
        ReduceOp::Sum,
        AllReduceAlgo::TwoPhasePort,
    )
    .unwrap();
    let want = reference_allreduce(n, count, val);
    for (r, &b) in bufs.iter().enumerate() {
        let got = e.world().pool().to_f32_vec(b, DataType::F32);
        assert_eq!(got, want, "rank {r}");
    }
    assert!(
        e.metrics().counter("retry.attempts") > 0,
        "the flap never forced a proxy retry"
    );
    assert!(
        e.metrics().counter("retry.recovered") > 0,
        "no proxy observed the link recover"
    );
}

/// A permanently dead link with re-planning bypassed (explicit algorithm
/// choice) hangs the collective until the plan's wait timeout fires, and
/// the typed error names the blocked span.
#[test]
fn permanent_link_down_without_fallback_times_out_naming_the_span() {
    let n = 8usize;
    let count = 4096usize;
    let plan = FaultPlan::new(5)
        .link_down_forever(0, 1, Time::ZERO)
        .with_wait_timeout(Duration::from_us(200.0));
    let mut e = engine_with_plan(EnvKind::A100_40G, plan);
    let bufs = alloc_filled(&mut e, n, count);
    let comm = CollComm::new();
    let err = comm
        .all_reduce_with(
            &mut e,
            &bufs,
            &bufs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            AllReduceAlgo::TwoPhaseHb {
                order: PeerOrder::Staggered,
            },
        )
        .unwrap_err();
    match &err {
        mscclpp::Error::Timeout(t) => {
            assert!(
                t.span_stack.iter().any(|s| s.starts_with("wait.")),
                "span stack should name the blocked wait: {:?}",
                t.span_stack
            );
            assert!(t.waited >= Duration::ZERO);
        }
        other => panic!("expected Error::Timeout, got {other}"),
    }
    assert!(
        e.metrics().counter("fault.link_down_blocked") > 0,
        "no thread block reported parking on the dead link"
    );
    // `std::error::Error` chaining reaches the simulator-level cause.
    let msg = format!("{err}");
    assert!(msg.contains("timed out"), "{msg}");
}

/// The same seed and fault plan reproduce a faulted run bit-exactly:
/// identical final virtual time, identical counters, identical output.
#[test]
fn same_plan_same_seed_is_bit_deterministic() {
    let run_once = || {
        let n = 8usize;
        let count = 50_000usize;
        let plan = flap_gpu0(FaultPlan::new(9), n, us(2), us(30));
        let mut e = engine_with_plan(EnvKind::A100_40G, plan);
        let bufs = alloc_filled(&mut e, n, count);
        let comm = CollComm::new();
        comm.all_reduce_with(
            &mut e,
            &bufs,
            &bufs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            AllReduceAlgo::TwoPhasePort,
        )
        .unwrap();
        let counters: Vec<(String, u64)> = e
            .metrics()
            .counters()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        let out = e.world().pool().to_f32_vec(bufs[0], DataType::F32);
        (e.now(), counters, out)
    };
    let (now_a, counters_a, out_a) = run_once();
    let (now_b, counters_b, out_b) = run_once();
    assert_eq!(now_a, now_b, "virtual end time diverged");
    assert_eq!(counters_a, counters_b, "counters diverged");
    assert_eq!(out_a, out_b, "outputs diverged");
    assert!(counters_a
        .iter()
        .any(|(k, v)| k == "retry.attempts" && *v > 0));
}

/// The default path re-plans around a permanently dead mesh link: the
/// result is still bit-exact and the degradation is visible both in the
/// `fault.replans` counter and as a measurably slower run.
#[test]
fn degraded_replan_is_correct_and_measurably_slower() {
    let n = 8usize;
    let count = 200_000usize;
    let healthy_us = {
        let mut e = Engine::new(Machine::new(EnvKind::MI300X.spec(1)));
        hw::wire(&mut e);
        let bufs = alloc_filled(&mut e, n, count);
        let comm = CollComm::new();
        let t = comm
            .all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum)
            .unwrap();
        t.elapsed().as_us()
    };
    let plan = FaultPlan::new(1).link_down_forever(2, 3, Time::ZERO);
    let mut e = engine_with_plan(EnvKind::MI300X, plan);
    let bufs = alloc_filled(&mut e, n, count);
    let comm = CollComm::new();
    let t = comm
        .all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum)
        .unwrap();
    let want = reference_allreduce(n, count, val);
    for r in [0, 2, 3, 7] {
        let got = e.world().pool().to_f32_vec(bufs[r], DataType::F32);
        assert_eq!(got, want, "rank {r}");
    }
    assert!(e.metrics().counter("fault.replans") >= 1);
    assert!(
        t.elapsed().as_us() > healthy_us,
        "ring fallback ({:.1} us) should be slower than healthy all-pairs ({healthy_us:.1} us)",
        t.elapsed().as_us()
    );
}

/// The dynamic sanitizer stays clean while faults delay a collective:
/// link flaps reorder the interleaving but never create an unordered
/// conflicting access pair, and the result still verifies bit-exactly.
#[test]
fn sanitizer_clean_under_transient_faults() {
    let n = 8usize;
    let count = 20_000usize;
    let want = reference_allreduce(n, count, val);
    for fault_seed in [11u64, 42, 77] {
        let plan = FaultPlan::random_transient(fault_seed, n, Duration::from_us(150.0));
        let mut e = engine_with_plan(EnvKind::A100_40G, plan);
        let bufs = alloc_filled(&mut e, n, count);
        let mut comm = CollComm::new();
        comm.set_sanitize(true);
        comm.all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum)
            .unwrap_or_else(|err| panic!("sanitized run, fault seed {fault_seed}: {err}"));
        let got = e.world().pool().to_f32_vec(bufs[0], DataType::F32);
        assert_eq!(got, want, "fault seed {fault_seed}");
    }
}

/// Rank death and recovery are fully deterministic: the same seed and
/// RankDown schedule give bit-identical survivor results, counters, and
/// the exact same recovery latency in virtual time across two runs.
#[test]
fn rank_death_is_deterministic() {
    let run_once = || {
        let n = 8usize;
        let dead = 3usize;
        let count = 50_000usize;
        let plan = FaultPlan::new(13)
            .rank_down(dead, us(1))
            .with_wait_timeout(Duration::from_us(300.0));
        let mut e = engine_with_plan(EnvKind::A100_40G, plan);
        let ins = alloc_filled(&mut e, n, count);
        let outs: Vec<BufferId> = (0..n)
            .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
            .collect();
        let comm = CollComm::new();
        // GPU 3 dies 1us in: the collective stalls on its silence until
        // the wait timeout fires.
        comm.all_reduce(&mut e, &ins, &outs, count, DataType::F32, ReduceOp::Sum)
            .unwrap_err();
        // Shrink discovers the dead rank from the timeout (no oracle
        // argument) and replays the out-of-place collective.
        let recovery = comm.shrink(&mut e, &[]).unwrap();
        assert_eq!(recovery.outcome, RecoveryOutcome::Replayed);
        assert_eq!(recovery.epoch.0, 1);
        assert!(!recovery.group.contains(&Rank(dead)));
        assert_eq!(recovery.group.len(), n - 1);

        // Survivors hold the reduction over the surviving inputs.
        let want = reference_allreduce(n, count, |r, i| if r == dead { 0.0 } else { val(r, i) });
        let mut out = Vec::new();
        for &g in &recovery.group {
            let got = e.world().pool().to_f32_vec(outs[g.0], DataType::F32);
            assert_eq!(got, want, "rank {}", g.0);
            out.extend(got);
        }
        let counters: Vec<(String, u64)> = e
            .metrics()
            .counters()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        (
            e.now(),
            counters,
            out,
            recovery.recovery_time,
            recovery.drain,
        )
    };
    let (now_a, counters_a, out_a, rec_a, drain_a) = run_once();
    let (now_b, counters_b, out_b, rec_b, drain_b) = run_once();
    assert_eq!(now_a, now_b, "virtual end time diverged");
    assert_eq!(counters_a, counters_b, "counters diverged");
    assert_eq!(out_a, out_b, "survivor outputs diverged");
    assert_eq!(rec_a, rec_b, "recovery latency diverged");
    assert_eq!(drain_a, drain_b, "drain report diverged");
    assert!(counters_a
        .iter()
        .any(|(k, v)| k == "fault.epoch_shrinks" && *v == 1));
    assert!(counters_a
        .iter()
        .any(|(k, v)| k == "fault.rank_down_halted" && *v > 0));
}

/// A second rank dies while the first death's recovery is replaying the
/// interrupted collective. The shrink must restart from the union of
/// both deaths (a nested recovery), converge to one consistent final
/// epoch, leave bit-exact results on the six survivors — and do all of
/// it deterministically across reruns.
#[test]
fn double_failure_during_recovery_is_deterministic() {
    let run_once = || {
        let n = 8usize;
        let count = 500_000usize;
        // Rank 3 dies 1us in; rank 5 dies ~40us after the first death's
        // wait timeout fires — mid-way through the replay that shrink
        // launched on the 7-rank epoch.
        let plan = FaultPlan::new(21)
            .rank_down(3, us(1))
            .rank_down(5, us(310))
            .with_wait_timeout(Duration::from_us(300.0));
        let mut e = engine_with_plan(EnvKind::A100_40G, plan);
        let ins = alloc_filled(&mut e, n, count);
        let outs: Vec<BufferId> = (0..n)
            .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
            .collect();
        let comm = CollComm::new();
        comm.all_reduce_with(
            &mut e,
            &ins,
            &outs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            AllReduceAlgo::TwoPhaseHb {
                order: PeerOrder::Staggered,
            },
        )
        .unwrap_err();
        let recovery = comm.shrink(&mut e, &[]).unwrap();
        assert_eq!(recovery.outcome, RecoveryOutcome::Replayed);
        // Two epochs were opened (7 ranks, then 6); the second is the
        // one in force.
        assert_eq!(recovery.epoch.0, 2, "nested recovery opens a second epoch");
        assert_eq!(comm.epoch().0, 2);
        assert_eq!(recovery.group.len(), n - 2);
        assert!(!recovery.group.contains(&Rank(3)));
        assert!(!recovery.group.contains(&Rank(5)));
        assert_eq!(e.metrics().counter("fault.epoch_shrinks"), 2);
        assert!(
            e.metrics().counter("fault.nested_recoveries") >= 1,
            "the second death must surface as a nested recovery"
        );
        let want = reference_allreduce(
            n,
            count,
            |r, i| if r == 3 || r == 5 { 0.0 } else { val(r, i) },
        );
        let mut out = Vec::new();
        for &g in &recovery.group {
            let got = e.world().pool().to_f32_vec(outs[g.0], DataType::F32);
            assert_eq!(got, want, "rank {}", g.0);
            out.extend(got);
        }
        let counters: Vec<(String, u64)> = e
            .metrics()
            .counters()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        (
            e.now(),
            counters,
            out,
            recovery.recovery_time,
            recovery.drain,
        )
    };
    let (now_a, counters_a, out_a, rec_a, drain_a) = run_once();
    let (now_b, counters_b, out_b, rec_b, drain_b) = run_once();
    assert_eq!(now_a, now_b, "virtual end time diverged");
    assert_eq!(counters_a, counters_b, "counters diverged");
    assert_eq!(out_a, out_b, "survivor outputs diverged");
    assert_eq!(rec_a, rec_b, "recovery latency diverged");
    assert_eq!(drain_a, drain_b, "drain report diverged");
}

/// Overload and a mid-run rank death at once — the full graceful-
/// degradation contract of DESIGN.md §16: serving never errors, every
/// request reaches exactly one typed terminal state, the paged-KV
/// accounting balances (allocated == freed + spilled + lost-to-dead-
/// rank), and an identical-seed replay is bit-identical.
#[test]
fn overloaded_serving_survives_rank_death_deterministically() {
    use inference::{
        serve_trace_observed, synthetic_trace, CommBackend, KvConfig, ModelConfig, MscclppBackend,
        Phase, ServeConfig, ServingEngine, SloSpec,
    };
    use sim::SamplerConfig;

    let run_once = || {
        // Rank 5 dies 3 ms of virtual time into the run, while arrivals
        // come ~4x faster than the engine can serve them.
        let plan = FaultPlan::new(23)
            .rank_down(5, us(3_000))
            .with_wait_timeout(Duration::from_us(300.0));
        let mut engine = ServingEngine::with_fault_plan(
            EnvKind::A100_80G,
            ModelConfig::llama2_13b(),
            16 * 1024,
            Some(plan),
        );
        let backend = MscclppBackend::new();
        let trace = synthetic_trace(24, 96, 10, 3_000.0, 7);
        let mut cfg = ServeConfig::slo_aware(6, SloSpec::new(150_000.0, 15_000.0));
        cfg.admission.max_queue_depth = 8;
        cfg.timeout_us = 500_000.0;
        // A pinned 64-block pool (scaled down by the shrink) keeps KV
        // pressure real; the dead rank invalidates every device block.
        cfg.kv = KvConfig {
            total_blocks: 64,
            ..KvConfig::default()
        };
        cfg.seed = 7;
        cfg.observe.telemetry = Some(SamplerConfig::new(500.0, 4096));
        let (report, obs) = serve_trace_observed(&mut engine, &backend, &trace, &cfg)
            .expect("serving must degrade gracefully, never error");
        let counters: Vec<(String, u64)> = engine
            .engine_mut()
            .metrics()
            .counters_with_prefix("serve.")
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        (report, counters, backend.epoch(), obs)
    };
    let (r1, counters1, epoch1, obs1) = run_once();
    let (r2, counters2, epoch2, obs2) = run_once();
    assert_eq!(r1, r2, "identical-seed replay diverged");
    assert_eq!(counters1, counters2, "serve counters diverged");
    assert_eq!(epoch1, epoch2);
    // Observability is deterministic too: same seed ⇒ bit-identical
    // per-request timelines and telemetry series, even across the
    // mid-run rank death. (String equality — these are the artifacts.)
    assert_eq!(
        obs1.timelines_json(),
        obs2.timelines_json(),
        "request timelines diverged across identical-seed replays"
    );
    assert_eq!(
        obs1.telemetry_json(),
        obs2.telemetry_json(),
        "telemetry series diverged across identical-seed replays"
    );
    // Pinned across builds too: the report and both artifacts hash to
    // the digest recorded when the serving engine still moved real
    // bytes, so its timing-only pool provably changes no virtual output.
    let artifacts = [
        format!("{r1:?}"),
        obs1.timelines_json(),
        obs1.telemetry_json().expect("telemetry was on"),
    ];
    assert_eq!(
        fnv1a(artifacts.concat().as_bytes()),
        0xd82d_0e37_a208_e3f2,
        "report, timelines or telemetry moved"
    );
    // Every request that reached the door has a timeline that tiles its
    // end-to-end latency exactly, and the recovery stall is visible in
    // somebody's blame.
    assert_eq!(obs1.timelines.len(), 24, "one timeline per request");
    for tl in &obs1.timelines {
        assert!(
            tl.tiles_exactly(),
            "request {} blame does not tile its latency",
            tl.id
        );
    }
    assert!(
        obs1.timelines
            .iter()
            .any(|tl| tl.blame.get(Phase::Recovery) > 0),
        "a mid-run rank death must charge recovery time to live requests"
    );

    // The contract itself.
    assert_eq!(
        r1.completed + r1.shed + r1.rejected + r1.timed_out + r1.evicted,
        24,
        "a request vanished or double-counted: {r1:?}"
    );
    assert!(
        r1.kv.balances(),
        "KV accounting out of balance: {:?}",
        r1.kv
    );
    assert!(r1.kv.lost_to_dead_rank > 0, "the death must cost KV blocks");
    assert_eq!(r1.recoveries, 1, "{r1:?}");
    assert_eq!(r1.final_tp, 7);
    assert_eq!(epoch1, 1);
    assert!(r1.completed > 0, "admitted work must still finish: {r1:?}");
    assert!(
        r1.shed + r1.rejected > 0,
        "overload at reduced capacity must shed: {r1:?}"
    );
}
