//! Golden pins: pinned executions whose every observable must reproduce
//! bit for bit. They are the exact oracle for virtual time.
//!
//! - Engine digests: FNV-1a over each run's output bytes, metrics,
//!   trace and dependency graph, plus its exact final clock and event
//!   count, for seeded AllReduces under transient fault plans. They were
//!   recorded while a `BinaryHeap` reference scheduler still existed and
//!   both it and the calendar queue produced them, so a changed digest
//!   is a scheduling change, not a tolerance question.
//! - Fine-tuned points: exact latency bits of the §5.1 anchor row and
//!   one AllGather point per stack, as [`bench::measure`] reports them
//!   (NCCL's is the best over its tuning candidates).
//! - Warm launches: exact latency bits of three back-to-back launches on
//!   one communicator, as [`bench::iterate`] reports them (NCCL at its
//!   tuner's pick, so its first launch differs from the warm ones):
//!   AllReduce and AllGather on every stack at 32 KB and 1 MB on
//!   A100-40G, and on NCCL and MSCCL++ at 1 MB on H100.
//! - Post-recovery launches: exact latency bits of three AllReduces on a
//!   shrunken two-node survivor group's rebuilt plan.
//!
//! Every pinned run also asserts that the engine clamped no event into
//! its past. Re-record a value only for an intended change of virtual
//! behaviour.

use bench::{input_val, iterate, measure, Coll, Pick, Stack, Target};
use collective::{CollComm, RecoveryOutcome};
use hw::{BufferId, DataType, EnvKind, Machine, Rank, ReduceOp};
use sim::{fnv1a, Duration, Engine, FaultPlan, Time};

fn val(r: usize, i: usize) -> f32 {
    ((r * 5 + i * 3) % 8) as f32
}

/// Everything observable about one run.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    outputs: u64,
    now_ps: u64,
    events: u64,
    metrics: u64,
    trace: u64,
    graph: u64,
}

/// Runs one in-place f32 AllReduce of `count` elements per rank under a
/// seeded transient fault plan. The plan's 8 µs horizon spans the run,
/// so its faults land on it: every run must count at least one `fault.*`
/// event. `observed` turns on tracing and profiling; unobserved runs take
/// the slot-recycling fast path instead.
fn digest(seed: u64, nodes: usize, count: usize, observed: bool) -> Digest {
    let world = nodes * 8;
    let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(nodes)));
    e.set_fault_plan(FaultPlan::random_transient(
        seed,
        world,
        Duration::from_us(8.0),
    ));
    hw::wire(&mut e);
    if observed {
        e.enable_tracing();
        e.enable_profiling();
    }
    let bufs: Vec<BufferId> = (0..world)
        .map(|r| {
            let b = e.world_mut().pool_mut().alloc(Rank(r), count * 4);
            e.world_mut()
                .pool_mut()
                .fill_with(b, DataType::F32, move |i| val(r, i));
            b
        })
        .collect();
    CollComm::new()
        .all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum)
        .expect("golden allreduce");
    assert!(
        e.metrics().counter_sum("fault.") > 0,
        "seed {seed}: no fault landed on the run"
    );
    assert_eq!(e.clamped_past_events(), 0, "seed {seed}");
    let outputs: Vec<u8> = bufs
        .iter()
        .flat_map(|&b| e.world().pool().bytes(b, 0, count * 4).to_vec())
        .collect();
    let metrics = format!(
        "{:?}{:?}",
        e.metrics().counters().collect::<Vec<_>>(),
        e.metrics().resources()
    );
    let trace = e.take_trace();
    let graph = e.take_dep_graph();
    assert_eq!(trace.is_some() && graph.is_some(), observed, "seed {seed}");
    Digest {
        outputs: fnv1a(&outputs),
        now_ps: e.now().as_ps(),
        events: e.events_processed(),
        metrics: fnv1a(metrics.as_bytes()),
        trace: fnv1a(format!("{trace:?}").as_bytes()),
        graph: fnv1a(format!("{graph:?}").as_bytes()),
    }
}

/// Observed runs: the full execution record — trace event stream, label
/// table, dependency graph — on three seeded fault plans.
#[test]
fn observed_runs_match_their_digests() {
    let golden = [
        (
            7,
            Digest {
                outputs: 0x0621_fa05_2451_2325,
                now_ps: 7_984_452,
                events: 304,
                metrics: 0xfb56_0505_ad74_03b6,
                trace: 0x7bf4_9bb6_438e_9bb9,
                graph: 0x33ed_93e7_5864_be8f,
            },
        ),
        (
            203,
            Digest {
                outputs: 0x0621_fa05_2451_2325,
                now_ps: 6_317_586,
                events: 304,
                metrics: 0xcc0d_f598_0807_318b,
                trace: 0x36e1_d2dd_61eb_d0d7,
                graph: 0xd973_3121_e525_8182,
            },
        ),
        (
            991,
            Digest {
                outputs: 0x0621_fa05_2451_2325,
                now_ps: 6_155_107,
                events: 304,
                metrics: 0x810f_6b78_fd97_8380,
                trace: 0x06fd_a750_f37a_bee6,
                graph: 0xe730_ea3a_1abc_7721,
            },
        ),
    ];
    for (seed, want) in golden {
        assert_eq!(digest(seed, 1, 1024, true), want, "seed {seed}");
    }
}

/// Unobserved runs exercise the slot-recycling fast path (recycling is
/// only enabled when neither tracing nor profiling is on).
#[test]
fn recycling_fast_path_matches_its_digests() {
    // The digest of an absent trace and graph.
    let none = fnv1a(b"None");
    let golden = [
        (11, 5_939_111, 0x814e_97aa_ef8c_d6a8),
        (480, 6_064_820, 0x17ce_b8f5_ea53_a91a),
    ];
    for (seed, now_ps, metrics) in golden {
        let want = Digest {
            outputs: 0x1024_5703_c480_2325,
            now_ps,
            events: 304,
            metrics,
            trace: none,
            graph: none,
        };
        assert_eq!(digest(seed, 1, 2048, false), want, "seed {seed}");
    }
}

/// The 16-rank hierarchical shape (two nodes): the cross-node proxy path
/// schedules far-future NIC events, stressing the calendar's bucket
/// rotation.
#[test]
fn hierarchical_shape_matches_its_digest() {
    let want = Digest {
        outputs: 0xcc23_4b67_d696_2325,
        now_ps: 9_631_825,
        events: 1280,
        metrics: 0x2acc_a9b9_46f2_f8cd,
        trace: 0x4298_030c_deb3_aca8,
        graph: 0x2655_dfaf_dc2c_b785,
    };
    assert_eq!(digest(37, 2, 512, true), want);
}

/// The fine-tuned point path behind every figure's columns, on A100-40G
/// with one node: the §5.1 anchor row (a 1 KB AllReduce, which
/// `ablations` prints as NCCL 19.0 / MSCCL 9.9 / MSCCL++ 5.3 µs) and a
/// 32 KB-per-rank AllGather.
#[test]
fn fine_tuned_points_match_their_bits() {
    let t = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    let golden = [
        (
            Coll::AllReduce,
            1 << 10,
            [
                0x4032_fa03_4f3f_d934_u64,
                0x4023_d57f_3061_c79b,
                0x4015_4497_fa5d_28d0,
            ],
        ),
        (
            Coll::AllGather,
            32 << 10,
            [
                0x4027_8727_99a1_fd15,
                0x4028_b2f4_2784_a948,
                0x401c_7bd6_6277_c45d,
            ],
        ),
    ];
    for (coll, bytes, bits) in golden {
        for (stack, bits) in Stack::ALL.into_iter().zip(bits) {
            let (us, e) = measure(stack, coll, t, bytes, Pick::Default, None);
            assert_eq!(e.clamped_past_events(), 0, "{stack:?} {coll:?} {bytes} B");
            assert_eq!(
                us.to_bits(),
                bits,
                "{stack:?} {coll:?} {bytes} B: {us} µs, want {} µs",
                f64::from_bits(bits)
            );
        }
    }
}

/// A warm-launch pin: the collective, environment (one node) and bytes
/// per rank of one case, with the latency bits of its three launches.
type Warm = (Coll, EnvKind, usize, [u64; 3]);

/// Checks each of `stack`'s cases against its bits, on one warm
/// communicator per case whose outputs [`iterate`] verifies. One failure
/// names every case that moved.
fn check_warm(stack: Stack, cases: &[Warm]) {
    let moved: Vec<String> = cases
        .iter()
        .filter_map(|&(coll, env, bytes, bits)| {
            let (lat, e) = iterate(stack, coll, Target { env, nodes: 1 }, bytes, 3);
            let case = format!("{coll:?} {env:?} {bytes} B");
            assert_eq!(e.clamped_past_events(), 0, "{stack:?} {case}");
            let got: Vec<u64> = lat.iter().map(|us| us.to_bits()).collect();
            (got != bits).then(|| {
                let want = bits.map(f64::from_bits);
                format!("{case}: {lat:?} µs, want {want:?} µs")
            })
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{stack:?} latencies moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn nccl_warm_launches_match_their_bits() {
    check_warm(
        Stack::Nccl,
        &[
            (
                Coll::AllReduce,
                EnvKind::A100_40G,
                32 << 10,
                [
                    0x4033_7dd7_a99f_a11b,
                    0x4034_739a_38fb_ca10,
                    0x4034_739a_38fb_ca10,
                ],
            ),
            (
                Coll::AllReduce,
                EnvKind::A100_40G,
                1 << 20,
                [
                    0x4040_367c_b70a_c3a8,
                    0x4040_b15d_feb8_d823,
                    0x4040_b15d_feb8_d823,
                ],
            ),
            (
                Coll::AllGather,
                EnvKind::A100_40G,
                32 << 10,
                [
                    0x4028_7a6b_d6e8_af81,
                    0x4029_eb0f_adf2_ecf2,
                    0x402a_2880_51c9_f72f,
                ],
            ),
            (
                Coll::AllGather,
                EnvKind::A100_40G,
                1 << 20,
                [
                    0x4047_d1dd_5d3d_c8b8,
                    0x4048_2e06_5300_5815,
                    0x4048_3d62_7bf6_1aa4,
                ],
            ),
            (
                Coll::AllReduce,
                EnvKind::H100,
                1 << 20,
                [
                    0x4039_b413_fd0d_0679,
                    0x403a_a9d6_8c69_2f6f,
                    0x403a_a9d6_8c69_2f6f,
                ],
            ),
            (
                Coll::AllGather,
                EnvKind::H100,
                1 << 20,
                [
                    0x403f_0f9d_2bf5_5150,
                    0x403f_c7ef_177a_7009,
                    0x403f_e6a7_6965_f527,
                ],
            ),
        ],
    );
}

#[test]
fn msccl_warm_launches_match_their_bits() {
    check_warm(
        Stack::Msccl,
        &[
            (
                Coll::AllReduce,
                EnvKind::A100_40G,
                32 << 10,
                [
                    0x4031_424c_c682_2ff1,
                    0x4031_424c_c682_2ff1,
                    0x4031_424c_c682_2ff1,
                ],
            ),
            (
                Coll::AllReduce,
                EnvKind::A100_40G,
                1 << 20,
                [
                    0x4035_653a_604e_1e71,
                    0x4035_653a_604e_1e71,
                    0x4035_653a_604e_1e71,
                ],
            ),
            (
                Coll::AllGather,
                EnvKind::A100_40G,
                32 << 10,
                [
                    0x4028_b2f4_2784_a948,
                    0x4028_b2f4_2784_a948,
                    0x4028_b2f4_2784_a948,
                ],
            ),
            (
                Coll::AllGather,
                EnvKind::A100_40G,
                1 << 20,
                [
                    0x4045_0469_057d_1783,
                    0x4045_0469_057d_1783,
                    0x4045_0469_057d_1783,
                ],
            ),
        ],
    );
}

#[test]
fn mscclpp_warm_launches_match_their_bits() {
    check_warm(
        Stack::Mscclpp,
        &[
            (
                Coll::AllReduce,
                EnvKind::A100_40G,
                32 << 10,
                [
                    0x401e_7b28_d866_5e03,
                    0x401e_7b28_d866_5e03,
                    0x401e_7b28_d866_5e03,
                ],
            ),
            (
                Coll::AllReduce,
                EnvKind::A100_40G,
                1 << 20,
                [
                    0x4030_c88c_7192_ea53,
                    0x4030_c88c_7192_ea53,
                    0x4030_c88c_7192_ea53,
                ],
            ),
            (
                Coll::AllGather,
                EnvKind::A100_40G,
                32 << 10,
                [
                    0x401c_7bd6_6277_c45d,
                    0x401c_7bd6_6277_c45d,
                    0x401c_7bd6_6277_c45d,
                ],
            ),
            (
                Coll::AllGather,
                EnvKind::A100_40G,
                1 << 20,
                [
                    0x4042_a708_0303_c07f,
                    0x4042_a708_0303_c07f,
                    0x4042_a708_0303_c07f,
                ],
            ),
            (
                Coll::AllReduce,
                EnvKind::H100,
                1 << 20,
                [
                    0x401b_c94a_2b9d_3cbc,
                    0x401b_c94a_2b9d_3cbc,
                    0x401b_c94a_2b9d_3cbc,
                ],
            ),
            (
                Coll::AllGather,
                EnvKind::H100,
                1 << 20,
                [
                    0x4036_eb8a_5ce5_b424,
                    0x4036_eb8a_5ce5_b424,
                    0x4036_eb8a_5ce5_b424,
                ],
            ),
        ],
    );
}

/// Post-recovery steady state: a two-node world loses rank 3
/// mid-AllReduce and shrinks, and the three launches after the replay
/// run on the survivor group's rebuilt hierarchical (leader-relay) plan.
#[test]
fn shrunken_allreduce_matches_its_bits() {
    let (world, bytes) = (16, 1 << 20);
    // The detection timeout must exceed the shrunken leader-relay plan's
    // longest legitimate wait, or healthy post-recovery launches read as
    // further deaths.
    let plan = FaultPlan::new(7)
        .rank_down(3, Time::from_ps(20_000_000))
        .with_wait_timeout(Duration::from_us(2_000.0));
    let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(2)));
    e.set_fault_plan(plan);
    hw::wire(&mut e);
    let pool = e.world_mut().pool_mut();
    let ins: Vec<BufferId> = (0..world)
        .map(|r| {
            let b = pool.alloc(Rank(r), bytes);
            pool.fill_with(b, DataType::F16, move |i| input_val(r, i));
            b
        })
        .collect();
    let outs: Vec<BufferId> = (0..world).map(|r| pool.alloc(Rank(r), bytes)).collect();
    let comm = CollComm::new();
    let launch = |e: &mut Engine<Machine>| {
        comm.all_reduce(e, &ins, &outs, bytes / 2, DataType::F16, ReduceOp::Sum)
    };
    launch(&mut e).expect_err("the scheduled death must interrupt the collective");
    let recovery = comm.shrink(&mut e, &[]).expect("shrink");
    assert_eq!(recovery.outcome, RecoveryOutcome::Replayed);
    assert_eq!(recovery.group.len(), world - 1, "one rank lost");
    let lat: Vec<f64> = (0..3)
        .map(|_| {
            launch(&mut e)
                .expect("post-recovery launch")
                .elapsed()
                .as_us()
        })
        .collect();
    let bits: Vec<u64> = lat.iter().map(|us| us.to_bits()).collect();
    assert_eq!(bits, [0x4055_806e_a854_4780; 3], "{lat:?} µs");
    assert_eq!(e.clamped_past_events(), 0);
}
