//! Golden pins: pinned executions whose every observable must reproduce
//! bit for bit. They are the exact oracle for virtual time.
//!
//! - Engine digests: FNV-1a over each run's output bytes, metrics,
//!   trace and dependency graph, plus its exact final clock and event
//!   count, for seeded AllReduces under transient fault plans. They were
//!   recorded while a `BinaryHeap` reference scheduler still existed and
//!   both it and the calendar queue produced them, so a changed digest
//!   is a scheduling change, not a tolerance question. The observed and
//!   hierarchical runs also run on timing-only machines, where every
//!   field but the output bytes must match the same pins.
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
//! - Baseline sequences: every kernel the NCCL and MSCCL compilers emit,
//!   launch by launch, on one traced and profiled communicator per stack
//!   and topology (1n8g and 2n16g) at a ragged F16 count, run twice so
//!   the second round starts on wrapped FIFO cursors and banked credits.
//!   NCCL runs ring and tree AllReduce, AllGather, ReduceScatter and a
//!   rank-3 Broadcast; MSCCL its AllReduce plans (one- and two-phase
//!   all-pairs on one node, hierarchical on two) and AllGather; each at
//!   LL and Simple on one and four channels. Each pin holds every
//!   launch's elapsed picoseconds, an FNV-1a over every launch's full
//!   timing and the engine digest above, whose outputs fold each
//!   launch's output bytes and whose metrics hold the `nccl.*`/`msccl.*`
//!   instruction mix. Each sequence also runs on a timing-only cluster,
//!   where every field but the output bytes must match the same pin.
//! - Collective plans: an FNV-1a over the Debug text of every built-in
//!   MSCCL++ plan's kernel batches, as `CollComm::plan_*_with` builds
//!   them, on one and two nodes and after shrinks. Every instruction,
//!   with the channel, cells and buffers it names, is part of the pin.
//!
//! Every pinned run also asserts that the engine clamped no event into
//! its past. Re-record a value only for an intended change of virtual
//! behaviour.

use bench::{input_val, iterate, measure, Coll, Pick, Stack, Target};
use collective::{
    AllGatherAlgo, AllReduceAlgo, AllToAllAlgo, BroadcastAlgo, CollComm, PeerOrder,
    RecoveryOutcome, ReduceScatterAlgo, ScratchReuse,
};
use hw::{BufferId, DataType, EnvKind, EnvSpec, Machine, Rank, ReduceOp};
use mscclpp::KernelTiming;
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

/// What a pinned run's GPU memory holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Payload {
    /// Real bytes (`Machine::new`): inputs are filled and outputs read.
    Bytes,
    /// No bytes (`Machine::timing_only`): inputs stay unfilled and the
    /// digest's `outputs` is 0.
    TimingOnly,
}

impl Payload {
    /// A machine of this kind for `spec`.
    fn machine(self, spec: EnvSpec) -> Machine {
        match self {
            Payload::Bytes => Machine::new(spec),
            Payload::TimingOnly => Machine::timing_only(spec),
        }
    }
}

/// Runs one in-place f32 AllReduce of `count` elements per rank under a
/// seeded transient fault plan. The plan's 8 µs horizon spans the run,
/// so its faults land on it: every run must count at least one `fault.*`
/// event. `observed` turns on tracing and profiling; unobserved runs take
/// the slot-recycling fast path instead.
fn digest(seed: u64, nodes: usize, count: usize, observed: bool, payload: Payload) -> Digest {
    let world = nodes * 8;
    let mut e = Engine::new(payload.machine(EnvKind::A100_40G.spec(nodes)));
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
            if payload == Payload::Bytes {
                e.world_mut()
                    .pool_mut()
                    .fill_with(b, DataType::F32, move |i| val(r, i));
            }
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
    let outputs = match payload {
        Payload::Bytes => fnv1a(
            &bufs
                .iter()
                .flat_map(|&b| e.world().pool().bytes(b, 0, count * 4).to_vec())
                .collect::<Vec<u8>>(),
        ),
        Payload::TimingOnly => 0,
    };
    let metrics = format!(
        "{:?}{:?}",
        e.metrics().counters().collect::<Vec<_>>(),
        e.metrics().resources()
    );
    let trace = e.take_trace();
    let graph = e.take_dep_graph();
    assert_eq!(trace.is_some() && graph.is_some(), observed, "seed {seed}");
    Digest {
        outputs,
        now_ps: e.now().as_ps(),
        events: e.events_processed(),
        metrics: fnv1a(metrics.as_bytes()),
        trace: fnv1a(format!("{trace:?}").as_bytes()),
        graph: fnv1a(format!("{graph:?}").as_bytes()),
    }
}

/// Observed runs' pins: seed and digest of a 1n8g AllReduce of 1,024
/// elements per rank.
const OBSERVED: [(u64, Digest); 3] = [
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

/// Observed runs: the full execution record — trace event stream, label
/// table, dependency graph — on three seeded fault plans.
#[test]
fn observed_runs_match_their_digests() {
    for (seed, want) in OBSERVED {
        assert_eq!(
            digest(seed, 1, 1024, true, Payload::Bytes),
            want,
            "seed {seed}"
        );
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
        assert_eq!(
            digest(seed, 1, 2048, false, Payload::Bytes),
            want,
            "seed {seed}"
        );
    }
}

/// The 16-rank hierarchical shape (two nodes): the cross-node proxy path
/// schedules far-future NIC events, stressing the calendar's bucket
/// rotation.
#[test]
fn hierarchical_shape_matches_its_digest() {
    assert_eq!(digest(37, 2, 512, true, Payload::Bytes), HIERARCHICAL);
}

/// The pin of the 2n16g AllReduce of 512 elements per rank on seed 37.
const HIERARCHICAL: Digest = Digest {
    outputs: 0xcc23_4b67_d696_2325,
    now_ps: 9_631_825,
    events: 1280,
    metrics: 0x2acc_a9b9_46f2_f8cd,
    trace: 0x4298_030c_deb3_aca8,
    graph: 0x2655_dfaf_dc2c_b785,
};

/// The observed and hierarchical runs again on timing-only machines with
/// no input fill: everything but the output bytes reproduces their pins,
/// so both payload modes are pinned by the same digests.
#[test]
fn timing_only_twins_match_their_digests_but_outputs() {
    let runs = OBSERVED
        .into_iter()
        .map(|(seed, want)| (seed, 1, 1024, want))
        .chain([(37, 2, 512, HIERARCHICAL)]);
    for (seed, nodes, count, want) in runs {
        assert_eq!(
            digest(seed, nodes, count, true, Payload::TimingOnly),
            Digest { outputs: 0, ..want },
            "seed {seed}"
        );
    }
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

/// Elements per rank of every baseline-sequence launch: odd, so FIFO-slot
/// batches and channel stripes end in partial tails.
const RAGGED: usize = 24_577;

/// What a baseline launch sequence leaves behind: each launch's elapsed
/// picoseconds, an FNV-1a over every launch's full [`KernelTiming`]
/// (start, end and per-rank ends), and the engine [`Digest`], whose
/// `outputs` folds every launch's output bytes.
#[derive(Debug, PartialEq, Eq)]
struct Sequence {
    elapsed_ps: Vec<u64>,
    timings: u64,
    digest: Digest,
}

/// A traced and profiled cluster with one F16 input of `in_elems`
/// elements and one output of `world * RAGGED` per rank. On a
/// [`Payload::TimingOnly`] cluster the inputs stay unfilled and no
/// output is read.
struct Rig {
    e: Engine<Machine>,
    payload: Payload,
    ins: Vec<BufferId>,
    outs: Vec<BufferId>,
    timings: Vec<KernelTiming>,
    outputs: Vec<u8>,
}

impl Rig {
    fn new(nodes: usize, in_elems: usize, payload: Payload) -> Rig {
        let world = nodes * 8;
        let mut e = Engine::new(payload.machine(EnvKind::A100_40G.spec(nodes)));
        hw::wire(&mut e);
        e.enable_tracing();
        e.enable_profiling();
        let pool = e.world_mut().pool_mut();
        let ins = (0..world)
            .map(|r| {
                let b = pool.alloc(Rank(r), in_elems * 2);
                if payload == Payload::Bytes {
                    pool.fill_with(b, DataType::F16, move |i| input_val(r, i));
                }
                b
            })
            .collect();
        let outs = (0..world)
            .map(|r| pool.alloc(Rank(r), world * RAGGED * 2))
            .collect();
        Rig {
            e,
            payload,
            ins,
            outs,
            timings: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Runs one launch and, on a bytes cluster, folds the first
    /// `out_elems` elements of every rank's output into the outputs
    /// digest.
    fn launch(
        &mut self,
        out_elems: usize,
        f: impl FnOnce(&mut Engine<Machine>, &[BufferId], &[BufferId]) -> mscclpp::Result<KernelTiming>,
    ) {
        let t = f(&mut self.e, &self.ins, &self.outs).expect("baseline launch");
        self.timings.push(t);
        if self.payload == Payload::TimingOnly {
            return;
        }
        for &b in &self.outs {
            let h = fnv1a(self.e.world().pool().bytes(b, 0, out_elems * 2));
            self.outputs.extend(h.to_le_bytes());
        }
    }

    fn finish(mut self) -> Sequence {
        assert_eq!(self.e.clamped_past_events(), 0);
        let metrics = format!(
            "{:?}{:?}",
            self.e.metrics().counters().collect::<Vec<_>>(),
            self.e.metrics().resources()
        );
        let trace = self.e.take_trace();
        let graph = self.e.take_dep_graph();
        Sequence {
            elapsed_ps: self.timings.iter().map(|t| t.elapsed().as_ps()).collect(),
            timings: fnv1a(format!("{:?}", self.timings).as_bytes()),
            digest: Digest {
                outputs: match self.payload {
                    Payload::Bytes => fnv1a(&self.outputs),
                    Payload::TimingOnly => 0,
                },
                now_ps: self.e.now().as_ps(),
                events: self.e.events_processed(),
                metrics: fnv1a(metrics.as_bytes()),
                trace: fnv1a(format!("{trace:?}").as_bytes()),
                graph: fnv1a(format!("{graph:?}").as_bytes()),
            },
        }
    }
}

/// Both rounds of NCCL's sequence on one communicator: ring and tree
/// AllReduce, AllGather, ReduceScatter and Broadcast from rank 3, each
/// at LL and Simple on one and four channels. The second round runs on
/// wrapped FIFO cursors and banked credits.
fn nccl_sequence(nodes: usize, payload: Payload) -> Sequence {
    use ncclsim::{Algo, Choice, NcclComm, NcclConfig, Proto};
    let world = nodes * 8;
    let mut rig = Rig::new(nodes, world * RAGGED, payload);
    let comm = NcclComm::new(&mut mscclpp::Setup::new(&mut rig.e), NcclConfig::nccl());
    let (n, f16, sum) = (RAGGED, DataType::F16, ReduceOp::Sum);
    for _round in 0..2 {
        for proto in [Proto::LL, Proto::Simple] {
            for channels in [1, 4] {
                let ring = Choice {
                    algo: Algo::Ring,
                    proto,
                    channels,
                };
                let tree = Choice {
                    algo: Algo::Tree,
                    ..ring
                };
                rig.launch(n, |e, i, o| comm.all_reduce(e, i, o, n, f16, sum, ring));
                rig.launch(n, |e, i, o| comm.all_reduce(e, i, o, n, f16, sum, tree));
                rig.launch(world * n, |e, i, o| comm.all_gather(e, i, o, n, f16, ring));
                rig.launch(n, |e, i, o| comm.reduce_scatter(e, i, o, n, f16, sum, ring));
                rig.launch(n, |e, i, o| comm.broadcast(e, i, o, n, f16, Rank(3), ring));
            }
        }
    }
    rig.finish()
}

/// Both rounds of MSCCL's sequence on one communicator: its AllReduce
/// plans (one- and two-phase all-pairs on one node, hierarchical on
/// two) and AllGather, each at LL and Simple on one and four channels.
fn msccl_sequence(nodes: usize, payload: Payload) -> Sequence {
    use msccl::{MscclAlgo, MscclComm, MscclConfig};
    use ncclsim::Proto;
    let mut rig = Rig::new(nodes, RAGGED, payload);
    let world = nodes * 8;
    let comm = MscclComm::new(&mut mscclpp::Setup::new(&mut rig.e), MscclConfig::default());
    let algos: &[MscclAlgo] = if nodes == 1 {
        &[MscclAlgo::OnePhaseAllPairs, MscclAlgo::TwoPhaseAllPairs]
    } else {
        &[MscclAlgo::TwoPhaseHierarchical]
    };
    let (n, f16, sum) = (RAGGED, DataType::F16, ReduceOp::Sum);
    for _round in 0..2 {
        for proto in [Proto::LL, Proto::Simple] {
            for channels in [1, 4] {
                for &algo in algos {
                    let pick = Some((algo, proto, channels));
                    rig.launch(n, |e, i, o| comm.all_reduce(e, i, o, n, f16, sum, pick));
                }
                let pick = Some((proto, channels));
                rig.launch(world * n, |e, i, o| comm.all_gather(e, i, o, n, f16, pick));
            }
        }
    }
    rig.finish()
}

/// Asserts a sequence run on a `payload` cluster equals its pin,
/// printing the whole run on a miss. A timing-only run matches
/// every field but the outputs digest, which is 0.
fn check_sequence(name: &str, payload: Payload, got: Sequence, mut want: Sequence) {
    if payload == Payload::TimingOnly {
        want.digest.outputs = 0;
    }
    assert_eq!(got, want, "{name} ({payload:?}) moved; got:\n{got:#?}");
}

/// The pin of NCCL's sequence on 1n8g.
fn nccl_one_node_pin() -> Sequence {
    Sequence {
        elapsed_ps: vec![
            19_757_621, 45_468_144, 23_964_413, 22_926_356, 14_893_892, 20_119_604, 22_497_253,
            12_986_066, 12_723_106, 12_986_026, 26_079_061, 30_417_095, 16_478_884, 15_880_835,
            16_478_884, 25_785_530, 27_479_769, 15_929_234, 15_460_836, 15_519_628, 20_717_621,
            45_468_144, 23_964_413, 22_926_356, 14_893_892, 20_187_230, 22_497_253, 12_986_066,
            12_723_106, 12_986_026, 26_079_061, 32_097_095, 16_478_884, 15_880_835, 16_478_884,
            25_785_530, 29_159_769, 15_929_234, 15_460_836, 15_519_628,
        ],
        timings: 0x83b8_18c6_8071_d4e7,
        digest: Digest {
            outputs: 0x5316_549c_5854_77a5,
            now_ps: 878_053_500,
            events: 53_888,
            metrics: 0x63a8_4e49_a87b_632e,
            trace: 0xe1df_0c02_69ea_8521,
            graph: 0xb2f5_e39a_4e48_d197,
        },
    }
}

#[test]
fn nccl_sequence_on_one_node_matches_its_pin() {
    let p = Payload::Bytes;
    check_sequence("NCCL 1n8g", p, nccl_sequence(1, p), nccl_one_node_pin());
}

#[test]
fn nccl_timing_only_sequence_on_one_node_matches_its_pin() {
    let p = Payload::TimingOnly;
    check_sequence("NCCL 1n8g", p, nccl_sequence(1, p), nccl_one_node_pin());
}

/// The pin of NCCL's sequence on 2n16g.
fn nccl_two_nodes_pin() -> Sequence {
    Sequence {
        elapsed_ps: vec![
            46_282_323, 66_772_301, 71_279_262, 70_202_266, 35_043_818, 45_950_594, 31_043_550,
            28_869_921, 28_275_175, 28_436_829, 54_861_135, 40_133_033, 37_093_944, 36_392_675,
            36_204_156, 54_337_931, 33_989_365, 31_537_387, 30_851_980, 31_073_743, 47_242_323,
            66_772_301, 71_279_262, 70_202_266, 35_043_818, 46_004_730, 31_043_550, 28_869_921,
            28_275_175, 28_436_829, 54_861_135, 42_173_033, 37_093_944, 36_392_675, 36_204_156,
            54_337_931, 36_029_365, 31_537_387, 30_851_980, 31_073_743,
        ],
        timings: 0x7a57_1974_4af5_4c8f,
        digest: Digest {
            outputs: 0x93ed_65b4_58c2_7f25,
            now_ps: 1_752_786_473,
            events: 215_606,
            metrics: 0xa733_b3d3_93bc_55ae,
            trace: 0x358c_5cd5_052a_bdc3,
            graph: 0xb6dd_ae27_147b_a870,
        },
    }
}

#[test]
fn nccl_sequence_on_two_nodes_matches_its_pin() {
    let p = Payload::Bytes;
    check_sequence("NCCL 2n16g", p, nccl_sequence(2, p), nccl_two_nodes_pin());
}

#[test]
fn nccl_timing_only_sequence_on_two_nodes_matches_its_pin() {
    let p = Payload::TimingOnly;
    check_sequence("NCCL 2n16g", p, nccl_sequence(2, p), nccl_two_nodes_pin());
}

/// The pin of MSCCL's sequence on 1n8g.
fn msccl_one_node_pin() -> Sequence {
    Sequence {
        elapsed_ps: vec![
            20_375_342, 17_548_649, 20_604_413, 10_876_617, 17_737_292, 12_323_441, 13_869_611,
            20_869_723, 13_778_674, 12_365_667, 20_502_859, 12_590_826, 22_055_342, 19_228_649,
            22_284_413, 11_716_617, 18_577_292, 11_821_135, 13_869_611, 20_869_723, 13_778_674,
            12_283_263, 20_502_558, 12_500_487,
        ],
        timings: 0x3345_88fc_e425_7889,
        digest: Digest {
            outputs: 0xd4ab_df70_cb72_c4a5,
            now_ps: 420_531_718,
            events: 52_384,
            metrics: 0x9c5a_b3f8_361e_0707,
            trace: 0x456b_0ee9_f5f0_24e2,
            graph: 0x1ee5_20cf_3aa7_e55f,
        },
    }
}

#[test]
fn msccl_sequence_on_one_node_matches_its_pin() {
    let p = Payload::Bytes;
    check_sequence("MSCCL 1n8g", p, msccl_sequence(1, p), msccl_one_node_pin());
}

#[test]
fn msccl_timing_only_sequence_on_one_node_matches_its_pin() {
    let p = Payload::TimingOnly;
    check_sequence("MSCCL 1n8g", p, msccl_sequence(1, p), msccl_one_node_pin());
}

/// The pin of MSCCL's sequence on 2n16g.
fn msccl_two_nodes_pin() -> Sequence {
    Sequence {
        elapsed_ps: vec![
            21_292_186, 45_149_535, 20_426_414, 24_954_543, 23_817_740, 26_842_148, 23_257_666,
            24_311_563, 23_092_186, 48_749_535, 22_106_414, 26_187_125, 23_937_740, 26_962_148,
            23_377_365, 24_213_903,
        ],
        timings: 0x13cd_1dd4_1f79_50aa,
        digest: Digest {
            outputs: 0xc1e9_07fb_7df4_3825,
            now_ps: 447_078_771,
            events: 110_112,
            metrics: 0x5fea_9038_2d70_f644,
            trace: 0x743d_124e_7952_51d8,
            graph: 0x66d8_c451_3f87_9483,
        },
    }
}

#[test]
fn msccl_sequence_on_two_nodes_matches_its_pin() {
    let p = Payload::Bytes;
    check_sequence(
        "MSCCL 2n16g",
        p,
        msccl_sequence(2, p),
        msccl_two_nodes_pin(),
    );
}

#[test]
fn msccl_timing_only_sequence_on_two_nodes_matches_its_pin() {
    let p = Payload::TimingOnly;
    check_sequence(
        "MSCCL 2n16g",
        p,
        msccl_sequence(2, p),
        msccl_two_nodes_pin(),
    );
}

/// Elements per rank of the second build of every plan pin: smaller than
/// [`RAGGED`], so it reuses the first build's channels and the LL plans
/// emit their second scratch set.
const SMALLER: usize = 4_099;

/// Which built-in MSCCL++ plan a pin builds.
#[derive(Debug, Clone, Copy)]
enum Plan {
    AllReduce(AllReduceAlgo),
    AllGather(AllGatherAlgo),
    ReduceScatter(ReduceScatterAlgo),
    AllToAll(AllToAllAlgo),
    Broadcast(BroadcastAlgo, Rank),
}

/// The plan pins of one cluster: its environment, its nodes, the ranks a
/// shrink evicts before the plans are built, and every plan built on it
/// with its digest.
type Cluster<'a> = (EnvKind, usize, &'a [usize], &'a [(Plan, u64)]);

/// FNV-1a over the Debug text of `plan`'s kernel batches, built through
/// `CollComm::plan_*_with` on a fresh `nodes`-node `env` cluster at
/// [`RAGGED`] and then [`SMALLER`] F16 elements per rank, after a shrink
/// that evicts `dead` when it names any rank. The text holds every
/// instruction with its channel, cells, buffers and offsets.
fn plan_digest(env: EnvKind, nodes: usize, dead: &[usize], plan: Plan) -> u64 {
    let world = nodes * 8;
    let mut e = Engine::new(Machine::timing_only(env.spec(nodes)));
    hw::wire(&mut e);
    let pool = e.world_mut().pool_mut();
    let bytes = world * RAGGED * 2;
    let ins: Vec<BufferId> = (0..world).map(|r| pool.alloc(Rank(r), bytes)).collect();
    let outs: Vec<BufferId> = (0..world).map(|r| pool.alloc(Rank(r), bytes)).collect();
    let comm = CollComm::new();
    if !dead.is_empty() {
        let dead: Vec<Rank> = dead.iter().copied().map(Rank).collect();
        comm.shrink(&mut e, &dead).expect("shrink");
    }
    let (f16, sum, (i, o)) = (DataType::F16, ReduceOp::Sum, (&ins, &outs));
    let mut text = String::new();
    for n in [RAGGED, SMALLER] {
        let (kernels, _) = match plan {
            Plan::AllReduce(a) => comm.plan_all_reduce_with(&mut e, i, o, n, f16, sum, a),
            Plan::AllGather(a) => comm.plan_all_gather_with(&mut e, i, o, n, f16, a),
            Plan::ReduceScatter(a) => comm.plan_reduce_scatter_with(&mut e, i, o, n, f16, sum, a),
            Plan::AllToAll(a) => comm.plan_all_to_all_with(&mut e, i, o, n, f16, a),
            Plan::Broadcast(a, root) => comm.plan_broadcast_with(&mut e, i, o, n, f16, root, a),
        }
        .expect("built-in plan");
        text.push_str(&format!("{kernels:?}"));
    }
    fnv1a(text.as_bytes())
}

/// Every built-in MSCCL++ plan emits the instruction stream it emitted
/// when pinned: the 1n8g all-pairs, port, ring and switch AllReduces with
/// every ablation knob, the 2n16g hierarchical ones, every AllGather,
/// ReduceScatter, AllToAll and Broadcast plan on one and two nodes, and
/// the plans rebuilt after shrinks (rank 3 on both topologies, node 1 on
/// two nodes, so the relay Broadcast also runs confined to one node).
/// The channels, cells and buffers every instruction names, and so their
/// construction order, are part of the pin.
#[test]
fn collective_plans_match_their_pins() {
    use AllGatherAlgo as Ag;
    use AllReduceAlgo as Ar;
    use AllToAllAlgo as Aa;
    use BroadcastAlgo as Bc;
    use Plan::ReduceScatter as RS;
    use Plan::{AllGather as AG, AllReduce as AR, AllToAll as AA, Broadcast as BC};
    use ReduceScatterAlgo as Rs;
    let (a100, h100) = (EnvKind::A100_40G, EnvKind::H100);
    let ll = |reuse, order| Ar::TwoPhaseLl { reuse, order };
    let (rot, bar) = (ScratchReuse::Rotate, ScratchReuse::Barrier);
    let (stag, seq) = (PeerOrder::Staggered, PeerOrder::Sequential);
    let node1: Vec<usize> = (8..16).collect();
    let clusters: [Cluster; 7] = [
        (
            a100,
            1,
            &[],
            &[
                (AR(Ar::OnePhaseLl), 0x6859_e20b_ede9_4191),
                (AR(ll(rot, stag)), 0x79bd_50ab_c446_bcb3),
                (AR(ll(rot, seq)), 0xbcde_f1eb_feca_ad07),
                (AR(ll(bar, stag)), 0xd85a_4a48_5c88_8beb),
                (AR(ll(bar, seq)), 0x8008_42b0_5132_f177),
                (AR(Ar::TwoPhaseHb { order: stag }), 0xa592_9e4c_6efa_734f),
                (AR(Ar::TwoPhaseHb { order: seq }), 0x8527_afd6_bcbc_e707),
                (AR(Ar::TwoPhasePort), 0x7be7_ffbf_e757_2251),
                (AR(Ar::Ring), 0x6316_75d3_830d_0c71),
                (AG(Ag::AllPairsLl), 0x154f_328d_9be4_96c9),
                (AG(Ag::AllPairsHb), 0x5442_f78b_2d8f_4505),
                (AG(Ag::AllPairsPort), 0xbdc6_7020_54d7_4f15),
                (RS(Rs::AllPairsLl), 0xda54_41a3_6f5b_42f9),
                (RS(Rs::AllPairsHb), 0x82f6_6691_1eb6_6c6f),
                (AA(Aa::AllPairsLl), 0x45dd_559e_fb1a_2303),
                (AA(Aa::AllPairsHb), 0x627f_bda9_a472_483b),
                (BC(Bc::Direct, Rank(3)), 0xd5c8_36fd_81d4_31c1),
            ],
        ),
        (
            h100,
            1,
            &[],
            &[
                (AR(Ar::TwoPhaseSwitch), 0x3aa6_55fd_94e3_83b9),
                (BC(Bc::Switch, Rank(3)), 0x3c3f_74df_9362_f96b),
            ],
        ),
        (
            a100,
            2,
            &[],
            &[
                (AR(Ar::HierLl), 0x004d_39aa_da9e_43f5),
                (AR(Ar::HierHb), 0x373d_787d_3542_0133),
                (AG(Ag::HierLl), 0x8702_6a70_03fa_f205),
                (AG(Ag::HierHb), 0xd88d_440b_b165_7679),
                (RS(Rs::AllPairsLl), 0xcbe8_23e7_63d1_2f35),
                (RS(Rs::AllPairsHb), 0xa6c9_1356_5a23_4653),
                (AA(Aa::AllPairsLl), 0x7b17_3a8a_25f8_0c69),
                (AA(Aa::AllPairsHb), 0xba0b_3eb4_cb95_94f7),
                (BC(Bc::Direct, Rank(3)), 0xf075_4b39_0c21_27fd),
            ],
        ),
        // Rebuilt on 1n8g's seven survivors of rank 3.
        (
            a100,
            1,
            &[3],
            &[
                (AR(Ar::OnePhaseLl), 0xce86_0146_5a6c_0428),
                (AR(ll(rot, stag)), 0xa900_0633_4c38_9245),
                (AR(Ar::TwoPhaseHb { order: stag }), 0xbf25_a73d_ce6b_03bf),
                (AR(Ar::TwoPhasePort), 0x5509_55a5_449f_f6e1),
                (AR(Ar::Ring), 0x3115_9fc4_55d0_3f5a),
                (AG(Ag::AllPairsLl), 0xacd6_73e3_8629_4fc1),
                (AG(Ag::AllPairsHb), 0x9527_2ca8_ef91_c55e),
                (AG(Ag::AllPairsPort), 0xc6da_e0c9_32ee_c51e),
                (RS(Rs::AllPairsLl), 0x9545_afe1_fc2a_db8e),
                (RS(Rs::AllPairsHb), 0x1e65_2d27_694c_489a),
                (AA(Aa::AllPairsLl), 0xe16e_5bca_bc5a_4962),
                (AA(Aa::AllPairsHb), 0x25f2_1aaf_630d_cbc1),
                (BC(Bc::Direct, Rank(5)), 0x746c_394e_89fa_6823),
            ],
        ),
        (
            h100,
            1,
            &[3],
            &[
                (AR(Ar::TwoPhaseSwitch), 0xd1d1_2248_fe6c_b65d),
                (BC(Bc::Switch, Rank(5)), 0xc968_aaa5_a71b_7577),
            ],
        ),
        // Rebuilt on 2n16g's fifteen survivors of rank 3: leader relays.
        (
            a100,
            2,
            &[3],
            &[
                (AR(Ar::HierLl), 0xd16f_cff1_1122_3637),
                (AR(Ar::HierHb), 0xb0c7_bef8_3e5a_20db),
                (AG(Ag::HierLl), 0xfef0_3a74_72d0_2d1b),
                (AG(Ag::HierHb), 0x400c_dcda_1444_116c),
                (RS(Rs::AllPairsLl), 0xc1e8_22bb_9f9f_ad9f),
                (RS(Rs::AllPairsHb), 0xdad1_7b70_94a8_f865),
                (AA(Aa::AllPairsLl), 0x0b27_0eb6_b135_9136),
                (AA(Aa::AllPairsHb), 0x4c3d_47b0_294e_7689),
                (BC(Bc::Direct, Rank(5)), 0xa5b4_89c2_fe81_91db),
                (BC(Bc::Direct, Rank(11)), 0x47a4_1b52_be01_7a85),
            ],
        ),
        // Rebuilt on node 0 alone: hierarchical plans fall back to
        // all-pairs, and the relay Broadcast has one node.
        (
            a100,
            2,
            &node1,
            &[
                (AR(Ar::HierLl), 0xfcde_b59f_63b6_400b),
                (AG(Ag::HierHb), 0x4bbf_e18a_0895_b9dd),
                (BC(Bc::Direct, Rank(5)), 0xb188_2eda_a946_7e2b),
            ],
        ),
    ];
    let moved: Vec<String> = clusters
        .iter()
        .flat_map(|&(env, nodes, dead, plans)| plans.iter().map(move |&p| (env, nodes, dead, p)))
        .filter_map(|(env, nodes, dead, (plan, want))| {
            let got = plan_digest(env, nodes, dead, plan);
            (got != want).then(|| {
                format!(
                    "{env:?} {nodes}n dead {dead:?} {plan:?}: got {got:#018x}, want {want:#018x}"
                )
            })
        })
        .collect();
    assert!(moved.is_empty(), "plans moved:\n{}", moved.join("\n"));
}
