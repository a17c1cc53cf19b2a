//! Workspace-level integration tests: the three stacks and the DSL all
//! agree on collective semantics, across environments and topologies.

use bench::{Bench, Coll, Pick, Stack, Target};
use hw::{DataType, EnvKind, EnvSpec, Machine, Rank, ReduceOp};
use mscclpp::Setup;
use sim::Engine;

fn reference_allreduce(n: usize, count: usize, f: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    (0..count).map(|i| (0..n).map(|r| f(r, i)).sum()).collect()
}

fn val(r: usize, i: usize) -> f32 {
    ((r * 3 + i) % 8) as f32
}

/// Runs AllReduce through every stack on the same machine kind and
/// checks every one against the same reference.
#[test]
fn all_stacks_compute_identical_allreduce() {
    let count = 6000usize;
    let n = 8usize;
    let want = reference_allreduce(n, count, val);

    // MSCCL++ Collective API.
    {
        let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        hw::wire(&mut e);
        let bufs: Vec<_> = (0..n)
            .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
            .collect();
        for (r, &buf) in bufs.iter().enumerate() {
            e.world_mut()
                .pool_mut()
                .fill_with(buf, DataType::F32, move |i| val(r, i));
        }
        let comm = collective::CollComm::new();
        comm.all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum)
            .unwrap();
        for r in [0, 7] {
            let got = e.world().pool().to_f32_vec(bufs[r], DataType::F32);
            assert_eq!(got, want, "mscclpp rank {r}");
        }
    }

    // NCCL baseline.
    {
        let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        let mut setup = Setup::new(&mut e);
        let comm = ncclsim::NcclComm::new(&mut setup, ncclsim::NcclConfig::nccl());
        let bufs = setup.alloc_all(count * 4);
        for (r, &buf) in bufs.iter().enumerate() {
            e.world_mut()
                .pool_mut()
                .fill_with(buf, DataType::F32, move |i| val(r, i));
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
        assert_eq!(got, want, "nccl");
    }

    // MSCCL baseline.
    {
        let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        let mut setup = Setup::new(&mut e);
        let comm = msccl::MscclComm::new(&mut setup, msccl::MscclConfig::default());
        let bufs = setup.alloc_all(count * 4);
        for (r, &buf) in bufs.iter().enumerate() {
            e.world_mut()
                .pool_mut()
                .fill_with(buf, DataType::F32, move |i| val(r, i));
        }
        comm.all_reduce(
            &mut e,
            &bufs,
            &bufs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            None,
        )
        .unwrap();
        let got = e.world().pool().to_f32_vec(bufs[5], DataType::F32);
        assert_eq!(got, want, "msccl");
    }

    // DSL executor.
    {
        let prog = mscclpp_dsl::algorithms::two_phase_all_reduce(n).unwrap();
        let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        let mut setup = Setup::new(&mut e);
        let ins = setup.alloc_all(count * 4);
        let outs = setup.alloc_all(count * 4);
        let exe = prog
            .compile(&mut setup, &ins, &outs, Default::default())
            .unwrap();
        for (r, &input) in ins.iter().enumerate() {
            e.world_mut()
                .pool_mut()
                .fill_with(input, DataType::F32, move |i| val(r, i));
        }
        exe.launch(&mut e).unwrap();
        let got = e.world().pool().to_f32_vec(outs[2], DataType::F32);
        assert_eq!(got, want, "dsl");
    }
}

/// All four Table-1 environments serve the automatic AllReduce path.
#[test]
fn every_environment_runs_the_selected_algorithms() {
    for kind in EnvKind::ALL {
        for count in [256usize, 100_000] {
            let mut e = Engine::new(Machine::new(kind.spec(1)));
            hw::wire(&mut e);
            let bufs: Vec<_> = (0..8)
                .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
                .collect();
            for (r, &buf) in bufs.iter().enumerate() {
                e.world_mut()
                    .pool_mut()
                    .fill_with(buf, DataType::F32, move |i| val(r, i));
            }
            let comm = collective::CollComm::new();
            let t = comm
                .all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum)
                .unwrap_or_else(|err| panic!("{kind:?} count {count}: {err}"));
            let got = e.world().pool().to_f32_vec(bufs[4], DataType::F32);
            let want: f32 = (0..8).map(|r| val(r, 11)).sum();
            assert_eq!(got[11], want, "{kind:?} count {count}");
            assert!(t.elapsed().as_us() > 0.0);
        }
    }
}

/// A mixed workload on one engine: AllGather, then AllReduce, then
/// Broadcast, sharing the clock and the proxies.
#[test]
fn sequential_collectives_share_one_engine() {
    let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(2)));
    hw::wire(&mut e);
    let n = 16usize;
    let count = 800usize;
    let ins: Vec<_> = (0..n)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
        .collect();
    let gathered: Vec<_> = (0..n)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4 * n))
        .collect();
    for (r, &input) in ins.iter().enumerate() {
        e.world_mut()
            .pool_mut()
            .fill_with(input, DataType::F32, move |i| val(r, i));
    }
    let comm = collective::CollComm::new();
    let t0 = e.now();
    comm.all_gather(&mut e, &ins, &gathered, count, DataType::F32)
        .unwrap();
    let t1 = e.now();
    assert!(t1 > t0, "virtual time advances");
    comm.all_reduce(&mut e, &ins, &ins, count, DataType::F32, ReduceOp::Sum)
        .unwrap();
    comm.broadcast(&mut e, &ins, &ins, count, DataType::F32, Rank(3))
        .unwrap();
    // Broadcast of the reduced buffer: everyone holds rank 3's (reduced)
    // data, which equals the all-rank sum.
    let want: f32 = (0..n).map(|r| val(r, 1)).sum();
    for r in [0, 9, 15] {
        let got = e.world().pool().to_f32_vec(ins[r], DataType::F32);
        assert_eq!(got[1], want, "rank {r}");
    }
}

/// Determinism: the same workload produces bit-identical virtual timings
/// across runs.
#[test]
fn timings_are_deterministic() {
    fn once() -> u64 {
        let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        hw::wire(&mut e);
        let bufs: Vec<_> = (0..8)
            .map(|r| e.world_mut().pool_mut().alloc(Rank(r), 65536))
            .collect();
        for (r, &buf) in bufs.iter().enumerate() {
            e.world_mut()
                .pool_mut()
                .fill_with(buf, DataType::F32, move |i| val(r, i));
        }
        let comm = collective::CollComm::new();
        let t = comm
            .all_reduce(&mut e, &bufs, &bufs, 16384, DataType::F32, ReduceOp::Sum)
            .unwrap();
        t.elapsed().as_ps()
    }
    let a = once();
    let b = once();
    assert_eq!(a, b);
}

/// A figure point: stack, collective, cluster and pick, as
/// `bench::measure` takes them.
type Case = (Stack, Coll, Target, Pick);

/// A bytes cluster when `real`, a timing-only one otherwise.
fn machine(real: bool) -> fn(EnvSpec) -> Machine {
    if real {
        Machine::new
    } else {
        Machine::timing_only
    }
}

/// Latency bits of one launch of `case` with `bytes` per rank, through
/// `bench::Bench` as the figures run it. On a bytes cluster (`real`) the
/// inputs are filled and every output element is checked.
fn bench_bits((stack, coll, t, pick): Case, bytes: usize, real: bool) -> u64 {
    let mut b = Bench::new(stack, t, None, machine(real));
    let ins = b.inputs(bytes);
    let outs = b.outputs(coll, bytes);
    if real {
        b.fill(&ins);
    }
    let us = b
        .launch(coll, &ins, &outs, pick)
        .unwrap_or_else(|err| panic!("{stack:?} {coll:?} {t:?} {pick:?}: {err}"))
        .elapsed()
        .as_us();
    if real {
        b.verify(coll, &outs, bytes);
    }
    us.to_bits()
}

/// Latency bits of the §5.1 DSL ablation's two-phase AllReduce (F32,
/// two instances, A100-40G 1n8g) of `bytes` per rank. On a bytes
/// cluster (`real`) the inputs are filled and every output element is
/// checked.
fn dsl_bits(bytes: usize, real: bool) -> u64 {
    let n = 8;
    let prog = mscclpp_dsl::algorithms::two_phase_all_reduce(n).unwrap();
    let mut e = Engine::new(machine(real)(EnvKind::A100_40G.spec(1)));
    let mut setup = Setup::new(&mut e);
    let ins = setup.alloc_all(bytes);
    let outs = setup.alloc_all(bytes);
    let options = mscclpp_dsl::CompileOptions {
        instances: 2,
        ..Default::default()
    };
    let exe = prog.compile(&mut setup, &ins, &outs, options).unwrap();
    if real {
        for (r, &input) in ins.iter().enumerate() {
            e.world_mut()
                .pool_mut()
                .fill_with(input, DataType::F32, move |i| val(r, i));
        }
    }
    let us = exe.launch(&mut e).unwrap().elapsed().as_us();
    if real {
        let want = reference_allreduce(n, bytes / 4, val);
        for (r, &out) in outs.iter().enumerate() {
            let got = e.world().pool().to_f32_vec(out, DataType::F32);
            assert_eq!(got, want, "dsl rank {r}");
        }
    }
    us.to_bits()
}

/// The byte check the figures no longer make. `bench::measure` runs
/// every figure, ablation and sweep point on a timing-only cluster, so
/// here each stack, algorithm and cluster those points use runs once on
/// a bytes cluster and once on a timing-only one, at a small size: the
/// latency bits must match, and every bytes-mode output element must be
/// right. The cases are NCCL and MSCCL at their tuners' picks on every
/// figure cluster; MSCCL++ with the selector's pick at every swept size,
/// forced at this size, plus the algorithms Figure 11 and the ablations
/// force; and the DSL ablation's two-phase AllReduce.
#[test]
fn figure_points_match_their_bytes_twins() {
    use bench::figures::{A100_CAPS, SINGLE_NODE_CAP};
    use bench::{large_sizes, small_sizes};
    use collective::{AllGatherAlgo as Ag, AllReduceAlgo as Ar, PeerOrder, ScratchReuse};
    let a100 = |nodes| Target {
        env: EnvKind::A100_40G,
        nodes,
    };
    let one = |env| Target { env, nodes: 1 };
    // Every figure sweep: collective, cluster and largest message.
    let mut sweeps: Vec<(Coll, Target, usize)> = Vec::new();
    for coll in [Coll::AllReduce, Coll::AllGather] {
        sweeps.extend(A100_CAPS.map(|(nodes, cap)| (coll, a100(nodes), cap)));
    }
    for env in [EnvKind::H100, EnvKind::MI300X] {
        sweeps.push((Coll::AllReduce, one(env), SINGLE_NODE_CAP));
    }
    let mut cases: Vec<Case> = Vec::new();
    let mut add = |case: Case| {
        if !cases.contains(&case) {
            cases.push(case);
        }
    };
    for (coll, t, cap) in sweeps {
        add((Stack::Nccl, coll, t, Pick::Default));
        add((Stack::Msccl, coll, t, Pick::Default));
        let m = Machine::timing_only(t.env.spec(t.nodes));
        for size in small_sizes().into_iter().chain(large_sizes(cap)) {
            let per_rank = size / coll.out_bytes(1, t.world());
            add((
                Stack::Mscclpp,
                coll,
                t,
                match coll {
                    Coll::AllReduce => Pick::AllReduce(collective::select_all_reduce(&m, per_rank)),
                    Coll::AllGather => Pick::AllGather(collective::select_all_gather(&m, per_rank)),
                },
            ));
        }
    }
    let hb = |order| Ar::TwoPhaseHb { order };
    let ll = |reuse| Ar::TwoPhaseLl {
        reuse,
        order: PeerOrder::Staggered,
    };
    let forced = [
        (a100(1), Ar::TwoPhasePort),
        (a100(1), hb(PeerOrder::Staggered)),
        (a100(1), ll(ScratchReuse::Rotate)),
        (a100(1), ll(ScratchReuse::Barrier)),
        (one(EnvKind::H100), Ar::TwoPhaseSwitch),
        (one(EnvKind::H100), hb(PeerOrder::Staggered)),
        (one(EnvKind::MI300X), hb(PeerOrder::Staggered)),
        (one(EnvKind::MI300X), hb(PeerOrder::Sequential)),
    ];
    for (t, algo) in forced {
        add((Stack::Mscclpp, Coll::AllReduce, t, Pick::AllReduce(algo)));
    }
    for algo in [Ag::AllPairsHb, Ag::AllPairsPort] {
        let t = one(EnvKind::A100_80G);
        add((Stack::Mscclpp, Coll::AllGather, t, Pick::AllGather(algo)));
    }

    let mut moved: Vec<String> = cases
        .iter()
        .filter_map(|&case| {
            let bytes = match case.1 {
                Coll::AllReduce => 32 << 10,
                Coll::AllGather => 4 << 10,
            };
            let [real, timing] = [true, false].map(|real| bench_bits(case, bytes, real));
            (real != timing)
                .then(|| format!("{case:?}: {real:#x} on bytes, {timing:#x} timing-only"))
        })
        .collect();
    let [real, timing] = [true, false].map(|real| dsl_bits(32 << 10, real));
    if real != timing {
        moved.push(format!("DSL: {real:#x} on bytes, {timing:#x} timing-only"));
    }
    assert!(
        moved.is_empty(),
        "payload mode moved:\n{}",
        moved.join("\n")
    );
}
