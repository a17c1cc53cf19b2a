//! Workspace-level integration tests: the three stacks and the DSL all
//! agree on collective semantics, across environments and topologies.

use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
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
