//! Correctness and relative-performance tests for the MSCCL baseline.

use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
use msccl::{MscclAlgo, MscclComm, MscclConfig};
use mscclpp::Setup;
use ncclsim::Proto;
use sim::Engine;

fn input_val(r: usize, i: usize) -> f32 {
    (r + 1) as f32 + (i % 3) as f32
}

struct Fx {
    engine: Engine<Machine>,
    comm: MscclComm,
    n: usize,
}

fn fixture(kind: EnvKind, nodes: usize) -> Fx {
    let mut engine = Engine::new(Machine::new(kind.spec(nodes)));
    let mut setup = Setup::new(&mut engine);
    let comm = MscclComm::new(&mut setup, MscclConfig::default());
    Fx {
        engine,
        comm,
        n: nodes * 8,
    }
}

/// Runs one checked f32 AllReduce on a fresh communicator and returns
/// its elapsed µs and the `msccl.*` instructions it issued.
fn check_allreduce(
    kind: EnvKind,
    nodes: usize,
    count: usize,
    algo: Option<(MscclAlgo, Proto, usize)>,
) -> (f64, u64) {
    let mut f = fixture(kind, nodes);
    let bufs: Vec<_> = (0..f.n)
        .map(|r| f.engine.world_mut().pool_mut().alloc(Rank(r), count * 4))
        .collect();
    let outs: Vec<_> = (0..f.n)
        .map(|r| f.engine.world_mut().pool_mut().alloc(Rank(r), count * 4))
        .collect();
    for (r, &buf) in bufs.iter().enumerate() {
        f.engine
            .world_mut()
            .pool_mut()
            .fill_with(buf, DataType::F32, move |i| input_val(r, i));
    }
    let t = f
        .comm
        .all_reduce(
            &mut f.engine,
            &bufs,
            &outs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            algo,
        )
        .unwrap();
    for r in [0, f.n - 1] {
        let got = f.engine.world().pool().to_f32_vec(outs[r], DataType::F32);
        for i in [0, count / 2, count - 1] {
            let want: f32 = (0..f.n).map(|s| input_val(s, i)).sum();
            assert!((got[i] - want).abs() < 1e-3, "rank {r} elem {i}");
        }
    }
    (
        t.elapsed().as_us(),
        f.engine.metrics().counter_sum("msccl."),
    )
}

#[test]
fn one_phase_all_pairs_correct() {
    check_allreduce(
        EnvKind::A100_40G,
        1,
        256,
        Some((MscclAlgo::OnePhaseAllPairs, Proto::LL, 1)),
    );
}

/// Explicit channel counts are honoured up to the communicator's four.
/// One-phase at 4 channels runs 4 thread blocks per rank, each sending
/// its slice to every peer: a 4,096-element message fits one FIFO slot
/// per block, so that is 4× the one-channel instructions. 8 channels run
/// as 4, for two-phase too.
#[test]
fn channel_counts_are_honoured_up_to_the_communicators() {
    let run =
        |algo, proto, nch| check_allreduce(EnvKind::A100_40G, 1, 4096, Some((algo, proto, nch))).1;
    let one = run(MscclAlgo::OnePhaseAllPairs, Proto::LL, 1);
    assert_eq!(run(MscclAlgo::OnePhaseAllPairs, Proto::LL, 4), 4 * one);
    assert_eq!(run(MscclAlgo::OnePhaseAllPairs, Proto::LL, 8), 4 * one);
    let two_phase = |nch| run(MscclAlgo::TwoPhaseAllPairs, Proto::Simple, nch);
    assert_eq!(two_phase(8), two_phase(4));
}

#[test]
fn two_phase_all_pairs_correct_ll_and_simple() {
    check_allreduce(
        EnvKind::A100_40G,
        1,
        20_000,
        Some((MscclAlgo::TwoPhaseAllPairs, Proto::LL, 2)),
    );
    check_allreduce(
        EnvKind::A100_40G,
        1,
        2_000_000,
        Some((MscclAlgo::TwoPhaseAllPairs, Proto::Simple, 4)),
    );
}

#[test]
fn hierarchical_correct_two_nodes() {
    check_allreduce(
        EnvKind::A100_40G,
        2,
        40_000,
        Some((MscclAlgo::TwoPhaseHierarchical, Proto::LL, 1)),
    );
    check_allreduce(
        EnvKind::A100_40G,
        2,
        1_000_000,
        Some((MscclAlgo::TwoPhaseHierarchical, Proto::Simple, 4)),
    );
}

#[test]
fn auto_tuning_correct_across_sizes() {
    for count in [64usize, 30_000, 1_000_000] {
        check_allreduce(EnvKind::A100_40G, 1, count, None);
    }
    check_allreduce(EnvKind::A100_40G, 2, 10_000, None);
}

#[test]
fn all_gather_correct_single_and_multi_node() {
    for nodes in [1usize, 2] {
        let mut f = fixture(EnvKind::A100_40G, nodes);
        let count = 600usize;
        let ins: Vec<_> = (0..f.n)
            .map(|r| f.engine.world_mut().pool_mut().alloc(Rank(r), count * 4))
            .collect();
        let outs: Vec<_> = (0..f.n)
            .map(|r| {
                f.engine
                    .world_mut()
                    .pool_mut()
                    .alloc(Rank(r), count * 4 * f.n)
            })
            .collect();
        for (r, &input) in ins.iter().enumerate() {
            f.engine
                .world_mut()
                .pool_mut()
                .fill_with(input, DataType::F32, move |i| input_val(r, i));
        }
        f.comm
            .all_gather(&mut f.engine, &ins, &outs, count, DataType::F32, None)
            .unwrap();
        for r in [0, f.n - 1] {
            let got = f.engine.world().pool().to_f32_vec(outs[r], DataType::F32);
            for src in 0..f.n {
                assert_eq!(
                    got[src * count + 1],
                    input_val(src, 1),
                    "{nodes} nodes rank {r} chunk {src}"
                );
            }
        }
    }
}

/// Building a communicator allocates its staging FIFOs (512 on 2n16g)
/// and creates none of their payload pages: a launch creates each page
/// it writes.
#[test]
fn building_a_communicator_creates_no_payload() {
    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(2)));
    let pool = |e: &Engine<Machine>| {
        let pool = e.world().pool();
        (pool.buffer_count(), pool.resident_bytes())
    };
    let (buffers, resident) = pool(&engine);
    let _comm = MscclComm::new(&mut Setup::new(&mut engine), MscclConfig::default());
    let (buffers_after, resident_after) = pool(&engine);
    assert_eq!(buffers_after, buffers + 512);
    assert_eq!(resident_after, resident);
}

/// The paper's §5.1 gain-breakdown ordering at 1 KB: NCCL (ring) is the
/// slowest, MSCCL (all-pairs over NCCL transport) is faster, and
/// MSCCL++ (all-pairs over MSCCL++ primitives) is the fastest.
#[test]
fn stack_ordering_at_1kb_matches_paper() {
    let count = 256usize; // 1 KB of f32

    let (msccl_us, _) = check_allreduce(
        EnvKind::A100_40G,
        1,
        count,
        Some((MscclAlgo::OnePhaseAllPairs, Proto::LL, 1)),
    );

    // NCCL ring.
    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    let mut setup = Setup::new(&mut engine);
    let nccl = ncclsim::NcclComm::new(&mut setup, ncclsim::NcclConfig::nccl());
    let bufs = setup.alloc_all(count * 4);
    let nccl_us = nccl
        .all_reduce(
            &mut engine,
            &bufs,
            &bufs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            ncclsim::tune(count * 4, 1),
        )
        .unwrap()
        .elapsed()
        .as_us();

    // MSCCL++ 1PA.
    let mut engine2 = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    hw::wire(&mut engine2);
    let bufs2: Vec<_> = (0..8)
        .map(|r| engine2.world_mut().pool_mut().alloc(Rank(r), count * 4))
        .collect();
    let comm = collective_stub(&mut engine2, &bufs2, count);

    assert!(
        msccl_us < nccl_us,
        "MSCCL ({msccl_us}us) should beat NCCL ({nccl_us}us) at 1KB"
    );
    assert!(
        comm < msccl_us,
        "MSCCL++ ({comm}us) should beat MSCCL ({msccl_us}us) at 1KB"
    );
    // §5.1: MSCCL++ cuts MSCCL's 1KB latency by ~47%.
    let cut = 1.0 - comm / msccl_us;
    assert!(
        cut > 0.25 && cut < 0.70,
        "latency cut {cut:.2} out of the expected band (MSCCL {msccl_us}us, MSCCL++ {comm}us)"
    );
}

fn collective_stub(engine: &mut Engine<Machine>, bufs: &[hw::BufferId], count: usize) -> f64 {
    let comm = collective::CollComm::new();
    comm.all_reduce_with(
        engine,
        bufs,
        bufs,
        count,
        DataType::F32,
        ReduceOp::Sum,
        collective::AllReduceAlgo::OnePhaseLl,
    )
    .unwrap()
    .elapsed()
    .as_us()
}
