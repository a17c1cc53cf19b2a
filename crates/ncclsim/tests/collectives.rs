//! Functional correctness of the NCCL baseline collectives: every
//! algorithm × protocol × topology combination actually reduces/moves
//! the right bytes, and relative timings behave like NCCL's.

use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
use mscclpp::Setup;
use ncclsim::{Algo, Choice, NcclComm, NcclConfig, Proto};
use sim::Engine;

struct Fixture {
    engine: Engine<Machine>,
    comm: NcclComm,
    n: usize,
}

fn fixture(kind: EnvKind, nodes: usize) -> Fixture {
    let mut engine = Engine::new(Machine::new(kind.spec(nodes)));
    let mut setup = Setup::new(&mut engine);
    let comm = NcclComm::new(&mut setup, NcclConfig::nccl());
    let n = nodes * 8;
    Fixture { engine, comm, n }
}

fn choice(algo: Algo, proto: Proto, channels: usize) -> Choice {
    Choice {
        algo,
        proto,
        channels,
    }
}

/// Element i of rank r's input.
fn input_val(r: usize, i: usize) -> f32 {
    (r + 1) as f32 + (i % 5) as f32
}

fn expected_sum(n: usize, i: usize) -> f32 {
    (0..n).map(|r| input_val(r, i)).sum()
}

fn check_all_reduce(kind: EnvKind, nodes: usize, count: usize, ch: Choice) {
    let mut f = fixture(kind, nodes);
    let inputs: Vec<_> = {
        let mut setup = Setup::new(&mut f.engine);
        setup.alloc_all(count * 4)
    };
    let outputs: Vec<_> = {
        let mut setup = Setup::new(&mut f.engine);
        setup.alloc_all(count * 4)
    };
    for (r, &input) in inputs.iter().enumerate() {
        f.engine
            .world_mut()
            .pool_mut()
            .fill_with(input, DataType::F32, move |i| input_val(r, i));
    }
    let t = f
        .comm
        .all_reduce(
            &mut f.engine,
            &inputs,
            &outputs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            ch,
        )
        .unwrap();
    for (r, &output) in outputs.iter().enumerate() {
        let got = f.engine.world().pool().to_f32_vec(output, DataType::F32);
        for i in [0, 1, count / 2, count - 1] {
            assert_eq!(
                got[i],
                expected_sum(f.n, i),
                "rank {r} elem {i} ({kind:?} {nodes}n {count} elems {ch:?})"
            );
        }
    }
    assert!(t.elapsed().as_us() > 0.0);
}

#[test]
fn ring_allreduce_simple_single_node() {
    check_all_reduce(
        EnvKind::A100_40G,
        1,
        4096,
        choice(Algo::Ring, Proto::Simple, 1),
    );
}

#[test]
fn ring_allreduce_ll_single_node() {
    check_all_reduce(EnvKind::A100_40G, 1, 4096, choice(Algo::Ring, Proto::LL, 1));
}

#[test]
fn ring_allreduce_multichannel() {
    check_all_reduce(
        EnvKind::A100_40G,
        1,
        100_000,
        choice(Algo::Ring, Proto::Simple, 4),
    );
}

#[test]
fn ring_allreduce_two_nodes() {
    check_all_reduce(
        EnvKind::A100_40G,
        2,
        8192,
        choice(Algo::Ring, Proto::Simple, 2),
    );
}

#[test]
fn tree_allreduce_two_nodes() {
    check_all_reduce(EnvKind::A100_40G, 2, 4096, choice(Algo::Tree, Proto::LL, 1));
}

#[test]
fn tree_allreduce_four_nodes_simple() {
    check_all_reduce(
        EnvKind::A100_40G,
        4,
        10_000,
        choice(Algo::Tree, Proto::Simple, 2),
    );
}

#[test]
fn tree_allreduce_single_node() {
    check_all_reduce(EnvKind::H100, 1, 2048, choice(Algo::Tree, Proto::LL, 1));
}

#[test]
fn ring_allreduce_on_mi300x_mesh() {
    check_all_reduce(
        EnvKind::MI300X,
        1,
        4096,
        choice(Algo::Ring, Proto::Simple, 1),
    );
}

#[test]
fn allreduce_spanning_multiple_fifo_batches() {
    // Message much larger than slots*slot_bytes forces credit wrap-around.
    check_all_reduce(
        EnvKind::A100_40G,
        1,
        3_000_000, // 12 MB, LL slots are 32 KB: hundreds of batches
        choice(Algo::Ring, Proto::LL, 1),
    );
}

#[test]
fn allreduce_in_place() {
    let mut f = fixture(EnvKind::A100_40G, 1);
    let count = 2048usize;
    let bufs: Vec<_> = {
        let mut setup = Setup::new(&mut f.engine);
        setup.alloc_all(count * 4)
    };
    for (r, &buf) in bufs.iter().enumerate() {
        f.engine
            .world_mut()
            .pool_mut()
            .fill_with(buf, DataType::F32, move |i| input_val(r, i));
    }
    f.comm
        .all_reduce(
            &mut f.engine,
            &bufs,
            &bufs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            choice(Algo::Ring, Proto::Simple, 1),
        )
        .unwrap();
    for (r, &buf) in bufs.iter().enumerate() {
        let got = f.engine.world().pool().to_f32_vec(buf, DataType::F32);
        assert_eq!(got[7], expected_sum(f.n, 7), "rank {r}");
    }
}

#[test]
fn all_gather_correct() {
    let mut f = fixture(EnvKind::A100_40G, 1);
    let count = 1000usize;
    let (inputs, outputs) = {
        let mut setup = Setup::new(&mut f.engine);
        (setup.alloc_all(count * 4), setup.alloc_all(count * 4 * f.n))
    };
    for (r, &input) in inputs.iter().enumerate() {
        f.engine
            .world_mut()
            .pool_mut()
            .fill_with(input, DataType::F32, move |i| input_val(r, i));
    }
    f.comm
        .all_gather(
            &mut f.engine,
            &inputs,
            &outputs,
            count,
            DataType::F32,
            choice(Algo::Ring, Proto::Simple, 2),
        )
        .unwrap();
    for (r, &output) in outputs.iter().enumerate() {
        let got = f.engine.world().pool().to_f32_vec(output, DataType::F32);
        for src in 0..f.n {
            for i in [0, count - 1] {
                assert_eq!(
                    got[src * count + i],
                    input_val(src, i),
                    "rank {r} chunk {src} elem {i}"
                );
            }
        }
    }
}

#[test]
fn all_gather_two_nodes_ll() {
    let mut f = fixture(EnvKind::A100_40G, 2);
    let count = 512usize;
    let (inputs, outputs) = {
        let mut setup = Setup::new(&mut f.engine);
        (setup.alloc_all(count * 4), setup.alloc_all(count * 4 * f.n))
    };
    for (r, &input) in inputs.iter().enumerate() {
        f.engine
            .world_mut()
            .pool_mut()
            .fill_with(input, DataType::F32, move |i| input_val(r, i));
    }
    f.comm
        .all_gather(
            &mut f.engine,
            &inputs,
            &outputs,
            count,
            DataType::F32,
            choice(Algo::Ring, Proto::LL, 1),
        )
        .unwrap();
    let got = f
        .engine
        .world()
        .pool()
        .to_f32_vec(outputs[13], DataType::F32);
    for src in 0..f.n {
        assert_eq!(got[src * count], input_val(src, 0), "chunk {src}");
    }
}

#[test]
fn reduce_scatter_correct() {
    let mut f = fixture(EnvKind::A100_40G, 1);
    let count = 768usize; // per-rank output elems
    let (inputs, outputs) = {
        let mut setup = Setup::new(&mut f.engine);
        (setup.alloc_all(count * 4 * f.n), setup.alloc_all(count * 4))
    };
    for (r, &input) in inputs.iter().enumerate() {
        f.engine
            .world_mut()
            .pool_mut()
            .fill_with(input, DataType::F32, move |i| input_val(r, i));
    }
    f.comm
        .reduce_scatter(
            &mut f.engine,
            &inputs,
            &outputs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            choice(Algo::Ring, Proto::Simple, 1),
        )
        .unwrap();
    for (r, &output) in outputs.iter().enumerate() {
        let got = f.engine.world().pool().to_f32_vec(output, DataType::F32);
        for i in [0, count - 1] {
            let global = r * count + i;
            let want: f32 = (0..f.n).map(|src| input_val(src, global)).sum();
            assert_eq!(got[i], want, "rank {r} elem {i}");
        }
    }
}

#[test]
fn broadcast_correct_from_nonzero_root() {
    let mut f = fixture(EnvKind::A100_40G, 1);
    let count = 1500usize;
    let (inputs, outputs) = {
        let mut setup = Setup::new(&mut f.engine);
        (setup.alloc_all(count * 4), setup.alloc_all(count * 4))
    };
    let root = 3usize;
    f.engine
        .world_mut()
        .pool_mut()
        .fill_with(inputs[root], DataType::F32, |i| i as f32 * 0.5);
    f.comm
        .broadcast(
            &mut f.engine,
            &inputs,
            &outputs,
            count,
            DataType::F32,
            Rank(root),
            choice(Algo::Ring, Proto::LL, 1),
        )
        .unwrap();
    for (r, &output) in outputs.iter().enumerate() {
        let got = f.engine.world().pool().to_f32_vec(output, DataType::F32);
        assert_eq!(got[100], 50.0, "rank {r}");
        assert_eq!(got[count - 1], (count - 1) as f32 * 0.5, "rank {r}");
    }
}

#[test]
fn f16_allreduce_is_close() {
    let mut f = fixture(EnvKind::A100_40G, 1);
    let count = 512usize;
    let bufs: Vec<_> = {
        let mut setup = Setup::new(&mut f.engine);
        setup.alloc_all(count * 2)
    };
    for (r, &buf) in bufs.iter().enumerate() {
        f.engine
            .world_mut()
            .pool_mut()
            .fill_with(buf, DataType::F16, move |i| ((r + i) % 8) as f32);
    }
    f.comm
        .all_reduce(
            &mut f.engine,
            &bufs,
            &bufs,
            count,
            DataType::F16,
            ReduceOp::Sum,
            choice(Algo::Ring, Proto::LL, 1),
        )
        .unwrap();
    let got = f.engine.world().pool().to_f32_vec(bufs[4], DataType::F16);
    let want: f32 = (0..8).map(|r| ((r) % 8) as f32).sum();
    // Small integers sum exactly in f16.
    assert_eq!(got[0], want);
}

#[test]
fn tree_beats_ring_for_small_multinode_messages() {
    // NCCL's tuning rationale: tree latency scales with log(nodes) +
    // chain, ring with 2(N-1).
    let count = 256usize; // 1 KB
    let time = |algo| {
        let mut f = fixture(EnvKind::A100_40G, 4);
        let bufs: Vec<_> = {
            let mut setup = Setup::new(&mut f.engine);
            setup.alloc_all(count * 4)
        };
        f.comm
            .all_reduce(
                &mut f.engine,
                &bufs,
                &bufs,
                count,
                DataType::F32,
                ReduceOp::Sum,
                choice(algo, Proto::LL, 1),
            )
            .unwrap()
            .elapsed()
            .as_us()
    };
    let ring = time(Algo::Ring);
    let tree = time(Algo::Tree);
    assert!(
        tree < ring,
        "tree ({tree}us) should beat ring ({ring}us) at 1KB x 4 nodes"
    );
}

#[test]
fn ll_beats_simple_small_and_loses_large() {
    let time = |proto, count: usize| {
        let mut f = fixture(EnvKind::A100_40G, 1);
        let bufs: Vec<_> = {
            let mut setup = Setup::new(&mut f.engine);
            setup.alloc_all(count * 4)
        };
        f.comm
            .all_reduce(
                &mut f.engine,
                &bufs,
                &bufs,
                count,
                DataType::F32,
                ReduceOp::Sum,
                choice(Algo::Ring, proto, 1),
            )
            .unwrap()
            .elapsed()
            .as_us()
    };
    let small_ll = time(Proto::LL, 256);
    let small_simple = time(Proto::Simple, 256);
    assert!(
        small_ll < small_simple,
        "LL {small_ll}us vs Simple {small_simple}us at 1KB"
    );
    let large_ll = time(Proto::LL, 16 << 20);
    let large_simple = time(Proto::Simple, 16 << 20);
    assert!(
        large_simple < large_ll,
        "Simple {large_simple}us vs LL {large_ll}us at 64MB"
    );
}

/// Building a communicator allocates its staging FIFOs and creates none
/// of their payload pages: a launch creates each page it writes.
#[test]
fn building_a_communicator_creates_no_payload() {
    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(2)));
    let pool = |e: &Engine<Machine>| {
        let pool = e.world().pool();
        (pool.buffer_count(), pool.resident_bytes())
    };
    let (buffers, resident) = pool(&engine);
    let _comm = NcclComm::new(&mut Setup::new(&mut engine), NcclConfig::nccl());
    let (buffers_after, resident_after) = pool(&engine);
    assert!(buffers_after > buffers, "no FIFO was allocated");
    assert_eq!(resident_after, resident);
}

/// A 1 KB one-channel LL ring AllReduce on one node creates the payload
/// pages of its 16 user buffers and, in each of channel 0's eight ring
/// FIFOs, one page per LL slot: a rank's 14 sends of 128 B land at the
/// start of slots 0..8, 32 KiB apart. It creates no other page: the rest
/// of each 4 MiB FIFO, the other channels' FIFOs and the tree's stay
/// untouched.
#[test]
fn small_ring_allreduce_creates_only_the_payloads_it_touches() {
    let mut f = fixture(EnvKind::A100_40G, 1);
    let count = 256usize;
    let (inputs, outputs) = {
        let mut setup = Setup::new(&mut f.engine);
        (setup.alloc_all(count * 4), setup.alloc_all(count * 4))
    };
    for (r, &input) in inputs.iter().enumerate() {
        f.engine
            .world_mut()
            .pool_mut()
            .fill_with(input, DataType::F32, move |i| input_val(r, i));
    }
    f.comm
        .all_reduce(
            &mut f.engine,
            &inputs,
            &outputs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            choice(Algo::Ring, Proto::LL, 1),
        )
        .unwrap();
    // 16 KiB of user buffers and 8 pages in each of eight FIFOs:
    // 278,528 bytes.
    let want = 2 * f.n * count * 4 + 8 * 8 * hw::PAGE_BYTES;
    assert_eq!(f.engine.world().pool().resident_bytes(), want as u64);
}
