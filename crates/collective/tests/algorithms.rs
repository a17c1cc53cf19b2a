//! Functional correctness of every MSCCL++ collective algorithm on every
//! relevant topology, plus the performance relationships the paper's
//! selection logic depends on.

use collective::{
    AllGatherAlgo, AllReduceAlgo, AllToAllAlgo, BroadcastAlgo, CollComm, PeerOrder,
    ReduceScatterAlgo, ScratchReuse,
};
use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
use sim::Engine;

fn engine(kind: EnvKind, nodes: usize) -> Engine<Machine> {
    let mut e = Engine::new(Machine::new(kind.spec(nodes)));
    hw::wire(&mut e);
    e
}

fn alloc_all(e: &mut Engine<Machine>, bytes: usize) -> Vec<hw::BufferId> {
    let n = e.world().topology().world_size();
    (0..n)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), bytes))
        .collect()
}

fn input_val(r: usize, i: usize) -> f32 {
    (r + 1) as f32 * 0.25 + (i % 7) as f32
}

fn fill_inputs(e: &mut Engine<Machine>, bufs: &[hw::BufferId]) {
    for (r, &b) in bufs.iter().enumerate() {
        e.world_mut()
            .pool_mut()
            .fill_with(b, DataType::F32, move |i| input_val(r, i));
    }
}

fn check_allreduce(kind: EnvKind, nodes: usize, count: usize, algo: AllReduceAlgo) {
    let mut e = engine(kind, nodes);
    let n = nodes * 8;
    let inputs = alloc_all(&mut e, count * 4);
    let outputs = alloc_all(&mut e, count * 4);
    fill_inputs(&mut e, &inputs);
    let comm = CollComm::new();
    let t = comm
        .all_reduce_with(
            &mut e,
            &inputs,
            &outputs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            algo,
        )
        .unwrap_or_else(|err| panic!("{algo:?} on {kind:?} x{nodes}: {err}"));
    for (r, &out) in outputs.iter().enumerate() {
        let got = e.world().pool().to_f32_vec(out, DataType::F32);
        for i in [0, 1, count / 3, count - 1] {
            let want: f32 = (0..n).map(|s| input_val(s, i)).sum();
            assert!(
                (got[i] - want).abs() < 1e-3,
                "rank {r} elem {i}: got {} want {want} ({algo:?})",
                got[i]
            );
        }
    }
    assert!(t.elapsed().as_us() > 0.0);
}

#[test]
fn allreduce_1pa_ll() {
    check_allreduce(EnvKind::A100_40G, 1, 256, AllReduceAlgo::OnePhaseLl);
}

#[test]
fn allreduce_2pa_ll_rotating() {
    check_allreduce(
        EnvKind::A100_40G,
        1,
        40_000,
        AllReduceAlgo::TwoPhaseLl {
            reuse: ScratchReuse::Rotate,
            order: PeerOrder::Staggered,
        },
    );
}

#[test]
fn allreduce_2pa_ll_barrier() {
    check_allreduce(
        EnvKind::A100_40G,
        1,
        40_000,
        AllReduceAlgo::TwoPhaseLl {
            reuse: ScratchReuse::Barrier,
            order: PeerOrder::Staggered,
        },
    );
}

#[test]
fn allreduce_2pa_hb() {
    check_allreduce(
        EnvKind::A100_40G,
        1,
        1_000_000,
        AllReduceAlgo::TwoPhaseHb {
            order: PeerOrder::Staggered,
        },
    );
}

#[test]
fn allreduce_2pa_hb_sequential_order() {
    check_allreduce(
        EnvKind::MI300X,
        1,
        500_000,
        AllReduceAlgo::TwoPhaseHb {
            order: PeerOrder::Sequential,
        },
    );
}

#[test]
fn allreduce_2pa_port() {
    check_allreduce(EnvKind::A100_40G, 1, 500_000, AllReduceAlgo::TwoPhasePort);
}

#[test]
fn allreduce_2pa_switch_h100() {
    check_allreduce(EnvKind::H100, 1, 800_000, AllReduceAlgo::TwoPhaseSwitch);
}

#[test]
fn allreduce_switch_rejected_on_a100() {
    let mut e = engine(EnvKind::A100_40G, 1);
    let inputs = alloc_all(&mut e, 1024);
    let comm = CollComm::new();
    let err = comm
        .all_reduce_with(
            &mut e,
            &inputs,
            &inputs,
            256,
            DataType::F32,
            ReduceOp::Sum,
            AllReduceAlgo::TwoPhaseSwitch,
        )
        .unwrap_err();
    assert!(matches!(err, mscclpp::Error::Unsupported(_)), "{err}");
}

#[test]
fn allreduce_hier_ll_two_nodes() {
    check_allreduce(EnvKind::A100_40G, 2, 4096, AllReduceAlgo::HierLl);
}

#[test]
fn allreduce_hier_hb_two_nodes() {
    check_allreduce(EnvKind::A100_40G, 2, 2_000_000, AllReduceAlgo::HierHb);
}

#[test]
fn allreduce_hier_hb_four_nodes() {
    check_allreduce(EnvKind::A100_40G, 4, 300_000, AllReduceAlgo::HierHb);
}

#[test]
fn allreduce_hier_ll_four_nodes() {
    check_allreduce(EnvKind::A100_40G, 4, 1024, AllReduceAlgo::HierLl);
}

#[test]
fn allreduce_auto_selection_all_sizes() {
    for count in [64usize, 8192, 262_144, 4_000_000] {
        check_allreduce(
            EnvKind::A100_40G,
            1,
            count,
            collective::select_all_reduce(&Machine::new(EnvKind::A100_40G.spec(1)), count * 4),
        );
    }
}

#[test]
fn allreduce_rotating_scratch_is_safe_across_repeated_calls() {
    // Repeated collectives on the same buffers (the inference pattern)
    // must stay correct while alternating scratch sets.
    let mut e = engine(EnvKind::A100_40G, 1);
    let count = 10_000usize;
    let inputs = alloc_all(&mut e, count * 4);
    let outputs = alloc_all(&mut e, count * 4);
    let comm = CollComm::new();
    for iter in 0..5 {
        for (r, &b) in inputs.iter().enumerate() {
            e.world_mut()
                .pool_mut()
                .fill_with(b, DataType::F32, move |i| input_val(r, i) + iter as f32);
        }
        comm.all_reduce_with(
            &mut e,
            &inputs,
            &outputs,
            count,
            DataType::F32,
            ReduceOp::Sum,
            AllReduceAlgo::TwoPhaseLl {
                reuse: ScratchReuse::Rotate,
                order: PeerOrder::Staggered,
            },
        )
        .unwrap();
        let got = e.world().pool().to_f32_vec(outputs[5], DataType::F32);
        let want: f32 = (0..8).map(|s| input_val(s, 3) + iter as f32).sum();
        assert!((got[3] - want).abs() < 1e-3, "iter {iter}");
    }
}

fn check_allgather(kind: EnvKind, nodes: usize, count: usize, algo: AllGatherAlgo) {
    let mut e = engine(kind, nodes);
    let n = nodes * 8;
    let inputs = alloc_all(&mut e, count * 4);
    let outputs = alloc_all(&mut e, count * 4 * n);
    fill_inputs(&mut e, &inputs);
    let comm = CollComm::new();
    comm.all_gather_with(&mut e, &inputs, &outputs, count, DataType::F32, algo)
        .unwrap_or_else(|err| panic!("{algo:?} on {kind:?} x{nodes}: {err}"));
    for r in [0, n / 2, n - 1] {
        let got = e.world().pool().to_f32_vec(outputs[r], DataType::F32);
        for src in 0..n {
            for i in [0, count - 1] {
                assert_eq!(
                    got[src * count + i],
                    input_val(src, i),
                    "rank {r} chunk {src} elem {i} ({algo:?})"
                );
            }
        }
    }
}

#[test]
fn allgather_ap_ll() {
    check_allgather(EnvKind::A100_40G, 1, 512, AllGatherAlgo::AllPairsLl);
}

#[test]
fn allgather_ap_hb() {
    check_allgather(EnvKind::A100_40G, 1, 500_000, AllGatherAlgo::AllPairsHb);
}

#[test]
fn allgather_hier_ll_two_nodes() {
    check_allgather(EnvKind::A100_40G, 2, 512, AllGatherAlgo::HierLl);
}

#[test]
fn allgather_hier_hb_two_nodes() {
    check_allgather(EnvKind::A100_40G, 2, 200_000, AllGatherAlgo::HierHb);
}

#[test]
fn allgather_mi300x() {
    check_allgather(EnvKind::MI300X, 1, 100_000, AllGatherAlgo::AllPairsHb);
}

#[test]
fn reduce_scatter_single_node() {
    let mut e = engine(EnvKind::A100_40G, 1);
    let n = 8usize;
    let count = 4096usize; // total per-rank input
    let inputs = alloc_all(&mut e, count * 4);
    let outputs = alloc_all(&mut e, (count / n + 1) * 4 * 2);
    fill_inputs(&mut e, &inputs);
    let comm = CollComm::new();
    comm.reduce_scatter_with(
        &mut e,
        &inputs,
        &outputs,
        count,
        DataType::F32,
        ReduceOp::Sum,
        ReduceScatterAlgo::AllPairsLl,
    )
    .unwrap();
    for (r, &out) in outputs.iter().enumerate() {
        let got = e.world().pool().to_f32_vec(out, DataType::F32);
        // Shards are nearly equal: rank r owns split_range(count, n, r).
        let base = count / n;
        let start = r * base; // count divisible by 8 here
        for i in [0, base - 1] {
            let want: f32 = (0..n).map(|s| input_val(s, start + i)).sum();
            assert!(
                (got[i] - want).abs() < 1e-3,
                "rank {r} elem {i}: {} vs {want}",
                got[i]
            );
        }
    }
}

#[test]
fn reduce_scatter_two_nodes_mixed_channels() {
    let mut e = engine(EnvKind::A100_40G, 2);
    let n = 16usize;
    let count = 1600usize;
    let inputs = alloc_all(&mut e, count * 4);
    let outputs = alloc_all(&mut e, (count / n) * 4);
    fill_inputs(&mut e, &inputs);
    let comm = CollComm::new();
    comm.reduce_scatter_with(
        &mut e,
        &inputs,
        &outputs,
        count,
        DataType::F32,
        ReduceOp::Sum,
        ReduceScatterAlgo::AllPairsHb,
    )
    .unwrap();
    let base = count / n;
    for r in [0usize, 7, 8, 15] {
        let got = e.world().pool().to_f32_vec(outputs[r], DataType::F32);
        let want: f32 = (0..n).map(|s| input_val(s, r * base)).sum();
        assert!((got[0] - want).abs() < 1e-3, "rank {r}");
    }
}

#[test]
fn broadcast_direct_single_node() {
    let mut e = engine(EnvKind::A100_40G, 1);
    let count = 3000usize;
    let inputs = alloc_all(&mut e, count * 4);
    let outputs = alloc_all(&mut e, count * 4);
    e.world_mut()
        .pool_mut()
        .fill_with(inputs[2], DataType::F32, |i| i as f32);
    let comm = CollComm::new();
    comm.broadcast_with(
        &mut e,
        &inputs,
        &outputs,
        count,
        DataType::F32,
        Rank(2),
        BroadcastAlgo::Direct,
    )
    .unwrap();
    for (r, &out) in outputs.iter().enumerate() {
        let got = e.world().pool().to_f32_vec(out, DataType::F32);
        assert_eq!(got[count - 1], (count - 1) as f32, "rank {r}");
    }
}

#[test]
fn broadcast_direct_two_nodes() {
    let mut e = engine(EnvKind::A100_40G, 2);
    let count = 2048usize;
    let inputs = alloc_all(&mut e, count * 4);
    let outputs = alloc_all(&mut e, count * 4);
    e.world_mut()
        .pool_mut()
        .fill_with(inputs[5], DataType::F32, |i| (i * 2) as f32);
    let comm = CollComm::new();
    comm.broadcast_with(
        &mut e,
        &inputs,
        &outputs,
        count,
        DataType::F32,
        Rank(5),
        BroadcastAlgo::Direct,
    )
    .unwrap();
    for r in [0usize, 5, 8, 13, 15] {
        let got = e.world().pool().to_f32_vec(outputs[r], DataType::F32);
        assert_eq!(got[10], 20.0, "rank {r}");
    }
}

#[test]
fn broadcast_switch_h100() {
    let mut e = engine(EnvKind::H100, 1);
    let count = 4096usize;
    let inputs = alloc_all(&mut e, count * 4);
    let outputs = alloc_all(&mut e, count * 4);
    e.world_mut()
        .pool_mut()
        .fill_with(inputs[0], DataType::F32, |i| i as f32 + 0.5);
    let comm = CollComm::new();
    comm.broadcast_with(
        &mut e,
        &inputs,
        &outputs,
        count,
        DataType::F32,
        Rank(0),
        BroadcastAlgo::Switch,
    )
    .unwrap();
    for (r, &out) in outputs.iter().enumerate() {
        let got = e.world().pool().to_f32_vec(out, DataType::F32);
        assert_eq!(got[7], 7.5, "rank {r}");
    }
}

#[test]
fn allreduce_ring_healthy() {
    check_allreduce(EnvKind::A100_40G, 1, 100_000, AllReduceAlgo::Ring);
}

#[test]
fn allreduce_ring_mi300x() {
    check_allreduce(EnvKind::MI300X, 1, 64, AllReduceAlgo::Ring);
}

#[test]
fn allreduce_ring_routes_around_dead_link() {
    // A mesh link dies permanently before launch. The auto path must
    // re-plan onto a ring ordering that avoids the dead pair and still
    // produce the correct sums — measurably slower than a healthy run.
    let count = 500_000usize;
    let healthy = allreduce_time(
        EnvKind::MI300X,
        1,
        count,
        AllReduceAlgo::TwoPhaseHb {
            order: PeerOrder::Staggered,
        },
    );

    let mut e = engine(EnvKind::MI300X, 1);
    e.set_fault_plan(sim::FaultPlan::new(7).link_down_forever(2, 3, sim::Time::ZERO));
    let inputs = alloc_all(&mut e, count * 4);
    let outputs = alloc_all(&mut e, count * 4);
    fill_inputs(&mut e, &inputs);
    let comm = CollComm::new();
    let t = comm
        .all_reduce(
            &mut e,
            &inputs,
            &outputs,
            count,
            DataType::F32,
            ReduceOp::Sum,
        )
        .expect("degraded plan must complete");
    assert!(
        e.metrics().counter("fault.replans") >= 1,
        "auto path must record the re-plan"
    );
    for (r, &out) in outputs.iter().enumerate() {
        let got = e.world().pool().to_f32_vec(out, DataType::F32);
        for i in [0, count / 3, count - 1] {
            let want: f32 = (0..8).map(|s| input_val(s, i)).sum();
            assert!((got[i] - want).abs() < 1e-3, "rank {r} elem {i}");
        }
    }
    assert!(
        t.elapsed().as_us() > healthy,
        "ring fallback ({}us) should be slower than healthy all-pairs ({healthy}us)",
        t.elapsed().as_us()
    );
}

#[test]
fn allreduce_degrades_switch_to_hb_when_multimem_dies() {
    let count = 800_000usize;
    let mut e = engine(EnvKind::H100, 1);
    e.set_fault_plan(sim::FaultPlan::new(1).multimem_down_forever(sim::Time::ZERO));
    let inputs = alloc_all(&mut e, count * 4);
    let outputs = alloc_all(&mut e, count * 4);
    fill_inputs(&mut e, &inputs);
    let comm = CollComm::new();
    comm.all_reduce(
        &mut e,
        &inputs,
        &outputs,
        count,
        DataType::F32,
        ReduceOp::Sum,
    )
    .expect("switch plan must fall back to HB");
    assert!(e.metrics().counter("fault.replans") >= 1);
    assert_eq!(
        e.metrics().counter("instr.switch_reduce"),
        0,
        "degraded plan must not touch the dead multimem unit"
    );
    let got = e.world().pool().to_f32_vec(outputs[4], DataType::F32);
    let want: f32 = (0..8).map(|s| input_val(s, 11)).sum();
    assert!((got[11] - want).abs() < 1e-3);
}

#[test]
fn allreduce_ring_fails_typed_when_no_ring_exists() {
    // Rank 0 loses every link: no Hamiltonian cycle exists and the
    // planner must say which pair is dead rather than hang.
    let mut e = engine(EnvKind::MI300X, 1);
    let mut plan = sim::FaultPlan::new(3);
    for peer in 1..8 {
        plan = plan.link_down_forever(0, peer, sim::Time::ZERO);
    }
    e.set_fault_plan(plan);
    let inputs = alloc_all(&mut e, 4096);
    let outputs = alloc_all(&mut e, 4096);
    let comm = CollComm::new();
    let err = comm
        .all_reduce_with(
            &mut e,
            &inputs,
            &outputs,
            1024,
            DataType::F32,
            ReduceOp::Sum,
            AllReduceAlgo::Ring,
        )
        .unwrap_err();
    assert!(matches!(err, mscclpp::Error::LinkDown(_)), "{err}");
    assert!(err.to_string().contains("permanently down"), "{err}");
}

// ---- Performance relationships the selector depends on -----------------

fn allreduce_time(kind: EnvKind, nodes: usize, count: usize, algo: AllReduceAlgo) -> f64 {
    let mut e = engine(kind, nodes);
    let inputs = alloc_all(&mut e, count * 4);
    let outputs = alloc_all(&mut e, count * 4);
    fill_inputs(&mut e, &inputs);
    let comm = CollComm::new();
    comm.all_reduce_with(
        &mut e,
        &inputs,
        &outputs,
        count,
        DataType::F32,
        ReduceOp::Sum,
        algo,
    )
    .unwrap()
    .elapsed()
    .as_us()
}

#[test]
fn crossover_1pa_beats_2pa_at_1kb_and_loses_at_256kb() {
    let two_pa = AllReduceAlgo::TwoPhaseLl {
        reuse: ScratchReuse::Rotate,
        order: PeerOrder::Staggered,
    };
    let t1pa_small = allreduce_time(EnvKind::A100_40G, 1, 256, AllReduceAlgo::OnePhaseLl);
    let t2pa_small = allreduce_time(EnvKind::A100_40G, 1, 256, two_pa);
    assert!(
        t1pa_small <= t2pa_small * 1.05,
        "1PA {t1pa_small}us vs 2PA {t2pa_small}us at 1KB"
    );
    let t1pa_big = allreduce_time(EnvKind::A100_40G, 1, 65_536, AllReduceAlgo::OnePhaseLl);
    let t2pa_big = allreduce_time(EnvKind::A100_40G, 1, 65_536, two_pa);
    assert!(
        t2pa_big < t1pa_big,
        "2PA {t2pa_big}us should beat 1PA {t1pa_big}us at 256KB"
    );
}

#[test]
fn switch_channel_beats_memory_channel_on_h100_large() {
    let hb = AllReduceAlgo::TwoPhaseHb {
        order: PeerOrder::Staggered,
    };
    let count = 16 << 20; // 64 MB
    let t_hb = allreduce_time(EnvKind::H100, 1, count, hb);
    let t_sw = allreduce_time(EnvKind::H100, 1, count, AllReduceAlgo::TwoPhaseSwitch);
    let gain = t_hb / t_sw - 1.0;
    assert!(
        gain > 0.3,
        "switch should be much faster: HB {t_hb}us, switch {t_sw}us, gain {gain}"
    );
}

#[test]
fn staggered_peer_order_wins_on_mesh() {
    // §5.3: on Infinity Fabric, writing to all peers simultaneously is
    // essential; the sequential order leaves pair links idle.
    let count = 4 << 20;
    let seq = allreduce_time(
        EnvKind::MI300X,
        1,
        count,
        AllReduceAlgo::TwoPhaseHb {
            order: PeerOrder::Sequential,
        },
    );
    let stag = allreduce_time(
        EnvKind::MI300X,
        1,
        count,
        AllReduceAlgo::TwoPhaseHb {
            order: PeerOrder::Staggered,
        },
    );
    assert!(
        stag < seq,
        "staggered {stag}us should beat sequential {seq}us on MI300x"
    );
}

#[test]
fn port_channel_beats_memory_channel_at_1gb() {
    // §5.1: PortChannel (DMA, 263 GB/s) achieves ~6% higher bandwidth
    // than MemoryChannel (thread copy, 227 GB/s) at 1 GB single-node.
    let count = 64 << 20; // 256 MB in f32 (keep test runtime sane)
    let hb = allreduce_time(
        EnvKind::A100_40G,
        1,
        count,
        AllReduceAlgo::TwoPhaseHb {
            order: PeerOrder::Staggered,
        },
    );
    let port = allreduce_time(EnvKind::A100_40G, 1, count, AllReduceAlgo::TwoPhasePort);
    assert!(
        port < hb,
        "port {port}us should beat memory (thread-copy) {hb}us at 256MB"
    );
}

#[test]
fn hier_hb_beats_hier_ll_for_large_multinode() {
    let small = 2048;
    let big = 4 << 20;
    let ll_small = allreduce_time(EnvKind::A100_40G, 2, small, AllReduceAlgo::HierLl);
    let hb_small = allreduce_time(EnvKind::A100_40G, 2, small, AllReduceAlgo::HierHb);
    assert!(
        ll_small < hb_small,
        "LL {ll_small}us should beat HB {hb_small}us at 8KB x 2 nodes"
    );
    let ll_big = allreduce_time(EnvKind::A100_40G, 2, big, AllReduceAlgo::HierLl);
    let hb_big = allreduce_time(EnvKind::A100_40G, 2, big, AllReduceAlgo::HierHb);
    assert!(
        hb_big < ll_big,
        "HB {hb_big}us should beat LL {ll_big}us at 16MB x 2 nodes"
    );
}

#[test]
fn all_to_all_single_node() {
    let mut e = engine(EnvKind::A100_40G, 1);
    let n = 8usize;
    let count = 500usize; // per-pair chunk elems
    let inputs = alloc_all(&mut e, count * 4 * n);
    let outputs = alloc_all(&mut e, count * 4 * n);
    for (r, &b) in inputs.iter().enumerate() {
        e.world_mut()
            .pool_mut()
            .fill_with(b, DataType::F32, move |i| (r * 10_000 + i) as f32);
    }
    let comm = CollComm::new();
    comm.all_to_all(&mut e, &inputs, &outputs, count, DataType::F32)
        .unwrap();
    for (dst, &out) in outputs.iter().enumerate() {
        let got = e.world().pool().to_f32_vec(out, DataType::F32);
        for src in 0..n {
            // src's chunk dst lands in dst's slot src.
            let want = (src * 10_000 + dst * count + 3) as f32;
            assert_eq!(got[src * count + 3], want, "dst {dst} src {src}");
        }
    }
}

#[test]
fn all_to_all_two_nodes_mixed_transport() {
    let mut e = engine(EnvKind::A100_40G, 2);
    let n = 16usize;
    let count = 256usize;
    let inputs = alloc_all(&mut e, count * 4 * n);
    let outputs = alloc_all(&mut e, count * 4 * n);
    for (r, &b) in inputs.iter().enumerate() {
        e.world_mut()
            .pool_mut()
            .fill_with(b, DataType::F32, move |i| (r * 100_000 + i) as f32);
    }
    let comm = CollComm::new();
    comm.all_to_all_with(
        &mut e,
        &inputs,
        &outputs,
        count,
        DataType::F32,
        collective::AllToAllAlgo::AllPairsHb,
    )
    .unwrap();
    for dst in [0usize, 7, 8, 15] {
        let got = e.world().pool().to_f32_vec(outputs[dst], DataType::F32);
        for src in [0usize, 9, 15] {
            let want = (src * 100_000 + dst * count) as f32;
            assert_eq!(got[src * count], want, "dst {dst} src {src}");
        }
    }
}

#[test]
fn allgather_port_dma_correct_and_faster_than_thread_copy() {
    let count = 2 << 20; // 8 MB per rank chunk
    let time = |algo| {
        let mut e = engine(EnvKind::A100_40G, 1);
        let inputs = alloc_all(&mut e, count * 4);
        let outputs = alloc_all(&mut e, count * 4 * 8);
        fill_inputs(&mut e, &inputs);
        let comm = CollComm::new();
        let t = comm
            .all_gather_with(&mut e, &inputs, &outputs, count, DataType::F32, algo)
            .unwrap();
        let got = e.world().pool().to_f32_vec(outputs[2], DataType::F32);
        for src in [0usize, 5, 7] {
            assert_eq!(got[src * count + 9], input_val(src, 9), "{algo:?}");
        }
        t.elapsed().as_us()
    };
    let thread = time(AllGatherAlgo::AllPairsHb);
    let dma = time(AllGatherAlgo::AllPairsPort);
    assert!(
        dma < thread,
        "DMA AllGather ({dma}us) should beat thread-copy ({thread}us) at 8MB chunks"
    );
    // The edge should be near the 263/227 link-rate ratio.
    let gain = thread / dma - 1.0;
    assert!((0.03..0.25).contains(&gain), "gain {gain:.3}");
}

/// One collective with a fixed explicit algorithm, for driving the
/// planned, unverified and verified launch paths alike.
#[derive(Debug, Clone, Copy)]
enum Launch {
    AllReduce,
    AllGather,
    ReduceScatter,
    Broadcast,
    AllToAll,
}

impl Launch {
    const ALL: [Launch; 5] = [
        Launch::AllReduce,
        Launch::AllGather,
        Launch::ReduceScatter,
        Launch::Broadcast,
        Launch::AllToAll,
    ];
    const RANKS: usize = 8;
    const ROOT: Rank = Rank(3);
    const AR: AllReduceAlgo = AllReduceAlgo::TwoPhaseLl {
        reuse: ScratchReuse::Rotate,
        order: PeerOrder::Staggered,
    };
    const AG: AllGatherAlgo = AllGatherAlgo::AllPairsLl;
    const RS: ReduceScatterAlgo = ReduceScatterAlgo::AllPairsLl;
    const BC: BroadcastAlgo = BroadcastAlgo::Direct;
    const A2A: AllToAllAlgo = AllToAllAlgo::AllPairsLl;

    /// Per-rank (input, output) f32 elements for a launch of `count`.
    fn elems(self, count: usize) -> (usize, usize) {
        let n = Launch::RANKS;
        match self {
            Launch::AllReduce | Launch::Broadcast => (count, count),
            Launch::AllGather => (count, count * n),
            Launch::ReduceScatter => (count, count.div_ceil(n)),
            Launch::AllToAll => (count * n, count * n),
        }
    }

    fn run(
        self,
        comm: &CollComm,
        e: &mut Engine<Machine>,
        ins: &[hw::BufferId],
        outs: &[hw::BufferId],
        count: usize,
    ) -> mscclpp::KernelTiming {
        let (dt, sum, root) = (DataType::F32, ReduceOp::Sum, Launch::ROOT);
        match self {
            Launch::AllReduce => comm.all_reduce_with(e, ins, outs, count, dt, sum, Launch::AR),
            Launch::AllGather => comm.all_gather_with(e, ins, outs, count, dt, Launch::AG),
            Launch::ReduceScatter => {
                comm.reduce_scatter_with(e, ins, outs, count, dt, sum, Launch::RS)
            }
            Launch::Broadcast => comm.broadcast_with(e, ins, outs, count, dt, root, Launch::BC),
            Launch::AllToAll => comm.all_to_all_with(e, ins, outs, count, dt, Launch::A2A),
        }
        .unwrap_or_else(|err| panic!("{self:?} x{count}: {err}"))
    }

    fn plan(
        self,
        comm: &CollComm,
        e: &mut Engine<Machine>,
        ins: &[hw::BufferId],
        outs: &[hw::BufferId],
        count: usize,
    ) {
        let (dt, sum, root) = (DataType::F32, ReduceOp::Sum, Launch::ROOT);
        match self {
            Launch::AllReduce => {
                comm.plan_all_reduce_with(e, ins, outs, count, dt, sum, Launch::AR)
            }
            Launch::AllGather => comm.plan_all_gather_with(e, ins, outs, count, dt, Launch::AG),
            Launch::ReduceScatter => {
                comm.plan_reduce_scatter_with(e, ins, outs, count, dt, sum, Launch::RS)
            }
            Launch::Broadcast => {
                comm.plan_broadcast_with(e, ins, outs, count, dt, root, Launch::BC)
            }
            Launch::AllToAll => comm.plan_all_to_all_with(e, ins, outs, count, dt, Launch::A2A),
        }
        .unwrap_or_else(|err| panic!("plan {self:?} x{count}: {err}"));
    }

    /// What every rank's output must start with, from the inputs.
    fn expected(self, inputs: &[Vec<f32>], count: usize) -> Vec<Vec<f32>> {
        let n = Launch::RANKS;
        let sum_at = |i: usize| (0..n).map(|s| inputs[s][i]).sum::<f32>();
        (0..n)
            .map(|r| match self {
                Launch::AllReduce => (0..count).map(sum_at).collect(),
                Launch::AllGather => (0..n)
                    .flat_map(|s| inputs[s][..count].iter().copied())
                    .collect(),
                Launch::ReduceScatter => {
                    let (start, len) = mscclpp::split_range(count, n, r);
                    (start..start + len).map(sum_at).collect()
                }
                Launch::Broadcast => inputs[Launch::ROOT.0][..count].to_vec(),
                Launch::AllToAll => (0..n)
                    .flat_map(|s| inputs[s][r * count..(r + 1) * count].iter().copied())
                    .collect(),
            })
            .collect()
    }
}

/// Fills every rank's input for one round with small dyadic values, so
/// sums are exact whatever the reduction order, and different rounds
/// never share an output.
fn fill_round(e: &mut Engine<Machine>, bufs: &[hw::BufferId], round: usize) -> Vec<Vec<f32>> {
    bufs.iter()
        .enumerate()
        .map(|(r, &b)| {
            let val =
                move |i: usize| (r + 1) as f32 * 0.25 + ((i + round) % 7) as f32 + round as f32;
            e.world_mut().pool_mut().fill_with(b, DataType::F32, val);
            e.world().pool().to_f32_vec(b, DataType::F32)
        })
        .collect()
}

fn output_bytes(e: &Engine<Machine>, outs: &[hw::BufferId]) -> Vec<Vec<u8>> {
    let pool = e.world().pool();
    outs.iter()
        .map(|&b| pool.bytes(b, 0, pool.len(b)).to_vec())
        .collect()
}

/// Pins the contract every collective's launch path keeps: planning
/// first and then launching unverified is the same launch as one
/// verified launch, and one communicator stays exact across a grow
/// (re-prepare) and a shrink back (cached-batch rebuild).
#[test]
fn planned_launch_matches_verified_launch_and_resizes_stay_exact() {
    let (a, b) = (1000usize, 3000usize);
    for launch in Launch::ALL {
        let setup = |count: usize| {
            let mut e = engine(EnvKind::A100_40G, 1);
            let (ie, oe) = launch.elems(count);
            let ins = alloc_all(&mut e, ie * 4);
            let outs = alloc_all(&mut e, oe * 4);
            fill_round(&mut e, &ins, 0);
            (e, ins, outs)
        };

        let (mut e, ins, outs) = setup(a);
        let verified = launch.run(&CollComm::new(), &mut e, &ins, &outs, a);
        let verified_run = (verified, e.events_processed(), output_bytes(&e, &outs));

        let (mut e, ins, outs) = setup(a);
        let mut comm = CollComm::new();
        launch.plan(&comm, &mut e, &ins, &outs, a);
        comm.set_verify(false);
        let split = launch.run(&comm, &mut e, &ins, &outs, a);
        let split_run = (split, e.events_processed(), output_bytes(&e, &outs));
        assert_eq!(
            verified_run, split_run,
            "{launch:?}: plan + unverified launch"
        );

        let (mut e, ins, outs) = setup(b);
        let comm = CollComm::new();
        for (round, count) in [a, b, a].into_iter().enumerate() {
            let inputs = fill_round(&mut e, &ins, round + 1);
            launch.run(&comm, &mut e, &ins, &outs, count);
            for (r, want) in launch.expected(&inputs, count).iter().enumerate() {
                let got = e.world().pool().to_f32_vec(outs[r], DataType::F32);
                assert_eq!(
                    &got[..want.len()],
                    &want[..],
                    "{launch:?} round {round} (x{count}) rank {r}"
                );
            }
        }
    }
}

/// What one payload-mode A/B case runs.
#[derive(Debug, Clone, Copy)]
enum AbRun {
    /// Two in-place AllReduces with a fixed algorithm; the second reuses
    /// the cached plan, as serving does.
    AllReduce(AllReduceAlgo),
    /// An AllGather with the default selection.
    AllGather,
    /// A default out-of-place AllReduce that a rank death interrupts,
    /// the `shrink` that replays it on the survivors, and one more
    /// AllReduce on the shrunken epoch.
    Shrink,
}

/// Everything a timing-only run must reproduce from a bytes run.
struct AbRecord {
    launches: Vec<Result<mscclpp::KernelTiming, String>>,
    recovery: Option<String>,
    now: sim::Time,
    events: u64,
    moved_bytes: u64,
    counters: Vec<(String, u64)>,
    resources: Vec<sim::ResourceStat>,
}

/// Runs `run` over f16 buffers of `bytes` per rank on a bytes machine
/// with filled inputs, or on a timing-only machine with none.
fn run_ab(kind: EnvKind, nodes: usize, bytes: usize, run: AbRun, timing_only: bool) -> AbRecord {
    let spec = kind.spec(nodes);
    let mut e = Engine::new(if timing_only {
        Machine::timing_only(spec)
    } else {
        Machine::new(spec)
    });
    if matches!(run, AbRun::Shrink) {
        e.set_fault_plan(
            sim::FaultPlan::new(7)
                .rank_down(3, sim::Time::from_ps(1_000_000))
                .with_wait_timeout(sim::Duration::from_us(300.0)),
        );
    }
    hw::wire(&mut e);
    let (f16, sum, count) = (DataType::F16, ReduceOp::Sum, bytes / 2);
    let bufs = alloc_all(&mut e, bytes);
    if !timing_only {
        for (r, &b) in bufs.iter().enumerate() {
            e.world_mut()
                .pool_mut()
                .fill_with(b, f16, move |i| input_val(r, i));
        }
    }
    let comm = CollComm::new();
    let mut launches = Vec::new();
    let mut recovery = None;
    match run {
        AbRun::AllReduce(algo) => {
            for _ in 0..2 {
                launches.push(comm.all_reduce_with(&mut e, &bufs, &bufs, count, f16, sum, algo));
            }
        }
        AbRun::AllGather => {
            let outputs = alloc_all(&mut e, bytes * nodes * 8);
            launches.push(comm.all_gather(&mut e, &bufs, &outputs, count, f16));
        }
        AbRun::Shrink => {
            let outputs = alloc_all(&mut e, bytes);
            let interrupted = comm.all_reduce(&mut e, &bufs, &outputs, count, f16, sum);
            assert!(interrupted.is_err(), "the rank death must interrupt it");
            launches.push(interrupted);
            let r = comm.shrink(&mut e, &[]).expect("shrink after a rank death");
            assert_eq!(r.outcome, collective::RecoveryOutcome::Replayed);
            recovery = Some(format!("{r:?}"));
            launches.push(comm.all_reduce(&mut e, &bufs, &outputs, count, f16, sum));
        }
    }
    AbRecord {
        launches: launches
            .into_iter()
            .map(|l| l.map_err(|err| err.to_string()))
            .collect(),
        recovery,
        now: e.now(),
        events: e.events_processed(),
        moved_bytes: e.world().pool().moved_bytes(),
        counters: e
            .metrics()
            .counters()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
        resources: e.metrics().resources(),
    }
}

/// The payload mode is inert for every plan the serving loop can reach:
/// each AllReduce algorithm a selector or shrink can return, the default
/// AllGather and a shrink replay take the same virtual time, events,
/// data-plane traffic, counters and link occupancy on a timing-only
/// machine as on a bytes machine.
#[test]
fn timing_only_machine_matches_bytes_machine() {
    let two_ll = |reuse| AllReduceAlgo::TwoPhaseLl {
        reuse,
        order: PeerOrder::Staggered,
    };
    let hb = AllReduceAlgo::TwoPhaseHb {
        order: PeerOrder::Staggered,
    };
    use AllReduceAlgo::{HierHb, HierLl, OnePhaseLl, Ring, TwoPhasePort, TwoPhaseSwitch};
    let (a100, ar) = (EnvKind::A100_40G, AbRun::AllReduce);
    let cases = [
        (a100, 1, 8 << 10, ar(OnePhaseLl)),
        (a100, 1, 80 << 10, ar(two_ll(ScratchReuse::Rotate))),
        (a100, 1, 80 << 10, ar(two_ll(ScratchReuse::Barrier))),
        (a100, 1, 1 << 20, ar(hb)),
        (a100, 1, 1 << 20, ar(TwoPhasePort)),
        (EnvKind::H100, 1, 1 << 20, ar(TwoPhaseSwitch)),
        (a100, 1, 256 << 10, ar(Ring)),
        (a100, 2, 64 << 10, ar(HierLl)),
        (a100, 2, 1 << 20, ar(HierHb)),
        (a100, 1, 32 << 10, AbRun::AllGather),
        (a100, 1, 80 << 10, AbRun::Shrink),
    ];
    for (kind, nodes, bytes, run) in cases {
        let label = format!("{run:?} on {kind:?} x{nodes}, {bytes} B per rank");
        let want = run_ab(kind, nodes, bytes, run, false);
        assert!(want.moved_bytes > 0, "{label}: no traffic");
        let last = want.launches.last().expect("a launch");
        assert!(last.is_ok(), "{label}: {last:?}");
        let got = run_ab(kind, nodes, bytes, run, true);
        assert_eq!(got.launches, want.launches, "{label}: timings");
        assert_eq!(got.recovery, want.recovery, "{label}: recovery");
        assert_eq!(got.now, want.now, "{label}: clock");
        assert_eq!(got.events, want.events, "{label}: events");
        assert_eq!(got.moved_bytes, want.moved_bytes, "{label}: moved_bytes");
        assert_eq!(got.counters, want.counters, "{label}: counters");
        assert_eq!(got.resources, want.resources, "{label}: link occupancy");
    }
}
