//! One function per table/figure of the paper's evaluation (§5).
//!
//! Each function prints the regenerated table to stdout, and each bin's
//! stdout is its committed `results/*.txt` byte for byte. Absolute
//! numbers come from the simulated cluster, so they are not expected to
//! match the authors' testbed; the *shape* — which stack wins, by
//! roughly what factor, and where the crossovers fall — is the
//! reproduction target (see EXPERIMENTS.md at the repository root).

use collective::{AllGatherAlgo, AllReduceAlgo, PeerOrder, ScratchReuse};
use hw::EnvKind;
use inference::{BatchConfig, ModelConfig, MscclppBackend, NcclBackend, ServingEngine};

use crate::report::{runs_to_json, snapshot, write_results_json, StackRun};
use crate::{
    fmt_bytes, large_sizes, measure, print_sweep, small_sizes, Coll, Pick, Point, Stack, Target,
};

/// Table 1: the evaluation environments.
pub fn table1() {
    println!("\n== Table 1: evaluation environments ==");
    println!(
        "{:<10} {:<28} {:<22} {:<30}",
        "Env", "GPU", "Intra-node link", "Network"
    );
    for kind in EnvKind::ALL {
        let spec = kind.spec(1);
        let intra = match spec.intra.kind {
            hw::IntraKind::Switch {
                thread_gbps,
                dma_gbps,
                multimem,
            } => format!(
                "switch {thread_gbps:.0}/{dma_gbps:.0} GB/s{}",
                if multimem.is_some() { " +multimem" } else { "" }
            ),
            hw::IntraKind::Mesh {
                per_peer_thread_gbps,
                ..
            } => format!("P2P mesh {per_peer_thread_gbps:.0} GB/s/link"),
            hw::IntraKind::Pcie { gbps } => format!("PCIe {gbps:.0} GB/s"),
        };
        let net = spec
            .net
            .map(|n| format!("IB {:.0} Gb/s, 1 NIC/GPU", n.gbps * 8.0))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<10} {:<28} {:<22} {:<30}",
            spec.name,
            format!("8x (HBM {:.0} GB/s)", spec.gpu.hbm_gbps),
            intra,
            net
        );
    }
}

/// The largest single-node message of every sweep. The paper sweeps to
/// 1 GB; this cap, and the smaller ones of [`A100_CAPS`], keep a figure's
/// host time short (EXPERIMENTS.md, Figure 8).
pub const SINGLE_NODE_CAP: usize = 256 << 20;

/// The A100-40G sweeps of Figures 8 and 9: node count and largest
/// message.
pub const A100_CAPS: [(usize, usize); 3] = [(1, SINGLE_NODE_CAP), (2, 64 << 20), (4, 16 << 20)];

/// One healthy point: `bytes` per rank in, reported over the message
/// each rank ends up holding.
fn point(stack: Stack, coll: Coll, t: Target, bytes: usize, pick: Pick) -> Point {
    Point {
        bytes: coll.out_bytes(bytes, t.world()),
        latency_us: measure(stack, coll, t, bytes, pick, None).0,
    }
}

/// One sweep of `coll` (small: latency µs; large: AlgoBW GB/s). Sizes
/// are the message each rank ends up holding (the gathered total for
/// AllGather).
fn sweep(coll: Coll, t: Target, max_large: usize, env_name: &str) {
    let per_rank = |b: usize| b / coll.out_bytes(1, t.world());
    let row = |b: usize, metric: fn(&Point) -> f64| {
        let [n, m, p] = Stack::ALL.map(|s| metric(&point(s, coll, t, per_rank(b), Pick::Default)));
        (b, n, m, p)
    };
    let small: Vec<_> = small_sizes()
        .into_iter()
        .filter(|&b| per_rank(b) >= 16)
        .map(|b| row(b, |p| p.latency_us))
        .collect();
    print_sweep(
        &format!("{coll:?} {env_name} {} small (latency)", t.label()),
        "us",
        &small,
        |r| (r.1 / r.3, r.2 / r.3),
    );
    let large: Vec<_> = large_sizes(max_large)
        .into_iter()
        .map(|b| row(b, Point::algbw_gbps))
        .collect();
    print_sweep(
        &format!("{coll:?} {env_name} {} large (AlgoBW)", t.label()),
        "GB/s",
        &large,
        |r| (r.3 / r.1, r.3 / r.2),
    );
}

/// The sweeps of `coll` on A100-40G across 1, 2 and 4 nodes.
fn a100_sweeps(coll: Coll) {
    for (nodes, cap) in A100_CAPS {
        let t = Target {
            env: EnvKind::A100_40G,
            nodes,
        };
        sweep(coll, t, cap, "A100-40G");
    }
}

/// Figure 8: AllReduce on A100-40G across 1, 2, and 4 nodes.
pub fn fig8() {
    println!("\n==== Figure 8: AllReduce, A100-40G ====");
    a100_sweeps(Coll::AllReduce);
}

/// Figure 9: AllGather on A100-40G across 1, 2, and 4 nodes.
pub fn fig9() {
    println!("\n==== Figure 9: AllGather, A100-40G ====");
    a100_sweeps(Coll::AllGather);
}

/// Figure 10: Llama2-70b decode/prefill speedup, TP=8 on A100-80G.
pub fn fig10() {
    println!("\n==== Figure 10: Llama2-70b inference, TP=8, A100-80G ====");
    let model = ModelConfig::llama2_70b();
    println!(
        "{:>6} {:>8} | {:>12} {:>12} {:>9} | {:>12} {:>12} {:>9}",
        "bsz",
        "seqlen",
        "NCCL dec us",
        "M++ dec us",
        "speedup",
        "NCCL pre us",
        "M++ pre us",
        "speedup"
    );
    for bsz in [8, 16, 32, 64, 128] {
        for seqlen in [128, 512, 1024, 2048] {
            let batch = BatchConfig { bsz, seqlen };
            let max_tokens = bsz * seqlen;
            let (nccl_dec, nccl_pre) = {
                let mut e = ServingEngine::new(EnvKind::A100_80G, model.clone(), max_tokens);
                let backend = NcclBackend::new(e.engine_mut());
                (
                    e.decode_step(&backend, batch).expect("nccl decode"),
                    e.prefill(&backend, batch).expect("nccl prefill"),
                )
            };
            let (pp_dec, pp_pre) = {
                let mut e = ServingEngine::new(EnvKind::A100_80G, model.clone(), max_tokens);
                let backend = MscclppBackend::new();
                (
                    e.decode_step(&backend, batch).expect("mscclpp decode"),
                    e.prefill(&backend, batch).expect("mscclpp prefill"),
                )
            };
            println!(
                "{:>6} {:>8} | {:>12.0} {:>12.0} {:>8.1}% | {:>12.0} {:>12.0} {:>8.1}%",
                bsz,
                seqlen,
                nccl_dec.total_us(),
                pp_dec.total_us(),
                (nccl_dec.total_us() / pp_dec.total_us() - 1.0) * 100.0,
                nccl_pre.total_us(),
                pp_pre.total_us(),
                (nccl_pre.total_us() / pp_pre.total_us() - 1.0) * 100.0,
            );
        }
    }
}

/// Figure 11: AllReduce on H100 (single node), including the
/// SwitchChannel-vs-MemoryChannel comparison of §5.3.
pub fn fig11() {
    println!("\n==== Figure 11: AllReduce, H100, single node ====");
    let t = Target {
        env: EnvKind::H100,
        nodes: 1,
    };
    let bytes = SINGLE_NODE_CAP;
    sweep(Coll::AllReduce, t, bytes, "H100");

    let staggered = AllReduceAlgo::TwoPhaseHb {
        order: PeerOrder::Staggered,
    };
    let [switch, mem] = [AllReduceAlgo::TwoPhaseSwitch, staggered]
        .map(Pick::AllReduce)
        .map(|pick| point(Stack::Mscclpp, Coll::AllReduce, t, bytes, pick));
    println!(
        "\nSwitchChannel vs equivalent MemoryChannel at {}: {:.0} vs {:.0} GB/s (+{:.0}%)  [paper: +56%]",
        fmt_bytes(bytes),
        switch.algbw_gbps(),
        mem.algbw_gbps(),
        (switch.algbw_gbps() / mem.algbw_gbps() - 1.0) * 100.0
    );
}

/// Figure 12: AllReduce on MI300x (single node) vs RCCL/MSCCL.
pub fn fig12() {
    println!("\n==== Figure 12: AllReduce, MI300x, single node (RCCL baseline) ====");
    sweep(
        Coll::AllReduce,
        Target {
            env: EnvKind::MI300X,
            nodes: 1,
        },
        SINGLE_NODE_CAP,
        "MI300x",
    );
}

/// The §5.1 gain-breakdown rows: 1 KB latency per stack and the
/// PortChannel-vs-MemoryChannel bandwidth edge at the largest size.
pub fn gain_breakdown() {
    println!("\n==== §5.1 gain breakdown (A100-40G, single node) ====");
    let t = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    let [n, m, p] = Stack::ALL.map(|s| point(s, Coll::AllReduce, t, 1 << 10, Pick::Default));
    println!(
        "1KB AllReduce latency: NCCL {:.1}us, MSCCL {:.1}us, MSCCL++ {:.1}us \
         (MSCCL->MSCCL++ cut {:.0}%)  [paper: 9.5us -> 5.0us, 47%]",
        n.latency_us,
        m.latency_us,
        p.latency_us,
        (1.0 - p.latency_us / m.latency_us) * 100.0
    );
    let bytes = SINGLE_NODE_CAP;
    let staggered = AllReduceAlgo::TwoPhaseHb {
        order: PeerOrder::Staggered,
    };
    let [port, mem] = [AllReduceAlgo::TwoPhasePort, staggered]
        .map(Pick::AllReduce)
        .map(|pick| point(Stack::Mscclpp, Coll::AllReduce, t, bytes, pick));
    println!(
        "PortChannel vs MemoryChannel AllReduce at {}: {:.0} vs {:.0} GB/s (+{:.1}%)  \
         [paper: +6.2% at 1GB; 256MB is this reproduction's memory cap]",
        fmt_bytes(bytes),
        port.algbw_gbps(),
        mem.algbw_gbps(),
        (port.algbw_gbps() / mem.algbw_gbps() - 1.0) * 100.0
    );
}

/// §3.2.3: registers per thread of each stack's AllReduce kernels.
pub fn table_registers() {
    println!("\n==== Registers per thread (§3.2.3) ====");
    let nccl = ncclsim::NcclConfig::nccl();
    let msccl = msccl::MscclConfig::default();
    let mscclpp = mscclpp::Overheads::mscclpp();
    println!("NCCL ring AllReduce:    {}", nccl.regs_per_thread);
    println!("MSCCL ring AllReduce:   {}", msccl.regs_per_thread);
    println!("MSCCL++ AllReduce:      {}", mscclpp.regs_per_thread);
}

/// §2.2.2 ablation: thread-copy vs DMA-copy AllGather bus bandwidth.
pub fn ablation_copy_modes() {
    println!("\n==== §2.2.2 ablation: AllGather copy modes (A100, 8 GPUs) ====");
    let t = Target {
        env: EnvKind::A100_80G,
        nodes: 1,
    };
    let per_rank_bytes = (128 << 20) / 8;
    let [thread_us, dma_us] = [AllGatherAlgo::AllPairsHb, AllGatherAlgo::AllPairsPort]
        .map(Pick::AllGather)
        .map(|pick| point(Stack::Mscclpp, Coll::AllGather, t, per_rank_bytes, pick).latency_us);
    // Bus bandwidth = moved bytes per GPU / time = (N-1)/N * total / t.
    let total = (per_rank_bytes * 8) as f64;
    let bus = |us: f64| total * 7.0 / 8.0 / (us * 1e3);
    println!(
        "AllGather thread-copy (MemoryChannel): {:.0} GB/s bus bandwidth  [paper: 227 GB/s]",
        bus(thread_us)
    );
    println!(
        "AllGather DMA-copy   (PortChannel):    {:.0} GB/s bus bandwidth  [paper: 263 GB/s]",
        bus(dma_us)
    );
    println!(
        "DMA edge: +{:.1}%  [paper: +15.8%]",
        (thread_us / dma_us - 1.0) * 100.0
    );
}

/// §5.1 DSL-vs-Primitive ablation across sizes, on timing-only clusters:
/// the DSL compiler and `CollComm` prove each plan before it runs.
pub fn ablation_dsl() {
    println!("\n==== §5.1 ablation: DSL executor vs Primitive kernels (2PA AllReduce, A100) ====");
    use hw::{DataType, Machine, Rank, ReduceOp};
    use mscclpp::Setup;
    use sim::Engine;
    let mut overheads = Vec::new();
    for bytes in [64 << 10, 256 << 10, 1 << 20, 4 << 20] {
        let count = bytes / 4;
        let prog = mscclpp_dsl::algorithms::two_phase_all_reduce(8).unwrap();
        let mut engine = Engine::new(Machine::timing_only(EnvKind::A100_40G.spec(1)));
        let mut setup = Setup::new(&mut engine);
        let ins = setup.alloc_all(bytes);
        let outs = setup.alloc_all(bytes);
        let exe = prog
            .compile(
                &mut setup,
                &ins,
                &outs,
                mscclpp_dsl::CompileOptions {
                    instances: 2,
                    ..Default::default()
                },
            )
            .unwrap();
        let dsl_us = exe.launch(&mut engine).unwrap().elapsed().as_us();

        let mut e2 = Engine::new(Machine::timing_only(EnvKind::A100_40G.spec(1)));
        hw::wire(&mut e2);
        let bufs: Vec<_> = (0..8)
            .map(|r| e2.world_mut().pool_mut().alloc(Rank(r), bytes))
            .collect();
        let outs2: Vec<_> = (0..8)
            .map(|r| e2.world_mut().pool_mut().alloc(Rank(r), bytes))
            .collect();
        let comm = collective::CollComm::new();
        let prim_us = comm
            .all_reduce_with(
                &mut e2,
                &bufs,
                &outs2,
                count,
                DataType::F32,
                ReduceOp::Sum,
                collective::AllReduceAlgo::TwoPhaseLl {
                    reuse: collective::ScratchReuse::Rotate,
                    order: collective::PeerOrder::Staggered,
                },
            )
            .unwrap()
            .elapsed()
            .as_us();
        let oh = (dsl_us / prim_us - 1.0) * 100.0;
        overheads.push(oh);
        println!(
            "{:>8}: primitive {prim_us:>8.2}us, DSL {dsl_us:>8.2}us  (+{oh:.1}%)",
            fmt_bytes(bytes)
        );
    }
    let avg = overheads.iter().sum::<f64>() / overheads.len() as f64;
    println!("average DSL overhead: +{avg:.1}%  [paper: ~3% average, up to 18%]");
}

/// §4.4 ablation: rotating scratch buffers vs a per-launch barrier.
pub fn ablation_rotation() {
    println!("\n==== §4.4 ablation: rotating buffers vs barrier (2PA-LL, A100) ====");
    let t = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    for bytes in [32 << 10, 256 << 10, 1 << 20] {
        let [rot, bar] = [ScratchReuse::Rotate, ScratchReuse::Barrier].map(|reuse| {
            let pick = Pick::AllReduce(AllReduceAlgo::TwoPhaseLl {
                reuse,
                order: PeerOrder::Staggered,
            });
            point(Stack::Mscclpp, Coll::AllReduce, t, bytes, pick)
        });
        println!(
            "{:>8}: rotate {:.2}us, barrier {:.2}us (rotation saves {:.1}%)",
            fmt_bytes(bytes),
            rot.latency_us,
            bar.latency_us,
            (bar.latency_us / rot.latency_us - 1.0) * 100.0
        );
    }
}

/// §5.3 ablation: peer loop order on the MI300x mesh.
pub fn ablation_loop_order() {
    println!("\n==== §5.3 ablation: peer loop order on MI300x (2PA-HB AllReduce) ====");
    let t = Target {
        env: EnvKind::MI300X,
        nodes: 1,
    };
    for bytes in [1 << 20, 16 << 20, 64 << 20] {
        let [stag, seq] = [PeerOrder::Staggered, PeerOrder::Sequential].map(|order| {
            let pick = Pick::AllReduce(AllReduceAlgo::TwoPhaseHb { order });
            point(Stack::Mscclpp, Coll::AllReduce, t, bytes, pick)
        });
        println!(
            "{:>8}: all-peers-at-once {:.0} GB/s, one-peer-at-a-time {:.0} GB/s ({:.2}x)",
            fmt_bytes(bytes),
            stag.algbw_gbps(),
            seq.algbw_gbps(),
            stag.algbw_gbps() / seq.algbw_gbps()
        );
    }
}

/// Link-utilization analysis: how fully each stack drives the NVLink
/// ports during a large AllReduce (the mechanism behind every bandwidth
/// figure). MSCCL++'s zero-copy all-pairs keeps ports busy nearly the
/// whole collective; NCCL's ring pays staging and synchronization gaps.
/// NCCL runs at its size-based tuner's pick. Writes the runs to
/// `utilization.json` in the results directory and names the file on
/// stderr, so stdout holds the report alone.
pub fn utilization_report() {
    println!("\n==== Link utilization during a large AllReduce (A100-40G, 8 GPUs) ====");
    let t = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    let bytes = 64 << 20;
    let stacks = [
        ("NCCL", Stack::Nccl, Pick::Nccl(ncclsim::tune(bytes, 1))),
        ("MSCCL++", Stack::Mscclpp, Pick::Default),
    ];
    let runs: Vec<StackRun> = stacks
        .into_iter()
        .map(|(name, stack, pick)| {
            let (elapsed_us, engine) = measure(stack, Coll::AllReduce, t, bytes, pick, None);
            let util = hw::port_utilization(&engine);
            let avg_busy = |busy: fn(&hw::PortUtilization) -> sim::Duration| {
                util.iter().map(|u| busy(u).as_us() / elapsed_us).sum::<f64>() / util.len() as f64
            };
            println!(
                "{name:>8}: {elapsed_us:>9.1} us | egress ports {:>5.1}% busy | ingress ports {:>5.1}% busy",
                avg_busy(|u| u.egress_busy) * 100.0,
                avg_busy(|u| u.ingress_busy) * 100.0
            );
            snapshot(stack, bytes, elapsed_us, &engine)
        })
        .collect();

    let json = runs_to_json("utilization", t, None, &runs);
    match write_results_json("utilization.json", &json) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results/utilization.json: {e}"),
    }
}
