//! End-to-end tests of the MSCCL++ primitive interface on the simulated
//! cluster: channel semantics, synchronization, the CPU proxy, multimem,
//! and the paper's Figure-5 all-pairs ReduceScatter.

use std::rc::Rc;

use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
use mscclpp::{
    run_kernels, run_kernels_shared, Kernel, KernelBuilder, LaunchRecord, Protocol, Setup,
};
use sim::{Ctx, Engine, Step};

fn new_engine(kind: EnvKind, nodes: usize) -> Engine<Machine> {
    Engine::new(Machine::new(kind.spec(nodes)))
}

#[test]
fn memory_channel_hb_put_signal_wait_moves_data() {
    let mut engine = new_engine(EnvKind::A100_40G, 1);
    let mut setup = Setup::new(&mut engine);
    let bufs = setup.alloc_all(4096);
    let (ch0, ch1) = setup
        .memory_channel_pair(
            Rank(0),
            bufs[0],
            bufs[1],
            Rank(1),
            bufs[1],
            bufs[0],
            Protocol::HB,
        )
        .unwrap();
    let ov = setup.overheads().clone();
    engine
        .world_mut()
        .pool_mut()
        .fill_with(bufs[0], DataType::F32, |i| i as f32);

    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).put(&ch0, 0, 0, 4096).signal(&ch0);
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).wait(&ch1);

    let t = run_kernels(&mut engine, &[k0.build(), k1.build()], &ov).unwrap();
    let got = engine.world().pool().to_f32_vec(bufs[1], DataType::F32);
    assert_eq!(got[17], 17.0);
    assert_eq!(got[1023], 1023.0);
    // 4 KiB over NVLink: a handful of microseconds including launch.
    assert!(
        t.elapsed().as_us() > 1.0 && t.elapsed().as_us() < 20.0,
        "{t:?}"
    );
}

#[test]
fn ll_protocol_beats_hb_for_small_messages() {
    // LL avoids the separate signal round; for tiny messages latency wins
    // even though it writes twice the wire bytes.
    fn one(protocol: Protocol, bytes: usize) -> f64 {
        let mut engine = new_engine(EnvKind::A100_40G, 1);
        let mut setup = Setup::new(&mut engine);
        let bufs = setup.alloc_all(bytes);
        let (ch0, ch1) = setup
            .memory_channel_pair(
                Rank(0),
                bufs[0],
                bufs[1],
                Rank(1),
                bufs[1],
                bufs[0],
                protocol,
            )
            .unwrap();
        let ov = setup.overheads().clone();
        let mut k0 = KernelBuilder::new(Rank(0));
        let mut k1 = KernelBuilder::new(Rank(1));
        match protocol {
            Protocol::LL => {
                k0.block(0).put(&ch0, 0, 0, bytes);
                k1.block(0).wait_data(&ch1);
            }
            Protocol::HB => {
                k0.block(0).put_with_signal(&ch0, 0, 0, bytes);
                k1.block(0).wait(&ch1);
            }
        }
        run_kernels(&mut engine, &[k0.build(), k1.build()], &ov)
            .unwrap()
            .elapsed()
            .as_us()
    }
    let small_ll = one(Protocol::LL, 1024);
    let small_hb = one(Protocol::HB, 1024);
    assert!(
        small_ll < small_hb,
        "LL should win at 1KB: LL={small_ll}us HB={small_hb}us"
    );
    // At 16 MB the doubled wire traffic should make LL lose.
    let big_ll = one(Protocol::LL, 16 << 20);
    let big_hb = one(Protocol::HB, 16 << 20);
    assert!(
        big_hb < big_ll,
        "HB should win at 16MB: LL={big_ll}us HB={big_hb}us"
    );
}

#[test]
fn port_channel_rdma_put_flush_and_wait() {
    let mut engine = new_engine(EnvKind::A100_40G, 2);
    let mut setup = Setup::new(&mut engine);
    let bufs = setup.alloc_all(8192);
    // Cross-node pair: rank 0 (node 0) and rank 8 (node 1).
    let (ch0, ch8) = setup
        .port_channel_pair(Rank(0), bufs[0], bufs[8], Rank(8), bufs[8], bufs[0])
        .unwrap();
    let ov = setup.overheads().clone();
    engine
        .world_mut()
        .pool_mut()
        .write(bufs[0], 0, &[7u8; 8192]);

    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0)
        .port_put_with_signal(&ch0, 0, 0, 8192)
        .port_flush(&ch0);
    let mut k8 = KernelBuilder::new(Rank(8));
    k8.block(0).port_wait(&ch8);

    let t = run_kernels(&mut engine, &[k0.build(), k8.build()], &ov).unwrap();
    assert_eq!(engine.world().pool().bytes(bufs[8], 0, 8), &[7u8; 8]);
    // Crossing IB costs at least the wire latency (1.8us) plus proxy costs.
    assert!(t.elapsed().as_us() > 3.0, "{t:?}");
}

#[test]
fn port_channel_intra_node_uses_dma() {
    // PortChannel within a node drives the DMA engine; higher fixed cost
    // than a MemoryChannel but it works and moves data.
    let mut engine = new_engine(EnvKind::A100_40G, 1);
    let mut setup = Setup::new(&mut engine);
    let bufs = setup.alloc_all(1 << 20);
    let (ch0, ch1) = setup
        .port_channel_pair(Rank(0), bufs[0], bufs[1], Rank(1), bufs[1], bufs[0])
        .unwrap();
    let ov = setup.overheads().clone();
    engine.world_mut().pool_mut().write(bufs[0], 0, &[9u8; 16]);

    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).port_put_with_signal(&ch0, 0, 0, 1 << 20);
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).port_wait(&ch1);
    run_kernels(&mut engine, &[k0.build(), k1.build()], &ov).unwrap();
    assert_eq!(engine.world().pool().bytes(bufs[1], 0, 16), &[9u8; 16]);
}

#[test]
fn switch_channel_reduce_and_broadcast_on_h100() {
    let mut engine = new_engine(EnvKind::H100, 1);
    let mut setup = Setup::new(&mut engine);
    let bufs = setup.alloc_all(1024);
    let members: Vec<_> = (0..8).map(|r| (Rank(r), bufs[r])).collect();
    let chans = setup.switch_channel(&members).unwrap();
    let barriers = setup.device_barrier(&(0..8).map(Rank).collect::<Vec<_>>());
    let out: Vec<_> = (0..8).map(|r| setup.alloc(Rank(r), 1024)).collect();
    let ov = setup.overheads().clone();
    for (r, &buf) in bufs.iter().enumerate() {
        engine
            .world_mut()
            .pool_mut()
            .fill_with(buf, DataType::F32, move |i| (r + i) as f32);
    }

    // Every rank reduces the whole group's buffers into its own out buffer.
    let kernels: Vec<Kernel> = (0..8)
        .map(|r| {
            let mut k = KernelBuilder::new(Rank(r));
            k.block(0).barrier(&barriers[r]).switch_reduce(
                &chans[r],
                0,
                out[r],
                0,
                1024,
                DataType::F32,
                ReduceOp::Sum,
            );
            k.build()
        })
        .collect();
    run_kernels(&mut engine, &kernels, &ov).unwrap();
    for (r, &buf) in out.iter().enumerate() {
        let got = engine.world().pool().to_f32_vec(buf, DataType::F32);
        // Element i: sum over ranks of (rank + i) = 28 + 8i.
        assert_eq!(got[0], 28.0, "rank {r}");
        assert_eq!(got[5], 28.0 + 40.0, "rank {r}");
    }

    // Broadcast: rank 3 multicasts its out buffer into every member buffer.
    let mut k3 = KernelBuilder::new(Rank(3));
    k3.block(0).switch_broadcast(&chans[3], out[3], 0, 0, 1024);
    run_kernels(&mut engine, &[k3.build()], &ov).unwrap();
    for (r, &buf) in bufs.iter().enumerate() {
        let got = engine.world().pool().to_f32_vec(buf, DataType::F32);
        assert_eq!(got[1], 36.0, "rank {r}");
    }
}

#[test]
fn switch_channel_rejected_without_multimem() {
    let mut engine = new_engine(EnvKind::A100_40G, 1);
    let mut setup = Setup::new(&mut engine);
    let bufs = setup.alloc_all(64);
    let members: Vec<_> = (0..8).map(|r| (Rank(r), bufs[r])).collect();
    let err = setup.switch_channel(&members).unwrap_err();
    assert!(matches!(err, mscclpp::Error::Unsupported(_)), "{err}");
}

#[test]
fn memory_channel_rejected_across_nodes() {
    let mut engine = new_engine(EnvKind::A100_40G, 2);
    let mut setup = Setup::new(&mut engine);
    let b0 = setup.alloc(Rank(0), 64);
    let b8 = setup.alloc(Rank(8), 64);
    let err = setup
        .memory_channel_pair(Rank(0), b0, b8, Rank(8), b8, b0, Protocol::HB)
        .unwrap_err();
    assert!(matches!(err, mscclpp::Error::InvalidArgument(_)), "{err}");
}

#[test]
fn missing_signal_reports_deadlock() {
    let mut engine = new_engine(EnvKind::A100_40G, 1);
    let mut setup = Setup::new(&mut engine);
    let bufs = setup.alloc_all(64);
    let (ch0, ch1) = setup
        .memory_channel_pair(
            Rank(0),
            bufs[0],
            bufs[1],
            Rank(1),
            bufs[1],
            bufs[0],
            Protocol::HB,
        )
        .unwrap();
    let ov = setup.overheads().clone();
    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).put(&ch0, 0, 0, 64); // bug: no signal
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).wait(&ch1);
    let err = run_kernels(&mut engine, &[k0.build(), k1.build()], &ov).unwrap_err();
    assert!(matches!(err, mscclpp::Error::Deadlock(_)), "{err}");
}

#[test]
fn barriers_are_reusable_across_launches() {
    let mut engine = new_engine(EnvKind::A100_40G, 1);
    let mut setup = Setup::new(&mut engine);
    let ranks: Vec<_> = (0..8).map(Rank).collect();
    let barriers = setup.device_barrier(&ranks);
    let ov = setup.overheads().clone();
    for _ in 0..3 {
        let kernels: Vec<Kernel> = (0..8)
            .map(|r| {
                let mut k = KernelBuilder::new(Rank(r));
                k.block(0).barrier(&barriers[r]).barrier(&barriers[r]);
                k.build()
            })
            .collect();
        run_kernels(&mut engine, &kernels, &ov).unwrap();
    }
}

/// The paper's Figure 5: all-pairs ReduceScatter using the primitive API.
///
/// Every GPU puts its i-th shard into GPU i's scratch, signals, then GPU i
/// waits for and reduces all peers' contributions into its own input
/// shard. A final device barrier protects the scratch for reuse.
#[test]
fn figure5_all_pairs_reduce_scatter_is_correct() {
    const N: usize = 8;
    const ELEMS: usize = 1024; // per rank total
    let shard = ELEMS / N;
    let bytes = ELEMS * 4;
    let shard_bytes = shard * 4;

    let mut engine = new_engine(EnvKind::A100_40G, 1);
    let mut setup = Setup::new(&mut engine);
    let input = setup.alloc_all(bytes);
    let scratch = setup.alloc_all(bytes);
    // Channel from every rank a to every rank b: src = input[a], dst = scratch[b].
    let mut chans: Vec<Vec<Option<mscclpp::MemoryChannel>>> = vec![vec![None; N]; N];
    for a in 0..N {
        for b in (a + 1)..N {
            let (ca, cb) = setup
                .memory_channel_pair(
                    Rank(a),
                    input[a],
                    scratch[b],
                    Rank(b),
                    input[b],
                    scratch[a],
                    Protocol::HB,
                )
                .unwrap();
            chans[a][b] = Some(ca);
            chans[b][a] = Some(cb);
        }
    }
    let barriers = setup.device_barrier(&(0..N).map(Rank).collect::<Vec<_>>());
    let ov = setup.overheads().clone();

    for (r, &buf) in input.iter().enumerate() {
        engine
            .world_mut()
            .pool_mut()
            .fill_with(buf, DataType::F32, move |i| (r * ELEMS + i) as f32);
    }
    let expect_shard = |owner: usize, i: usize| -> f32 {
        let idx = owner * shard + i;
        (0..N).map(|r| (r * ELEMS + idx) as f32).sum()
    };

    let kernels: Vec<Kernel> = (0..N)
        .map(|g| {
            let mut k = KernelBuilder::new(Rank(g));
            let mut tb = k.block(0);
            // Put my shard-for-peer into each peer's scratch at my slot.
            for (p, ch) in chans[g].iter().enumerate() {
                if p == g {
                    continue;
                }
                let ch = ch.as_ref().unwrap();
                tb.put_with_signal(ch, g * shard_bytes, p * shard_bytes, shard_bytes);
            }
            // Wait for each peer's contribution and reduce into my shard.
            for (p, ch) in chans[g].iter().enumerate() {
                if p == g {
                    continue;
                }
                let ch = ch.as_ref().unwrap();
                tb.wait(ch).reduce(
                    scratch[g],
                    p * shard_bytes,
                    input[g],
                    g * shard_bytes,
                    shard_bytes,
                    DataType::F32,
                    ReduceOp::Sum,
                );
            }
            tb.barrier(&barriers[g]);
            k.build()
        })
        .collect();

    let t = run_kernels(&mut engine, &kernels, &ov).unwrap();
    for g in 0..N {
        let got = engine.world().pool().to_f32_vec(input[g], DataType::F32);
        for i in [0, 1, shard - 1] {
            assert_eq!(
                got[g * shard + i],
                expect_shard(g, i),
                "rank {g} element {i}"
            );
        }
    }
    assert!(t.elapsed().as_us() > 1.0);
}

/// Timing sanity: the same all-pairs exchange at two sizes scales with
/// bandwidth, and per-rank completion times are recorded for every rank.
#[test]
fn timing_scales_with_message_size() {
    fn one(bytes: usize) -> f64 {
        let mut engine = new_engine(EnvKind::A100_40G, 1);
        let mut setup = Setup::new(&mut engine);
        let bufs = setup.alloc_all(bytes);
        let (ch0, ch1) = setup
            .memory_channel_pair(
                Rank(0),
                bufs[0],
                bufs[1],
                Rank(1),
                bufs[1],
                bufs[0],
                Protocol::HB,
            )
            .unwrap();
        let ov = setup.overheads().clone();
        let mut k0 = KernelBuilder::new(Rank(0));
        k0.block(0).put_with_signal(&ch0, 0, 0, bytes);
        let mut k1 = KernelBuilder::new(Rank(1));
        k1.block(0).wait(&ch1);
        run_kernels(&mut engine, &[k0.build(), k1.build()], &ov)
            .unwrap()
            .elapsed()
            .as_us()
    }
    let t1 = one(1 << 20);
    let t64 = one(64 << 20);
    // 64x the data should be roughly 64x the wire time once fixed costs
    // are amortized away.
    let ratio = t64 / t1;
    assert!(ratio > 30.0 && ratio < 70.0, "ratio {ratio}");
}

#[test]
fn proxy_fifo_backpressure_blocks_and_recovers() {
    // A tiny FIFO forces the GPU to stall on Figure 7's "queue filled"
    // path; the collective must still complete and stay correct.
    let mut engine = new_engine(EnvKind::A100_40G, 2);
    let mut ov = mscclpp::Overheads::mscclpp();
    ov.fifo_capacity = 2;
    let mut setup = mscclpp::Setup::with_overheads(&mut engine, ov.clone());
    let bufs = setup.alloc_all(64 << 10);
    let (ch0, ch8) = setup
        .port_channel_pair(Rank(0), bufs[0], bufs[8], Rank(8), bufs[8], bufs[0])
        .unwrap();
    engine
        .world_mut()
        .pool_mut()
        .write(bufs[0], 0, &[3u8; 64 << 10]);

    // 16 puts of 4 KB each: far more requests than the FIFO holds.
    let mut k0 = KernelBuilder::new(Rank(0));
    {
        let mut tb = k0.block(0);
        for c in 0..16 {
            tb.port_put_with_signal(&ch0, c * 4096, c * 4096, 4096);
        }
        tb.port_flush(&ch0);
    }
    let mut k8 = KernelBuilder::new(Rank(8));
    {
        let mut tb = k8.block(0);
        for _ in 0..16 {
            tb.port_wait(&ch8);
        }
    }
    run_kernels(&mut engine, &[k0.build(), k8.build()], &ov).unwrap();
    assert_eq!(
        engine.world().pool().bytes(bufs[8], 60 << 10, 16),
        &[3u8; 16]
    );
}

#[test]
fn signals_accumulate_across_launches() {
    // Semaphores are monotonic: a second launch's waits must consume the
    // second launch's signals, not stale ones.
    let mut engine = new_engine(EnvKind::A100_40G, 1);
    let mut setup = Setup::new(&mut engine);
    let bufs = setup.alloc_all(1024);
    let (ch0, ch1) = setup
        .memory_channel_pair(
            Rank(0),
            bufs[0],
            bufs[1],
            Rank(1),
            bufs[1],
            bufs[0],
            Protocol::HB,
        )
        .unwrap();
    let ov = setup.overheads().clone();
    for round in 0..4u8 {
        engine
            .world_mut()
            .pool_mut()
            .write(bufs[0], 0, &[round; 1024]);
        let mut k0 = KernelBuilder::new(Rank(0));
        k0.block(0).put_with_signal(&ch0, 0, 0, 1024);
        let mut k1 = KernelBuilder::new(Rank(1));
        k1.block(0).wait(&ch1);
        run_kernels(&mut engine, &[k0.build(), k1.build()], &ov).unwrap();
        assert_eq!(engine.world().pool().bytes(bufs[1], 0, 4), &[round; 4]);
    }
}

#[test]
fn read_reduce_accumulates_from_peer_memory() {
    let mut engine = new_engine(EnvKind::A100_40G, 1);
    let mut setup = Setup::new(&mut engine);
    let bufs = setup.alloc_all(256);
    let (ch0, _ch1) = setup
        .memory_channel_pair(
            Rank(0),
            bufs[0],
            bufs[1],
            Rank(1),
            bufs[1],
            bufs[0],
            Protocol::HB,
        )
        .unwrap();
    let ov = setup.overheads().clone();
    engine
        .world_mut()
        .pool_mut()
        .fill_with(bufs[0], DataType::F32, |i| i as f32);
    engine
        .world_mut()
        .pool_mut()
        .fill_with(bufs[1], DataType::F32, |i| 10.0 * i as f32);

    // Rank 0 reads rank 1's buffer through the channel and reduces it
    // into its own (zero-copy ReduceScatter building block).
    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0)
        .read_reduce(&ch0, 0, bufs[0], 0, 256, DataType::F32, ReduceOp::Sum);
    run_kernels(&mut engine, &[k0.build()], &ov).unwrap();
    let got = engine.world().pool().to_f32_vec(bufs[0], DataType::F32);
    assert_eq!(got[4], 44.0);
}

#[test]
fn interpreter_counts_executed_primitives() {
    let mut engine = new_engine(EnvKind::A100_40G, 1);
    let mut setup = Setup::new(&mut engine);
    let bufs = setup.alloc_all(4096);
    let (ch0, ch1) = setup
        .memory_channel_pair(
            Rank(0),
            bufs[0],
            bufs[1],
            Rank(1),
            bufs[1],
            bufs[0],
            Protocol::HB,
        )
        .unwrap();
    let ov = setup.overheads().clone();

    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).put_with_signal(&ch0, 0, 0, 4096);
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).wait(&ch1);
    run_kernels(&mut engine, &[k0.build(), k1.build()], &ov).unwrap();

    let m = engine.metrics();
    assert_eq!(m.counter("instr.mem_put"), 1);
    assert_eq!(m.counter("instr.mem_wait"), 1);
    assert_eq!(m.counter("ops.puts"), 1);
    // putWithSignal counts as one fused signal; the wait as one sync.
    assert_eq!(m.counter("sync.signals"), 1);
    assert_eq!(m.counter("sync.waits"), 1);
    assert_eq!(m.counter_sum("instr."), 2);
}

#[test]
fn proxy_counts_port_requests_and_bytes_hit_dma_path() {
    let mut engine = new_engine(EnvKind::A100_40G, 1);
    let mut setup = Setup::new(&mut engine);
    let bufs = setup.alloc_all(1 << 20);
    let (ch0, ch1) = setup
        .port_channel_pair(Rank(0), bufs[0], bufs[1], Rank(1), bufs[1], bufs[0])
        .unwrap();
    let ov = setup.overheads().clone();

    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0)
        .port_put_with_signal(&ch0, 0, 0, 1 << 20)
        .port_flush(&ch0);
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).port_wait(&ch1);
    run_kernels(&mut engine, &[k0.build(), k1.build()], &ov).unwrap();

    let m = engine.metrics();
    assert_eq!(m.counter("instr.port_put"), 1);
    assert_eq!(m.counter("proxy.puts"), 1);
    assert_eq!(m.counter("proxy.signals"), 1);
    // port_flush + port_wait both block.
    assert_eq!(m.counter("sync.waits"), 2);
}

#[test]
fn deadlocked_kernel_reports_wait_span() {
    let mut engine = new_engine(EnvKind::A100_40G, 1);
    let mut setup = Setup::new(&mut engine);
    let bufs = setup.alloc_all(1024);
    let (_ch0, ch1) = setup
        .memory_channel_pair(
            Rank(0),
            bufs[0],
            bufs[1],
            Rank(1),
            bufs[1],
            bufs[0],
            Protocol::HB,
        )
        .unwrap();
    let ov = setup.overheads().clone();
    // Rank 1 waits for a signal nobody sends.
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).wait(&ch1);
    let err = run_kernels(&mut engine, &[k1.build()], &ov).unwrap_err();
    assert!(
        err.to_string().contains("wait.mem_sem"),
        "deadlock report should name the blocking primitive: {err}"
    );
}

/// A launch replays its batch's recorded run only while every wait
/// counter the batch reads trails its cell as it did when the record was
/// taken. A signal from outside the batch breaks that, so the next launch
/// runs the DES, and it leaves what a profiled twin, which never
/// replays, leaves.
#[test]
fn an_outside_signal_refuses_replay() {
    let run = |profiled: bool| {
        let mut engine = Engine::new(Machine::timing_only(EnvKind::A100_40G.spec(1)));
        if profiled {
            engine.enable_profiling();
        }
        let mut setup = Setup::new(&mut engine);
        let bufs = setup.alloc_all(4096);
        let (ch0, ch1) = setup
            .memory_channel_pair(
                Rank(0),
                bufs[0],
                bufs[1],
                Rank(1),
                bufs[1],
                bufs[0],
                Protocol::HB,
            )
            .unwrap();
        let ov = setup.overheads().clone();
        let mut k0 = KernelBuilder::new(Rank(0));
        k0.block(0).put(&ch0, 0, 0, 4096).signal(&ch0);
        let mut k1 = KernelBuilder::new(Rank(1));
        k1.block(0).wait(&ch1);
        let batch = Rc::new(vec![k0.build(), k1.build()]);
        let record = LaunchRecord::default();
        let mut timings = Vec::new();
        for _ in 0..2 {
            timings.push(run_kernels_shared(&mut engine, &batch, &ov, &record).unwrap());
        }
        let sem = ch1.my_sem;
        engine.spawn(move |ctx: &mut Ctx<'_, Machine>| {
            ctx.cell_add(sem, 1);
            Step::Done
        });
        engine.run().unwrap();
        let replayed = engine.replayed_runs();
        timings.push(run_kernels_shared(&mut engine, &batch, &ov, &record).unwrap());
        assert_eq!(engine.replayed_runs(), replayed, "replayed over a signal");
        let state = (
            timings,
            engine.now(),
            engine.events_processed(),
            engine.metrics().clone(),
        );
        (state, replayed)
    };
    let (plain, replayed) = run(false);
    let (twin, twin_replayed) = run(true);
    assert_eq!((replayed, twin_replayed), (1, 0));
    assert_eq!(plain, twin);
}
