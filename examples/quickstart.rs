//! Quickstart: the MSCCL++ primitive interface in a dozen lines.
//!
//! Builds a simulated 8×A100 node, creates a memory channel between two
//! GPUs, and runs the canonical put → signal → wait exchange of Figure 4,
//! then a full 8-GPU AllReduce through the NCCL-compatible Collective
//! API.
//!
//! Run with: `cargo run --release --example quickstart`

use collective::CollComm;
use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
use mscclpp::{run_kernels, KernelBuilder, Protocol, Setup};
use sim::Engine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One node of eight A100-40G GPUs joined by NVLink (Table 1 row 1).
    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    let mut setup = Setup::new(&mut engine);

    // --- Figure 4: put / signal / wait between two GPUs ---------------
    let bufs = setup.alloc_all(4096);
    let (ch0, ch1) = setup.memory_channel_pair(
        Rank(0),
        bufs[0],
        bufs[1],
        Rank(1),
        bufs[1],
        bufs[0],
        Protocol::HB,
    )?;
    let ov = setup.overheads().clone();

    engine
        .world_mut()
        .pool_mut()
        .write(bufs[0], 0, &[7u8; 4096]);

    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).put(&ch0, 0, 0, 4096).signal(&ch0); // async put, then signal
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).wait(&ch1); // GPU 1 waits before reading

    let t = run_kernels(&mut engine, &[k0.build(), k1.build()], &ov)?;
    assert_eq!(engine.world().pool().bytes(bufs[1], 0, 8), &[7u8; 8]);
    println!("put/signal/wait of 4 KiB across NVLink: {}", t.elapsed());

    // --- The Collective API: a drop-in NCCL replacement ---------------
    let count = 1 << 20; // 4 MB of f32
    let inputs: Vec<_> = (0..8)
        .map(|r| engine.world_mut().pool_mut().alloc(Rank(r), count * 4))
        .collect();
    for (r, &input) in inputs.iter().enumerate() {
        engine
            .world_mut()
            .pool_mut()
            .fill_with(input, DataType::F32, move |i| ((r + i) % 3) as f32);
    }
    let comm = CollComm::new();
    let t = comm.all_reduce(
        &mut engine,
        &inputs,
        &inputs,
        count,
        DataType::F32,
        ReduceOp::Sum,
    )?;
    let got = engine.world().pool().to_f32_vec(inputs[0], DataType::F32);
    let want: f32 = (0..8).map(|r| ((r + 5) % 3) as f32).sum();
    assert_eq!(got[5], want, "AllReduce output verified");
    println!(
        "8-GPU AllReduce of 4 MB: {} ({:.0} GB/s algorithm bandwidth)",
        t.elapsed(),
        (count * 4) as f64 / t.elapsed().as_us() / 1e3,
    );
    Ok(())
}
