//! Custom collective with the Primitive API: the paper's Figure-5
//! all-pairs ReduceScatter, written directly against channels — the
//! "application developers optimize for their own workloads" story of
//! §3.2.3 — and then plugged into the Collective API as a custom
//! AllReduce.
//!
//! Run with: `cargo run --release --example custom_collective`

use collective::{CollComm, CustomAllReduce};
use hw::{BufferId, DataType, EnvKind, Machine, Rank, ReduceOp};
use mscclpp::{run_kernels, Kernel, KernelBuilder, KernelTiming, MemoryChannel, Protocol, Setup};
use sim::Engine;

/// A user-written one-phase all-pairs AllReduce over LL memory channels,
/// kept deliberately simple (one thread block, whole-message puts).
struct MyAllReduce;

impl CustomAllReduce for MyAllReduce {
    fn run(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
    ) -> mscclpp::Result<KernelTiming> {
        let bytes = count * dtype.size();
        let n = inputs.len();
        let mut setup = Setup::new(engine);
        let scratch: Vec<BufferId> = (0..n).map(|r| setup.alloc(Rank(r), n * bytes)).collect();
        let mut chans: Vec<Vec<Option<MemoryChannel>>> = vec![vec![None; n]; n];
        for a in 0..n {
            for b in (a + 1)..n {
                let (ca, cb) = setup.memory_channel_pair(
                    Rank(a),
                    inputs[a],
                    scratch[b],
                    Rank(b),
                    inputs[b],
                    scratch[a],
                    Protocol::LL,
                )?;
                chans[a][b] = Some(ca);
                chans[b][a] = Some(cb);
            }
        }
        let ov = setup.overheads().clone();
        let kernels: Vec<Kernel> = (0..n)
            .map(|g| {
                let mut k = KernelBuilder::new(Rank(g));
                let mut tb = k.block(0);
                for (p, chan) in chans[g].iter().enumerate() {
                    if p != g {
                        // My whole input lands in peer p's slot g.
                        tb.put(chan.as_ref().unwrap(), g * bytes, 0, bytes);
                    }
                }
                tb.copy(inputs[g], 0, outputs[g], 0, bytes);
                for (p, chan) in chans[g].iter().enumerate() {
                    if p != g {
                        tb.wait_data(chan.as_ref().unwrap());
                        tb.reduce(scratch[g], p * bytes, outputs[g], 0, bytes, dtype, op);
                    }
                }
                k.build()
            })
            .collect();
        run_kernels(engine, &kernels, &ov)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    hw::wire(&mut engine);
    let count = 512usize;
    let inputs: Vec<_> = (0..8)
        .map(|r| engine.world_mut().pool_mut().alloc(Rank(r), count * 4))
        .collect();
    let outputs: Vec<_> = (0..8)
        .map(|r| engine.world_mut().pool_mut().alloc(Rank(r), count * 4))
        .collect();
    for (r, &input) in inputs.iter().enumerate() {
        engine
            .world_mut()
            .pool_mut()
            .fill_with(input, DataType::F32, move |i| (r * 100 + i) as f32);
    }

    // Plug the custom kernel into the NCCL-compatible communicator.
    let mut comm = CollComm::new();
    comm.set_custom_all_reduce(Box::new(MyAllReduce));
    let t = comm.all_reduce(
        &mut engine,
        &inputs,
        &outputs,
        count,
        DataType::F32,
        ReduceOp::Sum,
    )?;

    let got = engine.world().pool().to_f32_vec(outputs[3], DataType::F32);
    let want: f32 = (0..8).map(|r| (r * 100 + 17) as f32).sum();
    assert_eq!(got[17], want);
    println!(
        "custom all-pairs AllReduce of 2 KB over 8 GPUs: {} (verified)",
        t.elapsed()
    );
    Ok(())
}
