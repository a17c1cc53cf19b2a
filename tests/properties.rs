//! Property-based tests (proptest) over the core invariants: collectives
//! compute the mathematically-defined result for arbitrary sizes,
//! algorithms, dtypes, and inputs; FP16 conversion round-trips; the
//! simulation stays deterministic under arbitrary workloads.

use collective::{AllReduceAlgo, CollComm, PeerOrder, ScratchReuse};
use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
use proptest::prelude::*;
use sim::Engine;

fn algo_strategy() -> impl Strategy<Value = AllReduceAlgo> {
    prop_oneof![
        Just(AllReduceAlgo::OnePhaseLl),
        Just(AllReduceAlgo::TwoPhaseLl {
            reuse: ScratchReuse::Rotate,
            order: PeerOrder::Staggered,
        }),
        Just(AllReduceAlgo::TwoPhaseLl {
            reuse: ScratchReuse::Barrier,
            order: PeerOrder::Sequential,
        }),
        Just(AllReduceAlgo::TwoPhaseHb {
            order: PeerOrder::Staggered,
        }),
        Just(AllReduceAlgo::TwoPhasePort),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// AllReduce(sum) equals the element-wise sum of all inputs for any
    /// element count, algorithm, and integer-valued inputs.
    #[test]
    fn allreduce_matches_reference(
        count in 8usize..5000,
        algo in algo_strategy(),
        seed in 0u64..1000,
    ) {
        let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        hw::wire(&mut e);
        let bufs: Vec<_> = (0..8)
            .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
            .collect();
        let outs: Vec<_> = (0..8)
            .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
            .collect();
        let val = move |r: usize, i: usize| ((seed as usize + r * 7 + i * 3) % 16) as f32;
        for (r, &buf) in bufs.iter().enumerate() {
            e.world_mut()
                .pool_mut()
                .fill_with(buf, DataType::F32, move |i| val(r, i));
        }
        let comm = CollComm::new();
        comm.all_reduce_with(&mut e, &bufs, &outs, count, DataType::F32, ReduceOp::Sum, algo)
            .unwrap();
        for (r, &out) in outs.iter().enumerate() {
            let got = e.world().pool().to_f32_vec(out, DataType::F32);
            for (i, &x) in got.iter().enumerate() {
                let want: f32 = (0..8).map(|s| val(s, i)).sum();
                prop_assert_eq!(x, want, "rank {} elem {} algo {:?}", r, i, algo);
            }
        }
    }

    /// AllReduce(max) and AllReduce(min) are correct too.
    #[test]
    fn allreduce_max_min(count in 8usize..1024, op_is_max in any::<bool>()) {
        let op = if op_is_max { ReduceOp::Max } else { ReduceOp::Min };
        let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        hw::wire(&mut e);
        let bufs: Vec<_> = (0..8)
            .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
            .collect();
        let val = |r: usize, i: usize| ((r * 13 + i * 5) % 31) as f32 - 15.0;
        for (r, &buf) in bufs.iter().enumerate() {
            e.world_mut()
                .pool_mut()
                .fill_with(buf, DataType::F32, move |i| val(r, i));
        }
        let comm = CollComm::new();
        comm.all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, op).unwrap();
        let got = e.world().pool().to_f32_vec(bufs[2], DataType::F32);
        for i in (0..count).step_by(17) {
            let want = (0..8)
                .map(|s| val(s, i))
                .fold(if op_is_max { f32::MIN } else { f32::MAX }, |a, b| {
                    op.apply(a, b)
                });
            prop_assert_eq!(got[i], want);
        }
    }

    /// AllGather places every rank's chunk at the right offset for any
    /// chunk size.
    #[test]
    fn allgather_matches_reference(count in 8usize..3000) {
        let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        hw::wire(&mut e);
        let ins: Vec<_> = (0..8)
            .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
            .collect();
        let outs: Vec<_> = (0..8)
            .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4 * 8))
            .collect();
        let val = |r: usize, i: usize| (r * 1000 + i % 97) as f32;
        for (r, &input) in ins.iter().enumerate() {
            e.world_mut()
                .pool_mut()
                .fill_with(input, DataType::F32, move |i| val(r, i));
        }
        let comm = CollComm::new();
        comm.all_gather(&mut e, &ins, &outs, count, DataType::F32).unwrap();
        let got = e.world().pool().to_f32_vec(outs[5], DataType::F32);
        for src in 0..8 {
            for i in (0..count).step_by(29) {
                prop_assert_eq!(got[src * count + i], val(src, i));
            }
        }
    }

    /// FP16 encode/decode round-trips every representable half value.
    #[test]
    fn f16_roundtrip_arbitrary_bits(bits in any::<u16>()) {
        let v = hw::dtype_f16_to_f32(bits);
        if v.is_nan() {
            let back = hw::dtype_f32_to_f16(v);
            prop_assert!(hw::dtype_f16_to_f32(back).is_nan());
        } else {
            let back = hw::dtype_f32_to_f16(v);
            // -0.0 and 0.0 compare equal in f32; compare decoded values.
            prop_assert_eq!(hw::dtype_f16_to_f32(back), v);
        }
    }

    /// The virtual clock is deterministic under random workloads.
    #[test]
    fn timing_deterministic_for_random_sizes(count in 64usize..4096) {
        let run = || {
            let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
            hw::wire(&mut e);
            let bufs: Vec<_> = (0..8)
                .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
                .collect();
            let comm = CollComm::new();
            comm.all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum)
                .unwrap()
                .elapsed()
                .as_ps()
        };
        prop_assert_eq!(run(), run());
    }
}

// ---- Random-program equivalence for the DSL compiler --------------------

use mscclpp_dsl::{Buf, CompileOptions, Program};

#[derive(Debug, Clone, Copy)]
enum RefOp {
    Copy,
    Reduce,
}

/// A random chunk reference: destination chunks avoid `Input` so the
/// reference state stays simple (inputs are immutable).
fn chunk_strategy(world: usize, writable: bool) -> impl Strategy<Value = (usize, Buf, usize)> {
    let bufs = if writable {
        vec![Buf::Output, Buf::Scratch]
    } else {
        vec![Buf::Input, Buf::Output, Buf::Scratch]
    };
    (0..world, proptest::sample::select(bufs), 0..3usize)
}

/// Pure reference interpreter over `f32` chunk state.
fn reference_apply(
    state: &mut [Vec<Vec<Vec<f32>>>], // [rank][buf][chunk][elem]
    op: RefOp,
    src: (usize, Buf, usize),
    dst: (usize, Buf, usize),
) {
    let bidx = |b: Buf| match b {
        Buf::Input => 0,
        Buf::Output => 1,
        Buf::Scratch => 2,
    };
    let s = state[src.0][bidx(src.1)][src.2].clone();
    let d = &mut state[dst.0][bidx(dst.1)][dst.2];
    for (x, y) in d.iter_mut().zip(s.iter()) {
        match op {
            RefOp::Copy => *x = *y,
            RefOp::Reduce => *x += *y,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any random chunk program that the DSL compiler accepts must
    /// compute exactly what the pure reference interpreter computes.
    #[test]
    fn dsl_compiler_matches_reference_interpreter(
        ops in proptest::collection::vec(
            (any::<bool>(), chunk_strategy(4, false), chunk_strategy(4, true)),
            1..20,
        ),
        instances in 1usize..3,
        seed in 0u64..500,
    ) {
        const CHUNK: usize = 32; // elements per chunk
        let world = 8usize; // machine is 8 GPUs; programs use ranks 0..4

        let mut prog = Program::new("random", world);
        let mut ref_ops = Vec::new();
        for (is_copy, src, dst) in &ops {
            let s = (src.0, src.1, src.2);
            let d = (dst.0, dst.1, dst.2);
            if *is_copy {
                prog.copy(s, d).unwrap();
                ref_ops.push((RefOp::Copy, s, d));
            } else {
                prog.reduce(s, d).unwrap();
                ref_ops.push((RefOp::Reduce, s, d));
            }
        }
        let in_chunks = prog.chunk_count(Buf::Input).max(1);
        let out_chunks = prog.chunk_count(Buf::Output).max(1);
        let scr_chunks = prog.chunk_count(Buf::Scratch);

        let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        let mut setup = mscclpp::Setup::new(&mut engine);
        let inputs = setup.alloc_all(in_chunks * CHUNK * 4);
        let outputs = setup.alloc_all(out_chunks * CHUNK * 4);
        let compiled = prog.compile(
            &mut setup,
            &inputs,
            &outputs,
            CompileOptions {
                instances,
                ..Default::default()
            },
        );
        // Programs the compiler legitimately rejects (e.g. a rank
        // consuming a chunk that was remotely written to another rank)
        // are skipped; accepted programs must run and match.
        let Ok(exe) = compiled else {
            return Ok(());
        };

        let val = move |r: usize, i: usize| ((seed as usize + r * 5 + i) % 9) as f32;
        for (r, &input) in inputs.iter().enumerate() {
            engine
                .world_mut()
                .pool_mut()
                .fill_with(input, DataType::F32, move |i| val(r, i));
        }
        exe.launch(&mut engine).unwrap();

        // Reference: [rank][buf][chunk][elem].
        let mut state: Vec<Vec<Vec<Vec<f32>>>> = (0..world)
            .map(|r| {
                vec![
                    (0..in_chunks)
                        .map(|c| (0..CHUNK).map(|i| val(r, c * CHUNK + i)).collect())
                        .collect(),
                    vec![vec![0.0; CHUNK]; out_chunks],
                    vec![vec![0.0; CHUNK]; scr_chunks.max(1)],
                ]
            })
            .collect();
        for (op, s, d) in ref_ops {
            reference_apply(&mut state, op, s, d);
        }
        for r in 0..world {
            let got = engine.world().pool().to_f32_vec(outputs[r], DataType::F32);
            for c in 0..out_chunks {
                for i in 0..CHUNK {
                    prop_assert_eq!(
                        got[c * CHUNK + i],
                        state[r][1][c][i],
                        "rank {} output chunk {} elem {}", r, c, i
                    );
                }
            }
        }
    }
}
