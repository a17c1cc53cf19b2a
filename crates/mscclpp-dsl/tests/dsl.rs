//! End-to-end DSL tests: compiled programs are functionally correct on
//! every transport, and the executor's overhead matches the paper's
//! DSL-vs-Primitive observation (§5.1).

use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
use mscclpp::{Protocol, Setup};
use mscclpp_dsl::{algorithms, Buf, CompileOptions, Program};
use sim::Engine;

fn input_val(r: usize, i: usize) -> f32 {
    (r + 1) as f32 + (i % 4) as f32
}

fn run_allreduce_program(
    prog: &Program,
    kind: EnvKind,
    nodes: usize,
    count: usize,
    opts: CompileOptions,
) -> (Vec<Vec<f32>>, f64) {
    let mut engine = Engine::new(Machine::new(kind.spec(nodes)));
    let mut setup = Setup::new(&mut engine);
    let n = nodes * 8;
    let inputs = setup.alloc_all(count * 4);
    let outputs = setup.alloc_all(count * 4);
    let exe = prog.compile(&mut setup, &inputs, &outputs, opts).unwrap();
    for (r, &input) in inputs.iter().enumerate() {
        engine
            .world_mut()
            .pool_mut()
            .fill_with(input, DataType::F32, move |i| input_val(r, i));
    }
    let t = exe.launch(&mut engine).unwrap();
    let outs = (0..n)
        .map(|r| engine.world().pool().to_f32_vec(outputs[r], DataType::F32))
        .collect();
    (outs, t.elapsed().as_us())
}

fn assert_allreduce(outs: &[Vec<f32>], n: usize, count: usize, tag: &str) {
    for (r, got) in outs.iter().enumerate() {
        for i in [0, count / 2, count - 1] {
            let want: f32 = (0..n).map(|s| input_val(s, i)).sum();
            assert!(
                (got[i] - want).abs() < 1e-3,
                "{tag}: rank {r} elem {i}: {} vs {want}",
                got[i]
            );
        }
    }
}

#[test]
fn dsl_one_phase_allreduce_correct() {
    let prog = algorithms::one_phase_all_reduce(8).unwrap();
    let (outs, _) =
        run_allreduce_program(&prog, EnvKind::A100_40G, 1, 512, CompileOptions::default());
    assert_allreduce(&outs, 8, 512, "1PA");
}

#[test]
fn dsl_two_phase_allreduce_correct_ll_and_hb() {
    let prog = algorithms::two_phase_all_reduce(8).unwrap();
    for protocol in [Protocol::LL, Protocol::HB] {
        let opts = CompileOptions {
            protocol,
            instances: 2,
            ..Default::default()
        };
        let (outs, _) = run_allreduce_program(&prog, EnvKind::A100_40G, 1, 4096, opts);
        assert_allreduce(&outs, 8, 4096, "2PA");
    }
}

#[test]
fn dsl_ring_allreduce_correct() {
    let prog = algorithms::ring_all_reduce(8).unwrap();
    let (outs, _) =
        run_allreduce_program(&prog, EnvKind::A100_40G, 1, 1024, CompileOptions::default());
    assert_allreduce(&outs, 8, 1024, "ring");
}

#[test]
fn dsl_switch_allreduce_correct_on_h100() {
    let prog = algorithms::switch_all_reduce(8).unwrap();
    let opts = CompileOptions {
        instances: 2,
        ..Default::default()
    };
    let (outs, _) = run_allreduce_program(&prog, EnvKind::H100, 1, 4096, opts);
    assert_allreduce(&outs, 8, 4096, "switch");
}

#[test]
fn dsl_switch_allreduce_rejected_on_a100() {
    let prog = algorithms::switch_all_reduce(8).unwrap();
    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    let mut setup = Setup::new(&mut engine);
    let inputs = setup.alloc_all(1024);
    let outputs = setup.alloc_all(1024);
    let err = prog
        .compile(&mut setup, &inputs, &outputs, CompileOptions::default())
        .unwrap_err();
    assert!(matches!(err, mscclpp_dsl::DslError::Compile(_)), "{err}");
}

#[test]
fn dsl_allgather_correct() {
    let n = 8;
    let count = 768usize;
    let prog = algorithms::all_pairs_all_gather(n).unwrap();
    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    let mut setup = Setup::new(&mut engine);
    let inputs = setup.alloc_all(count * 4);
    let outputs = setup.alloc_all(count * 4 * n);
    let exe = prog
        .compile(&mut setup, &inputs, &outputs, CompileOptions::default())
        .unwrap();
    for (r, &input) in inputs.iter().enumerate() {
        engine
            .world_mut()
            .pool_mut()
            .fill_with(input, DataType::F32, move |i| input_val(r, i));
    }
    exe.launch(&mut engine).unwrap();
    for (r, &output) in outputs.iter().enumerate() {
        let got = engine.world().pool().to_f32_vec(output, DataType::F32);
        for src in 0..n {
            assert_eq!(got[src * count], input_val(src, 0), "rank {r} chunk {src}");
        }
    }
}

#[test]
fn dsl_cross_node_copy_uses_rdma() {
    // A program whose chunks cross nodes must compile (port channels) and
    // be correct.
    let n = 16;
    let mut prog = Program::new("cross", n);
    // Rank 0 scatters its chunks to the first GPU of each node.
    prog.copy((0, Buf::Input, 0), (8, Buf::Output, 0)).unwrap();
    prog.copy((0, Buf::Input, 1), (8, Buf::Output, 1)).unwrap();
    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(2)));
    let mut setup = Setup::new(&mut engine);
    let inputs = setup.alloc_all(1024);
    let outputs = setup.alloc_all(1024);
    let exe = prog
        .compile(&mut setup, &inputs, &outputs, CompileOptions::default())
        .unwrap();
    engine
        .world_mut()
        .pool_mut()
        .fill_with(inputs[0], DataType::F32, |i| i as f32);
    let t = exe.launch(&mut engine).unwrap();
    let got = engine.world().pool().to_f32_vec(outputs[8], DataType::F32);
    assert_eq!(got[0], 0.0);
    assert_eq!(got[255], 255.0);
    // Crossing IB takes at least the wire latency.
    assert!(t.elapsed().as_us() > 3.0);
}

#[test]
fn dsl_cross_node_direct_reduce_rejected() {
    let mut prog = Program::new("bad", 16);
    prog.reduce((8, Buf::Input, 0), (0, Buf::Output, 0))
        .unwrap();
    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(2)));
    let mut setup = Setup::new(&mut engine);
    let inputs = setup.alloc_all(64);
    let outputs = setup.alloc_all(64);
    let err = prog
        .compile(&mut setup, &inputs, &outputs, CompileOptions::default())
        .unwrap_err();
    assert!(matches!(err, mscclpp_dsl::DslError::BadOp(_)), "{err}");
}

/// §5.1: "DSL versions perform 3% worse than the Primitive versions on
/// average". Same algorithm (2PA), same machine: the DSL executable must
/// be slower than the hand-written primitive kernel, but by a modest
/// factor (< 25%), reflecting per-instruction interpretation overhead.
#[test]
fn dsl_overhead_vs_primitive_is_small() {
    let count = 65_536usize; // 256 KB
    let prog = algorithms::two_phase_all_reduce(8).unwrap();
    let opts = CompileOptions {
        instances: 2,
        ..Default::default()
    };
    let (outs, dsl_us) = run_allreduce_program(&prog, EnvKind::A100_40G, 1, count, opts);
    assert_allreduce(&outs, 8, count, "2PA-dsl");

    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    hw::wire(&mut engine);
    let bufs: Vec<_> = (0..8)
        .map(|r| engine.world_mut().pool_mut().alloc(Rank(r), count * 4))
        .collect();
    let outs2: Vec<_> = (0..8)
        .map(|r| engine.world_mut().pool_mut().alloc(Rank(r), count * 4))
        .collect();
    for (r, &buf) in bufs.iter().enumerate() {
        engine
            .world_mut()
            .pool_mut()
            .fill_with(buf, DataType::F32, move |i| input_val(r, i));
    }
    let comm = collective::CollComm::new();
    let prim_us = comm
        .all_reduce_with(
            &mut engine,
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

    let overhead = dsl_us / prim_us - 1.0;
    assert!(
        overhead > 0.0,
        "DSL ({dsl_us}us) should not beat the primitive kernel ({prim_us}us)"
    );
    assert!(
        overhead < 0.25,
        "DSL overhead should be modest: {overhead:.3} (dsl {dsl_us}us vs prim {prim_us}us)"
    );
}

#[test]
fn dsl_repeated_launches_stay_correct() {
    let prog = algorithms::two_phase_all_reduce(8).unwrap();
    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    let mut setup = Setup::new(&mut engine);
    let count = 2048usize;
    let inputs = setup.alloc_all(count * 4);
    let outputs = setup.alloc_all(count * 4);
    let exe = prog
        .compile(&mut setup, &inputs, &outputs, CompileOptions::default())
        .unwrap();
    for iter in 0..4 {
        for (r, &input) in inputs.iter().enumerate() {
            engine
                .world_mut()
                .pool_mut()
                .fill_with(input, DataType::F32, move |i| {
                    input_val(r, i) * (iter + 1) as f32
                });
        }
        exe.launch(&mut engine).unwrap();
        let got = engine.world().pool().to_f32_vec(outputs[6], DataType::F32);
        let want: f32 = (0..8).map(|s| input_val(s, 9) * (iter + 1) as f32).sum();
        assert!((got[9] - want).abs() < 1e-2, "iter {iter}");
    }
}

// ---- Pinned proptest regression cases -----------------------------------
//
// `tests/properties.proptest-regressions` (workspace root) records two
// shrunk chunk programs that once miscompiled. The proptest harness
// replays them before generating novel cases; these unit tests pin the
// fixed behavior explicitly so the cases stay covered even if the
// regressions file is pruned, and assert the *stronger* current
// contract: the compiler accepts them and the result matches the pure
// reference interpreter.

/// One chunk op: whether it copies (else it reduces), then its source
/// and destination chunks as (rank, buffer, chunk index).
type ChunkOp = (bool, (usize, Buf, usize), (usize, Buf, usize));

fn replay_pinned(name: &str, ops: &[ChunkOp], instances: usize, seed: u64) {
    const CHUNK: usize = 32;
    let world = 8usize;
    let mut prog = Program::new(name, world);
    for (is_copy, src, dst) in ops {
        if *is_copy {
            prog.copy(*src, *dst).unwrap();
        } else {
            prog.reduce(*src, *dst).unwrap();
        }
    }
    let in_chunks = prog.chunk_count(Buf::Input).max(1);
    let out_chunks = prog.chunk_count(Buf::Output).max(1);
    let scr_chunks = prog.chunk_count(Buf::Scratch);

    let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    let mut setup = Setup::new(&mut engine);
    let inputs = setup.alloc_all(in_chunks * CHUNK * 4);
    let outputs = setup.alloc_all(out_chunks * CHUNK * 4);
    let exe = prog
        .compile(
            &mut setup,
            &inputs,
            &outputs,
            CompileOptions {
                instances,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{name}: compiler rejected pinned case: {e}"));
    let val = move |r: usize, i: usize| ((seed as usize + r * 5 + i) % 9) as f32;
    for (r, &input) in inputs.iter().enumerate() {
        engine
            .world_mut()
            .pool_mut()
            .fill_with(input, DataType::F32, move |i| val(r, i));
    }
    exe.launch(&mut engine).unwrap();

    // Pure reference interpreter: [rank][buf][chunk][elem].
    let bidx = |b: Buf| match b {
        Buf::Input => 0,
        Buf::Output => 1,
        Buf::Scratch => 2,
    };
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
    for (is_copy, src, dst) in ops {
        let s = state[src.0][bidx(src.1)][src.2].clone();
        let d = &mut state[dst.0][bidx(dst.1)][dst.2];
        for (x, y) in d.iter_mut().zip(s.iter()) {
            if *is_copy {
                *x = *y;
            } else {
                *x += *y;
            }
        }
    }
    for r in 0..world {
        let got = engine.world().pool().to_f32_vec(outputs[r], DataType::F32);
        for c in 0..out_chunks {
            for i in 0..CHUNK {
                assert_eq!(
                    got[c * CHUNK + i],
                    state[r][1][c][i],
                    "{name}: rank {r} output chunk {c} elem {i}"
                );
            }
        }
    }
}

/// Self-reduce of an untouched scratch chunk must not disturb an
/// unrelated local Input → Output reduce.
#[test]
fn dsl_regression_scratch_self_reduce() {
    replay_pinned(
        "regression-scratch-self-reduce",
        &[
            (false, (2, Buf::Scratch, 0), (2, Buf::Scratch, 0)),
            (false, (0, Buf::Input, 0), (0, Buf::Output, 0)),
        ],
        1,
        0,
    );
}

/// A cross-rank reduce from scratch must read the chunk's value at
/// program point, not after the later Input → Scratch reduce.
#[test]
fn dsl_regression_scratch_read_before_write() {
    replay_pinned(
        "regression-scratch-read-before-write",
        &[
            (false, (0, Buf::Scratch, 0), (1, Buf::Output, 0)),
            (false, (0, Buf::Input, 0), (0, Buf::Scratch, 0)),
        ],
        1,
        0,
    );
}

// ---- Plan-text fuzzing ---------------------------------------------------

use proptest::prelude::*;

/// One fuzzed plan line: a real directive verb followed by a random
/// number of tokens drawn from the plan vocabulary (buffer kinds, the
/// arrow, numbers, garbage) — so truncations, extra fields, and
/// misplaced arrows all get exercised.
struct PlanLine;

impl Strategy for PlanLine {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        const VERBS: [&str; 8] = [
            "copy", "reduce", "mmreduce", "mmbcast", "name", "world", "junk", "#",
        ];
        const TOKS: [&str; 9] = ["in", "out", "scratch", "->", "0", "1", "3", "99", "x"];
        let mut line = String::from(VERBS[(rng.next_u64() as usize) % VERBS.len()]);
        for _ in 0..(rng.next_u64() as usize) % 8 {
            line.push(' ');
            line.push_str(TOKS[(rng.next_u64() as usize) % TOKS.len()]);
        }
        line
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn plan_parser_never_panics(lines in collection::vec(PlanLine, 0..10)) {
        // With a header, op lines get past the `world` check; without it,
        // the header-validation paths are exercised. Either way the
        // parser must return `DslError`, never panic.
        let body = lines.join("\n");
        let _ = Program::from_plan_text(&format!("world 8\n{body}"));
        let _ = Program::from_plan_text(&body);
    }
}

#[test]
fn plan_parser_rejects_truncated_mmbcast() {
    // Pinned from `plan_parser_never_panics`: a trailing `->` with no
    // group tokens used to index past the end of the token list and
    // panic instead of reporting a parse error.
    let err = Program::from_plan_text("world 2\nmmbcast 0 in 0 ->").unwrap_err();
    assert!(err.to_string().contains("truncated group"), "{err}");
    let err = Program::from_plan_text("world 2\nmmbcast 0 in 0 -> out").unwrap_err();
    assert!(err.to_string().contains("truncated group"), "{err}");
}
