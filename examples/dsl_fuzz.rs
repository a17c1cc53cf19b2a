//! Brute-force random-program search over the DSL compiler, mirroring the
//! `dsl_compiler_matches_reference_interpreter` property with far more
//! cases (used to hunt for compile-path ordering bugs).

use hw::{DataType, EnvKind, Machine};
use mscclpp_dsl::{Buf, CompileOptions, Program};
use sim::Engine;

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() as usize) % n
    }
}

fn chunk(rng: &mut Rng, writable: bool) -> (usize, Buf, usize) {
    let bufs = if writable {
        vec![Buf::Output, Buf::Scratch]
    } else {
        vec![Buf::Input, Buf::Output, Buf::Scratch]
    };
    (rng.below(4), bufs[rng.below(bufs.len())], rng.below(3))
}

/// One chunk op: whether it copies (else it reduces), then its source
/// and destination chunks as (rank, buffer, chunk index).
type ChunkOp = (bool, (usize, Buf, usize), (usize, Buf, usize));

fn main() {
    const CHUNK: usize = 8;
    let world = 8usize;
    let mut rejected = 0usize;
    let mut launch_fail = 0usize;
    let mut mismatch = 0usize;
    let total = 20000usize;
    for case in 0..total {
        let mut rng = Rng(case as u64);
        let n_ops = 1 + rng.below(19);
        let ops: Vec<ChunkOp> = (0..n_ops)
            .map(|_| {
                let is_copy = rng.next() & 1 == 1;
                (is_copy, chunk(&mut rng, false), chunk(&mut rng, true))
            })
            .collect();
        let instances = 1 + rng.below(2);
        let seed = rng.below(500) as u64;

        let mut prog = Program::new("fuzz", world);
        for (is_copy, src, dst) in &ops {
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
        let Ok(exe) = compiled else {
            rejected += 1;
            continue;
        };
        let val = move |r: usize, i: usize| ((seed as usize + r * 5 + i) % 9) as f32;
        for (r, &input) in inputs.iter().enumerate() {
            engine
                .world_mut()
                .pool_mut()
                .fill_with(input, DataType::F32, move |i| val(r, i));
        }
        if let Err(e) = exe.launch(&mut engine) {
            launch_fail += 1;
            if launch_fail <= 3 {
                println!(
                    "case {case}: LAUNCH FAILED: {e}\n  ops = {ops:?}, instances = {instances}"
                );
            }
            continue;
        }
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
        for (is_copy, src, dst) in &ops {
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
        let mut ok = true;
        'outer: for r in 0..world {
            let got = engine.world().pool().to_f32_vec(outputs[r], DataType::F32);
            for c in 0..out_chunks {
                for i in 0..CHUNK {
                    if got[c * CHUNK + i] != state[r][1][c][i] {
                        ok = false;
                        break 'outer;
                    }
                }
            }
        }
        if !ok {
            mismatch += 1;
            if mismatch <= 5 {
                println!("case {case}: MISMATCH\n  ops = {ops:?}, instances = {instances}, seed = {seed}");
            }
        }
    }
    println!(
        "{total} cases: {} accepted+ok, {rejected} rejected, {launch_fail} launch failures, {mismatch} mismatches",
        total - rejected - launch_fail - mismatch
    );
}
