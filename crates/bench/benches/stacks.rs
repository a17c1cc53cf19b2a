//! Criterion micro-benchmarks of the simulator itself: how fast (in
//! wall-clock time) each stack's collectives simulate. Useful for
//! keeping the harness usable as the repository grows.

use criterion::{criterion_group, criterion_main, Criterion};
use hw::EnvKind;

use bench::{measure, Coll, Pick, Stack, Target};

fn stacks(c: &mut Criterion) {
    let t = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    let run = |stack, bytes| measure(stack, Coll::AllReduce, t, bytes, Pick::Default, None);
    let mut g = c.benchmark_group("simulate_allreduce_64KB");
    g.sample_size(10);
    g.bench_function("mscclpp", |b| b.iter(|| run(Stack::Mscclpp, 64 << 10)));
    g.bench_function("msccl", |b| b.iter(|| run(Stack::Msccl, 64 << 10)));
    g.bench_function("nccl_tuned", |b| b.iter(|| run(Stack::Nccl, 64 << 10)));
    g.finish();

    let mut g = c.benchmark_group("simulate_allreduce_16MB");
    g.sample_size(10);
    g.bench_function("mscclpp", |b| b.iter(|| run(Stack::Mscclpp, 16 << 20)));
    g.finish();
}

criterion_group!(benches, stacks);
criterion_main!(benches);
