//! Calibration snapshot: the three stacks side by side on A100-40G at
//! four anchor sizes, with MSCCL++'s speedup factors — a quick check
//! that the reproduction tracks the paper's §5.1 gain breakdown
//! (1 KB: NCCL ≈ 4x, MSCCL ≈ 1.9x slower than MSCCL++).
//!
//! Every cell is an AllReduce measured by [`bench::measure`], the path
//! behind the figures: NCCL's is the fastest of its tuning candidates,
//! each launched on a fresh timing-only cluster, and every launch's plan
//! is proven by the verifier before it runs.
//!
//! Run with: `cargo run --release --example calibration_check`

use bench::{measure, Coll, Pick, Stack, Target};
use hw::EnvKind;

fn main() {
    let target = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    for bytes in [1 << 10, 32 << 10, 1 << 20, 64 << 20] {
        let [nccl, msccl, mscclpp] = Stack::ALL
            .map(|stack| measure(stack, Coll::AllReduce, target, bytes, Pick::Default, None).0);
        println!(
            "{bytes:>10} B  NCCL {nccl:>9.2}us  MSCCL {msccl:>9.2}us  MSCCL++ {mscclpp:>9.2}us  \
             | speedup vs NCCL {:.2}x vs MSCCL {:.2}x",
            nccl / mscclpp,
            msccl / mscclpp
        );
    }
}
