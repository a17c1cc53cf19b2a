//! Regenerates Figure 12 (AllReduce on one MI300x node against RCCL and
//! MSCCL): prints `results/fig12.txt` exactly.

fn main() {
    bench::figures::fig12();
}
