//! Regenerates Figure 8 (AllReduce on A100-40G, 1, 2 and 4 nodes):
//! prints `results/fig8.txt` exactly.

fn main() {
    bench::figures::fig8();
}
