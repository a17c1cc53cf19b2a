//! Regenerates Figure 9 (AllGather on A100-40G, 1, 2 and 4 nodes):
//! prints `results/fig9.txt` exactly.

fn main() {
    bench::figures::fig9();
}
