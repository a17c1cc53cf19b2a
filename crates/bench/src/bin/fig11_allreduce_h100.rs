//! Regenerates Figure 11 (AllReduce on one H100 node, with the
//! SwitchChannel comparison): prints `results/fig11.txt` exactly.

fn main() {
    bench::figures::fig11();
}
