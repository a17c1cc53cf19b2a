//! Regenerates Figure 10 (Llama2-70b decode and prefill, TP=8 on
//! A100-80G): prints `results/fig10.txt` exactly.

fn main() {
    bench::figures::fig10();
}
