//! Regenerates Table 1 (the evaluation environments): prints
//! `results/table1.txt` exactly.

fn main() {
    bench::figures::table1();
}
