//! Regenerates the §3.2.3 registers-per-thread table: prints
//! `results/table_registers.txt` exactly.

fn main() {
    bench::figures::table_registers();
}
