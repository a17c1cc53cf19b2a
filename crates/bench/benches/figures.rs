//! `cargo bench` entry point that regenerates every table and figure of
//! the paper, the same runs the per-figure binaries print.

fn main() {
    // `cargo bench` passes flags like `--bench`; this harness ignores them.
    bench::figures::table1();
    bench::figures::fig8();
    bench::figures::fig9();
    bench::figures::fig10();
    bench::figures::fig11();
    bench::figures::fig12();
    bench::figures::gain_breakdown();
    bench::figures::table_registers();
    bench::figures::ablation_copy_modes();
    bench::figures::ablation_dsl();
    bench::figures::ablation_rotation();
    bench::figures::ablation_loop_order();
    bench::figures::utilization_report();
}
