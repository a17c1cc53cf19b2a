//! `cargo bench` entry point that regenerates every table and figure of
//! the paper in compact form (reduced sweeps so the run completes in
//! minutes; use the `--full` flag on the per-figure binaries for the
//! complete ranges).

fn main() {
    // `cargo bench` passes flags like `--bench`; this harness ignores them.
    bench::figures::table1();
    bench::figures::fig8(false);
    bench::figures::fig9(false);
    bench::figures::fig10(false);
    bench::figures::fig11(false);
    bench::figures::fig12(false);
    bench::figures::gain_breakdown(false);
    bench::figures::table_registers();
    bench::figures::ablation_copy_modes(false);
    bench::figures::ablation_dsl(false);
    bench::figures::ablation_rotation();
    bench::figures::ablation_loop_order(false);
    bench::figures::utilization_report(false);
}
