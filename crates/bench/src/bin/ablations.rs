//! Regenerates the design-choice ablations: §5.1 gain breakdown,
//! §2.2.2 copy modes, §5.1 DSL overhead, §4.4 rotating buffers, §5.3
//! loop order and the link-utilization report. Prints
//! `results/ablations.txt` exactly, and writes `utilization.json` into
//! the results directory (`RESULTS_DIR`, default `results/`), naming it
//! on stderr.

fn main() {
    bench::figures::gain_breakdown();
    bench::figures::ablation_copy_modes();
    bench::figures::ablation_dsl();
    bench::figures::ablation_rotation();
    bench::figures::ablation_loop_order();
    bench::figures::utilization_report();
}
