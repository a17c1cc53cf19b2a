//! Runs one AllReduce per stack at several sizes and writes a
//! machine-readable observability report (latency + sync counters +
//! per-link utilization) to `results/observability_allreduce.json`.
//! Pass `--full` to add the 64 MB point.

use bench::report::{observe_allreduce, runs_to_json, write_results_json, StackRun};
use bench::{fmt_bytes, Target};
use hw::EnvKind;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let t = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    let mut sizes = vec![32 << 10, 1 << 20, 16 << 20];
    if full {
        sizes.push(64 << 20);
    }

    let mut all: Vec<StackRun> = Vec::new();
    println!("==== AllReduce observability (A100-40G, 8 GPUs) ====");
    for &bytes in &sizes {
        let runs = observe_allreduce(t, bytes);
        for run in &runs {
            let busiest = run
                .links
                .iter()
                .max_by(|a, b| a.utilization.total_cmp(&b.utilization));
            println!(
                "{:>8} {:>12}: {:>9.1} us | waits {:>5} signals {:>5} puts {:>5} | peak link {:.0}% ({})",
                fmt_bytes(bytes),
                run.stack,
                run.latency_us,
                run.counter("sync.waits"),
                run.counter("sync.signals"),
                run.counter("ops.puts"),
                busiest.map_or(0.0, |l| l.utilization * 100.0),
                busiest.map_or("-", |l| l.label.as_str()),
            );
        }
        all.extend(runs);
    }

    let json = runs_to_json("allreduce observability sweep", t, None, &all);
    match write_results_json("observability_allreduce.json", &json) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write results: {e}");
            std::process::exit(1);
        }
    }
}
