//! Runs one AllReduce per stack at 32 KB, 1 MB, 16 MB and 64 MB and
//! writes a machine-readable observability report (latency + sync
//! counters + per-link utilization) to
//! `results/observability_allreduce.json`.

use bench::report::{observe_allreduce, runs_to_json, write_results_json, StackRun};
use bench::{fmt_bytes, Target};
use hw::EnvKind;

fn main() {
    let t = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };

    let mut all: Vec<StackRun> = Vec::new();
    println!("==== AllReduce observability (A100-40G, 8 GPUs) ====");
    for bytes in [32 << 10, 1 << 20, 16 << 20, 64 << 20] {
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
