//! Perf-regression gate: runs the pinned suite (see `bench::gate`),
//! writes `BENCH_<date>.json` into the results directory, and compares
//! medians against the committed baseline.
//!
//! Usage:
//!   perf_gate                  run suite, compare vs baseline, exit 1 on
//!                              regression
//!   perf_gate --write-baseline run suite and (re)write BENCH_baseline.json
//!
//! Environment:
//!   RESULTS_DIR         output directory (default `results`)
//!   PERF_GATE_TOL       fractional tolerance band on p50 (default 0.10)
//!   PERF_GATE_WALL_TOL  tolerance for wall-clock cases
//!                       (default 0.60 — CI runners are noisy)
//!   PERF_GATE_ITERS     iterations per collective case (default 3)
//!   PERF_GATE_THREADS   worker threads for simulated-latency cases
//!                       (default 1; wall-clock cases always run serial,
//!                       alone on the machine, after the others)
//!   BENCH_DATE          override the date stamp (e.g. `2026-08-06`)

use bench::gate::{self, Verdict};
use bench::report::results_dir;
use bench::sweep;

fn main() {
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let tol: f64 = std::env::var("PERF_GATE_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.10);
    let wall_tol: f64 = std::env::var("PERF_GATE_WALL_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(gate::DEFAULT_WALL_TOL);
    let iters: usize = std::env::var("PERF_GATE_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let threads = sweep::threads_from_env("PERF_GATE_THREADS");

    let suite = gate::pinned_suite();
    println!(
        "perf_gate: {} cases, {iters} iters each, tol {:.0}% (wall {:.0}%), {threads} thread(s)",
        suite.len(),
        tol * 100.0,
        wall_tol * 100.0
    );
    // Simulated-latency cases are deterministic, so they can fan out
    // across threads; wall-clock cases run serially afterwards so nothing
    // competes with them for the machine. Results keep that order.
    let (sim_cases, wall_cases): (Vec<&gate::Case>, Vec<&gate::Case>) =
        suite.iter().partition(|c| !c.is_wall_clock());
    let mut results: Vec<gate::CaseResult> =
        sweep::parallel_map(&sim_cases, threads, |case| gate::run_case(case, iters));
    for case in &wall_cases {
        results.push(gate::run_case(case, iters));
    }
    for (case, r) in sim_cases.iter().chain(&wall_cases).zip(&results) {
        let clock = if case.is_wall_clock() { "host" } else { "sim" };
        let aux = match case {
            gate::Case::EngineThroughput { .. } => format!("{:>10.0} ev/s", r.eps),
            gate::Case::ServingGoodput => format!("{:>10.1} req/s goodput", r.eps),
            gate::Case::ServingObservability => format!("{:>8.2}% overhead", r.eps),
            _ => format!("max {:>10.1}us", r.max_us),
        };
        println!(
            "  {:<48} {clock:<4} p50 {:>10.1}us  p95 {:>10.1}us  p99 {:>10.1}us  {aux}",
            r.name, r.p50_us, r.p95_us, r.p99_us
        );
    }

    let date = std::env::var("BENCH_DATE").unwrap_or_else(|_| today_utc());
    let json = gate::results_to_json(&date, iters, &results);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let artifact = dir.join(format!("BENCH_{date}.json"));
    std::fs::write(&artifact, &json).expect("write artifact");
    println!("wrote {}", artifact.display());

    let baseline_path = dir.join("BENCH_baseline.json");
    if write_baseline {
        std::fs::write(&baseline_path, &json).expect("write baseline");
        println!("wrote {}", baseline_path.display());
        return;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => gate::parse_results(&s),
        Err(_) => {
            println!(
                "no baseline at {}; run with --write-baseline to create one",
                baseline_path.display()
            );
            return;
        }
    };

    let mut regressions = 0usize;
    // The bands the regressions were judged against, in whole percent.
    let mut bands = std::collections::BTreeSet::new();
    for (name, verdict) in gate::compare_with(&results, &baseline, tol, wall_tol) {
        match verdict {
            Verdict::Ok => {}
            Verdict::New => println!("  NEW         {name} (no baseline entry)"),
            Verdict::Improvement {
                base_p50_us,
                new_p50_us,
            } => println!(
                "  IMPROVEMENT {name}: p50 {base_p50_us:.1}us -> {new_p50_us:.1}us; consider refreshing the baseline"
            ),
            Verdict::Regression {
                base_p50_us,
                new_p50_us,
                band,
            } => {
                regressions += 1;
                let band = (band * 100.0).round() as u32;
                bands.insert(band);
                println!(
                    "  REGRESSION  {name}: p50 {base_p50_us:.1}us -> {new_p50_us:.1}us, beyond its {band}% band"
                );
            }
        }
    }
    if regressions > 0 {
        let bands: Vec<String> = bands.iter().map(|b| format!("{b}%")).collect();
        println!(
            "perf_gate: FAIL ({regressions} regression(s) beyond {} tolerance)",
            bands.join(" / ")
        );
        std::process::exit(1);
    }
    println!("perf_gate: PASS ({} cases within tolerance)", results.len());
}

/// Civil UTC date from the system clock (no date/time dependency in the
/// workspace; algorithm is the standard days-to-civil conversion).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}
