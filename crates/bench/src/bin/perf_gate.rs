//! Perf-regression gate for host time: runs the pinned suite's four
//! host-clock cases (see `bench::gate`) one after another, writes
//! `BENCH_<date>.json` into the results directory, and compares each
//! median against the committed baseline within one band
//! (`gate::BAND`). Virtual time is not gated here: it is deterministic,
//! and the golden and serving tests pin it exactly.
//!
//! Usage:
//!   perf_gate                  run suite, compare vs baseline, exit 1 on
//!                              regression
//!   perf_gate --write-baseline run suite and (re)write BENCH_baseline.json
//!
//! Environment:
//!   RESULTS_DIR         output directory (default `results`)
//!   PERF_GATE_ITERS     timed iterations per case (default 3)
//!   BENCH_DATE          override the date stamp (e.g. `2026-08-06`)

use bench::gate::{self, Verdict};
use bench::report::results_dir;

fn main() {
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let iters: usize = std::env::var("PERF_GATE_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let band = (gate::BAND * 100.0).round() as u32;

    let suite = gate::pinned_suite();
    println!(
        "perf_gate: {} host-clock cases, {iters} iters each, {band}% band",
        suite.len()
    );
    let results: Vec<gate::CaseResult> = suite
        .iter()
        .map(|case| gate::run_case(case, iters))
        .collect();
    for (case, r) in suite.iter().zip(&results) {
        let aux = match case {
            gate::Case::EngineThroughput { .. } => format!("{:>10.0} ev/s", r.eps),
            gate::Case::ServingObservability => format!("{:>8.2}% overhead", r.eps),
            gate::Case::SemanticVerify { .. } => format!("max {:>10.1}us", r.max_us),
        };
        println!(
            "  {:<48} p50 {:>10.1}us  p95 {:>10.1}us  p99 {:>10.1}us  {aux}",
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
    for (name, verdict) in gate::compare(&results, &baseline) {
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
            } => {
                regressions += 1;
                println!(
                    "  REGRESSION  {name}: p50 {base_p50_us:.1}us -> {new_p50_us:.1}us, beyond its {band}% band"
                );
            }
        }
    }
    if regressions > 0 {
        println!("perf_gate: FAIL ({regressions} regression(s) beyond {band}% tolerance)");
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
