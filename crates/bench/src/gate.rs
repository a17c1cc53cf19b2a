//! The perf-regression gate for host time: a pinned suite of four
//! host-clock cases with histogram-backed per-case percentiles, a JSON
//! artifact format, and one tolerance band against a committed
//! baseline. The `perf_gate` binary drives this from CI.
//!
//! Only the host clock is gated here. Virtual time is deterministic, so
//! its results are pinned exactly instead: the golden tests
//! (`tests/golden.rs`) hold the latency bits of every warm-launch
//! collective case, and the serving tests hold FNV-1a digests of their
//! reports.

use profile::Histogram;
use sim::json;

use crate::report::SCHEMA_VERSION;
use crate::{Bench, Coll, Pick, Stack, Target};
use hw::{DataType, EnvKind, Machine, ReduceOp};

/// One pinned suite entry. Every case measures the host clock.
#[derive(Debug, Clone, PartialEq)]
pub enum Case {
    /// An engine-throughput case: wall-clock events/sec of the DES core
    /// itself, measured on a small-message AllReduce where scheduler
    /// cost dominates data movement. Gates the simulator's own speed.
    EngineThroughput {
        /// Environment + nodes (8 ranks/node).
        target: Target,
        /// Message bytes (small, so engine cost dominates).
        bytes: usize,
    },
    /// A verifier-scalability case: host wall-clock of one full static
    /// verification (happens-before construction, race scan, and the
    /// semantic dataflow pass) over a large hierarchical AllReduce plan.
    /// Gates the prover's own speed on big worlds — verification is
    /// default-on in every comm, so a slow verifier taxes every first
    /// launch.
    SemanticVerify {
        /// Environment + nodes (8 ranks/node).
        target: Target,
        /// Message bytes.
        bytes: usize,
    },
    /// Observability overhead: host wall-clock of the pinned 2×-knee
    /// serving scenario run bare (request tracing and telemetry off)
    /// versus fully instrumented (per-request tracing on, 500 µs
    /// telemetry sampler), interleaved on the same host. Pins the
    /// sampler+rtrace cost at ≤ 5 % of the bare median — observability
    /// must stay cheap enough to leave on by default.
    ServingObservability,
}

impl Case {
    /// Stable case name used as the baseline join key.
    pub fn name(&self) -> String {
        match self {
            Case::EngineThroughput { target, bytes } => {
                format!(
                    "engine/allreduce/{:?}/{}/{}B",
                    target.env,
                    target.label(),
                    bytes
                )
            }
            Case::SemanticVerify { target, bytes } => {
                format!(
                    "commverify/allreduce/{:?}/{}/{}B",
                    target.env,
                    target.label(),
                    bytes
                )
            }
            Case::ServingObservability => {
                "serving-observability/mscclpp/A100_80G/llama2-13b/2x-knee".to_owned()
            }
        }
    }
}

/// The pinned suite, in baseline order. Append new cases; never re-order
/// or rename existing ones (names are baseline keys).
pub fn pinned_suite() -> Vec<Case> {
    let one_node = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    let eight_nodes = Target {
        env: EnvKind::A100_40G,
        nodes: 8,
    };
    vec![
        // Engine throughput (events/sec of the DES core): a pinned
        // 8-rank AllReduce and a pinned 64-rank hierarchical plan, both
        // at 1 KB so scheduler cost dominates data movement.
        Case::EngineThroughput {
            target: one_node,
            bytes: 1 << 10,
        },
        Case::EngineThroughput {
            target: eight_nodes,
            bytes: 1 << 10,
        },
        // Verifier scalability: one full verification (HB + races + the
        // semantic dataflow pass) of a 64-rank hierarchical AllReduce
        // plan.
        Case::SemanticVerify {
            target: eight_nodes,
            bytes: 1 << 10,
        },
        // Observability overhead on the 2×-knee serving scenario:
        // request tracing + telemetry sampling must cost ≤ 5 %.
        Case::ServingObservability,
    ]
}

/// Measured percentiles for one case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// The case's stable name.
    pub name: String,
    /// Samples folded into the percentiles.
    pub samples: u64,
    /// Median latency (µs).
    pub p50_us: f64,
    /// 95th-percentile latency (µs).
    pub p95_us: f64,
    /// 99th-percentile latency (µs).
    pub p99_us: f64,
    /// Exact maximum (µs).
    pub max_us: f64,
    /// Mean (µs).
    pub mean_us: f64,
    /// The case's auxiliary metric: engine events per second for
    /// engine-throughput cases, signed measured overhead in percent for
    /// the observability case; 0 elsewhere.
    pub eps: f64,
}

impl CaseResult {
    fn from_hist(name: String, h: &Histogram) -> CaseResult {
        CaseResult {
            name,
            samples: h.count(),
            p50_us: h.p50() as f64 / 1e3,
            p95_us: h.p95() as f64 / 1e3,
            p99_us: h.p99() as f64 / 1e3,
            max_us: h.max() as f64 / 1e3,
            mean_us: h.mean() / 1e3,
            eps: 0.0,
        }
    }
}

/// Runs one case for `iters` timed iterations; the histogram records
/// each iteration's host wall time in ns.
pub fn run_case(case: &Case, iters: usize) -> CaseResult {
    let name = case.name();
    match case {
        Case::EngineThroughput { target, bytes } => {
            let (h, eps) = run_engine_throughput(*target, *bytes, iters);
            let mut r = CaseResult::from_hist(name, &h);
            r.eps = eps;
            r
        }
        Case::SemanticVerify { target, bytes } => {
            CaseResult::from_hist(name, &run_semantic_verify(*target, *bytes, iters))
        }
        Case::ServingObservability => {
            let (h, overhead) = run_serving_observability(iters);
            let mut r = CaseResult::from_hist(name, &h);
            r.eps = overhead * 100.0;
            r
        }
    }
}

/// Runs the pinned 2×-knee serving scenario bare and instrumented,
/// interleaved `iters` times after one untimed warmup pair, and returns
/// the instrumented wall-clock histogram (ns) plus the signed median
/// overhead fraction (negative when the instrumented median came out
/// faster, i.e. within host noise). Panics if the instrumented median
/// exceeds the bare median by more than 5 % plus 200 µs of absolute
/// timer slack (each run takes about 15 ms of host time on a 2-vCPU
/// machine: the serving engine is timing-only, so the budget weighs
/// request tracing and the sampler against the scheduler and the
/// collectives' control plane, not byte copies), if instrumentation
/// perturbs the simulation, or if any recorded timeline's blame buckets
/// fail to tile its end-to-end latency exactly.
fn run_serving_observability(iters: usize) -> (Histogram, f64) {
    use inference::ObserveConfig;

    let run = |observe: ObserveConfig| {
        let mut engine = inference::ServingEngine::new(
            EnvKind::A100_80G,
            inference::ModelConfig::llama2_13b(),
            16 * 1024,
        );
        let backend = inference::MscclppBackend::new();
        let trace = inference::synthetic_trace(40, 96, 12, 7_000.0, 9);
        let mut cfg =
            inference::ServeConfig::slo_aware(8, inference::SloSpec::new(100_000.0, 12_000.0));
        cfg.admission.max_queue_depth = 5;
        cfg.seed = 9;
        cfg.observe = observe;
        let t0 = std::time::Instant::now();
        let (report, obs) = inference::serve_trace_observed(&mut engine, &backend, &trace, &cfg)
            .expect("serving observability run");
        (t0.elapsed().as_nanos() as u64, report, obs, trace.len())
    };
    let bare = ObserveConfig {
        rtrace: false,
        telemetry: None,
    };
    let full = ObserveConfig {
        rtrace: true,
        telemetry: Some(sim::SamplerConfig::new(500.0, 4096)),
    };

    // Warmup pair (untimed): absorbs first-touch allocation and fills
    // caches; also the one place the instrumented output is validated.
    let (_, base_report, _, _) = run(bare);
    let (_, mut report, obs, requests) = run(full);
    // The exemplar ring only exists when tracing is on; everything else
    // must be bit-identical — observability cannot perturb the run.
    report.worst_misses.clear();
    assert_eq!(
        report, base_report,
        "observability must not perturb the simulation"
    );
    assert_eq!(
        obs.timelines.len(),
        requests,
        "every request that reached the door gets a timeline"
    );
    for tl in &obs.timelines {
        assert!(
            tl.tiles_exactly(),
            "request {} blame does not tile its latency",
            tl.id
        );
    }
    let sampler = obs.telemetry.as_ref().expect("sampler configured");
    assert!(!sampler.is_empty(), "sampler never fired");

    let mut bare_ns = Vec::with_capacity(iters);
    let mut full_ns = Vec::with_capacity(iters);
    let mut h = Histogram::new();
    for _ in 0..iters {
        bare_ns.push(run(bare).0);
        let ns = run(full).0;
        full_ns.push(ns);
        h.record(ns);
    }
    bare_ns.sort_unstable();
    full_ns.sort_unstable();
    let bare_med = bare_ns[bare_ns.len() / 2] as f64;
    let full_med = full_ns[full_ns.len() / 2] as f64;
    assert!(
        full_med <= bare_med * 1.05 + 200_000.0,
        "observability overhead over budget: bare {bare_med:.0} ns, instrumented {full_med:.0} ns"
    );
    (h, (full_med - bare_med) / bare_med)
}

/// Times the full static verifier — happens-before graph, race scan,
/// and the semantic dataflow pass against the plan's [`commverify::CollectiveSpec`]
/// — over a hierarchical AllReduce plan compiled once. Each iteration is
/// one cold verification (the verifier keeps no cross-run state), so the
/// histogram is pure prover wall-clock.
fn run_semantic_verify(target: Target, bytes: usize, iters: usize) -> Histogram {
    let mut b = Bench::new(Stack::Mscclpp, target, None, Machine::timing_only);
    let ins = b.inputs(bytes);
    let outs = b.outputs(Coll::AllReduce, bytes);
    let (kernels, spec) = collective::CollComm::new()
        .plan_all_reduce_with(
            &mut b.engine,
            &ins,
            &outs,
            bytes / 2,
            DataType::F16,
            ReduceOp::Sum,
            collective::AllReduceAlgo::HierHb,
        )
        .expect("semantic-verify gate plan");
    let checks = commverify::Checks::all();
    let mut h = Histogram::new();
    for _ in 0..iters {
        let t0 = std::time::Instant::now();
        let report =
            commverify::analyze_collective(&kernels, b.engine.world().pool(), &checks, &spec);
        h.record(t0.elapsed().as_nanos() as u64);
        assert!(
            report.is_clean(),
            "semantic-verify gate case must verify clean: {report}"
        );
    }
    h
}

/// Measures DES-core throughput: repeated small-message AllReduce on one
/// warm engine, recording per-iteration host wall time (ns) and the
/// aggregate events/sec over all iterations. The event count is
/// deterministic, so eps varies only with host speed and engine cost.
///
/// Steady-state methodology: input buffers are allocated, filled, and
/// registered once — re-registering buffers per call is exactly the
/// anti-pattern the paper argues against — so the timed loop measures
/// only launch + simulation cost. An untimed warmup launch prepares and
/// verifies the plan and absorbs first-touch allocation.
fn run_engine_throughput(target: Target, bytes: usize, iters: usize) -> (Histogram, f64) {
    let mut b = Bench::new(Stack::Mscclpp, target, None, Machine::new);
    let outs = b.outputs(Coll::AllReduce, bytes);
    let ins = b.inputs(bytes);
    b.fill(&ins);
    let launch = |b: &mut Bench| {
        b.launch(Coll::AllReduce, &ins, &outs, Pick::Default)
            .expect("engine throughput case");
    };
    launch(&mut b);
    let mut h = Histogram::new();
    let ev0 = b.engine.events_processed();
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        let it0 = std::time::Instant::now();
        launch(&mut b);
        h.record(it0.elapsed().as_nanos() as u64);
    }
    let wall = t0.elapsed().as_secs_f64();
    let events = b.engine.events_processed() - ev0;
    b.verify(Coll::AllReduce, &outs, bytes);
    (h, events as f64 / wall.max(1e-9))
}

/// Serializes gate results as the `BENCH_<date>.json` artifact.
pub fn results_to_json(date: &str, iters: usize, results: &[CaseResult]) -> String {
    let cases = results.iter().map(|r| {
        format!(
            "{{\"name\":{},\"samples\":{},\"p50_us\":{:.3},\"p95_us\":{:.3},\"p99_us\":{:.3},\"max_us\":{:.3},\"mean_us\":{:.3},\"eps\":{:.1}}}",
            json::quote(&r.name),
            r.samples,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.max_us,
            r.mean_us,
            r.eps
        )
    });
    // Every case plans through a comm whose pre-launch verification runs
    // the semantic dataflow pass by default, and the `commverify/` wall
    // case re-asserts a clean report each iteration — a finding anywhere
    // aborts the gate, so a written artifact always carries `true`.
    format!(
        "{{\"title\":\"perf_gate\",\"schema_version\":{SCHEMA_VERSION},\"date\":{},\"iters\":{iters},\"semantics_verified\":true,\"cases\":[{}]}}\n",
        json::quote(date),
        json::join(cases)
    )
}

/// Reads the cases back from an artifact written by [`results_to_json`]:
/// each case's name and numeric fields. Tolerant of unknown fields (a
/// missing number reads as 0); reading stops at the first case without
/// a name, and a document without a readable `cases` array has none.
pub fn parse_results(doc: &str) -> Vec<CaseResult> {
    let cases = json::field(doc, "cases").unwrap_or("[]");
    json::items(cases)
        .map_while(|case| {
            let num = |key| json::get(case, key).unwrap_or(0.0);
            Some(CaseResult {
                name: json::unquote(json::field(case, "name")?)?,
                samples: num("samples") as u64,
                p50_us: num("p50_us"),
                p95_us: num("p95_us"),
                p99_us: num("p99_us"),
                max_us: num("max_us"),
                mean_us: num("mean_us"),
                eps: num("eps"),
            })
        })
        .collect()
}

/// One baseline comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within the tolerance band.
    Ok,
    /// Slower than baseline beyond [`BAND`]: fails the gate.
    Regression {
        /// Baseline median (µs).
        base_p50_us: f64,
        /// Measured median (µs).
        new_p50_us: f64,
    },
    /// Faster than baseline beyond [`BAND`]: passes, but the baseline
    /// deserves a refresh.
    Improvement {
        /// Baseline median (µs).
        base_p50_us: f64,
        /// Measured median (µs).
        new_p50_us: f64,
    },
    /// No baseline entry for this case (newly added).
    New,
}

/// The fractional tolerance band on every case's median: wide, because
/// host wall-clock jitters on shared CI runners. A calendar-queue
/// regression that halves throughput still trips it.
pub const BAND: f64 = 0.60;

/// Compares measured results against a baseline. A case regresses when
/// its median exceeds the baseline median by more than [`BAND`] plus
/// 0.5 µs of absolute slack, and improves when it falls below by as
/// much.
pub fn compare(results: &[CaseResult], baseline: &[CaseResult]) -> Vec<(String, Verdict)> {
    const ABS_SLACK_US: f64 = 0.5;
    results
        .iter()
        .map(|r| {
            let verdict = match baseline.iter().find(|b| b.name == r.name) {
                None => Verdict::New,
                Some(b) => {
                    let (base_p50_us, new_p50_us) = (b.p50_us, r.p50_us);
                    if new_p50_us > base_p50_us * (1.0 + BAND) + ABS_SLACK_US {
                        Verdict::Regression {
                            base_p50_us,
                            new_p50_us,
                        }
                    } else if new_p50_us < base_p50_us * (1.0 - BAND) - ABS_SLACK_US {
                        Verdict::Improvement {
                            base_p50_us,
                            new_p50_us,
                        }
                    } else {
                        Verdict::Ok
                    }
                }
            };
            (r.name.clone(), verdict)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, p50: f64) -> CaseResult {
        CaseResult {
            name: name.to_owned(),
            samples: 3,
            p50_us: p50,
            p95_us: p50 * 1.1,
            p99_us: p50 * 1.2,
            max_us: p50 * 1.3,
            mean_us: p50,
            eps: 0.0,
        }
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let results = vec![
            case("allreduce/mscclpp/A100_40G/1n8g/32768B", 12.345),
            case("serving", 987.0),
        ];
        let json = results_to_json("2026-08-06", 3, &results);
        assert!(json.contains("\"schema_version\":"));
        assert!(json.contains("\"date\":\"2026-08-06\""));
        let parsed = parse_results(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, results[0].name);
        assert!((parsed[0].p50_us - 12.345).abs() < 1e-9);
        assert_eq!(parsed[1].samples, 3);
    }

    #[test]
    fn compare_flags_regressions_and_tolerates_noise() {
        let base = vec![case("a", 100.0), case("b", 100.0), case("c", 100.0)];
        let new = vec![
            case("a", 170.0), // +70%: beyond the 60% band
            case("b", 140.0), // +40% host jitter: inside the band
            case("c", 30.0),  // -70%: beyond the band the other way
            case("d", 50.0),  // not in baseline
        ];
        let verdicts: Vec<Verdict> = compare(&new, &base).into_iter().map(|(_, v)| v).collect();
        assert_eq!(
            verdicts,
            [
                Verdict::Regression {
                    base_p50_us: 100.0,
                    new_p50_us: 170.0,
                },
                Verdict::Ok,
                // Large speedups are reported as improvements, not
                // silently Ok.
                Verdict::Improvement {
                    base_p50_us: 100.0,
                    new_p50_us: 30.0,
                },
                Verdict::New,
            ]
        );
    }

    #[test]
    fn committed_baseline_lists_exactly_the_pinned_suite() {
        // A suite case missing from the baseline would read NEW and pass
        // unjudged; a baseline entry without a case would never be read.
        let suite: Vec<String> = pinned_suite().iter().map(Case::name).collect();
        let unique: std::collections::BTreeSet<&String> = suite.iter().collect();
        assert_eq!(unique.len(), suite.len(), "duplicate case names");
        let baseline: Vec<String> =
            parse_results(include_str!("../../../results/BENCH_baseline.json"))
                .into_iter()
                .map(|r| r.name)
                .collect();
        assert_eq!(baseline, suite);
    }

    #[test]
    fn parser_handles_exponents_and_negatives() {
        // Hand-written artifact with exponent-form and negative numbers:
        // the parser must take the whole number, not truncate at `e`.
        let json = "{\"cases\":[{\"name\":\"x\",\"samples\":2,\"p50_us\":1.2e3,\
                     \"p95_us\":4E-2,\"p99_us\":-7.5,\"max_us\":1e4,\
                     \"mean_us\":1250.0,\"eps\":3.4e6}]}";
        let parsed = parse_results(json);
        assert_eq!(parsed.len(), 1);
        assert!((parsed[0].p50_us - 1200.0).abs() < 1e-9);
        assert!((parsed[0].p95_us - 0.04).abs() < 1e-9);
        assert!((parsed[0].p99_us + 7.5).abs() < 1e-9);
        assert!((parsed[0].max_us - 10_000.0).abs() < 1e-9);
        assert!((parsed[0].eps - 3.4e6).abs() < 1e-3);
        // And a full write→parse round trip preserves eps.
        let mut r = case("engine/allreduce/A100_40G/8n64g/1024B", 900.0);
        r.eps = 4_567_890.1;
        let round = parse_results(&results_to_json("2026-08-07", 3, &[r.clone()]));
        assert_eq!(round.len(), 1);
        assert!((round[0].eps - r.eps).abs() < 1.0);
    }
}
