//! The perf-regression gate: a pinned benchmark suite with
//! histogram-backed per-case latency percentiles, a JSON artifact
//! format, and a tolerance-band comparison against a committed
//! baseline. The `perf_gate` binary drives this from CI.
//!
//! The simulator is deterministic, so re-running the suite on unchanged
//! code reproduces the baseline bit-for-bit; the tolerance band exists
//! to absorb *intentional* small timing shifts (a reworked overhead
//! constant) while catching real regressions.

use profile::Histogram;
use sim::json;

use crate::report::SCHEMA_VERSION;
use crate::{Bench, Coll, Pick, Stack, Target};
use hw::{DataType, EnvKind, ReduceOp};

/// One pinned suite entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Case {
    /// A collective micro-benchmark.
    Collective {
        /// The collective.
        coll: Coll,
        /// The stack running it.
        stack: Stack,
        /// Environment + nodes.
        target: Target,
        /// Message bytes (per-rank chunk for AllGather).
        bytes: usize,
    },
    /// The end-to-end serving scenario (request latency percentiles).
    Serving,
    /// SLO-aware serving at 2× the knee arrival rate: TTFT percentiles
    /// of the admitted requests, with goodput (SLO-met completions/sec)
    /// in `eps`. Pins the admission policy's overload behavior — a
    /// regression here means the knee moved or shedding stopped
    /// protecting admitted requests' deadlines.
    ServingGoodput,
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
    /// Post-recovery steady state: a multi-node world loses one rank
    /// mid-AllReduce, shrinks, and then runs AllReduce on the survivor
    /// group's rebuilt hierarchical (leader-relay) plan. Gates the
    /// recovery path's plan quality — a regression here means shrunken
    /// epochs got slower even though the healthy path is unchanged.
    ShrunkenAllReduce {
        /// Environment + nodes (8 ranks/node; one rank dies).
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
            Case::Collective {
                coll,
                stack,
                target,
                bytes,
            } => {
                let c = match coll {
                    Coll::AllReduce => "allreduce",
                    Coll::AllGather => "allgather",
                };
                format!(
                    "{c}/{}/{:?}/{}/{}B",
                    stack.name(),
                    target.env,
                    target.label(),
                    bytes
                )
            }
            Case::Serving => "serving/mscclpp/A100_80G/llama2-13b".to_owned(),
            Case::ServingGoodput => {
                "serving-goodput/mscclpp/A100_80G/llama2-13b/2x-knee".to_owned()
            }
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
            Case::ShrunkenAllReduce { target, bytes } => {
                format!(
                    "shrunken-allreduce/mscclpp/{:?}/{}/{}B",
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

    /// Whether this case measures host wall-clock (engine throughput)
    /// rather than simulated latency. Wall-clock cases get a wider
    /// tolerance band in [`compare_with`] and must not share the machine
    /// with concurrent benchmark threads.
    pub fn is_wall_clock(&self) -> bool {
        matches!(
            self,
            Case::EngineThroughput { .. }
                | Case::SemanticVerify { .. }
                | Case::ServingObservability
        )
    }
}

/// The pinned suite: AllReduce/AllGather × stacks × sizes on the A100
/// and H100 topologies, plus one serving scenario. Append new cases;
/// never re-order or rename existing ones (names are baseline keys).
pub fn pinned_suite() -> Vec<Case> {
    let a100 = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    let h100 = Target {
        env: EnvKind::H100,
        nodes: 1,
    };
    let mut cases = Vec::new();
    for &stack in &[Stack::Nccl, Stack::Msccl, Stack::Mscclpp] {
        for &coll in &[Coll::AllReduce, Coll::AllGather] {
            for &bytes in &[32 << 10, 1 << 20] {
                cases.push(Case::Collective {
                    coll,
                    stack,
                    target: a100,
                    bytes,
                });
            }
        }
    }
    for &stack in &[Stack::Nccl, Stack::Mscclpp] {
        for &coll in &[Coll::AllReduce, Coll::AllGather] {
            cases.push(Case::Collective {
                coll,
                stack,
                target: h100,
                bytes: 1 << 20,
            });
        }
    }
    cases.push(Case::Serving);
    // Engine-throughput cases (events/sec of the DES core): a pinned
    // 8-rank AllReduce and a pinned 64-rank hierarchical plan, both at
    // 1 KB so scheduler cost dominates data movement.
    cases.push(Case::EngineThroughput {
        target: a100,
        bytes: 1 << 10,
    });
    cases.push(Case::EngineThroughput {
        target: Target {
            env: EnvKind::A100_40G,
            nodes: 8,
        },
        bytes: 1 << 10,
    });
    // Verifier scalability: one full verification (HB + races + the
    // semantic dataflow pass) of a 64-rank hierarchical AllReduce plan,
    // measured in host wall-clock.
    cases.push(Case::SemanticVerify {
        target: Target {
            env: EnvKind::A100_40G,
            nodes: 8,
        },
        bytes: 1 << 10,
    });
    // Post-recovery steady state on a two-node survivor group (one rank
    // lost): pins the shrunken hierarchical plan's latency.
    cases.push(Case::ShrunkenAllReduce {
        target: Target {
            env: EnvKind::A100_40G,
            nodes: 2,
        },
        bytes: 1 << 20,
    });
    // Goodput at 2× the knee arrival rate under SLO-aware admission:
    // pins where the knee sits and that shedding keeps admitted
    // requests inside their TTFT budget.
    cases.push(Case::ServingGoodput);
    // Observability overhead on the same 2×-knee scenario: request
    // tracing + telemetry sampling must cost ≤ 5 % host wall-clock.
    cases.push(Case::ServingObservability);
    cases
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
    /// The case's auxiliary rate metric: engine events per second for
    /// engine-throughput cases, goodput (SLO-met completions/sec) for
    /// the 2×-knee serving case, signed measured overhead in percent for
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

/// Runs one case for `iters` iterations (collectives re-run on the same
/// warm engine; the histogram records each iteration's latency in ns).
pub fn run_case(case: &Case, iters: usize) -> CaseResult {
    let name = case.name();
    match case {
        Case::Collective {
            coll,
            stack,
            target,
            bytes,
        } => {
            let mut h = Histogram::new();
            for us in iterate_collective(*coll, *stack, *target, *bytes, iters) {
                h.record((us * 1e3).round() as u64);
            }
            CaseResult::from_hist(name, &h)
        }
        Case::Serving => {
            let mut engine = inference::ServingEngine::new(
                EnvKind::A100_80G,
                inference::ModelConfig::llama2_13b(),
                16 * 1024,
            );
            let backend = inference::MscclppBackend::new();
            let trace = inference::synthetic_trace(6, 128, 24, 5_000.0, 3);
            let cfg = inference::ServeConfig::permissive(8);
            let (report, _) = inference::serve_trace_observed(&mut engine, &backend, &trace, &cfg)
                .expect("serving run");
            let rl = report.request_latency;
            CaseResult {
                name,
                samples: report.completed as u64,
                p50_us: rl.p50_us,
                p95_us: rl.p95_us,
                p99_us: rl.p99_us,
                max_us: rl.max_us,
                mean_us: report.mean_latency_us,
                eps: 0.0,
            }
        }
        Case::ServingGoodput => {
            // The same 2×-knee overload the serving test suite pins:
            // ~77 req/s service rate at batch 8, knee ≈ 14 ms mean
            // interarrival, overload at 7 ms. Deterministic (virtual
            // time + seeded admission), so every field is bit-stable.
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
            let (report, _) = inference::serve_trace_observed(&mut engine, &backend, &trace, &cfg)
                .expect("serving goodput run");
            assert_eq!(
                report.completed
                    + report.shed
                    + report.rejected
                    + report.timed_out
                    + report.evicted,
                trace.len(),
                "serving-goodput gate case lost a request: {report:?}"
            );
            assert!(report.goodput > 0.0, "overload run must keep goodput");
            assert!(report.kv.balances(), "KV accounting out of balance");
            CaseResult {
                name,
                samples: report.slo_met as u64,
                p50_us: report.ttft.p50_us,
                p95_us: report.ttft.p95_us,
                p99_us: report.ttft.p99_us,
                max_us: report.ttft.max_us,
                mean_us: report.mean_latency_us,
                eps: report.goodput,
            }
        }
        Case::EngineThroughput { target, bytes } => {
            let (h, eps) = run_engine_throughput(*target, *bytes, iters);
            let mut r = CaseResult::from_hist(name, &h);
            r.eps = eps;
            r
        }
        Case::SemanticVerify { target, bytes } => {
            CaseResult::from_hist(name, &run_semantic_verify(*target, *bytes, iters))
        }
        Case::ShrunkenAllReduce { target, bytes } => {
            let mut h = Histogram::new();
            for us in iterate_shrunken_allreduce(*target, *bytes, iters) {
                h.record((us * 1e3).round() as u64);
            }
            CaseResult::from_hist(name, &h)
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
    use inference::{ObserveConfig, TelemetryConfig};

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
        telemetry: Some(TelemetryConfig::new(500.0, 4096)),
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

/// Kills one rank mid-AllReduce, shrinks, and then times `iters`
/// steady-state launches on the survivor group's rebuilt plan. The
/// timed iterations exclude the recovery itself — that latency is
/// covered by the `recovery_sweep` artifact; this case pins the
/// *post-recovery* epoch's launch latency.
fn iterate_shrunken_allreduce(target: Target, bytes: usize, iters: usize) -> Vec<f64> {
    use sim::{Duration, FaultPlan, Time};
    // The detection timeout must exceed the shrunken leader-relay plan's
    // longest legitimate wait, or healthy post-recovery launches read as
    // further deaths.
    let plan = FaultPlan::new(7)
        .rank_down(3, Time::from_ps(20_000_000))
        .with_wait_timeout(Duration::from_us(2_000.0));
    let mut b = Bench::new(Stack::Mscclpp, target, Some(plan));
    let ins = b.inputs(bytes);
    let outs = b.outputs(Coll::AllReduce, bytes);
    let (e, count) = (&mut b.engine, bytes / 2);
    let comm = collective::CollComm::new();
    comm.all_reduce(e, &ins, &outs, count, DataType::F16, ReduceOp::Sum)
        .expect_err("the scheduled death must interrupt the collective");
    let recovery = comm.shrink(e, &[]).expect("shrink");
    assert_eq!(
        recovery.outcome,
        collective::RecoveryOutcome::Replayed,
        "shrunken-allreduce gate case"
    );
    assert_eq!(recovery.group.len(), target.world() - 1);
    (0..iters)
        .map(|_| {
            comm.all_reduce(e, &ins, &outs, count, DataType::F16, ReduceOp::Sum)
                .expect("shrunken steady-state launch")
                .elapsed()
                .as_us()
        })
        .collect()
}

/// Times the full static verifier — happens-before graph, race scan,
/// and the semantic dataflow pass against the plan's [`commverify::CollectiveSpec`]
/// — over a hierarchical AllReduce plan compiled once. Each iteration is
/// one cold verification (the verifier keeps no cross-run state), so the
/// histogram is pure prover wall-clock.
fn run_semantic_verify(target: Target, bytes: usize, iters: usize) -> Histogram {
    let mut b = Bench::new(Stack::Mscclpp, target, None);
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
    let mut b = Bench::new(Stack::Mscclpp, target, None);
    let outs = b.outputs(Coll::AllReduce, bytes);
    let ins = b.inputs(bytes);
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

/// Runs a collective `iters` times on one warm communicator, returning
/// each iteration's latency in µs. Every iteration fills fresh inputs
/// and writes the same outputs, which are verified after the last one.
/// NCCL runs at its tuner's pick, not fine-tuned: the case pins one
/// plan's latency.
fn iterate_collective(
    coll: Coll,
    stack: Stack,
    target: Target,
    bytes: usize,
    iters: usize,
) -> Vec<f64> {
    let mut b = Bench::new(stack, target, None);
    let outs = b.outputs(coll, bytes);
    let lat = (0..iters)
        .map(|_| {
            let ins = b.inputs(bytes);
            b.launch(coll, &ins, &outs, Pick::Default)
                .unwrap_or_else(|err| panic!("{} gate case: {err}", stack.name()))
                .elapsed()
                .as_us()
        })
        .collect();
    b.verify(coll, &outs, bytes);
    lat
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
    /// Slower than baseline beyond tolerance — fails the gate.
    Regression {
        /// Baseline median (µs).
        base_p50_us: f64,
        /// Measured median (µs).
        new_p50_us: f64,
        /// The fractional tolerance band the case was judged against:
        /// `tol`, or `wall_tol` for a wall-clock case.
        band: f64,
    },
    /// Faster than baseline beyond tolerance — passes, but the baseline
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

/// Compares measured results against a baseline. A case regresses when
/// its median exceeds the baseline median by more than `tol`
/// (fractional, e.g. 0.10) plus a small absolute slack absorbing
/// histogram bucket granularity on microsecond-scale cases.
///
/// Wall-clock cases ([`Case::is_wall_clock`]) use the default wall
/// tolerance; see [`compare_with`] to set it explicitly.
pub fn compare(
    results: &[CaseResult],
    baseline: &[CaseResult],
    tol: f64,
) -> Vec<(String, Verdict)> {
    compare_with(results, baseline, tol, DEFAULT_WALL_TOL)
}

/// Default tolerance band for host wall-clock (engine-throughput)
/// cases: wide, because shared CI runners are noisy. A calendar-queue
/// regression that halves throughput still trips it.
pub const DEFAULT_WALL_TOL: f64 = 0.60;

/// [`compare`] with an explicit tolerance for wall-clock cases. A result
/// is wall-clock when the pinned-suite case of its name
/// [`is_wall_clock`](Case::is_wall_clock). Simulated-latency cases are
/// deterministic and keep the tight `tol` band; wall-clock medians
/// jitter with the host and get `wall_tol` instead.
pub fn compare_with(
    results: &[CaseResult],
    baseline: &[CaseResult],
    tol: f64,
    wall_tol: f64,
) -> Vec<(String, Verdict)> {
    const ABS_SLACK_US: f64 = 0.5;
    let wall: Vec<String> = pinned_suite()
        .iter()
        .filter(|c| c.is_wall_clock())
        .map(Case::name)
        .collect();
    results
        .iter()
        .map(|r| {
            let tol = if wall.contains(&r.name) {
                wall_tol
            } else {
                tol
            };
            let verdict = match baseline.iter().find(|b| b.name == r.name) {
                None => Verdict::New,
                Some(b) => {
                    let hi = b.p50_us * (1.0 + tol) + ABS_SLACK_US;
                    let lo = b.p50_us * (1.0 - tol) - ABS_SLACK_US;
                    if r.p50_us > hi {
                        Verdict::Regression {
                            base_p50_us: b.p50_us,
                            new_p50_us: r.p50_us,
                            band: tol,
                        }
                    } else if r.p50_us < lo {
                        Verdict::Improvement {
                            base_p50_us: b.p50_us,
                            new_p50_us: r.p50_us,
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
            case("a", 125.0), // +25%: regression at 10% tol
            case("b", 104.0), // +4%: inside the band
            case("d", 50.0),  // not in baseline
        ];
        let verdicts = compare(&new, &base, 0.10);
        assert!(matches!(verdicts[0].1, Verdict::Regression { .. }));
        assert_eq!(verdicts[1].1, Verdict::Ok);
        assert_eq!(verdicts[2].1, Verdict::New);
        // Large speedups are reported as improvements, not silently Ok.
        let faster = vec![case("c", 60.0)];
        let v = compare(&faster, &base, 0.10);
        assert!(matches!(v[0].1, Verdict::Improvement { .. }));
    }

    #[test]
    fn pinned_suite_names_are_unique_and_stable() {
        let suite = pinned_suite();
        let names: std::collections::BTreeSet<String> = suite.iter().map(Case::name).collect();
        assert_eq!(names.len(), suite.len(), "duplicate case names");
        // The suite covers both pinned topologies, the serving scenario,
        // and the two pinned engine-throughput shapes (8-rank single
        // node and 64-rank hierarchical).
        assert!(suite.contains(&Case::Serving));
        // The overload-goodput case rides behind the legacy serving
        // scenario; its name pins the 2×-knee configuration.
        assert!(suite.contains(&Case::ServingGoodput));
        assert!(names.iter().any(|n| n.starts_with("serving-goodput/")));
        assert!(names.iter().any(|n| n.contains("A100_40G")));
        assert!(names.iter().any(|n| n.contains("H100")));
        let engine: Vec<&String> = names.iter().filter(|n| n.starts_with("engine/")).collect();
        assert_eq!(engine.len(), 2, "two pinned engine-throughput cases");
        assert!(engine.iter().any(|n| n.contains("1n8g")));
        assert!(engine.iter().any(|n| n.contains("8n64g")));
        // Wall-clock cases: the two engine shapes plus the 64-rank
        // verifier-scalability case.
        let commv: Vec<&String> = names
            .iter()
            .filter(|n| n.starts_with("commverify/"))
            .collect();
        assert_eq!(commv.len(), 1, "one pinned verifier-scalability case");
        assert!(commv[0].contains("8n64g"));
        let wall = suite.iter().filter(|c| c.is_wall_clock()).count();
        assert_eq!(wall, 4);
        // The post-recovery steady-state case pins the shrunken plan.
        assert!(names.iter().any(|n| n.starts_with("shrunken-allreduce/")));
        // The observability-overhead case is wall-clock and pins the
        // instrumented 2×-knee scenario.
        assert!(Case::ServingObservability.is_wall_clock());
        assert!(names
            .iter()
            .any(|n| n.starts_with("serving-observability/")));
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

    #[test]
    fn wall_clock_cases_get_the_wide_band() {
        // Every pinned case gets the band its predicate implies: +40%
        // host jitter passes on a wall-clock case and regresses on a
        // simulated-latency one, which reports the 10% band it failed.
        // A 2x slowdown trips the wide band too, and reports it.
        for c in pinned_suite() {
            let name = c.name();
            let v = compare(&[case(&name, 140.0)], &[case(&name, 100.0)], 0.10);
            let doubled = compare(&[case(&name, 200.0)], &[case(&name, 100.0)], 0.10);
            let band = if c.is_wall_clock() {
                assert_eq!(v[0].1, Verdict::Ok, "{name}");
                DEFAULT_WALL_TOL
            } else {
                assert!(
                    matches!(v[0].1, Verdict::Regression { band, .. } if band == 0.10),
                    "{name}: {:?}",
                    v[0].1
                );
                0.10
            };
            assert_eq!(
                doubled[0].1,
                Verdict::Regression {
                    base_p50_us: 100.0,
                    new_p50_us: 200.0,
                    band,
                },
                "{name}"
            );
        }
        // An explicit wall band is the one reported.
        let name = "engine/allreduce/A100_40G/1n8g/1024B";
        let v = compare_with(&[case(name, 200.0)], &[case(name, 100.0)], 0.10, 0.25);
        assert!(matches!(v[0].1, Verdict::Regression { band, .. } if band == 0.25));
    }
}
