//! Continuous-batching request serving — the production scenario behind
//! §5.2's closing argument: "for production traces, very few active
//! tokens reside in a batch, and for most requests, the majority of
//! end-to-end time is spent in the decode phase", which is exactly where
//! MSCCL++'s AllReduce gains land.
//!
//! The serving loop itself lives in [`crate::scheduler`]: a vLLM-style
//! continuous-batching scheduler with SLO-aware admission
//! ([`crate::admission`]) and a block-granular paged KV cache
//! ([`crate::kv`]). This module holds the trace/report types and the one
//! entry point, [`serve_trace_observed`], which runs a trace under a
//! [`ServeConfig`]: SLOs, admission policy, KV pool shape, timeouts and
//! observability. [`ServeConfig::permissive`] is the legacy open-loop
//! configuration (admit everything, no deadlines).

use crate::backend::CommBackend;
use crate::engine::ServingEngine;
use crate::kv::KvStats;
use crate::rtrace::{RequestTimeline, SloMiss};
use crate::scheduler::{self, ServeConfig};
use mscclpp::Result;
use sim::json;

/// One inference request of a serving trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Prompt length in tokens.
    pub prompt: usize,
    /// Tokens to generate.
    pub generate: usize,
    /// Arrival time in microseconds of serving-clock time.
    pub arrival_us: f64,
    /// Shared prompt prefix, as `(prefix_id, prefix_tokens)`: requests
    /// carrying the same id share their first `prefix_tokens` prompt
    /// tokens, so after one of them prefills, later arrivals hit the
    /// prefix cache and skip that prefill work. `None` for distinct
    /// prompts.
    pub prefix: Option<(u64, usize)>,
}

impl Request {
    /// Tags the request as sharing prompt prefix `id` over its first
    /// `tokens` tokens (clamped to the prompt length).
    pub fn with_prefix(mut self, id: u64, tokens: usize) -> Request {
        self.prefix = Some((id, tokens.min(self.prompt)));
        self
    }
}

/// Deterministic synthetic trace in the shape of production serving
/// loads: short-to-medium prompts, bursty Poisson-ish arrivals, modest
/// generation lengths.
pub fn synthetic_trace(
    requests: usize,
    mean_prompt: usize,
    mean_generate: usize,
    mean_interarrival_us: f64,
    seed: u64,
) -> Vec<Request> {
    // Small deterministic LCG so traces are reproducible without pulling
    // randomness into the simulation itself.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64 // uniform [0, 1)
    };
    let mut t = 0.0;
    (0..requests)
        .map(|_| {
            t += -mean_interarrival_us * (1.0 - next()).ln();
            Request {
                prompt: ((mean_prompt as f64) * (0.5 + next())) as usize + 1,
                generate: ((mean_generate as f64) * (0.5 + next())) as usize + 1,
                arrival_us: t,
                prefix: None,
            }
        })
        .collect()
}

/// Percentile summary of a latency distribution, in microseconds.
///
/// Backed by an allocation-free log-linear histogram
/// ([`profile::Histogram`]): percentiles are bucket upper bounds (≤ ~6%
/// relative error, never understated); `max` is exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Exact maximum.
    pub max_us: f64,
}

impl LatencyStats {
    pub(crate) fn from_hist(h: &profile::Histogram) -> Self {
        // The histogram records nanoseconds.
        LatencyStats {
            p50_us: h.p50() as f64 / 1e3,
            p95_us: h.p95() as f64 / 1e3,
            p99_us: h.p99() as f64 / 1e3,
            max_us: h.max() as f64 / 1e3,
        }
    }
}

/// Aggregate metrics of one serving run.
///
/// Request conservation holds for every run:
/// `completed + shed + rejected + timed_out + evicted == trace.len()` —
/// each request reaches exactly one typed terminal state.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests completed.
    pub completed: usize,
    /// Total serving-clock time in microseconds.
    pub makespan_us: f64,
    /// Generated tokens per second.
    pub decode_throughput: f64,
    /// Mean request latency (arrival → last token) in microseconds,
    /// from an exact running sum.
    pub mean_latency_us: f64,
    /// 95th-percentile request latency in microseconds (histogram
    /// upper bound, never understated).
    pub p95_latency_us: f64,
    /// Request latency distribution (arrival → last token).
    pub request_latency: LatencyStats,
    /// Per-iteration engine step latency distribution (prefill and
    /// decode steps).
    pub step_latency: LatencyStats,
    /// Fraction of serving time spent in decode iterations.
    pub decode_time_fraction: f64,
    /// Rank-death recoveries survived (epoch shrinks of the backend).
    pub recoveries: usize,
    /// Total recovery latency in microseconds: rank death through the
    /// shrunken communicator being ready, summed over recoveries.
    pub recovery_latency_us: f64,
    /// Recoveries per failure class, indexed by
    /// [`crate::FailureClass::index`] (member, leader, node, straggler).
    pub recoveries_by_class: [usize; 4],
    /// Summed recovery latency in microseconds per failure class,
    /// indexed like [`ServeReport::recoveries_by_class`].
    pub recovery_latency_us_by_class: [f64; 4],
    /// Tensor-parallel degree at the end of the run (smaller than the
    /// starting degree when ranks died).
    pub final_tp: usize,
    /// SLO-met completions per second of serving time — the metric the
    /// admission policy protects under overload.
    pub goodput: f64,
    /// Completions that met both the TTFT and TPOT budgets.
    pub slo_met: usize,
    /// Requests dropped by the admission policy or the hopeless-deadline
    /// pass (typed reasons in the `serve.shed.*` counters).
    pub shed: usize,
    /// Requests hard-rejected at the door (queue full on arrival).
    pub rejected: usize,
    /// Admitted requests that hit the per-request timeout wall.
    pub timed_out: usize,
    /// Admitted requests evicted because the KV pool could not hold them
    /// (typically after a capacity-shrinking rank death).
    pub evicted: usize,
    /// Time-to-first-token distribution over completions.
    pub ttft: LatencyStats,
    /// Time-per-output-token distribution over completions.
    pub tpot: LatencyStats,
    /// Paged-KV accounting: `allocated == freed + spilled +
    /// lost_to_dead_rank` at exit.
    pub kv: KvStats,
    /// Requests that violated a latency deadline: completions that
    /// missed TTFT or TPOT, plus timed-out requests.
    pub slo_missed: usize,
    /// Worst-offender deadline violations (largest end-to-end latency
    /// first, at most 8) with exact blame tilings
    /// ([`crate::rtrace::Blame`]); empty when
    /// [`crate::ObserveConfig::rtrace`] is off.
    pub worst_misses: Vec<SloMiss>,
}

/// Everything a serving run observed beyond the aggregate report: the
/// per-request causal timelines and the telemetry time series
/// (DESIGN.md §17). Returned by [`serve_trace_observed`].
#[derive(Debug, Clone)]
pub struct ServeObservation {
    /// One causal timeline per request that reached the admission door,
    /// in id order; empty when [`crate::ObserveConfig::rtrace`] is off.
    pub timelines: Vec<RequestTimeline>,
    /// The telemetry sampler with its recorded ring, when
    /// [`crate::ObserveConfig::telemetry`] was set.
    pub telemetry: Option<sim::Sampler>,
}

impl ServeObservation {
    /// Per-request timelines as a JSON array, one
    /// [`RequestTimeline::to_json`] object per request (exact integer
    /// picoseconds; see `results/README.md`).
    pub fn timelines_json(&self) -> String {
        format!(
            "[{}]",
            json::join(self.timelines.iter().map(RequestTimeline::to_json))
        )
    }

    /// Per-request timelines as Chrome trace-event JSON: one named track
    /// per request (`tid` = request id) under [`json::Pid::Requests`]
    /// with a duration slice per phase window, loadable beside the engine
    /// trace in <https://ui.perfetto.dev>.
    pub fn timelines_chrome_json(&self) -> String {
        let pid = json::Pid::Requests;
        let tracks = self.timelines.iter().flat_map(|tl| {
            let id = tl.id;
            let track = format!("req {id} ({})", tl.terminal.name());
            let head = format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{id},\"args\":{{\"name\":{}}}}}",
                json::quote(&track)
            );
            let slices = tl.events.iter().map(move |e| {
                let name = json::quote(e.phase.name());
                let args = e.link.map_or("{}".to_owned(), |l| {
                    format!(
                        "{{\"step\":{},\"engine_from_us\":{:.3},\"engine_to_us\":{:.3}}}",
                        l.step,
                        l.engine_from_ps as f64 / 1e6,
                        l.engine_to_ps as f64 / 1e6
                    )
                });
                format!(
                    "{{\"name\":{name},\"cat\":\"request\",\"ph\":\"B\",\"ts\":{:.3},\"pid\":{pid},\"tid\":{id},\"args\":{args}}}\
                     ,{{\"name\":{name},\"cat\":\"request\",\"ph\":\"E\",\"ts\":{:.3},\"pid\":{pid},\"tid\":{id}}}",
                    e.from_ps as f64 / 1e6,
                    e.to_ps as f64 / 1e6
                )
            });
            std::iter::once(head).chain(slices)
        });
        format!(
            "[{}]",
            json::join(std::iter::once(pid.process_name()).chain(tracks))
        )
    }

    /// The telemetry time series as JSON (`None` when no sampler ran).
    pub fn telemetry_json(&self) -> Option<String> {
        self.telemetry.as_ref().map(sim::Sampler::to_json)
    }
}

/// Serves `trace` with continuous batching on `engine` under `cfg`
/// (latency SLOs, admission policy, KV pool shape, per-request timeouts)
/// and returns the aggregate report together with the request timelines
/// and telemetry series recorded per [`ServeConfig::observe`].
///
/// The loop subscribes to the backend's communicator epoch: when a step
/// fails because a rank died, [`ServingEngine::recover`] shrinks the
/// backend to the surviving tensor-parallel degree, that rank's KV
/// shards are lost (in-flight requests re-prefill their context or
/// restore from a host spill copy), and decoding continues.
/// Detection-to-ready latency lands in
/// [`ServeReport::recovery_latency_us`].
///
/// # Errors
///
/// Returns [`mscclpp::Error::InvalidArgument`] if `cfg.max_batch` is 0.
/// Propagates kernel deadlocks from the communication stack when no
/// recovery is possible (no rank died, or the backend cannot shrink),
/// and [`mscclpp::Error::EpochChanged`] if the communicator epoch
/// advanced without the loop observing it. Overload never errors — it
/// produces typed shed/reject/timeout/evicted outcomes in the report.
pub fn serve_trace_observed(
    engine: &mut ServingEngine,
    backend: &dyn CommBackend,
    trace: &[Request],
    cfg: &ServeConfig,
) -> Result<(ServeReport, ServeObservation)> {
    scheduler::run(engine, backend, trace, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MscclppBackend;
    use crate::model::ModelConfig;
    use hw::EnvKind;

    #[test]
    fn trace_is_deterministic_and_ordered() {
        let a = synthetic_trace(20, 256, 32, 10_000.0, 7);
        let b = synthetic_trace(20, 256, 32, 10_000.0, 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
        assert!(a.iter().all(|r| r.prompt >= 1 && r.generate >= 1));
    }

    #[test]
    fn serving_completes_every_request() {
        let mut engine =
            ServingEngine::new(EnvKind::A100_80G, ModelConfig::llama2_13b(), 16 * 1024);
        let backend = MscclppBackend::new();
        let trace = synthetic_trace(6, 128, 24, 5_000.0, 3);
        let (report, _) =
            serve_trace_observed(&mut engine, &backend, &trace, &ServeConfig::permissive(8))
                .unwrap();
        assert_eq!(report.completed, 6);
        assert!(report.makespan_us > 0.0);
        assert!(report.decode_throughput > 0.0);
        assert!(report.p95_latency_us >= report.mean_latency_us * 0.5);
        // Histogram-backed percentiles: ordered, bounded by the exact
        // max, and never understating.
        let rl = report.request_latency;
        assert!(rl.p50_us <= rl.p95_us && rl.p95_us <= rl.p99_us && rl.p99_us <= rl.max_us);
        assert!((rl.p95_us - report.p95_latency_us).abs() < 1e-9);
        assert!(rl.max_us > 0.0);
        let sl = report.step_latency;
        assert!(sl.p50_us > 0.0 && sl.p50_us <= sl.max_us);
        assert!(sl.max_us <= report.makespan_us);
        // §5.2's premise: the majority of serving time is decode.
        assert!(
            report.decode_time_fraction > 0.5,
            "decode fraction {}",
            report.decode_time_fraction
        );
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.final_tp, 8);
        // Permissive config: nothing shed, rejected, or evicted; request
        // conservation and KV balance hold.
        assert_eq!(
            report.shed + report.rejected + report.timed_out + report.evicted,
            0
        );
        assert_eq!(report.slo_met, 6, "unbounded SLOs count every completion");
        assert!(report.goodput > 0.0);
        assert!(report.kv.balances(), "{:?}", report.kv);
        assert!(report.kv.allocated > 0);
        assert!(report.ttft.max_us > 0.0);
        assert!(report.ttft.p50_us <= report.request_latency.max_us);
        assert!(report.tpot.max_us > 0.0);
        // The exact report, pinned: every latency, percentile and count
        // is virtual time, so any model change moves this digest.
        assert_eq!(engine.engine_mut().clamped_past_events(), 0);
        assert_eq!(
            sim::fnv1a(format!("{report:?}").as_bytes()),
            0xa97d_0b1e_14b6_b13d,
            "serving report moved: {report:?}"
        );
    }

    /// The prefill mis-billing regression: a batch pairing a 1-token and
    /// a 4096-token prompt must be billed 4097 prefill tokens. The old
    /// loop billed `bsz * mean_prompt` with a floored integer mean —
    /// 4096 tokens for this pair, silently under-billing.
    #[test]
    fn prefill_is_billed_at_true_per_request_token_counts() {
        let run = |prompts: &[usize]| {
            let mut engine =
                ServingEngine::new(EnvKind::A100_80G, ModelConfig::llama2_13b(), 16 * 1024);
            let backend = MscclppBackend::new();
            let trace: Vec<Request> = prompts
                .iter()
                .map(|&p| Request {
                    prompt: p,
                    generate: 2,
                    arrival_us: 0.0,
                    prefix: None,
                })
                .collect();
            let (report, _) =
                serve_trace_observed(&mut engine, &backend, &trace, &ServeConfig::permissive(8))
                    .unwrap();
            let billed = engine
                .engine_mut()
                .metrics()
                .counter("serve.prefill_tokens");
            (billed, report.makespan_us)
        };
        let (billed, t_4097) = run(&[1, 4096]);
        assert_eq!(billed, 4097, "true sum, not a floored mean");
        let (billed_even, t_4096) = run(&[2048, 2048]);
        assert_eq!(billed_even, 4096);
        // The extra billed token costs real serving time.
        assert!(t_4097 > t_4096 * 0.99);
    }

    #[test]
    fn serving_survives_rank_death_at_reduced_tp() {
        use sim::{Duration, FaultPlan, Time};
        // GPU 3 dies 100us of virtual time into the run — mid-step.
        let plan = FaultPlan::new(11)
            .rank_down(3, Time::from_ps(100_000_000))
            .with_wait_timeout(Duration::from_us(300.0));
        let mut engine = ServingEngine::with_fault_plan(
            EnvKind::A100_80G,
            ModelConfig::llama2_13b(),
            16 * 1024,
            Some(plan),
        );
        let backend = MscclppBackend::new();
        let trace = synthetic_trace(6, 128, 24, 5_000.0, 3);
        let (report, _) =
            serve_trace_observed(&mut engine, &backend, &trace, &ServeConfig::permissive(8))
                .unwrap();
        // Every request still completes, at the shrunken TP degree.
        assert_eq!(report.completed, 6);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.final_tp, 7);
        assert_eq!(backend.epoch(), 1);
        assert!(
            report.recovery_latency_us > 0.0,
            "recovery latency {} must cover death -> ready",
            report.recovery_latency_us
        );
        // Recovery latency is part of the serving makespan.
        assert!(report.makespan_us > report.recovery_latency_us);
        // Rank 3 is not node 0's leader (rank 0 is): a member failure.
        assert_eq!(report.recoveries_by_class, [1, 0, 0, 0]);
        assert!(report.recovery_latency_us_by_class[0] > 0.0);
        assert_eq!(
            report.recovery_latency_us_by_class[0],
            report.recovery_latency_us
        );
        // The dead rank's KV shards were lost and the displaced work
        // re-prefilled; accounting still balances.
        assert!(report.kv.balances(), "{:?}", report.kv);
        assert!(report.kv.lost_to_dead_rank > 0);
    }

    #[test]
    fn serving_survives_node_loss_at_multi_node_tp() {
        use crate::engine::FailureClass;
        use sim::{Duration, FaultPlan, Time};
        // The whole second node (ranks 8..16) dies 100us into the run.
        let node1: Vec<usize> = (8..16).collect();
        let plan = FaultPlan::new(17)
            .node_down(&node1, Time::from_ps(100_000_000))
            .with_wait_timeout(Duration::from_us(300.0));
        let mut engine = ServingEngine::with_cluster(
            EnvKind::A100_40G,
            2,
            ModelConfig::llama2_13b(),
            16 * 1024,
            Some(plan),
        );
        assert_eq!(engine.tp(), 16);
        let backend = MscclppBackend::new();
        let trace = synthetic_trace(4, 128, 12, 5_000.0, 3);
        let (report, _) =
            serve_trace_observed(&mut engine, &backend, &trace, &ServeConfig::permissive(8))
                .unwrap();
        // Every request completes on the surviving node at TP 8.
        assert_eq!(report.completed, 4);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.final_tp, 8);
        assert_eq!(backend.epoch(), 1);
        let node = FailureClass::Node.index();
        assert_eq!(report.recoveries_by_class[node], 1);
        assert!(report.recovery_latency_us_by_class[node] > 0.0);
        assert!(report.makespan_us > report.recovery_latency_us);
    }

    #[test]
    fn serving_classifies_leader_death_at_multi_node_tp() {
        use crate::engine::FailureClass;
        use sim::{Duration, FaultPlan, Time};
        // Rank 8 — node 1's lowest serving rank, its inter-node leader —
        // dies mid-run, forcing a leader re-election on that node. The
        // detection timeout must exceed the worst-case *legitimate* wait
        // of the shrunken leader-relay plan (members wait while the
        // whole prefill-sized message funnels through their leader), or
        // healthy post-recovery steps read as deaths.
        let plan = FaultPlan::new(19)
            .rank_down(8, Time::from_ps(100_000_000))
            .with_wait_timeout(Duration::from_us(2_000.0));
        let mut engine = ServingEngine::with_cluster(
            EnvKind::A100_40G,
            2,
            ModelConfig::llama2_13b(),
            16 * 1024,
            Some(plan),
        );
        let backend = MscclppBackend::new();
        let trace = synthetic_trace(4, 128, 12, 5_000.0, 3);
        let (report, _) =
            serve_trace_observed(&mut engine, &backend, &trace, &ServeConfig::permissive(8))
                .unwrap();
        assert_eq!(report.completed, 4);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.final_tp, 15);
        let leader = FailureClass::Leader.index();
        assert_eq!(report.recoveries_by_class[leader], 1);
        assert!(report.recovery_latency_us_by_class[leader] > 0.0);
    }

    #[test]
    fn prefix_cache_hits_skip_prefill_tokens() {
        let run = |share_prefix: bool| {
            let mut engine =
                ServingEngine::new(EnvKind::A100_80G, ModelConfig::llama2_13b(), 16 * 1024);
            let backend = MscclppBackend::new();
            // Two requests with the same 2000-token system prompt, far
            // enough apart that the second arrives after the first
            // published the prefix.
            let mk = |arrival: f64| Request {
                prompt: 2048,
                generate: 4,
                arrival_us: arrival,
                prefix: None,
            };
            let trace: Vec<Request> = if share_prefix {
                vec![
                    mk(0.0).with_prefix(42, 2000),
                    mk(400_000.0).with_prefix(42, 2000),
                ]
            } else {
                vec![mk(0.0), mk(400_000.0)]
            };
            let (report, _) =
                serve_trace_observed(&mut engine, &backend, &trace, &ServeConfig::permissive(8))
                    .unwrap();
            let billed = engine
                .engine_mut()
                .metrics()
                .counter("serve.prefill_tokens");
            (report, billed)
        };
        let (miss_report, miss_billed) = run(false);
        let (hit_report, hit_billed) = run(true);
        assert_eq!(miss_report.completed, 2);
        assert_eq!(hit_report.completed, 2);
        assert_eq!(hit_report.kv.prefix_hits, 1);
        assert_eq!(miss_report.kv.prefix_hits, 0);
        // The hit skips the shared 2000 prefix tokens of request 2.
        assert_eq!(miss_billed - hit_billed, 2000);
        assert!(hit_report.kv.balances());
    }
}
