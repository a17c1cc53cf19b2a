//! The SLO-aware continuous-batching scheduler.
//!
//! Open-loop arrivals flow through admission ([`crate::admission`]) into a
//! waiting queue, join the running batch when their worst-case KV
//! reservation fits ([`crate::kv`]), are prefilled in chunks billed at
//! their *true* per-request token counts, and then decode one token per
//! iteration until done. Every admitted request reaches exactly one
//! typed terminal state — completed, timed out, or evicted — the loop
//! never abandons work silently and never returns `Err` for overload.
//!
//! Robustness behavior under rank death: the communicator shrinks
//! ([`ServingEngine::recover`]), the paged KV pool loses every device
//! block (each block is sharded across all TP ranks), and displaced
//! requests re-enter through a priority recovery queue — restoring from
//! a host spill copy when one exists, re-prefilling their full context
//! otherwise. If the shrunken pool can never fit a request again, it
//! ends `evicted`, not `Err`. When admission is enabled, fresh arrivals
//! keep flowing through the same shed/reject policy, so the degraded
//! engine sheds load instead of collapsing.

use std::collections::VecDeque;

use mscclpp::{Error, Result};

use crate::admission::{Admission, AdmissionConfig, Decision, ShedReason};
use crate::backend::CommBackend;
use crate::engine::{BatchConfig, ServingEngine, PREFILL_CHUNK_TOKENS};
use crate::kv::{KvConfig, KvError, PagedKvManager};
use crate::rtrace::{Phase, RequestTracer, SloMiss, StepLink, Terminal};
use crate::serve::{LatencyStats, Request, ServeObservation, ServeReport};

/// Effective host<->device bandwidth for KV spill/restore transfers, in
/// bytes per microsecond (~25 GB/s of pinned-memory PCIe).
const HOST_LINK_BYTES_PER_US: f64 = 25_000.0;

/// Per-request latency service-level objectives, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Time-to-first-token budget (arrival → first generated token).
    pub ttft_us: f64,
    /// Time-per-output-token budget (mean inter-token gap after the
    /// first).
    pub tpot_us: f64,
}

impl SloSpec {
    /// No deadlines: every completion counts toward goodput.
    pub fn unbounded() -> SloSpec {
        SloSpec {
            ttft_us: f64::INFINITY,
            tpot_us: f64::INFINITY,
        }
    }

    /// Explicit budgets.
    pub fn new(ttft_us: f64, tpot_us: f64) -> SloSpec {
        SloSpec { ttft_us, tpot_us }
    }
}

/// Observability knobs of one serving run (DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObserveConfig {
    /// Record per-request causal timelines and SLO-miss blame tilings
    /// ([`crate::rtrace`]). On by default — the overhead is pinned ≤5%
    /// by the perf gate; turn off only for overhead A/B measurements.
    pub rtrace: bool,
    /// Periodic virtual-time telemetry sampling over the engine's
    /// metrics ([`sim::Sampler`]) on the serving clock; `None` (the
    /// default) samples nothing.
    pub telemetry: Option<sim::SamplerConfig>,
}

impl Default for ObserveConfig {
    fn default() -> ObserveConfig {
        ObserveConfig {
            rtrace: true,
            telemetry: None,
        }
    }
}

/// Full configuration of one serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Maximum concurrently running (prefilling + decoding) requests.
    pub max_batch: usize,
    /// Latency SLOs; goodput counts completions that met both.
    pub slo: SloSpec,
    /// Admission policy for arrivals.
    pub admission: AdmissionConfig,
    /// KV pool shape. `total_blocks == 0` derives the pool from the
    /// engine's HBM capacity model
    /// ([`ServingEngine::kv_capacity_tokens`]), re-derived after every
    /// shrink.
    pub kv: KvConfig,
    /// Hard wall-clock budget per admitted request (arrival → terminal
    /// state): older requests end `timed_out`. Infinite by default.
    pub timeout_us: f64,
    /// Seed for the admission policy's deterministic shed RNG.
    pub seed: u64,
    /// Observability: request timelines and telemetry sampling.
    pub observe: ObserveConfig,
}

impl ServeConfig {
    /// The legacy open-loop behavior for
    /// [`crate::serve_trace_observed`]: admit everything, no deadlines.
    pub fn permissive(max_batch: usize) -> ServeConfig {
        ServeConfig {
            max_batch,
            slo: SloSpec::unbounded(),
            admission: AdmissionConfig::disabled(),
            kv: KvConfig::default(),
            timeout_us: f64::INFINITY,
            seed: 0,
            observe: ObserveConfig::default(),
        }
    }

    /// SLO-aware serving with the default admission policy.
    pub fn slo_aware(max_batch: usize, slo: SloSpec) -> ServeConfig {
        ServeConfig {
            max_batch,
            slo,
            admission: AdmissionConfig::slo_aware(),
            kv: KvConfig::default(),
            timeout_us: f64::INFINITY,
            seed: 0,
            observe: ObserveConfig::default(),
        }
    }
}

/// Serving-clock microseconds viewed as integer picoseconds — the exact
/// currency of blame charging (see [`crate::rtrace`]). `round` is
/// monotone, so a nondecreasing `clock_us` never charges backwards.
fn ps(us: f64) -> u64 {
    (us * 1e6).round() as u64
}

/// One admitted request's scheduler state.
#[derive(Debug, Clone)]
struct Job {
    id: u64,
    prompt: usize,
    generate: usize,
    arrival_us: f64,
    prefix: Option<(u64, usize)>,
    /// Prompt tokens covered by a live prefix-cache hit (0 after a rank
    /// death clears the cache).
    prefix_hit: usize,
    /// Tokens generated so far.
    produced: usize,
    /// Device-resident KV tokens this job owns (beyond the prefix hit).
    own_ready: usize,
    /// Tokens backed by a host spill copy (restorable without
    /// recomputation); 0 when no copy exists.
    host_tokens: usize,
    first_token_us: Option<f64>,
    /// Whether this job's prefix is already in (or absent from) the
    /// cache — set after publishing, on a hit, or when prefix-less.
    published: bool,
}

impl Job {
    fn new(id: u64, r: &Request) -> Job {
        Job {
            id,
            prompt: r.prompt,
            generate: r.generate,
            arrival_us: r.arrival_us,
            prefix: r.prefix,
            prefix_hit: 0,
            produced: 0,
            own_ready: 0,
            host_tokens: 0,
            first_token_us: None,
            published: r.prefix.is_none(),
        }
    }

    /// Device tokens this job must own before its next decode step.
    fn own_needed(&self) -> usize {
        self.prompt + self.produced - self.prefix_hit
    }

    /// Tokens that still need prefill compute before decoding.
    fn pending_prefill(&self) -> usize {
        self.own_needed().saturating_sub(self.own_ready)
    }

    /// Worst-case device tokens at completion — the reservation size.
    fn worst_case(&self) -> usize {
        self.prompt + self.generate - self.prefix_hit
    }
}

fn shed_index(r: ShedReason) -> usize {
    match r {
        ShedReason::QueueFull => 0,
        ShedReason::NoKvHeadroom => 1,
        ShedReason::PressureBand => 2,
        ShedReason::DeadlineHopeless => 3,
    }
}

const SHED_REASONS: [ShedReason; 4] = [
    ShedReason::QueueFull,
    ShedReason::NoKvHeadroom,
    ShedReason::PressureBand,
    ShedReason::DeadlineHopeless,
];

/// Gauge schema of the serving telemetry sampler, in sample order.
/// These are instantaneous serving-loop values the metrics registry does
/// not hold live (the `serve.*` counters are only published at run end).
const SERVE_GAUGES: [&str; 7] = [
    "serve.queue_depth",
    "serve.running",
    "serve.kv_used_blocks",
    "serve.completed",
    "serve.slo_met",
    "serve.turned_away",
    "serve.generated_tokens",
];

/// Engine counters the sampler tracks as deltas: collective traffic and
/// fault-path activity, the signals that move during steps.
const TRACKED_COUNTERS: [&str; 4] = [
    "ops.puts",
    "sync.waits",
    "sync.signals",
    "fault.degraded_transfers",
];

/// Worst-offender exemplars kept in [`ServeReport::worst_misses`].
const TOP_K_MISSES: usize = 8;

/// Inserts an exemplar into the top-k ring, worst (largest e2e) first.
fn push_miss(misses: &mut Vec<SloMiss>, m: SloMiss) {
    let at = misses
        .iter()
        .position(|x| x.e2e_us < m.e2e_us)
        .unwrap_or(misses.len());
    misses.insert(at, m);
    misses.truncate(TOP_K_MISSES);
}

/// Outcome of trying to move one queued job into the running batch.
enum Join {
    Joined(Job),
    /// Not enough headroom right now — put it back and stop joining.
    Blocked(Job),
    /// Can never fit at current capacity: typed eviction.
    Never,
}

fn try_join(kv: &mut PagedKvManager, mut job: Job, kv_bpt: f64, clock_us: &mut f64) -> Join {
    if job.prefix_hit == 0 && !job.published {
        if let Some((pid, plen)) = job.prefix {
            if let Some(cached) = kv.prefix_lookup(pid) {
                job.prefix_hit = cached.min(plen).min(job.prompt);
                job.published = true;
            }
        }
    }
    let worst = job.worst_case();
    if job.host_tokens > 0 {
        let tokens = job.host_tokens.min(job.own_needed());
        match kv.restore(job.id, tokens, worst) {
            Ok(_) => {
                job.own_ready = tokens;
                job.host_tokens = 0;
                *clock_us += tokens as f64 * kv_bpt / HOST_LINK_BYTES_PER_US;
                Join::Joined(job)
            }
            Err(e) => refused(e, job),
        }
    } else {
        match kv.reserve(job.id, worst) {
            Ok(_) => Join::Joined(job),
            Err(e) => refused(e, job),
        }
    }
}

/// Where a refused reservation or restore leaves `job`. The scheduler
/// reserves a job only while it holds no reservation, so a bookkeeping
/// error is a scheduler bug, never a full pool to wait out.
fn refused(e: KvError, job: Job) -> Join {
    match e {
        KvError::NeverFits { .. } => Join::Never,
        KvError::NoHeadroom { .. } | KvError::OutOfBlocks => Join::Blocked(job),
        KvError::AlreadyReserved { .. } | KvError::UnknownRequest { .. } => {
            unreachable!("KV bookkeeping broke joining request {}: {e:?}", job.id)
        }
    }
}

/// Whether a `grow_to` reached its target: `false` when the pool ran out
/// of blocks. The scheduler grows only running jobs, which hold a
/// reservation, so any other error is a scheduler bug.
fn grown(r: std::result::Result<usize, KvError>) -> bool {
    match r {
        Ok(_) => true,
        Err(KvError::OutOfBlocks) => false,
        Err(e) => unreachable!("KV bookkeeping broke growing a running job: {e:?}"),
    }
}

/// Spills the running job with id `vid` to host and moves it to the
/// recovery queue. The victim's transfer time is charged to its
/// [`Phase::KvSpill`] bucket.
fn spill_by_id(
    kv: &mut PagedKvManager,
    running: &mut Vec<Job>,
    recovery: &mut VecDeque<Job>,
    vid: u64,
    kv_bpt: f64,
    clock_us: &mut f64,
    rt: &mut RequestTracer,
) {
    let pos = running
        .iter()
        .position(|j| j.id == vid)
        .expect("spill victim must be running");
    let mut job = running.remove(pos);
    let tokens = job.own_ready;
    kv.spill(job.id);
    job.host_tokens = tokens;
    job.own_ready = 0;
    let pre = ps(*clock_us);
    *clock_us += tokens as f64 * kv_bpt / HOST_LINK_BYTES_PER_US;
    rt.charge(job.id, Phase::Queue, pre, None);
    rt.charge(job.id, Phase::KvSpill, ps(*clock_us), None);
    recovery.push_back(job);
}

/// Outcome of [`grow_or_spill`].
#[derive(PartialEq, Eq)]
enum Grow {
    /// The allocation reached the target (victims may have been spilled).
    Grown,
    /// Even with every other holder spilled and the prefix cache
    /// dropped, the pool cannot hold this job's next step: the job was
    /// removed from the batch and its blocks released — a typed
    /// eviction, never an infinite spill/restore loop.
    Evicted,
}

/// Grows job `id`'s allocation to `target_own` tokens, spilling victims
/// under oversubscription pressure.
#[allow(clippy::too_many_arguments)]
fn grow_or_spill(
    kv: &mut PagedKvManager,
    running: &mut Vec<Job>,
    recovery: &mut VecDeque<Job>,
    id: u64,
    target_own: usize,
    kv_bpt: f64,
    clock_us: &mut f64,
    rt: &mut RequestTracer,
) -> Grow {
    loop {
        if grown(kv.grow_to(id, target_own)) {
            return Grow::Grown;
        }
        // Victim: the other running job holding the most blocks (newest
        // id breaks ties).
        let victim = running
            .iter()
            .filter(|j| j.id != id && kv.held(j.id) > 0)
            .max_by_key(|j| (kv.held(j.id), j.id))
            .map(|j| j.id);
        if let Some(vid) = victim {
            spill_by_id(kv, running, recovery, vid, kv_bpt, clock_us, rt);
            continue;
        }
        // Nobody else holds blocks; the last possible donor is the
        // prefix cache.
        kv.drop_prefix_cache();
        if grown(kv.grow_to(id, target_own)) {
            return Grow::Grown;
        }
        let pos = running
            .iter()
            .position(|j| j.id == id)
            .expect("grower is running");
        let job = running.remove(pos);
        kv.release(job.id);
        rt.finish(job.id, Terminal::Evicted, ps(*clock_us));
        return Grow::Evicted;
    }
}

/// Runs `trace` through the full SLO-aware serving loop.
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] if `cfg.max_batch` is 0, and
/// [`Error::EpochChanged`] if the backend's communicator epoch
/// advanced without the loop observing the recovery, and propagates
/// kernel failures only when no recovery is possible. Overload alone
/// never produces an error — it produces typed shed/timeout/evicted
/// outcomes.
#[allow(clippy::too_many_lines)]
pub(crate) fn run(
    engine: &mut ServingEngine,
    backend: &dyn CommBackend,
    trace: &[Request],
    cfg: &ServeConfig,
) -> Result<(ServeReport, ServeObservation)> {
    if cfg.max_batch == 0 {
        return Err(Error::InvalidArgument("max_batch must be positive".into()));
    }
    let block_tokens = cfg.kv.block_tokens.max(1);
    let derive_blocks = cfg.kv.total_blocks == 0;
    let tp0 = engine.tp();
    let mut kv_cfg = cfg.kv;
    kv_cfg.block_tokens = block_tokens;
    if derive_blocks {
        kv_cfg.total_blocks = (engine.kv_capacity_tokens() / block_tokens).max(1);
    }
    let mut kv = PagedKvManager::new(kv_cfg);
    let mut adm = Admission::new(cfg.admission, cfg.seed);
    let kv_bpt = engine.model().kv_bytes_per_token() as f64;

    let mut clock_us = 0.0f64;
    let mut decode_us = 0.0f64;
    let mut next = 0usize;
    let mut waiting: VecDeque<Job> = VecDeque::new();
    let mut recovery: VecDeque<Job> = VecDeque::new();
    let mut running: Vec<Job> = Vec::new();
    let mut epoch = backend.epoch();

    // Observability (DESIGN.md §17): per-request timelines + blame, the
    // virtual-time sampler, and the worst-offender SLO-miss ring.
    let mut rt = RequestTracer::new(trace.len(), cfg.observe.rtrace);
    let mut steps = 0u64;
    let mut slo_missed = 0usize;
    let mut misses: Vec<SloMiss> = Vec::new();
    let mut sampler = cfg.observe.telemetry.map(|t| {
        let mut s = sim::Sampler::new(t, &SERVE_GAUGES);
        let m = engine.engine_mut().metrics_mut();
        for name in TRACKED_COUNTERS {
            s.track_counter(m, name);
        }
        s.track_resources(m);
        s
    });

    let mut admitted = 0u64;
    let mut completed = 0usize;
    let mut shed = 0usize;
    let mut shed_by = [0u64; 4];
    let mut rejected = 0usize;
    let mut timed_out = 0usize;
    let mut evicted = 0usize;
    let mut slo_met = 0usize;
    let mut generated_tokens = 0usize;
    let mut prefill_tokens_billed = 0u64;
    let mut latency_sum = 0.0f64;
    let mut req_hist = profile::Histogram::new();
    let mut step_hist = profile::Histogram::new();
    let mut ttft_hist = profile::Histogram::new();
    let mut tpot_hist = profile::Histogram::new();
    let mut recoveries = 0usize;
    let mut recovery_latency_us = 0.0f64;
    let mut recoveries_by_class = [0usize; 4];
    let mut recovery_latency_us_by_class = [0.0f64; 4];

    while next < trace.len() || !waiting.is_empty() || !recovery.is_empty() || !running.is_empty() {
        // 1. Admit arrivals whose time has come. The door wait
        //    [arrival, decision] is the admission-shed-pressure bucket:
        //    it grows exactly when the loop is too busy to turn around.
        let door_ps = ps(clock_us);
        while next < trace.len() && trace[next].arrival_us <= clock_us {
            let r = &trace[next];
            let id = next as u64;
            next += 1;
            match adm.decide(waiting.len() + recovery.len(), kv.reserve_headroom()) {
                Decision::Admit => {
                    admitted += 1;
                    rt.admit(id, ps(r.arrival_us), door_ps);
                    waiting.push_back(Job::new(id, r));
                }
                Decision::Shed(reason) => {
                    shed += 1;
                    shed_by[shed_index(reason)] += 1;
                    rt.turn_away(id, ps(r.arrival_us), door_ps, Terminal::Shed);
                }
                Decision::Reject => {
                    rejected += 1;
                    rt.turn_away(id, ps(r.arrival_us), door_ps, Terminal::Rejected);
                }
            }
        }

        // 2. Shed waiters that can no longer meet their TTFT deadline —
        //    serving them would burn capacity for zero goodput. Recovery
        //    jobs are exempt: they are already admitted work the
        //    graceful-degradation contract promises to finish.
        if cfg.admission.enabled && cfg.slo.ttft_us.is_finite() {
            let now_ps = ps(clock_us);
            let before = waiting.len();
            waiting.retain(|j| {
                if clock_us - j.arrival_us <= cfg.slo.ttft_us {
                    true
                } else {
                    rt.finish(j.id, Terminal::Shed, now_ps);
                    false
                }
            });
            let dropped = before - waiting.len();
            shed += dropped;
            shed_by[shed_index(ShedReason::DeadlineHopeless)] += dropped as u64;
        }

        // 3. Hard per-request timeout: a typed terminal state, never an
        //    error. Applies to every admitted request, wherever it sits.
        if cfg.timeout_us.is_finite() {
            let now_ps = ps(clock_us);
            let mut expired = 0usize;
            // A timeout is a deadline violation: close the timeline,
            // then file the exemplar with its completed blame tiling.
            let mut expire = |j: &Job, rt: &mut RequestTracer| {
                rt.finish(j.id, Terminal::TimedOut, now_ps);
                slo_missed += 1;
                if rt.enabled() {
                    let ttft_us = j.first_token_us.map(|f| f - j.arrival_us);
                    push_miss(
                        &mut misses,
                        SloMiss {
                            id: j.id,
                            arrival_us: j.arrival_us,
                            e2e_us: clock_us - j.arrival_us,
                            ttft_us,
                            tpot_us: None,
                            missed_ttft: ttft_us.is_none_or(|t| t > cfg.slo.ttft_us),
                            missed_tpot: false,
                            terminal: Terminal::TimedOut,
                            blame: rt.blame(j.id),
                        },
                    );
                }
            };
            running.retain(|j| {
                if clock_us - j.arrival_us > cfg.timeout_us {
                    kv.release(j.id);
                    expire(j, &mut rt);
                    expired += 1;
                    false
                } else {
                    true
                }
            });
            waiting.retain(|j| {
                if clock_us - j.arrival_us > cfg.timeout_us {
                    expire(j, &mut rt);
                    expired += 1;
                    false
                } else {
                    true
                }
            });
            recovery.retain(|j| {
                if clock_us - j.arrival_us > cfg.timeout_us {
                    expire(j, &mut rt);
                    expired += 1;
                    false
                } else {
                    true
                }
            });
            timed_out += expired;
        }

        // 4. Join: recovery jobs first (priority drain of displaced
        //    work), then fresh waiters, while reservations fit.
        let mut blocked = false;
        while running.len() < cfg.max_batch {
            let from_recovery = !recovery.is_empty();
            let Some(job) = recovery.pop_front().or_else(|| waiting.pop_front()) else {
                break;
            };
            let jid = job.id;
            let pre = ps(clock_us);
            match try_join(&mut kv, job, kv_bpt, &mut clock_us) {
                Join::Joined(j) => {
                    // A restore moved KV back over the host link: the
                    // transfer window is this request's kv-spill time.
                    let post = ps(clock_us);
                    if post > pre {
                        rt.charge(jid, Phase::Queue, pre, None);
                        rt.charge(jid, Phase::KvSpill, post, None);
                    }
                    running.push(j);
                }
                Join::Blocked(j) => {
                    if from_recovery {
                        recovery.push_front(j);
                    } else {
                        waiting.push_front(j);
                    }
                    blocked = true;
                    break;
                }
                Join::Never => {
                    rt.finish(jid, Terminal::Evicted, ps(clock_us));
                    evicted += 1;
                }
            }
        }
        // Forced progress: nothing is running yet the head of the queue
        // cannot reserve — the only holders are the prefix cache (drop
        // it) or nothing (the job can never fit: typed eviction).
        if running.is_empty() && blocked {
            kv.drop_prefix_cache();
            if let Some(job) = recovery.pop_front().or_else(|| waiting.pop_front()) {
                let jid = job.id;
                let pre = ps(clock_us);
                match try_join(&mut kv, job, kv_bpt, &mut clock_us) {
                    Join::Joined(j) => {
                        let post = ps(clock_us);
                        if post > pre {
                            rt.charge(jid, Phase::Queue, pre, None);
                            rt.charge(jid, Phase::KvSpill, post, None);
                        }
                        running.push(j);
                    }
                    Join::Blocked(_) | Join::Never => {
                        rt.finish(jid, Terminal::Evicted, ps(clock_us));
                        evicted += 1;
                    }
                }
            }
        }

        if running.is_empty() {
            if waiting.is_empty() && recovery.is_empty() {
                if next < trace.len() {
                    // Idle: jump to the next arrival.
                    clock_us = clock_us.max(trace[next].arrival_us);
                    continue;
                }
                break;
            }
            continue;
        }

        // 5. Watermark pressure: proactively spill the biggest holder
        //    before stepping (only reachable under oversubscription or a
        //    shrunken pool).
        while kv.above_watermark() && running.len() > 1 {
            let Some(vid) = kv.spill_victim(running.iter().map(|j| j.id)) else {
                break;
            };
            spill_by_id(
                &mut kv,
                &mut running,
                &mut recovery,
                vid,
                kv_bpt,
                &mut clock_us,
                &mut rt,
            );
        }
        if running.is_empty() {
            continue;
        }

        // 6. One engine step: a prefill chunk if any running job still
        //    needs prompt compute, otherwise a decode step for the batch.
        let pending_total: usize = running.iter().map(Job::pending_prefill).sum();
        let step_result = if pending_total > 0 {
            // Plan this iteration's chunk at true per-request token
            // counts.
            let mut budget = PREFILL_CHUNK_TOKENS;
            let mut parts: Vec<(u64, usize)> = Vec::new();
            for j in &running {
                if budget == 0 {
                    break;
                }
                let p = j.pending_prefill();
                if p == 0 {
                    continue;
                }
                let take = p.min(budget);
                parts.push((j.id, take));
                budget -= take;
            }
            // Grow KV for the chunk (spilling under pressure may drop
            // participants).
            let mut grown: Vec<(u64, usize)> = Vec::new();
            for &(id, take) in &parts {
                let Some(pos) = running.iter().position(|j| j.id == id) else {
                    continue; // displaced by an earlier victim spill
                };
                let target = running[pos].own_ready + take;
                match grow_or_spill(
                    &mut kv,
                    &mut running,
                    &mut recovery,
                    id,
                    target,
                    kv_bpt,
                    &mut clock_us,
                    &mut rt,
                ) {
                    Grow::Grown => grown.push((id, take)),
                    Grow::Evicted => evicted += 1,
                }
            }
            if grown.is_empty() {
                continue;
            }
            let tokens: usize = grown.iter().map(|&(_, t)| t).sum();
            let pre_ps = ps(clock_us);
            let engine_from_ps = engine.engine_mut().now().as_ps();
            match engine.prefill_tokens(backend, tokens, grown.len()) {
                Ok(rep) => {
                    prefill_tokens_billed += tokens as u64;
                    clock_us += rep.total_us();
                    step_hist.record((rep.total_us() * 1e3).round() as u64);
                    let post_ps = ps(clock_us);
                    let link = Some(StepLink {
                        step: steps,
                        engine_from_ps,
                        engine_to_ps: engine.engine_mut().now().as_ps(),
                    });
                    steps += 1;
                    // Tile the step window exactly: compute first, the
                    // remainder is the collective.
                    let compute_ps = ((rep.compute_us * 1e6).round() as u64).min(post_ps - pre_ps);
                    for (id, take) in grown {
                        if let Some(j) = running.iter_mut().find(|j| j.id == id) {
                            j.own_ready += take;
                            if !j.published && j.pending_prefill() == 0 {
                                if let Some((pid, plen)) = j.prefix {
                                    kv.prefix_insert(pid, plen.min(j.prompt));
                                }
                                j.published = true;
                            }
                            rt.charge(id, Phase::Queue, pre_ps, None);
                            rt.charge(id, Phase::PrefillCompute, pre_ps + compute_ps, link);
                            rt.charge(id, Phase::CollectiveComm, post_ps, link);
                        }
                    }
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else {
            // Grow one slot per job for the token this step produces.
            let ids: Vec<u64> = running.iter().map(|j| j.id).collect();
            for id in ids {
                let Some(pos) = running.iter().position(|j| j.id == id) else {
                    continue;
                };
                let target = running[pos].own_ready + 1;
                if grow_or_spill(
                    &mut kv,
                    &mut running,
                    &mut recovery,
                    id,
                    target,
                    kv_bpt,
                    &mut clock_us,
                    &mut rt,
                ) == Grow::Evicted
                {
                    evicted += 1;
                }
            }
            if running.is_empty() {
                continue;
            }
            let mean_context =
                running.iter().map(|j| j.prompt + j.produced).sum::<usize>() / running.len();
            let batch = BatchConfig {
                bsz: running.len(),
                seqlen: mean_context.max(1),
            };
            let pre_ps = ps(clock_us);
            let engine_from_ps = engine.engine_mut().now().as_ps();
            match engine.decode_step(backend, batch) {
                Ok(rep) => {
                    clock_us += rep.total_us();
                    decode_us += rep.total_us();
                    step_hist.record((rep.total_us() * 1e3).round() as u64);
                    generated_tokens += running.len();
                    let post_ps = ps(clock_us);
                    let link = Some(StepLink {
                        step: steps,
                        engine_from_ps,
                        engine_to_ps: engine.engine_mut().now().as_ps(),
                    });
                    steps += 1;
                    let compute_ps = ((rep.compute_us * 1e6).round() as u64).min(post_ps - pre_ps);
                    let mut finished: Vec<Job> = Vec::new();
                    for j in &mut running {
                        j.produced += 1;
                        j.own_ready += 1;
                        if j.first_token_us.is_none() {
                            j.first_token_us = Some(clock_us);
                            rt.first_token(j.id, post_ps);
                        }
                        rt.charge(j.id, Phase::Queue, pre_ps, None);
                        rt.charge(j.id, Phase::DecodeCompute, pre_ps + compute_ps, link);
                        rt.charge(j.id, Phase::CollectiveComm, post_ps, link);
                    }
                    running.retain_mut(|j| {
                        if j.produced >= j.generate {
                            finished.push(j.clone());
                            false
                        } else {
                            true
                        }
                    });
                    for j in finished {
                        let latency = clock_us - j.arrival_us;
                        latency_sum += latency;
                        req_hist.record((latency * 1e3).round() as u64);
                        let first = j.first_token_us.unwrap_or(clock_us);
                        let ttft = first - j.arrival_us;
                        ttft_hist.record((ttft * 1e3).round() as u64);
                        let tpot = if j.generate > 1 {
                            (clock_us - first) / (j.generate - 1) as f64
                        } else {
                            0.0
                        };
                        tpot_hist.record((tpot * 1e3).round() as u64);
                        rt.finish(j.id, Terminal::Completed, post_ps);
                        let missed_ttft = ttft > cfg.slo.ttft_us;
                        let missed_tpot = tpot > cfg.slo.tpot_us;
                        if !missed_ttft && !missed_tpot {
                            slo_met += 1;
                        } else {
                            slo_missed += 1;
                            if rt.enabled() {
                                push_miss(
                                    &mut misses,
                                    SloMiss {
                                        id: j.id,
                                        arrival_us: j.arrival_us,
                                        e2e_us: latency,
                                        ttft_us: Some(ttft),
                                        tpot_us: (j.generate > 1).then_some(tpot),
                                        missed_ttft,
                                        missed_tpot,
                                        terminal: Terminal::Completed,
                                        blame: rt.blame(j.id),
                                    },
                                );
                            }
                        }
                        kv.release(j.id);
                        completed += 1;
                    }
                    Ok(())
                }
                Err(e) => Err(e),
            }
        };

        // 7. Step failures: recover (shrink) if a rank died, losing all
        //    device KV; displaced jobs re-enter via the recovery queue.
        if let Err(err) = step_result {
            let Some((class, lat)) = engine.recover(backend)? else {
                return Err(err);
            };
            recoveries += 1;
            recovery_latency_us += lat;
            recoveries_by_class[class.index()] += 1;
            recovery_latency_us_by_class[class.index()] += lat;
            let pre_ps = ps(clock_us);
            clock_us += lat;
            let post_ps = ps(clock_us);
            // The stall delays every live admitted request, wherever it
            // sits — blame the whole window on recovery for all of them.
            for j in running.iter().chain(waiting.iter()).chain(recovery.iter()) {
                rt.charge(j.id, Phase::Queue, pre_ps, None);
                rt.charge(j.id, Phase::Recovery, post_ps, None);
            }
            epoch = backend.epoch();
            let new_blocks = if derive_blocks {
                (engine.kv_capacity_tokens() / block_tokens).max(1)
            } else {
                (cfg.kv.total_blocks * engine.tp() / tp0).max(1)
            };
            kv.lose_to_dead_rank(new_blocks);
            for mut job in running.drain(..) {
                // The prefix cache died with the pool; host spill copies
                // (made before the death) survive in host memory.
                job.prefix_hit = 0;
                job.own_ready = 0;
                recovery.push_back(job);
            }
        }

        // Telemetry tick: one sample per period boundary of the serving
        // clock — counter deltas, resource busy deltas, and the serving
        // gauges the registry does not hold live. When engine tracing is
        // on, the same gauges land in the engine trace as `serve.*`
        // counter tracks.
        if let Some(s) = sampler.as_mut() {
            let now = sim::Time::from_ps(ps(clock_us));
            if s.due(now) {
                let gauges = [
                    (waiting.len() + recovery.len()) as u64,
                    running.len() as u64,
                    kv.used() as u64,
                    completed as u64,
                    slo_met as u64,
                    (shed + rejected) as u64,
                    generated_tokens as u64,
                ];
                s.sample(now, engine.engine_mut().metrics(), &gauges);
                if engine.engine_mut().tracing() {
                    for (name, v) in SERVE_GAUGES.iter().zip(gauges) {
                        engine.engine_mut().trace_counter_at(name, v, now);
                    }
                }
            }
        }
    }

    // Teardown: return the prefix cache's pinned blocks and check the
    // conservation invariant — every allocated block was freed, spilled,
    // or lost to a dead rank.
    kv.drop_prefix_cache();
    debug_assert!(
        kv.stats().balances(),
        "KV accounting out of balance: {:?}",
        kv.stats()
    );
    debug_assert_eq!(
        completed + shed + rejected + timed_out + evicted,
        trace.len(),
        "request conservation violated"
    );

    let current = backend.epoch();
    if epoch != current {
        return Err(Error::EpochChanged {
            observed: epoch,
            current,
        });
    }

    let m = engine.engine_mut().metrics_mut();
    m.inc("serve.admitted", admitted);
    m.inc("serve.completed", completed as u64);
    m.inc("serve.slo_met", slo_met as u64);
    m.inc("serve.shed", shed as u64);
    for (i, r) in SHED_REASONS.iter().enumerate() {
        m.inc(&format!("serve.shed.{}", r.name()), shed_by[i]);
    }
    m.inc("serve.rejected", rejected as u64);
    m.inc("serve.timed_out", timed_out as u64);
    m.inc("serve.evicted", evicted as u64);
    m.inc("serve.prefill_tokens", prefill_tokens_billed);
    m.inc("serve.decode_tokens", generated_tokens as u64);
    let ks = kv.stats();
    m.inc("serve.kv_evictions", ks.evictions);
    m.inc("serve.kv_spilled_blocks", ks.spilled);
    m.inc("serve.kv_restored_blocks", ks.restored);
    m.inc("serve.kv_lost_blocks", ks.lost_to_dead_rank);
    m.inc("serve.prefix_hits", ks.prefix_hits);
    m.inc("serve.recoveries", recoveries as u64);
    m.inc("serve.slo_missed", slo_missed as u64);
    m.inc("serve.steps", steps);

    let secs = (clock_us / 1e6).max(1e-12);
    let observation = ServeObservation {
        timelines: rt.into_timelines(),
        telemetry: sampler,
    };
    let report = ServeReport {
        completed,
        makespan_us: clock_us,
        decode_throughput: generated_tokens as f64 / secs,
        mean_latency_us: latency_sum / completed.max(1) as f64,
        p95_latency_us: req_hist.p95() as f64 / 1e3,
        request_latency: LatencyStats::from_hist(&req_hist),
        step_latency: LatencyStats::from_hist(&step_hist),
        decode_time_fraction: if clock_us > 0.0 {
            decode_us / clock_us
        } else {
            0.0
        },
        recoveries,
        recovery_latency_us,
        recoveries_by_class,
        recovery_latency_us_by_class,
        final_tp: engine.tp(),
        goodput: slo_met as f64 / secs,
        slo_met,
        shed,
        rejected,
        timed_out,
        evicted,
        ttft: LatencyStats::from_hist(&ttft_hist),
        tpot: LatencyStats::from_hist(&tpot_hist),
        kv: ks,
        slo_missed,
        worst_misses: misses,
    };
    Ok((report, observation))
}
