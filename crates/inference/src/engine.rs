//! The serving engine: tensor-parallel prefill and decode steps over the
//! simulated cluster (the paper's modified-vLLM setup, §5.2).
//!
//! Each decoder layer runs its per-GPU compute (roofline-timed, identical
//! across communication backends) followed by the two tensor-parallel
//! AllReduces (attention output projection and MLP down projection),
//! executed on the simulated communication stack with their real plans
//! and timing. The cluster's memory is timing-only, so no activation
//! bytes are copied or reduced: nothing reads them. Decode uses
//! CUDA-graph semantics (no extra launch gaps between layers beyond the
//! kernel model), as in the paper's setup.

use hw::{BufferId, DataType, EnvKind, Machine, Rank};
use mscclpp::{run_kernels, Error, KernelBuilder, Overheads, Result};
use sim::{Duration, Engine};

use crate::backend::CommBackend;
use crate::model::{layer_time, GpuPerf, ModelConfig};

/// Per-layer time spent in auxiliary kernels that the GEMM roofline does
/// not cover: paged attention (whose scattered KV reads run well below
/// peak HBM bandwidth), layer norms, rotary embeddings, and residual
/// adds. Identical across communication backends.
const AUX_PER_LAYER: Duration = Duration::from_ps(45_000_000); // 45 us

/// Maximum tokens processed per prefill chunk (vLLM-style chunked
/// prefill): bounds activation memory for long-prompt batches.
pub(crate) const PREFILL_CHUNK_TOKENS: usize = 8192;

/// Fraction of free HBM (after weights and activations) given to the
/// paged KV cache; the rest absorbs fragmentation and CUDA overheads,
/// matching vLLM's `gpu_memory_utilization` headroom.
const KV_FRACTION: f64 = 0.9;

/// One batch configuration of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchConfig {
    /// Batched requests.
    pub bsz: usize,
    /// Tokens per request (context length during decode).
    pub seqlen: usize,
}

impl std::fmt::Display for BatchConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bsz={} seqlen={}", self.bsz, self.seqlen)
    }
}

/// Why a recovery happened, classified from where the dead ranks sat in
/// the tensor-parallel group at the moment of the failure.
///
/// The class determines how much of the communicator the shrink has to
/// rebuild — a member death renumbers one node's intra-node phase, a
/// leader death additionally re-elects the node's inter-node endpoint,
/// and a node death renumbers the whole inter-node phase — so recovery
/// latencies are reported per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// A rank died that was not its node's inter-node leader.
    Member,
    /// The lowest-ranked serving member of a node — its inter-node
    /// leader — died, forcing a leader re-election on that node.
    Leader,
    /// Every serving rank of one node died at once.
    Node,
    /// A live-but-slow rank was voluntarily evicted by the straggler
    /// quarantine (never produced by [`ServingEngine::recover`], which
    /// only sees dead ranks).
    Straggler,
}

impl FailureClass {
    /// All classes, in [`FailureClass::index`] order.
    pub const ALL: [FailureClass; 4] = [
        FailureClass::Member,
        FailureClass::Leader,
        FailureClass::Node,
        FailureClass::Straggler,
    ];

    /// Stable index into per-class report arrays.
    pub fn index(self) -> usize {
        match self {
            FailureClass::Member => 0,
            FailureClass::Leader => 1,
            FailureClass::Node => 2,
            FailureClass::Straggler => 3,
        }
    }

    /// Lowercase display name (used in benchmark output).
    pub fn name(self) -> &'static str {
        match self {
            FailureClass::Member => "member",
            FailureClass::Leader => "leader",
            FailureClass::Node => "node",
            FailureClass::Straggler => "straggler",
        }
    }
}

/// Timing breakdown of one inference step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Per-GPU compute time (identical across backends).
    pub compute_us: f64,
    /// Communication time (two AllReduces per layer).
    pub comm_us: f64,
}

impl StepReport {
    /// End-to-end step time.
    pub fn total_us(&self) -> f64 {
        self.compute_us + self.comm_us
    }
}

/// A Llama-style model served with tensor parallelism on one simulated
/// machine.
pub struct ServingEngine {
    engine: Engine<Machine>,
    model: ModelConfig,
    perf: GpuPerf,
    tp: usize,
    /// Ranks currently serving: all GPUs until a rank death shrinks the
    /// tensor-parallel group to the survivors.
    group: Vec<Rank>,
    /// Activation buffers (one per rank), sized for the largest step;
    /// timing-only, so they hold no payload.
    act: Vec<BufferId>,
    act_cap: usize,
    ov: Overheads,
}

impl std::fmt::Debug for ServingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingEngine")
            .field("model", &self.model.name)
            .field("tp", &self.tp)
            .finish_non_exhaustive()
    }
}

impl ServingEngine {
    /// Builds the serving engine for `model` on `env`, with tensor
    /// parallelism over all GPUs of a single node (TP = 8, as in §5.2).
    ///
    /// `max_tokens` bounds the largest step (prefill tokens).
    pub fn new(env: EnvKind, model: ModelConfig, max_tokens: usize) -> ServingEngine {
        ServingEngine::with_fault_plan(env, model, max_tokens, None)
    }

    /// Like [`ServingEngine::new`], but installs `plan` (e.g. a scheduled
    /// rank death) before the machine is wired so faults act on the
    /// serving run from the first step.
    pub fn with_fault_plan(
        env: EnvKind,
        model: ModelConfig,
        max_tokens: usize,
        plan: Option<sim::FaultPlan>,
    ) -> ServingEngine {
        ServingEngine::with_cluster(env, 1, model, max_tokens, plan)
    }

    /// Like [`ServingEngine::with_fault_plan`], but serves at multi-node
    /// tensor parallelism: TP spans all GPUs of `nodes` nodes, so the
    /// per-layer AllReduces cross the inter-node fabric and a whole node
    /// can fail.
    ///
    /// Every constructor builds the cluster with
    /// [`Machine::timing_only`]: serving reads step times, never
    /// activation values, so the AllReduces keep their virtual time,
    /// events and counters but copy and reduce no bytes, and the
    /// activation, scratch and staging buffers hold no payload. The
    /// `commverify` semantic pass still proves every plan shape computes
    /// its collective before its first launch.
    pub fn with_cluster(
        env: EnvKind,
        nodes: usize,
        model: ModelConfig,
        max_tokens: usize,
        plan: Option<sim::FaultPlan>,
    ) -> ServingEngine {
        let mut engine = Engine::new(Machine::timing_only(env.spec(nodes)));
        if let Some(plan) = plan {
            engine.set_fault_plan(plan);
        }
        hw::wire(&mut engine);
        let tp = engine.world().topology().world_size();
        // Prefill is chunked, so activations never exceed one chunk.
        let act_cap = max_tokens.min(PREFILL_CHUNK_TOKENS) * model.hidden * 2; // fp16
        let act = (0..tp)
            .map(|r| engine.world_mut().pool_mut().alloc(Rank(r), act_cap))
            .collect();
        ServingEngine {
            engine,
            model,
            perf: GpuPerf::for_env(env),
            tp,
            group: (0..tp).map(Rank).collect(),
            act,
            act_cap,
            ov: Overheads::mscclpp(),
        }
    }

    /// The simulated machine (e.g. to inspect buffer sizes or
    /// `moved_bytes`; its timing-only buffers hold no bytes to read).
    pub fn machine(&self) -> &Machine {
        self.engine.world()
    }

    /// Exclusive access to the simulation engine.
    pub fn engine_mut(&mut self) -> &mut Engine<Machine> {
        &mut self.engine
    }

    /// The current tensor-parallel degree (shrinks on rank death).
    pub fn tp(&self) -> usize {
        self.tp
    }

    /// The model being served.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Tokens the paged KV cache can hold at the *current* tensor-parallel
    /// degree: the group's total HBM minus the (TP-invariant) weight
    /// bytes and per-rank activation buffers, derated by the
    /// fragmentation headroom, divided by the model's per-token KV
    /// footprint. Shrinking the group shrinks this — survivors hold more
    /// weight shards each, leaving less room for KV.
    pub fn kv_capacity_tokens(&self) -> usize {
        let total = self.perf.hbm_bytes as f64 * self.tp as f64;
        let weights = self.model.weight_bytes() as f64;
        let acts = (self.act_cap * self.tp) as f64;
        let free = (total - weights - acts).max(0.0);
        ((free * KV_FRACTION) / self.model.kv_bytes_per_token() as f64) as usize
    }

    /// Detects ranks the fault plan has killed and fails the serving
    /// group over to the survivors: the backend's communicator shrinks
    /// to a new epoch and subsequent steps run at the reduced
    /// tensor-parallel degree. Returns the failure class and the
    /// recovery latency in microseconds of virtual time — from the
    /// instant the first rank died to the shrunken communicator being
    /// ready — or `None` when no rank died or the backend cannot
    /// shrink.
    ///
    /// # Errors
    ///
    /// Propagates communicator-rebuild failures.
    pub fn recover(&mut self, backend: &dyn CommBackend) -> Result<Option<(FailureClass, f64)>> {
        let now = self.engine.now();
        let (dead, t_down) = {
            let Some(plan) = self.engine.fault_plan() else {
                return Ok(None);
            };
            let dead: Vec<Rank> = plan
                .dead_ranks_at(now)
                .into_iter()
                .map(Rank)
                .filter(|r| self.group.contains(r))
                .collect();
            let t_down = dead.iter().filter_map(|r| plan.rank_down_time(r.0)).min();
            (dead, t_down)
        };
        if dead.is_empty() {
            return Ok(None);
        }
        let class = self.classify(&dead);
        let Some(survivors) = backend.shrink(&mut self.engine, &dead)? else {
            return Ok(None);
        };
        self.tp = survivors.len();
        self.group = survivors;
        Ok(Some((
            class,
            (self.engine.now() - t_down.unwrap_or(now)).as_us(),
        )))
    }

    /// Classifies a set of deaths against the serving group as it stood
    /// before the shrink. Severity wins: if any node lost all its
    /// serving members it is a node failure; otherwise if any node lost
    /// its inter-node leader (lowest serving rank) it is a leader
    /// failure; otherwise a member failure.
    fn classify(&self, dead: &[Rank]) -> FailureClass {
        let topo = self.engine.world().topology();
        let mut class = FailureClass::Member;
        for node in 0..topo.nodes() {
            let members: Vec<Rank> = self
                .group
                .iter()
                .copied()
                .filter(|&r| topo.node_of(r) == node)
                .collect();
            if members.is_empty() || !members.iter().any(|r| dead.contains(r)) {
                continue;
            }
            if members.iter().all(|r| dead.contains(r)) {
                return FailureClass::Node;
            }
            if dead.contains(&members[0]) {
                class = FailureClass::Leader;
            }
        }
        class
    }

    /// Runs the per-GPU compute of one layer as a kernel on every
    /// surviving rank.
    fn run_compute(&mut self, dur: Duration) -> Result<f64> {
        let kernels: Vec<_> = self
            .group
            .iter()
            .map(|&r| {
                let mut kb = KernelBuilder::new(r);
                kb.block(0).compute(dur);
                kb.build()
            })
            .collect();
        let t = run_kernels(&mut self.engine, &kernels, &self.ov)?;
        Ok(t.elapsed().as_us())
    }

    /// Times one transformer step with `tokens` live tokens and `batch`
    /// sequences of mean context `context`.
    fn step(
        &mut self,
        backend: &dyn CommBackend,
        tokens: usize,
        context: usize,
        batch: usize,
    ) -> Result<StepReport> {
        let count = tokens * self.model.hidden; // fp16 elements
        if count * 2 > self.act_cap {
            return Err(Error::InvalidArgument(format!(
                "step of {tokens} tokens exceeds the engine's activation capacity of {} tokens",
                self.act_cap / (2 * self.model.hidden)
            )));
        }
        let t_layer = layer_time(&self.model, self.perf, self.tp, tokens, context, batch);
        // Attention and MLP each take roughly half the layer compute
        // (plus the non-GEMM auxiliary kernels) and each end in a
        // tensor-parallel AllReduce.
        let half = Duration::from_ps((t_layer + AUX_PER_LAYER).as_ps() / 2);

        // One layer measured in-simulation; the remaining layers repeat
        // the identical schedule (CUDA-graph steady state).
        let mut compute_us = 0.0;
        let mut comm_us = 0.0;
        for _ in 0..2 {
            compute_us += self.run_compute(half)?;
            let t = backend.all_reduce(&mut self.engine, &self.act, count, DataType::F16)?;
            comm_us += t.elapsed().as_us();
        }
        Ok(StepReport {
            compute_us: compute_us * self.model.layers as f64,
            comm_us: comm_us * self.model.layers as f64,
        })
    }

    /// Times one decode step (one new token per request).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] when the batch exceeds the activation
    /// capacity the engine was built with; otherwise propagates kernel
    /// deadlocks from the communication stack.
    pub fn decode_step(
        &mut self,
        backend: &dyn CommBackend,
        batch: BatchConfig,
    ) -> Result<StepReport> {
        self.step(backend, batch.bsz, batch.seqlen, batch.bsz)
    }

    /// Times the prefill of a full batch (all prompt tokens at once).
    ///
    /// # Errors
    ///
    /// As [`ServingEngine::prefill_tokens`].
    pub fn prefill(&mut self, backend: &dyn CommBackend, batch: BatchConfig) -> Result<StepReport> {
        self.prefill_tokens(backend, batch.bsz * batch.seqlen, batch.bsz)
    }

    /// Times the prefill of exactly `tokens` prompt tokens spread over
    /// `bsz` requests — the billing primitive behind [`ServingEngine::prefill`]
    /// and the continuous-batching scheduler. Unlike a
    /// mean-sequence-length [`BatchConfig`], this charges the *true*
    /// per-request token sum, so a batch mixing a 1-token and a
    /// 4096-token prompt is billed 4097 tokens, not a rounded mean.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArgument`] when a prefill chunk exceeds the
    /// activation capacity the engine was built with; otherwise
    /// propagates kernel deadlocks from the communication stack.
    pub fn prefill_tokens(
        &mut self,
        backend: &dyn CommBackend,
        tokens: usize,
        bsz: usize,
    ) -> Result<StepReport> {
        // Chunked prefill (as vLLM schedules long prompts): process the
        // prompt tokens in fixed-size chunks so activation buffers stay
        // bounded.
        let mut report = StepReport {
            compute_us: 0.0,
            comm_us: 0.0,
        };
        let mut remaining = tokens;
        while remaining > 0 {
            let chunk = remaining.min(PREFILL_CHUNK_TOKENS);
            let r = self.step(backend, chunk, 0, bsz.max(1))?;
            report.compute_us += r.compute_us;
            report.comm_us += r.comm_us;
            remaining -= chunk;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MscclppBackend, NcclBackend};

    #[test]
    fn activations_are_timing_only() {
        let mut e = ServingEngine::new(EnvKind::A100_80G, ModelConfig::llama2_13b(), 16 * 1024);
        let backend = MscclppBackend::new();
        let batch = BatchConfig {
            bsz: 8,
            seqlen: 128,
        };
        e.decode_step(&backend, batch).unwrap();
        // Full-size activations, real data-plane traffic, and no bytes.
        let pool = e.machine().pool();
        assert_eq!(pool.len(e.act[0]), e.act_cap);
        assert!(pool.moved_bytes() > 0);
        let read = std::panic::catch_unwind(|| pool.bytes(e.act[0], 0, 2).to_vec());
        assert!(read.is_err(), "a serving engine's activations hold bytes");
    }

    #[test]
    fn decode_speedup_in_paper_band() {
        let model = ModelConfig::llama2_70b();
        let batch = BatchConfig {
            bsz: 32,
            seqlen: 512,
        };
        let mut e1 = ServingEngine::new(EnvKind::A100_80G, model.clone(), 64 * 2048);
        let nccl = NcclBackend::new(e1.engine_mut());
        let nccl_step = e1.decode_step(&nccl, batch).unwrap();

        let mut e2 = ServingEngine::new(EnvKind::A100_80G, model, 64 * 2048);
        let pp = MscclppBackend::new();
        let pp_step = e2.decode_step(&pp, batch).unwrap();

        assert!(
            (pp_step.compute_us - nccl_step.compute_us).abs() / nccl_step.compute_us < 0.01,
            "compute must be backend-independent"
        );
        assert!(pp_step.comm_us < nccl_step.comm_us);
        let speedup = nccl_step.total_us() / pp_step.total_us() - 1.0;
        assert!(
            (0.02..0.20).contains(&speedup),
            "decode speedup {speedup:.3} outside plausible band \
             (nccl {:.0}us vs mscclpp {:.0}us)",
            nccl_step.total_us(),
            pp_step.total_us()
        );
    }

    #[test]
    fn prefill_speedup_smaller_than_decode() {
        let model = ModelConfig::llama2_70b();
        let batch = BatchConfig {
            bsz: 8,
            seqlen: 512,
        };
        let mut e1 = ServingEngine::new(EnvKind::A100_80G, model.clone(), 8 * 512);
        let nccl = NcclBackend::new(e1.engine_mut());
        let nccl_prefill = e1.prefill(&nccl, batch).unwrap();
        let nccl_decode = e1.decode_step(&nccl, batch).unwrap();

        let mut e2 = ServingEngine::new(EnvKind::A100_80G, model, 8 * 512);
        let pp = MscclppBackend::new();
        let pp_prefill = e2.prefill(&pp, batch).unwrap();
        let pp_decode = e2.decode_step(&pp, batch).unwrap();

        let s_prefill = nccl_prefill.total_us() / pp_prefill.total_us() - 1.0;
        let s_decode = nccl_decode.total_us() / pp_decode.total_us() - 1.0;
        assert!(
            s_prefill < s_decode,
            "prefill speedup {s_prefill:.3} should be below decode {s_decode:.3} (§5.2)"
        );
        assert!(
            s_prefill < 0.08,
            "prefill speedup should be ≤6%: {s_prefill:.3}"
        );
    }

    #[test]
    fn over_capacity_step_is_a_typed_error_not_a_panic() {
        // Activations sized for 1024 tokens; a 4096-token prefill is
        // chunked at 8192, so its one chunk does not fit.
        let mut engine = ServingEngine::new(EnvKind::A100_80G, ModelConfig::llama2_13b(), 1024);
        let err = engine
            .prefill_tokens(&MscclppBackend::new(), 4096, 1)
            .expect_err("over-capacity prefill must fail");
        assert!(
            matches!(&err, Error::InvalidArgument(m) if m.contains("4096 tokens")),
            "{err}"
        );
        // The engine is still usable at its capacity.
        engine
            .prefill_tokens(&MscclppBackend::new(), 1024, 1)
            .expect("in-capacity prefill");
    }
}

#[cfg(test)]
mod cross_env_tests {
    use super::*;
    use crate::backend::MscclppBackend;
    use crate::model::ModelConfig;

    #[test]
    fn h100_decodes_faster_than_a100() {
        let model = ModelConfig::llama2_70b();
        let batch = BatchConfig {
            bsz: 16,
            seqlen: 512,
        };
        let backend = MscclppBackend::new();
        let mut a100 = ServingEngine::new(EnvKind::A100_80G, model.clone(), 16 * 512);
        let t_a100 = a100.decode_step(&backend, batch).unwrap().total_us();
        let backend2 = MscclppBackend::new();
        let mut h100 = ServingEngine::new(EnvKind::H100, model, 16 * 512);
        let t_h100 = h100.decode_step(&backend2, batch).unwrap().total_us();
        assert!(
            t_h100 < t_a100 * 0.8,
            "H100 ({t_h100}us) should be well under A100 ({t_a100}us)"
        );
    }
}
