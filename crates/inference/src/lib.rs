//! Distributed LLM inference over the simulated cluster — the paper's
//! §5.2 evaluation substrate.
//!
//! The paper modifies vLLM v0.3.3 to use MSCCL++ for the tensor-parallel
//! AllReduce of Llama2-70b on a single 8×A100-80G node, and measures
//! decode and prefill times across batch configurations (Figure 10). This
//! crate reproduces that pipeline:
//!
//! * [`ModelConfig`] — transformer shapes (Llama2-70b preset);
//! * [`GpuPerf`] + a per-layer roofline ([`layer_time`]) — per-GPU
//!   compute time, identical across communication backends;
//! * [`CommBackend`] — pluggable AllReduce provider ([`NcclBackend`],
//!   [`MscclBackend`], [`MscclppBackend`]);
//! * [`ServingEngine`] — runs prefill/decode steps: per-layer compute
//!   kernels interleaved with two real simulated AllReduces per layer.
//!
//! Decode time improvements "align perfectly with the standalone
//! AllReduce evaluation" (§5.2) because compute is backend-independent;
//! the same holds here by construction, and the benchmark harness
//! (`fig10_llm_inference`) reports the resulting 4–15 % decode speedups.
//!
//! # Example
//!
//! ```
//! use hw::EnvKind;
//! use inference::{BatchConfig, ModelConfig, MscclppBackend, ServingEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut engine = ServingEngine::new(
//!     EnvKind::A100_80G,
//!     ModelConfig::llama2_13b(),
//!     8 * 128,
//! );
//! let backend = MscclppBackend::new();
//! let step = engine.decode_step(&backend, BatchConfig { bsz: 8, seqlen: 128 })?;
//! assert!(step.total_us() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod admission;
mod backend;
mod engine;
pub mod kv;
mod model;
pub mod rtrace;
pub mod scheduler;
mod serve;

pub use admission::{Admission, AdmissionConfig, Decision, ShedReason};
pub use backend::{CommBackend, MscclBackend, MscclppBackend, NcclBackend};
pub use engine::{BatchConfig, FailureClass, ServingEngine, StepReport};
pub use kv::{KvConfig, KvStats, PagedKvManager};
pub use model::{layer_time, GpuPerf, ModelConfig};
pub use rtrace::{
    Blame, Phase, PhaseEvent, RequestTimeline, RequestTracer, SloMiss, StepLink, Terminal,
};
pub use scheduler::{ObserveConfig, ServeConfig, SloSpec};
pub use serve::{
    serve_trace_observed, synthetic_trace, LatencyStats, Request, ServeObservation, ServeReport,
};
