//! `commverify` — static verification of compiled communication plans.
//!
//! Given the per-rank, per-thread-block instruction streams of a kernel
//! batch (plus the channel wiring embedded in the instructions and the
//! memory pool they index into), this crate constructs the happens-before
//! graph induced by the synchronization instructions and reports:
//!
//! * **Races** — unsynchronized write→read / write→write pairs on
//!   overlapping buffer ranges, with both offending instruction sites.
//! * **Static deadlocks** — wait cycles in the happens-before graph, and
//!   signal/wait count imbalances (waits that can never be satisfied).
//! * **Out-of-bounds accesses** — byte ranges past a buffer's registered
//!   size.
//! * **Orphan signals** — semaphores signalled but never waited on.
//! * **Unflushed port puts** — posted transfers with no completion
//!   guarantee before kernel exit.
//! * **Semantic divergence** — when the caller declares a
//!   [`CollectiveSpec`] (see [`analyze_collective`]), a symbolic
//!   provenance pass proves every member's output range holds exactly
//!   the contributions the collective demands, reporting the first
//!   divergent byte range as a missing / duplicated / misplaced / stale
//!   contribution with the instruction sites that produced it.
//!
//! The analysis is *sound for a single kernel launch over freshly-zeroed
//! synchronization cells*: every reported deadlock cycle and imbalance is
//! real under that assumption, and every happens-before edge it draws is
//! implied by the simulator's semantics. Race detection is exact for
//! plans where each synchronization cell has a single waiting thread
//! (true of all built-in algorithms); with multiple waiters the counted
//! rule keeps only guaranteed edges, so extra races may be reported but
//! ordered pairs are never misclassified as racing. Callers that reuse
//! channel state across launches (NCCL-style FIFO credits) should verify
//! the first launch only, with [`Checks::transport`].
//!
//! The dynamic counterpart lives in the `mscclpp` crate
//! ([`mscclpp::run_kernels_sanitized`]): a vector-clock sanitizer over a
//! concrete simulated execution. Both read each instruction's footprint
//! from one definition ([`mscclpp::Instr::dataflow`] and
//! [`mscclpp::Instr::increments`]), both run a port channel's proxy as a
//! thread of its own per pushing block, and both name findings by the
//! same [`Site`], so a static race finding can be cross-checked against
//! a dynamic one.

mod error;
mod hb;
mod model;
pub mod mutate;
mod semantics;

pub use error::{Checks, Report, VerifyError};
pub use mscclpp::Site;
pub use semantics::{CollectiveKind, CollectiveSpec, SpecMember};

use hw::MemoryPool;
use mscclpp::Kernel;

fn analyze_inner(
    kernels: &[Kernel],
    pool: &MemoryPool,
    checks: &Checks,
    spec: Option<&CollectiveSpec>,
) -> Report {
    let model = model::extract(kernels);
    let mut report = Report {
        findings: hb::analyze(&model, pool, checks, spec),
    };
    report.sort();
    report
}

/// The first (highest-priority) finding of a report, as an error.
// The Err is a rich diagnostic carrying both instruction sites; it is
// constructed once per aborted launch, never on the success path.
#[allow(clippy::result_large_err)]
fn first_finding(report: Report) -> Result<(), VerifyError> {
    report.findings.into_iter().next().map_or(Ok(()), Err)
}

/// Analyzes a kernel batch with an explicit check preset and returns
/// every finding. Without a [`CollectiveSpec`] the semantic dataflow
/// pass has nothing to check against and is skipped — use
/// [`analyze_collective`] to run it.
pub fn analyze_with(kernels: &[Kernel], pool: &MemoryPool, checks: &Checks) -> Report {
    analyze_inner(kernels, pool, checks, None)
}

/// Analyzes a kernel batch with all checks enabled.
pub fn analyze_kernels(kernels: &[Kernel], pool: &MemoryPool) -> Report {
    analyze_with(kernels, pool, &Checks::all())
}

/// Verifies a kernel batch with all checks enabled, returning the first
/// (highest-priority) finding as an error.
#[allow(clippy::result_large_err)]
pub fn verify_kernels(kernels: &[Kernel], pool: &MemoryPool) -> Result<(), VerifyError> {
    first_finding(analyze_kernels(kernels, pool))
}

/// Analyzes a kernel batch against a declared collective: all the checks
/// of [`analyze_with`], plus the semantic dataflow pass proving every
/// member's output range holds exactly the contributions `spec` demands
/// (run when the plan is race-free).
pub fn analyze_collective(
    kernels: &[Kernel],
    pool: &MemoryPool,
    checks: &Checks,
    spec: &CollectiveSpec,
) -> Report {
    analyze_inner(kernels, pool, checks, Some(spec))
}

/// Verifies a kernel batch against a declared collective, returning the
/// first (highest-priority) finding as an error.
#[allow(clippy::result_large_err)]
pub fn verify_collective(
    kernels: &[Kernel],
    pool: &MemoryPool,
    checks: &Checks,
    spec: &CollectiveSpec,
) -> Result<(), VerifyError> {
    first_finding(analyze_collective(kernels, pool, checks, spec))
}
