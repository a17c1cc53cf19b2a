//! Machine-readable observability reports: runs one collective per stack
//! on a fresh engine, captures the engine's metrics registry (sync
//! counters, per-link byte/busy accounting), and serializes everything as
//! JSON under `results/` — no external dependencies.

use std::fs;
use std::io;
use std::path::Path;

use hw::Machine;
use sim::{json, Engine, FaultPlan};

use crate::{measure, Coll, Pick, Stack, Target};

/// One link/engine resource snapshot in a [`StackRun`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkStat {
    /// Diagnostic label (`egress r0`, `nic_send r3`, ...).
    pub label: String,
    /// Cumulative busy time in microseconds.
    pub busy_us: f64,
    /// Bytes metered through the link.
    pub bytes: u64,
    /// Number of acquisitions.
    pub acquires: u64,
    /// Cumulative queueing delay in microseconds.
    pub queue_delay_us: f64,
    /// Busy time divided by the run's elapsed time.
    pub utilization: f64,
}

/// One stack's observed collective run: latency plus the full metrics
/// snapshot of the engine that executed it.
#[derive(Debug, Clone, PartialEq)]
pub struct StackRun {
    /// Stack name (`nccl`, `msccl`, `mscclpp`).
    pub stack: String,
    /// Message size in bytes.
    pub bytes: usize,
    /// End-to-end latency in microseconds.
    pub latency_us: f64,
    /// Whether the plan that produced this run passed the `commverify`
    /// static verifier. Always true for runs that completed: every comm
    /// verifies its plan before launch and a finding aborts the run.
    pub verified: bool,
    /// Whether the plan also passed the semantic dataflow pass — the
    /// proof that it computes its declared collective, not merely that
    /// it is transport-safe. Always true for runs that completed: the
    /// semantic pass is on by default in every comm's pre-launch
    /// verification, and a semantic finding aborts the run.
    pub semantics_verified: bool,
    /// Every metrics counter, in name order.
    pub counters: Vec<(String, u64)>,
    /// Per-link accounting (labeled resources only, non-idle first).
    pub links: Vec<LinkStat>,
}

impl StackRun {
    /// Value of one counter (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }
}

/// Snapshots an engine's metrics after a timed run.
pub(crate) fn snapshot(
    stack: Stack,
    bytes: usize,
    latency_us: f64,
    engine: &Engine<Machine>,
) -> StackRun {
    let elapsed = latency_us.max(1e-9);
    let links = hw::link_stats(engine)
        .into_iter()
        .map(|s| LinkStat {
            label: s.label,
            busy_us: s.busy.as_us(),
            bytes: s.bytes,
            acquires: s.acquires,
            queue_delay_us: s.queue_delay.as_us(),
            utilization: s.busy.as_us() / elapsed,
        })
        .collect();
    StackRun {
        stack: stack.name().to_owned(),
        bytes,
        latency_us,
        verified: true,
        semantics_verified: true,
        counters: engine
            .metrics()
            .counters()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
        links,
    }
}

/// Runs an AllReduce of `bytes` on `stack` through [`measure`], on a
/// timing-only cluster, and snapshots the engine of the fastest run
/// (NCCL's best tuning candidate under [`Pick::Default`]). A `fault`
/// plan is installed before any communicator state is built; a latency
/// is only reported when the verifier proved the plan and the
/// collective survived the faults.
pub fn observe(
    stack: Stack,
    t: Target,
    bytes: usize,
    pick: Pick,
    fault: Option<&FaultPlan>,
) -> StackRun {
    let (latency_us, engine) = measure(stack, Coll::AllReduce, t, bytes, pick, fault);
    snapshot(stack, bytes, latency_us, &engine)
}

/// [`observe`]s a healthy AllReduce of `bytes` on every stack.
pub fn observe_allreduce(t: Target, bytes: usize) -> Vec<StackRun> {
    Stack::ALL
        .iter()
        .map(|&s| observe(s, t, bytes, Pick::Default, None))
        .collect()
}

/// Version stamped into every JSON artifact this crate writes
/// (`"schema_version"`). Bump when a field is added, removed, or changes
/// meaning, and add a row to `results/README.md`.
pub const SCHEMA_VERSION: u32 = 5;

fn run_json(run: &StackRun) -> String {
    let counters = run
        .counters
        .iter()
        .map(|(k, v)| format!("{}:{v}", json::quote(k)));
    let links = run.links.iter().map(|l| {
        format!(
            "{{\"label\":{},\"busy_us\":{:.3},\"bytes\":{},\"acquires\":{},\"queue_delay_us\":{:.3},\"utilization\":{:.4}}}",
            json::quote(&l.label),
            l.busy_us,
            l.bytes,
            l.acquires,
            l.queue_delay_us,
            l.utilization
        )
    });
    format!(
        "{{\"stack\":{},\"bytes\":{},\"latency_us\":{:.3},\"verified\":{},\"semantics_verified\":{},\"counters\":{{{}}},\"links\":[{}]}}",
        json::quote(&run.stack),
        run.bytes,
        run.latency_us,
        run.verified,
        run.semantics_verified,
        json::join(counters),
        json::join(links)
    )
}

/// Serializes a set of observed runs as one JSON document. The header
/// records the fault plan the runs executed under: `"fault"` is `null`
/// for a healthy run, or `{"seed":…,"summary":"…"}` so a report is
/// reproducible from its JSON alone (same seed + same plan ⇒
/// bit-identical timings and counters).
pub fn runs_to_json(
    title: &str,
    t: Target,
    fault: Option<&FaultPlan>,
    runs: &[StackRun],
) -> String {
    let fault = fault.map(|p| {
        format!(
            "{{\"seed\":{},\"summary\":{}}}",
            p.seed,
            json::quote(&p.summary())
        )
    });
    format!(
        "{{\"title\":{},\"schema_version\":{SCHEMA_VERSION},\"environment\":{},\"nodes\":{},\"world\":{},\"fault\":{},\"runs\":[{}]}}\n",
        json::quote(title),
        json::quote(&t.env.spec(t.nodes).name),
        t.nodes,
        t.world(),
        json::or_null(fault),
        json::join(runs.iter().map(run_json))
    )
}

/// The directory benchmark artifacts are written to: `$RESULTS_DIR` when
/// set (CI points this at a per-job upload directory), `results/`
/// otherwise.
pub fn results_dir() -> std::path::PathBuf {
    std::env::var_os("RESULTS_DIR").map_or_else(|| Path::new("results").to_path_buf(), Into::into)
}

/// Writes `json` to `<results_dir>/<name>` (creating the directory if
/// needed) and returns the path written.
pub fn write_results_json(name: &str, json: &str) -> io::Result<std::path::PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw::EnvKind;

    #[test]
    fn observed_runs_carry_counters_and_links() {
        let t = Target {
            env: EnvKind::A100_40G,
            nodes: 1,
        };
        let runs = observe_allreduce(t, 4096);
        assert_eq!(runs.len(), 3);
        for run in &runs {
            assert!(run.latency_us > 0.0, "{}", run.stack);
            assert!(run.verified, "{}: plan was not verified", run.stack);
            assert!(
                run.semantics_verified,
                "{}: plan was not semantically verified",
                run.stack
            );
            assert!(run.counter("sync.waits") > 0, "{}", run.stack);
            assert!(
                run.links.iter().any(|l| l.bytes > 0),
                "{}: no link carried bytes",
                run.stack
            );
        }
        // Emitted-mix attribution: each engine only saw its own stack.
        assert!(runs[0].counter("nccl.raw_put") > 0);
        assert!(!runs[0]
            .counters
            .iter()
            .any(|(k, _)| k.starts_with("mscclpp.")));
        assert!(runs[2]
            .counters
            .iter()
            .any(|(k, _)| k.starts_with("mscclpp.")));
    }

    #[test]
    fn json_round_trip_is_wellformed_enough() {
        let t = Target {
            env: EnvKind::A100_40G,
            nodes: 1,
        };
        let runs = observe_allreduce(t, 1024);
        let json = runs_to_json("smoke", t, None, &runs);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"stack\":").count(), 3);
        assert_eq!(json.matches("\"verified\":true").count(), 3);
        assert_eq!(json.matches("\"semantics_verified\":true").count(), 3);
        assert!(json.contains("\"sync.waits\":"));
        assert!(json.contains("\"label\":\"egress r0\""));
        assert!(json.contains("\"fault\":null"), "healthy header: {json}");
    }

    #[test]
    fn faulted_run_retries_and_reports_the_plan() {
        let t = Target {
            env: EnvKind::A100_40G,
            nodes: 1,
        };
        // Flap every NVLink path for 20 us early in the run: the proxies
        // must retry, and the collective must still complete.
        let mut plan = sim::FaultPlan::new(11);
        for dst in 1..8 {
            plan = plan.link_flap(
                0,
                dst,
                sim::Time::from_ps(2_000_000),
                sim::Time::from_ps(22_000_000),
            );
        }
        let run = observe(
            Stack::Mscclpp,
            t,
            1 << 20,
            Pick::AllReduce(collective::AllReduceAlgo::TwoPhasePort),
            Some(&plan),
        );
        assert!(
            run.counter("retry.attempts") > 0,
            "flap never hit a proxy: {:?}",
            run.counters
        );
        let json = runs_to_json("chaos", t, Some(&plan), &[run]);
        assert!(json.contains("\"fault\":{\"seed\":11,"), "{json}");
        assert!(json.contains("link 0<->1 down"), "{json}");
    }
}
