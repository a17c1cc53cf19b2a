//! Turns op records and spans into the benchmark's metrics and tables.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hw::EnvKind;
use inference::rtrace::Phase;

use crate::stats::{self, Digest};
use crate::trace::{self, Span};
use crate::workload::{fig_sweep_points, Coll, OpRecord, Point, Stack, Workload};

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Layers in trace-track order; `bench` is the benchmark itself.
pub const LAYERS: [&str; 8] = [
    "bench",
    "inference",
    "collective",
    "commverify",
    "mscclpp",
    "ncclsim",
    "msccl",
    "hw",
];

/// The end-to-end metrics, from the untraced ops of a run (whole rounds
/// of `round_len` ops, in order).
pub fn end_to_end(ops: &[&OpRecord], round_len: usize) -> Vec<Metric> {
    let op_ms: Vec<f64> = ops.iter().map(|r| r.host_ns as f64 / 1e6).collect();
    let heap_mb: Vec<f64> = ops.iter().map(|r| r.heap_bytes as f64 / 1e6).collect();
    let setup_s: Vec<f64> = ops
        .chunks(round_len)
        .map(|round| round.iter().map(|r| r.setup_ns).sum::<u64>() as f64 / 1e9)
        .collect();
    let busy_s = ops.iter().map(|r| r.host_ns).sum::<u64>() as f64 / 1e9;
    vec![
        metric("setup_s", stats::median(&setup_s), "s"),
        metric("host_op_ms_p50", stats::percentile(&op_ms, 50.0), "ms"),
        metric("host_op_ms_p90", stats::percentile(&op_ms, 90.0), "ms"),
        metric("host_ops_per_s", ops.len() as f64 / busy_s, "1/s"),
        metric("host_heap_mb_p50", stats::median(&heap_mb), "MB"),
    ]
}

fn total(ops: &[&OpRecord], f: impl Fn(&OpRecord) -> u64) -> f64 {
    ops.iter().map(|r| f(r)).sum::<u64>() as f64
}

fn p50_op_ns(ops: &[&OpRecord]) -> f64 {
    stats::median(&ops.iter().map(|r| r.host_ns as f64).collect::<Vec<_>>())
}

/// Self nanoseconds per `(layer, call)`: (spans, self ns).
fn self_by_call(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), (u64, u64)> {
    let own = trace::self_times(spans);
    let mut rows: BTreeMap<_, (u64, u64)> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(&own) {
        let row = rows.entry((s.layer, s.name)).or_default();
        row.0 += 1;
        row.1 += ns;
    }
    rows
}

fn layer_self_ns(rows: &BTreeMap<(&str, &str), (u64, u64)>, layer: &str) -> f64 {
    rows.iter()
        .filter(|((l, _), _)| *l == layer)
        .map(|(_, &(_, ns))| ns)
        .sum::<u64>() as f64
}

/// The per-layer metrics every workload measures, per traced op.
/// `untraced` gives the baseline of the tracing overhead.
pub fn per_layer(traced: &[&OpRecord], untraced: &[&OpRecord], spans: &[Span]) -> Vec<Metric> {
    let n = traced.len() as f64;
    let rows = self_by_call(spans);
    let busy_s = total(traced, |r| r.host_ns) / 1e9;
    let events = total(traced, |r| r.counters.events);
    let moved = total(traced, |r| r.counters.moved_bytes);
    let call_us: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.coll.call_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    let base = p50_op_ns(untraced);
    vec![
        metric(
            "bench.fill_ms",
            total(traced, |r| r.fill_ns) / n / 1e6,
            "ms",
        ),
        metric(
            "bench.check_ms",
            total(traced, |r| r.check_ns) / n / 1e6,
            "ms",
        ),
        metric(
            "bench.trace_overhead_pct",
            (p50_op_ns(traced) - base) / base * 100.0,
            "%",
        ),
        metric(
            "collective.calls",
            total(traced, |r| r.coll.calls) / n,
            "count",
        ),
        metric(
            "collective.host_ms",
            layer_self_ns(&rows, "collective") / n / 1e6,
            "ms",
        ),
        metric(
            "collective.call_us_p50",
            stats::percentile(&call_us, 50.0),
            "us",
        ),
        metric(
            "collective.call_us_p90",
            stats::percentile(&call_us, 90.0),
            "us",
        ),
        metric(
            "collective.shape_changes",
            total(traced, |r| r.coll.shape_changes) / n,
            "count",
        ),
        metric(
            "mscclpp.puts",
            total(traced, |r| r.counters.puts) / n,
            "count",
        ),
        metric(
            "mscclpp.sync_waits",
            total(traced, |r| r.counters.sync_waits) / n,
            "count",
        ),
        metric(
            "mscclpp.sync_signals",
            total(traced, |r| r.counters.sync_signals) / n,
            "count",
        ),
        metric("sim.events", events / n, "count"),
        metric("sim.events_per_host_s", events / busy_s, "1/s"),
        metric("hw.moved_mb", moved / n / 1e6, "MB"),
        metric("hw.moved_gb_per_host_s", moved / 1e9 / busy_s, "GB/s"),
    ]
}

/// The traced run's layer table: self time of every `(layer, call)` the
/// benchmark timed, per traced op and as a share of op time (fills and
/// checks are outside op time), then each layer's total and the counts
/// that only some workloads have.
pub fn layer_table(traced: &[&OpRecord], spans: &[Span]) -> String {
    let n = traced.len() as f64;
    let op_ns = total(traced, |r| r.host_ns);
    let rows = self_by_call(spans);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# per-layer self time over {} traced ops ({:.3} ms/op)",
        traced.len(),
        op_ns / n / 1e6
    );
    let _ = writeln!(
        out,
        "# {:<40} {:>10} {:>12} {:>8}",
        "layer/call", "calls/op", "self ms/op", "% op"
    );
    for layer in LAYERS {
        for ((l, name), &(calls, ns)) in rows.iter().filter(|((l, _), _)| *l == layer) {
            let _ = writeln!(
                out,
                "# {:<40} {:>10.2} {:>12.4} {:>8.2}",
                format!("{l}/{name}"),
                calls as f64 / n,
                ns as f64 / n / 1e6,
                ns as f64 / op_ns * 100.0
            );
        }
    }
    // Fills and checks lie outside op time, so a layer's total leaves them
    // out: `bench.self_ms` is the harness glue inside an op.
    for layer in LAYERS {
        let ns = rows
            .iter()
            .filter(|((l, name), _)| *l == layer && !matches!(*name, "fill" | "check"))
            .map(|(_, &(_, ns))| ns)
            .sum::<u64>() as f64;
        if ns > 0.0 {
            let _ = writeln!(
                out,
                "# {:<40} {:>10} {:>12.4} {:>8.2}",
                format!("{layer}.self_ms"),
                "",
                ns / n / 1e6,
                ns / op_ns * 100.0
            );
        }
    }
    let verify_ns = rows
        .get(&("commverify", "verify_collective"))
        .map_or(0, |&(_, ns)| ns);
    let instrs = total(traced, |r| r.coll.instrs);
    let turned_away: usize = traced
        .iter()
        .filter_map(|r| r.virt.serve.as_ref())
        .map(|s| s.turned_away)
        .sum();
    let counts = [
        (
            "collective.msg_mb",
            total(traced, |r| r.coll.bytes) / n / 1e6,
        ),
        ("commverify.instrs", instrs / n),
        (
            "commverify.ns_per_instr",
            if instrs > 0.0 {
                verify_ns as f64 / instrs
            } else {
                0.0
            },
        ),
        (
            "ncclsim.tuning_runs",
            rows.get(&("ncclsim", "NcclComm::new"))
                .map_or(0.0, |&(c, _)| c as f64 / n),
        ),
        (
            "inference.prefill_tokens",
            total(traced, |r| r.counters.prefill_tokens) / n,
        ),
        ("inference.turned_away", turned_away as f64 / n),
        (
            "sim.clamped_past_events",
            total(traced, |r| r.counters.clamped),
        ),
    ];
    for (name, value) in counts {
        let _ = writeln!(out, "# {name:<40} {value:>10.3}");
    }
    out
}

/// The paper's 1n8g 1 KB AllReduce latencies on A100 (µs): NCCL, MSCCL,
/// MSCCL++. The model is calibrated against this point.
const ANCHOR_US: [(Stack, f64); 3] = [
    (Stack::Nccl, 21.0),
    (Stack::Msccl, 9.5),
    (Stack::Mscclpp, 5.0),
];

/// The digest of the workload's virtual ops and its virtual metrics.
///
/// # Errors
///
/// Names the first virtual op that failed (its outputs are unknown).
pub fn virtual_summary(w: Workload, records: &[OpRecord]) -> Result<(u64, Vec<Metric>), String> {
    let ops = &records[..w.virtual_ops().min(records.len())];
    if let Some(r) = ops.iter().find(|r| r.error.is_some()) {
        return Err(format!("op {} failed", r.index));
    }
    let mut digest = Digest::default();
    for r in ops {
        digest.u64(r.virt.digest);
    }
    let mscclpp_us: Vec<f64> = ops
        .iter()
        .flat_map(|r| r.virt.mscclpp_us.iter().copied())
        .collect();
    let mut out = vec![metric(
        "virt_mscclpp_us_geomean",
        stats::geomean(&mscclpp_us),
        "us",
    )];
    match w {
        Workload::ServeOverload => out.extend(serve_metrics(ops)),
        Workload::FigSweep => {
            let points: Vec<(Point, f64)> = fig_sweep_points()
                .into_iter()
                .zip(ops.iter().filter_map(|r| r.virt.point_us))
                .collect();
            out.extend(sweep_metrics(&points));
        }
        Workload::FirstLaunch => {}
    }
    Ok((digest.value(), out))
}

fn serve_metrics(ops: &[OpRecord]) -> Vec<Metric> {
    let serves: Vec<_> = ops.iter().filter_map(|r| r.virt.serve.as_ref()).collect();
    let slo_met = serves.iter().map(|s| s.slo_met).sum::<usize>() as f64;
    let offered = serves.iter().map(|s| s.offered).sum::<usize>() as f64;
    let virt_s = serves.iter().map(|s| s.makespan_us).sum::<f64>() / 1e6;
    let timelines = serves.iter().map(|s| s.timelines).sum::<usize>() as f64;
    let ttft_ms: Vec<f64> = serves
        .iter()
        .flat_map(|s| s.ttft_us.iter().map(|us| us / 1e3))
        .collect();
    let mut out = vec![
        metric("virt_goodput_rps", slo_met / virt_s, "1/s"),
        metric("virt_ttft_p99_ms", stats::percentile(&ttft_ms, 99.0), "ms"),
        metric("virt_slo_met_frac", slo_met / offered, "fraction"),
    ];
    for phase in Phase::ALL {
        let ps: u64 = serves.iter().map(|s| s.blame_ps[phase.index()]).sum();
        out.push(metric(
            format!("virt.blame.{}_ms", phase.name()),
            ps as f64 / timelines / 1e9,
            "ms",
        ));
    }
    out
}

fn sweep_metrics(points: &[(Point, f64)]) -> Vec<Metric> {
    let find = |p: Point, stack: Stack| {
        points
            .iter()
            .find(|(q, _)| *q == Point { stack, ..p })
            .map(|&(_, us)| us)
    };
    let pairs = |base: Stack| -> Vec<(f64, f64)> {
        points
            .iter()
            .filter(|(p, _)| p.stack == Stack::Mscclpp)
            .filter_map(|&(p, us)| find(p, base).map(|b| (b, us)))
            .collect()
    };
    let anchor = Point {
        env: EnvKind::A100_40G,
        nodes: 1,
        stack: Stack::Mscclpp,
        coll: Coll::AllReduce,
        bytes: 1 << 10,
    };
    let err: f64 = ANCHOR_US
        .iter()
        .map(|&(stack, paper)| {
            find(anchor, stack).map_or(f64::NAN, |us| (us - paper).abs() / paper)
        })
        .sum::<f64>()
        / ANCHOR_US.len() as f64;
    vec![
        metric(
            "virt_speedup_vs_nccl",
            stats::paired_speedup(&pairs(Stack::Nccl)),
            "x",
        ),
        metric(
            "virt_speedup_vs_msccl",
            stats::paired_speedup(&pairs(Stack::Msccl)),
            "x",
        ),
        metric("virt_anchor_err_pct", err * 100.0, "%"),
    ]
}

/// The virtual line: the digest and the virtual metrics.
pub fn virtual_json(digest: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"virt_digest\": \"{digest:016x}\", \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the benchmark prints last.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            false,
            3,
            1,
            &[
                metric("setup_s", 0.25, "s"),
                metric("host_op_ms_p50", 1.5, "ms"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"host_op_ms_p50\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn setup_is_the_median_round_and_percentiles_are_per_op() {
        let ops: Vec<OpRecord> = (0..6u64)
            .map(|i| OpRecord {
                index: i as usize,
                host_ns: (i + 1) * 1_000_000,
                setup_ns: [1, 2, 30, 40, 5, 6][i as usize] * 1_000_000_000,
                heap_bytes: [1, 9, 2, 3, 1, 5][i as usize] * 1_000_000,
                ..OpRecord::default()
            })
            .collect();
        let refs: Vec<&OpRecord> = ops.iter().collect();
        let m = end_to_end(&refs, 2);
        // Rounds sum to 3, 70 and 11 s; the median is 11 s.
        assert_eq!(m[0], metric("setup_s", 11.0, "s"));
        assert_eq!(m[1].value, 3.0);
        assert_eq!(m[2].value, 6.0);
        assert!((m[3].value - 6.0 / 0.021).abs() < 1e-9);
        assert_eq!(m[4], metric("host_heap_mb_p50", 2.0, "MB"));
    }
}
