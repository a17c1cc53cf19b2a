//! Critical-path extraction over a recorded [`DepGraph`].
//!
//! The walk starts at the last-finishing step and follows, backward in
//! time, the edge that *bounded* each instant: the step's own busy
//! window, the resource grant it queued behind, or the signal delivery
//! that woke it. A monotonically decreasing frontier guarantees every
//! picosecond between the path's start and the makespan end is
//! attributed to exactly one blame bucket, so the buckets sum to the
//! makespan *exactly* — an invariant the tests pin at integer precision.
//!
//! Blame taxonomy:
//! - **link-busy** — a resource was actively moving the critical bytes;
//! - **link-queue** — the critical transfer waited behind earlier
//!   traffic on the same resource (contention);
//! - **sync-wait** — a step was blocked on a semaphore/barrier/FIFO with
//!   no transfer in flight (scheduling or dependency gap);
//! - **proxy-overhead** — a proxy-thread step's fixed handling cost
//!   (FIFO pop, doorbell, completion post);
//! - **compute/copy** — kernel busy time: local reductions and copies.

use crate::Histogram;
use sim::{DepGraph, DepNode, Duration, HighlightSegment, Time, WakeCause};

/// Blame buckets for critical-path time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Blame {
    /// A link/DMA resource was busy moving the critical bytes.
    LinkBusy,
    /// The critical transfer queued behind earlier work on its resource.
    LinkQueue,
    /// Blocked on a signal/barrier/FIFO with nothing in flight.
    SyncWait,
    /// Fixed proxy-thread handling cost.
    ProxyOverhead,
    /// Kernel compute/copy busy time.
    ComputeCopy,
}

impl Blame {
    /// Stable lowercase name (matches the DESIGN.md taxonomy).
    pub fn name(self) -> &'static str {
        match self {
            Blame::LinkBusy => "link-busy",
            Blame::LinkQueue => "link-queue",
            Blame::SyncWait => "sync-wait",
            Blame::ProxyOverhead => "proxy-overhead",
            Blame::ComputeCopy => "compute/copy",
        }
    }
}

/// Per-bucket totals. [`BlameBreakdown::total`] equals the critical
/// path's elapsed time exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BlameBreakdown {
    /// Time a resource spent moving the critical bytes.
    pub link_busy: Duration,
    /// Time the critical transfer queued behind other traffic.
    pub link_queue: Duration,
    /// Time blocked on synchronization with nothing in flight.
    pub sync_wait: Duration,
    /// Fixed proxy handling cost on the path.
    pub proxy_overhead: Duration,
    /// Kernel compute/copy time on the path.
    pub compute_copy: Duration,
}

impl BlameBreakdown {
    /// Sum of all buckets; equals `end - start` of the report.
    pub fn total(&self) -> Duration {
        self.link_busy + self.link_queue + self.sync_wait + self.proxy_overhead + self.compute_copy
    }

    fn add(&mut self, bucket: Blame, d: Duration) {
        let slot = match bucket {
            Blame::LinkBusy => &mut self.link_busy,
            Blame::LinkQueue => &mut self.link_queue,
            Blame::SyncWait => &mut self.sync_wait,
            Blame::ProxyOverhead => &mut self.proxy_overhead,
            Blame::ComputeCopy => &mut self.compute_copy,
        };
        *slot += d;
    }
}

/// One attributed span of the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// The dependency-graph node the span ran through.
    pub node: u32,
    /// Span start.
    pub from: Time,
    /// Span end.
    pub to: Time,
    /// Which bucket the span charges.
    pub bucket: Blame,
    /// The resource charged, for `link-busy`/`link-queue` spans.
    pub resource: Option<usize>,
}

/// Result of a critical-path walk.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathReport {
    /// Where the path begins (first constrained instant).
    pub start: Time,
    /// The makespan end (last-finishing step's end).
    pub end: Time,
    /// The path, in increasing time order; segments tile
    /// `[start, end]` exactly (no gaps, no overlaps).
    pub path: Vec<PathSegment>,
    /// Per-bucket totals; `blame.total() == end - start`.
    pub blame: BlameBreakdown,
    /// Critical time charged to each resource (label, time on path),
    /// sorted descending — the head is the bottleneck.
    pub by_resource: Vec<(String, Duration)>,
    /// Per-rank slack: how much earlier each rank's last step finished
    /// than the makespan (label like `"rank3"`, slack). Zero slack marks
    /// the rank(s) that bound the run. Sorted ascending by slack.
    pub slack_per_rank: Vec<(String, Duration)>,
}

impl CriticalPathReport {
    /// Total elapsed time covered by the path.
    pub fn elapsed(&self) -> Duration {
        self.end - self.start
    }

    /// The path as highlight segments for
    /// [`sim::Trace::to_chrome_json`].
    pub fn highlight(&self, g: &DepGraph) -> Vec<HighlightSegment> {
        self.path
            .iter()
            .filter(|s| s.to > s.from)
            .map(|s| {
                let n = &g.nodes[s.node as usize];
                let what = match s.resource {
                    Some(r) if !g.resource_label(r).is_empty() => {
                        format!("{} [{}]", s.bucket.name(), g.resource_label(r))
                    }
                    _ => format!("{} [{}]", s.bucket.name(), g.label(n)),
                };
                HighlightSegment {
                    name: what,
                    from: s.from,
                    to: s.to,
                    proc_index: n.proc,
                }
            })
            .collect()
    }

    /// Renders the report as a compact human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let total = self.elapsed();
        let _ = writeln!(
            out,
            "critical path: {} -> {} ({total} total, {} segments)",
            self.start,
            self.end,
            self.path.len()
        );
        let pct = |d: Duration| {
            if total == Duration::ZERO {
                0.0
            } else {
                100.0 * d.as_ps() as f64 / total.as_ps() as f64
            }
        };
        for (name, d) in [
            ("link-busy", self.blame.link_busy),
            ("link-queue", self.blame.link_queue),
            ("sync-wait", self.blame.sync_wait),
            ("proxy-overhead", self.blame.proxy_overhead),
            ("compute/copy", self.blame.compute_copy),
        ] {
            let _ = writeln!(out, "  {name:<15} {d:>12} {:5.1}%", pct(d));
        }
        for (label, d) in self.by_resource.iter().take(5) {
            let _ = writeln!(out, "  on-path {label:<16} {d:>12} {:5.1}%", pct(*d));
        }
        out
    }
}

/// Default bucket for a node's own busy time, from its process label.
fn busy_bucket(g: &DepGraph, n: &DepNode) -> Blame {
    if g.label(n).starts_with("proxy") {
        Blame::ProxyOverhead
    } else {
        Blame::ComputeCopy
    }
}

/// Attribution sweep over one interval `[lo, hi]` of one node's
/// timeline. The node's recorded acquires partition the interval:
/// instants covered by a busy window `[start, done]` charge `link-busy`,
/// instants covered only by a queue window `[earliest, start]` charge
/// `link-queue`, and uncovered instants charge `rest`. Overlapping
/// acquires (e.g. egress+ingress double grants for one transfer) are
/// deduplicated by the sweep, so the pieces tile `[lo, hi]` exactly.
/// Accumulators threaded through the backward walk.
#[derive(Default)]
struct Acc {
    path: Vec<PathSegment>,
    blame: BlameBreakdown,
    by_resource: Vec<Duration>,
}

fn attribute(g: &DepGraph, node: u32, lo: Time, hi: Time, rest: Blame, acc: &mut Acc) {
    if hi <= lo {
        return;
    }
    let Acc {
        path: out,
        blame,
        by_resource,
    } = acc;
    let n = &g.nodes[node as usize];
    // Boundary sweep: collect every acquire edge clipped to [lo, hi].
    let mut cuts: Vec<u64> = vec![lo.as_ps(), hi.as_ps()];
    for a in &n.acquires {
        for t in [a.earliest, a.start, a.done] {
            if t > lo && t < hi {
                cuts.push(t.as_ps());
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    // Walk the elementary intervals from `hi` down to `lo`: the path is
    // assembled backward in time, so segments must be appended in
    // decreasing time order (one final reverse restores time order).
    for w in cuts.windows(2).rev() {
        let (wl, wh) = (Time::from_ps(w[0]), Time::from_ps(w[1]));
        let mid = w[0] + (w[1] - w[0]) / 2;
        // Highest-priority cover wins: busy > queue > rest.
        let mut bucket = rest;
        let mut resource = None;
        for a in &n.acquires {
            if a.start.as_ps() <= mid && mid < a.done.as_ps() {
                bucket = Blame::LinkBusy;
                resource = Some(a.resource);
                break;
            }
            if bucket != Blame::LinkQueue && a.earliest.as_ps() <= mid && mid < a.start.as_ps() {
                bucket = Blame::LinkQueue;
                resource = Some(a.resource);
            }
        }
        let d = wh - wl;
        blame.add(bucket, d);
        if let Some(r) = resource {
            if by_resource.len() <= r {
                by_resource.resize(r + 1, Duration::ZERO);
            }
            by_resource[r] += d;
        }
        // Merge with the previous segment when contiguous and identical.
        match out.last_mut() {
            Some(prev)
                if prev.node == node
                    && prev.bucket == bucket
                    && prev.resource == resource
                    && prev.from == wh =>
            {
                prev.from = wl;
            }
            _ => out.push(PathSegment {
                node,
                from: wl,
                to: wh,
                bucket,
                resource,
            }),
        }
    }
}

/// Walks the critical path of a recorded execution.
///
/// Returns `None` for an empty graph. The walk starts at
/// [`DepGraph::last_node`] and follows wake causes backward until it
/// reaches a root; `report.blame.total()` equals
/// `report.end - report.start` exactly.
pub fn critical_path(g: &DepGraph) -> Option<CriticalPathReport> {
    let last = g.last_node()?;
    let end = g.nodes[last as usize].end;
    let mut acc = Acc::default();

    let mut cur = last;
    let mut frontier = end;
    let start = loop {
        let n = &g.nodes[cur as usize];
        // Gap past the node's busy end (e.g. a timeout wake scheduled
        // after it): pure wait.
        if frontier > n.end {
            attribute(g, cur, n.end, frontier, Blame::SyncWait, &mut acc);
            frontier = n.end;
        }
        // The node's own busy window up to the frontier.
        if frontier > n.begin {
            attribute(g, cur, n.begin, frontier, busy_bucket(g, n), &mut acc);
            frontier = n.begin;
        }
        match n.cause {
            WakeCause::Root => break frontier,
            WakeCause::Seq => match n.prev {
                Some(p) => cur = p,
                None => break frontier,
            },
            WakeCause::SpawnedBy { node } => cur = node,
            WakeCause::Signal { issue } => {
                // The delivery window [issue, wake]: the producer's
                // transfers cover it with busy/queue time; the rest is
                // synchronization latency.
                let iss = g.issues[issue as usize];
                if frontier > iss.at {
                    attribute(g, iss.node, iss.at, frontier, Blame::SyncWait, &mut acc);
                    frontier = iss.at;
                }
                cur = iss.node;
            }
        }
    };

    let Acc {
        mut path,
        blame,
        by_resource,
    } = acc;
    path.reverse();
    debug_assert_eq!(blame.total(), end - start, "blame must tile the path");

    let mut by_resource: Vec<(String, Duration)> = by_resource
        .iter()
        .enumerate()
        .filter(|(_, d)| **d > Duration::ZERO)
        .map(|(r, d)| (g.resource_label(r).to_owned(), *d))
        .collect();
    by_resource.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    Some(CriticalPathReport {
        start,
        end,
        path,
        blame,
        by_resource,
        slack_per_rank: slack_per_rank(g, end),
    })
}

/// Per-rank slack: makespan end minus the rank's own last finish.
fn slack_per_rank(g: &DepGraph, end: Time) -> Vec<(String, Duration)> {
    let mut finish: std::collections::BTreeMap<String, Time> = Default::default();
    for n in &g.nodes {
        let Some(rank) = rank_of(g.label(n)) else {
            continue;
        };
        let e = finish.entry(rank).or_insert(Time::ZERO);
        *e = (*e).max(n.end);
    }
    let mut out: Vec<(String, Duration)> = finish
        .into_iter()
        .map(|(rank, t)| (rank, end - t))
        .collect();
    out.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Extracts the `"rank{N}"` token from a process label, if present.
fn rank_of(label: &str) -> Option<String> {
    let i = label.find("rank")?;
    let rest = &label[i..];
    let end = rest[4..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(rest.len(), |j| j + 4);
    if end == 4 {
        return None;
    }
    Some(rest[..end].to_owned())
}

/// Synthesizes per-resource occupancy counter samples from a recorded
/// graph, as `(time, resource, depth)` triples in time order — the
/// number of grants in flight on each resource over time. Feed these
/// into a trace as counter events, or use
/// [`occupancy_histogram`] for a distribution summary.
pub fn occupancy(g: &DepGraph) -> Vec<(Time, usize, u64)> {
    let mut edges: Vec<(Time, usize, i64)> = Vec::new();
    for n in &g.nodes {
        for a in &n.acquires {
            if a.done > a.start {
                edges.push((a.start, a.resource, 1));
                edges.push((a.done, a.resource, -1));
            }
        }
    }
    edges.sort_by_key(|&(t, r, delta)| (t, r, delta));
    let mut depth: std::collections::BTreeMap<usize, i64> = Default::default();
    let mut out = Vec::with_capacity(edges.len());
    for (t, r, delta) in edges {
        let d = depth.entry(r).or_insert(0);
        *d += delta;
        out.push((t, r, u64::try_from(*d).unwrap_or(0)));
    }
    out
}

/// Histogram of per-acquire queueing delay (ns) across the whole graph —
/// a distribution view of link contention.
pub fn queue_delay_histogram(g: &DepGraph) -> Histogram {
    let mut h = Histogram::new();
    for n in &g.nodes {
        for a in &n.acquires {
            h.record((a.start - a.earliest).as_ns() as u64);
        }
    }
    h
}

/// Histogram of resource occupancy samples (grants in flight) — see
/// [`occupancy`].
pub fn occupancy_histogram(g: &DepGraph) -> Histogram {
    let mut h = Histogram::new();
    for (_, _, d) in occupancy(g) {
        h.record(d);
    }
    h
}
