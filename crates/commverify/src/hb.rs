//! Happens-before graph construction and the checks that run over it.
//!
//! Nodes are the extracted events; edges are (a) program order within a
//! thread, (b) FIFO push → proxy processing, (c) signal → wait matching
//! under the counted-wait rule, and (d) barrier arrive → exit across all
//! parties. Cycle detection yields static deadlocks; a vector-clock pass
//! over the acyclic graph yields reachability for the race check.

use std::collections::{HashMap, HashSet};

use hw::MemoryPool;
use mscclpp::Site;
use sim::{CellId, VClock};

use crate::error::{Checks, VerifyError};
use crate::model::{Kind, Model};
use crate::semantics::{self, CollectiveSpec};

/// Runs every check `checks` selects over an extracted model, and the
/// semantic pass when a spec is supplied.
pub(crate) fn analyze(
    model: &Model<'_>,
    pool: &MemoryPool,
    checks: &Checks,
    spec: Option<&CollectiveSpec>,
) -> Vec<VerifyError> {
    let mut findings = Vec::new();
    let graph = Graph::build(model, &mut findings);
    check_bounds(model, pool, &mut findings);

    match graph.topo_order() {
        Ok(order) => {
            check_races(model, &graph, &order, &mut findings);
            // The provenance pass replays one linearization; that final
            // state only speaks for *every* linearization when
            // conflicting accesses are ordered, so a racy plan skips
            // straight to its Race findings.
            let racy = findings
                .iter()
                .any(|f| matches!(f, VerifyError::Race { .. }));
            if let (Some(spec), false) = (spec, racy) {
                let located: Vec<(usize, usize)> =
                    order.iter().map(|&id| graph.locate(id)).collect();
                semantics::check(model, &located, spec, &mut findings);
            }
        }
        Err(cycle) => findings.push(VerifyError::DeadlockCycle {
            path: cycle.iter().map(|&id| graph.site(model, id)).collect(),
        }),
    }

    if checks.orphan_signals {
        check_orphans(model, &mut findings);
    }
    for &site in &model.unflushed {
        findings.push(VerifyError::UnflushedPortPut { site });
    }
    findings
}

/// The happens-before graph over globally-numbered events.
struct Graph {
    /// Event id of `(thread, 0)`; `offsets[threads.len()]` = total.
    offsets: Vec<usize>,
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
}

impl Graph {
    fn id(&self, thread: usize, idx: usize) -> usize {
        self.offsets[thread] + idx
    }

    fn locate(&self, id: usize) -> (usize, usize) {
        let t = self.offsets.partition_point(|&o| o <= id) - 1;
        (t, id - self.offsets[t])
    }

    fn site(&self, model: &Model<'_>, id: usize) -> Site {
        let (t, i) = self.locate(id);
        model.threads[t].events[i].site
    }

    fn total(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    fn edge(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        self.succs[from].push(to);
        self.preds[to].push(from);
    }

    /// Builds every edge class; imbalance findings fall out of wait
    /// matching and are appended to `findings` directly.
    fn build(model: &Model<'_>, findings: &mut Vec<VerifyError>) -> Graph {
        let mut offsets = Vec::with_capacity(model.threads.len() + 1);
        let mut total = 0;
        for t in &model.threads {
            offsets.push(total);
            total += t.events.len();
        }
        offsets.push(total);
        let mut g = Graph {
            offsets,
            succs: vec![Vec::new(); total],
            preds: vec![Vec::new(); total],
        };

        // (a) Program order.
        for (t, th) in model.threads.iter().enumerate() {
            for i in 1..th.events.len() {
                let a = g.id(t, i - 1);
                let b = g.id(t, i);
                g.edge(a, b);
            }
        }
        // (b) Push → proxy.
        for &((ft, fi), (tt, ti)) in &model.extra_edges {
            let a = g.id(ft, fi);
            let b = g.id(tt, ti);
            g.edge(a, b);
        }

        // Incrementers per cell, grouped by thread in program order.
        let mut incs: HashMap<CellId, HashMap<usize, Vec<usize>>> = HashMap::new();
        for (t, th) in model.threads.iter().enumerate() {
            for (i, ev) in th.events.iter().enumerate() {
                for cell in ev.incs() {
                    incs.entry(cell)
                        .or_default()
                        .entry(t)
                        .or_default()
                        .push(g.id(t, i));
                }
            }
        }

        // (c) Counted waits. A wait needing n increments of cell c, where
        // thread u contributes m_u of the M total: if n > M the wait
        // starves (imbalance); otherwise thread u's o-th increment with
        // o = n - (M - m_u) must happen before the wait whenever o >= 1,
        // because even if every *other* thread delivers all of its
        // increments first, the threshold still needs u's o-th.
        for (t, th) in model.threads.iter().enumerate() {
            for (i, ev) in th.events.iter().enumerate() {
                let Some(w) = ev.wait else { continue };
                let empty = HashMap::new();
                let per_thread = incs.get(&w.cell).unwrap_or(&empty);
                let total_incs: u64 = per_thread.values().map(|v| v.len() as u64).sum();
                if w.needed > total_incs {
                    findings.push(VerifyError::SignalWaitImbalance {
                        wait: ev.site,
                        cell: model.cell_name(w.cell),
                        needed: w.needed,
                        available: total_incs,
                    });
                    continue;
                }
                let wait_id = g.id(t, i);
                for events in per_thread.values() {
                    let m_u = events.len() as u64;
                    let o = (w.needed + m_u).saturating_sub(total_incs);
                    if o >= 1 {
                        g.edge(events[(o - 1) as usize], wait_id);
                    }
                }
            }
        }

        // (d) Barriers: collect per-cell arrive/exit sequences per thread.
        let mut arrives: HashMap<CellId, HashMap<usize, Vec<usize>>> = HashMap::new();
        let mut exits: HashMap<CellId, HashMap<usize, Vec<usize>>> = HashMap::new();
        for (t, th) in model.threads.iter().enumerate() {
            for (i, ev) in th.events.iter().enumerate() {
                match ev.kind {
                    Kind::BarrierArrive(c) => arrives
                        .entry(c)
                        .or_default()
                        .entry(t)
                        .or_default()
                        .push(g.id(t, i)),
                    Kind::BarrierExit(c) => exits
                        .entry(c)
                        .or_default()
                        .entry(t)
                        .or_default()
                        .push(g.id(t, i)),
                    _ => {}
                }
            }
        }
        for (cell, per_thread) in &arrives {
            let parties = *model.barriers.get(cell).unwrap_or(&0);
            let rounds: HashSet<usize> = per_thread.values().map(Vec::len).collect();
            if per_thread.len() != parties || rounds.len() != 1 {
                let first = per_thread
                    .values()
                    .filter_map(|v| v.first())
                    .min()
                    .copied()
                    .unwrap_or(0);
                findings.push(VerifyError::SignalWaitImbalance {
                    wait: g.site(model, first),
                    cell: model.cell_name(*cell),
                    needed: parties as u64,
                    available: per_thread.len() as u64,
                });
                continue;
            }
            // Round k exits only once every party's round-k arrival has
            // landed (the threshold is k * parties, and rounds alternate
            // strictly), so each round is a full cross-product.
            let nrounds = rounds.into_iter().next().unwrap_or(0);
            let empty = HashMap::new();
            let ex = exits.get(cell).unwrap_or(&empty);
            for r in 0..nrounds {
                for av in per_thread.values() {
                    for ev in ex.values() {
                        if let (Some(&a), Some(&e)) = (av.get(r), ev.get(r)) {
                            g.edge(a, e);
                        }
                    }
                }
            }
        }
        g
    }

    /// Kahn's algorithm; `Err` carries one happens-before cycle.
    fn topo_order(&self) -> Result<Vec<usize>, Vec<usize>> {
        let total = self.total();
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut order = Vec::with_capacity(total);
        let mut ready: Vec<usize> = (0..total).filter(|&i| indeg[i] == 0).collect();
        while let Some(id) = ready.pop() {
            order.push(id);
            for &s in &self.succs[id] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        if order.len() == total {
            return Ok(order);
        }
        // Every unresolved node keeps an unresolved predecessor; walking
        // predecessors inside that set must revisit a node, closing a
        // cycle.
        let stuck: HashSet<usize> = (0..total).filter(|&i| indeg[i] > 0).collect();
        let start = *stuck.iter().min().expect("cycle is non-empty");
        let mut seen: HashMap<usize, usize> = HashMap::new();
        let mut path = vec![start];
        let mut cur = start;
        loop {
            if let Some(&at) = seen.get(&cur) {
                let mut cycle: Vec<usize> = path[at..].to_vec();
                // The walk followed predecessors, so reverse into
                // happens-before order.
                cycle.pop();
                cycle.reverse();
                return Err(cycle);
            }
            seen.insert(cur, path.len() - 1);
            let next = self.preds[cur]
                .iter()
                .copied()
                .find(|p| stuck.contains(p))
                .expect("stuck node has a stuck predecessor");
            path.push(next);
            cur = next;
        }
    }
}

fn check_bounds(model: &Model<'_>, pool: &MemoryPool, findings: &mut Vec<VerifyError>) {
    let mut seen = HashSet::new();
    for th in &model.threads {
        for ev in &th.events {
            for a in ev.accesses() {
                let len = pool.len(a.buf);
                if a.end > len && seen.insert((ev.site, a.buf, a.start, a.end)) {
                    findings.push(VerifyError::OutOfBounds {
                        site: ev.site,
                        buf: a.buf,
                        range: (a.start, a.end),
                        len,
                    });
                }
            }
        }
    }
}

fn check_orphans(model: &Model<'_>, findings: &mut Vec<VerifyError>) {
    let waited: HashSet<CellId> = model
        .threads
        .iter()
        .flat_map(|t| t.events.iter())
        .filter_map(|e| e.wait.map(|w| w.cell))
        .collect();
    for th in &model.threads {
        for ev in &th.events {
            if let Kind::Signal(cell) = ev.kind {
                if !waited.contains(&cell) {
                    findings.push(VerifyError::OrphanSignal {
                        site: ev.site,
                        cell: model.cell_name(cell),
                    });
                }
            }
        }
    }
}

fn check_races(model: &Model<'_>, g: &Graph, order: &[usize], findings: &mut Vec<VerifyError>) {
    // Vector clock per event, own component = index-in-thread + 1:
    // event (u, i) happens before (v, j) iff clock[(v, j)][u] >= i + 1.
    let mut clocks: Vec<VClock> = vec![VClock::new(); g.total()];
    for &id in order {
        let (t, i) = g.locate(id);
        let mut c = VClock::new();
        for &p in &g.preds[id] {
            c.join(&clocks[p]);
        }
        c.set(t, (i + 1) as u64);
        clocks[id] = c;
    }

    struct Rec {
        id: usize,
        thread: usize,
        idx: usize,
        start: usize,
        end: usize,
        write: bool,
    }
    let mut by_buf: HashMap<hw::BufferId, Vec<Rec>> = HashMap::new();
    for (t, th) in model.threads.iter().enumerate() {
        for (i, ev) in th.events.iter().enumerate() {
            for a in ev.accesses() {
                by_buf.entry(a.buf).or_default().push(Rec {
                    id: g.id(t, i),
                    thread: t,
                    idx: i,
                    start: a.start,
                    end: a.end,
                    write: a.write,
                });
            }
        }
    }

    let site = |r: &Rec| model.threads[r.thread].events[r.idx].site;
    let mut reported = HashSet::new();
    for (buf, recs) in &by_buf {
        for (n, a) in recs.iter().enumerate() {
            for b in &recs[n + 1..] {
                if a.thread == b.thread
                    || (!a.write && !b.write)
                    || a.end <= b.start
                    || b.end <= a.start
                {
                    continue;
                }
                let a_before_b = clocks[b.id].get(a.thread) >= (a.idx + 1) as u64;
                let b_before_a = clocks[a.id].get(b.thread) >= (b.idx + 1) as u64;
                if a_before_b || b_before_a {
                    continue;
                }
                let (x, y) = if site(a) <= site(b) { (a, b) } else { (b, a) };
                if reported.insert((site(x), site(y), *buf)) {
                    findings.push(VerifyError::Race {
                        first: site(x),
                        first_range: (x.start, x.end),
                        first_write: x.write,
                        second: site(y),
                        second_range: (y.start, y.end),
                        second_write: y.write,
                        buf: *buf,
                    });
                }
            }
        }
    }
}
