//! Happens-before graph construction and the checks that run over it.
//!
//! Nodes are the extracted events; edges are (a) program order within a
//! thread, (b) FIFO push → proxy processing, (c) signal → wait matching
//! under the counted-wait rule, and (d) barrier arrive → exit across all
//! parties. Cycle detection yields static deadlocks. Over the acyclic
//! graph, sparse clocks kept per synchronization epoch
//! ([`EpochClocks`]) answer reachability for the race check.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use hw::MemoryPool;
use mscclpp::Site;
use sim::CellId;

use crate::error::{Checks, VerifyError};
use crate::model::{Event, Kind, Model};
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

        let incs = cell_table(model, &g, |ev| ev.incs());

        // (c) Counted waits. A wait needing n increments of cell c, where
        // thread u contributes m_u of the M total: if n > M the wait
        // starves (imbalance); otherwise thread u's o-th increment with
        // o = n - (M - m_u) must happen before the wait whenever o >= 1,
        // because even if every *other* thread delivers all of its
        // increments first, the threshold still needs u's o-th.
        for (t, th) in model.threads.iter().enumerate() {
            for (i, ev) in th.events.iter().enumerate() {
                let Some(w) = ev.wait else { continue };
                let run = cell_run(&incs, w.cell);
                let total_incs = run.len() as u64;
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
                for events in run.chunk_by(|a, b| a.1 == b.1) {
                    let m_u = events.len() as u64;
                    let o = (w.needed + m_u).saturating_sub(total_incs);
                    if o >= 1 {
                        g.edge(events[(o - 1) as usize].2, wait_id);
                    }
                }
            }
        }

        // (d) Barriers: per-cell arrive/exit sequences per thread.
        let arrives = cell_table(model, &g, |ev| match ev.kind {
            Kind::BarrierArrive(c) => Some(c),
            _ => None,
        });
        let exits = cell_table(model, &g, |ev| match ev.kind {
            Kind::BarrierExit(c) => Some(c),
            _ => None,
        });
        for run in arrives.chunk_by(|a, b| a.0 == b.0) {
            let cell = run[0].0;
            let parties = *model.barriers.get(&cell).unwrap_or(&0);
            let per_thread: Vec<_> = run.chunk_by(|a, b| a.1 == b.1).collect();
            let rounds: HashSet<usize> = per_thread.iter().map(|v| v.len()).collect();
            if per_thread.len() != parties || rounds.len() != 1 {
                findings.push(VerifyError::SignalWaitImbalance {
                    wait: g.site(model, run[0].2),
                    cell: model.cell_name(cell),
                    needed: parties as u64,
                    available: per_thread.len() as u64,
                });
                continue;
            }
            // Round k exits only once every party's round-k arrival has
            // landed (the threshold is k * parties, and rounds alternate
            // strictly), so each round is a full cross-product.
            let nrounds = rounds.into_iter().next().unwrap_or(0);
            let ex: Vec<_> = cell_run(&exits, cell).chunk_by(|a, b| a.1 == b.1).collect();
            for r in 0..nrounds {
                for av in &per_thread {
                    for ev in &ex {
                        if let (Some(a), Some(e)) = (av.get(r), ev.get(r)) {
                            g.edge(a.2, e.2);
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

/// `(cell, thread, event id)` for each cell `cells` lists per event,
/// sorted: a cell's run groups its threads in thread order, each in
/// program order, so that edges, and with them the path a cycle is
/// reported along, do not depend on hash seeds.
fn cell_table<'k, I: IntoIterator<Item = CellId>>(
    model: &Model<'k>,
    g: &Graph,
    cells: impl Fn(&Event<'k>) -> I,
) -> Vec<(CellId, usize, usize)> {
    let mut table = Vec::new();
    for (t, th) in model.threads.iter().enumerate() {
        for (i, ev) in th.events.iter().enumerate() {
            table.extend(cells(ev).into_iter().map(|c| (c, t, g.id(t, i))));
        }
    }
    table.sort_unstable();
    table
}

/// `cell`'s run of a [`cell_table`].
fn cell_run(table: &[(CellId, usize, usize)], cell: CellId) -> &[(CellId, usize, usize)] {
    &table[table.partition_point(|e| e.0 < cell)..table.partition_point(|e| e.0 <= cell)]
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

/// Cross-thread reachability over the acyclic graph, from one sparse
/// clock per synchronization epoch.
///
/// An epoch starts at every event with a predecessor other than its
/// program-order one, or with none. The later events of its run learn
/// nothing new about other threads, so they share its clock. That clock
/// joins, over the first event's predecessors `p`, `p`'s clock and `p`'s
/// own component `(thread, index + 1)`, and lists its non-zero
/// `(thread, count)` components in thread order. It is exact on every
/// thread but the epoch's own, which no query reads: event `(u, i)`
/// happens before an event of another thread iff that event's clock maps
/// `u` to at least `i + 1`.
struct EpochClocks {
    /// Each event's epoch, by event id.
    epoch: Vec<usize>,
    /// Epoch `k`'s clock is `comps[ends[k]..ends[k + 1]]`.
    ends: Vec<usize>,
    comps: Vec<(u32, u32)>,
}

/// Writes the componentwise maximum of two clocks to `out`.
fn join(out: &mut Vec<(u32, u32)>, a: &[(u32, u32)], b: &[(u32, u32)]) {
    let (mut i, mut j) = (0, 0);
    while let (Some(&(u, c)), Some(&(v, d))) = (a.get(i), b.get(j)) {
        match u.cmp(&v) {
            Ordering::Less => {
                out.push((u, c));
                i += 1;
            }
            Ordering::Greater => {
                out.push((v, d));
                j += 1;
            }
            Ordering::Equal => {
                out.push((u, c.max(d)));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Raises `clock`'s component for `thread` to at least `count`.
fn raise(clock: &mut Vec<(u32, u32)>, thread: u32, count: u32) {
    match clock.binary_search_by_key(&thread, |&(u, _)| u) {
        Ok(k) => clock[k].1 = clock[k].1.max(count),
        Err(k) => clock.insert(k, (thread, count)),
    }
}

/// A thread index or event count as a clock stores it.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("a plan has fewer than 2^32 threads and events per thread")
}

impl EpochClocks {
    /// Builds every epoch's clock, visiting events in topological `order`.
    fn build(g: &Graph, order: &[usize]) -> EpochClocks {
        let mut clocks = EpochClocks {
            epoch: vec![0; g.total()],
            ends: vec![0],
            comps: Vec::new(),
        };
        // The join so far, and the buffer its next step writes.
        let (mut acc, mut next) = (Vec::new(), Vec::new());
        for &id in order {
            let (_, i) = g.locate(id);
            if i > 0 && g.preds[id].iter().all(|&p| p == id - 1) {
                clocks.epoch[id] = clocks.epoch[id - 1];
                continue;
            }
            acc.clear();
            for &p in &g.preds[id] {
                let (u, j) = g.locate(p);
                next.clear();
                join(&mut next, &acc, clocks.clock(p));
                raise(&mut next, narrow(u), narrow(j + 1));
                std::mem::swap(&mut acc, &mut next);
            }
            clocks.epoch[id] = clocks.ends.len() - 1;
            clocks.comps.extend_from_slice(&acc);
            clocks.ends.push(clocks.comps.len());
        }
        clocks
    }

    /// The clock of `id`'s epoch.
    fn clock(&self, id: usize) -> &[(u32, u32)] {
        let k = self.epoch[id];
        &self.comps[self.ends[k]..self.ends[k + 1]]
    }

    /// Whether event `idx` of `thread` happens before event `id`, which
    /// lies on another thread.
    fn ordered(&self, thread: usize, idx: usize, id: usize) -> bool {
        let clock = self.clock(id);
        clock
            .binary_search_by_key(&narrow(thread), |&(u, _)| u)
            .is_ok_and(|n| clock[n].1 as usize > idx)
    }
}

fn check_races(model: &Model<'_>, g: &Graph, order: &[usize], findings: &mut Vec<VerifyError>) {
    let clocks = EpochClocks::build(g, order);

    struct Rec {
        buf: hw::BufferId,
        /// Place in record order: by thread, event, then access.
        n: usize,
        id: usize,
        thread: usize,
        idx: usize,
        start: usize,
        end: usize,
        write: bool,
    }
    let mut recs = Vec::new();
    for (t, th) in model.threads.iter().enumerate() {
        for (i, ev) in th.events.iter().enumerate() {
            for a in ev.accesses() {
                recs.push(Rec {
                    buf: a.buf,
                    n: recs.len(),
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
    // Overlap sweep: per buffer by start, each record meets only the
    // records that start before it ends.
    recs.sort_unstable_by_key(|r| (r.buf, r.start, r.n));

    let site = |r: &Rec| model.threads[r.thread].events[r.idx].site;
    // Each racing pair, keyed by buffer and site pair, with its place in
    // record order.
    let mut races = Vec::new();
    for (k, p) in recs.iter().enumerate() {
        let overlapping = recs[k + 1..]
            .iter()
            .take_while(|q| q.buf == p.buf && q.start < p.end);
        // `q` starts in `[p.start, p.end)`; only an empty `q` at
        // `p.start` misses `p`.
        for q in overlapping {
            if p.thread == q.thread || (!p.write && !q.write) || q.end <= p.start {
                continue;
            }
            if clocks.ordered(p.thread, p.idx, q.id) || clocks.ordered(q.thread, q.idx, p.id) {
                continue;
            }
            let (a, b) = if p.n < q.n { (p, q) } else { (q, p) };
            let (x, y) = if site(a) <= site(b) { (a, b) } else { (b, a) };
            races.push((
                (p.buf, site(x), site(y)),
                (a.n, b.n),
                VerifyError::Race {
                    first: site(x),
                    first_range: (x.start, x.end),
                    first_write: x.write,
                    second: site(y),
                    second_range: (y.start, y.end),
                    second_write: y.write,
                    buf: p.buf,
                },
            ));
        }
    }
    // One finding per buffer and site pair: its first pair in record
    // order.
    races.sort_by_key(|r| (r.0, r.1));
    races.dedup_by_key(|r| r.0);
    findings.extend(races.into_iter().map(|r| r.2));
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::{EpochClocks, Graph};

    /// An acyclic graph over threads of `lens` events each: program order,
    /// plus random edges between the events of a random interleaving, each
    /// pointing forward in it. An edge may cross threads or skip ahead
    /// within one, as a counted wait can.
    fn random_graph(lens: &[usize], rng: &mut TestRng) -> Graph {
        let mut offsets = vec![0];
        for len in lens {
            offsets.push(offsets[offsets.len() - 1] + len);
        }
        let total = offsets[lens.len()];
        let mut g = Graph {
            offsets,
            succs: vec![Vec::new(); total],
            preds: vec![Vec::new(); total],
        };
        for (t, &len) in lens.iter().enumerate() {
            for i in 1..len {
                g.edge(g.id(t, i - 1), g.id(t, i));
            }
        }
        let mut next = vec![0; lens.len()];
        let mut interleaving = Vec::with_capacity(total);
        while interleaving.len() < total {
            let t = rng.next_u64() as usize % lens.len();
            if next[t] < lens[t] {
                interleaving.push(g.id(t, next[t]));
                next[t] += 1;
            }
        }
        for _ in 0..rng.next_u64() as usize % (2 * total) {
            let a = rng.next_u64() as usize % total;
            let b = rng.next_u64() as usize % total;
            if a < b {
                g.edge(interleaving[a], interleaving[b]);
            }
        }
        g
    }

    /// Every event reachable from `from` along `succs`.
    fn reachable(g: &Graph, from: usize) -> Vec<bool> {
        let mut seen = vec![false; g.total()];
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            for &s in &g.succs[x] {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn epoch_clocks_answer_reachability(
            lens in collection::vec(1usize..13, 2..9),
            seed in any::<u64>(),
        ) {
            let g = random_graph(&lens, &mut TestRng::new(seed));
            let order = g.topo_order().expect("every edge points forward in one interleaving");
            let clocks = EpochClocks::build(&g, &order);
            for a in 0..g.total() {
                let (u, i) = g.locate(a);
                let reach = reachable(&g, a);
                for (b, &reached) in reach.iter().enumerate() {
                    if g.locate(b).0 != u {
                        prop_assert_eq!(
                            clocks.ordered(u, i, b),
                            reached,
                            "{:?} before {:?}",
                            (u, i),
                            g.locate(b)
                        );
                    }
                }
            }
        }
    }
}
