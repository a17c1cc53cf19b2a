//! Happens-before graph construction and the checks that run over it.
//!
//! Nodes are the extracted events; edges are (a) program order within a
//! thread, (b) FIFO push → proxy processing, (c) signal → wait matching
//! under the counted-wait rule, and (d) barrier arrive → exit across all
//! parties. Cycle detection yields static deadlocks. Over the acyclic
//! graph, one walk of the topological order ([`walk`]) keeps a live
//! clock per thread and answers reachability for the race check.

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
    let recs = records(model, &graph);
    check_bounds(model, pool, &recs, &mut findings);

    match graph.topo_order() {
        Ok(order) => {
            check_races(model, &graph, &order, recs, &mut findings);
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
    /// Each event's thread, by event id.
    thread: Vec<u32>,
    succs: Adjacency,
    preds: Adjacency,
}

/// One direction of a graph's edges, flat: node `n`'s neighbours are
/// `edges[starts[n]..starts[n + 1]]`, in the order they were drawn.
#[derive(Default)]
struct Adjacency {
    starts: Vec<u32>,
    edges: Vec<u32>,
}

impl Adjacency {
    /// Lists, per node of `0..nodes`, the value of each of the `len`
    /// entries `entry(k) = (node, value)` that names it, in entry order
    /// (a stable counting sort).
    fn group(nodes: usize, len: usize, entry: impl Fn(usize) -> (usize, usize)) -> Adjacency {
        let mut starts = vec![0u32; nodes + 1];
        for k in 0..len {
            starts[entry(k).0] += 1;
        }
        // Each node's end; filling backwards then leaves each its start.
        for n in 1..nodes {
            starts[n] += starts[n - 1];
        }
        starts[nodes] = narrow(len);
        let mut edges = vec![0; len];
        for k in (0..len).rev() {
            let (n, v) = entry(k);
            starts[n] -= 1;
            edges[starts[n] as usize] = narrow(v);
        }
        Adjacency { starts, edges }
    }

    fn of(&self, n: usize) -> &[u32] {
        &self.edges[self.starts[n] as usize..self.starts[n + 1] as usize]
    }
}

/// Adds the edge `from → to` to a list in the making; a self-edge is
/// dropped.
fn edge(edges: &mut Vec<(usize, usize)>, from: usize, to: usize) {
    if from != to {
        edges.push((from, to));
    }
}

impl Graph {
    /// A graph without edges over threads whose events start at
    /// `offsets`.
    fn new(offsets: Vec<usize>) -> Graph {
        let thread = offsets
            .windows(2)
            .enumerate()
            .flat_map(|(t, w)| std::iter::repeat_n(narrow(t), w[1] - w[0]))
            .collect();
        Graph {
            offsets,
            thread,
            succs: Adjacency::default(),
            preds: Adjacency::default(),
        }
    }

    fn id(&self, thread: usize, idx: usize) -> usize {
        self.offsets[thread] + idx
    }

    fn locate(&self, id: usize) -> (usize, usize) {
        let t = self.thread[id] as usize;
        (t, id - self.offsets[t])
    }

    fn site(&self, model: &Model<'_>, id: usize) -> Site {
        let (t, i) = self.locate(id);
        model.threads[t].events[i].site
    }

    fn total(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Sets the graph's edges, `(from, to)` in the order they were drawn.
    fn link(&mut self, edges: &[(usize, usize)]) {
        let total = self.total();
        self.succs = Adjacency::group(total, edges.len(), |k| edges[k]);
        self.preds = Adjacency::group(total, edges.len(), |k| (edges[k].1, edges[k].0));
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
        let mut g = Graph::new(offsets);
        let mut edges = Vec::with_capacity(total + model.extra_edges.len());

        // (a) Program order.
        for (t, th) in model.threads.iter().enumerate() {
            for i in 1..th.events.len() {
                edge(&mut edges, g.id(t, i - 1), g.id(t, i));
            }
        }
        // (b) Push → proxy.
        for &((ft, fi), (tt, ti)) in &model.extra_edges {
            edge(&mut edges, g.id(ft, fi), g.id(tt, ti));
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
                        edge(&mut edges, events[(o - 1) as usize].2, wait_id);
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
                            edge(&mut edges, a.2, e.2);
                        }
                    }
                }
            }
        }
        g.link(&edges);
        g
    }

    /// Kahn's algorithm; `Err` carries one happens-before cycle.
    fn topo_order(&self) -> Result<Vec<usize>, Vec<usize>> {
        let total = self.total();
        let mut indeg: Vec<u32> = (0..total).map(|n| narrow(self.preds.of(n).len())).collect();
        let mut order = Vec::with_capacity(total);
        let mut ready: Vec<usize> = (0..total).filter(|&i| indeg[i] == 0).collect();
        while let Some(id) = ready.pop() {
            order.push(id);
            for &s in self.succs.of(id) {
                let s = s as usize;
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
            let next = self
                .preds
                .of(cur)
                .iter()
                .map(|&p| p as usize)
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

/// One byte-range access of one event.
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

impl Rec {
    fn site(&self, model: &Model<'_>) -> Site {
        model.threads[self.thread].events[self.idx].site
    }
}

/// Every event's byte-range accesses, each event's footprint derived
/// once, in record order.
fn records(model: &Model<'_>, g: &Graph) -> Vec<Rec> {
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
    recs
}

fn check_bounds(
    model: &Model<'_>,
    pool: &MemoryPool,
    recs: &[Rec],
    findings: &mut Vec<VerifyError>,
) {
    let mut seen = HashSet::new();
    for r in recs {
        let len = pool.len(r.buf);
        if r.end > len && seen.insert((r.site(model), r.buf, r.start, r.end)) {
            findings.push(VerifyError::OutOfBounds {
                site: r.site(model),
                buf: r.buf,
                range: (r.start, r.end),
                len,
            });
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

/// Answers, for each of `pairs` (two events on different threads),
/// whether one happens before the other, in one walk of the acyclic
/// graph's topological `order`. Also returns how many components the
/// clocks it stored for other threads' joins hold.
///
/// The walk keeps one live clock per thread: a sorted list of the
/// non-zero `(thread, count)` components in which count `c` for thread
/// `u` says that events `(u, 0..c)` happen before the thread's current
/// event. It is exact on every thread but its own, which no answer
/// reads. When an event has a predecessor `p = (u, j)` on another
/// thread, the walk joins into its thread's live clock the clock stored
/// for `p` and raises `u`'s component to `j + 1`, unless the live clock
/// already covers `p`: then it covers everything `p` knew too. A
/// predecessor on the event's own thread adds nothing, since program
/// order already brought all it knew. So the live clock changes only at
/// such joins, and the walk stores a copy of it only when an event with
/// a successor on another thread needs one, once per change.
///
/// Each pair is answered at the later of its events in `order`. Every
/// edge points forward in that order, so the later event cannot happen
/// before the earlier one, and the earlier one, `(u, i)`, happens before
/// it iff the later event's live clock maps `u` to at least `i + 1`.
fn walk(g: &Graph, order: &[usize], pairs: &[(u32, u32)]) -> (Vec<bool>, usize) {
    let total = g.total();
    let mut pos = vec![0u32; total];
    for (k, &id) in order.iter().enumerate() {
        pos[id] = narrow(k);
    }
    let later: Vec<u32> = pairs
        .iter()
        .map(|&(a, b)| std::cmp::max_by_key(a, b, |&e| pos[e as usize]))
        .collect();
    let asks = Adjacency::group(total, pairs.len(), |k| (later[k] as usize, k));

    let threads = g.offsets.len() - 1;
    let mut live: Vec<Vec<(u32, u32)>> = vec![Vec::new(); threads];
    // Each thread's stored copy of its live clock as it stands, if any.
    let mut saved: Vec<Option<u32>> = vec![None; threads];
    // The stored clock of each event with a successor on another thread:
    // stored clock `k` is `comps[ends[k]..ends[k + 1]]`.
    let mut clock_of = vec![0u32; total];
    let (mut ends, mut comps) = (vec![0], Vec::new());
    let mut ordered = vec![false; pairs.len()];
    for &id in order {
        let t = g.thread[id] as usize;
        let own = g.offsets[t]..g.offsets[t + 1];
        let clock = &mut live[t];
        for &p in g.preds.of(id) {
            let p = p as usize;
            if own.contains(&p) {
                continue;
            }
            let (u, j) = g.locate(p);
            if covers(clock, u, j) {
                continue;
            }
            let k = clock_of[p] as usize;
            join(clock, &comps[ends[k]..ends[k + 1]]);
            raise(clock, narrow(u), narrow(j + 1));
            saved[t] = None;
        }
        for &q in asks.of(id) {
            let (a, b) = pairs[q as usize];
            let (u, i) = g.locate(if a as usize == id { b } else { a } as usize);
            ordered[q as usize] = covers(clock, u, i);
        }
        if g.succs.of(id).iter().any(|&s| !own.contains(&(s as usize))) {
            clock_of[id] = *saved[t].get_or_insert_with(|| {
                comps.extend_from_slice(clock);
                ends.push(comps.len());
                narrow(ends.len() - 2)
            });
        }
    }
    (ordered, comps.len())
}

/// Whether `clock` says that event `idx` of `thread` happens before.
fn covers(clock: &[(u32, u32)], thread: usize, idx: usize) -> bool {
    clock
        .binary_search_by_key(&narrow(thread), |&(u, _)| u)
        .is_ok_and(|n| clock[n].1 as usize > idx)
}

/// Raises `clock` to the componentwise maximum of it and `theirs`, in
/// place. The merge runs from the back, so the components below
/// `theirs`' first stay where they are: a gathering thread's clock does
/// not move for a peer that knows little.
fn join(clock: &mut Vec<(u32, u32)>, theirs: &[(u32, u32)]) {
    let n = clock.len();
    // Room for every component of `theirs`; the merge overwrites it.
    clock.extend_from_slice(theirs);
    // `clock[..i]` and `theirs[..j]` are left to merge, into
    // `clock[..w]`; `w - i >= j`, so no write lands on an unread
    // component.
    let (mut i, mut j, mut w) = (n, theirs.len(), clock.len());
    while j > 0 {
        let (v, d) = theirs[j - 1];
        w -= 1;
        match i.checked_sub(1).map(|k| clock[k]) {
            Some((u, c)) if u > v => {
                clock[w] = (u, c);
                i -= 1;
            }
            Some((u, c)) if u == v => {
                clock[w] = (u, c.max(d));
                i -= 1;
                j -= 1;
            }
            _ => {
                clock[w] = (v, d);
                j -= 1;
            }
        }
    }
    // Each shared component left one slot empty between the two parts.
    clock.drain(i..w);
}

/// Raises `clock`'s component for `thread` to at least `count`.
fn raise(clock: &mut Vec<(u32, u32)>, thread: u32, count: u32) {
    match clock.binary_search_by_key(&thread, |&(u, _)| u) {
        Ok(k) => clock[k].1 = clock[k].1.max(count),
        Err(k) => clock.insert(k, (thread, count)),
    }
}

/// A thread index, event id or count as a clock or an edge list stores
/// it.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("a plan has fewer than 2^32 events, edges and accesses")
}

fn check_races(
    model: &Model<'_>,
    g: &Graph,
    order: &[usize],
    mut recs: Vec<Rec>,
    findings: &mut Vec<VerifyError>,
) {
    // Overlap sweep: per buffer by start, each record meets only the
    // records that start before it ends. It needs no clocks, so it
    // collects every conflicting pair of records on different threads
    // first, and one walk then says which of them the graph orders.
    recs.sort_unstable_by_key(|r| (r.buf, r.start, r.n));
    // Each conflicting pair, as records and as events.
    let (mut conflicts, mut events) = (Vec::new(), Vec::new());
    for (k, p) in recs.iter().enumerate() {
        let overlapping = recs[k + 1..]
            .iter()
            .take_while(|q| q.buf == p.buf && q.start < p.end);
        // `q` starts in `[p.start, p.end)`; only an empty `q` at
        // `p.start` misses `p`.
        for (m, q) in (k + 1..).zip(overlapping) {
            if p.thread != q.thread && (p.write || q.write) && q.end > p.start {
                conflicts.push((narrow(k), narrow(m)));
                events.push((narrow(p.id), narrow(q.id)));
            }
        }
    }
    let (ordered, _) = walk(g, order, &events);

    let site = |r: &Rec| r.site(model);
    // Each racing pair, keyed by buffer and site pair, with its place in
    // record order.
    let mut races = Vec::new();
    for (&(k, m), _) in conflicts.iter().zip(ordered).filter(|&(_, o)| !o) {
        let (p, q) = (&recs[k as usize], &recs[m as usize]);
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
    // One finding per buffer and site pair: its first pair in record
    // order.
    races.sort_by_key(|r| (r.0, r.1));
    races.dedup_by_key(|r| r.0);
    findings.extend(races.into_iter().map(|r| r.2));
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::{edge, walk, Graph};

    /// A graph over threads whose events start at `offsets`.
    fn graph(offsets: Vec<usize>, edges: &[(usize, usize)]) -> Graph {
        let mut g = Graph::new(offsets);
        g.link(edges);
        g
    }

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
        let mut edges = Vec::new();
        for (t, &len) in lens.iter().enumerate() {
            for i in 1..len {
                edge(&mut edges, offsets[t] + i - 1, offsets[t] + i);
            }
        }
        let mut next = vec![0; lens.len()];
        let mut interleaving = Vec::with_capacity(total);
        while interleaving.len() < total {
            let t = rng.next_u64() as usize % lens.len();
            if next[t] < lens[t] {
                interleaving.push(offsets[t] + next[t]);
                next[t] += 1;
            }
        }
        for _ in 0..rng.next_u64() as usize % (2 * total) {
            let a = rng.next_u64() as usize % total;
            let b = rng.next_u64() as usize % total;
            if a < b {
                edge(&mut edges, interleaving[a], interleaving[b]);
            }
        }
        graph(offsets, &edges)
    }

    /// Every event reachable from `from` along `succs`.
    fn reachable(g: &Graph, from: usize) -> Vec<bool> {
        let mut seen = vec![false; g.total()];
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            for &s in g.succs.of(x) {
                let s = s as usize;
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Every pair of events on different threads, each way round.
    fn cross_pairs(g: &Graph) -> Vec<(u32, u32)> {
        let total = g.total() as u32;
        (0..total)
            .flat_map(|a| (0..total).map(move |b| (a, b)))
            .filter(|&(a, b)| g.thread[a as usize] != g.thread[b as usize])
            .collect()
    }

    /// Asserts that the walk orders each of `pairs` exactly when DFS finds
    /// a path between its events, returning the components it stored.
    fn assert_walk_is_reachability(g: &Graph, pairs: &[(u32, u32)]) -> usize {
        let order = g.topo_order().expect("the graph is acyclic");
        let reach: Vec<Vec<bool>> = (0..g.total()).map(|a| reachable(g, a)).collect();
        let (ordered, stored) = walk(g, &order, pairs);
        for (&(a, b), &ordered) in pairs.iter().zip(&ordered) {
            let (a, b) = (a as usize, b as usize);
            assert_eq!(
                ordered,
                reach[a][b] || reach[b][a],
                "{:?} and {:?}",
                g.locate(a),
                g.locate(b)
            );
        }
        stored
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn walk_answers_reachability(
            lens in collection::vec(1usize..13, 2..20),
            seed in any::<u64>(),
        ) {
            let g = random_graph(&lens, &mut TestRng::new(seed));
            assert_walk_is_reachability(&g, &cross_pairs(&g));
        }
    }

    /// A gather: thread `N` starts `N` threads with one event, each of
    /// them answers with another, and thread `N` waits for the answers in
    /// turn. Thread `N` starts a new epoch at every wait, so per-epoch
    /// clocks held about `N²/2` components; the walk stores one clock per
    /// answer, of one component each.
    #[test]
    fn a_gather_stores_clocks_linear_in_its_threads() {
        const N: usize = 512;
        let mut offsets: Vec<usize> = (0..=N).map(|t| 2 * t).collect();
        offsets.push(3 * N + 1);
        let gather = |i: usize| 2 * N + i;
        let mut edges = Vec::new();
        for t in 0..N {
            edge(&mut edges, 2 * t, 2 * t + 1);
            edge(&mut edges, gather(0), 2 * t);
            edge(&mut edges, 2 * t + 1, gather(t + 1));
        }
        for i in 1..=N {
            edge(&mut edges, gather(i - 1), gather(i));
        }
        let g = graph(offsets, &edges);
        let pairs: Vec<(u32, u32)> = cross_pairs(&g)
            .into_iter()
            .filter(|&(a, b)| a < b)
            .collect();
        let stored = assert_walk_is_reachability(&g, &pairs);
        assert!(stored <= 2 * N, "the walk stored {stored} components");
    }
}
