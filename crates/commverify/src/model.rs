//! Extraction of the analysis IR from compiled kernel batches.
//!
//! Each thread block becomes one *thread* of events; each proxied port
//! channel endpoint contributes a *virtual proxy thread* whose events
//! carry the CPU proxy's copies, linked to the pushing block by explicit
//! cross edges. Every event carries its instruction's footprint
//! ([`Instr::dataflow`], [`Instr::increments`]): the byte ranges it
//! touches and the synchronization cells it increments. Waits also
//! record the cell and threshold they block on.

use std::collections::HashMap;

use mscclpp::{Access, Dataflow, Instr, Kernel, Site};
use sim::CellId;

/// A counted wait: blocks until `cell >= needed`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaitOn {
    pub cell: CellId,
    pub needed: u64,
}

/// Classification beyond the generic access/inc/wait fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Plain,
    /// Explicit signal instruction targeting a semaphore-class cell
    /// (orphan-signal candidate).
    Signal(CellId),
    /// Barrier arrival (increments the barrier cell).
    BarrierArrive(CellId),
    /// Barrier exit (ordered after every party's matching arrival).
    BarrierExit(CellId),
}

#[derive(Debug)]
pub(crate) struct Event<'k> {
    pub site: Site,
    /// The instruction whose footprint the event carries: `None` on a
    /// port push (the proxy thread carries it) and a barrier exit.
    footprint: Option<&'k Instr>,
    pub wait: Option<WaitOn>,
    pub kind: Kind,
}

impl<'k> Event<'k> {
    fn new(site: Site, footprint: Option<&'k Instr>) -> Event<'k> {
        Event {
            site,
            footprint,
            wait: None,
            kind: Kind::Plain,
        }
    }

    /// How the event transforms bytes (`None`: it moves no data).
    pub(crate) fn flow(&self) -> Option<Dataflow<'k>> {
        self.footprint.and_then(Instr::dataflow)
    }

    /// Byte-range accesses: reads in operand order, then writes.
    pub(crate) fn accesses(&self) -> impl Iterator<Item = Access> + 'k {
        self.flow().into_iter().flat_map(Dataflow::accesses)
    }

    /// Synchronization cells the event increments.
    pub(crate) fn incs(&self) -> impl Iterator<Item = CellId> + 'k {
        self.footprint.into_iter().flat_map(Instr::increments)
    }
}

#[derive(Debug, Default)]
pub(crate) struct Thread<'k> {
    pub events: Vec<Event<'k>>,
}

/// The extracted model of one kernel batch.
#[derive(Debug, Default)]
pub(crate) struct Model<'k> {
    pub threads: Vec<Thread<'k>>,
    /// Cross-thread happens-before edges beyond program order and wait
    /// matching: FIFO push → proxy processing, as `(from, to)` pairs of
    /// `(thread, event index)`.
    pub extra_edges: Vec<((usize, usize), (usize, usize))>,
    /// Human-readable cell names for rendering findings.
    pub cell_names: HashMap<CellId, String>,
    /// Parties per barrier cell.
    pub barriers: HashMap<CellId, usize>,
    /// Port puts with no completion guarantee before kernel exit.
    pub unflushed: Vec<Site>,
}

impl Model<'_> {
    fn name_cell(&mut self, cell: CellId, name: impl FnOnce() -> String) {
        self.cell_names.entry(cell).or_insert_with(name);
    }

    pub(crate) fn cell_name(&self, cell: CellId) -> String {
        self.cell_names
            .get(&cell)
            .cloned()
            .unwrap_or_else(|| format!("{cell:?}"))
    }
}

/// Per-(block, port endpoint) state while walking a stream.
#[derive(Debug, Default)]
struct PortState {
    /// Virtual proxy thread index for this endpoint/block pair.
    proxy: Option<usize>,
    /// Requests pushed so far by this block on this endpoint (puts and
    /// signals alike — the completion counter counts both).
    pushed: u64,
    /// Sites of puts not yet covered by a flush/signal barrier.
    dirty: Vec<Site>,
}

/// Extracts the analysis model from a kernel batch.
pub(crate) fn extract(kernels: &[Kernel]) -> Model<'_> {
    let mut m = Model::default();
    for k in kernels {
        for (tb, prog) in k.blocks.iter().enumerate() {
            let t = m.threads.len();
            m.threads.push(Thread::default());
            // Waits are counted per (thread, cell): the n-th wait needs n
            // increments. Exact for single-waiter cells (every built-in);
            // a sound under-approximation otherwise.
            let mut wait_counts: HashMap<CellId, u64> = HashMap::new();
            // Port endpoints this block pushes to, keyed by pushed-cell.
            let mut ports: HashMap<CellId, PortState> = HashMap::new();
            for (pc, instr) in prog.iter().enumerate() {
                let site = Site {
                    rank: k.rank,
                    tb,
                    pc,
                };
                let mut ev = Event::new(site, Some(instr));
                match instr {
                    Instr::MemPut {
                        ch, with_signal, ..
                    } => {
                        m.name_cell(ch.peer_arrival, || format!("mem_arrival@{}", ch.peer_rank));
                        if *with_signal {
                            m.name_cell(ch.peer_sem, || format!("mem_sem@{}", ch.peer_rank));
                        }
                    }
                    Instr::MemSignal { ch } => {
                        m.name_cell(ch.peer_sem, || format!("mem_sem@{}", ch.peer_rank));
                        ev.kind = Kind::Signal(ch.peer_sem);
                    }
                    Instr::MemWait { ch } => {
                        m.name_cell(ch.my_sem, || format!("mem_sem@{}", ch.local_rank));
                        ev.wait = Some(nth_wait(&mut wait_counts, ch.my_sem));
                    }
                    Instr::MemWaitData { ch } => {
                        m.name_cell(ch.my_arrival, || format!("mem_arrival@{}", ch.local_rank));
                        ev.wait = Some(nth_wait(&mut wait_counts, ch.my_arrival));
                    }
                    Instr::PortPut {
                        ch, with_signal, ..
                    } => {
                        m.name_cell(ch.completed_cell, || {
                            format!("port_completed@{}", ch.local_rank)
                        });
                        m.name_cell(ch.peer_arrival, || format!("port_arrival@{}", ch.peer_rank));
                        let state = ports.entry(ch.pushed_cell).or_default();
                        state.pushed += 1;
                        if *with_signal {
                            m.name_cell(ch.peer_sem, || format!("port_sem@{}", ch.peer_rank));
                            state.dirty.clear();
                        } else {
                            state.dirty.push(site);
                        }
                        // The proxy's copy runs on a virtual thread,
                        // ordered after the push by a cross edge; the
                        // pusher's later instructions are NOT ordered
                        // after it, which is what catches source-buffer
                        // reuse before a flush.
                        ev = push_proxy(&mut m, state, t, ev);
                    }
                    Instr::PortSignal { ch } => {
                        m.name_cell(ch.completed_cell, || {
                            format!("port_completed@{}", ch.local_rank)
                        });
                        m.name_cell(ch.peer_sem, || format!("port_sem@{}", ch.peer_rank));
                        let state = ports.entry(ch.pushed_cell).or_default();
                        state.pushed += 1;
                        // FIFO order: a signal behind earlier puts reaches
                        // the peer only after they complete.
                        state.dirty.clear();
                        ev.kind = Kind::Signal(ch.peer_sem);
                        ev = push_proxy(&mut m, state, t, ev);
                    }
                    Instr::PortFlush { ch, .. } => {
                        let state = ports.entry(ch.pushed_cell).or_default();
                        state.dirty.clear();
                        if state.pushed > 0 {
                            m.name_cell(ch.completed_cell, || {
                                format!("port_completed@{}", ch.local_rank)
                            });
                            ev.wait = Some(WaitOn {
                                cell: ch.completed_cell,
                                needed: state.pushed,
                            });
                        }
                    }
                    Instr::PortWait { ch } => {
                        m.name_cell(ch.my_sem, || format!("port_sem@{}", ch.local_rank));
                        ev.wait = Some(nth_wait(&mut wait_counts, ch.my_sem));
                    }
                    Instr::RawPut { notify, .. } | Instr::RawReducePut { notify, .. } => {
                        if let Some(sem) = notify {
                            m.name_cell(sem.cell, || format!("sem@{}", sem.owner));
                        }
                    }
                    Instr::SemWait { sem } => {
                        m.name_cell(sem.cell, || format!("sem@{}", sem.owner));
                        ev.wait = Some(nth_wait(&mut wait_counts, sem.cell));
                    }
                    Instr::SemSignal { sem } => {
                        m.name_cell(sem.cell, || format!("sem@{}", sem.owner));
                        ev.kind = Kind::Signal(sem.cell);
                    }
                    Instr::Barrier { barrier } => {
                        m.name_cell(barrier.cell, || "barrier".to_owned());
                        m.barriers.insert(barrier.cell, barrier.parties);
                        // Split into an arrive event and an adjacent exit
                        // event: all-arrive-before-any-exit edges then
                        // never form spurious two-cycles through a single
                        // node.
                        ev.kind = Kind::BarrierArrive(barrier.cell);
                        m.threads[t].events.push(ev);
                        ev = Event::new(site, None);
                        ev.kind = Kind::BarrierExit(barrier.cell);
                    }
                    Instr::MemReadReduce { .. }
                    | Instr::SwitchReduce { .. }
                    | Instr::SwitchBroadcast { .. }
                    | Instr::Copy { .. }
                    | Instr::Reduce { .. }
                    | Instr::ReduceInto { .. } => {}
                    Instr::Compute { .. } => continue,
                }
                m.threads[t].events.push(ev);
            }
            for state in ports.values() {
                m.unflushed.extend(state.dirty.iter().copied());
            }
        }
    }
    m.unflushed.sort();
    m
}

/// The wait a thread's next wait on `cell` stands for: its n-th wait on
/// the cell needs n increments.
fn nth_wait(counts: &mut HashMap<CellId, u64>, cell: CellId) -> WaitOn {
    let n = counts.entry(cell).or_insert(0);
    *n += 1;
    WaitOn { cell, needed: *n }
}

/// Moves a port push's footprint onto the endpoint's virtual proxy
/// thread (creating it on first use), records the push → proxy cross
/// edge, and returns the bare event left on the pushing block.
fn push_proxy<'k>(
    m: &mut Model<'k>,
    state: &mut PortState,
    block_t: usize,
    ev: Event<'k>,
) -> Event<'k> {
    let pt = *state.proxy.get_or_insert_with(|| {
        m.threads.push(Thread::default());
        m.threads.len() - 1
    });
    let push = (block_t, m.threads[block_t].events.len());
    let site = ev.site;
    m.extra_edges.push((push, (pt, m.threads[pt].events.len())));
    m.threads[pt].events.push(ev);
    Event::new(site, None)
}
