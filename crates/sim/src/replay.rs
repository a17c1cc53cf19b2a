//! Launch replay: what one run did to an engine, so that the same run
//! from the same relative state can be applied instead of simulated.
//!
//! [`crate::Engine::mark`] starts a [`Journal`] on a quiescent engine.
//! While the run is marked, the engine adds every cell update, resource
//! acquisition, metered byte count and counter increment into the
//! journal's entry for that cell, resource or counter, and notes every
//! spawn and finish. Each entry is found through an index that only the
//! touched ids ever leave, so the journal costs what the run touches,
//! never a scan of the engine. [`crate::Engine::take_effect`] turns it
//! into a [`RunEffect`] relative to the mark, and
//! [`crate::Engine::replay`] applies that effect at a later instant.

use crate::engine::{CellId, ResourceId};
use crate::metrics::CounterId;
use crate::time::{Duration, Time};

/// Index sentinel: the id has no entry in this run.
const NONE: u32 = u32::MAX;

/// The clock and counts at a mark, or where a marked run ended.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mark {
    pub now: Time,
    pub seq: u64,
    pub events: u64,
    pub clamped: u64,
}

/// What a marked run did, one entry per touched cell, resource and
/// counter. Kept by its engine between marks, empty, so that its buffers
/// and indices are reused; its recording methods do nothing while no run
/// is marked.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    mark: Option<Mark>,
    /// Cleared when the run did something its relative state does not
    /// determine, or that a replay would not redo: an acquisition asked
    /// to start before the mark, a resource found busy at the mark, a
    /// cell or resource allocated, a resource relabelled, a fault plan
    /// installed.
    exact: bool,
    /// Each updated cell's total delta, in first-update order, and each
    /// cell id's entry in it.
    cells: Vec<(CellId, u64)>,
    cell_entry: Vec<u32>,
    resources: Vec<ResourceEffect>,
    resource_entry: Vec<u32>,
    counters: Vec<(CounterId, u64)>,
    /// Process slots in spawn order, and in the order they finished.
    spawned: Vec<u32>,
    finished: Vec<u32>,
}

/// The entry of `id` in `entries`, made by `new` on the first touch.
fn entry<'a, T>(
    entries: &'a mut Vec<T>,
    index: &mut Vec<u32>,
    id: usize,
    new: impl FnOnce() -> T,
) -> &'a mut T {
    if id >= index.len() {
        index.resize(id + 1, NONE);
    }
    if index[id] == NONE {
        index[id] = entries.len() as u32;
        entries.push(new());
    }
    &mut entries[index[id] as usize]
}

impl Journal {
    /// Whether a run is marked.
    pub fn marked(&self) -> bool {
        self.mark.is_some()
    }

    pub fn begin(&mut self, mark: Mark) {
        self.mark = Some(mark);
        self.exact = true;
    }

    /// Records that the run did something a replay would not redo.
    pub fn inexact(&mut self) {
        self.exact = false;
    }

    pub fn cell_add(&mut self, cell: usize, delta: u64) {
        if !self.marked() {
            return;
        }
        entry(&mut self.cells, &mut self.cell_entry, cell, || {
            (CellId(cell), 0)
        })
        .1 += delta;
    }

    fn resource(&mut self, res: usize) -> &mut ResourceEffect {
        entry(&mut self.resources, &mut self.resource_entry, res, || {
            ResourceEffect {
                id: ResourceId(res),
                busy: Duration::ZERO,
                bytes: 0,
                acquires: 0,
                queue_delay: Duration::ZERO,
                horizon: None,
            }
        })
    }

    /// One acquisition of `res`, which found its horizon at `prior`. A
    /// request before the mark, or a resource still busy at the mark,
    /// would make the grant depend on work from before the run.
    pub fn acquire(
        &mut self,
        res: usize,
        prior: Time,
        earliest: Time,
        busy: Duration,
        queued: Duration,
        done: Time,
    ) {
        let Some(mark) = self.mark else { return };
        let start = mark.now;
        let r = self.resource(res);
        let idle = r.horizon.is_some() || prior <= start;
        r.busy += busy;
        r.acquires += 1;
        r.queue_delay += queued;
        r.horizon = Some(done - start);
        self.exact &= idle && earliest >= start;
    }

    pub fn meter(&mut self, res: usize, bytes: u64) {
        if self.marked() {
            self.resource(res).bytes += bytes;
        }
    }

    pub fn count(&mut self, id: CounterId, delta: u64) {
        if !self.marked() {
            return;
        }
        match self.counters.iter_mut().find(|(c, _)| *c == id) {
            Some((_, sum)) => *sum += delta,
            None => self.counters.push((id, delta)),
        }
    }

    pub fn spawn(&mut self, slot: u32) {
        if self.marked() {
            self.spawned.push(slot);
        }
    }

    pub fn finish(&mut self, slot: u32) {
        if self.marked() {
            self.finished.push(slot);
        }
    }

    /// Ends the mark, leaving the journal empty for the next one, and
    /// returns the run's effect relative to the mark if it was exact.
    /// `end` is the state the run ended in.
    pub fn end(&mut self, engine: u64, end: Mark, exact: bool) -> Option<RunEffect> {
        for (cell, _) in &self.cells {
            self.cell_entry[cell.0] = NONE;
        }
        for r in &self.resources {
            self.resource_entry[r.id.0] = NONE;
        }
        let mark = self.mark.take();
        let effect = match mark {
            Some(m) if exact && self.exact => Some(RunEffect {
                engine,
                advance: end.now - m.now,
                seq: end.seq - m.seq,
                events: end.events - m.events,
                clamped: end.clamped - m.clamped,
                cells: self.cells.clone(),
                resources: self.resources.clone(),
                counters: self.counters.clone(),
                // The spawn index of every finished slot, in finish order.
                finish_order: self
                    .finished
                    .iter()
                    .map(|s| {
                        let k = self.spawned.iter().position(|t| t == s);
                        k.expect("a finished slot was spawned in the run") as u32
                    })
                    .collect(),
            }),
            _ => None,
        };
        self.cells.clear();
        self.resources.clear();
        self.counters.clear();
        self.spawned.clear();
        self.finished.clear();
        effect
    }
}

/// What one resource's accounting gained in a run, and where the run
/// left its busy horizon (relative to the run's start) if it acquired it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ResourceEffect {
    pub id: ResourceId,
    pub busy: Duration,
    pub bytes: u64,
    pub acquires: u64,
    pub queue_delay: Duration,
    pub horizon: Option<Duration>,
}

/// The effect of one marked run on its engine, with every instant
/// relative to where the run started ([`crate::Engine::take_effect`]).
///
/// It holds what the run touched: the clock advance, the event, sequence
/// and clamp counts, each updated cell's total delta, each touched
/// resource's accounting delta and final busy horizon, each counter's
/// delta, and the order in which the run's process slots finished.
/// [`crate::Engine::replay`] applies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEffect {
    /// The engine the run was recorded on.
    pub(crate) engine: u64,
    pub(crate) advance: Duration,
    pub(crate) seq: u64,
    pub(crate) events: u64,
    pub(crate) clamped: u64,
    pub(crate) cells: Vec<(CellId, u64)>,
    pub(crate) resources: Vec<ResourceEffect>,
    pub(crate) counters: Vec<(CounterId, u64)>,
    /// For each finished slot, in finish order, its index in spawn order.
    pub(crate) finish_order: Vec<u32>,
}
