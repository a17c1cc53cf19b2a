//! Dynamic memory-access sanitizer for the kernel interpreter.
//!
//! When kernels run through [`crate::run_kernels_sanitized`], every
//! thread block carries a vector clock ([`sim::VClock`]) that advances at
//! synchronization instructions: signals *release* the block's clock into
//! the signalled cell, waits *acquire* the cell's clock on resume. Every
//! byte-range access (put source/destination, copy, reduce operand, ...)
//! is checked against a shadow history of prior accesses to the same
//! buffer: an overlapping pair with at least one write, issued by two
//! blocks whose clocks do not order them, is a concrete data race *in
//! this execution's synchronization structure* — exactly the property the
//! static verifier (`commverify`) proves over all executions.
//!
//! A port channel's CPU proxy is a thread of its own, one per (pushing
//! block, port endpoint) pair, mirroring the static model so that a
//! static race finding and a dynamic one name the same instruction pair.
//! A push hands the block's clock to the proxy, which performs the
//! request's accesses and raises its cells; the pusher sees the proxy's
//! work only through `port_flush`, so reusing a put's source before the
//! flush is a race here as it is in the static model.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use hw::{Access, BufferId};
use sim::{CellId, VClock};

use crate::kernel::{Instr, Site};

/// One unordered conflicting access pair observed at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanRace {
    /// The access recorded first (program order of the simulation run).
    pub first: Site,
    /// Byte range of the first access.
    pub first_range: (usize, usize),
    /// Whether the first access wrote.
    pub first_write: bool,
    /// The conflicting later access.
    pub second: Site,
    /// Byte range of the second access.
    pub second_range: (usize, usize),
    /// Whether the second access wrote.
    pub second_write: bool,
    /// The buffer both ranges index into.
    pub buf: BufferId,
}

impl fmt::Display for SanRace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unordered {} {} [{}, {}) and {} {} [{}, {}) on {:?}",
            if self.first_write { "write" } else { "read" },
            self.first,
            self.first_range.0,
            self.first_range.1,
            if self.second_write { "write" } else { "read" },
            self.second,
            self.second_range.0,
            self.second_range.1,
            self.buf,
        )
    }
}

/// Result of a sanitized run: every race observed, in detection order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanReport {
    /// Unordered conflicting access pairs (empty for a clean run).
    pub races: Vec<SanRace>,
    /// Total byte-range accesses checked.
    pub accesses_checked: u64,
}

impl SanReport {
    /// Whether the run was race-free.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty()
    }
}

#[derive(Debug)]
struct Rec {
    tid: usize,
    epoch: u64,
    site: Site,
    acc: Access,
}

#[derive(Debug, Default)]
pub(crate) struct SanState {
    clocks: Vec<VClock>,
    cell_clocks: HashMap<CellId, VClock>,
    /// Proxy thread of each (pushing block, port endpoint) pair, the
    /// endpoint keyed by its `pushed_cell`.
    proxies: HashMap<(usize, CellId), usize>,
    shadow: HashMap<BufferId, Vec<Rec>>,
    races: Vec<SanRace>,
    checked: u64,
}

impl SanState {
    pub(crate) fn report(&self) -> SanReport {
        SanReport {
            races: self.races.clone(),
            accesses_checked: self.checked,
        }
    }

    /// Starts a new thread whose clock has only its own first epoch.
    fn thread(&mut self) -> usize {
        let tid = self.clocks.len();
        let mut c = VClock::new();
        c.bump(tid);
        self.clocks.push(c);
        tid
    }

    /// Records `instr`'s footprint on thread `tid`: every byte-range
    /// access, then a release into every cell it increments.
    fn record(&mut self, tid: usize, site: Site, instr: &Instr) {
        if let Some(flow) = instr.dataflow() {
            for a in flow.accesses() {
                self.access(tid, site, a);
            }
        }
        let mut cells = instr.increments().peekable();
        if cells.peek().is_some() {
            // Release: publish the clock into each cell, then advance the
            // thread's own epoch so later accesses are not covered.
            let clock = self.clocks[tid].clone();
            for cell in cells {
                self.cell_clocks.entry(cell).or_default().join(&clock);
            }
            self.clocks[tid].bump(tid);
        }
    }

    /// Records a byte-range access and checks it against the shadow
    /// history of its buffer for unordered conflicting overlaps.
    fn access(&mut self, tid: usize, site: Site, a: Access) {
        self.checked += 1;
        let epoch = self.clocks[tid].get(tid);
        let my_clock = &self.clocks[tid];
        let recs = self.shadow.entry(a.buf).or_default();
        for rec in recs.iter() {
            let r = rec.acc;
            if rec.tid == tid || (!r.write && !a.write) || r.end <= a.start || a.end <= r.start {
                continue;
            }
            // The earlier access happens-before us iff our clock has
            // caught up with its thread's epoch at access time.
            if my_clock.get(rec.tid) < rec.epoch {
                self.races.push(SanRace {
                    first: rec.site,
                    first_range: (r.start, r.end),
                    first_write: r.write,
                    second: site,
                    second_range: (a.start, a.end),
                    second_write: a.write,
                    buf: a.buf,
                });
            }
        }
        recs.push(Rec {
            tid,
            epoch,
            site,
            acc: a,
        });
    }
}

/// Per-thread-block handle into the shared sanitizer state, carried by
/// the interpreter's block processes.
#[derive(Debug, Clone)]
pub(crate) struct SanHook {
    state: Rc<RefCell<SanState>>,
    tid: usize,
}

impl SanHook {
    /// Starts the sanitizer thread of one thread block.
    pub(crate) fn new(state: Rc<RefCell<SanState>>) -> SanHook {
        let tid = state.borrow_mut().thread();
        SanHook { state, tid }
    }

    /// Records an instruction this block executes itself.
    pub(crate) fn footprint(&self, site: Site, instr: &Instr) {
        self.state.borrow_mut().record(self.tid, site, instr);
    }

    /// Hands a port request to the proxy thread of this block and the
    /// endpoint `pushed_cell`: the proxy joins the block's clock, the
    /// block advances its epoch, and the proxy records the request.
    pub(crate) fn push(&self, site: Site, instr: &Instr, pushed_cell: CellId) {
        let mut s = self.state.borrow_mut();
        let proxy = match s.proxies.get(&(self.tid, pushed_cell)) {
            Some(&p) => p,
            None => {
                let p = s.thread();
                s.proxies.insert((self.tid, pushed_cell), p);
                p
            }
        };
        let clock = s.clocks[self.tid].clone();
        s.clocks[proxy].join(&clock);
        s.clocks[self.tid].bump(self.tid);
        s.record(proxy, site, instr);
    }

    /// Acquire: join the cell's published clock into this block's, called
    /// when a wait on `cell` completes.
    pub(crate) fn acquire(&self, cell: CellId) {
        let mut s = self.state.borrow_mut();
        if let Some(c) = s.cell_clocks.get(&cell) {
            let c = c.clone();
            s.clocks[self.tid].join(&c);
        }
    }
}
