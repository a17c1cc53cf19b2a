//! The discrete-event engine: event queue, cells, resources, scheduling.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::calendar::{CalendarQueue, Entry};
use crate::depgraph::{DepGraph, ProfState};
use crate::fault::FaultPlan;
use crate::intern::Interner;
use crate::metrics::{CounterId, Metrics};
use crate::process::{Process, Step};
use crate::replay::{Journal, Mark, RunEffect};
use crate::time::{Duration, Time};
use crate::trace::{Trace, TraceEventKind};

/// Identifies a process spawned on an [`Engine`].
///
/// When neither tracing nor profiling is enabled, the engine recycles the
/// slots of finished processes, so a `ProcId` may be reissued to a later
/// spawn; pending events carry a generation stamp so a recycled id can
/// never be woken by its previous incarnation's events.
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(usize);

/// Identifies a monotonic notification cell.
///
/// Cells model every cross-process synchronization primitive in the
/// simulation: GPU semaphores, proxy FIFO head/tail counters, barrier
/// arrival counts, and LL-protocol flag readiness. A cell holds a `u64`
/// that only ever increases; processes block until a cell reaches a
/// threshold and are woken exactly when it does.
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub(crate) usize);

/// A pre-resolved span label for [`Ctx::span_begin_id`].
///
/// Resolving a label to an id ([`Ctx::span_label_id`] /
/// [`Engine::span_label_id`]) hashes the string once; opening a span by
/// id afterwards is a plain vector push. Ids are engine-local.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct SpanLabelId(u32);

/// Identifies a serializing resource (an interconnect link port, a DMA
/// engine, a NIC).
///
/// A resource is busy until some instant; acquiring it for a span returns
/// the completion time and pushes the busy horizon forward. Concurrent
/// transfers over the same link thereby serialize, which is how the
/// simulation models bandwidth sharing.
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub(crate) usize);

/// Sentinel for "label not interned yet" (lazy interning keeps untraced
/// spawns allocation-free).
const UNSET_LABEL: u32 = u32::MAX;

/// Sentinel index for arena linked lists.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// Wake a process. The `u32` is the slot generation the wake targets;
    /// a mismatch means the slot was recycled and the wake is stale.
    Wake(ProcId, u32),
    /// A cell update. The `u32` is the index of the issuing step's
    /// [`crate::depgraph::IssueRec`] when profiling is enabled
    /// (`u32::MAX` otherwise), so a wake caused by this update can be
    /// traced back to its issuer.
    CellAdd(CellId, u64, u32),
    /// Deadline check for a blocking wait. The `u32` is the slot
    /// generation and the `u64` the blocking epoch when the check was
    /// scheduled; any mismatch means the wait completed (or the slot was
    /// recycled) and the check is stale.
    TimeoutCheck(ProcId, u32, u64),
}

/// A queued event: raw-picosecond time, global sequence, payload.
type Ev = Entry<EventKind>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Has a pending wake event in the queue.
    Scheduled,
    /// Waiting for a cell to reach a threshold.
    Blocked { cell: CellId, at_least: u64 },
    /// Finished; never stepped again.
    Done,
}

struct Slot<W> {
    proc: Option<Box<dyn Process<W>>>,
    state: ProcState,
    /// Interned label id, or [`UNSET_LABEL`] until first needed. Labels
    /// are formatted and interned lazily — at the first traced/profiled
    /// step, or when an error snapshot wants one — so a plain run never
    /// pays a per-spawn `String`.
    label_id: u32,
    /// Daemons (e.g. CPU proxy threads) may remain blocked when the queue
    /// drains without counting as deadlock.
    daemon: bool,
    /// Incremented each time the slot is recycled for a new process;
    /// stamped into [`EventKind::Wake`]/[`EventKind::TimeoutCheck`] so
    /// events aimed at a previous incarnation are discarded.
    gen: u32,
    /// Incremented every time the process blocks; lets a pending
    /// [`EventKind::TimeoutCheck`] detect that the wait it guarded has
    /// already completed. Deliberately *not* reset when the slot is
    /// recycled, as a second line of defense against stale checks.
    epoch: u64,
    /// When the current (or most recent) blocking wait began.
    blocked_at: Time,
}

/// A cell's value plus the head/tail of its waiter list in the arena.
/// Waiters append at the tail and are woken in list (i.e. block) order.
#[derive(Debug, Clone, Copy)]
struct CellSlot {
    value: u64,
    head: u32,
    tail: u32,
}

/// One blocked waiter: an intrusive singly-linked node.
#[derive(Debug, Clone, Copy)]
struct WaiterNode {
    at_least: u64,
    pid: u32,
    next: u32,
}

/// Arena for waiter nodes: blocking a process and waking it are both a
/// free-list pop/push — no per-wait allocation once the arena has grown
/// to the simulation's high-water mark of concurrent waiters.
struct WaiterArena {
    nodes: Vec<WaiterNode>,
    free: u32,
}

impl Default for WaiterArena {
    fn default() -> Self {
        WaiterArena {
            nodes: Vec::new(),
            free: NIL,
        }
    }
}

impl WaiterArena {
    fn alloc(&mut self, at_least: u64, pid: u32) -> u32 {
        let node = WaiterNode {
            at_least,
            pid,
            next: NIL,
        };
        if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("waiter arena overflow");
            self.nodes.push(node);
            idx
        }
    }

    fn release(&mut self, idx: u32) {
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
    }

    fn reset(&mut self) {
        self.nodes.clear();
        self.free = NIL;
    }
}

/// Engine internals shared with processes through [`Ctx`].
struct Core {
    now: Time,
    seq: u64,
    queue: CalendarQueue<EventKind>,
    cells: Vec<CellSlot>,
    waiters: WaiterArena,
    /// Per-resource busy-until horizon.
    resources: Vec<Time>,
    events_processed: u64,
    /// Events whose requested time was in the past and got clamped to
    /// `now` (see [`Core::push`]).
    clamped_past: u64,
    /// Counters and per-resource accounting.
    metrics: Metrics,
    /// Interned label table shared by the trace and the span stacks.
    /// Single-storage: each distinct label is owned exactly once.
    labels: Interner,
    /// Per-process stack of open explicit spans (interned label ids).
    span_stacks: Vec<Vec<u32>>,
    /// Recording sink, when tracing is enabled.
    trace: Option<Trace>,
    /// Dependency-graph recorder, when profiling is enabled.
    prof: Option<ProfState>,
    /// Deterministic fault schedule, when injection is enabled.
    faults: Option<FaultPlan>,
    /// What the current run does, while it is marked for replay
    /// ([`Engine::mark`]).
    journal: Journal,
}

impl Core {
    /// Queues an event. A request in the past is **clamped to now** (and
    /// counted — see [`Engine::clamped_past_events`]): the old
    /// `debug_assert!` left release builds free to reorder the queue
    /// behind the clock, which silently corrupts causality; clamping
    /// preserves it in every build profile.
    fn push(&mut self, time: Time, kind: EventKind) {
        let mut time = time.as_ps();
        let now = self.now.as_ps();
        if time < now {
            time = now;
            self.clamped_past += 1;
        }
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Ev {
            time,
            seq,
            payload: kind,
        });
    }

    /// Interns a label, returning its stable index. Allocates only the
    /// first time a distinct label is seen (single owned copy).
    fn intern(&mut self, label: &str) -> u32 {
        self.labels.get_or_intern(label)
    }

    fn record(&mut self, at: Time, proc_index: usize, label: u32, kind: TraceEventKind) {
        if let Some(trace) = &mut self.trace {
            trace.push(at, proc_index, label, kind);
        }
    }

    /// Whether any observer needs per-step labels and stable slot ids.
    fn observed(&self) -> bool {
        self.trace.is_some() || self.prof.is_some()
    }

    /// Adds `delta` to a counter, journaled while a run is marked.
    fn count_id(&mut self, id: CounterId, delta: u64) {
        self.metrics.inc_id(id, delta);
        self.journal.count(id, delta);
    }

    /// The clock and counts a mark starts from and a marked run ends at.
    fn state(&self) -> Mark {
        Mark {
            now: self.now,
            seq: self.seq,
            events: self.events_processed,
            clamped: self.clamped_past,
        }
    }
}

/// A process's view of the engine during a step.
///
/// Grants access to the simulation world, the virtual clock, cells, and
/// resources. See the crate-level docs for an end-to-end example.
pub struct Ctx<'a, W> {
    core: &'a mut Core,
    /// The domain state (GPU memories, topology, cost model, ...).
    pub world: &'a mut W,
    spawned: &'a mut Vec<(Box<dyn Process<W>>, bool)>,
    /// The process currently being stepped.
    pid: ProcId,
}

impl<W> Ctx<'_, W> {
    /// The current virtual instant.
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// Current value of a cell.
    pub fn cell(&self, cell: CellId) -> u64 {
        self.core.cells[cell.0].value
    }

    /// Adds `delta` to a cell immediately, waking satisfied waiters at the
    /// current instant.
    pub fn cell_add(&mut self, cell: CellId, delta: u64) {
        let at = self.core.now;
        self.cell_add_at(cell, delta, at);
    }

    /// Adds `delta` to a cell at a future instant (e.g. when a signal lands
    /// on the peer GPU after its propagation latency).
    ///
    /// An `at` in the past is clamped to the current instant (and counted
    /// in [`Engine::clamped_past_events`]): updates can never be reordered
    /// behind the clock.
    pub fn cell_add_at(&mut self, cell: CellId, delta: u64, at: Time) {
        let issue = match &mut self.core.prof {
            Some(p) => p.on_issue(self.pid.0, self.core.now, at),
            None => u32::MAX,
        };
        self.core.push(at, EventKind::CellAdd(cell, delta, issue));
    }

    /// Allocates a fresh cell with value zero.
    pub fn alloc_cell(&mut self) -> CellId {
        self.core.journal.inexact();
        self.core.cells.push(CellSlot {
            value: 0,
            head: NIL,
            tail: NIL,
        });
        CellId(self.core.cells.len() - 1)
    }

    /// Allocates a fresh resource that is free immediately.
    pub fn alloc_resource(&mut self) -> ResourceId {
        self.core.journal.inexact();
        self.core.resources.push(Time::ZERO);
        self.core.metrics.add_resource();
        ResourceId(self.core.resources.len() - 1)
    }

    /// Occupies `resource` for `busy` starting no earlier than now, and
    /// returns the completion instant.
    pub fn acquire(&mut self, resource: ResourceId, busy: Duration) -> Time {
        self.acquire_after(resource, self.core.now, busy)
    }

    /// Occupies `resource` for `busy` starting no earlier than `earliest`
    /// (and no earlier than the resource becomes free), returning the
    /// completion instant.
    ///
    /// The time spent queued behind earlier acquisitions (actual start
    /// minus `earliest`) is accumulated as the resource's queueing delay.
    pub fn acquire_after(&mut self, resource: ResourceId, earliest: Time, busy: Duration) -> Time {
        let free_at = &mut self.core.resources[resource.0];
        let prior = *free_at;
        let start = prior.max(earliest);
        let done = start + busy;
        *free_at = done;
        let queued = start - earliest;
        self.core.metrics.on_acquire(resource, busy, queued);
        let j = &mut self.core.journal;
        j.acquire(resource.0, prior, earliest, busy, queued, done);
        if let Some(p) = &mut self.core.prof {
            p.on_acquire(self.pid.0, resource.0, earliest, start, done);
        }
        done
    }

    /// The instant a resource becomes free (without occupying it).
    pub fn resource_free_at(&self, resource: ResourceId) -> Time {
        self.core.resources[resource.0]
    }

    /// Total time this resource has been occupied so far (for
    /// utilization reporting).
    pub fn resource_busy(&self, resource: ResourceId) -> Duration {
        self.core.metrics.busy(resource)
    }

    /// Attaches a diagnostic label to a resource (shown in metrics
    /// reports).
    pub fn label_resource(&mut self, resource: ResourceId, label: &str) {
        self.core.journal.inexact();
        self.core.metrics.set_label(resource, label);
    }

    /// Meters `bytes` as carried by `resource` (per-link byte accounting).
    pub fn meter_bytes(&mut self, resource: ResourceId, bytes: u64) {
        self.core.metrics.add_bytes(resource, bytes);
        self.core.journal.meter(resource.0, bytes);
    }

    /// Adds `delta` to the named metrics counter.
    pub fn count(&mut self, name: &str, delta: u64) {
        let id = self.core.metrics.counter_id(name);
        self.core.count_id(id, delta);
    }

    /// Resolves a counter name to a stable id for [`Ctx::count_id`]. Do
    /// this once per process (or per program), not per increment.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        self.core.metrics.counter_id(name)
    }

    /// Adds `delta` to a pre-resolved counter: a single array add, the
    /// form hot per-instruction accounting should use.
    pub fn count_id(&mut self, id: CounterId, delta: u64) {
        self.core.count_id(id, delta);
    }

    /// Read access to the metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// The active fault plan, if injection is enabled for this run.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.core.faults.as_ref()
    }

    /// Opens a named span for the current process. The span appears in
    /// the trace (when tracing is enabled) and on the process's span
    /// stack, which is reported by [`DeadlockError`] if the process is
    /// still blocked when the simulation stalls.
    pub fn span_begin(&mut self, label: &str) {
        let id = self.core.intern(label);
        self.core.span_stacks[self.pid.0].push(id);
        self.core
            .record(self.core.now, self.pid.0, id, TraceEventKind::SpanBegin);
    }

    /// Resolves a span label to a stable id for [`Ctx::span_begin_id`].
    /// Do this once per process (or per launch), not per wait.
    pub fn span_label_id(&mut self, label: &str) -> SpanLabelId {
        SpanLabelId(self.core.intern(label))
    }

    /// Opens a span by pre-resolved label id: a plain vector push, the
    /// form hot per-wait paths should use (no string hashing).
    pub fn span_begin_id(&mut self, id: SpanLabelId) {
        self.core.span_stacks[self.pid.0].push(id.0);
        self.core
            .record(self.core.now, self.pid.0, id.0, TraceEventKind::SpanBegin);
    }

    /// Whether tracing is enabled for this engine. Guard any per-step
    /// label formatting for [`Ctx::trace_counter`] behind this check to
    /// keep untraced runs allocation-free.
    pub fn tracing(&self) -> bool {
        self.core.trace.is_some()
    }

    /// Records a named counter sample into the trace (a Chrome `C` event:
    /// a step-function counter track in Perfetto). No-op when tracing is
    /// disabled.
    pub fn trace_counter(&mut self, name: &str, value: u64) {
        if self.core.trace.is_some() {
            let id = self.core.intern(name);
            self.core.record(
                self.core.now,
                self.pid.0,
                id,
                TraceEventKind::Counter(value),
            );
        }
    }

    /// Closes the current process's innermost open span.
    pub fn span_end(&mut self) {
        if let Some(id) = self.core.span_stacks[self.pid.0].pop() {
            self.core
                .record(self.core.now, self.pid.0, id, TraceEventKind::SpanEnd);
        } else {
            debug_assert!(false, "span_end without a matching span_begin");
        }
    }

    /// Spawns a new process that will first run at the current instant.
    pub fn spawn<P: Process<W> + 'static>(&mut self, proc: P) {
        self.spawned.push((Box::new(proc), false));
    }

    /// Spawns a daemon process (see [`Engine::spawn_daemon`]).
    pub fn spawn_daemon<P: Process<W> + 'static>(&mut self, proc: P) {
        self.spawned.push((Box::new(proc), true));
    }
}

/// A blocked process recorded in a [`DeadlockError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedProcess {
    /// The blocked process.
    pub proc: ProcId,
    /// Its diagnostic label.
    pub label: String,
    /// The cell it is waiting on.
    pub cell: CellId,
    /// The threshold it needs.
    pub needed: u64,
    /// The cell's actual value when the simulation stalled.
    pub actual: u64,
    /// The process's open [`Ctx::span_begin`] spans, outermost first —
    /// e.g. `["allreduce", "wait.mem_sem"]` — showing *what* it was doing
    /// when it stalled, not just which cell it wanted.
    pub span_stack: Vec<String>,
}

/// The simulation stalled: the event queue drained while non-daemon
/// processes were still blocked on cells that can no longer change.
///
/// This almost always indicates a bug in a communication algorithm — a
/// `wait` without a matching `signal` — exactly the class of bug the
/// paper's synchronization discussion (§2.2.2) is about.
///
/// Daemon processes (CPU proxies parked on an idle FIFO) are *not* a
/// deadlock by themselves: when only daemons remain blocked at
/// quiescence, [`Engine::run`] returns `Ok`. When a real deadlock is
/// reported, any parked daemons are listed separately in
/// [`DeadlockError::daemons`] so a proxy retrying through a fault window
/// is never misread as the culprit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockError {
    /// Every non-daemon process still blocked when the queue drained.
    pub blocked: Vec<BlockedProcess>,
    /// Daemon processes that were also parked at the stall — reported
    /// for context, but not themselves evidence of deadlock.
    pub daemons: Vec<BlockedProcess>,
    /// The virtual time at which the simulation stalled.
    pub at: Time,
}

impl fmt::Display for DeadlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "simulation deadlocked at {} with {} blocked process(es):",
            self.at,
            self.blocked.len()
        )?;
        for b in &self.blocked {
            write!(
                f,
                "  {:?} [{}] waiting for {:?} >= {} (actual {})",
                b.proc, b.label, b.cell, b.needed, b.actual
            )?;
            if b.span_stack.is_empty() {
                writeln!(f)?;
            } else {
                writeln!(f, " in {}", b.span_stack.join(" > "))?;
            }
        }
        if !self.daemons.is_empty() {
            writeln!(
                f,
                "  note: {} daemon process(es) also parked (idle daemons are not a deadlock):",
                self.daemons.len()
            )?;
            for b in &self.daemons {
                writeln!(
                    f,
                    "    {:?} [{}] waiting for {:?} >= {} (actual {})",
                    b.proc, b.label, b.cell, b.needed, b.actual
                )?;
            }
        }
        Ok(())
    }
}

impl Error for DeadlockError {}

/// A blocking wait exceeded its virtual-time deadline.
///
/// Produced either by an explicit [`Step::WaitCellTimeout`] or by the
/// plan-wide watchdog ([`FaultPlan::wait_timeout`]). Unlike
/// [`DeadlockError`], which requires the whole simulation to quiesce,
/// a timeout fires while other processes may still be making progress —
/// it is how a permanent link-down surfaces as a typed error instead of
/// a silent hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeoutError {
    /// The process whose wait timed out.
    pub proc: ProcId,
    /// Its diagnostic label.
    pub label: String,
    /// The cell it was waiting on.
    pub cell: CellId,
    /// The threshold it needed.
    pub needed: u64,
    /// The cell's actual value at the deadline.
    pub actual: u64,
    /// The virtual time at which the deadline expired.
    pub at: Time,
    /// How long the process had been blocked.
    pub waited: Duration,
    /// The process's open spans, outermost first — names *what* was being
    /// waited for (e.g. `["allreduce", "wait.port_flush"]`).
    pub span_stack: Vec<String>,
}

impl fmt::Display for TimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wait timed out at {} after {}: {:?} [{}] waiting for {:?} >= {} (actual {})",
            self.at, self.waited, self.proc, self.label, self.cell, self.needed, self.actual
        )?;
        if !self.span_stack.is_empty() {
            write!(f, " in {}", self.span_stack.join(" > "))?;
        }
        Ok(())
    }
}

impl Error for TimeoutError {}

/// Why [`Engine::run`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The queue drained with non-daemon processes still blocked.
    Deadlock(DeadlockError),
    /// A blocking wait exceeded its deadline.
    Timeout(TimeoutError),
}

impl SimError {
    /// The inner deadlock, if that is what happened.
    pub fn as_deadlock(&self) -> Option<&DeadlockError> {
        match self {
            SimError::Deadlock(e) => Some(e),
            SimError::Timeout(_) => None,
        }
    }

    /// The inner timeout, if that is what happened.
    pub fn as_timeout(&self) -> Option<&TimeoutError> {
        match self {
            SimError::Timeout(e) => Some(e),
            SimError::Deadlock(_) => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(e) => e.fmt(f),
            SimError::Timeout(e) => e.fmt(f),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Deadlock(e) => Some(e),
            SimError::Timeout(e) => Some(e),
        }
    }
}

impl From<DeadlockError> for SimError {
    fn from(e: DeadlockError) -> SimError {
        SimError::Deadlock(e)
    }
}

impl From<TimeoutError> for SimError {
    fn from(e: TimeoutError) -> SimError {
        SimError::Timeout(e)
    }
}

/// The deterministic discrete-event engine.
///
/// Owns the virtual clock, the event queue, all processes, cells, and
/// resources, plus the domain world `W`. Construct with [`Engine::new`],
/// add processes with [`Engine::spawn`], then call [`Engine::run`].
///
/// Determinism: events are ordered by `(time, insertion sequence)`; no
/// wall-clock time or hash-iteration order influences scheduling, so a
/// given program always produces identical timings and world state.
pub struct Engine<W> {
    core: Core,
    world: W,
    processes: Vec<Slot<W>>,
    /// Recycled slot indices, usable while neither tracing nor profiling
    /// is enabled (observers key per-process state by slot index, so
    /// identity must be stable under observation).
    free_slots: Vec<u32>,
    /// Process-unique identity, stamped into every [`RunEffect`] taken
    /// here so that it replays on this engine only.
    id: u64,
    /// Runs applied by [`Engine::replay`].
    replayed: u64,
}

/// The next [`Engine`] identity.
static NEXT_ENGINE: AtomicU64 = AtomicU64::new(0);

impl<W: fmt::Debug> fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.core.now)
            .field("processes", &self.processes.len())
            .field("cells", &self.core.cells.len())
            .field("resources", &self.core.resources.len())
            .field("events_processed", &self.core.events_processed)
            .finish_non_exhaustive()
    }
}

impl<W> Engine<W> {
    /// Creates an engine at time zero wrapping the given world.
    pub fn new(world: W) -> Engine<W> {
        Engine {
            core: Core {
                now: Time::ZERO,
                seq: 0,
                queue: CalendarQueue::default(),
                cells: Vec::new(),
                waiters: WaiterArena::default(),
                resources: Vec::new(),
                events_processed: 0,
                clamped_past: 0,
                metrics: Metrics::default(),
                labels: Interner::default(),
                span_stacks: Vec::new(),
                trace: None,
                prof: None,
                faults: None,
                journal: Journal::default(),
            },
            world,
            processes: Vec::new(),
            free_slots: Vec::new(),
            id: NEXT_ENGINE.fetch_add(1, Ordering::Relaxed),
            replayed: 0,
        }
    }

    /// Starts recording an execution [`Trace`] (paired begin/end events
    /// per process step plus explicit spans). Call [`Engine::take_trace`]
    /// to retrieve it.
    ///
    /// Enabling tracing also stops process-slot recycling: trace tracks
    /// are keyed by slot index, so indices must be stable from here on.
    pub fn enable_tracing(&mut self) {
        if self.core.trace.is_none() {
            self.core.trace = Some(Trace::default());
            self.free_slots.clear();
            // Spans opened before tracing began get a synthetic begin, so
            // their eventual ends (possibly recorded by an abort) balance.
            self.reopen_live_spans();
        }
    }

    /// Takes the recorded trace (if tracing was enabled), leaving a fresh
    /// empty trace in place so recording continues. The returned trace
    /// carries a snapshot of the label table; interned ids remain valid
    /// across takes because the table is append-only.
    ///
    /// Spans still open at take time (e.g. a daemon parked inside a wait
    /// span) are re-opened in the fresh trace with a synthetic
    /// `SpanBegin` at the current instant, so every trace segment is
    /// self-balanced: a later teardown's `SpanEnd` never lands in a
    /// segment missing its begin.
    pub fn take_trace(&mut self) -> Option<Trace> {
        let labels = self.core.labels.strings().to_vec();
        let taken = self.core.trace.as_mut().map(std::mem::take).map(|mut t| {
            t.labels = labels;
            t
        });
        if taken.is_some() {
            self.reopen_live_spans();
        }
        taken
    }

    /// Records a synthetic `SpanBegin` for every span currently open on a
    /// live process, anchoring them in the current (fresh) trace segment.
    fn reopen_live_spans(&mut self) {
        let now = self.core.now;
        for (i, stack) in self.core.span_stacks.iter().enumerate() {
            if self.processes[i].state == ProcState::Done {
                continue;
            }
            for &id in stack {
                if let Some(trace) = &mut self.core.trace {
                    trace.push(now, i, id, TraceEventKind::SpanBegin);
                }
            }
        }
    }

    /// Starts recording the execution dependency graph (one node per
    /// process step, with wake causes, spawn edges, and resource grants).
    /// Call [`Engine::take_dep_graph`] to retrieve it. Enable before
    /// spawning the work to profile: steps executed earlier are not
    /// recorded.
    ///
    /// Enabling profiling also stops process-slot recycling: the recorder
    /// keys per-process state by slot index.
    pub fn enable_profiling(&mut self) {
        if self.core.prof.is_none() {
            let mut p = ProfState::default();
            for _ in 0..self.processes.len() {
                p.on_spawn(None);
            }
            self.core.prof = Some(p);
            self.free_slots.clear();
        }
    }

    /// Takes the recorded dependency graph (if profiling was enabled),
    /// leaving a fresh recorder in place so recording continues. The
    /// graph carries snapshots of the process-label table and the
    /// resource labels.
    pub fn take_dep_graph(&mut self) -> Option<DepGraph> {
        let prof = self.core.prof.as_mut()?;
        let mut fresh = ProfState::default();
        for _ in 0..self.processes.len() {
            fresh.on_spawn(None);
        }
        let old = std::mem::replace(prof, fresh);
        Some(DepGraph {
            nodes: old.nodes,
            issues: old.issues,
            labels: self.core.labels.strings().to_vec(),
            resource_labels: self
                .core
                .metrics
                .resources()
                .into_iter()
                .map(|s| s.label)
                .collect(),
        })
    }

    /// Read access to the metrics registry (counters + per-resource
    /// accounting).
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Attaches a deterministic fault schedule. Install the plan before
    /// building communicators: setup code derives retry-jitter seeds from
    /// it, and collective planning consults its permanent outages.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.core.journal.inexact();
        self.core.faults = Some(plan);
    }

    /// Removes the fault schedule, if any, and returns it.
    pub fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.core.faults.take()
    }

    /// The active fault plan, if injection is enabled.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.core.faults.as_ref()
    }

    /// Tears down all outstanding work after a failed run: drops every
    /// unfinished process, clears the event queue and waiter lists, and
    /// *closes* every open span at the abort instant so a post-mortem
    /// trace is well-formed Chrome JSON. Resource busy horizons are
    /// clamped to now and the cancelled overhang is subtracted from
    /// [`Metrics`], so an aborted run's utilization reflects only work
    /// that actually happened. The clock, cells, and metrics are kept
    /// for post-mortem inspection, and the engine accepts new spawns
    /// again — this is the clean abort path after a
    /// [`SimError::Timeout`].
    pub fn abort(&mut self) {
        // Drops the mark, if any: an aborted run is not replayable.
        self.core.journal.end(self.id, self.core.state(), false);
        self.core.queue.clear();
        self.core.waiters.reset();
        for c in &mut self.core.cells {
            c.head = NIL;
            c.tail = NIL;
        }
        let now = self.core.now;
        let recycle = !self.core.observed();
        for (i, slot) in self.processes.iter_mut().enumerate() {
            if slot.state != ProcState::Done {
                slot.state = ProcState::Done;
                slot.proc = None;
                if recycle {
                    self.free_slots.push(i as u32);
                }
            }
            // Close open spans innermost-first so the trace balances.
            while let Some(id) = self.core.span_stacks[i].pop() {
                self.core.record(now, i, id, TraceEventKind::SpanEnd);
            }
        }
        for r in 0..self.core.resources.len() {
            let horizon = self.core.resources[r];
            if horizon > now {
                self.core.metrics.cancel_busy(ResourceId(r), horizon - now);
                self.core.resources[r] = now;
            }
        }
    }

    /// Exclusive access to the metrics registry (e.g. for counters
    /// incremented outside any process step).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Adds `delta` to the named metrics counter.
    pub fn count(&mut self, name: &str, delta: u64) {
        let id = self.core.metrics.counter_id(name);
        self.core.count_id(id, delta);
    }

    /// Resolves a span label to a stable id for [`Ctx::span_begin_id`]
    /// ahead of a run (e.g. once per launch batch).
    pub fn span_label_id(&mut self, label: &str) -> SpanLabelId {
        SpanLabelId(self.core.intern(label))
    }

    /// Resolves a counter name to a stable id for [`Ctx::count_id`]
    /// ahead of a run.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        self.core.metrics.counter_id(name)
    }

    /// Attaches a diagnostic label to a resource.
    pub fn label_resource(&mut self, resource: ResourceId, label: &str) {
        self.core.journal.inexact();
        self.core.metrics.set_label(resource, label);
    }

    /// Whether tracing is enabled (see [`Ctx::tracing`]). Guard label
    /// formatting for [`Engine::trace_counter_at`] behind this check.
    pub fn tracing(&self) -> bool {
        self.core.trace.is_some()
    }

    /// Records a named counter sample into the trace at an explicit
    /// instant, from *outside* any process step — the injection point for
    /// drivers that keep their own clock (e.g. a serving scheduler
    /// stamping `serve.*` gauges at its serving-clock time). `at` may be
    /// ahead of the engine clock; the trace stores instants verbatim.
    /// No-op when tracing is disabled.
    pub fn trace_counter_at(&mut self, name: &str, value: u64, at: Time) {
        if self.core.trace.is_some() {
            let id = self.core.intern(name);
            self.core.record(at, 0, id, TraceEventKind::Counter(value));
        }
    }

    /// The current virtual instant.
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// Total events processed so far (a proxy for simulation effort):
    /// the events simulated, plus those of every run applied by
    /// [`Engine::replay`], so the count is the same whether a run was
    /// simulated or replayed.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// How many runs [`Engine::replay`] has applied instead of
    /// simulating them.
    pub fn replayed_runs(&self) -> u64 {
        self.replayed
    }

    /// How many event pushes requested a past instant and were clamped to
    /// the then-current time. Normally zero; a nonzero value flags a cost
    /// model or process emitting events behind the clock.
    pub fn clamped_past_events(&self) -> u64 {
        self.core.clamped_past
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the engine and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Allocates a fresh cell with value zero.
    pub fn alloc_cell(&mut self) -> CellId {
        self.core.journal.inexact();
        self.core.cells.push(CellSlot {
            value: 0,
            head: NIL,
            tail: NIL,
        });
        CellId(self.core.cells.len() - 1)
    }

    /// Current value of a cell.
    pub fn cell(&self, cell: CellId) -> u64 {
        self.core.cells[cell.0].value
    }

    /// Allocates a fresh resource that is free immediately.
    pub fn alloc_resource(&mut self) -> ResourceId {
        self.core.journal.inexact();
        self.core.resources.push(Time::ZERO);
        self.core.metrics.add_resource();
        ResourceId(self.core.resources.len() - 1)
    }

    /// Total time a resource has been occupied (for utilization reports).
    pub fn resource_busy(&self, resource: ResourceId) -> Duration {
        self.core.metrics.busy(resource)
    }

    /// Spawns a process; it will first run at the current instant.
    pub fn spawn<P: Process<W> + 'static>(&mut self, proc: P) -> ProcId {
        self.spawn_boxed(Box::new(proc), false, None)
    }

    /// Spawns a *daemon* process: a long-lived server (such as a CPU proxy
    /// thread draining a port-channel FIFO) that is allowed to remain
    /// blocked when the rest of the simulation quiesces. [`Engine::run`]
    /// returns `Ok` with daemons still blocked; they wake again if a later
    /// batch of processes satisfies their condition.
    pub fn spawn_daemon<P: Process<W> + 'static>(&mut self, proc: P) -> ProcId {
        self.spawn_boxed(Box::new(proc), true, None)
    }

    fn spawn_boxed(
        &mut self,
        proc: Box<dyn Process<W>>,
        daemon: bool,
        origin: Option<u32>,
    ) -> ProcId {
        if !self.core.observed() {
            if let Some(i) = self.free_slots.pop() {
                self.core.journal.spawn(i);
                let slot = &mut self.processes[i as usize];
                slot.proc = Some(proc);
                slot.state = ProcState::Scheduled;
                slot.label_id = UNSET_LABEL;
                slot.daemon = daemon;
                slot.gen = slot.gen.wrapping_add(1);
                // `epoch` deliberately persists across incarnations.
                slot.blocked_at = self.core.now;
                let gen = slot.gen;
                self.core.span_stacks[i as usize].clear();
                let id = ProcId(i as usize);
                self.core.push(self.core.now, EventKind::Wake(id, gen));
                return id;
            }
        }
        let id = ProcId(self.processes.len());
        self.core.journal.spawn(id.0 as u32);
        self.core.span_stacks.push(Vec::new());
        if let Some(p) = &mut self.core.prof {
            p.on_spawn(origin);
        }
        self.processes.push(Slot {
            proc: Some(proc),
            state: ProcState::Scheduled,
            label_id: UNSET_LABEL,
            daemon,
            gen: 0,
            epoch: 0,
            blocked_at: self.core.now,
        });
        self.core.push(self.core.now, EventKind::Wake(id, 0));
        id
    }

    /// A blocked process's diagnostic label, resolved lazily: the interned
    /// id if one exists, otherwise formatted from the process itself.
    /// Labels are only materialized on error paths and under observation,
    /// never on plain spawns.
    fn label_of(&self, i: usize) -> String {
        let slot = &self.processes[i];
        if slot.label_id != UNSET_LABEL {
            return self.core.labels.resolve(slot.label_id).to_owned();
        }
        slot.proc
            .as_ref()
            .map_or_else(|| "<finished process>".to_owned(), |p| p.label())
    }

    fn snapshot_blocked(&self, i: usize, cell: CellId, at_least: u64) -> BlockedProcess {
        BlockedProcess {
            proc: ProcId(i),
            label: self.label_of(i),
            cell,
            needed: at_least,
            actual: self.core.cells[cell.0].value,
            span_stack: self.core.span_stacks[i]
                .iter()
                .map(|&id| self.core.labels.resolve(id).to_owned())
                .collect(),
        }
    }

    /// Runs until every process is done and the event queue is empty.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the queue drains while non-daemon
    /// processes are still blocked — i.e. a `wait` that can never be
    /// satisfied — and [`SimError::Timeout`] if a blocking wait outlives
    /// its deadline (an explicit [`Step::WaitCellTimeout`] or the fault
    /// plan's watchdog). After a timeout, call [`Engine::abort`] before
    /// reusing the engine.
    pub fn run(&mut self) -> Result<(), SimError> {
        let mut spawned: Vec<(Box<dyn Process<W>>, bool)> = Vec::new();
        while let Some(ev) = self.core.queue.pop() {
            debug_assert!(ev.time >= self.core.now.as_ps(), "time went backwards");
            if let EventKind::TimeoutCheck(pid, gen, epoch) = ev.payload {
                let slot = &self.processes[pid.0];
                let fired = slot.gen == gen
                    && slot.epoch == epoch
                    && matches!(slot.state, ProcState::Blocked { .. });
                if !fired {
                    // Stale check: the guarded wait completed (or the slot
                    // was recycled). Crucially the clock is NOT advanced,
                    // so an unused deadline leaves no trace on a healthy
                    // run's timings.
                    continue;
                }
                self.core.now = Time::from_ps(ev.time);
                self.core.events_processed += 1;
                let ProcState::Blocked { cell, at_least } = slot.state else {
                    unreachable!("fired timeout check on non-blocked process");
                };
                let waited = self.core.now - slot.blocked_at;
                let mut err = self.snapshot_blocked(pid.0, cell, at_least);
                return Err(SimError::Timeout(TimeoutError {
                    proc: err.proc,
                    label: std::mem::take(&mut err.label),
                    cell,
                    needed: at_least,
                    actual: err.actual,
                    at: self.core.now,
                    waited,
                    span_stack: std::mem::take(&mut err.span_stack),
                }));
            }
            self.core.now = Time::from_ps(ev.time);
            self.core.events_processed += 1;
            match ev.payload {
                EventKind::TimeoutCheck(..) => unreachable!("handled above"),
                EventKind::Wake(pid, gen) => {
                    let slot = &mut self.processes[pid.0];
                    if slot.gen != gen || slot.state != ProcState::Scheduled {
                        continue; // stale wake
                    }
                    let mut proc = slot.proc.take().expect("scheduled process missing body");
                    let label_id = if self.core.trace.is_some() || self.core.prof.is_some() {
                        if slot.label_id == UNSET_LABEL {
                            slot.label_id = self.core.labels.get_or_intern(&proc.label());
                        }
                        slot.label_id
                    } else {
                        UNSET_LABEL
                    };
                    self.core
                        .record(self.core.now, pid.0, label_id, TraceEventKind::StepBegin);
                    if let Some(p) = &mut self.core.prof {
                        p.open_node(pid.0, label_id, self.core.now);
                    }
                    let step = {
                        let mut ctx = Ctx {
                            core: &mut self.core,
                            world: &mut self.world,
                            spawned: &mut spawned,
                            pid,
                        };
                        proc.step(&mut ctx)
                    };
                    // The node that just ran is the spawn origin of any
                    // processes its step created.
                    let origin = self.core.prof.as_ref().and_then(|p| p.open_of(pid.0));
                    let step_end = match step {
                        // The step's busy window covers the yield span.
                        Step::Yield(d) => self.core.now + d,
                        _ => self.core.now,
                    };
                    if let Some(p) = &mut self.core.prof {
                        p.close_node(pid.0, step_end);
                    }
                    let slot = &mut self.processes[pid.0];
                    match step {
                        Step::Yield(d) => {
                            slot.proc = Some(proc);
                            slot.state = ProcState::Scheduled;
                            self.core.push(self.core.now + d, EventKind::Wake(pid, gen));
                            self.core.record(
                                self.core.now + d,
                                pid.0,
                                label_id,
                                TraceEventKind::StepEnd,
                            );
                        }
                        Step::WaitCell { cell, at_least }
                        | Step::WaitCellTimeout { cell, at_least, .. } => {
                            slot.proc = Some(proc);
                            self.core.record(
                                self.core.now,
                                pid.0,
                                label_id,
                                TraceEventKind::StepEnd,
                            );
                            if self.core.cells[cell.0].value >= at_least {
                                slot.state = ProcState::Scheduled;
                                self.core.push(self.core.now, EventKind::Wake(pid, gen));
                            } else {
                                slot.state = ProcState::Blocked { cell, at_least };
                                slot.epoch += 1;
                                slot.blocked_at = self.core.now;
                                let node = self.core.waiters.alloc(at_least, pid.0 as u32);
                                let c = &mut self.core.cells[cell.0];
                                if c.tail == NIL {
                                    c.head = node;
                                } else {
                                    self.core.waiters.nodes[c.tail as usize].next = node;
                                }
                                self.core.cells[cell.0].tail = node;
                                // Effective deadline: the step's own, and/or
                                // the plan watchdog (non-daemons only —
                                // daemons legitimately park on idle FIFOs).
                                let slot = &self.processes[pid.0];
                                let explicit = match step {
                                    Step::WaitCellTimeout { timeout, .. } => Some(timeout),
                                    _ => None,
                                };
                                let watchdog = if slot.daemon {
                                    None
                                } else {
                                    self.core.faults.as_ref().and_then(|p| p.wait_timeout)
                                };
                                let deadline = match (explicit, watchdog) {
                                    (Some(a), Some(b)) => Some(a.min(b)),
                                    (a, b) => a.or(b),
                                };
                                if let Some(d) = deadline {
                                    let epoch = slot.epoch;
                                    self.core.push(
                                        self.core.now + d,
                                        EventKind::TimeoutCheck(pid, gen, epoch),
                                    );
                                }
                            }
                        }
                        Step::Done => {
                            slot.state = ProcState::Done;
                            self.core.record(
                                self.core.now,
                                pid.0,
                                label_id,
                                TraceEventKind::StepEnd,
                            );
                            // proc dropped here; the slot becomes
                            // recyclable unless an observer pins indices.
                            drop(proc);
                            if !self.core.observed() {
                                self.core.span_stacks[pid.0].clear();
                                self.free_slots.push(pid.0 as u32);
                                self.core.journal.finish(pid.0 as u32);
                            }
                        }
                    }
                    for (p, daemon) in spawned.drain(..) {
                        self.spawn_boxed(p, daemon, origin);
                    }
                }
                EventKind::CellAdd(cell, delta, issue) => {
                    let c = cell.0;
                    self.core.cells[c].value += delta;
                    self.core.journal.cell_add(c, delta);
                    let value = self.core.cells[c].value;
                    // Walk the waiter list in block (FIFO) order, waking
                    // and unlinking every satisfied waiter.
                    let mut prev = NIL;
                    let mut cur = self.core.cells[c].head;
                    while cur != NIL {
                        let node = self.core.waiters.nodes[cur as usize];
                        if node.at_least <= value {
                            if prev == NIL {
                                self.core.cells[c].head = node.next;
                            } else {
                                self.core.waiters.nodes[prev as usize].next = node.next;
                            }
                            if self.core.cells[c].tail == cur {
                                self.core.cells[c].tail = prev;
                            }
                            self.core.waiters.release(cur);
                            let pid = node.pid as usize;
                            let slot = &mut self.processes[pid];
                            slot.state = ProcState::Scheduled;
                            let gen = slot.gen;
                            if let Some(p) = &mut self.core.prof {
                                p.on_signal_wake(pid, issue);
                            }
                            self.core
                                .push(self.core.now, EventKind::Wake(ProcId(pid), gen));
                        } else {
                            prev = cur;
                        }
                        cur = node.next;
                    }
                }
            }
        }
        // First pass collects indices only: parked daemons at quiescence are
        // the normal idle state of proxy threads, and snapshotting them
        // (label format + span-stack clone) must not tax the success path.
        let mut blocked_idx = Vec::new();
        let mut daemon_idx = Vec::new();
        for (i, s) in self.processes.iter().enumerate() {
            if matches!(s.state, ProcState::Blocked { .. }) {
                if s.daemon {
                    daemon_idx.push(i);
                } else {
                    blocked_idx.push(i);
                }
            }
        }
        if blocked_idx.is_empty() {
            Ok(())
        } else {
            let snap = |i: usize| {
                let ProcState::Blocked { cell, at_least } = self.processes[i].state else {
                    unreachable!("index collected from a blocked slot");
                };
                self.snapshot_blocked(i, cell, at_least)
            };
            Err(SimError::Deadlock(DeadlockError {
                blocked: blocked_idx.iter().map(|&i| snap(i)).collect(),
                daemons: daemon_idx.iter().map(|&i| snap(i)).collect(),
                at: self.core.now,
            }))
        }
    }
}

/// Launch replay (DESIGN.md §13, "Launch replay"): a run that starts on
/// a quiescent, unobserved engine without a fault plan, and that finds
/// every resource it acquires idle, is determined by its processes and
/// by state relative to its start. Its effect can then be journaled once
/// and applied again from the same relative state.
impl<W> Engine<W> {
    /// Whether a run starting now could be journaled or replayed: nothing
    /// observes the engine, no fault plan is installed, no run is marked,
    /// the queue is empty and no process is alive, daemons included (an
    /// unobserved engine recycles every finished slot, so all are free).
    fn quiescent(&self) -> bool {
        self.settled() && !self.core.journal.marked()
    }

    /// [`Engine::quiescent`], whether or not a run is marked.
    fn settled(&self) -> bool {
        !self.core.observed()
            && self.core.faults.is_none()
            && self.core.queue.is_empty()
            && self.free_slots.len() == self.processes.len()
    }

    /// Marks the start of a run whose effect [`Engine::take_effect`] is to
    /// return. From here until then the engine journals every cell update,
    /// resource acquisition, metered byte, counter increment, spawn and
    /// finish, which costs what the run touches. Returns `false`, and
    /// journals nothing, unless the engine is quiescent, unobserved and
    /// without a fault plan. [`Engine::abort`] drops the mark.
    ///
    /// The journal sees only the engine: changes a run makes to the world
    /// `W`, and counter increments made through [`Engine::metrics_mut`],
    /// are the caller's to record.
    pub fn mark(&mut self) -> bool {
        if !self.quiescent() {
            return false;
        }
        let start = self.core.state();
        self.core.journal.begin(start);
        true
    }

    /// Ends the mark and returns the effect of what ran since
    /// [`Engine::mark`], relative to the mark. `None` if nothing was
    /// marked, or if the run cannot be replayed exactly: it left work
    /// queued or processes alive, came under observation or a fault plan,
    /// allocated cells or resources, asked for a resource from before the
    /// mark, or acquired a resource that was still busy at the mark.
    pub fn take_effect(&mut self) -> Option<RunEffect> {
        let (end, exact) = (self.core.state(), self.settled());
        self.core.journal.end(self.id, end, exact)
    }

    /// Applies a run's recorded effect instead of simulating the run
    /// again, and returns the instant it starts from (the current one).
    ///
    /// Replays only when every condition holds: the effect was taken on
    /// this engine, the engine is quiescent, unobserved and without a
    /// fault plan (as for [`Engine::mark`]), and every resource the run
    /// acquired is idle now. Otherwise it changes nothing and returns
    /// `None`, and the caller simulates the run. The caller also owns the
    /// conditions this engine cannot see: that the processes it would have
    /// spawned behave as the recorded ones did from the cells' current
    /// values, and that it applies their changes to the world `W`.
    ///
    /// A replay advances the clock, adds every cell, counter and resource
    /// delta, sets the acquired resources' busy horizons, counts the run's
    /// events, sequence numbers and clamps, and recycles process slots in
    /// the order the run finished them, so every observable equals a
    /// simulated run's. Cells have no waiters at quiescence, so nothing is
    /// woken. Slot generations and epochs guard queued events only, and a
    /// quiescent engine has none, so they are left as they are.
    pub fn replay(&mut self, effect: &RunEffect) -> Option<Time> {
        let now = self.core.now;
        if effect.engine != self.id
            || !self.quiescent()
            || self.free_slots.len() < effect.finish_order.len()
            || effect
                .resources
                .iter()
                .any(|r| r.horizon.is_some() && self.core.resources[r.id.0] > now)
        {
            return None;
        }
        let core = &mut self.core;
        for &(cell, delta) in &effect.cells {
            core.cells[cell.0].value += delta;
        }
        for r in &effect.resources {
            core.metrics
                .on_replay(r.id, r.busy, r.bytes, r.acquires, r.queue_delay);
            if let Some(h) = r.horizon {
                core.resources[r.id.0] = now + h;
            }
        }
        for &(id, delta) in &effect.counters {
            core.metrics.inc_id(id, delta);
        }
        core.now = now + effect.advance;
        core.seq += effect.seq;
        core.events_processed += effect.events;
        core.clamped_past += effect.clamped;
        core.queue.set_horizon(core.now.as_ps());
        // Spawn `k` took the `k`-th slot popped; finishing pushed it back.
        let base = self.free_slots.len() - effect.finish_order.len();
        let popped: Vec<u32> = self.free_slots.drain(base..).rev().collect();
        self.free_slots
            .extend(effect.finish_order.iter().map(|&k| popped[k as usize]));
        self.replayed += 1;
        Some(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::WakeCause;

    /// Two processes: a producer signalling a cell after 100ns, and a
    /// consumer blocked on it.
    #[test]
    fn producer_consumer_wakeup() {
        struct Producer {
            cell: CellId,
            fired: bool,
        }
        impl Process<Vec<&'static str>> for Producer {
            fn step(&mut self, ctx: &mut Ctx<'_, Vec<&'static str>>) -> Step {
                if self.fired {
                    ctx.world.push("produced");
                    ctx.cell_add(self.cell, 1);
                    return Step::Done;
                }
                self.fired = true;
                Step::Yield(Duration::from_ns(100.0))
            }
        }
        struct Consumer {
            cell: CellId,
            waited: bool,
        }
        impl Process<Vec<&'static str>> for Consumer {
            fn step(&mut self, ctx: &mut Ctx<'_, Vec<&'static str>>) -> Step {
                if self.waited {
                    ctx.world.push("consumed");
                    return Step::Done;
                }
                self.waited = true;
                Step::WaitCell {
                    cell: self.cell,
                    at_least: 1,
                }
            }
        }

        let mut e = Engine::new(Vec::new());
        let cell = e.alloc_cell();
        e.spawn(Consumer {
            cell,
            waited: false,
        });
        e.spawn(Producer { cell, fired: false });
        e.run().unwrap();
        assert_eq!(*e.world(), vec!["produced", "consumed"]);
        assert_eq!(e.now().as_ns(), 100.0);
    }

    #[test]
    fn deadlock_is_reported_with_diagnostics() {
        struct Stuck {
            cell: CellId,
        }
        impl Process<()> for Stuck {
            fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step {
                Step::WaitCell {
                    cell: self.cell,
                    at_least: 7,
                }
            }
            fn label(&self) -> String {
                "stuck-waiter".to_owned()
            }
        }
        let mut e = Engine::new(());
        let cell = e.alloc_cell();
        e.spawn(Stuck { cell });
        let err = e.run().unwrap_err();
        let dead = err.as_deadlock().expect("quiescent stall is a deadlock");
        assert_eq!(dead.blocked.len(), 1);
        assert_eq!(dead.blocked[0].needed, 7);
        assert_eq!(dead.blocked[0].actual, 0);
        assert!(err.to_string().contains("stuck-waiter"));
    }

    #[test]
    fn deadlock_reports_open_span_stack() {
        struct Stuck {
            cell: CellId,
        }
        impl Process<()> for Stuck {
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
                ctx.span_begin("allreduce");
                ctx.span_begin("wait.mem_sem");
                Step::WaitCell {
                    cell: self.cell,
                    at_least: 1,
                }
            }
            fn label(&self) -> String {
                "tb r0 b0".to_owned()
            }
        }
        let mut e = Engine::new(());
        let cell = e.alloc_cell();
        e.spawn(Stuck { cell });
        let err = e.run().unwrap_err();
        let dead = err.as_deadlock().expect("deadlock");
        assert_eq!(
            dead.blocked[0].span_stack,
            vec!["allreduce", "wait.mem_sem"]
        );
        assert!(err.to_string().contains("in allreduce > wait.mem_sem"));
    }

    #[test]
    fn abort_closes_spans_and_flushes_busy_time() {
        struct Stuck {
            cell: CellId,
            res: ResourceId,
        }
        impl Process<()> for Stuck {
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
                ctx.span_begin("allreduce");
                ctx.span_begin("wait.mem_sem");
                // Book the resource far beyond the abort instant; the
                // overhang must be refunded when the run is killed.
                ctx.acquire(self.res, Duration::from_us(1000.0));
                Step::WaitCell {
                    cell: self.cell,
                    at_least: 1,
                }
            }
            fn label(&self) -> String {
                "tb r0 b0".to_owned()
            }
        }
        let mut e = Engine::new(());
        e.enable_tracing();
        let cell = e.alloc_cell();
        let res = e.alloc_resource();
        e.spawn(Stuck { cell, res });
        e.run().unwrap_err();
        e.abort();
        // Post-mortem trace is balanced: every SpanBegin has a SpanEnd.
        let trace = e.take_trace().expect("tracing enabled");
        assert_eq!(trace.unmatched_begins(), 0);
        let json = trace.to_chrome_json(&[]);
        assert_eq!(json.matches("\"ph\":\"b\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"e\"").count(), 2);
        // Busy time past the abort instant is refunded: nothing beyond
        // the virtual clock can have actually happened.
        assert!(e.metrics().busy(res) <= e.now() - Time::ZERO);
        // The engine accepts new work after the teardown.
        e.spawn(Stuck { cell, res });
    }

    #[test]
    fn metrics_track_queue_delay_bytes_and_counters() {
        struct Xfer {
            res: ResourceId,
        }
        impl Process<()> for Xfer {
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
                ctx.acquire(self.res, Duration::from_ns(10.0));
                ctx.meter_bytes(self.res, 128);
                ctx.count("ops.puts", 1);
                Step::Done
            }
        }
        let mut e = Engine::new(());
        let res = e.alloc_resource();
        e.label_resource(res, "egress r0");
        e.spawn(Xfer { res });
        e.spawn(Xfer { res });
        e.run().unwrap();
        let s = e.metrics().resource(res);
        assert_eq!(s.label, "egress r0");
        assert_eq!(s.busy.as_ns(), 20.0);
        assert_eq!(s.bytes, 256);
        assert_eq!(s.acquires, 2);
        // The second acquisition at t=0 queued behind the first for 10ns.
        assert_eq!(s.queue_delay.as_ns(), 10.0);
        assert_eq!(e.metrics().counter("ops.puts"), 2);
    }

    /// Two writers contending for one link: the sum of busy time and
    /// queueing delay decomposes exactly to the makespan. This identity
    /// is load-bearing for critical-path blame buckets (`link-busy` +
    /// `link-queue` must tile a contended link's timeline with no gap
    /// and no overlap).
    #[test]
    fn two_writers_one_link_busy_plus_queue_decompose_to_makespan() {
        struct Writer {
            res: ResourceId,
            busy: Duration,
            out: usize,
        }
        impl Process<Vec<Time>> for Writer {
            fn step(&mut self, ctx: &mut Ctx<'_, Vec<Time>>) -> Step {
                let done = ctx.acquire(self.res, self.busy);
                ctx.world[self.out] = done;
                Step::Done
            }
        }
        let mut e = Engine::new(vec![Time::ZERO; 2]);
        let res = e.alloc_resource();
        e.spawn(Writer {
            res,
            busy: Duration::from_ns(10.0),
            out: 0,
        });
        e.spawn(Writer {
            res,
            busy: Duration::from_ns(15.0),
            out: 1,
        });
        e.run().unwrap();
        let makespan = e.world()[1] - Time::ZERO;
        assert_eq!(makespan.as_ns(), 25.0);
        let s = e.metrics().resource(res);
        // Both writers requested t=0, so the link never idled: its total
        // busy time IS the makespan, exactly (picosecond equality).
        assert_eq!(s.busy, makespan);
        // The second writer queued for exactly the first one's busy time,
        // and its completion decomposes as queue-delay + own busy.
        assert_eq!(s.queue_delay.as_ns(), 10.0);
        assert_eq!(
            e.world()[1] - Time::ZERO,
            s.queue_delay + Duration::from_ns(15.0)
        );
    }

    #[test]
    fn dep_graph_records_signal_edges_and_acquires() {
        struct Producer {
            cell: CellId,
            res: ResourceId,
        }
        impl Process<()> for Producer {
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
                // A 10ns transfer followed by a delivery 2ns after it
                // lands, as a wire put would schedule.
                let done = ctx.acquire(self.res, Duration::from_ns(10.0));
                ctx.cell_add_at(self.cell, 1, done + Duration::from_ns(2.0));
                Step::Done
            }
            fn label(&self) -> String {
                "producer".to_owned()
            }
        }
        struct Consumer {
            cell: CellId,
            waited: bool,
        }
        impl Process<()> for Consumer {
            fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step {
                if self.waited {
                    return Step::Done;
                }
                self.waited = true;
                Step::WaitCell {
                    cell: self.cell,
                    at_least: 1,
                }
            }
            fn label(&self) -> String {
                "consumer".to_owned()
            }
        }
        let mut e = Engine::new(());
        e.enable_profiling();
        let cell = e.alloc_cell();
        let res = e.alloc_resource();
        e.spawn(Consumer {
            cell,
            waited: false,
        });
        e.spawn(Producer { cell, res });
        e.run().unwrap();
        let g = e.take_dep_graph().expect("profiling enabled");
        assert!(e.take_dep_graph().is_some(), "recorder stays installed");

        // The producer's node carries the acquire.
        let prod = g
            .nodes
            .iter()
            .find(|n| g.label(n) == "producer")
            .expect("producer node");
        assert_eq!(prod.acquires.len(), 1);
        assert_eq!(prod.acquires[0].start.as_ns(), 0.0);
        assert_eq!(prod.acquires[0].done.as_ns(), 10.0);
        assert_eq!(prod.cause, WakeCause::Root);

        // The consumer's woken step carries a Signal edge back to the
        // producer's issue, with the right issue and delivery instants.
        let last = g.last_node().expect("nonempty graph");
        let woken = &g.nodes[last as usize];
        assert_eq!(g.label(woken), "consumer");
        assert_eq!(woken.begin.as_ns(), 12.0);
        let WakeCause::Signal { issue } = woken.cause else {
            panic!("expected Signal cause, got {:?}", woken.cause);
        };
        let iss = g.issues[issue as usize];
        assert_eq!(g.label(&g.nodes[iss.node as usize]), "producer");
        assert_eq!(iss.at.as_ns(), 0.0);
        assert_eq!(iss.deliver_at.as_ns(), 12.0);
        // Edges point backward: indices are a topological order.
        assert!(iss.node < last);
    }

    #[test]
    fn dep_graph_records_spawn_origin_and_seq_edges() {
        struct Parent;
        impl Process<()> for Parent {
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
                ctx.spawn(Child(false));
                Step::Done
            }
            fn label(&self) -> String {
                "parent".to_owned()
            }
        }
        struct Child(bool);
        impl Process<()> for Child {
            fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step {
                if self.0 {
                    return Step::Done;
                }
                self.0 = true;
                Step::Yield(Duration::from_ns(5.0))
            }
            fn label(&self) -> String {
                "child".to_owned()
            }
        }
        let mut e = Engine::new(());
        e.enable_profiling();
        e.spawn(Parent);
        e.run().unwrap();
        let g = e.take_dep_graph().unwrap();
        let first_child = g
            .nodes
            .iter()
            .position(|n| g.label(n) == "child")
            .expect("child node");
        let WakeCause::SpawnedBy { node } = g.nodes[first_child].cause else {
            panic!("expected SpawnedBy, got {:?}", g.nodes[first_child].cause);
        };
        assert_eq!(g.label(&g.nodes[node as usize]), "parent");
        // The child's yield window is its node's busy interval, and its
        // second step chains with a Seq edge.
        assert_eq!(g.nodes[first_child].end.as_ns(), 5.0);
        let second = &g.nodes[g.last_node().unwrap() as usize];
        assert_eq!(second.cause, WakeCause::Seq);
        assert_eq!(second.prev, Some(first_child as u32));
        assert_eq!(second.begin.as_ns(), 5.0);
    }

    #[test]
    fn resource_serializes_transfers() {
        // Two processes acquire the same 10ns resource at t=0; completions
        // must be 10ns and 20ns.
        struct Xfer {
            res: ResourceId,
            out: usize,
        }
        impl Process<Vec<Time>> for Xfer {
            fn step(&mut self, ctx: &mut Ctx<'_, Vec<Time>>) -> Step {
                let done = ctx.acquire(self.res, Duration::from_ns(10.0));
                ctx.world[self.out] = done;
                Step::Done
            }
        }
        let mut e = Engine::new(vec![Time::ZERO; 2]);
        let res = e.alloc_resource();
        e.spawn(Xfer { res, out: 0 });
        e.spawn(Xfer { res, out: 1 });
        e.run().unwrap();
        assert_eq!(e.world()[0].as_ns(), 10.0);
        assert_eq!(e.world()[1].as_ns(), 20.0);
    }

    #[test]
    fn delayed_cell_add_wakes_at_right_time() {
        struct Waiter {
            cell: CellId,
            started: bool,
        }
        impl Process<Option<Time>> for Waiter {
            fn step(&mut self, ctx: &mut Ctx<'_, Option<Time>>) -> Step {
                if self.started {
                    *ctx.world = Some(ctx.now());
                    return Step::Done;
                }
                self.started = true;
                Step::WaitCell {
                    cell: self.cell,
                    at_least: 1,
                }
            }
        }
        struct Signaller {
            cell: CellId,
        }
        impl Process<Option<Time>> for Signaller {
            fn step(&mut self, ctx: &mut Ctx<'_, Option<Time>>) -> Step {
                let at = ctx.now() + Duration::from_us(3.0);
                ctx.cell_add_at(self.cell, 1, at);
                Step::Done
            }
        }
        let mut e = Engine::new(None);
        let cell = e.alloc_cell();
        e.spawn(Waiter {
            cell,
            started: false,
        });
        e.spawn(Signaller { cell });
        e.run().unwrap();
        assert_eq!(e.world().unwrap().as_us(), 3.0);
    }

    #[test]
    fn wait_on_already_satisfied_cell_continues_immediately() {
        struct W2 {
            cell: CellId,
            phase: u8,
        }
        impl Process<u32> for W2 {
            fn step(&mut self, ctx: &mut Ctx<'_, u32>) -> Step {
                match self.phase {
                    0 => {
                        ctx.cell_add(self.cell, 5);
                        self.phase = 1;
                        Step::Yield(Duration::ZERO)
                    }
                    1 => {
                        self.phase = 2;
                        Step::WaitCell {
                            cell: self.cell,
                            at_least: 5,
                        }
                    }
                    _ => {
                        *ctx.world += 1;
                        Step::Done
                    }
                }
            }
        }
        let mut e = Engine::new(0u32);
        let cell = e.alloc_cell();
        e.spawn(W2 { cell, phase: 0 });
        e.run().unwrap();
        assert_eq!(*e.world(), 1);
        assert_eq!(e.now(), Time::ZERO);
    }

    #[test]
    fn spawned_process_runs() {
        struct Parent;
        impl Process<u32> for Parent {
            fn step(&mut self, ctx: &mut Ctx<'_, u32>) -> Step {
                ctx.spawn(|ctx: &mut Ctx<'_, u32>| {
                    *ctx.world += 10;
                    Step::Done
                });
                Step::Done
            }
        }
        let mut e = Engine::new(0u32);
        e.spawn(Parent);
        e.run().unwrap();
        assert_eq!(*e.world(), 10);
    }

    #[test]
    fn determinism_same_seed_same_order() {
        // Many processes contending on one resource; event order must be
        // identical across runs.
        fn run_once() -> Vec<u64> {
            struct P {
                res: ResourceId,
                idx: u64,
            }
            impl Process<Vec<u64>> for P {
                fn step(&mut self, ctx: &mut Ctx<'_, Vec<u64>>) -> Step {
                    let _ = ctx.acquire(self.res, Duration::from_ns(7.0));
                    ctx.world.push(self.idx);
                    Step::Done
                }
            }
            let mut e = Engine::new(Vec::new());
            let res = e.alloc_resource();
            for idx in 0..64 {
                e.spawn(P { res, idx });
            }
            e.run().unwrap();
            e.into_world()
        }
        assert_eq!(run_once(), run_once());
    }

    struct Parked {
        cell: CellId,
    }
    impl Process<()> for Parked {
        fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step {
            Step::WaitCell {
                cell: self.cell,
                at_least: 1,
            }
        }
        fn label(&self) -> String {
            "parked".to_owned()
        }
    }

    #[test]
    fn daemon_only_blocked_is_not_a_deadlock() {
        let mut e = Engine::new(());
        let cell = e.alloc_cell();
        e.spawn_daemon(Parked { cell });
        e.run().unwrap();
    }

    #[test]
    fn deadlock_lists_parked_daemons_separately() {
        let mut e = Engine::new(());
        let cell = e.alloc_cell();
        e.spawn_daemon(Parked { cell });
        e.spawn(Parked { cell });
        let err = e.run().unwrap_err();
        let dead = err.as_deadlock().expect("deadlock");
        assert_eq!(dead.blocked.len(), 1, "only the non-daemon counts");
        assert_eq!(dead.daemons.len(), 1);
        let msg = err.to_string();
        assert!(msg.contains("1 blocked process(es)"), "{msg}");
        assert!(msg.contains("daemon process(es) also parked"), "{msg}");
    }

    #[test]
    fn wait_with_deadline_times_out_with_span_stack() {
        struct Hung {
            cell: CellId,
        }
        impl Process<()> for Hung {
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
                ctx.span_begin("allreduce");
                ctx.span_begin("wait.port_flush");
                Step::WaitCellTimeout {
                    cell: self.cell,
                    at_least: 1,
                    timeout: Duration::from_us(5.0),
                }
            }
            fn label(&self) -> String {
                "tb r0 b0".to_owned()
            }
        }
        // A second process keeps the queue alive past the deadline, so the
        // timeout fires mid-simulation, not at quiescence.
        let mut e = Engine::new(());
        let cell = e.alloc_cell();
        e.spawn(Hung { cell });
        e.spawn(|_: &mut Ctx<'_, ()>| Step::Yield(Duration::from_us(100.0)));
        let err = e.run().unwrap_err();
        let t = err.as_timeout().expect("timeout, not deadlock");
        assert_eq!(t.waited, Duration::from_us(5.0));
        assert_eq!(t.at, Time::from_ps(5_000_000));
        assert_eq!(t.span_stack, vec!["allreduce", "wait.port_flush"]);
        assert!(err.to_string().contains("wait.port_flush"), "{err}");
        // Clean teardown: abort, then the engine accepts fresh work.
        e.abort();
        e.spawn(|ctx: &mut Ctx<'_, ()>| {
            let _ = ctx.now();
            Step::Done
        });
        e.run().unwrap();
    }

    #[test]
    fn satisfied_wait_leaves_no_timeout_trace() {
        // The deadline event outlives the wait; the stale check must not
        // advance the clock past the real completion time.
        struct Quick {
            cell: CellId,
            phase: u8,
        }
        impl Process<()> for Quick {
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
                match self.phase {
                    0 => {
                        self.phase = 1;
                        ctx.cell_add_at(self.cell, 1, ctx.now() + Duration::from_us(1.0));
                        Step::WaitCellTimeout {
                            cell: self.cell,
                            at_least: 1,
                            timeout: Duration::from_us(50.0),
                        }
                    }
                    _ => Step::Done,
                }
            }
        }
        let mut e = Engine::new(());
        let cell = e.alloc_cell();
        e.spawn(Quick { cell, phase: 0 });
        e.run().unwrap();
        assert_eq!(
            e.now(),
            Time::from_ps(1_000_000),
            "clock stops at completion"
        );
    }

    #[test]
    fn fault_plan_watchdog_converts_hang_to_timeout_but_spares_daemons() {
        let mut e = Engine::new(());
        e.set_fault_plan(FaultPlan::new(1).with_wait_timeout(Duration::from_us(2.0)));
        let cell = e.alloc_cell();
        e.spawn_daemon(Parked { cell });
        // Daemon alone: parked forever, watchdog does not apply.
        e.run().unwrap();
        // Non-daemon: watchdog fires.
        e.spawn(Parked { cell });
        let err = e.run().unwrap_err();
        assert!(err.as_timeout().is_some(), "expected timeout, got {err}");
    }

    #[test]
    fn engine_can_run_multiple_batches_with_persistent_clock() {
        let mut e = Engine::new(());
        e.spawn(|_: &mut Ctx<'_, ()>| Step::Yield(Duration::from_us(1.0)));
        // First batch: the closure yields once then we make it finish by
        // running until the queue drains. The closure above never
        // terminates, so use a bounded one instead.
        let mut e2 = Engine::new(0u32);
        struct Once;
        impl Process<u32> for Once {
            fn step(&mut self, ctx: &mut Ctx<'_, u32>) -> Step {
                *ctx.world += 1;
                Step::Done
            }
        }
        e2.spawn(Once);
        e2.run().unwrap();
        let t1 = e2.now();
        e2.spawn(Once);
        e2.run().unwrap();
        assert_eq!(*e2.world(), 2);
        assert!(e2.now() >= t1);
        drop(e);
    }

    /// Regression (works in release builds too, unlike the old
    /// `debug_assert!`): an event scheduled behind the clock is clamped
    /// to now instead of silently reordering the queue.
    #[test]
    fn past_scheduled_event_is_clamped_to_now() {
        struct LatePoster {
            cell: CellId,
            phase: u8,
        }
        impl Process<Option<Time>> for LatePoster {
            fn step(&mut self, ctx: &mut Ctx<'_, Option<Time>>) -> Step {
                match self.phase {
                    0 => {
                        self.phase = 1;
                        Step::Yield(Duration::from_ns(100.0))
                    }
                    _ => {
                        // The clock is at 100ns; request delivery at t=0.
                        ctx.cell_add_at(self.cell, 1, Time::ZERO);
                        Step::Done
                    }
                }
            }
        }
        struct Waiter {
            cell: CellId,
            started: bool,
        }
        impl Process<Option<Time>> for Waiter {
            fn step(&mut self, ctx: &mut Ctx<'_, Option<Time>>) -> Step {
                if self.started {
                    *ctx.world = Some(ctx.now());
                    return Step::Done;
                }
                self.started = true;
                Step::WaitCell {
                    cell: self.cell,
                    at_least: 1,
                }
            }
        }
        let mut e = Engine::new(None);
        let cell = e.alloc_cell();
        e.spawn(Waiter {
            cell,
            started: false,
        });
        e.spawn(LatePoster { cell, phase: 0 });
        e.run().unwrap();
        // The update landed at the clamp instant, not in the past, and
        // the clamp was counted.
        assert_eq!(e.world().unwrap().as_ns(), 100.0);
        assert_eq!(e.clamped_past_events(), 1);
        assert_eq!(e.now().as_ns(), 100.0, "clock never moved backwards");
    }

    /// Waiters blocked on the same cell wake in block (FIFO) order when
    /// one update satisfies them all.
    #[test]
    fn simultaneous_wakes_are_fifo_in_block_order() {
        struct Blocker {
            cell: CellId,
            tag: u8,
            waited: bool,
        }
        impl Process<Vec<u8>> for Blocker {
            fn step(&mut self, ctx: &mut Ctx<'_, Vec<u8>>) -> Step {
                if self.waited {
                    ctx.world.push(self.tag);
                    return Step::Done;
                }
                self.waited = true;
                Step::WaitCell {
                    cell: self.cell,
                    at_least: 1,
                }
            }
        }
        struct Kick {
            cell: CellId,
            phase: u8,
        }
        impl Process<Vec<u8>> for Kick {
            fn step(&mut self, ctx: &mut Ctx<'_, Vec<u8>>) -> Step {
                if self.phase == 0 {
                    self.phase = 1;
                    return Step::Yield(Duration::from_ns(10.0));
                }
                ctx.cell_add(self.cell, 1);
                Step::Done
            }
        }
        let mut e = Engine::new(Vec::new());
        let cell = e.alloc_cell();
        for tag in 0..3 {
            e.spawn(Blocker {
                cell,
                tag,
                waited: false,
            });
        }
        e.spawn(Kick { cell, phase: 0 });
        e.run().unwrap();
        assert_eq!(*e.world(), vec![0, 1, 2]);
    }

    /// Finished slots are recycled between run batches when nothing
    /// observes process identity — and never recycled once tracing or
    /// profiling pins slot indices.
    #[test]
    fn slots_recycle_only_when_unobserved() {
        struct Once;
        impl Process<()> for Once {
            fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step {
                Step::Done
            }
        }
        let mut e = Engine::new(());
        let a = e.spawn(Once);
        e.run().unwrap();
        let b = e.spawn(Once);
        assert_eq!(a, b, "finished slot is reused");
        e.run().unwrap();
        e.enable_tracing();
        let c = e.spawn(Once);
        assert_ne!(a, c, "tracing pins slot identity");
        e.run().unwrap();
        let d = e.spawn(Once);
        assert_ne!(c, d, "no recycling while tracing stays on");
    }

    /// A timeout check armed by a previous occupant of a recycled slot
    /// must never fire against the new occupant: the generation stamp
    /// (and the persistent epoch) make it stale.
    #[test]
    fn stale_timeout_check_ignores_recycled_slot() {
        struct BriefWait {
            cell: CellId,
            waited: bool,
        }
        impl Process<()> for BriefWait {
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
                if self.waited {
                    return Step::Done;
                }
                self.waited = true;
                // Long deadline; the wait is satisfied at 1us, leaving the
                // check pending in the queue.
                ctx.cell_add_at(self.cell, 1, ctx.now() + Duration::from_us(1.0));
                Step::WaitCellTimeout {
                    cell: self.cell,
                    at_least: 1,
                    timeout: Duration::from_us(50.0),
                }
            }
        }
        let mut e = Engine::new(());
        let wait_cell = e.alloc_cell();
        let never = e.alloc_cell();
        let first = e.spawn(BriefWait {
            cell: wait_cell,
            waited: false,
        });
        e.run().unwrap();
        // Recycle the finished slot for a process that blocks forever.
        let second = e.spawn(Parked { cell: never });
        assert_eq!(first, second, "precondition: the slot was recycled");
        // A long-yield bystander keeps the queue alive past the stale
        // check's deadline; the check must not convert the parked process
        // into a bogus timeout.
        struct SlowBystander(bool);
        impl Process<()> for SlowBystander {
            fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step {
                if self.0 {
                    return Step::Done;
                }
                self.0 = true;
                Step::Yield(Duration::from_us(100.0))
            }
        }
        e.spawn(SlowBystander(false));
        let err = e.run().unwrap_err();
        assert!(
            err.as_deadlock().is_some(),
            "expected deadlock at quiescence, got {err}"
        );
    }

    /// Books a link and signals a cell when its transfer lands, then
    /// waits for the cell to gain two from where it found it: a process
    /// whose behaviour depends only on state relative to its start.
    struct Xfer {
        res: ResourceId,
        cell: CellId,
        busy: Duration,
        target: Option<u64>,
    }
    impl Process<()> for Xfer {
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
            if self.target.is_some() {
                return Step::Done;
            }
            let target = ctx.cell(self.cell) + 2;
            self.target = Some(target);
            let done = ctx.acquire(self.res, self.busy);
            ctx.meter_bytes(self.res, 64);
            ctx.count("xfers", 1);
            ctx.cell_add_at(self.cell, 1, done);
            Step::WaitCell {
                cell: self.cell,
                at_least: target,
            }
        }
    }

    /// An engine with one link and one cell, and a run of two transfers
    /// that queue on the link.
    fn xfer_engine() -> (Engine<()>, impl Fn(&mut Engine<()>)) {
        let mut e = Engine::new(());
        let res = e.alloc_resource();
        let cell = e.alloc_cell();
        let run = move |e: &mut Engine<()>| {
            for ns in [10.0, 15.0] {
                e.spawn(Xfer {
                    res,
                    cell,
                    busy: Duration::from_ns(ns),
                    target: None,
                });
            }
            e.run().unwrap();
        };
        (e, run)
    }

    /// A replayed run leaves what simulating it again leaves: the clock,
    /// the counts, cells, counters, resource accounting and horizons, and
    /// the slots that later spawns get.
    #[test]
    fn replay_leaves_what_a_simulated_run_leaves() {
        let (mut e, run) = xfer_engine();
        assert!(e.mark());
        run(&mut e);
        let effect = e.take_effect().expect("an exact run");
        let (mut reference, run_ref) = xfer_engine();
        run_ref(&mut reference);
        run_ref(&mut reference);
        assert_eq!(e.replay(&effect), Some(Time::from_ps(25_000)));
        assert_eq!(e.replayed_runs(), 1);
        assert_eq!(e.now(), reference.now());
        assert_eq!(e.events_processed(), reference.events_processed());
        assert_eq!(e.metrics(), reference.metrics());
        assert_eq!(e.cell(CellId(0)), 4);
        // The horizon and the slot order show in the next run.
        run(&mut e);
        run_ref(&mut reference);
        assert_eq!(e.now(), reference.now());
        assert_eq!(e.metrics(), reference.metrics());
        assert_eq!(e.spawn(Once), reference.spawn(Once));
        assert_eq!(e.core.seq, reference.core.seq);
    }

    struct Once;
    impl Process<()> for Once {
        fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step {
            Step::Done
        }
    }

    /// Each condition of a replay is checked: the recording engine,
    /// quiescence (daemons included), no observer, no fault plan, and
    /// idle resources; a run that found its link busy is not recorded.
    #[test]
    fn replay_refuses_every_state_it_cannot_reproduce() {
        let (mut e, run) = xfer_engine();
        assert!(e.mark());
        run(&mut e);
        let effect = e.take_effect().unwrap();
        let (mut other, _) = xfer_engine();
        assert_eq!(other.replay(&effect), None, "another engine");
        // A link booked past now: refused, and a run from here is not
        // recorded either.
        let res = ResourceId(0);
        e.spawn(move |ctx: &mut Ctx<'_, ()>| {
            ctx.acquire(res, Duration::from_us(1.0));
            Step::Done
        });
        e.run().unwrap();
        assert_eq!(e.replay(&effect), None, "busy resource");
        assert!(e.mark());
        run(&mut e);
        assert_eq!(e.take_effect(), None, "recorded from a busy link");
        // A parked daemon keeps the engine from quiescence.
        let (mut d, run_d) = xfer_engine();
        assert!(d.mark());
        run_d(&mut d);
        let effect = d.take_effect().unwrap();
        let never = d.alloc_cell();
        d.spawn_daemon(Parked { cell: never });
        d.run().unwrap();
        assert!(!d.mark());
        assert_eq!(d.replay(&effect), None, "parked daemon");
        for refuse in [
            |e: &mut Engine<()>| e.set_fault_plan(FaultPlan::new(1)),
            |e: &mut Engine<()>| e.enable_tracing(),
            |e: &mut Engine<()>| e.enable_profiling(),
        ] {
            let (mut e, run) = xfer_engine();
            assert!(e.mark());
            run(&mut e);
            let effect = e.take_effect().unwrap();
            refuse(&mut e);
            assert!(!e.mark());
            assert_eq!(e.replay(&effect), None);
            assert_eq!(e.replayed_runs(), 0);
        }
    }

    /// Spawning the same process shape many times stores its label once
    /// (single-copy interning), and only when something observes labels.
    #[test]
    fn labels_are_interned_once_and_lazily() {
        struct Labeled;
        impl Process<()> for Labeled {
            fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step {
                Step::Done
            }
            fn label(&self) -> String {
                "worker tb".to_owned()
            }
        }
        let mut e = Engine::new(());
        for _ in 0..100 {
            e.spawn(Labeled);
        }
        e.run().unwrap();
        // Unobserved run: no label was ever formatted or interned.
        assert_eq!(e.core.labels.len(), 0);
        e.enable_tracing();
        for _ in 0..100 {
            e.spawn(Labeled);
        }
        e.run().unwrap();
        let trace = e.take_trace().unwrap();
        // 100 traced spawns of the same shape intern exactly one label.
        assert_eq!(trace.labels, vec!["worker tb".to_owned()]);
    }
}
