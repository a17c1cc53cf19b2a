//! The MSCCL++ **Collective API**: NCCL-compatible collectives built
//! entirely from MSCCL++ primitives (§3.1, §4.4).
//!
//! This is the paper's drop-in replacement layer: applications that use
//! NCCL's `allReduce` / `allGather` / `reduceScatter` / `broadcast` can
//! switch to [`CollComm`] without code changes. Internally each collective
//! is served by one of the algorithms of §4.4 — selected by message size
//! and hardware, exactly as the paper's collective library does:
//!
//! | Algorithm | When |
//! |---|---|
//! | 1PA (one-phase all-pairs, LL) | single node, very small messages |
//! | 2PA-LL (two-phase all-pairs, rotating scratch) | single node, small–medium |
//! | 2PA-HB (zero-copy remote reads) | single node, large |
//! | 2PA-Switch (NVLink SHARP multimem) | single node, large, H100 |
//! | 2PA-Port (DMA engines) | single node, very large |
//! | 2PH-LL / 2PH-HB (hierarchical) | multi-node small / large |
//!
//! Users can also plug in custom algorithms (the paper's extension
//! point) via [`CollComm::set_custom_all_reduce`].
//!
//! # Example
//!
//! ```
//! use collective::CollComm;
//! use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
//! use sim::Engine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
//! hw::wire(&mut engine);
//! let count = 256usize;
//! let bufs: Vec<_> = (0..8)
//!     .map(|r| engine.world_mut().pool_mut().alloc(Rank(r), count * 4))
//!     .collect();
//! for r in 0..8 {
//!     engine.world_mut().pool_mut().fill_with(bufs[r], DataType::F32, |_| 1.0);
//! }
//! let comm = CollComm::new();
//! let t = comm.all_reduce(&mut engine, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum)?;
//! assert_eq!(engine.world().pool().to_f32_vec(bufs[3], DataType::F32)[0], 8.0);
//! println!("1 KB AllReduce: {}", t.elapsed());
//! # Ok(())
//! # }
//! ```

mod algos;
mod selector;
mod straggler;
mod wiring;

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use commverify::{CollectiveSpec, SpecMember};
use hw::{BufferId, DataType, Machine, Rank, ReduceOp};
use mscclpp::{
    split_range, Comm, DrainReport, Kernel, KernelTiming, LaunchRecord, Overheads, Protocol, Result,
};
use sim::{Duration, Engine};

pub use algos::{PeerOrder, ScratchReuse};
pub use selector::{
    degrade_all_reduce, degrade_broadcast, fit_all_gather, fit_all_reduce, select_all_gather,
    select_all_reduce,
};
pub use straggler::StragglerPolicy;

use algos::all_to_all::AllPairsAllToAll;
use algos::allgather::{
    AllPairsAllGather, AllPairsAllGatherPort, HierAllGather, ShrunkenHierAllGather,
};
use algos::allreduce::{
    OnePhaseAllPairs, RingAllReduce, ShrunkenHierarchical, TwoPhaseAllPairsHb, TwoPhaseAllPairsLl,
    TwoPhaseAllPairsPort, TwoPhaseHierarchical, TwoPhaseSwitch,
};
use algos::broadcast::{AllPairsBroadcast, SwitchBroadcast};
use algos::reduce_scatter::AllPairsReduceScatter;
use straggler::StragglerState;

/// An AllReduce algorithm choice (§4.4).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum AllReduceAlgo {
    /// One-phase all-pairs over the LL protocol.
    OnePhaseLl,
    /// Two-phase all-pairs over the LL protocol with scratch slots.
    TwoPhaseLl {
        /// Rotate scratch or barrier per launch (ablation knob).
        reuse: ScratchReuse,
        /// Peer loop order (ablation knob, §5.3).
        order: PeerOrder,
    },
    /// Two-phase all-pairs over HB with zero-copy remote reads.
    TwoPhaseHb {
        /// Peer loop order (ablation knob, §5.3).
        order: PeerOrder,
    },
    /// Two-phase all-pairs over DMA port channels.
    TwoPhasePort,
    /// Two-phase over the NVSwitch multimem channel.
    TwoPhaseSwitch,
    /// Hierarchical, LL local phases (multi-node small messages).
    HierLl,
    /// Hierarchical, HB local phases with sub-shard cross-node exchange
    /// (multi-node large messages).
    HierHb,
    /// Ring reduce-scatter + all-gather over HB memory channels, ordered
    /// to avoid links the fault plan marks permanently down. Never
    /// selected on a healthy machine — the degraded-topology fallback.
    Ring,
}

/// An AllGather algorithm choice.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum AllGatherAlgo {
    /// All-pairs over the LL protocol (single node, small).
    AllPairsLl,
    /// All-pairs over the HB protocol (single node, large).
    AllPairsHb,
    /// All-pairs over DMA port channels (single node, very large; the
    /// §2.2.2 DMA-copy mode).
    AllPairsPort,
    /// Hierarchical with LL local distribution (multi-node small).
    HierLl,
    /// Hierarchical with HB local distribution (multi-node large).
    HierHb,
}

/// A ReduceScatter algorithm choice.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum ReduceScatterAlgo {
    /// All-pairs over the LL protocol.
    AllPairsLl,
    /// All-pairs over the HB protocol.
    AllPairsHb,
}

/// An AllToAll algorithm choice.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum AllToAllAlgo {
    /// All-pairs over the LL protocol (small chunks).
    AllPairsLl,
    /// All-pairs over the HB protocol (large chunks).
    AllPairsHb,
}

/// A Broadcast algorithm choice.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum BroadcastAlgo {
    /// Direct puts from the root (node-leader relay across nodes).
    Direct,
    /// NVSwitch multimem multicast (single node, multimem hardware).
    Switch,
}

/// A user-supplied AllReduce implementation (the paper's "plug in their
/// own algorithms written using the MSCCL++ DSL or Primitive APIs").
pub trait CustomAllReduce {
    /// Runs the custom collective and returns its timing.
    ///
    /// # Errors
    ///
    /// Implementations should propagate kernel deadlocks.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
    ) -> Result<KernelTiming>;
}

/// Monotone communicator generation. Starts at 0 and is bumped by every
/// successful [`CollComm::shrink`]; plans prepared under one epoch never
/// survive into the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u64);

impl std::fmt::Display for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

/// What happened to the collective that was in flight when the
/// communicator shrank — the contract that tells callers whether their
/// result buffers are trustworthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The interrupted collective (if any) re-ran to completion on the
    /// survivor group: survivor output buffers hold the correct result
    /// over survivor inputs and can be consumed directly.
    Replayed,
    /// The interrupted collective ran in place, so its partial writes
    /// clobbered the inputs; the partial result was discarded. Survivor
    /// buffers are *not* trustworthy — refill the inputs and reissue.
    PartialDiscarded,
    /// No plan could be rebuilt (or replayed) for the survivor group;
    /// the epoch advanced but the collective is lost and survivor
    /// buffers must be treated as garbage.
    Unrecoverable,
}

/// The result of one [`CollComm::shrink`]: the new epoch, the fate of
/// the interrupted collective, and what the drain cancelled.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The epoch now in force.
    pub epoch: Epoch,
    /// Fate of the collective that was in flight (see
    /// [`RecoveryOutcome`]). [`RecoveryOutcome::Replayed`] when nothing
    /// was in flight — the buffers are vacuously trustworthy.
    pub outcome: RecoveryOutcome,
    /// The surviving ranks, sorted: the new communicator group.
    pub group: Vec<Rank>,
    /// In-flight proxy work cancelled while quiescing (summed across
    /// nested recoveries when further ranks died mid-shrink).
    pub drain: DrainReport,
    /// Virtual time the shrink consumed, from the abort instant through
    /// the replayed collective (zero when nothing was replayed).
    pub recovery_time: Duration,
    /// When the interrupted collective was a Broadcast whose root died,
    /// the lowest surviving rank — the root the caller should reissue
    /// from. `None` otherwise.
    pub failover_root: Option<Rank>,
}

/// Which collective a launch runs, with its algorithm and, for a
/// Broadcast, its root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Coll {
    AllReduce(AllReduceAlgo),
    AllGather(AllGatherAlgo),
    ReduceScatter(ReduceScatterAlgo),
    Broadcast(BroadcastAlgo, Rank),
    AllToAll(AllToAllAlgo),
}

/// A prepared plan's identity: the collective (algorithm and root) and
/// its buffers. Count, dtype and operator are not part of it; one
/// channel set serves every launch that fits its capacity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    coll: Coll,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
}

/// One collective launch. Its plan key, the shape of its cached kernel
/// batch, its [`CollectiveSpec`] and the record [`CollComm::shrink`]
/// replays are all derived from it.
#[derive(Debug, Clone)]
struct Launch {
    key: Key,
    count: usize,
    dtype: DataType,
    /// The reduction operator. AllGather, Broadcast and AllToAll
    /// launches carry `Sum`, which their kernels never read.
    op: ReduceOp,
}

impl Launch {
    fn new(
        coll: Coll,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
    ) -> Launch {
        Launch {
            key: Key {
                coll,
                inputs: inputs.to_vec(),
                outputs: outputs.to_vec(),
            },
            count,
            dtype,
            op,
        }
    }

    fn bytes(&self) -> usize {
        self.count * self.dtype.size()
    }
}

/// The launch shape a cached kernel batch was built for: count, dtype
/// and operator.
type Shape = (usize, DataType, ReduceOp);

/// A kernel batch built from a plan, with the shape it was built for and
/// the record of its last simulated run.
struct Batch {
    shape: Shape,
    kernels: Rc<Vec<Kernel>>,
    /// What the batch's last simulated run did: a later launch of the
    /// batch from the same relative state replays it
    /// ([`mscclpp::run_kernels_shared`]).
    record: LaunchRecord,
}

/// One cached plan: the byte capacity its channels were wired for, the
/// prepared channel set, and whether the static verifier has already
/// cleared a kernel batch built from it.
struct Entry {
    cap: usize,
    verified: Cell<bool>,
    plan: Prepared,
    /// The kernel batch last built from this plan. Steady-state
    /// collectives on the same tensors (the LLM inference pattern) launch
    /// the cached batch instead of rebuilding every instruction program,
    /// and on a quiescent timing-only engine replay its recorded run
    /// instead of simulating it again. A launch of another shape rebuilds
    /// the batch, and re-preparing for a larger capacity or a
    /// [`CollComm::shrink`] replaces the whole entry, so neither a stale
    /// batch nor its record can survive.
    batch: RefCell<Option<Rc<Batch>>>,
}

enum Prepared {
    Ar1pa(OnePhaseAllPairs),
    Ar2paLl(TwoPhaseAllPairsLl),
    Ar2paHb(TwoPhaseAllPairsHb),
    Ar2paPort(TwoPhaseAllPairsPort),
    Ar2paSwitch(TwoPhaseSwitch),
    ArHier(TwoPhaseHierarchical),
    ArHierShrunk(ShrunkenHierarchical),
    ArRing(RingAllReduce),
    AgAp(AllPairsAllGather),
    AgPort(AllPairsAllGatherPort),
    AgHier(HierAllGather),
    AgHierShrunk(ShrunkenHierAllGather),
    RsAp(AllPairsReduceScatter),
    BcAp(AllPairsBroadcast),
    BcSwitch(SwitchBroadcast),
    A2aAp(AllPairsAllToAll),
}

impl Prepared {
    /// Builds the kernel batch for one launch of `bytes`. The
    /// data-movement algorithms ignore `dtype` and `op`.
    fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Vec<Kernel> {
        match self {
            Prepared::Ar1pa(a) => a.kernels(bytes, dtype, op),
            Prepared::Ar2paLl(a) => a.kernels(bytes, dtype, op),
            Prepared::Ar2paHb(a) => a.kernels(bytes, dtype, op),
            Prepared::Ar2paPort(a) => a.kernels(bytes, dtype, op),
            Prepared::Ar2paSwitch(a) => a.kernels(bytes, dtype, op),
            Prepared::ArHier(a) => a.kernels(bytes, dtype, op),
            Prepared::ArHierShrunk(a) => a.kernels(bytes, dtype, op),
            Prepared::ArRing(a) => a.kernels(bytes, dtype, op),
            Prepared::AgAp(a) => a.kernels(bytes),
            Prepared::AgPort(a) => a.kernels(bytes),
            Prepared::AgHier(a) => a.kernels(bytes),
            Prepared::AgHierShrunk(a) => a.kernels(bytes),
            Prepared::RsAp(a) => a.kernels(bytes, dtype, op),
            Prepared::BcAp(a) => a.kernels(bytes),
            Prepared::BcSwitch(a) => a.kernels(bytes),
            Prepared::A2aAp(a) => a.kernels(bytes),
        }
    }
}

/// Thread blocks for latency-bound (small-message) kernels.
const TBS_SMALL: usize = 1;
/// Thread blocks for bandwidth-bound (large-message) kernels.
const TBS_LARGE: usize = 4;

/// The NCCL-compatible communicator of the MSCCL++ Collective API.
///
/// Prepared channel sets are cached per `(algorithm, buffers)` so that
/// repeated collectives on the same tensors (the LLM inference pattern)
/// reuse their channels, exactly as a real communicator would.
pub struct CollComm {
    ov: Overheads,
    /// Durable transport state (bootstrap rendezvous + proxy-FIFO
    /// registry) that survives across epochs and powers the drain.
    comm: Comm,
    /// Current communicator generation; bumped by [`CollComm::shrink`].
    epoch: Cell<u64>,
    /// Active rank group. `None` means the full world; `Some` after a
    /// shrink restricts every prepared plan to the survivors.
    group: RefCell<Option<Vec<Rank>>>,
    /// The collective currently in flight (set at launch, cleared on
    /// success) — what [`CollComm::shrink`] replays or rejects.
    pending: RefCell<Option<Launch>>,
    prepared: RefCell<HashMap<Key, Entry>>,
    custom_all_reduce: Option<Box<dyn CustomAllReduce>>,
    verify: bool,
    sanitize: bool,
    /// Straggler detection policy; `None` (the default) disables the
    /// per-launch completion-time tracking entirely.
    straggler_policy: Cell<Option<StragglerPolicy>>,
    /// Sliding-window outlier state, reset at every epoch change.
    straggler: RefCell<StragglerState>,
}

impl std::fmt::Debug for CollComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollComm")
            .field("epoch", &self.epoch.get())
            .field("group", &self.group.borrow())
            .field("prepared", &self.prepared.borrow().len())
            .field("custom_all_reduce", &self.custom_all_reduce.is_some())
            .finish()
    }
}

impl Default for CollComm {
    fn default() -> CollComm {
        CollComm::new()
    }
}

impl CollComm {
    /// Creates a communicator with the MSCCL++ primitive-stack overheads.
    pub fn new() -> CollComm {
        CollComm {
            ov: Overheads::mscclpp(),
            comm: Comm::new(),
            epoch: Cell::new(0),
            group: RefCell::new(None),
            pending: RefCell::new(None),
            prepared: RefCell::new(HashMap::new()),
            custom_all_reduce: None,
            verify: true,
            sanitize: false,
            straggler_policy: Cell::new(None),
            straggler: RefCell::new(StragglerState::default()),
        }
    }

    /// The communicator generation currently in force.
    pub fn epoch(&self) -> Epoch {
        Epoch(self.epoch.get())
    }

    /// The ranks participating in the current epoch: the full world
    /// until a [`CollComm::shrink`] restricts it to the survivors.
    pub fn active_group(&self, engine: &Engine<Machine>) -> Vec<Rank> {
        self.group
            .borrow()
            .clone()
            .unwrap_or_else(|| engine.world().topology().ranks().collect())
    }

    /// Fits an explicitly asked algorithm onto the active group and
    /// attributes any forced re-plan to the shared `fault.replans`
    /// counter (the same counter the automatic entry points bump when
    /// they degrade around permanent faults).
    fn fit_replan<T: PartialEq + Copy>(engine: &mut Engine<Machine>, asked: T, fitted: T) -> T {
        if fitted != asked {
            engine.count("fault.replans", 1);
        }
        fitted
    }

    /// Enables or disables plan verification (on by default). When on,
    /// the first kernel batch built from each prepared plan runs through
    /// the `commverify` static verifier before launch; a finding aborts
    /// the collective with [`mscclpp::Error::Verification`]. Built-in
    /// launches are balanced per synchronization cell, so clearing the
    /// first batch clears every subsequent identical launch.
    pub fn set_verify(&mut self, on: bool) {
        self.verify = on;
    }

    /// Enables or disables the dynamic sanitizer (off by default). When
    /// on, every launch executes under per-thread-block vector clocks and
    /// a concrete unordered conflicting access pair aborts the collective
    /// with [`mscclpp::Error::Verification`].
    pub fn set_sanitize(&mut self, on: bool) {
        self.sanitize = on;
    }

    /// The stack overheads in use.
    pub fn overheads(&self) -> &Overheads {
        &self.ov
    }

    /// Installs a user-supplied AllReduce that overrides the default
    /// algorithm selection.
    pub fn set_custom_all_reduce(&mut self, algo: Box<dyn CustomAllReduce>) {
        self.custom_all_reduce = Some(algo);
    }

    fn run(&self, engine: &mut Engine<Machine>, batch: &Batch) -> Result<KernelTiming> {
        let kernels = &batch.kernels;
        mscclpp::record_launch_mix(engine, "mscclpp", kernels.as_slice());
        let timing = if self.sanitize {
            let (timing, report) =
                mscclpp::run_kernels_sanitized_shared(engine, kernels, &self.ov)?;
            if let Some(race) = report.races.first() {
                return Err(mscclpp::Error::Verification(format!(
                    "dynamic sanitizer: {race}"
                )));
            }
            timing
        } else {
            mscclpp::run_kernels_shared(engine, kernels, &self.ov, &batch.record)?
        };
        self.observe_stragglers(engine, &timing);
        Ok(timing)
    }

    /// Feeds one successful launch's per-rank completion times into the
    /// straggler detector (a no-op without a policy installed).
    fn observe_stragglers(&self, engine: &mut Engine<Machine>, timing: &KernelTiming) {
        let Some(policy) = self.straggler_policy.get() else {
            return;
        };
        let group = self.active_group(engine);
        let fresh = self.straggler.borrow_mut().observe(&policy, &group, timing);
        if fresh > 0 {
            engine.count("fault.straggler_suspected", fresh);
        }
    }

    /// Installs (or replaces) the straggler-detection policy. Once set,
    /// every successful launch feeds per-rank completion times into a
    /// sliding outlier window; ranks whose recent launches persistently
    /// finish far behind the group median are reported by
    /// [`CollComm::suspected_stragglers`] and counted under
    /// `fault.straggler_suspected`.
    pub fn set_straggler_policy(&mut self, policy: StragglerPolicy) {
        self.straggler_policy.set(Some(policy));
    }

    /// Ranks the detector currently suspects of straggling (empty
    /// without a policy, and cleared at every epoch change).
    pub fn suspected_stragglers(&self) -> Vec<Rank> {
        self.straggler.borrow().suspected()
    }

    /// Evicts every currently-suspected straggler via a voluntary
    /// [`CollComm::shrink`], when the installed policy opted into
    /// quarantine. Returns `Ok(None)` when quarantine is off or nothing
    /// is suspected; otherwise the shrink's [`Recovery`] (the suspects
    /// are treated exactly like dead ranks — counted under
    /// `fault.straggler_quarantined`).
    ///
    /// # Errors
    ///
    /// Propagates [`CollComm::shrink`] errors (e.g. no rank survives).
    pub fn quarantine_stragglers(&self, engine: &mut Engine<Machine>) -> Result<Option<Recovery>> {
        let Some(policy) = self.straggler_policy.get() else {
            return Ok(None);
        };
        if !policy.quarantine {
            return Ok(None);
        }
        let suspects = self.suspected_stragglers();
        if suspects.is_empty() {
            return Ok(None);
        }
        engine.count("fault.straggler_quarantined", suspects.len() as u64);
        let recovery = self.shrink(engine, &suspects)?;
        Ok(Some(recovery))
    }

    /// AllReduce with automatic algorithm selection (the NCCL-API entry
    /// point).
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks and invalid-argument errors.
    pub fn all_reduce(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
    ) -> Result<KernelTiming> {
        if let Some(custom) = &self.custom_all_reduce {
            return custom.run(engine, inputs, outputs, count, dtype, op);
        }
        let selected = select_all_reduce(engine.world(), count * dtype.size());
        // Graceful degradation: permanent faults in the active fault plan
        // force a re-plan onto whatever topology is still alive (explicit
        // all_reduce_with calls run as-asked and surface the fault).
        let degraded = degrade_all_reduce(engine, selected);
        let algo = Self::fit_replan(engine, selected, degraded);
        self.all_reduce_with(engine, inputs, outputs, count, dtype, op, algo)
    }

    /// Compiles the kernel batch an AllReduce launch would run — and the
    /// [`CollectiveSpec`] it must satisfy — without launching it. This
    /// is the plan-inspection entry point the mutation harness (and any
    /// future plan autotuner) builds on.
    ///
    /// # Errors
    ///
    /// Same preparation errors as [`CollComm::all_reduce_with`].
    #[allow(clippy::too_many_arguments)]
    pub fn plan_all_reduce_with(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
        algo: AllReduceAlgo,
    ) -> Result<(Vec<Kernel>, CollectiveSpec)> {
        let coll = Coll::AllReduce(algo);
        self.plan(engine, Launch::new(coll, inputs, outputs, count, dtype, op))
    }

    /// AllReduce with an explicit algorithm.
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks; returns [`mscclpp::Error::Unsupported`]
    /// for `TwoPhaseSwitch` without multimem hardware and
    /// [`mscclpp::Error::InvalidArgument`] for single-node algorithms on
    /// multi-node clusters (and vice versa).
    #[allow(clippy::too_many_arguments)]
    pub fn all_reduce_with(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
        algo: AllReduceAlgo,
    ) -> Result<KernelTiming> {
        let coll = Coll::AllReduce(algo);
        self.launch(engine, Launch::new(coll, inputs, outputs, count, dtype, op))
    }

    /// AllGather with automatic algorithm selection. `count` is the
    /// per-rank element count; outputs hold `count * world` elements.
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks and invalid-argument errors.
    pub fn all_gather(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
    ) -> Result<KernelTiming> {
        let algo = select_all_gather(engine.world(), count * dtype.size());
        // Degradation (shrunken-epoch re-mapping) happens inside
        // `all_gather_with`, attributed to the shared replan counter.
        self.all_gather_with(engine, inputs, outputs, count, dtype, algo)
    }

    /// Compiles an AllGather launch's kernel batch and spec without
    /// launching (see [`CollComm::plan_all_reduce_with`]).
    ///
    /// # Errors
    ///
    /// Same preparation errors as [`CollComm::all_gather_with`].
    pub fn plan_all_gather_with(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        algo: AllGatherAlgo,
    ) -> Result<(Vec<Kernel>, CollectiveSpec)> {
        let coll = Coll::AllGather(algo);
        self.plan(
            engine,
            Launch::new(coll, inputs, outputs, count, dtype, ReduceOp::Sum),
        )
    }

    /// AllGather with an explicit algorithm.
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks and invalid-argument errors.
    pub fn all_gather_with(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        algo: AllGatherAlgo,
    ) -> Result<KernelTiming> {
        let coll = Coll::AllGather(algo);
        self.launch(
            engine,
            Launch::new(coll, inputs, outputs, count, dtype, ReduceOp::Sum),
        )
    }

    /// ReduceScatter with automatic algorithm selection. `count` is the
    /// total per-rank input element count; each rank's output holds
    /// `count / world` elements.
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks and invalid-argument errors.
    pub fn reduce_scatter(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
    ) -> Result<KernelTiming> {
        let algo = if count * dtype.size() <= (1 << 20) {
            ReduceScatterAlgo::AllPairsLl
        } else {
            ReduceScatterAlgo::AllPairsHb
        };
        self.reduce_scatter_with(engine, inputs, outputs, count, dtype, op, algo)
    }

    /// Compiles a ReduceScatter launch's kernel batch and spec without
    /// launching (see [`CollComm::plan_all_reduce_with`]).
    ///
    /// # Errors
    ///
    /// Same preparation errors as [`CollComm::reduce_scatter_with`].
    #[allow(clippy::too_many_arguments)]
    pub fn plan_reduce_scatter_with(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
        algo: ReduceScatterAlgo,
    ) -> Result<(Vec<Kernel>, CollectiveSpec)> {
        let coll = Coll::ReduceScatter(algo);
        self.plan(engine, Launch::new(coll, inputs, outputs, count, dtype, op))
    }

    /// ReduceScatter with an explicit algorithm.
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks and invalid-argument errors.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_scatter_with(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
        algo: ReduceScatterAlgo,
    ) -> Result<KernelTiming> {
        let coll = Coll::ReduceScatter(algo);
        self.launch(engine, Launch::new(coll, inputs, outputs, count, dtype, op))
    }

    /// Broadcast `count` elements from `root` with automatic algorithm
    /// selection.
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks and invalid-argument errors.
    #[allow(clippy::too_many_arguments)]
    pub fn broadcast(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        root: Rank,
    ) -> Result<KernelTiming> {
        let selected = if hw::supports_multimem(engine.world())
            && engine.world().topology().nodes() == 1
            && count * dtype.size() > (1 << 20)
        {
            BroadcastAlgo::Switch
        } else {
            BroadcastAlgo::Direct
        };
        // Graceful degradation: a permanently dead multimem switch forces
        // the multicast plan back onto direct root puts, attributed to
        // the shared replan counter.
        let degraded = degrade_broadcast(engine, selected);
        let algo = Self::fit_replan(engine, selected, degraded);
        self.broadcast_with(engine, inputs, outputs, count, dtype, root, algo)
    }

    /// Compiles a Broadcast launch's kernel batch and spec without
    /// launching (see [`CollComm::plan_all_reduce_with`]).
    ///
    /// # Errors
    ///
    /// Same preparation errors as [`CollComm::broadcast_with`].
    #[allow(clippy::too_many_arguments)]
    pub fn plan_broadcast_with(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        root: Rank,
        algo: BroadcastAlgo,
    ) -> Result<(Vec<Kernel>, CollectiveSpec)> {
        let coll = Coll::Broadcast(algo, root);
        self.plan(
            engine,
            Launch::new(coll, inputs, outputs, count, dtype, ReduceOp::Sum),
        )
    }

    /// Broadcast with an explicit algorithm.
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks and invalid-argument errors.
    #[allow(clippy::too_many_arguments)]
    pub fn broadcast_with(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        root: Rank,
        algo: BroadcastAlgo,
    ) -> Result<KernelTiming> {
        let coll = Coll::Broadcast(algo, root);
        self.launch(
            engine,
            Launch::new(coll, inputs, outputs, count, dtype, ReduceOp::Sum),
        )
    }

    /// AllToAll: rank `a`'s input chunk `b` (of `count` elements) lands
    /// in rank `b`'s output chunk `a`. Buffers hold `count * world`
    /// elements each.
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks and invalid-argument errors.
    pub fn all_to_all(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
    ) -> Result<KernelTiming> {
        let algo = if count * dtype.size() <= (128 << 10) {
            AllToAllAlgo::AllPairsLl
        } else {
            AllToAllAlgo::AllPairsHb
        };
        self.all_to_all_with(engine, inputs, outputs, count, dtype, algo)
    }

    /// Compiles an AllToAll launch's kernel batch and spec without
    /// launching (see [`CollComm::plan_all_reduce_with`]).
    ///
    /// # Errors
    ///
    /// Same preparation errors as [`CollComm::all_to_all_with`].
    pub fn plan_all_to_all_with(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        algo: AllToAllAlgo,
    ) -> Result<(Vec<Kernel>, CollectiveSpec)> {
        let coll = Coll::AllToAll(algo);
        self.plan(
            engine,
            Launch::new(coll, inputs, outputs, count, dtype, ReduceOp::Sum),
        )
    }

    /// AllToAll with an explicit algorithm.
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks and invalid-argument errors.
    pub fn all_to_all_with(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        algo: AllToAllAlgo,
    ) -> Result<KernelTiming> {
        let coll = Coll::AllToAll(algo);
        self.launch(
            engine,
            Launch::new(coll, inputs, outputs, count, dtype, ReduceOp::Sum),
        )
    }

    /// Fits the launch's algorithm to the active group, prepares its
    /// channels and builds its kernel batch, or reuses the batch cached
    /// for the same shape. Returns the fitted launch with its batch.
    fn build(
        &self,
        engine: &mut Engine<Machine>,
        mut launch: Launch,
    ) -> Result<(Launch, Rc<Batch>)> {
        // On a shrunken epoch the asked algorithm may be impossible on a
        // subset (hierarchical layouts collapsed onto one node); re-map
        // it and attribute the re-plan before the key is used.
        let group = self.active_group(engine);
        let topo = engine.world().topology();
        let fitted = match launch.key.coll {
            Coll::AllReduce(a) => Coll::AllReduce(fit_all_reduce(a, &group, &topo)),
            Coll::AllGather(a) => Coll::AllGather(fit_all_gather(a, &group, &topo)),
            coll => coll,
        };
        launch.key.coll = Self::fit_replan(engine, launch.key.coll, fitted);
        let bytes = launch.bytes();
        self.ensure_prepared(engine, &launch.key, bytes)?;
        let prepared = self.prepared.borrow();
        let entry = &prepared[&launch.key];
        if bytes > entry.cap {
            return Err(mscclpp::Error::InvalidArgument(format!(
                "message of {bytes} B exceeds prepared capacity {} B",
                entry.cap
            )));
        }
        let shape = (launch.count, launch.dtype, launch.op);
        let mut cached = entry.batch.borrow_mut();
        let batch = match &*cached {
            Some(batch) if batch.shape == shape => Rc::clone(batch),
            _ => {
                let batch = Rc::new(Batch {
                    shape,
                    kernels: Rc::new(entry.plan.kernels(bytes, launch.dtype, launch.op)),
                    record: LaunchRecord::default(),
                });
                *cached = Some(Rc::clone(&batch));
                batch
            }
        };
        Ok((launch, batch))
    }

    /// The [`CollectiveSpec`] a launch's kernels must satisfy, over the
    /// current epoch's group: survivors in position order, each bound to
    /// its caller-indexed buffers.
    fn spec(&self, engine: &Engine<Machine>, launch: &Launch) -> Result<CollectiveSpec> {
        let group = self.active_group(engine);
        let Key {
            coll,
            inputs,
            outputs,
        } = &launch.key;
        let members = group
            .iter()
            .map(|&r| SpecMember {
                rank: r,
                input: inputs[r.0],
                output: outputs[r.0],
            })
            .collect();
        let bytes = launch.bytes();
        Ok(match *coll {
            Coll::AllReduce(_) => CollectiveSpec::all_reduce(members, bytes),
            Coll::AllGather(_) => CollectiveSpec::all_gather(members, bytes),
            Coll::ReduceScatter(_) => {
                // Shards are position-renumbered `split_range` pieces of
                // the element count — the same carve-up the kernels
                // compute with.
                let es = launch.dtype.size();
                let shards = (0..group.len())
                    .map(|j| {
                        let (s, l) = split_range(launch.count, group.len(), j);
                        (s * es, l * es)
                    })
                    .collect();
                CollectiveSpec::reduce_scatter(members, bytes, shards)
            }
            Coll::Broadcast(_, root) => {
                let root_pos = group.iter().position(|&r| r == root).ok_or_else(|| {
                    mscclpp::Error::InvalidArgument(format!(
                        "broadcast root {root} is not in the active group"
                    ))
                })?;
                CollectiveSpec::broadcast(members, bytes, root_pos)
            }
            Coll::AllToAll(_) => CollectiveSpec::all_to_all(members, bytes),
        })
    }

    /// Builds a launch's kernel batch and spec without running it.
    fn plan(
        &self,
        engine: &mut Engine<Machine>,
        launch: Launch,
    ) -> Result<(Vec<Kernel>, CollectiveSpec)> {
        let (launch, batch) = self.build(engine, launch)?;
        Ok((
            batch.kernels.as_slice().to_vec(),
            self.spec(engine, &launch)?,
        ))
    }

    /// The one launch path: builds the batch, runs the static verifier —
    /// including the semantic dataflow pass against the launch's spec —
    /// once per prepared plan (again after a re-prepare or a shrink),
    /// records the launch as pending, runs it and clears the record.
    fn launch(&self, engine: &mut Engine<Machine>, launch: Launch) -> Result<KernelTiming> {
        let (launch, batch) = self.build(engine, launch)?;
        if self.verify && !self.prepared.borrow()[&launch.key].verified.get() {
            let spec = self.spec(engine, &launch)?;
            commverify::verify_collective(
                batch.kernels.as_slice(),
                engine.world().pool(),
                &commverify::Checks::all(),
                &spec,
            )?;
            self.prepared.borrow()[&launch.key].verified.set(true);
        }
        self.pending.replace(Some(launch));
        let timing = self.run(engine, &batch)?;
        self.pending.replace(None);
        Ok(timing)
    }

    /// Builds (or rebuilds, when capacity grew) the prepared channel sets
    /// for `key`.
    fn ensure_prepared(&self, engine: &mut Engine<Machine>, key: &Key, bytes: usize) -> Result<()> {
        if self
            .prepared
            .borrow()
            .get(key)
            .is_some_and(|entry| entry.cap >= bytes)
        {
            return Ok(());
        }
        let group = self.group.borrow().clone();
        let mut setup = self
            .comm
            .setup_with(engine, self.ov.clone(), group.as_deref())?;
        // The "world" every plan is built over is the epoch's member set:
        // the full topology until a shrink restricts it to the survivors.
        let world: Vec<Rank> = setup.group().to_vec();
        // A shrunken multi-node epoch re-derives the hierarchical layout
        // (leaders re-elected among the survivors) instead of the
        // full-topology plan; every all-pairs plan is subset-capable.
        let shrunken = world.len() < setup.topology().world_size();
        let (inputs, outputs) = (key.inputs.as_slice(), key.outputs.as_slice());
        let cap = bytes;
        let (ts, tl) = (TBS_SMALL, TBS_LARGE);
        let prepared = match key.coll {
            Coll::AllReduce(algo) => match algo {
                AllReduceAlgo::OnePhaseLl => Prepared::Ar1pa(OnePhaseAllPairs::prepare(
                    &mut setup, &world, inputs, outputs, cap,
                )?),
                AllReduceAlgo::TwoPhaseLl { reuse, order } => {
                    Prepared::Ar2paLl(TwoPhaseAllPairsLl::prepare(
                        &mut setup,
                        &world,
                        inputs,
                        outputs,
                        cap,
                        ts.max(2),
                        reuse,
                        order,
                    )?)
                }
                AllReduceAlgo::TwoPhaseHb { order } => Prepared::Ar2paHb(
                    TwoPhaseAllPairsHb::prepare(&mut setup, &world, inputs, outputs, tl, order)?,
                ),
                AllReduceAlgo::TwoPhasePort => Prepared::Ar2paPort(TwoPhaseAllPairsPort::prepare(
                    &mut setup, &world, inputs, outputs, cap, tl,
                )?),
                AllReduceAlgo::TwoPhaseSwitch => Prepared::Ar2paSwitch(TwoPhaseSwitch::prepare(
                    &mut setup, &world, inputs, outputs, tl,
                )?),
                AllReduceAlgo::HierLl if shrunken => Prepared::ArHierShrunk(
                    ShrunkenHierarchical::prepare(&mut setup, &world, inputs, outputs, cap, 1)?,
                ),
                AllReduceAlgo::HierHb if shrunken => Prepared::ArHierShrunk(
                    ShrunkenHierarchical::prepare(&mut setup, &world, inputs, outputs, cap, tl)?,
                ),
                AllReduceAlgo::HierLl => Prepared::ArHier(TwoPhaseHierarchical::prepare(
                    &mut setup, inputs, outputs, cap, 1, false,
                )?),
                AllReduceAlgo::HierHb => Prepared::ArHier(TwoPhaseHierarchical::prepare(
                    &mut setup, inputs, outputs, cap, tl, true,
                )?),
                AllReduceAlgo::Ring => Prepared::ArRing(RingAllReduce::prepare(
                    &mut setup, &world, inputs, outputs, cap,
                )?),
            },
            Coll::AllGather(algo) => match algo {
                AllGatherAlgo::AllPairsLl => Prepared::AgAp(AllPairsAllGather::prepare(
                    &mut setup,
                    &world,
                    inputs,
                    outputs,
                    ts,
                    Protocol::LL,
                )?),
                AllGatherAlgo::AllPairsHb => Prepared::AgAp(AllPairsAllGather::prepare(
                    &mut setup,
                    &world,
                    inputs,
                    outputs,
                    tl,
                    Protocol::HB,
                )?),
                AllGatherAlgo::AllPairsPort => Prepared::AgPort(AllPairsAllGatherPort::prepare(
                    &mut setup, &world, inputs, outputs, tl,
                )?),
                AllGatherAlgo::HierLl if shrunken => Prepared::AgHierShrunk(
                    ShrunkenHierAllGather::prepare(&mut setup, &world, inputs, outputs, 1)?,
                ),
                AllGatherAlgo::HierHb if shrunken => Prepared::AgHierShrunk(
                    ShrunkenHierAllGather::prepare(&mut setup, &world, inputs, outputs, tl)?,
                ),
                AllGatherAlgo::HierLl => Prepared::AgHier(HierAllGather::prepare(
                    &mut setup,
                    inputs,
                    outputs,
                    1,
                    Protocol::LL,
                )?),
                AllGatherAlgo::HierHb => Prepared::AgHier(HierAllGather::prepare(
                    &mut setup,
                    inputs,
                    outputs,
                    tl,
                    Protocol::HB,
                )?),
            },
            Coll::ReduceScatter(algo) => {
                let (proto, tbs) = match algo {
                    ReduceScatterAlgo::AllPairsLl => (Protocol::LL, ts),
                    ReduceScatterAlgo::AllPairsHb => (Protocol::HB, tl),
                };
                Prepared::RsAp(AllPairsReduceScatter::prepare(
                    &mut setup, &world, inputs, outputs, cap, tbs, proto,
                )?)
            }
            Coll::AllToAll(algo) => {
                let (proto, tbs) = match algo {
                    AllToAllAlgo::AllPairsLl => (Protocol::LL, ts),
                    AllToAllAlgo::AllPairsHb => (Protocol::HB, tl),
                };
                Prepared::A2aAp(AllPairsAllToAll::prepare(
                    &mut setup, &world, inputs, outputs, tbs, proto,
                )?)
            }
            Coll::Broadcast(algo, root) => match algo {
                BroadcastAlgo::Direct => Prepared::BcAp(AllPairsBroadcast::prepare(
                    &mut setup, &world, root, inputs, outputs, tl,
                )?),
                BroadcastAlgo::Switch => Prepared::BcSwitch(SwitchBroadcast::prepare(
                    &mut setup, &world, root, inputs, outputs, tl,
                )?),
            },
        };
        self.prepared.borrow_mut().insert(
            key.clone(),
            Entry {
                cap,
                verified: Cell::new(false),
                plan: prepared,
                batch: RefCell::new(None),
            },
        );
        Ok(())
    }

    /// Shrinks the communicator after rank failure: drains in-flight
    /// transport work, opens a new epoch over the survivors, and replays
    /// or rejects the interrupted collective.
    ///
    /// `dead` names ranks to evict explicitly; ranks the engine's fault
    /// plan has already killed (`RankDown`) are evicted automatically,
    /// so callers that learned of the death through a timeout can pass
    /// `&[]`. Deaths are re-sampled *after* the drain, so a rank that
    /// dies during the drain window itself is evicted in the same
    /// shrink rather than poisoning the new epoch.
    ///
    /// One shrink iteration, in order: [`mscclpp::Comm::abort_and_drain`]
    /// cancels every in-flight proxy request and quiesces the FIFOs; the
    /// epoch counter is bumped and all prepared plans are dropped (so
    /// each is rebuilt on the survivor group and re-cleared by the
    /// `commverify` static verifier before its first launch); the
    /// bootstrap store reconvenes over the survivors; and the collective
    /// that was in flight is replayed when its inputs are intact
    /// (out-of-place) or rejected with a typed [`RecoveryOutcome`].
    ///
    /// **Nested recovery**: when the replay itself is interrupted by a
    /// *further* rank death, the shrink restarts from the union of all
    /// dead ranks — drain, reconvene, epoch bump, replay — until the
    /// replay converges or no new deaths explain the failure. Each
    /// restart is counted under `fault.nested_recoveries`, and the
    /// returned [`Recovery`] carries the final epoch, the summed drain
    /// and the total recovery time.
    ///
    /// # Errors
    ///
    /// Returns [`mscclpp::Error::Bootstrap`] when no rank survives. A
    /// failed *replay* is not an error: it is reported as
    /// [`RecoveryOutcome::Unrecoverable`] with the epoch still advanced.
    pub fn shrink(&self, engine: &mut Engine<Machine>, dead: &[Rank]) -> Result<Recovery> {
        let t0 = engine.now();
        // Capture the interrupted launch once: every nested-recovery
        // iteration replays the same record (and a failed replay must
        // not leave its own pending record behind).
        let interrupted = self.pending.replace(None);
        let mut gone: Vec<usize> = dead.iter().map(|r| r.0).collect();
        let mut drain = DrainReport::default();
        let mut failover_root = None;
        let (outcome, survivors) = loop {
            let d = self.comm.abort_and_drain(engine);
            drain.cancelled_puts += d.cancelled_puts;
            drain.cancelled_signals += d.cancelled_signals;
            drain.dirty_fifos += d.dirty_fifos;
            drain.fifos = d.fifos;
            if let Some(plan) = engine.fault_plan() {
                for r in plan.dead_ranks_at(engine.now()) {
                    if !gone.contains(&r) {
                        gone.push(r);
                    }
                }
            }
            let survivors: Vec<Rank> = self
                .active_group(engine)
                .into_iter()
                .filter(|r| !gone.contains(&r.0))
                .collect();
            // Validates the survivor set (non-empty, no duplicates) and
            // resets the rendezvous for the new epoch's setups.
            self.comm.reconvene(&survivors)?;
            self.prepared.borrow_mut().clear();
            self.group.replace(Some(survivors.clone()));
            self.epoch.set(self.epoch.get() + 1);
            self.straggler.borrow_mut().clear();
            engine.count("fault.epoch_shrinks", 1);
            if survivors.len() < 2 {
                // A single survivor cannot run any collective; whatever
                // was in flight is lost.
                break (RecoveryOutcome::Unrecoverable, survivors);
            }
            match self.replay(engine, interrupted.as_ref(), &survivors, &mut failover_root) {
                Ok(outcome) => break (outcome, survivors),
                Err(_) => {
                    // The replay launch itself failed. Clear the record
                    // it left pending, then check whether a *new* death
                    // explains it — if so, restart the shrink from the
                    // union of every death seen so far.
                    self.pending.replace(None);
                    let newly_dead = engine
                        .fault_plan()
                        .map(|p| p.dead_ranks_at(engine.now()))
                        .unwrap_or_default()
                        .into_iter()
                        .any(|r| !gone.contains(&r));
                    if newly_dead {
                        engine.count("fault.nested_recoveries", 1);
                        continue;
                    }
                    break (RecoveryOutcome::Unrecoverable, survivors);
                }
            }
        };
        Ok(Recovery {
            epoch: Epoch(self.epoch.get()),
            outcome,
            group: survivors,
            drain,
            recovery_time: engine.now() - t0,
            failover_root,
        })
    }

    /// Replays (or rejects with a typed outcome) the interrupted
    /// collective on the survivor group. `Ok` is a final verdict;
    /// `Err` means the replay launch itself failed — the caller decides
    /// whether a further death explains it.
    fn replay(
        &self,
        engine: &mut Engine<Machine>,
        interrupted: Option<&Launch>,
        survivors: &[Rank],
        failover_root: &mut Option<Rank>,
    ) -> Result<RecoveryOutcome> {
        let Some(launch) = interrupted else {
            return Ok(RecoveryOutcome::Replayed);
        };
        let Key {
            coll,
            inputs,
            outputs,
        } = &launch.key;
        let in_place = survivors.iter().any(|r| inputs[r.0] == outputs[r.0]);
        let discard = match *coll {
            // Root died mid-broadcast: nobody holds the source any more.
            // Fail over to the lowest survivor — the caller refills its
            // input and reissues from there.
            Coll::Broadcast(_, root) if !survivors.contains(&root) => {
                *failover_root = survivors.first().copied();
                true
            }
            // The root's input is intact even for an in-place broadcast,
            // and the replay overwrites every survivor's output in full —
            // always safe to re-run.
            Coll::Broadcast(..) => false,
            _ if in_place => true,
            // Shards grow when the group shrinks (count / k versus
            // count / world elements): a replay only fits when every
            // survivor's output can hold its renumbered shard.
            Coll::ReduceScatter(_) => {
                let shard_bytes = launch.count.div_ceil(survivors.len()) * launch.dtype.size();
                survivors
                    .iter()
                    .any(|r| engine.world().pool().len(outputs[r.0]) < shard_bytes)
            }
            _ => false,
        };
        if discard {
            return Ok(RecoveryOutcome::PartialDiscarded);
        }
        self.launch(engine, launch.clone())?;
        Ok(RecoveryOutcome::Replayed)
    }
}
