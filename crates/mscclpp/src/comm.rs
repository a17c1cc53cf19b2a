//! Host-side initialization: the Communicator (§4.1).
//!
//! [`Setup`] plays the role of the per-process `Communicator` objects of
//! the real library, driven from one place because all simulated ranks
//! share the host address space. It registers communication buffers,
//! exchanges their metadata through the [`crate::Bootstrap`] interface,
//! and constructs channels between GPUs according to the underlying
//! physical links.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use hw::{BufferId, Machine, Rank, Topology};
use sim::Engine;

use crate::bootstrap::{Bootstrap, BootstrapStore, MemBootstrap};
use crate::channel::{
    DeviceBarrier, FifoState, MemoryChannel, PortChannel, Protocol, Semaphore, SwitchChannel,
};
use crate::error::{Error, Result};
use crate::overheads::Overheads;
use crate::proxy::ProxyProc;

/// Shared registry of every proxy FIFO created through one [`Comm`]'s
/// setups, so an abort can drain them all.
pub(crate) type FifoRegistry = Rc<RefCell<Vec<Rc<RefCell<FifoState>>>>>;

/// What [`Comm::abort_and_drain`] cancelled while quiescing the
/// communicator after a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainReport {
    /// In-flight `put` requests discarded from proxy FIFOs.
    pub cancelled_puts: u64,
    /// In-flight `signal` requests discarded from proxy FIFOs.
    pub cancelled_signals: u64,
    /// Number of FIFOs that held at least one cancelled request.
    pub dirty_fifos: usize,
    /// Total FIFOs registered with the communicator.
    pub fifos: usize,
}

impl DrainReport {
    /// Total cancelled requests.
    pub fn cancelled(&self) -> u64 {
        self.cancelled_puts + self.cancelled_signals
    }
}

/// Durable communicator state that outlives individual [`Setup`] borrows:
/// the bootstrap rendezvous plus a registry of every proxy FIFO created
/// through it.
///
/// This is the recovery surface of the stack. After a rank failure
/// surfaces as a timeout, [`Comm::abort_and_drain`] cancels all in-flight
/// proxy work and quiesces every FIFO to a known-clean (empty) state —
/// the invariant the commverify transport preset assumes when it banks
/// FIFO credits across launches — and [`Comm::reconvene`] rebuilds
/// bootstrap handles for the surviving subset so new channels can be
/// wired on the shrunken group.
#[derive(Debug, Clone, Default)]
pub struct Comm {
    store: BootstrapStore,
    fifos: FifoRegistry,
}

impl Comm {
    /// Creates an empty communicator.
    pub fn new() -> Comm {
        Comm::default()
    }

    /// Starts a setup whose port channels register their FIFOs with this
    /// communicator, over the full world.
    pub fn setup<'e>(&self, engine: &'e mut Engine<Machine>) -> Setup<'e> {
        self.setup_with(engine, Overheads::mscclpp(), None)
            .expect("full-world setup cannot fail")
    }

    /// Starts a registered setup with explicit overheads and, when
    /// `group` is given, a restricted member set: bootstrap handles are
    /// rebuilt for exactly those ranks (see
    /// [`BootstrapStore::reconvene`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Bootstrap`] for an empty or duplicated group.
    pub fn setup_with<'e>(
        &self,
        engine: &'e mut Engine<Machine>,
        ov: Overheads,
        group: Option<&[Rank]>,
    ) -> Result<Setup<'e>> {
        if !engine.world().is_wired() {
            hw::wire(engine);
        }
        let world: Vec<Rank> = engine.world().topology().ranks().collect();
        let group: Vec<Rank> = group.map_or(world, <[Rank]>::to_vec);
        let bootstraps = self.store.reconvene(&group)?;
        Ok(Setup {
            engine,
            ov,
            bootstraps,
            group,
            fifo_registry: Some(self.fifos.clone()),
        })
    }

    /// Cancels every in-flight proxy request and tears the engine down to
    /// a quiescent state: all processes (thread blocks *and* proxy
    /// daemons) are dropped, open trace spans are closed, and every
    /// registered FIFO is drained empty. Returns what was cancelled.
    ///
    /// After this call the engine accepts new work and every FIFO is
    /// clean, so freshly prepared plans satisfy the FIFO-credit invariant
    /// the commverify transport preset checks.
    pub fn abort_and_drain(&self, engine: &mut Engine<Machine>) -> DrainReport {
        engine.abort();
        let mut report = DrainReport {
            fifos: self.fifos.borrow().len(),
            ..DrainReport::default()
        };
        for fifo in self.fifos.borrow().iter() {
            let mut f = fifo.borrow_mut();
            if f.queue.is_empty() {
                continue;
            }
            report.dirty_fifos += 1;
            for req in f.queue.drain(..) {
                match req {
                    crate::channel::ProxyRequest::Put { .. } => report.cancelled_puts += 1,
                    crate::channel::ProxyRequest::Signal => report.cancelled_signals += 1,
                }
            }
        }
        if report.cancelled() > 0 {
            engine.count("fault.drained_requests", report.cancelled());
        }
        debug_assert!(self.quiesced(), "drain left a non-empty FIFO");
        report
    }

    /// Whether every registered FIFO is empty (the post-drain invariant).
    pub fn quiesced(&self) -> bool {
        self.fifos
            .borrow()
            .iter()
            .all(|f| f.borrow().queue.is_empty())
    }

    /// Rebuilds bootstrap handles for the surviving subset (see
    /// [`BootstrapStore::reconvene`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Bootstrap`] for an empty or duplicated set.
    pub fn reconvene(&self, survivors: &[Rank]) -> Result<Vec<MemBootstrap>> {
        self.store.reconvene(survivors)
    }
}

/// Host-side setup handle: registers memory and builds channels.
///
/// Borrow the engine for the duration of setup; the returned channel
/// handles are then baked into kernels (see [`crate::KernelBuilder`]).
///
/// # Example
///
/// See the crate-level documentation for an end-to-end put/signal/wait
/// example.
#[derive(Debug)]
pub struct Setup<'e> {
    engine: &'e mut Engine<Machine>,
    ov: Overheads,
    bootstraps: Vec<MemBootstrap>,
    /// The ranks participating in this setup's epoch (the full world
    /// unless built through [`Comm::setup_with`] after a shrink).
    group: Vec<Rank>,
    /// Registry to report new proxy FIFOs into, when owned by a [`Comm`].
    fifo_registry: Option<FifoRegistry>,
}

impl<'e> Setup<'e> {
    /// Starts setup with the default MSCCL++ overheads, wiring the
    /// machine's link resources if not yet wired.
    pub fn new(engine: &'e mut Engine<Machine>) -> Setup<'e> {
        Setup::with_overheads(engine, Overheads::mscclpp())
    }

    /// Starts setup with explicit stack overheads (used by the DSL
    /// executor, which pays extra per-instruction decode cost).
    pub fn with_overheads(engine: &'e mut Engine<Machine>, ov: Overheads) -> Setup<'e> {
        if !engine.world().is_wired() {
            hw::wire(engine);
        }
        let n = engine.world().topology().world_size();
        let bootstraps = BootstrapStore::new().handles(n);
        let group = engine.world().topology().ranks().collect();
        Setup {
            engine,
            ov,
            bootstraps,
            group,
            fifo_registry: None,
        }
    }

    /// The ranks participating in this setup's epoch, sorted. The full
    /// world for a plain setup; the survivor subset after a shrink.
    pub fn group(&self) -> &[Rank] {
        &self.group
    }

    /// The stack overheads this setup was created with.
    pub fn overheads(&self) -> &Overheads {
        &self.ov
    }

    /// The cluster shape.
    pub fn topology(&self) -> Topology {
        self.engine.world().topology()
    }

    /// Number of ranks.
    pub fn world_size(&self) -> usize {
        self.topology().world_size()
    }

    /// Escape hatch to the engine (e.g. to inspect memory after a run).
    pub fn engine_mut(&mut self) -> &mut Engine<Machine> {
        self.engine
    }

    /// The engine's active fault plan, if any. Degraded-topology planners
    /// consult this to route around permanently dead links.
    pub fn fault_plan(&self) -> Option<&sim::FaultPlan> {
        self.engine.fault_plan()
    }

    /// Allocates a zero-initialized device buffer on `rank`.
    pub fn alloc(&mut self, rank: Rank, bytes: usize) -> BufferId {
        self.engine.world_mut().pool_mut().alloc(rank, bytes)
    }

    /// Allocates one `bytes`-sized buffer on every rank, indexed by rank.
    pub fn alloc_all(&mut self, bytes: usize) -> Vec<BufferId> {
        self.topology()
            .ranks()
            .map(|r| self.alloc(r, bytes))
            .collect()
    }

    fn check_owner(&self, what: &str, buf: BufferId, rank: Rank) -> Result<()> {
        let owner = self.engine.world().pool().rank_of(buf);
        if owner != rank {
            return Err(Error::InvalidArgument(format!(
                "{what}: buffer belongs to {owner}, expected {rank}"
            )));
        }
        Ok(())
    }

    /// Exchanges buffer metadata between two ranks through the bootstrap,
    /// as the real library does during connection setup.
    fn exchange_handles(&mut self, a: Rank, b: Rank, len_a: usize, len_b: usize) -> Result<()> {
        let tag = 0x4d53_4343; // "MSCC"
        self.bootstraps[a.0].send(b, tag, (len_a as u64).to_le_bytes().to_vec())?;
        self.bootstraps[b.0].send(a, tag, (len_b as u64).to_le_bytes().to_vec())?;
        let from_a = self.bootstraps[b.0].recv(a, tag)?;
        let from_b = self.bootstraps[a.0].recv(b, tag)?;
        if from_a.len() != 8 || from_b.len() != 8 {
            return Err(Error::Bootstrap("malformed buffer handle".into()));
        }
        Ok(())
    }

    /// Creates a pair of memory-mapped channel endpoints between `a` and
    /// `b`: `a` puts from `src_a` into `dst_on_b`, and `b` puts from
    /// `src_b` into `dst_on_a`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if the ranks are equal or on
    /// different nodes (memory-mapped peer access does not cross nodes),
    /// or if a buffer is not owned by its stated rank.
    #[allow(clippy::too_many_arguments)]
    pub fn memory_channel_pair(
        &mut self,
        a: Rank,
        src_a: BufferId,
        dst_on_b: BufferId,
        b: Rank,
        src_b: BufferId,
        dst_on_a: BufferId,
        protocol: Protocol,
    ) -> Result<(MemoryChannel, MemoryChannel)> {
        if a == b {
            return Err(Error::InvalidArgument(format!(
                "memory channel endpoints must differ (both {a})"
            )));
        }
        if !self.topology().same_node(a, b) {
            return Err(Error::InvalidArgument(format!(
                "memory channel requires peer-to-peer access, but {a} and {b} \
                 are on different nodes; use a port channel"
            )));
        }
        self.check_owner("memory channel src_a", src_a, a)?;
        self.check_owner("memory channel dst_on_a", dst_on_a, a)?;
        self.check_owner("memory channel src_b", src_b, b)?;
        self.check_owner("memory channel dst_on_b", dst_on_b, b)?;
        let pool = self.engine.world().pool();
        let (la, lb) = (pool.len(dst_on_b), pool.len(dst_on_a));
        self.exchange_handles(a, b, la, lb)?;

        let sem_a = self.engine.alloc_cell();
        let sem_b = self.engine.alloc_cell();
        let arr_a = self.engine.alloc_cell();
        let arr_b = self.engine.alloc_cell();
        let ch_a = MemoryChannel {
            local_rank: a,
            peer_rank: b,
            local_buf: src_a,
            remote_buf: dst_on_b,
            my_sem: sem_a,
            peer_sem: sem_b,
            my_arrival: arr_a,
            peer_arrival: arr_b,
            protocol,
            sem_expect: Rc::new(Cell::new(0)),
            arrival_expect: Rc::new(Cell::new(0)),
        };
        let ch_b = MemoryChannel {
            local_rank: b,
            peer_rank: a,
            local_buf: src_b,
            remote_buf: dst_on_a,
            my_sem: sem_b,
            peer_sem: sem_a,
            my_arrival: arr_b,
            peer_arrival: arr_a,
            protocol,
            sem_expect: Rc::new(Cell::new(0)),
            arrival_expect: Rc::new(Cell::new(0)),
        };
        Ok((ch_a, ch_b))
    }

    /// Creates a pair of port-mapped channel endpoints between `a` and
    /// `b` (intra-node DMA or inter-node RDMA), spawning one CPU proxy
    /// daemon per direction.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if the ranks are equal or a
    /// buffer is not owned by its stated rank, and [`Error::Unsupported`]
    /// if the ranks are on different nodes and the environment has no
    /// network.
    #[allow(clippy::too_many_arguments)]
    pub fn port_channel_pair(
        &mut self,
        a: Rank,
        src_a: BufferId,
        dst_on_b: BufferId,
        b: Rank,
        src_b: BufferId,
        dst_on_a: BufferId,
    ) -> Result<(PortChannel, PortChannel)> {
        if a == b {
            return Err(Error::InvalidArgument(format!(
                "port channel endpoints must differ (both {a})"
            )));
        }
        if !self.topology().same_node(a, b) && self.engine.world().spec().net.is_none() {
            return Err(Error::Unsupported(format!(
                "{a} and {b} are on different nodes but the environment has no network"
            )));
        }
        self.check_owner("port channel src_a", src_a, a)?;
        self.check_owner("port channel dst_on_a", dst_on_a, a)?;
        self.check_owner("port channel src_b", src_b, b)?;
        self.check_owner("port channel dst_on_b", dst_on_b, b)?;
        let pool = self.engine.world().pool();
        let (la, lb) = (pool.len(dst_on_b), pool.len(dst_on_a));
        self.exchange_handles(a, b, la, lb)?;

        let sem_a = self.engine.alloc_cell();
        let sem_b = self.engine.alloc_cell();
        let arr_a = self.engine.alloc_cell();
        let arr_b = self.engine.alloc_cell();
        // Retry jitter derives from the fault-plan seed and the proxy's
        // endpoints, so each proxy has an independent deterministic stream.
        let fault_seed = self.engine.fault_plan().map(|p| p.seed).unwrap_or(0);
        let mut make = |local: Rank,
                        peer: Rank,
                        local_buf: BufferId,
                        remote_buf: BufferId,
                        my_sem,
                        peer_sem,
                        my_arrival,
                        peer_arrival| {
            let fifo = Rc::new(RefCell::new(FifoState::default()));
            if let Some(reg) = &self.fifo_registry {
                reg.borrow_mut().push(fifo.clone());
            }
            let pushed_cell = self.engine.alloc_cell();
            let completed_cell = self.engine.alloc_cell();
            self.engine.spawn_daemon(ProxyProc {
                src: local,
                dst: peer,
                fifo: fifo.clone(),
                pushed_cell,
                completed_cell,
                peer_sem,
                peer_arrival,
                processed: 0,
                ov: self.ov.clone(),
                attempts: 0,
                rng: sim::SimRng::new(fault_seed ^ ((local.0 as u64) << 32) ^ (peer.0 as u64 + 1)),
                ids: None,
                intra: self.engine.world().topology().same_node(local, peer),
            });
            PortChannel {
                local_rank: local,
                peer_rank: peer,
                local_buf,
                remote_buf,
                my_sem,
                peer_sem,
                pushed_cell,
                completed_cell,
                my_arrival,
                peer_arrival,
                fifo,
                sem_expect: Rc::new(Cell::new(0)),
            }
        };
        let ch_a = make(a, b, src_a, dst_on_b, sem_a, sem_b, arr_a, arr_b);
        let ch_b = make(b, a, src_b, dst_on_a, sem_b, sem_a, arr_b, arr_a);
        Ok((ch_a, ch_b))
    }

    /// Creates a switch (multimem) channel over `members` — one `(rank,
    /// buffer)` per participating GPU, all on one node — returning one
    /// endpoint per member, in order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] if the interconnect has no multimem
    /// support, and [`Error::InvalidArgument`] for mixed-node members,
    /// mismatched buffer sizes, or buffers not owned by their rank.
    pub fn switch_channel(&mut self, members: &[(Rank, BufferId)]) -> Result<Vec<SwitchChannel>> {
        if !hw::supports_multimem(self.engine.world()) {
            return Err(Error::Unsupported(format!(
                "{}: switch channel needs multimem (NVLink 4.0 / NVSwitch)",
                self.engine.world().spec().name
            )));
        }
        let (first, rest) = members
            .split_first()
            .ok_or_else(|| Error::InvalidArgument("switch channel needs members".into()))?;
        let len0 = self.engine.world().pool().len(first.1);
        for &(r, buf) in members {
            self.check_owner("switch channel member", buf, r)?;
            if !self.topology().same_node(first.0, r) {
                return Err(Error::InvalidArgument(format!(
                    "switch channel members {} and {r} are on different nodes",
                    first.0
                )));
            }
            if self.engine.world().pool().len(buf) != len0 {
                return Err(Error::InvalidArgument(
                    "switch channel member buffers must have equal sizes".into(),
                ));
            }
        }
        let _ = rest;
        let shared = Rc::new(members.to_vec());
        Ok(members
            .iter()
            .map(|&(rank, local_buf)| SwitchChannel {
                rank,
                local_buf,
                members: shared.clone(),
            })
            .collect())
    }

    /// Allocates a standalone semaphore on `owner`'s memory (see
    /// [`Semaphore`]).
    pub fn semaphore(&mut self, owner: Rank) -> Semaphore {
        Semaphore {
            owner,
            cell: self.engine.alloc_cell(),
            expect: Rc::new(Cell::new(0)),
        }
    }

    /// Creates a reusable barrier over `ranks`, returning one handle per
    /// rank, in order.
    pub fn device_barrier(&mut self, ranks: &[Rank]) -> Vec<DeviceBarrier> {
        let cell = self.engine.alloc_cell();
        let topo = self.topology();
        let cross_node = ranks
            .split_first()
            .map(|(f, rest)| rest.iter().any(|r| !topo.same_node(*f, *r)))
            .unwrap_or(false);
        let prop = if cross_node {
            hw::net_latency(self.engine.world())
        } else {
            hw::intra_latency(self.engine.world())
        };
        ranks
            .iter()
            .map(|_| DeviceBarrier {
                cell,
                parties: ranks.len(),
                prop,
                round: Rc::new(Cell::new(0)),
            })
            .collect()
    }
}
