//! `msccl`: a reproduction of the MSCCL baseline — *custom* collective
//! algorithms (all-pairs and hierarchical, the same data flows MSCCL++
//! uses) executed over the *NCCL-style* transport of [`ncclsim`]
//! (staging FIFOs, rendezvous credits, per-primitive thread-group
//! synchronization).
//!
//! This is exactly the paper's gain-breakdown methodology (§5.1):
//! MSCCL's advantage over NCCL comes purely from better algorithms
//! (all-pairs beats ring in latency; hierarchical beats ring in
//! cross-node bandwidth), while MSCCL++'s additional advantage over
//! MSCCL comes purely from the cheaper primitives. Comparing `msccl` and
//! `collective` timings isolates the primitive-interface benefit.
//!
//! Kernels are emitted and launched through [`ncclsim::Driver`], the
//! path NCCL's communicator uses, with MSCCL's 96 registers per thread.
//! Two-phase all-pairs AllReduce is the hierarchical plan on one node,
//! where its cross-node phase has no peers.
//!
//! # Example
//!
//! ```
//! use hw::{DataType, EnvKind, Machine, ReduceOp};
//! use msccl::{MscclComm, MscclAlgo};
//! use mscclpp::Setup;
//! use sim::Engine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
//! let mut setup = Setup::new(&mut engine);
//! let comm = MscclComm::new(&mut setup, msccl::MscclConfig::default());
//! let count = 256usize;
//! let bufs = setup.alloc_all(count * 4);
//! for r in 0..8 {
//!     engine.world_mut().pool_mut().fill_with(bufs[r], DataType::F32, |_| 2.0);
//! }
//! let t = comm.all_reduce(&mut engine, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum, None)?;
//! assert_eq!(engine.world().pool().to_f32_vec(bufs[0], DataType::F32)[0], 16.0);
//! println!("algo auto, took {}", t.elapsed());
//! # let _ = MscclAlgo::OnePhaseAllPairs;
//! # Ok(())
//! # }
//! ```

#![allow(clippy::needless_range_loop)] // conn grids are indexed by construction
use hw::{BufferId, DataType, Machine, Rank, ReduceOp, Topology};
use mscclpp::{peers_staggered, split_range, Kernel, KernelTiming, Result, Setup};
use ncclsim::{batch, batches, spec_members, Conn, Driver, NcclConfig, Proto};
use sim::Engine;

/// MSCCL stack configuration: the NCCL transport constants plus MSCCL's
/// own register footprint (§3.2.3: 96 registers/thread).
#[derive(Debug, Clone, PartialEq)]
pub struct MscclConfig {
    /// The underlying NCCL transport configuration.
    pub transport: NcclConfig,
    /// Thread blocks (channels) used by bandwidth-bound kernels.
    pub channels: usize,
    /// Registers per thread of MSCCL kernels.
    pub regs_per_thread: u32,
}

impl Default for MscclConfig {
    fn default() -> MscclConfig {
        MscclConfig {
            transport: NcclConfig::nccl(),
            channels: 4,
            regs_per_thread: 96,
        }
    }
}

/// An MSCCL algorithm choice (the custom algorithms its DSL provides).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum MscclAlgo {
    /// One-phase all-pairs (small messages, single node).
    OnePhaseAllPairs,
    /// Two-phase all-pairs (ReduceScatter + AllGather, single node):
    /// the hierarchical plan on one node.
    TwoPhaseAllPairs,
    /// Two-phase hierarchical (multi-node).
    TwoPhaseHierarchical,
}

/// The MSCCL communicator: all-pairs and hierarchical connection meshes
/// over the NCCL transport, plus compiled collective kernels.
#[derive(Debug)]
pub struct MscclComm {
    topo: Topology,
    /// Thread blocks (channels) of bandwidth-bound kernels.
    channels: usize,
    /// All-pairs connections: `mesh[tb][a][b]` carries a → b.
    mesh: Vec<Vec<Vec<Option<Conn>>>>,
    /// Cross-node connections among corresponding GPUs:
    /// `cross[tb][local][na][nb]` carries (na, local) → (nb, local).
    cross: Vec<Vec<Vec<Vec<Option<Conn>>>>>,
    driver: Driver,
}

impl MscclComm {
    /// Builds the communicator, allocating staging FIFOs for every
    /// all-pairs edge (and cross-node edges on multi-node topologies).
    pub fn new(setup: &mut Setup<'_>, cfg: MscclConfig) -> MscclComm {
        let topo = setup.topology();
        let n = topo.world_size();
        let mut mesh = Vec::with_capacity(cfg.channels);
        for _ in 0..cfg.channels {
            let mut grid: Vec<Vec<Option<Conn>>> = vec![vec![None; n]; n];
            for a in 0..n {
                for b in 0..n {
                    if a != b && topo.same_node(Rank(a), Rank(b)) {
                        grid[a][b] = Some(Conn::create(setup, &cfg.transport, Rank(a), Rank(b)));
                    }
                }
            }
            mesh.push(grid);
        }
        let (nodes, gpn) = (topo.nodes(), topo.gpus_per_node());
        let mut cross = Vec::with_capacity(cfg.channels);
        for _ in 0..cfg.channels {
            let mut per_local = Vec::with_capacity(gpn);
            for l in 0..gpn {
                let mut grid: Vec<Vec<Option<Conn>>> = vec![vec![None; nodes]; nodes];
                for na in 0..nodes {
                    for nb in 0..nodes {
                        if na != nb {
                            grid[na][nb] = Some(Conn::create(
                                setup,
                                &cfg.transport,
                                topo.rank_at(na, l),
                                topo.rank_at(nb, l),
                            ));
                        }
                    }
                }
                per_local.push(grid);
            }
            cross.push(per_local);
        }
        MscclComm {
            topo,
            channels: cfg.channels,
            mesh,
            cross,
            driver: Driver::new(setup, "msccl", cfg.regs_per_thread, cfg.transport),
        }
    }

    /// MSCCL's size-based algorithm selection (mirrors the MSCCL
    /// scheduler's behaviour described in §5.1).
    pub fn tune(&self, bytes: usize) -> (MscclAlgo, Proto, usize) {
        let proto = if bytes <= 256 << 10 {
            Proto::LL
        } else {
            Proto::Simple
        };
        let channels = if bytes <= 64 << 10 { 1 } else { self.channels };
        let algo = if self.topo.nodes() > 1 {
            MscclAlgo::TwoPhaseHierarchical
        } else if bytes <= 16 << 10 {
            MscclAlgo::OnePhaseAllPairs
        } else {
            MscclAlgo::TwoPhaseAllPairs
        };
        (algo, proto, channels)
    }

    fn conn(&self, tb: usize, a: usize, b: usize) -> &Conn {
        self.mesh[tb][a][b].as_ref().expect("no intra-node conn")
    }

    fn cross_conn(&self, tb: usize, l: usize, na: usize, nb: usize) -> &Conn {
        self.cross[tb][l][na][nb]
            .as_ref()
            .expect("no cross-node conn")
    }

    /// One-phase all-pairs AllReduce kernels over NCCL primitives: each
    /// of `nch` channels sends its slice of the whole message to every
    /// peer and reduces the peers' slices into the output.
    #[allow(clippy::too_many_arguments)]
    fn one_phase_kernels(
        &self,
        inputs: &[BufferId],
        outputs: &[BufferId],
        bytes: usize,
        dtype: DataType,
        op: ReduceOp,
        proto: Proto,
        nch: usize,
    ) -> Vec<Kernel> {
        let n = self.topo.world_size();
        let es = dtype.size();
        let slot = self.driver.config().slot_bytes(proto) / es * es;
        self.driver.kernels(nch, proto, dtype, op, |g, t, p| {
            let (ms, ml) = split_range(bytes / es, nch, t);
            let (ms, ml) = (ms * es, ml * es);
            for b in 0..batches(ml, slot) {
                let (off, len) = batch(ms, ml, slot, b);
                for q in peers_staggered(n, g, t) {
                    p.send(self.conn(t, g, q), inputs[g], off, len);
                }
                p.copy_local(inputs[g], off, outputs[g], off, len);
                for q in peers_staggered(n, g, t) {
                    p.recv_reduce_copy(self.conn(t, q, g), outputs[g], off, outputs[g], off, len);
                }
            }
        })
    }

    /// Two-phase hierarchical AllReduce kernels over NCCL primitives:
    /// node-local all-pairs ReduceScatter, cross-node all-pairs exchange
    /// among corresponding GPUs, node-local all-pairs AllGather. On one
    /// node the cross-node phase has no peers, and this is the two-phase
    /// all-pairs AllReduce.
    #[allow(clippy::too_many_arguments)]
    fn hierarchical_kernels(
        &self,
        inputs: &[BufferId],
        outputs: &[BufferId],
        bytes: usize,
        dtype: DataType,
        op: ReduceOp,
        proto: Proto,
        nch: usize,
    ) -> Vec<Kernel> {
        let (nodes, gpn) = (self.topo.nodes(), self.topo.gpus_per_node());
        let es = dtype.size();
        let count = bytes / es;
        let slot = self.driver.config().slot_bytes(proto) / es * es;
        let shard = |i: usize| split_range(count, gpn, i);
        self.driver.kernels(nch, proto, dtype, op, |g, t, p| {
            let node = g / gpn;
            let li = g % gpn;
            let lbase = node * gpn;
            // Slice of local shard i handled by this channel, in bytes.
            let slice = |i: usize| {
                let (cs, cl) = shard(i);
                let (sl, sll) = split_range(cl, nch, t);
                ((cs + sl) * es, sll * es)
            };
            let (my_off, my_len) = slice(li);
            let max_len = (0..gpn).map(|i| slice(i).1).max().unwrap_or(0);
            let nb = batches(max_len, slot);
            for b in 0..nb {
                // Phase 1: node-local all-pairs ReduceScatter of shard li,
                // interleaving sends and receives per batch to stay
                // within FIFO credit.
                for q in peers_staggered(gpn, li, t) {
                    let (qoff, qlen) = slice(q);
                    let (boff, blen) = batch(qoff, qlen, slot, b);
                    p.send(self.conn(t, g, lbase + q), inputs[g], boff, blen);
                }
                let (boff, blen) = batch(my_off, my_len, slot, b);
                p.copy_local(inputs[g], boff, outputs[g], boff, blen);
                for q in peers_staggered(gpn, li, t) {
                    let conn = self.conn(t, lbase + q, g);
                    p.recv_reduce_copy(conn, outputs[g], boff, outputs[g], boff, blen);
                }
            }
            // Phase 2: cross-node all-pairs exchange of my shard.
            for b in 0..nb {
                let (boff, blen) = batch(my_off, my_len, slot, b);
                for q in peers_staggered(nodes, node, t) {
                    p.send(self.cross_conn(t, li, node, q), outputs[g], boff, blen);
                }
                for q in peers_staggered(nodes, node, t) {
                    let conn = self.cross_conn(t, li, q, node);
                    p.recv_reduce_copy(conn, outputs[g], boff, outputs[g], boff, blen);
                }
            }
            // Phase 3: node-local all-pairs AllGather.
            for b in 0..nb {
                let (boff, blen) = batch(my_off, my_len, slot, b);
                for q in peers_staggered(gpn, li, t) {
                    p.send(self.conn(t, g, lbase + q), outputs[g], boff, blen);
                }
                for q in peers_staggered(gpn, li, t) {
                    let (qoff, qlen) = slice(q);
                    let (qboff, qblen) = batch(qoff, qlen, slot, b);
                    p.recv_copy(self.conn(t, lbase + q, g), outputs[g], qboff, qblen);
                }
            }
        })
    }

    /// All-pairs AllGather kernels over NCCL primitives (`bytes`
    /// contributed per rank; hierarchical across nodes).
    fn all_gather_kernels(
        &self,
        inputs: &[BufferId],
        outputs: &[BufferId],
        bytes: usize,
        dtype: DataType,
        proto: Proto,
        nch: usize,
    ) -> Vec<Kernel> {
        let (nodes, gpn) = (self.topo.nodes(), self.topo.gpus_per_node());
        let slot = self.driver.config().slot_bytes(proto);
        // AllGather carries no reduction; op is irrelevant.
        let op = ReduceOp::Sum;
        self.driver.kernels(nch, proto, dtype, op, |g, t, p| {
            let node = g / gpn;
            let li = g % gpn;
            let lbase = node * gpn;
            let (ms, ml) = split_range(bytes, nch, t);
            for b in 0..batches(ml, slot) {
                let (boff, blen) = batch(ms, ml, slot, b);
                // Cross-node exchange among corresponding GPUs.
                for q in peers_staggered(nodes, node, t) {
                    p.send(self.cross_conn(t, li, node, q), inputs[g], boff, blen);
                }
                p.copy_local(inputs[g], boff, outputs[g], g * bytes + boff, blen);
                for q in peers_staggered(nodes, node, t) {
                    let src_rank = q * gpn + li;
                    let conn = self.cross_conn(t, li, q, node);
                    p.recv_copy(conn, outputs[g], src_rank * bytes + boff, blen);
                }
                // Node-local distribution: I hold the chunks of every
                // node's GPU at my local index; push them to all local
                // peers, then collect theirs (matching the senders' chunk
                // order).
                for chunk_node in 0..nodes {
                    let chunk_rank = chunk_node * gpn + li;
                    for q in peers_staggered(gpn, li, t) {
                        let conn = self.conn(t, g, lbase + q);
                        p.send(conn, outputs[g], chunk_rank * bytes + boff, blen);
                    }
                }
                for chunk_node in 0..nodes {
                    for q in peers_staggered(gpn, li, t) {
                        let src_rank = chunk_node * gpn + q;
                        let conn = self.conn(t, lbase + q, g);
                        p.recv_copy(conn, outputs[g], src_rank * bytes + boff, blen);
                    }
                }
            }
        })
    }

    /// AllReduce over all ranks. `algo` overrides the tuner when given;
    /// its channel count is capped at the communicator's channels.
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks.
    #[allow(clippy::too_many_arguments)]
    pub fn all_reduce(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        op: ReduceOp,
        algo: Option<(MscclAlgo, Proto, usize)>,
    ) -> Result<KernelTiming> {
        let bytes = count * dtype.size();
        let (algo, proto, nch) = algo.unwrap_or_else(|| self.tune(bytes));
        let nch = nch.min(self.channels);
        let kernels = match algo {
            MscclAlgo::OnePhaseAllPairs => {
                self.one_phase_kernels(inputs, outputs, bytes, dtype, op, proto, nch)
            }
            MscclAlgo::TwoPhaseAllPairs | MscclAlgo::TwoPhaseHierarchical => {
                self.hierarchical_kernels(inputs, outputs, bytes, dtype, op, proto, nch)
            }
        };
        let members = spec_members(&self.topo, inputs, outputs);
        let spec = commverify::CollectiveSpec::all_reduce(members, bytes);
        self.driver.launch(engine, &kernels, &spec)
    }

    /// AllGather over all ranks (`count` elements contributed per rank).
    /// `choice` overrides the tuner when given; its channel count is
    /// capped at the communicator's channels.
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks.
    #[allow(clippy::too_many_arguments)]
    pub fn all_gather(
        &self,
        engine: &mut Engine<Machine>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        count: usize,
        dtype: DataType,
        choice: Option<(Proto, usize)>,
    ) -> Result<KernelTiming> {
        let bytes = count * dtype.size();
        let (proto, nch) = choice.unwrap_or_else(|| {
            let (_, proto, nch) = self.tune(bytes);
            (proto, nch)
        });
        let nch = nch.min(self.channels);
        let kernels = self.all_gather_kernels(inputs, outputs, bytes, dtype, proto, nch);
        let members = spec_members(&self.topo, inputs, outputs);
        let spec = commverify::CollectiveSpec::all_gather(members, bytes);
        self.driver.launch(engine, &kernels, &spec)
    }
}
