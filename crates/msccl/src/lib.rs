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
use mscclpp::{
    run_kernels, split_range, Kernel, KernelBuilder, KernelTiming, Overheads, Result, Setup,
};
use ncclsim::{spec_members, verify_first_launch, Conn, NcclConfig, Prims, Proto};
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
    /// Two-phase all-pairs (ReduceScatter + AllGather, single node).
    TwoPhaseAllPairs,
    /// Two-phase hierarchical (multi-node).
    TwoPhaseHierarchical,
}

fn peers(n: usize, me: usize, tb: usize) -> impl Iterator<Item = usize> {
    (0..n - 1).map(move |j| (me + 1 + (tb + j) % (n - 1)) % n)
}

/// The MSCCL communicator: all-pairs and hierarchical connection meshes
/// over the NCCL transport, plus compiled collective kernels.
#[derive(Debug)]
pub struct MscclComm {
    cfg: MscclConfig,
    topo: Topology,
    /// All-pairs connections: `mesh[tb][a][b]` carries a → b.
    mesh: Vec<Vec<Vec<Option<Conn>>>>,
    /// Cross-node connections among corresponding GPUs:
    /// `cross[tb][local][na][nb]` carries (na, local) → (nb, local).
    cross: Vec<Vec<Vec<Vec<Option<Conn>>>>>,
    ov: Overheads,
    /// Armed until the first launch is verified ([`verify_first_launch`]).
    verify: std::cell::Cell<bool>,
}

impl MscclComm {
    /// Builds the communicator, allocating staging FIFOs for every
    /// all-pairs edge (and cross-node edges on multi-node topologies).
    pub fn new(setup: &mut Setup<'_>, cfg: MscclConfig) -> MscclComm {
        let topo = setup.topology();
        let n = topo.world_size();
        let ov = setup.overheads().clone();
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
            cfg,
            topo,
            mesh,
            cross,
            ov,
            verify: std::cell::Cell::new(true),
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
        let channels = if bytes <= 64 << 10 {
            1
        } else {
            self.cfg.channels
        };
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

    /// One-phase all-pairs AllReduce kernels over NCCL primitives.
    fn one_phase_kernels(
        &self,
        inputs: &[BufferId],
        outputs: &[BufferId],
        bytes: usize,
        dtype: DataType,
        op: ReduceOp,
        proto: Proto,
    ) -> Vec<Kernel> {
        let n = self.topo.world_size();
        let slot = self.cfg.transport.slot_bytes(proto);
        let nbatches = bytes.div_ceil(slot).max(1);
        let mut out = Vec::with_capacity(n);
        for g in 0..n {
            let mut kb = KernelBuilder::new(Rank(g));
            kb.regs_per_thread(self.cfg.regs_per_thread);
            {
                let mut tb = kb.block(0);
                let mut p = Prims::new(&mut tb, &self.cfg.transport, proto, dtype, op);
                for b in 0..nbatches {
                    let lo = (b * slot).min(bytes);
                    let hi = ((b + 1) * slot).min(bytes);
                    let (off, len) = (lo, hi - lo);
                    for q in peers(n, g, 0) {
                        p.send(self.conn(0, g, q), inputs[g], off, len);
                    }
                    p.copy_local(inputs[g], off, outputs[g], off, len);
                    for q in peers(n, g, 0) {
                        p.recv_reduce_copy(
                            self.conn(0, q, g),
                            outputs[g],
                            off,
                            outputs[g],
                            off,
                            len,
                        );
                    }
                }
            }
            out.push(kb.build());
        }
        out
    }

    /// Two-phase all-pairs AllReduce kernels over NCCL primitives.
    #[allow(clippy::too_many_arguments)]
    fn two_phase_kernels(
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
        let count = bytes / es;
        let slot_elems = self.cfg.transport.slot_bytes(proto) / es;
        let shard = |i: usize| split_range(count, n, i);
        let mut out = Vec::with_capacity(n);
        for g in 0..n {
            let mut kb = KernelBuilder::new(Rank(g));
            kb.regs_per_thread(self.cfg.regs_per_thread);
            for t in 0..nch {
                let mut tb = kb.block(t);
                let mut p = Prims::new(&mut tb, &self.cfg.transport, proto, dtype, op);
                // Slice of shard i handled by this channel.
                let slice = |i: usize| {
                    let (cs, cl) = shard(i);
                    let (sl, sll) = split_range(cl, nch, t);
                    ((cs + sl) * es, sll * es)
                };
                let (my_off, my_len) = slice(g);
                let max_len = (0..n).map(|i| slice(i).1).max().unwrap_or(0);
                let nbatches = max_len.div_ceil(slot_elems * es).max(1);
                let batch = |off: usize, len: usize, b: usize| {
                    let lo = (b * slot_elems * es).min(len);
                    let hi = ((b + 1) * slot_elems * es).min(len);
                    (off + lo, hi - lo)
                };
                // ReduceScatter phase, interleaving sends and receives per
                // batch to stay within FIFO credit.
                for b in 0..nbatches {
                    for q in peers(n, g, t) {
                        let (qoff, qlen) = slice(q);
                        let (boff, blen) = batch(qoff, qlen, b);
                        p.send(self.conn(t, g, q), inputs[g], boff, blen);
                    }
                    let (boff, blen) = batch(my_off, my_len, b);
                    p.copy_local(inputs[g], boff, outputs[g], boff, blen);
                    for q in peers(n, g, t) {
                        p.recv_reduce_copy(
                            self.conn(t, q, g),
                            outputs[g],
                            boff,
                            outputs[g],
                            boff,
                            blen,
                        );
                    }
                }
                // AllGather phase.
                for b in 0..nbatches {
                    let (boff, blen) = batch(my_off, my_len, b);
                    for q in peers(n, g, t) {
                        p.send(self.conn(t, g, q), outputs[g], boff, blen);
                    }
                    for q in peers(n, g, t) {
                        let (qoff, qlen) = slice(q);
                        let (qboff, qblen) = batch(qoff, qlen, b);
                        p.recv_copy(self.conn(t, q, g), outputs[g], qboff, qblen);
                    }
                }
            }
            out.push(kb.build());
        }
        out
    }

    /// Two-phase hierarchical AllReduce kernels over NCCL primitives:
    /// node-local all-pairs ReduceScatter, cross-node all-pairs exchange
    /// among corresponding GPUs, node-local all-pairs AllGather.
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
        let slot_elems = self.cfg.transport.slot_bytes(proto) / es;
        let shard = |i: usize| split_range(count, gpn, i);
        let mut out = Vec::with_capacity(self.topo.world_size());
        for g in 0..self.topo.world_size() {
            let node = g / gpn;
            let li = g % gpn;
            let lbase = node * gpn;
            let mut kb = KernelBuilder::new(Rank(g));
            kb.regs_per_thread(self.cfg.regs_per_thread);
            for t in 0..nch {
                let mut tb = kb.block(t);
                let mut p = Prims::new(&mut tb, &self.cfg.transport, proto, dtype, op);
                let slice = |i: usize| {
                    let (cs, cl) = shard(i);
                    let (sl, sll) = split_range(cl, nch, t);
                    ((cs + sl) * es, sll * es)
                };
                let (my_off, my_len) = slice(li);
                let max_len = (0..gpn).map(|i| slice(i).1).max().unwrap_or(0);
                let nbatches = max_len.div_ceil(slot_elems * es).max(1);
                let batch = |off: usize, len: usize, b: usize| {
                    let lo = (b * slot_elems * es).min(len);
                    let hi = ((b + 1) * slot_elems * es).min(len);
                    (off + lo, hi - lo)
                };
                // Phase 1: node-local all-pairs ReduceScatter of shard li.
                for b in 0..nbatches {
                    for q in peers(gpn, li, t) {
                        let (qoff, qlen) = slice(q);
                        let (boff, blen) = batch(qoff, qlen, b);
                        p.send(self.conn(t, g, lbase + q), inputs[g], boff, blen);
                    }
                    let (boff, blen) = batch(my_off, my_len, b);
                    p.copy_local(inputs[g], boff, outputs[g], boff, blen);
                    for q in peers(gpn, li, t) {
                        p.recv_reduce_copy(
                            self.conn(t, lbase + q, g),
                            outputs[g],
                            boff,
                            outputs[g],
                            boff,
                            blen,
                        );
                    }
                }
                // Phase 2: cross-node all-pairs exchange of my shard.
                for b in 0..nbatches {
                    let (boff, blen) = batch(my_off, my_len, b);
                    for q in peers(nodes, node, t) {
                        p.send(self.cross_conn(t, li, node, q), outputs[g], boff, blen);
                    }
                    for q in peers(nodes, node, t) {
                        p.recv_reduce_copy(
                            self.cross_conn(t, li, q, node),
                            outputs[g],
                            boff,
                            outputs[g],
                            boff,
                            blen,
                        );
                    }
                }
                // Phase 3: node-local all-pairs AllGather.
                for b in 0..nbatches {
                    let (boff, blen) = batch(my_off, my_len, b);
                    for q in peers(gpn, li, t) {
                        p.send(self.conn(t, g, lbase + q), outputs[g], boff, blen);
                    }
                    for q in peers(gpn, li, t) {
                        let (qoff, qlen) = slice(q);
                        let (qboff, qblen) = batch(qoff, qlen, b);
                        p.recv_copy(self.conn(t, lbase + q, g), outputs[g], qboff, qblen);
                    }
                }
            }
            out.push(kb.build());
        }
        out
    }

    /// All-pairs AllGather kernels over NCCL primitives (`count` elements
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
        let n = self.topo.world_size();
        let (nodes, gpn) = (self.topo.nodes(), self.topo.gpus_per_node());
        let es = dtype.size();
        let slot = self.cfg.transport.slot_bytes(proto);
        let mut out = Vec::with_capacity(n);
        let _ = es;
        for g in 0..n {
            let node = g / gpn;
            let li = g % gpn;
            let lbase = node * gpn;
            let mut kb = KernelBuilder::new(Rank(g));
            kb.regs_per_thread(self.cfg.regs_per_thread);
            for t in 0..nch {
                let mut tb = kb.block(t);
                let mut p = Prims::new(&mut tb, &self.cfg.transport, proto, dtype, ReduceOp::Sum);
                let (ms, ml) = split_range(bytes, nch, t);
                let nbatches = ml.div_ceil(slot).max(1);
                let batch = |b: usize| {
                    let lo = (b * slot).min(ml);
                    let hi = ((b + 1) * slot).min(ml);
                    (ms + lo, hi - lo)
                };
                for b in 0..nbatches {
                    let (boff, blen) = batch(b);
                    // Cross-node exchange among corresponding GPUs.
                    for q in peers(nodes.max(1), node, t) {
                        if nodes > 1 {
                            p.send(self.cross_conn(t, li, node, q), inputs[g], boff, blen);
                        }
                    }
                    p.copy_local(inputs[g], boff, outputs[g], g * bytes + boff, blen);
                    if nodes > 1 {
                        for q in peers(nodes, node, t) {
                            let src_rank = q * gpn + li;
                            p.recv_copy(
                                self.cross_conn(t, li, q, node),
                                outputs[g],
                                src_rank * bytes + boff,
                                blen,
                            );
                        }
                    }
                    // Node-local distribution: I hold the chunks of every
                    // node's GPU at my local index; push them to all
                    // local peers, then collect theirs (matching the
                    // senders' chunk order).
                    for chunk_node in 0..nodes {
                        let chunk_rank = chunk_node * gpn + li;
                        for q in peers(gpn, li, t) {
                            p.send(
                                self.conn(t, g, lbase + q),
                                outputs[g],
                                chunk_rank * bytes + boff,
                                blen,
                            );
                        }
                    }
                    for chunk_node in 0..nodes {
                        for q in peers(gpn, li, t) {
                            let src_rank = chunk_node * gpn + q;
                            p.recv_copy(
                                self.conn(t, lbase + q, g),
                                outputs[g],
                                src_rank * bytes + boff,
                                blen,
                            );
                        }
                    }
                }
            }
            out.push(kb.build());
        }
        out
    }

    /// AllReduce over all ranks. `algo` overrides the tuner when given.
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
        let kernels = match algo {
            MscclAlgo::OnePhaseAllPairs => {
                self.one_phase_kernels(inputs, outputs, bytes, dtype, op, proto)
            }
            MscclAlgo::TwoPhaseAllPairs => {
                self.two_phase_kernels(inputs, outputs, bytes, dtype, op, proto, nch)
            }
            MscclAlgo::TwoPhaseHierarchical => {
                self.hierarchical_kernels(inputs, outputs, bytes, dtype, op, proto, nch)
            }
        };
        mscclpp::record_launch_mix(engine, "msccl", &kernels);
        let spec = commverify::CollectiveSpec::all_reduce(
            spec_members(&self.topo, inputs, outputs),
            bytes,
        );
        verify_first_launch(&self.verify, engine, &kernels, &spec)?;
        run_kernels(engine, &kernels, &self.ov)
    }

    /// AllGather over all ranks (`count` elements contributed per rank).
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
        let kernels = self.all_gather_kernels(inputs, outputs, bytes, dtype, proto, nch);
        mscclpp::record_launch_mix(engine, "msccl", &kernels);
        let spec = commverify::CollectiveSpec::all_gather(
            spec_members(&self.topo, inputs, outputs),
            bytes,
        );
        verify_first_launch(&self.verify, engine, &kernels, &spec)?;
        run_kernels(engine, &kernels, &self.ov)
    }
}
