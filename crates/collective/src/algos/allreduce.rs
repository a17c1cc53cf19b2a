//! The AllReduce algorithm zoo of §4.4: one-phase all-pairs (1PA),
//! two-phase all-pairs (2PA) in LL / HB / Port / Switch variants, and
//! two-phase hierarchical (2PH) in LL / HB variants.
//!
//! Every algorithm is a *prepared* object: channel sets are constructed
//! once (bound to the user buffers, as MSCCL++ channels are) and kernels
//! are emitted per launch. The LL-protocol algorithms rotate between two
//! scratch sets across launches — the paper's rotating-buffer
//! optimization that removes the consumer-side barrier (§4.4).

use std::cell::Cell;

use hw::{BufferId, DataType, Rank, ReduceOp};
use mscclpp::{
    peers_staggered, split_range, DeviceBarrier, Error, Kernel, KernelBuilder, LinkDownError,
    MemoryChannel, Protocol, Result, Setup, SwitchChannel,
};

use crate::wiring::{node_groups, MemMesh, PortMesh};

/// How an LL-protocol algorithm makes its scratch safe for the next
/// launch (the rotating-buffers ablation of §4.4).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Default)]
pub enum ScratchReuse {
    /// Two scratch sets used alternately; no end-of-collective barrier.
    #[default]
    Rotate,
    /// One scratch set protected by a device-wide barrier per launch.
    Barrier,
}

/// Peers visited in a fixed order regardless of thread block — the
/// *wrong* loop order for a mesh, kept for the loop-order ablation.
fn peers_sequential(n: usize, me: usize, _tb: usize) -> impl Iterator<Item = usize> {
    (0..n - 1).map(move |j| (me + 1 + j) % n)
}

/// Loop order across peers (ablation knob; see §5.3).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Default)]
pub enum PeerOrder {
    /// Stagger peers across thread blocks (all mesh links busy at once).
    #[default]
    Staggered,
    /// Same order in every thread block (serializes on one mesh link).
    Sequential,
}

/// Chunk size for pipelined PortChannel transfers.
const PORT_CHUNK: usize = 1 << 20;
/// Chunk size for interleaved switch reduce/broadcast.
const SWITCH_CHUNK: usize = 512 << 10;

/// Yields `(offset, len)` pieces of `total` bytes in `chunk`-sized steps
/// (at least one piece, even for `total == 0`).
pub(crate) fn chunks(total: usize, chunk: usize) -> Vec<(usize, usize)> {
    if total == 0 {
        return vec![(0, 0)];
    }
    let mut out = Vec::with_capacity(total.div_ceil(chunk));
    let mut off = 0;
    while off < total {
        let len = chunk.min(total - off);
        out.push((off, len));
        off += len;
    }
    out
}

/// The peers of `me` among `0..n` in `order`, for thread block `tb`.
pub(crate) fn peer_iter(order: PeerOrder, n: usize, me: usize, tb: usize) -> Vec<usize> {
    match order {
        PeerOrder::Staggered => peers_staggered(n, me, tb).collect(),
        PeerOrder::Sequential => peers_sequential(n, me, tb).collect(),
    }
}

/// One-phase all-pairs AllReduce (1PA) over the LL protocol: every GPU
/// broadcasts its whole input to all peers and reduces everything
/// locally. One synchronization-free phase; bandwidth-wasteful, ideal
/// for very small messages (§4.4).
#[derive(Debug)]
pub(crate) struct OnePhaseAllPairs {
    ranks: Vec<Rank>,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    cap: usize,
    meshes: [MemMesh; 2],
    scratch: [Vec<BufferId>; 2],
    calls: Cell<usize>,
}

impl OnePhaseAllPairs {
    pub fn prepare(
        setup: &mut Setup<'_>,
        ranks: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        cap: usize,
    ) -> Result<OnePhaseAllPairs> {
        let n = ranks.len();
        let mut scratch_sets = Vec::new();
        let mut meshes = Vec::new();
        for _ in 0..2 {
            let mut set = Vec::with_capacity(setup.world_size());
            for r in 0..setup.world_size() {
                // Slot per sender, only meaningful on participating ranks.
                set.push(setup.alloc(Rank(r), n * cap));
            }
            meshes.push(MemMesh::build(setup, ranks, inputs, &set, Protocol::LL, 1)?);
            scratch_sets.push(set);
        }
        let m1 = meshes.pop().unwrap();
        let m0 = meshes.pop().unwrap();
        let s1 = scratch_sets.pop().unwrap();
        let s0 = scratch_sets.pop().unwrap();
        Ok(OnePhaseAllPairs {
            ranks: ranks.to_vec(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            cap,
            meshes: [m0, m1],
            scratch: [s0, s1],
            calls: Cell::new(0),
        })
    }

    pub fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Vec<Kernel> {
        let set = self.calls.get() % 2;
        self.calls.set(self.calls.get() + 1);
        let mesh = &self.meshes[set];
        let scratch = &self.scratch[set];
        let n = self.ranks.len();
        let mut out = Vec::with_capacity(n);
        for (ig, &g) in self.ranks.iter().enumerate() {
            let mut kb = KernelBuilder::new(g);
            {
                let mut tb = kb.block(0);
                for p in peers_staggered(n, ig, 0) {
                    // My data lands in peer p's slot `ig`.
                    tb.put(mesh.at(0, ig, p), ig * self.cap, 0, bytes);
                }
                tb.copy(self.inputs[g.0], 0, self.outputs[g.0], 0, bytes);
                for p in peers_staggered(n, ig, 0) {
                    tb.wait_data(mesh.at(0, ig, p));
                    tb.reduce(
                        scratch[g.0],
                        p * self.cap,
                        self.outputs[g.0],
                        0,
                        bytes,
                        dtype,
                        op,
                    );
                }
            }
            out.push(kb.build());
        }
        out
    }
}

/// Two-phase all-pairs AllReduce (2PA) over the LL protocol:
/// ReduceScatter into per-sender scratch slots, then AllGather, both in
/// the all-pairs pattern, sliced across thread blocks (§4.4).
#[derive(Debug)]
pub(crate) struct TwoPhaseAllPairsLl {
    ranks: Vec<Rank>,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    slot_cap: usize,
    tbs: usize,
    reuse: ScratchReuse,
    order: PeerOrder,
    meshes_rs: [MemMesh; 2],
    meshes_ag: [MemMesh; 2],
    scratch: [Vec<BufferId>; 2],
    barriers: Vec<DeviceBarrier>,
    calls: Cell<usize>,
}

impl TwoPhaseAllPairsLl {
    #[allow(clippy::too_many_arguments)]
    pub fn prepare(
        setup: &mut Setup<'_>,
        ranks: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        cap: usize,
        tbs: usize,
        reuse: ScratchReuse,
        order: PeerOrder,
    ) -> Result<TwoPhaseAllPairsLl> {
        let n = ranks.len();
        let slot_cap = cap.div_ceil(n).next_multiple_of(16);
        let mut meshes_rs = Vec::new();
        let mut meshes_ag = Vec::new();
        let mut scratch_sets = Vec::new();
        for _ in 0..2 {
            let mut set = Vec::with_capacity(setup.world_size());
            for r in 0..setup.world_size() {
                set.push(setup.alloc(Rank(r), n * slot_cap));
            }
            meshes_rs.push(MemMesh::build(
                setup,
                ranks,
                inputs,
                &set,
                Protocol::LL,
                tbs,
            )?);
            meshes_ag.push(MemMesh::build(
                setup,
                ranks,
                outputs,
                outputs,
                Protocol::LL,
                tbs,
            )?);
            scratch_sets.push(set);
        }
        let barriers = setup.device_barrier(ranks);
        let m1 = meshes_rs.pop().unwrap();
        let m0 = meshes_rs.pop().unwrap();
        let a1 = meshes_ag.pop().unwrap();
        let a0 = meshes_ag.pop().unwrap();
        let s1 = scratch_sets.pop().unwrap();
        let s0 = scratch_sets.pop().unwrap();
        Ok(TwoPhaseAllPairsLl {
            ranks: ranks.to_vec(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            slot_cap,
            tbs,
            reuse,
            order,
            meshes_rs: [m0, m1],
            meshes_ag: [a0, a1],
            scratch: [s0, s1],
            barriers,
            calls: Cell::new(0),
        })
    }

    pub fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Vec<Kernel> {
        let set = match self.reuse {
            ScratchReuse::Rotate => {
                let s = self.calls.get() % 2;
                self.calls.set(self.calls.get() + 1);
                s
            }
            ScratchReuse::Barrier => 0,
        };
        let mesh_rs = &self.meshes_rs[set];
        let mesh_ag = &self.meshes_ag[set];
        let scratch = &self.scratch[set];
        let n = self.ranks.len();
        let es = dtype.size();
        let count = bytes / es;
        let shard = |i: usize| split_range(count, n, i);
        let mut out = Vec::with_capacity(n);
        for (ig, &g) in self.ranks.iter().enumerate() {
            let mut kb = KernelBuilder::new(g);
            for t in 0..self.tbs {
                let mut tb = kb.block(t);
                let peers = peer_iter(self.order, n, ig, t);
                // ReduceScatter: send slice t of each peer's shard into
                // their scratch at my sender slot.
                for &p in &peers {
                    let (ps, pl) = shard(p);
                    let (sl, sll) = split_range(pl, self.tbs, t);
                    tb.put(
                        mesh_rs.at(t, ig, p),
                        ig * self.slot_cap + (sl) * es,
                        (ps + sl) * es,
                        sll * es,
                    );
                }
                // My own contribution to my shard.
                let (gs, gl) = shard(ig);
                let (ms, ml) = split_range(gl, self.tbs, t);
                tb.copy(
                    self.inputs[g.0],
                    (gs + ms) * es,
                    self.outputs[g.0],
                    (gs + ms) * es,
                    ml * es,
                );
                for &p in &peers {
                    tb.wait_data(mesh_rs.at(t, ig, p));
                    tb.reduce(
                        scratch[g.0],
                        p * self.slot_cap + ms * es,
                        self.outputs[g.0],
                        (gs + ms) * es,
                        ml * es,
                        dtype,
                        op,
                    );
                }
                // AllGather: push my reduced shard slice to every peer.
                for &p in &peers {
                    tb.put(
                        mesh_ag.at(t, ig, p),
                        (gs + ms) * es,
                        (gs + ms) * es,
                        ml * es,
                    );
                }
                for &p in &peers {
                    tb.wait_data(mesh_ag.at(t, ig, p));
                }
                if self.reuse == ScratchReuse::Barrier && t == 0 {
                    tb.barrier(&self.barriers[ig]);
                }
            }
            out.push(kb.build());
        }
        out
    }
}

/// Two-phase all-pairs AllReduce over the HB protocol, zero-copy: each
/// thread block *reads* its shard slice directly from every peer's input
/// and reduces in registers (no scratch at all), then AllGathers with
/// `putWithSignal` (§4.4's "single thread group reads data from multiple
/// other GPUs at the same time").
#[derive(Debug)]
pub(crate) struct TwoPhaseAllPairsHb {
    ranks: Vec<Rank>,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    tbs: usize,
    order: PeerOrder,
    mesh_read: MemMesh,
    mesh_ag: MemMesh,
}

impl TwoPhaseAllPairsHb {
    pub fn prepare(
        setup: &mut Setup<'_>,
        ranks: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
        order: PeerOrder,
    ) -> Result<TwoPhaseAllPairsHb> {
        let mesh_read = MemMesh::build(setup, ranks, inputs, inputs, Protocol::HB, tbs)?;
        let mesh_ag = MemMesh::build(setup, ranks, outputs, outputs, Protocol::HB, tbs)?;
        Ok(TwoPhaseAllPairsHb {
            ranks: ranks.to_vec(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            tbs,
            order,
            mesh_read,
            mesh_ag,
        })
    }

    pub fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Vec<Kernel> {
        let n = self.ranks.len();
        let es = dtype.size();
        let count = bytes / es;
        let shard = |i: usize| split_range(count, n, i);
        let mut out = Vec::with_capacity(n);
        for (ig, &g) in self.ranks.iter().enumerate() {
            let mut kb = KernelBuilder::new(g);
            for t in 0..self.tbs {
                let mut tb = kb.block(t);
                let peers = peer_iter(self.order, n, ig, t);
                let (gs, gl) = shard(ig);
                let (ms, ml) = split_range(gl, self.tbs, t);
                let off = (gs + ms) * es;
                let len = ml * es;
                // Seed with my own input, then fold in each peer by
                // direct remote read (zero-copy ReduceScatter).
                tb.copy(self.inputs[g.0], off, self.outputs[g.0], off, len);
                for &p in &peers {
                    tb.read_reduce(
                        self.mesh_read.at(t, ig, p),
                        off,
                        self.outputs[g.0],
                        off,
                        len,
                        dtype,
                        op,
                    );
                }
                // AllGather my completed slice to every peer.
                for &p in &peers {
                    tb.put_with_signal(self.mesh_ag.at(t, ig, p), off, off, len);
                }
                for &p in &peers {
                    tb.wait(self.mesh_ag.at(t, ig, p));
                }
            }
            out.push(kb.build());
        }
        out
    }
}

/// Two-phase all-pairs AllReduce over PortChannels: the DMA engines move
/// the data (263 GB/s vs thread-copy's 227 GB/s on A100), freeing GPU
/// threads — the variant that wins at 1 GB single-node by 6.2% (§5.1).
#[derive(Debug)]
pub(crate) struct TwoPhaseAllPairsPort {
    ranks: Vec<Rank>,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    slot_cap: usize,
    tbs: usize,
    mesh_rs: PortMesh,
    mesh_ag: PortMesh,
    scratch: Vec<BufferId>,
}

impl TwoPhaseAllPairsPort {
    pub fn prepare(
        setup: &mut Setup<'_>,
        ranks: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        cap: usize,
        tbs: usize,
    ) -> Result<TwoPhaseAllPairsPort> {
        let n = ranks.len();
        let slot_cap = cap.div_ceil(n).next_multiple_of(16);
        let mut scratch = Vec::with_capacity(setup.world_size());
        for r in 0..setup.world_size() {
            scratch.push(setup.alloc(Rank(r), n * slot_cap));
        }
        let mesh_rs = PortMesh::build(setup, ranks, inputs, &scratch, tbs)?;
        let mesh_ag = PortMesh::build(setup, ranks, outputs, outputs, tbs)?;
        Ok(TwoPhaseAllPairsPort {
            ranks: ranks.to_vec(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            slot_cap,
            tbs,
            mesh_rs,
            mesh_ag,
            scratch,
        })
    }

    pub fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Vec<Kernel> {
        let n = self.ranks.len();
        let es = dtype.size();
        let count = bytes / es;
        let shard = |i: usize| split_range(count, n, i);
        let mut out = Vec::with_capacity(n);
        for (ig, &g) in self.ranks.iter().enumerate() {
            let mut kb = KernelBuilder::new(g);
            for t in 0..self.tbs {
                let mut tb = kb.block(t);
                let peers = peer_iter(PeerOrder::Staggered, n, ig, t);
                // Large transfers are posted in PORT_CHUNK pieces so the
                // DMA engines and ports pipeline (as the real proxy does).
                for &p in &peers {
                    let (ps, pl) = shard(p);
                    let (sl, sll) = split_range(pl, self.tbs, t);
                    for (coff, clen) in chunks(sll * es, PORT_CHUNK) {
                        tb.port_put_with_signal(
                            self.mesh_rs.at(t, ig, p),
                            ig * self.slot_cap + sl * es + coff,
                            (ps + sl) * es + coff,
                            clen,
                        );
                    }
                }
                let (gs, gl) = shard(ig);
                let (ms, ml) = split_range(gl, self.tbs, t);
                tb.copy(
                    self.inputs[g.0],
                    (gs + ms) * es,
                    self.outputs[g.0],
                    (gs + ms) * es,
                    ml * es,
                );
                for &p in &peers {
                    for _ in chunks(ml * es, PORT_CHUNK) {
                        tb.port_wait(self.mesh_rs.at(t, ig, p));
                    }
                    tb.reduce(
                        self.scratch[g.0],
                        p * self.slot_cap + ms * es,
                        self.outputs[g.0],
                        (gs + ms) * es,
                        ml * es,
                        dtype,
                        op,
                    );
                }
                for &p in &peers {
                    for (coff, clen) in chunks(ml * es, PORT_CHUNK) {
                        tb.port_put_with_signal(
                            self.mesh_ag.at(t, ig, p),
                            (gs + ms) * es + coff,
                            (gs + ms) * es + coff,
                            clen,
                        );
                    }
                }
                for &p in &peers {
                    for _ in chunks(ml * es, PORT_CHUNK) {
                        tb.port_wait(self.mesh_ag.at(t, ig, p));
                    }
                }
            }
            out.push(kb.build());
        }
        out
    }
}

/// Two-phase AllReduce over the SwitchChannel (NVLink SHARP): each GPU
/// multimem-load-reduces its shard through the switch, then
/// multimem-store-broadcasts the result — the 15-line algorithm of §5.3.
#[derive(Debug)]
pub(crate) struct TwoPhaseSwitch {
    ranks: Vec<Rank>,
    outputs: Vec<BufferId>,
    tbs: usize,
    reduce_ch: Vec<SwitchChannel>,
    bcast_ch: Vec<SwitchChannel>,
    barriers: Vec<DeviceBarrier>,
}

impl TwoPhaseSwitch {
    pub fn prepare(
        setup: &mut Setup<'_>,
        ranks: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
    ) -> Result<TwoPhaseSwitch> {
        let in_members: Vec<_> = ranks.iter().map(|&r| (r, inputs[r.0])).collect();
        let out_members: Vec<_> = ranks.iter().map(|&r| (r, outputs[r.0])).collect();
        let reduce_ch = setup.switch_channel(&in_members)?;
        let bcast_ch = setup.switch_channel(&out_members)?;
        let barriers = setup.device_barrier(ranks);
        Ok(TwoPhaseSwitch {
            ranks: ranks.to_vec(),
            outputs: outputs.to_vec(),
            tbs,
            reduce_ch,
            bcast_ch,
            barriers,
        })
    }

    pub fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Vec<Kernel> {
        let n = self.ranks.len();
        let es = dtype.size();
        let count = bytes / es;
        let shard = |i: usize| split_range(count, n, i);
        let mut out = Vec::with_capacity(n);
        for (ig, &g) in self.ranks.iter().enumerate() {
            let mut kb = KernelBuilder::new(g);
            for t in 0..self.tbs {
                let mut tb = kb.block(t);
                let (gs, gl) = shard(ig);
                let (ms, ml) = split_range(gl, self.tbs, t);
                let off = (gs + ms) * es;
                let len = ml * es;
                // Interleave load-reduce and store-broadcast per chunk:
                // the reduce phase is egress-heavy and the broadcast phase
                // ingress-heavy, so chunked interleaving keeps both
                // directions of every port busy (the NVLS win).
                for (coff, clen) in chunks(len, SWITCH_CHUNK) {
                    tb.switch_reduce(
                        &self.reduce_ch[ig],
                        off + coff,
                        self.outputs[g.0],
                        off + coff,
                        clen,
                        dtype,
                        op,
                    );
                    tb.switch_broadcast(
                        &self.bcast_ch[ig],
                        self.outputs[g.0],
                        off + coff,
                        off + coff,
                        clen,
                    );
                }
                if t == 0 {
                    // Completion semantics: a rank's kernel may not exit
                    // before every broadcast into its output has landed.
                    tb.barrier(&self.barriers[ig]);
                }
            }
            out.push(kb.build());
        }
        out
    }
}

/// Finds a cyclic ordering of `0..n` whose consecutive pairs (including
/// the wrap-around) all avoid the `dead` undirected edges, by
/// backtracking — n is at most 8 in every simulated environment, so the
/// search is trivial.
fn hamiltonian_ring(n: usize, dead: &[(usize, usize)]) -> Option<Vec<usize>> {
    fn blocked(dead: &[(usize, usize)], a: usize, b: usize) -> bool {
        dead.iter().any(|&(x, y)| (x, y) == (a.min(b), a.max(b)))
    }
    fn extend(path: &mut Vec<usize>, used: &mut [bool], n: usize, dead: &[(usize, usize)]) -> bool {
        if path.len() == n {
            return !blocked(dead, path[n - 1], path[0]);
        }
        let last = *path.last().unwrap();
        for next in 1..n {
            if !used[next] && !blocked(dead, last, next) {
                used[next] = true;
                path.push(next);
                if extend(path, used, n, dead) {
                    return true;
                }
                path.pop();
                used[next] = false;
            }
        }
        false
    }
    let mut path = vec![0usize];
    if n == 1 {
        return Some(path);
    }
    let mut used = vec![false; n];
    used[0] = true;
    if extend(&mut path, &mut used, n, dead) {
        Some(path)
    } else {
        None
    }
}

/// Ring AllReduce over HB memory channels: reduce-scatter then all-gather
/// around a cycle of the ranks. Bandwidth-optimal but latency-bound
/// (2(n-1) serialized steps), so it is never selected on a healthy
/// machine — it exists as the degraded-topology fallback: the ring
/// ordering is chosen to avoid links the active fault plan marks
/// permanently down, letting the collective complete (bit-correct,
/// measurably slower) on a mesh with a dead link.
#[derive(Debug)]
pub(crate) struct RingAllReduce {
    ranks: Vec<Rank>,
    /// `ring[pos]` is the index into `ranks` at ring position `pos`.
    ring: Vec<usize>,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    /// Endpoint on the rank at ring position `pos` putting into its
    /// successor's scratch (reduce-scatter direction).
    rs_fwd: Vec<MemoryChannel>,
    /// Endpoint on the rank at ring position `pos` signalled by its
    /// predecessor's reduce-scatter puts.
    rs_back: Vec<MemoryChannel>,
    /// All-gather counterparts of `rs_fwd` / `rs_back`, putting directly
    /// into the successor's output.
    ag_fwd: Vec<MemoryChannel>,
    ag_back: Vec<MemoryChannel>,
    /// Per-rank receive scratch (full message capacity), indexed by rank.
    scratch: Vec<BufferId>,
}

impl RingAllReduce {
    pub fn prepare(
        setup: &mut Setup<'_>,
        ranks: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        cap: usize,
    ) -> Result<RingAllReduce> {
        let n = ranks.len();
        if n < 2 {
            return Err(Error::InvalidArgument(
                "ring allreduce needs at least two ranks".into(),
            ));
        }
        // Translate the plan's permanently dead pairs into local indices
        // and pick a ring ordering that avoids all of them.
        let dead: Vec<(usize, usize)> = setup
            .fault_plan()
            .map(|p| p.permanent_link_downs())
            .unwrap_or_default()
            .into_iter()
            .filter_map(|(a, b)| {
                let ia = ranks.iter().position(|r| r.0 == a)?;
                let ib = ranks.iter().position(|r| r.0 == b)?;
                Some((ia.min(ib), ia.max(ib)))
            })
            .collect();
        let ring = hamiltonian_ring(n, &dead).ok_or_else(|| {
            let (a, b) = dead.first().copied().unwrap_or((0, 0));
            LinkDownError {
                src: ranks[a].0,
                dst: ranks[b].0,
                context: "ring allreduce: no ring ordering avoids the dead links".into(),
            }
        })?;
        let scratch: Vec<BufferId> = (0..setup.world_size())
            .map(|r| setup.alloc(Rank(r), cap))
            .collect();
        let mut rs_fwd = Vec::with_capacity(n);
        let mut ag_fwd = Vec::with_capacity(n);
        let mut rs_in = Vec::with_capacity(n); // arrival endpoint of edge `pos`
        let mut ag_in = Vec::with_capacity(n);
        for pos in 0..n {
            let u = ranks[ring[pos]];
            let v = ranks[ring[(pos + 1) % n]];
            let (ca, cb) = setup.memory_channel_pair(
                u,
                outputs[u.0],
                scratch[v.0],
                v,
                outputs[v.0],
                scratch[u.0],
                Protocol::HB,
            )?;
            rs_fwd.push(ca);
            rs_in.push(cb);
            let (da, db) = setup.memory_channel_pair(
                u,
                outputs[u.0],
                outputs[v.0],
                v,
                outputs[v.0],
                outputs[u.0],
                Protocol::HB,
            )?;
            ag_fwd.push(da);
            ag_in.push(db);
        }
        // The receive endpoint at ring position `pos` belongs to the edge
        // arriving from its predecessor, i.e. edge `pos - 1`.
        let rs_back: Vec<MemoryChannel> = (0..n).map(|p| rs_in[(p + n - 1) % n].clone()).collect();
        let ag_back: Vec<MemoryChannel> = (0..n).map(|p| ag_in[(p + n - 1) % n].clone()).collect();
        Ok(RingAllReduce {
            ranks: ranks.to_vec(),
            ring,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            rs_fwd,
            rs_back,
            ag_fwd,
            ag_back,
            scratch,
        })
    }

    pub fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Vec<Kernel> {
        let n = self.ring.len();
        let es = dtype.size();
        let count = bytes / es;
        let chunk = |i: usize| split_range(count, n, i);
        let mut out = Vec::with_capacity(n);
        for pos in 0..n {
            let g = self.ranks[self.ring[pos]];
            let mut kb = KernelBuilder::new(g);
            {
                let mut tb = kb.block(0);
                tb.copy(self.inputs[g.0], 0, self.outputs[g.0], 0, bytes);
                // Reduce-scatter: at step s, forward chunk (pos - s) to the
                // successor's scratch and fold the predecessor's chunk
                // (pos - s - 1) into the output; after n-1 steps this rank
                // owns the fully reduced chunk (pos + 1).
                for s in 0..n - 1 {
                    let (ss, sl) = chunk((pos + n - s) % n);
                    tb.put_with_signal(&self.rs_fwd[pos], ss * es, ss * es, sl * es);
                    let (rs, rl) = chunk((pos + 2 * n - s - 1) % n);
                    tb.wait(&self.rs_back[pos]);
                    tb.reduce(
                        self.scratch[g.0],
                        rs * es,
                        self.outputs[g.0],
                        rs * es,
                        rl * es,
                        dtype,
                        op,
                    );
                }
                // All-gather: forward chunk (pos + 1 - s) — the one that
                // arrived the previous step — directly into the
                // successor's output.
                for s in 0..n - 1 {
                    let (ss, sl) = chunk((pos + 1 + n - s) % n);
                    tb.put_with_signal(&self.ag_fwd[pos], ss * es, ss * es, sl * es);
                    tb.wait(&self.ag_back[pos]);
                }
            }
            out.push(kb.build());
        }
        out
    }
}

/// Two-phase hierarchical AllReduce (2PH) for multi-node clusters:
/// node-local ReduceScatter, all-pairs cross-node exchange over RDMA
/// port channels between corresponding GPUs, node-local AllGather
/// (§4.4). The `hb` flag selects the large-message variant (zero-copy
/// local phases, sub-shard cross-node ReduceScatter + AllGather) versus
/// the small-message LL variant (whole-shard cross-node all-pairs).
#[derive(Debug)]
pub(crate) struct TwoPhaseHierarchical {
    world: Vec<Rank>,
    nodes: usize,
    gpn: usize,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    shard_cap: usize,
    tbs: usize,
    hb: bool,
    /// LL variant: local RS put targets; HB variant: unused.
    local_rs: Option<Vec<MemMesh>>,
    /// HB variant: zero-copy local read meshes per node.
    local_read: Option<Vec<MemMesh>>,
    /// Local AG: acc -> output.
    local_ag: Vec<MemMesh>,
    /// Cross-node RS: acc -> scratch_b, per local index.
    cross_rs: Vec<PortMesh>,
    /// Cross-node AG (HB variant): acc -> acc, per local index.
    cross_ag: Option<Vec<PortMesh>>,
    /// Per-rank local-RS scratch (slot per local sender), LL variant.
    scratch_a: Option<Vec<BufferId>>,
    /// Per-rank accumulator holding my shard.
    acc: Vec<BufferId>,
    /// Per-rank cross-node receive scratch (slot per node).
    scratch_b: Vec<BufferId>,
}

impl TwoPhaseHierarchical {
    #[allow(clippy::too_many_arguments)]
    pub fn prepare(
        setup: &mut Setup<'_>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        cap: usize,
        tbs: usize,
        hb: bool,
    ) -> Result<TwoPhaseHierarchical> {
        let topo = setup.topology();
        let nodes = topo.nodes();
        let gpn = topo.gpus_per_node();
        if nodes < 2 {
            return Err(Error::InvalidArgument(
                "hierarchical allreduce needs at least two nodes".into(),
            ));
        }
        let world: Vec<Rank> = topo.ranks().collect();
        let shard_cap = cap.div_ceil(gpn).next_multiple_of(16);
        let acc: Vec<BufferId> = (0..world.len())
            .map(|r| setup.alloc(Rank(r), shard_cap))
            .collect();
        let scratch_b: Vec<BufferId> = (0..world.len())
            .map(|r| setup.alloc(Rank(r), nodes * shard_cap))
            .collect();
        let mut scratch_a = None;
        let mut local_rs = None;
        let mut local_read = None;
        let mut local_ag = Vec::new();
        if hb {
            let mut reads = Vec::new();
            for node in 0..nodes {
                let ranks: Vec<Rank> = (0..gpn).map(|l| topo.rank_at(node, l)).collect();
                reads.push(MemMesh::build(
                    setup,
                    &ranks,
                    inputs,
                    inputs,
                    Protocol::HB,
                    tbs,
                )?);
            }
            local_read = Some(reads);
        } else {
            let sa: Vec<BufferId> = (0..world.len())
                .map(|r| setup.alloc(Rank(r), gpn * shard_cap))
                .collect();
            let mut rss = Vec::new();
            for node in 0..nodes {
                let ranks: Vec<Rank> = (0..gpn).map(|l| topo.rank_at(node, l)).collect();
                rss.push(MemMesh::build(
                    setup,
                    &ranks,
                    inputs,
                    &sa,
                    Protocol::LL,
                    tbs,
                )?);
            }
            scratch_a = Some(sa);
            local_rs = Some(rss);
        }
        let proto = if hb { Protocol::HB } else { Protocol::LL };
        for node in 0..nodes {
            let ranks: Vec<Rank> = (0..gpn).map(|l| topo.rank_at(node, l)).collect();
            local_ag.push(MemMesh::build(setup, &ranks, &acc, outputs, proto, tbs)?);
        }
        let mut cross_rs = Vec::new();
        let mut cross_ag_v = Vec::new();
        for l in 0..gpn {
            let ranks: Vec<Rank> = (0..nodes).map(|a| topo.rank_at(a, l)).collect();
            cross_rs.push(PortMesh::build(setup, &ranks, &acc, &scratch_b, tbs)?);
            if hb {
                cross_ag_v.push(PortMesh::build(setup, &ranks, &acc, &acc, tbs)?);
            }
        }
        Ok(TwoPhaseHierarchical {
            world,
            nodes,
            gpn,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            shard_cap,
            tbs,
            hb,
            local_rs,
            local_read,
            local_ag,
            cross_rs,
            cross_ag: if hb { Some(cross_ag_v) } else { None },
            scratch_a,
            acc,
            scratch_b,
        })
    }

    pub fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Vec<Kernel> {
        let es = dtype.size();
        let count = bytes / es;
        let shard = |i: usize| split_range(count, self.gpn, i);
        let mut out = Vec::with_capacity(self.world.len());
        for &g in &self.world {
            let node = g.0 / self.gpn;
            let li = g.0 % self.gpn; // local index = my shard index
            let mut kb = KernelBuilder::new(g);
            for t in 0..self.tbs {
                let mut tb = kb.block(t);
                let (gs, gl) = shard(li);
                let (ms, ml) = split_range(gl, self.tbs, t);
                let off = (gs + ms) * es; // my shard slice, input coords
                let acc_off = ms * es; // same slice, acc coords
                let len = ml * es;

                // Phase 1: node-local ReduceScatter of shard `li`.
                if self.hb {
                    let mesh = &self.local_read.as_ref().unwrap()[node];
                    tb.copy(self.inputs[g.0], off, self.acc[g.0], acc_off, len);
                    for p in peers_staggered(self.gpn, li, t) {
                        tb.read_reduce(
                            mesh.at(t, li, p),
                            off,
                            self.acc[g.0],
                            acc_off,
                            len,
                            dtype,
                            op,
                        );
                    }
                } else {
                    let mesh = &self.local_rs.as_ref().unwrap()[node];
                    let sa = self.scratch_a.as_ref().unwrap();
                    for p in peers_staggered(self.gpn, li, t) {
                        // Send peer p's shard slice into their slot `li`.
                        let (ps, pl) = shard(p);
                        let (sl, sll) = split_range(pl, self.tbs, t);
                        tb.put(
                            mesh.at(t, li, p),
                            li * self.shard_cap + sl * es,
                            (ps + sl) * es,
                            sll * es,
                        );
                    }
                    tb.copy(self.inputs[g.0], off, self.acc[g.0], acc_off, len);
                    for p in peers_staggered(self.gpn, li, t) {
                        tb.wait_data(mesh.at(t, li, p));
                        tb.reduce(
                            sa[g.0],
                            p * self.shard_cap + ms * es,
                            self.acc[g.0],
                            acc_off,
                            len,
                            dtype,
                            op,
                        );
                    }
                }

                // Phase 2: cross-node exchange among corresponding GPUs.
                let cross = &self.cross_rs[li];
                if self.hb {
                    // Sub-shard ReduceScatter + AllGather across nodes.
                    let subs = |b: usize| split_range(ml, self.nodes, b);
                    for b in peers_staggered(self.nodes, node, t) {
                        let (bs, bl) = subs(b);
                        tb.port_put_with_signal(
                            cross.at(t, node, b),
                            node * self.shard_cap + acc_off + bs * es,
                            acc_off + bs * es,
                            bl * es,
                        );
                    }
                    let (mys, myl) = subs(node);
                    for b in peers_staggered(self.nodes, node, t) {
                        tb.port_wait(cross.at(t, node, b));
                        tb.reduce(
                            self.scratch_b[g.0],
                            b * self.shard_cap + acc_off + mys * es,
                            self.acc[g.0],
                            acc_off + mys * es,
                            myl * es,
                            dtype,
                            op,
                        );
                    }
                    // Cross-node AllGather of my global sub-shard.
                    let cag = &self.cross_ag.as_ref().unwrap()[li];
                    for b in peers_staggered(self.nodes, node, t) {
                        tb.port_put_with_signal(
                            cag.at(t, node, b),
                            acc_off + mys * es,
                            acc_off + mys * es,
                            myl * es,
                        );
                    }
                    for b in peers_staggered(self.nodes, node, t) {
                        tb.port_wait(cag.at(t, node, b));
                    }
                } else {
                    // Whole-shard all-pairs (redundant reduction, fewer
                    // synchronization steps — the small-message tradeoff).
                    for b in peers_staggered(self.nodes, node, t) {
                        tb.port_put_with_signal(
                            cross.at(t, node, b),
                            node * self.shard_cap + acc_off,
                            acc_off,
                            len,
                        );
                    }
                    // The reduces below overwrite the exact range the DMA
                    // engines are still reading out of `acc`; flush every
                    // outbound put before the first reduce.
                    for b in peers_staggered(self.nodes, node, t) {
                        tb.port_flush(cross.at(t, node, b));
                    }
                    for b in peers_staggered(self.nodes, node, t) {
                        tb.port_wait(cross.at(t, node, b));
                        tb.reduce(
                            self.scratch_b[g.0],
                            b * self.shard_cap + acc_off,
                            self.acc[g.0],
                            acc_off,
                            len,
                            dtype,
                            op,
                        );
                    }
                }

                // Phase 3: node-local AllGather of the global shard.
                let mesh = &self.local_ag[node];
                for p in peers_staggered(self.gpn, li, t) {
                    match self.hb {
                        true => {
                            tb.put_with_signal(mesh.at(t, li, p), off, acc_off, len);
                        }
                        false => {
                            tb.put(mesh.at(t, li, p), off, acc_off, len);
                        }
                    }
                }
                tb.copy(self.acc[g.0], acc_off, self.outputs[g.0], off, len);
                for p in peers_staggered(self.gpn, li, t) {
                    if self.hb {
                        tb.wait(mesh.at(t, li, p));
                    } else {
                        tb.wait_data(mesh.at(t, li, p));
                    }
                }
            }
            out.push(kb.build());
        }
        out
    }
}

/// Hierarchical AllReduce rebuilt on an *asymmetric* survivor group after
/// an epoch shrink (node groups of unequal size, re-elected leaders).
///
/// The full-topology [`TwoPhaseHierarchical`] shards by local index —
/// impossible once nodes have different member counts — so the shrunken
/// rebuild uses a leader relay instead: each surviving node's lowest rank
/// is elected leader, members funnel their inputs into the leader via
/// zero-copy `read_reduce` (inputs are valid at launch, so no handshake
/// is needed), leaders run a whole-message all-pairs exchange over the
/// RDMA port channels (re-wired to whichever ranks survived), and each
/// leader distributes the result node-locally. The whole-message leader
/// exchange is redundant — `O(leaders × bytes)` like the LL variant's
/// whole-shard phase — a deliberate recovery-path tradeoff: one verified
/// plan serves both the LL and HB steady-state variants.
#[derive(Debug)]
pub(crate) struct ShrunkenHierarchical {
    /// Survivors partitioned by node; `node_members[ni][0]` is node
    /// `ni`'s elected leader.
    node_members: Vec<Vec<Rank>>,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    cap: usize,
    tbs: usize,
    /// Per node: leader's zero-copy read channels over members' inputs.
    local_read: Vec<MemMesh>,
    /// Leaders all-pairs over RDMA ports: acc -> gather.
    cross: PortMesh,
    /// Per node: leader's result distribution, acc -> outputs.
    local_out: Vec<MemMesh>,
    /// Per-leader node accumulator (full message).
    acc: Vec<BufferId>,
    /// Per-leader receive scratch (one `cap` slot per peer leader).
    gather: Vec<BufferId>,
}

impl ShrunkenHierarchical {
    pub fn prepare(
        setup: &mut Setup<'_>,
        group: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        cap: usize,
        tbs: usize,
    ) -> Result<ShrunkenHierarchical> {
        let topo = setup.topology();
        let node_members = node_groups(&topo, group);
        let nleads = node_members.len();
        if nleads < 2 {
            return Err(Error::InvalidArgument(
                "shrunken hierarchical allreduce needs survivors on at \
                 least two nodes"
                    .into(),
            ));
        }
        let leaders: Vec<Rank> = node_members.iter().map(|m| m[0]).collect();
        // Leader-only buffers live in world-sized vectors so channel
        // builders can index them by global rank; non-leader slots hold a
        // placeholder (their input id) that no channel or kernel touches.
        let mut acc = inputs.to_vec();
        let mut gather = inputs.to_vec();
        for &l in &leaders {
            acc[l.0] = setup.alloc(l, cap);
            gather[l.0] = setup.alloc(l, nleads * cap);
        }
        let mut local_read = Vec::with_capacity(nleads);
        let mut local_out = Vec::with_capacity(nleads);
        for members in &node_members {
            local_read.push(MemMesh::build(
                setup,
                members,
                inputs,
                inputs,
                Protocol::HB,
                tbs,
            )?);
            local_out.push(MemMesh::build(
                setup,
                members,
                &acc,
                outputs,
                Protocol::HB,
                tbs,
            )?);
        }
        let cross = PortMesh::build(setup, &leaders, &acc, &gather, tbs)?;
        Ok(ShrunkenHierarchical {
            node_members,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            cap,
            tbs,
            local_read,
            cross,
            local_out,
            acc,
            gather,
        })
    }

    pub fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Vec<Kernel> {
        let nleads = self.node_members.len();
        let mut out = Vec::new();
        for (ni, members) in self.node_members.iter().enumerate() {
            let m = members.len();
            for (mi, &g) in members.iter().enumerate() {
                let mut kb = KernelBuilder::new(g);
                for t in 0..self.tbs {
                    let mut tb = kb.block(t);
                    let (ms, ml) = split_range(bytes, self.tbs, t);
                    if mi != 0 {
                        // Member: the leader reads my input and pushes
                        // the final result into my output.
                        tb.wait(self.local_out[ni].at(t, mi, 0));
                        continue;
                    }
                    // Phase 1: node reduction into the leader's acc.
                    tb.copy(self.inputs[g.0], ms, self.acc[g.0], ms, ml);
                    for p in 1..m {
                        tb.read_reduce(
                            self.local_read[ni].at(t, 0, p),
                            ms,
                            self.acc[g.0],
                            ms,
                            ml,
                            dtype,
                            op,
                        );
                    }
                    // Phase 2: whole-message all-pairs among leaders;
                    // sender `ni`'s message lands in slot `ni`.
                    for lj in peers_staggered(nleads, ni, t) {
                        tb.port_put_with_signal(
                            self.cross.at(t, ni, lj),
                            ni * self.cap + ms,
                            ms,
                            ml,
                        );
                    }
                    // The reduces below overwrite the range the DMA
                    // engines are still reading out of `acc`; flush every
                    // outbound put before the first reduce.
                    for lj in peers_staggered(nleads, ni, t) {
                        tb.port_flush(self.cross.at(t, ni, lj));
                    }
                    for lj in peers_staggered(nleads, ni, t) {
                        tb.port_wait(self.cross.at(t, ni, lj));
                        tb.reduce(
                            self.gather[g.0],
                            lj * self.cap + ms,
                            self.acc[g.0],
                            ms,
                            ml,
                            dtype,
                            op,
                        );
                    }
                    // Phase 3: distribute the global result node-locally.
                    for p in 1..m {
                        tb.put_with_signal(self.local_out[ni].at(t, 0, p), ms, ms, ml);
                    }
                    tb.copy(self.acc[g.0], ms, self.outputs[g.0], ms, ml);
                }
                out.push(kb.build());
            }
        }
        out
    }
}
