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
    peers_staggered, split_range, DeviceBarrier, Error, Kernel, LinkDownError, MemoryChannel,
    PortChannel, Protocol, Result, Setup, SwitchChannel,
};

use crate::wiring::{emit, node_groups, relay_order, Mesh};

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
pub(crate) const PORT_CHUNK: usize = 1 << 20;
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
    /// Two scratch sets, each with the mesh putting into it.
    sets: Vec<(Mesh<MemoryChannel>, Vec<BufferId>)>,
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
        let mut sets = Vec::with_capacity(2);
        for _ in 0..2 {
            // Slot per sender, only meaningful on participating ranks.
            let scratch: Vec<BufferId> = (0..setup.world_size())
                .map(|r| setup.alloc(Rank(r), n * cap))
                .collect();
            let mesh = Mesh::memory(setup, ranks, inputs, &scratch, Protocol::LL, 1)?;
            sets.push((mesh, scratch));
        }
        Ok(OnePhaseAllPairs {
            ranks: ranks.to_vec(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            cap,
            sets,
            calls: Cell::new(0),
        })
    }

    pub fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Vec<Kernel> {
        let (mesh, scratch) = &self.sets[self.calls.replace(self.calls.get() + 1) % 2];
        let n = self.ranks.len();
        emit(&self.ranks, 1, |ig, g, t, tb| {
            for p in peers_staggered(n, ig, t) {
                // My data lands in peer p's slot `ig`.
                tb.put_ready(mesh.at(t, ig, p), ig * self.cap, 0, bytes);
            }
            let out = self.outputs[g.0];
            tb.copy(self.inputs[g.0], 0, out, 0, bytes);
            for p in peers_staggered(n, ig, t) {
                tb.wait_ready(mesh.at(t, ig, p));
                tb.reduce(scratch[g.0], p * self.cap, out, 0, bytes, dtype, op);
            }
        })
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
    /// Two scratch sets, each with its ReduceScatter mesh (inputs into
    /// the scratch) and AllGather mesh (outputs into outputs).
    sets: Vec<(Mesh<MemoryChannel>, Mesh<MemoryChannel>, Vec<BufferId>)>,
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
        let mut sets = Vec::with_capacity(2);
        for _ in 0..2 {
            let scratch: Vec<BufferId> = (0..setup.world_size())
                .map(|r| setup.alloc(Rank(r), n * slot_cap))
                .collect();
            let rs = Mesh::memory(setup, ranks, inputs, &scratch, Protocol::LL, tbs)?;
            let ag = Mesh::memory(setup, ranks, outputs, outputs, Protocol::LL, tbs)?;
            sets.push((rs, ag, scratch));
        }
        let barriers = setup.device_barrier(ranks);
        Ok(TwoPhaseAllPairsLl {
            ranks: ranks.to_vec(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            slot_cap,
            tbs,
            reuse,
            order,
            sets,
            barriers,
            calls: Cell::new(0),
        })
    }

    pub fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Vec<Kernel> {
        let set = match self.reuse {
            ScratchReuse::Rotate => self.calls.replace(self.calls.get() + 1) % 2,
            ScratchReuse::Barrier => 0,
        };
        let (mesh_rs, mesh_ag, scratch) = &self.sets[set];
        let n = self.ranks.len();
        let es = dtype.size();
        let count = bytes / es;
        let shard = |i: usize| split_range(count, n, i);
        emit(&self.ranks, self.tbs, |ig, g, t, tb| {
            let peers = peer_iter(self.order, n, ig, t);
            // ReduceScatter: send slice t of each peer's shard into their
            // scratch at my sender slot.
            for &p in &peers {
                let (ps, pl) = shard(p);
                let (sl, sll) = split_range(pl, self.tbs, t);
                let dst_off = ig * self.slot_cap + sl * es;
                tb.put_ready(mesh_rs.at(t, ig, p), dst_off, (ps + sl) * es, sll * es);
            }
            // My own contribution to my shard.
            let (gs, gl) = shard(ig);
            let (ms, ml) = split_range(gl, self.tbs, t);
            let (off, len, out) = ((gs + ms) * es, ml * es, self.outputs[g.0]);
            tb.copy(self.inputs[g.0], off, out, off, len);
            for &p in &peers {
                tb.wait_ready(mesh_rs.at(t, ig, p));
                let src_off = p * self.slot_cap + ms * es;
                tb.reduce(scratch[g.0], src_off, out, off, len, dtype, op);
            }
            // AllGather: push my reduced shard slice to every peer.
            for &p in &peers {
                tb.put_ready(mesh_ag.at(t, ig, p), off, off, len);
            }
            for &p in &peers {
                tb.wait_ready(mesh_ag.at(t, ig, p));
            }
            if self.reuse == ScratchReuse::Barrier && t == 0 {
                tb.barrier(&self.barriers[ig]);
            }
        })
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
    mesh_read: Mesh<MemoryChannel>,
    mesh_ag: Mesh<MemoryChannel>,
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
        let mesh_read = Mesh::memory(setup, ranks, inputs, inputs, Protocol::HB, tbs)?;
        let mesh_ag = Mesh::memory(setup, ranks, outputs, outputs, Protocol::HB, tbs)?;
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
        emit(&self.ranks, self.tbs, |ig, g, t, tb| {
            let peers = peer_iter(self.order, n, ig, t);
            let (gs, gl) = shard(ig);
            let (ms, ml) = split_range(gl, self.tbs, t);
            let (off, len, out) = ((gs + ms) * es, ml * es, self.outputs[g.0]);
            // Seed with my own input, then fold in each peer by direct
            // remote read (zero-copy ReduceScatter).
            tb.copy(self.inputs[g.0], off, out, off, len);
            for &p in &peers {
                tb.read_reduce(self.mesh_read.at(t, ig, p), off, out, off, len, dtype, op);
            }
            // AllGather my completed slice to every peer.
            for &p in &peers {
                tb.put_ready(self.mesh_ag.at(t, ig, p), off, off, len);
            }
            for &p in &peers {
                tb.wait_ready(self.mesh_ag.at(t, ig, p));
            }
        })
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
    mesh_rs: Mesh<PortChannel>,
    mesh_ag: Mesh<PortChannel>,
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
        let scratch: Vec<BufferId> = (0..setup.world_size())
            .map(|r| setup.alloc(Rank(r), n * slot_cap))
            .collect();
        let mesh_rs = Mesh::port(setup, ranks, inputs, &scratch, tbs)?;
        let mesh_ag = Mesh::port(setup, ranks, outputs, outputs, tbs)?;
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
        emit(&self.ranks, self.tbs, |ig, g, t, tb| {
            let peers = peer_iter(PeerOrder::Staggered, n, ig, t);
            // Large transfers are posted in PORT_CHUNK pieces so the DMA
            // engines and ports pipeline (as the real proxy does).
            for &p in &peers {
                let (ps, pl) = shard(p);
                let (sl, sll) = split_range(pl, self.tbs, t);
                let (dst_off, src_off) = (ig * self.slot_cap + sl * es, (ps + sl) * es);
                for (coff, clen) in chunks(sll * es, PORT_CHUNK) {
                    let ch = self.mesh_rs.at(t, ig, p);
                    tb.port_put_with_signal(ch, dst_off + coff, src_off + coff, clen);
                }
            }
            let (gs, gl) = shard(ig);
            let (ms, ml) = split_range(gl, self.tbs, t);
            let (off, len, out) = ((gs + ms) * es, ml * es, self.outputs[g.0]);
            tb.copy(self.inputs[g.0], off, out, off, len);
            for &p in &peers {
                for _ in chunks(len, PORT_CHUNK) {
                    tb.port_wait(self.mesh_rs.at(t, ig, p));
                }
                let src_off = p * self.slot_cap + ms * es;
                tb.reduce(self.scratch[g.0], src_off, out, off, len, dtype, op);
            }
            for &p in &peers {
                for (coff, clen) in chunks(len, PORT_CHUNK) {
                    let ch = self.mesh_ag.at(t, ig, p);
                    tb.port_put_with_signal(ch, off + coff, off + coff, clen);
                }
            }
            for &p in &peers {
                for _ in chunks(len, PORT_CHUNK) {
                    tb.port_wait(self.mesh_ag.at(t, ig, p));
                }
            }
        })
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
        emit(&self.ranks, self.tbs, |ig, g, t, tb| {
            let (gs, gl) = shard(ig);
            let (ms, ml) = split_range(gl, self.tbs, t);
            let (off, out) = ((gs + ms) * es, self.outputs[g.0]);
            // Interleave load-reduce and store-broadcast per chunk: the
            // reduce phase is egress-heavy and the broadcast phase
            // ingress-heavy, so chunked interleaving keeps both directions
            // of every port busy (the NVLS win).
            for (coff, clen) in chunks(ml * es, SWITCH_CHUNK) {
                let o = off + coff;
                tb.switch_reduce(&self.reduce_ch[ig], o, out, o, clen, dtype, op);
                tb.switch_broadcast(&self.bcast_ch[ig], out, o, o, clen);
            }
            if t == 0 {
                // Completion semantics: a rank's kernel may not exit
                // before every broadcast into its output has landed.
                tb.barrier(&self.barriers[ig]);
            }
        })
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
    /// The ranks in ring order: the emission order.
    order: Vec<Rank>,
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
            order: ring.iter().map(|&i| ranks[i]).collect(),
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
        let n = self.order.len();
        let es = dtype.size();
        let count = bytes / es;
        let chunk = |i: usize| split_range(count, n, i);
        emit(&self.order, 1, |pos, g, _, tb| {
            let out = self.outputs[g.0];
            tb.copy(self.inputs[g.0], 0, out, 0, bytes);
            // Reduce-scatter: at step s, forward chunk (pos - s) to the
            // successor's scratch and fold the predecessor's chunk
            // (pos - s - 1) into the output; after n-1 steps this rank
            // owns the fully reduced chunk (pos + 1).
            for s in 0..n - 1 {
                let (ss, sl) = chunk((pos + n - s) % n);
                tb.put_ready(&self.rs_fwd[pos], ss * es, ss * es, sl * es);
                let (rs, rl) = chunk((pos + 2 * n - s - 1) % n);
                tb.wait_ready(&self.rs_back[pos]);
                tb.reduce(self.scratch[g.0], rs * es, out, rs * es, rl * es, dtype, op);
            }
            // All-gather: forward chunk (pos + 1 - s) — the one that
            // arrived the previous step — directly into the successor's
            // output.
            for s in 0..n - 1 {
                let (ss, sl) = chunk((pos + 1 + n - s) % n);
                tb.put_ready(&self.ag_fwd[pos], ss * es, ss * es, sl * es);
                tb.wait_ready(&self.ag_back[pos]);
            }
        })
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
    local_rs: LocalRs,
    /// Local AG: acc -> output.
    local_ag: Vec<Mesh<MemoryChannel>>,
    /// Cross-node RS: acc -> scratch_b, per local index.
    cross_rs: Vec<Mesh<PortChannel>>,
    /// Cross-node AG (HB variant): acc -> acc, per local index.
    cross_ag: Option<Vec<Mesh<PortChannel>>>,
    /// Per-rank accumulator holding my shard.
    acc: Vec<BufferId>,
    /// Per-rank cross-node receive scratch (slot per node).
    scratch_b: Vec<BufferId>,
}

/// How [`TwoPhaseHierarchical`]'s node-local ReduceScatter moves data,
/// with its meshes per node.
#[derive(Debug)]
enum LocalRs {
    /// HB variant: zero-copy reads of the node peers' inputs.
    Read(Vec<Mesh<MemoryChannel>>),
    /// LL variant: puts into per-rank scratch (a slot per local sender).
    Put(Vec<Mesh<MemoryChannel>>, Vec<BufferId>),
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
        let node = |n: usize| -> Vec<Rank> { (0..gpn).map(|l| topo.rank_at(n, l)).collect() };
        let shard_cap = cap.div_ceil(gpn).next_multiple_of(16);
        let acc: Vec<BufferId> = (0..world.len())
            .map(|r| setup.alloc(Rank(r), shard_cap))
            .collect();
        let scratch_b: Vec<BufferId> = (0..world.len())
            .map(|r| setup.alloc(Rank(r), nodes * shard_cap))
            .collect();
        let local_rs = if hb {
            let reads = (0..nodes)
                .map(|n| Mesh::memory(setup, &node(n), inputs, inputs, Protocol::HB, tbs))
                .collect::<Result<_>>()?;
            LocalRs::Read(reads)
        } else {
            let scratch: Vec<BufferId> = (0..world.len())
                .map(|r| setup.alloc(Rank(r), gpn * shard_cap))
                .collect();
            let puts = (0..nodes)
                .map(|n| Mesh::memory(setup, &node(n), inputs, &scratch, Protocol::LL, tbs))
                .collect::<Result<_>>()?;
            LocalRs::Put(puts, scratch)
        };
        let proto = if hb { Protocol::HB } else { Protocol::LL };
        let local_ag = (0..nodes)
            .map(|n| Mesh::memory(setup, &node(n), &acc, outputs, proto, tbs))
            .collect::<Result<_>>()?;
        let mut cross_rs = Vec::new();
        let mut cross_ag = Vec::new();
        for l in 0..gpn {
            let ranks: Vec<Rank> = (0..nodes).map(|a| topo.rank_at(a, l)).collect();
            cross_rs.push(Mesh::port(setup, &ranks, &acc, &scratch_b, tbs)?);
            if hb {
                cross_ag.push(Mesh::port(setup, &ranks, &acc, &acc, tbs)?);
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
            local_rs,
            local_ag,
            cross_rs,
            cross_ag: hb.then_some(cross_ag),
            acc,
            scratch_b,
        })
    }

    pub fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Vec<Kernel> {
        let es = dtype.size();
        let count = bytes / es;
        let shard = |i: usize| split_range(count, self.gpn, i);
        emit(&self.world, self.tbs, |_, g, t, tb| {
            let node = g.0 / self.gpn;
            let li = g.0 % self.gpn; // local index = my shard index
            let (gs, gl) = shard(li);
            let (ms, ml) = split_range(gl, self.tbs, t);
            let off = (gs + ms) * es; // my shard slice, input coords
            let acc_off = ms * es; // same slice, acc coords
            let len = ml * es;
            let acc = self.acc[g.0];

            // Phase 1: node-local ReduceScatter of shard `li`.
            match &self.local_rs {
                LocalRs::Read(meshes) => {
                    let mesh = &meshes[node];
                    tb.copy(self.inputs[g.0], off, acc, acc_off, len);
                    for p in peers_staggered(self.gpn, li, t) {
                        tb.read_reduce(mesh.at(t, li, p), off, acc, acc_off, len, dtype, op);
                    }
                }
                LocalRs::Put(meshes, scratch) => {
                    let mesh = &meshes[node];
                    for p in peers_staggered(self.gpn, li, t) {
                        // Send peer p's shard slice into their slot `li`.
                        let (ps, pl) = shard(p);
                        let (sl, sll) = split_range(pl, self.tbs, t);
                        let dst_off = li * self.shard_cap + sl * es;
                        tb.put_ready(mesh.at(t, li, p), dst_off, (ps + sl) * es, sll * es);
                    }
                    tb.copy(self.inputs[g.0], off, acc, acc_off, len);
                    for p in peers_staggered(self.gpn, li, t) {
                        tb.wait_ready(mesh.at(t, li, p));
                        let src_off = p * self.shard_cap + ms * es;
                        tb.reduce(scratch[g.0], src_off, acc, acc_off, len, dtype, op);
                    }
                }
            }

            // Phase 2: cross-node exchange among corresponding GPUs.
            let (cross, scratch_b) = (&self.cross_rs[li], self.scratch_b[g.0]);
            let peers = || peers_staggered(self.nodes, node, t);
            if let Some(cross_ag) = &self.cross_ag {
                // Sub-shard ReduceScatter + AllGather across nodes.
                let subs = |b: usize| split_range(ml, self.nodes, b);
                for b in peers() {
                    let (bs, bl) = subs(b);
                    let src_off = acc_off + bs * es;
                    let dst_off = node * self.shard_cap + src_off;
                    tb.port_put_with_signal(cross.at(t, node, b), dst_off, src_off, bl * es);
                }
                let (mys, myl) = subs(node);
                let (sub_off, sub_len) = (acc_off + mys * es, myl * es);
                for b in peers() {
                    tb.port_wait(cross.at(t, node, b));
                    let src_off = b * self.shard_cap + sub_off;
                    tb.reduce(scratch_b, src_off, acc, sub_off, sub_len, dtype, op);
                }
                // Cross-node AllGather of my global sub-shard.
                let cag = &cross_ag[li];
                for b in peers() {
                    tb.port_put_with_signal(cag.at(t, node, b), sub_off, sub_off, sub_len);
                }
                for b in peers() {
                    tb.port_wait(cag.at(t, node, b));
                }
            } else {
                // Whole-shard all-pairs (redundant reduction, fewer
                // synchronization steps — the small-message tradeoff).
                let dst_off = node * self.shard_cap + acc_off;
                for b in peers() {
                    tb.port_put_with_signal(cross.at(t, node, b), dst_off, acc_off, len);
                }
                // The reduces below overwrite the exact range the DMA
                // engines are still reading out of `acc`; flush every
                // outbound put before the first reduce.
                for b in peers() {
                    tb.port_flush(cross.at(t, node, b));
                }
                for b in peers() {
                    tb.port_wait(cross.at(t, node, b));
                    let src_off = b * self.shard_cap + acc_off;
                    tb.reduce(scratch_b, src_off, acc, acc_off, len, dtype, op);
                }
            }

            // Phase 3: node-local AllGather of the global shard.
            let mesh = &self.local_ag[node];
            for p in peers_staggered(self.gpn, li, t) {
                tb.put_ready(mesh.at(t, li, p), off, acc_off, len);
            }
            tb.copy(acc, acc_off, self.outputs[g.0], off, len);
            for p in peers_staggered(self.gpn, li, t) {
                tb.wait_ready(mesh.at(t, li, p));
            }
        })
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
    local_read: Vec<Mesh<MemoryChannel>>,
    /// Leaders all-pairs over RDMA ports: acc -> gather.
    cross: Mesh<PortChannel>,
    /// Per node: leader's result distribution, acc -> outputs.
    local_out: Vec<Mesh<MemoryChannel>>,
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
            local_read.push(Mesh::memory(
                setup,
                members,
                inputs,
                inputs,
                Protocol::HB,
                tbs,
            )?);
            local_out.push(Mesh::memory(
                setup,
                members,
                &acc,
                outputs,
                Protocol::HB,
                tbs,
            )?);
        }
        let cross = Mesh::port(setup, &leaders, &acc, &gather, tbs)?;
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
        let (order, slots) = relay_order(&self.node_members);
        emit(&order, self.tbs, |i, g, t, tb| {
            let (ni, mi) = slots[i];
            let (ms, ml) = split_range(bytes, self.tbs, t);
            if mi != 0 {
                // Member: the leader reads my input and pushes the final
                // result into my output.
                tb.wait_ready(self.local_out[ni].at(t, mi, 0));
                return;
            }
            let acc = self.acc[g.0];
            // Phase 1: node reduction into the leader's acc.
            tb.copy(self.inputs[g.0], ms, acc, ms, ml);
            for p in 1..self.node_members[ni].len() {
                tb.read_reduce(self.local_read[ni].at(t, 0, p), ms, acc, ms, ml, dtype, op);
            }
            // Phase 2: whole-message all-pairs among leaders; sender
            // `ni`'s message lands in slot `ni`.
            for lj in peers_staggered(nleads, ni, t) {
                tb.port_put_with_signal(self.cross.at(t, ni, lj), ni * self.cap + ms, ms, ml);
            }
            // The reduces below overwrite the range the DMA engines are
            // still reading out of `acc`; flush every outbound put before
            // the first reduce.
            for lj in peers_staggered(nleads, ni, t) {
                tb.port_flush(self.cross.at(t, ni, lj));
            }
            for lj in peers_staggered(nleads, ni, t) {
                tb.port_wait(self.cross.at(t, ni, lj));
                tb.reduce(self.gather[g.0], lj * self.cap + ms, acc, ms, ml, dtype, op);
            }
            // Phase 3: distribute the global result node-locally.
            for p in 1..self.node_members[ni].len() {
                tb.put_ready(self.local_out[ni].at(t, 0, p), ms, ms, ml);
            }
            tb.copy(acc, ms, self.outputs[g.0], ms, ml);
        })
    }
}
