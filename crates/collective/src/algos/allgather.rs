//! AllGather algorithms: all-pairs (LL and HB) for single node and
//! hierarchical for multi-node clusters (§5.1's AllGather evaluation).

use hw::{BufferId, Rank};
use mscclpp::{
    peers_staggered, split_range, Error, Kernel, MemoryChannel, PortChannel, Protocol, Result,
    Setup,
};

use crate::algos::allreduce::{chunks, PORT_CHUNK};
use crate::wiring::{emit, isect, node_groups, relay_order, Mesh};

/// All-pairs AllGather: every rank puts its chunk directly into every
/// peer's output. One step; the natural MSCCL++ pattern for both small
/// (LL) and large (HB) single-node messages.
#[derive(Debug)]
pub(crate) struct AllPairsAllGather {
    ranks: Vec<Rank>,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    tbs: usize,
    mesh: Mesh<MemoryChannel>,
}

impl AllPairsAllGather {
    pub fn prepare(
        setup: &mut Setup<'_>,
        ranks: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
        protocol: Protocol,
    ) -> Result<AllPairsAllGather> {
        let mesh = Mesh::memory(setup, ranks, inputs, outputs, protocol, tbs)?;
        Ok(AllPairsAllGather {
            ranks: ranks.to_vec(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            tbs,
            mesh,
        })
    }

    /// Kernels gathering `bytes` per rank.
    pub fn kernels(&self, bytes: usize) -> Vec<Kernel> {
        let n = self.ranks.len();
        emit(&self.ranks, self.tbs, |ig, g, t, tb| {
            let (ms, ml) = split_range(bytes, self.tbs, t);
            for p in peers_staggered(n, ig, t) {
                // My chunk lands at slot ig of the peer's output.
                tb.put_ready(self.mesh.at(t, ig, p), ig * bytes + ms, ms, ml);
            }
            tb.copy(self.inputs[g.0], ms, self.outputs[g.0], ig * bytes + ms, ml);
            for p in peers_staggered(n, ig, t) {
                tb.wait_ready(self.mesh.at(t, ig, p));
            }
        })
    }
}

/// Hierarchical AllGather for multi-node clusters: all-pairs exchange of
/// chunks among corresponding GPUs across nodes (RDMA), then node-local
/// all-pairs distribution of the `nodes` chunks each GPU now holds.
#[derive(Debug)]
pub(crate) struct HierAllGather {
    world: Vec<Rank>,
    nodes: usize,
    gpn: usize,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    tbs: usize,
    cross: Vec<Mesh<PortChannel>>,
    local: Vec<Mesh<MemoryChannel>>,
}

impl HierAllGather {
    pub fn prepare(
        setup: &mut Setup<'_>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
        protocol: Protocol,
    ) -> Result<HierAllGather> {
        let topo = setup.topology();
        let (nodes, gpn) = (topo.nodes(), topo.gpus_per_node());
        if nodes < 2 {
            return Err(Error::InvalidArgument(
                "hierarchical allgather needs at least two nodes".into(),
            ));
        }
        let cross = (0..gpn)
            .map(|l| {
                let ranks: Vec<Rank> = (0..nodes).map(|a| topo.rank_at(a, l)).collect();
                Mesh::port(setup, &ranks, inputs, outputs, tbs)
            })
            .collect::<Result<_>>()?;
        let local = (0..nodes)
            .map(|node| {
                let ranks: Vec<Rank> = (0..gpn).map(|l| topo.rank_at(node, l)).collect();
                Mesh::memory(setup, &ranks, outputs, outputs, protocol, tbs)
            })
            .collect::<Result<_>>()?;
        Ok(HierAllGather {
            world: topo.ranks().collect(),
            nodes,
            gpn,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            tbs,
            cross,
            local,
        })
    }

    /// Kernels gathering `bytes` per rank.
    pub fn kernels(&self, bytes: usize) -> Vec<Kernel> {
        emit(&self.world, self.tbs, |_, g, t, tb| {
            let node = g.0 / self.gpn;
            let li = g.0 % self.gpn;
            let (ms, ml) = split_range(bytes, self.tbs, t);
            // Phase 1: cross-node exchange of my chunk with my
            // corresponding GPUs; everything lands at global slots.
            let (cross, slot) = (&self.cross[li], g.0 * bytes + ms);
            for b in peers_staggered(self.nodes, node, t) {
                tb.port_put_with_signal(cross.at(t, node, b), slot, ms, ml);
            }
            tb.copy(self.inputs[g.0], ms, self.outputs[g.0], slot, ml);
            for b in peers_staggered(self.nodes, node, t) {
                tb.port_wait(cross.at(t, node, b));
            }
            // Phase 2: node-local distribution of the `nodes` chunks I now
            // hold (one per node, all at local index li).
            let local = &self.local[node];
            for b in 0..self.nodes {
                let off = (b * self.gpn + li) * bytes + ms;
                for p in peers_staggered(self.gpn, li, t) {
                    tb.put_ready(local.at(t, li, p), off, off, ml);
                }
            }
            for _ in 0..self.nodes {
                for p in peers_staggered(self.gpn, li, t) {
                    tb.wait_ready(local.at(t, li, p));
                }
            }
        })
    }
}

/// All-pairs AllGather over PortChannels: the DMA engines move the data
/// (the §2.2.2 DMA-copy mode, 263 GB/s on A100 vs thread-copy's
/// 227 GB/s), freeing GPU threads.
#[derive(Debug)]
pub(crate) struct AllPairsAllGatherPort {
    ranks: Vec<Rank>,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    tbs: usize,
    mesh: Mesh<PortChannel>,
}

impl AllPairsAllGatherPort {
    pub fn prepare(
        setup: &mut Setup<'_>,
        ranks: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
    ) -> Result<AllPairsAllGatherPort> {
        let mesh = Mesh::port(setup, ranks, inputs, outputs, tbs)?;
        Ok(AllPairsAllGatherPort {
            ranks: ranks.to_vec(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            tbs,
            mesh,
        })
    }

    /// Kernels gathering `bytes` per rank via DMA.
    pub fn kernels(&self, bytes: usize) -> Vec<Kernel> {
        let n = self.ranks.len();
        emit(&self.ranks, self.tbs, |ig, g, t, tb| {
            let (ms, ml) = split_range(bytes, self.tbs, t);
            let dst_off = ig * bytes + ms;
            for p in peers_staggered(n, ig, t) {
                for (coff, clen) in chunks(ml, PORT_CHUNK) {
                    let ch = self.mesh.at(t, ig, p);
                    tb.port_put_with_signal(ch, dst_off + coff, ms + coff, clen);
                }
            }
            tb.copy(self.inputs[g.0], ms, self.outputs[g.0], dst_off, ml);
            for p in peers_staggered(n, ig, t) {
                for _ in chunks(ml, PORT_CHUNK) {
                    tb.port_wait(self.mesh.at(t, ig, p));
                }
            }
        })
    }
}

/// Hierarchical AllGather rebuilt on an asymmetric survivor group after
/// an epoch shrink. Output slots are renumbered by *position* in the
/// sorted survivor list (the epoch contract every shrunken collective
/// follows): survivor at position `pos` contributes output slot `pos`.
///
/// Leader relay, mirroring [`crate::algos::allreduce::ShrunkenHierarchical`]:
/// members push their chunk into their node leader's output, leaders
/// exchange node-contiguous ranges over re-wired RDMA port channels, and
/// each leader pushes the fully gathered result to its members. Every
/// thread block owns one contiguous slice of the *gathered* output and
/// carries it through all three phases, so no cross-block ordering is
/// needed.
#[derive(Debug)]
pub(crate) struct ShrunkenHierAllGather {
    /// Survivors partitioned by node; `node_members[ni][0]` is the leader.
    node_members: Vec<Vec<Rank>>,
    /// Position in the sorted survivor list of each node's first member.
    node_start: Vec<usize>,
    /// Survivor count.
    k: usize,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    tbs: usize,
    /// Per node: members' chunks into the leader's output.
    up: Vec<Mesh<MemoryChannel>>,
    /// Leaders all-pairs over RDMA ports: outputs -> outputs.
    cross: Mesh<PortChannel>,
    /// Per node: leader's gathered result to members' outputs.
    down: Vec<Mesh<MemoryChannel>>,
}

impl ShrunkenHierAllGather {
    pub fn prepare(
        setup: &mut Setup<'_>,
        group: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
    ) -> Result<ShrunkenHierAllGather> {
        let topo = setup.topology();
        let node_members = node_groups(&topo, group);
        if node_members.len() < 2 {
            return Err(Error::InvalidArgument(
                "shrunken hierarchical allgather needs survivors on at \
                 least two nodes"
                    .into(),
            ));
        }
        let mut node_start = Vec::with_capacity(node_members.len());
        let mut pos = 0;
        for members in &node_members {
            node_start.push(pos);
            pos += members.len();
        }
        let leaders: Vec<Rank> = node_members.iter().map(|m| m[0]).collect();
        let mut up = Vec::with_capacity(node_members.len());
        let mut down = Vec::with_capacity(node_members.len());
        for members in &node_members {
            up.push(Mesh::memory(
                setup,
                members,
                inputs,
                outputs,
                Protocol::HB,
                tbs,
            )?);
            down.push(Mesh::memory(
                setup,
                members,
                outputs,
                outputs,
                Protocol::HB,
                tbs,
            )?);
        }
        let cross = Mesh::port(setup, &leaders, outputs, outputs, tbs)?;
        Ok(ShrunkenHierAllGather {
            node_members,
            node_start,
            k: pos,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            tbs,
            up,
            cross,
            down,
        })
    }

    /// Kernels gathering `bytes` per survivor into position-indexed slots.
    pub fn kernels(&self, bytes: usize) -> Vec<Kernel> {
        let total = self.k * bytes;
        let nleads = self.node_members.len();
        let (order, slots) = relay_order(&self.node_members);
        emit(&order, self.tbs, |i, g, t, tb| {
            let (ni, mi) = slots[i];
            let m = self.node_members[ni].len();
            let pos = self.node_start[ni] + mi;
            // Each thread block owns one slice of the gathered output and
            // carries it end to end. Empty clips are skipped on both the
            // put and the wait side — each peer computes the other's clip
            // deterministically, so signal/wait counts stay balanced.
            let (ts, tl) = split_range(total, self.tbs, t);
            // My slot, clipped to this block's slice.
            let (s, l) = isect(ts, tl, pos * bytes, bytes);
            if mi != 0 {
                // Member: push my chunk up, receive everything.
                if l > 0 {
                    tb.put_ready(self.up[ni].at(t, mi, 0), s, s - pos * bytes, l);
                }
                tb.wait_ready(self.down[ni].at(t, mi, 0));
                return;
            }
            // Leader. Phase 1: collect my node's chunks.
            for p in 1..m {
                let ppos = self.node_start[ni] + p;
                if isect(ts, tl, ppos * bytes, bytes).1 > 0 {
                    tb.wait_ready(self.up[ni].at(t, 0, p));
                }
            }
            if l > 0 {
                tb.copy(self.inputs[g.0], s - pos * bytes, self.outputs[g.0], s, l);
            }
            // Phase 2: exchange node-contiguous ranges among leaders (my
            // node's range, clipped to my slice).
            let (ns, nl) = isect(ts, tl, self.node_start[ni] * bytes, m * bytes);
            for lj in peers_staggered(nleads, ni, t) {
                if nl > 0 {
                    tb.port_put_with_signal(self.cross.at(t, ni, lj), ns, ns, nl);
                }
            }
            for lj in peers_staggered(nleads, ni, t) {
                let mj = self.node_members[lj].len();
                if isect(ts, tl, self.node_start[lj] * bytes, mj * bytes).1 > 0 {
                    tb.port_wait(self.cross.at(t, ni, lj));
                }
            }
            // Phase 3: push the fully gathered slice down.
            for p in 1..m {
                tb.put_ready(self.down[ni].at(t, 0, p), ts, ts, tl);
            }
        })
    }
}
