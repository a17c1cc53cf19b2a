//! The kernel emitter and the channel meshes shared by the collective
//! algorithms.
//!
//! MSCCL++ channels are bound to their source and destination buffers at
//! construction (§4.2), so each algorithm prepares the meshes it needs —
//! per thread block and per peer pair, exactly as the real library
//! instantiates device handles — and reuses them across launches. Its
//! `kernels` then writes one block body through [`emit`].

use hw::{BufferId, Rank, Topology};
use mscclpp::{
    BlockBuilder, Kernel, KernelBuilder, MemoryChannel, PortChannel, Protocol, Result, Setup,
};

/// Emits one kernel per rank of `order`, in that order, each with thread
/// blocks `0..tbs`: `body(i, g, t, tb)` writes block `t` of `g = order[i]`.
pub(crate) fn emit(
    order: &[Rank],
    tbs: usize,
    mut body: impl FnMut(usize, Rank, usize, &mut BlockBuilder<'_>),
) -> Vec<Kernel> {
    order
        .iter()
        .enumerate()
        .map(|(i, &g)| {
            let mut kb = KernelBuilder::new(g);
            for t in 0..tbs {
                body(i, g, t, &mut kb.block(t));
            }
            kb.build()
        })
        .collect()
}

/// Per-thread-block channels between the members of a rank group, memory
/// or port: `at(tb, a, b)` is the endpoint on the member at position `a`
/// towards the member at position `b`.
#[derive(Debug)]
pub(crate) struct Mesh<C> {
    /// Indexed `[tb][a][b]`; `None` where no channel joins the pair.
    chans: Vec<Vec<Vec<Option<C>>>>,
}

impl<C: Clone> Mesh<C> {
    /// Joins every pair within each of `groups`, which fill the grid's
    /// positions in order, with `pair(a, b)`'s endpoints on `a` and `b`:
    /// group by group, block by block, then pair by pair. That order
    /// fixes the ids of every channel's cells, so it is part of each
    /// plan's instruction stream.
    fn build(
        groups: &[Vec<Rank>],
        tbs: usize,
        mut pair: impl FnMut(Rank, Rank) -> Result<(C, C)>,
    ) -> Result<Mesh<C>> {
        let n = groups.iter().map(Vec::len).sum();
        let mut chans = vec![vec![vec![None; n]; n]; tbs];
        let mut at = 0;
        for ranks in groups {
            for grid in &mut chans {
                for (ia, &a) in ranks.iter().enumerate() {
                    for (ib, &b) in ranks.iter().enumerate().skip(ia + 1) {
                        let (ca, cb) = pair(a, b)?;
                        grid[at + ia][at + ib] = Some(ca);
                        grid[at + ib][at + ia] = Some(cb);
                    }
                }
            }
            at += ranks.len();
        }
        Ok(Mesh { chans })
    }

    /// The endpoint on member `a` towards member `b` for block `tb`.
    pub fn at(&self, tb: usize, a: usize, b: usize) -> &C {
        self.chans[tb][a][b]
            .as_ref()
            .expect("no channel joins the pair")
    }
}

impl Mesh<MemoryChannel> {
    /// Memory channels in `protocol` among `ranks`, where rank `a`'s
    /// endpoint puts from `src[a]` into `dst[b]` on rank `b` (indices
    /// into the full-world buffer vectors).
    pub fn memory(
        setup: &mut Setup<'_>,
        ranks: &[Rank],
        src: &[BufferId],
        dst: &[BufferId],
        protocol: Protocol,
        tbs: usize,
    ) -> Result<Self> {
        Mesh::build(&[ranks.to_vec()], tbs, |a, b| {
            setup.memory_channel_pair(a, src[a.0], dst[b.0], b, src[b.0], dst[a.0], protocol)
        })
    }
}

impl Mesh<PortChannel> {
    /// Port channels among `ranks`, putting from `src[a]` into `dst[b]`.
    pub fn port(
        setup: &mut Setup<'_>,
        ranks: &[Rank],
        src: &[BufferId],
        dst: &[BufferId],
        tbs: usize,
    ) -> Result<Self> {
        Mesh::build(&[ranks.to_vec()], tbs, |a, b| {
            setup.port_channel_pair(a, src[a.0], dst[b.0], b, src[b.0], dst[a.0])
        })
    }
}

/// All-pairs channels over a sorted group on one or more nodes: memory
/// channels in one protocol between members of a node, port channels
/// between members of different nodes. Positions are group positions.
#[derive(Debug)]
pub(crate) struct GroupMesh {
    mem: Mesh<MemoryChannel>,
    /// Joins every pair of a group that spans nodes (its intra-node
    /// endpoints carry nothing); `None` on one node.
    port: Option<Mesh<PortChannel>>,
}

impl GroupMesh {
    /// Joins the members of each node of `group`, node by node, then
    /// every pair of the group by port when it spans nodes; endpoints put
    /// from `src[a]` into `dst[b]`.
    pub fn build(
        setup: &mut Setup<'_>,
        group: &[Rank],
        src: &[BufferId],
        dst: &[BufferId],
        protocol: Protocol,
        tbs: usize,
    ) -> Result<GroupMesh> {
        let nodes = node_groups(&setup.topology(), group);
        let mem = Mesh::build(&nodes, tbs, |a, b| {
            setup.memory_channel_pair(a, src[a.0], dst[b.0], b, src[b.0], dst[a.0], protocol)
        })?;
        let port = if nodes.len() > 1 {
            Some(Mesh::port(setup, group, src, dst, tbs)?)
        } else {
            None
        };
        Ok(GroupMesh { mem, port })
    }

    /// Block `t` of member `a` puts into member `b`:
    /// [`BlockBuilder::put_ready`] within a node, a port
    /// `put_with_signal` across nodes.
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &self,
        tb: &mut BlockBuilder<'_>,
        t: usize,
        a: usize,
        b: usize,
        dst_off: usize,
        src_off: usize,
        bytes: usize,
    ) {
        match &self.mem.chans[t][a][b] {
            Some(ch) => tb.put_ready(ch, dst_off, src_off, bytes),
            None => tb.port_put_with_signal(self.cross(t, a, b), dst_off, src_off, bytes),
        };
    }

    /// Block `t` of member `a` waits for member `b`'s next [`Self::put`].
    pub fn wait(&self, tb: &mut BlockBuilder<'_>, t: usize, a: usize, b: usize) {
        match &self.mem.chans[t][a][b] {
            Some(ch) => tb.wait_ready(ch),
            None => tb.port_wait(self.cross(t, a, b)),
        };
    }

    fn cross(&self, t: usize, a: usize, b: usize) -> &PortChannel {
        self.port
            .as_ref()
            .expect("pair on different nodes")
            .at(t, a, b)
    }
}

/// Partitions a (sorted) rank group into per-node member lists, skipping
/// nodes with no surviving member. The hierarchical shrunken plans elect
/// the first member of each list as that node's leader.
pub(crate) fn node_groups(topo: &Topology, group: &[Rank]) -> Vec<Vec<Rank>> {
    let mut out: Vec<Vec<Rank>> = Vec::new();
    let mut last_node = usize::MAX;
    let mut sorted = group.to_vec();
    sorted.sort_unstable();
    for r in sorted {
        let node = topo.node_of(r);
        if node != last_node {
            out.push(Vec::new());
            last_node = node;
        }
        out.last_mut().expect("pushed above").push(r);
    }
    out
}

/// The members of a node partition (see [`node_groups`]) in rank order,
/// and each one's `(node index, member index)`: the leader relays'
/// emission order.
pub(crate) fn relay_order(nodes: &[Vec<Rank>]) -> (Vec<Rank>, Vec<(usize, usize)>) {
    let slots = nodes
        .iter()
        .enumerate()
        .flat_map(|(ni, members)| (0..members.len()).map(move |mi| (ni, mi)))
        .collect();
    (nodes.concat(), slots)
}

/// Intersects the half-open ranges `[a0, a0+al)` and `[b0, b0+bl)`,
/// returning `(start, len)` in absolute coordinates. An empty
/// intersection is anchored at `b0` so callers can subtract `b0` from the
/// start without underflow when emitting balanced zero-length transfers.
pub(crate) fn isect(a0: usize, al: usize, b0: usize, bl: usize) -> (usize, usize) {
    let s = a0.max(b0);
    let e = (a0 + al).min(b0 + bl);
    if e > s {
        (s, e - s)
    } else {
        (b0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isect_clamps_and_anchors_empty() {
        assert_eq!(isect(0, 10, 4, 4), (4, 4));
        assert_eq!(isect(5, 10, 4, 4), (5, 3));
        assert_eq!(isect(0, 3, 4, 4), (4, 0), "empty anchors at b0");
        assert_eq!(isect(9, 3, 4, 4), (4, 0));
    }

    #[test]
    fn relay_order_lists_members_node_by_node() {
        let nodes = vec![vec![Rank(0), Rank(3)], vec![Rank(9)]];
        let (order, slots) = relay_order(&nodes);
        assert_eq!(order, [Rank(0), Rank(3), Rank(9)]);
        assert_eq!(slots, [(0, 0), (0, 1), (1, 0)]);
    }

    #[test]
    fn node_groups_partition_survivors_by_node() {
        use hw::EnvKind;
        let topo = hw::Machine::new(EnvKind::A100_40G.spec(2)).topology();
        let group: Vec<Rank> = [0, 3, 5, 8, 15].into_iter().map(Rank).collect();
        let groups = node_groups(&topo, &group);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![Rank(0), Rank(3), Rank(5)]);
        assert_eq!(groups[1], vec![Rank(8), Rank(15)]);
        // A whole dead node disappears from the partition.
        let ones: Vec<Rank> = (8..16).map(Rank).collect();
        assert_eq!(node_groups(&topo, &ones).len(), 1);
    }
}
