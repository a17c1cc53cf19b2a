//! Broadcast: direct all-pairs puts from the root within a node, with a
//! node-leader relay for multi-node clusters, and an NVSwitch multicast
//! variant on hardware with multimem support.

use hw::{BufferId, Rank};
use mscclpp::{
    split_range, Error, Kernel, MemoryChannel, PortChannel, Protocol, Result, Setup, SwitchChannel,
};

use crate::wiring::{emit, node_groups, relay_order, Mesh};

/// Broadcast from a root rank: the root RDMAs the message to one elected
/// leader per other node, then each node's leader (the root on its own)
/// distributes it locally. On one node (or with survivors confined to
/// one) there is no other node, and the root's thread blocks put slices
/// directly into every member's output.
///
/// Subset-capable: the relay tree is re-derived from the epoch's member
/// list, so a shrunken multi-node group re-elects leaders among the
/// survivors — the member at the root's local index when it survived,
/// else the node's lowest surviving rank.
#[derive(Debug)]
pub(crate) struct AllPairsBroadcast {
    /// Members partitioned by node (single entry when the group spans
    /// one node).
    node_members: Vec<Vec<Rank>>,
    root: Rank,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    tbs: usize,
    /// Index into `node_members[ni]` of node `ni`'s leader.
    leader_mi: Vec<usize>,
    /// Index into `node_members` of the root's node.
    root_ni: usize,
    /// Local distribution mesh per node (output -> output, plus the
    /// root's input as source on the root's node).
    local: Vec<Mesh<MemoryChannel>>,
    /// Root -> other node leaders (absent when one node spans the group).
    cross: Option<Mesh<PortChannel>>,
}

impl AllPairsBroadcast {
    pub fn prepare(
        setup: &mut Setup<'_>,
        group: &[Rank],
        root: Rank,
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
    ) -> Result<AllPairsBroadcast> {
        let topo = setup.topology();
        if !group.contains(&root) {
            return Err(Error::InvalidArgument(format!(
                "broadcast root {} is not in the current epoch",
                root.0
            )));
        }
        let node_members = node_groups(&topo, group);
        // Leader election per node: the member at the root's local index
        // when it survived (the full-topology relay layout), else the
        // node's lowest surviving rank. The root leads its own node.
        let root_li = topo.local_index(root);
        let leader_mi: Vec<usize> = node_members
            .iter()
            .map(|members| {
                members
                    .iter()
                    .position(|&r| topo.local_index(r) == root_li)
                    .unwrap_or(0)
            })
            .collect();
        let root_ni = node_members
            .iter()
            .position(|members| members.contains(&root))
            .expect("root membership checked above");
        // Source vector: every rank "sends" from its output copy except
        // the root, which sends from its input.
        let mut src = outputs.to_vec();
        src[root.0] = inputs[root.0];
        let local = node_members
            .iter()
            .map(|members| Mesh::memory(setup, members, &src, outputs, Protocol::HB, tbs))
            .collect::<Result<_>>()?;
        let cross = if node_members.len() > 1 {
            let leaders: Vec<Rank> = node_members
                .iter()
                .zip(&leader_mi)
                .map(|(members, &mi)| members[mi])
                .collect();
            Some(Mesh::port(setup, &leaders, &src, outputs, tbs)?)
        } else {
            None
        };
        Ok(AllPairsBroadcast {
            node_members,
            root,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            tbs,
            leader_mi,
            root_ni,
            local,
            cross,
        })
    }

    /// Kernels broadcasting `bytes` from the root.
    pub fn kernels(&self, bytes: usize) -> Vec<Kernel> {
        let (order, slots) = relay_order(&self.node_members);
        emit(&order, self.tbs, |i, g, t, tb| {
            let (ni, mi) = slots[i];
            let leader_mi = self.leader_mi[ni];
            let (ms, ml) = split_range(bytes, self.tbs, t);
            if g == self.root {
                // Phase 1: RDMA to each other node's leader.
                for b in 0..self.node_members.len() {
                    if b != self.root_ni {
                        let cross = self.cross.as_ref().expect("multi-node");
                        tb.port_put_with_signal(cross.at(t, self.root_ni, b), ms, ms, ml);
                    }
                }
                // In-place (input == output) the local copy is a no-op,
                // and would alias the range the phase-1 proxies are still
                // DMA-reading.
                if self.inputs[g.0] != self.outputs[g.0] {
                    tb.copy(self.inputs[g.0], ms, self.outputs[g.0], ms, ml);
                }
            } else if mi == leader_mi {
                let cross = self.cross.as_ref().expect("multi-node");
                tb.port_wait(cross.at(t, ni, self.root_ni));
            }
            // Phase 2: node-local distribution by the leader (the root on
            // its own node).
            if mi == leader_mi {
                for p in 0..self.node_members[ni].len() {
                    if p != mi {
                        tb.put_ready(self.local[ni].at(t, mi, p), ms, ms, ml);
                    }
                }
            } else {
                // Wait for my node's leader to push my slice.
                tb.wait_ready(self.local[ni].at(t, mi, leader_mi));
            }
        })
    }
}

/// NVSwitch multicast broadcast: the root multimem-stores its buffer into
/// every member's output in one pass (§4.2.3's `broadcast` primitive).
#[derive(Debug)]
pub(crate) struct SwitchBroadcast {
    ranks: Vec<Rank>,
    root: Rank,
    inputs: Vec<BufferId>,
    tbs: usize,
    chan: Vec<SwitchChannel>,
    barriers: Vec<mscclpp::DeviceBarrier>,
}

impl SwitchBroadcast {
    pub fn prepare(
        setup: &mut Setup<'_>,
        group: &[Rank],
        root: Rank,
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
    ) -> Result<SwitchBroadcast> {
        let topo = setup.topology();
        if topo.nodes() != 1 {
            return Err(Error::InvalidArgument(
                "switch broadcast is single-node".into(),
            ));
        }
        if !group.contains(&root) {
            return Err(Error::InvalidArgument(format!(
                "broadcast root {} is not in the current epoch",
                root.0
            )));
        }
        // The multicast group is the epoch's member list — a shrink
        // renumbers the switch group to the survivors.
        let ranks: Vec<Rank> = group.to_vec();
        let members: Vec<_> = ranks.iter().map(|&r| (r, outputs[r.0])).collect();
        let chan = setup.switch_channel(&members)?;
        let barriers = setup.device_barrier(&ranks);
        Ok(SwitchBroadcast {
            ranks,
            root,
            inputs: inputs.to_vec(),
            tbs,
            chan,
            barriers,
        })
    }

    /// Kernels broadcasting `bytes` from the root through the switch.
    pub fn kernels(&self, bytes: usize) -> Vec<Kernel> {
        emit(&self.ranks, self.tbs, |ig, g, t, tb| {
            let (ms, ml) = split_range(bytes, self.tbs, t);
            if g == self.root {
                tb.switch_broadcast(&self.chan[ig], self.inputs[g.0], ms, ms, ml);
            }
            if t == 0 {
                tb.barrier(&self.barriers[ig]);
            }
        })
    }
}
