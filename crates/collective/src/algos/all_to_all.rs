//! AllToAll: every rank sends a distinct chunk to every other rank —
//! the fourth collective pattern the paper's introduction lists. The
//! all-pairs structure maps directly onto one-sided puts: rank `a`'s
//! chunk `b` lands in rank `b`'s output slot `a`.

use hw::{BufferId, Rank};
use mscclpp::{peers_staggered, split_range, Kernel, Protocol, Result, Setup};

use crate::wiring::{emit, GroupMesh};

/// All-pairs AllToAll over memory channels (intra-node) and RDMA port
/// channels (cross-node).
///
/// Subset-capable: on a shrunken epoch the plan runs over the survivor
/// `group` with chunk indices renumbered by position in the sorted
/// survivor list (the epoch contract every shrunken collective follows).
#[derive(Debug)]
pub(crate) struct AllPairsAllToAll {
    group: Vec<Rank>,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    tbs: usize,
    mesh: GroupMesh,
}

impl AllPairsAllToAll {
    pub fn prepare(
        setup: &mut Setup<'_>,
        group: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        tbs: usize,
        protocol: Protocol,
    ) -> Result<AllPairsAllToAll> {
        let mut group = group.to_vec();
        group.sort_unstable();
        let mesh = GroupMesh::build(setup, &group, inputs, outputs, protocol, tbs)?;
        Ok(AllPairsAllToAll {
            group,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            tbs,
            mesh,
        })
    }

    /// Kernels exchanging `bytes` per (src, dst) pair: inputs and outputs
    /// hold `N * bytes` each, chunk `i` addressed to / received from
    /// rank `i`.
    pub fn kernels(&self, bytes: usize) -> Vec<Kernel> {
        let n = self.group.len();
        emit(&self.group, self.tbs, |ig, g, t, tb| {
            let (ms, ml) = split_range(bytes, self.tbs, t);
            for p in peers_staggered(n, ig, t) {
                // My chunk p lands in p's output slot ig.
                self.mesh
                    .put(tb, t, ig, p, ig * bytes + ms, p * bytes + ms, ml);
            }
            let off = ig * bytes + ms;
            tb.copy(self.inputs[g.0], off, self.outputs[g.0], off, ml);
            for p in peers_staggered(n, ig, t) {
                self.mesh.wait(tb, t, ig, p);
            }
        })
    }
}
