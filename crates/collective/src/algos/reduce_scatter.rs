//! ReduceScatter: all-pairs within a node (Figure 5's algorithm), with a
//! mixed memory/port all-pairs variant for multi-node clusters.

use hw::{BufferId, DataType, Rank, ReduceOp};
use mscclpp::{peers_staggered, split_range, Kernel, Protocol, Result, Setup};

use crate::wiring::{emit, GroupMesh};

/// All-pairs ReduceScatter: the member at group position `p` receives
/// every peer's `p`-th shard into per-sender scratch slots and reduces
/// them into its output. Intra-node pairs ride memory channels;
/// cross-node pairs (multi-node clusters) ride RDMA port channels.
///
/// Subset-capable: on a shrunken epoch the plan runs over the survivor
/// `group` with shards renumbered by position in the sorted survivor
/// list (the epoch contract every shrunken collective follows).
#[derive(Debug)]
pub(crate) struct AllPairsReduceScatter {
    group: Vec<Rank>,
    inputs: Vec<BufferId>,
    outputs: Vec<BufferId>,
    slot_cap: usize,
    tbs: usize,
    mesh: GroupMesh,
    scratch: Vec<BufferId>,
}

impl AllPairsReduceScatter {
    pub fn prepare(
        setup: &mut Setup<'_>,
        group: &[Rank],
        inputs: &[BufferId],
        outputs: &[BufferId],
        cap: usize,
        tbs: usize,
        protocol: Protocol,
    ) -> Result<AllPairsReduceScatter> {
        let mut group = group.to_vec();
        group.sort_unstable();
        let n = group.len();
        let slot_cap = cap.div_ceil(n).next_multiple_of(16);
        // Scratch lives in a world-sized vector so channel builders can
        // index it by global rank; non-member slots hold a placeholder
        // (their input id) that nothing touches.
        let mut scratch = inputs.to_vec();
        for &r in &group {
            scratch[r.0] = setup.alloc(r, n * slot_cap);
        }
        let mesh = GroupMesh::build(setup, &group, inputs, &scratch, protocol, tbs)?;
        Ok(AllPairsReduceScatter {
            group,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            slot_cap,
            tbs,
            mesh,
            scratch,
        })
    }

    /// Kernels reducing `bytes` of total input per rank (each rank's
    /// output shard is `bytes / N`, rank-indexed).
    pub fn kernels(&self, bytes: usize, dtype: DataType, op: ReduceOp) -> Vec<Kernel> {
        let n = self.group.len();
        let es = dtype.size();
        let count = bytes / es;
        let shard = |i: usize| split_range(count, n, i);
        emit(&self.group, self.tbs, |ig, g, t, tb| {
            for p in peers_staggered(n, ig, t) {
                let (ps, pl) = shard(p);
                let (sl, sll) = split_range(pl, self.tbs, t);
                let dst_off = ig * self.slot_cap + sl * es;
                self.mesh
                    .put(tb, t, ig, p, dst_off, (ps + sl) * es, sll * es);
            }
            let (gs, gl) = shard(ig);
            let (ms, ml) = split_range(gl, self.tbs, t);
            let (off, len, out) = (ms * es, ml * es, self.outputs[g.0]);
            tb.copy(self.inputs[g.0], (gs + ms) * es, out, off, len);
            for p in peers_staggered(n, ig, t) {
                self.mesh.wait(tb, t, ig, p);
                let src_off = p * self.slot_cap + off;
                tb.reduce(self.scratch[g.0], src_off, out, off, len, dtype, op);
            }
        })
    }
}
