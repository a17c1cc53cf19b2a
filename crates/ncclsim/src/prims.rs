//! The NCCL primitive emitter: `send`, `recv`, `copy`, `reduce` and their
//! fused forms (§2.2.1), compiled onto the simulated GPU's instruction
//! stream.
//!
//! Every primitive call starts by synchronizing the channel's static
//! thread group (`prim_sync` — the cost §2.2.2 attributes to NCCL's
//! inflexible grouping), then moves data through the connection's staging
//! FIFO with rendezvous credit flow control. This makes NCCL's structural
//! overheads — blocking, staging copies, conservative synchronization —
//! real simulated work rather than fudge factors.

use hw::{BufferId, DataType, ReduceOp};
use mscclpp::BlockBuilder;

use crate::config::{NcclConfig, Proto};
use crate::conn::Conn;

/// Emits NCCL primitives into one thread block's instruction stream.
#[derive(Debug)]
pub struct Prims<'a, 'b> {
    tb: &'a mut BlockBuilder<'b>,
    cfg: &'a NcclConfig,
    proto: Proto,
    dtype: DataType,
    op: ReduceOp,
}

impl<'a, 'b> Prims<'a, 'b> {
    /// Creates an emitter for one thread block.
    pub fn new(
        tb: &'a mut BlockBuilder<'b>,
        cfg: &'a NcclConfig,
        proto: Proto,
        dtype: DataType,
        op: ReduceOp,
    ) -> Prims<'a, 'b> {
        Prims {
            tb,
            cfg,
            proto,
            dtype,
            op,
        }
    }

    fn group_sync(&mut self) {
        self.tb.compute(self.cfg.prim_sync);
    }

    /// Emits the transfer half of a send into `conn`'s next slot.
    fn put_slot(&mut self, conn: &Conn, src: BufferId, src_off: usize, bytes: usize) {
        let (slot_off, need_credit) = conn.next_send(self.cfg, self.proto);
        if need_credit {
            self.tb.sem_wait(&conn.credit);
        }
        match self.proto {
            Proto::LL => {
                self.tb.raw_put(
                    src,
                    src_off,
                    conn.dst,
                    conn.staging,
                    slot_off,
                    bytes,
                    Proto::LL.wire_factor(),
                    Some(&conn.data),
                );
            }
            Proto::Simple => {
                self.tb.raw_put(
                    src,
                    src_off,
                    conn.dst,
                    conn.staging,
                    slot_off,
                    bytes,
                    1.0,
                    None,
                );
                self.tb.sem_signal(&conn.data);
            }
        }
    }

    /// `send`: copy `bytes` from the user buffer into the peer's staging
    /// FIFO and flag it. Blocks (at run time) on FIFO credit when the
    /// sender has run ahead by the FIFO depth.
    pub fn send(&mut self, conn: &Conn, src: BufferId, src_off: usize, bytes: usize) {
        self.group_sync();
        self.put_slot(conn, src, src_off, bytes);
    }

    /// Fused `recvReduceSend`: receive a chunk, reduce it with the user
    /// input, and forward the partial sum to the next peer (Figure 1's
    /// middle steps).
    pub fn recv_reduce_send(
        &mut self,
        conn_in: &Conn,
        user: BufferId,
        user_off: usize,
        conn_out: &Conn,
        bytes: usize,
    ) {
        self.group_sync();
        self.tb.sem_wait(&conn_in.data);
        let in_off = conn_in.next_recv(self.cfg, self.proto);
        let (out_off, need_credit) = conn_out.next_send(self.cfg, self.proto);
        if need_credit {
            self.tb.sem_wait(&conn_out.credit);
        }
        let notify = match self.proto {
            Proto::LL => Some(&conn_out.data),
            Proto::Simple => None,
        };
        self.tb.raw_reduce_put(
            user,
            user_off,
            conn_in.staging,
            in_off,
            conn_out.dst,
            conn_out.staging,
            out_off,
            bytes,
            self.proto.wire_factor(),
            self.dtype,
            self.op,
            notify,
        );
        if self.proto == Proto::Simple {
            self.tb.sem_signal(&conn_out.data);
        }
        self.tb.sem_signal(&conn_in.credit);
    }

    /// Fused `recvReduceCopy`: receive a chunk, reduce it with the user
    /// input, and write the result to the destination (Figure 1's final
    /// step).
    #[allow(clippy::too_many_arguments)]
    pub fn recv_reduce_copy(
        &mut self,
        conn_in: &Conn,
        user: BufferId,
        user_off: usize,
        dst: BufferId,
        dst_off: usize,
        bytes: usize,
    ) {
        self.group_sync();
        self.tb.sem_wait(&conn_in.data);
        let in_off = conn_in.next_recv(self.cfg, self.proto);
        self.tb.reduce_into(
            user,
            user_off,
            conn_in.staging,
            in_off,
            dst,
            dst_off,
            bytes,
            self.dtype,
            self.op,
        );
        self.tb.sem_signal(&conn_in.credit);
    }

    /// Fused `recvCopy`: receive a chunk and copy it out of staging into
    /// the destination buffer.
    pub fn recv_copy(&mut self, conn_in: &Conn, dst: BufferId, dst_off: usize, bytes: usize) {
        self.group_sync();
        self.tb.sem_wait(&conn_in.data);
        let in_off = conn_in.next_recv(self.cfg, self.proto);
        self.tb.copy(conn_in.staging, in_off, dst, dst_off, bytes);
        self.tb.sem_signal(&conn_in.credit);
    }

    /// Fused `recvCopySend`: receive a chunk, copy it out, and forward it
    /// to the next peer (reading the in-flight data once, from staging).
    ///
    /// The credit for the incoming slot is returned only after the
    /// forward has been issued, since the forward reads the staging slot.
    pub fn recv_copy_send(
        &mut self,
        conn_in: &Conn,
        dst: BufferId,
        dst_off: usize,
        conn_out: &Conn,
        bytes: usize,
    ) {
        self.group_sync();
        self.tb.sem_wait(&conn_in.data);
        let in_off = conn_in.next_recv(self.cfg, self.proto);
        self.tb.copy(conn_in.staging, in_off, dst, dst_off, bytes);
        self.put_slot(conn_out, conn_in.staging, in_off, bytes);
        self.tb.sem_signal(&conn_in.credit);
    }

    /// `reduce`: local element-wise reduction between two buffers.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_local(
        &mut self,
        a: BufferId,
        a_off: usize,
        b: BufferId,
        b_off: usize,
        dst: BufferId,
        dst_off: usize,
        bytes: usize,
    ) {
        self.group_sync();
        self.tb
            .reduce_into(a, a_off, b, b_off, dst, dst_off, bytes, self.dtype, self.op);
    }

    /// `copy`: local device-to-device copy.
    pub fn copy_local(
        &mut self,
        src: BufferId,
        src_off: usize,
        dst: BufferId,
        dst_off: usize,
        bytes: usize,
    ) {
        self.group_sync();
        self.tb.copy(src, src_off, dst, dst_off, bytes);
    }
}
