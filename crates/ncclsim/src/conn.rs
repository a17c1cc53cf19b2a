//! NCCL connections: one-directional staging FIFOs between rank pairs.
//!
//! An NCCL connection carries data from `src` to `dst` through a staging
//! buffer allocated on the receiver (the "receive buffer" of §2.2.1),
//! organized as a cyclic FIFO of `slots` slots. The sender may run ahead
//! by at most `slots` chunks; beyond that it blocks on *credits* returned
//! by the receiver — the rendezvous behaviour that makes NCCL's `send`
//! self-synchronous.

use std::cell::Cell;
use std::rc::Rc;

use hw::{BufferId, Rank};
use mscclpp::{Semaphore, Setup};

use crate::config::{NcclConfig, Proto};

/// A one-directional NCCL connection (`src` → `dst`).
///
/// Cloning shares the FIFO cursors; clones denote the same connection.
#[derive(Debug, Clone)]
pub struct Conn {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Staging buffer on the receiver: `slots` times the larger of
    /// `slot_bytes_simple` and `slot_bytes_ll`, so either protocol fits.
    /// Its payload pages are created as sends write them, so a small
    /// launch creates only the pages of the slots it writes.
    pub staging: BufferId,
    /// FIFO depth in slots.
    pub slots: usize,
    /// Data-ready semaphore on the receiver.
    pub data: Semaphore,
    /// Credit semaphore on the sender (receiver returns slots).
    pub credit: Semaphore,
    /// Sends emitted so far (compile-time cursor, shared across clones).
    send_seq: Rc<Cell<usize>>,
    /// Receives emitted so far (compile-time cursor, shared across clones).
    recv_seq: Rc<Cell<usize>>,
}

impl Conn {
    /// Creates a connection from `src` to `dst`, allocating the staging
    /// buffer and semaphores.
    pub fn create(setup: &mut Setup<'_>, cfg: &NcclConfig, src: Rank, dst: Rank) -> Conn {
        let staging_bytes = cfg.slots * cfg.slot_bytes_simple.max(cfg.slot_bytes_ll);
        let staging = setup.alloc(dst, staging_bytes);
        let data = setup.semaphore(dst);
        let credit = setup.semaphore(src);
        Conn {
            src,
            dst,
            staging,
            slots: cfg.slots,
            data,
            credit,
            send_seq: Rc::new(Cell::new(0)),
            recv_seq: Rc::new(Cell::new(0)),
        }
    }

    /// Reserves the next send slot; returns `(byte offset, needs_credit)`.
    ///
    /// `needs_credit` is true once the sender has wrapped the FIFO and
    /// must wait for the receiver to return a slot.
    pub(crate) fn next_send(&self, cfg: &NcclConfig, proto: Proto) -> (usize, bool) {
        let seq = self.send_seq.get();
        self.send_seq.set(seq + 1);
        let slot = seq % self.slots;
        (slot * cfg.slot_bytes(proto), seq >= self.slots)
    }

    /// Reserves the next receive slot; returns its byte offset.
    pub(crate) fn next_recv(&self, cfg: &NcclConfig, proto: Proto) -> usize {
        let seq = self.recv_seq.get();
        self.recv_seq.set(seq + 1);
        (seq % self.slots) * cfg.slot_bytes(proto)
    }

    /// Sends emitted so far (diagnostic).
    pub fn sends(&self) -> usize {
        self.send_seq.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw::{EnvKind, Machine};
    use sim::Engine;

    #[test]
    fn send_cursor_wraps_and_demands_credit() {
        let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        let mut setup = Setup::new(&mut engine);
        let cfg = NcclConfig::nccl();
        let conn = Conn::create(&mut setup, &cfg, Rank(0), Rank(1));
        for i in 0..cfg.slots {
            let (off, credit) = conn.next_send(&cfg, Proto::Simple);
            assert_eq!(off, i * cfg.slot_bytes_simple);
            assert!(!credit, "first {} sends are credit-free", cfg.slots);
        }
        let (off, credit) = conn.next_send(&cfg, Proto::Simple);
        assert_eq!(off, 0, "cursor wraps to slot 0");
        assert!(credit, "wrapped send must wait for credit");
        // Clones share the cursor.
        let c2 = conn.clone();
        let (_, credit) = c2.next_send(&cfg, Proto::Simple);
        assert!(credit);
        assert_eq!(conn.sends(), cfg.slots + 2);
    }

    #[test]
    fn staging_lives_on_receiver() {
        let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        let mut setup = Setup::new(&mut engine);
        let cfg = NcclConfig::nccl();
        let conn = Conn::create(&mut setup, &cfg, Rank(2), Rank(5));
        assert_eq!(engine.world().pool().rank_of(conn.staging), Rank(5));
    }
}
