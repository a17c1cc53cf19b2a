//! The CPU proxy thread behind a [`PortChannel`] (§4.2.1, Figure 7).
//!
//! Current interconnects require the CPU to initiate port-mapped
//! transfers (`cudaMemcpyDeviceToDevice` for intra-node DMA,
//! `ibv_post_send` for RDMA). Each port channel therefore owns one proxy
//! process that continuously drains the channel's request FIFO:
//!
//! 1. block until the GPU pushes a request (`pushed_cell` advances);
//! 2. read and decode the request (`proxy_handle`);
//! 3. initiate the transfer (`proxy_post`), which occupies the DMA engine
//!    or NIC from the hardware model;
//! 4. schedule the completion counter (`completed_cell`, observed by
//!    `flush`) at the moment the transfer leaves the sender, and the
//!    peer's arrival/semaphore cells at the moment data lands.
//!
//! While the transfer is in flight the GPU is free to execute other work —
//! the asynchrony that §2.2.2 shows NCCL's blocking `send` cannot express.

//!
//! When a fault plan is active, the proxy is also the retry engine: a
//! transfer hitting a transient link fault is re-queued and re-attempted
//! after an exponential backoff with jitter drawn from the plan's seeded
//! RNG, so retry timing is fully deterministic. A permanently-down path
//! parks the proxy instead (daemons may park without deadlocking); the
//! GPU-side `flush` deadline then reports the outage as a typed timeout.

use std::cell::RefCell;
use std::rc::Rc;

use hw::{CopyMode, Dataflow, LinkFault, Machine, Rank};
use sim::{CellId, CounterId, Ctx, Duration, Process, SimRng, Step};

use crate::channel::{FifoState, ProxyRequest};
use crate::overheads::Overheads;

/// Size in bytes of the semaphore word written by a remote signal.
const SIGNAL_BYTES: usize = 8;

/// First retry backoff after a transiently failed transfer (1 µs). Each
/// further attempt doubles the wait, capped at `2^RETRY_BACKOFF_CAP`
/// times this, plus up to 50% seeded jitter to avoid retry convoys.
/// These live here rather than in [`Overheads`]: they are proxy policy,
/// not a hardware cost, and `Overheads` presets must stay identical
/// across the mscclpp/DSL configurations except for decode cost.
const RETRY_BACKOFF_BASE_PS: u64 = 1_000_000;
/// Maximum number of doublings applied to the backoff base.
const RETRY_BACKOFF_CAP: u32 = 6;

/// The proxy process for one port-channel direction.
#[derive(Debug)]
pub(crate) struct ProxyProc {
    pub src: Rank,
    pub dst: Rank,
    pub fifo: Rc<RefCell<FifoState>>,
    pub pushed_cell: CellId,
    pub completed_cell: CellId,
    pub peer_sem: CellId,
    pub peer_arrival: CellId,
    pub processed: u64,
    pub ov: Overheads,
    /// Consecutive failed attempts for the request at the FIFO head.
    pub attempts: u32,
    /// Deterministic jitter source, seeded from the fault plan and this
    /// proxy's (src, dst) so every proxy has an independent stream.
    pub rng: SimRng,
    /// Pre-resolved hot counters (`proxy.idle_waits` / `proxy.puts` /
    /// `proxy.signals`), resolved on the first step so the per-request
    /// path never hashes a counter name.
    pub ids: Option<ProxyCounters>,
    /// Whether `src` and `dst` share a node. Topology is immutable, so
    /// this is resolved once at spawn instead of per request.
    pub intra: bool,
}

/// See [`ProxyProc::ids`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProxyCounters {
    idle_waits: CounterId,
    puts: CounterId,
    signals: CounterId,
}

impl ProxyProc {
    /// Times and performs one transfer of `bytes` from `src` to `dst`,
    /// returning the transfer's `(sender_free, arrival)` instants.
    fn transfer(&self, ctx: &mut Ctx<'_, Machine>, bytes: usize) -> hw::Xfer {
        if self.intra {
            hw::p2p_time(ctx, self.src, self.dst, bytes as u64, CopyMode::Dma)
        } else {
            hw::net_time(ctx, self.src, self.dst, bytes as u64)
        }
    }
}

impl Process<Machine> for ProxyProc {
    fn step(&mut self, ctx: &mut Ctx<'_, Machine>) -> Step {
        let ids = *self.ids.get_or_insert_with(|| ProxyCounters {
            idle_waits: ctx.counter_id("proxy.idle_waits"),
            puts: ctx.counter_id("proxy.puts"),
            signals: ctx.counter_id("proxy.signals"),
        });
        let req = self.fifo.borrow_mut().queue.pop_front();
        let Some(req) = req else {
            // Figure 7 ②: spin on the FIFO tail until the GPU pushes.
            ctx.count_id(ids.idle_waits, 1);
            return Step::WaitCell {
                cell: self.pushed_cell,
                at_least: self.processed + 1,
            };
        };
        match hw::link_fault(ctx, self.src, self.dst) {
            LinkFault::Down => {
                // No retry will ever succeed. Park forever on a cell nobody
                // signals: daemons may park without deadlocking, and the
                // GPU side's flush deadline reports the outage as a typed
                // timeout naming its wait span.
                self.fifo.borrow_mut().queue.push_front(req);
                ctx.count("fault.proxy_link_down", 1);
                ctx.span_begin("proxy.link_down");
                let dead = ctx.alloc_cell();
                return Step::WaitCell {
                    cell: dead,
                    at_least: 1,
                };
            }
            LinkFault::Transient { .. } => {
                // Re-queue and back off exponentially with seeded jitter;
                // the flap window end is not observable to a real proxy,
                // only the failed post is.
                self.fifo.borrow_mut().queue.push_front(req);
                self.attempts += 1;
                ctx.count("retry.attempts", 1);
                if self.attempts == 1 {
                    ctx.count("retry.transfers", 1);
                }
                let base = RETRY_BACKOFF_BASE_PS << (self.attempts - 1).min(RETRY_BACKOFF_CAP);
                let jitter = ((base as f64) * 0.5 * self.rng.next_f64()).round() as u64;
                return Step::Yield(Duration::from_ps(base + jitter));
            }
            LinkFault::Up => {
                if self.attempts > 0 {
                    ctx.count("retry.recovered", 1);
                    self.attempts = 0;
                }
            }
        }
        self.processed += 1;
        if ctx.tracing() {
            let depth = self.fifo.borrow().queue.len() as u64;
            ctx.trace_counter(&format!("fifo.depth {}->{}", self.src, self.dst), depth);
        }
        let mut busy = self.ov.proxy_handle;
        match req {
            ProxyRequest::Put {
                src,
                src_off,
                dst,
                dst_off,
                bytes,
                with_signal,
            } => {
                busy += self.ov.proxy_post;
                ctx.count_id(ids.puts, 1);
                if with_signal {
                    ctx.count_id(ids.signals, 1);
                }
                let xfer = self.transfer(ctx, bytes);
                ctx.world.pool_mut().apply(Dataflow::Move {
                    src: (src, src_off),
                    dst: (dst, dst_off),
                    bytes,
                });
                ctx.cell_add_at(self.completed_cell, 1, xfer.sender_free);
                ctx.cell_add_at(self.peer_arrival, 1, xfer.arrival);
                if with_signal {
                    ctx.cell_add_at(self.peer_sem, 1, xfer.arrival);
                }
            }
            ProxyRequest::Signal => {
                busy += self.ov.proxy_post;
                ctx.count_id(ids.signals, 1);
                // The semaphore update is itself a tiny ordered transfer
                // (ibv atomic / flagged store); riding the same NIC or DMA
                // resource orders it after every preceding put.
                let xfer = self.transfer(ctx, SIGNAL_BYTES);
                ctx.cell_add_at(self.peer_sem, 1, xfer.arrival);
                ctx.cell_add_at(self.completed_cell, 1, xfer.sender_free);
            }
        }
        Step::Yield(busy)
    }

    fn label(&self) -> String {
        format!("proxy {}->{}", self.src, self.dst)
    }
}
