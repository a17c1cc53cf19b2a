//! GPU kernels as instruction streams — the Primitive API's device side.
//!
//! A simulated kernel is one instruction program per thread block. The
//! [`KernelBuilder`] is the Rust face of the paper's Primitive API: each
//! builder method corresponds to a channel primitive (`put`, `signal`,
//! `wait`, `flush`, switch `reduce`/`broadcast`) or a local GPU operation
//! (`copy`, `reduce`, barrier). The resulting [`Kernel`] is interpreted by
//! [`crate::exec`], which charges hardware transfer times and the thin
//! MSCCL++ software overheads.
//!
//! # Example
//!
//! Build a kernel where thread block 0 puts a buffer slice to a peer and
//! signals it (the `putWithSignal` fused primitive):
//!
//! ```no_run
//! # fn doc(ch: mscclpp::MemoryChannel) {
//! use mscclpp::KernelBuilder;
//! use hw::Rank;
//!
//! let mut k = KernelBuilder::new(Rank(0));
//! k.block(0).put_with_signal(&ch, 0, 0, 4096);
//! let kernel = k.build();
//! # }
//! ```

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use hw::{BufferId, DataType, Dataflow, Rank, ReduceOp};
use sim::{CellId, Duration};

use crate::channel::{
    DeviceBarrier, MemoryChannel, PortChannel, Protocol, Semaphore, SwitchChannel,
};

/// One device-side instruction of a simulated kernel.
#[derive(Debug, Clone)]
pub enum Instr {
    /// MemoryChannel `put` (optionally fused with `signal`): thread-copy
    /// `bytes` from `local_buf + src_off` to the peer's
    /// `remote_buf + dst_off`.
    MemPut {
        /// Channel to put on.
        ch: MemoryChannel,
        /// Offset into the channel's local (source) buffer.
        src_off: usize,
        /// Offset into the channel's remote (destination) buffer.
        dst_off: usize,
        /// Payload size in bytes.
        bytes: usize,
        /// Fused `putWithSignal`.
        with_signal: bool,
    },
    /// MemoryChannel `signal`: fence + remote semaphore increment.
    MemSignal {
        /// Channel whose peer semaphore is incremented.
        ch: MemoryChannel,
    },
    /// MemoryChannel `wait`: block until the local semaphore reaches the
    /// next expected value (HB protocol synchronization).
    MemWait {
        /// Channel whose local semaphore is waited on.
        ch: MemoryChannel,
    },
    /// LL-protocol data wait: block until the next `put` payload (with its
    /// interleaved flags) has fully landed in the local buffer.
    MemWaitData {
        /// Channel whose arrival counter is waited on.
        ch: MemoryChannel,
    },
    /// Read `bytes` from the peer's memory through the channel and reduce
    /// them element-wise into a local buffer (the "read from multiple
    /// GPUs and reduce in registers" optimization of §4.4).
    MemReadReduce {
        /// Channel to read through (data flows peer → local).
        ch: MemoryChannel,
        /// Offset into the peer's `remote_buf` to read from.
        remote_off: usize,
        /// Local destination/accumulator buffer.
        local_buf: BufferId,
        /// Offset into the local buffer.
        local_off: usize,
        /// Payload size in bytes.
        bytes: usize,
        /// Element type.
        dtype: DataType,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// PortChannel `put` (optionally fused with `signal`): push a request
    /// for the CPU proxy to DMA/RDMA `bytes` to the peer.
    PortPut {
        /// Channel to put on.
        ch: PortChannel,
        /// Offset into the channel's local (source) buffer.
        src_off: usize,
        /// Offset into the channel's remote (destination) buffer.
        dst_off: usize,
        /// Payload size in bytes.
        bytes: usize,
        /// Fused `putWithSignal`.
        with_signal: bool,
    },
    /// PortChannel `signal`: push a signal request for the proxy.
    PortSignal {
        /// Channel whose peer semaphore is incremented.
        ch: PortChannel,
    },
    /// PortChannel `flush`: block until every previously pushed request on
    /// this channel has completed (safe to reuse the source buffer).
    PortFlush {
        /// Channel to flush.
        ch: PortChannel,
        /// Optional virtual-time deadline: if the flush has not completed
        /// within this span the simulation returns a typed timeout naming
        /// the hung wait instead of deadlocking (fault recovery, §robustness).
        deadline: Option<Duration>,
    },
    /// PortChannel `wait`: block until the local semaphore reaches the
    /// next expected value.
    PortWait {
        /// Channel whose local semaphore is waited on.
        ch: PortChannel,
    },
    /// SwitchChannel `reduce`: multimem load-reduce `bytes` at `src_off`
    /// of every member buffer into a local buffer (§4.2.3).
    SwitchReduce {
        /// The switch channel.
        ch: SwitchChannel,
        /// Offset into the multimem (member) buffers.
        src_off: usize,
        /// Local destination buffer.
        dst_buf: BufferId,
        /// Offset into the destination buffer.
        dst_off: usize,
        /// Payload size in bytes.
        bytes: usize,
        /// Element type.
        dtype: DataType,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// SwitchChannel `broadcast`: multimem store of a local buffer slice
    /// into every member buffer at `dst_off`.
    SwitchBroadcast {
        /// The switch channel.
        ch: SwitchChannel,
        /// Local source buffer.
        src_buf: BufferId,
        /// Offset into the source buffer.
        src_off: usize,
        /// Offset into the multimem (member) buffers.
        dst_off: usize,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// Local device-to-device copy.
    Copy {
        /// Source buffer.
        src: BufferId,
        /// Source offset.
        src_off: usize,
        /// Destination buffer.
        dst: BufferId,
        /// Destination offset.
        dst_off: usize,
        /// Size in bytes.
        bytes: usize,
    },
    /// Local element-wise reduction `dst = op(dst, src)`.
    Reduce {
        /// Source buffer.
        src: BufferId,
        /// Source offset.
        src_off: usize,
        /// Destination/accumulator buffer.
        dst: BufferId,
        /// Destination offset.
        dst_off: usize,
        /// Operand size in bytes.
        bytes: usize,
        /// Element type.
        dtype: DataType,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// Transport-level put between explicit buffers (no channel pairing):
    /// used by baseline stack reproductions (`ncclsim`) whose staging-FIFO
    /// data flow does not fit the fixed src/dst binding of a channel.
    /// Intra-node transfers use thread-copy; inter-node transfers model
    /// NCCL's network path (local staging write + CPU-proxied RDMA).
    RawPut {
        /// Sending rank (must own `src`).
        src_rank: Rank,
        /// Source buffer.
        src: BufferId,
        /// Source offset.
        src_off: usize,
        /// Receiving rank (must own `dst`).
        dst_rank: Rank,
        /// Destination buffer.
        dst: BufferId,
        /// Destination offset.
        dst_off: usize,
        /// Payload size in bytes.
        bytes: usize,
        /// Wire bytes per payload byte (2.0 for LL flag interleaving).
        wire_factor: f64,
        /// Semaphore raised when the data lands (LL-style inline flags:
        /// no fence delay). `None` when a separate signal follows.
        notify: Option<Semaphore>,
    },
    /// Transport-level fused reduce-and-put: `remote_dst = op(a, b)`, the
    /// register path of NCCL's `recvReduceSend` (no intermediate local
    /// store).
    RawReducePut {
        /// Sending rank (must own `a` and `b`).
        src_rank: Rank,
        /// First operand buffer (e.g. the user input chunk).
        a: BufferId,
        /// First operand offset.
        a_off: usize,
        /// Second operand buffer (e.g. the staging slot just received).
        b: BufferId,
        /// Second operand offset.
        b_off: usize,
        /// Receiving rank (must own `dst`).
        dst_rank: Rank,
        /// Destination buffer.
        dst: BufferId,
        /// Destination offset.
        dst_off: usize,
        /// Payload size in bytes.
        bytes: usize,
        /// Wire bytes per payload byte.
        wire_factor: f64,
        /// Element type.
        dtype: DataType,
        /// Reduction operator.
        op: ReduceOp,
        /// Semaphore raised when the data lands.
        notify: Option<Semaphore>,
    },
    /// Local three-address reduction `dst = op(a, b)` (NCCL's
    /// `recvReduceCopy` register path).
    ReduceInto {
        /// First operand buffer.
        a: BufferId,
        /// First operand offset.
        a_off: usize,
        /// Second operand buffer.
        b: BufferId,
        /// Second operand offset.
        b_off: usize,
        /// Destination buffer.
        dst: BufferId,
        /// Destination offset.
        dst_off: usize,
        /// Operand size in bytes.
        bytes: usize,
        /// Element type.
        dtype: DataType,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// Wait until a standalone semaphore reaches its next expected value.
    SemWait {
        /// The semaphore (must live on this kernel's rank).
        sem: Semaphore,
    },
    /// Remotely increment a standalone semaphore on another rank, ordered
    /// after preceding transfers on the same links (fence + atomic).
    SemSignal {
        /// The semaphore to increment.
        sem: Semaphore,
    },
    /// Multi-device barrier (Figure 5's `multiDeviceBarrier`).
    Barrier {
        /// This rank's barrier handle.
        barrier: DeviceBarrier,
    },
    /// Occupy the thread block with computation for a fixed span (used by
    /// fused compute/communication kernels and the inference engine).
    Compute {
        /// Busy time.
        dur: Duration,
    },
}

impl Instr {
    /// Number of instruction kinds ([`Instr::opcode`] is `< KIND_COUNT`).
    pub const KIND_COUNT: usize = 20;

    /// Mnemonics indexed by [`Instr::opcode`].
    pub const MNEMONICS: [&'static str; Instr::KIND_COUNT] = [
        "mem_put",
        "mem_signal",
        "mem_wait",
        "mem_wait_data",
        "mem_read_reduce",
        "port_put",
        "port_signal",
        "port_flush",
        "port_wait",
        "switch_reduce",
        "switch_broadcast",
        "copy",
        "reduce",
        "raw_put",
        "raw_reduce_put",
        "reduce_into",
        "sem_wait",
        "sem_signal",
        "barrier",
        "compute",
    ];

    /// Dense instruction-kind index, for array-backed per-kind accounting
    /// on the interpreter hot path (no map lookups, no string hashing).
    pub fn opcode(&self) -> usize {
        match self {
            Instr::MemPut { .. } => 0,
            Instr::MemSignal { .. } => 1,
            Instr::MemWait { .. } => 2,
            Instr::MemWaitData { .. } => 3,
            Instr::MemReadReduce { .. } => 4,
            Instr::PortPut { .. } => 5,
            Instr::PortSignal { .. } => 6,
            Instr::PortFlush { .. } => 7,
            Instr::PortWait { .. } => 8,
            Instr::SwitchReduce { .. } => 9,
            Instr::SwitchBroadcast { .. } => 10,
            Instr::Copy { .. } => 11,
            Instr::Reduce { .. } => 12,
            Instr::RawPut { .. } => 13,
            Instr::RawReducePut { .. } => 14,
            Instr::ReduceInto { .. } => 15,
            Instr::SemWait { .. } => 16,
            Instr::SemSignal { .. } => 17,
            Instr::Barrier { .. } => 18,
            Instr::Compute { .. } => 19,
        }
    }

    /// Short stable name of this instruction kind, used for metrics
    /// counters (`instr.<mnemonic>`) and emitted-mix attribution.
    pub fn mnemonic(&self) -> &'static str {
        Instr::MNEMONICS[self.opcode()]
    }

    /// Whether executing this instruction may block the thread block on a
    /// synchronization condition (counted as `sync.waits`).
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            Instr::MemWait { .. }
                | Instr::MemWaitData { .. }
                | Instr::PortFlush { .. }
                | Instr::PortWait { .. }
                | Instr::SemWait { .. }
                | Instr::Barrier { .. }
        )
    }

    /// Whether this instruction moves payload data toward a peer
    /// (counted as `ops.puts`).
    pub fn is_put(&self) -> bool {
        matches!(
            self,
            Instr::MemPut { .. }
                | Instr::PortPut { .. }
                | Instr::RawPut { .. }
                | Instr::RawReducePut { .. }
        )
    }

    /// Number of semaphore signals this instruction performs, including
    /// fused `putWithSignal` and LL-style inline notifications (counted
    /// as `sync.signals`).
    pub fn signals(&self) -> u64 {
        match self {
            Instr::MemSignal { .. } | Instr::PortSignal { .. } | Instr::SemSignal { .. } => 1,
            Instr::MemPut { with_signal, .. } | Instr::PortPut { with_signal, .. } => {
                u64::from(*with_signal)
            }
            Instr::RawPut { notify, .. } | Instr::RawReducePut { notify, .. } => {
                u64::from(notify.is_some())
            }
            _ => 0,
        }
    }

    /// The whole of what this instruction does to memory: the bytes it
    /// reads and writes and how the written ones derive from the read
    /// ones, or `None` when it moves no data (waits, signals, flushes,
    /// barriers, compute). The interpreter executes exactly this value
    /// ([`hw::MemoryPool::apply`]), and the static verifier, the dynamic
    /// sanitizer and the mutation harness read it, so a plan is proven
    /// against the footprint that runs.
    #[inline]
    pub fn dataflow(&self) -> Option<Dataflow<'_>> {
        Some(match *self {
            Instr::MemPut {
                ref ch,
                src_off,
                dst_off,
                bytes,
                ..
            } => Dataflow::Move {
                src: (ch.local_buf, src_off),
                dst: (ch.remote_buf, dst_off),
                bytes,
            },
            Instr::PortPut {
                ref ch,
                src_off,
                dst_off,
                bytes,
                ..
            } => Dataflow::Move {
                src: (ch.local_buf, src_off),
                dst: (ch.remote_buf, dst_off),
                bytes,
            },
            Instr::Copy {
                src,
                src_off,
                dst,
                dst_off,
                bytes,
            }
            | Instr::RawPut {
                src,
                src_off,
                dst,
                dst_off,
                bytes,
                ..
            } => Dataflow::Move {
                src: (src, src_off),
                dst: (dst, dst_off),
                bytes,
            },
            Instr::MemReadReduce {
                ref ch,
                remote_off,
                local_buf,
                local_off,
                bytes,
                dtype,
                op,
            } => Dataflow::Accum {
                src: (ch.remote_buf, remote_off),
                dst: (local_buf, local_off),
                bytes,
                dtype,
                op,
            },
            Instr::Reduce {
                src,
                src_off,
                dst,
                dst_off,
                bytes,
                dtype,
                op,
            } => Dataflow::Accum {
                src: (src, src_off),
                dst: (dst, dst_off),
                bytes,
                dtype,
                op,
            },
            Instr::ReduceInto {
                a,
                a_off,
                b,
                b_off,
                dst,
                dst_off,
                bytes,
                dtype,
                op,
            }
            | Instr::RawReducePut {
                a,
                a_off,
                b,
                b_off,
                dst,
                dst_off,
                bytes,
                dtype,
                op,
                ..
            } => Dataflow::Reduce2 {
                a: (a, a_off),
                b: (b, b_off),
                dst: (dst, dst_off),
                bytes,
                dtype,
                op,
            },
            Instr::SwitchReduce {
                ref ch,
                src_off,
                dst_buf,
                dst_off,
                bytes,
                dtype,
                op,
            } => Dataflow::ReduceAll {
                members: &ch.members,
                src_off,
                dst: (dst_buf, dst_off),
                bytes,
                dtype,
                op,
            },
            Instr::SwitchBroadcast {
                ref ch,
                src_buf,
                src_off,
                dst_off,
                bytes,
            } => Dataflow::Replicate {
                src: (src_buf, src_off),
                members: &ch.members,
                dst_off,
                bytes,
            },
            Instr::MemSignal { .. }
            | Instr::MemWait { .. }
            | Instr::MemWaitData { .. }
            | Instr::PortSignal { .. }
            | Instr::PortFlush { .. }
            | Instr::PortWait { .. }
            | Instr::SemWait { .. }
            | Instr::SemSignal { .. }
            | Instr::Barrier { .. }
            | Instr::Compute { .. } => return None,
        })
    }

    /// The synchronization cells this instruction increments: arrival
    /// counters and semaphores of puts and signals, a barrier's arrival
    /// cell. A port put or signal increments its cells from the channel's
    /// proxy, after the request's transfer.
    #[inline]
    pub fn increments(&self) -> impl Iterator<Item = CellId> {
        let cells: [Option<CellId>; 3] = match self {
            Instr::MemPut {
                ch, with_signal, ..
            } => [
                Some(ch.peer_arrival),
                with_signal.then_some(ch.peer_sem),
                None,
            ],
            Instr::MemSignal { ch } => [Some(ch.peer_sem), None, None],
            Instr::PortPut {
                ch, with_signal, ..
            } => [
                Some(ch.completed_cell),
                Some(ch.peer_arrival),
                with_signal.then_some(ch.peer_sem),
            ],
            Instr::PortSignal { ch } => [Some(ch.completed_cell), Some(ch.peer_sem), None],
            Instr::RawPut { notify, .. } | Instr::RawReducePut { notify, .. } => {
                [notify.as_ref().map(|sem| sem.cell), None, None]
            }
            Instr::SemSignal { sem } => [Some(sem.cell), None, None],
            Instr::Barrier { barrier } => [Some(barrier.cell), None, None],
            Instr::MemWait { .. }
            | Instr::MemWaitData { .. }
            | Instr::MemReadReduce { .. }
            | Instr::PortFlush { .. }
            | Instr::PortWait { .. }
            | Instr::SwitchReduce { .. }
            | Instr::SwitchBroadcast { .. }
            | Instr::Copy { .. }
            | Instr::Reduce { .. }
            | Instr::ReduceInto { .. }
            | Instr::SemWait { .. }
            | Instr::Compute { .. } => [None; 3],
        };
        cells.into_iter().flatten()
    }

    /// The counted wait this instruction performs, or `None` when it
    /// performs none. The interpreter's waits and launch replay's wait
    /// counters both read it.
    pub(crate) fn wait(&self) -> Option<CountedWait<'_>> {
        let (counter, cell, per_round) = match self {
            Instr::MemWait { ch } => (&ch.sem_expect, ch.my_sem, 1),
            Instr::MemWaitData { ch } => (&ch.arrival_expect, ch.my_arrival, 1),
            Instr::PortWait { ch } => (&ch.sem_expect, ch.my_sem, 1),
            Instr::SemWait { sem } => (&sem.expect, sem.cell, 1),
            Instr::Barrier { barrier } => (&barrier.round, barrier.cell, barrier.parties as u64),
            Instr::MemPut { .. }
            | Instr::MemSignal { .. }
            | Instr::MemReadReduce { .. }
            | Instr::PortPut { .. }
            | Instr::PortSignal { .. }
            | Instr::PortFlush { .. }
            | Instr::SwitchReduce { .. }
            | Instr::SwitchBroadcast { .. }
            | Instr::Copy { .. }
            | Instr::Reduce { .. }
            | Instr::RawPut { .. }
            | Instr::RawReducePut { .. }
            | Instr::ReduceInto { .. }
            | Instr::SemSignal { .. }
            | Instr::Compute { .. } => return None,
        };
        Some(CountedWait {
            counter,
            cell,
            per_round,
        })
    }
}

/// A counted wait ([`Instr::wait`]): its `k`-th round blocks until `cell`
/// reaches `k * per_round`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CountedWait<'a> {
    /// The rounds waited for so far: a channel's sem or arrival expect, a
    /// semaphore's expect, or a barrier's round. Clones of the waiting
    /// handle share it.
    pub counter: &'a Rc<Cell<u64>>,
    /// The cell the wait compares against.
    pub cell: CellId,
    /// Cell increments per round: a barrier's parties, else 1.
    pub per_round: u64,
}

/// The site of one instruction: which rank, thread block, and program
/// counter it occupies in a kernel batch. The static verifier and the
/// dynamic sanitizer both name findings by site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Site {
    /// Issuing rank.
    pub rank: Rank,
    /// Thread block index within the rank's kernel.
    pub tb: usize,
    /// Instruction index within the block's stream.
    pub pc: usize,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/tb{}/pc{}", self.rank, self.tb, self.pc)
    }
}

/// A compiled kernel: one instruction program per thread block on one rank.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The rank this kernel launches on.
    pub rank: Rank,
    /// One instruction stream per thread block.
    pub blocks: Vec<Vec<Instr>>,
    /// Registers per thread (reported in the paper's §3.2.3 comparison;
    /// informational — it does not affect simulated timing).
    pub regs_per_thread: u32,
}

impl Kernel {
    /// Total instruction count across all thread blocks.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }
}

/// Builds a [`Kernel`] block by block.
#[derive(Debug)]
pub struct KernelBuilder {
    rank: Rank,
    blocks: Vec<Vec<Instr>>,
    regs_per_thread: u32,
}

impl KernelBuilder {
    /// Starts a kernel for `rank` with no thread blocks.
    pub fn new(rank: Rank) -> KernelBuilder {
        KernelBuilder {
            rank,
            blocks: Vec::new(),
            regs_per_thread: 32,
        }
    }

    /// Sets the reported registers-per-thread metadata.
    pub fn regs_per_thread(&mut self, regs: u32) -> &mut Self {
        self.regs_per_thread = regs;
        self
    }

    /// Returns a builder for thread block `index`, growing the kernel as
    /// needed.
    pub fn block(&mut self, index: usize) -> BlockBuilder<'_> {
        if self.blocks.len() <= index {
            self.blocks.resize_with(index + 1, Vec::new);
        }
        BlockBuilder {
            rank: self.rank,
            instrs: &mut self.blocks[index],
        }
    }

    /// Finishes the kernel.
    pub fn build(self) -> Kernel {
        Kernel {
            rank: self.rank,
            blocks: self.blocks,
            regs_per_thread: self.regs_per_thread,
        }
    }
}

/// Appends instructions to one thread block. Created by
/// [`KernelBuilder::block`]; methods chain.
#[derive(Debug)]
pub struct BlockBuilder<'a> {
    rank: Rank,
    instrs: &'a mut Vec<Instr>,
}

impl BlockBuilder<'_> {
    fn assert_local<T>(&self, what: &str, owner: Rank) -> Option<T> {
        assert_eq!(
            owner, self.rank,
            "{what}: channel endpoint belongs to {owner}, kernel runs on {}",
            self.rank
        );
        None
    }

    /// MemoryChannel `put`: asynchronous zero-copy write to the peer.
    pub fn put(
        &mut self,
        ch: &MemoryChannel,
        dst_off: usize,
        src_off: usize,
        bytes: usize,
    ) -> &mut Self {
        self.assert_local::<()>("put", ch.local_rank);
        self.instrs.push(Instr::MemPut {
            ch: ch.clone(),
            src_off,
            dst_off,
            bytes,
            with_signal: false,
        });
        self
    }

    /// Fused `putWithSignal` (§3.2.2).
    pub fn put_with_signal(
        &mut self,
        ch: &MemoryChannel,
        dst_off: usize,
        src_off: usize,
        bytes: usize,
    ) -> &mut Self {
        self.assert_local::<()>("put_with_signal", ch.local_rank);
        self.instrs.push(Instr::MemPut {
            ch: ch.clone(),
            src_off,
            dst_off,
            bytes,
            with_signal: true,
        });
        self
    }

    /// MemoryChannel `signal`.
    pub fn signal(&mut self, ch: &MemoryChannel) -> &mut Self {
        self.assert_local::<()>("signal", ch.local_rank);
        self.instrs.push(Instr::MemSignal { ch: ch.clone() });
        self
    }

    /// MemoryChannel `wait` (HB semaphore).
    pub fn wait(&mut self, ch: &MemoryChannel) -> &mut Self {
        self.assert_local::<()>("wait", ch.local_rank);
        self.instrs.push(Instr::MemWait { ch: ch.clone() });
        self
    }

    /// LL-protocol data wait: returns once the next put has landed.
    pub fn wait_data(&mut self, ch: &MemoryChannel) -> &mut Self {
        self.assert_local::<()>("wait_data", ch.local_rank);
        self.instrs.push(Instr::MemWaitData { ch: ch.clone() });
        self
    }

    /// The put whose landing the peer's [`BlockBuilder::wait_ready`]
    /// observes, in `ch`'s protocol: a [`put`](Self::put) on LL, whose
    /// flags travel with the data, and a
    /// [`put_with_signal`](Self::put_with_signal) on HB, whose semaphore
    /// follows it.
    pub fn put_ready(
        &mut self,
        ch: &MemoryChannel,
        dst_off: usize,
        src_off: usize,
        bytes: usize,
    ) -> &mut Self {
        match ch.protocol {
            Protocol::LL => self.put(ch, dst_off, src_off, bytes),
            Protocol::HB => self.put_with_signal(ch, dst_off, src_off, bytes),
        }
    }

    /// Waits until the peer's next [`BlockBuilder::put_ready`] on `ch` has
    /// landed: a [`wait_data`](Self::wait_data) on LL and a
    /// [`wait`](Self::wait) on HB.
    pub fn wait_ready(&mut self, ch: &MemoryChannel) -> &mut Self {
        match ch.protocol {
            Protocol::LL => self.wait_data(ch),
            Protocol::HB => self.wait(ch),
        }
    }

    /// Read from the peer through the channel and reduce into a local
    /// buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn read_reduce(
        &mut self,
        ch: &MemoryChannel,
        remote_off: usize,
        local_buf: BufferId,
        local_off: usize,
        bytes: usize,
        dtype: DataType,
        op: ReduceOp,
    ) -> &mut Self {
        self.assert_local::<()>("read_reduce", ch.local_rank);
        self.instrs.push(Instr::MemReadReduce {
            ch: ch.clone(),
            remote_off,
            local_buf,
            local_off,
            bytes,
            dtype,
            op,
        });
        self
    }

    /// PortChannel `put`.
    pub fn port_put(
        &mut self,
        ch: &PortChannel,
        dst_off: usize,
        src_off: usize,
        bytes: usize,
    ) -> &mut Self {
        self.assert_local::<()>("port_put", ch.local_rank);
        self.instrs.push(Instr::PortPut {
            ch: ch.clone(),
            src_off,
            dst_off,
            bytes,
            with_signal: false,
        });
        self
    }

    /// PortChannel fused `putWithSignal`.
    pub fn port_put_with_signal(
        &mut self,
        ch: &PortChannel,
        dst_off: usize,
        src_off: usize,
        bytes: usize,
    ) -> &mut Self {
        self.assert_local::<()>("port_put_with_signal", ch.local_rank);
        self.instrs.push(Instr::PortPut {
            ch: ch.clone(),
            src_off,
            dst_off,
            bytes,
            with_signal: true,
        });
        self
    }

    /// PortChannel `signal`.
    pub fn port_signal(&mut self, ch: &PortChannel) -> &mut Self {
        self.assert_local::<()>("port_signal", ch.local_rank);
        self.instrs.push(Instr::PortSignal { ch: ch.clone() });
        self
    }

    /// PortChannel `flush`: wait until all pushed requests completed.
    pub fn port_flush(&mut self, ch: &PortChannel) -> &mut Self {
        self.assert_local::<()>("port_flush", ch.local_rank);
        self.instrs.push(Instr::PortFlush {
            ch: ch.clone(),
            deadline: None,
        });
        self
    }

    /// PortChannel `flush` with a virtual-time deadline: if the pending
    /// requests have not completed within `deadline`, the run returns
    /// [`crate::Error::Timeout`] naming this wait instead of hanging.
    pub fn port_flush_deadline(&mut self, ch: &PortChannel, deadline: Duration) -> &mut Self {
        self.assert_local::<()>("port_flush_deadline", ch.local_rank);
        self.instrs.push(Instr::PortFlush {
            ch: ch.clone(),
            deadline: Some(deadline),
        });
        self
    }

    /// PortChannel `wait`.
    pub fn port_wait(&mut self, ch: &PortChannel) -> &mut Self {
        self.assert_local::<()>("port_wait", ch.local_rank);
        self.instrs.push(Instr::PortWait { ch: ch.clone() });
        self
    }

    /// SwitchChannel `reduce` (multimem load-reduce).
    #[allow(clippy::too_many_arguments)]
    pub fn switch_reduce(
        &mut self,
        ch: &SwitchChannel,
        src_off: usize,
        dst_buf: BufferId,
        dst_off: usize,
        bytes: usize,
        dtype: DataType,
        op: ReduceOp,
    ) -> &mut Self {
        self.assert_local::<()>("switch_reduce", ch.rank);
        self.instrs.push(Instr::SwitchReduce {
            ch: ch.clone(),
            src_off,
            dst_buf,
            dst_off,
            bytes,
            dtype,
            op,
        });
        self
    }

    /// SwitchChannel `broadcast` (multimem store).
    pub fn switch_broadcast(
        &mut self,
        ch: &SwitchChannel,
        src_buf: BufferId,
        src_off: usize,
        dst_off: usize,
        bytes: usize,
    ) -> &mut Self {
        self.assert_local::<()>("switch_broadcast", ch.rank);
        self.instrs.push(Instr::SwitchBroadcast {
            ch: ch.clone(),
            src_buf,
            src_off,
            dst_off,
            bytes,
        });
        self
    }

    /// Local device-to-device copy.
    pub fn copy(
        &mut self,
        src: BufferId,
        src_off: usize,
        dst: BufferId,
        dst_off: usize,
        bytes: usize,
    ) -> &mut Self {
        self.instrs.push(Instr::Copy {
            src,
            src_off,
            dst,
            dst_off,
            bytes,
        });
        self
    }

    /// Local element-wise reduction `dst = op(dst, src)`.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        &mut self,
        src: BufferId,
        src_off: usize,
        dst: BufferId,
        dst_off: usize,
        bytes: usize,
        dtype: DataType,
        op: ReduceOp,
    ) -> &mut Self {
        self.instrs.push(Instr::Reduce {
            src,
            src_off,
            dst,
            dst_off,
            bytes,
            dtype,
            op,
        });
        self
    }

    /// Transport-level put (see [`Instr::RawPut`]).
    #[allow(clippy::too_many_arguments)]
    pub fn raw_put(
        &mut self,
        src: BufferId,
        src_off: usize,
        dst_rank: Rank,
        dst: BufferId,
        dst_off: usize,
        bytes: usize,
        wire_factor: f64,
        notify: Option<&Semaphore>,
    ) -> &mut Self {
        self.instrs.push(Instr::RawPut {
            src_rank: self.rank,
            src,
            src_off,
            dst_rank,
            dst,
            dst_off,
            bytes,
            wire_factor,
            notify: notify.cloned(),
        });
        self
    }

    /// Transport-level fused reduce-and-put (see [`Instr::RawReducePut`]).
    #[allow(clippy::too_many_arguments)]
    pub fn raw_reduce_put(
        &mut self,
        a: BufferId,
        a_off: usize,
        b: BufferId,
        b_off: usize,
        dst_rank: Rank,
        dst: BufferId,
        dst_off: usize,
        bytes: usize,
        wire_factor: f64,
        dtype: DataType,
        op: ReduceOp,
        notify: Option<&Semaphore>,
    ) -> &mut Self {
        self.instrs.push(Instr::RawReducePut {
            src_rank: self.rank,
            a,
            a_off,
            b,
            b_off,
            dst_rank,
            dst,
            dst_off,
            bytes,
            wire_factor,
            dtype,
            op,
            notify: notify.cloned(),
        });
        self
    }

    /// Local three-address reduction `dst = op(a, b)`.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_into(
        &mut self,
        a: BufferId,
        a_off: usize,
        b: BufferId,
        b_off: usize,
        dst: BufferId,
        dst_off: usize,
        bytes: usize,
        dtype: DataType,
        op: ReduceOp,
    ) -> &mut Self {
        self.instrs.push(Instr::ReduceInto {
            a,
            a_off,
            b,
            b_off,
            dst,
            dst_off,
            bytes,
            dtype,
            op,
        });
        self
    }

    /// Wait on a standalone semaphore.
    pub fn sem_wait(&mut self, sem: &Semaphore) -> &mut Self {
        self.assert_local::<()>("sem_wait", sem.owner);
        self.instrs.push(Instr::SemWait { sem: sem.clone() });
        self
    }

    /// Remotely signal a standalone semaphore on another rank.
    pub fn sem_signal(&mut self, sem: &Semaphore) -> &mut Self {
        self.instrs.push(Instr::SemSignal { sem: sem.clone() });
        self
    }

    /// Multi-device barrier.
    pub fn barrier(&mut self, barrier: &DeviceBarrier) -> &mut Self {
        self.instrs.push(Instr::Barrier {
            barrier: barrier.clone(),
        });
        self
    }

    /// Fixed-duration compute occupancy.
    pub fn compute(&mut self, dur: Duration) -> &mut Self {
        self.instrs.push(Instr::Compute { dur });
        self
    }
}

/// Splits `total` into `parts` nearly-equal contiguous ranges and returns
/// the `(start, len)` of range `idx`; the first `total % parts` ranges are
/// one longer. Kernels use it to carve a message across thread blocks,
/// shards or channels.
pub fn split_range(total: usize, parts: usize, idx: usize) -> (usize, usize) {
    let base = total / parts;
    let rem = total % parts;
    (idx * base + idx.min(rem), base + usize::from(idx < rem))
}

/// Iterates the peers of `me` among `0..n` (every index but `me`),
/// rotated by thread block `tb` so concurrent blocks start on different
/// peers: the mesh loop order of §5.3.
#[inline]
pub fn peers_staggered(n: usize, me: usize, tb: usize) -> impl Iterator<Item = usize> {
    (0..n - 1).map(move |j| (me + 1 + (tb + j) % (n - 1)) % n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_grows_blocks_and_counts_instrs() {
        let mut b = KernelBuilder::new(Rank(3));
        let mut pool = hw::MemoryPool::new();
        let x = pool.alloc(Rank(3), 16);
        let y = pool.alloc(Rank(3), 16);
        b.block(2).copy(x, 0, y, 0, 16);
        b.block(0).compute(Duration::from_ns(5.0));
        let k = b.build();
        assert_eq!(k.blocks.len(), 3);
        assert_eq!(k.instr_count(), 2);
        assert_eq!(k.rank, Rank(3));
        assert_eq!(k.regs_per_thread, 32);
    }

    #[test]
    fn split_range_covers_everything_without_overlap() {
        for total in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 3, 8] {
                let mut covered = 0;
                for i in 0..parts {
                    let (s, l) = split_range(total, parts, i);
                    assert_eq!(s, covered, "ranges must be contiguous");
                    covered += l;
                }
                assert_eq!(covered, total);
            }
        }
    }
}
