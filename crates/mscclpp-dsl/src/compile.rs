//! The DSL compiler: chunk dataflow → executor instruction streams.
//!
//! Lowering rules (one per transport, §3.2.1):
//!
//! | Edge | Transport | Emitted primitives |
//! |---|---|---|
//! | same rank | — | `copy` / `reduce` |
//! | same node, `copy` | MemoryChannel | `put` (LL) or `putWithSignal` (HB), consumer `wait` |
//! | same node, `reduce` with remote src | MemoryChannel | `read_reduce` after a readiness semaphore |
//! | cross node | PortChannel | `putWithSignal` via the CPU proxy, consumer `wait` |
//! | multimem | SwitchChannel | `reduce` / `broadcast` |
//!
//! Synchronization is inferred from chunk provenance: a consumer of a
//! chunk that was produced by a remote `put` waits on the channel's
//! arrival counter/semaphore; a consumer of a chunk produced *locally* on
//! another GPU gets a dedicated semaphore bridge (signal appended after
//! the producing instruction). Write-after-read hazards across ranks are
//! bridged the same way.

use std::collections::HashMap;

use hw::{BufferId, DataType, Machine, Rank, ReduceOp};
use mscclpp::{
    run_kernels, split_range, Kernel, KernelBuilder, KernelTiming, MemoryChannel, Overheads,
    PortChannel, Protocol, Semaphore, Setup, SwitchChannel,
};
use sim::Engine;

use crate::program::{buf_idx, Buf, ChunkRef, DslError, Op, Program};

/// Compilation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileOptions {
    /// MemoryChannel protocol for intra-node edges.
    pub protocol: Protocol,
    /// Thread blocks the program is sliced across (MSCCLang "instances").
    pub instances: usize,
    /// Element type for reductions.
    pub dtype: DataType,
    /// Reduction operator.
    pub op: ReduceOp,
    /// Run the `commverify` static verifier over the compiled instruction
    /// streams before returning the executable (on by default). A finding
    /// surfaces as [`DslError::Verify`].
    pub verify: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            protocol: Protocol::LL,
            instances: 1,
            dtype: DataType::F32,
            op: ReduceOp::Sum,
            verify: true,
        }
    }
}

/// Chunk provenance for synchronization inference (per thread block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prov {
    /// Present since kernel launch (collective inputs, zeroed scratch).
    Initial,
    /// Landed via put number `seq` on memory channel `chan`.
    MemPut { chan: usize, seq: u64 },
    /// Landed via put number `seq` on port channel `chan`.
    PortPut { chan: usize, seq: u64 },
    /// Produced by an instruction executed on `rank`.
    Local { rank: usize },
}

/// A compiled DSL program: executor instruction streams per rank, run
/// with the DSL executor's overheads.
#[derive(Debug)]
pub struct Executable {
    name: String,
    kernels: Vec<Kernel>,
    ov: Overheads,
}

impl Executable {
    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total executor instructions across all ranks and thread blocks.
    pub fn instr_count(&self) -> usize {
        self.kernels.iter().map(Kernel::instr_count).sum()
    }

    /// Runs one launch of the program and returns its timing.
    ///
    /// # Errors
    ///
    /// Propagates kernel deadlocks (a compiler bug or an impossible
    /// program).
    pub fn launch(&self, engine: &mut Engine<Machine>) -> mscclpp::Result<KernelTiming> {
        mscclpp::record_launch_mix(engine, "mscclpp_dsl", &self.kernels);
        run_kernels(engine, &self.kernels, &self.ov)
    }
}

/// Per-thread-block compiler state.
struct TbState {
    mem_chans: Vec<(MemoryChannel, MemoryChannel)>,
    mem_key: HashMap<(usize, usize, BufferId, BufferId), usize>,
    mem_puts: Vec<u64>,
    mem_waits: Vec<u64>,
    port_chans: Vec<(PortChannel, PortChannel)>,
    port_key: HashMap<(usize, usize, BufferId, BufferId), usize>,
    port_puts: Vec<u64>,
    port_waits: Vec<u64>,
    read_chans: HashMap<(usize, usize, BufferId, BufferId), MemoryChannel>,
    switch_chans: HashMap<(usize, u8), Vec<SwitchChannel>>,
    sems: HashMap<(usize, usize), Semaphore>,
    prov: HashMap<ChunkRef, Prov>,
    readers: HashMap<ChunkRef, Vec<usize>>,
}

impl TbState {
    fn new() -> TbState {
        TbState {
            mem_chans: Vec::new(),
            mem_key: HashMap::new(),
            mem_puts: Vec::new(),
            mem_waits: Vec::new(),
            port_chans: Vec::new(),
            port_key: HashMap::new(),
            port_puts: Vec::new(),
            port_waits: Vec::new(),
            read_chans: HashMap::new(),
            switch_chans: HashMap::new(),
            sems: HashMap::new(),
            prov: HashMap::new(),
            readers: HashMap::new(),
        }
    }
}

impl Program {
    /// Compiles the program against concrete buffers, allocating scratch
    /// and all channels, and returns a launchable [`Executable`].
    ///
    /// `inputs` and `outputs` are per-rank buffers; all inputs must share
    /// one size, and likewise all outputs. Scratch chunks have the input
    /// chunk size (or the output chunk size when the program reads no
    /// input).
    ///
    /// # Errors
    ///
    /// Returns [`DslError`] when buffer sizes are not divisible by the
    /// inferred chunk counts, for cross-node direct reduces, or when
    /// channel construction fails (e.g. multimem ops on hardware without
    /// a switch).
    pub fn compile(
        &self,
        setup: &mut Setup<'_>,
        inputs: &[BufferId],
        outputs: &[BufferId],
        opts: CompileOptions,
    ) -> Result<Executable, DslError> {
        let topo = setup.topology();
        if topo.world_size() != self.world {
            return Err(DslError::Compile(format!(
                "program written for {} ranks, machine has {}",
                self.world,
                topo.world_size()
            )));
        }
        let es = opts.dtype.size();
        let in_len = inputs
            .first()
            .map(|&b| setup_pool_len(setup, b))
            .unwrap_or(0);
        let out_len = outputs
            .first()
            .map(|&b| setup_pool_len(setup, b))
            .unwrap_or(0);

        let mut chunk_len = [0usize; 3];
        for (buf, total) in [(Buf::Input, in_len), (Buf::Output, out_len)] {
            let n = self.chunks[buf_idx(buf)];
            if n > 0 {
                if total % n != 0 || !(total / n).is_multiple_of(es) {
                    return Err(DslError::Compile(format!(
                        "{buf:?} of {total} B not divisible into {n} chunks of whole elements"
                    )));
                }
                chunk_len[buf_idx(buf)] = total / n;
            }
        }
        let scratch_n = self.chunks[buf_idx(Buf::Scratch)];
        let scratch_chunk = if chunk_len[0] > 0 {
            chunk_len[0]
        } else {
            chunk_len[1]
        };
        chunk_len[buf_idx(Buf::Scratch)] = scratch_chunk;
        let scratch: Vec<BufferId> = if scratch_n > 0 {
            (0..self.world)
                .map(|r| setup.alloc(Rank(r), scratch_n * scratch_chunk))
                .collect()
        } else {
            Vec::new()
        };
        let buf_of = |rank: usize, b: Buf| -> BufferId {
            match b {
                Buf::Input => inputs[rank],
                Buf::Output => outputs[rank],
                Buf::Scratch => scratch[rank],
            }
        };

        let mut builders: Vec<KernelBuilder> = (0..self.world)
            .map(|r| {
                let mut kb = KernelBuilder::new(Rank(r));
                kb.regs_per_thread(setup.overheads().regs_per_thread);
                kb
            })
            .collect();

        for t in 0..opts.instances.max(1) {
            let mut st = TbState::new();
            for op in &self.ops {
                self.lower_op(
                    setup,
                    &mut builders,
                    &mut st,
                    op,
                    t,
                    opts,
                    &chunk_len,
                    &buf_of,
                    topo,
                )?;
            }
        }

        let kernels: Vec<Kernel> = builders.into_iter().map(KernelBuilder::build).collect();
        if opts.verify {
            match self.spec(inputs, outputs, in_len, out_len)? {
                // A declared collective gets the full treatment: the
                // semantic dataflow pass proves the compiled streams
                // compute it, on top of the structural checks.
                Some(spec) => commverify::verify_collective(
                    &kernels,
                    setup.engine_mut().world().pool(),
                    &commverify::Checks::all(),
                    &spec,
                )
                .map_err(|e| DslError::Verify(e.to_string()))?,
                None => commverify::verify_kernels(&kernels, setup.engine_mut().world().pool())
                    .map_err(|e| DslError::Verify(e.to_string()))?,
            }
        }
        Ok(Executable {
            name: self.name.clone(),
            kernels,
            ov: Overheads::mscclpp_dsl(),
        })
    }

    /// Builds the `commverify` spec for the program's declared
    /// collective, sized from the bound buffers.
    fn spec(
        &self,
        inputs: &[BufferId],
        outputs: &[BufferId],
        in_len: usize,
        out_len: usize,
    ) -> Result<Option<commverify::CollectiveSpec>, DslError> {
        let Some(decl) = self.collective else {
            return Ok(None);
        };
        let member = |r: usize| commverify::SpecMember {
            rank: Rank(r),
            input: inputs[r],
            output: outputs[r],
        };
        if inputs.len() != self.world || outputs.len() != self.world {
            return Err(DslError::Compile(format!(
                "declared collective needs one input and one output per rank ({} ranks)",
                self.world
            )));
        }
        let members: Vec<_> = (0..self.world).map(member).collect();
        use crate::program::DeclaredCollective as D;
        let spec = match decl {
            D::AllReduce => commverify::CollectiveSpec::all_reduce(members, in_len),
            D::AllGather => commverify::CollectiveSpec::all_gather(members, in_len),
            D::ReduceScatter => {
                // DSL chunking is uniform, so shards are too.
                let shard = out_len;
                let shards = (0..self.world).map(|j| (j * shard, shard)).collect();
                commverify::CollectiveSpec::reduce_scatter(members, in_len, shards)
            }
            D::Broadcast { root } => {
                if root >= self.world {
                    return Err(DslError::Compile(format!(
                        "broadcast root {root} out of range (world {})",
                        self.world
                    )));
                }
                commverify::CollectiveSpec::broadcast(members, out_len, root)
            }
            D::AllToAll => {
                commverify::CollectiveSpec::all_to_all(members, in_len / self.world.max(1))
            }
        };
        Ok(Some(spec))
    }

    /// Emits instructions for one op on one thread block.
    #[allow(clippy::too_many_arguments)]
    fn lower_op(
        &self,
        setup: &mut Setup<'_>,
        builders: &mut [KernelBuilder],
        st: &mut TbState,
        op: &Op,
        t: usize,
        opts: CompileOptions,
        chunk_len: &[usize; 3],
        buf_of: &dyn Fn(usize, Buf) -> BufferId,
        topo: hw::Topology,
    ) -> Result<(), DslError> {
        let instances = opts.instances.max(1);
        // Byte range of a chunk's slice handled by this thread block.
        let range = |c: ChunkRef| -> (BufferId, usize, usize) {
            let cl = chunk_len[buf_idx(c.buf)];
            let (s, l) = split_range(cl, instances, t);
            (buf_of(c.rank, c.buf), c.index * cl + s, l)
        };
        match *op {
            Op::Copy { src, dst } => {
                let exec = src.rank;
                ensure_ready(setup, builders, st, src, exec, t)?;
                ensure_ready(setup, builders, st, dst, exec, t)?;
                war_guard(setup, builders, st, dst, exec, t);
                let (sb, so, len) = range(src);
                let (db, doff, _) = range(dst);
                if src.rank == dst.rank {
                    builders[exec].block(t).copy(sb, so, db, doff, len);
                    st.prov.insert(dst, Prov::Local { rank: exec });
                } else if topo.same_node(Rank(src.rank), Rank(dst.rank)) {
                    let ci = mem_chan(setup, st, src.rank, dst.rank, sb, db, opts.protocol)?;
                    let ch = st.mem_chans[ci].0.clone();
                    builders[exec].block(t).put_ready(&ch, doff, so, len);
                    st.mem_puts[ci] += 1;
                    st.prov.insert(
                        dst,
                        Prov::MemPut {
                            chan: ci,
                            seq: st.mem_puts[ci],
                        },
                    );
                } else {
                    let ci = port_chan(setup, st, src.rank, dst.rank, sb, db)?;
                    let ch = st.port_chans[ci].0.clone();
                    builders[exec]
                        .block(t)
                        .port_put_with_signal(&ch, doff, so, len);
                    st.port_puts[ci] += 1;
                    st.prov.insert(
                        dst,
                        Prov::PortPut {
                            chan: ci,
                            seq: st.port_puts[ci],
                        },
                    );
                }
                st.readers.entry(src).or_default().push(exec);
            }
            Op::Reduce { src, dst } => {
                let exec = dst.rank;
                ensure_ready(setup, builders, st, src, exec, t)?;
                ensure_ready(setup, builders, st, dst, exec, t)?;
                // A reduce also *reads* dst, but the WAR guard still must
                // run before emission: a pending remote reader of dst
                // must finish before this op rewrites it.
                war_guard(setup, builders, st, dst, exec, t);
                let (sb, so, len) = range(src);
                let (db, doff, _) = range(dst);
                if src.rank == dst.rank {
                    // reduce_into tolerates arbitrary aliasing, including
                    // a chunk reduced with itself (dst = op(dst, dst)).
                    builders[exec]
                        .block(t)
                        .reduce_into(db, doff, sb, so, db, doff, len, opts.dtype, opts.op);
                } else if topo.same_node(Rank(src.rank), Rank(dst.rank)) {
                    // Direct remote read through a memory channel.
                    let key = (exec, src.rank, db, sb);
                    if let std::collections::hash_map::Entry::Vacant(e) = st.read_chans.entry(key) {
                        let (ca, _) = setup
                            .memory_channel_pair(
                                Rank(exec),
                                db,
                                sb,
                                Rank(src.rank),
                                sb,
                                db,
                                Protocol::HB,
                            )
                            .map_err(DslError::from)?;
                        e.insert(ca);
                    }
                    let ch = st.read_chans[&key].clone();
                    builders[exec]
                        .block(t)
                        .read_reduce(&ch, so, db, doff, len, opts.dtype, opts.op);
                } else {
                    return Err(DslError::BadOp(format!(
                        "reduce of {src:?} into {dst:?} crosses nodes; stage through scratch"
                    )));
                }
                st.readers.entry(src).or_default().push(exec);
                st.prov.insert(dst, Prov::Local { rank: exec });
            }
            Op::MultimemReduce { group, dst } => {
                let exec = dst.rank;
                // Every node member's group chunk must be ready.
                for m in topo.node_ranks(Rank(exec)) {
                    let c = ChunkRef {
                        rank: m.0,
                        buf: group.0,
                        index: group.1,
                    };
                    ensure_ready(setup, builders, st, c, exec, t)?;
                }
                ensure_ready(setup, builders, st, dst, exec, t)?;
                war_guard(setup, builders, st, dst, exec, t);
                let chans = switch_chan(setup, st, topo, exec, group.0, buf_of)?;
                let li = topo.local_index(Rank(exec));
                let ch = chans[li].clone();
                let cl = chunk_len[buf_idx(group.0)];
                let (s, l) = split_range(cl, instances, t);
                let (db, doff, _) = range(dst);
                builders[exec].block(t).switch_reduce(
                    &ch,
                    group.1 * cl + s,
                    db,
                    doff,
                    l,
                    opts.dtype,
                    opts.op,
                );
                st.prov.insert(dst, Prov::Local { rank: exec });
            }
            Op::MultimemBroadcast { src, group } => {
                let exec = src.rank;
                ensure_ready(setup, builders, st, src, exec, t)?;
                for m in topo.node_ranks(Rank(exec)) {
                    let c = ChunkRef {
                        rank: m.0,
                        buf: group.0,
                        index: group.1,
                    };
                    war_guard(setup, builders, st, c, exec, t);
                }
                let chans = switch_chan(setup, st, topo, exec, group.0, buf_of)?;
                let li = topo.local_index(Rank(exec));
                let ch = chans[li].clone();
                let cl = chunk_len[buf_idx(group.0)];
                let (s, l) = split_range(cl, instances, t);
                let (sb, so, _) = range(src);
                builders[exec]
                    .block(t)
                    .switch_broadcast(&ch, sb, so, group.1 * cl + s, l);
                for m in topo.node_ranks(Rank(exec)) {
                    let c = ChunkRef {
                        rank: m.0,
                        buf: group.0,
                        index: group.1,
                    };
                    st.prov.insert(c, Prov::Local { rank: exec });
                }
            }
        }
        Ok(())
    }
}

fn setup_pool_len(setup: &mut Setup<'_>, b: BufferId) -> usize {
    setup.engine_mut().world().pool().len(b)
}

/// Makes `chunk` safe to access from `exec`'s stream, emitting waits and
/// semaphore bridges as needed.
fn ensure_ready(
    setup: &mut Setup<'_>,
    builders: &mut [KernelBuilder],
    st: &mut TbState,
    chunk: ChunkRef,
    exec: usize,
    t: usize,
) -> Result<(), DslError> {
    let prov = st.prov.get(&chunk).copied().unwrap_or(Prov::Initial);
    match prov {
        Prov::Initial => Ok(()),
        Prov::MemPut { chan, seq } => {
            let owner = st.mem_chans[chan].1.local_rank.0;
            if exec != owner {
                // A third rank consuming a remotely-written chunk would
                // need the owner's arrival counter; route through the
                // owner instead.
                return Err(DslError::BadOp(format!(
                    "chunk {chunk:?} written via put must be consumed by its owner (rank {owner}), not rank {exec}"
                )));
            }
            while st.mem_waits[chan] < seq {
                let endpoint = st.mem_chans[chan].1.clone();
                builders[exec].block(t).wait_ready(&endpoint);
                st.mem_waits[chan] += 1;
            }
            st.prov.insert(chunk, Prov::Local { rank: exec });
            Ok(())
        }
        Prov::PortPut { chan, seq } => {
            let owner = st.port_chans[chan].1.local_rank.0;
            if exec != owner {
                return Err(DslError::BadOp(format!(
                    "chunk {chunk:?} written via RDMA must be consumed by its owner (rank {owner}), not rank {exec}"
                )));
            }
            while st.port_waits[chan] < seq {
                let endpoint = st.port_chans[chan].1.clone();
                builders[exec].block(t).port_wait(&endpoint);
                st.port_waits[chan] += 1;
            }
            st.prov.insert(chunk, Prov::Local { rank: exec });
            Ok(())
        }
        Prov::Local { rank } => {
            if rank != exec {
                bridge(setup, builders, st, rank, exec, t);
                st.prov.insert(chunk, Prov::Local { rank: exec });
            }
            Ok(())
        }
    }
}

/// Appends a producer→consumer semaphore handshake.
fn bridge(
    setup: &mut Setup<'_>,
    builders: &mut [KernelBuilder],
    st: &mut TbState,
    producer: usize,
    consumer: usize,
    t: usize,
) {
    let sem = st
        .sems
        .entry((producer, consumer))
        .or_insert_with(|| setup.semaphore(Rank(consumer)))
        .clone();
    builders[producer].block(t).sem_signal(&sem);
    builders[consumer].block(t).sem_wait(&sem);
}

/// Bridges every cross-rank reader of `chunk` to the executor that is
/// about to overwrite it (write-after-read protection for scratch reuse).
fn war_guard(
    setup: &mut Setup<'_>,
    builders: &mut [KernelBuilder],
    st: &mut TbState,
    chunk: ChunkRef,
    exec: usize,
    t: usize,
) {
    if let Some(readers) = st.readers.remove(&chunk) {
        for r in readers {
            if r != exec {
                bridge(setup, builders, st, r, exec, t);
            }
        }
    }
}

/// Gets or creates the memory channel `src → dst` bound to the given
/// buffers; returns its index.
fn mem_chan(
    setup: &mut Setup<'_>,
    st: &mut TbState,
    src: usize,
    dst: usize,
    sb: BufferId,
    db: BufferId,
    protocol: Protocol,
) -> Result<usize, DslError> {
    let key = (src, dst, sb, db);
    if let Some(&i) = st.mem_key.get(&key) {
        return Ok(i);
    }
    let pair = setup
        .memory_channel_pair(Rank(src), sb, db, Rank(dst), db, sb, protocol)
        .map_err(DslError::from)?;
    st.mem_chans.push(pair);
    st.mem_puts.push(0);
    st.mem_waits.push(0);
    let i = st.mem_chans.len() - 1;
    st.mem_key.insert(key, i);
    Ok(i)
}

/// Gets or creates the port channel `src → dst`; returns its index.
fn port_chan(
    setup: &mut Setup<'_>,
    st: &mut TbState,
    src: usize,
    dst: usize,
    sb: BufferId,
    db: BufferId,
) -> Result<usize, DslError> {
    let key = (src, dst, sb, db);
    if let Some(&i) = st.port_key.get(&key) {
        return Ok(i);
    }
    let pair = setup
        .port_channel_pair(Rank(src), sb, db, Rank(dst), db, sb)
        .map_err(DslError::from)?;
    st.port_chans.push(pair);
    st.port_puts.push(0);
    st.port_waits.push(0);
    let i = st.port_chans.len() - 1;
    st.port_key.insert(key, i);
    Ok(i)
}

/// Gets or creates the switch channel over `buf` for `rank`'s node.
fn switch_chan<'a>(
    setup: &mut Setup<'_>,
    st: &'a mut TbState,
    topo: hw::Topology,
    rank: usize,
    buf: Buf,
    buf_of: &dyn Fn(usize, Buf) -> BufferId,
) -> Result<&'a Vec<SwitchChannel>, DslError> {
    let node = topo.node_of(Rank(rank));
    let key = (node, buf_idx(buf) as u8);
    if let std::collections::hash_map::Entry::Vacant(e) = st.switch_chans.entry(key) {
        let members: Vec<(Rank, BufferId)> = topo
            .node_ranks(Rank(rank))
            .map(|m| (m, buf_of(m.0, buf)))
            .collect();
        let chans = setup.switch_channel(&members).map_err(DslError::from)?;
        e.insert(chans);
    }
    Ok(&st.switch_chans[&key])
}
