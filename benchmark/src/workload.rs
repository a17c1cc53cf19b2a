//! The three workloads, the ops they are made of, and what one op records.
//!
//! Every op builds its own engines and communicators, so ops share no
//! state and an op's virtual outputs depend only on its inputs. Each op
//! checks its own outputs; a failed check or an error from the stack
//! becomes the op's `error` and never aborts the run.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use collective::CollComm;
use hw::{BufferId, DataType, EnvKind, Machine, Rank, ReduceOp};
use inference::{
    CommBackend, ModelConfig, MscclppBackend, ServeConfig, ServingEngine, SloSpec, Terminal,
};
use mscclpp::{Kernel, KernelTiming, Setup};
use sim::Engine;

use crate::stats::Digest;
use crate::trace::Tracer;
use crate::{check, heap};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SLO-aware serving at twice the knee rate; one op serves one trace.
    ServeOverload,
    /// The Figure 8/9 points; one op is one point on fresh engines.
    FigSweep,
    /// A large fresh cluster's first collective; one op is one launch.
    FirstLaunch,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ServeOverload,
        Workload::FigSweep,
        Workload::FirstLaunch,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeOverload => "serve-overload",
            Workload::FigSweep => "fig-sweep",
            Workload::FirstLaunch => "first-launch",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops per round. A run is made of whole rounds, so every run holds
    /// the same mix of ops, and `setup_s` is a median over rounds.
    pub fn round_len(self) -> usize {
        match self {
            Workload::ServeOverload => 1,
            Workload::FigSweep => fig_sweep_points().len(),
            Workload::FirstLaunch => FIRST_LAUNCH.len(),
        }
    }

    /// The leading ops whose virtual outputs make the workload's virtual
    /// metrics and digest. A run always completes them, however slow
    /// the host, so those figures never depend on the host.
    pub fn virtual_ops(self) -> usize {
        match self {
            Workload::ServeOverload => SERVE_VIRTUAL_OPS,
            _ => self.round_len(),
        }
    }

    /// The earlier op that op `i` repeats, when it repeats one: same
    /// point, different fill, so its virtual outputs must be the same.
    pub fn repeat_of(self, i: usize) -> Option<usize> {
        match self {
            Workload::ServeOverload => None,
            _ => (i >= self.round_len()).then(|| i % self.round_len()),
        }
    }
}

/// Requests per trace, mean prompt and generated tokens, and mean
/// inter-arrival µs: the pinned 2x-knee scenario of the perf gate and
/// `tests/serving.rs` (about 143 requests per virtual second offered).
const SERVE_TRACE: (usize, usize, usize, f64) = (40, 96, 12, 7_000.0);

/// Serving ops that make up the virtual metrics (640 requests).
const SERVE_VIRTUAL_OPS: usize = 16;

/// Spacing of the per-op serving seeds, so that op 0 of seed `s` serves
/// trace `s` (seed 9 is the gate's scenario) and nearby workload seeds
/// share no trace.
const SEED_STRIDE: u64 = 1_000_003;

/// The trace and admission seed of serving op `i`.
pub fn serve_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(SEED_STRIDE))
}

/// A communication stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `ncclsim`, fine-tuned over its size-filtered candidates.
    Nccl,
    /// `msccl` with its internal tuner.
    Msccl,
    /// `collective::CollComm` with default selection.
    Mscclpp,
}

/// A collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coll {
    /// AllReduce (sum) into separate output buffers.
    AllReduce,
    /// AllGather.
    AllGather,
}

/// One collective point: a fresh cluster, a stack and a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Hardware environment.
    pub env: EnvKind,
    /// Nodes of 8 GPUs.
    pub nodes: usize,
    /// Stack under test.
    pub stack: Stack,
    /// Collective.
    pub coll: Coll,
    /// Message bytes: the buffer for AllReduce, the gathered output for
    /// AllGather (as Figure 9 sizes it).
    pub bytes: usize,
}

impl Point {
    fn world(self) -> usize {
        self.nodes * 8
    }

    /// f16 elements each rank contributes.
    fn count(self) -> usize {
        match self.coll {
            Coll::AllReduce => self.bytes / 2,
            Coll::AllGather => self.bytes / 2 / self.world(),
        }
    }

    /// Short label for error messages.
    pub fn label(self) -> String {
        format!(
            "{:?} {}n{}g {:?} {:?} {}B",
            self.env,
            self.nodes,
            self.world(),
            self.stack,
            self.coll,
            self.bytes
        )
    }
}

/// The Figure 8/9 points: on A100-40G, {1n8g, 2n16g} x {AllReduce,
/// AllGather} x {1 KB, 32 KB, 1 MB} x {NCCL, MSCCL, MSCCL++}, then the
/// H100 1n8g 1 MB AllReduce (the multimem path) for NCCL and MSCCL++.
/// Messages of 16 MB and up are left out: one NCCL 2n16g 16 MB point
/// alone costs seconds of host time.
pub fn fig_sweep_points() -> Vec<Point> {
    let mut points = Vec::new();
    for nodes in [1, 2] {
        for coll in [Coll::AllReduce, Coll::AllGather] {
            for bytes in [1 << 10, 32 << 10, 1 << 20] {
                for stack in [Stack::Nccl, Stack::Msccl, Stack::Mscclpp] {
                    points.push(Point {
                        env: EnvKind::A100_40G,
                        nodes,
                        stack,
                        coll,
                        bytes,
                    });
                }
            }
        }
    }
    for stack in [Stack::Nccl, Stack::Mscclpp] {
        points.push(Point {
            env: EnvKind::H100,
            nodes: 1,
            stack,
            coll: Coll::AllReduce,
            bytes: 1 << 20,
        });
    }
    points
}

/// First launches on fresh large clusters, where the verifier's cost
/// grows faster than the rank count and bytes hardly matter. The last
/// point selects the hierarchical HB AllReduce. The round has an odd
/// number of points with distinct costs, so the median op lies inside
/// one point's cluster of times rather than on the edge between two.
pub const FIRST_LAUNCH: [Point; 5] = [
    Point {
        env: EnvKind::A100_40G,
        nodes: 8,
        stack: Stack::Mscclpp,
        coll: Coll::AllReduce,
        bytes: 1 << 10,
    },
    Point {
        env: EnvKind::A100_40G,
        nodes: 8,
        stack: Stack::Mscclpp,
        coll: Coll::AllGather,
        bytes: 64 << 10,
    },
    Point {
        env: EnvKind::A100_40G,
        nodes: 16,
        stack: Stack::Mscclpp,
        coll: Coll::AllReduce,
        bytes: 1 << 10,
    },
    Point {
        env: EnvKind::A100_40G,
        nodes: 16,
        stack: Stack::Mscclpp,
        coll: Coll::AllGather,
        bytes: 128 << 10,
    },
    Point {
        env: EnvKind::A100_40G,
        nodes: 8,
        stack: Stack::Mscclpp,
        coll: Coll::AllReduce,
        bytes: 1 << 20,
    },
];

/// Engine counters, read before and after the work on every engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulation events processed.
    pub events: u64,
    /// Data-plane bytes moved by the memory pool.
    pub moved_bytes: u64,
    /// `ops.puts`.
    pub puts: u64,
    /// `sync.waits`.
    pub sync_waits: u64,
    /// `sync.signals`.
    pub sync_signals: u64,
    /// Events scheduled in the past and clamped to now (must stay 0).
    pub clamped: u64,
    /// `serve.prefill_tokens`.
    pub prefill_tokens: u64,
}

impl Counters {
    fn read(e: &Engine<Machine>) -> Counters {
        let m = e.metrics();
        Counters {
            events: e.events_processed(),
            moved_bytes: e.world().pool().moved_bytes(),
            puts: m.counter("ops.puts"),
            sync_waits: m.counter("sync.waits"),
            sync_signals: m.counter("sync.signals"),
            clamped: e.clamped_past_events(),
            prefill_tokens: m.counter("serve.prefill_tokens"),
        }
    }

    fn since(self, base: Counters) -> Counters {
        Counters {
            events: self.events - base.events,
            moved_bytes: self.moved_bytes - base.moved_bytes,
            puts: self.puts - base.puts,
            sync_waits: self.sync_waits - base.sync_waits,
            sync_signals: self.sync_signals - base.sync_signals,
            clamped: self.clamped - base.clamped,
            prefill_tokens: self.prefill_tokens - base.prefill_tokens,
        }
    }

    /// Adds `o` field by field.
    pub fn add(&mut self, o: Counters) {
        self.events += o.events;
        self.moved_bytes += o.moved_bytes;
        self.puts += o.puts;
        self.sync_waits += o.sync_waits;
        self.sync_signals += o.sync_signals;
        self.clamped += o.clamped;
        self.prefill_tokens += o.prefill_tokens;
    }
}

/// What the benchmark saw of the MSCCL++ collective calls of one op.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollStats {
    /// Calls.
    pub calls: u64,
    /// Calls whose size differs from the same communicator's previous
    /// call (a communicator's first call counts).
    pub shape_changes: u64,
    /// Message bytes over all calls.
    pub bytes: u64,
    /// Host nanoseconds of each call.
    pub call_ns: Vec<u64>,
    /// Instructions verified, where a first launch was split into plan,
    /// verify and launch (traced runs).
    pub instrs: u64,
}

/// Virtual outputs of a serving op.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeVirt {
    /// Requests in the trace.
    pub offered: usize,
    /// Requests completed.
    pub completed: usize,
    /// Completions that met both SLOs.
    pub slo_met: usize,
    /// Requests shed or rejected by admission.
    pub turned_away: usize,
    /// Serving-clock makespan, µs.
    pub makespan_us: f64,
    /// Time to first token of each completion, µs from its due arrival.
    pub ttft_us: Vec<f64>,
    /// Blame summed over every request timeline, ps per phase.
    pub blame_ps: [u64; inference::rtrace::PHASES],
    /// Request timelines.
    pub timelines: usize,
}

/// Virtual (simulated-clock) outputs of one op.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Virt {
    /// FNV-1a over every virtual output of the op, in order.
    pub digest: u64,
    /// Latency of each MSCCL++ collective, µs.
    pub mscclpp_us: Vec<f64>,
    /// The point's reported latency, µs (best candidate for NCCL).
    pub point_us: Option<f64>,
    /// Serving outputs.
    pub serve: Option<ServeVirt>,
}

/// Everything one op recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpRecord {
    /// Op index in the run.
    pub index: usize,
    /// Whether spans were recorded (the split first-launch path ran).
    pub traced: bool,
    /// Host nanoseconds of the op, fills and output checks excluded.
    pub host_ns: u64,
    /// Host nanoseconds inside cluster and communicator constructors.
    pub setup_ns: u64,
    /// Host nanoseconds generating traces and filling buffers.
    pub fill_ns: u64,
    /// Host nanoseconds checking outputs.
    pub check_ns: u64,
    /// Peak heap bytes the op held beyond what was live when it began.
    pub heap_bytes: u64,
    /// Engine counters over every engine of the op.
    pub counters: Counters,
    /// MSCCL++ collective calls.
    pub coll: CollStats,
    /// Virtual outputs.
    pub virt: Virt,
    /// Why the op failed, if it did.
    pub error: Option<String>,
}

/// Per-op accumulators, shared with the benchmark's `CommBackend`.
struct Ctx<'t> {
    tracer: &'t Tracer,
    /// Split MSCCL++ launches into plan, verify and launch.
    split: bool,
    /// Flip one output byte before the check (failure-counting tests).
    corrupt: bool,
    setup_ns: Cell<u64>,
    fill_ns: Cell<u64>,
    check_ns: Cell<u64>,
    counters: Cell<Counters>,
    coll: RefCell<CollStats>,
    digest: RefCell<Digest>,
    virt: RefCell<Virt>,
}

impl<'t> Ctx<'t> {
    fn new(tracer: &'t Tracer, corrupt: bool) -> Ctx<'t> {
        Ctx {
            tracer,
            split: tracer.is_on(),
            corrupt,
            setup_ns: Cell::new(0),
            fill_ns: Cell::new(0),
            check_ns: Cell::new(0),
            counters: Cell::new(Counters::default()),
            coll: RefCell::new(CollStats::default()),
            digest: RefCell::new(Digest::default()),
            virt: RefCell::new(Virt::default()),
        }
    }

    fn timed<T>(
        &self,
        acc: &Cell<u64>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = self.tracer.span(layer, name, f);
        acc.set(acc.get() + t0.elapsed().as_nanos() as u64);
        out
    }

    fn setup<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(&self.setup_ns, layer, name, f)
    }

    fn fill<T>(&self, f: impl FnOnce() -> T) -> T {
        self.timed(&self.fill_ns, "bench", "fill", f)
    }

    fn check(&self, f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
        self.timed(&self.check_ns, "bench", "check", f)
    }

    fn call<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(layer, name, f)
    }

    fn harvest(&self, e: &Engine<Machine>, base: Counters) {
        let mut c = self.counters.get();
        c.add(Counters::read(e).since(base));
        self.counters.set(c);
    }

    fn record_call(&self, started: Instant, changed: bool, bytes: usize) {
        let mut coll = self.coll.borrow_mut();
        coll.calls += 1;
        coll.shape_changes += u64::from(changed);
        coll.bytes += bytes as u64;
        coll.call_ns.push(started.elapsed().as_nanos() as u64);
    }

    fn digest_timing(&self, t: &KernelTiming) {
        let mut d = self.digest.borrow_mut();
        d.u64(t.start.as_ps());
        d.u64(t.end.as_ps());
        for end in &t.per_rank_end {
            d.u64(end.as_ps());
        }
    }

    /// Harvests counters, checks the outputs and digests the timing of
    /// one launch on `e`; returns its virtual latency in µs.
    fn finish(
        &self,
        e: &mut Engine<Machine>,
        base: Counters,
        p: Point,
        outs: &[BufferId],
        off: usize,
        timing: mscclpp::Result<KernelTiming>,
    ) -> Result<f64, String> {
        let timing = timing.map_err(|err| format!("{}: {err}", p.label()))?;
        self.harvest(e, base);
        if self.corrupt {
            e.world_mut().pool_mut().bytes_mut(outs[0], 0, 2)[1] ^= 0x40;
        }
        self.check(|| {
            check::engine(e)?;
            match p.coll {
                Coll::AllReduce => check::all_reduce(e, outs, p.count(), off),
                Coll::AllGather => check::all_gather(e, outs, p.count(), off),
            }
        })
        .map_err(|msg| format!("{}: {msg}", p.label()))?;
        self.digest_timing(&timing);
        Ok(timing.elapsed().as_us())
    }
}

/// Runs the ops of one workload.
pub struct Runner<'t> {
    workload: Workload,
    seed: u64,
    tracer: &'t Tracer,
    points: Vec<Point>,
    corrupt_op: Option<usize>,
}

impl<'t> Runner<'t> {
    /// A runner for `workload` with inputs derived from `seed`.
    pub fn new(workload: Workload, seed: u64, tracer: &'t Tracer) -> Runner<'t> {
        let points = match workload {
            Workload::ServeOverload => Vec::new(),
            Workload::FigSweep => fig_sweep_points(),
            Workload::FirstLaunch => FIRST_LAUNCH.to_vec(),
        };
        Runner {
            workload,
            seed,
            tracer,
            points,
            corrupt_op: None,
        }
    }

    /// Runs op `i`, recording spans while the tracer is on.
    pub fn op(&self, i: usize) -> OpRecord {
        let traced = self.tracer.is_on();
        self.tracer.set_op(i as u64);
        let ctx = Ctx::new(self.tracer, self.corrupt_op == Some(i));
        let heap_base = heap::live_bytes();
        heap::reset_peak();
        let t0 = Instant::now();
        let result = self.tracer.span("bench", "op", || match self.workload {
            Workload::ServeOverload => serve_op(&ctx, serve_seed(self.seed, i)),
            Workload::FigSweep | Workload::FirstLaunch => {
                let off = (self.seed.wrapping_add(i as u64) % 8) as usize;
                point_op(&ctx, self.points[i % self.points.len()], off)
            }
        });
        let total_ns = t0.elapsed().as_nanos() as u64;
        let heap_bytes = heap::peak_bytes().saturating_sub(heap_base) as u64;
        let (fill_ns, check_ns) = (ctx.fill_ns.get(), ctx.check_ns.get());
        let mut virt = ctx.virt.into_inner();
        virt.digest = ctx.digest.into_inner().value();
        OpRecord {
            index: i,
            traced,
            host_ns: total_ns.saturating_sub(fill_ns + check_ns),
            setup_ns: ctx.setup_ns.get(),
            fill_ns,
            check_ns,
            heap_bytes,
            counters: ctx.counters.get(),
            coll: ctx.coll.into_inner(),
            virt,
            error: result.err(),
        }
    }
}

fn fresh_engine(p: Point) -> Engine<Machine> {
    let mut e = Engine::new(Machine::new(p.env.spec(p.nodes)));
    hw::wire(&mut e);
    e
}

/// Input buffers filled with `(rank + elem + off) % 8` and zeroed
/// output buffers, one of each per rank.
fn buffers(e: &mut Engine<Machine>, p: Point, off: usize) -> (Vec<BufferId>, Vec<BufferId>) {
    let in_bytes = p.count() * 2;
    let out_bytes = match p.coll {
        Coll::AllReduce => in_bytes,
        Coll::AllGather => in_bytes * p.world(),
    };
    let pool = e.world_mut().pool_mut();
    let ins = (0..p.world())
        .map(|r| {
            let b = pool.alloc(Rank(r), in_bytes);
            pool.fill_with(b, DataType::F16, |i| check::fill_val(r, i, off));
            b
        })
        .collect();
    let outs = (0..p.world())
        .map(|r| pool.alloc(Rank(r), out_bytes))
        .collect();
    (ins, outs)
}

/// NCCL's tuning candidates for a point, filtered by size as the figure
/// harness does (LL never wins above 8 MB; one channel below 64 KB),
/// ring-only for AllGather.
fn nccl_candidates(p: Point) -> Vec<ncclsim::Choice> {
    let bytes = match p.coll {
        Coll::AllReduce => p.bytes,
        Coll::AllGather => p.count() * 2 * p.world(),
    };
    ncclsim::tuning_candidates(p.nodes)
        .into_iter()
        .filter(|c| bytes <= (8 << 20) || c.proto == ncclsim::Proto::Simple)
        .filter(|c| bytes >= (64 << 10) || c.channels == 1)
        .filter(|c| p.coll == Coll::AllReduce || c.algo == ncclsim::Algo::Ring)
        .collect()
}

fn coll_name(c: Coll) -> &'static str {
    match c {
        Coll::AllReduce => "all_reduce",
        Coll::AllGather => "all_gather",
    }
}

fn point_op(ctx: &Ctx<'_>, p: Point, off: usize) -> Result<(), String> {
    let (n, dt, sum) = (p.count(), DataType::F16, ReduceOp::Sum);
    let latency_us = match p.stack {
        Stack::Nccl => {
            let mut best = f64::INFINITY;
            for choice in nccl_candidates(p) {
                let mut e = ctx.setup("hw", "Engine::new+wire", || fresh_engine(p));
                let base = Counters::read(&e);
                let comm = ctx.setup("ncclsim", "NcclComm::new", || {
                    let mut setup = Setup::new(&mut e);
                    ncclsim::NcclComm::new(&mut setup, ncclsim::NcclConfig::nccl())
                });
                let (ins, outs) = ctx.fill(|| buffers(&mut e, p, off));
                let timing = ctx.call("ncclsim", coll_name(p.coll), || match p.coll {
                    Coll::AllReduce => comm.all_reduce(&mut e, &ins, &outs, n, dt, sum, choice),
                    Coll::AllGather => comm.all_gather(&mut e, &ins, &outs, n, dt, choice),
                });
                best = best.min(ctx.finish(&mut e, base, p, &outs, off, timing)?);
            }
            best
        }
        Stack::Msccl => {
            let mut e = ctx.setup("hw", "Engine::new+wire", || fresh_engine(p));
            let base = Counters::read(&e);
            let comm = ctx.setup("msccl", "MscclComm::new", || {
                let mut setup = Setup::new(&mut e);
                msccl::MscclComm::new(&mut setup, msccl::MscclConfig::default())
            });
            let (ins, outs) = ctx.fill(|| buffers(&mut e, p, off));
            let timing = ctx.call("msccl", coll_name(p.coll), || match p.coll {
                Coll::AllReduce => comm.all_reduce(&mut e, &ins, &outs, n, dt, sum, None),
                Coll::AllGather => comm.all_gather(&mut e, &ins, &outs, n, dt, None),
            });
            ctx.finish(&mut e, base, p, &outs, off, timing)?
        }
        Stack::Mscclpp => {
            let mut e = ctx.setup("hw", "Engine::new+wire", || fresh_engine(p));
            let base = Counters::read(&e);
            let mut comm = ctx.setup("collective", "CollComm::new", CollComm::new);
            let (ins, outs) = ctx.fill(|| buffers(&mut e, p, off));
            let started = Instant::now();
            let timing = mscclpp_launch(ctx, &mut e, &mut comm, p, &ins, &outs);
            ctx.record_call(started, true, n * 2);
            let us = ctx.finish(&mut e, base, p, &outs, off, timing)?;
            ctx.virt.borrow_mut().mscclpp_us.push(us);
            us
        }
    };
    ctx.virt.borrow_mut().point_us = Some(latency_us);
    Ok(())
}

/// One MSCCL++ first launch. Traced runs split it at public boundaries
/// (plan, then `commverify::verify_collective` with every check, then
/// the launch with verification off), which is the work one verified
/// `all_reduce`/`all_gather` does.
#[allow(clippy::result_large_err)] // `commverify::VerifyError`, as that crate returns it
fn mscclpp_launch(
    ctx: &Ctx<'_>,
    e: &mut Engine<Machine>,
    comm: &mut CollComm,
    p: Point,
    ins: &[BufferId],
    outs: &[BufferId],
) -> mscclpp::Result<KernelTiming> {
    let (n, dt, sum) = (p.count(), DataType::F16, ReduceOp::Sum);
    if !ctx.split {
        return ctx.call("collective", coll_name(p.coll), || match p.coll {
            Coll::AllReduce => comm.all_reduce(e, ins, outs, n, dt, sum),
            Coll::AllGather => comm.all_gather(e, ins, outs, n, dt),
        });
    }
    let ar = collective::select_all_reduce(e.world(), n * 2);
    let ag = collective::select_all_gather(e.world(), n * 2);
    let (kernels, spec) = ctx.call("collective", "plan", || match p.coll {
        Coll::AllReduce => comm.plan_all_reduce_with(e, ins, outs, n, dt, sum, ar),
        Coll::AllGather => comm.plan_all_gather_with(e, ins, outs, n, dt, ag),
    })?;
    ctx.coll.borrow_mut().instrs += kernels.iter().map(Kernel::instr_count).sum::<usize>() as u64;
    ctx.call("commverify", "verify_collective", || {
        commverify::verify_collective(
            &kernels,
            e.world().pool(),
            &commverify::Checks::all(),
            &spec,
        )
    })?;
    comm.set_verify(false);
    ctx.call("mscclpp", "launch", || match p.coll {
        Coll::AllReduce => comm.all_reduce_with(e, ins, outs, n, dt, sum, ar),
        Coll::AllGather => comm.all_gather_with(e, ins, outs, n, dt, ag),
    })
}

/// The benchmark's `CommBackend`: MSCCL++ underneath, every AllReduce
/// timed, counted, traced and digested.
struct Counted<'c, 't> {
    inner: MscclppBackend,
    ctx: &'c Ctx<'t>,
    last_count: Cell<Option<usize>>,
}

impl CommBackend for Counted<'_, '_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn all_reduce(
        &self,
        engine: &mut Engine<Machine>,
        bufs: &[BufferId],
        count: usize,
        dtype: DataType,
    ) -> mscclpp::Result<KernelTiming> {
        let started = Instant::now();
        let out = self.ctx.call("collective", "all_reduce", || {
            self.inner.all_reduce(engine, bufs, count, dtype)
        });
        let changed = self.last_count.replace(Some(count)) != Some(count);
        self.ctx.record_call(started, changed, count * dtype.size());
        if let Ok(t) = &out {
            self.ctx.digest_timing(t);
            self.ctx
                .virt
                .borrow_mut()
                .mscclpp_us
                .push(t.elapsed().as_us());
        }
        out
    }

    fn shrink(
        &self,
        engine: &mut Engine<Machine>,
        dead: &[Rank],
    ) -> mscclpp::Result<Option<Vec<Rank>>> {
        self.inner.shrink(engine, dead)
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}

fn serve_op(ctx: &Ctx<'_>, s: u64) -> Result<(), String> {
    let (requests, prompt, generate, gap_us) = SERVE_TRACE;
    let trace = ctx.fill(|| inference::synthetic_trace(requests, prompt, generate, gap_us, s));
    let mut engine = ctx.setup("inference", "ServingEngine::new", || {
        ServingEngine::new(EnvKind::A100_80G, ModelConfig::llama2_13b(), 16 * 1024)
    });
    let backend = ctx.setup("inference", "MscclppBackend::new", || Counted {
        inner: MscclppBackend::new(),
        ctx,
        last_count: Cell::new(None),
    });
    let mut cfg = ServeConfig::slo_aware(8, SloSpec::new(100_000.0, 12_000.0));
    cfg.admission.max_queue_depth = 5;
    cfg.seed = s;
    let base = Counters::read(engine.engine_mut());
    let (report, obs) = ctx
        .call("inference", "serve_trace_observed", || {
            inference::serve_trace_observed(&mut engine, &backend, &trace, &cfg)
        })
        .map_err(|e| format!("serve seed {s}: {e}"))?;
    ctx.harvest(engine.engine_mut(), base);
    ctx.check(|| {
        check::engine(engine.engine_mut())?;
        check::serve(&report, &obs.timelines, trace.len())
    })
    .map_err(|msg| format!("serve seed {s}: {msg}"))?;

    let mut v = ServeVirt {
        offered: trace.len(),
        completed: report.completed,
        slo_met: report.slo_met,
        turned_away: report.shed + report.rejected,
        makespan_us: report.makespan_us,
        timelines: obs.timelines.len(),
        ..ServeVirt::default()
    };
    let mut d = ctx.digest.borrow_mut();
    for x in [
        report.completed,
        report.shed,
        report.rejected,
        report.timed_out,
        report.evicted,
        report.slo_met,
    ] {
        d.u64(x as u64);
    }
    for x in [
        report.makespan_us,
        report.goodput,
        report.ttft.p50_us,
        report.ttft.p99_us,
        report.tpot.p99_us,
        report.request_latency.p99_us,
    ] {
        d.f64(x);
    }
    for t in &obs.timelines {
        d.u64(t.id);
        d.u64(t.arrival_ps);
        d.u64(t.first_token_ps.unwrap_or(u64::MAX));
        d.u64(t.end_ps);
        for (total, &ps) in v.blame_ps.iter_mut().zip(&t.blame.ps) {
            d.u64(ps);
            *total += ps;
        }
        if t.terminal == Terminal::Completed {
            if let Some(first) = t.first_token_ps {
                v.ttft_us.push((first - t.arrival_ps) as f64 / 1e6);
            }
        }
    }
    ctx.virt.borrow_mut().serve = Some(v);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_point(coll: Coll) -> Point {
        Point {
            env: EnvKind::A100_40G,
            nodes: 1,
            stack: Stack::Mscclpp,
            coll,
            bytes: 1 << 10,
        }
    }

    #[test]
    fn one_corrupted_byte_fails_exactly_one_op_without_panicking() {
        let tracer = Tracer::new();
        let mut runner = Runner::new(Workload::FigSweep, 3, &tracer);
        runner.points = vec![small_point(Coll::AllReduce)];
        runner.corrupt_op = Some(1);
        let records: Vec<OpRecord> = (0..3).map(|i| runner.op(i)).collect();
        let failed: Vec<usize> = records
            .iter()
            .filter(|r| r.error.is_some())
            .map(|r| r.index)
            .collect();
        assert_eq!(failed, vec![1], "{records:?}");
        let msg = records[1].error.as_deref().unwrap_or_default();
        assert!(msg.contains("allreduce rank 0 elem 0"), "{msg}");
        // The ops around it are whole and agree on their virtual outputs.
        assert_eq!(records[0].virt, records[2].virt);
        assert!(records[0].virt.point_us.is_some_and(|us| us > 0.0));
        // Eight 1 KB inputs and outputs at least.
        assert!(records[0].heap_bytes >= 16 << 10);
    }

    #[test]
    fn traced_split_launch_matches_the_verified_launch() {
        let tracer = Tracer::new();
        let mut runner = Runner::new(Workload::FigSweep, 5, &tracer);
        runner.points = vec![small_point(Coll::AllReduce), small_point(Coll::AllGather)];
        let plain: Vec<OpRecord> = (0..2).map(|i| runner.op(i)).collect();
        tracer.set_on(true);
        let split: Vec<OpRecord> = (2..4).map(|i| runner.op(i)).collect();
        tracer.set_on(false);
        for (a, b) in plain.iter().zip(&split) {
            assert_eq!(a.error, None);
            assert_eq!(b.error, None);
            assert_eq!(a.virt, b.virt);
            assert_eq!(a.counters.events, b.counters.events);
            assert!(b.coll.instrs > 0 && a.coll.instrs == 0);
        }
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        for name in ["plan", "verify_collective", "launch"] {
            assert!(names.contains(&name), "{name} missing from {names:?}");
        }
    }

    #[test]
    fn workloads_round_trip_their_names_and_sizes() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(fig_sweep_points().len(), 38);
        assert_eq!(Workload::FigSweep.repeat_of(40), Some(2));
        assert_eq!(Workload::FigSweep.repeat_of(37), None);
        assert_eq!(Workload::ServeOverload.repeat_of(40), None);
        assert_eq!(serve_seed(9, 0), 9);
        for p in fig_sweep_points().into_iter().chain(FIRST_LAUNCH) {
            let per_rank = p.count() * 2;
            let total = match p.coll {
                Coll::AllReduce => per_rank,
                Coll::AllGather => per_rank * p.world(),
            };
            assert!(per_rank > 0 && total == p.bytes, "{}", p.label());
        }
    }
}
