//! Benchmark harness utilities: collective timing across the three
//! stacks (NCCL, MSCCL, MSCCL++) on any Table-1 environment.
//!
//! Every measured collective in this crate runs through one [`Bench`]:
//!
//! 1. build a fresh simulated cluster and the stack's communicator;
//! 2. allocate one input and one output per rank;
//! 3. run the collective;
//! 4. report latency (µs) and algorithm bandwidth
//!    (`message bytes / latency`, the paper's AlgoBW).
//!
//! [`measure`], behind every figure, ablation and sweep point, builds
//! timing-only clusters (`Machine::timing_only`) and leaves the inputs
//! unfilled: no virtual time depends on a payload value (DESIGN.md §6).
//! What a point computes is proven instead. Each point is a first launch
//! on a fresh cluster, and the verifier proves its plan against its
//! collective's spec before it runs: `CollComm` with `Checks::all()`,
//! NCCL and MSCCL in `ncclsim::Driver`'s first-launch proof. A finding
//! fails the launch, so a timing is only reported for a proven plan.
//! The tier-1 test `figure_points_match_their_bytes_twins`
//! (`tests/cross_stack.rs`) runs every stack, algorithm and cluster the
//! figures use once on each kind of cluster, asserts equal latency bits
//! and checks every bytes-mode output element. [`iterate`] keeps real
//! bytes: it fills the inputs and checks every output element.
//!
//! NCCL is *fine-tuned* per point as in §5.1: [`measure`] takes the best
//! over its tuning candidates. MSCCL runs its internal tuner once and
//! MSCCL++ its default algorithm selection.

pub mod figures;
pub mod gate;
pub mod report;

use hw::{BufferId, DataType, EnvKind, EnvSpec, Machine, Rank, ReduceOp, PAGE_BYTES};
use mscclpp::{KernelTiming, Setup};
use sim::{Engine, FaultPlan};

/// Deterministic input element: values 0..7 so that 8-, 16- and 32-rank
/// FP16 sums stay exact.
pub fn input_val(rank: usize, i: usize) -> f32 {
    ((rank + i) % 8) as f32
}

/// One measured sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Message size in bytes.
    pub bytes: usize,
    /// Latency in microseconds.
    pub latency_us: f64,
}

impl Point {
    /// Algorithm bandwidth in GB/s (message bytes / latency).
    pub fn algbw_gbps(&self) -> f64 {
        self.bytes as f64 / (self.latency_us * 1e3)
    }
}

/// A benchmark target: one environment and node count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// The hardware environment.
    pub env: EnvKind,
    /// Number of nodes (8 GPUs each).
    pub nodes: usize,
}

impl Target {
    /// World size.
    pub fn world(&self) -> usize {
        self.nodes * 8
    }

    /// Label like `1n8g`.
    pub fn label(&self) -> String {
        format!("{}n{}g", self.nodes, self.nodes * 8)
    }
}

/// Which collective a measurement runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coll {
    /// AllReduce over the full world.
    AllReduce,
    /// AllGather over the full world (`bytes` is the per-rank chunk).
    AllGather,
}

impl Coll {
    /// Bytes each rank holds after the collective when it contributes
    /// `bytes`: the output buffer size, and the message size NCCL's
    /// tuner sees.
    pub fn out_bytes(self, bytes: usize, world: usize) -> usize {
        match self {
            Coll::AllReduce => bytes,
            Coll::AllGather => bytes * world,
        }
    }
}

/// Which stack runs the collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// The NCCL model (ring/tree over staging FIFOs).
    Nccl,
    /// MSCCL over the NCCL transport.
    Msccl,
    /// MSCCL++.
    Mscclpp,
}

impl Stack {
    /// Every stack, in the figures' column order.
    pub const ALL: [Stack; 3] = [Stack::Nccl, Stack::Msccl, Stack::Mscclpp];

    /// Lower-case name, as used in case names and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Stack::Nccl => "nccl",
            Stack::Msccl => "msccl",
            Stack::Mscclpp => "mscclpp",
        }
    }
}

/// How one launch picks its algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// The stack's own choice: NCCL's size-based tuner (which [`measure`]
    /// widens to every tuning candidate), MSCCL's internal tuner,
    /// MSCCL++'s default selection.
    Default,
    /// A pinned NCCL tuner choice.
    Nccl(ncclsim::Choice),
    /// A forced MSCCL++ AllReduce algorithm.
    AllReduce(collective::AllReduceAlgo),
    /// A forced MSCCL++ AllGather algorithm.
    AllGather(collective::AllGatherAlgo),
}

enum Comm {
    Nccl(ncclsim::NcclComm),
    Msccl(msccl::MscclComm),
    Mscclpp(collective::CollComm),
}

/// One stack's communicator on a fresh simulated cluster.
pub struct Bench {
    /// The cluster the communicator runs on.
    pub(crate) engine: Engine<Machine>,
    target: Target,
    comm: Comm,
}

impl Bench {
    /// Builds a wired cluster for `target`, made by `machine`
    /// (`Machine::new` for real bytes, `Machine::timing_only` for none),
    /// and `stack`'s communicator on it. `fault` is installed before any
    /// communicator state is built, so proxy retry jitter derives from
    /// the plan seed.
    pub fn new(
        stack: Stack,
        target: Target,
        fault: Option<FaultPlan>,
        machine: fn(EnvSpec) -> Machine,
    ) -> Bench {
        let mut engine = Engine::new(machine(target.env.spec(target.nodes)));
        if let Some(plan) = fault {
            engine.set_fault_plan(plan);
        }
        hw::wire(&mut engine);
        let comm = match stack {
            Stack::Nccl => Comm::Nccl(ncclsim::NcclComm::new(
                &mut Setup::new(&mut engine),
                ncclsim::NcclConfig::nccl(),
            )),
            Stack::Msccl => Comm::Msccl(msccl::MscclComm::new(
                &mut Setup::new(&mut engine),
                msccl::MscclConfig::default(),
            )),
            Stack::Mscclpp => Comm::Mscclpp(collective::CollComm::new()),
        };
        Bench {
            engine,
            target,
            comm,
        }
    }

    /// Allocates one `bytes` input per rank, unfilled.
    pub fn inputs(&mut self, bytes: usize) -> Vec<BufferId> {
        let pool = self.engine.world_mut().pool_mut();
        (0..self.target.world())
            .map(|r| pool.alloc(Rank(r), bytes))
            .collect()
    }

    /// Fills each rank's input in `ins` (one per rank, in rank order)
    /// with F16 [`input_val`]s.
    ///
    /// # Panics
    ///
    /// On a timing-only cluster, whose buffers hold no bytes.
    pub fn fill(&mut self, ins: &[BufferId]) {
        let pool = self.engine.world_mut().pool_mut();
        for (r, &b) in ins.iter().enumerate() {
            pool.fill_with(b, DataType::F16, move |i| input_val(r, i));
        }
    }

    /// Allocates one output per rank for `coll` over `bytes` inputs.
    pub fn outputs(&mut self, coll: Coll, bytes: usize) -> Vec<BufferId> {
        let world = self.target.world();
        let pool = self.engine.world_mut().pool_mut();
        (0..world)
            .map(|r| pool.alloc(Rank(r), coll.out_bytes(bytes, world)))
            .collect()
    }

    /// Launches `coll` over the F16 inputs `ins` (one per rank, all the
    /// same size, which sets the element count) into `outs`.
    ///
    /// # Errors
    ///
    /// Whatever the stack's launch returns: a deadlock, a fault the
    /// collective could not survive, or a verifier finding.
    ///
    /// # Panics
    ///
    /// If `pick` does not apply to this stack and collective.
    pub fn launch(
        &mut self,
        coll: Coll,
        ins: &[BufferId],
        outs: &[BufferId],
        pick: Pick,
    ) -> mscclpp::Result<KernelTiming> {
        let e = &mut self.engine;
        let bytes = e.world().pool().len(ins[0]);
        let (n, f16, sum) = (bytes / 2, DataType::F16, ReduceOp::Sum);
        let pick = match (&self.comm, pick) {
            (Comm::Nccl(_), Pick::Default) => Pick::Nccl(ncclsim::tune(
                coll.out_bytes(bytes, self.target.world()),
                self.target.nodes,
            )),
            _ => pick,
        };
        match (&self.comm, coll, pick) {
            (Comm::Nccl(c), Coll::AllReduce, Pick::Nccl(ch)) => {
                c.all_reduce(e, ins, outs, n, f16, sum, ch)
            }
            (Comm::Nccl(c), Coll::AllGather, Pick::Nccl(ch)) => {
                c.all_gather(e, ins, outs, n, f16, ch)
            }
            (Comm::Msccl(c), Coll::AllReduce, Pick::Default) => {
                c.all_reduce(e, ins, outs, n, f16, sum, None)
            }
            (Comm::Msccl(c), Coll::AllGather, Pick::Default) => {
                c.all_gather(e, ins, outs, n, f16, None)
            }
            (Comm::Mscclpp(c), Coll::AllReduce, Pick::Default) => {
                c.all_reduce(e, ins, outs, n, f16, sum)
            }
            (Comm::Mscclpp(c), Coll::AllReduce, Pick::AllReduce(a)) => {
                c.all_reduce_with(e, ins, outs, n, f16, sum, a)
            }
            (Comm::Mscclpp(c), Coll::AllGather, Pick::Default) => {
                c.all_gather(e, ins, outs, n, f16)
            }
            (Comm::Mscclpp(c), Coll::AllGather, Pick::AllGather(a)) => {
                c.all_gather_with(e, ins, outs, n, f16, a)
            }
            _ => panic!("{pick:?} does not apply to {coll:?} on this stack"),
        }
    }

    /// Checks every element of `outs` against the reference result of
    /// `coll` over [`Bench::fill`]ed inputs of `bytes`. Outputs are read
    /// one page at a time ([`hw::PAGE_BYTES`]), so the check never copies
    /// a whole output.
    ///
    /// # Panics
    ///
    /// On the first wrong element, or on a timing-only cluster.
    pub fn verify(&self, coll: Coll, outs: &[BufferId], bytes: usize) {
        let world = self.target.world();
        let out_bytes = coll.out_bytes(bytes, world);
        let pool = self.engine.world().pool();
        for (r, &out) in outs.iter().enumerate() {
            for start in (0..out_bytes).step_by(PAGE_BYTES) {
                let page = pool.bytes(out, start, PAGE_BYTES.min(out_bytes - start));
                for off in (start..start + page.len()).step_by(2) {
                    let (chunk, i) = (off / bytes, off % bytes / 2);
                    let got = DataType::F16.decode(page, off - start);
                    let want = match coll {
                        Coll::AllReduce => (0..world).map(|s| input_val(s, i)).sum(),
                        Coll::AllGather => input_val(chunk, i),
                    };
                    assert_eq!(got, want, "{coll:?} rank {r} chunk {chunk} elem {i}");
                }
            }
        }
    }
}

/// NCCL's tuning candidates for one point, cut to keep very large
/// messages tractable (the LL protocol is never competitive there and
/// costs the most to simulate); AllGather only runs on the ring.
fn nccl_candidates(coll: Coll, target: Target, bytes: usize) -> Vec<ncclsim::Choice> {
    let msg = coll.out_bytes(bytes, target.world());
    ncclsim::tuning_candidates(target.nodes)
        .into_iter()
        .filter(|c| msg <= (8 << 20) || c.proto == ncclsim::Proto::Simple)
        .filter(|c| msg >= (64 << 10) || c.channels == 1)
        .filter(|c| coll == Coll::AllReduce || c.algo == ncclsim::Algo::Ring)
        .collect()
}

/// Measures one `coll` with `bytes` per rank on `stack`, each launch on
/// a fresh timing-only cluster under `fault`: one launch per NCCL tuning
/// candidate when NCCL is left its [`Pick::Default`], one launch
/// otherwise. Returns the fastest latency (µs) — the first on a tie —
/// with the engine that ran it. Every launch is a first launch, so the
/// verifier proves its plan before it runs (see the crate docs).
///
/// # Panics
///
/// If a launch fails: a deadlock, a fault the collective could not
/// survive, or a verifier finding.
pub fn measure(
    stack: Stack,
    coll: Coll,
    target: Target,
    bytes: usize,
    pick: Pick,
    fault: Option<&FaultPlan>,
) -> (f64, Engine<Machine>) {
    let picks = match (stack, pick) {
        (Stack::Nccl, Pick::Default) => nccl_candidates(coll, target, bytes)
            .into_iter()
            .map(Pick::Nccl)
            .collect(),
        _ => vec![pick],
    };
    let mut best: Option<(f64, Engine<Machine>)> = None;
    for pick in picks {
        let mut b = Bench::new(stack, target, fault.cloned(), Machine::timing_only);
        let ins = b.inputs(bytes);
        let outs = b.outputs(coll, bytes);
        let us = b
            .launch(coll, &ins, &outs, pick)
            .unwrap_or_else(|err| panic!("{} {coll:?} {pick:?}: {err}", stack.name()))
            .elapsed()
            .as_us();
        if best.as_ref().is_none_or(|&(fastest, _)| us < fastest) {
            best = Some((us, b.engine));
        }
    }
    best.expect("at least one NCCL tuning candidate")
}

/// Runs `coll` `iters` times on one warm `stack` communicator on a bytes
/// cluster, returning each iteration's latency (µs) with the engine that
/// ran them. Every iteration fills fresh inputs and writes the same
/// outputs, whose every element is checked after the last one. NCCL runs
/// at its tuner's pick, not fine-tuned: the latencies are one plan's,
/// first launch then warm.
///
/// # Panics
///
/// If a launch fails or the output is wrong.
pub fn iterate(
    stack: Stack,
    coll: Coll,
    target: Target,
    bytes: usize,
    iters: usize,
) -> (Vec<f64>, Engine<Machine>) {
    let mut b = Bench::new(stack, target, None, Machine::new);
    let outs = b.outputs(coll, bytes);
    let lat = (0..iters)
        .map(|_| {
            let ins = b.inputs(bytes);
            b.fill(&ins);
            b.launch(coll, &ins, &outs, Pick::Default)
                .unwrap_or_else(|err| panic!("{} {coll:?}: {err}", stack.name()))
                .elapsed()
                .as_us()
        })
        .collect();
    b.verify(coll, &outs, bytes);
    (lat, b.engine)
}

/// Formats a byte count like the paper's axis labels.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{}GB", b >> 30)
    } else if b >= 1 << 20 {
        format!("{}MB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// The small-message sizes (latency plots): 1 KB – 1 MB.
pub fn small_sizes() -> Vec<usize> {
    (10..=20).map(|p| 1usize << p).collect()
}

/// The large-message sizes (AlgoBW plots): 1 MB – `max`.
pub fn large_sizes(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut b = 1usize << 20;
    while b <= max {
        v.push(b);
        b <<= 2;
    }
    v
}

/// Prints one sweep table with NCCL / MSCCL / MSCCL++ columns.
pub fn print_sweep(
    title: &str,
    unit: &str,
    rows: &[(usize, f64, f64, f64)],
    speedup_of: impl Fn(&(usize, f64, f64, f64)) -> (f64, f64),
) {
    println!("\n== {title} ==");
    println!(
        "{:>8} | {:>12} {:>12} {:>12} | {:>9} {:>9}",
        "size",
        format!("NCCL {unit}"),
        format!("MSCCL {unit}"),
        format!("MSCCL++ {unit}"),
        "vs NCCL",
        "vs MSCCL"
    );
    for row in rows {
        let (s_nccl, s_msccl) = speedup_of(row);
        println!(
            "{:>8} | {:>12.2} {:>12.2} {:>12.2} | {:>8.2}x {:>8.2}x",
            fmt_bytes(row.0),
            row.1,
            row.2,
            row.3,
            s_nccl,
            s_msccl
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_report_consistent_bandwidth() {
        let p = Point {
            bytes: 1 << 20,
            latency_us: 100.0,
        };
        // 1 MiB in 100 us = ~10.49 GB/s.
        assert!((p.algbw_gbps() - 10.49).abs() < 0.01);
    }

    #[test]
    fn sizes_cover_paper_ranges() {
        let s = small_sizes();
        assert_eq!(*s.first().unwrap(), 1 << 10);
        assert_eq!(*s.last().unwrap(), 1 << 20);
        let l = large_sizes(256 << 20);
        assert_eq!(*l.first().unwrap(), 1 << 20);
        assert_eq!(*l.last().unwrap(), 256 << 20);
    }

    #[test]
    fn fmt_bytes_matches_axis_labels() {
        assert_eq!(fmt_bytes(1 << 10), "1KB");
        assert_eq!(fmt_bytes(256 << 20), "256MB");
        assert_eq!(fmt_bytes(1 << 30), "1GB");
    }

    #[test]
    fn verified_point_smoke() {
        let t = Target {
            env: EnvKind::A100_40G,
            nodes: 1,
        };
        let (us, _) = measure(
            Stack::Mscclpp,
            Coll::AllReduce,
            t,
            4096,
            Pick::Default,
            None,
        );
        assert!(us > 1.0 && us < 100.0);
    }
}
