//! The simulated machine: the `sim` world type plus transfer-time helpers.

use sim::{Ctx, Duration, Engine, ResourceId, Time};

use crate::memory::MemoryPool;
use crate::spec::{EnvSpec, IntraKind};
use crate::topology::{Rank, Topology};

/// Which data-transfer mode a peer-to-peer copy uses (§2.2.2).
///
/// *Thread-copy* uses GPU threads to read/write peer memory through
/// memory-mapped I/O (lower latency, lower bandwidth). *DMA-copy* drives
/// the GPU's copy engine through port-mapped I/O (higher bandwidth, but
/// requires CPU initiation and has higher fixed latency).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum CopyMode {
    /// GPU threads move the data (MemoryChannel).
    Thread,
    /// A DMA engine moves the data (PortChannel).
    Dma,
}

/// Serializing hardware resources, allocated on the engine by [`wire`].
#[derive(Debug, Clone, Default)]
struct Resources {
    /// Per-rank egress port (switch/PCIe topologies).
    egress: Vec<ResourceId>,
    /// Per-rank ingress port (switch/PCIe topologies).
    ingress: Vec<ResourceId>,
    /// Per-ordered-pair link (mesh topologies); indexed `[src][dst local]`.
    pair: Vec<Vec<Option<ResourceId>>>,
    /// Per-rank local HBM copy engine.
    local: Vec<ResourceId>,
    /// Per-rank DMA copy engine (kept for completeness; modern GPUs have
    /// several engines, so DMA transfers are port-bound, not engine-bound).
    #[allow(dead_code)]
    dma: Vec<ResourceId>,
    /// Per-rank NIC send side.
    nic_send: Vec<ResourceId>,
    /// Per-rank NIC receive side.
    nic_recv: Vec<ResourceId>,
}

/// The simulated cluster: specification, GPU memories, and link resources.
///
/// `Machine` is used as the world type of a [`sim::Engine`]. Construct it
/// with [`Machine::new`] (GPU memory holds real bytes) or
/// [`Machine::timing_only`] (it holds none), and then call [`wire`] on the
/// engine to allocate the link resources before running any processes.
#[derive(Debug)]
pub struct Machine {
    spec: EnvSpec,
    pool: MemoryPool,
    res: Option<Resources>,
}

impl Machine {
    /// Creates a machine from a specification. Link resources are not yet
    /// allocated; call [`wire`] on the engine that owns this machine.
    pub fn new(spec: EnvSpec) -> Machine {
        Machine {
            spec,
            pool: MemoryPool::new(),
            res: None,
        }
    }

    /// Like [`Machine::new`], but GPU memory is a timing-only
    /// [`MemoryPool`]: collectives take the same virtual time and move no
    /// bytes, and reading a buffer panics. For runs that never read their
    /// outputs.
    pub fn timing_only(spec: EnvSpec) -> Machine {
        Machine {
            spec,
            pool: MemoryPool::timing_only(),
            res: None,
        }
    }

    /// The machine specification.
    pub fn spec(&self) -> &EnvSpec {
        &self.spec
    }

    /// The cluster shape.
    pub fn topology(&self) -> Topology {
        self.spec.topology
    }

    /// Shared access to GPU memory.
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// Exclusive access to GPU memory.
    pub fn pool_mut(&mut self) -> &mut MemoryPool {
        &mut self.pool
    }

    /// Whether [`wire`] has been called for this machine.
    pub fn is_wired(&self) -> bool {
        self.res.is_some()
    }

    fn res(&self) -> &Resources {
        self.res
            .as_ref()
            .expect("machine not wired: call hw::wire(&mut engine) after Engine::new")
    }
}

/// Allocates the machine's link resources on the engine.
///
/// Must be called once, after `Engine::new(Machine::new(spec))` and before
/// any process runs.
///
/// # Panics
///
/// Panics if called twice on the same engine.
pub fn wire(engine: &mut Engine<Machine>) {
    assert!(
        engine.world().res.is_none(),
        "hw::wire called twice on the same engine"
    );
    let topo = engine.world().topology();
    let n = topo.world_size();
    let g = topo.gpus_per_node();
    let mesh = matches!(engine.world().spec.intra.kind, IntraKind::Mesh { .. });

    let mut res = Resources::default();
    let labeled = |engine: &mut Engine<Machine>, label: String| {
        let r = engine.alloc_resource();
        engine.label_resource(r, &label);
        r
    };
    for i in 0..n {
        res.egress.push(labeled(engine, format!("egress r{i}")));
        res.ingress.push(labeled(engine, format!("ingress r{i}")));
        res.local.push(labeled(engine, format!("local r{i}")));
        res.dma.push(labeled(engine, format!("dma r{i}")));
        res.nic_send.push(labeled(engine, format!("nic_send r{i}")));
        res.nic_recv.push(labeled(engine, format!("nic_recv r{i}")));
    }
    if mesh {
        for src in 0..n {
            let mut row = Vec::with_capacity(g);
            for dl in 0..g {
                let dst = topo.rank_at(topo.node_of(Rank(src)), dl);
                if dst == Rank(src) {
                    row.push(None);
                } else {
                    row.push(Some(labeled(engine, format!("link r{src}->r{}", dst.0))));
                }
            }
            res.pair.push(row);
        }
    }
    engine.world_mut().res = Some(res);
}

/// Fault status of a path, as seen by callers that must decide between
/// retrying (transient flap) and giving up or re-planning (permanent
/// outage). Derived from the engine's [`sim::FaultPlan`], so every stack
/// built on this machine model sees the same fault schedule.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum LinkFault {
    /// The path is healthy.
    Up,
    /// The path is flapping; expected back at the given instant. Transfers
    /// started now are delayed, a retry after `until` will go through.
    Transient {
        /// When the current flap window ends.
        until: Time,
    },
    /// The path is permanently down: no retry will ever succeed.
    Down,
}

fn classify(st: sim::PathState) -> LinkFault {
    if st.down {
        LinkFault::Down
    } else if let Some(until) = st.down_until {
        LinkFault::Transient { until }
    } else {
        LinkFault::Up
    }
}

/// Current fault status of the `src`↔`dst` path.
pub fn link_fault(ctx: &Ctx<'_, Machine>, src: Rank, dst: Rank) -> LinkFault {
    match ctx.fault_plan() {
        None => LinkFault::Up,
        Some(p) => classify(p.path(ctx.now(), src.0, dst.0)),
    }
}

/// Current fault status of the switch multimem datapath.
pub fn multimem_fault(ctx: &Ctx<'_, Machine>) -> LinkFault {
    match ctx.fault_plan() {
        None => LinkFault::Up,
        Some(p) => classify(p.multimem(ctx.now())),
    }
}

/// Earliest start instant and bandwidth slowdown imposed by active faults
/// on the `src`↔`dst` path. A transient down window pushes the start to
/// the window end (flap semantics); degradations stretch the busy span.
/// Permanent outages are NOT absorbed here — callers must consult
/// [`link_fault`] and park or re-plan instead of transferring.
fn path_adjust(ctx: &mut Ctx<'_, Machine>, src: Rank, dst: Rank) -> (Time, f64) {
    let now = ctx.now();
    let st = match ctx.fault_plan() {
        Some(p) => p.path(now, src.0, dst.0),
        None => return (now, 1.0),
    };
    debug_assert!(
        !st.down,
        "transfer started on permanently-down path {src}<->{dst} (caller must guard)"
    );
    let mut earliest = now;
    if let Some(until) = st.down_until {
        earliest = earliest.max(until);
        ctx.count("fault.link_flap_delays", 1);
    }
    if st.slow != 1.0 {
        ctx.count("fault.degraded_transfers", 1);
    }
    (earliest, st.slow)
}

/// [`path_adjust`], for the multimem datapath.
fn multimem_adjust(ctx: &mut Ctx<'_, Machine>) -> (Time, f64) {
    let now = ctx.now();
    let st = match ctx.fault_plan() {
        Some(p) => p.multimem(now),
        None => return (now, 1.0),
    };
    debug_assert!(
        !st.down,
        "multimem transfer while datapath permanently down (caller must guard)"
    );
    let mut earliest = now;
    if let Some(until) = st.down_until {
        earliest = earliest.max(until);
        ctx.count("fault.link_flap_delays", 1);
    }
    if st.slow != 1.0 {
        ctx.count("fault.degraded_transfers", 1);
    }
    (earliest, st.slow)
}

/// Stretches a busy span by an active degradation factor. `slow == 1.0`
/// (the fault-free case) returns the span untouched, bit-exactly.
fn scaled(busy: Duration, slow: f64) -> Duration {
    if slow == 1.0 {
        busy
    } else {
        Duration::from_ps(((busy.as_ps() as f64) * slow).round() as u64)
    }
}

/// The two timestamps of an asynchronous transfer.
///
/// A `put` issued by GPU threads (or a DMA engine) finishes *occupying the
/// sender* when the last byte has been pushed onto the link, but the data
/// only becomes *visible at the destination* one interconnect latency
/// later. Separating the two is what makes MSCCL++'s asynchronous,
/// one-sided `put` cheaper than a blocking rendezvous `send`.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub struct Xfer {
    /// When the sending context (thread block, DMA engine, NIC) is free to
    /// proceed to its next operation.
    pub sender_free: Time,
    /// When the data is visible in destination memory.
    pub arrival: Time,
}

/// Occupies each resource independently for `busy` and returns the
/// latest completion instant.
///
/// Ports are *work-conserving*: interconnect links and switches have
/// flow-control buffers, so a transfer's occupancy of the sender port,
/// the receiver port, and (for multimem) every contributor port need not
/// be simultaneous. Modeling them as independent queues packs each port
/// densely, which matches measured link utilization under all-to-all
/// traffic; a common-start reservation would instead create artificial
/// convoy bubbles.
fn acquire_each(
    ctx: &mut Ctx<'_, Machine>,
    resources: &[ResourceId],
    earliest: Time,
    busy: Duration,
) -> Time {
    let mut done = ctx.now();
    for &r in resources {
        done = done.max(ctx.acquire_after(r, earliest, busy));
    }
    done
}

/// Completion time of a local (same-GPU) copy of `bytes` through HBM.
pub fn local_copy_time(ctx: &mut Ctx<'_, Machine>, rank: Rank, bytes: u64) -> Time {
    let gbps = ctx.world.spec.gpu.hbm_gbps;
    let r = ctx.world.res().local[rank.0];
    ctx.meter_bytes(r, bytes);
    ctx.acquire(r, Duration::for_transfer(bytes, gbps))
}

/// Completion time of a local element-wise reduction over `bytes` of
/// operand data (reads two streams, writes one).
pub fn local_reduce_time(ctx: &mut Ctx<'_, Machine>, rank: Rank, bytes: u64) -> Time {
    let gbps = ctx.world.spec.gpu.hbm_gbps;
    let r = ctx.world.res().local[rank.0];
    ctx.meter_bytes(r, 3 * bytes);
    ctx.acquire(r, Duration::for_transfer(3 * bytes, gbps))
}

/// Timing of an intra-node peer-to-peer transfer of `bytes` from
/// `src` to `dst` using `mode`.
///
/// Occupies the appropriate link resources (switch ports or the dedicated
/// mesh pair link, plus the DMA engine for [`CopyMode::Dma`]) and adds the
/// interconnect's one-way latency to obtain the arrival instant.
///
/// # Panics
///
/// Panics if `src` and `dst` are the same rank or on different nodes (use
/// [`net_time`] for inter-node transfers), or if the machine is not wired.
pub fn p2p_time(
    ctx: &mut Ctx<'_, Machine>,
    src: Rank,
    dst: Rank,
    bytes: u64,
    mode: CopyMode,
) -> Xfer {
    let topo = ctx.world.topology();
    assert_ne!(src, dst, "p2p transfer to self; use local_copy_time");
    assert!(
        topo.same_node(src, dst),
        "p2p transfer across nodes ({src} -> {dst}); use net_time"
    );
    let latency = ctx.world.spec.intra.latency;
    let (earliest, slow) = path_adjust(ctx, src, dst);
    match ctx.world.spec.intra.kind {
        IntraKind::Switch {
            thread_gbps,
            dma_gbps,
            ..
        } => {
            let gbps = match mode {
                CopyMode::Thread => thread_gbps,
                CopyMode::Dma => dma_gbps,
            };
            let busy = scaled(Duration::for_transfer(bytes, gbps), slow);
            let res = ctx.world.res();
            // Modern GPUs have several copy engines, so DMA transfers are
            // bounded by the port bandwidth, not a single engine.
            let (eg, ing) = (res.egress[src.0], res.ingress[dst.0]);
            ctx.meter_bytes(eg, bytes);
            ctx.meter_bytes(ing, bytes);
            let sender_free = ctx.acquire_after(eg, earliest, busy);
            let landed = sender_free.max(ctx.acquire_after(ing, earliest, busy));
            Xfer {
                sender_free,
                arrival: landed + latency,
            }
        }
        IntraKind::Mesh {
            per_peer_thread_gbps,
            per_peer_dma_gbps,
        } => {
            let gbps = match mode {
                CopyMode::Thread => per_peer_thread_gbps,
                CopyMode::Dma => per_peer_dma_gbps,
            };
            let busy = scaled(Duration::for_transfer(bytes, gbps), slow);
            let res = ctx.world.res();
            let link =
                res.pair[src.0][topo.local_index(dst)].expect("mesh pair link missing (src==dst?)");
            ctx.meter_bytes(link, bytes);
            let free = ctx.acquire_after(link, earliest, busy);
            Xfer {
                sender_free: free,
                arrival: free + latency,
            }
        }
        IntraKind::Pcie { gbps } => {
            let busy = scaled(Duration::for_transfer(bytes, gbps), slow);
            let res = ctx.world.res();
            let (eg, ing) = (res.egress[src.0], res.ingress[dst.0]);
            ctx.meter_bytes(eg, bytes);
            ctx.meter_bytes(ing, bytes);
            let sender_free = ctx.acquire_after(eg, earliest, busy);
            let landed = sender_free.max(ctx.acquire_after(ing, earliest, busy));
            Xfer {
                sender_free,
                arrival: landed + latency,
            }
        }
    }
}

/// Timing of an inter-node RDMA transfer of `bytes` from `src` to
/// `dst` over the per-GPU NICs.
///
/// This is the wire time only; the CPU-proxy initiation and completion
/// polling overheads are modeled by the calling library (the paper's
/// Figure 2 workflow).
///
/// # Panics
///
/// Panics if `src` and `dst` are on the same node, or if the machine has
/// no network, or is not wired.
pub fn net_time(ctx: &mut Ctx<'_, Machine>, src: Rank, dst: Rank, bytes: u64) -> Xfer {
    let topo = ctx.world.topology();
    assert!(
        !topo.same_node(src, dst),
        "net transfer within a node ({src} -> {dst}); use p2p_time"
    );
    let net = ctx
        .world
        .spec
        .net
        .expect("environment has no inter-node network");
    let (mut earliest, slow) = path_adjust(ctx, src, dst);
    let stall = match ctx.fault_plan() {
        Some(p) => {
            let now = ctx.now();
            p.nic_extra(now, src.0)
                .saturating_add(p.nic_extra(now, dst.0))
        }
        None => Duration::ZERO,
    };
    if stall > Duration::ZERO {
        ctx.count("fault.nic_stalls", 1);
        earliest += stall;
    }
    let busy = scaled(Duration::for_transfer(bytes, net.gbps), slow);
    let res = ctx.world.res();
    let (snd, rcv) = (res.nic_send[src.0], res.nic_recv[dst.0]);
    ctx.meter_bytes(snd, bytes);
    ctx.meter_bytes(rcv, bytes);
    let sender_free = ctx.acquire_after(snd, earliest, busy);
    let landed = sender_free.max(ctx.acquire_after(rcv, earliest, busy));
    Xfer {
        sender_free,
        arrival: landed + net.latency,
    }
}

/// One-way latency used by a remote semaphore signal over the intra-node
/// interconnect.
pub fn intra_latency(machine: &Machine) -> Duration {
    machine.spec().intra.latency
}

/// One-way latency of the inter-node network.
///
/// # Panics
///
/// Panics if the environment has no network.
pub fn net_latency(machine: &Machine) -> Duration {
    machine
        .spec()
        .net
        .expect("environment has no inter-node network")
        .latency
}

/// Completion time of a switch multimem load-reduce: rank `dst` reads and
/// reduces `bytes` (its output share) from every GPU on its node through
/// the switch.
///
/// Occupies `dst`'s ingress port and every peer's egress port for the
/// duration at the multimem rate.
///
/// # Panics
///
/// Panics if the interconnect has no multimem support.
pub fn multimem_reduce_time(ctx: &mut Ctx<'_, Machine>, dst: Rank, bytes: u64) -> Time {
    let (gbps, latency) = multimem_params(ctx);
    let (earliest, slow) = multimem_adjust(ctx);
    let topo = ctx.world.topology();
    let busy = scaled(Duration::for_transfer(bytes, gbps), slow);
    let res = ctx.world.res();
    let mut rs = vec![res.ingress[dst.0]];
    for peer in topo.node_ranks(dst) {
        if peer != dst {
            rs.push(res.egress[peer.0]);
        }
    }
    for &r in &rs {
        ctx.meter_bytes(r, bytes);
    }
    // The reader blocks until the reduced values land in its registers.
    acquire_each(ctx, &rs, earliest, busy) + latency
}

/// Completion time of a switch multimem store-broadcast: rank `src` writes
/// `bytes` once into the switch, which multicasts to every GPU on the node.
///
/// Occupies `src`'s egress port once (this is the bandwidth saving over a
/// peer-by-peer broadcast) and every peer's ingress port.
///
/// # Panics
///
/// Panics if the interconnect has no multimem support.
pub fn multimem_broadcast_time(ctx: &mut Ctx<'_, Machine>, src: Rank, bytes: u64) -> Xfer {
    let (gbps, latency) = multimem_params(ctx);
    let (earliest, slow) = multimem_adjust(ctx);
    let topo = ctx.world.topology();
    let busy = scaled(Duration::for_transfer(bytes, gbps), slow);
    let res = ctx.world.res();
    let eg = res.egress[src.0];
    let ins: Vec<ResourceId> = topo
        .node_ranks(src)
        .filter(|&p| p != src)
        .map(|p| res.ingress[p.0])
        .collect();
    ctx.meter_bytes(eg, bytes);
    for &r in &ins {
        ctx.meter_bytes(r, bytes);
    }
    let sender_free = ctx.acquire_after(eg, earliest, busy);
    let landed = sender_free.max(acquire_each(ctx, &ins, earliest, busy));
    Xfer {
        sender_free,
        arrival: landed + latency,
    }
}

fn multimem_params(ctx: &Ctx<'_, Machine>) -> (f64, Duration) {
    match ctx.world.spec.intra.kind {
        IntraKind::Switch {
            multimem: Some(mm), ..
        } => (mm.gbps, ctx.world.spec.intra.latency),
        _ => panic!(
            "{}: interconnect has no multimem (switch) support",
            ctx.world.spec.name
        ),
    }
}

/// Per-rank link-port occupancy, for utilization analysis of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortUtilization {
    /// The rank whose ports these are.
    pub rank: Rank,
    /// Cumulative egress-port busy time.
    pub egress_busy: Duration,
    /// Cumulative ingress-port busy time.
    pub ingress_busy: Duration,
    /// Cumulative NIC send busy time.
    pub nic_send_busy: Duration,
    /// Cumulative NIC receive busy time.
    pub nic_recv_busy: Duration,
}

/// Reports every rank's cumulative port occupancy (egress/ingress NVLink
/// or PCIe ports, NIC send/recv). Dividing by the elapsed virtual time of
/// a phase gives link utilization — the quantity behind the paper's
/// bandwidth discussions (e.g. why the MI300x loop order matters, §5.3).
///
/// On mesh interconnects the pairwise links are not split per direction;
/// their occupancy is attributed to the sender's egress.
///
/// # Panics
///
/// Panics if the machine is not wired.
pub fn port_utilization(engine: &Engine<Machine>) -> Vec<PortUtilization> {
    let topo = engine.world().topology();
    let res = engine.world().res();
    let mesh = !res.pair.is_empty();
    topo.ranks()
        .map(|r| {
            let mut egress_busy = engine.resource_busy(res.egress[r.0]);
            if mesh {
                for link in res.pair[r.0].iter().flatten() {
                    egress_busy += engine.resource_busy(*link);
                }
            }
            PortUtilization {
                rank: r,
                egress_busy,
                ingress_busy: engine.resource_busy(res.ingress[r.0]),
                nic_send_busy: engine.resource_busy(res.nic_send[r.0]),
                nic_recv_busy: engine.resource_busy(res.nic_recv[r.0]),
            }
        })
        .collect()
}

/// Snapshot of every labeled machine resource (link ports, local copy
/// engines, NICs, mesh pair links) with its cumulative busy time, bytes
/// carried, acquisition count, and queueing delay.
///
/// This is the machine-readable counterpart of [`port_utilization`]:
/// benchmark figures serialize it as JSON so per-link utilization can be
/// analyzed offline.
pub fn link_stats(engine: &Engine<Machine>) -> Vec<sim::ResourceStat> {
    engine
        .metrics()
        .resources()
        .into_iter()
        .filter(|s| !s.label.is_empty())
        .collect()
}

/// Whether the machine's intra-node interconnect supports multimem
/// (switch-mapped I/O, required by `SwitchChannel`).
pub fn supports_multimem(machine: &Machine) -> bool {
    matches!(
        machine.spec().intra.kind,
        IntraKind::Switch {
            multimem: Some(_),
            ..
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EnvKind;
    use sim::{Process, Step};

    fn engine(kind: EnvKind, nodes: usize) -> Engine<Machine> {
        let mut e = Engine::new(Machine::new(kind.spec(nodes)));
        wire(&mut e);
        e
    }

    /// Runs one closure process to completion and returns (result, now).
    fn run_one<F>(e: &mut Engine<Machine>, f: F) -> Time
    where
        F: FnOnce(&mut Ctx<'_, Machine>) -> Time + 'static,
    {
        struct P<F> {
            f: Option<F>,
            out: std::rc::Rc<std::cell::Cell<Time>>,
        }
        impl<F: FnOnce(&mut Ctx<'_, Machine>) -> Time> Process<Machine> for P<F> {
            fn step(&mut self, ctx: &mut Ctx<'_, Machine>) -> Step {
                let f = self.f.take().expect("stepped twice");
                self.out.set(f(ctx));
                Step::Done
            }
        }
        let out = std::rc::Rc::new(std::cell::Cell::new(Time::ZERO));
        e.spawn(P {
            f: Some(f),
            out: out.clone(),
        });
        e.run().unwrap();
        out.get()
    }

    #[test]
    fn switch_p2p_dma_is_faster_for_large_messages() {
        let mut e = engine(EnvKind::A100_40G, 1);
        let thread = run_one(&mut e, |ctx| {
            p2p_time(ctx, Rank(0), Rank(1), 64 << 20, CopyMode::Thread).arrival
        });
        let mut e2 = engine(EnvKind::A100_40G, 1);
        let dma = run_one(&mut e2, |ctx| {
            p2p_time(ctx, Rank(0), Rank(1), 64 << 20, CopyMode::Dma).arrival
        });
        assert!(
            dma < thread,
            "DMA copy should beat thread copy in bandwidth"
        );
        // Ratio should be roughly 263/227.
        let ratio = thread.as_us() / dma.as_us();
        assert!((ratio - 263.0 / 227.0).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn switch_port_is_shared_but_mesh_links_are_parallel() {
        // On a switch, two simultaneous sends from rank 0 serialize on its
        // egress port. On a mesh they ride dedicated pair links.
        let bytes = 16u64 << 20;
        let mut e = engine(EnvKind::A100_40G, 1);
        let t_switch = run_one(&mut e, move |ctx| {
            let a = p2p_time(ctx, Rank(0), Rank(1), bytes, CopyMode::Thread);
            let b = p2p_time(ctx, Rank(0), Rank(2), bytes, CopyMode::Thread);
            a.sender_free.max(b.sender_free)
        });
        let mut e2 = engine(EnvKind::MI300X, 1);
        let t_mesh = run_one(&mut e2, move |ctx| {
            let a = p2p_time(ctx, Rank(0), Rank(1), bytes, CopyMode::Thread);
            let b = p2p_time(ctx, Rank(0), Rank(2), bytes, CopyMode::Thread);
            a.sender_free.max(b.sender_free)
        });
        // Switch: 2 * bytes/227GBps serialized. Mesh: bytes/45GBps in parallel.
        let serial_switch = 2.0 * (bytes as f64) / 227e9 * 1e6; // us
        let parallel_mesh = (bytes as f64) / 45e9 * 1e6;
        assert!((t_switch.as_us() - serial_switch).abs() / serial_switch < 0.05);
        assert!((t_mesh.as_us() - parallel_mesh).abs() / parallel_mesh < 0.05);
    }

    #[test]
    fn net_time_uses_nic_bandwidth_and_latency() {
        let mut e = engine(EnvKind::A100_40G, 2);
        let done = run_one(&mut e, |ctx| {
            net_time(ctx, Rank(0), Rank(8), 25_000_000).arrival
        });
        // 25 MB at 25 GB/s = 1 ms, plus 1.8 us latency.
        assert!((done.as_us() - (1000.0 + 1.8)).abs() < 1.0, "{done}");
    }

    #[test]
    #[should_panic(expected = "across nodes")]
    fn p2p_across_nodes_rejected() {
        let mut e = engine(EnvKind::A100_40G, 2);
        run_one(&mut e, |ctx| {
            p2p_time(ctx, Rank(0), Rank(8), 1024, CopyMode::Thread).arrival
        });
    }

    #[test]
    #[should_panic(expected = "no multimem")]
    fn multimem_on_a100_rejected() {
        let mut e = engine(EnvKind::A100_40G, 1);
        run_one(&mut e, |ctx| multimem_reduce_time(ctx, Rank(0), 1024));
    }

    #[test]
    fn multimem_supported_only_on_h100() {
        assert!(supports_multimem(&Machine::new(EnvKind::H100.spec(1))));
        assert!(!supports_multimem(&Machine::new(EnvKind::A100_40G.spec(1))));
        assert!(!supports_multimem(&Machine::new(EnvKind::MI300X.spec(1))));
    }

    #[test]
    fn multimem_broadcast_occupies_source_egress_once() {
        // One multicast store of B bytes should take ~B/480GBps, not
        // 7*B/480GBps: the switch replicates.
        let bytes = 48u64 << 20;
        let mut e = engine(EnvKind::H100, 1);
        let done = run_one(&mut e, move |ctx| {
            multimem_broadcast_time(ctx, Rank(0), bytes).arrival
        });
        let expect_us = (bytes as f64) / 360e9 * 1e6 + 0.4;
        assert!(
            (done.as_us() - expect_us).abs() / expect_us < 0.05,
            "{done}"
        );
    }

    #[test]
    #[should_panic(expected = "not wired")]
    fn unwired_machine_panics_on_use() {
        let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        run_one(&mut e, |ctx| {
            p2p_time(ctx, Rank(0), Rank(1), 4, CopyMode::Thread).arrival
        });
    }

    #[test]
    #[should_panic(expected = "wire called twice")]
    fn double_wire_rejected() {
        let mut e = engine(EnvKind::A100_40G, 1);
        wire(&mut e);
    }

    #[test]
    fn link_flap_delays_transfer_to_window_end() {
        use sim::FaultPlan;
        let bytes = 227_000u64; // 1 us at 227 GB/s
        let mut e = engine(EnvKind::A100_40G, 1);
        e.set_fault_plan(FaultPlan::new(7).link_flap(
            0,
            1,
            Time::ZERO,
            Time::from_ps(5_000_000), // down for the first 5 us
        ));
        let done = run_one(&mut e, move |ctx| {
            p2p_time(ctx, Rank(0), Rank(1), bytes, CopyMode::Thread).sender_free
        });
        assert_eq!(done, Time::from_ps(6_000_000), "5us flap + 1us transfer");
        assert_eq!(e.metrics().counter("fault.link_flap_delays"), 1);
        // An untouched pair is unaffected.
        let mut e2 = engine(EnvKind::A100_40G, 1);
        e2.set_fault_plan(FaultPlan::new(7).link_flap(0, 1, Time::ZERO, Time::from_ps(5_000_000)));
        let clean = run_one(&mut e2, move |ctx| {
            p2p_time(ctx, Rank(2), Rank(3), bytes, CopyMode::Thread).sender_free
        });
        assert_eq!(clean, Time::from_ps(1_000_000));
    }

    #[test]
    fn degraded_link_stretches_busy_time() {
        use sim::FaultPlan;
        let bytes = 227_000u64; // 1 us clean
        let mut e = engine(EnvKind::A100_40G, 1);
        e.set_fault_plan(FaultPlan::new(7).degrade_link(0, 1, 4.0, Time::ZERO, Time::MAX));
        let done = run_one(&mut e, move |ctx| {
            p2p_time(ctx, Rank(0), Rank(1), bytes, CopyMode::Thread).sender_free
        });
        assert_eq!(
            done,
            Time::from_ps(4_000_000),
            "4x slower under degradation"
        );
        assert_eq!(e.metrics().counter("fault.degraded_transfers"), 1);
    }

    #[test]
    fn nic_stall_delays_inter_node_transfer() {
        use sim::FaultPlan;
        let bytes = 25_000u64; // 1 us at 25 GB/s
        let mut e = engine(EnvKind::A100_40G, 2);
        e.set_fault_plan(FaultPlan::new(7).nic_stall(
            0,
            Duration::from_us(3.0),
            Time::ZERO,
            Time::MAX,
        ));
        let done = run_one(&mut e, move |ctx| {
            net_time(ctx, Rank(0), Rank(8), bytes).sender_free
        });
        assert_eq!(done, Time::from_ps(4_000_000), "3us stall + 1us wire");
        assert_eq!(e.metrics().counter("fault.nic_stalls"), 1);
    }

    #[test]
    fn fault_queries_classify_transient_vs_permanent() {
        use sim::FaultPlan;
        let mut e = engine(EnvKind::A100_40G, 1);
        e.set_fault_plan(
            FaultPlan::new(7)
                .link_flap(0, 1, Time::ZERO, Time::from_ps(100))
                .link_down_forever(2, 3, Time::ZERO),
        );
        struct Probe;
        impl Process<Machine> for Probe {
            fn step(&mut self, ctx: &mut Ctx<'_, Machine>) -> Step {
                assert_eq!(
                    link_fault(ctx, Rank(0), Rank(1)),
                    LinkFault::Transient {
                        until: Time::from_ps(100)
                    }
                );
                assert_eq!(link_fault(ctx, Rank(2), Rank(3)), LinkFault::Down);
                assert_eq!(link_fault(ctx, Rank(3), Rank(2)), LinkFault::Down);
                assert_eq!(link_fault(ctx, Rank(4), Rank(5)), LinkFault::Up);
                assert_eq!(multimem_fault(ctx), LinkFault::Up);
                Step::Done
            }
        }
        e.spawn(Probe);
        e.run().unwrap();
    }
}

#[cfg(test)]
mod util_tests {
    use super::*;
    use crate::spec::EnvKind;
    use sim::{Process, Step};

    struct OnePut;
    impl Process<Machine> for OnePut {
        fn step(&mut self, ctx: &mut Ctx<'_, Machine>) -> Step {
            let _ = p2p_time(ctx, Rank(0), Rank(1), 227_000_000, CopyMode::Thread);
            Step::Done
        }
    }

    #[test]
    fn utilization_accounts_port_busy_time() {
        let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        wire(&mut e);
        e.spawn(OnePut);
        e.run().unwrap();
        let util = port_utilization(&e);
        // 227 MB at 227 GB/s = 1 ms on rank 0 egress and rank 1 ingress.
        assert!((util[0].egress_busy.as_us() - 1000.0).abs() < 1.0);
        assert!((util[1].ingress_busy.as_us() - 1000.0).abs() < 1.0);
        assert_eq!(util[1].egress_busy, Duration::ZERO);
        assert_eq!(util[0].nic_send_busy, Duration::ZERO);
    }

    #[test]
    fn link_stats_meter_wire_bytes_per_labeled_port() {
        let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
        wire(&mut e);
        e.spawn(OnePut);
        e.run().unwrap();
        let stats = link_stats(&e);
        let by_label = |l: &str| {
            stats
                .iter()
                .find(|s| s.label == l)
                .unwrap_or_else(|| panic!("no resource labeled {l}"))
                .clone()
        };
        let eg = by_label("egress r0");
        let ing = by_label("ingress r1");
        assert_eq!(eg.bytes, 227_000_000);
        assert_eq!(ing.bytes, 227_000_000);
        assert_eq!(eg.acquires, 1);
        assert_eq!(by_label("egress r1").bytes, 0);
        assert_eq!(by_label("nic_send r0").bytes, 0);
    }
}
