//! Cross-stack observability invariants: the metrics registry and span
//! tracing added to the simulator hold up on real collectives, and the
//! counters quantify the paper's central claim — MSCCL++ completes an
//! AllReduce with far fewer synchronization events than the NCCL model.

use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
use mscclpp::{run_kernels, KernelBuilder, Protocol, Setup};
use sim::Engine;

const BYTES: usize = 1 << 20;

fn filled_engine(n: usize) -> (Engine<Machine>, Vec<hw::BufferId>) {
    let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    hw::wire(&mut e);
    let bufs: Vec<_> = (0..n)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), BYTES))
        .collect();
    for (r, &b) in bufs.iter().enumerate() {
        e.world_mut()
            .pool_mut()
            .fill_with(b, DataType::F16, move |i| ((r + i) % 5) as f32);
    }
    (e, bufs)
}

/// §2.2.2 / §5.1: for the same 1 MB AllReduce on the same machine,
/// MSCCL++'s fused signaling and all-pairs schedule issues strictly
/// fewer blocking waits (and strictly fewer signals) than the NCCL
/// ring model. The counters make the mechanism measurable instead of
/// inferred from latency.
#[test]
fn mscclpp_allreduce_uses_fewer_syncs_than_nccl() {
    let n = 8usize;
    let count = BYTES / 2;

    let (mut e_nccl, bufs) = filled_engine(n);
    let comm = {
        let mut setup = Setup::new(&mut e_nccl);
        ncclsim::NcclComm::new(&mut setup, ncclsim::NcclConfig::nccl())
    };
    comm.all_reduce(
        &mut e_nccl,
        &bufs,
        &bufs,
        count,
        DataType::F16,
        ReduceOp::Sum,
        ncclsim::tune(BYTES, 1),
    )
    .unwrap();

    let (mut e_pp, bufs) = filled_engine(n);
    let comm = collective::CollComm::new();
    comm.all_reduce(&mut e_pp, &bufs, &bufs, count, DataType::F16, ReduceOp::Sum)
        .unwrap();

    let nccl_waits = e_nccl.metrics().counter("sync.waits");
    let pp_waits = e_pp.metrics().counter("sync.waits");
    assert!(nccl_waits > 0 && pp_waits > 0);
    assert!(
        pp_waits < nccl_waits,
        "MSCCL++ should need fewer waits: mscclpp={pp_waits} nccl={nccl_waits}"
    );
    let nccl_signals = e_nccl.metrics().counter("sync.signals");
    let pp_signals = e_pp.metrics().counter("sync.signals");
    assert!(
        pp_signals < nccl_signals,
        "MSCCL++ should need fewer signals: mscclpp={pp_signals} nccl={nccl_signals}"
    );
}

/// Every span opened during a real collective is closed by the time the
/// engine drains, and the Chrome export carries the wait spans.
#[test]
fn collective_trace_spans_all_pair_up() {
    let (mut e, bufs) = filled_engine(8);
    e.enable_tracing();
    let comm = collective::CollComm::new();
    comm.all_reduce(
        &mut e,
        &bufs,
        &bufs,
        BYTES / 2,
        DataType::F16,
        ReduceOp::Sum,
    )
    .unwrap();
    let trace = e.take_trace().expect("tracing was enabled");
    assert!(!trace.is_empty());
    assert_eq!(trace.unmatched_begins(), 0, "span begin without end");
    let json = trace.to_chrome_json(&[]);
    assert!(json.contains("\"wait."), "wait spans missing from export");
}

/// A port-channel (proxy-driven) collective emits FIFO-depth counter
/// samples on both the push (kernel) and pop (proxy) sides, and the
/// Perfetto export renders them as counter (`"ph":"C"`) tracks.
#[test]
fn port_channel_trace_carries_fifo_depth_counters() {
    let (mut e, bufs) = filled_engine(8);
    e.enable_tracing();
    let comm = collective::CollComm::new();
    comm.all_reduce_with(
        &mut e,
        &bufs,
        &bufs,
        BYTES / 2,
        DataType::F16,
        ReduceOp::Sum,
        collective::AllReduceAlgo::TwoPhasePort,
    )
    .unwrap();
    let trace = e.take_trace().expect("tracing was enabled");
    let depth_samples = trace
        .events()
        .iter()
        .filter(|ev| {
            matches!(ev.kind, sim::TraceEventKind::Counter(_))
                && trace.label(ev.label).starts_with("fifo.depth rank")
        })
        .count();
    assert!(depth_samples > 0, "no fifo.depth counter samples recorded");
    let json = trace.to_chrome_json(&[]);
    assert!(json.contains("\"ph\":\"C\""), "counter events missing");
    assert!(json.contains("fifo.depth rank"));
}

/// Satellite regression: a run that dies on a fault-plan timeout and is
/// torn down through [`mscclpp::Comm::abort_and_drain`] (which aborts the
/// engine a second time, after `run_kernels`'s own abort) must still
/// leave a balanced trace — daemon spans closed during teardown are
/// closed exactly once, and stray ends are counted, not clamped away.
#[test]
fn aborted_run_reports_zero_unmatched_spans() {
    use sim::{Duration, FaultPlan, Time};
    let n = 8usize;
    let count = 4096usize;
    let plan = FaultPlan::new(5)
        .link_down_forever(0, 1, Time::ZERO)
        .with_wait_timeout(Duration::from_us(200.0));
    let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    e.set_fault_plan(plan);
    e.enable_tracing();
    hw::wire(&mut e);
    let bufs: Vec<_> = (0..n)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), count * 4))
        .collect();
    let comm = collective::CollComm::new();
    let err = comm.all_reduce_with(
        &mut e,
        &bufs,
        &bufs,
        count,
        DataType::F32,
        ReduceOp::Sum,
        collective::AllReduceAlgo::TwoPhasePort,
    );
    assert!(err.is_err(), "dead link with no fallback must fail");
    // The collective layer already aborted the engine; mirror the serving
    // failover path, which tears down again before re-planning (the
    // second abort must be idempotent on the trace).
    e.abort();
    // The engine stays usable: the default planner routes a ring around
    // the dead link and the rerun succeeds on the same engine, with the
    // trace still recording.
    comm.all_reduce(&mut e, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum)
        .unwrap();
    let trace = e.take_trace().expect("tracing was enabled");
    assert!(!trace.is_empty());
    assert_eq!(
        trace.unmatched_begins(),
        0,
        "aborted run left unmatched begins/ends"
    );
}

/// The per-link byte meters and the memory pool's data-plane byte count
/// agree: one fused HB put of B bytes shows up as exactly B on the
/// sender's egress port, B on the receiver's ingress port, and B moved
/// through the pool.
#[test]
fn link_bytes_match_memory_pool_traffic() {
    let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    let mut setup = Setup::new(&mut e);
    let bufs = setup.alloc_all(4096);
    let (ch0, ch1) = setup
        .memory_channel_pair(
            Rank(0),
            bufs[0],
            bufs[1],
            Rank(1),
            bufs[1],
            bufs[0],
            Protocol::HB,
        )
        .unwrap();
    let ov = setup.overheads().clone();
    e.world_mut()
        .pool_mut()
        .fill_with(bufs[0], DataType::F32, |i| i as f32);
    assert_eq!(e.world().pool().moved_bytes(), 0, "fill is not data-plane");

    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).put_with_signal(&ch0, 0, 0, 4096);
    let mut k1 = KernelBuilder::new(Rank(1));
    k1.block(0).wait(&ch1);
    run_kernels(&mut e, &[k0.build(), k1.build()], &ov).unwrap();

    let stats = hw::link_stats(&e);
    let bytes_of = |label: &str| {
        stats
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("no resource labeled {label}"))
            .bytes
    };
    assert_eq!(bytes_of("egress r0"), 4096);
    assert_eq!(bytes_of("ingress r1"), 4096);
    assert_eq!(bytes_of("egress r1"), 0);
    assert_eq!(e.world().pool().moved_bytes(), 4096);
}

// ---- Request-scoped tracing + SLO-miss attribution (DESIGN.md §17) ----

/// One fully-observed open-loop serving run at ~2× the knee: admission
/// off, so queueing blows the TTFT budget and the run produces real SLO
/// misses to attribute.
fn observed_overload() -> (
    inference::ServeReport,
    inference::ServeObservation,
    Vec<inference::Request>,
) {
    use inference::{
        serve_trace_observed, synthetic_trace, ModelConfig, MscclppBackend, ServeConfig,
        ServingEngine, SloSpec,
    };
    use sim::SamplerConfig;
    let mut engine = ServingEngine::new(EnvKind::A100_80G, ModelConfig::llama2_13b(), 16 * 1024);
    let backend = MscclppBackend::new();
    let trace = synthetic_trace(40, 96, 12, 7_000.0, 9);
    let mut cfg = ServeConfig::permissive(8);
    cfg.slo = SloSpec::new(100_000.0, 12_000.0);
    cfg.seed = 9;
    cfg.observe.telemetry = Some(SamplerConfig::new(500.0, 2048));
    let (report, obs) =
        serve_trace_observed(&mut engine, &backend, &trace, &cfg).expect("observed run");
    (report, obs, trace)
}

/// The attribution contract: every request that reached the admission
/// door has a timeline whose typed phase windows tile its end-to-end
/// latency *exactly* — integer picoseconds, no rounding slop — and
/// every SLO-miss exemplar's blame buckets sum to the same number.
#[test]
fn every_slo_miss_blame_tiles_its_latency_exactly() {
    let (report, obs, trace) = observed_overload();
    assert!(report.slo_missed > 0, "overload run must miss deadlines");
    assert!(!report.worst_misses.is_empty());
    assert_eq!(obs.timelines.len(), trace.len(), "one timeline per request");
    for tl in &obs.timelines {
        assert!(
            tl.tiles_exactly(),
            "request {}: phase windows do not tile [arrival, end]",
            tl.id
        );
        assert_eq!(
            tl.blame.total_ps(),
            tl.e2e_ps(),
            "request {}: blame buckets do not sum to e2e",
            tl.id
        );
    }
    for m in &report.worst_misses {
        let tl = obs
            .timelines
            .iter()
            .find(|t| t.id == m.id)
            .expect("every exemplar has a timeline");
        assert_eq!(m.blame, tl.blame, "exemplar blame diverged from timeline");
        assert_eq!(
            m.blame.total_ps(),
            tl.e2e_ps(),
            "exemplar {} blame does not sum to its e2e latency",
            m.id
        );
        assert!(m.missed_ttft || m.missed_tpot, "exemplar without a miss");
    }
    // The ring keeps the worst offenders: sorted by e2e, descending.
    assert!(report
        .worst_misses
        .windows(2)
        .all(|w| w[0].e2e_us >= w[1].e2e_us));
    // Open-loop overload means queue time dominates the worst miss.
    assert_eq!(
        report.worst_misses[0].blame.dominant(),
        inference::Phase::Queue,
        "open-loop misses should blame queueing: {:?}",
        report.worst_misses[0]
    );
}

/// Exemplars survive a JSON round trip: parse(to_json) reproduces the
/// integer blame exactly and re-serializes to the identical string.
#[test]
fn worst_misses_round_trip_through_json() {
    let (report, _, _) = observed_overload();
    assert!(!report.worst_misses.is_empty());
    for m in &report.worst_misses {
        let json = m.to_json();
        let parsed = inference::SloMiss::parse(&json)
            .unwrap_or_else(|| panic!("exemplar JSON failed to parse: {json}"));
        assert_eq!(parsed.id, m.id);
        assert_eq!(parsed.terminal, m.terminal);
        assert_eq!(parsed.missed_ttft, m.missed_ttft);
        assert_eq!(parsed.missed_tpot, m.missed_tpot);
        assert_eq!(parsed.blame, m.blame, "blame must round-trip exactly");
        assert_eq!(parsed.to_json(), json, "re-serialization is a fixed point");
    }
}

/// Timelines account for every request: terminal tallies match the
/// report's typed counts, and the Perfetto/JSON exports carry a track
/// per request.
#[test]
fn timelines_cover_every_terminal_and_match_the_report() {
    use inference::Terminal;
    let (report, obs, trace) = observed_overload();
    let count = |t: Terminal| obs.timelines.iter().filter(|tl| tl.terminal == t).count();
    assert_eq!(count(Terminal::Completed), report.completed);
    assert_eq!(count(Terminal::Shed), report.shed);
    assert_eq!(count(Terminal::Rejected), report.rejected);
    assert_eq!(count(Terminal::TimedOut), report.timed_out);
    assert_eq!(count(Terminal::Evicted), report.evicted);
    let json = obs.timelines_json();
    assert_eq!(
        json.matches("\"id\":").count(),
        trace.len(),
        "timeline JSON must cover every request"
    );
    let chrome = obs.timelines_chrome_json();
    for tl in &obs.timelines {
        assert!(
            chrome.contains(&format!("req {} (", tl.id)),
            "request {} missing from the Perfetto export",
            tl.id
        );
    }
}

/// The virtual-time telemetry series is well-formed: strictly
/// increasing sample times, utilization within [0, 1], and counter
/// deltas that reconstruct real collective work.
#[test]
fn telemetry_series_is_wellformed_and_accounts_for_work() {
    let (report, obs, _) = observed_overload();
    let sampler = obs.telemetry.as_ref().expect("sampler configured");
    assert!(!sampler.is_empty(), "sampler never fired");
    assert_eq!(sampler.dropped(), 0, "ring sized for the whole run");
    let samples: Vec<&sim::Sample> = sampler.samples().collect();
    assert!(
        samples.windows(2).all(|w| w[0].at < w[1].at),
        "sample times must be strictly increasing"
    );
    // Gauge 3 is serve.completed: non-decreasing, ending at most the
    // report's total (the final completions can land after the last
    // period boundary).
    let completed: Vec<u64> = samples.iter().map(|s| s.gauges[3]).collect();
    assert!(completed.windows(2).all(|w| w[0] <= w[1]));
    assert!(*completed.last().unwrap() <= report.completed as u64);
    // Counter 0 is ops.puts, recorded as per-interval deltas: decode
    // steps run real collectives, so the deltas must carry real work.
    let puts: u64 = samples.iter().map(|s| s.counters[0]).sum();
    assert!(puts > 0, "no collective work showed up in the series");
    let json = sampler.to_json();
    for (name, quoted) in [
        ("ops.puts", "\"ops.puts\""),
        ("serve.completed", "\"serve.completed\""),
        ("egress r0", "\"egress r0\""),
    ] {
        assert!(json.contains(quoted), "{name} missing from telemetry JSON");
    }
}

/// With engine tracing on, the serving loop mirrors its gauges into the
/// engine trace at each sample boundary, and the Chrome export renders
/// them as counter (`"ph":"C"`) tracks beside the collective spans —
/// one Perfetto load shows both.
#[test]
fn serving_gauges_land_in_the_engine_trace_as_counter_tracks() {
    use inference::{
        serve_trace_observed, synthetic_trace, ModelConfig, MscclppBackend, ServeConfig,
        ServingEngine, SloSpec,
    };
    use sim::SamplerConfig;
    let mut engine = ServingEngine::new(EnvKind::A100_80G, ModelConfig::llama2_13b(), 16 * 1024);
    engine.engine_mut().enable_tracing();
    let backend = MscclppBackend::new();
    let trace = synthetic_trace(8, 96, 8, 7_000.0, 9);
    let mut cfg = ServeConfig::slo_aware(4, SloSpec::new(100_000.0, 12_000.0));
    cfg.seed = 9;
    cfg.observe.telemetry = Some(SamplerConfig::new(500.0, 1024));
    serve_trace_observed(&mut engine, &backend, &trace, &cfg).expect("traced serving run");
    let t = engine.engine_mut().take_trace().expect("tracing enabled");
    let samples = t
        .events()
        .iter()
        .filter(|ev| {
            matches!(ev.kind, sim::TraceEventKind::Counter(_))
                && t.label(ev.label).starts_with("serve.")
        })
        .count();
    assert!(
        samples > 0,
        "no serve.* counter samples in the engine trace"
    );
    let json = t.to_chrome_json(&[]);
    for name in ["serve.queue_depth", "serve.running", "serve.kv_used_blocks"] {
        assert!(json.contains(name), "{name} counter track missing");
    }
    assert!(json.contains("\"ph\":\"C\""), "counter events missing");
}

/// Switching observability off is inert: the simulation is bit-identical
/// (only the exemplar ring, which needs tracing, disappears) and no
/// timelines or telemetry are recorded.
#[test]
fn disabling_observability_does_not_perturb_serving() {
    use inference::{
        serve_trace_observed, synthetic_trace, ModelConfig, MscclppBackend, ObserveConfig,
        ServeConfig, ServingEngine, SloSpec,
    };
    let run = |observe: ObserveConfig| {
        let mut engine =
            ServingEngine::new(EnvKind::A100_80G, ModelConfig::llama2_13b(), 16 * 1024);
        let backend = MscclppBackend::new();
        let trace = synthetic_trace(40, 96, 12, 7_000.0, 9);
        let mut cfg = ServeConfig::permissive(8);
        cfg.slo = SloSpec::new(100_000.0, 12_000.0);
        cfg.seed = 9;
        cfg.observe = observe;
        serve_trace_observed(&mut engine, &backend, &trace, &cfg).expect("serving run")
    };
    let (mut on, obs_on) = run(ObserveConfig::default());
    let (off, obs_off) = run(ObserveConfig {
        rtrace: false,
        telemetry: None,
    });
    assert!(obs_off.timelines.is_empty());
    assert!(obs_off.telemetry.is_none());
    assert!(!obs_on.timelines.is_empty());
    assert!(!on.worst_misses.is_empty());
    on.worst_misses.clear();
    assert_eq!(on, off, "observability changed the simulation");
}

// ---- One JSON policy for every artifact (DESIGN.md §7) ----

/// Every string a JSON reader can find in `v`, decoded, in order.
fn json_strings(v: &str) -> Vec<String> {
    match v.trim_start().as_bytes().first() {
        Some(b'"') => vec![sim::json::unquote(v.trim()).expect("well-formed string")],
        Some(b'[' | b'{') => sim::json::items(v).flat_map(json_strings).collect(),
        _ => Vec::new(),
    }
}

/// The process names of a Chrome-trace document by pid, after checking
/// that every event sits on a named process.
fn perfetto_processes(doc: &str) -> std::collections::BTreeMap<u32, String> {
    use sim::json;
    let events: Vec<&str> = json::items(doc).collect();
    let named: std::collections::BTreeMap<u32, String> = events
        .iter()
        .filter(|ev| json::field(ev, "name") == Some("\"process_name\""))
        .map(|ev| {
            let args = json::field(ev, "args").expect("metadata args");
            let name = json::unquote(json::field(args, "name").expect("process name"));
            (json::get(ev, "pid").expect("pid"), name.expect("string"))
        })
        .collect();
    for ev in &events {
        let pid: u32 = json::get(ev, "pid").expect("every event has a pid");
        assert!(named.contains_key(&pid), "event on an unnamed pid: {ev}");
    }
    named
}

/// Labels carrying `"`, `\`, a newline and U+0001 (a process label, a
/// counter, a gauge and a resource label) come out of the engine trace,
/// both telemetry exports and the bench report escaped, with no raw
/// control byte, and read back exactly. Each Perfetto document sits on
/// its own pid: engine 0 and critical path 1, requests 2, telemetry 3.
#[test]
fn hostile_labels_export_as_valid_json_on_fixed_pids() {
    use sim::{Ctx, Duration, HighlightSegment, Process, ResourceId, Step, Time};
    use sim::{Sampler, SamplerConfig};

    let name = |kind: &str| format!("{kind} rank \"0\"\\\nproxy\u{1}");
    struct Hostile {
        link: ResourceId,
        label: String,
        counter: String,
        left: u32,
    }
    impl Process<()> for Hostile {
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
            if self.left == 0 {
                return Step::Done;
            }
            self.left -= 1;
            ctx.acquire(self.link, Duration::from_us(5.0));
            ctx.count(&self.counter, 1);
            ctx.trace_counter(&self.counter, 1);
            Step::Yield(Duration::from_us(10.0))
        }
        fn label(&self) -> String {
            self.label.clone()
        }
    }
    let mut e = Engine::new(());
    e.enable_tracing();
    let link = e.alloc_resource();
    e.label_resource(link, &name("link"));
    let mut sampler = Sampler::new(SamplerConfig::new(10.0, 4), &[name("gauge").as_str()]);
    sampler.track_counter(e.metrics_mut(), &name("counter"));
    sampler.track_resources(e.metrics());
    e.spawn(Hostile {
        link,
        label: name("process"),
        counter: name("counter"),
        left: 1,
    });
    e.run().unwrap();
    sampler.sample(e.now(), e.metrics(), &[7]);
    assert_eq!(sampler.len(), 1);

    let highlight = [HighlightSegment {
        name: name("path"),
        from: Time::ZERO,
        to: e.now(),
        proc_index: 0,
    }];
    let trace = e
        .take_trace()
        .expect("tracing enabled")
        .to_chrome_json(&highlight);
    let run = bench::report::StackRun {
        stack: name("stack"),
        bytes: 1,
        latency_us: 1.0,
        verified: true,
        semantics_verified: true,
        counters: vec![(name("counter"), 1)],
        links: vec![bench::report::LinkStat {
            label: name("link"),
            busy_us: 0.5,
            bytes: 1,
            acquires: 1,
            queue_delay_us: 0.0,
            utilization: 0.5,
        }],
    };
    let target = bench::Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    let report = bench::report::runs_to_json(&name("title"), target, None, &[run]);
    let docs = [
        (&trace, vec!["process", "counter", "path"]),
        (&sampler.to_json(), vec!["counter", "gauge", "link"]),
        (
            &sampler.to_chrome_json(),
            vec!["counter", "gauge", "util link"],
        ),
        (&report, vec!["title", "stack", "counter", "link"]),
    ];
    for (doc, labels) in docs {
        assert!(
            !doc.trim_end().bytes().any(|b| b < 0x20),
            "raw control byte in {doc}"
        );
        let strings = json_strings(doc);
        for kind in labels {
            assert!(
                strings.contains(&name(kind)),
                "{kind} label did not round-trip: {strings:?}"
            );
        }
    }

    let processes = |doc: &str| perfetto_processes(doc).into_iter().collect::<Vec<_>>();
    let named = |pid: u32, name: &str| (pid, name.to_owned());
    assert_eq!(
        processes(&trace),
        [named(0, "engine"), named(1, "critical-path")]
    );
    assert_eq!(
        processes(&sampler.to_chrome_json()),
        [named(3, "telemetry")]
    );
    let mut tracer = inference::RequestTracer::new(1, true);
    tracer.turn_away(0, 0, 1_000, inference::Terminal::Shed);
    let obs = inference::ServeObservation {
        timelines: tracer.into_timelines(),
        telemetry: None,
    };
    assert_eq!(
        processes(&obs.timelines_chrome_json()),
        [named(2, "requests")]
    );
}
