//! SLO-aware serving under overload (DESIGN.md §16).
//!
//! The mechanized overload demo behind the PR's acceptance criteria:
//!
//! * with admission enabled, goodput at ≥2× the knee arrival rate stays
//!   within 10% of the knee-rate goodput (the policy sheds load instead
//!   of letting the queue destroy every request's TTFT);
//! * the admission-disabled control shows p99 TTFT growing with trace
//!   length — the open-loop collapse the policy exists to prevent;
//! * request conservation: every request reaches exactly one typed
//!   terminal state, for every seed and rate;
//! * an unobserved communicator epoch change surfaces as the typed
//!   [`mscclpp::Error::EpochChanged`], not a silent wrong answer, and a
//!   zero batch limit or a KV block pool too large for its block ids as
//!   [`mscclpp::Error::InvalidArgument`].

use std::cell::Cell;

use hw::{BufferId, DataType, EnvKind, Machine, Rank};
use inference::{
    serve_trace_observed, synthetic_trace, CommBackend, KvConfig, ModelConfig, MscclppBackend,
    Request, ServeConfig, ServingEngine, SloSpec,
};
use mscclpp::KernelTiming;
use sim::{fnv1a, Engine};

fn engine() -> ServingEngine {
    ServingEngine::new(EnvKind::A100_80G, ModelConfig::llama2_13b(), 16 * 1024)
}

/// Budgets loose enough for an uncongested engine (decode steps run
/// ~4–5 ms at batch 8) and tight enough that queue collapse blows them.
fn slo() -> SloSpec {
    SloSpec::new(100_000.0, 12_000.0)
}

#[test]
fn every_request_reaches_exactly_one_terminal_state() {
    // Seeds and rates spanning idle, loaded, and heavily overloaded,
    // against a deliberately tiny KV pool so reservations, shed, and
    // eviction paths all fire.
    for (seed, interarrival_us) in [(1u64, 1_500.0f64), (2, 6_000.0), (5, 20_000.0)] {
        let trace = synthetic_trace(24, 96, 12, interarrival_us, seed);
        let mut engine = engine();
        let backend = MscclppBackend::new();
        let mut cfg = ServeConfig::slo_aware(4, slo());
        cfg.kv = KvConfig {
            total_blocks: 32,
            ..KvConfig::default()
        };
        cfg.timeout_us = 400_000.0;
        cfg.seed = seed;
        let (r, _) = serve_trace_observed(&mut engine, &backend, &trace, &cfg).unwrap();
        assert_eq!(
            r.completed + r.shed + r.rejected + r.timed_out + r.evicted,
            trace.len(),
            "conservation violated at seed {seed} rate {interarrival_us}: {r:?}"
        );
        assert!(r.completed > 0, "seed {seed}: something must complete");
        assert!(
            r.kv.balances(),
            "seed {seed}: KV accounting out of balance: {:?}",
            r.kv
        );
    }
}

#[test]
fn admission_holds_goodput_within_10pct_at_twice_the_knee() {
    let run = |interarrival_us: f64| {
        let mut engine = engine();
        let backend = MscclppBackend::new();
        let trace = synthetic_trace(40, 96, 12, interarrival_us, 9);
        let mut cfg = ServeConfig::slo_aware(8, slo());
        // A shallow queue keeps admitted requests' waits inside the
        // TTFT budget; the rest is rejected or shed at the door.
        cfg.admission.max_queue_depth = 5;
        cfg.seed = 9;
        let (r, _) = serve_trace_observed(&mut engine, &backend, &trace, &cfg).unwrap();
        assert_eq!(
            r.completed + r.shed + r.rejected + r.timed_out + r.evicted,
            trace.len(),
            "conservation violated at {interarrival_us} us: {r:?}"
        );
        assert!(r.goodput > 0.0, "no goodput at {interarrival_us} us: {r:?}");
        assert!(r.kv.balances(), "KV accounting out of balance: {:?}", r.kv);
        assert_eq!(engine.engine_mut().clamped_past_events(), 0);
        r
    };
    // This engine serves ~77 req/s at batch 8 (~12.5 ms per request:
    // decode throughput ≈ 920 tok/s over ~12-token generations), so
    // ~14 ms mean interarrival sits at the knee of the rate→goodput
    // curve; 7 ms is 2× that arrival rate — solidly overloaded.
    let knee = run(14_000.0);
    let overload = run(7_000.0);
    assert!(knee.slo_met > 0, "knee run must meet SLOs: {knee:?}");
    assert!(
        overload.shed + overload.rejected > 0,
        "2x-knee arrivals must trigger load shedding: {overload:?}"
    );
    assert!(
        overload.goodput >= knee.goodput * 0.9,
        "goodput collapsed under overload: knee {:.1}/s vs 2x {:.1}/s",
        knee.goodput,
        overload.goodput
    );
    // The exact 2x-knee report, pinned: TTFT percentiles, goodput and
    // every terminal count are virtual time, so any model change moves
    // this digest.
    assert_eq!(
        fnv1a(format!("{overload:?}").as_bytes()),
        0x9d8d_8183_4a03_4fb3,
        "2x-knee report moved: {overload:?}"
    );
}

#[test]
fn without_admission_p99_ttft_grows_with_trace_length() {
    // The open-loop control: admit everything at ~2.5x the service
    // rate and the queue — and with it TTFT — grows without bound as
    // the trace lengthens.
    let run = |requests: usize| {
        let mut engine = engine();
        let backend = MscclppBackend::new();
        let trace = synthetic_trace(requests, 96, 12, 2_500.0, 13);
        let cfg = ServeConfig::permissive(8);
        serve_trace_observed(&mut engine, &backend, &trace, &cfg)
            .unwrap()
            .0
    };
    let short = run(16);
    let long = run(32);
    assert_eq!(short.completed, 16, "permissive mode completes everything");
    assert_eq!(long.completed, 32);
    assert!(
        long.ttft.p99_us > short.ttft.p99_us * 1.3,
        "p99 TTFT must grow with trace length without admission: \
         {:.0}us (16 reqs) vs {:.0}us (32 reqs)",
        short.ttft.p99_us,
        long.ttft.p99_us
    );
}

/// A backend whose communicator epoch advances behind the serving
/// loop's back (as if an external agent shrank it): the loop must
/// surface the typed [`mscclpp::Error::EpochChanged`], never attribute
/// results to the wrong epoch.
struct EpochFlipBackend {
    inner: MscclppBackend,
    calls: Cell<u64>,
}

impl CommBackend for EpochFlipBackend {
    fn name(&self) -> &'static str {
        "epoch-flip"
    }

    fn all_reduce(
        &self,
        engine: &mut Engine<Machine>,
        bufs: &[BufferId],
        count: usize,
        dtype: DataType,
    ) -> mscclpp::Result<KernelTiming> {
        self.calls.set(self.calls.get() + 1);
        self.inner.all_reduce(engine, bufs, count, dtype)
    }

    fn shrink(
        &self,
        engine: &mut Engine<Machine>,
        dead: &[Rank],
    ) -> mscclpp::Result<Option<Vec<Rank>>> {
        self.inner.shrink(engine, dead)
    }

    fn epoch(&self) -> u64 {
        u64::from(self.calls.get() > 0)
    }
}

#[test]
fn unobserved_epoch_change_is_a_typed_error() {
    let mut engine = engine();
    let backend = EpochFlipBackend {
        inner: MscclppBackend::new(),
        calls: Cell::new(0),
    };
    let trace = vec![Request {
        prompt: 16,
        generate: 1,
        arrival_us: 0.0,
        prefix: None,
    }];
    let err = serve_trace_observed(&mut engine, &backend, &trace, &ServeConfig::permissive(4))
        .expect_err("epoch changed unobserved: the run must not report success");
    match err {
        mscclpp::Error::EpochChanged { observed, current } => {
            assert_eq!(observed, 0);
            assert_eq!(current, 1);
        }
        other => panic!("expected EpochChanged, got {other}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("epoch"), "{msg}");
}

/// A zero batch limit reached through the public `ServeConfig` is a typed
/// error, not a panic, and runs nothing.
#[test]
fn zero_max_batch_is_a_typed_error() {
    let mut engine = engine();
    let trace = synthetic_trace(4, 16, 2, 1_000.0, 1);
    let err = serve_trace_observed(
        &mut engine,
        &MscclppBackend::new(),
        &trace,
        &ServeConfig::permissive(0),
    )
    .expect_err("max_batch 0 admits nothing");
    assert!(
        matches!(&err, mscclpp::Error::InvalidArgument(m) if m.contains("max_batch")),
        "{err}"
    );
    assert_eq!(engine.engine_mut().now().as_ps(), 0, "nothing ran");
}

/// A KV pool of 2^32 blocks, which block ids cannot name, is a typed
/// error refused before the pool is built, not a panic.
#[test]
fn oversized_kv_pool_is_a_typed_error() {
    let mut engine = engine();
    let trace = synthetic_trace(4, 16, 2, 1_000.0, 1);
    let mut cfg = ServeConfig::permissive(8);
    cfg.kv = KvConfig {
        total_blocks: 1 << 32,
        ..KvConfig::default()
    };
    let err = serve_trace_observed(&mut engine, &MscclppBackend::new(), &trace, &cfg)
        .expect_err("2^32 blocks have no u32 ids");
    assert!(
        matches!(&err, mscclpp::Error::InvalidArgument(m) if m.contains("TooManyBlocks")),
        "{err}"
    );
    assert_eq!(engine.engine_mut().now().as_ps(), 0, "nothing ran");
}
