//! Cross-validation of the static verifier against the dynamic
//! vector-clock sanitizer: a seeded racy plan must produce the *same*
//! offending instruction pair from both, and the repaired plan must be
//! clean under both.

use commverify::VerifyError;
use hw::{EnvKind, Machine, Rank};
use mscclpp::{Kernel, KernelBuilder, Overheads, Protocol, Setup};
use sim::Engine;

fn engine() -> Engine<Machine> {
    let mut e = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
    hw::wire(&mut e);
    e
}

/// Builds the seeded racy plan (and its fixed twin when `wait` is set):
/// rank 0 puts 256 B into rank 1's buffer while rank 1 overwrites the
/// same range, with or without the ordering wait.
fn plan(engine: &mut Engine<Machine>, wait: bool) -> Vec<Kernel> {
    let mut setup = Setup::new(engine);
    let b0 = setup.alloc(Rank(0), 1024);
    let b1 = setup.alloc(Rank(1), 1024);
    let s1 = setup.alloc(Rank(1), 1024);
    let (ch0, ch1) = setup
        .memory_channel_pair(Rank(0), b0, b1, Rank(1), b1, b0, Protocol::LL)
        .unwrap();

    let mut k0 = KernelBuilder::new(Rank(0));
    k0.block(0).put(&ch0, 0, 0, 256);
    let mut k1 = KernelBuilder::new(Rank(1));
    if wait {
        k1.block(0).wait_data(&ch1).copy(s1, 0, b1, 0, 256);
    } else {
        k1.block(0).copy(s1, 0, b1, 0, 256);
    }
    vec![k0.build(), k1.build()]
}

/// Builds the source-reuse plan (and its fixed twin when `flush_first`
/// is set): rank 0 port-puts 256 B of its buffer to rank 1, then
/// overwrites that source range, flushing the port channel after the
/// overwrite or before it. Only the flush orders the proxy's copy before
/// the overwrite.
fn port_reuse(engine: &mut Engine<Machine>, flush_first: bool) -> Vec<Kernel> {
    let mut setup = Setup::new(engine);
    let b0 = setup.alloc(Rank(0), 1024);
    let s0 = setup.alloc(Rank(0), 1024);
    let b1 = setup.alloc(Rank(1), 1024);
    let (ch0, _ch1) = setup
        .port_channel_pair(Rank(0), b0, b1, Rank(1), b1, b0)
        .unwrap();

    let mut k0 = KernelBuilder::new(Rank(0));
    let mut block = k0.block(0);
    block.port_put(&ch0, 0, 0, 256);
    if flush_first {
        block.port_flush(&ch0).copy(s0, 0, b0, 0, 256);
    } else {
        block.copy(s0, 0, b0, 0, 256).port_flush(&ch0);
    }
    vec![k0.build()]
}

/// An instruction pair as (rank, tb, pc) tuples, order-normalised.
type Pair = [(usize, usize, usize); 2];

fn pair(a: (usize, usize, usize), b: (usize, usize, usize)) -> Pair {
    let mut p = [a, b];
    p.sort_unstable();
    p
}

/// Runs both tools over the plan `build` makes, each on a fresh engine.
/// Returns the racing pairs the static verifier reports (any other
/// finding fails the test), the racing pairs the sanitizer observes, and
/// the number of accesses the sanitizer checked.
fn cross_check(build: impl Fn(&mut Engine<Machine>) -> Vec<Kernel>) -> (Vec<Pair>, Vec<Pair>, u64) {
    let mut e = engine();
    let kernels = build(&mut e);
    let report = commverify::analyze_kernels(&kernels, e.world().pool());
    let statics = report
        .findings
        .iter()
        .map(|f| match f {
            VerifyError::Race { first, second, .. } => pair(
                (first.rank.0, first.tb, first.pc),
                (second.rank.0, second.tb, second.pc),
            ),
            other => panic!("expected only races, got: {other}"),
        })
        .collect();

    let mut e = engine();
    let kernels = build(&mut e);
    let (_, san) = mscclpp::run_kernels_sanitized(&mut e, &kernels, &Overheads::mscclpp()).unwrap();
    let dynamics = san
        .races
        .iter()
        .map(|r| {
            pair(
                (r.first.rank.0, r.first.tb, r.first.pc),
                (r.second.rank.0, r.second.tb, r.second.pc),
            )
        })
        .collect();
    (statics, dynamics, san.accesses_checked)
}

#[test]
fn static_and_dynamic_report_the_same_racing_pair() {
    let (statics, dynamics, _) = cross_check(|e| plan(e, false));
    assert_eq!(statics, [pair((0, 0, 0), (1, 0, 0))], "static verifier");
    assert_eq!(
        dynamics, statics,
        "static verifier and dynamic sanitizer disagree on the racing pair"
    );
}

#[test]
fn repaired_plan_is_clean_under_both() {
    let (statics, dynamics, checked) = cross_check(|e| plan(e, true));
    assert!(statics.is_empty(), "static: {statics:?}");
    assert!(dynamics.is_empty(), "dynamic: {dynamics:?}");
    assert!(checked > 0);
}

/// The proxy copies the put's source after the push, so overwriting the
/// source before `port_flush` races with the proxy's read. The sanitizer
/// gives each (block, port endpoint) its own proxy thread, as the static
/// model does, so both tools name the same pair.
#[test]
fn source_reuse_before_flush_races_under_both() {
    let (statics, dynamics, _) = cross_check(|e| port_reuse(e, false));
    assert_eq!(statics, [pair((0, 0, 0), (0, 0, 1))], "static verifier");
    assert_eq!(
        dynamics, statics,
        "static verifier and dynamic sanitizer disagree on the racing pair"
    );
}

#[test]
fn flush_before_reuse_is_clean_under_both() {
    let (statics, dynamics, checked) = cross_check(|e| port_reuse(e, true));
    assert!(statics.is_empty(), "static: {statics:?}");
    assert!(dynamics.is_empty(), "dynamic: {dynamics:?}");
    assert!(checked > 0);
}
