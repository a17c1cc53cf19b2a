//! Mutation-testing harness for the semantic dataflow verifier: prove
//! the prover. For every built-in algorithm × topology (plus a shrink
//! subset from the elastic-recovery suite), compile the real plan via
//! `CollComm::plan_*_with`, apply each seeded mutation operator from
//! `commverify::mutate`, and require that the verifier kills every
//! mutant — reports at least one finding — while passing the unmutated
//! plan clean.
//!
//! A mutant "killed" by a transport-level finding (signal imbalance,
//! deadlock, race) is an honest kill and is recorded under that class;
//! the suite additionally asserts that the *semantic* classes
//! (missing/duplicate/misplaced/stale) account for a healthy share, so
//! the dataflow pass is doing work the transport checks cannot.
//!
//! It is also the verifier's exact oracle: the mutant count, the
//! kill-class histogram and an FNV-1a digest of every mutant's full
//! report are pinned, so a refactor of the model, the race pass or the
//! semantic pass must leave every finding bit-identical.

use collective::{
    AllGatherAlgo, AllReduceAlgo, AllToAllAlgo, BroadcastAlgo, CollComm, PeerOrder,
    RecoveryOutcome, ReduceScatterAlgo, ScratchReuse,
};
use commverify::{Checks, CollectiveSpec, VerifyError};
use hw::{BufferId, DataType, EnvKind, Machine, Rank, ReduceOp};
use mscclpp::Kernel;
use sim::{fnv1a, Duration, Engine, FaultPlan, Time};

const N: usize = 8;
const COUNT: usize = 4096;

fn engine(kind: EnvKind, nodes: usize) -> Engine<Machine> {
    let mut e = Engine::new(Machine::new(kind.spec(nodes)));
    hw::wire(&mut e);
    e
}

fn alloc_n(e: &mut Engine<Machine>, n: usize, bytes: usize) -> Vec<BufferId> {
    (0..n)
        .map(|r| e.world_mut().pool_mut().alloc(Rank(r), bytes))
        .collect()
}

/// One mutant's fate: which plan it came from, which operator produced
/// it, the finding class that killed it (`None` = survivor) and the
/// verifier's full report.
struct Outcome {
    plan: &'static str,
    operator: &'static str,
    mutant: String,
    killed_by: Option<&'static str>,
    report: String,
}

fn class_name(f: &VerifyError) -> &'static str {
    match f {
        VerifyError::OutOfBounds { .. } => "out-of-bounds",
        VerifyError::SignalWaitImbalance { .. } => "signal-imbalance",
        VerifyError::DeadlockCycle { .. } => "deadlock",
        VerifyError::Race { .. } => "race",
        VerifyError::OrphanSignal { .. } => "orphan-signal",
        VerifyError::UnflushedPortPut { .. } => "unflushed-put",
        VerifyError::MissingContribution { .. } => "missing-contribution",
        VerifyError::DuplicateContribution { .. } => "duplicate-contribution",
        VerifyError::WrongPlacement { .. } => "wrong-placement",
        VerifyError::StaleOutput { .. } => "stale-output",
    }
}

const SEMANTIC: [&str; 4] = [
    "missing-contribution",
    "duplicate-contribution",
    "wrong-placement",
    "stale-output",
];

/// Mutates `kernels` with every applicable operator and records each
/// mutant's fate under the full verifier (transport + semantics).
fn run_plan(
    plan: &'static str,
    e: &Engine<Machine>,
    kernels: &[Kernel],
    spec: &CollectiveSpec,
    seed: u64,
    results: &mut Vec<Outcome>,
) {
    let checks = Checks::all();
    let base = commverify::analyze_collective(kernels, e.world().pool(), &checks, spec);
    assert!(
        base.is_clean(),
        "{plan}: unmutated plan must verify clean, got {:?}",
        base.findings
    );
    let mutants = commverify::mutate::mutants(kernels, seed);
    assert!(
        !mutants.is_empty(),
        "{plan}: no mutation operator applied to the plan"
    );
    for m in mutants {
        let report = commverify::analyze_collective(&m.kernels, e.world().pool(), &checks, spec);
        results.push(Outcome {
            plan,
            operator: m.operator,
            mutant: m.name,
            killed_by: report.findings.first().map(class_name),
            report: report.to_string(),
        });
    }
}

/// The full harness: every collective family on its natural topologies,
/// plus shrink-rebuilt plans from the elastic-recovery path.
#[test]
fn mutation_harness_kills_every_mutant() {
    let mut results: Vec<Outcome> = Vec::new();
    let bytes = COUNT * 4;

    // --- AllReduce, single node (A100). ---
    let ar_algos: [(&'static str, AllReduceAlgo); 5] = [
        ("ar/1pa-ll", AllReduceAlgo::OnePhaseLl),
        (
            "ar/2pa-ll",
            AllReduceAlgo::TwoPhaseLl {
                reuse: ScratchReuse::Rotate,
                order: PeerOrder::Staggered,
            },
        ),
        (
            "ar/2pa-hb",
            AllReduceAlgo::TwoPhaseHb {
                order: PeerOrder::Staggered,
            },
        ),
        ("ar/2pa-port", AllReduceAlgo::TwoPhasePort),
        ("ar/ring", AllReduceAlgo::Ring),
    ];
    for (i, (name, algo)) in ar_algos.into_iter().enumerate() {
        let mut e = engine(EnvKind::A100_40G, 1);
        let ins = alloc_n(&mut e, N, bytes);
        let outs = alloc_n(&mut e, N, bytes);
        let comm = CollComm::new();
        let (kernels, spec) = comm
            .plan_all_reduce_with(
                &mut e,
                &ins,
                &outs,
                COUNT,
                DataType::F32,
                ReduceOp::Sum,
                algo,
            )
            .unwrap_or_else(|err| panic!("{name}: plan failed: {err}"));
        run_plan(name, &e, &kernels, &spec, 11 + i as u64, &mut results);
    }

    // --- AllReduce, NVSwitch multimem (H100). ---
    {
        let mut e = engine(EnvKind::H100, 1);
        let ins = alloc_n(&mut e, N, bytes);
        let outs = alloc_n(&mut e, N, bytes);
        let comm = CollComm::new();
        let (kernels, spec) = comm
            .plan_all_reduce_with(
                &mut e,
                &ins,
                &outs,
                COUNT,
                DataType::F32,
                ReduceOp::Sum,
                AllReduceAlgo::TwoPhaseSwitch,
            )
            .expect("switch plan");
        run_plan("ar/2pa-switch", &e, &kernels, &spec, 21, &mut results);
    }

    // --- AllReduce, hierarchical two-node. ---
    {
        let mut e = engine(EnvKind::A100_40G, 2);
        let n2 = 2 * N;
        let ins = alloc_n(&mut e, n2, bytes);
        let outs = alloc_n(&mut e, n2, bytes);
        let comm = CollComm::new();
        let (kernels, spec) = comm
            .plan_all_reduce_with(
                &mut e,
                &ins,
                &outs,
                COUNT,
                DataType::F32,
                ReduceOp::Sum,
                AllReduceAlgo::HierHb,
            )
            .expect("hier-hb plan");
        run_plan("ar/hier-hb", &e, &kernels, &spec, 22, &mut results);
    }

    // --- AllGather. ---
    let ag_algos: [(&'static str, AllGatherAlgo); 3] = [
        ("ag/ll", AllGatherAlgo::AllPairsLl),
        ("ag/hb", AllGatherAlgo::AllPairsHb),
        ("ag/port", AllGatherAlgo::AllPairsPort),
    ];
    for (i, (name, algo)) in ag_algos.into_iter().enumerate() {
        let mut e = engine(EnvKind::A100_40G, 1);
        let ins = alloc_n(&mut e, N, bytes);
        let outs = alloc_n(&mut e, N, bytes * N);
        let comm = CollComm::new();
        let (kernels, spec) = comm
            .plan_all_gather_with(&mut e, &ins, &outs, COUNT, DataType::F32, algo)
            .unwrap_or_else(|err| panic!("{name}: plan failed: {err}"));
        run_plan(name, &e, &kernels, &spec, 31 + i as u64, &mut results);
    }

    // --- ReduceScatter. ---
    let rs_algos: [(&'static str, ReduceScatterAlgo); 2] = [
        ("rs/ll", ReduceScatterAlgo::AllPairsLl),
        ("rs/hb", ReduceScatterAlgo::AllPairsHb),
    ];
    for (i, (name, algo)) in rs_algos.into_iter().enumerate() {
        let mut e = engine(EnvKind::A100_40G, 1);
        let ins = alloc_n(&mut e, N, bytes);
        let outs = alloc_n(&mut e, N, bytes);
        let comm = CollComm::new();
        let (kernels, spec) = comm
            .plan_reduce_scatter_with(
                &mut e,
                &ins,
                &outs,
                COUNT,
                DataType::F32,
                ReduceOp::Sum,
                algo,
            )
            .unwrap_or_else(|err| panic!("{name}: plan failed: {err}"));
        run_plan(name, &e, &kernels, &spec, 41 + i as u64, &mut results);
    }

    // --- AllToAll. ---
    let a2a_algos: [(&'static str, AllToAllAlgo); 2] = [
        ("a2a/ll", AllToAllAlgo::AllPairsLl),
        ("a2a/hb", AllToAllAlgo::AllPairsHb),
    ];
    for (i, (name, algo)) in a2a_algos.into_iter().enumerate() {
        let mut e = engine(EnvKind::A100_40G, 1);
        let ins = alloc_n(&mut e, N, bytes * N);
        let outs = alloc_n(&mut e, N, bytes * N);
        let comm = CollComm::new();
        let (kernels, spec) = comm
            .plan_all_to_all_with(&mut e, &ins, &outs, COUNT, DataType::F32, algo)
            .unwrap_or_else(|err| panic!("{name}: plan failed: {err}"));
        run_plan(name, &e, &kernels, &spec, 51 + i as u64, &mut results);
    }

    // --- Broadcast (root 2, direct puts). ---
    {
        let mut e = engine(EnvKind::A100_40G, 1);
        let ins = alloc_n(&mut e, N, bytes);
        let outs = alloc_n(&mut e, N, bytes);
        let comm = CollComm::new();
        let (kernels, spec) = comm
            .plan_broadcast_with(
                &mut e,
                &ins,
                &outs,
                COUNT,
                DataType::F32,
                Rank(2),
                BroadcastAlgo::Direct,
            )
            .expect("broadcast plan");
        run_plan("bc/direct", &e, &kernels, &spec, 61, &mut results);
    }

    // --- Shrink-rebuilt plans (the elastic-recovery path): kill rank 3
    // mid-collective, shrink onto the survivors, then mutate the plan
    // the shrunken epoch would launch. ---
    {
        let victim = 3;
        let mut e = engine(EnvKind::A100_40G, 1);
        e.set_fault_plan(
            FaultPlan::new(7)
                .rank_down(victim, Time::from_ps(1_000_000))
                .with_wait_timeout(Duration::from_us(300.0)),
        );
        let ins = alloc_n(&mut e, N, bytes);
        let outs = alloc_n(&mut e, N, bytes);
        let comm = CollComm::new();
        comm.all_reduce_with(
            &mut e,
            &ins,
            &outs,
            COUNT,
            DataType::F32,
            ReduceOp::Sum,
            AllReduceAlgo::TwoPhaseHb {
                order: PeerOrder::Staggered,
            },
        )
        .expect_err("the dead rank must surface as a failure");
        let recovery = comm.shrink(&mut e, &[]).expect("shrink");
        assert_eq!(recovery.outcome, RecoveryOutcome::Replayed);
        let (kernels, spec) = comm
            .plan_all_reduce_with(
                &mut e,
                &ins,
                &outs,
                COUNT,
                DataType::F32,
                ReduceOp::Sum,
                AllReduceAlgo::TwoPhaseHb {
                    order: PeerOrder::Staggered,
                },
            )
            .expect("shrunken plan");
        assert_eq!(spec.members.len(), N - 1, "spec spans the survivors");
        run_plan("shrunk/ar-2pa-hb", &e, &kernels, &spec, 71, &mut results);
    }
    {
        let victim = 5;
        let mut e = engine(EnvKind::A100_40G, 1);
        e.set_fault_plan(
            FaultPlan::new(7)
                .rank_down(victim, Time::from_ps(1_000_000))
                .with_wait_timeout(Duration::from_us(300.0)),
        );
        let ins = alloc_n(&mut e, N, bytes);
        let outs = alloc_n(&mut e, N, bytes * N);
        let comm = CollComm::new();
        comm.all_gather_with(
            &mut e,
            &ins,
            &outs,
            COUNT,
            DataType::F32,
            AllGatherAlgo::AllPairsHb,
        )
        .expect_err("the dead rank must surface as a failure");
        let recovery = comm.shrink(&mut e, &[]).expect("shrink");
        assert_eq!(recovery.outcome, RecoveryOutcome::Replayed);
        let (kernels, spec) = comm
            .plan_all_gather_with(
                &mut e,
                &ins,
                &outs,
                COUNT,
                DataType::F32,
                AllGatherAlgo::AllPairsHb,
            )
            .expect("shrunken plan");
        assert_eq!(spec.members.len(), N - 1, "spec spans the survivors");
        run_plan("shrunk/ag-hb", &e, &kernels, &spec, 72, &mut results);
    }

    // --- The verdict. ---
    let survivors: Vec<String> = results
        .iter()
        .filter(|o| o.killed_by.is_none())
        .map(|o| format!("{} [{}] {}", o.plan, o.operator, o.mutant))
        .collect();
    let total = results.len();
    let killed = total - survivors.len();
    let mut operators: Vec<&str> = results.iter().map(|o| o.operator).collect();
    operators.sort_unstable();
    operators.dedup();
    let semantic_kills = results
        .iter()
        .filter(|o| o.killed_by.is_some_and(|c| SEMANTIC.contains(&c)))
        .count();

    let mut by_class: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for o in &results {
        if let Some(c) = o.killed_by {
            *by_class.entry(c).or_insert(0) += 1;
        }
    }
    eprintln!(
        "mutation harness: {killed}/{total} killed across {} operators; kill classes: {by_class:?}",
        operators.len()
    );

    assert_eq!(total, 68, "the harness generates exactly 68 mutants");
    assert!(
        operators.len() >= 5,
        "need all 5 operator families to fire, got {operators:?}"
    );
    assert!(
        semantic_kills > 0,
        "at least one mutant must die to the semantic pass specifically \
         (else the dataflow checker proved nothing the transport checks \
          didn't already)"
    );
    assert!(
        survivors.is_empty(),
        "kill rate {killed}/{total}: surviving mutants (each is a plan \
         corruption the verifier waved through):\n  {}",
        survivors.join("\n  ")
    );

    // --- The exact oracle: every finding, pinned. A refactor of the
    // model, the race pass or the semantic pass must leave each mutant's
    // full report byte-identical, not merely still killed. ---
    let histogram: Vec<(&str, usize)> = by_class.into_iter().collect();
    assert_eq!(
        histogram,
        [
            ("duplicate-contribution", 9),
            ("missing-contribution", 4),
            ("out-of-bounds", 2),
            ("race", 15),
            ("signal-imbalance", 16),
            ("stale-output", 14),
            ("wrong-placement", 8),
        ],
        "kill-class histogram moved"
    );
    let transcript: String = results
        .iter()
        .map(|o| format!("{} [{}] {}\n{}\n", o.plan, o.operator, o.mutant, o.report))
        .collect();
    assert_eq!(
        (fnv1a(transcript.as_bytes()), transcript.len()),
        (0x3696_28d5_2edd_0cd1, 35_620),
        "a mutant's full verifier report changed:\n{transcript}"
    );
}
