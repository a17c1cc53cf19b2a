//! Fault-injection sweep: runs MSCCL++ AllReduces, each proven by the
//! verifier before it runs, under deterministic fault plans and writes
//! `results/fault_sweep.json`.
//!
//! Three scenarios, mirroring the robustness claims in DESIGN.md §9:
//!
//! 1. **Transient flap sweep** (A100-40G, PortChannel 2PA, 4 MB): every
//!    NVLink port on GPU 0 flaps down for a window of 20 us – 2 ms. The
//!    CPU proxies retry with seeded exponential backoff; the collective
//!    completes and the latency penalty tracks the flap duration
//!    (`tests/chaos.rs` checks the bytes of such a run). The first point
//!    is run twice to demonstrate that the same seed + plan reproduces
//!    identical timings and counters.
//! 2. **Multimem switch death** (H100, 64 MB): the NVLS reduction tree
//!    dies permanently; the default selection re-plans from
//!    `TwoPhaseSwitch` onto the HB all-pairs variant.
//! 3. **Dead mesh link** (MI300X, 4 MB): one xGMI link dies permanently;
//!    the default selection re-plans onto the ring fallback whose
//!    Hamiltonian ordering routes around the dead link.

use bench::report::{observe, runs_to_json, write_results_json, StackRun};
use bench::{fmt_bytes, Pick, Stack, Target};
use collective::AllReduceAlgo;
use hw::EnvKind;
use sim::{json, FaultPlan, Time};

fn us(x: u64) -> Time {
    Time::from_ps(x * 1_000_000)
}

/// Flap every NVLink port of GPU 0 between `start` and `end`.
fn flap_gpu0(mut plan: FaultPlan, world: usize, start: Time, end: Time) -> FaultPlan {
    for dst in 1..world {
        plan = plan.link_flap(0, dst, start, end);
    }
    plan
}

fn print_run(label: &str, run: &StackRun, baseline_us: f64) {
    println!(
        "{label:>24}: {:>10.1} us ({:>5.2}x) | retries {:>4} recovered {:>4} replans {:>2}",
        run.latency_us,
        run.latency_us / baseline_us,
        run.counter("retry.attempts"),
        run.counter("retry.recovered"),
        run.counter("fault.replans"),
    );
}

fn main() {
    let mut scenarios: Vec<String> = Vec::new();

    // Scenario 1: transient flap sweep on the PortChannel stack.
    let t = Target {
        env: EnvKind::A100_40G,
        nodes: 1,
    };
    let bytes = 4 << 20;
    println!(
        "==== transient flap sweep (A100-40G, 2PA PortChannel, {}) ====",
        fmt_bytes(bytes)
    );
    let healthy_plan = FaultPlan::new(7);
    let port = Pick::AllReduce(AllReduceAlgo::TwoPhasePort);
    let healthy = observe(Stack::Mscclpp, t, bytes, port, Some(&healthy_plan));
    print_run("healthy", &healthy, healthy.latency_us);
    scenarios.push(runs_to_json(
        "flap sweep: healthy baseline",
        t,
        Some(&healthy_plan),
        std::slice::from_ref(&healthy),
    ));
    for (i, flap_us) in [20u64, 100, 500, 2000].into_iter().enumerate() {
        let plan = flap_gpu0(FaultPlan::new(7), t.world(), us(2), us(2 + flap_us));
        let run = observe(Stack::Mscclpp, t, bytes, port, Some(&plan));
        print_run(&format!("flap {flap_us} us"), &run, healthy.latency_us);
        assert!(
            run.counter("retry.attempts") > 0,
            "flap {flap_us} us never forced a proxy retry"
        );
        if i == 0 {
            // Determinism: the same seed + plan must reproduce the run
            // bit-exactly — timings and every counter.
            let again = observe(Stack::Mscclpp, t, bytes, port, Some(&plan));
            assert_eq!(run.latency_us, again.latency_us, "nondeterministic latency");
            assert_eq!(run.counters, again.counters, "nondeterministic counters");
            println!("{:>24}: identical latency and counters on rerun", "replay");
        }
        scenarios.push(runs_to_json(
            &format!("flap sweep: {flap_us} us"),
            t,
            Some(&plan),
            &[run],
        ));
    }

    // Scenario 2: the multimem switch dies; selection degrades to HB.
    let t = Target {
        env: EnvKind::H100,
        nodes: 1,
    };
    let bytes = 64 << 20;
    println!(
        "\n==== multimem death (H100, {}): TwoPhaseSwitch -> TwoPhaseHb ====",
        fmt_bytes(bytes)
    );
    let healthy = observe(Stack::Mscclpp, t, bytes, Pick::Default, Some(&healthy_plan));
    print_run("healthy (switch)", &healthy, healthy.latency_us);
    scenarios.push(runs_to_json(
        "multimem death: healthy baseline",
        t,
        None,
        std::slice::from_ref(&healthy),
    ));
    let plan = FaultPlan::new(7).multimem_down_forever(Time::ZERO);
    let run = observe(Stack::Mscclpp, t, bytes, Pick::Default, Some(&plan));
    print_run("multimem dead (hb)", &run, healthy.latency_us);
    assert!(run.counter("fault.replans") > 0, "no re-plan recorded");
    assert_eq!(run.counter("instr.switch_reduce"), 0);
    scenarios.push(runs_to_json(
        "multimem death: degraded",
        t,
        Some(&plan),
        &[run],
    ));

    // Scenario 3: a mesh link dies; selection degrades to the ring.
    let t = Target {
        env: EnvKind::MI300X,
        nodes: 1,
    };
    let bytes = 4 << 20;
    println!(
        "\n==== dead mesh link (MI300X, {}): all-pairs -> ring ====",
        fmt_bytes(bytes)
    );
    let healthy = observe(Stack::Mscclpp, t, bytes, Pick::Default, Some(&healthy_plan));
    print_run("healthy (all-pairs)", &healthy, healthy.latency_us);
    scenarios.push(runs_to_json(
        "dead link: healthy baseline",
        t,
        None,
        std::slice::from_ref(&healthy),
    ));
    let plan = FaultPlan::new(7).link_down_forever(2, 3, Time::ZERO);
    let run = observe(Stack::Mscclpp, t, bytes, Pick::Default, Some(&plan));
    print_run("link 2<->3 dead (ring)", &run, healthy.latency_us);
    assert!(run.counter("fault.replans") > 0, "no re-plan recorded");
    assert!(
        run.latency_us > healthy.latency_us,
        "ring fallback should be measurably slower than healthy all-pairs"
    );
    scenarios.push(runs_to_json(
        "dead link: ring fallback",
        t,
        Some(&plan),
        &[run],
    ));

    let doc = format!(
        "{{\"title\":\"fault_sweep\",\"schema_version\":{},\"scenarios\":[{}]}}\n",
        bench::report::SCHEMA_VERSION,
        json::join(scenarios.iter().map(|s| s.trim_end()))
    );
    match write_results_json("fault_sweep.json", &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write results: {e}");
            std::process::exit(1);
        }
    }
}
