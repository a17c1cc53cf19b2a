//! Critical-path profiler for the simulated MSCCL++ stack.
//!
//! Three tools over one artifact — the dependency graph a profiled run
//! records ([`sim::Engine::enable_profiling`] /
//! [`sim::Engine::take_dep_graph`]):
//!
//! 1. **Critical-path extraction** ([`critical_path`]): walks backward
//!    from the last-finishing step, attributing every picosecond of the
//!    makespan to a blame bucket (`link-busy`, `link-queue`,
//!    `sync-wait`, `proxy-overhead`, `compute/copy`) and to the resource
//!    that bounded it. The buckets sum to the makespan exactly.
//! 2. **What-if re-timing** ([`whatif::retime`]): replays the recorded
//!    graph under perturbed hardware (2× a link's bandwidth, +1µs proxy
//!    overhead) without re-running kernels, predicting the new makespan.
//!    Confirms (or refutes) that a blamed bottleneck is worth fixing.
//! 3. **Latency distributions** ([`Histogram`]): an allocation-free
//!    log-linear histogram for per-request / per-iteration latencies,
//!    used by the serving simulator and the perf-regression harness.
//!
//! The Perfetto bridge ([`CriticalPathReport::highlight`] +
//! [`sim::Trace::to_chrome_json`]) renders the extracted
//! path as a dedicated track with flow arrows through the process
//! timeline.

mod critical;
mod histogram;
pub mod whatif;

pub use critical::{
    critical_path, occupancy, occupancy_histogram, queue_delay_histogram, Blame, BlameBreakdown,
    CriticalPathReport, PathSegment,
};
pub use histogram::Histogram;
pub use whatif::{retime, Perturbation, WhatIfOutcome};

#[cfg(test)]
mod tests {
    use super::*;
    use sim::{CellId, Ctx, Duration, Engine, Process, ResourceId, Step, Time};

    /// A producer that transfers over a link, then signals; a consumer
    /// that waits, then computes. The whole chain is critical.
    struct Producer {
        link: ResourceId,
        cell: CellId,
        busy: Duration,
    }
    impl Process<()> for Producer {
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
            let done = ctx.acquire(self.link, self.busy);
            ctx.cell_add_at(self.cell, 1, done);
            Step::Done
        }
        fn label(&self) -> String {
            "producer rank0".to_owned()
        }
    }
    struct Consumer {
        cell: CellId,
        compute: Duration,
        state: u8,
    }
    impl Process<()> for Consumer {
        fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Step {
            self.state += 1;
            match self.state {
                1 => Step::WaitCell {
                    cell: self.cell,
                    at_least: 1,
                },
                2 => Step::Yield(self.compute),
                _ => Step::Done,
            }
        }
        fn label(&self) -> String {
            "consumer rank1".to_owned()
        }
    }

    fn chain_graph() -> sim::DepGraph {
        let mut e = Engine::new(());
        e.enable_profiling();
        let link = e.alloc_resource();
        e.label_resource(link, "link r0->r1");
        let cell = e.alloc_cell();
        e.spawn(Consumer {
            cell,
            compute: Duration::from_ns(30.0),
            state: 0,
        });
        e.spawn(Producer {
            link,
            cell,
            busy: Duration::from_ns(100.0),
        });
        e.run().unwrap();
        e.take_dep_graph().unwrap()
    }

    #[test]
    fn blame_tiles_the_makespan_exactly() {
        let g = chain_graph();
        let r = critical_path(&g).unwrap();
        assert_eq!(r.start, Time::ZERO);
        assert_eq!(r.end.as_ns(), 130.0);
        // Exact integer identity, not approximate.
        assert_eq!(r.blame.total(), r.end - r.start);
        assert_eq!(r.blame.link_busy.as_ns(), 100.0);
        assert_eq!(r.blame.compute_copy.as_ns(), 30.0);
        assert_eq!(r.blame.sync_wait, Duration::ZERO);
        // The link is the top blamed resource.
        assert_eq!(r.by_resource[0].0, "link r0->r1");
        assert_eq!(r.by_resource[0].1.as_ns(), 100.0);
        // Path segments tile [start, end] in order.
        let mut t = r.start;
        for seg in &r.path {
            assert_eq!(seg.from, t);
            assert!(seg.to >= seg.from);
            t = seg.to;
        }
        assert_eq!(t, r.end);
        // rank1 (the consumer) finishes last: zero slack.
        assert_eq!(r.slack_per_rank[0], ("rank1".to_owned(), Duration::ZERO));
        assert_eq!(r.slack_per_rank[1].0, "rank0");
        assert_eq!(r.slack_per_rank[1].1.as_ns(), 130.0);
    }

    #[test]
    fn whatif_unperturbed_replay_is_exact() {
        let g = chain_graph();
        let out = retime(&g, &[]);
        assert_eq!(out.baseline.as_ns(), 130.0);
        assert_eq!(out.predicted, out.baseline);
        assert_eq!(out.speedup(), 1.0);
    }

    #[test]
    fn whatif_scaling_the_critical_link_helps() {
        let g = chain_graph();
        let out = retime(&g, &[Perturbation::scale_bandwidth("link r0->r1", 2.0)]);
        // 100ns transfer halves; compute unchanged.
        assert_eq!(out.predicted.as_ns(), 80.0);
    }

    #[test]
    fn whatif_step_latency_perturbs_matching_processes() {
        let g = chain_graph();
        let out = retime(
            &g,
            &[Perturbation::add_step_latency(
                "producer",
                Duration::from_ns(10.0),
            )],
        );
        // The producer's delivery (and hence everything after) slips.
        assert_eq!(out.predicted.as_ns(), 140.0);
    }

    #[test]
    fn contended_link_shows_queue_blame() {
        struct W {
            link: ResourceId,
            busy: Duration,
            sent: bool,
        }
        impl Process<()> for W {
            fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Step {
                if self.sent {
                    return Step::Done;
                }
                self.sent = true;
                let done = ctx.acquire(self.link, self.busy);
                Step::Yield(done - ctx.now())
            }
            fn label(&self) -> String {
                "writer".to_owned()
            }
        }
        let mut e = Engine::new(());
        e.enable_profiling();
        let link = e.alloc_resource();
        e.label_resource(link, "link r0->r1");
        e.spawn(W {
            link,
            busy: Duration::from_ns(40.0),
            sent: false,
        });
        e.spawn(W {
            link,
            busy: Duration::from_ns(60.0),
            sent: false,
        });
        e.run().unwrap();
        let g = e.take_dep_graph().unwrap();
        let r = critical_path(&g).unwrap();
        // Makespan 100ns: the second writer queued 40ns then moved 60ns.
        assert_eq!((r.end - r.start).as_ns(), 100.0);
        assert_eq!(r.blame.total(), r.end - r.start);
        assert_eq!(r.blame.link_queue.as_ns(), 40.0);
        assert_eq!(r.blame.link_busy.as_ns(), 60.0);
    }
}
