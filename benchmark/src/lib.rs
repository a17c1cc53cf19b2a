//! Host- and virtual-clock benchmark of the MSCCL++ reproduction.
//!
//! Three single-threaded, closed-loop workloads drive the public APIs of
//! `inference`, `collective`, `ncclsim`, `msccl`, `commverify`,
//! `mscclpp`, `sim` and `hw`. See `README.md` for the workloads, the
//! metrics and the layer each metric should move.

pub mod check;
pub mod heap;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
