//! `ncclsim`: a from-scratch reproduction of the NCCL/RCCL baseline
//! architecture (§2.2 of the MSCCL++ paper) on the simulated cluster.
//!
//! NCCL's GPU kernels are built from four self-synchronous primitives —
//! `send`, `recv`, `copy`, `reduce` (plus fused forms) — that move data
//! through per-connection staging FIFOs with rendezvous credit flow
//! control, synchronizing a static group of threads at every call. This
//! crate reproduces that structure faithfully:
//!
//! * [`Conn`]: staging buffer on the receiver, cyclic slots, data/credit
//!   semaphores (the send/receive buffers of §2.2.1);
//! * [`Prims`]: the primitive emitter, charging the per-call group
//!   synchronization and staging copies (§2.2.2's "wasted GPU cycles" and
//!   "inflexible synchronization" are real simulated work here);
//! * [`NcclComm`]: ring and node-aware tree collectives (AllReduce,
//!   AllGather, ReduceScatter, Broadcast) with LL/Simple protocols and
//!   NCCL's size-based tuner.
//!
//! RCCL is this same stack on the MI300x topology ([`NcclConfig::rccl`]),
//! reflecting the paper's observation that RCCL shares NCCL's design and
//! limitations.
//!
//! # Example
//!
//! ```
//! use hw::{DataType, EnvKind, Machine, Rank, ReduceOp};
//! use mscclpp::Setup;
//! use ncclsim::{tune, NcclComm, NcclConfig};
//! use sim::Engine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
//! let mut setup = Setup::new(&mut engine);
//! let comm = NcclComm::new(&mut setup, NcclConfig::nccl());
//!
//! let count = 1024usize;
//! let bufs = setup.alloc_all(count * 4);
//! for r in 0..8 {
//!     engine.world_mut().pool_mut().fill_with(bufs[r], DataType::F32, |_| 1.0);
//! }
//! let t = comm.all_reduce(
//!     &mut engine, &bufs, &bufs, count, DataType::F32, ReduceOp::Sum,
//!     tune(count * 4, 1),
//! )?;
//! assert_eq!(engine.world().pool().to_f32_vec(bufs[0], DataType::F32)[0], 8.0);
//! println!("1 KB AllReduce took {}", t.elapsed());
//! # Ok(())
//! # }
//! ```

mod comm;
mod config;
mod conn;
mod prims;

pub use comm::{spec_members, verify_first_launch, NcclComm};
pub use config::{tune, tuning_candidates, Algo, Choice, NcclConfig, Proto};
pub use conn::Conn;
pub use prims::Prims;
