//! Simulated multi-GPU cluster hardware.
//!
//! This crate models the machines the MSCCL++ paper evaluates on (Table 1):
//! nodes of eight GPUs joined by NVLink (switch), Infinity Fabric / xGMI
//! (peer-to-peer mesh), or PCIe, with one InfiniBand NIC per GPU for
//! inter-node traffic, and — on H100 — an NVSwitch capable of in-network
//! reduction and multicast (NVLink SHARP / "multimem").
//!
//! The central type is [`Machine`], which serves as the *world* of a
//! [`sim::Engine`]. It owns:
//!
//! * the GPU memory allocations ([`MemoryPool`]). On a [`Machine::new`]
//!   they are real byte buffers, made of pages of [`PAGE_BYTES`] that are
//!   each created as zeros by the first write that touches them:
//!   collectives actually move and reduce data, so correctness is
//!   checked, not assumed. On a
//!   [`Machine::timing_only`] they keep their length and no bytes, for
//!   runs that only need virtual time;
//! * the cluster [`Topology`] and per-link performance characteristics;
//! * the serializing link resources (egress/ingress ports, per-pair mesh
//!   links, DMA engines, NICs) that model bandwidth contention.
//!
//! Communication libraries (`mscclpp`, `ncclsim`) call the transfer helpers
//! on [`Machine`] to obtain *completion times* for data movement, and
//! [`MemoryPool::apply`] to perform the byte movement a [`Dataflow`]
//! describes (or, in a timing-only pool, only its checks and accounting).
//!
//! # Example
//!
//! ```
//! use hw::{Machine, EnvKind, Rank};
//! use sim::Engine;
//!
//! let spec = EnvKind::A100_40G.spec(1); // one node, 8 GPUs
//! let mut engine = Engine::new(Machine::new(spec.clone()));
//! hw::wire(&mut engine);
//! let buf = engine.world_mut().pool_mut().alloc(Rank(0), 1024);
//! assert_eq!(engine.world().pool().len(buf), 1024);
//! ```

mod dtype;
mod machine;
mod memory;
mod spec;
mod topology;

pub use dtype::{
    f16_to_f32 as dtype_f16_to_f32, f32_to_f16 as dtype_f32_to_f16, DataType, ReduceOp,
};
pub use machine::{
    intra_latency, link_fault, link_stats, local_copy_time, local_reduce_time,
    multimem_broadcast_time, multimem_fault, multimem_reduce_time, net_latency, net_time, p2p_time,
    port_utilization, supports_multimem, wire, CopyMode, LinkFault, Machine, PortUtilization, Xfer,
};
pub use memory::{Access, BufferId, Dataflow, MemoryPool, PAGE_BYTES};
pub use spec::{EnvKind, EnvSpec, GpuSpec, IntraKind, IntraSpec, MultimemSpec, NetSpec};
pub use topology::{Rank, Topology};
