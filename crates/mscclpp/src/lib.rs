//! MSCCL++: a primitive GPU communication interface, reproduced in Rust
//! over a simulated multi-GPU cluster.
//!
//! This crate implements the paper's core contribution — the **Primitive
//! API** (§3–§4): three channel abstractions corresponding to the three
//! I/O methods of general computer architecture, each exposing
//! zero-copy, one-sided, asynchronous primitives callable from GPU
//! kernels:
//!
//! | Channel | I/O method | Primitives |
//! |---|---|---|
//! | [`PortChannel`] | port-mapped (DMA/RDMA via CPU proxy) | `put`, `signal`, `wait`, `flush` |
//! | [`MemoryChannel`] | memory-mapped (thread-copy) | `put`, `signal`, `wait`, `read`, `write` (LL/HB protocols) |
//! | [`SwitchChannel`] | switch-mapped (NVSwitch multimem) | `reduce`, `broadcast` |
//!
//! Kernels are built with [`KernelBuilder`] (each method is one
//! primitive) and executed by [`run_kernels`], which interprets the
//! instruction streams on the simulated hardware with real data movement.
//! Host-side initialization — bootstrap, communicator, memory
//! registration, channel construction — lives in [`Setup`].
//!
//! # Example: put / signal / wait between two GPUs
//!
//! ```
//! use hw::{EnvKind, Machine, Rank};
//! use mscclpp::{KernelBuilder, Protocol, Setup, run_kernels};
//! use sim::Engine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut engine = Engine::new(Machine::new(EnvKind::A100_40G.spec(1)));
//! let mut setup = Setup::new(&mut engine);
//!
//! // One 1 KiB buffer per GPU; rank 0 will put its buffer into rank 1's.
//! let bufs = setup.alloc_all(1024);
//! let (ch0, ch1) = setup.memory_channel_pair(
//!     Rank(0), bufs[0], bufs[1],
//!     Rank(1), bufs[1], bufs[0],
//!     Protocol::HB,
//! )?;
//! let ov = setup.overheads().clone();
//!
//! engine.world_mut().pool_mut().write(bufs[0], 0, &[42; 1024]);
//!
//! let mut k0 = KernelBuilder::new(Rank(0));
//! k0.block(0).put_with_signal(&ch0, 0, 0, 1024);
//! let mut k1 = KernelBuilder::new(Rank(1));
//! k1.block(0).wait(&ch1);
//!
//! let timing = run_kernels(&mut engine, &[k0.build(), k1.build()], &ov)?;
//! assert_eq!(engine.world().pool().bytes(bufs[1], 0, 4), &[42; 4]);
//! assert!(timing.elapsed().as_us() > 0.0);
//! # Ok(())
//! # }
//! ```

mod bootstrap;
mod channel;
mod comm;
mod error;
mod exec;
mod kernel;
mod overheads;
mod proxy;
mod sanitizer;

pub use bootstrap::{Bootstrap, BootstrapStore, MemBootstrap};
pub use channel::{DeviceBarrier, MemoryChannel, PortChannel, Protocol, Semaphore, SwitchChannel};
pub use comm::{Comm, DrainReport, Setup};

/// The paper's host-side object name for [`Setup`]: applications create a
/// `Communicator` that registers buffers and builds channels (§4.1).
pub type Communicator<'e> = Setup<'e>;
pub use error::{Error, LinkDownError, Result};
pub use exec::{
    record_launch_mix, run_kernels, run_kernels_sanitized, run_kernels_sanitized_shared,
    run_kernels_shared, KernelTiming, LaunchRecord,
};
pub use kernel::{
    peers_staggered, split_range, Access, BlockBuilder, Dataflow, Instr, Kernel, KernelBuilder,
    Site,
};
pub use overheads::Overheads;
pub use sanitizer::{SanRace, SanReport};
