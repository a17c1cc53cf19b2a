//! The one emission and launch path of the baseline stacks. NCCL's and
//! MSCCL's communicators each own a [`Driver`]: every collective compiles
//! as a body that writes one (rank, channel) thread block through
//! [`Prims`], and every launch records, verifies and runs the same way.

use std::cell::Cell;

use commverify::{CollectiveSpec, SpecMember};
use hw::{BufferId, DataType, Machine, Rank, ReduceOp, Topology};
use mscclpp::{run_kernels, Kernel, KernelBuilder, KernelTiming, Overheads, Result, Setup};
use sim::Engine;

use crate::config::{NcclConfig, Proto};
use crate::prims::Prims;

/// Emits and launches one baseline stack's kernels over the NCCL
/// transport.
#[derive(Debug)]
pub struct Driver {
    /// Counter prefix of the recorded instruction mix (`nccl`, `msccl`).
    stack: &'static str,
    cfg: NcclConfig,
    /// Registers per thread of every emitted kernel (§3.2.3).
    regs: u32,
    world: usize,
    ov: Overheads,
    /// Armed until the first launch is verified.
    unverified: Cell<bool>,
}

impl Driver {
    /// A driver for `stack`'s kernels over every rank of `setup`'s
    /// cluster, each kernel using `regs` registers per thread and
    /// primitives over transport `cfg`.
    pub fn new(setup: &Setup<'_>, stack: &'static str, regs: u32, cfg: NcclConfig) -> Driver {
        Driver {
            stack,
            cfg,
            regs,
            world: setup.topology().world_size(),
            ov: setup.overheads().clone(),
            unverified: Cell::new(true),
        }
    }

    /// The transport configuration.
    pub fn config(&self) -> &NcclConfig {
        &self.cfg
    }

    /// Emits one kernel per rank with one thread block per channel in
    /// `0..nch`: `body(rank, channel, prims)` writes each block through a
    /// [`Prims`] for it. Ranks are emitted in order, each rank's blocks in
    /// channel order. The order cannot change a FIFO slot assignment,
    /// since only a connection's sender block advances its send cursor
    /// and only its receiver block its receive cursor.
    pub fn kernels(
        &self,
        nch: usize,
        proto: Proto,
        dtype: DataType,
        op: ReduceOp,
        mut body: impl FnMut(usize, usize, &mut Prims<'_, '_>),
    ) -> Vec<Kernel> {
        (0..self.world)
            .map(|r| {
                let mut kb = KernelBuilder::new(Rank(r));
                kb.regs_per_thread(self.regs);
                for c in 0..nch {
                    let mut tb = kb.block(c);
                    body(r, c, &mut Prims::new(&mut tb, &self.cfg, proto, dtype, op));
                }
                kb.build()
            })
            .collect()
    }

    /// Launches `kernels`: records their instruction mix under the
    /// stack's name, verifies them against `spec` (transport checks plus
    /// the semantic pass) if this is the driver's first launch, and runs
    /// them. Later launches stay unverified: they reuse the staging FIFOs
    /// with banked credits (each launch leaves `slots` spare credits per
    /// connection), so fresh-cell happens-before analysis is only sound
    /// for the first one.
    ///
    /// # Errors
    ///
    /// Returns [`mscclpp::Error::Verification`] when the verifier reports
    /// a finding, and propagates kernel deadlocks (which would indicate a
    /// compiler bug).
    pub fn launch(
        &self,
        engine: &mut Engine<Machine>,
        kernels: &[Kernel],
        spec: &CollectiveSpec,
    ) -> Result<KernelTiming> {
        mscclpp::record_launch_mix(engine, self.stack, kernels);
        if self.unverified.replace(false) {
            commverify::verify_collective(
                kernels,
                engine.world().pool(),
                &commverify::Checks::transport(),
                spec,
            )?;
        }
        run_kernels(engine, kernels, &self.ov)
    }
}

/// Spec members for a full-world collective: rank `r` contributes
/// `inputs[r]` and receives into `outputs[r]`.
pub fn spec_members(topo: &Topology, inputs: &[BufferId], outputs: &[BufferId]) -> Vec<SpecMember> {
    (0..topo.world_size())
        .map(|r| SpecMember {
            rank: Rank(r),
            input: inputs[r],
            output: outputs[r],
        })
        .collect()
}

/// How many FIFO-slot batches move `len` units `slot` at a time: at
/// least one, so a block with nothing to move still takes every step.
pub fn batches(len: usize, slot: usize) -> usize {
    len.div_ceil(slot).max(1)
}

/// Batch `b` of the range `off..off + len` cut into `slot`-unit batches,
/// as `(offset, length)`; empty once `b` passes the end of the range.
pub fn batch(off: usize, len: usize, slot: usize, b: usize) -> (usize, usize) {
    let lo = (b * slot).min(len);
    (off + lo, ((b + 1) * slot).min(len) - lo)
}
