//! NCCL stack configuration: protocols, algorithms, and tuning.

use sim::Duration;

/// NCCL wire protocol (§2.2.2 context).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum Proto {
    /// The `Simple` protocol: full-bandwidth chunks synchronized by
    /// flag writes after a memory fence.
    Simple,
    /// The `LL` protocol: 4-byte flags interleaved with 4-byte data words
    /// (half wire efficiency, no fence latency).
    LL,
}

impl Proto {
    /// Wire bytes per payload byte.
    pub fn wire_factor(self) -> f64 {
        match self {
            Proto::Simple => 1.0,
            Proto::LL => 2.0,
        }
    }
}

/// NCCL collective algorithm.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Ring: 2(N−1) pipelined steps for AllReduce.
    Ring,
    /// Tree: reduce up / broadcast down a binary tree; lower latency than
    /// ring for small messages on multi-node clusters.
    Tree,
}

/// Tunable constants of the NCCL baseline stack.
///
/// The structural costs that the MSCCL++ paper identifies — blocking
/// self-synchronous primitives, staging-buffer copies, conservative
/// double synchronization — are *not* constants here: they are emitted as
/// real simulated work by the compiler in [`crate::NcclComm`]. The values
/// below only size that structure.
#[derive(Debug, Clone, PartialEq)]
pub struct NcclConfig {
    /// Cost of one primitive call's thread-group synchronization: NCCL
    /// statically groups 128–640 threads per channel and barriers them at
    /// every `send`/`recv`/`copy`/`reduce` (§2.2.2).
    pub prim_sync: Duration,
    /// Staging FIFO slot size for the Simple protocol (NCCL's buffer is
    /// split into `slots` chunks of this size).
    pub slot_bytes_simple: usize,
    /// Staging FIFO slot size for the LL protocol.
    pub slot_bytes_ll: usize,
    /// Number of FIFO slots per connection (NCCL `NCCL_STEPS` = 8).
    pub slots: usize,
    /// Maximum channels (parallel rings/trees, one thread block each).
    pub max_channels: usize,
    /// Registers per thread of the NCCL ring kernels (§3.2.3: 94).
    pub regs_per_thread: u32,
}

impl NcclConfig {
    /// NCCL 2.26-like defaults.
    pub fn nccl() -> NcclConfig {
        NcclConfig {
            prim_sync: Duration::from_ns(300.0),
            slot_bytes_simple: 512 << 10,
            slot_bytes_ll: 32 << 10,
            slots: 8,
            max_channels: 4,
            regs_per_thread: 94,
        }
    }

    /// Slot size for a protocol.
    pub fn slot_bytes(&self, proto: Proto) -> usize {
        match proto {
            Proto::Simple => self.slot_bytes_simple,
            Proto::LL => self.slot_bytes_ll,
        }
    }
}

/// One tuner decision: algorithm, protocol, and channel count.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub struct Choice {
    /// Collective algorithm.
    pub algo: Algo,
    /// Wire protocol.
    pub proto: Proto,
    /// Number of channels (thread blocks / parallel rings).
    pub channels: usize,
}

/// NCCL's size-based tuner: picks algorithm, protocol, and channel count
/// for a message size, mirroring NCCL's internal latency/bandwidth model.
pub fn tune(msg_bytes: usize, nodes: usize) -> Choice {
    let proto = if msg_bytes <= 256 << 10 {
        Proto::LL
    } else {
        Proto::Simple
    };
    let algo = if nodes > 1 && msg_bytes <= 8 << 20 {
        Algo::Tree
    } else {
        Algo::Ring
    };
    let channels = if msg_bytes <= 64 << 10 {
        1
    } else if msg_bytes <= 4 << 20 {
        2
    } else {
        4
    };
    Choice {
        algo,
        proto,
        channels,
    }
}

/// Candidate tuner choices for exhaustive per-point tuning, mirroring the
/// paper's methodology of fine-tuning the baselines' environment
/// variables per message size (§5.1).
pub fn tuning_candidates(nodes: usize) -> Vec<Choice> {
    let mut out = Vec::new();
    for proto in [Proto::LL, Proto::Simple] {
        for channels in [1, 2, 4] {
            out.push(Choice {
                algo: Algo::Ring,
                proto,
                channels,
            });
            if nodes > 1 {
                out.push(Choice {
                    algo: Algo::Tree,
                    proto,
                    channels,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuner_uses_ll_for_small_and_simple_for_large() {
        assert_eq!(tune(1 << 10, 1).proto, Proto::LL);
        assert_eq!(tune(64 << 20, 1).proto, Proto::Simple);
    }

    #[test]
    fn tuner_uses_tree_only_multinode_small() {
        assert_eq!(tune(1 << 10, 1).algo, Algo::Ring);
        assert_eq!(tune(1 << 10, 4).algo, Algo::Tree);
        assert_eq!(tune(256 << 20, 4).algo, Algo::Ring);
    }

    #[test]
    fn candidates_cover_both_protocols() {
        let c = tuning_candidates(2);
        assert!(c
            .iter()
            .any(|x| x.proto == Proto::LL && x.algo == Algo::Tree));
        assert!(c
            .iter()
            .any(|x| x.proto == Proto::Simple && x.algo == Algo::Ring));
        let single = tuning_candidates(1);
        assert!(single.iter().all(|x| x.algo == Algo::Ring));
    }

    #[test]
    fn ll_doubles_wire_bytes() {
        assert_eq!(Proto::LL.wire_factor(), 2.0);
        assert_eq!(Proto::Simple.wire_factor(), 1.0);
    }
}
