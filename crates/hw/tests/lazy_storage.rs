//! Property test of first-touch payloads: a bytes pool whose buffers are
//! all touched right after `alloc` and one whose buffers are left alone
//! end every random sequence of host writes and data-plane ops with the
//! same bytes and the same `moved_bytes`, and the second creates payloads
//! only for the buffers the sequence names.

use std::collections::BTreeSet;

use hw::{BufferId, DataType, MemoryPool, Rank, ReduceOp};
use proptest::prelude::*;

/// Buffer sizes in bytes. Every generated range is at most `MAX_LEN`
/// bytes long, so it fits any of them.
const SIZES: [usize; 4] = [16, 24, 40, 64];
const MAX_LEN: usize = 16;

/// An operand: buffer and byte offset.
type At = (BufferId, usize);

/// One pool method call over the buffers of `pool()`, always in range.
#[derive(Debug)]
enum Op {
    Write(At, Vec<u8>),
    Fill(BufferId, DataType, usize),
    Copy(At, At, usize),
    Reduce(At, At, usize, DataType, ReduceOp),
    ReduceInto([At; 3], usize, DataType, ReduceOp),
    MultimemReduce(Vec<At>, At, usize, DataType, ReduceOp),
    MultimemBroadcast(At, Vec<At>, usize),
}

impl Op {
    /// Decodes op `kind` (0..7) over `bufs` from the random words of
    /// `rng`, or `None` for an in-place reduce whose ranges overlap
    /// (which the pool rejects).
    fn decode(kind: usize, rng: &mut TestRng, bufs: &[BufferId]) -> Option<Op> {
        let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
        let dtype = [DataType::F16, DataType::BF16, DataType::F32][below(3)];
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][below(3)];
        let count = 1 + below(MAX_LEN / dtype.size());
        let len = match kind {
            0 | 2 | 6 => 1 + below(MAX_LEN),
            _ => count * dtype.size(),
        };
        let mut at = || {
            let i = below(SIZES.len());
            (bufs[i], below(SIZES[i] - len + 1))
        };
        Some(match kind {
            0 => Op::Write(at(), (0..len).map(|i| (i * 37 + len) as u8).collect()),
            1 => Op::Fill(at().0, dtype, len),
            2 => Op::Copy(at(), at(), len),
            3 => {
                let (src, dst) = (at(), at());
                if src.0 == dst.0 && src.1.abs_diff(dst.1) < len {
                    return None;
                }
                Op::Reduce(src, dst, count, dtype, op)
            }
            4 => Op::ReduceInto([at(), at(), at()], count, dtype, op),
            5 => Op::MultimemReduce(vec![at(), at(), at()], at(), count, dtype, op),
            _ => Op::MultimemBroadcast(at(), vec![at(), at()], len),
        })
    }

    fn apply(&self, p: &mut MemoryPool) {
        match *self {
            Op::Write((dst, off), ref src) => p.write(dst, off, src),
            Op::Fill(buf, dtype, seed) => {
                p.fill_with(buf, dtype, |i| ((seed + i) % 7) as f32 - 3.0);
            }
            Op::Copy(src, dst, len) => p.copy(src.0, src.1, dst.0, dst.1, len),
            Op::Reduce(src, dst, count, dtype, op) => {
                p.reduce(src.0, src.1, dst.0, dst.1, count, dtype, op);
            }
            Op::ReduceInto([a, b, dst], count, dtype, op) => {
                p.reduce_into(a.0, a.1, b.0, b.1, dst.0, dst.1, count, dtype, op);
            }
            Op::MultimemReduce(ref srcs, dst, count, dtype, op) => {
                p.multimem_reduce(srcs, dst.0, dst.1, count, dtype, op);
            }
            Op::MultimemBroadcast(src, ref dsts, len) => {
                p.multimem_broadcast(src.0, src.1, dsts, len);
            }
        }
    }

    /// The buffers this op reads or writes.
    fn buffers(&self) -> Vec<BufferId> {
        match self {
            Op::Write(dst, _) => vec![dst.0],
            Op::Fill(buf, ..) => vec![*buf],
            Op::Copy(src, dst, _) | Op::Reduce(src, dst, ..) => vec![src.0, dst.0],
            Op::ReduceInto(ats, ..) => ats.iter().map(|at| at.0).collect(),
            Op::MultimemReduce(ats, dst, ..) | Op::MultimemBroadcast(dst, ats, _) => {
                ats.iter().chain([dst]).map(|at| at.0).collect()
            }
        }
    }
}

/// A bytes pool holding one buffer of each size in `SIZES`.
fn pool() -> (MemoryPool, Vec<BufferId>) {
    let mut p = MemoryPool::new();
    let bufs = SIZES
        .iter()
        .enumerate()
        .map(|(r, &size)| p.alloc(Rank(r), size))
        .collect();
    (p, bufs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lazy_and_eager_storage_agree(words in collection::vec((0usize..7, any::<u64>()), 1..24)) {
        let (mut eager, bufs) = pool();
        let ops: Vec<Op> = words
            .iter()
            .filter_map(|&(kind, seed)| Op::decode(kind, &mut TestRng::new(seed), &bufs))
            .collect();
        for &buf in &bufs {
            eager.bytes(buf, 0, eager.len(buf));
        }
        prop_assert_eq!(eager.resident_bytes(), SIZES.iter().sum::<usize>() as u64);
        let (mut lazy, lazy_bufs) = pool();
        prop_assert_eq!(&lazy_bufs, &bufs);
        prop_assert_eq!(lazy.resident_bytes(), 0);

        for op in &ops {
            op.apply(&mut eager);
            op.apply(&mut lazy);
        }
        let touched: BTreeSet<BufferId> = ops.iter().flat_map(Op::buffers).collect();
        let touched_bytes: usize = touched.iter().map(|&buf| lazy.len(buf)).sum();
        prop_assert_eq!(lazy.resident_bytes(), touched_bytes as u64);
        prop_assert_eq!(eager.moved_bytes(), lazy.moved_bytes());
        for &buf in &bufs {
            let len = eager.len(buf);
            prop_assert_eq!(eager.bytes(buf, 0, len), lazy.bytes(buf, 0, len), "{:?}", buf);
        }
    }
}
