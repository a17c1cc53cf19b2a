//! Property test of page-granular payloads: a bytes pool and a plain
//! `Vec<u8>` per buffer, run through the same random sequence of host
//! writes, host reads and data-plane ops over buffers of several pages,
//! hold the same bytes after every step, count the same `moved_bytes`,
//! and the pool creates exactly the pages the sequence wrote. Each case
//! runs on a page heap reused from a dropped pool that wrote `0xA5` over
//! every page, so a page created from stale bytes fails it.
//!
//! Writes are random bytes and fills are partly random `f32` bit
//! patterns, so the pool's lanes (the F16C ones, on a CPU that has them)
//! meet ±0, subnormals, ±Inf and quiet and signaling NaNs of both signs,
//! in runs of any length, and must match the model's scalar
//! `decode` / `apply` / `encode` element by element.

use hw::{BufferId, DataType, Dataflow, MemoryPool, Rank, ReduceOp, PAGE_BYTES};
use proptest::prelude::*;

const PAGE: usize = PAGE_BYTES;

/// Buffer sizes in bytes: several pages each, three with a partial last
/// page. Every generated range is at most `MAX_LEN` bytes long, so it
/// fits any of them, and can cover parts of three pages.
const SIZES: [usize; 4] = [3 * PAGE + 100, 2 * PAGE + 7, 2 * PAGE + 2050, 4 * PAGE];
const MAX_LEN: usize = 2 * PAGE + 7;

/// An operand: buffer and byte offset.
type At = (BufferId, usize);

/// One pool method call over the buffers of `pool()`, always in range.
/// The data-plane ops are the [`Dataflow`] shapes that
/// [`MemoryPool::apply`] performs; the reducing ones take an element
/// count.
#[derive(Debug)]
enum Op {
    Write(At, Vec<u8>),
    /// `fill_with` of [`fill_value`]s from a seed.
    Fill(BufferId, DataType, u64),
    Copy(At, At, usize),
    Reduce(At, At, usize, DataType, ReduceOp),
    ReduceInto([At; 3], usize, DataType, ReduceOp),
    /// A switch reduce: the sources share one offset.
    MultimemReduce(Vec<At>, At, usize, DataType, ReduceOp),
    /// A switch broadcast: the destinations share one offset.
    MultimemBroadcast(At, Vec<At>, usize),
    /// `bytes_mut`, then a write through the view.
    WriteView(At, usize, u8),
    /// `bytes`, checked against the model.
    Read(At, usize),
    /// `to_f32_vec`, checked against the model.
    Decode(BufferId, DataType),
}

/// Op kinds `Op::decode` knows.
const KINDS: usize = 10;

impl Op {
    /// Decodes op `kind` (0..KINDS) over `bufs` from the random words of
    /// `rng`, or `None` for an in-place reduce whose ranges overlap
    /// (which the pool rejects). Half the ranges straddle a page
    /// boundary on purpose; offsets need not be element-aligned.
    fn decode(kind: usize, rng: &mut TestRng, bufs: &[BufferId]) -> Option<Op> {
        let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
        let dtype = [DataType::F16, DataType::BF16, DataType::F32][below(3)];
        let op = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min][below(3)];
        let max_count = if below(2) == 0 {
            32
        } else {
            MAX_LEN / dtype.size()
        };
        let count = 1 + below(max_count);
        let max_len = if below(2) == 0 { 64 } else { MAX_LEN };
        let len = match kind {
            0 | 2 | 6 | 7 | 8 => 1 + below(max_len),
            _ => count * dtype.size(),
        };
        // `n` operands in random buffers at one offset that leaves room
        // for `len` bytes in each.
        let mut at = |n: usize| {
            let picked: Vec<usize> = (0..n).map(|_| below(SIZES.len())).collect();
            let size = picked.iter().map(|&i| SIZES[i]).min().expect("n > 0");
            let off = if below(2) == 0 {
                below(size - len + 1)
            } else {
                // Covers bytes `boundary - 1` and `boundary`, where there
                // is room for it.
                let boundary = PAGE * (1 + below(size / PAGE));
                boundary.saturating_sub(1 + below(len)).min(size - len)
            };
            picked
                .into_iter()
                .map(|i| (bufs[i], off))
                .collect::<Vec<At>>()
        };
        Some(match kind {
            0 => {
                let dst = at(1)[0];
                Op::Write(dst, (0..len).map(|_| below(256) as u8).collect())
            }
            1 => {
                let buf = at(1)[0].0;
                Op::Fill(buf, dtype, below(usize::MAX) as u64)
            }
            2 => Op::Copy(at(1)[0], at(1)[0], len),
            3 => {
                let (src, dst) = (at(1)[0], at(1)[0]);
                if src.0 == dst.0 && src.1.abs_diff(dst.1) < len {
                    return None;
                }
                Op::Reduce(src, dst, count, dtype, op)
            }
            4 => Op::ReduceInto([at(1)[0], at(1)[0], at(1)[0]], count, dtype, op),
            5 => Op::MultimemReduce(at(3), at(1)[0], count, dtype, op),
            6 => Op::MultimemBroadcast(at(1)[0], at(2), len),
            7 => Op::WriteView(at(1)[0], len, len as u8 ^ 0x5a),
            8 => Op::Read(at(1)[0], len),
            _ => Op::Decode(at(1)[0].0, dtype),
        })
    }

    /// Runs the op on `p` and on the model `m`; a read compares the two.
    fn apply(&self, p: &mut MemoryPool, m: &mut Model) -> Result<(), TestCaseError> {
        match *self {
            Op::Write((dst, off), ref src) => {
                p.write(dst, off, src);
                m.write(dst, off, src);
            }
            Op::Fill(buf, dtype, seed) => {
                let f = |i: usize| fill_value(seed, i);
                p.fill_with(buf, dtype, f);
                let es = dtype.size();
                let mut data = m.data[m.index(buf)].clone();
                for (i, lane) in data.chunks_exact_mut(es).enumerate() {
                    dtype.encode(lane, 0, f(i));
                }
                m.write(buf, 0, &data);
            }
            Op::Copy(src, dst, len) => {
                p.apply(Dataflow::Move {
                    src,
                    dst,
                    bytes: len,
                });
                let data = m.read(src, len);
                m.write(dst.0, dst.1, &data);
                m.moved += len as u64;
            }
            Op::Reduce(src, dst, count, dtype, op) => {
                p.apply(Dataflow::Accum {
                    src,
                    dst,
                    bytes: count * dtype.size(),
                    dtype,
                    op,
                });
                m.fold(&[dst, src], dst, count, dtype, op);
            }
            Op::ReduceInto([a, b, dst], count, dtype, op) => {
                p.apply(Dataflow::Reduce2 {
                    a,
                    b,
                    dst,
                    bytes: count * dtype.size(),
                    dtype,
                    op,
                });
                m.fold(&[a, b], dst, count, dtype, op);
            }
            Op::MultimemReduce(ref srcs, dst, count, dtype, op) => {
                p.apply(Dataflow::ReduceAll {
                    members: &members(p, srcs),
                    src_off: srcs[0].1,
                    dst,
                    bytes: count * dtype.size(),
                    dtype,
                    op,
                });
                m.fold(srcs, dst, count, dtype, op);
            }
            Op::MultimemBroadcast(src, ref dsts, len) => {
                p.apply(Dataflow::Replicate {
                    src,
                    members: &members(p, dsts),
                    dst_off: dsts[0].1,
                    bytes: len,
                });
                let data = m.read(src, len);
                for &(dst, off) in dsts {
                    m.write(dst, off, &data);
                }
                m.moved += (len * dsts.len()) as u64;
            }
            Op::WriteView((buf, off), len, byte) => {
                for (i, x) in p.bytes_mut(buf, off, len).iter_mut().enumerate() {
                    *x = byte.wrapping_add(i as u8);
                }
                let data: Vec<u8> = (0..len).map(|i| byte.wrapping_add(i as u8)).collect();
                m.write(buf, off, &data);
            }
            Op::Read((buf, off), len) => {
                prop_assert_eq!(
                    p.bytes(buf, off, len),
                    &m.read((buf, off), len)[..],
                    "{:?}",
                    self
                );
            }
            Op::Decode(buf, dtype) => {
                let es = dtype.size();
                let want: Vec<u32> = m.data[m.index(buf)]
                    .chunks_exact(es)
                    .map(|lane| dtype.decode(lane, 0).to_bits())
                    .collect();
                let got: Vec<u32> = p
                    .to_f32_vec(buf, dtype)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                prop_assert_eq!(got, want, "{:?}", self);
            }
        }
        Ok(())
    }
}

/// The switch-channel members of `ops`, operands at one offset.
fn members(p: &MemoryPool, ops: &[At]) -> Vec<(Rank, BufferId)> {
    ops.iter().map(|&(buf, _)| (p.rank_of(buf), buf)).collect()
}

/// Element `i` of a fill from `seed`: half the time a small integer,
/// else an arbitrary `f32` bit pattern.
fn fill_value(seed: u64, i: usize) -> f32 {
    let h = TestRng::new(seed.wrapping_add(i as u64)).next_u64();
    if h >> 63 == 0 {
        (h % 7) as f32 - 3.0
    } else {
        f32::from_bits(h as u32)
    }
}

/// The reference: each buffer as one flat `Vec<u8>`, the pages each
/// write touched, and the data-plane bytes the ops moved.
struct Model {
    bufs: Vec<BufferId>,
    data: Vec<Vec<u8>>,
    written: Vec<Vec<bool>>,
    moved: u64,
}

impl Model {
    fn new(bufs: &[BufferId]) -> Model {
        Model {
            bufs: bufs.to_vec(),
            data: SIZES.iter().map(|&size| vec![0; size]).collect(),
            written: SIZES
                .iter()
                .map(|&size| vec![false; size.div_ceil(PAGE)])
                .collect(),
            moved: 0,
        }
    }

    /// Where `buf` sits in `SIZES`.
    fn index(&self, buf: BufferId) -> usize {
        self.bufs
            .iter()
            .position(|&b| b == buf)
            .expect("a buffer of the pool")
    }

    fn read(&self, (buf, off): At, len: usize) -> Vec<u8> {
        self.data[self.index(buf)][off..off + len].to_vec()
    }

    fn write(&mut self, buf: BufferId, off: usize, src: &[u8]) {
        let i = self.index(buf);
        self.data[i][off..off + src.len()].copy_from_slice(src);
        if !src.is_empty() {
            for page in off / PAGE..=(off + src.len() - 1) / PAGE {
                self.written[i][page] = true;
            }
        }
    }

    /// `dst = op(srcs...)`, element by element, every source read first.
    fn fold(&mut self, srcs: &[At], dst: At, count: usize, dtype: DataType, op: ReduceOp) {
        let es = dtype.size();
        let len = count * es;
        let lanes: Vec<Vec<u8>> = srcs.iter().map(|&src| self.read(src, len)).collect();
        let mut out = vec![0; len];
        for e in 0..count {
            let mut vals = lanes.iter().map(|l| dtype.decode(l, e * es));
            let first = vals.next().expect("at least one source");
            dtype.encode(&mut out, e * es, vals.fold(first, |a, b| op.apply(a, b)));
        }
        self.write(dst.0, dst.1, &out);
        self.moved += ((srcs.len() + 1) * len) as u64;
    }

    /// Bytes of the pages written so far (the last page of a buffer
    /// holds only the rest of it).
    fn resident(&self) -> u64 {
        let mut total = 0;
        for (written, &size) in self.written.iter().zip(&SIZES) {
            for (page, &w) in written.iter().enumerate() {
                if w {
                    total += PAGE.min(size - page * PAGE) as u64;
                }
            }
        }
        total
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

/// Leaves this thread a spare page heap of stale bytes: a pool like
/// `pool()` that wrote `0xA5` over every page of its buffers, dropped.
fn leave_a_stale_heap() {
    let (mut p, bufs) = pool();
    for buf in bufs {
        let len = p.len(buf);
        p.write(buf, 0, &vec![0xA5; len]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn paged_pool_matches_a_flat_model(
        words in collection::vec((0usize..KINDS, any::<u64>()), 1..24),
    ) {
        leave_a_stale_heap();
        let (mut p, bufs) = pool();
        let mut m = Model::new(&bufs);
        let ops: Vec<Op> = words
            .iter()
            .filter_map(|&(kind, seed)| Op::decode(kind, &mut TestRng::new(seed), &bufs))
            .collect();
        for op in &ops {
            op.apply(&mut p, &mut m)?;
            prop_assert_eq!(p.resident_bytes(), m.resident(), "after {:?}", op);
        }
        prop_assert_eq!(p.moved_bytes(), m.moved);
        for (i, &buf) in bufs.iter().enumerate() {
            // Page by page first: once a read spans pages, later reads
            // come from its copy until the next write.
            let len = p.len(buf);
            for page in 0..len.div_ceil(PAGE) {
                let n = PAGE.min(len - page * PAGE);
                prop_assert!(
                    p.bytes(buf, page * PAGE, n) == &m.data[i][page * PAGE..][..n],
                    "{:?} page {}", buf, page
                );
            }
            prop_assert!(p.bytes(buf, 0, len) == &m.data[i][..], "{:?}", buf);
        }
    }
}

/// One byte written into a 4 MiB buffer creates one page.
#[test]
fn one_byte_creates_one_page() {
    let mut p = MemoryPool::new();
    let buf = p.alloc(Rank(0), 4 << 20);
    p.write(buf, (3 << 20) + 5, &[1]);
    assert_eq!(p.resident_bytes(), PAGE as u64);
    assert_eq!(p.bytes(buf, (3 << 20) + 4, 3), &[0, 1, 0]);
}
