//! GPU memory: byte buffers with real copies and element-wise
//! reductions, or timing-only buffers that keep their length and no bytes.

use crate::dtype::{DataType, ReduceOp};
use crate::topology::Rank;

/// Identifies a buffer allocated in a [`MemoryPool`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(usize);

#[derive(Debug)]
struct Buffer {
    rank: Rank,
    /// Logical size in bytes.
    len: usize,
    /// The payload: `len` bytes in a bytes pool, empty in a timing-only one.
    data: Vec<u8>,
}

/// All simulated GPU memory in the cluster.
///
/// Every buffer is tagged with the rank that owns it. What a buffer holds
/// is fixed for the whole pool when it is built:
///
/// * **Bytes** ([`Machine::new`](crate::Machine::new)): every buffer is a
///   real `Vec<u8>`. Peer-to-peer `put`, switch `reduce`, and local `copy`
///   operations move actual bytes here, so benchmark harnesses can verify
///   collective outputs bit-for-bit (within floating-point
///   reduction-order tolerance) before trusting a timing.
/// * **Timing-only** ([`Machine::timing_only`](crate::Machine::timing_only)):
///   a buffer records its length and allocates no payload. The data-plane
///   operations run the same range and overlap checks and count the same
///   [`moved_bytes`](MemoryPool::moved_bytes) as in a bytes pool, then
///   return without touching bytes. The readers
///   ([`bytes`](MemoryPool::bytes), [`bytes_mut`](MemoryPool::bytes_mut),
///   [`write`](MemoryPool::write), [`fill_with`](MemoryPool::fill_with),
///   [`to_f32_vec`](MemoryPool::to_f32_vec)) panic instead of returning
///   zeros. No timing depends on a payload value, so a run gives the same
///   virtual times, events and counters in either mode; timing-only is for
///   runs that never read their outputs.
#[derive(Debug, Default)]
pub struct MemoryPool {
    buffers: Vec<Buffer>,
    /// Buffers hold no payload (fixed at construction).
    timing_only: bool,
    /// Cumulative bytes moved by data-plane operations (`copy`, `reduce`,
    /// `reduce_into`, `multimem_*`), counting operand traffic. Host-side
    /// initialization (`write`, `fill_with`) is not counted.
    moved_bytes: u64,
    /// Reusable `f32` staging buffer for the three-address reductions,
    /// so the per-instruction hot path never allocates.
    scratch: Vec<f32>,
}

impl MemoryPool {
    /// Creates an empty pool whose buffers hold real bytes.
    pub fn new() -> MemoryPool {
        MemoryPool::default()
    }

    /// Creates an empty timing-only pool: buffers keep their length and
    /// no payload, data-plane operations check and count but move no
    /// bytes, and the readers panic (see the type docs).
    pub(crate) fn timing_only() -> MemoryPool {
        MemoryPool {
            timing_only: true,
            ..MemoryPool::default()
        }
    }

    /// Cumulative bytes moved by data-plane operations so far, equal in
    /// both payload modes.
    ///
    /// Counts the payload of every `copy` and `multimem_broadcast`
    /// destination write, and the operand bytes read by reductions
    /// (`reduce`/`reduce_into` read two streams and write one, so they
    /// count `3 * count * element_size`; `multimem_reduce` counts each
    /// source plus the destination).
    pub fn moved_bytes(&self) -> u64 {
        self.moved_bytes
    }

    /// Allocates a buffer of `size` bytes on `rank`: zero-initialized in
    /// a bytes pool, without any payload in a timing-only one.
    pub fn alloc(&mut self, rank: Rank, size: usize) -> BufferId {
        let data = if self.timing_only {
            Vec::new()
        } else {
            vec![0; size]
        };
        self.buffers.push(Buffer {
            rank,
            len: size,
            data,
        });
        BufferId(self.buffers.len() - 1)
    }

    /// Number of buffers allocated so far.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Size in bytes of a buffer.
    pub fn len(&self, buf: BufferId) -> usize {
        self.buffers[buf.0].len
    }

    /// Whether the pool holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// The rank that owns a buffer.
    pub fn rank_of(&self, buf: BufferId) -> Rank {
        self.buffers[buf.0].rank
    }

    /// Read-only view of `len` bytes at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the pool is timing-only or the range is out of bounds.
    pub fn bytes(&self, buf: BufferId, off: usize, len: usize) -> &[u8] {
        &self.payload(buf)[off..off + len]
    }

    /// Mutable view of `len` bytes at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the pool is timing-only or the range is out of bounds.
    pub fn bytes_mut(&mut self, buf: BufferId, off: usize, len: usize) -> &mut [u8] {
        &mut self.payload_mut(buf)[off..off + len]
    }

    /// Overwrites `src.len()` bytes at `off` with `src`.
    ///
    /// # Panics
    ///
    /// Panics if the pool is timing-only or the destination range is out
    /// of bounds.
    pub fn write(&mut self, buf: BufferId, off: usize, src: &[u8]) {
        self.payload_mut(buf)[off..off + src.len()].copy_from_slice(src);
    }

    /// Copies `len` bytes from `(src, src_off)` to `(dst, dst_off)`.
    ///
    /// Supports `src == dst` (memmove semantics).
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds.
    pub fn copy(
        &mut self,
        src: BufferId,
        src_off: usize,
        dst: BufferId,
        dst_off: usize,
        len: usize,
    ) {
        self.account(len, len, [(src, src_off), (dst, dst_off)]);
        if self.timing_only {
            return;
        }
        if src.0 == dst.0 {
            self.buffers[src.0]
                .data
                .copy_within(src_off..src_off + len, dst_off);
        } else {
            let (a, b) = split_two(&mut self.buffers, src.0, dst.0);
            b.data[dst_off..dst_off + len].copy_from_slice(&a.data[src_off..src_off + len]);
        }
    }

    /// Element-wise `dst = op(dst, src)` over `count` elements of `dtype`.
    ///
    /// Arithmetic is performed in `f32` and rounded back to `dtype`,
    /// matching GPU mixed-precision reduction behaviour.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds, or if `src == dst` with
    /// overlapping ranges.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        &mut self,
        src: BufferId,
        src_off: usize,
        dst: BufferId,
        dst_off: usize,
        count: usize,
        dtype: DataType,
        op: ReduceOp,
    ) {
        let len = count * dtype.size();
        if src.0 == dst.0 {
            let lo = src_off.min(dst_off);
            let hi = (src_off.max(dst_off)) + len;
            assert!(
                src_off + len <= dst_off || dst_off + len <= src_off,
                "overlapping in-place reduce: [{lo}, {hi})"
            );
        }
        self.account(3 * len, len, [(src, src_off), (dst, dst_off)]);
        if self.timing_only {
            return;
        }
        if src.0 == dst.0 {
            let data = &mut self.buffers[src.0].data;
            if src_off < dst_off {
                let (a, b) = data.split_at_mut(dst_off);
                dtype.reduce_lanes(op, &mut b[..len], &a[src_off..src_off + len]);
            } else {
                let (a, b) = data.split_at_mut(src_off);
                dtype.reduce_lanes(op, &mut a[dst_off..dst_off + len], &b[..len]);
            }
        } else {
            let (s, d) = split_two(&mut self.buffers, src.0, dst.0);
            dtype.reduce_lanes(
                op,
                &mut d.data[dst_off..dst_off + len],
                &s.data[src_off..src_off + len],
            );
        }
    }

    /// Three-address element-wise reduction: `dst = op(a, b)` over `count`
    /// elements of `dtype` (the GPU register path of NCCL's
    /// `recvReduceCopy`: no intermediate store into either operand).
    ///
    /// Aliasing among the three ranges is allowed.
    ///
    /// # Panics
    ///
    /// Panics if any range is out of bounds.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_into(
        &mut self,
        a: BufferId,
        a_off: usize,
        b: BufferId,
        b_off: usize,
        dst: BufferId,
        dst_off: usize,
        count: usize,
        dtype: DataType,
        op: ReduceOp,
    ) {
        let len = count * dtype.size();
        self.account(3 * len, len, [(a, a_off), (b, b_off), (dst, dst_off)]);
        if self.timing_only {
            return;
        }
        // Staging through `scratch` keeps the "no intermediate store"
        // register semantics under any aliasing of the three ranges.
        let mut acc = std::mem::take(&mut self.scratch);
        acc.clear();
        acc.resize(count, 0.0);
        dtype.decode_lanes(&self.buffers[a.0].data[a_off..a_off + len], &mut acc);
        dtype.accumulate_lanes(op, &mut acc, &self.buffers[b.0].data[b_off..b_off + len]);
        dtype.encode_lanes(&mut self.buffers[dst.0].data[dst_off..dst_off + len], &acc);
        self.scratch = acc;
    }

    /// Switch-style multimem load-reduce: `dst = op(srcs...)` over `count`
    /// elements, reducing corresponding elements of every source buffer.
    ///
    /// # Panics
    ///
    /// Panics if `srcs` is empty or any range is out of bounds.
    pub fn multimem_reduce(
        &mut self,
        srcs: &[(BufferId, usize)],
        dst: BufferId,
        dst_off: usize,
        count: usize,
        dtype: DataType,
        op: ReduceOp,
    ) {
        assert!(
            !srcs.is_empty(),
            "multimem_reduce needs at least one source"
        );
        let len = count * dtype.size();
        let operands = srcs.iter().copied().chain([(dst, dst_off)]);
        self.account((srcs.len() + 1) * len, len, operands);
        if self.timing_only {
            return;
        }
        let mut acc = std::mem::take(&mut self.scratch);
        acc.clear();
        acc.resize(count, 0.0);
        for (si, &(src, src_off)) in srcs.iter().enumerate() {
            let data = &self.buffers[src.0].data[src_off..src_off + len];
            if si == 0 {
                dtype.decode_lanes(data, &mut acc);
            } else {
                dtype.accumulate_lanes(op, &mut acc, data);
            }
        }
        dtype.encode_lanes(&mut self.buffers[dst.0].data[dst_off..dst_off + len], &acc);
        self.scratch = acc;
    }

    /// Switch-style multimem store-broadcast: writes `len` bytes from
    /// `(src, src_off)` into every `(dst, dst_off)`.
    ///
    /// # Panics
    ///
    /// Panics if any range is out of bounds.
    pub fn multimem_broadcast(
        &mut self,
        src: BufferId,
        src_off: usize,
        dsts: &[(BufferId, usize)],
        len: usize,
    ) {
        let operands = [(src, src_off)].into_iter().chain(dsts.iter().copied());
        self.account(len * dsts.len(), len, operands);
        if self.timing_only {
            return;
        }
        let data = self.buffers[src.0].data[src_off..src_off + len].to_vec();
        for &(dst, dst_off) in dsts {
            self.buffers[dst.0].data[dst_off..dst_off + len].copy_from_slice(&data);
        }
    }

    /// Fills a buffer with encoded elements produced by `f(element_index)`.
    ///
    /// # Panics
    ///
    /// Panics if the pool is timing-only.
    pub fn fill_with(&mut self, buf: BufferId, dtype: DataType, mut f: impl FnMut(usize) -> f32) {
        let es = dtype.size();
        let data = self.payload_mut(buf);
        let n = data.len() / es;
        for i in 0..n {
            dtype.encode(data, i * es, f(i));
        }
    }

    /// Decodes the whole buffer as a vector of `f32`.
    ///
    /// # Panics
    ///
    /// Panics if the pool is timing-only.
    pub fn to_f32_vec(&self, buf: BufferId, dtype: DataType) -> Vec<f32> {
        let es = dtype.size();
        let data = self.payload(buf);
        let n = data.len() / es;
        (0..n).map(|i| dtype.decode(data, i * es)).collect()
    }

    /// The shared check of every data-plane operation, run in both
    /// modes before any byte moves: counts `moved` bytes and checks that
    /// each operand range `[off, off + len)` lies inside its buffer.
    ///
    /// # Panics
    ///
    /// Panics naming the first operand range that is out of bounds.
    fn account(
        &mut self,
        moved: usize,
        len: usize,
        operands: impl IntoIterator<Item = (BufferId, usize)>,
    ) {
        self.moved_bytes += moved as u64;
        for (buf, off) in operands {
            let size = self.buffers[buf.0].len;
            assert!(
                off.checked_add(len).is_some_and(|end| end <= size),
                "{buf:?}: {len} bytes at offset {off} out of range for a buffer of {size} bytes"
            );
        }
    }

    /// The whole payload of `buf`, for the readers.
    fn payload(&self, buf: BufferId) -> &[u8] {
        self.refuse_timing_only(buf);
        &self.buffers[buf.0].data
    }

    /// The whole payload of `buf`, for the writers.
    fn payload_mut(&mut self, buf: BufferId) -> &mut [u8] {
        self.refuse_timing_only(buf);
        &mut self.buffers[buf.0].data
    }

    fn refuse_timing_only(&self, buf: BufferId) {
        assert!(
            !self.timing_only,
            "{buf:?} has no bytes to read or write: it lives in a timing-only pool"
        );
    }
}

/// Splits two distinct indices of a slice into disjoint mutable references.
fn split_two(v: &mut [Buffer], a: usize, b: usize) -> (&mut Buffer, &mut Buffer) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        let (x, y) = (&mut hi[0], &mut lo[b]);
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Constructors of both payload modes.
    const MODES: [fn() -> MemoryPool; 2] = [MemoryPool::new, MemoryPool::timing_only];

    /// The formatted message of the panic `f` must raise.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("expected a panic");
        *err.downcast::<String>().expect("a formatted panic message")
    }

    #[test]
    fn alloc_and_copy_between_ranks() {
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 16);
        let b = p.alloc(Rank(1), 16);
        p.write(a, 0, &[1, 2, 3, 4]);
        p.copy(a, 0, b, 4, 4);
        assert_eq!(p.bytes(b, 4, 4), &[1, 2, 3, 4]);
        assert_eq!(p.rank_of(a), Rank(0));
        assert_eq!(p.rank_of(b), Rank(1));
    }

    #[test]
    fn copy_within_same_buffer() {
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 8);
        p.write(a, 0, &[9, 8, 7, 6]);
        p.copy(a, 0, a, 4, 4);
        assert_eq!(p.bytes(a, 0, 8), &[9, 8, 7, 6, 9, 8, 7, 6]);
    }

    #[test]
    fn reduce_sum_f32() {
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 8);
        let b = p.alloc(Rank(1), 8);
        p.fill_with(a, DataType::F32, |i| i as f32);
        p.fill_with(b, DataType::F32, |i| 10.0 * i as f32);
        p.reduce(a, 0, b, 0, 2, DataType::F32, ReduceOp::Sum);
        assert_eq!(p.to_f32_vec(b, DataType::F32), vec![0.0, 11.0]);
    }

    #[test]
    fn reduce_f16_rounds_like_gpu() {
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 2);
        let b = p.alloc(Rank(0), 2);
        p.fill_with(a, DataType::F16, |_| 1.0);
        p.fill_with(b, DataType::F16, |_| 2048.0);
        // 2048 + 1 is not representable in f16; rounds to 2048.
        p.reduce(a, 0, b, 0, 1, DataType::F16, ReduceOp::Sum);
        assert_eq!(p.to_f32_vec(b, DataType::F16), vec![2048.0]);
    }

    #[test]
    fn multimem_reduce_sums_all_sources() {
        let mut p = MemoryPool::new();
        let bufs: Vec<_> = (0..4).map(|r| p.alloc(Rank(r), 8)).collect();
        for (r, &b) in bufs.iter().enumerate() {
            p.fill_with(b, DataType::F32, |i| (r + i) as f32);
        }
        let dst = p.alloc(Rank(0), 8);
        let srcs: Vec<_> = bufs.iter().map(|&b| (b, 0)).collect();
        p.multimem_reduce(&srcs, dst, 0, 2, DataType::F32, ReduceOp::Sum);
        // element 0: 0+1+2+3=6, element 1: 1+2+3+4=10
        assert_eq!(p.to_f32_vec(dst, DataType::F32), vec![6.0, 10.0]);
    }

    #[test]
    fn multimem_broadcast_writes_everyone() {
        let mut p = MemoryPool::new();
        let src = p.alloc(Rank(0), 4);
        p.write(src, 0, &[5, 6, 7, 8]);
        let d1 = p.alloc(Rank(1), 4);
        let d2 = p.alloc(Rank(2), 4);
        p.multimem_broadcast(src, 0, &[(d1, 0), (d2, 0)], 4);
        assert_eq!(p.bytes(d1, 0, 4), &[5, 6, 7, 8]);
        assert_eq!(p.bytes(d2, 0, 4), &[5, 6, 7, 8]);
    }

    #[test]
    fn overlapping_in_place_reduce_rejected() {
        for pool in MODES {
            let mut p = pool();
            let a = p.alloc(Rank(0), 16);
            let msg = panic_message(|| p.reduce(a, 0, a, 4, 2, DataType::F32, ReduceOp::Sum));
            assert!(msg.contains("overlapping in-place reduce"), "{msg}");
        }
    }

    /// Runs each of the five data-plane ops once over 16-byte buffers and
    /// returns `moved_bytes` after each.
    fn traffic(mut p: MemoryPool) -> Vec<u64> {
        let a = p.alloc(Rank(0), 16);
        let b = p.alloc(Rank(1), 16);
        let c = p.alloc(Rank(2), 16);
        let (f32, sum) = (DataType::F32, ReduceOp::Sum);
        let mut after = Vec::new();
        p.copy(a, 0, b, 0, 16);
        after.push(p.moved_bytes());
        p.reduce(a, 0, b, 0, 2, f32, sum);
        after.push(p.moved_bytes());
        p.reduce_into(a, 0, b, 4, c, 8, 2, f32, sum);
        after.push(p.moved_bytes());
        p.multimem_reduce(&[(a, 0), (b, 0)], c, 0, 4, DataType::F16, sum);
        after.push(p.moved_bytes());
        p.multimem_broadcast(c, 0, &[(a, 8), (b, 8)], 8);
        after.push(p.moved_bytes());
        after
    }

    #[test]
    fn moved_bytes_counts_data_plane_traffic_only() {
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 16);
        p.write(a, 0, &[1; 16]); // host init: not counted
        p.fill_with(a, DataType::F32, |_| 0.0); // host init: not counted
        assert_eq!(p.moved_bytes(), 0);
        // copy: 16 B written. reduce and reduce_into over 2 f32 elements
        // read two streams and write one: 3 * 8 each. multimem_reduce
        // over 8 B reads two sources and writes one: 3 * 8. The
        // broadcast writes 8 B to two destinations: 2 * 8.
        let want = vec![16, 40, 64, 88, 104];
        assert_eq!(traffic(MemoryPool::new()), want);
        assert_eq!(traffic(MemoryPool::timing_only()), want);
    }

    #[test]
    fn out_of_range_ops_panic_in_both_modes() {
        type Op = fn(&mut MemoryPool, BufferId, BufferId);
        const F32: DataType = DataType::F32;
        const SUM: ReduceOp = ReduceOp::Sum;
        // `a` and `b` are 16 bytes each; every op reaches past one end.
        let ops: [(&str, Op); 7] = [
            ("copy src", |p, a, b| p.copy(a, 8, b, 0, 16)),
            ("copy dst", |p, a, b| p.copy(a, 0, b, 12, 8)),
            ("reduce", |p, a, b| p.reduce(a, 0, b, 8, 4, F32, SUM)),
            ("reduce_into", |p, a, b| {
                p.reduce_into(a, 0, b, 0, a, 12, 2, F32, SUM);
            }),
            ("multimem_reduce", |p, a, b| {
                p.multimem_reduce(&[(a, 0), (b, 16)], a, 0, 1, F32, SUM);
            }),
            ("multimem_broadcast", |p, a, b| {
                p.multimem_broadcast(a, 0, &[(b, 0), (b, 13)], 4);
            }),
            ("offset overflow", |p, a, b| p.copy(a, usize::MAX, b, 0, 2)),
        ];
        for pool in MODES {
            for (name, op) in ops {
                let mut p = pool();
                let a = p.alloc(Rank(0), 16);
                let b = p.alloc(Rank(1), 16);
                let msg = panic_message(|| op(&mut p, a, b));
                assert!(msg.contains("out of range"), "{name}: {msg}");
            }
        }
    }

    #[test]
    fn timing_only_readers_refuse_the_buffer() {
        type Reader = fn(&mut MemoryPool, BufferId);
        let readers: [(&str, Reader); 5] = [
            ("bytes", |p, b| assert_eq!(p.bytes(b, 0, 4).len(), 4)),
            ("bytes_mut", |p, b| p.bytes_mut(b, 0, 4)[0] = 1),
            ("write", |p, b| p.write(b, 0, &[1; 4])),
            ("fill_with", |p, b| p.fill_with(b, DataType::F16, |_| 1.0)),
            ("to_f32_vec", |p, b| {
                assert_eq!(p.to_f32_vec(b, DataType::F16).len(), 8);
            }),
        ];
        for (name, read) in readers {
            let mut bytes = MemoryPool::new();
            let mut timing = MemoryPool::timing_only();
            for p in [&mut bytes, &mut timing] {
                p.alloc(Rank(0), 4);
                p.alloc(Rank(1), 16);
            }
            let b = BufferId(1);
            read(&mut bytes, b);
            let msg = panic_message(|| read(&mut timing, b));
            assert!(
                msg.contains("BufferId(1)") && msg.contains("timing-only"),
                "{name}: {msg}"
            );
        }
    }

    #[test]
    fn timing_only_alloc_holds_no_payload() {
        const MIB80: usize = 80 << 20;
        let mut p = MemoryPool::timing_only();
        let a = p.alloc(Rank(3), MIB80);
        let b = p.alloc(Rank(4), MIB80);
        assert_eq!(p.len(a), MIB80);
        assert_eq!(p.rank_of(a), Rank(3));
        assert!(p.buffers.iter().all(|buf| buf.data.capacity() == 0));
        // Full-length ops still run and count.
        p.copy(a, 0, b, 0, MIB80);
        p.reduce(a, 0, b, 0, MIB80 / 2, DataType::F16, ReduceOp::Sum);
        assert_eq!(p.moved_bytes(), 4 * MIB80 as u64);
    }

    #[test]
    fn in_place_reduce_disjoint_ranges_ok() {
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 16);
        p.fill_with(a, DataType::F32, |i| i as f32); // [0,1,2,3]
        p.reduce(a, 0, a, 8, 2, DataType::F32, ReduceOp::Sum);
        assert_eq!(p.to_f32_vec(a, DataType::F32), vec![0.0, 1.0, 2.0, 4.0]);
    }
}
