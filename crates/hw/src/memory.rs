//! GPU memory: byte buffers with real copies and element-wise
//! reductions, or timing-only buffers that keep their length and no bytes.

use std::cell::{Cell, OnceCell};
use std::mem;
use std::ops::Range;

use crate::dtype::{DataType, ReduceOp};
use crate::topology::Rank;

/// Bytes per payload page. A bytes buffer's payload is a row of pages of
/// this size (the last one shorter when the length is not a multiple of
/// it), each created as zeros by the first write that touches it. A page
/// is one slot of its pool's page heap: slot `k` is heap bytes
/// `[k * PAGE_BYTES, (k + 1) * PAGE_BYTES)`, a whole slot even for a
/// short last page.
pub const PAGE_BYTES: usize = 4096;

/// What a page that was never written reads as.
static ZERO_PAGE: [u8; PAGE_BYTES] = [0; PAGE_BYTES];

thread_local! {
    /// The page heap of the largest bytes pool this thread has dropped,
    /// emptied with its capacity kept, for the thread's next
    /// [`MemoryPool::new`]: a fresh cluster writes its pages into memory
    /// that is already mapped instead of faulting it in again.
    static SPARE_HEAP: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Identifies a buffer allocated in a [`MemoryPool`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(usize);

#[derive(Debug)]
struct Buffer {
    rank: Rank,
    /// Logical size in bytes.
    len: usize,
    /// The payload, page by page: page `p` is slot `pages[p]` of the
    /// pool's page heap. A page that is `None`, or lies past the end of
    /// the table, was never written and reads as zeros. Never grown in a
    /// timing-only pool.
    pages: Vec<Option<u32>>,
    /// A contiguous copy of the whole payload, made for a
    /// [`MemoryPool::bytes`] or [`MemoryPool::bytes_mut`] range that spans
    /// pages. While it exists it holds the buffer's bytes; the next pool
    /// method that writes the buffer, or reads it in a data-plane op,
    /// drops it first ([`Buffer::settle`]).
    image: OnceCell<Box<[u8]>>,
    /// The range of `image` that `bytes_mut` handed out, copied back into
    /// the pages when the image is dropped.
    dirty: Option<Range<usize>>,
}

impl Buffer {
    /// Where byte `off` lies in the pool's page heap, if its page was
    /// ever written.
    fn at(&self, off: usize) -> Option<usize> {
        let slot = self.pages.get(off / PAGE_BYTES).copied().flatten()?;
        Some(slot as usize * PAGE_BYTES + off % PAGE_BYTES)
    }

    /// Where byte `off` lies in `heap`, appending its page to `heap` as a
    /// zeroed slot the first time.
    fn at_mut(&mut self, heap: &mut Vec<u8>, off: usize) -> usize {
        let p = off / PAGE_BYTES;
        if self.pages.len() <= p {
            self.pages.resize(p + 1, None);
        }
        let slot = *self.pages[p].get_or_insert_with(|| {
            let slot = heap.len() / PAGE_BYTES;
            heap.resize(heap.len() + PAGE_BYTES, 0);
            u32::try_from(slot).expect("a page heap holds fewer than 2^32 pages")
        });
        slot as usize * PAGE_BYTES + off % PAGE_BYTES
    }

    /// `n` bytes at `off`, a range inside one page: zeros if that page
    /// was never written.
    fn slice<'h>(&self, heap: &'h [u8], off: usize, n: usize) -> &'h [u8] {
        debug_assert!(self.image.get().is_none(), "pages read under an image");
        match self.at(off) {
            Some(at) => &heap[at..at + n],
            None => &ZERO_PAGE[off % PAGE_BYTES..][..n],
        }
    }

    /// `n` bytes at `off`, a range inside one page, for writing: the page
    /// is created as zeros the first time.
    fn slice_mut<'h>(&mut self, heap: &'h mut Vec<u8>, off: usize, n: usize) -> &'h mut [u8] {
        debug_assert!(self.image.get().is_none(), "pages written under an image");
        let at = self.at_mut(heap, off);
        &mut heap[at..at + n]
    }

    /// Calls `f(i, bytes)` with bytes `[off + i, off + i + bytes.len())`
    /// of the `len` at `off`, in order: one page run at a time, or one
    /// slice of the image while there is one.
    fn read_runs(&self, heap: &[u8], off: usize, len: usize, mut f: impl FnMut(usize, &[u8])) {
        match self.image.get() {
            Some(image) => f(0, &image[off..off + len]),
            None => runs([off], len).for_each(|(i, n)| f(i, self.slice(heap, off + i, n))),
        }
    }

    /// Appends the `len` bytes at `off` to `out`.
    fn read_into(&self, heap: &[u8], off: usize, len: usize, out: &mut Vec<u8>) {
        self.read_runs(heap, off, len, |_, bytes| out.extend_from_slice(bytes));
    }

    /// Writes `data` at `off`, one page run at a time.
    fn write(&mut self, heap: &mut Vec<u8>, off: usize, data: &[u8]) {
        for (i, n) in runs([off], data.len()) {
            self.slice_mut(heap, off + i, n)
                .copy_from_slice(&data[i..i + n]);
        }
    }

    /// The whole payload as one contiguous copy, made once and kept as
    /// the image until the next write.
    fn image(&self, heap: &[u8]) -> &[u8] {
        self.image.get_or_init(|| {
            let mut data = Vec::with_capacity(self.len);
            self.read_into(heap, 0, self.len, &mut data);
            data.into_boxed_slice()
        })
    }

    /// Drops the image before the pages are written or read directly,
    /// first copying back the range `bytes_mut` handed out of it.
    fn settle(&mut self, heap: &mut Vec<u8>) {
        if let Some(image) = self.image.take() {
            if let Some(dirty) = self.dirty.take() {
                self.write(heap, dirty.start, &image[dirty]);
            }
        }
    }
}

/// The pieces of a `len`-byte range at each of `offs` that lie inside
/// one page of every operand: `(i, n)` stands for bytes `[i, i + n)` of
/// the range. When every offset is a multiple of an element size, so is
/// every `i` and `n` (pages are a multiple of every element size).
fn runs<const N: usize>(offs: [usize; N], len: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut i = 0;
    std::iter::from_fn(move || {
        (i < len).then(|| {
            let to_page_end = offs.map(|off| PAGE_BYTES - (off + i) % PAGE_BYTES);
            let n = to_page_end.into_iter().fold(len - i, usize::min);
            i += n;
            (i - n, n)
        })
    })
}

/// Whether `len` bytes at `off` lie inside one page.
fn in_one_page(off: usize, len: usize) -> bool {
    len == 0 || off / PAGE_BYTES == (off + len - 1) / PAGE_BYTES
}

/// All simulated GPU memory in the cluster.
///
/// Every buffer is tagged with the rank that owns it. What a buffer holds
/// is fixed for the whole pool when it is built:
///
/// * **Bytes** ([`Machine::new`](crate::Machine::new)): a buffer holds
///   real bytes in pages of [`PAGE_BYTES`]. [`alloc`](MemoryPool::alloc)
///   records only its length. A page is created, as zeros, by the first
///   write that touches it; a page never written reads as zeros and
///   reading it creates nothing, so a buffer costs memory only for the
///   pages some operation wrote. Peer-to-peer `put`, switch `reduce`, and
///   local `copy` operations move actual bytes here, page run by page
///   run, so benchmark harnesses can verify collective outputs
///   bit-for-bit (within floating-point reduction-order tolerance) before
///   trusting a timing. [`bytes`](MemoryPool::bytes) returns a page's own
///   bytes for a range inside one page, and a contiguous copy for a range
///   that spans pages; the buffer keeps that copy until its next write,
///   so no read sees stale bytes. Readers that want no copy read one page
///   at a time. [`resident_bytes`](MemoryPool::resident_bytes) counts the
///   pages created so far.
///
///   The pool keeps every page it creates in one contiguous page heap, a
///   page per [`PAGE_BYTES`] slot in the order they were created. When a
///   bytes pool drops, its heap is emptied but keeps its capacity, and
///   the next [`MemoryPool::new`] on the same thread takes it, so a fresh
///   cluster's pages land in memory that is already mapped. A thread thus
///   keeps the heap of the largest bytes pool it has dropped until it
///   builds its next pool or exits.
/// * **Timing-only** ([`Machine::timing_only`](crate::Machine::timing_only)):
///   a buffer records its length and no page is ever created. The
///   data-plane operations run the same range and overlap checks and
///   count the same [`moved_bytes`](MemoryPool::moved_bytes) as in a
///   bytes pool, then return without touching bytes. The readers
///   ([`bytes`](MemoryPool::bytes), [`bytes_mut`](MemoryPool::bytes_mut),
///   [`write`](MemoryPool::write), [`fill_with`](MemoryPool::fill_with),
///   [`to_f32_vec`](MemoryPool::to_f32_vec)) panic instead of returning
///   zeros. No timing depends on a payload value, so a run gives the same
///   virtual times, events and counters in either mode; timing-only is for
///   runs that never read their outputs. A timing-only pool never takes
///   or leaves a page heap.
#[derive(Debug, Default)]
pub struct MemoryPool {
    buffers: Vec<Buffer>,
    /// Every page of every buffer, one [`PAGE_BYTES`] slot each, in the
    /// order the pages were created. Empty in a timing-only pool.
    heap: Vec<u8>,
    /// Buffers hold no payload (fixed at construction).
    timing_only: bool,
    /// Cumulative bytes moved by data-plane operations (`copy`, `reduce`,
    /// `reduce_into`, `multimem_*`), counting operand traffic. Host-side
    /// initialization (`write`, `fill_with`) is not counted.
    moved_bytes: u64,
    /// Reusable `f32` accumulator for the reductions that go through
    /// registers, so the per-instruction hot path never allocates; also
    /// holds one page run of `fill_with`'s values.
    scratch: Vec<f32>,
    /// Reusable contiguous copy of an operand that cannot be walked page
    /// run by page run in place.
    stage: Vec<u8>,
}

// A panic inside a pool method leaves every image either not made or
// whole (`OnceCell::get_or_init` stores nothing if it unwinds), and pages
// change only through `&mut self`, so a shared pool is still consistent
// after `catch_unwind`.
impl std::panic::RefUnwindSafe for MemoryPool {}

impl Drop for MemoryPool {
    /// Leaves a bytes pool's page heap, emptied, as the thread's spare,
    /// unless the spare already has the larger capacity. While the
    /// thread's locals are being destroyed the heap is freed instead.
    fn drop(&mut self) {
        if self.timing_only {
            return;
        }
        let mut heap = mem::take(&mut self.heap);
        heap.clear();
        // An `Err` means the spare is gone with the thread: `heap` drops.
        let _ = SPARE_HEAP.try_with(|spare| {
            spare.set(std::cmp::max_by_key(spare.take(), heap, Vec::capacity));
        });
    }
}

impl MemoryPool {
    /// Creates an empty pool whose buffers hold real bytes. It takes this
    /// thread's spare page heap, if there is one, for its pages (see the
    /// type docs).
    pub fn new() -> MemoryPool {
        let mut pool = MemoryPool::default();
        pool.heap = SPARE_HEAP.try_with(Cell::take).unwrap_or_default();
        pool
    }

    /// Creates an empty timing-only pool: buffers keep their length and
    /// no payload, data-plane operations check and count but move no
    /// bytes, and the readers panic (see the type docs).
    pub(crate) fn timing_only() -> MemoryPool {
        let mut pool = MemoryPool::default();
        pool.timing_only = true;
        pool
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

    /// Whether buffers hold no payload (see the type docs).
    pub fn is_timing_only(&self) -> bool {
        self.timing_only
    }

    /// Counts the data-plane traffic of a replayed launch: `bytes` that
    /// the launch's simulated run counted in
    /// [`moved_bytes`](MemoryPool::moved_bytes). Only a timing-only pool
    /// can take a replay, since it has no payload that a replay would
    /// leave stale.
    ///
    /// # Panics
    ///
    /// Panics if the pool holds bytes.
    pub fn replay_moved_bytes(&mut self, bytes: u64) {
        assert!(self.timing_only, "a bytes pool cannot replay a launch");
        self.moved_bytes += bytes;
    }

    /// Total bytes of the payload pages created so far: every page some
    /// write has touched (a whole [`PAGE_BYTES`], or the rest of its
    /// buffer for a last page) in a bytes pool, and always 0 in a
    /// timing-only one. Reads create no page, and the copies that reads
    /// across pages make are not counted; nor are the page heap's unused
    /// capacity and the rest of a short last page's slot.
    pub fn resident_bytes(&self) -> u64 {
        let mut total = 0;
        for buf in &self.buffers {
            for (p, slot) in buf.pages.iter().enumerate() {
                if slot.is_some() {
                    total += PAGE_BYTES.min(buf.len - p * PAGE_BYTES) as u64;
                }
            }
        }
        total
    }

    /// Allocates a buffer of `size` bytes on `rank` without creating any
    /// of its payload. In a bytes pool the buffer reads as `size` zeros,
    /// and each page of it is created by the first write that touches it,
    /// as the next slot of the pool's page heap; in a timing-only pool
    /// none ever is.
    pub fn alloc(&mut self, rank: Rank, size: usize) -> BufferId {
        self.buffers.push(Buffer {
            rank,
            len: size,
            pages: Vec::new(),
            image: OnceCell::new(),
            dirty: None,
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

    /// Read-only view of `len` bytes at `off`: the page's own bytes when
    /// the range lies inside one page, else a contiguous copy of the
    /// buffer that it keeps until its next write. Creates no page.
    ///
    /// # Panics
    ///
    /// Panics if the pool is timing-only or the range is out of bounds.
    pub fn bytes(&self, buf: BufferId, off: usize, len: usize) -> &[u8] {
        let b = self.payload(buf, off, len);
        match b.image.get() {
            Some(image) => &image[off..off + len],
            None if in_one_page(off, len) => b.slice(&self.heap, off, len),
            None => &b.image(&self.heap)[off..off + len],
        }
    }

    /// Mutable view of `len` bytes at `off`, creating the pages it
    /// covers: the page's own bytes when the range lies inside one page,
    /// else a contiguous copy of the buffer whose range the pool's next
    /// write to the buffer copies back into its pages.
    ///
    /// # Panics
    ///
    /// Panics if the pool is timing-only or the range is out of bounds.
    pub fn bytes_mut(&mut self, buf: BufferId, off: usize, len: usize) -> &mut [u8] {
        let (b, heap) = self.payload_mut(buf, off, len);
        if len == 0 {
            return &mut [];
        }
        if in_one_page(off, len) {
            return b.slice_mut(heap, off, len);
        }
        for (i, _) in runs([off], len) {
            b.at_mut(heap, off + i);
        }
        b.image(heap);
        b.dirty = Some(off..off + len);
        &mut b.image.get_mut().expect("the image was just made")[off..off + len]
    }

    /// Overwrites `src.len()` bytes at `off` with `src`.
    ///
    /// # Panics
    ///
    /// Panics if the pool is timing-only or the destination range is out
    /// of bounds.
    pub fn write(&mut self, buf: BufferId, off: usize, src: &[u8]) {
        let (b, heap) = self.payload_mut(buf, off, src.len());
        b.write(heap, off, src);
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
        self.spread(src, src_off, &[(dst, dst_off)], len);
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
        let es = dtype.size();
        if src != dst && src_off.is_multiple_of(es) && dst_off.is_multiple_of(es) {
            for (i, n) in runs([src_off, dst_off], len) {
                let (s, d) = self.two_pages((src, src_off + i), (dst, dst_off + i), n);
                dtype.reduce_lanes(op, d, s);
            }
        } else {
            // `op(dst, src)` through the registers, the same bits.
            let operands = [(dst, dst_off), (src, src_off)];
            self.fold(&operands, dst, dst_off, count, dtype, op);
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
        self.fold(&[(a, a_off), (b, b_off)], dst, dst_off, count, dtype, op);
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
        self.fold(srcs, dst, dst_off, count, dtype, op);
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
        self.spread(src, src_off, dsts, len);
    }

    /// Fills a buffer with encoded elements produced by `f(element_index)`,
    /// creating every page. Each page run's values go through `scratch`
    /// and are encoded together.
    ///
    /// # Panics
    ///
    /// Panics if the pool is timing-only.
    pub fn fill_with(&mut self, buf: BufferId, dtype: DataType, mut f: impl FnMut(usize) -> f32) {
        let es = dtype.size();
        let len = self.len(buf);
        let mut vals = mem::take(&mut self.scratch);
        let (b, heap) = self.payload_mut(buf, 0, len);
        for (i, n) in runs([0], len) {
            vals.clear();
            vals.extend((i / es..(i + n) / es).map(&mut f));
            dtype.encode_lanes(&mut b.slice_mut(heap, i, n)[..vals.len() * es], &vals);
        }
        self.scratch = vals;
    }

    /// Decodes the whole buffer as a vector of `f32`, one page run at a
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if the pool is timing-only.
    pub fn to_f32_vec(&self, buf: BufferId, dtype: DataType) -> Vec<f32> {
        let es = dtype.size();
        let len = self.len(buf);
        let b = self.payload(buf, 0, len);
        let mut out = vec![0.0; len / es];
        b.read_runs(&self.heap, 0, len, |i, bytes| {
            let lanes = &mut out[i / es..][..bytes.len() / es];
            dtype.decode_lanes(&bytes[..lanes.len() * es], lanes);
        });
        out
    }

    /// Writes the `len` bytes at `(src, src_off)` into every destination,
    /// one page run of both at a time. When a destination shares the
    /// source's buffer the source goes through `stage` first, so every
    /// destination gets it as it was before the first write.
    fn spread(&mut self, src: BufferId, src_off: usize, dsts: &[(BufferId, usize)], len: usize) {
        if dsts.iter().all(|&(dst, _)| dst != src) {
            for &(dst, dst_off) in dsts {
                for (i, n) in runs([src_off, dst_off], len) {
                    let (s, d) = self.two_pages((src, src_off + i), (dst, dst_off + i), n);
                    d.copy_from_slice(s);
                }
            }
            return;
        }
        let mut stage = mem::take(&mut self.stage);
        stage.clear();
        self.buffers[src.0].read_into(&self.heap, src_off, len, &mut stage);
        for &(dst, dst_off) in dsts {
            self.buffers[dst.0].write(&mut self.heap, dst_off, &stage);
        }
        self.stage = stage;
    }

    /// `dst = op(srcs...)` over `count` elements through the `f32`
    /// accumulator, the register path: every source is read before the
    /// destination is written, so the ranges may alias in any way. An
    /// operand whose offset is not a multiple of the element size has
    /// elements that straddle pages, so it goes through `stage`.
    fn fold(
        &mut self,
        srcs: &[(BufferId, usize)],
        dst: BufferId,
        dst_off: usize,
        count: usize,
        dtype: DataType,
        op: ReduceOp,
    ) {
        let es = dtype.size();
        let len = count * es;
        let mut acc = mem::take(&mut self.scratch);
        let mut stage = mem::take(&mut self.stage);
        acc.clear();
        acc.resize(count, 0.0);
        for (k, &(src, off)) in srcs.iter().enumerate() {
            let mut lanes = |i: usize, bytes: &[u8]| {
                let acc = &mut acc[i / es..][..bytes.len() / es];
                if k == 0 {
                    dtype.decode_lanes(bytes, acc);
                } else {
                    dtype.accumulate_lanes(op, acc, bytes);
                }
            };
            let b = &self.buffers[src.0];
            if off.is_multiple_of(es) {
                b.read_runs(&self.heap, off, len, lanes);
            } else {
                stage.clear();
                b.read_into(&self.heap, off, len, &mut stage);
                lanes(0, &stage);
            }
        }
        let d = &mut self.buffers[dst.0];
        if dst_off.is_multiple_of(es) {
            for (i, n) in runs([dst_off], len) {
                let out = d.slice_mut(&mut self.heap, dst_off + i, n);
                dtype.encode_lanes(out, &acc[i / es..(i + n) / es]);
            }
        } else {
            stage.clear();
            stage.resize(len, 0);
            dtype.encode_lanes(&mut stage, &acc);
            d.write(&mut self.heap, dst_off, &stage);
        }
        self.scratch = acc;
        self.stage = stage;
    }

    /// The shared check of every data-plane operation, run in both
    /// modes before any byte moves: counts `moved` bytes, checks that
    /// each operand range `[off, off + len)` lies inside its buffer, and
    /// settles each operand's image so its pages hold its bytes.
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
            self.check_range(buf, off, len);
            self.buffers[buf.0].settle(&mut self.heap);
        }
    }

    /// Panics unless `[off, off + len)` lies inside `buf`.
    fn check_range(&self, buf: BufferId, off: usize, len: usize) {
        let size = self.buffers[buf.0].len;
        assert!(
            off.checked_add(len).is_some_and(|end| end <= size),
            "{buf:?}: {len} bytes at offset {off} out of range for a buffer of {size} bytes"
        );
    }

    /// `buf` for a host reader of `len` bytes at `off`.
    fn payload(&self, buf: BufferId, off: usize, len: usize) -> &Buffer {
        self.refuse_timing_only(buf);
        self.check_range(buf, off, len);
        &self.buffers[buf.0]
    }

    /// `buf`, settled, and the page heap for a host writer of `len`
    /// bytes at `off`.
    fn payload_mut(
        &mut self,
        buf: BufferId,
        off: usize,
        len: usize,
    ) -> (&mut Buffer, &mut Vec<u8>) {
        self.refuse_timing_only(buf);
        self.check_range(buf, off, len);
        let b = &mut self.buffers[buf.0];
        b.settle(&mut self.heap);
        (b, &mut self.heap)
    }

    /// The `n` bytes at `src` to read and at `dst` to write, each a range
    /// inside one page of two different buffers; the destination page is
    /// created first. The two slots differ, so one split of the heap
    /// lends both.
    fn two_pages(
        &mut self,
        (src, src_off): (BufferId, usize),
        (dst, dst_off): (BufferId, usize),
        n: usize,
    ) -> (&[u8], &mut [u8]) {
        debug_assert_ne!(src, dst);
        let d = self.buffers[dst.0].at_mut(&mut self.heap, dst_off);
        match self.buffers[src.0].at(src_off) {
            None => (
                &ZERO_PAGE[src_off % PAGE_BYTES..][..n],
                &mut self.heap[d..d + n],
            ),
            Some(s) if s < d => {
                let (lo, hi) = self.heap.split_at_mut(d);
                (&lo[s..s + n], &mut hi[..n])
            }
            Some(s) => {
                let (lo, hi) = self.heap.split_at_mut(s);
                (&hi[..n], &mut lo[d..d + n])
            }
        }
    }

    fn refuse_timing_only(&self, buf: BufferId) {
        assert!(
            !self.timing_only,
            "{buf:?} has no bytes to read or write: it lives in a timing-only pool"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

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
        // Each reader, and the payload bytes it creates in a bytes pool:
        // the writers create the buffer's one page, the readers nothing.
        let readers: [(&str, Reader, u64); 5] = [
            ("bytes", |p, b| assert_eq!(p.bytes(b, 0, 4).len(), 4), 0),
            ("bytes_mut", |p, b| p.bytes_mut(b, 0, 4)[0] = 1, 16),
            ("write", |p, b| p.write(b, 0, &[1; 4]), 16),
            (
                "fill_with",
                |p, b| p.fill_with(b, DataType::F16, |_| 1.0),
                16,
            ),
            (
                "to_f32_vec",
                |p, b| assert_eq!(p.to_f32_vec(b, DataType::F16).len(), 8),
                0,
            ),
        ];
        for (name, read, created) in readers {
            let mut bytes = MemoryPool::new();
            let mut timing = MemoryPool::timing_only();
            for p in [&mut bytes, &mut timing] {
                p.alloc(Rank(0), 4);
                p.alloc(Rank(1), 16);
            }
            let b = BufferId(1);
            read(&mut bytes, b);
            assert_eq!(bytes.resident_bytes(), created, "{name}");
            let msg = panic_message(|| read(&mut timing, b));
            assert!(
                msg.contains("BufferId(1)") && msg.contains("timing-only"),
                "{name}: {msg}"
            );
            assert_eq!(timing.resident_bytes(), 0, "{name}");
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
        // Full-length ops still run and count, and create no payload.
        p.copy(a, 0, b, 0, MIB80);
        p.reduce(a, 0, b, 0, MIB80 / 2, DataType::F16, ReduceOp::Sum);
        p.reduce_into(a, 0, b, 0, a, 0, MIB80 / 2, DataType::F16, ReduceOp::Sum);
        p.multimem_reduce(&[(a, 0), (b, 0)], a, 0, 8, DataType::F32, ReduceOp::Max);
        p.multimem_broadcast(a, 0, &[(b, 0)], MIB80);
        assert_eq!(p.moved_bytes(), 8 * MIB80 as u64 + 96);
        assert_eq!(p.resident_bytes(), 0);
    }

    #[test]
    fn bytes_pages_are_created_at_first_write() {
        const MIB80: usize = 80 << 20;
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), MIB80);
        let b = p.alloc(Rank(1), MIB80);
        assert_eq!(p.resident_bytes(), 0);
        // Reading absent pages sees zeros and creates none of them.
        assert!(p.bytes(a, 0, MIB80).iter().all(|&x| x == 0));
        assert!(p.to_f32_vec(b, DataType::F32).iter().all(|&x| x == 0.0));
        assert_eq!(p.resident_bytes(), 0);
        // A write straddling pages 1 and 2 of `a` creates those two.
        p.write(a, 2 * PAGE_BYTES - 2, &[7; 4]);
        assert_eq!(p.resident_bytes(), 2 * PAGE_BYTES as u64);
        let present: Vec<bool> = p.buffers[a.0].pages.iter().map(Option::is_some).collect();
        assert_eq!(present, [false, true, true]);
        assert!(p.buffers[b.0].pages.is_empty());
        // The last page holds only the rest of the buffer.
        let c = p.alloc(Rank(2), PAGE_BYTES + 10);
        p.copy(a, 2 * PAGE_BYTES - 2, c, PAGE_BYTES + 6, 4);
        assert_eq!(p.resident_bytes(), 2 * PAGE_BYTES as u64 + 10);
        assert_eq!(p.bytes(c, PAGE_BYTES + 4, 6), &[0, 0, 7, 7, 7, 7]);
    }

    #[test]
    fn reads_across_pages_never_see_stale_bytes() {
        let len = 2 * PAGE_BYTES + 100;
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), len);
        let b = p.alloc(Rank(1), len);
        p.fill_with(a, DataType::F16, |i| (i % 5) as f32);
        let before = p.bytes(a, 0, len).to_vec();
        // The copy a spanning read made is replaced after the next write.
        p.write(a, PAGE_BYTES - 1, &[9, 9]);
        let after = p.bytes(a, PAGE_BYTES - 4, 8);
        assert_eq!(after[..3], before[PAGE_BYTES - 4..PAGE_BYTES - 1]);
        assert_eq!(after[3..5], [9, 9]);
        // A mutable view across pages lands in the pages: in-page reads,
        // reads across pages and data-plane ops all see it.
        p.bytes_mut(a, PAGE_BYTES - 2, PAGE_BYTES + 4).fill(3);
        assert_eq!(p.bytes(a, PAGE_BYTES - 2, 1), &[3]);
        assert_eq!(
            p.bytes(a, 2 * PAGE_BYTES + 1, 2),
            &[3, before[2 * PAGE_BYTES + 2]]
        );
        p.copy(a, PAGE_BYTES - 3, b, PAGE_BYTES - 3, 3);
        assert_eq!(
            p.bytes(b, PAGE_BYTES - 3, 3),
            &[before[PAGE_BYTES - 3], 3, 3]
        );
        assert_eq!(
            p.bytes(a, 2 * PAGE_BYTES + 2, 2),
            &before[2 * PAGE_BYTES + 2..][..2]
        );
        assert_eq!(p.resident_bytes(), len as u64 + PAGE_BYTES as u64);
    }

    #[test]
    fn in_place_reduce_disjoint_ranges_ok() {
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 16);
        p.fill_with(a, DataType::F32, |i| i as f32); // [0,1,2,3]
        p.reduce(a, 0, a, 8, 2, DataType::F32, ReduceOp::Sum);
        assert_eq!(p.to_f32_vec(a, DataType::F32), vec![0.0, 1.0, 2.0, 4.0]);
    }

    /// The capacity of this thread's spare page heap.
    fn spare_capacity() -> usize {
        SPARE_HEAP.with(|spare| {
            let heap = spare.take();
            let capacity = heap.capacity();
            spare.set(heap);
            capacity
        })
    }

    #[test]
    fn the_next_bytes_pool_takes_the_spare_heap_and_timing_only_ones_do_not() {
        SPARE_HEAP.with(Cell::take);
        let mut p = MemoryPool::new();
        let a = p.alloc(Rank(0), 3 * PAGE_BYTES);
        p.write(a, 0, &[0xA5; 3 * PAGE_BYTES]);
        drop(p);
        let kept = spare_capacity();
        assert!(kept >= 3 * PAGE_BYTES, "{kept}");
        // A timing-only pool neither takes the spare nor leaves its own.
        let mut t = MemoryPool::timing_only();
        assert_eq!(t.heap.capacity(), 0);
        let b = t.alloc(Rank(1), 3 * PAGE_BYTES);
        t.copy(b, 0, b, PAGE_BYTES, PAGE_BYTES);
        drop(t);
        assert_eq!(spare_capacity(), kept);
        // A smaller bytes pool's heap does not displace it.
        let mut small = MemoryPool::default();
        let c = small.alloc(Rank(2), 8);
        small.write(c, 0, &[1; 8]);
        drop(small);
        assert_eq!(spare_capacity(), kept);
        // The next bytes pool takes it and creates its pages as zeros.
        let mut p = MemoryPool::new();
        assert_eq!((p.heap.len(), p.heap.capacity()), (0, kept));
        assert_eq!(spare_capacity(), 0);
        let a = p.alloc(Rank(0), 3 * PAGE_BYTES);
        p.write(a, PAGE_BYTES, &[7]);
        assert_eq!(p.bytes(a, PAGE_BYTES - 1, 3), &[0, 7, 0]);
        assert_eq!(p.resident_bytes(), PAGE_BYTES as u64);
    }

    #[test]
    fn a_pool_dropped_with_its_thread_frees_its_heap() {
        thread_local! {
            static HELD: RefCell<Option<MemoryPool>> = const { RefCell::new(None) };
        }
        std::thread::spawn(|| {
            // `HELD` is first touched before the pool touches the spare,
            // so where a thread's locals are destroyed in reverse order
            // the spare is already gone when the pool drops.
            HELD.with(|held| assert!(held.borrow().is_none()));
            let mut p = MemoryPool::new();
            let a = p.alloc(Rank(0), 2 * PAGE_BYTES);
            p.write(a, PAGE_BYTES - 1, &[1, 2]);
            HELD.with(|held| *held.borrow_mut() = Some(p));
        })
        .join()
        .expect("the thread exits without a panic");
    }
}
