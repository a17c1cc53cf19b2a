//! Element types and reduction operators for collective payloads.

use std::fmt;

/// Element type of a collective payload.
///
/// GPU collectives in the paper run predominantly on half precision
/// (`F16`); `F32` and `BF16` are provided for completeness and for tests
/// that want exact arithmetic on small integers.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum DataType {
    /// IEEE-754 binary16.
    F16,
    /// bfloat16 (truncated binary32).
    BF16,
    /// IEEE-754 binary32.
    F32,
}

impl DataType {
    /// Size of one element in bytes.
    pub const fn size(self) -> usize {
        match self {
            DataType::F16 | DataType::BF16 => 2,
            DataType::F32 => 4,
        }
    }

    /// Decodes the element at byte offset `off` in `bytes` to `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `off + self.size()` exceeds `bytes.len()`.
    #[inline]
    pub fn decode(self, bytes: &[u8], off: usize) -> f32 {
        match self {
            DataType::F16 => f16_to_f32(u16::from_le_bytes([bytes[off], bytes[off + 1]])),
            DataType::BF16 => {
                f32::from_bits((u16::from_le_bytes([bytes[off], bytes[off + 1]]) as u32) << 16)
            }
            DataType::F32 => {
                f32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
            }
        }
    }

    /// Encodes `v` into `bytes` at byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off + self.size()` exceeds `bytes.len()`.
    pub fn encode(self, bytes: &mut [u8], off: usize, v: f32) {
        match self {
            DataType::F16 => {
                bytes[off..off + 2].copy_from_slice(&f32_to_f16(v).to_le_bytes());
            }
            DataType::BF16 => {
                let b = ((v.to_bits() >> 16) & 0xffff) as u16;
                bytes[off..off + 2].copy_from_slice(&b.to_le_bytes());
            }
            DataType::F32 => {
                bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
            }
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::F16 => "f16",
            DataType::BF16 => "bf16",
            DataType::F32 => "f32",
        };
        f.write_str(s)
    }
}

/// Lazily built full decode table for binary16:
/// `table[bits] == f16_bits_to_f32(bits)`.
///
/// Every scalar F16 decode ([`f16_to_f32`], [`DataType::decode`] and the
/// scalar lanes) is one load from it instead of a branchy conversion
/// with a loop for subnormals. The table is a pure function of the bit
/// pattern, so sharing it across engines cannot affect determinism. The
/// fixed-size array type lets `table[u16 as usize]` compile without a
/// bounds check.
#[inline]
fn f16_table() -> &'static [f32; 1 << 16] {
    static TABLE: std::sync::OnceLock<Box<[f32; 1 << 16]>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let v: Vec<f32> = (0..=u16::MAX).map(f16_bits_to_f32).collect();
        v.into_boxed_slice().try_into().expect("65536 entries")
    })
}

impl DataType {
    /// Decodes `out.len()` consecutive elements from `bytes` (which must
    /// hold exactly `out.len() * self.size()` bytes).
    pub(crate) fn decode_lanes(self, bytes: &[u8], out: &mut [f32]) {
        debug_assert_eq!(bytes.len(), out.len() * self.size());
        match self {
            DataType::F16 => {
                #[cfg(target_arch = "x86_64")]
                if let Some(f16c) = f16c::F16c::detect() {
                    return f16c.decode(bytes, out);
                }
                decode_f16(bytes, out);
            }
            DataType::BF16 => {
                for (o, c) in out.iter_mut().zip(bytes.chunks_exact(2)) {
                    *o = f32::from_bits((u16::from_le_bytes([c[0], c[1]]) as u32) << 16);
                }
            }
            DataType::F32 => {
                for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                    *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                }
            }
        }
    }

    /// Folds `src.len()` consecutive elements of `bytes` into `acc`:
    /// `acc[i] = op(acc[i], decode(bytes[i]))`.
    pub(crate) fn accumulate_lanes(self, op: ReduceOp, acc: &mut [f32], bytes: &[u8]) {
        debug_assert_eq!(bytes.len(), acc.len() * self.size());
        match self {
            DataType::F16 => {
                #[cfg(target_arch = "x86_64")]
                if let (ReduceOp::Sum, Some(f16c)) = (op, f16c::F16c::detect()) {
                    return f16c.accumulate_sum(acc, bytes);
                }
                accumulate_f16(op, acc, bytes);
            }
            DataType::BF16 => {
                for (a, c) in acc.iter_mut().zip(bytes.chunks_exact(2)) {
                    *a = op.apply(
                        *a,
                        f32::from_bits((u16::from_le_bytes([c[0], c[1]]) as u32) << 16),
                    );
                }
            }
            DataType::F32 => {
                for (a, c) in acc.iter_mut().zip(bytes.chunks_exact(4)) {
                    *a = op.apply(*a, f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
                }
            }
        }
    }

    /// Encodes `src.len()` consecutive elements into `bytes`.
    pub(crate) fn encode_lanes(self, bytes: &mut [u8], src: &[f32]) {
        debug_assert_eq!(bytes.len(), src.len() * self.size());
        match self {
            DataType::F16 => {
                #[cfg(target_arch = "x86_64")]
                if let Some(f16c) = f16c::F16c::detect() {
                    return f16c.encode(bytes, src);
                }
                encode_f16(bytes, src);
            }
            DataType::BF16 => {
                for (v, c) in src.iter().zip(bytes.chunks_exact_mut(2)) {
                    c.copy_from_slice(&(((v.to_bits() >> 16) & 0xffff) as u16).to_le_bytes());
                }
            }
            DataType::F32 => {
                for (v, c) in src.iter().zip(bytes.chunks_exact_mut(4)) {
                    c.copy_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    /// Fused two-address reduction over exact-length byte slices:
    /// `dst[i] = encode(op(decode(dst[i]), decode(src[i])))`.
    ///
    /// This is the inner loop of every collective's data plane; it stays
    /// bit-identical to the scalar decode/apply/encode sequence.
    pub(crate) fn reduce_lanes(self, op: ReduceOp, dst: &mut [u8], src: &[u8]) {
        debug_assert_eq!(dst.len(), src.len());
        match self {
            DataType::F16 => {
                #[cfg(target_arch = "x86_64")]
                if let (ReduceOp::Sum, Some(f16c)) = (op, f16c::F16c::detect()) {
                    return f16c.reduce_sum(dst, src);
                }
                reduce_f16(op, dst, src);
            }
            DataType::BF16 => {
                for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
                    let a = f32::from_bits((u16::from_le_bytes([d[0], d[1]]) as u32) << 16);
                    let b = f32::from_bits((u16::from_le_bytes([s[0], s[1]]) as u32) << 16);
                    let v = ((op.apply(a, b).to_bits() >> 16) & 0xffff) as u16;
                    d.copy_from_slice(&v.to_le_bytes());
                }
            }
            DataType::F32 => {
                for (d, s) in dst.chunks_exact_mut(4).zip(src.chunks_exact(4)) {
                    let a = f32::from_le_bytes([d[0], d[1], d[2], d[3]]);
                    let b = f32::from_le_bytes([s[0], s[1], s[2], s[3]]);
                    d.copy_from_slice(&op.apply(a, b).to_le_bytes());
                }
            }
        }
    }
}

// The scalar F16 lanes: the reference that the F16C lanes must match bit
// for bit, and what they run on each step that holds a NaN and on each
// run's tail of fewer than eight lanes.

fn decode_f16(bytes: &[u8], out: &mut [f32]) {
    let tbl = f16_table();
    for (o, c) in out.iter_mut().zip(bytes.chunks_exact(2)) {
        *o = tbl[u16::from_le_bytes([c[0], c[1]]) as usize];
    }
}

fn accumulate_f16(op: ReduceOp, acc: &mut [f32], bytes: &[u8]) {
    let tbl = f16_table();
    for (a, c) in acc.iter_mut().zip(bytes.chunks_exact(2)) {
        *a = op.apply(*a, tbl[u16::from_le_bytes([c[0], c[1]]) as usize]);
    }
}

fn encode_f16(bytes: &mut [u8], src: &[f32]) {
    for (v, c) in src.iter().zip(bytes.chunks_exact_mut(2)) {
        c.copy_from_slice(&f32_to_f16(*v).to_le_bytes());
    }
}

fn reduce_f16(op: ReduceOp, dst: &mut [u8], src: &[u8]) {
    let tbl = f16_table();
    for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
        let a = tbl[u16::from_le_bytes([d[0], d[1]]) as usize];
        let b = tbl[u16::from_le_bytes([s[0], s[1]]) as usize];
        d.copy_from_slice(&f32_to_f16(op.apply(a, b)).to_le_bytes());
    }
}

/// The F16 lanes on x86-64 CPUs with AVX and F16C: eight halves per step
/// through `vcvtph2ps`, `vaddps` and `vcvtps2ph`, bit-identical to the
/// scalar lanes.
///
/// Without NaNs the two paths compute the same function: the conversions
/// agree with [`f16_bits_to_f32`] and with [`f32_to_f16`] (round to
/// nearest even) on every non-NaN value, which the tests below check
/// exhaustively, and the IEEE sum of two non-NaN `f32`s has one correctly
/// rounded result, the same in a vector lane as in a scalar register.
/// NaNs differ: `vcvtph2ps` quiets the signaling NaNs that the scalar
/// decode keeps, `vcvtps2ph` keeps payload bits that the scalar encode
/// collapses to `sign | 0x7e00`, and [`ReduceOp::apply`] turns every NaN
/// sum into one fixed NaN. So a step whose values hold a NaN (an
/// operand's, or a sum's such as `inf + -inf`) writes nothing and hands
/// its eight lanes to the scalar loop, as does each run's tail of fewer
/// than eight lanes. Max and Min never come here: `f32::max` and
/// `f32::min` treat NaN and ±0 differently from `vmaxps` and `vminps`.
#[cfg(target_arch = "x86_64")]
mod f16c {
    use std::arch::x86_64::{
        __m128i, __m256, _mm256_add_ps, _mm256_cmp_ps, _mm256_cvtph_ps, _mm256_cvtps_ph,
        _mm256_loadu_ps, _mm256_movemask_ps, _mm256_storeu_ps, _mm_loadu_si128, _mm_storeu_si128,
        _CMP_UNORD_Q, _MM_FROUND_TO_NEAREST_INT,
    };

    use super::{accumulate_f16, decode_f16, encode_f16, reduce_f16, ReduceOp};

    /// Proof that this CPU runs AVX and F16C: only [`F16c::detect`]
    /// makes one.
    #[derive(Clone, Copy)]
    pub(super) struct F16c(());

    impl F16c {
        /// `Some` on a CPU with AVX and F16C. `std` caches the CPUID
        /// probe, so this costs two loads of a static.
        pub(super) fn detect() -> Option<F16c> {
            (is_x86_feature_detected!("avx") && is_x86_feature_detected!("f16c"))
                .then_some(F16c(()))
        }

        /// [`decode_f16`]'s result.
        pub(super) fn decode(self, bytes: &[u8], out: &mut [f32]) {
            // SAFETY: an `F16c` exists only on a CPU with AVX and F16C.
            unsafe { decode(bytes, out) }
        }

        /// [`accumulate_f16`]'s result for [`ReduceOp::Sum`].
        pub(super) fn accumulate_sum(self, acc: &mut [f32], bytes: &[u8]) {
            // SAFETY: an `F16c` exists only on a CPU with AVX and F16C.
            unsafe { accumulate_sum(acc, bytes) }
        }

        /// [`encode_f16`]'s result.
        pub(super) fn encode(self, bytes: &mut [u8], src: &[f32]) {
            // SAFETY: an `F16c` exists only on a CPU with AVX and F16C.
            unsafe { encode(bytes, src) }
        }

        /// [`reduce_f16`]'s result for [`ReduceOp::Sum`].
        pub(super) fn reduce_sum(self, dst: &mut [u8], src: &[u8]) {
            // SAFETY: an `F16c` exists only on a CPU with AVX and F16C.
            unsafe { reduce_sum(dst, src) }
        }
    }

    #[target_feature(enable = "avx,f16c")]
    fn decode(bytes: &[u8], out: &mut [f32]) {
        let (halves, bytes_tail) = bytes.as_chunks::<16>();
        let (lanes, out_tail) = out.as_chunks_mut::<8>();
        for (h, o) in halves.iter().zip(lanes) {
            let v = _mm256_cvtph_ps(load_halves(h));
            if has_nan(v) {
                decode_f16(h, o);
            } else {
                store_f32(o, v);
            }
        }
        decode_f16(bytes_tail, out_tail);
    }

    #[target_feature(enable = "avx,f16c")]
    fn accumulate_sum(acc: &mut [f32], bytes: &[u8]) {
        let (lanes, acc_tail) = acc.as_chunks_mut::<8>();
        let (halves, bytes_tail) = bytes.as_chunks::<16>();
        for (a, h) in lanes.iter_mut().zip(halves) {
            let v = _mm256_add_ps(load_f32(a), _mm256_cvtph_ps(load_halves(h)));
            if has_nan(v) {
                accumulate_f16(ReduceOp::Sum, a, h);
            } else {
                store_f32(a, v);
            }
        }
        accumulate_f16(ReduceOp::Sum, acc_tail, bytes_tail);
    }

    #[target_feature(enable = "avx,f16c")]
    fn encode(bytes: &mut [u8], src: &[f32]) {
        let (halves, bytes_tail) = bytes.as_chunks_mut::<16>();
        let (lanes, src_tail) = src.as_chunks::<8>();
        for (h, s) in halves.iter_mut().zip(lanes) {
            let v = load_f32(s);
            if has_nan(v) {
                encode_f16(h, s);
            } else {
                store_halves(h, _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v));
            }
        }
        encode_f16(bytes_tail, src_tail);
    }

    #[target_feature(enable = "avx,f16c")]
    fn reduce_sum(dst: &mut [u8], src: &[u8]) {
        let (dst_halves, dst_tail) = dst.as_chunks_mut::<16>();
        let (src_halves, src_tail) = src.as_chunks::<16>();
        for (d, s) in dst_halves.iter_mut().zip(src_halves) {
            let a = _mm256_cvtph_ps(load_halves(d));
            let v = _mm256_add_ps(a, _mm256_cvtph_ps(load_halves(s)));
            if has_nan(v) {
                reduce_f16(ReduceOp::Sum, d, s);
            } else {
                store_halves(d, _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v));
            }
        }
        reduce_f16(ReduceOp::Sum, dst_tail, src_tail);
    }

    /// Whether any lane of `v` is a NaN.
    #[target_feature(enable = "avx")]
    fn has_nan(v: __m256) -> bool {
        _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(v, v)) != 0
    }

    /// Eight halves, little-endian, as one vector.
    fn load_halves(h: &[u8; 16]) -> __m128i {
        // SAFETY: `h` is 16 readable bytes, and `loadu` needs no alignment.
        unsafe { _mm_loadu_si128(h.as_ptr().cast()) }
    }

    fn store_halves(h: &mut [u8; 16], v: __m128i) {
        // SAFETY: `h` is 16 writable bytes, and `storeu` needs no alignment.
        unsafe { _mm_storeu_si128(h.as_mut_ptr().cast(), v) }
    }

    #[target_feature(enable = "avx")]
    fn load_f32(a: &[f32; 8]) -> __m256 {
        // SAFETY: `a` is 8 readable `f32`s, and `loadu` needs no alignment.
        unsafe { _mm256_loadu_ps(a.as_ptr()) }
    }

    #[target_feature(enable = "avx")]
    fn store_f32(a: &mut [f32; 8], v: __m256) {
        // SAFETY: `a` is 8 writable `f32`s, and `storeu` needs no alignment.
        unsafe { _mm256_storeu_ps(a.as_mut_ptr(), v) }
    }
}

/// Element-wise reduction operator.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise addition (the AllReduce default).
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    /// Applies the operator to two values. A NaN result is always the
    /// quiet NaN `0x7fc0_0000`: which operand's NaN `+`, `f32::max` or
    /// `f32::min` returns is left to the compiler, which may swap the
    /// operands of `+` in one function and not in another, so only a
    /// fixed NaN keeps every result a function of the operands' bits.
    pub fn apply(self, a: f32, b: f32) -> f32 {
        let v = match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        };
        if v.is_nan() {
            f32::from_bits(0x7fc0_0000)
        } else {
            v
        }
    }
}

impl fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
        };
        f.write_str(s)
    }
}

/// Converts an IEEE binary16 bit pattern to `f32`, exactly: a signaling
/// NaN stays signaling and keeps its payload.
#[inline]
pub fn f16_to_f32(h: u16) -> f32 {
    f16_table()[usize::from(h)]
}

/// The branchy conversion [`f16_table`] is built from.
fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h >> 15) & 1) as u32;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x3ff) as u32;
    let bits = if exp == 0 {
        if mant == 0 {
            sign << 31
        } else {
            // Subnormal: normalize.
            let mut e = 127 - 15 + 1;
            let mut m = mant;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x3ff;
            (sign << 31) | ((e as u32) << 23) | (m << 13)
        }
    } else if exp == 0x1f {
        // Inf / NaN
        (sign << 31) | (0xff << 23) | (mant << 13)
    } else {
        (sign << 31) | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

/// Converts `f32` to the nearest IEEE binary16 bit pattern
/// (round-to-nearest-even; NaN payloads collapse to a quiet `0x200`).
///
/// Branch-reduced form: normals round via pure integer arithmetic (add
/// `0xfff` plus the mantissa's odd bit, then shift — the carry performs
/// RN-even, overflowing into infinity exactly when it should), and
/// subnormals round via one IEEE float add against a magic constant
/// whose unit-in-last-place is the half-precision quantum, so the FPU's
/// own RN-even mode does the rounding. Both paths are deterministic on
/// every host (single adds, no FMA) and were verified bit-identical to
/// the scalar reference over all 2^32 inputs. This form also repairs a
/// latent underflow bug in the old converter, which truncated the range
/// (2^-25, 2^-24) to zero instead of rounding it up to the smallest
/// subnormal half.
pub fn f32_to_f16(v: f32) -> u16 {
    const F32_INFTY: u32 = 255 << 23;
    const F16_MAX: u32 = (127 + 16) << 23;
    // 2^-24 scaled so that adding it aligns a subnormal half's last bit
    // with the f32 mantissa's last bit.
    const DENORM_MAGIC: u32 = ((127 - 15) + (23 - 10) + 1) << 23;
    let bits = v.to_bits();
    let sign = (bits >> 16) as u16 & 0x8000;
    let mut u = bits & 0x7fff_ffff;
    let o: u16 = if u >= F16_MAX {
        // Overflow saturates to inf; NaN keeps its sign, payload 0x200.
        if u > F32_INFTY {
            0x7e00
        } else {
            0x7c00
        }
    } else if u < (113 << 23) {
        // Subnormal (or zero) result: let the float add round it.
        let f = f32::from_bits(u) + f32::from_bits(DENORM_MAGIC);
        (f.to_bits() - DENORM_MAGIC) as u16
    } else {
        let mant_odd = (u >> 13) & 1;
        u = u.wrapping_add((15u32.wrapping_sub(127) << 23).wrapping_add(0xfff));
        u = u.wrapping_add(mant_odd);
        (u >> 13) as u16
    };
    sign | o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trip_exact_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25, 1024.0] {
            let h = f32_to_f16(v);
            assert_eq!(f16_to_f32(h), v, "round trip failed for {v}");
        }
    }

    #[test]
    fn f16_overflow_saturates_to_inf() {
        assert!(f16_to_f32(f32_to_f16(1e6)).is_infinite());
        assert!(f16_to_f32(f32_to_f16(-1e6)).is_infinite());
    }

    #[test]
    fn f16_subnormals_round_trip() {
        let smallest = 5.960_464_5e-8; // 2^-24
        let h = f32_to_f16(smallest);
        let back = f16_to_f32(h);
        assert!((back - smallest).abs() < 1e-9);
    }

    #[test]
    fn f16_nan_preserved() {
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
    }

    #[test]
    fn f16_underflow_rounds_to_smallest_subnormal() {
        // Values strictly between 2^-25 and 2^-24 are nearer the smallest
        // subnormal half (bit pattern 1) than zero and must round up; the
        // old converter truncated this whole range to zero.
        assert_eq!(f32_to_f16(f32::from_bits(0x3300_0001)), 1);
        assert_eq!(f32_to_f16(f32::from_bits(0x337f_ffff)), 1);
        assert_eq!(f32_to_f16(-f32::from_bits(0x3300_0001)), 0x8001);
        // Exactly 2^-25 is a tie and rounds to even (zero), below it to zero.
        assert_eq!(f32_to_f16(f32::from_bits(0x3300_0000)), 0);
        assert_eq!(f32_to_f16(f32::from_bits(0x32ff_ffff)), 0);
    }

    #[test]
    fn f16_rounding_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half value;
        // round-to-even keeps 1.0.
        let v = 1.0 + 2f32.powi(-11);
        assert_eq!(f16_to_f32(f32_to_f16(v)), 1.0);
        // 1 + 3*2^-11 is halfway and rounds up to even mantissa.
        let v = 1.0 + 3.0 * 2f32.powi(-11);
        assert_eq!(f16_to_f32(f32_to_f16(v)), 1.0 + 2.0 * 2f32.powi(-10));
    }

    #[test]
    fn encode_decode_all_dtypes() {
        let mut buf = [0u8; 8];
        for dt in [DataType::F16, DataType::BF16, DataType::F32] {
            dt.encode(&mut buf, 0, 3.5);
            assert_eq!(dt.decode(&buf, 0), 3.5, "{dt}");
        }
    }

    #[test]
    fn reduce_ops() {
        assert_eq!(ReduceOp::Sum.apply(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.apply(2.0, 3.0), 2.0);
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DataType::F16.size(), 2);
        assert_eq!(DataType::BF16.size(), 2);
        assert_eq!(DataType::F32.size(), 4);
    }

    /// The F16C lanes against the scalar lanes, bit for bit. On a CPU
    /// without F16C each test says so on stderr and checks nothing.
    #[cfg(target_arch = "x86_64")]
    mod f16c_lanes {
        use super::super::f16c::F16c;
        use super::*;

        fn f16c() -> Option<F16c> {
            let f16c = F16c::detect();
            if f16c.is_none() {
                eprintln!("no AVX and F16C on this CPU: the F16C lanes cannot run");
            }
            f16c
        }

        /// SplitMix64.
        struct Rng(u64);

        impl Rng {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }

            /// A random half, a quarter of the time one of the special
            /// values: ±0, subnormals, the largest normals, ±Inf, and
            /// quiet and signaling NaNs of both signs.
            fn half(&mut self) -> u16 {
                const SPECIAL: [u16; 14] = [
                    0x0000, 0x8000, 0x0001, 0x83ff, 0x7bff, 0xfbff, 0x7c00, 0xfc00, 0x7e00, 0xfe00,
                    0x7c01, 0xfd55, 0x7fff, 0x0400,
                ];
                match self.next() % 4 {
                    0 => SPECIAL[(self.next() % SPECIAL.len() as u64) as usize],
                    _ => self.next() as u16,
                }
            }
        }

        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        /// Encodes `vals` on both paths and compares the halves.
        fn assert_encodes_alike(f16c: F16c, vals: &[f32]) {
            let mut fast = vec![0; 2 * vals.len()];
            let mut scalar = fast.clone();
            f16c.encode(&mut fast, vals);
            encode_f16(&mut scalar, vals);
            let half = |b: &[u8], i: usize| u16::from_le_bytes([b[2 * i], b[2 * i + 1]]);
            if let Some(i) = (0..vals.len()).find(|&i| half(&fast, i) != half(&scalar, i)) {
                panic!(
                    "f32 {:#010x}: F16C {:#06x}, scalar {:#06x}",
                    vals[i].to_bits(),
                    half(&fast, i),
                    half(&scalar, i)
                );
            }
        }

        #[test]
        fn decode_matches_the_scalar_lanes_on_every_half() {
            let Some(f16c) = f16c() else { return };
            let bytes: Vec<u8> = (0..=u16::MAX).flat_map(u16::to_le_bytes).collect();
            let mut fast = vec![0.0; 1 << 16];
            f16c.decode(&bytes, &mut fast);
            for (h, v) in (0..=u16::MAX).zip(&fast) {
                assert_eq!(v.to_bits(), f16_bits_to_f32(h).to_bits(), "half {h:#06x}");
            }
        }

        /// Every f32 whose low 13 bits, the ones a normal half drops, are
        /// 0, 1, just below, at or just above the halfway point, all ones,
        /// or one of three random patterns per value of the high 19 bits.
        #[test]
        fn encode_matches_the_scalar_lanes_at_rounding_boundaries() {
            let Some(f16c) = f16c() else { return };
            let mut rng = Rng(13);
            let mut vals = Vec::new();
            for hi in 0..1u32 << 19 {
                let random = [(); 3].map(|()| rng.next() as u32 & 0x1fff);
                let lows = [0, 1, 0x0fff, 0x1000, 0x1001, 0x1fff]
                    .into_iter()
                    .chain(random);
                vals.extend(lows.map(|low| f32::from_bits(hi << 13 | low)));
                if vals.len() >= 1 << 16 {
                    assert_encodes_alike(f16c, &vals);
                    vals.clear();
                }
            }
            assert_encodes_alike(f16c, &vals);
        }

        /// Every f32 bit pattern. Run it with
        /// `cargo test --release -p hw -- --ignored`.
        #[test]
        #[ignore = "2^32 values: about 15 s in release"]
        fn encode_matches_the_scalar_lanes_on_every_f32() {
            let Some(f16c) = f16c() else { return };
            let mut vals = vec![0.0; 1 << 12];
            for hi in 0..1u32 << 20 {
                for (lo, v) in (0..).zip(&mut vals) {
                    *v = f32::from_bits(hi << 12 | lo);
                }
                assert_encodes_alike(f16c, &vals);
            }
        }

        /// All four lanes over random runs of 0 to 40 lanes (every tail
        /// length, and NaN and non-NaN steps side by side) and a few long
        /// ones, from [`Rng::half`]'s halves.
        #[test]
        fn lanes_match_the_scalar_lanes_on_random_runs() {
            let Some(f16c) = f16c() else { return };
            let mut rng = Rng(24);
            for len in (0..=40).chain([1000, 2048]) {
                for _ in 0..64 {
                    let a: Vec<u8> = (0..len).flat_map(|_| rng.half().to_le_bytes()).collect();
                    let b: Vec<u8> = (0..len).flat_map(|_| rng.half().to_le_bytes()).collect();
                    // Partial sums as a reduction holds them, and some
                    // arbitrary f32s.
                    let acc: Vec<f32> = (0..len)
                        .map(|_| match rng.next() % 4 {
                            0 => f32::from_bits(rng.next() as u32),
                            _ => f16_bits_to_f32(rng.half()) + f16_bits_to_f32(rng.half()),
                        })
                        .collect();

                    let (mut fast, mut scalar) = (vec![0.0; len], vec![0.0; len]);
                    f16c.decode(&a, &mut fast);
                    decode_f16(&a, &mut scalar);
                    assert_eq!(bits(&fast), bits(&scalar), "decode {a:?}");

                    assert_encodes_alike(f16c, &acc);

                    let (mut fast, mut scalar) = (acc.clone(), acc.clone());
                    f16c.accumulate_sum(&mut fast, &a);
                    accumulate_f16(ReduceOp::Sum, &mut scalar, &a);
                    assert_eq!(bits(&fast), bits(&scalar), "accumulate {acc:?} {a:?}");

                    let (mut fast, mut scalar) = (a.clone(), a.clone());
                    f16c.reduce_sum(&mut fast, &b);
                    reduce_f16(ReduceOp::Sum, &mut scalar, &b);
                    assert_eq!(fast, scalar, "reduce {a:?} {b:?}");
                }
            }
        }
    }
}
