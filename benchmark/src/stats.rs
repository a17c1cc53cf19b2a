//! Order statistics, geometric means and the FNV-1a output digest.

/// Nearest-rank percentile: the smallest sample with at least `p` % of
/// the samples at or below it. `xs` need not be sorted.
///
/// # Panics
///
/// Panics on an empty sample or a `p` outside `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p) - 1]
}

/// The 1-based rank the `p`th percentile of `n` samples sits at.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie above the nearest-rank `p`th percentile.
/// A tail percentile is only reported as such when this is at least
/// [`MIN_BEYOND`].
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// Samples a reported tail percentile needs beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median (nearest rank, so always one of the samples).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty input or a non-positive value.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of nothing");
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geomean of a non-positive value"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Geometric mean of `base / other` over paired points: the speed-up of
/// `other` over `base` when both are latencies.
pub fn paired_speedup(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs.iter().map(|&(base, other)| base / other).collect();
    geomean(&ratios)
}

/// 64-bit FNV-1a over a stream of integers and floats (by bit pattern),
/// so two runs agree on the digest only if every fed value is
/// bit-identical and in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feeds an integer.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Feeds a float by its bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_a_hundred_samples_leaves_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(samples_beyond(100, 90.0), MIN_BEYOND);
        assert_eq!(xs.iter().filter(|&&x| x > 90.0).count(), 10);
    }

    #[test]
    fn fewer_than_a_hundred_samples_leave_too_few_beyond_p90() {
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert!(samples_beyond(99, 90.0) < MIN_BEYOND);
        // p80 of 50 samples still has ten beyond it.
        assert_eq!(samples_beyond(50, 80.0), MIN_BEYOND);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn percentile_ignores_input_order_and_median_is_a_sample() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
    }

    #[test]
    fn paired_speedup_is_the_geomean_of_ratios() {
        // 4x and 1x average to 2x geometrically, not 2.5x.
        let s = paired_speedup(&[(8.0, 2.0), (3.0, 3.0)]);
        assert!((s - 2.0).abs() < 1e-12);
        // Order of pairs does not matter; scale of a pair does not either.
        let t = paired_speedup(&[(3000.0, 3000.0), (80.0, 20.0)]);
        assert!((s - t).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn digest_sees_order_and_bits() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
        let mut z = Digest::default();
        z.f64(0.0);
        let mut nz = Digest::default();
        nz.f64(-0.0);
        assert_ne!(z, nz);
        // FNV-1a of the empty stream is the offset basis.
        assert_eq!(Digest::default().value(), 0xcbf2_9ce4_8422_2325);
    }
}
