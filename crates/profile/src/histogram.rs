//! Allocation-free log-linear latency histogram (HdrHistogram-style).
//!
//! Values are bucketed with full precision below 16 and ~6% relative
//! error above: each power-of-two range is split into 16 linear
//! sub-buckets. The bucket array is fixed-size and lives inline, so
//! recording is a shift, a mask, and an increment — cheap enough to sit
//! on the per-request path of the serving simulator and the per-iteration
//! path of the benchmark harness.

/// Number of sub-buckets per power-of-two range (and the value below
/// which bucketing is exact).
const LINEAR: u64 = 16;
/// log2 of [`LINEAR`].
const LINEAR_BITS: u32 = 4;
/// Bucket count: exact range + 16 sub-buckets for each of the 60
/// remaining exponents of a u64.
const BUCKETS: usize = (LINEAR as usize) + 60 * (LINEAR as usize);

/// A log-linear histogram of `u64` samples.
///
/// Units are the caller's choice; the simulator records virtual
/// nanoseconds. Quantile queries return an upper bound of the chosen
/// bucket, so reported percentiles never understate the latency.
#[derive(Clone)]
pub struct Histogram {
    counts: [u32; BUCKETS],
    count: u64,
    max: u64,
    min: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.50))
            .field("p95", &self.quantile(0.95))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

/// Maps a value to its bucket index.
fn bucket_of(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    // e = index of the most significant set bit; v >= 16, so e >= 4.
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - LINEAR_BITS)) & (LINEAR - 1);
    ((e - (LINEAR_BITS - 1)) as usize) << LINEAR_BITS | sub as usize
}

/// Upper bound (inclusive) of the values mapping to bucket `b`.
fn bucket_high(b: usize) -> u64 {
    if b < LINEAR as usize {
        return b as u64;
    }
    let e = (b >> LINEAR_BITS) as u32 + (LINEAR_BITS - 1);
    let sub = (b as u64) & (LINEAR - 1);
    let base = (1u64 << e) | (sub << (e - LINEAR_BITS));
    base + (1u64 << (e - LINEAR_BITS)) - 1
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            max: 0,
            min: u64::MAX,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample (exact, not bucketed). Zero when empty.
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest recorded sample (exact). Zero when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean of the recorded samples (exact sum / count). Zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: an inclusive upper bound of
    /// the bucket holding the `ceil(q * count)`-th smallest sample,
    /// clamped to the exact observed max. Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return bucket_high(b).min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile upper bound.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Occupied buckets as `(upper_bound, count)` pairs in ascending
    /// value order — the export shape for serialized latency
    /// distributions (e.g. the TTFT/TPOT histograms in the serving-sweep
    /// artifact). Upper bounds are inclusive and never understate the
    /// samples they cover; the final bucket's bound is clamped to the
    /// exact observed max.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let max = self.max();
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(b, &c)| (bucket_high(b).min(max), u64::from(c)))
    }

    /// Folds another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
        self.sum = self.sum.saturating_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.quantile(1.0), 15);
        // With exact buckets, the 8th smallest of 0..=15 is 7.
        assert_eq!(h.p50(), 7);
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let mut h = Histogram::new();
        // A long-tailed set: 99 fast samples and 1 slow one.
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000);
        assert_eq!(h.count(), 100);
        let p50 = h.p50();
        assert!((1_000..1_100).contains(&p50), "p50={p50}");
        assert!(h.p99() < 1_100);
        assert_eq!(h.quantile(1.0), 1_000_000);
        assert_eq!(h.max(), 1_000_000);
        // Upper-bound semantics: the reported quantile never understates.
        assert!(h.p50() >= 1_000);
    }

    #[test]
    fn bucket_upper_bounds_are_tight() {
        // Every value maps to a bucket whose upper bound is >= the value
        // and within 1/16 relative error.
        for v in [0u64, 1, 15, 16, 17, 100, 1023, 1024, 1 << 20, u64::MAX >> 1] {
            let b = bucket_of(v);
            let hi = bucket_high(b);
            assert!(hi >= v, "v={v} hi={hi}");
            assert!(hi - v <= v / 16 + 1, "v={v} hi={hi}");
        }
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 2);
        assert_eq!(a.max(), 1_000);
        assert!((a.mean() - (10.0 + 1_000.0 + 2.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn merged_quantiles_never_understate() {
        // The never-understating quantile contract must survive merge:
        // a merged histogram reports the same quantiles as one that
        // recorded every sample directly, and both bound the exact
        // order statistics of the combined set from above.
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) % 3_000_000 + 1
        };
        let first: Vec<u64> = (0..500).map(|_| next()).collect();
        let second: Vec<u64> = (0..300).map(|_| next() * 7).collect();

        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut direct = Histogram::new();
        for &v in &first {
            a.record(v);
            direct.record(v);
        }
        for &v in &second {
            b.record(v);
            direct.record(v);
        }
        a.merge(&b);

        let mut all: Vec<u64> = first.iter().chain(second.iter()).copied().collect();
        all.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            // Merging epochs is equivalent to one epoch's recording...
            assert_eq!(a.quantile(q), direct.quantile(q), "q={q}");
            // ...and never understates the exact order statistic.
            let rank = ((all.len() as f64 * q).ceil() as usize).clamp(1, all.len());
            let exact = all[rank - 1];
            assert!(
                a.quantile(q) >= exact,
                "q={q}: merged {} understates exact {exact}",
                a.quantile(q)
            );
        }
        assert_eq!(a.count(), direct.count());
        assert_eq!(a.max(), *all.last().unwrap(), "max stays exact");
        assert_eq!(a.min(), all[0]);
    }

    #[test]
    fn buckets_cover_every_sample_and_respect_the_max() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 17, 900, 900, 900, 123_456] {
            h.record(v);
        }
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        // Counts sum to the sample count; bounds ascend; the last bound
        // is the exact max.
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), h.count());
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(buckets.last().unwrap().0, 123_456);
        // The exact-range bucket for 3 holds both samples.
        assert!(buckets.contains(&(3, 2)));
        assert!(Histogram::new().buckets().next().is_none());
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
