//! Log-bucketed latency histogram with lock-free recording and exact
//! (within bucket resolution) quantile queries.
//!
//! The bucketing scheme is the HDR-histogram one: values below
//! [`SUB_BUCKETS`] land in unit-width buckets (exact); above that, each
//! power-of-two octave is split into [`SUB_BUCKETS`] equal sub-buckets, so
//! the relative quantization error is bounded by `1 / SUB_BUCKETS`
//! (~3.1%) at every magnitude. With 32 sub-buckets and octaves up to
//! 2³⁶ µs (~19 h) the whole table is 1024 counters — 8 KiB of atomics,
//! allocated once at construction and never on the record path.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Sub-buckets per power-of-two octave (and the width of the exact
/// unit-bucket region at the bottom of the range).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
const SUB_BITS: u32 = 5;
/// Highest most-significant-bit position resolved into buckets; values at
/// or above `2^(MAX_OCTAVE+1)` are counted in the saturation bucket.
const MAX_OCTAVE: u32 = 35;
/// Total bucket count: the unit region plus one block per octave.
pub const NUM_BUCKETS: usize = ((MAX_OCTAVE - SUB_BITS + 1) as usize + 1) * SUB_BUCKETS as usize;

/// A concurrent log-bucketed histogram of `u64` samples (microseconds for
/// span stages, epochs for staleness).
///
/// All mutation goes through [`record`](Self::record), which is lock-free
/// and allocation-free (`gpma-lint`'s hot-path rule covers it). Readers
/// ([`quantile`](Self::quantile), [`snapshot`](Self::snapshot)) observe a
/// racy-but-consistent-enough view: each counter is individually atomic.
#[derive(Debug)]
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    saturated: AtomicU64,
}

/// A point-in-time summary of one [`Histogram`] (what the registry renders
/// and the bench harness persists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (mean = `sum / count`).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Samples beyond the bucketed range (counted in `count`/`max` but
    /// quantized to the saturation bucket).
    pub saturated: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram. Allocates its full bucket table up front so the
    /// record path never does.
    pub fn new() -> Self {
        let counts: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            counts: counts.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            saturated: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value, or `None` when it saturates the range.
    #[inline]
    fn index(v: u64) -> Option<usize> {
        if v < SUB_BUCKETS {
            return Some(v as usize);
        }
        let msb = 63 - v.leading_zeros();
        if msb > MAX_OCTAVE {
            return None;
        }
        let shift = msb - SUB_BITS;
        Some(((shift as usize + 1) * SUB_BUCKETS as usize) + ((v >> shift) - SUB_BUCKETS) as usize)
    }

    /// Inclusive lower bound of bucket `i`.
    fn bucket_lo(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB_BUCKETS {
            return i;
        }
        let block = i / SUB_BUCKETS; // ≥ 1
        let pos = i % SUB_BUCKETS;
        (SUB_BUCKETS + pos) << (block - 1)
    }

    /// Inclusive upper bound of bucket `i` (the largest value that maps to
    /// it).
    fn bucket_hi(i: usize) -> u64 {
        if i + 1 >= NUM_BUCKETS {
            (1u64 << (MAX_OCTAVE + 1)) - 1
        } else {
            Self::bucket_lo(i + 1) - 1
        }
    }

    // lint: hot-path
    /// Record one sample. Lock-free, allocation-free; safe to call from
    /// any thread, including span-guard drops inside flush workers.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
        match Self::index(v) {
            Some(i) => {
                self.counts[i].fetch_add(1, Relaxed);
            }
            None => {
                self.saturated.fetch_add(1, Relaxed);
            }
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Smallest sample seen (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Samples that exceeded the bucketed range.
    pub fn saturated(&self) -> u64 {
        self.saturated.load(Relaxed)
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) as the upper bound of the bucket
    /// holding the rank-`⌈q·n⌉` sample, clamped to the observed max — so
    /// the report never understates a latency and overstates it by at most
    /// one bucket width (`1/SUB_BUCKETS` relative). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c.load(Relaxed);
            if cum >= target {
                return Self::bucket_hi(i).min(self.max());
            }
        }
        // Rank falls among the saturated samples: all we know is the max.
        self.max()
    }

    /// Reset every counter to the empty state.
    pub fn reset(&self) {
        for c in self.counts.iter() {
            c.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
        self.saturated.store(0, Relaxed);
    }

    /// A point-in-time summary with the standard quantile set.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            saturated: self.saturated(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_region_is_exact() {
        let h = Histogram::new();
        for v in 0..SUB_BUCKETS {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        // Every value below SUB_BUCKETS has its own bucket: quantiles are
        // exact order statistics here.
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn bucket_boundaries_round_trip() {
        // lo/hi must tile the range: hi(i) + 1 == lo(i + 1), and index(v)
        // must agree with the bounds at every boundary.
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(Histogram::bucket_hi(i) + 1, Histogram::bucket_lo(i + 1), "bucket {i}");
        }
        for i in 0..NUM_BUCKETS {
            let lo = Histogram::bucket_lo(i);
            let hi = Histogram::bucket_hi(i);
            assert_eq!(Histogram::index(lo), Some(i), "lo of bucket {i}");
            assert_eq!(Histogram::index(hi), Some(i), "hi of bucket {i}");
        }
        // First octave bucket starts exactly where the unit region ends.
        assert_eq!(Histogram::bucket_lo(SUB_BUCKETS as usize), SUB_BUCKETS);
    }

    #[test]
    fn relative_error_bounded_by_sub_bucket_width() {
        let h = Histogram::new();
        for v in [100u64, 1_000, 10_000, 100_000, 1_000_000, 10_000_000] {
            h.record(v);
            let q = h.quantile(1.0);
            assert!(q >= v, "quantile understates: {q} < {v}");
            assert!(
                q as f64 <= v as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64) + 1.0,
                "quantile overstates beyond one sub-bucket: {q} vs {v}"
            );
            h.reset();
        }
    }

    #[test]
    fn saturation_counts_but_does_not_lose_samples() {
        let h = Histogram::new();
        let big = 1u64 << 40; // beyond MAX_OCTAVE
        h.record(big);
        h.record(10);
        assert_eq!(h.count(), 2);
        assert_eq!(h.saturated(), 1);
        assert_eq!(h.max(), big);
        assert_eq!(h.quantile(0.5), 10);
        // The saturated sample's quantile degrades to the observed max.
        assert_eq!(h.quantile(1.0), big);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(
            s,
            HistSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0,
                p999: 0,
                saturated: 0
            }
        );
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantiles_never_exceed_observed_max() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(33); // bucket [32, 33]: hi == 33 == max
        }
        assert_eq!(h.quantile(0.999), 33);
        assert_eq!(h.quantile(0.5), 33);
    }
}
