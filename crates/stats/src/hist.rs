//! Log-bucketed latency histogram with percentile and CDF queries.
//!
//! A histogram keeps only the buckets between its smallest and its
//! largest sample, so its memory follows the spread of what it saw
//! rather than the full `u64` range: a fleet tenant that recorded eight
//! I/Os between 50 µs and 2 ms holds a few hundred counters, not 3 776.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Number of sub-buckets per octave; 64 gives ≤ ~1.6 % relative error,
/// comparable to an HDR histogram with two significant digits.
const SUB_BITS: u32 = 6;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Total bucket count: exact values below 64 ns, then 64 linear
/// sub-buckets per octave up to `u64::MAX`.
const NUM_BUCKETS: usize = bucket_index(u64::MAX) + 1;

/// A log-linear ("HDR-style") histogram of latencies in nanoseconds.
///
/// Values up to 64 ns are recorded exactly; beyond that, each octave is
/// split into 64 linear sub-buckets, bounding relative quantization error
/// at ~1.6 %. This matches how the paper reports latency (CDFs and P99
/// in microseconds).
///
/// Memory is proportional to the span between the smallest and largest
/// sample, not constant: the histogram stores the bucket window
/// `bucket_index(min) ..= bucket_index(max)`, 64 counters (512 B) per
/// octave it covers, and at most 3 776 counters (~30 KiB) when samples
/// run from 0 to `u64::MAX`. An empty histogram allocates nothing.
///
/// `Debug` prints the logical dense bucket array — `[]` while empty, all
/// 3 776 entries once a sample exists — so a report's `Debug` string,
/// and any digest hashed from it, does not depend on the window layout.
///
/// # Example
///
/// ```
/// use iostats::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for i in 1..=1000u64 {
///     h.record_ns(i * 1_000); // 1..=1000 us
/// }
/// let p50 = h.percentile_ns(0.50) as f64 / 1_000.0;
/// assert!((p50 - 500.0).abs() / 500.0 < 0.03);
/// ```
#[derive(Clone)]
pub struct LatencyHistogram {
    /// Counts of buckets `bucket_index(min_ns) ..= bucket_index(max_ns)`;
    /// empty until the first sample.
    buckets: Vec<u64>,
    /// Bucket index of `buckets[0]`, i.e. `bucket_index(min_ns)` once a
    /// sample exists; cached so `record_ns` needs one range check.
    start: usize,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

/// One point of a cumulative distribution function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CdfPoint {
    /// Latency in microseconds.
    pub latency_us: f64,
    /// Cumulative probability in `[0, 1]`.
    pub cum_prob: f64,
}

/// The latency digest printed in reports.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 90th percentile, microseconds.
    pub p90_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds (the paper's headline metric).
    pub p99_us: f64,
    /// 99.9th percentile, microseconds.
    pub p999_us: f64,
    /// Maximum observed, microseconds.
    pub max_us: f64,
}

const fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64;
        let shift = msb - SUB_BITS as u64;
        let sub = (v >> shift) & (SUB_COUNT - 1);
        ((msb - SUB_BITS as u64 + 1) * SUB_COUNT + sub) as usize
    }
}

fn bucket_value(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_COUNT {
        idx
    } else {
        let octave = idx / SUB_COUNT - 1;
        let sub = idx % SUB_COUNT;
        let base = 1u64 << (octave + SUB_BITS as u64);
        let step = 1u64 << octave;
        // Midpoint of the sub-bucket.
        base + sub * step + step / 2
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Vec::new(),
            start: 0,
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Grows the window so it also covers buckets `lo..=hi`.
    #[cold]
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.buckets.is_empty() {
            self.start = lo;
            self.buckets = vec![0; hi - lo + 1];
            return;
        }
        if hi >= self.start + self.buckets.len() {
            self.buckets.resize(hi - self.start + 1, 0);
        }
        if lo < self.start {
            self.buckets
                .splice(0..0, std::iter::repeat_n(0, self.start - lo));
            self.start = lo;
        }
    }

    /// Records one latency sample in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        let idx = bucket_index(ns);
        // Below the window wraps to a huge offset, so one compare covers
        // both ends (and the empty histogram).
        let mut at = idx.wrapping_sub(self.start);
        if at >= self.buckets.len() {
            self.widen(idx, idx);
            at = idx - self.start;
        }
        self.buckets[at] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records a [`simcore::SimDuration`] sample.
    pub fn record(&mut self, d: simcore::SimDuration) {
        self.record_ns(d.as_nanos());
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency in nanoseconds (0 if empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (0 if empty).
    #[must_use]
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded value (0 if empty).
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Value at quantile `q` in `[0, 1]`; 0 if empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile_ns(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_value(self.start + i)
                    .min(self.max_ns)
                    .max(self.min_ns.min(self.max_ns));
            }
        }
        self.max_ns
    }

    /// Value at quantile `q`, in (fractional) microseconds.
    #[must_use]
    pub fn percentile_us(&self, q: f64) -> f64 {
        self.percentile_ns(q) as f64 / 1_000.0
    }

    /// Extracts `points` evenly spaced CDF points (plus the tail at
    /// P99/P99.9/P99.99), sorted by latency. Empty if no samples.
    #[must_use]
    pub fn cdf(&self, points: usize) -> Vec<CdfPoint> {
        if self.count == 0 || points == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(points + 3);
        for i in 1..=points {
            let q = i as f64 / points as f64;
            out.push(CdfPoint {
                latency_us: self.percentile_us(q),
                cum_prob: q,
            });
        }
        for q in [0.99, 0.999, 0.9999] {
            out.push(CdfPoint {
                latency_us: self.percentile_us(q),
                cum_prob: q,
            });
        }
        out.sort_by(|a, b| a.cum_prob.total_cmp(&b.cum_prob));
        out.dedup_by(|a, b| (a.cum_prob - b.cum_prob).abs() < 1e-12);
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count > 0 {
            self.widen(other.start, other.start + other.buckets.len() - 1);
            let at = other.start - self.start;
            for (b, ob) in self.buckets[at..].iter_mut().zip(&other.buckets) {
                *b += ob;
            }
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Produces the report digest.
    #[must_use]
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_us: self.mean_ns() / 1_000.0,
            p50_us: self.percentile_us(0.50),
            p90_us: self.percentile_us(0.90),
            p95_us: self.percentile_us(0.95),
            p99_us: self.percentile_us(0.99),
            p999_us: self.percentile_us(0.999),
            max_us: self.max_ns() as f64 / 1_000.0,
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("buckets", &DenseBuckets(self))
            .field("count", &self.count)
            .field("sum_ns", &self.sum_ns)
            .field("min_ns", &self.min_ns)
            .field("max_ns", &self.max_ns)
            .finish()
    }
}

/// A histogram's window printed as the dense `0..NUM_BUCKETS` array.
struct DenseBuckets<'a>(&'a LatencyHistogram);

impl fmt::Debug for DenseBuckets<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = self.0;
        let mut list = f.debug_list();
        if !h.buckets.is_empty() {
            let zeros = |n| std::iter::repeat_n(&0u64, n);
            list.entries(zeros(h.start))
                .entries(&h.buckets)
                .entries(zeros(NUM_BUCKETS - h.start - h.buckets.len()));
        }
        list.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The dense layout the window replaced, kept as a reference model:
    /// every bucket `0..NUM_BUCKETS`, allocated on the first sample. Its
    /// derived `Debug` is the string the windowed `Debug` must match.
    mod dense {
        use super::super::{bucket_index, bucket_value, CdfPoint, LatencySummary, NUM_BUCKETS};

        #[derive(Debug, Clone)]
        pub struct LatencyHistogram {
            buckets: Vec<u64>,
            count: u64,
            sum_ns: u128,
            min_ns: u64,
            max_ns: u64,
        }

        impl LatencyHistogram {
            pub fn new() -> Self {
                LatencyHistogram {
                    buckets: Vec::new(),
                    count: 0,
                    sum_ns: 0,
                    min_ns: u64::MAX,
                    max_ns: 0,
                }
            }

            pub fn record_ns(&mut self, ns: u64) {
                if self.buckets.is_empty() {
                    self.buckets = vec![0; NUM_BUCKETS];
                }
                self.buckets[bucket_index(ns)] += 1;
                self.count += 1;
                self.sum_ns += u128::from(ns);
                self.min_ns = self.min_ns.min(ns);
                self.max_ns = self.max_ns.max(ns);
            }

            pub fn count(&self) -> u64 {
                self.count
            }

            pub fn mean_ns(&self) -> f64 {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum_ns as f64 / self.count as f64
                }
            }

            pub fn min_ns(&self) -> u64 {
                if self.count == 0 {
                    0
                } else {
                    self.min_ns
                }
            }

            pub fn max_ns(&self) -> u64 {
                self.max_ns
            }

            pub fn percentile_ns(&self, q: f64) -> u64 {
                if self.count == 0 {
                    return 0;
                }
                let target = ((q * self.count as f64).ceil() as u64).max(1);
                let mut cum = 0;
                for (i, &c) in self.buckets.iter().enumerate() {
                    cum += c;
                    if cum >= target {
                        return bucket_value(i)
                            .min(self.max_ns)
                            .max(self.min_ns.min(self.max_ns));
                    }
                }
                self.max_ns
            }

            fn percentile_us(&self, q: f64) -> f64 {
                self.percentile_ns(q) as f64 / 1_000.0
            }

            pub fn cdf(&self, points: usize) -> Vec<CdfPoint> {
                if self.count == 0 || points == 0 {
                    return Vec::new();
                }
                let mut out = Vec::with_capacity(points + 3);
                for i in 1..=points {
                    let q = i as f64 / points as f64;
                    out.push(CdfPoint {
                        latency_us: self.percentile_us(q),
                        cum_prob: q,
                    });
                }
                for q in [0.99, 0.999, 0.9999] {
                    out.push(CdfPoint {
                        latency_us: self.percentile_us(q),
                        cum_prob: q,
                    });
                }
                out.sort_by(|a, b| a.cum_prob.total_cmp(&b.cum_prob));
                out.dedup_by(|a, b| (a.cum_prob - b.cum_prob).abs() < 1e-12);
                out
            }

            pub fn merge(&mut self, other: &LatencyHistogram) {
                if !other.buckets.is_empty() {
                    if self.buckets.is_empty() {
                        self.buckets = vec![0; NUM_BUCKETS];
                    }
                    for (b, ob) in self.buckets.iter_mut().zip(&other.buckets) {
                        *b += ob;
                    }
                }
                self.count += other.count;
                self.sum_ns += other.sum_ns;
                if other.count > 0 {
                    self.min_ns = self.min_ns.min(other.min_ns);
                    self.max_ns = self.max_ns.max(other.max_ns);
                }
            }

            pub fn summary(&self) -> LatencySummary {
                LatencySummary {
                    count: self.count,
                    mean_us: self.mean_ns() / 1_000.0,
                    p50_us: self.percentile_us(0.50),
                    p90_us: self.percentile_us(0.90),
                    p95_us: self.percentile_us(0.95),
                    p99_us: self.percentile_us(0.99),
                    p999_us: self.percentile_us(0.999),
                    max_us: self.max_ns() as f64 / 1_000.0,
                }
            }
        }
    }

    /// Values at the edges of the exact range, the first log bucket and
    /// the top of the `u32`/`u64` ranges.
    const EDGES: [u64; 5] = [0, 63, 64, u32::MAX as u64, u64::MAX];

    /// Turns raw words into one leaf's samples. `raw[0]` picks a range
    /// `[2^lo - 1, 2^(lo + span))` (so leaves land disjoint, overlapping
    /// or nested); each later word is a sample in it, or one of
    /// [`EDGES`] one time in eight. A single word is an empty leaf.
    fn leaf_samples(raw: &[u64]) -> Vec<u64> {
        let lo_bit = (raw[0] % 64) as u32;
        let span = ((raw[0] >> 8) % 12) as u32;
        let lo = (1u128 << lo_bit) - 1;
        let hi = (1u128 << (lo_bit + span).min(64)) - 1;
        raw[1..]
            .iter()
            .map(|&r| {
                if r % 8 == 0 {
                    EDGES[((r >> 3) % 5) as usize]
                } else {
                    (lo + u128::from(r) % (hi - lo + 1)) as u64
                }
            })
            .collect()
    }

    fn window_matches_extremes(h: &LatencyHistogram) -> bool {
        if h.is_empty() {
            h.buckets.is_empty()
        } else {
            h.start == bucket_index(h.min_ns)
                && h.buckets.len() == bucket_index(h.max_ns) - bucket_index(h.min_ns) + 1
        }
    }

    fn assert_same(w: &LatencyHistogram, d: &dense::LatencyHistogram) -> Result<(), TestCaseError> {
        prop_assert!(
            window_matches_extremes(w),
            "window {} + {} buckets",
            w.start,
            w.buckets.len()
        );
        for i in 0..=100 {
            let q = f64::from(i) / 100.0;
            prop_assert_eq!(w.percentile_ns(q), d.percentile_ns(q), "q = {}", q);
        }
        prop_assert_eq!(w.cdf(20), d.cdf(20));
        prop_assert_eq!(w.summary(), d.summary());
        prop_assert_eq!(w.count(), d.count());
        prop_assert_eq!(w.min_ns(), d.min_ns());
        prop_assert_eq!(w.max_ns(), d.max_ns());
        prop_assert_eq!(w.mean_ns().to_bits(), d.mean_ns().to_bits());
        prop_assert!(format!("{w:?}") == format!("{d:?}"), "Debug strings differ");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Records the same samples into both layouts, then merges the
        /// leaves along a random tree, comparing every query at each node.
        #[test]
        fn window_matches_dense_reference(
            leaves in vec(vec(0u64..=u64::MAX, 1..14), 1..7),
            picks in vec(0usize..1_000, 12),
        ) {
            let mut pool = Vec::new();
            for raw in &leaves {
                let (mut w, mut d) = (LatencyHistogram::new(), dense::LatencyHistogram::new());
                for ns in leaf_samples(raw) {
                    w.record_ns(ns);
                    d.record_ns(ns);
                }
                assert_same(&w, &d)?;
                pool.push((w, d));
            }
            let mut picks = picks.into_iter();
            while pool.len() > 1 {
                let from = pool.swap_remove(picks.next().unwrap() % pool.len());
                let into = picks.next().unwrap() % pool.len();
                let (w, d) = &mut pool[into];
                w.merge(&from.0);
                d.merge(&from.1);
                assert_same(w, d)?;
            }
            let (w, d) = &pool[0];
            prop_assert!(format!("{w:#?}") == format!("{d:#?}"), "pretty Debug strings differ");
        }
    }

    #[test]
    fn window_spans_bucket_of_min_to_bucket_of_max() {
        let mut h = LatencyHistogram::new();
        assert!(h.buckets.is_empty());
        for ns in [5_000u64, 7_000, 2_000, 900_000, 64, 1_000_000_000, 0] {
            h.record_ns(ns);
            assert!(window_matches_extremes(&h), "after {ns}");
        }
        let mut low = LatencyHistogram::new();
        low.record_ns(10);
        let mut high = LatencyHistogram::new();
        high.record_ns(u64::MAX);
        low.merge(&high);
        assert_eq!(low.buckets.len(), NUM_BUCKETS - bucket_index(10));
        high.merge(&h);
        assert_eq!(high.buckets.len(), NUM_BUCKETS);
    }

    #[test]
    fn fleet_tenant_holds_a_few_hundred_buckets() {
        let mut h = LatencyHistogram::new();
        for us in [50u64, 80, 120, 300, 700, 1_100, 1_600, 2_000] {
            h.record_ns(us * 1_000);
        }
        let len = h.buckets.len();
        assert!((100..400).contains(&len), "{len} buckets");
        assert_eq!(NUM_BUCKETS, 3_776);
    }

    #[test]
    fn debug_prints_the_dense_bucket_array() {
        let mut h = LatencyHistogram::new();
        assert_eq!(
            format!("{h:?}"),
            format!(
                "LatencyHistogram {{ buckets: [], count: 0, sum_ns: 0, min_ns: {}, max_ns: 0 }}",
                u64::MAX
            )
        );
        h.record_ns(65);
        let mut dense = vec![0u64; NUM_BUCKETS];
        dense[65] = 1;
        assert_eq!(
            format!("{h:?}"),
            format!(
                "LatencyHistogram {{ buckets: {dense:?}, count: 1, sum_ns: 65, min_ns: 65, max_ns: 65 }}"
            )
        );
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile_ns(0.99), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.min_ns(), 0);
        assert!(h.cdf(10).is_empty());
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = LatencyHistogram::new();
        for v in 0..64u64 {
            h.record_ns(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 63);
        assert_eq!(h.percentile_ns(1.0), 63);
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = LatencyHistogram::new();
        let v = 123_456_789u64;
        h.record_ns(v);
        let got = h.percentile_ns(1.0);
        let err = (got as f64 - v as f64).abs() / v as f64;
        assert!(err < 0.02, "error {err}");
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut seed = 1u64;
        for _ in 0..10_000 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record_ns(seed % 10_000_000 + 100);
        }
        let mut last = 0;
        for i in 0..=100 {
            let p = h.percentile_ns(i as f64 / 100.0);
            assert!(p >= last, "p{i} = {p} < {last}");
            last = p;
        }
    }

    #[test]
    fn uniform_median_is_accurate() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1_000u64 {
            h.record_ns(us * 1_000);
        }
        let p50 = h.percentile_us(0.5);
        assert!((p50 - 500.0).abs() / 500.0 < 0.03, "p50 {p50}");
        let p99 = h.percentile_us(0.99);
        assert!((p99 - 990.0).abs() / 990.0 < 0.03, "p99 {p99}");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record_ns(100);
        h.record_ns(300);
        assert_eq!(h.mean_ns(), 200.0);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_ns(1_000);
        b.record_ns(9_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min_ns(), 1_000);
        assert_eq!(a.max_ns(), 9_000);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LatencyHistogram::new();
        a.record_ns(5_000);
        let before = a.summary();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.summary(), before);
    }

    #[test]
    fn merge_into_never_recorded_histogram() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        b.record_ns(7_000);
        b.record_ns(9_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn cdf_is_sorted_and_ends_at_tail() {
        let mut h = LatencyHistogram::new();
        for us in 1..=100u64 {
            h.record_ns(us * 1_000);
        }
        let cdf = h.cdf(20);
        assert!(cdf.windows(2).all(|w| w[0].cum_prob <= w[1].cum_prob));
        assert!(cdf
            .windows(2)
            .all(|w| w[0].latency_us <= w[1].latency_us + 1e-9));
        assert!((cdf.last().unwrap().cum_prob - 1.0).abs() < 1e-9);
        assert!(cdf.iter().any(|p| (p.cum_prob - 0.9999).abs() < 1e-9));
    }

    #[test]
    fn summary_fields_consistent() {
        let mut h = LatencyHistogram::new();
        for us in [100u64, 200, 300, 400, 5_000] {
            h.record_ns(us * 1_000);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert!(s.p50_us <= s.p90_us && s.p90_us <= s.p99_us && s.p99_us <= s.max_us + 1e-9);
        assert!((s.max_us - 5_000.0).abs() < 1.0);
    }

    #[test]
    fn bucket_value_inverts_bucket_index() {
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            1_000,
            10_000,
            1_000_000,
            u32::MAX as u64,
        ] {
            let idx = bucket_index(v);
            let rep = bucket_value(idx);
            let err = (rep as f64 - v as f64).abs() / (v as f64).max(1.0);
            assert!(err < 0.02, "v {v} rep {rep} err {err}");
        }
    }
}
