//! Thread-safe metrics registry: named counters, gauges, and histograms.
//!
//! The registry lives behind the recorder's single mutex (metrics are
//! updated at phase granularity, not per memory access, so contention is
//! negligible). Snapshots are plain structs; the JSONL exporter in
//! [`crate::export`] renders one metric per line.

use std::collections::BTreeMap;

/// Aggregating histogram: count/sum/min/max plus powers-of-two buckets,
/// enough for latency- and size-shaped distributions without storing samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// `buckets[i]` counts samples with `2^(i-1) < v <= 2^i` (bucket 0:
    /// `v <= 1`). Values are clamped into the last bucket.
    pub buckets: Vec<u64>,
}

const NUM_BUCKETS: usize = 64;

impl Histogram {
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
            self.buckets = vec![0; NUM_BUCKETS];
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        let idx = if value <= 1.0 {
            0
        } else {
            (value.log2().ceil() as usize).min(NUM_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Nearest-rank percentile of unsorted `u64` samples, `q` in `0..=1`
/// (clamped). Returns 0 on an empty slice; `q = 0` is the minimum and
/// `q = 1` the maximum. `ServeReport`'s latency percentiles are computed
/// with it.
pub fn percentile_u64(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sub-bucket resolution of [`LatencyHistogram`]: each power-of-two major
/// bucket splits into `2^SUB_BITS` linear sub-buckets, bounding the
/// relative quantization error at `2^-SUB_BITS` (~3%).
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Values `< SUB` get one exact bucket each; every wider power-of-two
/// range contributes `SUB` sub-buckets, up to the full `u64` domain.
const LAT_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Streaming fixed-bucket histogram over `u64` samples (latency/wait
/// nanoseconds): O(1) memory regardless of sample count, so million-request
/// sweeps never hold per-request `Vec`s.
///
/// Layout is log2 major buckets with `SUB` (32) linear sub-buckets each —
/// values below `SUB` are exact, larger values land within `~3%` of
/// their bucket bound. [`percentile`](LatencyHistogram::percentile)
/// keeps [`percentile_u64`]'s nearest-rank semantics (`rank =
/// ceil(q·n)` clamped to `[1, n]`, empty ⇒ 0, `q=0` ⇒ min, `q=1` ⇒ max):
/// on exact-bucket values the two agree bit-for-bit, and the recorded
/// min/max clamp the ends of the distribution so extreme quantiles stay
/// exact.
///
/// Recording order does not affect any accessor (counts and a `u64` sum
/// are order-free), so histograms may be filled in any deterministic
/// merge order without pinning it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; LAT_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of `v`: exact below [`SUB`], otherwise the
    /// `SUB_BITS` bits under the leading one select the sub-bucket.
    #[inline]
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let top = 63 - v.leading_zeros(); // floor(log2 v), >= SUB_BITS
        let sub = ((v >> (top - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (top - SUB_BITS + 1) as usize * SUB + sub
    }

    /// Lower bound of bucket `idx` (its smallest representable value).
    #[inline]
    fn bucket_low(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let major = (idx / SUB) as u32 + SUB_BITS - 1;
        let sub = (idx % SUB) as u64;
        (1u64 << major) + (sub << (major - SUB_BITS))
    }

    /// Largest value mapping to bucket `idx`.
    #[inline]
    fn bucket_high(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let major = (idx / SUB) as u32 + SUB_BITS - 1;
        let width = 1u64 << (major - SUB_BITS);
        Self::bucket_low(idx) + (width - 1)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile with [`percentile_u64`] semantics: the
    /// upper bound of the bucket holding rank `ceil(q·n)`, clamped into
    /// the recorded `[min, max]` so the extremes stay exact.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        // Rank 1 is the smallest recorded sample and rank n the largest,
        // so the extremes answer from the tracked min/max, not a bucket
        // bound.
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_high(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold another histogram in (used to combine per-replica streams).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Registry state (owned by the recorder).
#[derive(Debug, Default)]
pub struct Registry {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    pub fn counter_set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// Point-in-time copy of every metric, ordered by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let mut r = Registry::default();
        r.counter_add("mem.pm_bytes", 10);
        r.counter_add("mem.pm_bytes", 5);
        r.counter_set("spmm.runs", 3);
        r.gauge_set("wofp.hit_rate", 0.75);
        let snap = r.snapshot();
        assert_eq!(snap.counter("mem.pm_bytes"), Some(15));
        assert_eq!(snap.counter("spmm.runs"), Some(3));
        assert_eq!(snap.gauge("wofp.hit_rate"), Some(0.75));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 3.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 10.0);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        assert_eq!(h.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn percentile_nearest_rank_edge_cases() {
        // Empty: always 0, at every q.
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(percentile_u64(&[], q), 0);
        }
        // Single sample: that sample, at every q.
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(percentile_u64(&[7], q), 7);
        }
        // All-equal: the common value, at every q.
        let equal = [9u64; 16];
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_u64(&equal, q), 9);
        }
        // Nearest-rank on 1..=100: p50 = 50, p95 = 95, p99 = 99.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_u64(&v, 0.50), 50);
        assert_eq!(percentile_u64(&v, 0.95), 95);
        assert_eq!(percentile_u64(&v, 0.99), 99);
        assert_eq!(percentile_u64(&v, 1.0), 100);
        assert_eq!(percentile_u64(&v, 0.0), 1);
        // Out-of-range q is clamped.
        assert_eq!(percentile_u64(&v, -1.0), 1);
        assert_eq!(percentile_u64(&v, 2.0), 100);
        // Unsorted input is handled.
        assert_eq!(percentile_u64(&[30, 10, 50, 20, 40], 0.5), 30);
    }

    #[test]
    fn latency_histogram_matches_percentile_u64_on_exact_buckets() {
        // Values < 2 * SUB live in width-1 buckets, so the histogram's
        // nearest-rank answers must agree with percentile_u64 exactly.
        let samples: Vec<u64> = (0..60).map(|i| (i * 7) % 61).collect();
        let mut h = LatencyHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(q), percentile_u64(&samples, q), "q={q}");
        }
        assert_eq!(h.count(), 60);
        assert_eq!(h.min(), *samples.iter().min().unwrap());
        assert_eq!(h.max(), *samples.iter().max().unwrap());
    }

    #[test]
    fn latency_histogram_bounds_quantization_error() {
        // Latency-shaped values: every percentile must land within the
        // sub-bucket resolution (2^-5 ~ 3.2%) of the exact nearest-rank
        // answer, and never outside [min, max].
        let samples: Vec<u64> = (1..=5_000u64).map(|i| i * i * 37 + 1_000).collect();
        let mut h = LatencyHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = percentile_u64(&samples, q);
            let approx = h.percentile(q);
            let err = approx.abs_diff(exact) as f64 / exact as f64;
            assert!(err <= 1.0 / 32.0, "q={q}: exact {exact}, approx {approx}");
            assert!((h.min()..=h.max()).contains(&approx));
        }
        // q = 0 / 1 are exact by the min/max clamp.
        assert_eq!(h.percentile(0.0), *samples.iter().min().unwrap());
        assert_eq!(h.percentile(1.0), *samples.iter().max().unwrap());
    }

    #[test]
    fn latency_histogram_empty_merge_and_order_independence() {
        let empty = LatencyHistogram::new();
        assert_eq!(empty.percentile(0.5), 0);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.mean(), 0.0);

        // Order-free: reversed insertion gives an identical histogram.
        let samples: Vec<u64> = (0..1_000u64).map(|i| i * 997 % 100_000).collect();
        let mut fwd = LatencyHistogram::new();
        let mut rev = LatencyHistogram::new();
        for &v in &samples {
            fwd.record(v);
        }
        for &v in samples.iter().rev() {
            rev.record(v);
        }
        assert_eq!(fwd, rev);

        // Merging two halves equals recording the whole stream.
        let (a, b) = samples.split_at(300);
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        for &v in a {
            ha.record(v);
        }
        for &v in b {
            hb.record(v);
        }
        ha.merge(&hb);
        assert_eq!(ha, fwd);
    }
}
