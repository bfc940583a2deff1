//! Power-of-two latency histograms.
//!
//! [`Histogram`] is the snapshot form of [`crate::AtomicHistogram`], and
//! the plain recorder of per-session job latency in `tels serve`; buckets
//! are log₂-spaced, which resolves a microsecond-to-second spread with a
//! fixed-size structure and no allocation per sample.

use tels_trace::json::Json;

/// Number of log₂ buckets (`u64` has 64 bit positions).
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket `i` holds samples whose value needs `i` bits, i.e. value `0`
/// lands in bucket 0 and value `v > 0` in bucket `64 − v.leading_zeros()`;
/// each bucket covers `[2^(i−1), 2^i)`.
///
/// # Example
///
/// ```
/// use tels_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [100u64, 200, 400, 100_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), 100_000);
/// assert!(h.quantile(0.5) >= 100 && h.quantile(0.5) <= 512);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Rebuilds a histogram from raw parts: per-bucket counts, the sample
    /// sum, and the maximum. The sample count is derived from the buckets,
    /// so buckets and count agree by construction.
    pub(crate) fn from_raw(buckets: [u64; BUCKETS], sum: u128, max: u64) -> Histogram {
        let count = buckets.iter().sum();
        Histogram {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// The non-empty buckets as `(bits, count)` pairs: bucket `bits`
    /// covers values in `[2^(bits−1), 2^bits)` (bucket 0 holds value 0).
    pub(crate) fn raw_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
    }

    /// Sum of all recorded samples.
    pub(crate) fn sum(&self) -> u128 {
        self.sum
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0.0 ≤ q ≤ 1.0`); 0 when empty. Resolution is one power of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
            }
        }
        self.max
    }

    /// Machine-readable summary: count, mean, p50/p90/p99 (bucket upper
    /// bounds), max, and the non-empty buckets as `[bits, count]` pairs.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::Num(self.count as f64)),
            ("mean", Json::Num(self.mean())),
            ("p50", Json::Num(self.quantile(0.5) as f64)),
            ("p90", Json::Num(self.quantile(0.9) as f64)),
            ("p99", Json::Num(self.quantile(0.99) as f64)),
            ("max", Json::Num(self.max as f64)),
            (
                "buckets",
                Json::Arr(
                    self.raw_buckets()
                        .map(|(i, n)| Json::Arr(vec![Json::Num(i as f64), Json::Num(n as f64)]))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_and_stats() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(1024);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.mean(), (0.0 + 1.0 + 2.0 + 1024.0) / 4.0);
        // p50 falls in the bucket of the 2nd sample (value 1, bucket 1).
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(1.0), 2047); // 1024 lives in [1024, 2048)
    }

    #[test]
    fn json_shape() {
        let mut h = Histogram::new();
        h.record(7);
        let j = h.to_json();
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("max").and_then(Json::as_u64), Some(7));
        assert_eq!(
            j.get("buckets").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
