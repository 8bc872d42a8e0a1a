//! Estimators: per-unit minimum over reps, quantiles, and log2 histograms.

use swque_trace::Json;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `values`; `NaN` when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Each unit's minimum over reps: `reps[r][u]` is unit `u`'s host time in
/// rep `r`. Contention from other processes only ever adds time, so a
/// unit's fastest rep is its least disturbed one.
pub fn min_over_reps(reps: &[Vec<f64>]) -> Vec<f64> {
    let units = reps.first().map_or(0, Vec::len);
    (0..units)
        .map(|u| reps.iter().map(|rep| rep[u]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Median, quartiles and count of a sample, as a JSON object.
pub fn summary_json(values: &[f64]) -> Json {
    Json::obj([
        ("n", Json::from(values.len())),
        ("p25", Json::from(quantile(values, 0.25))),
        ("median", Json::from(median(values))),
        ("p75", Json::from(quantile(values, 0.75))),
    ])
}

/// Sub-buckets per power of two: values are resolved to within 1/8 of
/// their octave (12.5%).
const SUB: usize = 8;
const SUB_BITS: u32 = 3;

/// A log2 histogram of nanosecond samples with [`SUB`] linear sub-buckets
/// per octave: constant memory however many calls are timed.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: vec![0; 64 * SUB],
            count: 0,
            sum: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = (v >> (msb - SUB_BITS)) as usize & (SUB - 1);
    (msb - SUB_BITS + 1) as usize * SUB + sub
}

/// Inclusive value range `[low, high]` of bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    if b < SUB {
        return (b as u64, b as u64);
    }
    let shift = (b / SUB - 1) as u32;
    let low = ((SUB + b % SUB) as u64) << shift;
    (low, low + ((1u64 << shift) - 1))
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile, as the midpoint of the bucket holding it; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (low, high) = bucket_range(b);
                return (low + high) as f64 / 2.0;
            }
        }
        0.0
    }

    /// Count, sum, mean, p50 and p99 as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum_ns", Json::from(self.sum)),
            ("mean_ns", Json::from(self.mean())),
            ("p50_ns", Json::from(self.quantile(0.5))),
            ("p99_ns", Json::from(self.quantile(0.99))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn min_over_reps_takes_each_units_fastest_rep() {
        let reps = vec![
            vec![3.0, 10.0, 5.0],
            vec![2.0, 12.0, 6.0],
            vec![4.0, 11.0, 4.5],
        ];
        assert_eq!(min_over_reps(&reps), vec![2.0, 10.0, 4.5]);
        assert!(min_over_reps(&[]).is_empty());
    }

    #[test]
    fn buckets_tile_the_value_range_without_gaps() {
        let mut expect_low = 0;
        for b in 0..64 * SUB {
            let (low, high) = bucket_range(b);
            assert_eq!(low, expect_low, "bucket {b}");
            assert_eq!(bucket_of(low), b);
            assert_eq!(bucket_of(high), b);
            if high == u64::MAX {
                break;
            }
            expect_low = high + 1;
        }
    }

    #[test]
    fn histogram_quantiles_land_within_one_sub_bucket() {
        let mut h = Histogram::default();
        for ns in 1..=1000 {
            h.record(ns);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.mean(), 500.5);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 500.0).abs() <= 500.0 / 8.0, "p50 {p50}");
        assert!((p99 - 990.0).abs() <= 990.0 / 8.0, "p99 {p99}");
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }
}
