//! Time-integrated accumulators and sampled time series.

use crate::time::{SimDuration, SimTime};

/// Integrates a piecewise-constant quantity over simulated time.
///
/// Used for metrics such as GPU busy fraction, memory occupancy and
/// dollar cost, where the value of interest is `∫ level(t) dt` divided by
/// the observation window.
///
/// # Example
///
/// ```
/// use protean_sim::{Accumulator, SimTime};
/// let mut acc = Accumulator::new(SimTime::ZERO);
/// acc.set_level(SimTime::from_secs(0.0), 1.0);
/// acc.set_level(SimTime::from_secs(2.0), 0.0); // busy for 2s
/// assert_eq!(acc.integral(SimTime::from_secs(4.0)), 2.0);
/// assert_eq!(acc.mean(SimTime::from_secs(4.0)), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Accumulator {
    start: SimTime,
    last_update: SimTime,
    level: f64,
    integral: f64,
}

impl Accumulator {
    /// Creates an accumulator observing from `start` with level 0.
    pub fn new(start: SimTime) -> Self {
        Accumulator {
            start,
            last_update: start,
            level: 0.0,
            integral: 0.0,
        }
    }

    /// Sets the current level at time `now`, accruing the previous level
    /// over the elapsed span first.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update (time never reverses).
    pub fn set_level(&mut self, now: SimTime, level: f64) {
        assert!(
            now >= self.last_update,
            "accumulator updated backwards in time: {now:?} < {:?}",
            self.last_update
        );
        self.integral += self.level * (now - self.last_update).as_secs_f64();
        self.last_update = now;
        self.level = level;
    }

    /// The current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// The integral `∫ level dt` (in level-seconds) up to `now`.
    pub fn integral(&self, now: SimTime) -> f64 {
        self.integral + self.level * now.saturating_since(self.last_update).as_secs_f64()
    }

    /// The time-average of the level over `[start, now]`. Returns 0 for an
    /// empty window.
    pub fn mean(&self, now: SimTime) -> f64 {
        let window = now.saturating_since(self.start).as_secs_f64();
        if window <= 0.0 {
            0.0
        } else {
            self.integral(now) / window
        }
    }
}

/// A sampled time series of `(time, value)` points, used for the
/// timeline-style figures (e.g. the Fig. 7 reconfiguration snapshot).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample. Samples should be pushed in chronological order.
    pub fn push(&mut self, time: SimTime, value: f64) {
        self.points.push((time, value));
    }

    /// The recorded samples, in insertion order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Aggregates samples into fixed-width buckets, returning one
    /// `(bucket_start, aggregate)` per non-empty bucket, where the
    /// aggregate is chosen by `agg`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn bucketed(&self, width: SimDuration, agg: BucketAgg) -> Vec<(SimTime, f64)> {
        assert!(!width.is_zero(), "bucket width must be positive");
        let mut out: Vec<(SimTime, f64)> = Vec::new();
        let mut cur_bucket: Option<(u64, Vec<f64>)> = None;
        let flush = |bucket: (u64, Vec<f64>), out: &mut Vec<(SimTime, f64)>| {
            let (idx, vals) = bucket;
            let value = match agg {
                BucketAgg::Mean => vals.iter().sum::<f64>() / vals.len() as f64,
                BucketAgg::Max => vals.iter().cloned().fold(f64::MIN, f64::max),
                BucketAgg::Sum => vals.iter().sum(),
                BucketAgg::P99 => percentile_of(&vals, 0.99),
            };
            out.push((SimTime::from_micros(idx * width.as_micros()), value));
        };
        for &(t, v) in &self.points {
            let idx = t.as_micros() / width.as_micros();
            match &mut cur_bucket {
                Some((cur, vals)) if *cur == idx => vals.push(v),
                Some(_) => {
                    flush(cur_bucket.take().expect("bucket present"), &mut out);
                    cur_bucket = Some((idx, vec![v]));
                }
                None => cur_bucket = Some((idx, vec![v])),
            }
        }
        if let Some(b) = cur_bucket {
            flush(b, &mut out);
        }
        out
    }
}

/// Aggregation used by [`TimeSeries::bucketed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketAgg {
    /// Arithmetic mean of samples in the bucket.
    Mean,
    /// Maximum sample in the bucket.
    Max,
    /// Sum of samples in the bucket.
    Sum,
    /// 99th percentile of samples in the bucket.
    P99,
}

fn percentile_of(vals: &[f64], q: f64) -> f64 {
    let mut sorted = vals.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in series"));
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_integrates_levels() {
        let mut acc = Accumulator::new(SimTime::ZERO);
        acc.set_level(SimTime::from_secs(1.0), 2.0);
        acc.set_level(SimTime::from_secs(3.0), 0.5);
        // [0,1): 0, [1,3): 2 -> 4, [3,5): 0.5 -> 1. Total 5 over 5s.
        assert!((acc.integral(SimTime::from_secs(5.0)) - 5.0).abs() < 1e-9);
        assert!((acc.mean(SimTime::from_secs(5.0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn accumulator_empty_window_mean_is_zero() {
        let acc = Accumulator::new(SimTime::from_secs(5.0));
        assert_eq!(acc.mean(SimTime::from_secs(5.0)), 0.0);
    }

    #[test]
    #[should_panic]
    fn accumulator_rejects_backward_time() {
        let mut acc = Accumulator::new(SimTime::from_secs(2.0));
        acc.set_level(SimTime::from_secs(1.0), 1.0);
    }

    #[test]
    fn series_buckets_mean() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(0.1), 1.0);
        s.push(SimTime::from_secs(0.2), 3.0);
        s.push(SimTime::from_secs(1.5), 10.0);
        let buckets = s.bucketed(protean_duration_secs(1.0), BucketAgg::Mean);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].1, 2.0);
        assert_eq!(buckets[1].1, 10.0);
    }

    #[test]
    fn series_buckets_max_sum_p99() {
        let mut s = TimeSeries::new();
        for i in 0..100 {
            s.push(SimTime::from_millis(i as f64), i as f64);
        }
        let max = s.bucketed(protean_duration_secs(1.0), BucketAgg::Max);
        assert_eq!(max[0].1, 99.0);
        let sum = s.bucketed(protean_duration_secs(1.0), BucketAgg::Sum);
        assert_eq!(sum[0].1, 4950.0);
        let p99 = s.bucketed(protean_duration_secs(1.0), BucketAgg::P99);
        assert_eq!(p99[0].1, 98.0);
    }

    fn protean_duration_secs(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }
}
