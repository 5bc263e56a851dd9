//! Per-request records and aggregate summaries.

use protean_models::ModelId;
use protean_sim::{SimDuration, SimTime};

use crate::stats::SortedLatencies;

/// Where a completed request's end-to-end latency went, in milliseconds.
///
/// The components mirror the stacked bars in Figs. 2, 6 and 11:
/// `min_exec` is the batch's solo time on the full GPU (`7g`) — the
/// floor no scheme can beat — `deficiency` the extra solo time due to
/// running on a smaller MIG slice, `interference` the further stretch
/// from MPS co-location, `queueing` all time between arrival and
/// execution start (batch assembly + waiting for containers/slices), and
/// `cold_start` container boot time on the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyBreakdown {
    /// Solo execution on `7g`, ms ("min possible time").
    pub min_exec_ms: f64,
    /// Extra solo time from the slice's reduced resources, ms.
    pub deficiency_ms: f64,
    /// Extra time from MPS co-location (Eq. 1), ms.
    pub interference_ms: f64,
    /// Waiting before execution began, ms.
    pub queueing_ms: f64,
    /// Container cold-start on the critical path, ms.
    pub cold_start_ms: f64,
}

impl LatencyBreakdown {
    /// Sum of all components, ms. Equals the end-to-end latency of the
    /// request (up to clock rounding).
    pub fn total_ms(&self) -> f64 {
        self.min_exec_ms
            + self.deficiency_ms
            + self.interference_ms
            + self.queueing_ms
            + self.cold_start_ms
    }
}

/// A completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// The model the request invoked.
    pub model: ModelId,
    /// Whether the request carried a strict SLO.
    pub strict: bool,
    /// Arrival at the gateway.
    pub arrival: SimTime,
    /// Completion of its batch.
    pub completion: SimTime,
    /// Where the latency went.
    pub breakdown: LatencyBreakdown,
}

impl RequestRecord {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.completion.saturating_since(self.arrival)
    }
}

/// A growing collection of request records with the aggregations used by
/// every experiment.
///
/// Two storage modes:
///
/// * **Full** (the default): every [`RequestRecord`] is retained, all
///   aggregations are exact. Memory is O(requests) — at 48 bytes per
///   record a billion-request soak would need ~45 GB, so fleet-scale
///   endurance runs cannot use it.
/// * **Aggregate** ([`MetricsSet::aggregate`]): per-class log-spaced
///   latency histograms plus counts/means — O(1) memory regardless of
///   request count. Quantiles are approximate to the bucket ratio
///   (128 buckets per decade ⇒ ≤ ~0.9% relative error); per-record
///   views ([`MetricsSet::records`], [`MetricsSet::latencies_ms`],
///   [`MetricsSet::tail_breakdown`], [`MetricsSet::slo_compliance`],
///   [`MetricsSet::per_model_summaries`]) see an empty record store
///   and degrade accordingly. Used by the streaming soak benchmarks,
///   which prove flat RSS over ≥10⁹ requests.
#[derive(Debug, Clone, Default)]
pub struct MetricsSet {
    records: Vec<RequestRecord>,
    aggregate: Option<AggregateStore>,
}

/// Histogram geometry for aggregate mode: nine decades of latency,
/// 0.001 ms .. 1e6 ms, 128 log-spaced buckets per decade.
const BUCKETS_PER_DECADE: f64 = 128.0;
const DECADES: usize = 9;
const BUCKETS: usize = DECADES * 128;
const MIN_MS: f64 = 1e-3;

/// Fixed-size per-class latency statistics for aggregate mode.
#[derive(Debug, Clone)]
struct AggregateStore {
    strict: LatencyHistogram,
    be: LatencyHistogram,
}

impl AggregateStore {
    fn new() -> Self {
        AggregateStore {
            strict: LatencyHistogram::new(),
            be: LatencyHistogram::new(),
        }
    }

    fn merge_from(&mut self, other: &AggregateStore) {
        self.strict.merge_from(&other.strict);
        self.be.merge_from(&other.be);
    }

    fn push(&mut self, record: &RequestRecord) {
        let ms = record.latency().as_millis_f64();
        if record.strict {
            self.strict.push(ms);
        } else {
            self.be.push(ms);
        }
    }

    fn count(&self, class: Class) -> u64 {
        match class {
            Class::Strict => self.strict.count,
            Class::BestEffort => self.be.count,
            Class::All => self.strict.count + self.be.count,
        }
    }

    fn mean_ms(&self, class: Class) -> Option<f64> {
        let (sum, count) = match class {
            Class::Strict => (self.strict.sum_ms, self.strict.count),
            Class::BestEffort => (self.be.sum_ms, self.be.count),
            Class::All => (
                self.strict.sum_ms + self.be.sum_ms,
                self.strict.count + self.be.count,
            ),
        };
        (count > 0).then(|| sum / count as f64)
    }

    /// Nearest-rank quantile over the bucket CDF, mirroring
    /// `SortedLatencies::percentile`'s rank convention. The returned
    /// latency is the geometric midpoint of the rank's bucket, clamped
    /// to the exact observed [min, max].
    fn percentile_ms(&self, class: Class, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let (a, b) = match class {
            Class::Strict => (&self.strict, None),
            Class::BestEffort => (&self.be, None),
            Class::All => (&self.strict, Some(&self.be)),
        };
        let at = |i: usize| a.buckets[i] + b.map_or(0, |h: &LatencyHistogram| h.buckets[i]);
        let count = a.count + b.map_or(0, |h| h.count);
        if count == 0 {
            return None;
        }
        let rank = ((count as f64 * q).ceil() as u64).max(1);
        let min = a.min_ms.min(b.map_or(f64::INFINITY, |h| h.min_ms));
        let max = a.max_ms.max(b.map_or(f64::NEG_INFINITY, |h| h.max_ms));
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            cum += at(i);
            if cum >= rank {
                return Some(LatencyHistogram::bucket_mid_ms(i).clamp(min, max));
            }
        }
        Some(max)
    }
}

/// A log-spaced latency histogram with exact count/sum/min/max.
#[derive(Debug, Clone)]
struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ms: f64,
    min_ms: f64,
    max_ms: f64,
}

impl LatencyHistogram {
    fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_ms: 0.0,
            min_ms: f64::INFINITY,
            max_ms: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(ms: f64) -> usize {
        if ms <= MIN_MS {
            return 0;
        }
        (((ms / MIN_MS).log10() * BUCKETS_PER_DECADE) as usize).min(BUCKETS - 1)
    }

    /// Geometric midpoint of bucket `i` — the representative latency
    /// reported for quantiles landing in it.
    fn bucket_mid_ms(i: usize) -> f64 {
        MIN_MS * 10f64.powf((i as f64 + 0.5) / BUCKETS_PER_DECADE)
    }

    fn push(&mut self, ms: f64) {
        self.buckets[Self::bucket_of(ms)] += 1;
        self.count += 1;
        self.sum_ms += ms;
        self.min_ms = self.min_ms.min(ms);
        self.max_ms = self.max_ms.max(ms);
    }

    /// Bucket-wise sum plus count/sum/min/max fold. Histograms are
    /// order-insensitive, so merging in any order gives the same
    /// buckets — except `sum_ms`, where float addition is associative
    /// only in exact arithmetic, so callers merge in a fixed order.
    fn merge_from(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ms += other.sum_ms;
        self.min_ms = self.min_ms.min(other.min_ms);
        self.max_ms = self.max_ms.max(other.max_ms);
    }
}

/// Which request class an aggregation ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Only strict requests.
    Strict,
    /// Only best-effort requests.
    BestEffort,
    /// All requests.
    All,
}

impl MetricsSet {
    /// Creates an empty set in full (exact, per-record) mode.
    pub fn new() -> Self {
        MetricsSet::default()
    }

    /// Creates an empty set in aggregate (O(1)-memory histogram) mode.
    /// See the type docs for what degrades.
    pub fn aggregate() -> Self {
        MetricsSet {
            records: Vec::new(),
            aggregate: Some(AggregateStore::new()),
        }
    }

    /// Records a completed request.
    pub fn push(&mut self, record: RequestRecord) {
        if let Some(agg) = &mut self.aggregate {
            agg.push(&record);
        } else {
            self.records.push(record);
        }
    }

    /// Merges another set into this one. Both sets must be in the same
    /// storage mode. In full mode the other set's records are appended
    /// (every digest-visible aggregation — counts, percentiles, CDFs —
    /// is order-insensitive). In aggregate mode the histograms are
    /// summed bucket-wise.
    ///
    /// # Panics
    ///
    /// Panics if the storage modes differ.
    pub fn absorb(&mut self, other: MetricsSet) {
        match (&mut self.aggregate, &other.aggregate) {
            (None, None) => self.records.extend(other.records),
            (Some(mine), Some(theirs)) => mine.merge_from(theirs),
            _ => panic!("cannot absorb a MetricsSet of a different storage mode"),
        }
    }

    /// Pre-sizes the record store for `additional` more requests.
    /// Million-request fleet benchmarks otherwise spend measurable time
    /// re-growing (and re-copying) a multi-hundred-megabyte vector.
    /// No-op in aggregate mode, whose footprint is fixed.
    pub fn reserve(&mut self, additional: usize) {
        if self.aggregate.is_none() {
            self.records.reserve(additional);
        }
    }

    /// All records in completion order (empty in aggregate mode).
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
    }

    /// Number of records in `class` (exact in both modes).
    pub fn count(&self, class: Class) -> usize {
        if let Some(agg) = &self.aggregate {
            return agg.count(class) as usize;
        }
        self.iter_class(class).count()
    }

    /// Mean latency (ms) for `class`; `None` if empty. Exact in both
    /// modes (aggregate mode keeps running sums).
    pub fn latency_mean_ms(&self, class: Class) -> Option<f64> {
        if let Some(agg) = &self.aggregate {
            return agg.mean_ms(class);
        }
        let lats = self.latencies_ms(class);
        (!lats.is_empty()).then(|| lats.iter().sum::<f64>() / lats.len() as f64)
    }

    fn iter_class(&self, class: Class) -> impl Iterator<Item = &RequestRecord> {
        self.records.iter().filter(move |r| match class {
            Class::Strict => r.strict,
            Class::BestEffort => !r.strict,
            Class::All => true,
        })
    }

    /// Latencies in milliseconds for `class`, unsorted.
    pub fn latencies_ms(&self, class: Class) -> Vec<f64> {
        self.iter_class(class)
            .map(|r| r.latency().as_millis_f64())
            .collect()
    }

    /// Fraction of **strict** requests whose latency met their
    /// per-model SLO (the paper's headline "SLO compliance"). Returns 1.0
    /// for an empty strict set.
    pub fn slo_compliance(&self, slo: &dyn Fn(ModelId) -> SimDuration) -> f64 {
        let mut total = 0usize;
        let mut met = 0usize;
        for r in self.iter_class(Class::Strict) {
            total += 1;
            if r.latency() <= slo(r.model) {
                met += 1;
            }
        }
        if total == 0 {
            1.0
        } else {
            met as f64 / total as f64
        }
    }

    /// The latencies of `class` sorted once into a [`SortedLatencies`]
    /// view. Build this when a report needs several quantiles, a CDF or
    /// a tail cut from the same class — each query then reuses the one
    /// sort instead of re-sorting per call.
    pub fn sorted_latencies(&self, class: Class) -> SortedLatencies {
        SortedLatencies::from_unsorted(self.latencies_ms(class))
    }

    /// The `q`-quantile latency (ms) for `class`; `None` if empty.
    /// Exact in full mode; bucket-resolution (≤ ~0.9% relative) in
    /// aggregate mode.
    ///
    /// Sorts on every call in full mode; for repeated queries use
    /// [`MetricsSet::sorted_latencies`].
    pub fn latency_percentile_ms(&self, class: Class, q: f64) -> Option<f64> {
        if let Some(agg) = &self.aggregate {
            return agg.percentile_ms(class, q);
        }
        self.sorted_latencies(class).percentile(q)
    }

    /// Mean latency breakdown over the requests of `class` whose latency
    /// is at or above that class's `q`-quantile — the stacked "tail
    /// breakdown" of Figs. 2/6/11.
    ///
    /// Sorts on every call; when the caller already holds the class's
    /// [`SortedLatencies`], use [`MetricsSet::tail_breakdown_with`].
    pub fn tail_breakdown(&self, class: Class, q: f64) -> Option<LatencyBreakdown> {
        self.tail_breakdown_with(class, &self.sorted_latencies(class), q)
    }

    /// [`MetricsSet::tail_breakdown`] with the `q`-cut taken from an
    /// already-sorted view of the same class (no extra sort).
    pub fn tail_breakdown_with(
        &self,
        class: Class,
        sorted: &SortedLatencies,
        q: f64,
    ) -> Option<LatencyBreakdown> {
        let cut = sorted.percentile(q)?;
        let tail: Vec<&RequestRecord> = self
            .iter_class(class)
            .filter(|r| r.latency().as_millis_f64() >= cut)
            .collect();
        if tail.is_empty() {
            return None;
        }
        let n = tail.len() as f64;
        let mut b = LatencyBreakdown::default();
        for r in tail {
            b.min_exec_ms += r.breakdown.min_exec_ms;
            b.deficiency_ms += r.breakdown.deficiency_ms;
            b.interference_ms += r.breakdown.interference_ms;
            b.queueing_ms += r.breakdown.queueing_ms;
            b.cold_start_ms += r.breakdown.cold_start_ms;
        }
        b.min_exec_ms /= n;
        b.deficiency_ms /= n;
        b.interference_ms /= n;
        b.queueing_ms /= n;
        b.cold_start_ms /= n;
        Some(b)
    }

    /// The latency CDF for `class`: `points` evenly spaced quantiles as
    /// `(latency_ms, cumulative_fraction)` pairs (Fig. 8).
    pub fn latency_cdf(&self, class: Class, points: usize) -> Vec<(f64, f64)> {
        self.sorted_latencies(class).cdf(points)
    }

    /// Completed requests of `class` per GPU per second — the paper's
    /// throughput metric (Fig. 10a uses strict requests).
    pub fn throughput_per_gpu(&self, class: Class, duration: SimDuration, gpus: usize) -> f64 {
        if duration.is_zero() || gpus == 0 {
            return 0.0;
        }
        self.count(class) as f64 / duration.as_secs_f64() / gpus as f64
    }

    /// A compact summary for tables. Each class's latency vector is
    /// sorted exactly once (full mode); aggregate mode reads the
    /// histograms, and its `slo_compliance` reports 1.0 (per-request
    /// SLO checks need full records).
    pub fn summary(&self, slo: &dyn Fn(ModelId) -> SimDuration) -> Summary {
        if self.aggregate.is_some() {
            return Summary {
                total: self.count(Class::All),
                strict: self.count(Class::Strict),
                slo_compliance: self.slo_compliance(slo),
                strict_p50_ms: self
                    .latency_percentile_ms(Class::Strict, 0.50)
                    .unwrap_or(0.0),
                strict_p99_ms: self
                    .latency_percentile_ms(Class::Strict, 0.99)
                    .unwrap_or(0.0),
                be_p50_ms: self
                    .latency_percentile_ms(Class::BestEffort, 0.50)
                    .unwrap_or(0.0),
                be_p99_ms: self
                    .latency_percentile_ms(Class::BestEffort, 0.99)
                    .unwrap_or(0.0),
            };
        }
        let strict = self.sorted_latencies(Class::Strict);
        let be = self.sorted_latencies(Class::BestEffort);
        Summary {
            total: self.count(Class::All),
            strict: self.count(Class::Strict),
            slo_compliance: self.slo_compliance(slo),
            strict_p50_ms: strict.p50().unwrap_or(0.0),
            strict_p99_ms: strict.p99().unwrap_or(0.0),
            be_p50_ms: be.p50().unwrap_or(0.0),
            be_p99_ms: be.p99().unwrap_or(0.0),
        }
    }
}

impl MetricsSet {
    /// Per-model summaries, in `ModelId::ALL` order, covering only the
    /// models with at least one record. Used by multi-model reports.
    pub fn per_model_summaries(
        &self,
        slo: &dyn Fn(ModelId) -> SimDuration,
    ) -> Vec<(ModelId, Summary)> {
        let mut out = Vec::new();
        for model in ModelId::ALL {
            let subset: Vec<&RequestRecord> =
                self.records.iter().filter(|r| r.model == model).collect();
            if subset.is_empty() {
                continue;
            }
            let mut m = MetricsSet::new();
            for r in subset {
                m.push(*r);
            }
            out.push((model, m.summary(slo)));
        }
        out
    }
}

/// Headline numbers for one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Total completed requests.
    pub total: usize,
    /// Completed strict requests.
    pub strict: usize,
    /// Fraction of strict requests meeting their SLO.
    pub slo_compliance: f64,
    /// Strict median latency, ms.
    pub strict_p50_ms: f64,
    /// Strict P99 latency, ms.
    pub strict_p99_ms: f64,
    /// Best-effort median latency, ms.
    pub be_p50_ms: f64,
    /// Best-effort P99 latency, ms.
    pub be_p99_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(strict: bool, lat_ms: f64) -> RequestRecord {
        RequestRecord {
            model: ModelId::ResNet50,
            strict,
            arrival: SimTime::ZERO,
            completion: SimTime::from_millis(lat_ms),
            breakdown: LatencyBreakdown {
                min_exec_ms: lat_ms / 2.0,
                deficiency_ms: lat_ms / 4.0,
                interference_ms: lat_ms / 8.0,
                queueing_ms: lat_ms / 8.0,
                cold_start_ms: 0.0,
            },
        }
    }

    #[test]
    fn slo_compliance_counts_only_strict() {
        let mut m = MetricsSet::new();
        m.push(rec(true, 100.0));
        m.push(rec(true, 400.0));
        m.push(rec(false, 10_000.0)); // BE never counts
        let slo = |_| SimDuration::from_millis(285.0);
        assert_eq!(m.slo_compliance(&slo), 0.5);
        assert_eq!(m.count(Class::Strict), 2);
        assert_eq!(m.count(Class::BestEffort), 1);
    }

    #[test]
    fn empty_strict_set_is_fully_compliant() {
        let m = MetricsSet::new();
        assert_eq!(m.slo_compliance(&|_| SimDuration::ZERO), 1.0);
        assert_eq!(m.latency_percentile_ms(Class::Strict, 0.99), None);
    }

    #[test]
    fn percentiles_split_by_class() {
        let mut m = MetricsSet::new();
        for i in 1..=100 {
            m.push(rec(true, i as f64));
            m.push(rec(false, 10.0 * i as f64));
        }
        let strict_p50 = m.latency_percentile_ms(Class::Strict, 0.5).unwrap();
        let be_p50 = m.latency_percentile_ms(Class::BestEffort, 0.5).unwrap();
        assert!((strict_p50 - 50.0).abs() <= 1.0);
        assert!((be_p50 - 500.0).abs() <= 10.0);
    }

    #[test]
    fn tail_breakdown_averages_tail_set() {
        let mut m = MetricsSet::new();
        for i in 1..=100 {
            m.push(rec(true, i as f64));
        }
        let b = m.tail_breakdown(Class::Strict, 0.99).unwrap();
        // The tail set is requests >= p99 (~99, 100): mean total ≈ 99.5.
        assert!((b.total_ms() - 99.5).abs() < 1.0, "total {}", b.total_ms());
        assert!(b.min_exec_ms > b.interference_ms);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_max() {
        let mut m = MetricsSet::new();
        for i in 1..=50 {
            m.push(rec(true, i as f64));
        }
        let cdf = m.latency_cdf(Class::Strict, 10);
        assert_eq!(cdf.len(), 10);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 > w[0].1);
        }
        assert_eq!(cdf.last().unwrap().0, 50.0);
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn throughput_normalises_by_gpus_and_time() {
        let mut m = MetricsSet::new();
        for _ in 0..800 {
            m.push(rec(true, 10.0));
        }
        let thr = m.throughput_per_gpu(Class::Strict, SimDuration::from_secs(10.0), 8);
        assert_eq!(thr, 10.0);
        assert_eq!(
            m.throughput_per_gpu(Class::Strict, SimDuration::ZERO, 8),
            0.0
        );
    }

    #[test]
    fn summary_contains_consistent_numbers() {
        let mut m = MetricsSet::new();
        m.push(rec(true, 100.0));
        m.push(rec(false, 200.0));
        let s = m.summary(&|_| SimDuration::from_millis(150.0));
        assert_eq!(s.total, 2);
        assert_eq!(s.strict, 1);
        assert_eq!(s.slo_compliance, 1.0);
        assert_eq!(s.strict_p50_ms, 100.0);
        assert_eq!(s.be_p99_ms, 200.0);
    }

    #[test]
    fn per_model_summaries_partition_the_records() {
        let mut m = MetricsSet::new();
        for i in 1..=10 {
            m.push(rec(true, i as f64));
        }
        let mut other = rec(false, 500.0);
        other.model = ModelId::MobileNet;
        m.push(other);
        let slo = |_| SimDuration::from_millis(5.0);
        let per_model = m.per_model_summaries(&slo);
        assert_eq!(per_model.len(), 2);
        let total: usize = per_model.iter().map(|(_, s)| s.total).sum();
        assert_eq!(total, m.count(Class::All));
        let (resnet, s) = per_model[0];
        assert_eq!(resnet, ModelId::ResNet50);
        assert_eq!(s.strict, 10);
        assert_eq!(s.slo_compliance, 0.5);
        let (mobile, s) = per_model[1];
        assert_eq!(mobile, ModelId::MobileNet);
        assert_eq!(s.be_p99_ms, 500.0);
    }

    #[test]
    fn aggregate_counts_are_exact_and_memory_is_fixed() {
        let mut m = MetricsSet::aggregate();
        for i in 1..=1000 {
            m.push(rec(i % 2 == 0, i as f64));
        }
        assert_eq!(m.count(Class::All), 1000);
        assert_eq!(m.count(Class::Strict), 500);
        assert_eq!(m.count(Class::BestEffort), 500);
        // Per-record views see an empty store.
        assert!(m.records().is_empty());
        assert!(m.latencies_ms(Class::All).is_empty());
    }

    #[test]
    fn aggregate_percentiles_track_exact_within_bucket_resolution() {
        let mut full = MetricsSet::new();
        let mut agg = MetricsSet::aggregate();
        // A latency spread covering several decades.
        for i in 1..=5000u64 {
            let ms = 0.5 * 1.002f64.powi(i as i32 % 4000);
            full.push(rec(i % 3 == 0, ms));
            agg.push(rec(i % 3 == 0, ms));
        }
        for class in [Class::Strict, Class::BestEffort, Class::All] {
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                let exact = full.latency_percentile_ms(class, q).unwrap();
                let approx = agg.latency_percentile_ms(class, q).unwrap();
                let rel = (approx - exact).abs() / exact;
                assert!(
                    rel < 0.01,
                    "class {class:?} q {q}: approx {approx} vs exact {exact} (rel {rel})"
                );
            }
        }
        // Means are exact in both modes.
        let em = full.latency_mean_ms(Class::All).unwrap();
        let am = agg.latency_mean_ms(Class::All).unwrap();
        assert!((em - am).abs() < 1e-9);
    }

    #[test]
    fn aggregate_summary_uses_histogram_quantiles() {
        let mut m = MetricsSet::aggregate();
        for i in 1..=100 {
            m.push(rec(true, i as f64));
            m.push(rec(false, 10.0 * i as f64));
        }
        let s = m.summary(&|_| SimDuration::from_millis(1000.0));
        assert_eq!(s.total, 200);
        assert_eq!(s.strict, 100);
        assert!((s.strict_p50_ms - 50.0).abs() / 50.0 < 0.01);
        assert!((s.be_p99_ms - 990.0).abs() / 990.0 < 0.01);
    }

    #[test]
    fn absorb_merges_full_and_aggregate_modes() {
        // Full mode: the union's counts and percentiles match a set
        // built from all records directly.
        let mut a = MetricsSet::new();
        let mut b = MetricsSet::new();
        let mut whole = MetricsSet::new();
        for i in 1..=100 {
            let r = rec(i % 2 == 0, i as f64);
            if i <= 60 {
                a.push(r)
            } else {
                b.push(r)
            }
            whole.push(r);
        }
        a.absorb(b);
        assert_eq!(a.count(Class::All), 100);
        for class in [Class::Strict, Class::BestEffort, Class::All] {
            assert_eq!(
                a.latency_percentile_ms(class, 0.99),
                whole.latency_percentile_ms(class, 0.99)
            );
        }
        // Aggregate mode: histograms sum bucket-wise.
        let mut a = MetricsSet::aggregate();
        let mut b = MetricsSet::aggregate();
        let mut whole = MetricsSet::aggregate();
        for i in 1..=500 {
            let r = rec(i % 3 == 0, (i as f64).sqrt());
            if i % 2 == 0 {
                a.push(r)
            } else {
                b.push(r)
            }
            whole.push(r);
        }
        a.absorb(b);
        assert_eq!(a.count(Class::All), 500);
        for class in [Class::Strict, Class::BestEffort, Class::All] {
            assert_eq!(
                a.latency_percentile_ms(class, 0.5),
                whole.latency_percentile_ms(class, 0.5)
            );
        }
    }

    #[test]
    #[should_panic(expected = "different storage mode")]
    fn absorb_rejects_mode_mismatch() {
        let mut a = MetricsSet::new();
        a.absorb(MetricsSet::aggregate());
    }

    #[test]
    fn breakdown_total_matches_components() {
        let b = LatencyBreakdown {
            min_exec_ms: 50.0,
            deficiency_ms: 10.0,
            interference_ms: 20.0,
            queueing_ms: 15.0,
            cold_start_ms: 5.0,
        };
        assert_eq!(b.total_ms(), 100.0);
    }
}
