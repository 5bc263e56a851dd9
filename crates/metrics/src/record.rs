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

/// What a completed batch's requests share: every field of their
/// [`RequestRecord`]s but the arrival and the queueing, which
/// [`MetricsSet::push_batch`] derives per request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchRecord {
    /// The model the batch invoked.
    pub model: ModelId,
    /// Whether the batch's requests carried a strict SLO.
    pub strict: bool,
    /// Completion of the batch.
    pub completion: SimTime,
    /// Solo execution on `7g`, ms.
    pub min_exec_ms: f64,
    /// Extra solo time from the slice's reduced resources, ms.
    pub deficiency_ms: f64,
    /// Extra time from MPS co-location, ms.
    pub interference_ms: f64,
    /// Container cold-start on the critical path, ms.
    pub cold_start_ms: f64,
}

/// One stored batch in full mode: its [`BatchRecord`] fields, its first
/// arrival with that arrival's request count, and how many of the set's
/// [`Entry`]s, in order, hold its further arrivals. Flat rather than
/// wrapping a `BatchRecord`, so the counts sit in what would be padding
/// and a row stays at 56 bytes.
#[derive(Debug, Clone, Copy)]
struct Row {
    completion: SimTime,
    min_exec_ms: f64,
    deficiency_ms: f64,
    interference_ms: f64,
    cold_start_ms: f64,
    arrival: SimTime,
    n: u32,
    entries: u16,
    model: ModelId,
    strict: bool,
}

/// `n` stored requests of one batch in full mode that arrived at one
/// instant, past the batch's first arrival. Equal arrivals in one batch
/// have equal records, so adjacent ones share an entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    arrival: SimTime,
    n: u32,
}

impl Row {
    /// A row of `b`'s fields whose first arrival is `n` requests at
    /// `arrival`.
    fn new(b: BatchRecord, arrival: SimTime, n: u32) -> Self {
        Row {
            completion: b.completion,
            min_exec_ms: b.min_exec_ms,
            deficiency_ms: b.deficiency_ms,
            interference_ms: b.interference_ms,
            cold_start_ms: b.cold_start_ms,
            arrival,
            n,
            entries: 0,
            model: b.model,
            strict: b.strict,
        }
    }

    fn in_class(&self, class: Class) -> bool {
        match class {
            Class::Strict => self.strict,
            Class::BestEffort => !self.strict,
            Class::All => true,
        }
    }

    fn latency(&self, e: &Entry) -> SimDuration {
        self.completion.saturating_since(e.arrival)
    }

    /// What `e`'s latency leaves once the batch's other components are
    /// taken out, floored at zero.
    fn queueing_ms(&self, e: &Entry) -> f64 {
        let total_ms = self.latency(e).as_millis_f64();
        let rest_ms = total_ms
            - self.cold_start_ms
            - self.interference_ms
            - self.deficiency_ms
            - self.min_exec_ms;
        rest_ms.max(0.0)
    }

    fn record(&self, e: &Entry) -> RequestRecord {
        RequestRecord {
            model: self.model,
            strict: self.strict,
            arrival: e.arrival,
            completion: self.completion,
            breakdown: LatencyBreakdown {
                min_exec_ms: self.min_exec_ms,
                deficiency_ms: self.deficiency_ms,
                interference_ms: self.interference_ms,
                queueing_ms: self.queueing_ms(e),
                cold_start_ms: self.cold_start_ms,
            },
        }
    }
}

/// A growing collection of request records with the aggregations used by
/// every experiment.
///
/// Two storage modes:
///
/// * **Full** (the default): every record is retained, all
///   aggregations are exact. A completed batch is stored once, as a
///   56-byte row of what its requests share plus its first arrival and
///   that arrival's count; each further arrival instant of the batch
///   takes one 16-byte entry (arrival and count). A request's queueing
///   is derived on read from its latency and the row's other
///   components. That is 56 bytes per batch when each arrival fills a
///   batch, and 16 more per request at worst.
///   [`MetricsSet::records`] rebuilds the [`RequestRecord`]s.
///   A billion single-arrival requests would still need ~16 GB, so
///   fleet-scale endurance runs cannot use it.
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
    rows: Vec<Row>,
    entries: Vec<Entry>,
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

    fn record_n(&mut self, strict: bool, ms: f64, n: u32) {
        if strict {
            self.strict.record_n(ms, n);
        } else {
            self.be.record_n(ms, n);
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

    /// Records `n` requests of latency `ms`. The sum adds `ms` once per
    /// request, so it rounds as `n` single pushes would.
    fn record_n(&mut self, ms: f64, n: u32) {
        self.buckets[Self::bucket_of(ms)] += u64::from(n);
        self.count += u64::from(n);
        for _ in 0..n {
            self.sum_ms += ms;
        }
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
            aggregate: Some(AggregateStore::new()),
            ..MetricsSet::default()
        }
    }

    /// Records a completed request as a batch of one arrival. Its
    /// queueing is derived as [`MetricsSet::push_batch`] derives every
    /// request's; the caller's `breakdown.queueing_ms` is not kept.
    pub fn push(&mut self, record: RequestRecord) {
        let b = record.breakdown;
        let batch = BatchRecord {
            model: record.model,
            strict: record.strict,
            completion: record.completion,
            min_exec_ms: b.min_exec_ms,
            deficiency_ms: b.deficiency_ms,
            interference_ms: b.interference_ms,
            cold_start_ms: b.cold_start_ms,
        };
        self.push_batch(batch, [(record.arrival, 1)]);
    }

    /// Records a completed batch: `n` requests per `(arrival, n)`, in
    /// order, each sharing `batch`'s fields (`n` at least 1). A
    /// request's queueing is what its latency leaves once the batch's
    /// other components are taken out, floored at zero; it is derived
    /// on read, not stored. The first arrival sits in the batch's row,
    /// and adjacent equal arrivals share one count. A batch with no
    /// requests stores nothing; aggregate mode records each arrival's
    /// latency `n` times into its class histogram.
    ///
    /// # Panics
    ///
    /// Panics if 2^32 requests or more arrive at one instant of a
    /// batch (a row holds up to 2^16 distinct arrivals; the batch goes
    /// on in a further row).
    pub fn push_batch(
        &mut self,
        batch: BatchRecord,
        arrivals: impl IntoIterator<Item = (SimTime, u32)>,
    ) {
        if let Some(agg) = &mut self.aggregate {
            for (arrival, n) in arrivals {
                let ms = batch.completion.saturating_since(arrival).as_millis_f64();
                agg.record_n(batch.strict, ms, n);
            }
            return;
        }
        let mut open: Option<Row> = None;
        for (arrival, n) in arrivals {
            let Some(row) = &mut open else {
                open = Some(Row::new(batch, arrival, n));
                continue;
            };
            let (last, count) = match self.entries.last_mut() {
                Some(e) if row.entries > 0 => (e.arrival, &mut e.n),
                _ => (row.arrival, &mut row.n),
            };
            if last == arrival {
                *count = count
                    .checked_add(n)
                    .expect("an instant holds under 2^32 requests");
            } else if row.entries == u16::MAX {
                // A row indexes at most 2^16 - 1 entries; the batch goes
                // on in a second row.
                self.rows.push(*row);
                *row = Row::new(batch, arrival, n);
            } else {
                self.entries.push(Entry { arrival, n });
                row.entries += 1;
            }
        }
        self.rows.extend(open);
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
            (None, None) => {
                self.rows.extend(other.rows);
                self.entries.extend(other.entries);
            }
            (Some(mine), Some(theirs)) => mine.merge_from(theirs),
            _ => panic!("cannot absorb a MetricsSet of a different storage mode"),
        }
    }

    /// Pre-sizes the store for `additional` more rows: one per batch,
    /// or one per request pushed alone. Million-request fleet
    /// benchmarks otherwise spend measurable time re-growing (and
    /// re-copying) a vector of tens of megabytes. No-op in aggregate
    /// mode, whose footprint is fixed.
    pub fn reserve(&mut self, additional: usize) {
        if self.aggregate.is_none() {
            self.rows.reserve(additional);
        }
    }

    /// Bytes the set holds on the heap: the capacity of its batch rows
    /// and further-arrival entries, or of its histograms in aggregate
    /// mode.
    pub fn heap_bytes(&self) -> usize {
        let histograms = self.aggregate.as_ref().map_or(0, |a| {
            (a.strict.buckets.capacity() + a.be.buckets.capacity()) * std::mem::size_of::<u64>()
        });
        self.rows.capacity() * std::mem::size_of::<Row>()
            + self.entries.capacity() * std::mem::size_of::<Entry>()
            + histograms
    }

    /// Each stored row with its arrivals, the inline first one then its
    /// entries, in push order.
    fn batches(&self) -> impl Iterator<Item = (&Row, impl Iterator<Item = Entry> + '_)> {
        self.rows.iter().scan(0, |start: &mut usize, row| {
            let from = *start;
            *start += usize::from(row.entries);
            let first = Entry {
                arrival: row.arrival,
                n: row.n,
            };
            let rest = self.entries[from..*start].iter().copied();
            Some((row, std::iter::once(first).chain(rest)))
        })
    }

    /// All records in completion order, rebuilt from the stored batches
    /// (empty in aggregate mode).
    pub fn records(&self) -> impl Iterator<Item = RequestRecord> + '_ {
        self.batches().flat_map(|(row, arrivals)| {
            arrivals.flat_map(move |e| std::iter::repeat_n(row.record(&e), e.n as usize))
        })
    }

    /// Number of records in `class` (exact in both modes).
    pub fn count(&self, class: Class) -> usize {
        if let Some(agg) = &self.aggregate {
            return agg.count(class) as usize;
        }
        self.batches_of(class)
            .flat_map(|(_, arrivals)| arrivals)
            .map(|e| e.n as usize)
            .sum()
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

    /// The stored rows of `class` with their arrivals.
    fn batches_of(
        &self,
        class: Class,
    ) -> impl Iterator<Item = (&Row, impl Iterator<Item = Entry> + '_)> {
        self.batches().filter(move |(row, _)| row.in_class(class))
    }

    /// Latencies in milliseconds for `class`, unsorted.
    pub fn latencies_ms(&self, class: Class) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.count(class));
        for (row, arrivals) in self.batches_of(class) {
            for e in arrivals {
                let ms = row.latency(&e).as_millis_f64();
                out.extend(std::iter::repeat_n(ms, e.n as usize));
            }
        }
        out
    }

    /// Fraction of **strict** requests whose latency met their
    /// per-model SLO (the paper's headline "SLO compliance"). Returns 1.0
    /// for an empty strict set.
    pub fn slo_compliance(&self, slo: &dyn Fn(ModelId) -> SimDuration) -> f64 {
        let total = self.count(Class::Strict);
        let mut met = 0usize;
        for (row, arrivals) in self.batches_of(Class::Strict) {
            let slo = slo(row.model);
            met += arrivals
                .filter(|e| row.latency(e) <= slo)
                .map(|e| e.n as usize)
                .sum::<usize>();
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
        let mut tail = 0usize;
        let mut b = LatencyBreakdown::default();
        for (row, arrivals) in self.batches_of(class) {
            for e in arrivals {
                if row.latency(&e).as_millis_f64() < cut {
                    continue;
                }
                let queueing_ms = row.queueing_ms(&e);
                tail += e.n as usize;
                // Once per request, so every sum rounds as it would over
                // per-request records.
                for _ in 0..e.n {
                    b.min_exec_ms += row.min_exec_ms;
                    b.deficiency_ms += row.deficiency_ms;
                    b.interference_ms += row.interference_ms;
                    b.queueing_ms += queueing_ms;
                    b.cold_start_ms += row.cold_start_ms;
                }
            }
        }
        if tail == 0 {
            return None;
        }
        let n = tail as f64;
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

    /// Per-model summaries, in `ModelId::ALL` order, covering only the
    /// models with at least one record. Used by multi-model reports.
    pub fn per_model_summaries(
        &self,
        slo: &dyn Fn(ModelId) -> SimDuration,
    ) -> Vec<(ModelId, Summary)> {
        let mut out = Vec::new();
        for model in ModelId::ALL {
            let mut m = MetricsSet::new();
            for (row, arrivals) in self.batches().filter(|(row, _)| row.model == model) {
                m.rows.push(*row);
                // The first arrival is the row's own.
                m.entries.extend(arrivals.skip(1));
            }
            if m.rows.is_empty() {
                continue;
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
    use proptest::prelude::*;
    use protean_sim::{RngFactory, SimRng};

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
        assert!(m.records().next().is_none());
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
    fn stored_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<Row>(), 56);
        assert_eq!(std::mem::size_of::<Entry>(), 16);
        assert_eq!(std::mem::size_of::<RequestRecord>(), 64);
    }

    /// The per-record implementation `MetricsSet` had before it stored
    /// batches, kept as the reference its aggregations must equal.
    struct Reference(Vec<RequestRecord>);

    impl Reference {
        fn of(&self, class: Class) -> impl Iterator<Item = &RequestRecord> {
            self.0.iter().filter(move |r| match class {
                Class::Strict => r.strict,
                Class::BestEffort => !r.strict,
                Class::All => true,
            })
        }

        fn sorted(&self, class: Class) -> SortedLatencies {
            SortedLatencies::from_unsorted(
                self.of(class)
                    .map(|r| r.latency().as_millis_f64())
                    .collect(),
            )
        }

        fn tail_breakdown(&self, class: Class, q: f64) -> Option<LatencyBreakdown> {
            let cut = self.sorted(class).percentile(q)?;
            let tail: Vec<&RequestRecord> = self
                .of(class)
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

        fn summary(&self, slo: &dyn Fn(ModelId) -> SimDuration) -> Summary {
            let strict = self.sorted(Class::Strict);
            let be = self.sorted(Class::BestEffort);
            let total_strict = self.of(Class::Strict).count();
            let met = self
                .of(Class::Strict)
                .filter(|r| r.latency() <= slo(r.model))
                .count();
            Summary {
                total: self.0.len(),
                strict: total_strict,
                slo_compliance: if total_strict == 0 {
                    1.0
                } else {
                    met as f64 / total_strict as f64
                },
                strict_p50_ms: strict.p50().unwrap_or(0.0),
                strict_p99_ms: strict.p99().unwrap_or(0.0),
                be_p50_ms: be.p50().unwrap_or(0.0),
                be_p99_ms: be.p99().unwrap_or(0.0),
            }
        }

        fn per_model(&self, slo: &dyn Fn(ModelId) -> SimDuration) -> Vec<(ModelId, Summary)> {
            ModelId::ALL
                .into_iter()
                .filter_map(|model| {
                    let subset: Vec<RequestRecord> = self
                        .0
                        .iter()
                        .filter(|r| r.model == model)
                        .copied()
                        .collect();
                    (!subset.is_empty()).then(|| (model, Reference(subset).summary(slo)))
                })
                .collect()
        }
    }

    fn bits(r: &RequestRecord) -> [u64; 9] {
        let b = &r.breakdown;
        [
            r.model as u64,
            u64::from(r.strict),
            r.arrival.as_micros(),
            r.completion.as_micros(),
            b.min_exec_ms.to_bits(),
            b.deficiency_ms.to_bits(),
            b.interference_ms.to_bits(),
            b.queueing_ms.to_bits(),
            b.cold_start_ms.to_bits(),
        ]
    }

    fn summary_bits(s: &Summary) -> [u64; 7] {
        [
            s.total as u64,
            s.strict as u64,
            s.slo_compliance.to_bits(),
            s.strict_p50_ms.to_bits(),
            s.strict_p99_ms.to_bits(),
            s.be_p50_ms.to_bits(),
            s.be_p99_ms.to_bits(),
        ]
    }

    fn breakdown_bits(b: Option<LatencyBreakdown>) -> Option<[u64; 5]> {
        b.map(|b| {
            [
                b.min_exec_ms.to_bits(),
                b.deficiency_ms.to_bits(),
                b.interference_ms.to_bits(),
                b.queueing_ms.to_bits(),
                b.cold_start_ms.to_bits(),
            ]
        })
    }

    /// The queueing a per-request store keeps for a request of
    /// `latency_ms` whose other components are `b`'s: what the latency
    /// leaves, floored at zero.
    fn derived_queueing(latency_ms: f64, b: &LatencyBreakdown) -> f64 {
        let rest = latency_ms - b.cold_start_ms - b.interference_ms - b.deficiency_ms;
        f64::max(rest - b.min_exec_ms, 0.0)
    }

    /// A random single record, model drawn from the first three, as a
    /// caller pushes it (with a queueing of its own) and as the
    /// reference keeps it (with the derived queueing). One in four
    /// arrives after its completion (latency 0), one in four has
    /// components above its latency, one in four is cold-started.
    fn random_record(rng: &mut SimRng) -> (RequestRecord, RequestRecord) {
        let arrival = SimTime::from_millis(rng.uniform_range(0.0, 500.0));
        let case = rng.index(4);
        let completion = match case {
            0 => SimTime::from_millis(rng.uniform_range(0.0, 1000.0 * arrival.as_secs_f64())),
            2 => arrival + SimDuration::from_millis(rng.uniform_range(80.0, 480.0)),
            _ => arrival + SimDuration::from_millis(rng.uniform_range(0.0, 400.0)),
        };
        let latency_ms = completion.saturating_since(arrival).as_millis_f64();
        let mut breakdown = LatencyBreakdown {
            min_exec_ms: rng.uniform_range(0.0, 50.0),
            deficiency_ms: rng.uniform_range(0.0, 20.0),
            interference_ms: rng.uniform_range(0.0, 20.0),
            queueing_ms: rng.uniform_range(0.0, 300.0),
            cold_start_ms: 0.0,
        };
        match case {
            1 => breakdown.min_exec_ms += latency_ms,
            2 => breakdown.cold_start_ms = 80.0,
            _ => {}
        }
        let pushed = RequestRecord {
            model: ModelId::ALL[rng.index(3)],
            strict: rng.chance(0.5),
            arrival,
            completion,
            breakdown,
        };
        let mut kept = pushed;
        kept.breakdown.queueing_ms = derived_queueing(latency_ms, &breakdown);
        (pushed, kept)
    }

    /// A random batch of up to eight runs of one to four requests: its
    /// shared fields, its measured `(arrival, n)` runs and the records the
    /// per-request store built for them. The arrivals are drawn from up to
    /// three instants, so equal ones repeat, adjacent or not (`a, a, b,
    /// a`). Arrivals before 100 ms are pre-warmup and skipped, so some
    /// batches record nothing and some lose an instant between two kept
    /// ones.
    fn random_batch(rng: &mut SimRng) -> (BatchRecord, Vec<(SimTime, u32)>, Vec<RequestRecord>) {
        let completion = SimTime::from_millis(rng.uniform_range(100.0, 600.0));
        let batch = BatchRecord {
            model: ModelId::ALL[rng.index(3)],
            strict: rng.chance(0.5),
            completion,
            min_exec_ms: rng.uniform_range(0.0, 50.0),
            deficiency_ms: rng.uniform_range(0.0, 20.0),
            interference_ms: rng.uniform_range(0.0, 20.0),
            cold_start_ms: if rng.chance(0.2) { 80.0 } else { 0.0 },
        };
        let measure_from = SimTime::from_millis(100.0);
        let instants: Vec<SimTime> = (0..1 + rng.index(3))
            .map(|_| {
                SimTime::from_millis(rng.uniform_range(0.0, 1000.0 * completion.as_secs_f64()))
            })
            .collect();
        let runs: Vec<(SimTime, u32)> = (0..rng.index(9))
            .map(|_| (instants[rng.index(instants.len())], 1 + rng.index(4) as u32))
            .collect();
        let measured: Vec<(SimTime, u32)> = runs
            .into_iter()
            .filter(|&(a, _)| a >= measure_from)
            .collect();
        let mut records = Vec::new();
        for &(arrival, n) in &measured {
            let mut breakdown = LatencyBreakdown {
                min_exec_ms: batch.min_exec_ms,
                deficiency_ms: batch.deficiency_ms,
                interference_ms: batch.interference_ms,
                queueing_ms: 0.0,
                cold_start_ms: batch.cold_start_ms,
            };
            let latency_ms = completion.saturating_since(arrival).as_millis_f64();
            breakdown.queueing_ms = derived_queueing(latency_ms, &breakdown);
            let record = RequestRecord {
                model: batch.model,
                strict: batch.strict,
                arrival,
                completion,
                breakdown,
            };
            records.extend(std::iter::repeat_n(record, n as usize));
        }
        (batch, measured, records)
    }

    /// Feeds `ops` random pushes, batches and absorbs into a full set and
    /// a reference record vector.
    fn random_set(seed: u64, ops: usize) -> (MetricsSet, Vec<RequestRecord>) {
        let mut rng = RngFactory::new(seed).stream("metrics.prop");
        let mut set = MetricsSet::new();
        let mut reference = Vec::new();
        for _ in 0..ops {
            match rng.index(3) {
                0 => {
                    let (pushed, kept) = random_record(&mut rng);
                    set.push(pushed);
                    reference.push(kept);
                }
                1 => {
                    let (batch, arrivals, records) = random_batch(&mut rng);
                    set.push_batch(batch, arrivals);
                    reference.extend(records);
                }
                _ => {
                    let mut other = MetricsSet::new();
                    for _ in 0..rng.index(4) {
                        if rng.chance(0.5) {
                            let (pushed, kept) = random_record(&mut rng);
                            other.push(pushed);
                            reference.push(kept);
                        } else {
                            let (batch, arrivals, records) = random_batch(&mut rng);
                            other.push_batch(batch, arrivals);
                            reference.extend(records);
                        }
                    }
                    set.absorb(other);
                }
            }
        }
        (set, reference)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Batch rows rebuild exactly the records a per-request store
        /// would hold, and every aggregation over them is bit-equal.
        #[test]
        fn prop_batch_rows_match_per_request_records(seed in 0u64..1_000_000, ops in 0usize..40) {
            let (set, reference) = random_set(seed, ops);
            let got: Vec<[u64; 9]> = set.records().map(|r| bits(&r)).collect();
            let want: Vec<[u64; 9]> = reference.iter().map(bits).collect();
            prop_assert_eq!(got, want);
            let reference = Reference(reference);
            let slo = |m: ModelId| SimDuration::from_millis(100.0 + 50.0 * m as usize as f64);
            for class in [Class::Strict, Class::BestEffort, Class::All] {
                prop_assert_eq!(set.count(class), reference.of(class).count());
                let want = reference.sorted(class);
                for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                    prop_assert_eq!(
                        set.latency_percentile_ms(class, q).map(f64::to_bits),
                        want.percentile(q).map(f64::to_bits)
                    );
                    prop_assert_eq!(
                        breakdown_bits(set.tail_breakdown(class, q)),
                        breakdown_bits(reference.tail_breakdown(class, q))
                    );
                }
                let lats = set.latencies_ms(class);
                let want_lats: Vec<f64> =
                    reference.of(class).map(|r| r.latency().as_millis_f64()).collect();
                prop_assert_eq!(
                    lats.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want_lats.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
                prop_assert_eq!(
                    set.latency_mean_ms(class).map(f64::to_bits),
                    (!want_lats.is_empty())
                        .then(|| (want_lats.iter().sum::<f64>() / want_lats.len() as f64).to_bits())
                );
            }
            prop_assert_eq!(summary_bits(&set.summary(&slo)), summary_bits(&reference.summary(&slo)));
            let per_model: Vec<(ModelId, [u64; 7])> = set
                .per_model_summaries(&slo)
                .iter()
                .map(|(m, s)| (*m, summary_bits(s)))
                .collect();
            let want: Vec<(ModelId, [u64; 7])> = reference
                .per_model(&slo)
                .iter()
                .map(|(m, s)| (*m, summary_bits(s)))
                .collect();
            prop_assert_eq!(per_model, want);
        }

        /// In aggregate mode a batch of runs records each request's
        /// latency as a per-request push would, in the same order: the
        /// histograms' sums match bit for bit.
        #[test]
        fn prop_aggregate_batches_match_per_request_pushes(seed in 0u64..1_000_000, ops in 0usize..40) {
            let mut rng = RngFactory::new(seed).stream("metrics.prop");
            let mut direct = MetricsSet::aggregate();
            let mut via_batches = MetricsSet::aggregate();
            for _ in 0..ops {
                let (batch, arrivals, records) = random_batch(&mut rng);
                via_batches.push_batch(batch, arrivals);
                for r in records {
                    direct.push(r);
                }
            }
            prop_assert!(via_batches.records().next().is_none());
            let (a, b) = (via_batches.aggregate.as_ref().unwrap(), direct.aggregate.as_ref().unwrap());
            for (a, b) in [(&a.strict, &b.strict), (&a.be, &b.be)] {
                prop_assert_eq!(a.sum_ms.to_bits(), b.sum_ms.to_bits());
                prop_assert_eq!(&a.buckets, &b.buckets);
            }
            for class in [Class::Strict, Class::BestEffort, Class::All] {
                prop_assert_eq!(via_batches.count(class), direct.count(class));
                prop_assert_eq!(
                    via_batches.latency_mean_ms(class).map(f64::to_bits),
                    direct.latency_mean_ms(class).map(f64::to_bits)
                );
                for q in [0.0, 0.5, 0.99, 1.0] {
                    prop_assert_eq!(
                        via_batches.latency_percentile_ms(class, q).map(f64::to_bits),
                        direct.latency_percentile_ms(class, q).map(f64::to_bits)
                    );
                }
            }
        }
    }

    fn language_batch(completion_ms: f64) -> BatchRecord {
        BatchRecord {
            model: ModelId::Bert,
            strict: true,
            completion: SimTime::from_millis(completion_ms),
            min_exec_ms: 10.0,
            deficiency_ms: 1.0,
            interference_ms: 2.0,
            cold_start_ms: 0.0,
        }
    }

    #[test]
    fn only_adjacent_equal_arrivals_share_an_entry() {
        let (a, b) = (SimTime::from_millis(5.0), SimTime::from_millis(7.0));
        let mut set = MetricsSet::new();
        set.push_batch(language_batch(100.0), [(a, 1), (a, 1), (b, 1), (a, 1)]);
        // The first arrival and its repeat sit in the row.
        assert_eq!(set.rows.len(), 1);
        assert_eq!((set.rows[0].arrival, set.rows[0].n), (a, 2));
        assert_eq!(set.rows[0].entries, 2);
        let side: Vec<(SimTime, u32)> = set.entries.iter().map(|e| (e.arrival, e.n)).collect();
        assert_eq!(side, [(b, 1), (a, 1)]);
        assert_eq!(set.count(Class::All), 4);
        let arrivals: Vec<SimTime> = set.records().map(|r| r.arrival).collect();
        assert_eq!(arrivals, [a, a, b, a]);
        // Equal arrivals in two batches never share a count: the second
        // batch's sits in its own row and adds no entry.
        set.push_batch(language_batch(200.0), [(a, 2)]);
        assert_eq!(set.rows.len(), 2);
        assert_eq!(
            (set.rows[1].arrival, set.rows[1].n, set.rows[1].entries),
            (a, 2, 0)
        );
        assert_eq!(set.entries.len(), 2);
        assert_eq!(set.count(Class::Strict), 6);
    }

    #[test]
    fn a_batch_past_the_row_entry_cap_goes_on_in_a_second_row() {
        let batch = language_batch(100_000.0);
        // 70,000 distinct instants, the last one twice.
        let arrivals: Vec<SimTime> = (0..70_000u64)
            .chain([69_999])
            .map(SimTime::from_micros)
            .collect();
        let mut set = MetricsSet::new();
        set.push_batch(batch, arrivals.iter().map(|&a| (a, 1)));
        // A row holds its first arrival and u16::MAX entries, 2^16
        // instants; the second row starts at the next instant.
        assert_eq!(set.rows.len(), 2);
        assert_eq!(set.rows[0].entries, u16::MAX);
        assert_eq!(set.rows[1].arrival, SimTime::from_micros(1 << 16));
        let per_row: Vec<u32> = set.batches().map(|(_, a)| a.map(|e| e.n).sum()).collect();
        assert_eq!(per_row, [1 << 16, 70_001 - (1 << 16)]);
        assert_eq!(set.entries.len(), 70_000 - 2);
        assert_eq!(set.count(Class::All), 70_001);
        let got: Vec<SimTime> = set.records().map(|r| r.arrival).collect();
        assert_eq!(got, arrivals);
    }

    #[test]
    fn heap_bytes_count_rows_and_entries_by_capacity() {
        let mut set = MetricsSet::new();
        assert_eq!(set.heap_bytes(), 0);
        set.reserve(10);
        let (a, b) = (SimTime::from_millis(5.0), SimTime::from_millis(7.0));
        // One arrival per batch takes a row and no entry.
        set.push_batch(language_batch(100.0), [(a, 4)]);
        assert!(set.rows.capacity() >= 10);
        assert_eq!(set.entries.capacity(), 0);
        assert_eq!(set.heap_bytes(), set.rows.capacity() * 56);
        set.push_batch(language_batch(100.0), [(a, 2), (b, 2)]);
        assert!(set.entries.capacity() >= 1);
        assert_eq!(
            set.heap_bytes(),
            set.rows.capacity() * 56 + set.entries.capacity() * 16
        );
        let agg = MetricsSet::aggregate();
        assert_eq!(agg.heap_bytes(), 2 * BUCKETS * 8);
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
