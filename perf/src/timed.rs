//! Timing wrappers placed around the engine's two policy callbacks —
//! `Scheme::place`/`reconfigure` and the `SpotOracle` — so per-layer
//! cost is measured from outside the engine, through its public API.
//!
//! Call counts are exact. Timing is sampled, one call in
//! [`SAMPLE_EVERY`] by call index, because reading the clock around
//! every call costs about as much as a short `place` and would distort
//! the run it measures. The cost of the clock read itself is calibrated
//! once ([`clock_overhead_ns`]) and subtracted when a mean is reported.
//! Wrappers keep plain local counters; a scheme wrapper adds its
//! counters into the shared [`SchemeTotals`] atomics when it is dropped,
//! so the hot path touches no atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use protean_cluster::{
    BatchView, DispatchPolicy, Placement, PlacementCtx, ReconfigCtx, Scheme, SchemeBuilder,
    SpotOracle,
};
use protean_gpu::{Geometry, SharingMode};
use protean_sim::{SimDuration, SimTime};

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Median cost in ns of the timed path's clock work — an `Instant`
/// read followed by `elapsed()` around nothing — measured once.
pub fn clock_overhead_ns() -> f64 {
    let mut samples: Vec<u64> = (0..20_001)
        .map(|_| {
            let t0 = Instant::now();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// Exact call and hit counts of one callback plus the raw sampled time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counter {
    pub calls: u64,
    /// Calls whose answer was useful: a placement, a geometry request,
    /// an eviction notice or a spot grant.
    pub hits: u64,
    pub timed: u64,
    pub timed_ns: u64,
}

impl Counter {
    /// Runs `f`, timing it when this call's index (offset by `phase`,
    /// so wrappers that each see few calls do not all sample their
    /// first one) falls on the sampling grid.
    fn call<T>(&mut self, phase: u64, f: impl FnOnce() -> T) -> T {
        let index = self.calls + phase;
        self.calls += 1;
        if !index.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.timed_ns += t0.elapsed().as_nanos() as u64;
        self.timed += 1;
        out
    }

    /// Mean ns per call with the clock overhead removed (0 when no call
    /// was timed).
    pub fn ns_per_call(&self, clock_ns: f64) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        (self.timed_ns as f64 / self.timed as f64 - clock_ns).max(0.0)
    }

    /// Estimated total ns spent in the callback: the sampled mean
    /// extrapolated to every call.
    pub fn total_ns(&self, clock_ns: f64) -> f64 {
        self.ns_per_call(clock_ns) * self.calls as f64
    }

    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.calls)
    }

    fn merge(&mut self, other: &Counter) {
        self.calls += other.calls;
        self.hits += other.hits;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[derive(Debug, Default)]
struct AtomicCounter([AtomicU64; 4]);

impl AtomicCounter {
    fn add(&self, c: &Counter) {
        // Statistics only: the run's threads are joined before the
        // totals are read, and the join orders these adds before it.
        for (slot, v) in self.0.iter().zip([c.calls, c.hits, c.timed, c.timed_ns]) {
            slot.fetch_add(v, Ordering::Relaxed);
        }
    }

    fn load(&self) -> Counter {
        let [calls, hits, timed, timed_ns] =
            [0, 1, 2, 3].map(|i| self.0[i].load(Ordering::Relaxed));
        Counter {
            calls,
            hits,
            timed,
            timed_ns,
        }
    }
}

/// Fleet-wide `place` and `reconfigure` counters, filled in as the
/// per-worker wrappers drop at the end of a run.
#[derive(Debug, Default)]
pub struct SchemeTotals {
    place: AtomicCounter,
    reconfigure: AtomicCounter,
}

impl SchemeTotals {
    pub fn place(&self) -> Counter {
        self.place.load()
    }

    pub fn reconfigure(&self) -> Counter {
        self.reconfigure.load()
    }
}

/// Wraps every `Scheme` the inner builder makes in a [`TimedScheme`].
pub struct TimedBuilder<'a> {
    pub inner: &'a dyn SchemeBuilder,
    pub totals: Arc<SchemeTotals>,
}

impl SchemeBuilder for TimedBuilder<'_> {
    fn build(&self, worker: usize) -> Box<dyn Scheme> {
        Box::new(TimedScheme {
            inner: self.inner.build(worker),
            totals: Arc::clone(&self.totals),
            phase: worker as u64,
            place: Counter::default(),
            reconfigure: Counter::default(),
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dispatch_policy(&self) -> DispatchPolicy {
        self.inner.dispatch_policy()
    }
}

struct TimedScheme {
    inner: Box<dyn Scheme>,
    totals: Arc<SchemeTotals>,
    phase: u64,
    place: Counter,
    reconfigure: Counter,
}

impl Scheme for TimedScheme {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial_geometry(&self) -> Geometry {
        self.inner.initial_geometry()
    }

    fn sharing_mode(&self) -> SharingMode {
        self.inner.sharing_mode()
    }

    fn reorders(&self) -> bool {
        self.inner.reorders()
    }

    fn place(&mut self, ctx: &PlacementCtx<'_>, batch: &BatchView) -> Option<Placement> {
        let inner = &mut self.inner;
        let out = self.place.call(self.phase, || inner.place(ctx, batch));
        self.place.hits += u64::from(out.is_some());
        out
    }

    fn reconfigure(&mut self, ctx: &ReconfigCtx<'_>) -> Option<Geometry> {
        let inner = &mut self.inner;
        let out = self.reconfigure.call(self.phase, || inner.reconfigure(ctx));
        self.reconfigure.hits += u64::from(out.is_some());
        out
    }
}

impl Drop for TimedScheme {
    fn drop(&mut self) {
        self.totals.place.add(&self.place);
        self.totals.reconfigure.add(&self.reconfigure);
    }
}

/// Wraps a spot oracle; the engine borrows it, so its counters are read
/// directly after the run.
pub struct TimedOracle<O> {
    pub inner: O,
    pub revocation: Counter,
    pub acquisition: Counter,
}

impl<O> TimedOracle<O> {
    pub fn new(inner: O) -> Self {
        TimedOracle {
            inner,
            revocation: Counter::default(),
            acquisition: Counter::default(),
        }
    }

    /// Both callbacks together.
    pub fn total(&self) -> Counter {
        let mut c = self.revocation;
        c.merge(&self.acquisition);
        c
    }
}

impl<O: SpotOracle> SpotOracle for TimedOracle<O> {
    fn roll_revocation(&mut self, now: SimTime, worker: usize) -> Option<SimDuration> {
        let inner = &mut self.inner;
        let out = self
            .revocation
            .call(worker as u64, || inner.roll_revocation(now, worker));
        self.revocation.hits += u64::from(out.is_some());
        out
    }

    fn try_acquire_spot(&mut self, now: SimTime, worker: usize) -> bool {
        let inner = &mut self.inner;
        let out = self
            .acquisition
            .call(worker as u64, || inner.try_acquire_spot(now, worker));
        self.acquisition.hits += u64::from(out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_samples_one_call_in_sample_every_and_counts_all() {
        let mut c = Counter::default();
        for _ in 0..(3 * SAMPLE_EVERY) {
            c.call(5, || std::hint::black_box(1 + 1));
        }
        assert_eq!(c.calls, 3 * SAMPLE_EVERY);
        assert_eq!(c.timed, 3);
        assert_eq!(c.ns_per_call(f64::INFINITY), 0.0);
        assert_eq!(Counter::default().ns_per_call(0.0), 0.0);
    }

    #[test]
    fn clock_overhead_is_small_and_positive() {
        let ns = clock_overhead_ns();
        assert!((0.0..10_000.0).contains(&ns), "{ns} ns per clock read");
    }
}
