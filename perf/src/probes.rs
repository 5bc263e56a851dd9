//! Unit-cost probes: warm loops over public layer functions, sized from
//! the workload's own counters. Each is the fastest of a few passes, so
//! it is a lower bound on what one operation costs inside a run (where
//! caches are shared with the rest of the engine), not a share of it.

use std::hint::black_box;
use std::time::Instant;

use protean_cluster::DispatchIndex;
use protean_metrics::{LatencyBreakdown, MetricsSet, RequestRecord};
use protean_models::ModelId;
use protean_sim::{EventKey, KeyedEventQueue, RngFactory, SimDuration, SimTime};
use protean_trace::TraceConfig;

const PASSES: usize = 3;
const OPS: usize = 1 << 18;

/// Fastest of [`PASSES`] runs of `pass`, in ns per operation; `pass`
/// performs [`OPS`] operations.
fn fastest_ns(mut pass: impl FnMut()) -> f64 {
    (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_nanos() as f64 / OPS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One pop plus one push on a `KeyedEventQueue` held at `len` events,
/// the queue depth the workload peaked at.
pub fn queue_push_pop_ns(len: usize, seed: u64) -> f64 {
    let mut rng = RngFactory::new(seed).stream("perf.probe.queue");
    let mut queue = KeyedEventQueue::new();
    let mut major = 0u64;
    for _ in 0..len.max(1) {
        major += 1;
        let at = SimTime::ZERO + SimDuration::from_millis(rng.uniform_range(0.0, 1000.0));
        queue.push(EventKey::new(at, major, 0), major);
    }
    let delays: Vec<SimDuration> = (0..OPS)
        .map(|_| SimDuration::from_millis(rng.uniform_range(0.0, 1000.0)))
        .collect();
    fastest_ns(|| {
        for &delay in &delays {
            let (key, event) = queue.pop().expect("queue never drains");
            major += 1;
            queue.push(EventKey::new(key.time + delay, major, 0), black_box(event));
        }
    })
}

/// `DispatchIndex::refresh` at random workers of a `workers`-slot
/// index, and `least_loaded_accepting` on it, in ns per call.
pub fn dispatch_ns(workers: usize, seed: u64) -> (f64, f64) {
    let mut rng = RngFactory::new(seed).stream("perf.probe.dispatch");
    let mut index = DispatchIndex::new(workers);
    for w in 0..workers {
        index.refresh(w, true, true, 0);
    }
    let updates: Vec<(usize, bool, u64)> = (0..OPS)
        .map(|_| (rng.index(workers), rng.chance(0.9), rng.index(8) as u64))
        .collect();
    let refresh = fastest_ns(|| {
        for &(w, accepting, outstanding) in &updates {
            index.refresh(black_box(w), true, accepting, outstanding);
        }
    });
    let query = fastest_ns(|| {
        for _ in 0..OPS {
            black_box(black_box(&index).least_loaded_accepting());
        }
    });
    (refresh, query)
}

/// `MetricsSet::push` into a fresh set in the workload's mode
/// (histogram or full records, pre-reserved as the engine reserves).
pub fn metrics_push_ns(aggregate: bool, seed: u64) -> f64 {
    let mut rng = RngFactory::new(seed).stream("perf.probe.metrics");
    let records: Vec<RequestRecord> = (0..OPS)
        .map(|i| {
            let arrival = SimTime::from_millis(i as f64);
            RequestRecord {
                model: ModelId::Albert,
                strict: rng.chance(0.5),
                arrival,
                completion: arrival + SimDuration::from_millis(rng.uniform_range(1.0, 2000.0)),
                breakdown: LatencyBreakdown::default(),
            }
        })
        .collect();
    fastest_ns(|| {
        let mut set = if aggregate {
            MetricsSet::aggregate()
        } else {
            MetricsSet::new()
        };
        set.reserve(OPS);
        for &r in &records {
            set.push(black_box(r));
        }
        black_box(&set);
    })
}

/// One full drain of `TraceConfig::stream` for the workload's trace, in
/// ns per request.
pub fn trace_draw_ns(trace: &TraceConfig, seed: u64) -> f64 {
    let t0 = Instant::now();
    let mut n = 0usize;
    for request in trace.stream(&RngFactory::new(seed)) {
        black_box(request);
        n += 1;
    }
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}
