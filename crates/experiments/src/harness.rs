//! Parallel experiment harness: fans independent simulation cells out
//! over a scoped worker pool.
//!
//! Every figure/table in the reproduction is a grid of independent
//! `(scheme, seed, trace)` simulations. Each cell derives all of its
//! randomness from its own `ClusterConfig::seed` via
//! `protean_sim::RngFactory`, and shares no mutable state with any
//! other cell, so cells can run on any thread in any order and the
//! grid's results are **bit-identical** to a sequential run. The
//! harness exploits that: [`run_grid`] executes cells on
//! `std::thread::scope` workers pulling from an atomic work index; each
//! worker hands back its results tagged with their input index, so
//! output order always matches input order regardless of scheduling.
//!
//! Thread count resolution (first match wins):
//!
//! 1. an explicit `--threads` CLI override, where the binary passes one
//!    (see [`thread_count_or`]) — taken verbatim;
//! 2. the `PROTEAN_THREADS` environment variable, capped at
//!    [`std::thread::available_parallelism`] — simulation cells are
//!    CPU-bound, so oversubscribing physical cores only adds context
//!    switches (8 requested threads on a 1-core host once measured a
//!    < 1× "speedup" from exactly this);
//! 3. [`std::thread::available_parallelism`].
//!
//! [`run_grid`] additionally shrinks the pool so each worker gets at
//! least [`MIN_CELLS_PER_THREAD`] cells, degrading to a plain
//! sequential loop for small grids where thread startup would dominate.

use std::sync::atomic::{AtomicUsize, Ordering};

use protean_cluster::{ClusterConfig, SchemeBuilder};
use protean_trace::TraceConfig;

use crate::runner::{run_scheme, SchemeRow};

/// Resolves the worker-pool size from `PROTEAN_THREADS` or the
/// machine's available parallelism.
pub fn thread_count() -> usize {
    thread_count_or(None)
}

/// Resolves the worker-pool size, preferring an explicit override
/// (e.g. a `--threads` CLI flag) over `PROTEAN_THREADS` over
/// [`std::thread::available_parallelism`].
pub fn thread_count_or(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if let Some(n) = std::env::var("PROTEAN_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        if n >= 1 {
            // Cells are CPU-bound; more workers than cores is pure
            // context-switch overhead.
            return n.min(hw);
        }
    }
    hw
}

/// Runs `f` over `items` on `threads` scoped workers, returning results
/// in input order. With `threads <= 1` (or one item) it degenerates to
/// a plain sequential loop on the calling thread.
///
/// Workers claim items through an atomic index and return their
/// `(index, result)` pairs through their join handles; the caller puts
/// them back in input order, so the output order is deterministic even
/// though execution order is not. A panic inside `f` propagates when
/// its worker is joined.
pub fn run_parallel<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return done;
                        }
                        done.push((i, f(i, &items[i])));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item claimed by a worker"))
        .collect()
}

/// One independent simulation of a grid: a scheme over a trace under a
/// cluster config (which carries the cell's seed).
pub struct GridCell<'a> {
    /// Cluster configuration, including the cell's root seed.
    pub config: ClusterConfig,
    /// The scheme under test.
    pub scheme: &'a dyn SchemeBuilder,
    /// The workload.
    pub trace: TraceConfig,
    /// Progress label (e.g. `"ResNet50/PROTEAN"`); when non-empty the
    /// grid prints `[done/total] label` to stderr as cells finish.
    pub label: String,
}

impl<'a> GridCell<'a> {
    /// A cell with no progress label.
    pub fn new(config: ClusterConfig, scheme: &'a dyn SchemeBuilder, trace: TraceConfig) -> Self {
        GridCell {
            config,
            scheme,
            trace,
            label: String::new(),
        }
    }

    /// Attaches a progress label.
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// Minimum grid cells per worker thread before [`run_grid`] spawns it.
/// A cell simulates in single-digit milliseconds at reduced durations,
/// so a thread must have a few cells of work to amortize its spawn
/// cost; small grids run sequentially.
pub const MIN_CELLS_PER_THREAD: usize = 4;

/// Runs every cell on a pool of `threads` workers and returns one
/// [`SchemeRow`] per cell, in input order. Results are bit-identical
/// for any `threads` value (each cell owns its seed; see module docs).
///
/// Every cell runs on one thread, so the pool is only
/// shrunk until every spawned worker has at least
/// [`MIN_CELLS_PER_THREAD`] cells; grids smaller than that threshold
/// fall back to a sequential loop on the calling thread.
pub fn run_grid(cells: &[GridCell<'_>], threads: usize) -> Vec<SchemeRow> {
    let threads = threads.min(cells.len() / MIN_CELLS_PER_THREAD).max(1);
    let done = AtomicUsize::new(0);
    run_parallel(cells, threads, |_, cell| {
        let row = run_scheme(&cell.config, cell.scheme, &cell.trace);
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        if !cell.label.is_empty() {
            eprintln!("  [{finished}/{}] {}", cells.len(), cell.label);
        }
        row
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::PaperSetup;
    use protean_baselines::Baseline;
    use protean_models::ModelId;

    #[test]
    fn run_parallel_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 7] {
            let out = run_parallel(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_parallel_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_parallel(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(run_parallel(&[5u32], 8, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn thread_count_prefers_explicit_override() {
        assert_eq!(thread_count_or(Some(3)), 3);
        assert_eq!(thread_count_or(Some(0)), 1);
        assert!(thread_count_or(None) >= 1);
    }

    #[test]
    fn grid_rows_match_sequential_run_scheme() {
        let setup = PaperSetup {
            duration_secs: 10.0,
            seed: 11,
        };
        let mut config = setup.cluster();
        config.workers = 2;
        let schemes: [&dyn protean_cluster::SchemeBuilder; 2] =
            [&Baseline::MoleculeBeta, &Baseline::NaiveSlicing];
        let cells: Vec<GridCell<'_>> = schemes
            .iter()
            .map(|s| {
                GridCell::new(
                    config.clone(),
                    *s,
                    setup.constant_trace(ModelId::MobileNet, 300.0),
                )
            })
            .collect();
        let parallel = run_grid(&cells, 2);
        let sequential = run_grid(&cells, 1);
        assert_eq!(parallel.len(), 2);
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.scheme, s.scheme);
            assert_eq!(p.slo_compliance_pct, s.slo_compliance_pct);
            assert_eq!(p.strict_p99_ms, s.strict_p99_ms);
            assert_eq!(p.cost_usd, s.cost_usd);
        }
    }
}
