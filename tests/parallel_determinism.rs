//! The parallel harness must be a pure wall-clock optimisation: the
//! same grid run with 1 worker thread and with several yields
//! bit-identical `SchemeRow`s for every cell. Each cell owns its RNG
//! streams via `ClusterConfig::seed`, so no result may depend on
//! thread interleaving.

use std::path::Path;

use protean_cluster::Observe;
use protean_experiments::harness::{run_grid, run_parallel, Cell};
use protean_experiments::scenario::{self, TraceSource};
use protean_experiments::{schemes, SchemeRow};

/// Compares every metric the figures and tables read, bitwise for the
/// floats so "close enough" can never mask a nondeterminism bug.
fn assert_rows_identical(a: &SchemeRow, b: &SchemeRow, cell: usize) {
    assert_eq!(a.scheme, b.scheme, "cell {cell}: scheme label");
    let float_fields = [
        (
            "slo_compliance_pct",
            a.slo_compliance_pct,
            b.slo_compliance_pct,
        ),
        ("strict_p50_ms", a.strict_p50_ms, b.strict_p50_ms),
        ("strict_p99_ms", a.strict_p99_ms, b.strict_p99_ms),
        ("be_p50_ms", a.be_p50_ms, b.be_p50_ms),
        ("be_p99_ms", a.be_p99_ms, b.be_p99_ms),
        (
            "strict_throughput",
            a.strict_throughput,
            b.strict_throughput,
        ),
        ("total_throughput", a.total_throughput, b.total_throughput),
        ("gpu_util_pct", a.gpu_util_pct, b.gpu_util_pct),
        ("mem_util_pct", a.mem_util_pct, b.mem_util_pct),
        ("cost_usd", a.cost_usd, b.cost_usd),
    ];
    for (name, x, y) in float_fields {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "cell {cell}: {name} differs ({x} vs {y})"
        );
    }
    assert_eq!(a.evictions, b.evictions, "cell {cell}: evictions");
    assert_eq!(a.censored, b.censored, "cell {cell}: censored");
    assert_eq!(a.reconfigs, b.reconfigs, "cell {cell}: reconfigs");
}

#[test]
fn one_thread_and_many_threads_agree_on_every_cell() {
    // A grid that varies model AND seed, so cells genuinely differ and
    // an index mix-up between input and output order cannot cancel out.
    let mut cells = Vec::new();
    for (seed, model) in [("100", "resnet50"), ("101", "mobilenet")] {
        let keys = [
            ("trace.duration_secs", "10"),
            ("trace.model", model),
            ("fleet.seed", seed),
        ];
        let spec = scenario::paper().with(&keys);
        for scheme in schemes::primary() {
            cells.push((spec.clone(), scheme));
        }
    }

    let sequential = run_grid(&cells, 1).unwrap();
    let parallel = run_grid(&cells, 4).unwrap();
    assert_eq!(sequential.len(), cells.len());
    assert_eq!(parallel.len(), cells.len());
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert_rows_identical(s, p, i);
    }
}

#[test]
fn run_parallel_preserves_input_order() {
    // Items finish in scrambled order on purpose (larger indices do
    // less work); the results must still come back in input order.
    let items: Vec<u64> = (0..64).collect();
    let doubled = run_parallel(&items, 8, |i, &x| {
        let spin = (64 - i as u64) * 1000;
        let mut acc = 0u64;
        for k in 0..spin {
            acc = acc.wrapping_add(k);
        }
        std::hint::black_box(acc);
        x * 2
    });
    assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
}

/// A grid whose cells each run audited returns bit-identical rows for
/// any pool thread count, and the same rows as the unaudited grid.
#[test]
fn audited_cells_inside_a_parallel_grid_stay_deterministic() {
    let mut cells: Vec<Cell> = Vec::new();
    for (i, scheme) in schemes::primary().into_iter().enumerate() {
        let seed = (300 + i).to_string();
        let keys = [("trace.duration_secs", "10"), ("fleet.seed", &seed)];
        cells.push((scenario::paper().with(&keys), scheme));
    }
    // `run_grid`'s cells, each run audited on the same pool.
    let audited_grid = |threads| {
        run_parallel(&cells, threads, |_, (spec, scheme)| {
            let compiled = spec.compile(Path::new(""), false);
            let result = compiled
                .simulate(scheme.as_ref(), Observe::audited())
                .unwrap();
            assert!(result.audit.is_clean(), "{:?}", result.audit.violations);
            SchemeRow::new(result, compiled.config.warmup, spec.fleet.slo_mult)
        })
    };
    let unaudited = run_grid(&cells, 1).unwrap();
    let sequential = audited_grid(1);
    let parallel = audited_grid(8);
    for (i, ((u, s), p)) in unaudited.iter().zip(&sequential).zip(&parallel).enumerate() {
        assert_rows_identical(u, s, i);
        assert_rows_identical(s, p, i);
    }
}

/// The invariant auditor sweeps after every event with zero violations,
/// and a repeat of the audited run in the same process sweeps exactly as
/// often and censors the same requests.
#[test]
fn audit_sweeps_stay_clean_and_counted_on_a_repeat() {
    let keys = [("trace.duration_secs", "15"), ("fleet.seed", "9")];
    let compiled = scenario::paper().with(&keys).compile(Path::new(""), false);
    let scheme = protean::ProteanBuilder::paper();
    let run = || compiled.simulate(&scheme, Observe::audited()).unwrap();
    let baseline = run();
    assert!(baseline.audit.enabled);
    assert!(baseline.audit.checks > 0);
    assert!(baseline.audit.is_clean(), "{:?}", baseline.audit.violations);
    // One sweep per handled event and per dispatched arrival run.
    let factory = protean_sim::RngFactory::new(compiled.config.seed);
    let TraceSource::Config(trace) = &compiled.trace else {
        unreachable!("the paper's trace is generated")
    };
    let runs = trace.generate(&factory).into_runs().len() as u64;
    assert!(runs < baseline.stats.arrivals);
    assert_eq!(baseline.audit.checks, baseline.stats.events_popped + runs);
    let repeat = run();
    assert!(repeat.audit.is_clean(), "{:?}", repeat.audit.violations);
    assert_eq!(baseline.audit.checks, repeat.audit.checks);
    assert_eq!(baseline.censored, repeat.censored);
}
