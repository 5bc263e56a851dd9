//! The parallel harness must be a pure wall-clock optimisation: the
//! same grid run with 1 worker thread and with several yields
//! bit-identical `SchemeRow`s for every cell. Each cell owns its RNG
//! streams via `ClusterConfig::seed`, so no result may depend on
//! thread interleaving.

use protean_experiments::harness::{run_grid, run_parallel, GridCell};
use protean_experiments::{schemes, PaperSetup, SchemeRow};
use protean_models::ModelId;

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
    let lineup = schemes::primary();
    // A grid that varies model AND seed, so cells genuinely differ and
    // an index mix-up between input and output order cannot cancel out.
    let mut cells = Vec::new();
    for (i, &model) in [ModelId::ResNet50, ModelId::MobileNet].iter().enumerate() {
        let setup = PaperSetup {
            duration_secs: 10.0,
            seed: 100 + i as u64,
        };
        for scheme in &lineup {
            cells.push(GridCell::new(
                setup.cluster(),
                scheme.as_ref(),
                setup.wiki_trace(model),
            ));
        }
    }

    let sequential = run_grid(&cells, 1);
    let parallel = run_grid(&cells, 4);
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
/// any grid thread count, and the same rows as the unaudited grid.
#[test]
fn audited_cells_inside_a_parallel_grid_stay_deterministic() {
    let lineup = schemes::primary();
    let mut cells = Vec::new();
    let mut audited_cells = Vec::new();
    for (i, scheme) in lineup.iter().enumerate() {
        let setup = PaperSetup {
            duration_secs: 10.0,
            seed: 300 + i as u64,
        };
        let trace = setup.wiki_trace(ModelId::ResNet50);
        let mut config = setup.cluster();
        cells.push(GridCell::new(
            config.clone(),
            scheme.as_ref(),
            trace.clone(),
        ));
        config.audit = true;
        audited_cells.push(GridCell::new(config, scheme.as_ref(), trace));
    }
    let unaudited = run_grid(&cells, 1);
    let sequential = run_grid(&audited_cells, 1);
    let parallel = run_grid(&audited_cells, 8);
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
    use protean_cluster::run_simulation;
    let setup = PaperSetup {
        duration_secs: 15.0,
        seed: 9,
    };
    let mut config = setup.cluster();
    config.audit = true;
    let trace = setup.wiki_trace(ModelId::ResNet50);
    let scheme = protean::ProteanBuilder::paper();
    let baseline = run_simulation(&config, &scheme, &trace);
    assert!(baseline.audit.enabled);
    assert!(baseline.audit.checks > 0);
    assert!(baseline.audit.is_clean(), "{:?}", baseline.audit.violations);
    // One sweep per handled event and per dispatched arrival.
    let s = &baseline.stats;
    assert_eq!(baseline.audit.checks, s.events_popped + s.arrivals);
    let repeat = run_simulation(&config, &scheme, &trace);
    assert!(repeat.audit.is_clean(), "{:?}", repeat.audit.violations);
    assert_eq!(baseline.audit.checks, repeat.audit.checks);
    assert_eq!(baseline.censored, repeat.censored);
}
