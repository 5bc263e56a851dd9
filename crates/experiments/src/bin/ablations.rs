//! Ablation study: PROTEAN with individual design choices disabled,
//! compared on SLO compliance, tail latency and reconfiguration
//! count.
//!
//! Covered choices (DESIGN.md):
//! * strict-first request reordering (§4.1)
//! * Eq. 2 η-based strict placement (§4.3)
//! * dynamic GPU reconfiguration (§4.4)
//! * the wait counter before reconfiguring (§4.4)
//! * the EWMA predictor vs last-value (§4.4)
//! * the delayed-termination keep-alive (§4.2), toggled via the cluster
//!   config (no pre-warm + immediate reclaim shows the cold-start cost)
//!
//! Both variant grids run on the parallel harness (`PROTEAN_THREADS`
//! overrides the worker count).

use protean::{ProteanBuilder, ProteanConfig, ReconfiguratorConfig};
use protean_cluster::SchemeBuilder;
use protean_experiments::harness::{run_grid, thread_count, GridCell};
use protean_experiments::report::{banner, table};
use protean_experiments::{PaperSetup, SchemeRow};
use protean_models::ModelId;
use protean_sim::SimDuration;

fn variant(name: &'static str, f: impl FnOnce(&mut ProteanConfig)) -> ProteanBuilder {
    let mut config = ProteanConfig::paper();
    config.name = name;
    f(&mut config);
    ProteanBuilder::with_config(config, 2.0)
}

fn ablation_row(r: &SchemeRow, label: Option<&str>) -> Vec<String> {
    vec![
        label.map_or_else(|| r.scheme.clone(), str::to_string),
        format!("{:.2}", r.slo_compliance_pct),
        format!("{:.1}", r.strict_p99_ms),
        format!("{:.1}", r.be_p99_ms),
        r.reconfigs.to_string(),
        r.result.cold_starts.to_string(),
    ]
}

fn main() {
    let setup = PaperSetup::from_args();
    let config = setup.cluster();
    let threads = thread_count();
    // A workload that exercises every mechanism: HI strict model,
    // rotating BE pool including the oversized DPN 92.
    let mut trace = setup.wiki_trace(ModelId::ResNet50);
    trace.be_pool.push(ModelId::Dpn92);
    banner(
        "ablations",
        "PROTEAN with one mechanism disabled at a time (ResNet 50)",
    );
    let variants: Vec<ProteanBuilder> = vec![
        ProteanBuilder::paper(),
        variant("no request reordering", |c| c.reorder = false),
        variant("no eta placement (largest slice)", |c| {
            c.eta_placement = false
        }),
        variant("no dynamic reconfig", |c| c.dynamic_reconfig = false),
        variant("no wait counter", |c| {
            c.reconfigurator = ReconfiguratorConfig {
                wait_limit: 0,
                ..ReconfiguratorConfig::default()
            }
        }),
        variant("last-value predictor (no EWMA)", |c| {
            c.reconfigurator = ReconfiguratorConfig {
                ewma_alpha: 1.0,
                ..ReconfiguratorConfig::default()
            }
        }),
    ];
    // Keep-alive ablation lives in the cluster config: no pre-warmed
    // containers and immediate reclaim of idle ones. It rides the same
    // grid as the scheme-config variants, just with its own config.
    let mut no_keepalive = config.clone();
    no_keepalive.prewarm_containers = 0;
    no_keepalive.keep_alive = SimDuration::from_secs(2.0);
    let paper = ProteanBuilder::paper();

    let mut cells: Vec<GridCell<'_>> = variants
        .iter()
        .map(|b| GridCell::new(config.clone(), b, trace.clone()).labeled(b.name()))
        .collect();
    cells.push(
        GridCell::new(no_keepalive, &paper, trace.clone())
            .labeled("no keep-alive (immediate scale-down)"),
    );
    let results = run_grid(&cells, threads);

    let mut rows: Vec<Vec<String>> = results[..variants.len()]
        .iter()
        .map(|r| ablation_row(r, None))
        .collect();
    rows.push(ablation_row(
        results.last().expect("keep-alive cell present"),
        Some("no keep-alive (immediate scale-down)"),
    ));
    table(
        &[
            "variant",
            "SLO%",
            "P99 ms",
            "BE P99 ms",
            "reconfigs",
            "cold starts",
        ],
        &rows,
    );

    // Request reordering only binds when strict and BE batches contend
    // for the same slices — e.g. a same-model mix of an oversized HI
    // model on a smaller cluster (the §4.1 scenario).
    banner(
        "ablations",
        "request reordering under class contention (DPN 92, same-model BE, 6 workers)",
    );
    let mut contended = setup.cluster();
    contended.workers = 6;
    let mut trace = setup.wiki_trace(ModelId::Dpn92);
    trace.be_pool = vec![ModelId::Dpn92];
    let variants = [
        ProteanBuilder::paper(),
        variant("no request reordering", |c| c.reorder = false),
    ];
    let cells: Vec<GridCell<'_>> = variants
        .iter()
        .map(|b| GridCell::new(contended.clone(), b, trace.clone()).labeled(b.name()))
        .collect();
    let rows: Vec<Vec<String>> = run_grid(&cells, threads)
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.2}", r.slo_compliance_pct),
                format!("{:.1}", r.strict_p99_ms),
                format!("{:.1}", r.be_p99_ms),
            ]
        })
        .collect();
    table(&["variant", "SLO%", "P99 ms", "BE P99 ms"], &rows);
}
