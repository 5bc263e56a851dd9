//! End-to-end integration tests spanning every crate: trace → cluster
//! → scheme → metrics, with accounting and determinism invariants.

use protean::ProteanBuilder;
use protean_baselines::Baseline;
use protean_cluster::{run_simulation, SchemeBuilder};
use protean_experiments::{run_scheme, PaperSetup};
use protean_metrics::record::Class;
use protean_models::{catalog, ModelId};
use protean_sim::{RngFactory, SimDuration, SimTime};

fn small_setup() -> PaperSetup {
    PaperSetup {
        duration_secs: 40.0,
        seed: 123,
    }
}

/// Every request arriving after the warmup is accounted for exactly
/// once — completed or censored — under every scheme.
#[test]
fn conservation_of_requests_across_schemes() {
    let setup = small_setup();
    let config = setup.cluster();
    let trace = setup.wiki_trace(ModelId::ResNet50);
    let factory = RngFactory::new(config.seed);
    let expected = trace
        .generate(&factory)
        .iter()
        .filter(|r| r.arrival >= SimTime::ZERO + config.warmup)
        .count();
    let lineup: Vec<Box<dyn SchemeBuilder>> = vec![
        Box::new(Baseline::MoleculeBeta),
        Box::new(Baseline::InflessLlama),
        Box::new(Baseline::NaiveSlicing),
        Box::new(Baseline::Gpulet),
        Box::new(ProteanBuilder::paper()),
    ];
    for scheme in lineup {
        let result = run_simulation(&config, scheme.as_ref(), &trace);
        assert_eq!(
            result.metrics.count(Class::All),
            expected,
            "scheme {} lost or duplicated requests",
            scheme.name()
        );
    }
}

/// Next-completion-only finish scheduling: each slice keeps at most one
/// live `JobFinish` event, so event traffic tracks completions, not
/// resident-set size. INFless/Llama consolidates batches onto few GPUs,
/// so its MPS slices hold deep resident sets; the all-jobs
/// re-projection discipline (counted live in `EngineStats`) would push
/// at least twice the finish events on the paper's 8-worker Wiki run.
#[test]
fn consolidated_run_pushes_at_most_half_the_all_jobs_finish_events() {
    let setup = PaperSetup {
        duration_secs: 20.0,
        seed: 42,
    };
    let mut config = setup.cluster();
    config.warmup = SimDuration::from_secs(5.0);
    let trace = setup.wiki_trace(ModelId::ResNet50);
    let result = run_simulation(&config, &Baseline::InflessLlama, &trace);
    assert!(result.metrics.count(Class::All) > 10_000);
    let s = result.stats;
    assert!(s.finish_events_pushed > 0);
    let reduction = s.finish_events_all_jobs as f64 / s.finish_events_pushed as f64;
    assert!(
        reduction >= 2.0,
        "all-jobs / pushed finish events {reduction:.2}, expected >= 2 \
         ({} of {})",
        s.finish_events_pushed,
        s.finish_events_all_jobs
    );
}

/// Identical seeds reproduce identical results, bit for bit, through
/// the whole pipeline.
#[test]
fn full_pipeline_is_deterministic() {
    let setup = small_setup();
    let config = setup.cluster();
    let trace = setup.wiki_trace(ModelId::Vgg19);
    let a = run_scheme(&config, &ProteanBuilder::paper(), &trace);
    let b = run_scheme(&config, &ProteanBuilder::paper(), &trace);
    assert_eq!(a.slo_compliance_pct, b.slo_compliance_pct);
    assert_eq!(a.strict_p99_ms, b.strict_p99_ms);
    assert_eq!(a.cost_usd, b.cost_usd);
    assert_eq!(a.reconfigs, b.reconfigs);
    assert_eq!(
        a.result.metrics.count(Class::All),
        b.result.metrics.count(Class::All)
    );
}

/// A different seed changes the realised trace but not the accounting
/// invariants.
#[test]
fn different_seed_still_conserves() {
    let setup = PaperSetup {
        duration_secs: 40.0,
        seed: 999,
    };
    let config = setup.cluster();
    let trace = setup.wiki_trace(ModelId::MobileNet);
    let row = run_scheme(&config, &ProteanBuilder::paper(), &trace);
    assert!(row.result.metrics.count(Class::All) > 10_000);
    assert!(row.slo_compliance_pct > 50.0);
}

/// Latency breakdowns reconstruct the end-to-end latency: the sum of
/// components equals completion − arrival for every request.
#[test]
fn breakdown_components_sum_to_latency() {
    let setup = small_setup();
    let config = setup.cluster();
    let trace = setup.wiki_trace(ModelId::DenseNet121);
    let row = run_scheme(&config, &ProteanBuilder::paper(), &trace);
    for rec in row.result.metrics.records() {
        let latency_ms = rec.latency().as_millis_f64();
        let total = rec.breakdown.total_ms();
        assert!(
            (latency_ms - total).abs() < 0.51,
            "breakdown {total} != latency {latency_ms}"
        );
    }
}

/// The SLO function used in metrics matches the catalog contract.
#[test]
fn slo_deadlines_match_catalog() {
    let cat = catalog();
    for p in cat.profiles() {
        assert_eq!(p.slo(), p.slo_with_multiplier(3.0));
        assert!(p.slo() > p.solo_7g);
    }
}

/// Strict latencies recorded in the timeline agree with the metrics
/// set (both observe the same completions).
#[test]
fn timeline_and_metrics_agree_on_volume() {
    let setup = small_setup();
    let config = setup.cluster();
    let trace = setup.wiki_trace(ModelId::SeNet18);
    let row = run_scheme(&config, &ProteanBuilder::paper(), &trace);
    // One timeline sample per strict batch; strict requests / batch size
    // bounds the sample count from below (partial batches only add).
    let strict = row.result.metrics.count(Class::Strict);
    let batches = row.result.strict_latency_timeline.len();
    assert!(batches > 0);
    assert!(batches * 128 >= strict, "batches {batches} strict {strict}");
}

/// GPU utilization is consistent with load: strictly positive under
/// load and below 100%.
#[test]
fn utilization_is_sane() {
    let setup = small_setup();
    let config = setup.cluster();
    let trace = setup.wiki_trace(ModelId::EfficientNetB0);
    for scheme in [
        Box::new(Baseline::InflessLlama) as Box<dyn SchemeBuilder>,
        Box::new(ProteanBuilder::paper()),
    ] {
        let row = run_scheme(&config, scheme.as_ref(), &trace);
        assert!(
            row.gpu_util_pct > 1.0,
            "{}: {}",
            row.scheme,
            row.gpu_util_pct
        );
        assert!(row.gpu_util_pct <= 100.0);
        assert!(row.mem_util_pct > 0.1);
        assert!(row.mem_util_pct <= 100.0);
    }
}

/// The memory layer rows of a full-record run, from the stores
/// themselves: on a language Wiki run, whose requests arrive as batches
/// of 4, the materialised trace holds one 16-byte run per arrival
/// (≤ 4 bytes per request) and the record store one 48-byte row per
/// batch plus one 24-byte entry per arrival (≤ 18 bytes per request).
#[test]
fn full_records_and_the_trace_cost_a_quarter_entry_per_request() {
    let setup = PaperSetup {
        duration_secs: 60.0,
        seed: 7,
    };
    let config = setup.cluster();
    let trace = setup
        .wiki_trace(ModelId::Bert)
        .generate(&RngFactory::new(config.seed));
    let requests = trace.len();
    assert!(requests > 5000, "{requests} requests");
    let trace_bytes = trace.heap_bytes() as f64 / requests as f64;
    let result = protean_cluster::run_simulation_on(&config, &ProteanBuilder::paper(), trace);
    let recorded = result.metrics.count(Class::All);
    assert!(recorded > 4000, "{recorded} records");
    let record_bytes = result.metrics.heap_bytes() as f64 / recorded as f64;
    eprintln!("trace {trace_bytes:.2} B/request, records {record_bytes:.2} B/request");
    assert!(trace_bytes <= 4.0, "trace {trace_bytes} B/request");
    assert!(record_bytes <= 18.0, "records {record_bytes} B/request");
}
