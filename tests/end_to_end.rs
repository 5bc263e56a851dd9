//! End-to-end integration tests spanning every crate: trace → cluster
//! → scheme → metrics, with accounting and determinism invariants.

use std::path::Path;

use protean::ProteanBuilder;
use protean_baselines::Baseline;
use protean_cluster::{simulate, Arrivals, Observe, SchemeBuilder};
use protean_experiments::scenario::{self, CompiledScenario, ScenarioSpec, TraceSource};
use protean_experiments::{run_cell, SchemeRow};
use protean_metrics::record::Class;
use protean_models::{ModelId, PROFILES};
use protean_sim::{RngFactory, SimDuration, SimTime};
use protean_trace::TraceConfig;

/// The paper's set-up with `model` strict at its domain's rate, a
/// `secs`-second trace and root seed `seed`.
fn paper(model: ModelId, secs: &str, seed: &str) -> ScenarioSpec {
    let keys = [("trace.duration_secs", secs), ("fleet.seed", seed)];
    scenario::paper().at_paper_rate(model).with(&keys)
}

/// `scheme` on the paper's set-up for `model` at 40 s and seed 123,
/// scored at the paper's 3x SLO.
fn scored(model: ModelId, scheme: &dyn SchemeBuilder) -> SchemeRow {
    run_cell(&paper(model, "40", "123"), scheme).unwrap()
}

/// The generated trace a compiled paper spec runs on.
fn trace_config(compiled: &CompiledScenario) -> &TraceConfig {
    match &compiled.trace {
        TraceSource::Config(trace) => trace,
        TraceSource::Csv(_) => unreachable!("the paper's trace is generated"),
    }
}

/// Every request arriving after the warmup is accounted for exactly
/// once — completed or censored — under every scheme.
#[test]
fn conservation_of_requests_across_schemes() {
    let compiled = paper(ModelId::ResNet50, "40", "123").compile(Path::new(""), false);
    let config = &compiled.config;
    let factory = RngFactory::new(config.seed);
    let expected = trace_config(&compiled)
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
        let result = compiled
            .simulate(scheme.as_ref(), Observe::default())
            .unwrap();
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
    let mut compiled = paper(ModelId::ResNet50, "20", "42").compile(Path::new(""), false);
    compiled.config.warmup = SimDuration::from_secs(5.0);
    let result = compiled
        .simulate(&Baseline::InflessLlama, Observe::default())
        .unwrap();
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
    let a = scored(ModelId::Vgg19, &ProteanBuilder::paper());
    let b = scored(ModelId::Vgg19, &ProteanBuilder::paper());
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
    let spec = paper(ModelId::MobileNet, "40", "999");
    let row = run_cell(&spec, &ProteanBuilder::paper()).unwrap();
    assert!(row.result.metrics.count(Class::All) > 10_000);
    assert!(row.slo_compliance_pct > 50.0);
}

/// Latency breakdowns reconstruct the end-to-end latency: the sum of
/// components equals completion − arrival for every request.
#[test]
fn breakdown_components_sum_to_latency() {
    let row = scored(ModelId::DenseNet121, &ProteanBuilder::paper());
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
    for p in &PROFILES {
        assert_eq!(p.slo(), p.slo_with_multiplier(3.0));
        assert!(p.slo() > p.solo_7g);
    }
}

/// Strict latencies recorded in the timeline agree with the metrics
/// set (both observe the same completions).
#[test]
fn timeline_and_metrics_agree_on_volume() {
    let row = scored(ModelId::SeNet18, &ProteanBuilder::paper());
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
    for scheme in [
        Box::new(Baseline::InflessLlama) as Box<dyn SchemeBuilder>,
        Box::new(ProteanBuilder::paper()),
    ] {
        let row = scored(ModelId::EfficientNetB0, scheme.as_ref());
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
/// (≤ 4 bytes per request) and the record store one 56-byte row per
/// batch, which holds its one arrival inline (≤ 14 bytes per request).
#[test]
fn full_records_and_the_trace_cost_a_quarter_entry_per_request() {
    let compiled = paper(ModelId::Bert, "60", "7").compile(Path::new(""), false);
    let config = &compiled.config;
    let trace = trace_config(&compiled).generate(&RngFactory::new(config.seed));
    let requests = trace.len();
    assert!(requests > 5000, "{requests} requests");
    let trace_bytes = trace.heap_bytes() as f64 / requests as f64;
    let result = simulate(
        config,
        &ProteanBuilder::paper(),
        Arrivals::Trace(trace),
        None,
        Observe::default(),
    );
    let recorded = result.metrics.count(Class::All);
    assert!(recorded > 4000, "{recorded} records");
    let record_bytes = result.metrics.heap_bytes() as f64 / recorded as f64;
    eprintln!("trace {trace_bytes:.2} B/request, records {record_bytes:.2} B/request");
    assert!(trace_bytes <= 4.0, "trace {trace_bytes} B/request");
    assert!(record_bytes <= 14.0, "records {record_bytes} B/request");
}

/// Only an arrival that opens a batch and leaves it open arms a batch
/// window. On the paper's §5 set-up every arrival is a whole batch
/// (vision at 128, LLMs at 4), so no run arms one; best-effort runs of
/// 4 into batch-128 accumulators still do.
#[test]
fn whole_batch_arrivals_arm_no_window_and_partial_ones_still_do() {
    let expiries = |keys: &[(&str, &str)]| {
        let spec = scenario::paper()
            .with(&[("trace.duration_secs", "20")])
            .with(keys);
        let scheme = protean_experiments::schemes::by_name(&spec.fleet.scheme).expect("a scheme");
        let r = run_cell(&spec, scheme.as_ref()).unwrap().result;
        assert!(r.stats.dispatch_batches > 0);
        r.stats.expiries
    };
    // ResNet 50 strict, vision best-effort models, all at batch 128.
    assert_eq!(expiries(&[]), 0);
    // Albert strict, BERT best-effort, both at batch 4.
    let llm = [("trace.model", "albert"), ("trace.be_pool", "[\"bert\"]")];
    assert_eq!(expiries(&llm), 0);
    // Albert runs of 4 at 128 rps; ResNet 50 best-effort runs of 4 feed
    // batch-128 accumulators, which their windows seal.
    let partial = [
        ("trace.model", "albert"),
        ("trace.rps", "128"),
        ("trace.be_pool", "[\"resnet50\"]"),
    ];
    assert!(expiries(&partial) > 0);
}
