//! Cross-crate property-based tests: invariants that must hold for any
//! workload mix, seed or rate the generators can produce.

use proptest::prelude::*;
use protean::ProteanBuilder;
use protean_baselines::Baseline;
use protean_cluster::engine::DRAIN_GRACE;
use protean_cluster::{run_simulation, ClusterConfig, SchemeBuilder};
use protean_metrics::record::Class;
use protean_models::{catalog, ModelId};
use protean_sim::{RngFactory, SimDuration, SimTime};
use protean_trace::{TraceConfig, TraceShape};

fn any_vision_model() -> impl Strategy<Value = ModelId> {
    prop::sample::select(catalog().vision().map(|p| p.id).collect::<Vec<_>>())
}

fn scheme_for(idx: usize) -> Box<dyn SchemeBuilder> {
    match idx % 4 {
        0 => Box::new(Baseline::MoleculeBeta),
        1 => Box::new(Baseline::InflessLlama),
        2 => Box::new(Baseline::NaiveSlicing),
        _ => Box::new(ProteanBuilder::paper()),
    }
}

fn quick_config(seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::paper_default();
    c.workers = 2;
    c.seed = seed;
    c.warmup = SimDuration::from_secs(5.0);
    c
}

fn quick_trace(model: ModelId, rps: f64, strict_fraction: f64) -> TraceConfig {
    TraceConfig {
        shape: TraceShape::constant(rps),
        duration: SimDuration::from_secs(15.0),
        strict_model: model,
        strict_fraction,
        be_pool: catalog().opposite_pool(model),
        be_rotation_period: SimDuration::from_secs(10.0),
        batch_arrivals: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation: completed-or-censored equals post-warmup arrivals
    /// for any scheme, model, rate, mix and seed.
    #[test]
    fn prop_no_request_lost(
        seed in 0u64..1000,
        model in any_vision_model(),
        rps in 200.0f64..2000.0,
        strict_fraction in 0.1f64..0.9,
        scheme_idx in 0usize..4,
    ) {
        let config = quick_config(seed);
        let trace = quick_trace(model, rps, strict_fraction);
        let scheme = scheme_for(scheme_idx);
        let result = run_simulation(&config, scheme.as_ref(), &trace);
        let factory = RngFactory::new(config.seed);
        let expected = trace
            .generate(&factory)
            .iter()
            .filter(|r| r.arrival >= SimTime::ZERO + config.warmup)
            .count();
        prop_assert_eq!(result.metrics.count(Class::All), expected);
    }

    /// Latency is never negative and never exceeds the simulation
    /// horizon plus drain grace; breakdown components are non-negative.
    #[test]
    fn prop_latency_bounds(
        seed in 0u64..1000,
        model in any_vision_model(),
        scheme_idx in 0usize..4,
    ) {
        let config = quick_config(seed);
        let trace = quick_trace(model, 800.0, 0.5);
        let scheme = scheme_for(scheme_idx);
        let result = run_simulation(&config, scheme.as_ref(), &trace);
        let horizon = trace.duration + DRAIN_GRACE;
        for rec in result.metrics.records() {
            let lat = rec.latency();
            prop_assert!(lat <= horizon);
            prop_assert!(rec.breakdown.min_exec_ms >= 0.0);
            prop_assert!(rec.breakdown.deficiency_ms >= 0.0);
            prop_assert!(rec.breakdown.interference_ms >= 0.0);
            prop_assert!(rec.breakdown.queueing_ms >= 0.0);
            prop_assert!(rec.breakdown.cold_start_ms >= 0.0);
        }
    }

    /// Cost accounting: on-demand-only runs cost exactly
    /// workers × hours × worker-rate, independent of the workload.
    #[test]
    fn prop_on_demand_cost_is_rectangular(
        seed in 0u64..1000,
        model in any_vision_model(),
    ) {
        let config = quick_config(seed);
        let trace = quick_trace(model, 500.0, 0.5);
        let result = run_simulation(&config, &ProteanBuilder::paper(), &trace);
        let hours = (trace.duration + DRAIN_GRACE).as_secs_f64() / 3600.0;
        let expected = config.workers as f64
            * hours
            * protean_spot::PricingTable::paper_table3()
                .worker_price(protean_spot::Provider::Aws, protean_spot::VmTier::OnDemand);
        prop_assert!((result.cost.total_usd - expected).abs() < 1e-6,
            "cost {} expected {}", result.cost.total_usd, expected);
    }

    /// Strict-only traces never record best-effort requests, and
    /// vice versa.
    #[test]
    fn prop_class_purity(seed in 0u64..500, model in any_vision_model()) {
        let config = quick_config(seed);
        let mut all_strict = quick_trace(model, 500.0, 1.0);
        all_strict.be_pool.clear();
        let result = run_simulation(&config, &ProteanBuilder::paper(), &all_strict);
        prop_assert_eq!(result.metrics.count(Class::BestEffort), 0);
        let all_be = quick_trace(model, 500.0, 0.0);
        let result = run_simulation(&config, &ProteanBuilder::paper(), &all_be);
        prop_assert_eq!(result.metrics.count(Class::Strict), 0);
    }
}
