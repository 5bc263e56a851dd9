//! Integration tests of the §4.4 reconfiguration machinery across the
//! core scheduler and cluster engine.

use protean::ProteanBuilder;
use protean_cluster::engine::MAX_RECONFIG_FRACTION;
use protean_cluster::run_simulation;
use protean_experiments::PaperSetup;
use protean_models::ModelId;
use protean_sim::SimDuration;
use protean_trace::TraceConfig;

/// The Fig. 7 scenario: BE rotation through the oversized DPN 92.
fn rotation_trace(setup: &PaperSetup) -> TraceConfig {
    TraceConfig {
        be_pool: vec![
            ModelId::MobileNet,
            ModelId::Dpn92,
            ModelId::ResNet50,
            ModelId::Dpn92,
        ],
        be_rotation_period: SimDuration::from_secs(20.0),
        ..setup.wiki_trace(ModelId::ShuffleNetV2)
    }
}

#[test]
fn rotation_to_dpn92_triggers_geometry_change_to_4g_3g() {
    let setup = PaperSetup {
        duration_secs: 80.0,
        seed: 42,
    };
    let result = run_simulation(
        &setup.cluster(),
        &ProteanBuilder::paper(),
        &rotation_trace(&setup),
    );
    assert!(result.reconfigs > 0, "no reconfigurations happened");
    assert!(
        result
            .geometry_timeline
            .iter()
            .any(|gc| gc.geometry == "(4g, 3g)"),
        "expected a change to (4g, 3g): {:?}",
        result.geometry_timeline
    );
    // Wait counter: the first change comes at least
    // wait_limit x MONITOR_INTERVAL after t=0.
    let first = result.geometry_timeline.first().unwrap();
    assert!(
        first.at.as_secs_f64() >= 3.0 * 2.0,
        "change at {:?} ignored the wait counter",
        first.at
    );
}

#[test]
fn at_most_thirty_percent_of_gpus_reconfigure_simultaneously() {
    let setup = PaperSetup {
        duration_secs: 80.0,
        seed: 42,
    };
    let config = setup.cluster();
    let result = run_simulation(&config, &ProteanBuilder::paper(), &rotation_trace(&setup));
    let cap = ((MAX_RECONFIG_FRACTION * config.workers as f64).ceil() as usize).max(1);
    // Each completed change occupied its GPU for at least the 2 s
    // reconfiguration delay ending at `at`. Count the maximum overlap
    // of those (half-open) windows.
    let windows: Vec<(f64, f64)> = result
        .geometry_timeline
        .iter()
        .map(|gc| {
            let end = gc.at.as_secs_f64();
            (end - config.reconfig_delay.as_secs_f64(), end)
        })
        .collect();
    for &(start, _) in &windows {
        let overlap = windows
            .iter()
            .filter(|&&(s, e)| s <= start && start < e)
            .count();
        assert!(
            overlap <= cap,
            "{overlap} concurrent reconfigurations exceed the cap of {cap}"
        );
    }
}

#[test]
fn static_variant_never_reconfigures() {
    use protean::{ProteanBuilder as PB, ProteanConfig};
    let setup = PaperSetup {
        duration_secs: 60.0,
        seed: 42,
    };
    let mut config = ProteanConfig::paper();
    config.name = "static";
    config.dynamic_reconfig = false;
    let builder = PB::with_config(config, 2.0);
    let result = run_simulation(&setup.cluster(), &builder, &rotation_trace(&setup));
    assert_eq!(result.reconfigs, 0);
    assert!(result.geometry_timeline.is_empty());
}

#[test]
fn reconfiguration_downtime_does_not_lose_requests() {
    use protean_metrics::record::Class;
    use protean_sim::{RngFactory, SimTime};
    let setup = PaperSetup {
        duration_secs: 60.0,
        seed: 7,
    };
    let config = setup.cluster();
    let trace = rotation_trace(&setup);
    let result = run_simulation(&config, &ProteanBuilder::paper(), &trace);
    let factory = RngFactory::new(config.seed);
    let expected = trace
        .generate(&factory)
        .iter()
        .filter(|r| r.arrival >= SimTime::ZERO + config.warmup)
        .count();
    assert_eq!(result.metrics.count(Class::All), expected);
    assert!(result.reconfigs > 0);
}
