//! Integration tests of the §4.4 reconfiguration machinery across the
//! core scheduler and cluster engine.

use std::path::Path;

use protean::ProteanBuilder;
use protean_cluster::engine::MAX_RECONFIG_FRACTION;
use protean_cluster::Observe;
use protean_experiments::scenario::{self, CompiledScenario, TraceSource};
use protean_models::ModelId;

/// The Fig. 7 scenario over `secs` seconds at `seed`: ShuffleNet V2 at
/// its domain's rate, the BE rotation through the oversized DPN 92.
fn rotation(secs: &str, seed: &str) -> CompiledScenario {
    let keys = [
        ("trace.duration_secs", secs),
        ("fleet.seed", seed),
        (
            "trace.be_pool",
            "[\"mobilenet\", \"dpn92\", \"resnet50\", \"dpn92\"]",
        ),
        ("trace.be_rotation_secs", "20"),
    ];
    let spec = scenario::paper().at_paper_rate(ModelId::ShuffleNetV2);
    spec.with(&keys).compile(Path::new(""), false)
}

#[test]
fn rotation_to_dpn92_triggers_geometry_change_to_4g_3g() {
    let result = rotation("80", "42")
        .simulate(&ProteanBuilder::paper(), Observe::default())
        .unwrap();
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
    let compiled = rotation("80", "42");
    let result = compiled.simulate(&ProteanBuilder::paper(), Observe::default());
    let (result, config) = (result.unwrap(), &compiled.config);
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
    let mut config = ProteanConfig::paper();
    config.name = "static";
    config.dynamic_reconfig = false;
    let builder = PB::with_config(config);
    let result = rotation("60", "42")
        .simulate(&builder, Observe::default())
        .unwrap();
    assert_eq!(result.reconfigs, 0);
    assert!(result.geometry_timeline.is_empty());
}

#[test]
fn reconfiguration_downtime_does_not_lose_requests() {
    use protean_metrics::record::Class;
    use protean_sim::{RngFactory, SimTime};
    let compiled = rotation("60", "7");
    let result = compiled.simulate(&ProteanBuilder::paper(), Observe::default());
    let (result, config) = (result.unwrap(), &compiled.config);
    let TraceSource::Config(trace) = &compiled.trace else {
        unreachable!("the paper's trace is generated")
    };
    let factory = RngFactory::new(config.seed);
    let expected = trace
        .generate(&factory)
        .iter()
        .filter(|r| r.arrival >= SimTime::ZERO + config.warmup)
        .count();
    assert_eq!(result.metrics.count(Class::All), expected);
    assert!(result.reconfigs > 0);
}
