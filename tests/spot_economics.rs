//! Integration tests of the Fig. 9 cost/availability trade-off across
//! the spot market, procurement and cluster crates.

use protean::ProteanBuilder;
use protean_cluster::{
    simulate, Arrivals, ClusterConfig, Observe, SchemeBuilder, SimulationResult,
};
use protean_experiments::golden::{fingerprint_fields, golden_specs};
use protean_experiments::{run_scheme, schemes, PaperSetup, SchemeRow};
use protean_models::{ModelId, DEFAULT_SLO_MULTIPLIER};
use protean_sim::SimDuration;
use protean_spot::{ProcurementPolicy, Provider, SpotAvailability, VmTier};
use protean_trace::TraceConfig;

/// `scheme` over `trace` under `config`, scored at the paper's 3x SLO.
fn scored(config: &ClusterConfig, scheme: &dyn SchemeBuilder, trace: &TraceConfig) -> SchemeRow {
    run_scheme(config, scheme, trace, DEFAULT_SLO_MULTIPLIER)
}

fn setup() -> PaperSetup {
    PaperSetup {
        duration_secs: 90.0,
        seed: 42,
    }
}

fn config_with(
    setup: &PaperSetup,
    availability: SpotAvailability,
    policy: ProcurementPolicy,
) -> ClusterConfig {
    let mut config = setup.cluster();
    config.availability = availability;
    config.procurement = policy;
    config.revocation_check = SimDuration::from_secs(20.0);
    config.vm_startup = SimDuration::from_secs(20.0);
    config.procurement_retry = SimDuration::from_secs(20.0);
    config
}

/// Under high availability, the hybrid runs entirely on spot: ~70%
/// cheaper than on-demand (the Table 3 AWS discount) at equal SLO.
#[test]
fn hybrid_saves_seventy_percent_at_high_availability() {
    let setup = setup();
    let trace = setup.wiki_trace(ModelId::ResNet50);
    let od = scored(
        &config_with(
            &setup,
            SpotAvailability::High,
            ProcurementPolicy::OnDemandOnly,
        ),
        &ProteanBuilder::paper(),
        &trace,
    );
    let hybrid = scored(
        &config_with(&setup, SpotAvailability::High, ProcurementPolicy::Hybrid),
        &ProteanBuilder::paper(),
        &trace,
    );
    let ratio = hybrid.cost_usd / od.cost_usd;
    assert!((ratio - 0.30).abs() < 0.02, "cost ratio {ratio}");
    assert!(hybrid.slo_compliance_pct > 99.0);
    assert_eq!(hybrid.evictions, 0);
}

/// Under low availability, Spot Only loses workers it cannot replace
/// and its SLO compliance collapses, while the hybrid falls back to
/// on-demand and keeps serving.
#[test]
fn spot_only_collapses_hybrid_survives_at_low_availability() {
    let setup = setup();
    let trace = setup.wiki_trace(ModelId::ResNet50);
    let spot_only = scored(
        &config_with(&setup, SpotAvailability::Low, ProcurementPolicy::SpotOnly),
        &ProteanBuilder::paper(),
        &trace,
    );
    let hybrid = scored(
        &config_with(&setup, SpotAvailability::Low, ProcurementPolicy::Hybrid),
        &ProteanBuilder::paper(),
        &trace,
    );
    assert!(
        spot_only.slo_compliance_pct < 60.0,
        "spot-only {}",
        spot_only.slo_compliance_pct
    );
    assert!(
        hybrid.slo_compliance_pct > 90.0,
        "hybrid {}",
        hybrid.slo_compliance_pct
    );
    assert!(spot_only.evictions > 0);
    // Spot Only is still the cheapest — its problem is availability.
    assert!(spot_only.cost_usd < hybrid.cost_usd);
}

/// The hybrid's cost sits between pure spot and pure on-demand under
/// moderate availability (it pays for some on-demand fallback).
#[test]
fn hybrid_cost_is_between_extremes_at_moderate_availability() {
    let setup = setup();
    let trace = setup.wiki_trace(ModelId::ResNet50);
    let od = scored(
        &config_with(
            &setup,
            SpotAvailability::Moderate,
            ProcurementPolicy::OnDemandOnly,
        ),
        &ProteanBuilder::paper(),
        &trace,
    );
    let hybrid = scored(
        &config_with(
            &setup,
            SpotAvailability::Moderate,
            ProcurementPolicy::Hybrid,
        ),
        &ProteanBuilder::paper(),
        &trace,
    );
    let spot_only = scored(
        &config_with(
            &setup,
            SpotAvailability::Moderate,
            ProcurementPolicy::SpotOnly,
        ),
        &ProteanBuilder::paper(),
        &trace,
    );
    assert!(
        spot_only.cost_usd < hybrid.cost_usd,
        "spot {} hybrid {}",
        spot_only.cost_usd,
        hybrid.cost_usd
    );
    assert!(
        hybrid.cost_usd < od.cost_usd,
        "hybrid {} od {}",
        hybrid.cost_usd,
        od.cost_usd
    );
    assert!(hybrid.slo_compliance_pct > 95.0);
}

/// On-demand VMs are never revoked regardless of the regime.
#[test]
fn on_demand_never_evicted() {
    let setup = setup();
    let trace = setup.wiki_trace(ModelId::MobileNet);
    let od = scored(
        &config_with(
            &setup,
            SpotAvailability::Low,
            ProcurementPolicy::OnDemandOnly,
        ),
        &ProteanBuilder::paper(),
        &trace,
    );
    assert_eq!(od.evictions, 0);
    assert_eq!(od.censored, 0);
}

/// Only the VM ledger reads the provider. On the golden spot specs, under
/// on-demand, spot-only and hybrid procurement, a run on Azure or GCP
/// matches the AWS run in every fingerprint field but the three costs,
/// and each tier's cost scales by the ratio of the providers' worker
/// prices.
#[test]
fn a_provider_moves_only_the_price_of_each_tier() {
    let costs = ["total_usd", "spot_usd", "on_demand_usd"];
    let masked = |r: &SimulationResult| {
        let fields = fingerprint_fields(r).into_iter();
        fields
            .filter(|(name, ..)| !costs.contains(name))
            .collect::<Vec<_>>()
    };
    let cost = |r: &SimulationResult, tier| match tier {
        VmTier::OnDemand => r.cost.on_demand_usd,
        VmTier::Spot => r.cost.spot_usd,
    };
    // Whether some run billed each tier, so the relation is not vacuous.
    let mut billed = [false; 2];
    let spot_specs = golden_specs()
        .into_iter()
        .filter(|(label, _)| label.starts_with("spot"));
    for (label, spec) in spot_specs {
        let scheme = schemes::by_name(&spec.fleet.scheme).expect("a known scheme");
        let (base, trace) = spec.generated();
        for policy in ProcurementPolicy::ALL {
            let run = |provider| {
                let mut config = base.clone();
                (config.procurement, config.provider) = (policy, provider);
                simulate(
                    &config,
                    scheme.as_ref(),
                    Arrivals::Generate(&trace),
                    None,
                    Observe::default(),
                )
            };
            let aws = run(Provider::Aws);
            for provider in [Provider::Azure, Provider::Gcp] {
                let other = run(provider);
                let case = format!("{label} {policy:?} on {provider:?}");
                assert!(
                    masked(&other) == masked(&aws),
                    "{case}: a field besides cost moved"
                );
                for (i, tier) in [VmTier::OnDemand, VmTier::Spot].into_iter().enumerate() {
                    let ratio = provider.worker_price(tier) / Provider::Aws.worker_price(tier);
                    let (want, got) = (cost(&aws, tier) * ratio, cost(&other, tier));
                    assert!(
                        (got - want).abs() <= 1e-12 * want.abs(),
                        "{case}: {tier:?} cost {got}, expected {want}"
                    );
                    billed[i] |= got > 0.0;
                }
            }
        }
    }
    assert_eq!(billed, [true; 2]);
}
