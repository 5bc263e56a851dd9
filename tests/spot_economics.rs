//! Integration tests of the Fig. 9 cost/availability trade-off across
//! the spot market, procurement and cluster crates.

use protean::ProteanBuilder;
use protean_cluster::SimulationResult;
use protean_experiments::golden::{fingerprint_fields, golden_specs};
use protean_experiments::{run_cell, scenario, schemes, SchemeRow};
use protean_models::ModelId;
use protean_spot::{ProcurementPolicy, Provider, VmTier};

/// PROTEAN on the paper's set-up at a 90 s trace and seed 42, with
/// `model` strict at its domain's rate, under spot `availability` and
/// `procurement` at a 20 s spot cadence, scored at the paper's 3x SLO.
fn scored(model: ModelId, availability: &str, procurement: &str) -> SchemeRow {
    let keys = [
        ("trace.duration_secs", "90"),
        ("fleet.availability", availability),
        ("fleet.procurement", procurement),
        ("fleet.revocation_check_secs", "20"),
        ("fleet.vm_startup_secs", "20"),
        ("fleet.procurement_retry_secs", "20"),
    ];
    let spec = scenario::paper().at_paper_rate(model).with(&keys);
    run_cell(&spec, &ProteanBuilder::paper()).unwrap()
}

/// Under high availability, the hybrid runs entirely on spot: ~70%
/// cheaper than on-demand (the Table 3 AWS discount) at equal SLO.
#[test]
fn hybrid_saves_seventy_percent_at_high_availability() {
    let od = scored(ModelId::ResNet50, "high", "ondemand");
    let hybrid = scored(ModelId::ResNet50, "high", "hybrid");
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
    let spot_only = scored(ModelId::ResNet50, "low", "spot");
    let hybrid = scored(ModelId::ResNet50, "low", "hybrid");
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
    let od = scored(ModelId::ResNet50, "moderate", "ondemand");
    let hybrid = scored(ModelId::ResNet50, "moderate", "hybrid");
    let spot_only = scored(ModelId::ResNet50, "moderate", "spot");
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
    let od = scored(ModelId::MobileNet, "low", "ondemand");
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
        for policy in ProcurementPolicy::ALL {
            let run = |provider: Provider| {
                let keys = [
                    ("fleet.procurement", policy.slug()),
                    ("fleet.provider", provider.slug()),
                ];
                run_cell(&spec.clone().with(&keys), scheme.as_ref())
                    .unwrap()
                    .result
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
