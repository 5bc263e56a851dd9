//! Capacity planning with spot VMs: how much does the hybrid
//! spot/on-demand procurement save at each spot-availability regime,
//! and what does the aggressive spot-only strategy cost in SLO terms?
//!
//! ```text
//! cargo run --release -p protean-experiments --example spot_capacity_planning
//! ```

use std::io::Write;

use protean::ProteanBuilder;
use protean_experiments::report::{banner, table};
use protean_experiments::{run_scheme, PaperSetup};
use protean_models::{ModelId, DEFAULT_SLO_MULTIPLIER};
use protean_sim::SimDuration;
use protean_spot::{ProcurementPolicy, Provider, SpotAvailability, VmTier};

fn main() -> std::io::Result<()> {
    let out = &mut std::io::stdout();
    writeln!(
        out,
        "worker VM (1/8 of an 8xA100 {} instance): on-demand ${:.2}/h, spot ${:.2}/h",
        Provider::Aws,
        Provider::Aws.worker_price(VmTier::OnDemand),
        Provider::Aws.worker_price(VmTier::Spot),
    )?;

    let setup = PaperSetup {
        duration_secs: 120.0,
        seed: 11,
    };
    let trace = setup.wiki_trace(ModelId::DenseNet121);
    banner(out, "capacity plan", "DenseNet 121, Wiki trace, 8 workers")?;
    let mut rows = Vec::new();
    for availability in [
        SpotAvailability::High,
        SpotAvailability::Moderate,
        SpotAvailability::Low,
    ] {
        for policy in [
            ProcurementPolicy::OnDemandOnly,
            ProcurementPolicy::Hybrid,
            ProcurementPolicy::SpotOnly,
        ] {
            let mut config = setup.cluster();
            config.availability = availability;
            config.procurement = policy;
            config.revocation_check = SimDuration::from_secs(20.0);
            config.vm_startup = SimDuration::from_secs(20.0);
            config.procurement_retry = SimDuration::from_secs(20.0);
            let row = run_scheme(
                &config,
                &ProteanBuilder::paper(),
                &trace,
                DEFAULT_SLO_MULTIPLIER,
            );
            rows.push(vec![
                availability.to_string(),
                format!("{policy:?}"),
                format!("${:.2}", row.cost_usd),
                format!("{:.2}", row.slo_compliance_pct),
                row.evictions.to_string(),
            ]);
        }
    }
    table(
        out,
        &["spot availability", "policy", "cost", "SLO%", "evictions"],
        &rows,
    )?;
    writeln!(
        out,
        "\n  -> Hybrid keeps SLO compliance while cutting cost whenever spot is available."
    )
}
