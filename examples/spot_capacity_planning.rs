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
use protean_experiments::{run_cell, scenario};
use protean_models::ModelId;
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

    let keys = [
        ("trace.duration_secs", "120"),
        ("fleet.seed", "11"),
        ("fleet.revocation_check_secs", "20"),
        ("fleet.vm_startup_secs", "20"),
        ("fleet.procurement_retry_secs", "20"),
    ];
    let spec = scenario::paper()
        .at_paper_rate(ModelId::DenseNet121)
        .with(&keys);
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
            let market = [
                ("fleet.availability", availability.slug()),
                ("fleet.procurement", policy.slug()),
            ];
            let row = run_cell(&spec.clone().with(&market), &ProteanBuilder::paper())
                .map_err(std::io::Error::other)?;
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
