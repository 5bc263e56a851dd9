//! Scheduler bake-off: an inference-serving operator evaluating which
//! request-serving policy to deploy for a latency-critical vision
//! model. Compares PROTEAN against the three published baselines on
//! the same trace and prints a decision table.
//!
//! ```text
//! cargo run --release -p protean-experiments --example compare_schedulers [model]
//! ```
//!
//! `model` is an optional catalog index (0–21); default is VGG 19.

use std::io::Write;

use protean_experiments::report::{banner, scheme_table};
use protean_experiments::{run_cell, scenario, schemes};
use protean_models::ModelId;

fn main() -> std::io::Result<()> {
    let out = &mut std::io::stdout();
    let model = std::env::args()
        .nth(1)
        .and_then(|a| a.parse::<usize>().ok())
        .and_then(|i| ModelId::ALL.get(i).copied())
        .unwrap_or(ModelId::Vgg19);
    let keys = [("trace.duration_secs", "60"), ("fleet.seed", "7")];
    let spec = scenario::paper().at_paper_rate(model).with(&keys);
    let profile = model.profile();
    banner(
        out,
        "bake-off",
        &format!(
            "{model} (batch {}, SLO {:.0} ms), Wiki trace, 8 GPUs",
            profile.batch_size,
            profile.slo().as_millis_f64()
        ),
    )?;
    let rows = schemes::primary()
        .iter()
        .map(|s| run_cell(&spec, s.as_ref()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(std::io::Error::other)?;
    scheme_table(out, &rows)?;
    let best = rows
        .iter()
        .max_by(|a, b| {
            a.slo_compliance_pct
                .partial_cmp(&b.slo_compliance_pct)
                .expect("compliance is finite")
        })
        .expect("at least one scheme ran");
    writeln!(
        out,
        "\n  -> deploy {}: {:.2}% SLO compliance, {:.0} ms strict P99",
        best.scheme, best.slo_compliance_pct, best.strict_p99_ms
    )
}
