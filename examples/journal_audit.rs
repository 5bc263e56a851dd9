//! Observability: record a run's event journal and audit it — when did
//! GPUs reconfigure, which workers were evicted, how long did batches
//! spend between sealing and placement?
//!
//! ```text
//! cargo run --release -p protean-experiments --example journal_audit
//! ```

use std::collections::HashMap;

use std::path::Path;

use protean::ProteanBuilder;
use protean_cluster::{BatchId, JournalEvent, Observe};
use protean_experiments::scenario;
use protean_models::ModelId;
use protean_sim::SimTime;

fn main() {
    let keys = [
        ("trace.duration_secs", "60"),
        ("trace.be_pool", "[\"mobilenet\", \"dpn92\"]"),
        ("fleet.seed", "9"),
        ("fleet.procurement", "hybrid"),
        ("fleet.availability", "moderate"),
        ("fleet.revocation_check_secs", "20"),
    ];
    let spec = scenario::paper()
        .at_paper_rate(ModelId::ShuffleNetV2)
        .with(&keys);
    // The journal is an observer of the run, not part of the cluster.
    let observe = Observe {
        journal_capacity: 2_000_000,
        ..Observe::default()
    };
    let compiled = spec.compile(Path::new(""), false);
    let result = compiled
        .simulate(&ProteanBuilder::paper(), observe)
        .expect("the paper's trace is generated");

    println!(
        "journal: {} events ({} dropped)",
        result.journal.entries().len(),
        result.journal.dropped()
    );

    // 1. Reconfiguration audit.
    println!("\nreconfigurations:");
    for (t, e) in result
        .journal
        .filter(|e| matches!(e, JournalEvent::Reconfigured { .. }))
    {
        if let JournalEvent::Reconfigured { worker, geometry } = e {
            println!(
                "  t={:>7.2}s worker {worker} -> {geometry}",
                t.as_secs_f64()
            );
        }
    }

    // 2. Spot-market audit.
    let notices = result
        .journal
        .filter(|e| matches!(e, JournalEvent::EvictionNotice { .. }))
        .count();
    let evicted = result
        .journal
        .filter(|e| matches!(e, JournalEvent::Evicted { .. }))
        .count();
    let installed = result
        .journal
        .filter(|e| matches!(e, JournalEvent::VmInstalled { .. }))
        .count();
    println!("\nspot market: {notices} notices, {evicted} evictions, {installed} replacements");

    // 3. Seal-to-placement latency distribution from the journal alone.
    let mut sealed_at: HashMap<BatchId, SimTime> = HashMap::new();
    let mut gaps_ms: Vec<f64> = Vec::new();
    for (t, e) in result.journal.entries() {
        match e {
            JournalEvent::BatchSealed { batch, .. } => {
                sealed_at.insert(*batch, *t);
            }
            JournalEvent::BatchPlaced { batch, .. } => {
                if let Some(s) = sealed_at.remove(batch) {
                    gaps_ms.push(t.saturating_since(s).as_millis_f64());
                }
            }
            _ => {}
        }
    }
    gaps_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    if !gaps_ms.is_empty() {
        let p = |q: f64| gaps_ms[((gaps_ms.len() as f64 * q) as usize).min(gaps_ms.len() - 1)];
        println!(
            "\nseal->placement gap over {} batches: P50 {:.2} ms, P99 {:.2} ms, max {:.2} ms",
            gaps_ms.len(),
            p(0.50),
            p(0.99),
            gaps_ms.last().expect("non-empty")
        );
    }
}
