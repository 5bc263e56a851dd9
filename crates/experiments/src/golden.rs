//! Bitwise digests of simulation results, pinning engine behaviour.
//!
//! A digest folds every numeric field the figures consume — request
//! counts, latency percentiles, cost, utilization, lifecycle counters —
//! into one printable string with the floats rendered as exact bit
//! patterns. Any change to event ordering, arithmetic association or
//! RNG consumption shows up as a string mismatch, so the digests pin
//! the engine's observable behaviour across refactors (the
//! next-completion-only event scheduler must reproduce the all-jobs
//! re-projection engine's results bit for bit).
//!
//! `tests/golden_seed.rs` compares [`golden_digests`] against recorded
//! constants; the `golden_digest` binary reprints them whenever a PR
//! *intentionally* changes behaviour and the constants need
//! regenerating.

use protean::ProteanBuilder;
use protean_baselines::Baseline;
use protean_cluster::{
    run_simulation, run_simulation_streaming, ClusterConfig, SchemeBuilder, SimulationResult,
};
use protean_metrics::record::Class;
use protean_models::ModelId;
use protean_spot::{ProcurementPolicy, SpotAvailability};
use protean_trace::TraceConfig;

use crate::setup::PaperSetup;

/// One result folded into a reproducible line. Floats are printed as
/// `to_bits()` hex so equality is exact, not approximate.
pub fn digest(result: &SimulationResult) -> String {
    let m = &result.metrics;
    let strict = m.sorted_latencies(Class::Strict);
    let be = m.sorted_latencies(Class::BestEffort);
    format!(
        "{} n={} sp50={:016x} sp99={:016x} be99={:016x} cost={:016x} util={:016x} \
         cold={} rc={} cens={} ev={}",
        result.scheme,
        m.count(Class::All),
        strict.p50().unwrap_or(0.0).to_bits(),
        strict.p99().unwrap_or(0.0).to_bits(),
        be.p99().unwrap_or(0.0).to_bits(),
        result.cost.total_usd.to_bits(),
        result.compute_utilization.to_bits(),
        result.cold_starts,
        result.reconfigs,
        result.censored,
        result.cost.evictions,
    )
}

/// Every scheme the figures exercise, without the duplicates shared by
/// the primary and motivational line-ups.
fn all_schemes() -> Vec<Box<dyn SchemeBuilder>> {
    vec![
        Box::new(Baseline::MoleculeBeta),
        Box::new(Baseline::InflessLlama),
        Box::new(Baseline::NaiveSlicing),
        Box::new(Baseline::MigOnly),
        Box::new(Baseline::MpsMigEven),
        Box::new(Baseline::SmartMpsMig),
        Box::new(Baseline::Gpulet),
        Box::new(ProteanBuilder::paper()),
    ]
}

/// The fixed golden grid: every scheme × three seeds on the paper's
/// 8-worker Wiki/ResNet-50 workload at a reduced 20 s duration, plus a
/// spot-market variant (hybrid procurement under low availability) that
/// exercises the eviction/replacement and censoring paths.
pub fn golden_digests() -> Vec<String> {
    golden_digests_with(run_simulation)
}

/// [`golden_digests`] with every run driven through the streaming
/// arrival path ([`run_simulation_streaming`]). The streaming engine's
/// contract is digest equality with the materialised one, so this must
/// return exactly the same lines.
pub fn golden_digests_streaming() -> Vec<String> {
    golden_digests_with(run_simulation_streaming)
}

/// [`golden_digests`] with the invariant auditor on for every run. The
/// auditor only reads engine state, so this must return exactly the
/// same lines; it panics unless every run audits clean with at least
/// one sweep.
pub fn golden_digests_audited() -> Vec<String> {
    golden_digests_with(|config, scheme, trace| {
        let mut audited = config.clone();
        audited.audit = true;
        let result = run_simulation(&audited, scheme, trace);
        assert!(result.audit.is_clean(), "{:?}", result.audit.violations);
        assert!(result.audit.checks > 0, "no audit sweep ran");
        result
    })
}

fn golden_digests_with(
    run: fn(&ClusterConfig, &dyn SchemeBuilder, &TraceConfig) -> SimulationResult,
) -> Vec<String> {
    let mut out = Vec::new();
    for &seed in &[42u64, 7, 1234] {
        let setup = PaperSetup {
            duration_secs: 20.0,
            seed,
        };
        let config = setup.cluster();
        let trace = setup.wiki_trace(ModelId::ResNet50);
        for scheme in all_schemes() {
            let result = run(&config, scheme.as_ref(), &trace);
            out.push(format!("seed={seed} {}", digest(&result)));
        }
    }
    // Spot-market coverage: evictions, VM replacement, re-dispatch.
    for &seed in &[3u64, 11] {
        let setup = PaperSetup {
            duration_secs: 30.0,
            seed,
        };
        let mut config = setup.cluster();
        config.workers = 3;
        config.procurement = ProcurementPolicy::Hybrid;
        config.availability = SpotAvailability::Low;
        config.revocation_check = protean_sim::SimDuration::from_secs(5.0);
        config.vm_startup = protean_sim::SimDuration::from_secs(5.0);
        let trace = setup.wiki_trace(ModelId::ResNet50);
        let result = run(&config, &ProteanBuilder::paper(), &trace);
        out.push(format!("spot seed={seed} {}", digest(&result)));
    }
    out
}
