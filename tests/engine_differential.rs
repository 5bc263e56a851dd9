//! Engine differentials: for ANY workload, seed, dispatch policy and
//! fault script, the golden digest (counts, sorted-latency percentiles,
//! cost, utilization, lifecycle counters — floats compared as exact bit
//! patterns) must not depend on how a run is driven. An audited run
//! (which checks every dispatch against the linear scans and sweeps the
//! fleet's conservation laws) must stay clean and digest like the
//! unaudited one, a streamed run like a materialised one, and a second
//! run in the same process like the first.

use std::num::NonZeroU64;
use std::path::Path;

use proptest::prelude::*;
use protean::ProteanBuilder;
use protean_baselines::Baseline;
use protean_cluster::fault::ScriptedMarket;
use protean_cluster::{simulate, Arrivals, ClusterConfig, Observe, SchemeBuilder};
use protean_experiments::golden::digest;
use protean_experiments::scenario::{self, TraceSource};
use protean_experiments::setup::LANGUAGE_RPS;
use protean_models::ModelId;
use protean_sim::{SimDuration, SimTime};
use protean_spot::{ProcurementPolicy, SpotAvailability};
use protean_trace::{TraceConfig, TraceShape};

fn any_vision_model() -> impl Strategy<Value = ModelId> {
    prop::sample::select(protean_models::vision().map(|p| p.id).collect::<Vec<_>>())
}

/// Covers both dispatch policies: Molecule/PROTEAN are load-balancing,
/// INFless/Llama and GPUlet consolidate (first-fit with a batch cap).
fn scheme_for(idx: usize) -> Box<dyn SchemeBuilder> {
    match idx % 4 {
        0 => Box::new(Baseline::MoleculeBeta),
        1 => Box::new(Baseline::InflessLlama),
        2 => Box::new(Baseline::Gpulet),
        _ => Box::new(ProteanBuilder::paper()),
    }
}

fn quick_config(seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::paper_default();
    c.workers = 8;
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
        be_pool: model.opposite_pool(),
        be_rotation_period: SimDuration::from_secs(10.0),
        batch_arrivals: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Unaudited, audited (clean) and repeated runs digest alike, across
    /// schemes of both dispatch policies, arbitrary seeds, rates and
    /// mixes. The repeat runs in the same process, so no hash-seeded
    /// iteration order reaches the digest.
    #[test]
    fn prop_digest_invariant_under_audit_and_repeat(
        seed in 0u64..1000,
        model in any_vision_model(),
        rps in 200.0f64..2000.0,
        strict_fraction in 0.1f64..0.9,
        scheme_idx in 0usize..4,
    ) {
        let config = quick_config(seed);
        let trace = quick_trace(model, rps, strict_fraction);
        let scheme = scheme_for(scheme_idx);
        let run = |observe| {
            simulate(&config, scheme.as_ref(), Arrivals::Generate(&trace), None, observe)
        };
        let first = digest(&run(Observe::default()));
        let audited = run(Observe::audited());
        prop_assert!(audited.audit.is_clean(), "{:?}", audited.audit.violations);
        prop_assert!(audited.audit.checks > 0);
        prop_assert_eq!(&digest(&audited), &first);
        prop_assert_eq!(digest(&run(Observe::default())), first);
    }

    /// The same differential through the scripted spot market:
    /// adversarial evictions, VM replacement, orphan re-dispatch and
    /// censoring. The audited run must stay clean and both it and a
    /// repeat must reproduce the unaudited digest.
    #[test]
    fn prop_digest_invariant_under_audited_faults(
        seed in 0u64..1000,
        evict_worker in 0usize..3,
        evict_at_secs in 6.0f64..20.0,
        lead_secs in 1.0f64..30.0,
    ) {
        let mut config = quick_config(seed);
        config.workers = 3;
        config.procurement = ProcurementPolicy::Hybrid;
        config.availability = SpotAvailability::Low;
        config.revocation_check = SimDuration::from_secs(5.0);
        config.vm_startup = SimDuration::from_secs(5.0);
        config.procurement_retry = SimDuration::from_secs(5.0);
        let trace = quick_trace(ModelId::ResNet50, 300.0, 0.5);
        let run = |observe| {
            let mut market = ScriptedMarket::new().evict(
                evict_worker,
                SimTime::from_secs(evict_at_secs),
                SimDuration::from_secs(lead_secs),
            );
            let arrivals = Arrivals::Generate(&trace);
            simulate(&config, &ProteanBuilder::paper(), arrivals, Some(&mut market), observe)
        };
        let first = digest(&run(Observe::default()));
        let audited = run(Observe::audited());
        prop_assert!(audited.audit.is_clean(), "{:?}", audited.audit.violations);
        prop_assert!(audited.audit.checks > 0);
        prop_assert_eq!(&digest(&audited), &first);
        prop_assert_eq!(digest(&run(Observe::default())), first);
    }
}

/// Fleet-scale differential on the paper's diurnal language trace with
/// per-worker load at the paper's operating point: the streamed run and
/// an audited run (sweeps sampled 1 in 64; every dispatch still checked
/// against the linear scans) must reproduce the materialised digest,
/// and the audit must stay clean.
#[test]
fn fleet_scale_streamed_and_audited_runs_match() {
    const WORKERS: usize = 512;
    let rps = (LANGUAGE_RPS * WORKERS as f64 / 8.0).to_string();
    let keys = [
        ("trace.duration_secs", "10"),
        ("fleet.workers", &WORKERS.to_string()),
        ("trace.model", "albert"),
        ("trace.rps", &rps),
    ];
    let mut compiled = scenario::paper().with(&keys).compile(Path::new(""), false);
    // Record latencies from the first second so the digest pins them.
    compiled.config.warmup = SimDuration::from_secs(1.0);
    let scheme = ProteanBuilder::paper();

    let run = |observe| compiled.simulate(&scheme, observe).unwrap();
    let materialised = digest(&run(Observe::default()));
    // The streamed arm is the one run that picks its own arrival path.
    let TraceSource::Config(trace) = &compiled.trace else {
        unreachable!("the paper's trace is generated")
    };
    let arrivals = Arrivals::Stream(trace);
    let streamed = simulate(
        &compiled.config,
        &scheme,
        arrivals,
        None,
        Observe::default(),
    );
    assert_eq!(digest(&streamed), materialised, "streamed run diverged");
    let sampled = Observe {
        audit: NonZeroU64::new(64),
        journal_capacity: 0,
    };
    let audited = run(sampled);
    assert!(audited.audit.is_clean(), "{:?}", audited.audit.violations);
    assert!(audited.audit.checks > 0);
    assert_eq!(digest(&audited), materialised, "audited run diverged");
}
