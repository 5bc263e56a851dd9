//! Engine differentials: for ANY workload, seed, dispatch policy and
//! fault script, the golden digest (counts, sorted-latency percentiles,
//! cost, utilization, lifecycle counters — floats compared as exact bit
//! patterns) must not depend on how a run is driven. An audited run
//! (which checks every dispatch against the linear scans and sweeps the
//! fleet's conservation laws) must stay clean and digest like the
//! unaudited one, a streamed run like a materialised one, and a second
//! run in the same process like the first.

use proptest::prelude::*;
use protean::ProteanBuilder;
use protean_baselines::Baseline;
use protean_cluster::fault::ScriptedMarket;
use protean_cluster::{
    run_simulation, run_simulation_streaming, run_simulation_with_oracle, ClusterConfig,
    SchemeBuilder,
};
use protean_experiments::golden::digest;
use protean_experiments::setup::LANGUAGE_RPS;
use protean_experiments::PaperSetup;
use protean_models::{catalog, ModelId};
use protean_sim::{SimDuration, SimTime};
use protean_spot::{ProcurementPolicy, SpotAvailability};
use protean_trace::{TraceConfig, TraceShape};

fn any_vision_model() -> impl Strategy<Value = ModelId> {
    prop::sample::select(catalog().vision().map(|p| p.id).collect::<Vec<_>>())
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
        be_pool: catalog().opposite_pool(model),
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
        let first = digest(&run_simulation(&config, scheme.as_ref(), &trace));
        let mut audited_config = config.clone();
        audited_config.audit = true;
        let audited = run_simulation(&audited_config, scheme.as_ref(), &trace);
        prop_assert!(audited.audit.is_clean(), "{:?}", audited.audit.violations);
        prop_assert!(audited.audit.checks > 0);
        prop_assert_eq!(&digest(&audited), &first);
        prop_assert_eq!(digest(&run_simulation(&config, scheme.as_ref(), &trace)), first);
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
        let run = |audit: bool| {
            let mut c = config.clone();
            c.audit = audit;
            let mut market = ScriptedMarket::new().evict(
                evict_worker,
                SimTime::from_secs(evict_at_secs),
                SimDuration::from_secs(lead_secs),
            );
            run_simulation_with_oracle(&c, &ProteanBuilder::paper(), &trace, &mut market)
        };
        let first = digest(&run(false));
        let audited = run(true);
        prop_assert!(audited.audit.is_clean(), "{:?}", audited.audit.violations);
        prop_assert!(audited.audit.checks > 0);
        prop_assert_eq!(&digest(&audited), &first);
        prop_assert_eq!(digest(&run(false)), first);
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
    let setup = PaperSetup {
        duration_secs: 10.0,
        seed: 42,
    };
    let mut config = setup.cluster();
    config.workers = WORKERS;
    // Record latencies from the first second so the digest pins them.
    config.warmup = SimDuration::from_secs(1.0);
    let mut trace = setup.wiki_trace(ModelId::Albert);
    trace.shape = TraceShape::wiki(LANGUAGE_RPS * WORKERS as f64 / 8.0);
    let scheme = ProteanBuilder::paper();

    let materialised = digest(&run_simulation(&config, &scheme, &trace));
    let streamed = run_simulation_streaming(&config, &scheme, &trace);
    assert_eq!(digest(&streamed), materialised, "streamed run diverged");
    let mut audited_config = config.clone();
    audited_config.audit = true;
    audited_config.audit_every_n = 64;
    let audited = run_simulation(&audited_config, &scheme, &trace);
    assert!(audited.audit.is_clean(), "{:?}", audited.audit.violations);
    assert!(audited.audit.checks > 0);
    assert_eq!(digest(&audited), materialised, "audited run diverged");
}
