//! Shard-count invariance: sharding only partitions the engine's state,
//! so for ANY workload, seed, dispatch policy and shard count the
//! golden digest (counts, sorted-latency percentiles, cost,
//! utilization, lifecycle counters — floats compared as exact bit
//! patterns) must equal the one-shard run's, and the invariant auditor
//! must stay clean with the same sweep cadence.

use proptest::prelude::*;
use protean::ProteanBuilder;
use protean_baselines::Baseline;
use protean_cluster::fault::ScriptedMarket;
use protean_cluster::{
    run_simulation, run_simulation_streaming, run_simulation_with_oracle, ClusterConfig,
    EngineStats, SchemeBuilder,
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

    /// Digest equality for shards ∈ {2, 4, 8} against one shard, across
    /// schemes of both dispatch policies, arbitrary seeds, rates and
    /// mixes; and a second run of the same sharded config in the same
    /// process reproduces the first, so no hash-seeded iteration order
    /// reaches the digest.
    #[test]
    fn prop_digest_invariant_under_sharding(
        seed in 0u64..1000,
        model in any_vision_model(),
        rps in 200.0f64..2000.0,
        strict_fraction in 0.1f64..0.9,
        scheme_idx in 0usize..4,
        shards in prop::sample::select(vec![2usize, 4, 8]),
    ) {
        let config = quick_config(seed);
        let trace = quick_trace(model, rps, strict_fraction);
        let scheme = scheme_for(scheme_idx);
        let one_shard = run_simulation(&config, scheme.as_ref(), &trace);
        let mut sharded = config.clone();
        sharded.shards = shards;
        let first = digest(&run_simulation(&sharded, scheme.as_ref(), &trace));
        let again = digest(&run_simulation(&sharded, scheme.as_ref(), &trace));
        prop_assert_eq!(&digest(&one_shard), &first);
        prop_assert_eq!(first, again);
    }

    /// Same invariance through the scripted spot market: adversarial
    /// evictions, VM replacement, orphan re-dispatch and censoring all
    /// run on the coordinator, and the invariant auditor (which chains
    /// per-shard `DispatchIndex::verify_partition` views into its fleet
    /// sweep) must stay clean with the one-shard sweep count.
    #[test]
    fn prop_digest_invariant_under_sharded_faults(
        seed in 0u64..1000,
        evict_worker in 0usize..3,
        evict_at_secs in 6.0f64..20.0,
        lead_secs in 1.0f64..30.0,
        shards in prop::sample::select(vec![2usize, 3]),
    ) {
        let mut config = quick_config(seed);
        config.workers = 3;
        config.procurement = ProcurementPolicy::Hybrid;
        config.availability = SpotAvailability::Low;
        config.revocation_check = SimDuration::from_secs(5.0);
        config.vm_startup = SimDuration::from_secs(5.0);
        config.procurement_retry = SimDuration::from_secs(5.0);
        config.audit = true;
        let trace = quick_trace(ModelId::ResNet50, 300.0, 0.5);
        let script = || {
            ScriptedMarket::new().evict(
                evict_worker,
                SimTime::from_secs(evict_at_secs),
                SimDuration::from_secs(lead_secs),
            )
        };
        let mut market = script();
        let one_shard =
            run_simulation_with_oracle(&config, &ProteanBuilder::paper(), &trace, &mut market);
        let mut sharded = config.clone();
        sharded.shards = shards;
        let mut market = script();
        let parallel =
            run_simulation_with_oracle(&sharded, &ProteanBuilder::paper(), &trace, &mut market);
        prop_assert_eq!(digest(&one_shard), digest(&parallel));
        prop_assert!(parallel.audit.is_clean(), "{:?}", parallel.audit.violations);
        prop_assert!(parallel.audit.checks > 0);
        prop_assert_eq!(one_shard.audit.checks, parallel.audit.checks);
    }

    /// Epoch coarsening is a pure elision of provably-empty phases, so
    /// the digest must be invariant not only in the shard count but in
    /// the coarsening cap: per-arrival (`max_epoch_arrivals = 1`),
    /// lightly coarsened and fully coarsened runs of the same cell must
    /// all reproduce the one-shard digest, across schemes of both
    /// dispatch policies, seeds, rates and mixes — and the extended
    /// counter triad must reconcile on every arm.
    #[test]
    fn prop_digest_invariant_under_epoch_coarsening(
        seed in 0u64..1000,
        model in any_vision_model(),
        rps in 200.0f64..2000.0,
        strict_fraction in 0.1f64..0.9,
        scheme_idx in 0usize..4,
        shards in prop::sample::select(vec![2usize, 4, 8]),
        cap in prop::sample::select(vec![1u64, 4, 64]),
    ) {
        let config = quick_config(seed);
        let trace = quick_trace(model, rps, strict_fraction);
        let scheme = scheme_for(scheme_idx);
        let one_shard = run_simulation(&config, scheme.as_ref(), &trace);
        let mut sharded = config.clone();
        sharded.shards = shards;
        sharded.max_epoch_arrivals = cap;
        let parallel = run_simulation(&sharded, scheme.as_ref(), &trace);
        prop_assert_eq!(digest(&one_shard), digest(&parallel));
        prop_assert_eq!(parallel.stats.expiries, one_shard.stats.expiries);
        prop_assert_eq!(
            parallel.stats.epochs
                + parallel.stats.coalesced_arrivals
                + parallel.stats.coalesced_expiries,
            parallel.stats.arrivals + parallel.stats.expiries
        );
        prop_assert_eq!(parallel.stats.run_cutoffs.total(), parallel.stats.epochs);
        if cap == 1 {
            // Every dispatch event is a singleton run.
            prop_assert_eq!(
                parallel.stats.epochs,
                parallel.stats.arrivals + parallel.stats.expiries
            );
            prop_assert_eq!(parallel.stats.coalesced_arrivals, 0);
            prop_assert_eq!(parallel.stats.coalesced_expiries, 0);
        }
    }

    /// Coarsening under scripted spot evictions with the auditor on:
    /// the coarsened and per-arrival arms must agree with each other
    /// bit for bit AND sweep the invariant auditor the same number of
    /// times — per-arrival audit opportunities happen *inside* runs, so
    /// coalescing must not change the sweep cadence.
    #[test]
    fn prop_coarsening_preserves_audit_cadence_under_faults(
        seed in 0u64..1000,
        evict_worker in 0usize..3,
        evict_at_secs in 6.0f64..20.0,
        lead_secs in 1.0f64..30.0,
        shards in prop::sample::select(vec![2usize, 3]),
    ) {
        let mut config = quick_config(seed);
        config.workers = 3;
        config.procurement = ProcurementPolicy::Hybrid;
        config.availability = SpotAvailability::Low;
        config.revocation_check = SimDuration::from_secs(5.0);
        config.vm_startup = SimDuration::from_secs(5.0);
        config.procurement_retry = SimDuration::from_secs(5.0);
        config.audit = true;
        config.shards = shards;
        let trace = quick_trace(ModelId::ResNet50, 300.0, 0.5);
        let script = || {
            ScriptedMarket::new().evict(
                evict_worker,
                SimTime::from_secs(evict_at_secs),
                SimDuration::from_secs(lead_secs),
            )
        };
        let mut per_arrival_cfg = config.clone();
        per_arrival_cfg.max_epoch_arrivals = 1;
        let mut market = script();
        let per_arrival =
            run_simulation_with_oracle(&per_arrival_cfg, &ProteanBuilder::paper(), &trace, &mut market);
        let mut coarse_cfg = config.clone();
        coarse_cfg.max_epoch_arrivals = 64;
        let mut market = script();
        let coarse =
            run_simulation_with_oracle(&coarse_cfg, &ProteanBuilder::paper(), &trace, &mut market);
        prop_assert_eq!(digest(&per_arrival), digest(&coarse));
        prop_assert!(per_arrival.audit.is_clean(), "{:?}", per_arrival.audit.violations);
        prop_assert!(coarse.audit.is_clean(), "{:?}", coarse.audit.violations);
        prop_assert!(coarse.audit.checks > 0);
        prop_assert_eq!(per_arrival.audit.checks, coarse.audit.checks);
        prop_assert_eq!(
            coarse.stats.epochs + coarse.stats.coalesced_arrivals + coarse.stats.coalesced_expiries,
            coarse.stats.arrivals + coarse.stats.expiries
        );
        prop_assert_eq!(coarse.stats.run_cutoffs.total(), coarse.stats.epochs);
    }
}

/// Fleet-scale sharded differential on the paper's diurnal language
/// trace with per-worker load at the paper's operating point: every
/// shard count and the streamed sharded path must
/// reproduce the one-shard digest; every arm's counter triad must
/// reconcile, one shard included; the run partition must not depend on
/// the shard count; and run peeling must stay effective — few epochs
/// per dispatch event, and serial coordinator events cutting well
/// under 40% of the runs.
#[test]
fn fleet_scale_sharded_runs_match_one_shard() {
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

    let sharded = |shards: usize| {
        let mut c = config.clone();
        c.shards = shards;
        c
    };
    let partition = |s: &EngineStats| {
        (
            s.arrivals,
            s.expiries,
            s.epochs,
            s.coalesced_arrivals,
            s.coalesced_expiries,
            s.run_cutoffs,
        )
    };
    let mut first_partition = None;
    let mut one_shard = None;
    for shards in [1usize, 2, 4, 8] {
        let run = run_simulation(&sharded(shards), &scheme, &trace);
        let baseline = one_shard.get_or_insert_with(|| digest(&run));
        assert_eq!(&digest(&run), baseline, "S={shards} diverged");
        let s = &run.stats;
        assert_eq!(
            s.epochs + s.coalesced_arrivals + s.coalesced_expiries,
            s.arrivals + s.expiries,
            "S={shards}: epoch conservation"
        );
        assert_eq!(s.run_cutoffs.total(), s.epochs, "S={shards}: cut causes");
        // Measured 0.1327 epochs per dispatch event on this cell; the
        // ceiling leaves ~13% headroom. Serial cuts measured 4 of 13,775.
        let epochs_per_event = s.epochs as f64 / (s.arrivals + s.expiries) as f64;
        assert!(
            epochs_per_event <= 0.15,
            "S={shards}: {epochs_per_event:.4} epochs per dispatch event"
        );
        let serial_share = s.run_cutoffs.serial_event as f64 / s.epochs as f64;
        assert!(
            serial_share < 0.40,
            "S={shards}: serial events cut {serial_share:.3} of runs"
        );
        match first_partition {
            None => first_partition = Some(partition(s)),
            Some(p) => assert_eq!(partition(s), p, "S={shards}: run partition moved"),
        }
    }
    let streamed = run_simulation_streaming(&sharded(4), &scheme, &trace);
    assert_eq!(Some(digest(&streamed)), one_shard, "streamed S=4 diverged");
}
