//! Deterministic fault injection for the spot-market lifecycle.
//!
//! Each test scripts an exact adversarial interleaving through
//! [`ScriptedMarket`] — no seed scanning — and runs with the invariant
//! auditor enabled, so a lifecycle bug shows up either as a direct
//! assertion failure or as an audit violation. The randomized property
//! at the bottom composes arbitrary eviction/denial schedules and the
//! final test pins the auditor's zero-observability guarantee: a golden
//! spot run produces a bit-identical digest with auditing on.

use proptest::prelude::*;
use protean::ProteanBuilder;
use protean_cluster::{
    run_simulation, run_simulation_with_oracle, ClusterConfig, JournalEvent, ScriptedMarket,
    SimulationResult,
};
use protean_experiments::{golden, PaperSetup};
use protean_metrics::record::Class;
use protean_models::ModelId;
use protean_sim::{RngFactory, SimDuration, SimTime};
use protean_spot::{ProcurementPolicy, SpotAvailability};
use protean_trace::{TraceConfig, TraceShape};

/// A 3-worker hybrid-procurement cluster with fast spot timings and the
/// invariant auditor on.
fn spot_config() -> ClusterConfig {
    let mut config = ClusterConfig::small_test();
    config.workers = 3;
    config.procurement = ProcurementPolicy::Hybrid;
    config.availability = SpotAvailability::Low; // unused: the oracle is scripted
    config.revocation_check = SimDuration::from_secs(5.0);
    config.vm_startup = SimDuration::from_secs(5.0);
    config.procurement_retry = SimDuration::from_secs(5.0);
    config.audit = true;
    config
}

fn trace(rps: f64, secs: f64) -> TraceConfig {
    TraceConfig {
        shape: TraceShape::constant(rps),
        duration: SimDuration::from_secs(secs),
        strict_model: ModelId::ResNet50,
        strict_fraction: 0.5,
        be_pool: vec![ModelId::MobileNet],
        be_rotation_period: SimDuration::from_secs(20.0),
        batch_arrivals: false,
    }
}

/// Post-warmup arrivals of `t` under `config.seed` — what
/// `metrics.count(Class::All)` must equal (censored requests are
/// recorded at the cutoff, not dropped).
fn expected_requests(config: &ClusterConfig, t: &TraceConfig) -> usize {
    let factory = RngFactory::new(config.seed);
    t.generate(&factory)
        .iter()
        .filter(|r| r.arrival >= SimTime::ZERO + config.warmup)
        .count()
}

/// Regression: an eviction lands while cold-start boots are in flight,
/// and the replacement VM installs before those boots complete. The
/// `BootDone` events were armed against the *old* VM; applying them to
/// the fresh one used to create containers out of thin air (or trip the
/// pool's booting-count underflow). Epoch tagging discards them.
#[test]
fn boots_in_flight_across_vm_replacement_are_discarded_as_stale() {
    let mut config = spot_config();
    config.workers = 1;
    config.prewarm_containers = 0; // every batch cold-starts
    config.cold_start = SimDuration::from_secs(8.0);
    config.vm_startup = SimDuration::from_secs(2.0);
    // Notice at the t=5 s check, VM reclaimed at t=8 s; the replacement
    // is ready at t=7 s and installs at t=8 s. Boots armed in (0, 5]
    // finish in (8, 13] — all on the dead VM.
    let mut market =
        ScriptedMarket::new().evict(0, SimTime::from_secs(5.0), SimDuration::from_secs(3.0));
    let t = trace(200.0, 30.0);
    let result = run_simulation_with_oracle(&config, &ProteanBuilder::paper(), &t, &mut market);
    assert_eq!(result.cost.evictions, 1);
    assert!(
        result.stats.stale_boot_events > 0,
        "no boot was in flight across the replacement; the scenario is vacuous"
    );
    assert!(result.audit.is_clean(), "{:?}", result.audit.violations);
    assert_eq!(
        result.metrics.count(Class::All),
        expected_requests(&config, &t)
    );
}

/// The replacement VM is granted *before* the old one drains: it must
/// stand by as `pending_vm` and install exactly when the old VM is
/// reclaimed, not the moment it is ready.
#[test]
fn replacement_ready_before_drain_waits_for_eviction_final() {
    let mut config = spot_config();
    config.journal_capacity = 500_000;
    // Notice at t=10 s with a 20 s lead: reclaim at t=30 s. The
    // replacement is ready at t=15 s, mid-drain.
    let mut market =
        ScriptedMarket::new().evict(0, SimTime::from_secs(10.0), SimDuration::from_secs(20.0));
    let t = trace(200.0, 60.0);
    let result = run_simulation_with_oracle(&config, &ProteanBuilder::paper(), &t, &mut market);
    assert_eq!(result.cost.evictions, 1);
    assert!(result.audit.is_clean(), "{:?}", result.audit.violations);
    let notice = result
        .journal
        .filter(|e| matches!(e, JournalEvent::EvictionNotice { worker: 0, .. }))
        .next()
        .expect("no eviction notice journaled");
    assert_eq!(notice.0, SimTime::from_secs(10.0));
    let installs: Vec<SimTime> = result
        .journal
        .filter(|e| matches!(e, JournalEvent::VmInstalled { worker: 0 }))
        .map(|(at, _)| *at)
        .collect();
    assert_eq!(
        installs,
        vec![SimTime::from_secs(30.0)],
        "pending VM must install at the reclaim instant, not when granted"
    );
}

/// Evictions landing mid-reconfiguration: PROTEAN keeps reshaping MIG
/// geometries while two workers drain and are replaced. Every
/// conservation law must hold through the overlap.
#[test]
fn reconfig_storm_under_eviction_keeps_invariants() {
    let setup = PaperSetup {
        duration_secs: 80.0,
        seed: 42,
    };
    let mut config = setup.cluster();
    config.procurement = ProcurementPolicy::Hybrid;
    config.revocation_check = SimDuration::from_secs(5.0);
    config.vm_startup = SimDuration::from_secs(5.0);
    config.procurement_retry = SimDuration::from_secs(5.0);
    config.audit = true;
    // The Fig. 7 rotation through the oversized DPN 92 forces geometry
    // changes; the two evictions straddle the rotation boundaries.
    let t = TraceConfig {
        be_pool: vec![
            ModelId::MobileNet,
            ModelId::Dpn92,
            ModelId::ResNet50,
            ModelId::Dpn92,
        ],
        be_rotation_period: SimDuration::from_secs(20.0),
        ..setup.wiki_trace(ModelId::ShuffleNetV2)
    };
    let mut market = ScriptedMarket::new()
        .evict(1, SimTime::from_secs(22.0), SimDuration::from_secs(10.0))
        .evict(4, SimTime::from_secs(38.0), SimDuration::from_secs(10.0));
    let result = run_simulation_with_oracle(&config, &ProteanBuilder::paper(), &t, &mut market);
    assert_eq!(result.cost.evictions, 2);
    assert!(result.reconfigs > 0, "the storm never reconfigured");
    assert!(result.audit.is_clean(), "{:?}", result.audit.violations);
    assert_eq!(
        result.metrics.count(Class::All),
        expected_requests(&config, &t)
    );
}

/// Spot-only procurement under a denial burst: the evicted slot cannot
/// be replaced and stays down, yet no request is lost from the
/// accounting and no invariant breaks on the surviving worker.
#[test]
fn procurement_denial_burst_leaves_the_slot_down_without_losing_requests() {
    let mut config = spot_config();
    config.workers = 2;
    config.procurement = ProcurementPolicy::SpotOnly;
    config.journal_capacity = 500_000;
    // Initial provisioning consumes the two grants (one roll per worker
    // at t=0); every roll after that — the replacement attempt at the
    // notice and all retries — is denied.
    let mut market = ScriptedMarket::new()
        .grant_next(2)
        .evict(0, SimTime::from_secs(5.0), SimDuration::from_secs(5.0))
        .deny_rest();
    let t = trace(200.0, 30.0);
    let result = run_simulation_with_oracle(&config, &ProteanBuilder::paper(), &t, &mut market);
    assert_eq!(result.cost.evictions, 1);
    assert!(
        market.acquisition_rolls() >= 3,
        "expected the initial rolls plus at least one denied replacement, saw {}",
        market.acquisition_rolls()
    );
    assert_eq!(
        result
            .journal
            .filter(|e| matches!(e, JournalEvent::VmInstalled { worker: 0 }))
            .count(),
        0,
        "a denied slot must never receive a replacement VM"
    );
    assert!(result.audit.is_clean(), "{:?}", result.audit.violations);
    assert_eq!(
        result.metrics.count(Class::All),
        expected_requests(&config, &t)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any eviction/denial schedule the generator can produce must run
    /// to completion with a clean audit and exact request accounting.
    #[test]
    fn prop_random_fault_schedules_keep_invariants(
        schedule in prop::collection::vec(
            (0usize..3, 0.0f64..25.0, 1.0f64..15.0),
            0..4,
        ),
        grants in prop::collection::vec(prop::bool::ANY, 0..6),
        deny_rest in prop::bool::ANY,
    ) {
        let config = spot_config();
        let mut market = ScriptedMarket::new();
        for &(worker, at, lead) in &schedule {
            market = market.evict(
                worker,
                SimTime::from_secs(at),
                SimDuration::from_secs(lead),
            );
        }
        for g in grants {
            market = if g { market.grant_next(1) } else { market.deny_next(1) };
        }
        if deny_rest {
            market = market.deny_rest();
        }
        let t = trace(200.0, 40.0);
        let result =
            run_simulation_with_oracle(&config, &ProteanBuilder::paper(), &t, &mut market);
        prop_assert!(result.audit.is_clean(), "{:?}", result.audit.violations);
        prop_assert_eq!(
            result.metrics.count(Class::All),
            expected_requests(&config, &t)
        );
    }
}

/// The auditor must be a pure observer: a golden-style spot run (real
/// `SpotMarket`, evictions, replacement, re-dispatch) digests
/// bit-identically with auditing on, and the audited run is clean.
#[test]
fn audited_golden_spot_run_is_bit_identical_and_clean() {
    let setup = PaperSetup {
        duration_secs: 30.0,
        seed: 3,
    };
    let mut config = setup.cluster();
    config.workers = 3;
    config.procurement = ProcurementPolicy::Hybrid;
    config.availability = SpotAvailability::Low;
    config.revocation_check = SimDuration::from_secs(5.0);
    config.vm_startup = SimDuration::from_secs(5.0);
    let t = setup.wiki_trace(ModelId::ResNet50);
    let plain = run_simulation(&config, &ProteanBuilder::paper(), &t);
    config.audit = true;
    let audited = run_simulation(&config, &ProteanBuilder::paper(), &t);
    assert!(
        plain.cost.evictions > 0,
        "seed 3 must exercise the spot path"
    );
    assert_eq!(
        golden::digest(&plain),
        golden::digest(&audited),
        "enabling the auditor changed an observable result"
    );
    assert!(audited.audit.is_clean(), "{:?}", audited.audit.violations);
    assert!(audited.audit.checks > 0);
    assert!(!plain.audit.enabled);
}

/// Tie regression for the scenario catalog's storm scripts: two
/// evictions at the identical `SimTime` on *different* workers, with
/// leads chosen so both eviction finals land exactly on a
/// boot-completion / revocation-check tick (cold_start = vm_startup =
/// revocation_check = 5 s, notices at the t=10 s checks, leads 5 s ⇒
/// finals at t=15 s, colliding with boots armed at t=10 s). The run
/// must resolve in one deterministic order: the audited run is clean,
/// takes both evictions, and digests like an unaudited run and a repeat.
#[test]
fn simultaneous_evictions_resolve_deterministically() {
    let make = |audit: bool| {
        let mut config = spot_config();
        config.workers = 4;
        config.prewarm_containers = 0; // boots in flight at the collision tick
        config.cold_start = SimDuration::from_secs(5.0);
        config.audit = audit;
        let mut market = ScriptedMarket::new()
            .evict(1, SimTime::from_secs(10.0), SimDuration::from_secs(5.0))
            .evict(2, SimTime::from_secs(10.0), SimDuration::from_secs(5.0));
        let t = trace(300.0, 40.0);
        let result = run_simulation_with_oracle(&config, &ProteanBuilder::paper(), &t, &mut market);
        assert_eq!(
            market.pending_evictions(),
            0,
            "a scripted eviction never fired"
        );
        result
    };
    let audited = make(true);
    assert_eq!(audited.cost.evictions, 2);
    assert!(audited.audit.is_clean(), "{:?}", audited.audit.violations);
    let digest = golden::digest(&audited);
    for rep in 0..2 {
        assert_eq!(
            golden::digest(&make(false)),
            digest,
            "unaudited run {rep} resolved the simultaneous evictions differently"
        );
    }
}

/// `audit_every_n` sampling must thin the full-state sweeps without
/// changing anything observable: a sampled run digests bit-identically
/// to the every-event run, stays clean, and performs roughly 1/n of the
/// sweeps. Fleet-scale benchmarks rely on this to keep the auditor on.
#[test]
fn sampled_audit_is_digest_neutral_and_thins_sweeps() {
    let make = |every_n: u64| {
        let mut config = spot_config();
        config.audit_every_n = every_n;
        let mut market = ScriptedMarket::new()
            .evict(0, SimTime::from_secs(5.0), SimDuration::from_secs(5.0))
            .evict(2, SimTime::from_secs(12.0), SimDuration::from_secs(3.0));
        let t = trace(200.0, 30.0);
        run_simulation_with_oracle(&config, &ProteanBuilder::paper(), &t, &mut market)
    };
    let full = make(1);
    let sampled = make(7);
    assert_eq!(
        golden::digest(&full),
        golden::digest(&sampled),
        "audit sampling changed an observable result"
    );
    assert!(sampled.audit.is_clean(), "{:?}", sampled.audit.violations);
    assert!(full.audit.checks > 0 && sampled.audit.checks > 0);
    assert!(
        sampled.audit.checks <= full.audit.checks / 6,
        "sampling 1-in-7 left too many sweeps: {} vs {}",
        sampled.audit.checks,
        full.audit.checks
    );
}

/// Thirty evictions at a 5 ms lead, one every 1.1 s round the three
/// workers, under a best-effort rotation through four models every 2 s:
/// orphans come from every stage of a worker's pipeline, and every VM is
/// replaced several times.
fn eviction_storm() -> (ClusterConfig, TraceConfig, ScriptedMarket) {
    let mut config = spot_config();
    config.revocation_check = SimDuration::from_secs(1.0);
    config.vm_startup = SimDuration::from_secs(1.0);
    config.procurement_retry = SimDuration::from_secs(1.0);
    config.prewarm_containers = 1;
    let t = TraceConfig {
        be_pool: vec![
            ModelId::MobileNet,
            ModelId::Vgg19,
            ModelId::Albert,
            ModelId::Bert,
        ],
        be_rotation_period: SimDuration::from_secs(2.0),
        ..trace(300.0, 40.0)
    };
    let mut market = ScriptedMarket::new();
    for k in 0..30 {
        market = market.evict(
            k % 3,
            SimTime::from_secs(2.0 + 1.1 * k as f64),
            SimDuration::from_millis(5.0),
        );
    }
    (config, t, market)
}

/// Regression: eviction re-dispatch must not depend on hash iteration
/// order. The [`eviction_storm`] re-dispatches orphans in the order the
/// worker drains them. Repeated runs in one process must produce one
/// digest. When the drain walked `HashMap`s, every repetition in the
/// same process gave a different digest with a clean audit.
#[test]
fn eviction_redispatch_order_is_deterministic() {
    let run = || {
        let (config, t, mut market) = eviction_storm();
        let result = run_simulation_with_oracle(&config, &ProteanBuilder::paper(), &t, &mut market);
        assert!(result.cost.evictions > 0, "no eviction fired");
        assert!(result.audit.is_clean(), "{:?}", result.audit.violations);
        golden::digest(&result)
    };
    let reference = run();
    for rep in 1..=3 {
        assert_eq!(run(), reference, "run {rep} diverged from the first");
    }
}

/// The run counters of `r`, and its geometry timeline.
type Counters = (u64, u64, u64, u64, Vec<(SimTime, usize, String)>);

fn counters(r: &SimulationResult) -> Counters {
    let timeline = r.geometry_timeline.iter();
    (
        r.cold_starts,
        r.proactive_boots,
        r.reconfigs,
        r.cost.evictions,
        timeline
            .map(|c| (c.at, c.worker, c.geometry.clone()))
            .collect(),
    )
}

/// Regression: the run counters count every event, on every VM a worker
/// ran, and none of them reads the bounded journal. They used to be
/// summed from the container pools alive at the end of the run, so the
/// [`eviction_storm`] reported 1,747 of its 12,434 cold starts.
#[test]
fn run_counters_count_every_event_across_vm_replacements() {
    for predictive_prewarm in [false, true] {
        let run = |journal_capacity| {
            let (mut config, t, mut market) = eviction_storm();
            config.predictive_prewarm = predictive_prewarm;
            config.journal_capacity = journal_capacity;
            run_simulation_with_oracle(&config, &ProteanBuilder::paper(), &t, &mut market)
        };
        let full = run(1 << 20);
        assert_eq!(full.journal.dropped(), 0);
        assert!(full.audit.is_clean(), "{:?}", full.audit.violations);
        let count = |pred: fn(&JournalEvent) -> bool| full.journal.filter(pred).count() as u64;
        assert_eq!(
            full.cold_starts,
            count(|e| matches!(e, JournalEvent::ColdStart { .. }))
        );
        assert_eq!(
            full.proactive_boots,
            count(|e| matches!(e, JournalEvent::ProactiveBoot { .. }))
        );
        assert_eq!(
            full.cost.evictions,
            count(|e| matches!(e, JournalEvent::EvictionNotice { .. }))
        );
        let reconfigured: Vec<(SimTime, usize, String)> = full
            .journal
            .entries()
            .iter()
            .filter_map(|(at, e)| match e {
                JournalEvent::Reconfigured { worker, geometry } => {
                    Some((*at, *worker, geometry.clone()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(full.reconfigs, reconfigured.len() as u64);
        assert_eq!(counters(&full).4, reconfigured);
        // Not vacuous: a boot of each kind precedes a VM replacement on
        // its worker, so a count of the pools alive at the end misses it.
        let lost_to_replacement = |boot: fn(&JournalEvent) -> Option<usize>| {
            let mut booted = [false; 3];
            full.journal.entries().iter().any(|(_, e)| match e {
                JournalEvent::VmInstalled { worker } => booted[*worker],
                e => {
                    if let Some(w) = boot(e) {
                        booted[w] = true;
                    }
                    false
                }
            })
        };
        assert!(lost_to_replacement(|e| match e {
            JournalEvent::ColdStart { worker, .. } => Some(*worker),
            _ => None,
        }));
        assert_eq!(
            lost_to_replacement(|e| match e {
                JournalEvent::ProactiveBoot { worker, .. } => Some(*worker),
                _ => None,
            }),
            predictive_prewarm
        );
        // A journal that is off, or that overflows, changes no count.
        let overflowed = run(10);
        assert!(overflowed.journal.dropped() > 0);
        assert_eq!(counters(&overflowed), counters(&full));
        assert_eq!(counters(&run(0)), counters(&full));
    }
}
