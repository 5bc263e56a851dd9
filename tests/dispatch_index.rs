//! Differential tests for the O(log W) dispatcher index.
//!
//! The index must be observationally identical to the linear scans it
//! replaced. Two layers prove it: a property test drives a raw
//! [`DispatchIndex`] through randomized eviction/reconfig/boot/load
//! interleavings and cross-checks every query against a linear-scan
//! reference model, and full-simulation tests run the engine audited —
//! the auditor checks every dispatch selection against the linear
//! scans (`protean_cluster::dispatch::reference_select`) and sweeps the
//! index for coherence with live worker state — and require a clean
//! audit and the unaudited run's digest, on small spot-faulted fleets
//! and on a fleet-scale language-trace cell that also pins the visit
//! counts.
//! A third layer checks [`DispatchIndex::select`] and
//! [`DispatchIndex::verify`] against the live state of a randomly
//! mutated worker fleet, including GPUs that flip between accepting
//! and draining, and so between the index's two tiers.

use std::num::NonZeroU64;
use std::path::Path;

use proptest::prelude::*;
use protean::ProteanBuilder;
use protean_baselines::Baseline;
use protean_cluster::dispatch::reference_select;
use protean_cluster::schemes_for_test::AlwaysLargest;
use protean_cluster::worker::{Worker, WorkerStatus};
use protean_cluster::{
    simulate, Arrivals, ClusterConfig, DispatchIndex, DispatchPolicy, Observe, Scheme,
    SchemeBuilder, ScriptedMarket,
};
use protean_experiments::setup::LANGUAGE_RPS;
use protean_experiments::{golden, scenario};
use protean_gpu::Geometry;
use protean_models::ModelId;
use protean_sim::{RngFactory, SimDuration, SimTime};
use protean_spot::{ProcurementPolicy, SpotAvailability};
use protean_trace::{TraceConfig, TraceShape};

/// The linear-scan reference: per-slot dispatch state mirroring what
/// `reference_select`'s scans read from each worker.
#[derive(Debug, Clone, Copy)]
struct Slot {
    routable: bool,
    accepting: bool,
    outstanding: u64,
}

/// `min_by_key((outstanding, idx))` over eligible slots — the original
/// load-balance scan.
fn linear_least_loaded(slots: &[Slot], need_accepting: bool) -> Option<usize> {
    slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.routable && (!need_accepting || s.accepting))
        .min_by_key(|(idx, s)| (s.outstanding, *idx))
        .map(|(idx, _)| idx)
}

/// `find(routable && accepting && outstanding < cap)` — the original
/// consolidate scan.
fn linear_first_fit(slots: &[Slot], cap: u64) -> Option<usize> {
    slots
        .iter()
        .position(|s| s.routable && s.accepting && s.outstanding < cap)
}

/// First-fit caps representative of `cap_batches × batch_size` products,
/// plus caps around the index's packed 32-bit `outstanding` half.
const CAPS: [u64; 8] = [
    1,
    8,
    80,
    320,
    1 << 31,
    MAX_OUTSTANDING,
    MAX_OUTSTANDING + 1,
    1 << 40,
];

/// The deepest load the index's packed keys hold: `u32::MAX` is the
/// empty-slot sentinel's.
const MAX_OUTSTANDING: u64 = u32::MAX as u64 - 1;

/// Deep loads, at or above 2^31, where the packed keys' high bits
/// decide the order.
const DEEP: std::ops::RangeInclusive<u64> = (1 << 31)..=MAX_OUTSTANDING;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of the engine's mutation points — dispatch
    /// load, completions, eviction notice, final eviction, VM install,
    /// reconfig drain/complete, and loads of 2^31 and deeper — must
    /// leave every index query equal to the linear reference, including
    /// the first-fit root descent.
    #[test]
    fn prop_index_matches_linear_reference(
        ops in prop::collection::vec((0usize..8, 0u32..7, 1u64..40, DEEP), 1..120),
    ) {
        let n = 8;
        let mut slots = vec![
            Slot { routable: true, accepting: true, outstanding: 0 };
            n
        ];
        let mut index = DispatchIndex::new(n);
        for (idx, s) in slots.iter().enumerate() {
            index.refresh(idx, s.routable, s.accepting, s.outstanding);
        }
        for (w, kind, amount, deep) in ops {
            let s = &mut slots[w];
            match kind {
                // Dispatch: the engine only adds load to routable slots.
                0 => {
                    if s.routable {
                        s.outstanding = (s.outstanding + amount).min(MAX_OUTSTANDING);
                    }
                }
                // A queue 2^31 requests deep or deeper.
                6 => {
                    if s.routable {
                        s.outstanding = deep;
                    }
                }
                // Batch completion.
                1 => s.outstanding = s.outstanding.saturating_sub(amount),
                // Eviction notice: no longer routable, load still held.
                2 => s.routable = false,
                // Final eviction: the drain zeroes outstanding.
                3 => {
                    s.routable = false;
                    s.outstanding = 0;
                }
                // Replacement VM installs with a fresh accepting GPU.
                4 => {
                    s.routable = true;
                    s.accepting = true;
                    s.outstanding = 0;
                }
                // Reconfiguration drain/complete toggles accepting.
                _ => s.accepting = !s.accepting,
            }
            let s = slots[w];
            index.refresh(w, s.routable, s.accepting, s.outstanding);

            prop_assert_eq!(
                index.least_loaded_accepting(),
                linear_least_loaded(&slots, true)
            );
            prop_assert_eq!(
                index.least_loaded_routable(),
                linear_least_loaded(&slots, false)
            );
            prop_assert_eq!(index.any_routable(), slots.iter().any(|s| s.routable));
            for cap in CAPS {
                let mut visits = 0;
                prop_assert_eq!(
                    index.first_fit(cap, &mut visits),
                    linear_first_fit(&slots, cap),
                    "first-fit diverged at cap {}", cap
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under random status, load and reconfiguration changes of a real
    /// worker fleet, each refreshed into the index, `select` answers
    /// every query exactly as the linear scans over the live workers
    /// (`reference_select`) do, and `verify` finds the index coherent.
    #[test]
    fn prop_select_matches_reference_select(
        workers in 1usize..=300,
        ops in prop::collection::vec((0usize..300, 0u32..7, 1u64..40, DEEP), 1..150),
        caps in prop::collection::vec(1u64..120, 150),
    ) {
        let rng = RngFactory::new(0);
        let mut fleet: Vec<Worker> = (0..workers)
            .map(|g| Worker::new(g, AlwaysLargest.build(g), &rng, SimTime::ZERO))
            .collect();
        let mut index = DispatchIndex::new(workers);
        for (g, w) in fleet.iter().enumerate() {
            index.refresh_worker(g, w);
        }
        for (step, (g, kind, amount, deep)) in ops.into_iter().enumerate() {
            let w = &mut fleet[g % workers];
            match kind {
                0 => w.outstanding = (w.outstanding + amount).min(MAX_OUTSTANDING),
                6 => w.outstanding = deep,
                1 => w.outstanding = w.outstanding.saturating_sub(amount),
                2 => w.status = WorkerStatus::Evicting { evict_at: SimTime::ZERO },
                3 => {
                    w.status = WorkerStatus::Down;
                    w.outstanding = 0;
                }
                4 => w.status = WorkerStatus::Up,
                _ => {
                    if w.gpu.accepting() {
                        w.gpu.request_reconfigure(Geometry::g3_g3()).expect("active GPU");
                    } else {
                        w.gpu.cancel_reconfigure();
                    }
                }
            }
            index.refresh_worker(g % workers, &fleet[g % workers]);
            for cap in [None, Some(caps[step]), Some(CAPS[step % CAPS.len()])] {
                prop_assert_eq!(
                    index.select(cap, &mut 0),
                    reference_select(fleet.iter(), cap),
                    "cap {:?} at step {}", cap, step
                );
            }
        }
        let problems = index.verify(&fleet);
        prop_assert!(problems.is_empty(), "{:?}", problems);
        // An index sized for a wider fleet is incoherent.
        prop_assert!(!DispatchIndex::new(workers + 1).verify(&fleet).is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Workers whose GPUs flip between accepting and draining while their
    /// load changes, often within one refresh, move between the index's
    /// two disjoint tiers. After every refresh `select` must equal
    /// `reference_select`, and the routable queries must equal scans of
    /// the live fleet.
    #[test]
    fn prop_draining_flips_match_reference_select(
        workers in 1usize..=64,
        ops in prop::collection::vec((0usize..64, 0u32..5, 1u64..6), 1..200),
        caps in prop::collection::vec(1u64..12, 200),
    ) {
        let rng = RngFactory::new(0);
        let mut fleet: Vec<Worker> = (0..workers)
            .map(|g| Worker::new(g, AlwaysLargest.build(g), &rng, SimTime::ZERO))
            .collect();
        let mut index = DispatchIndex::new(workers);
        for (g, w) in fleet.iter().enumerate() {
            index.refresh_worker(g, w);
        }
        for (step, (g, kind, amount)) in ops.into_iter().enumerate() {
            let w = &mut fleet[g % workers];
            let flip = |w: &mut Worker| {
                if w.gpu.accepting() {
                    w.gpu.request_reconfigure(Geometry::g3_g3()).expect("active GPU");
                } else {
                    w.gpu.cancel_reconfigure();
                }
            };
            match kind {
                0 => flip(w),
                1 => w.outstanding += amount,
                2 => w.outstanding = w.outstanding.saturating_sub(amount),
                // A flip and a load change seen by one refresh.
                3 => {
                    flip(w);
                    w.outstanding = (w.outstanding + amount) % 7;
                }
                _ => {
                    w.status = if w.routable() {
                        WorkerStatus::Evicting { evict_at: SimTime::ZERO }
                    } else {
                        WorkerStatus::Up
                    };
                }
            }
            index.refresh_worker(g % workers, &fleet[g % workers]);
            for cap in [None, Some(caps[step])] {
                prop_assert_eq!(
                    index.select(cap, &mut 0),
                    reference_select(fleet.iter(), cap),
                    "cap {:?} at step {}", cap, step
                );
            }
            let routable = fleet.iter().filter(|w| w.routable());
            prop_assert_eq!(
                index.least_loaded_routable(),
                routable.clone().min_by_key(|w| (w.outstanding, w.idx)).map(|w| w.idx)
            );
            prop_assert_eq!(index.routable_len(), routable.clone().count());
            prop_assert_eq!(index.any_routable(), routable.clone().next().is_some());
            prop_assert_eq!(
                index.accepting_len(),
                routable.filter(|w| w.gpu.accepting()).count()
            );
        }
        let problems = index.verify(&fleet);
        prop_assert!(problems.is_empty(), "{:?}", problems);
    }
}

/// A spot-faulted cluster config for the full-run differential.
fn faulted_config(workers: usize, seed: u64) -> ClusterConfig {
    let mut config = ClusterConfig::small_test();
    config.workers = workers;
    config.seed = seed;
    config.procurement = ProcurementPolicy::Hybrid;
    config.availability = SpotAvailability::Low; // unused: scripted oracle
    config.revocation_check = SimDuration::from_secs(5.0);
    config.vm_startup = SimDuration::from_secs(5.0);
    config.procurement_retry = SimDuration::from_secs(5.0);
    config
}

fn faulted_trace() -> TraceConfig {
    TraceConfig {
        shape: TraceShape::constant(250.0),
        duration: SimDuration::from_secs(40.0),
        strict_model: ModelId::ResNet50,
        strict_fraction: 0.5,
        be_pool: vec![ModelId::MobileNet],
        be_rotation_period: SimDuration::from_secs(20.0),
        batch_arrivals: false,
    }
}

/// Runs the same scripted-eviction simulation audited and unaudited,
/// returning both digests. The audited run checks every dispatch
/// selection against the linear scans and sweeps the index for
/// coherence after every event; it must stay clean. The auditor only
/// reads state, so the two digests must match.
fn differential_run(
    scheme: &dyn SchemeBuilder,
    workers: usize,
    seed: u64,
    evictions: &[(usize, f64, f64)],
) -> (String, String) {
    let run = |audit: bool| {
        let config = faulted_config(workers, seed);
        let mut market = ScriptedMarket::new();
        for &(worker, at, lead) in evictions {
            market = market.evict(worker, SimTime::from_secs(at), SimDuration::from_secs(lead));
        }
        let observe = Observe {
            audit: audit.then_some(NonZeroU64::MIN),
            journal_capacity: 0,
        };
        let trace = faulted_trace();
        let arrivals = Arrivals::Generate(&trace);
        let result = simulate(&config, &scheme, arrivals, Some(&mut market), observe);
        assert!(result.audit.is_clean(), "{:?}", result.audit.violations);
        assert_eq!(result.audit.enabled, audit);
        assert!(!audit || result.audit.checks > 0);
        golden::digest(&result)
    };
    (run(true), run(false))
}

/// Load-balance dispatch (PROTEAN): every indexed selection must match
/// the linear scans through evictions, replacements and
/// reconfigurations.
#[test]
fn load_balance_digests_match_linear_reference_under_faults() {
    let evictions = [(0, 6.0, 4.0), (2, 15.0, 8.0), (1, 24.0, 3.0)];
    for seed in [7, 42, 1234] {
        let (audited, plain) = differential_run(&ProteanBuilder::paper(), 4, seed, &evictions);
        assert_eq!(audited, plain, "seed {seed} diverged");
    }
}

/// Consolidate dispatch (INFless/Llama): the first-fit descent must
/// reproduce the linear front scan exactly, including across evictions
/// that re-open saturated low-index slots.
#[test]
fn consolidate_digests_match_linear_reference_under_faults() {
    let evictions = [(0, 5.0, 5.0), (1, 18.0, 6.0)];
    for seed in [7, 42, 1234] {
        let (audited, plain) = differential_run(&Baseline::InflessLlama, 4, seed, &evictions);
        assert_eq!(audited, plain, "seed {seed} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized fleets: arbitrary eviction schedules over 2–6 workers
    /// under both dispatch policies must pass the audited linear-scan
    /// cross-check and digest identically with the auditor on and off.
    #[test]
    fn prop_full_run_digests_match_under_random_faults(
        workers in 2usize..6,
        seed in 1u64..500,
        consolidate in prop::bool::ANY,
        schedule in prop::collection::vec((0usize..6, 2.0f64..30.0, 1.0f64..10.0), 0..4),
    ) {
        let evictions: Vec<(usize, f64, f64)> = schedule
            .into_iter()
            .map(|(w, at, lead)| (w % workers, at, lead))
            .collect();
        let scheme: Box<dyn SchemeBuilder> = if consolidate {
            Box::new(Baseline::InflessLlama)
        } else {
            Box::new(ProteanBuilder::paper())
        };
        let (audited, plain) =
            differential_run(&*scheme, workers, seed, &evictions);
        prop_assert_eq!(audited, plain);
    }
}

/// The `Consolidate` policy's headroom test is strict: a worker whose
/// outstanding equals `cap_batches × batch_size` is full and must be
/// passed over, while one request below the cap still accepts — at the
/// boundary, index and linear scan agree slot by slot.
#[test]
fn consolidate_descent_honors_cap_exactly_at_the_boundary() {
    let cap = 80; // e.g. cap_batches 10 × batch size 8
    let mut index = DispatchIndex::new(3);
    let mut slots = vec![
        Slot {
            routable: true,
            accepting: true,
            outstanding: cap,
        };
        3
    ];
    slots[1].outstanding = cap - 1;
    for (idx, s) in slots.iter().enumerate() {
        index.refresh(idx, s.routable, s.accepting, s.outstanding);
    }
    let mut visits = 0;
    // Worker 0 sits exactly at the cap: full. Worker 1 is one below.
    assert_eq!(index.first_fit(cap, &mut visits), Some(1));
    assert_eq!(linear_first_fit(&slots, cap), Some(1));
    // One more request saturates worker 1 too.
    slots[1].outstanding = cap;
    index.refresh(1, true, true, cap);
    let mut visits = 0;
    assert_eq!(index.first_fit(cap, &mut visits), None);
    assert_eq!(linear_first_fit(&slots, cap), None);
    // A single completion on worker 0 re-opens it: the next descent
    // lands back on the lowest index.
    slots[0].outstanding = cap - 1;
    index.refresh(0, true, true, cap - 1);
    let mut visits = 0;
    assert_eq!(index.first_fit(cap, &mut visits), Some(0));
    assert_eq!(linear_first_fit(&slots, cap), Some(0));
}

/// INFless/Llama placement under a 1-batch consolidation cap: the
/// shallow-packing regime where most of the fleet sits at the cap and
/// the linear front scan degenerates to a walk over the whole fleet.
struct TightConsolidate;

impl SchemeBuilder for TightConsolidate {
    fn build(&self, worker: usize) -> Box<dyn Scheme> {
        Baseline::InflessLlama.build(worker)
    }

    fn name(&self) -> &'static str {
        "INFless/Llama (cap 1)"
    }

    fn dispatch_policy(&self) -> DispatchPolicy {
        DispatchPolicy::Consolidate { cap_batches: 1 }
    }
}

/// Fleet-scale differential on the paper's language trace (batch size
/// 4, so dispatch decisions are dense) with per-worker load held at the
/// paper's operating point. Under every policy the index must route
/// each batch where the linear scans would (the audited run checks
/// every selection; full sweeps are sampled to keep the run short) and
/// answer in at most two visits per batch, where the scans pay at least
/// one visit per worker.
#[test]
fn fleet_scale_dispatch_matches_linear_reference() {
    const WORKERS: usize = 256;
    let rps = (LANGUAGE_RPS * WORKERS as f64 / 8.0).to_string();
    let keys = [
        ("trace.duration_secs", "3"),
        ("fleet.workers", &WORKERS.to_string()),
        ("trace.model", "albert"),
        ("trace.rps", &rps),
    ];
    let mut compiled = scenario::paper().with(&keys).compile(Path::new(""), false);
    // Record latencies from the first second so the digest pins them.
    compiled.config.warmup = SimDuration::from_secs(1.0);
    let schemes: [&dyn SchemeBuilder; 3] = [
        &ProteanBuilder::paper(),
        &TightConsolidate,
        &Baseline::InflessLlama,
    ];
    for scheme in schemes {
        let run = |audit| {
            let observe = Observe {
                audit,
                journal_capacity: 0,
            };
            compiled.simulate(scheme, observe).unwrap()
        };
        let (audited, plain) = (run(NonZeroU64::new(1024)), run(None));
        let name = scheme.name();
        assert!(
            audited.audit.is_clean(),
            "{name}: {:?}",
            audited.audit.violations
        );
        assert_eq!(
            golden::digest(&audited),
            golden::digest(&plain),
            "{name}: the audited run diverged"
        );
        let batches = plain.stats.dispatch_batches;
        assert!(batches > 0, "{name}: no dispatches");
        let indexed_visits = plain.stats.dispatch_scan_visits as f64 / batches as f64;
        assert!(
            indexed_visits <= 2.0,
            "{name}: indexed visits {indexed_visits:.2}/batch, expected <= 2"
        );
    }
}
