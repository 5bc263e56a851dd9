//! Scenario DSL contract tests.
//!
//! Three pins, per the catalog's design:
//!
//! 1. **Round-trip**: `parse(spec.to_toml()) == spec` for any valid
//!    spec the generator can produce, and for every file in the
//!    shipped `scenarios/` catalog.
//! 2. **Differential**: a hand-built `ClusterConfig` + `TraceConfig` +
//!    `ScriptedMarket` — written the way an engine test would write
//!    them, with no DSL involvement — produces the exact same
//!    [`golden::digest`] as its DSL-declared twin, on two golden
//!    configs (scripted evictions, and a jittered storm).
//! 3. **Catalog**: every shipped scenario runs green in smoke mode
//!    (both engine arms, digest equality, clean audits, expectations).

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use protean::ProteanBuilder;
use protean_cluster::{run_trace_with_oracle, ClusterConfig, ScriptedMarket};
use protean_experiments::golden;
use protean_experiments::scenario::{
    self, BurstSpec, EvictionSpec, ExpectSpec, FleetSpec, MarketSpec, ScenarioError, ScenarioSpec,
    StormSpec, TraceKind, TraceSpec,
};
use protean_models::{catalog, ModelId};
use protean_sim::{RngFactory, SimDuration, SimTime};
use protean_spot::{ProcurementPolicy, Provider, SpotAvailability};
use protean_trace::{TraceConfig, TraceShape};

/// The shipped catalog, relative to this crate's manifest.
fn catalog_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

// ---------------------------------------------------------------------------
// 1. Round-trip
// ---------------------------------------------------------------------------

const SCHEMES: [&str; 5] = ["protean", "oracle", "molecule", "naive", "smart"];
const MODELS: [ModelId; 4] = [
    ModelId::ResNet50,
    ModelId::MobileNet,
    ModelId::Dpn92,
    ModelId::GoogleNet,
];
const KINDS: [TraceKind; 4] = [
    TraceKind::Constant,
    TraceKind::Wiki,
    TraceKind::Twitter,
    TraceKind::Pulse,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any valid spec serializes to TOML that reparses to an identical
    /// spec — field for field, including array-of-table ordering.
    #[test]
    fn prop_to_toml_reparses_identically(
        (workers, seed, scheme_idx, proc_idx, avail_idx)
            in (1usize..8, 0u64..1000, 0usize..5, 0usize..3, 0usize..3),
        (slo_mult, rps, duration_secs, strict_fraction, provider_idx)
            in (1.0f64..5.0, 50.0f64..500.0, 10.0f64..90.0, 0.0f64..=1.0, 0usize..3),
        (kind_idx, prewarm, be_rotation_secs, batch_arrivals, deny_rest)
            in (0usize..4, 0usize..6, 5.0f64..40.0, prop::bool::ANY, prop::bool::ANY),
        (pulse_low, pulse_period, pulse_duty, script_bits, script_len)
            in (0.0f64..50.0, 1.0f64..30.0, 0.05f64..=1.0, 0u64..64, 0usize..=6),
        (timing_a, timing_b, timing_c, timing_d, model_idx)
            in (0.5f64..20.0, 0.5f64..20.0, 0.5f64..20.0, 0.5f64..20.0, 0usize..4),
        bursts_raw in prop::collection::vec((0.0f64..60.0, 1.0f64..30.0, 10.0f64..200.0), 0..3),
        evictions_raw in prop::collection::vec((0.0f64..1.0, 0.0f64..80.0, 0.0f64..20.0), 0..3),
        storms_raw in prop::collection::vec(
            (prop::collection::vec(0.0f64..1.0, 1..4), 0.0f64..80.0, 0.0f64..15.0, 0.0f64..10.0, 0u64..100),
            0..3,
        ),
        (exp_flags, exp_ev, exp_rc, exp_cens, be_pool_raw)
            in (0usize..8, 0u64..6, 0u64..6, 0u64..2000, prop::collection::vec(0usize..4, 0..4)),
    ) {
        let kind = KINDS[kind_idx];
        // Pulse keys only exist in the file when kind = "pulse"; the
        // canonical form keeps them at their defaults otherwise.
        let (pulse_low_rps, pulse_period_secs, pulse_duty) = if kind == TraceKind::Pulse {
            (pulse_low, pulse_period, pulse_duty)
        } else {
            (0.0, 10.0, 0.5)
        };
        let worker_at = |frac: f64| ((frac * workers as f64) as usize).min(workers - 1);
        let spec = ScenarioSpec {
            name: format!("case_{seed}"),
            description: format!("generated round-trip case, seed {seed}"),
            fleet: FleetSpec {
                workers,
                seed,
                scheme: SCHEMES[scheme_idx].to_string(),
                procurement: [
                    ProcurementPolicy::OnDemandOnly,
                    ProcurementPolicy::SpotOnly,
                    ProcurementPolicy::Hybrid,
                ][proc_idx],
                availability: [
                    SpotAvailability::High,
                    SpotAvailability::Moderate,
                    SpotAvailability::Low,
                ][avail_idx],
                provider: [Provider::Aws, Provider::Azure, Provider::Gcp][provider_idx],
                slo_mult,
                revocation_check_secs: timing_a,
                vm_startup_secs: timing_b,
                procurement_retry_secs: timing_c,
                prewarm,
                cold_start_secs: timing_d,
            },
            trace: TraceSpec {
                csv: None,
                model: MODELS[model_idx],
                kind,
                rps,
                duration_secs,
                strict_fraction,
                be_pool: be_pool_raw.iter().map(|&i| MODELS[i]).collect(),
                be_rotation_secs,
                batch_arrivals,
                pulse_low_rps,
                pulse_period_secs,
                pulse_duty,
                bursts: bursts_raw
                    .iter()
                    .map(|&(start_secs, duration_secs, add_rps)| BurstSpec {
                        start_secs,
                        duration_secs,
                        add_rps,
                    })
                    .collect(),
            },
            market: MarketSpec {
                script: (0..script_len)
                    .map(|i| if script_bits >> i & 1 == 1 { 'g' } else { 'd' })
                    .collect(),
                deny_rest,
                evictions: evictions_raw
                    .iter()
                    .map(|&(frac, at_secs, lead_secs)| EvictionSpec {
                        worker: worker_at(frac),
                        at_secs,
                        lead_secs,
                    })
                    .collect(),
                storms: storms_raw
                    .iter()
                    .map(|(fracs, at_secs, lead_secs, lead_jitter_secs, jitter_seed)| StormSpec {
                        workers: fracs.iter().map(|&f| worker_at(f)).collect(),
                        at_secs: *at_secs,
                        lead_secs: *lead_secs,
                        lead_jitter_secs: *lead_jitter_secs,
                        jitter_seed: *jitter_seed,
                    })
                    .collect(),
            },
            expect: ExpectSpec {
                min_evictions: (exp_flags & 1 != 0).then_some(exp_ev),
                min_reconfigs: (exp_flags & 2 != 0).then_some(exp_rc),
                max_censored: (exp_flags & 4 != 0).then_some(exp_cens),
            },
        };
        let toml = spec.to_toml();
        let reparsed = match scenario::parse(&toml) {
            Ok(s) => s,
            Err(e) => return Err(format!("canonical TOML failed to reparse: {e}\n---\n{toml}")),
        };
        prop_assert_eq!(&reparsed, &spec, "round-trip mismatch\n---\n{}", toml);
    }
}

/// Every shipped catalog file also satisfies the round-trip contract:
/// parse → to_toml → parse is identity (comments are the only loss).
#[test]
fn catalog_files_round_trip_through_canonical_toml() {
    let files = scenario::catalog_files(&catalog_dir()).expect("scenarios/ must be readable");
    assert!(
        files.len() >= 8,
        "catalog must hold at least 8 scenarios, found {}",
        files.len()
    );
    for file in files {
        let spec = scenario::load_file(&file)
            .unwrap_or_else(|e| panic!("{} failed to parse: {e}", file.display()));
        let reparsed = scenario::parse(&spec.to_toml())
            .unwrap_or_else(|e| panic!("{} canonical form failed to reparse: {e}", file.display()));
        assert_eq!(reparsed, spec, "{} round-trip mismatch", file.display());
    }
}

// ---------------------------------------------------------------------------
// 2. Differential: hand-built vs DSL twin
// ---------------------------------------------------------------------------

/// Golden config A: hybrid fleet, grant/deny script, two scripted
/// evictions at distinct times. The hand-built side is written exactly
/// the way the engine's own fault-injection tests write it.
#[test]
fn hand_built_market_matches_dsl_twin_on_scripted_evictions() {
    let mut config = ClusterConfig::paper_default();
    config.workers = 3;
    config.seed = 42;
    config.slo_multiplier = 3.0;
    config.procurement = ProcurementPolicy::Hybrid;
    config.availability = SpotAvailability::Low;
    config.provider = Provider::Aws;
    config.revocation_check = SimDuration::from_secs(5.0);
    config.vm_startup = SimDuration::from_secs(5.0);
    config.procurement_retry = SimDuration::from_secs(5.0);
    config.prewarm_containers = 4;
    config.cold_start = SimDuration::from_secs(8.0);
    config.audit = true;

    let trace_config = TraceConfig {
        shape: TraceShape::constant(240.0),
        duration: SimDuration::from_secs(40.0),
        strict_model: ModelId::ResNet50,
        strict_fraction: 0.5,
        be_pool: vec![ModelId::MobileNet],
        be_rotation_period: SimDuration::from_secs(20.0),
        batch_arrivals: false,
    };
    let trace = trace_config.generate(&RngFactory::new(config.seed));

    let mut market = ScriptedMarket::new()
        .evict(1, SimTime::from_secs(15.0), SimDuration::from_secs(5.0))
        .evict(2, SimTime::from_secs(20.0), SimDuration::from_secs(8.0))
        .grant_next(1)
        .deny_next(1);

    let scheme = ProteanBuilder::paper();
    let result = run_trace_with_oracle(&config, &scheme, trace, &mut market);
    let hand_digest = golden::digest(&result);

    let twin = "\
name = \"golden_a_twin\"
description = \"DSL twin of the hand-built scripted-eviction config\"

[fleet]
workers = 3
seed = 42
scheme = \"protean\"
procurement = \"hybrid\"
availability = \"low\"

[trace]
model = \"resnet50\"
kind = \"constant\"
rps = 240
duration_secs = 40
be_pool = [\"mobilenet\"]

[market]
script = \"gd\"

[[market.eviction]]
worker = 1
at_secs = 15
lead_secs = 5

[[market.eviction]]
worker = 2
at_secs = 20
lead_secs = 8
";
    let spec = scenario::parse(twin).expect("twin must parse");
    let outcome = scenario::run(&spec, Path::new("."), false).expect("twin must run green");
    assert_eq!(
        outcome.digest, hand_digest,
        "DSL twin diverged from the hand-built run"
    );
    assert!(
        result.cost.evictions >= 1,
        "the scripted evictions must land"
    );
}

/// Golden config B: an eviction storm whose notice leads come from the
/// documented jitter stream. The hand-built side draws the same leads
/// from `RngFactory::new(seed).indexed_stream("scenario.storm.lead", i)`
/// in listed worker order — the contract DESIGN.md documents.
#[test]
fn hand_built_market_matches_dsl_twin_on_jittered_storm() {
    let mut config = ClusterConfig::paper_default();
    config.workers = 4;
    config.seed = 7;
    config.slo_multiplier = 3.0;
    config.procurement = ProcurementPolicy::Hybrid;
    config.availability = SpotAvailability::Low;
    config.provider = Provider::Aws;
    config.revocation_check = SimDuration::from_secs(5.0);
    config.vm_startup = SimDuration::from_secs(5.0);
    config.procurement_retry = SimDuration::from_secs(5.0);
    config.prewarm_containers = 2;
    config.cold_start = SimDuration::from_secs(8.0);
    config.audit = true;

    let mut be_pool = catalog().opposite_pool(ModelId::ResNet50);
    if be_pool.is_empty() {
        be_pool.push(ModelId::ResNet50);
    }
    let trace_config = TraceConfig {
        shape: TraceShape::wiki(260.0),
        duration: SimDuration::from_secs(45.0),
        strict_model: ModelId::ResNet50,
        strict_fraction: 0.5,
        be_pool,
        be_rotation_period: SimDuration::from_secs(20.0),
        batch_arrivals: false,
    };
    let trace = trace_config.generate(&RngFactory::new(config.seed));

    let mut jitter = RngFactory::new(11).indexed_stream("scenario.storm.lead", 0);
    let lead0 = 6.0 + jitter.uniform() * 4.0;
    let lead2 = 6.0 + jitter.uniform() * 4.0;
    let mut market = ScriptedMarket::new()
        .evict(0, SimTime::from_secs(20.0), SimDuration::from_secs(lead0))
        .evict(2, SimTime::from_secs(20.0), SimDuration::from_secs(lead2));

    let scheme = ProteanBuilder::paper();
    let result = run_trace_with_oracle(&config, &scheme, trace, &mut market);
    let hand_digest = golden::digest(&result);

    let twin = "\
name = \"golden_b_twin\"
description = \"DSL twin of the hand-built jittered-storm config\"

[fleet]
workers = 4
seed = 7
scheme = \"protean\"
procurement = \"hybrid\"
availability = \"low\"
prewarm = 2

[trace]
model = \"resnet50\"
kind = \"wiki\"
rps = 260
duration_secs = 45

[[market.storm]]
workers = [0, 2]
at_secs = 20
lead_secs = 6
lead_jitter_secs = 4
jitter_seed = 11
";
    let spec = scenario::parse(twin).expect("twin must parse");
    let outcome = scenario::run(&spec, Path::new("."), false).expect("twin must run green");
    assert_eq!(
        outcome.digest, hand_digest,
        "DSL storm twin diverged from the hand-built run"
    );
    assert!(result.cost.evictions >= 1, "the storm must land");
}

// ---------------------------------------------------------------------------
// 3. Catalog + file-level errors
// ---------------------------------------------------------------------------

/// Every shipped scenario runs green in smoke mode: both engine arms,
/// audited/unaudited digest equality, clean audits, met expectations.
#[test]
fn shipped_catalog_runs_green_in_smoke_mode() {
    let dir = catalog_dir();
    let files = scenario::catalog_files(&dir).expect("scenarios/ must be readable");
    assert!(files.len() >= 8, "catalog shrank below 8 scenarios");
    let mut names = std::collections::BTreeSet::new();
    for file in files {
        let spec = scenario::load_file(&file)
            .unwrap_or_else(|e| panic!("{} failed to parse: {e}", file.display()));
        assert!(
            names.insert(spec.name.clone()),
            "duplicate scenario name '{}'",
            spec.name
        );
        scenario::run(&spec, &dir, true)
            .unwrap_or_else(|e| panic!("{} failed in smoke mode: {e}", file.display()));
    }
}

/// `load_file` errors carry the file path and the 1-based line of the
/// offending key, so a typo in a catalog file points at itself.
#[test]
fn load_file_errors_carry_path_and_line() {
    let dir = std::env::temp_dir().join("protean_scenario_dsl_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("typo.toml");
    std::fs::write(&path, "name = \"typo\"\n\n[fleet]\nworkerz = 3\n").unwrap();

    let err = scenario::load_file(&path).expect_err("unknown key must be rejected");
    match &err {
        ScenarioError::Parse { line, msg } => {
            assert_eq!(*line, 4, "error must point at the offending line: {err}");
            assert!(
                msg.contains("typo.toml"),
                "error must carry the path: {err}"
            );
            assert!(
                msg.contains("workerz"),
                "error must name the bad key: {err}"
            );
        }
        other => panic!("expected a Parse error, got: {other}"),
    }

    let missing = dir.join("does_not_exist.toml");
    let err = scenario::load_file(&missing).expect_err("missing file must be an error");
    assert!(
        err.to_string().contains("does_not_exist.toml"),
        "I/O error must carry the path: {err}"
    );
    std::fs::remove_file(&path).ok();
}
