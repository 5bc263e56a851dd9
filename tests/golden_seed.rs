//! Golden-seed equivalence: the engine's observable results are pinned
//! bit for bit against recorded digests (re-captured for the per-worker
//! jitter-stream relabel). Materialised, streamed, audited and
//! repeated runs must all reproduce these lines exactly — floats are
//! compared as `to_bits()` hex, so a
//! single ULP of drift anywhere in event ordering, RNG consumption or
//! arithmetic association fails the test.
//!
//! The digests read ten values of each result; the fingerprints read
//! all of it (see `golden::fingerprint`), in two prints: a behaviour
//! print over what the figures and report cards read, and an engine
//! print over `EngineStats`.
//!
//! Regenerate both tables with the `golden_digest` binary after an
//! *intentional* behaviour change, and name the fields a re-pin moves
//! with `--fields`:
//!
//! ```text
//! cargo run --release -p protean-experiments --bin golden_digest
//! cargo run --release -p protean-experiments --bin golden_digest -- --fields
//! ```

use std::path::Path;

use protean_cluster::{Observe, SimulationResult};
use protean_experiments::golden::{
    golden_digests, golden_digests_audited, golden_digests_streaming, golden_fingerprints,
    golden_specs,
};
use protean_experiments::{scenario, schemes};
use protean_metrics::record::Class;

/// Captured from the single-queue engine (per-worker jitter streams):
/// every scheme × seeds {42, 7, 1234} on the paper's 8-worker wiki
/// workload at 20 s, plus two spot-market runs covering eviction, VM
/// replacement and censoring.
const EXPECTED: &[&str] = &[
    "seed=42 Molecule (beta) n=26496 sp50=40649624dd2f1aa0 sp99=407160e147ae147b be99=406f3126e978d4fe cost=3fcd219652bd3c36 util=3fe144623d0bfa09 cold=0 rc=0 cens=0 ev=0",
    "seed=42 INFless/Llama n=26496 sp50=4073b5999999999a sp99=4081a0b020c49ba6 be99=40792f89374bc6a8 cost=3fcd219652bd3c36 util=3fc4fd8eec418733 cold=135 rc=0 cens=0 ev=0",
    "seed=42 Naive Slicing n=26496 sp50=4060e62d0e560419 sp99=4067f46a7ef9db23 be99=40576a3d70a3d70a cost=3fcd219652bd3c36 util=3fcd78232a5dd2b3 cold=0 rc=0 cens=0 ev=0",
    "seed=42 MIG Only n=26496 sp50=406938f5c28f5c29 sp99=4070522d0e560419 be99=406312a7ef9db22d cost=3fcd219652bd3c36 util=3fd48cb5ca8f2399 cold=0 rc=0 cens=0 ev=0",
    "seed=42 MPS+MIG n=26496 sp50=4060e6f9db22d0e5 sp99=4065e0dd2f1a9fbe be99=405aa54fdf3b645a cost=3fcd219652bd3c36 util=3fca862404e6d703 cold=0 rc=0 cens=0 ev=0",
    "seed=42 'Smart' MPS+MIG n=26496 sp50=4060b9604189374c sp99=406ff883126e978d be99=4057e72b020c49ba cost=3fcd219652bd3c36 util=3fcb7d793245f85c cold=0 rc=0 cens=0 ev=0",
    "seed=42 GPUlet n=26496 sp50=4061fb7ced916873 sp99=40694c28f5c28f5c be99=405ead810624dd2f cost=3fcd219652bd3c36 util=3fcbb91f3b2eaa39 cold=0 rc=0 cens=0 ev=0",
    "seed=42 PROTEAN n=26496 sp50=4060bd5810624dd3 sp99=4068783126e978d5 be99=4058bf4bc6a7ef9e cost=3fcd219652bd3c36 util=3fc8a43738ac8769 cold=0 rc=8 cens=0 ev=0",
    "seed=7 Molecule (beta) n=26112 sp50=40651d999999999a sp99=40735e24dd2f1aa0 be99=407079a1cac08312 cost=3fcd219652bd3c36 util=3fe23430994ff2b2 cold=0 rc=0 cens=0 ev=0",
    "seed=7 INFless/Llama n=26112 sp50=40776e83126e978d sp99=4082b124dd2f1aa0 be99=407fa50624dd2f1b cost=3fcd219652bd3c36 util=3fc6013c559bbde5 cold=160 rc=0 cens=0 ev=0",
    "seed=7 Naive Slicing n=26112 sp50=406085604189374c sp99=406a594fdf3b645a be99=405e54ed916872b0 cost=3fcd219652bd3c36 util=3fcf8acfb9afde65 cold=0 rc=0 cens=0 ev=0",
    "seed=7 MIG Only n=26112 sp50=4068a3b645a1cac1 sp99=407006395810624e be99=40665322d0e56042 cost=3fcd219652bd3c36 util=3fd562d970bdd21a cold=0 rc=0 cens=0 ev=0",
    "seed=7 MPS+MIG n=26112 sp50=406085604189374c sp99=4067721cac083127 be99=405f990624dd2f1b cost=3fcd219652bd3c36 util=3fcc97a9eaca8eaf cold=0 rc=0 cens=0 ev=0",
    "seed=7 'Smart' MPS+MIG n=26112 sp50=40602b020c49ba5e sp99=40712fdb22d0e560 be99=405f990624dd2f1b cost=3fcd219652bd3c36 util=3fcd1a6d636d2b76 cold=0 rc=0 cens=0 ev=0",
    "seed=7 GPUlet n=26112 sp50=406131f3b645a1cb sp99=406865db22d0e560 be99=4064c989374bc6a8 cost=3fcd219652bd3c36 util=3fcd238f310ae4e4 cold=0 rc=0 cens=0 ev=0",
    "seed=7 PROTEAN n=26112 sp50=40605589374bc6a8 sp99=4069d95810624dd3 be99=405f6883126e978d cost=3fcd219652bd3c36 util=3fc955e41975b570 cold=0 rc=8 cens=0 ev=0",
    "seed=1234 Molecule (beta) n=22528 sp50=4064d374bc6a7efa sp99=4072628f5c28f5c3 be99=4071346a7ef9db23 cost=3fcd219652bd3c36 util=3fe18a54096c904d cold=0 rc=0 cens=0 ev=0",
    "seed=1234 INFless/Llama n=22528 sp50=4074bad0e5604189 sp99=4082aa2d0e560419 be99=407c5b851eb851ec cost=3fcd219652bd3c36 util=3fc5027b5a695809 cold=158 rc=0 cens=0 ev=0",
    "seed=1234 Naive Slicing n=22528 sp50=4060bd4fdf3b645a sp99=406a4c6a7ef9db23 be99=405a5c395810624e cost=3fcd219652bd3c36 util=3fcdd8cf398e9707 cold=0 rc=0 cens=0 ev=0",
    "seed=1234 MIG Only n=22528 sp50=40690ea7ef9db22d sp99=40709e083126e979 be99=4063ff126e978d50 cost=3fcd219652bd3c36 util=3fd4c5040095a71c cold=0 rc=0 cens=0 ev=0",
    "seed=1234 MPS+MIG n=22528 sp50=4060b9a1cac08312 sp99=40684ee978d4fdf4 be99=405cd3a5e353f7cf cost=3fcd219652bd3c36 util=3fcb1e567a975103 cold=0 rc=0 cens=0 ev=0",
    "seed=1234 'Smart' MPS+MIG n=22528 sp50=406075b22d0e5604 sp99=406eb26e978d4fdf be99=405cd3a5e353f7cf cost=3fcd219652bd3c36 util=3fcbbaf189324f8f cold=0 rc=0 cens=0 ev=0",
    "seed=1234 GPUlet n=22528 sp50=40618ac083126e98 sp99=406c99db22d0e560 be99=4060820c49ba5e35 cost=3fcd219652bd3c36 util=3fcc0d07248c7c4e cold=0 rc=0 cens=0 ev=0",
    "seed=1234 PROTEAN n=22528 sp50=4060d03126e978d5 sp99=406b871a9fbe76c9 be99=4060b9374bc6a7f0 cost=3fcd219652bd3c36 util=3fc8607dd816ea45 cold=0 rc=8 cens=0 ev=0",
    "spot seed=3 PROTEAN n=70272 sp50=4070a90e56041893 sp99=40836b83126e978d be99=4074bab439581062 cost=3fbebbc18f0a9aa5 util=3fdcb8cdd661d711 cold=36 rc=0 cens=0 ev=1",
    "spot seed=11 PROTEAN n=72704 sp50=40c806c04189374c sp99=40d355fd0e560419 be99=40d3722f8d4fdf3b cost=3fb90d87cbca26b8 util=3fc9b81318c440a9 cold=290 rc=2 cens=72704 ev=3",
];

/// Both prints of every golden run, in the order of [`EXPECTED`].
const FINGERPRINTS: &[&str] = &[
    "seed=42 Molecule (beta) behaviour=d24b667510ced116 engine=450b6d615e46332f",
    "seed=42 INFless/Llama behaviour=73c8a4c4a11635ec engine=3ededeaf5f6fbd4a",
    "seed=42 Naive Slicing behaviour=4f74da2ad08bf3a4 engine=b51deb89b4dbe78f",
    "seed=42 MIG Only behaviour=3fa969bcb01f9a67 engine=d842c3a6b444027c",
    "seed=42 MPS+MIG behaviour=d5ec95325ca7cf35 engine=d7ed8791ac0736b4",
    "seed=42 'Smart' MPS+MIG behaviour=b62ea770da832524 engine=5afcb09c8aefceb5",
    "seed=42 GPUlet behaviour=2e635533d088e6e9 engine=47f3de60177271f1",
    "seed=42 PROTEAN behaviour=3773442f9eb36362 engine=cfbe28d1553d4a72",
    "seed=7 Molecule (beta) behaviour=1123f541ad21e466 engine=53ddc51b82bde359",
    "seed=7 INFless/Llama behaviour=af1821d89d5781ac engine=fa6e7caba3f02551",
    "seed=7 Naive Slicing behaviour=ccaf00ad8e72f548 engine=fa4a182f49fbbfca",
    "seed=7 MIG Only behaviour=3d0d7aca2d9725e4 engine=579902fe960c1dda",
    "seed=7 MPS+MIG behaviour=8fd875681142040b engine=4390e0136fc4de5f",
    "seed=7 'Smart' MPS+MIG behaviour=22cca4c2320f19bf engine=80d49ce01fe82c93",
    "seed=7 GPUlet behaviour=68bc61b603f84de4 engine=05fa5de25db77006",
    "seed=7 PROTEAN behaviour=925e732a4f4133dd engine=d593b2945d25c8ad",
    "seed=1234 Molecule (beta) behaviour=c9de179399649bb1 engine=76171d9a0a54706f",
    "seed=1234 INFless/Llama behaviour=ac829a010e8cf70f engine=2f94c4cd614e4771",
    "seed=1234 Naive Slicing behaviour=69bd130991887917 engine=e9a28f6d54524f35",
    "seed=1234 MIG Only behaviour=5cf4446523aa23f9 engine=e4ea838788eb82a4",
    "seed=1234 MPS+MIG behaviour=cd9d18519b931e88 engine=c6eb8b8f245a84c3",
    "seed=1234 'Smart' MPS+MIG behaviour=ffcb35e16a4dfbac engine=3e450a127a81af70",
    "seed=1234 GPUlet behaviour=36c0ad546bcf847a engine=0d6776cb5e0c9e14",
    "seed=1234 PROTEAN behaviour=3ab75689a6bc3d2c engine=549a809e8ca2bca9",
    "spot seed=3 PROTEAN behaviour=e9105063c4bacc6c engine=8cba973e79d8b843",
    "spot seed=11 PROTEAN behaviour=b1cde831b7c37bc3 engine=1a3fe902a324fdcf",
];

#[test]
fn results_are_bit_identical_to_recorded_digests() {
    let actual = golden_digests();
    assert_eq!(
        actual.len(),
        EXPECTED.len(),
        "digest count changed: got {}, recorded {}",
        actual.len(),
        EXPECTED.len()
    );
    let mut mismatches = Vec::new();
    for (got, want) in actual.iter().zip(EXPECTED) {
        if got != want {
            mismatches.push(format!("  got:      {got}\n  recorded: {want}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} digests drifted from the recorded engine behaviour:\n{}",
        mismatches.len(),
        EXPECTED.len(),
        mismatches.join("\n")
    );
}

/// The streaming arrival path (`Arrivals::Stream`) must
/// reproduce the materialised engine bit for bit on every golden
/// config — all eight schemes × three seeds plus the two spot-market
/// runs. Comparing against the same recorded constants (not just
/// stream-vs-materialized in-process) pins the streaming path to the
/// PR-1-era behaviour directly.
#[test]
fn streaming_arrivals_reproduce_the_recorded_digests() {
    let actual = golden_digests_streaming();
    assert_eq!(actual.len(), EXPECTED.len());
    let mut mismatches = Vec::new();
    for (got, want) in actual.iter().zip(EXPECTED) {
        if got != want {
            mismatches.push(format!("  streamed: {got}\n  recorded: {want}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} streamed digests diverged from the materialised engine:\n{}",
        mismatches.len(),
        EXPECTED.len(),
        mismatches.join("\n")
    );
}

/// Audited runs must reproduce the recorded digests bit for bit on
/// every golden config, with a clean audit: the auditor checks every
/// dispatch against the linear scans (`dispatch::reference_select`),
/// re-asks every memoised decline and sweeps the fleet after every
/// event, yet only reads engine state. The same runs journal every
/// event (none dropped), so the journal changes no digest either.
#[test]
fn audited_runs_reproduce_the_recorded_digests() {
    let actual = golden_digests_audited();
    assert_eq!(actual.len(), EXPECTED.len());
    let mut mismatches = Vec::new();
    for (got, want) in actual.iter().zip(EXPECTED) {
        if got != want {
            mismatches.push(format!("  audited:  {got}\n  recorded: {want}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} audited digests diverged from the recorded ones:\n{}",
        mismatches.len(),
        EXPECTED.len(),
        mismatches.join("\n")
    );
}

/// A second pass over the golden grid in the same process reproduces
/// the first, so no hash-seeded iteration order or leftover global
/// state reaches the digest.
#[test]
fn a_same_process_repeat_reproduces_the_digests() {
    let first = golden_digests();
    assert_eq!(first, golden_digests());
    assert_eq!(first, EXPECTED);
}

/// The whole result of every golden run, not just the ten digest
/// values, is pinned: every record, the figures' derived views, both
/// timelines and the engine counters.
#[test]
fn whole_results_match_the_recorded_fingerprints() {
    let actual = golden_fingerprints();
    let mismatches: Vec<String> = (actual.iter().zip(FINGERPRINTS))
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  got:      {got}\n  recorded: {want}"))
        .collect();
    assert_eq!(actual.len(), FINGERPRINTS.len());
    assert!(
        mismatches.is_empty(),
        "{} of {} fingerprints drifted (name the fields with `golden_digest --fields`):\n{}",
        mismatches.len(),
        FINGERPRINTS.len(),
        mismatches.join("\n")
    );
}

/// Each golden run is a scenario file's worth: its spec passes the
/// file checks and reparses from its TOML to itself.
#[test]
fn every_golden_spec_round_trips_through_its_toml() {
    for (label, spec) in golden_specs() {
        assert_eq!(scenario::parse(&spec.to_toml()), Ok(spec), "{label}");
    }
}

/// Output-mode relation: `aggregate_metrics` changes only what a run
/// records. On every golden spec the aggregate run has the full run's
/// engine stats, cost, lifecycle counters, per-class request counts and
/// geometry timeline. It records no strict latency timeline, the one
/// masked field, and its p50 and p99 lie within one histogram bucket
/// ratio (128 buckets per decade) of the exact ones.
#[test]
fn aggregate_metrics_change_only_what_a_run_records() {
    let bucket_ratio = 10f64.powf(1.0 / 128.0);
    for (label, spec) in golden_specs() {
        let mut compiled = spec.compile(Path::new(""), false);
        let scheme = schemes::by_name(&spec.fleet.scheme).expect("a known scheme");
        let mut run = |aggregate_metrics| {
            compiled.config.aggregate_metrics = aggregate_metrics;
            compiled
                .simulate(scheme.as_ref(), Observe::default())
                .unwrap()
        };
        let (full, agg) = (run(false), run(true));
        assert_eq!(agg.stats, full.stats, "{label}");
        assert_eq!(agg.cost, full.cost, "{label}");
        let counters =
            |r: &SimulationResult| [r.cold_starts, r.reconfigs, r.censored, r.proactive_boots];
        assert_eq!(counters(&agg), counters(&full), "{label}");
        assert_eq!(agg.geometry_timeline, full.geometry_timeline, "{label}");
        assert!(!full.strict_latency_timeline.is_empty(), "{label}");
        assert!(agg.strict_latency_timeline.is_empty(), "{label}");
        for class in [Class::All, Class::Strict, Class::BestEffort] {
            let count = |r: &SimulationResult| r.metrics.count(class);
            assert_eq!(count(&agg), count(&full), "{label} {class:?}");
            for q in [0.5, 0.99] {
                let quantile = |r: &SimulationResult| r.metrics.latency_percentile_ms(class, q);
                let (Some(exact), Some(approx)) = (quantile(&full), quantile(&agg)) else {
                    panic!("{label} {class:?} p{q}: a mode recorded no latency");
                };
                let ratio = (approx / exact).max(exact / approx);
                assert!(
                    ratio <= bucket_ratio,
                    "{label} {class:?} p{q}: aggregate {approx} ms vs exact {exact} ms"
                );
            }
        }
    }
}
