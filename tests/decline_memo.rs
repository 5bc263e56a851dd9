//! The per-worker decline memo under overload. On a pulse at 8x the
//! paper's operating point queues run deep and most placement offers
//! meet a full GPU; the memo answers repeats of a decline without
//! asking `Scheme::place`. Skipping must change nothing: a repeat run
//! reproduces the counters and the digest, and the audited run, which
//! re-asks every skipped offer, digests identically with a clean audit
//! and the same counters.
//! A scheme that breaks the `Scheme::place` contract fails that audit.

use std::num::NonZeroU64;
use std::path::Path;

use protean::ProteanBuilder;
use protean_cluster::{
    BatchView, EngineStats, Observe, Placement, PlacementCtx, Scheme, SchemeBuilder,
};
use protean_experiments::golden::digest;
use protean_experiments::scenario::{self, CompiledScenario};
use protean_experiments::setup::LANGUAGE_RPS;
use protean_gpu::{Geometry, SharingMode};
use protean_models::ModelId;
use protean_sim::SimDuration;

const WORKERS: usize = 64;

/// An audit with its full sweeps sampled 1 in 1024; every skipped
/// offer is still re-asked.
const AUDITED: Observe = Observe {
    audit: NonZeroU64::new(1024),
    journal_capacity: 0,
};

/// `perf`'s `pulse-2048` workload at 64 workers: 10 simulated seconds,
/// the first 5 at 8x the language operating point, the rest silent.
fn pulse(seed: u64) -> CompiledScenario {
    let mean = LANGUAGE_RPS * WORKERS as f64 / 8.0;
    let be = format!("[\"{}\"]", ModelId::Albert.opposite_pool()[0].slug());
    let keys = [
        ("trace.duration_secs", "10"),
        ("fleet.seed", &seed.to_string()),
        ("fleet.workers", &WORKERS.to_string()),
        ("trace.model", "albert"),
        ("trace.kind", "pulse"),
        ("trace.rps", &(8.0 * mean).to_string()),
        ("trace.pulse_period_secs", "10"),
        ("trace.be_pool", &be),
    ];
    let mut compiled = scenario::paper().with(&keys).compile(Path::new(""), false);
    compiled.config.warmup = SimDuration::from_secs(2.5);
    compiled
}

fn memo_counters(s: &EngineStats) -> [u64; 3] {
    [s.place_offers, s.place_memo_skips, s.stale_finish_events]
}

#[test]
fn overloaded_pulse_skips_declines_identically_when_audited() {
    let compiled = pulse(42);
    let scheme = ProteanBuilder::paper();
    let run = |observe| compiled.simulate(&scheme, observe).unwrap();
    let one = run(Observe::default());
    let s = &one.stats;
    // Pinned: no golden digest queues more than `SCAN_DEPTH` batches
    // on one worker, so these counts are what pins that constant (the
    // offers each placement pass may make). The last count is the
    // finishes a later admit cancelled, past the cutoff included.
    assert_eq!(memo_counters(s), [236_316, 218_907, 7_620]);
    // Pinned: a pass looks up the offer at its cursor, and the memo
    // answers the rest of a declined run of equal views without a
    // lookup. Every call of `Scheme::place` is made at a lookup.
    assert_eq!(s.place_lookups, 26_441);
    assert!(s.place_offers - s.place_memo_skips <= s.place_lookups);
    assert!(s.place_memo_skips > 0, "no offer was memoised: {s:?}");
    assert!(s.place_memo_skips < s.place_offers);
    let repeat = run(Observe::default());
    assert_eq!(memo_counters(&repeat.stats), memo_counters(s));
    assert_eq!(digest(&repeat), digest(&one));
    let audited = run(AUDITED);
    assert!(audited.audit.is_clean(), "{:?}", audited.audit.violations);
    assert_eq!(digest(&audited), digest(&one));
    assert_eq!(memo_counters(&audited.stats), memo_counters(s));
    assert_eq!(audited.stats.place_lookups, s.place_lookups);
}

/// Breaks the `Scheme::place` contract: declines its first `declines`
/// offers by a call counter, then always picks the whole GPU.
struct DeclinesFirst {
    declines: u64,
}

impl Scheme for DeclinesFirst {
    fn name(&self) -> &'static str {
        "declines-first"
    }
    fn initial_geometry(&self) -> Geometry {
        Geometry::full()
    }
    fn sharing_mode(&self) -> SharingMode {
        SharingMode::Mps
    }
    fn place(&mut self, _: &PlacementCtx<'_>, _: &BatchView) -> Option<Placement> {
        if self.declines > 0 {
            self.declines -= 1;
            return None;
        }
        Some(Placement::on_slice(0))
    }
}

impl SchemeBuilder for DeclinesFirst {
    fn build(&self, _worker: usize) -> Box<dyn Scheme> {
        Box::new(DeclinesFirst {
            declines: self.declines,
        })
    }
    fn name(&self) -> &'static str {
        "declines-first"
    }
}

#[test]
fn an_impure_decline_fails_the_audit() {
    let scheme = DeclinesFirst { declines: 3 };
    let result = pulse(7).simulate(&scheme, AUDITED).unwrap();
    assert!(result.stats.place_memo_skips > 0);
    assert!(!result.audit.is_clean());
    assert!(
        result.audit.violations[0].contains("declined under the same slice state"),
        "{:?}",
        result.audit.violations
    );
}
