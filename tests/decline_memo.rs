//! The per-worker decline memo under overload. On a pulse at 8x the
//! paper's operating point queues run deep and most placement offers
//! meet a full GPU; the memo answers repeats of a decline without
//! asking `Scheme::place`. Skipping must change nothing: a repeat run
//! reproduces the counters and the digest, and the audited run, which
//! re-asks every skipped offer, digests identically with a clean audit.
//! A scheme that breaks the `Scheme::place` contract fails that audit.

use protean::ProteanBuilder;
use protean_cluster::{
    run_simulation, BatchView, ClusterConfig, EngineStats, Placement, PlacementCtx, Scheme,
    SchemeBuilder,
};
use protean_experiments::golden::digest;
use protean_experiments::setup::LANGUAGE_RPS;
use protean_experiments::PaperSetup;
use protean_gpu::{Geometry, SharingMode};
use protean_models::ModelId;
use protean_sim::SimDuration;
use protean_trace::{TraceConfig, TraceShape};

const WORKERS: usize = 64;

/// `perf`'s `pulse-2048` workload at 64 workers: 10 simulated seconds,
/// the first 5 at 8x the language operating point, the rest silent.
fn pulse(seed: u64) -> (ClusterConfig, TraceConfig) {
    let setup = PaperSetup {
        duration_secs: 10.0,
        seed,
    };
    let mut config = setup.cluster();
    config.workers = WORKERS;
    config.warmup = SimDuration::from_secs(2.5);
    config.audit_every_n = 1024;
    let mut trace = setup.wiki_trace(ModelId::Albert);
    let mean = LANGUAGE_RPS * WORKERS as f64 / 8.0;
    trace.shape = TraceShape::pulse(8.0 * mean, SimDuration::from_secs(10.0));
    trace.be_pool.truncate(1);
    (config, trace)
}

fn memo_counters(s: &EngineStats) -> [u64; 4] {
    [
        s.place_offers,
        s.place_memo_skips,
        s.stale_finish_events,
        s.stale_finish_superseded,
    ]
}

#[test]
fn overloaded_pulse_skips_declines_identically_when_audited() {
    let (config, trace) = pulse(42);
    let scheme = ProteanBuilder::paper();
    let run = |audit: bool| {
        let mut c = config.clone();
        c.audit = audit;
        run_simulation(&c, &scheme, &trace)
    };
    let one = run(false);
    let s = &one.stats;
    // Pinned: no golden digest queues more than `SCAN_DEPTH` batches
    // on one worker, so these counts are what pins that constant (the
    // offers each placement pass may make).
    assert_eq!(memo_counters(s), [236_316, 218_907, 7_417, 7_417]);
    assert!(s.place_memo_skips > 0, "no offer was memoised: {s:?}");
    assert!(s.place_memo_skips < s.place_offers);
    assert!(s.stale_finish_superseded <= s.stale_finish_events);
    let repeat = run(false);
    assert_eq!(memo_counters(&repeat.stats), memo_counters(s));
    assert_eq!(digest(&repeat), digest(&one));
    let audited = run(true);
    assert!(audited.audit.is_clean(), "{:?}", audited.audit.violations);
    assert_eq!(digest(&audited), digest(&one));
    assert_eq!(memo_counters(&audited.stats), memo_counters(s));
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
    let (mut config, trace) = pulse(7);
    config.audit = true;
    let result = run_simulation(&config, &DeclinesFirst { declines: 3 }, &trace);
    assert!(result.stats.place_memo_skips > 0);
    assert!(!result.audit.is_clean());
    assert!(
        result.audit.violations[0].contains("declined under the same slice state"),
        "{:?}",
        result.audit.violations
    );
}
