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
//! A digest reads ten values. A [`fingerprint`] reads the whole
//! result: every per-request record, the views the figures derive from
//! them, the cost, the utilizations, the counters, both timelines and
//! the engine's [`EngineStats`](protean_cluster::EngineStats), each
//! field hashed with FNV-1a over its `to_bits`.
//!
//! `tests/golden_seed.rs` compares [`golden_digests`] and
//! [`golden_fingerprints`] against recorded constants; the
//! `golden_digest` binary reprints them whenever a change
//! *intentionally* moves behaviour and the constants need
//! regenerating, and `golden_digest --fields` prints each field's hash
//! so a re-pin names the field it moves.

use std::path::Path;

use protean_cluster::{simulate, Arrivals, Observe, SimulationResult};
use protean_metrics::record::{Class, LatencyBreakdown};
use protean_models::DEFAULT_SLO_MULTIPLIER;

use crate::scenario::{self, ScenarioSpec, TraceSource};
use crate::schemes;

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

/// 64-bit FNV-1a. Hand-written rather than std's `DefaultHasher`, whose
/// algorithm may change between releases: a pinned print must not.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn breakdown(&mut self, b: &LatencyBreakdown) {
        let parts = [
            b.min_exec_ms,
            b.deficiency_ms,
            b.interference_ms,
            b.queueing_ms,
            b.cold_start_ms,
        ];
        parts.into_iter().for_each(|x| self.f64(x));
    }
}

/// The 64-bit FNV-1a hash of `bytes`, as the fingerprints hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

/// Which print a field of [`fingerprint_fields`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Print {
    /// What the figures and report cards read.
    Behaviour,
    /// [`EngineStats`](protean_cluster::EngineStats): heap traffic and
    /// dispatch work, which a queue or index change may move.
    Engine,
}

/// A run's two prints; see [`fingerprint_fields`] for what each reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV-1a over the hashes of the behaviour fields, in order.
    pub behaviour: u64,
    /// FNV-1a over the hashes of the engine fields, in order.
    pub engine: u64,
}

/// Every field of `result` with its print and its FNV-1a hash, in a
/// fixed order. Floats hash as `to_bits`, times as microseconds. The
/// derived views (tail breakdowns, CDFs, summaries) are hashed besides
/// the records they come from, so a bug in a view alone moves a print;
/// SLO compliance is read at the paper's 3x multiplier. The journal and
/// the audit report only observe a run and are left out.
pub fn fingerprint_fields(result: &SimulationResult) -> Vec<(&'static str, Print, u64)> {
    let m = &result.metrics;
    let slo = SimulationResult::slo_fn(DEFAULT_SLO_MULTIPLIER);
    let classes = [Class::All, Class::Strict, Class::BestEffort];
    let mut fields = Vec::new();
    let mut field = |name, print, fill: &mut dyn FnMut(&mut Fnv)| {
        let mut h = Fnv::new();
        fill(&mut h);
        fields.push((name, print, h.0));
    };
    let b = Print::Behaviour;
    field("scheme", b, &mut |h| h.bytes(result.scheme.as_bytes()));
    field("records", b, &mut |h| {
        for r in m.records() {
            h.u64(r.model as u64);
            h.u64(u64::from(r.strict));
            h.u64(r.arrival.as_micros());
            h.u64(r.completion.as_micros());
            h.breakdown(&r.breakdown);
        }
    });
    field("counts", b, &mut |h| {
        classes.into_iter().for_each(|c| h.u64(m.count(c) as u64))
    });
    field("tail_breakdowns", b, &mut |h| {
        for c in classes {
            for q in [0.5, 0.99] {
                match m.tail_breakdown(c, q) {
                    Some(t) => h.breakdown(&t),
                    None => h.u64(u64::MAX),
                }
            }
        }
    });
    field("cdfs", b, &mut |h| {
        for c in classes {
            for (latency, fraction) in m.latency_cdf(c, 50) {
                h.f64(latency);
                h.f64(fraction);
            }
        }
    });
    field("slo_compliance", b, &mut |h| h.f64(m.slo_compliance(&slo)));
    field("per_model_summaries", b, &mut |h| {
        for (model, s) in m.per_model_summaries(&slo) {
            h.u64(model as u64);
            h.u64(s.total as u64);
            h.u64(s.strict as u64);
            h.f64(s.slo_compliance);
            let ms = [s.strict_p50_ms, s.strict_p99_ms, s.be_p50_ms, s.be_p99_ms];
            ms.into_iter().for_each(|x| h.f64(x));
        }
    });
    field("total_usd", b, &mut |h| h.f64(result.cost.total_usd));
    field("spot_usd", b, &mut |h| h.f64(result.cost.spot_usd));
    field("on_demand_usd", b, &mut |h| {
        h.f64(result.cost.on_demand_usd)
    });
    field("evictions", b, &mut |h| h.u64(result.cost.evictions));
    field("compute_utilization", b, &mut |h| {
        h.f64(result.compute_utilization)
    });
    field("memory_utilization", b, &mut |h| {
        h.f64(result.memory_utilization)
    });
    field("per_gpu_compute_utilization", b, &mut |h| {
        result
            .per_gpu_compute_utilization
            .iter()
            .for_each(|&x| h.f64(x))
    });
    field("per_gpu_memory_utilization", b, &mut |h| {
        result
            .per_gpu_memory_utilization
            .iter()
            .for_each(|&x| h.f64(x))
    });
    field("cold_starts", b, &mut |h| h.u64(result.cold_starts));
    field("reconfigs", b, &mut |h| h.u64(result.reconfigs));
    field("censored", b, &mut |h| h.u64(result.censored));
    field("proactive_boots", b, &mut |h| h.u64(result.proactive_boots));
    field("geometry_timeline", b, &mut |h| {
        for g in &result.geometry_timeline {
            h.u64(g.at.as_micros());
            h.u64(g.worker as u64);
            h.bytes(g.geometry.as_bytes());
        }
    });
    field("strict_latency_timeline", b, &mut |h| {
        for &(at, ms) in result.strict_latency_timeline.points() {
            h.u64(at.as_micros());
            h.f64(ms);
        }
    });
    field("duration", b, &mut |h| h.u64(result.duration.as_micros()));
    field("workers", b, &mut |h| h.u64(result.workers as u64));
    let s = &result.stats;
    let c = &s.run_cutoffs;
    let counters = [
        ("events_pushed", s.events_pushed),
        ("events_popped", s.events_popped),
        ("peak_heap_len", s.peak_heap_len as u64),
        ("finish_events_pushed", s.finish_events_pushed),
        ("finish_events_all_jobs", s.finish_events_all_jobs),
        ("stale_finish_events", s.stale_finish_events),
        ("place_offers", s.place_offers),
        ("place_memo_skips", s.place_memo_skips),
        ("place_lookups", s.place_lookups),
        ("stale_boot_events", s.stale_boot_events),
        ("dispatch_batches", s.dispatch_batches),
        ("dispatch_scan_visits", s.dispatch_scan_visits),
        ("index_updates", s.index_updates),
        ("backlog_requeued", s.backlog_requeued),
        ("arrivals", s.arrivals),
        ("expiries", s.expiries),
        ("epochs", s.epochs),
        ("coalesced_arrivals", s.coalesced_arrivals),
        ("coalesced_expiries", s.coalesced_expiries),
    ];
    for (name, value) in counters {
        field(name, Print::Engine, &mut |h| h.u64(value));
    }
    field("run_cutoffs", Print::Engine, &mut |h| {
        let cuts = [c.serial_event, c.shard_conflict, c.expiry_shard_conflict];
        cuts.into_iter()
            .chain([c.max_arrivals])
            .for_each(|x| h.u64(x))
    });
    fields
}

/// `result`'s two prints: each is FNV-1a over its fields' hashes from
/// [`fingerprint_fields`].
pub fn fingerprint(result: &SimulationResult) -> Fingerprint {
    let fields = fingerprint_fields(result);
    let print = |which| {
        let mut h = Fnv::new();
        (fields.iter())
            .filter(|(_, print, _)| *print == which)
            .for_each(|&(_, _, hash)| h.u64(hash));
        h.0
    };
    Fingerprint {
        behaviour: print(Print::Behaviour),
        engine: print(Print::Engine),
    }
}

/// The spot-market runs' keys: a hybrid fleet of three workers under low
/// availability at a 5 s spot cadence, so that evictions, VM
/// replacement, re-dispatch and censoring all occur.
const SPOT: &[(&str, &str)] = &[
    ("trace.duration_secs", "30"),
    ("fleet.workers", "3"),
    ("fleet.procurement", "hybrid"),
    ("fleet.availability", "low"),
    ("fleet.revocation_check_secs", "5"),
    ("fleet.vm_startup_secs", "5"),
];

/// The golden grid as labelled specs, each [`scenario::paper`] with
/// keys set: every scheme the figures exercise × three seeds on the
/// paper's 8-worker Wiki/ResNet-50 workload at a 20 s trace, then
/// PROTEAN at two seeds on three workers of a hybrid fleet under low
/// spot availability.
pub fn golden_specs() -> Vec<(String, ScenarioSpec)> {
    let spec = |keys: &[_]| scenario::paper().with(keys);
    let schemes = [
        "molecule", "infless", "naive", "migonly", "mpsmig", "smart", "gpulet", "protean",
    ];
    let mut out = Vec::new();
    for seed in ["42", "7", "1234"] {
        for scheme in schemes {
            let keys = [
                ("trace.duration_secs", "20"),
                ("fleet.seed", seed),
                ("fleet.scheme", scheme),
            ];
            out.push((format!("seed={seed}"), spec(&keys)));
        }
    }
    for seed in ["3", "11"] {
        let keys = [SPOT, &[("fleet.seed", seed)]].concat();
        out.push((format!("spot seed={seed}"), spec(&keys)));
    }
    out
}

/// The golden grid ([`golden_specs`]), a line per run: its label and
/// its [`digest`].
pub fn golden_digests() -> Vec<String> {
    golden_runs(false, Observe::default(), digest_line)
}

fn digest_line(label: &str, result: &SimulationResult) -> String {
    format!("{label} {}", digest(result))
}

/// The golden grid's two prints per run: its label, its scheme, then
/// `behaviour=` and `engine=` hex (see [`fingerprint`]).
pub fn golden_fingerprints() -> Vec<String> {
    golden_runs(false, Observe::default(), |label, r| {
        let f = fingerprint(r);
        format!(
            "{label} {} behaviour={:016x} engine={:016x}",
            r.scheme, f.behaviour, f.engine
        )
    })
}

/// Every field's hash of every golden run, a line each: the run's label
/// and scheme, then `field=hash`.
pub fn golden_field_hashes() -> Vec<String> {
    let runs = golden_runs(false, Observe::default(), |label, r| {
        let fields = fingerprint_fields(r).into_iter();
        let line = |(name, _, hash)| format!("{label} {} {name}={hash:016x}", r.scheme);
        fields.map(line).collect::<Vec<_>>()
    });
    runs.concat()
}

/// [`golden_digests`] with every run driven through the streaming
/// arrival path ([`Arrivals::Stream`]). The streaming engine's
/// contract is digest equality with the materialised one, so this must
/// return exactly the same lines.
pub fn golden_digests_streaming() -> Vec<String> {
    golden_runs(true, Observe::default(), digest_line)
}

/// [`golden_digests`] with the invariant auditor sweeping after every
/// event and the journal on for every run. Both only observe the run,
/// so this must return exactly the same lines.
pub fn golden_digests_audited() -> Vec<String> {
    let observe = Observe {
        journal_capacity: 1 << 20,
        ..Observe::audited()
    };
    golden_runs(false, observe, digest_line)
}

/// Runs every golden spec under `observe` through
/// [`CompiledScenario::simulate`](crate::scenario::CompiledScenario::simulate),
/// or with `streamed` on [`Arrivals::Stream`] of its compiled trace, and
/// reads each result with `each(label, result)`. Panics if an audit
/// finds a violation or never swept, or the journal drops an event.
fn golden_runs<T>(
    streamed: bool,
    observe: Observe,
    each: impl Fn(&str, &SimulationResult) -> T,
) -> Vec<T> {
    let runs = golden_specs().into_iter().map(|(label, spec)| {
        let compiled = spec.compile(Path::new(""), false);
        let scheme = schemes::by_name(&compiled.scheme).expect("a known scheme");
        let result = match &compiled.trace {
            // The golden specs script no market.
            TraceSource::Config(trace) if streamed => {
                let arrivals = Arrivals::Stream(trace);
                simulate(&compiled.config, scheme.as_ref(), arrivals, None, observe)
            }
            _ => compiled
                .simulate(scheme.as_ref(), observe)
                .expect("a generated trace"),
        };
        assert!(result.audit.is_clean(), "{:?}", result.audit.violations);
        assert_eq!(result.audit.checks > 0, observe.audit.is_some(), "{label}");
        assert_eq!(result.journal.dropped(), 0, "{label}: journal overflow");
        each(&label, &result)
    });
    runs.collect()
}
