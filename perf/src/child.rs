//! The three kinds of child process. Each runs in a fresh process so
//! that its peak RSS and allocator state are its own, and prints one
//! JSON line: `{"fingerprint": ..., "metrics": {...}}`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use protean::ProteanBuilder;
use protean_metrics::record::Class;

use crate::json;
use crate::probes;
use crate::procfs;
use crate::speed::calibrated;
use crate::timed::{clock_overhead_ns, ratio, SchemeTotals, TimedBuilder, TimedOracle};
use crate::workload::{self, Spec};

/// Metric name to value; `None` is reported as `null`.
pub type Values = BTreeMap<&'static str, Option<f64>>;

/// Not a declared metric: the wall time of the `run_*` call at reference
/// speed, which the parent compares between untraced and traced runs.
pub const WALL_S: &str = "wall_s";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Set-up cost: trace materialisation plus repeated empty runs.
    Setup,
    /// One untraced repetition: the end-to-end numbers.
    Rep,
    /// One run with the timing wrappers, plus the unit-cost probes.
    Traced,
}

impl Role {
    pub fn name(self) -> &'static str {
        match self {
            Role::Setup => "setup",
            Role::Rep => "rep",
            Role::Traced => "traced",
        }
    }

    pub fn parse(s: &str) -> Option<Role> {
        [Role::Setup, Role::Rep, Role::Traced]
            .into_iter()
            .find(|r| r.name() == s)
    }
}

/// Runs `role` and returns its fingerprint (none for set-up) and values.
pub fn run(role: Role, spec: &Spec, seed: u64, setup_budget_s: f64) -> (Option<String>, Values) {
    match role {
        Role::Setup => (None, setup(spec, seed, setup_budget_s)),
        Role::Rep => {
            let (fp, v) = rep(spec, seed);
            (Some(fp), v)
        }
        Role::Traced => {
            let (fp, v) = traced(spec, seed);
            (Some(fp), v)
        }
    }
}

/// The child's one output line.
pub fn report_line(fingerprint: Option<&str>, values: &Values) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::number(*v)))
        .collect();
    format!(
        "{{\"fingerprint\": {}, \"metrics\": {{{}}}}}",
        fingerprint.map_or("null".into(), json::quote),
        metrics.join(", ")
    )
}

fn or_null(r: Result<f64, String>, what: &str) -> Option<f64> {
    r.map_err(|reason| eprintln!("perf: {what} reported as null: {reason}"))
        .ok()
}

/// `setup_s`: trace materialisation (if the workload materialises) plus
/// the mean of empty runs repeated until `budget_s` has accumulated, in
/// reference-speed seconds.
fn setup(spec: &Spec, seed: u64, budget_s: f64) -> Values {
    let ((generate_s, empty_run_s), slowdown) = calibrated(|| {
        let generate_s = if spec.streamed {
            0.0
        } else {
            let trace = spec.trace(seed);
            let t0 = Instant::now();
            std::hint::black_box(trace.generate(&protean_sim::RngFactory::new(seed)));
            t0.elapsed().as_secs_f64()
        };
        let empty = spec.empty_run();
        let (mut runs, mut total) = (0u32, 0.0);
        while runs == 0 || total < budget_s {
            let t0 = Instant::now();
            std::hint::black_box(workload::run_untraced(&empty, seed));
            total += t0.elapsed().as_secs_f64();
            runs += 1;
        }
        (generate_s, total / f64::from(runs))
    });
    let (generate_s, empty_run_s) = (generate_s / slowdown, empty_run_s / slowdown);
    Values::from([
        ("setup_s", Some(generate_s + empty_run_s)),
        ("trace.generate_s", Some(generate_s)),
        ("engine.empty_run_s", Some(empty_run_s)),
    ])
}

fn rep(spec: &Spec, seed: u64) -> (String, Values) {
    let (run, slowdown) = calibrated(|| workload::run_untraced(spec, seed));
    let wall_s = run.wall_s / slowdown;
    let cpu = run.cpu_s.map(|c| c / run.wall_s);
    let values = Values::from([
        ("req_per_s", Some(run.result.stats.arrivals as f64 / wall_s)),
        ("peak_rss_mb", or_null(procfs::peak_rss_mb(), "peak_rss_mb")),
        ("host.cpu_per_wall", or_null(cpu, "host.cpu_per_wall")),
        ("bench.host_slowdown", Some(slowdown)),
        (WALL_S, Some(wall_s)),
    ]);
    (workload::fingerprint(&run.result), values)
}

fn traced(spec: &Spec, seed: u64) -> (String, Values) {
    let clock_ns = clock_overhead_ns();
    let totals = Arc::new(SchemeTotals::default());
    let protean = ProteanBuilder::paper();
    let builder = TimedBuilder {
        inner: &protean,
        totals: Arc::clone(&totals),
    };
    let mut oracle = TimedOracle::new(workload::market(&spec.cluster(seed)));
    let (run, slowdown) = calibrated(|| workload::run(spec, seed, &builder, &mut oracle));

    let r = &run.result;
    let s = &r.stats;
    let wall_ns = run.wall_s * 1e9;
    let (place, reconf) = (totals.place(), totals.reconfigure());
    let place_share = place.total_ns(clock_ns) / wall_ns;
    let reconf_share = reconf.total_ns(clock_ns) / wall_ns;
    let oracle_share =
        (oracle.revocation.total_ns(clock_ns) + oracle.acquisition.total_ns(clock_ns)) / wall_ns;
    let per_req = |n: u64| ratio(n, s.arrivals);
    let per_batch = |n: u64| ratio(n, s.dispatch_batches);
    let dispatch_events = s.arrivals + s.expiries;
    let cuts = &s.run_cutoffs;
    let (refresh_ns, query_ns) = probes::dispatch_ns(spec.workers, seed);
    let values = [
        ("scheme.place_calls_per_req", per_req(place.calls)),
        ("scheme.place_hit_ratio", place.hit_ratio()),
        ("scheme.place_ns_per_call", place.ns_per_call(clock_ns)),
        ("scheme.place_share", place_share),
        ("scheme.reconfigure_calls_per_req", per_req(reconf.calls)),
        (
            "scheme.reconfigure_ns_per_call",
            reconf.ns_per_call(clock_ns),
        ),
        ("scheme.reconfigure_share", reconf_share),
        ("scheme.reconfigure_request_ratio", reconf.hit_ratio()),
        ("spot.oracle_calls_per_req", per_req(oracle.total().calls)),
        ("spot.grant_ratio", oracle.acquisition.hit_ratio()),
        ("spot.oracle_share", oracle_share),
        ("spot.evictions", r.cost.evictions as f64),
        ("engine.events_per_req", per_req(s.events_popped)),
        ("engine.peak_heap_len", s.peak_heap_len as f64),
        (
            "engine.stale_finish_ratio",
            ratio(s.stale_finish_events, s.finish_events_pushed),
        ),
        (
            "engine.queue_push_pop_ns",
            probes::queue_push_pop_ns(s.peak_heap_len, seed),
        ),
        ("dispatch.batches_per_req", per_req(s.dispatch_batches)),
        (
            "dispatch.visits_per_batch",
            per_batch(s.dispatch_scan_visits),
        ),
        (
            "dispatch.index_updates_per_batch",
            per_batch(s.index_updates),
        ),
        (
            "dispatch.backlog_requeued_per_batch",
            per_batch(s.backlog_requeued),
        ),
        ("dispatch.refresh_ns", refresh_ns),
        ("dispatch.query_ns", query_ns),
        (
            "sharded.epochs_per_dispatch_event",
            ratio(s.epochs, dispatch_events),
        ),
        (
            "sharded.coalesced_share",
            ratio(s.coalesced_arrivals + s.coalesced_expiries, dispatch_events),
        ),
        (
            "sharded.cut_serial_share",
            ratio(cuts.serial_event, s.epochs),
        ),
        (
            "sharded.cut_conflict_share",
            ratio(cuts.shard_conflict + cuts.expiry_shard_conflict, s.epochs),
        ),
        ("sharded.cut_cap_share", ratio(cuts.max_arrivals, s.epochs)),
        (
            "container.cold_starts_per_kreq",
            1000.0 * per_req(r.cold_starts),
        ),
        (
            "gpu.reconfigs_per_sim_min",
            r.reconfigs as f64 / (r.duration.as_secs_f64() / 60.0),
        ),
        (
            "gpu.finish_events_per_batch",
            per_batch(s.finish_events_pushed),
        ),
        ("metrics.records", r.metrics.count(Class::All) as f64),
        (
            "metrics.push_ns",
            probes::metrics_push_ns(spec.streamed, seed),
        ),
        (
            "trace.draw_ns_per_req",
            probes::trace_draw_ns(&spec.trace(seed), seed),
        ),
        (
            "sim.strict_p99_ms",
            r.metrics
                .latency_percentile_ms(Class::Strict, 0.99)
                .unwrap_or(f64::NAN),
        ),
        (
            "sim.be_p99_ms",
            r.metrics
                .latency_percentile_ms(Class::BestEffort, 0.99)
                .unwrap_or(f64::NAN),
        ),
        ("sim.cost_usd", r.cost.total_usd),
        (
            "sim.censored_pct",
            100.0 * ratio(r.censored, r.metrics.count(Class::All) as u64),
        ),
        (
            "bench.unattributed_share",
            1.0 - (place_share + reconf_share + oracle_share),
        ),
        (WALL_S, run.wall_s / slowdown),
    ]
    .into_iter()
    .map(|(k, v)| (k, Some(v)))
    .collect();
    (workload::fingerprint(r), values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workload::Shape;

    /// Eight workers under hybrid spot procurement at low availability,
    /// with revocation checks and VM start-up short enough that a 20 s
    /// run sees evictions and replacements.
    fn small_spot(shards: usize) -> Spec {
        Spec {
            workers: 8,
            shards,
            spot: true,
            streamed: false,
            shape: Shape::Wiki,
            sim_secs: 20.0,
            warmup_secs: 5.0,
        }
    }

    #[test]
    fn wrappers_leave_the_run_unchanged_and_see_the_oracle() {
        for shards in [1, 2] {
            let spec = small_spot(shards);
            let bare = workload::run_untraced(&spec, 42);
            let totals = Arc::new(SchemeTotals::default());
            let protean = ProteanBuilder::paper();
            let builder = TimedBuilder {
                inner: &protean,
                totals: Arc::clone(&totals),
            };
            let mut oracle = TimedOracle::new(workload::market(&spec.cluster(42)));
            let wrapped = workload::run(&spec, 42, &builder, &mut oracle);
            assert_eq!(
                workload::fingerprint(&bare.result),
                workload::fingerprint(&wrapped.result),
                "shards={shards}"
            );
            assert!(oracle.total().calls > 0, "shards={shards}");
            assert!(totals.place().calls > 0 && totals.reconfigure().calls > 0);
        }
    }

    #[test]
    fn roles_emit_exactly_the_declared_metrics() {
        let spec = Spec {
            sim_secs: 8.0,
            ..small_spot(2)
        };
        let mut emitted: Vec<&str> = [Role::Setup, Role::Rep, Role::Traced]
            .into_iter()
            .flat_map(|role| run(role, &spec, 7, 0.0).1.into_keys())
            .filter(|&k| k != WALL_S)
            .collect();
        // Computed by the parent from the wall times of both kinds of run.
        emitted.push("bench.trace_overhead_pct");
        emitted.sort_unstable();
        let mut declared: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        declared.sort_unstable();
        assert_eq!(emitted, declared);
    }
}
