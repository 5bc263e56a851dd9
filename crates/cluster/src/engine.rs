//! Run configuration, run results and the public entry points of a
//! cluster simulation. The discrete-event engine itself lives in
//! [`crate::event_loop`].

use std::num::NonZeroU64;

use protean_metrics::MetricsSet;
use protean_models::ModelId;
use protean_sim::{RngFactory, SimDuration, SimTime, TimeSeries};
use protean_spot::{ProcurementPolicy, Provider, SpotAvailability, SpotMarket, SpotOracle};
use protean_trace::{Trace, TraceConfig};

use crate::audit::AuditReport;
use crate::journal::Journal;
use crate::scheme::{DispatchPolicy, SchemeBuilder};

/// Monitor interval `W` driving autoscaling and reconfiguration (2 s).
pub const MONITOR_INTERVAL: SimDuration = SimDuration::from_micros(2_000_000);

/// Maximum time a partial batch waits before sealing (50 ms).
pub const BATCH_WINDOW: SimDuration = SimDuration::from_micros(50_000);

/// Max fraction of GPUs allowed to reconfigure simultaneously (§4.4:
/// ~30%). At least one GPU may always reconfigure.
pub const MAX_RECONFIG_FRACTION: f64 = 0.3;

/// Grace period after the trace ends to drain in-flight work before
/// censoring (5 s).
pub const DRAIN_GRACE: SimDuration = SimDuration::from_micros(5_000_000);

/// How many queued batches per scheduler-queue lane a pass may offer.
pub const SCAN_DEPTH: usize = 32;

/// Per-batch overhead of serving on a *time-shared* GPU/slice, in
/// milliseconds per GB of the model's working set: handing the GPU to a
/// different container (CUDA context activation, weights touch) costs
/// time proportional to the model's footprint. This is the §2.2 cost
/// that makes `Molecule (beta)`-style time sharing queue-prone despite
/// ~50% utilization (Fig. 10b).
pub const TIME_SHARE_OVERHEAD_MS_PER_GB: f64 = 8.0;

/// Fixed part of the same context switch (CUDA context activation),
/// milliseconds, paid per time-shared batch regardless of model size.
pub const TIME_SHARE_OVERHEAD_BASE_MS: f64 = 18.0;

/// Log-normal execution-time jitter (sigma of ln-space). Real batch
/// latencies vary run to run; jitter creates the queueing variance a
/// deterministic model would hide.
pub const EXEC_JITTER_SIGMA: f64 = 0.15;

/// What a caller varies between simulation runs: deployment (fleet
/// size, procurement, provider, cold start) and what the run records.
/// Scheduling policy is *not* here — that is the
/// [`crate::SchemeBuilder`] — nor is the SLO, which only scores a
/// finished run ([`SimulationResult::slo_fn`]), nor are the engine's fixed
/// control constants ([`MONITOR_INTERVAL`], [`BATCH_WINDOW`],
/// [`MAX_RECONFIG_FRACTION`], [`DRAIN_GRACE`], [`SCAN_DEPTH`],
/// [`TIME_SHARE_OVERHEAD_MS_PER_GB`], [`TIME_SHARE_OVERHEAD_BASE_MS`],
/// [`EXEC_JITTER_SIGMA`]), which the paper does not vary.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Worker nodes (one GPU each). Paper: 8.
    pub workers: usize,
    /// Root seed for every random stream in the run.
    pub seed: u64,
    /// Container cold-start latency (§2.1: up to tens of seconds).
    pub cold_start: SimDuration,
    /// Keep-alive before surplus warm containers are reclaimed (§4.2:
    /// ~10 minutes).
    pub keep_alive: SimDuration,
    /// MIG reconfiguration latency (§4.4: ~2 s).
    pub reconfig_delay: SimDuration,
    /// VM procurement policy (Fig. 9 schemes).
    pub procurement: ProcurementPolicy,
    /// Spot-market availability regime.
    pub availability: SpotAvailability,
    /// Interval between revocation checks per spot VM.
    pub revocation_check: SimDuration,
    /// Delay from VM grant to serving traffic.
    pub vm_startup: SimDuration,
    /// Retry interval after a failed (spot-only) procurement.
    pub procurement_retry: SimDuration,
    /// IaaS provider used for pricing.
    pub provider: Provider,
    /// Measurement warmup: requests arriving before this instant are
    /// served normally but excluded from metrics, so the initial
    /// cold-start ramp (absent from a long-running deployment) does not
    /// skew short simulations.
    pub warmup: SimDuration,
    /// Warm containers pre-provisioned per (worker, model in trace) at
    /// t=0, modelling the steady state of a long-running deployment
    /// whose keep-alive retains containers across BE-model rotations.
    /// Cold starts still occur when a surge needs more than this many
    /// concurrent batches per model per worker.
    pub prewarm_containers: usize,
    /// Predictive container pre-provisioning: when `true`, each monitor
    /// tick EWMA-forecasts the next window's batch arrivals per
    /// (worker, model) and boots any missing containers *ahead* of
    /// demand, taking the cold start off the critical path. An
    /// extension beyond the paper's reactive scale-up (§4.2); off by
    /// default.
    pub predictive_prewarm: bool,
    /// O(1)-memory metrics: store per-class latency histograms instead
    /// of per-request records, and skip the per-strict-batch latency
    /// timeline. Dispatch decisions, event ordering and RNG consumption
    /// are untouched — only what gets *recorded* changes — so the run
    /// itself is bit-identical; exact per-record outputs (golden
    /// digests, CDFs, tail breakdowns) need the default full mode.
    /// Required for ≥10⁹-request endurance runs, whose record store
    /// would otherwise grow without bound.
    pub aggregate_metrics: bool,
    /// Has no effect: the engine is one event loop over the whole
    /// fleet. Kept only because the `perf` benchmark driver still
    /// assigns it.
    pub shards: usize,
    /// Has no effect, like `shards`. Kept only because the `perf`
    /// benchmark driver still assigns and prints it.
    pub shard_threads: usize,
}

impl ClusterConfig {
    /// The paper's default setup: 8 workers, on-demand procurement.
    pub fn paper_default() -> Self {
        ClusterConfig {
            workers: 8,
            seed: 42,
            cold_start: SimDuration::from_secs(8.0),
            keep_alive: SimDuration::from_secs(600.0),
            reconfig_delay: SimDuration::from_secs(2.0),
            procurement: ProcurementPolicy::OnDemandOnly,
            availability: SpotAvailability::High,
            revocation_check: SimDuration::from_secs(60.0),
            vm_startup: SimDuration::from_secs(30.0),
            procurement_retry: SimDuration::from_secs(60.0),
            provider: Provider::Aws,
            warmup: SimDuration::from_secs(15.0),
            prewarm_containers: 4,
            predictive_prewarm: false,
            aggregate_metrics: false,
            shards: 1,
            shard_threads: 1,
        }
    }

    /// A 2-worker configuration for fast unit tests.
    pub fn small_test() -> Self {
        ClusterConfig {
            workers: 2,
            ..ClusterConfig::paper_default()
        }
    }
}

/// Dollar cost of a run (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostReport {
    /// Total, USD.
    pub total_usd: f64,
    /// Spot share, USD.
    pub spot_usd: f64,
    /// On-demand share, USD.
    pub on_demand_usd: f64,
    /// Evictions suffered.
    pub evictions: u64,
}

/// Event-loop health counters for one run, surfaced in
/// [`SimulationResult::stats`] so scheduling-discipline optimisations
/// are observable rather than asserted.
///
/// `finish_events_all_jobs` counts what the all-jobs re-projection
/// discipline *would* push: one `JobFinish` per resident job on every
/// slice-membership change. The next-completion-only engine pushes at
/// most one (`finish_events_pushed`), so the ratio between the two is
/// the heap-traffic reduction, measured per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Total events pushed onto the event queue (all types).
    pub events_pushed: u64,
    /// Total events popped from the event queue (a cancelled one never pops).
    pub events_popped: u64,
    /// The most entries the event heap held at once, cancelled ones
    /// included until they leave it. Container boots wait in a FIFO lane
    /// of their own and are not counted.
    pub peak_heap_len: usize,
    /// `JobFinish` events actually pushed.
    pub finish_events_pushed: u64,
    /// `JobFinish` events the all-jobs re-projection discipline would
    /// have pushed (the pre-optimisation baseline, counted live).
    pub finish_events_all_jobs: u64,
    /// `JobFinish` events cancelled (superseded by a later admit on the
    /// same slice, or dropped with an evicted GPU), after the cutoff too.
    pub stale_finish_events: u64,
    /// Queued batches offered for placement: each is either asked of
    /// `Scheme::place` or answered from the worker's decline memo.
    pub place_offers: u64,
    /// Offers answered from the decline memo without calling
    /// `Scheme::place` (a decline already returned for the same batch
    /// view under the same slice state).
    pub place_memo_skips: u64,
    /// The offers a placement pass looks up at its cursor; the rest of a
    /// declined view's run is answered without (audit rechecks aside).
    pub place_lookups: u64,
    /// `BootDone` events discarded because the worker's VM was replaced
    /// while the container boot was in flight.
    pub stale_boot_events: u64,
    /// Dispatch target selections performed (sealed batches plus
    /// eviction re-dispatches and backlog re-drains).
    pub dispatch_batches: u64,
    /// Worker slots examined across all dispatch target selections. The
    /// linear scan pays ~W per batch; the index pays O(log W) — so
    /// visits per batch is the direct measure of dispatch cost.
    pub dispatch_scan_visits: u64,
    /// Incremental maintenance operations applied to the dispatch
    /// index.
    pub index_updates: u64,
    /// Batches that bounced straight back to the gateway backlog during
    /// the drain pass that re-dispatched them (re-dispatch churn).
    pub backlog_requeued: u64,
    /// Requests dispatched at the gateway (arrivals at or before the
    /// cutoff).
    pub arrivals: u64,
    /// `WindowExpire` batch-window dispatches handled at or before the
    /// cutoff. A window is armed only by an arrival that opens a batch
    /// and leaves it open (so a whole-batch arrival arms none); it is
    /// cancelled, and never counted, when the batch fills first.
    pub expiries: u64,
    /// Always 0: the engine has no epochs. Kept only because the `perf`
    /// benchmark driver still reads it.
    pub epochs: u64,
    /// Always 0, like `epochs`.
    pub coalesced_arrivals: u64,
    /// Always 0, like `epochs`.
    pub coalesced_expiries: u64,
    /// Always all 0, like `epochs`.
    pub run_cutoffs: RunCutoffs,
}

/// Always all 0: the engine no longer peels dispatch runs. Kept only
/// because the `perf` benchmark driver still reads these fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCutoffs {
    pub serial_event: u64,
    pub shard_conflict: u64,
    pub expiry_shard_conflict: u64,
    pub max_arrivals: u64,
}

/// A completed MIG geometry change (Fig. 7 timeline).
#[derive(Debug, Clone, PartialEq)]
pub struct GeometryChange {
    /// When the new geometry came up.
    pub at: SimTime,
    /// Which worker.
    pub worker: usize,
    /// The new geometry, printed in paper notation.
    pub geometry: String,
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// Scheme name.
    pub scheme: String,
    /// Per-request records.
    pub metrics: MetricsSet,
    /// Dollar cost.
    pub cost: CostReport,
    /// Mean GPU compute utilization across workers (busy × compute
    /// share).
    pub compute_utilization: f64,
    /// Mean GPU memory utilization across workers.
    pub memory_utilization: f64,
    /// Per-worker GPU compute utilization (consolidating schemes
    /// concentrate load, so the busiest GPU tells a different story
    /// than the cluster mean).
    pub per_gpu_compute_utilization: Vec<f64>,
    /// Per-worker GPU memory utilization.
    pub per_gpu_memory_utilization: Vec<f64>,
    /// Container cold starts, one per `ColdStart` event, on every VM a
    /// worker ran.
    pub cold_starts: u64,
    /// Completed MIG reconfigurations.
    pub reconfigs: u64,
    /// Requests censored at the end of the run (still incomplete; they
    /// are recorded with the cutoff as completion time so overload shows
    /// up as SLO violations rather than vanishing).
    pub censored: u64,
    /// Geometry-change timeline.
    pub geometry_timeline: Vec<GeometryChange>,
    /// Per-strict-batch latency samples `(completion, latency_ms)`.
    pub strict_latency_timeline: TimeSeries,
    /// The recorded event journal (empty unless
    /// [`Observe::journal_capacity`] was set).
    pub journal: Journal,
    /// Event-loop health counters (heap traffic, stale events).
    pub stats: EngineStats,
    /// Invariant-audit outcome (inert unless [`Observe::audit`] was
    /// set).
    pub audit: AuditReport,
    /// Containers booted ahead of demand by predictive pre-provisioning
    /// (zero unless [`ClusterConfig::predictive_prewarm`] was set), one
    /// per `ProactiveBoot` event.
    pub proactive_boots: u64,
    /// Trace duration (excluding drain grace).
    pub duration: SimDuration,
    /// Worker count.
    pub workers: usize,
}

impl SimulationResult {
    /// The per-model strict SLO deadline: `multiplier ×` the model's
    /// solo 7g latency (paper: 3×, `protean_models::DEFAULT_SLO_MULTIPLIER`).
    pub fn slo_fn(multiplier: f64) -> impl Fn(ModelId) -> SimDuration {
        move |m| m.profile().slo_with_multiplier(multiplier)
    }
}

/// Where a run's requests come from.
#[derive(Debug)]
pub enum Arrivals<'a> {
    /// A materialised trace, e.g. one read from a CSV file.
    Trace(Trace),
    /// A trace materialised from this config, seeded by `config.seed`.
    Generate(&'a TraceConfig),
    /// [`Arrivals::Generate`]'s arrivals, bit for bit, drawn lazily: O(1)
    /// arrival memory (with [`ClusterConfig::aggregate_metrics`], O(1)
    /// output too).
    Stream(&'a TraceConfig),
}

/// What a run records about itself beyond its result. Each observer
/// only reads engine state, so a run's results are bit-identical with
/// any of them on or off. [`Observe::default`] turns every one off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Observe {
    /// Invariant auditing ([`crate::audit`]): `None` is off; `Some(n)`
    /// runs the O(cluster state) sweep on every `n`-th opportunity (each
    /// handled event and dispatched arrival run). The per-event and
    /// per-dispatch checks are never sampled.
    pub audit: Option<NonZeroU64>,
    /// Events recorded into [`SimulationResult::journal`]; 0 records none.
    pub journal_capacity: usize,
}

impl Observe {
    /// A full audit sweep after every event, and no journal.
    pub fn audited() -> Self {
        Observe {
            audit: Some(NonZeroU64::MIN),
            journal_capacity: 0,
        }
    }
}

/// Runs one simulation of `arrivals` under `scheme` on the cluster
/// `config` describes; everything but a given [`Arrivals::Trace`] is
/// seeded by `config.seed`. `oracle` replaces the spot market (`None`
/// builds the [`SpotMarket`] of `config.availability`), e.g. with a
/// [`crate::fault::ScriptedMarket`] whose counters stay inspectable
/// after the run. `observe` names what the run records about itself.
pub fn simulate(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    arrivals: Arrivals<'_>,
    oracle: Option<&mut dyn SpotOracle>,
    observe: Observe,
) -> SimulationResult {
    let mut market;
    let oracle: &mut dyn SpotOracle = match oracle {
        Some(oracle) => oracle,
        None => {
            let stream = RngFactory::new(config.seed).stream("spot.market");
            market = SpotMarket::new(config.availability, stream);
            &mut market
        }
    };
    crate::event_loop::run(config, scheme, arrivals, oracle, observe)
}

/// [`simulate`] over a materialised trace with an oracle and no
/// observer. Kept only because the `perf` benchmark driver still calls
/// it.
pub fn run_trace_with_oracle(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    trace: Trace,
    oracle: &mut dyn SpotOracle,
) -> SimulationResult {
    let arrivals = Arrivals::Trace(trace);
    simulate(config, scheme, arrivals, Some(oracle), Observe::default())
}

/// [`simulate`] over streamed arrivals with an oracle and no observer.
/// Kept only because the `perf` benchmark driver still calls it.
pub fn run_stream_with_oracle(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    trace_config: &TraceConfig,
    oracle: &mut dyn SpotOracle,
) -> SimulationResult {
    let arrivals = Arrivals::Stream(trace_config);
    simulate(config, scheme, arrivals, Some(oracle), Observe::default())
}

impl SchemeBuilder for &dyn SchemeBuilder {
    fn build(&self, worker: usize) -> Box<dyn crate::scheme::Scheme> {
        (**self).build(worker)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn dispatch_policy(&self) -> DispatchPolicy {
        (**self).dispatch_policy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes_for_test::AlwaysLargest;
    use protean_metrics::record::Class;
    use protean_spot::VmTier;
    use protean_trace::{Request, TraceShape};

    /// An unobserved run of `t` on the config's spot market.
    fn run(config: &ClusterConfig, t: &TraceConfig) -> SimulationResult {
        simulate(
            config,
            &AlwaysLargest,
            Arrivals::Generate(t),
            None,
            Observe::default(),
        )
    }

    /// A run of `t` on `market`, audited and journaling `journal_capacity` events.
    fn run_on(
        market: &mut crate::fault::ScriptedMarket,
        t: &TraceConfig,
        journal_capacity: usize,
    ) -> SimulationResult {
        let observe = Observe {
            journal_capacity,
            ..Observe::audited()
        };
        simulate(
            &spot_config(),
            &AlwaysLargest,
            Arrivals::Generate(t),
            Some(market),
            observe,
        )
    }

    fn trace(rps: f64, secs: f64, strict_fraction: f64) -> TraceConfig {
        TraceConfig {
            shape: TraceShape::constant(rps),
            duration: SimDuration::from_secs(secs),
            strict_model: ModelId::ResNet50,
            strict_fraction,
            be_pool: vec![ModelId::MobileNet],
            be_rotation_period: SimDuration::from_secs(20.0),
            batch_arrivals: false,
        }
    }

    #[test]
    fn all_measured_requests_accounted_for() {
        let config = ClusterConfig::small_test();
        let t = trace(400.0, 30.0, 0.5);
        let result = run(&config, &t);
        // Completed + censored must equal the post-warmup trace total.
        let factory = RngFactory::new(config.seed);
        let measured = t
            .generate(&factory)
            .iter()
            .filter(|r| r.arrival >= SimTime::ZERO + config.warmup)
            .count();
        assert_eq!(result.metrics.count(Class::All), measured);
        assert!(result.metrics.count(Class::All) > 1000);
    }

    #[test]
    fn light_load_is_slo_compliant() {
        let mut config = ClusterConfig::small_test();
        // Short cold starts so the initial ramp clears well before the
        // measurement window opens.
        config.cold_start = SimDuration::from_secs(2.0);
        let t = trace(100.0, 40.0, 0.5);
        let result = run(&config, &t);
        let slo = |m: ModelId| m.profile().slo();
        let compliance = result.metrics.slo_compliance(&slo);
        assert!(compliance > 0.9, "compliance {compliance}");
        assert_eq!(result.cost.evictions, 0);
        assert!(result.cost.total_usd > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let config = ClusterConfig::small_test();
        let t = trace(300.0, 5.0, 0.5);
        let a = run(&config, &t);
        let b = run(&config, &t);
        assert_eq!(a.metrics.count(Class::All), b.metrics.count(Class::All));
        let la = a.metrics.latency_percentile_ms(Class::All, 0.99);
        let lb = b.metrics.latency_percentile_ms(Class::All, 0.99);
        assert_eq!(la, lb);
        assert_eq!(a.cost.total_usd, b.cost.total_usd);
    }

    #[test]
    fn cold_starts_happen_then_warm_containers_reused() {
        let mut config = ClusterConfig::small_test();
        // Disable pre-warming so the cold-start ramp is observable.
        config.prewarm_containers = 0;
        // Long run: the initial ramp cold-starts, after which the
        // delayed-termination keep-alive serves everything warm.
        let t = trace(400.0, 60.0, 0.5);
        let short = run(&config, &trace(400.0, 20.0, 0.5));
        let long = run(&config, &t);
        assert!(long.cold_starts > 0);
        // Tripling the trace length adds almost no cold starts.
        assert!(
            long.cold_starts < short.cold_starts + short.cold_starts / 4 + 10,
            "short {} long {}",
            short.cold_starts,
            long.cold_starts
        );
    }

    #[test]
    fn utilization_is_positive_under_load() {
        let config = ClusterConfig::small_test();
        let t = trace(600.0, 10.0, 0.5);
        let result = run(&config, &t);
        assert!(result.compute_utilization > 0.01);
        assert!(result.memory_utilization > 0.001);
    }

    /// Config for the scripted-eviction tests: a 3-worker hybrid spot
    /// cluster with tight check/startup intervals.
    fn spot_config() -> ClusterConfig {
        let mut config = ClusterConfig::small_test();
        config.workers = 3;
        config.procurement = ProcurementPolicy::Hybrid;
        config.availability = SpotAvailability::Low;
        config.revocation_check = SimDuration::from_secs(5.0);
        config.vm_startup = SimDuration::from_secs(5.0);
        config.procurement_retry = SimDuration::from_secs(5.0);
        config
    }

    #[test]
    fn scripted_eviction_drives_the_spot_path_deterministically() {
        // No seed scanning: the scripted oracle evicts worker 0 at its
        // t=10 s revocation check with a 20 s notice lead, every run.
        let mut market = crate::fault::ScriptedMarket::new().evict(
            0,
            SimTime::from_secs(10.0),
            SimDuration::from_secs(20.0),
        );
        let t = trace(200.0, 60.0, 0.5);
        let result = run_on(&mut market, &t, 0);
        assert_eq!(result.cost.evictions, 1);
        assert_eq!(
            market.pending_evictions(),
            0,
            "scripted eviction unconsumed"
        );
        assert!(result.audit.is_clean(), "{:?}", result.audit.violations);
        // Hybrid keeps serving: nearly everything completes.
        let total = result.metrics.count(Class::All);
        assert!(result.censored < total as u64 / 10);
    }

    #[test]
    fn hybrid_is_cheaper_than_on_demand_under_high_availability() {
        let t = trace(200.0, 30.0, 0.5);
        let mut od = ClusterConfig::small_test();
        od.procurement = ProcurementPolicy::OnDemandOnly;
        let od_result = run(&od, &t);
        let mut hybrid = ClusterConfig::small_test();
        hybrid.procurement = ProcurementPolicy::Hybrid;
        let hy_result = run(&hybrid, &t);
        assert!(
            hy_result.cost.total_usd < od_result.cost.total_usd * 0.5,
            "hybrid {} vs od {}",
            hy_result.cost.total_usd,
            od_result.cost.total_usd
        );
    }

    #[test]
    fn evicting_workers_receive_no_new_batches() {
        // Journal the run and check no batch is dispatched to a worker
        // between its eviction notice and its VM replacement.
        let mut market = crate::fault::ScriptedMarket::new()
            .evict(1, SimTime::from_secs(10.0), SimDuration::from_secs(15.0))
            .evict(2, SimTime::from_secs(20.0), SimDuration::from_secs(10.0));
        let t = trace(300.0, 40.0, 0.5);
        let result = run_on(&mut market, &t, 500_000);
        use crate::journal::JournalEvent as E;
        // Build per-worker "unavailable" intervals [notice, installed).
        let mut down_since: std::collections::HashMap<usize, SimTime> = Default::default();
        let mut violations = 0;
        for (t, e) in result.journal.entries() {
            match e {
                E::EvictionNotice { worker, .. } => {
                    down_since.insert(*worker, *t);
                }
                E::VmInstalled { worker } => {
                    down_since.remove(worker);
                }
                E::BatchDispatched { worker, .. } if down_since.contains_key(worker) => {
                    violations += 1;
                }
                _ => {}
            }
        }
        assert_eq!(result.cost.evictions, 2, "both scripted evictions fire");
        assert_eq!(violations, 0, "batches routed to evicting workers");
        assert!(result.audit.is_clean(), "{:?}", result.audit.violations);
    }

    #[test]
    fn predictive_prewarm_takes_cold_starts_off_the_critical_path() {
        // A best-effort model serves [0, 20) s, disappears for 20 s
        // (long enough for the 10 s keep-alive to reclaim its
        // containers), and returns at t = 40 s. Reactive scaling
        // re-pays the cold start on the critical path at the return;
        // the predictive extension's per-model EWMA persists through
        // the absence and re-boots the containers ahead of it.
        let mk = |predictive: bool| {
            let mut config = ClusterConfig::small_test();
            config.prewarm_containers = 0;
            config.warmup = SimDuration::from_secs(25.0);
            config.keep_alive = SimDuration::from_secs(10.0);
            config.predictive_prewarm = predictive;
            let mut requests = Vec::new();
            let step_ms = 5.0; // 200 rps per stream
            for i in 0..(60_000.0 / step_ms) as u64 {
                let at = SimTime::from_millis(i as f64 * step_ms);
                let secs = at.as_secs_f64();
                requests.push(Request {
                    arrival: at,
                    model: ModelId::ResNet50,
                    strict: true,
                });
                if !(20.0..40.0).contains(&secs) {
                    requests.push(Request {
                        arrival: at,
                        model: ModelId::MobileNet,
                        strict: false,
                    });
                }
            }
            let trace = Trace::from_parts(requests, SimDuration::from_secs(60.0));
            let arrivals = Arrivals::Trace(trace);
            simulate(&config, &AlwaysLargest, arrivals, None, Observe::default())
        };
        let reactive = mk(false);
        let predictive = mk(true);
        let critical_cold = |r: &SimulationResult| {
            r.metrics
                .records()
                .filter(|rec| rec.breakdown.cold_start_ms > 0.0)
                .count()
        };
        let reactive_cold = critical_cold(&reactive);
        let predictive_cold = critical_cold(&predictive);
        // The comparison must not be vacuous: the reactive baseline has
        // to actually pay critical-path cold starts, and the predictive
        // run has to actually boot ahead of demand.
        assert!(reactive_cold > 0, "reactive baseline paid no cold starts");
        assert_eq!(reactive.proactive_boots, 0);
        assert!(
            predictive.proactive_boots > 0,
            "predictive run never booted ahead of demand"
        );
        assert!(
            predictive_cold * 2 <= reactive_cold,
            "predictive {predictive_cold} vs reactive {reactive_cold}"
        );
    }

    #[test]
    fn journal_records_the_batch_lifecycle() {
        let config = ClusterConfig::small_test();
        let t = trace(300.0, 25.0, 0.5);
        let observe = Observe {
            journal_capacity: 200_000,
            ..Observe::default()
        };
        let result = simulate(
            &config,
            &AlwaysLargest,
            Arrivals::Generate(&t),
            None,
            observe,
        );
        use crate::journal::JournalEvent as E;
        let sealed = result
            .journal
            .filter(|e| matches!(e, E::BatchSealed { .. }))
            .count();
        let dispatched = result
            .journal
            .filter(|e| matches!(e, E::BatchDispatched { .. }))
            .count();
        let placed = result
            .journal
            .filter(|e| matches!(e, E::BatchPlaced { .. }))
            .count();
        let finished = result
            .journal
            .filter(|e| matches!(e, E::BatchFinished { .. }))
            .count();
        assert!(sealed > 0);
        // Every sealed batch is dispatched exactly once (no evictions
        // in this run), placed, and finished (or censored at cutoff).
        assert_eq!(sealed, dispatched);
        assert!(placed <= dispatched);
        assert!(finished <= placed);
        assert!(placed >= sealed - 5, "placed {placed} vs sealed {sealed}");
        assert_eq!(result.journal.dropped(), 0);
        // Timestamps are monotone.
        let mut last = SimTime::ZERO;
        for (t, _) in result.journal.entries() {
            assert!(*t >= last);
            last = *t;
        }
    }

    #[test]
    fn journal_disabled_by_default() {
        let config = ClusterConfig::small_test();
        let t = trace(200.0, 10.0, 0.5);
        let result = run(&config, &t);
        assert!(result.journal.entries().is_empty());
    }

    #[test]
    fn evicted_work_is_redispatched_not_lost() {
        // Short notice leads evict two workers mid-run: their
        // queued/running batches must reappear elsewhere (total
        // accounting is exact).
        let config = spot_config();
        let mut market = crate::fault::ScriptedMarket::new()
            .evict(0, SimTime::from_secs(18.0), SimDuration::from_secs(6.0))
            .evict(2, SimTime::from_secs(25.0), SimDuration::from_secs(6.0));
        let t = trace(300.0, 45.0, 0.5);
        let result = run_on(&mut market, &t, 0);
        assert_eq!(result.cost.evictions, 2);
        let factory = RngFactory::new(config.seed);
        let expected = t
            .generate(&factory)
            .iter()
            .filter(|r| r.arrival >= SimTime::ZERO + config.warmup)
            .count();
        assert_eq!(result.metrics.count(Class::All), expected);
        assert!(result.audit.is_clean(), "{:?}", result.audit.violations);
    }

    #[test]
    fn spot_only_starts_degraded_under_low_availability() {
        // With P_rev = 0.708 most initial spot requests are denied:
        // fewer live workers, so on-demand-equivalent cost is far below
        // the full-cluster cost.
        let mut config = ClusterConfig::small_test();
        config.workers = 8;
        config.procurement = ProcurementPolicy::SpotOnly;
        config.availability = SpotAvailability::Low;
        let t = trace(300.0, 30.0, 0.5);
        let result = run(&config, &t);
        // 8 spot workers for the whole run would cost:
        let full = 8.0 * (t.duration + DRAIN_GRACE).as_secs_f64() / 3600.0
            * Provider::Aws.worker_price(VmTier::Spot);
        assert!(
            result.cost.total_usd < full * 0.9,
            "cost {} vs full {}",
            result.cost.total_usd,
            full
        );
    }

    #[test]
    fn overload_censors_but_accounts_for_everything() {
        // One worker, absurd rate: the run must terminate at the cutoff
        // with the backlog censored, not spin forever or drop requests.
        let mut config = ClusterConfig::small_test();
        config.workers = 1;
        config.warmup = SimDuration::from_secs(2.0);
        let t = trace(8000.0, 15.0, 0.5);
        let result = run(&config, &t);
        assert!(result.censored > 0, "expected censoring under overload");
        let factory = RngFactory::new(config.seed);
        let expected = t
            .generate(&factory)
            .iter()
            .filter(|r| r.arrival >= SimTime::ZERO + config.warmup)
            .count();
        assert_eq!(result.metrics.count(Class::All), expected);
        // Censored requests carry the cutoff as completion: none exceeds
        // the horizon.
        let horizon = t.duration + DRAIN_GRACE;
        for r in result.metrics.records() {
            assert!(r.latency() <= horizon);
        }
    }

    #[test]
    fn window_sealed_singletons_wait_the_batch_window() {
        // Request-level arrivals far below the batch size: every batch
        // seals by window expiry, so minimum latency includes the window.
        let mut config = ClusterConfig::small_test();
        config.warmup = SimDuration::from_secs(2.0);
        let t = trace(10.0, 20.0, 1.0); // strict-only trickle
        let mut t = t;
        t.be_pool.clear();
        let result = run(&config, &t);
        // At 10 rps nearly every batch is a singleton, so the typical
        // request waits out the full batch window before sealing.
        let p50 = result
            .metrics
            .latency_percentile_ms(Class::Strict, 0.5)
            .expect("some requests completed");
        assert!(
            p50 >= BATCH_WINDOW.as_millis_f64(),
            "P50 {p50} ms below the batch window"
        );
    }

    #[test]
    fn warmup_excludes_early_arrivals_only() {
        let config = ClusterConfig::small_test();
        let t = trace(200.0, 30.0, 0.5);
        let result = run(&config, &t);
        let measure_from = SimTime::ZERO + config.warmup;
        for r in result.metrics.records() {
            assert!(r.arrival >= measure_from, "pre-warmup request measured");
        }
    }
}
