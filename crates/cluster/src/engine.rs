//! The discrete-event engine driving a full cluster simulation.

use std::collections::{HashMap, HashSet, VecDeque};

use protean_gpu::{JobId, JobSpec};
use protean_metrics::{LatencyBreakdown, MetricsSet, RequestRecord};
use protean_models::{Catalog, ModelId};
use protean_sim::{EventQueue, RngFactory, SimDuration, SimTime, TimeSeries};
use protean_spot::{
    PricingTable, ProcurementPolicy, Provider, SpotAvailability, SpotMarket, SpotOracle, VmId,
    VmLedger, VmTier,
};
use protean_trace::{Request, Trace, TraceConfig, TraceStream};

use crate::audit::{AuditReport, Auditor};
use crate::batch::{Accumulator, Batch, BatchId};
use crate::container::{Acquire, Pool};
use crate::dispatch::DispatchIndex;
use crate::journal::{Journal, JournalEvent};
use crate::scheme::{BatchView, DispatchPolicy, PlacementCtx, ReconfigCtx, SchemeBuilder};
use crate::worker::{RunningBatch, Worker, WorkerStatus};

/// Everything configurable about a simulation run. Scheduling policy is
/// *not* here — that is the [`crate::SchemeBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Worker nodes (one GPU each). Paper: 8.
    pub workers: usize,
    /// Root seed for every random stream in the run.
    pub seed: u64,
    /// Monitor interval `W` driving autoscaling and reconfiguration.
    pub monitor_interval: SimDuration,
    /// Maximum time a partial batch waits before sealing.
    pub batch_window: SimDuration,
    /// Container cold-start latency (§2.1: up to tens of seconds).
    pub cold_start: SimDuration,
    /// Keep-alive before surplus warm containers are reclaimed (§4.2:
    /// ~10 minutes).
    pub keep_alive: SimDuration,
    /// Strict SLO = `slo_multiplier ×` solo 7g latency (paper: 3×).
    pub slo_multiplier: f64,
    /// MIG reconfiguration latency (§4.4: ~2 s).
    pub reconfig_delay: SimDuration,
    /// Max fraction of GPUs allowed to reconfigure simultaneously
    /// (§4.4: ~30%).
    pub max_reconfig_fraction: f64,
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
    /// Grace period after the trace ends to drain in-flight work before
    /// censoring.
    pub drain_grace: SimDuration,
    /// How many queued batches each placement pass may inspect.
    pub scan_depth: usize,
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
    /// Per-batch overhead of serving on a *time-shared* GPU/slice, in
    /// milliseconds per GB of the model's working set: handing the GPU
    /// to a different container (CUDA context activation, weights
    /// touch) costs time proportional to the model's footprint. This is
    /// the §2.2 cost that makes `Molecule (beta)`-style time sharing
    /// queue-prone despite ~50% utilization (Fig. 10b).
    pub time_share_overhead_ms_per_gb: f64,
    /// Fixed part of the same context switch (CUDA context activation),
    /// milliseconds, paid per time-shared batch regardless of model
    /// size.
    pub time_share_overhead_base_ms: f64,
    /// Log-normal execution-time jitter (sigma of ln-space). Real batch
    /// latencies vary run to run; jitter creates the queueing variance a
    /// deterministic model would hide.
    pub exec_jitter_sigma: f64,
    /// Predictive container pre-provisioning: when `true`, each monitor
    /// tick EWMA-forecasts the next window's batch arrivals per
    /// (worker, model) and boots any missing containers *ahead* of
    /// demand, taking the cold start off the critical path. An
    /// extension beyond the paper's reactive scale-up (§4.2); off by
    /// default.
    pub predictive_prewarm: bool,
    /// Journal capacity: when non-zero, the engine records up to this
    /// many cluster events (batch lifecycle, reconfigurations, spot
    /// events) into [`SimulationResult::journal`] for post-hoc
    /// debugging. Zero (the default) disables recording.
    pub journal_capacity: usize,
    /// Invariant auditing: when `true`, the engine cross-checks the
    /// cluster-state conservation laws (container accounting, request
    /// accounting, ledger/VM-binding coherence, batch-lifecycle
    /// causality) after every handled event, reporting violations in
    /// [`SimulationResult::audit`]. The auditor only reads state, so
    /// results are bit-identical with it on or off; it is off by
    /// default because the sweep is O(cluster state) per event.
    pub audit: bool,
    /// Invariant-sweep sampling: run the full cluster-state audit on
    /// every `audit_every_n`-th opportunity (1 = every event, the
    /// default; 0 is treated as 1). The auditor is a pure observer, so
    /// sampling is digest-neutral; it exists so fleet-scale benchmark
    /// runs can keep auditing on without paying an O(cluster state)
    /// sweep per event. The O(1) batch-lifecycle checks stay unsampled.
    pub audit_every_n: u64,
    /// Selects the retained O(W) linear-scan dispatcher instead of the
    /// incremental [`crate::dispatch::DispatchIndex`]. Both paths pick
    /// the identical worker (same `(outstanding, idx)` tie-break); the
    /// reference exists as the baseline for fleet-scale benchmarks and
    /// for the differential tests that prove the equivalence.
    pub reference_dispatch: bool,
    /// O(1)-memory metrics: store per-class latency histograms instead
    /// of per-request records, and skip the per-strict-batch latency
    /// timeline. Dispatch decisions, event ordering and RNG consumption
    /// are untouched — only what gets *recorded* changes — so the run
    /// itself is bit-identical; exact per-record outputs (golden
    /// digests, CDFs, tail breakdowns) need the default full mode.
    /// Required for ≥10⁹-request endurance runs, whose record store
    /// would otherwise grow without bound.
    pub aggregate_metrics: bool,
    /// Fleet shards for intra-run parallelism. `1` (the default) runs
    /// the sequential engine unchanged; `> 1` partitions the workers
    /// across [`crate::sharded`]'s shard cores, which advance their own
    /// event heaps in parallel between synchronization epochs and merge
    /// to a digest **bit-identical** to the sequential engine (the same
    /// differential contract `reference_dispatch` pins for the dispatch
    /// index). Clamped to the worker count. Ignored (sequential path)
    /// when `reference_dispatch` is set — the linear-scan reference is
    /// inherently a whole-fleet scan.
    pub shards: usize,
    /// OS threads the sharded engine may occupy, *including* the
    /// coordinator thread (0 = auto: `available_parallelism`, which the
    /// experiment harness further divides against grid-cell
    /// parallelism). Shard phases with more participants than the
    /// budget run inline on the coordinator instead — same digests, no
    /// oversubscription. Setting `1` forces the sharded logic fully
    /// inline (useful on single-core hosts and in deterministic tests
    /// of the partitioned state machine).
    pub shard_threads: usize,
    /// Upper bound on how many consecutive arrivals the sharded
    /// coordinator may coalesce into one synchronization epoch
    /// (arrival-run coarsening). The coordinator only extends a run
    /// while doing so is *provably* exact — the next arrival must win
    /// its tie against every pending serial event and no shard may hold
    /// an event below the arrival's bound — so any value here yields
    /// bit-identical results; the cap merely bounds how long the
    /// coordinator defers its conflict re-checks. Values `<= 1` disable
    /// coarsening (one epoch per arrival, the PR-7 discipline), which
    /// is the differential arm the coarsening tests compare against.
    /// Ignored by the sequential engine (`effective_shards() == 1`),
    /// which has no epochs.
    pub max_epoch_arrivals: u64,
}

impl ClusterConfig {
    /// The paper's default setup: 8 workers, 2 s monitor interval, 3×
    /// SLO, on-demand procurement.
    pub fn paper_default() -> Self {
        ClusterConfig {
            workers: 8,
            seed: 42,
            monitor_interval: SimDuration::from_secs(2.0),
            batch_window: SimDuration::from_millis(50.0),
            cold_start: SimDuration::from_secs(8.0),
            keep_alive: SimDuration::from_secs(600.0),
            slo_multiplier: 3.0,
            reconfig_delay: SimDuration::from_secs(2.0),
            max_reconfig_fraction: 0.3,
            procurement: ProcurementPolicy::OnDemandOnly,
            availability: SpotAvailability::High,
            revocation_check: SimDuration::from_secs(60.0),
            vm_startup: SimDuration::from_secs(30.0),
            procurement_retry: SimDuration::from_secs(60.0),
            drain_grace: SimDuration::from_secs(5.0),
            scan_depth: 32,
            provider: Provider::Aws,
            warmup: SimDuration::from_secs(15.0),
            prewarm_containers: 4,
            time_share_overhead_ms_per_gb: 8.0,
            time_share_overhead_base_ms: 18.0,
            exec_jitter_sigma: 0.15,
            predictive_prewarm: false,
            journal_capacity: 0,
            audit: false,
            audit_every_n: 1,
            reference_dispatch: false,
            aggregate_metrics: false,
            shards: 1,
            shard_threads: 0,
            max_epoch_arrivals: 64,
        }
    }

    /// The shard count this configuration actually runs with: clamped
    /// to the fleet size, and forced to 1 (sequential) under
    /// `reference_dispatch`.
    pub fn effective_shards(&self) -> usize {
        if self.reference_dispatch {
            return 1;
        }
        self.shards.clamp(1, self.workers.max(1))
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
    /// Total events popped from the event queue.
    pub events_popped: u64,
    /// Largest heap size reached during the run.
    pub peak_heap_len: usize,
    /// `JobFinish` events actually pushed.
    pub finish_events_pushed: u64,
    /// `JobFinish` events the all-jobs re-projection discipline would
    /// have pushed (the pre-optimisation baseline, counted live).
    pub finish_events_all_jobs: u64,
    /// `JobFinish` events discarded as stale at pop time.
    pub stale_finish_events: u64,
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
    /// cutoff; half of the dispatch-event denominator of
    /// epochs-per-dispatch-event).
    pub arrivals: u64,
    /// `WindowExpire` batch-window dispatches handled at or before the
    /// cutoff (live and stale alike — staleness is a property of the
    /// accumulator, not of the event having fired). The other half of
    /// the dispatch-event denominator; counted identically by the
    /// sequential and sharded engines.
    pub expiries: u64,
    /// Dispatch-run epochs the sharded coordinator started: each run
    /// covers one or more consecutive dispatch-shaped events (arrivals
    /// and window expiries) whose intermediate phases were proven empty.
    /// Per-arrival mode (`max_epoch_arrivals <= 1`) records one epoch
    /// per dispatch event; the sequential engine records zero (it has
    /// no epochs).
    pub epochs: u64,
    /// Arrivals absorbed into a running epoch beyond each run's first
    /// member (the barrier launches coarsening avoided). Conservation:
    /// `epochs + coalesced_arrivals + coalesced_expiries ==
    /// arrivals + expiries`, audited at end of run when
    /// [`ClusterConfig::audit`] is set.
    pub coalesced_arrivals: u64,
    /// Window expiries absorbed into a running epoch beyond each run's
    /// first member — the serial synchronizations expiry admission
    /// eliminates. Part of the conservation identity above.
    pub coalesced_expiries: u64,
    /// Why each dispatch run ended, by cause. Every run is cut exactly
    /// once, so `run_cutoffs.total() == epochs` (also audited).
    pub run_cutoffs: RunCutoffs,
}

/// Per-cause accounting of dispatch-run terminations in the sharded
/// coordinator (see [`EngineStats::run_cutoffs`]). The causes are
/// mutually exclusive: the first one that fires ends the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCutoffs {
    /// A pending non-dispatch serial coordinator event (monitor tick —
    /// the reconfiguration trigger —, revocation check, eviction
    /// finalisation, VM arrival, procurement retry) won the tie against
    /// the next dispatch-shaped event, so the run must yield to it.
    pub serial_event: u64,
    /// Some shard held a pending worker-local event below the next
    /// arrival's bound: the intermediate phase would not be empty, so
    /// coalescing past it is not provably exact.
    pub shard_conflict: u64,
    /// Some shard held a pending worker-local event below the next
    /// window expiry's `EventKey`: admitting the expiry would elide a
    /// non-empty phase. Tracked apart from `shard_conflict` so the
    /// cut-cause table attributes arrival-bound and expiry-bound
    /// conflicts separately.
    pub expiry_shard_conflict: u64,
    /// The run reached [`ClusterConfig::max_epoch_arrivals`] members
    /// (arrivals and admitted expiries both count toward the cap).
    pub max_arrivals: u64,
    /// The coordinator's journal buffer reached
    /// [`ClusterConfig::journal_capacity`]: the journal can accept no
    /// further records, so deferring conflict re-checks buys nothing
    /// and the run is cut to keep the cutoff triad reconcilable.
    pub journal_pressure: u64,
    /// The trace ran out of arrivals (or the next arrival lies beyond
    /// the cutoff).
    pub trace_end: u64,
}

impl RunCutoffs {
    /// Total runs cut, across all causes.
    pub fn total(&self) -> u64 {
        self.serial_event
            + self.shard_conflict
            + self.expiry_shard_conflict
            + self.max_arrivals
            + self.journal_pressure
            + self.trace_end
    }
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
    /// Cold starts triggered.
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
    /// [`ClusterConfig::journal_capacity`] was set).
    pub journal: Journal,
    /// Event-loop health counters (heap traffic, stale events).
    pub stats: EngineStats,
    /// Invariant-audit outcome (inert unless [`ClusterConfig::audit`]
    /// was set).
    pub audit: AuditReport,
    /// Containers booted ahead of demand by predictive pre-provisioning
    /// (zero unless [`ClusterConfig::predictive_prewarm`] was set).
    pub proactive_boots: u64,
    /// Trace duration (excluding drain grace).
    pub duration: SimDuration,
    /// Worker count.
    pub workers: usize,
}

impl SimulationResult {
    /// The per-model SLO deadline function for this run's multiplier.
    pub fn slo_fn(catalog: &Catalog, multiplier: f64) -> impl Fn(ModelId) -> SimDuration + '_ {
        move |m| catalog.profile(m).slo_with_multiplier(multiplier)
    }
}

#[derive(Debug)]
enum Event {
    WindowExpire {
        model: ModelId,
        strict: bool,
        seq: u64,
    },
    BootDone {
        worker: usize,
        model: ModelId,
        /// The worker's VM incarnation when the boot was armed; a boot
        /// from a VM that has since been replaced is stale.
        vm_epoch: u64,
    },
    JobFinish {
        worker: usize,
        slice: usize,
        job: JobId,
        generation: u64,
        epoch: u64,
    },
    MonitorTick,
    ReconfigDone {
        worker: usize,
        epoch: u64,
    },
    RevocationCheck {
        worker: usize,
    },
    EvictionFinal {
        worker: usize,
    },
    VmReady {
        worker: usize,
        tier: VmTier,
    },
    ProcurementRetry {
        worker: usize,
    },
}

/// Runs one full simulation: generates the trace from `trace_config`
/// (seeded by `config.seed`), drives it through the cluster under
/// `scheme`, and returns metrics, cost and timelines.
pub fn run_simulation(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    trace_config: &TraceConfig,
) -> SimulationResult {
    let factory = RngFactory::new(config.seed);
    let trace = trace_config.generate(&factory);
    run_simulation_on(config, scheme, trace)
}

/// Runs a simulation over an already-materialised [`Trace`] — e.g. one
/// imported from a CSV file (`protean_trace::io`) or produced by an
/// external tool. Everything except the arrivals is still seeded by
/// `config.seed`.
pub fn run_simulation_on(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    trace: Trace,
) -> SimulationResult {
    let factory = RngFactory::new(config.seed);
    let mut market = SpotMarket::new(config.availability, factory.stream("spot.market"));
    run_trace_with_oracle(config, scheme, trace, &mut market)
}

/// Runs a simulation with the spot market replaced by an arbitrary
/// [`SpotOracle`] — in practice a
/// [`crate::fault::ScriptedMarket`], so tests can drive the eviction
/// and procurement machinery through exact adversarial interleavings
/// instead of scanning seeds for them. The oracle is borrowed, not
/// consumed, so its counters remain inspectable after the run.
pub fn run_simulation_with_oracle(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    trace_config: &TraceConfig,
    oracle: &mut dyn SpotOracle,
) -> SimulationResult {
    let factory = RngFactory::new(config.seed);
    let trace = trace_config.generate(&factory);
    run_trace_with_oracle(config, scheme, trace, oracle)
}

/// [`run_simulation_with_oracle`] over an already-materialised trace.
pub fn run_trace_with_oracle(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    trace: Trace,
    oracle: &mut dyn SpotOracle,
) -> SimulationResult {
    if config.effective_shards() > 1 {
        return crate::sharded::run_trace_sharded(config, scheme, trace, oracle);
    }
    let factory = RngFactory::new(config.seed);
    let catalog = Catalog::new();
    let mut engine = Engine::new(config, scheme, &catalog, &factory, oracle);
    let duration = trace.duration();
    engine.run(trace.into_requests(), duration);
    engine.into_result(scheme.name().to_string())
}

/// [`run_simulation`] with arrivals pulled lazily from
/// [`TraceConfig::stream`] instead of a materialised request vector:
/// bit-identical results (same seeded RNG streams, same event
/// interleaving), O(1) arrival memory. Combine with
/// [`ClusterConfig::aggregate_metrics`] for runs whose *output* must
/// also stay O(1) — that is the flat-RSS contract the billion-request
/// soak benchmarks pin.
pub fn run_simulation_streaming(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    trace_config: &TraceConfig,
) -> SimulationResult {
    let factory = RngFactory::new(config.seed);
    let mut market = SpotMarket::new(config.availability, factory.stream("spot.market"));
    run_stream_with_oracle(config, scheme, trace_config, &mut market)
}

/// [`run_simulation_streaming`] with the spot market replaced by an
/// arbitrary [`SpotOracle`] (see [`run_simulation_with_oracle`]).
pub fn run_stream_with_oracle(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    trace_config: &TraceConfig,
    oracle: &mut dyn SpotOracle,
) -> SimulationResult {
    if config.effective_shards() > 1 {
        return crate::sharded::run_stream_sharded(config, scheme, trace_config, oracle);
    }
    let factory = RngFactory::new(config.seed);
    let catalog = Catalog::new();
    let mut engine = Engine::new(config, scheme, &catalog, &factory, oracle);
    engine.run_streaming(trace_config.stream(&factory), trace_config.stream(&factory));
    engine.into_result(scheme.name().to_string())
}

struct Engine<'a> {
    config: &'a ClusterConfig,
    catalog: &'a Catalog,
    workers: Vec<Worker>,
    queue: EventQueue<Event>,
    now: SimTime,
    market: &'a mut dyn SpotOracle,
    ledger: VmLedger,
    accumulators: HashMap<(ModelId, bool), Accumulator>,
    backlog: VecDeque<Batch>,
    metrics: MetricsSet,
    strict_latency_timeline: TimeSeries,
    geometry_timeline: Vec<GeometryChange>,
    next_batch_id: u64,
    journal: Journal,
    /// One execution-jitter stream per worker
    /// (`indexed_stream("engine.exec_jitter", idx)`), so a worker's
    /// jitter sequence depends only on its own placement history — the
    /// property that lets the sharded engine draw jitter shard-locally
    /// and still match this engine bit for bit.
    jitter_rngs: Vec<protean_sim::SimRng>,
    dispatch_policy: DispatchPolicy,
    /// Reusable candidate buffer for `try_place` — the placement loop
    /// runs on every dispatch/boot/finish event, so it must not allocate
    /// a fresh `Vec` per pass.
    scratch_views: Vec<(BatchId, BatchView)>,
    /// Incremental index over worker dispatch state (status, GPU
    /// accepting, `outstanding`). Kept coherent even under
    /// `reference_dispatch` so the audit layer can cross-check it.
    index: DispatchIndex,
    /// Reusable distinct-model buffer for `prewarm_pools`.
    scratch_models: Vec<ModelId>,
    stats: EngineStats,
    audit: Auditor,
    reconfigs: u64,
    evictions: u64,
    censored: u64,
    cutoff: SimTime,
}

impl<'a> Engine<'a> {
    fn new(
        config: &'a ClusterConfig,
        scheme: &dyn SchemeBuilder,
        catalog: &'a Catalog,
        factory: &RngFactory,
        market: &'a mut dyn SpotOracle,
    ) -> Self {
        assert!(config.workers > 0, "cluster needs at least one worker");
        let ledger = VmLedger::new(PricingTable::paper_table3(), config.provider);
        let workers = (0..config.workers)
            .map(|i| Worker::new(i, scheme.build(i), SimTime::ZERO))
            .collect();
        let mut engine = Engine {
            config,
            catalog,
            workers,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            market,
            ledger,
            accumulators: HashMap::new(),
            backlog: VecDeque::new(),
            metrics: if config.aggregate_metrics {
                MetricsSet::aggregate()
            } else {
                MetricsSet::new()
            },
            strict_latency_timeline: TimeSeries::new(),
            geometry_timeline: Vec::new(),
            next_batch_id: 0,
            journal: Journal::new(config.journal_capacity),
            jitter_rngs: (0..config.workers)
                .map(|i| factory.indexed_stream("engine.exec_jitter", i as u64))
                .collect(),
            dispatch_policy: scheme.dispatch_policy(),
            scratch_views: Vec::new(),
            index: DispatchIndex::new(config.workers),
            scratch_models: Vec::new(),
            stats: EngineStats::default(),
            audit: Auditor::new(config.audit, config.audit_every_n),
            reconfigs: 0,
            evictions: 0,
            censored: 0,
            cutoff: SimTime::MAX,
        };
        engine.provision_initial_vms();
        engine
    }

    fn provision_initial_vms(&mut self) {
        for idx in 0..self.workers.len() {
            let policy = self.config.procurement;
            let tier = match policy {
                ProcurementPolicy::OnDemandOnly => Some(VmTier::OnDemand),
                _ => policy.replacement_tier(self.market.try_acquire_spot(self.now, idx)),
            };
            match tier {
                Some(tier) => {
                    let id = self.ledger.allocate_id();
                    self.ledger.open(id, tier, SimTime::ZERO);
                    let w = &mut self.workers[idx];
                    w.vm = Some((id, tier));
                    w.status = WorkerStatus::Up;
                    w.gpu.set_reconfig_delay(self.config.reconfig_delay);
                    if tier == VmTier::Spot {
                        self.queue.push(
                            SimTime::ZERO + self.config.revocation_check,
                            Event::RevocationCheck { worker: idx },
                        );
                    }
                }
                None => {
                    // Spot-only under scarcity: the slot starts empty.
                    self.workers[idx].status = WorkerStatus::Down;
                    self.queue.push(
                        SimTime::ZERO + self.config.procurement_retry,
                        Event::ProcurementRetry { worker: idx },
                    );
                }
            }
        }
        for idx in 0..self.workers.len() {
            self.refresh_index(idx);
        }
        self.queue.push(
            SimTime::ZERO + self.config.monitor_interval,
            Event::MonitorTick,
        );
    }

    /// Re-caches `idx`'s dispatch state in the index. Must follow any
    /// mutation of the worker's status, GPU accepting state, or
    /// `outstanding`. Reference-dispatch runs skip maintenance so the
    /// benchmark baseline pays exactly what the pre-index engine paid —
    /// unless the auditor is on, which keeps the index coherent so the
    /// cross-check against the linear scans stays active.
    fn refresh_index(&mut self, idx: usize) {
        if self.config.reference_dispatch && !self.config.audit {
            return;
        }
        self.index.refresh_worker(&self.workers[idx]);
    }

    fn run(&mut self, requests: Vec<Request>, duration: SimDuration) {
        // Every arrived request produces exactly one record (completed
        // or censored); reserving up front keeps million-request fleet
        // runs from re-growing the record store mid-measurement.
        self.metrics.reserve(requests.len());
        self.prewarm_pools(&requests);
        self.run_arrivals(requests.into_iter(), duration);
    }

    /// [`Engine::run`] pulling arrivals from a [`TraceStream`] instead
    /// of a materialised vector: identical event interleaving and RNG
    /// consumption (arrivals ride their own labeled streams), so the
    /// results are bit-identical to the materialised run, while the
    /// arrival store stays O(1) no matter how many requests the trace
    /// carries. A second stream instance feeds the prewarm pre-pass.
    fn run_streaming(&mut self, arrivals: TraceStream, prewarm_scan: TraceStream) {
        let duration = arrivals.duration();
        self.prewarm_pools_streaming(prewarm_scan);
        self.run_arrivals(arrivals, duration);
    }

    fn run_arrivals<I: Iterator<Item = Request>>(&mut self, arrivals: I, duration: SimDuration) {
        self.cutoff = SimTime::ZERO + duration + self.config.drain_grace;
        let mut arrivals = arrivals.peekable();
        loop {
            let next_arrival = arrivals.peek().map(|r| r.arrival);
            let next_event = self.queue.peek_time();
            match (next_arrival, next_event) {
                (Some(ta), Some(te)) if ta <= te => {
                    if ta > self.cutoff {
                        break;
                    }
                    self.now = ta;
                    let r = arrivals.next().expect("peeked");
                    self.dispatch(r);
                    self.audit
                        .check_cluster(self.now, &self.workers, &self.ledger, &self.index);
                }
                (Some(ta), None) => {
                    if ta > self.cutoff {
                        break;
                    }
                    self.now = ta;
                    let r = arrivals.next().expect("peeked");
                    self.dispatch(r);
                    self.audit
                        .check_cluster(self.now, &self.workers, &self.ledger, &self.index);
                }
                (_, Some(te)) => {
                    if te > self.cutoff {
                        break;
                    }
                    self.now = te;
                    let (_, ev) = self.queue.pop().expect("peeked");
                    self.handle(ev);
                    self.audit
                        .check_cluster(self.now, &self.workers, &self.ledger, &self.index);
                }
                (None, None) => break,
            }
        }
        self.now = self.cutoff;
        self.censor_remaining();
    }

    // ---- request path -------------------------------------------------

    /// Gateway: requests accumulate into per-(model, strictness)
    /// batches *before* dispatch (Fig. 4 order: reorder/batch, then
    /// serve), so batches fill at the cluster-wide arrival rate.
    fn dispatch(&mut self, request: Request) {
        self.stats.arrivals += 1;
        let batch_size = self.catalog.profile(request.model).batch_size;
        let key = (request.model, request.strict);
        let acc = self.accumulators.entry(key).or_default();
        let first = acc.push(request);
        if acc.len() as u32 >= batch_size {
            self.seal_batch(key);
        } else if first {
            let seq = self.accumulators[&key].seal_seq;
            self.queue.push(
                self.now + self.config.batch_window,
                Event::WindowExpire {
                    model: key.0,
                    strict: key.1,
                    seq,
                },
            );
        }
    }

    fn seal_batch(&mut self, key: (ModelId, bool)) {
        let requests = match self.accumulators.get_mut(&key) {
            Some(acc) if !acc.is_empty() => acc.seal(),
            _ => return,
        };
        let id = BatchId(self.next_batch_id);
        self.next_batch_id += 1;
        let batch = Batch {
            id,
            model: key.0,
            strict: key.1,
            requests,
            sealed_at: self.now,
            cold_wait_ms: 0.0,
            redispatched: false,
        };
        self.audit.batch_sealed(self.now, batch.id);
        self.journal.record(
            self.now,
            JournalEvent::BatchSealed {
                batch: batch.id,
                model: batch.model,
                strict: batch.strict,
                size: batch.size(),
            },
        );
        self.dispatch_batch(batch);
    }

    /// Pre-provisions warm containers for every model appearing in the
    /// trace (steady state of a long-running deployment).
    fn prewarm_pools(&mut self, requests: &[Request]) {
        if self.config.prewarm_containers == 0 {
            return;
        }
        let mut models = std::mem::take(&mut self.scratch_models);
        models.clear();
        let mut seen: HashSet<ModelId> = HashSet::new();
        let mut last: Option<ModelId> = None;
        for r in requests {
            // Traces run a model for long stretches; skipping repeats of
            // the previous model avoids hashing every request.
            if last == Some(r.model) {
                continue;
            }
            last = Some(r.model);
            if seen.insert(r.model) {
                models.push(r.model);
            }
        }
        self.prewarm_models(&models);
        self.scratch_models = models;
    }

    /// [`Engine::prewarm_pools`] for a streamed trace: walks a fresh
    /// stream instance collecting distinct models in the same
    /// first-appearance order the materialised scan sees, stopping as
    /// soon as every model the stream *can* produce
    /// ([`TraceStream::model_universe`]) has appeared — a few rotation
    /// periods in practice, never the full request count.
    fn prewarm_pools_streaming(&mut self, stream: TraceStream) {
        if self.config.prewarm_containers == 0 {
            return;
        }
        let universe = stream.model_universe().len();
        let mut models = std::mem::take(&mut self.scratch_models);
        models.clear();
        let mut seen: HashSet<ModelId> = HashSet::new();
        let mut last: Option<ModelId> = None;
        for r in stream {
            if last == Some(r.model) {
                continue;
            }
            last = Some(r.model);
            if seen.insert(r.model) {
                models.push(r.model);
                if models.len() >= universe {
                    break;
                }
            }
        }
        self.prewarm_models(&models);
        self.scratch_models = models;
    }

    fn prewarm_models(&mut self, models: &[ModelId]) {
        let now = self.now;
        let count = self.config.prewarm_containers;
        for w in &mut self.workers {
            // A worker already holding the prewarm quota for every trace
            // model needs no inserts — the dominant case on re-entry.
            let satisfied = models.iter().all(|m| {
                w.pools
                    .get(m)
                    .is_some_and(|p| p.total_containers() as usize >= count)
            });
            if satisfied {
                continue;
            }
            for &m in models {
                w.pools
                    .entry(m)
                    .or_insert_with(Pool::new)
                    .prewarm(now, count);
            }
        }
    }

    /// Dispatcher: routes a sealed batch per the scheme's policy —
    /// least-loaded live worker, or (INFless/Llama-style) consolidated
    /// onto the fewest GPUs with memory headroom. Target selection goes
    /// through the incremental [`DispatchIndex`] (O(log W) per batch)
    /// unless [`ClusterConfig::reference_dispatch`] re-selects the
    /// retained O(W) scans; both paths pick the identical worker.
    fn dispatch_batch(&mut self, batch: Batch) {
        self.stats.dispatch_batches += 1;
        let mut visits = 0u64;
        let target = if self.config.reference_dispatch {
            self.reference_target(&batch, &mut visits)
        } else {
            self.indexed_target(&batch, &mut visits)
        };
        self.stats.dispatch_scan_visits += visits;
        match target {
            Some(idx) => {
                self.audit.batch_dispatched(
                    self.now,
                    batch.id,
                    idx,
                    self.workers[idx].routable(),
                    batch.redispatched,
                );
                let w = &mut self.workers[idx];
                let n = batch.requests.len() as u64;
                w.outstanding += n;
                // Per-window load counters feed the reconfiguration
                // predictor; an eviction orphan's requests were already
                // counted at first dispatch, so re-counting them here
                // would double the apparent window load.
                if !batch.redispatched {
                    if batch.strict {
                        w.window_strict += n;
                    } else {
                        w.window_be += n;
                    }
                }
                if !batch.strict {
                    w.last_be_model = Some(batch.model);
                }
                // Per-model dispatch counts drive predictive container
                // pre-provisioning; the target worker needs a container
                // whether or not the batch is an orphan.
                *w.window_batches.entry(batch.model).or_insert(0) += 1;
                self.refresh_index(idx);
                self.journal.record(
                    self.now,
                    JournalEvent::BatchDispatched {
                        batch: batch.id,
                        worker: idx,
                        redispatch: batch.redispatched,
                    },
                );
                self.acquire_container(idx, batch);
            }
            None => self.backlog.push_back(batch),
        }
    }

    /// Indexed target selection. Preference order matches the linear
    /// path exactly: consolidate first-fit when the policy asks, then
    /// the least-loaded worker with an accepting GPU — a GPU draining
    /// for reconfiguration gets no new traffic (§4.4 keeps downtime
    /// local) — then any live worker if every GPU is mid-change.
    fn indexed_target(&mut self, batch: &Batch, visits: &mut u64) -> Option<usize> {
        let cap = match self.dispatch_policy {
            DispatchPolicy::Consolidate { cap_batches } => {
                Some(cap_batches * u64::from(self.catalog.profile(batch.model).batch_size))
            }
            DispatchPolicy::LoadBalance => None,
        };
        crate::dispatch::select_across(std::iter::once(&self.index), cap, visits)
    }

    /// The original O(W) scans, retained as the differential reference
    /// and the fleet-scale benchmark baseline
    /// ([`ClusterConfig::reference_dispatch`]).
    fn reference_target(&self, batch: &Batch, visits: &mut u64) -> Option<usize> {
        let consolidated = match self.dispatch_policy {
            DispatchPolicy::Consolidate { cap_batches } => {
                let cap = cap_batches * u64::from(self.catalog.profile(batch.model).batch_size);
                self.workers
                    .iter()
                    .find(|w| {
                        *visits += 1;
                        w.routable() && w.gpu.accepting() && w.outstanding < cap
                    })
                    .map(|w| w.idx)
            }
            DispatchPolicy::LoadBalance => None,
        };
        if consolidated.is_some() {
            return consolidated;
        }
        // Prefer workers whose GPU is accepting jobs; a GPU draining for
        // reconfiguration gets no new traffic (§4.4 keeps downtime
        // local). Fall back to any live worker if every GPU is mid-change.
        *visits += self.workers.len() as u64;
        let accepting = self
            .workers
            .iter()
            .filter(|w| w.routable() && w.gpu.accepting())
            .min_by_key(|w| (w.outstanding, w.idx))
            .map(|w| w.idx);
        if accepting.is_some() {
            return accepting;
        }
        *visits += self.workers.len() as u64;
        self.workers
            .iter()
            .filter(|w| w.routable())
            .min_by_key(|w| (w.outstanding, w.idx))
            .map(|w| w.idx)
    }

    fn acquire_container(&mut self, idx: usize, batch: Batch) {
        let model = batch.model;
        let now = self.now;
        let w = &mut self.workers[idx];
        let pool = w.pools.entry(model).or_default();
        match pool.acquire(now) {
            Acquire::Warm => {
                let mem = self.catalog.profile(model).mem_gb;
                w.sched_queue.push(batch, mem);
                self.try_place(idx);
            }
            Acquire::ColdStarted => {
                let vm_epoch = w.vm_epoch;
                w.wait_container.entry(model).or_default().push_back(batch);
                self.journal
                    .record(now, JournalEvent::ColdStart { worker: idx, model });
                self.queue.push(
                    now + self.config.cold_start,
                    Event::BootDone {
                        worker: idx,
                        model,
                        vm_epoch,
                    },
                );
            }
        }
    }

    fn try_place(&mut self, idx: usize) {
        // Take the scratch buffer so the loop body can borrow `self`
        // mutably; restored before returning.
        let mut views = std::mem::take(&mut self.scratch_views);
        loop {
            if !self.workers[idx].gpu.accepting() {
                break;
            }
            views.clear();
            self.workers[idx]
                .sched_queue
                .for_each_candidate(self.config.scan_depth, |b| {
                    views.push((
                        b.id,
                        BatchView {
                            model: b.model,
                            strict: b.strict,
                            size: b.size(),
                        },
                    ));
                });
            if views.is_empty() {
                break;
            }
            let mut placed_any = false;
            for &(batch_id, view) in &views {
                let w = &mut self.workers[idx];
                let placement = {
                    let ctx = PlacementCtx {
                        now: self.now,
                        gpu: &w.gpu,
                        queued_be_mem_gb: w.sched_queue.be_mem_gb(),
                        catalog: self.catalog,
                    };
                    w.scheme.place(&ctx, &view)
                };
                let Some(p) = placement else { continue };
                if p.slice >= w.gpu.slices().len() {
                    continue;
                }
                let profile = self.catalog.profile(view.model);
                let slice_profile = w.gpu.slice(p.slice).profile();
                // Inference batch latency is affine in batch size (see
                // ModelProfile::fill_factor), so partial (window-sealed)
                // batches run proportionally faster.
                let fill = f64::from(view.size) / f64::from(profile.batch_size);
                let fill_factor = profile.fill_factor(fill);
                let jitter = if self.config.exec_jitter_sigma > 0.0 {
                    (self.jitter_rngs[idx].standard_normal() * self.config.exec_jitter_sigma)
                        .exp()
                        .clamp(0.6, 1.7)
                } else {
                    1.0
                };
                let mut solo = profile
                    .solo_on(slice_profile)
                    .mul_f64(p.solo_scale.max(0.0) * fill_factor * jitter);
                if w.gpu.slice(p.slice).mode() == protean_gpu::SharingMode::TimeShared {
                    // Context switch between containers on a time-shared
                    // GPU (weights/context re-activation), scaling with
                    // the model's working set.
                    solo += SimDuration::from_millis(
                        self.config.time_share_overhead_base_ms
                            + self.config.time_share_overhead_ms_per_gb * profile.mem_gb,
                    );
                }
                let spec = JobSpec {
                    id: JobId(batch_id.0),
                    solo,
                    fbr: profile.fbr * p.fbr_scale.max(0.0),
                    mem_gb: profile.mem_gb,
                };
                let admitted = w.gpu.slice_mut(p.slice).admit(self.now, spec);
                match admitted {
                    Ok(next) => {
                        let batch = w
                            .sched_queue
                            .remove(batch_id, profile.mem_gb)
                            .expect("placed batch was queued");
                        w.running.insert(
                            batch_id,
                            RunningBatch {
                                batch,
                                slice: p.slice,
                                exec_start: self.now,
                                solo_on_slice_ms: solo.as_millis_f64(),
                                solo_7g_ms: profile.solo_7g.as_millis_f64() * fill_factor * jitter,
                            },
                        );
                        // One live finish event per slice: the admit
                        // bumped the generation, so whatever event was
                        // armed before is now stale. The all-jobs
                        // discipline would have re-pushed every
                        // resident here.
                        let epoch = w.epoch;
                        self.stats.finish_events_all_jobs +=
                            w.gpu.slice(p.slice).job_count() as u64;
                        self.stats.finish_events_pushed += 1;
                        self.queue.push(
                            next.at,
                            Event::JobFinish {
                                worker: idx,
                                slice: p.slice,
                                job: next.job,
                                generation: next.generation,
                                epoch,
                            },
                        );
                        self.audit.batch_placed(self.now, batch_id, idx);
                        self.journal.record(
                            self.now,
                            JournalEvent::BatchPlaced {
                                batch: batch_id,
                                worker: idx,
                                slice: p.slice,
                            },
                        );
                        placed_any = true;
                    }
                    Err(_) => {
                        // No room right now; the batch stays queued.
                    }
                }
            }
            if !placed_any {
                break;
            }
        }
        self.scratch_views = views;
    }

    // ---- event handlers ------------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::WindowExpire { model, strict, seq } => {
                self.stats.expiries += 1;
                let stale = self
                    .accumulators
                    .get(&(model, strict))
                    .is_none_or(|acc| acc.seal_seq != seq || acc.is_empty());
                if !stale {
                    self.seal_batch((model, strict));
                }
            }
            Event::BootDone {
                worker,
                model,
                vm_epoch,
            } => self.on_boot_done(worker, model, vm_epoch),
            Event::JobFinish {
                worker,
                slice,
                job,
                generation,
                epoch,
            } => self.on_job_finish(worker, slice, job, generation, epoch),
            Event::MonitorTick => self.on_monitor_tick(),
            Event::ReconfigDone { worker, epoch } => self.on_reconfig_done(worker, epoch),
            Event::RevocationCheck { worker } => self.on_revocation_check(worker),
            Event::EvictionFinal { worker } => self.on_eviction_final(worker),
            Event::VmReady { worker, tier } => self.on_vm_ready(worker, tier),
            Event::ProcurementRetry { worker } => self.on_procurement_retry(worker),
        }
    }

    fn on_boot_done(&mut self, idx: usize, model: ModelId, vm_epoch: u64) {
        let now = self.now;
        let w = &mut self.workers[idx];
        if w.vm_epoch != vm_epoch {
            // The VM this container was booting on has been replaced;
            // the boot died with it (the replacement VM's pools started
            // empty). Crediting it would mint a phantom container — or
            // underflow the fresh pool's booting count.
            self.stats.stale_boot_events += 1;
            return;
        }
        let waiting = w.wait_container.get_mut(&model).and_then(|q| q.pop_front());
        let pool = w.pools.entry(model).or_default();
        match waiting {
            Some(mut batch) => {
                pool.boot_done(now, true);
                batch.cold_wait_ms = now.saturating_since(batch.sealed_at).as_millis_f64();
                let mem = self.catalog.profile(model).mem_gb;
                w.sched_queue.push(batch, mem);
                self.try_place(idx);
            }
            None => pool.boot_done(now, false),
        }
    }

    fn on_job_finish(&mut self, idx: usize, slice: usize, job: JobId, generation: u64, epoch: u64) {
        let w = &mut self.workers[idx];
        if !w.finish_event_live(slice, generation, epoch) {
            self.stats.stale_finish_events += 1;
            return; // stale completion
        }
        let now = self.now;
        let (finished, next) = match w.gpu.slice_mut(slice).finish(now, job) {
            Ok(ok) => ok,
            Err(_) => {
                // Stale in a way the generation missed. The slice's
                // membership (and generation) did not change, so the
                // event just consumed was its only live one — re-arm it
                // or the residents would never finish.
                self.stats.stale_finish_events += 1;
                let epoch = w.epoch;
                if let Some(c) = w.gpu.slice(slice).next_completion(now) {
                    self.stats.finish_events_pushed += 1;
                    self.queue.push(
                        c.at,
                        Event::JobFinish {
                            worker: idx,
                            slice,
                            job: c.job,
                            generation: c.generation,
                            epoch,
                        },
                    );
                }
                return;
            }
        };
        let batch_id = BatchId(finished.spec.id.0);
        let Some(running) = w.running.remove(&batch_id) else {
            return;
        };
        // Re-arm the slice's single live finish event for the jobs still
        // resident (the all-jobs discipline would have re-pushed each).
        let new_epoch = w.epoch;
        self.stats.finish_events_all_jobs += w.gpu.slice(slice).job_count() as u64;
        if let Some(c) = next {
            self.stats.finish_events_pushed += 1;
            self.queue.push(
                c.at,
                Event::JobFinish {
                    worker: idx,
                    slice,
                    job: c.job,
                    generation: c.generation,
                    epoch: new_epoch,
                },
            );
        }
        self.audit.batch_finished(now, batch_id, idx);
        self.journal.record(
            now,
            JournalEvent::BatchFinished {
                batch: batch_id,
                worker: idx,
            },
        );
        self.record_batch_completion(idx, &running, now);
        // The container frees: reuse for a batch waiting on a container,
        // otherwise park warm.
        let model = running.batch.model;
        let w = &mut self.workers[idx];
        let next = w.wait_container.get_mut(&model).and_then(|q| q.pop_front());
        let pool = w.pools.entry(model).or_default();
        match next {
            Some(batch) => {
                pool.release(now, true);
                let mem = self.catalog.profile(model).mem_gb;
                w.sched_queue.push(batch, mem);
            }
            None => pool.release(now, false),
        }
        self.maybe_begin_reconfigure(idx);
        self.try_place(idx);
    }

    fn record_batch_completion(&mut self, idx: usize, running: &RunningBatch, now: SimTime) {
        let exec_ms = now.saturating_since(running.exec_start).as_millis_f64();
        let interference_ms = (exec_ms - running.solo_on_slice_ms).max(0.0);
        let deficiency_ms = (running.solo_on_slice_ms - running.solo_7g_ms).max(0.0);
        let cold_ms = running.batch.cold_wait_ms;
        let measure_from = SimTime::ZERO + self.config.warmup;
        let w = &mut self.workers[idx];
        for req in &running.batch.requests {
            if req.arrival < measure_from {
                w.outstanding = w.outstanding.saturating_sub(1);
                continue;
            }
            let total_ms = now.saturating_since(req.arrival).as_millis_f64();
            let queueing_ms =
                (total_ms - cold_ms - interference_ms - deficiency_ms - running.solo_7g_ms)
                    .max(0.0);
            self.metrics.push(RequestRecord {
                model: running.batch.model,
                strict: running.batch.strict,
                arrival: req.arrival,
                completion: now,
                breakdown: LatencyBreakdown {
                    min_exec_ms: running.solo_7g_ms,
                    deficiency_ms,
                    interference_ms,
                    queueing_ms,
                    cold_start_ms: cold_ms,
                },
            });
            w.outstanding = w.outstanding.saturating_sub(1);
        }
        // The timeline grows O(#strict batches); aggregate-metrics
        // runs trade it away for the flat-RSS guarantee.
        if running.batch.strict && !self.config.aggregate_metrics {
            let mean_lat_ms = running
                .batch
                .requests
                .iter()
                .map(|r| now.saturating_since(r.arrival).as_millis_f64())
                .sum::<f64>()
                / running.batch.requests.len().max(1) as f64;
            self.strict_latency_timeline.push(now, mean_lat_ms);
        }
        self.refresh_index(idx);
    }

    fn on_monitor_tick(&mut self) {
        let now = self.now;
        for idx in 0..self.workers.len() {
            // Delayed termination of surplus warm containers.
            let keep_alive = self.config.keep_alive;
            for pool in self.workers[idx].pools.values_mut() {
                pool.expire_idle(now, keep_alive);
            }
            self.predictive_prewarm_tick(idx);
            if !matches!(self.workers[idx].status, WorkerStatus::Up) {
                continue;
            }
            // Scheme reconfiguration hook.
            let desired = {
                let w = &mut self.workers[idx];
                let ctx = ReconfigCtx {
                    now,
                    gpu: &w.gpu,
                    window_be_requests: w.window_be,
                    window_strict_requests: w.window_strict,
                    be_model: w.last_be_model,
                    catalog: self.catalog,
                };
                let desired = w.scheme.reconfigure(&ctx);
                w.window_be = 0;
                w.window_strict = 0;
                desired
            };
            if let Some(geometry) = desired {
                if geometry != *self.workers[idx].gpu.geometry() && self.reconfig_slots_free() {
                    let _ = self.workers[idx].gpu.request_reconfigure(geometry);
                    self.refresh_index(idx);
                    self.maybe_begin_reconfigure(idx);
                }
            }
        }
        // Safety: drain the gateway backlog if any worker is routable.
        self.drain_backlog();
        if now + self.config.monitor_interval <= self.cutoff {
            self.queue
                .push(now + self.config.monitor_interval, Event::MonitorTick);
        }
    }

    /// EWMA smoothing factor for the per-(worker, model) batch-arrival
    /// predictor behind predictive container pre-provisioning.
    const PREWARM_EWMA_ALPHA: f64 = 0.3;

    /// Extension: EWMA-forecast next-window batch arrivals per model and
    /// boot missing containers ahead of demand. Predictions are only
    /// *updated* for models that saw traffic this window — they persist
    /// (rather than decaying to zero) while a model rotates out, so its
    /// keep-alive-expired containers are re-booted before it returns.
    fn predictive_prewarm_tick(&mut self, idx: usize) {
        let now = self.now;
        let w = &mut self.workers[idx];
        // The window map is retained (counts zeroed in place) rather
        // than `mem::take`n: taking it reallocated the BTreeMap nodes
        // every monitor interval. Zero-count entries are models from
        // earlier windows; skipping them reproduces the taken map's
        // observe sequence exactly (same models, same BTreeMap order).
        for (&model, count) in w.window_batches.iter_mut() {
            if *count > 0 {
                w.predicted_batches
                    .entry(model)
                    .or_insert_with(|| protean_sim::Ewma::new(Self::PREWARM_EWMA_ALPHA))
                    .observe(*count as f64);
                *count = 0;
            }
        }
        if !self.config.predictive_prewarm || !matches!(w.status, WorkerStatus::Up) {
            return;
        }
        let vm_epoch = w.vm_epoch;
        let predictions: Vec<(ModelId, f64)> = w
            .predicted_batches
            .iter()
            .map(|(m, e)| (*m, e.predict()))
            .collect();
        for (model, predicted) in predictions {
            let pool = w.pools.entry(model).or_default();
            let desired = predicted.ceil() as u32;
            let have = pool.total_containers();
            for _ in have..desired {
                pool.boot_proactive();
                self.queue.push(
                    now + self.config.cold_start,
                    Event::BootDone {
                        worker: idx,
                        model,
                        vm_epoch,
                    },
                );
            }
        }
    }

    fn reconfig_slots_free(&self) -> bool {
        // Up workers with a non-accepting GPU are exactly the index's
        // routable tier minus its accepting tier — O(1) instead of a
        // per-worker-per-tick fleet walk.
        let busy = if self.config.reference_dispatch {
            self.workers
                .iter()
                .filter(|w| !w.gpu.accepting() && matches!(w.status, WorkerStatus::Up))
                .count()
        } else {
            self.index.routable_len() - self.index.accepting_len()
        };
        let cap = ((self.config.max_reconfig_fraction * self.workers.len() as f64).ceil() as usize)
            .max(1);
        busy < cap
    }

    fn maybe_begin_reconfigure(&mut self, idx: usize) {
        let w = &mut self.workers[idx];
        if matches!(w.gpu.state(), protean_gpu::GpuState::Draining { .. }) && w.gpu.is_idle() {
            if let Ok(until) = w.gpu.try_begin_reconfigure(self.now) {
                let epoch = w.epoch;
                self.queue
                    .push(until, Event::ReconfigDone { worker: idx, epoch });
            }
        }
    }

    fn on_reconfig_done(&mut self, idx: usize, epoch: u64) {
        let w = &mut self.workers[idx];
        if w.epoch != epoch {
            return; // VM replaced while reconfiguring
        }
        if w.gpu.complete_reconfigure(self.now).is_ok() {
            w.epoch += 1;
            self.reconfigs += 1;
            let geometry = w.gpu.geometry().to_string();
            self.journal.record(
                self.now,
                JournalEvent::Reconfigured {
                    worker: idx,
                    geometry: geometry.clone(),
                },
            );
            self.geometry_timeline.push(GeometryChange {
                at: self.now,
                worker: idx,
                geometry,
            });
            self.refresh_index(idx);
            self.try_place(idx);
        }
    }

    // ---- spot market ----------------------------------------------------

    fn on_revocation_check(&mut self, idx: usize) {
        let w = &self.workers[idx];
        if !matches!(w.status, WorkerStatus::Up) || !matches!(w.vm, Some((_, VmTier::Spot))) {
            return;
        }
        if let Some(lead) = self.market.roll_revocation(self.now, idx) {
            let evict_at = self.now + lead;
            self.workers[idx].status = WorkerStatus::Evicting { evict_at };
            self.refresh_index(idx);
            self.journal.record(
                self.now,
                JournalEvent::EvictionNotice {
                    worker: idx,
                    evict_at,
                },
            );
            self.evictions += 1;
            self.queue
                .push(evict_at, Event::EvictionFinal { worker: idx });
            // Immediately procure a replacement (§4.5).
            self.procure_replacement(idx);
        } else {
            self.queue.push(
                self.now + self.config.revocation_check,
                Event::RevocationCheck { worker: idx },
            );
        }
    }

    fn procure_replacement(&mut self, idx: usize) {
        let granted = self.market.try_acquire_spot(self.now, idx);
        match self.config.procurement.replacement_tier(granted) {
            Some(tier) => {
                self.queue.push(
                    self.now + self.config.vm_startup,
                    Event::VmReady { worker: idx, tier },
                );
            }
            None => {
                self.queue.push(
                    self.now + self.config.procurement_retry,
                    Event::ProcurementRetry { worker: idx },
                );
            }
        }
    }

    fn on_eviction_final(&mut self, idx: usize) {
        if !matches!(self.workers[idx].status, WorkerStatus::Evicting { .. }) {
            return;
        }
        if let Some((vm, _)) = self.workers[idx].vm.take() {
            self.ledger.close(vm, self.now);
        }
        self.journal
            .record(self.now, JournalEvent::Evicted { worker: idx });
        // Everything still on this worker is re-dispatched elsewhere.
        let orphans = self.workers[idx].drain_all_batches();
        self.workers[idx].epoch += 1;
        match self.workers[idx].pending_vm.take() {
            Some((vm, tier)) => self.install_vm(idx, vm, tier),
            None => {
                self.workers[idx].status = WorkerStatus::Down;
                self.refresh_index(idx);
            }
        }
        for mut b in orphans {
            b.redispatched = true;
            self.dispatch_batch(b);
        }
    }

    fn on_vm_ready(&mut self, idx: usize, tier: VmTier) {
        match self.workers[idx].status {
            WorkerStatus::Evicting { .. } => {
                // Old VM still draining: stand by until it is reclaimed.
                let vm = self.ledger.allocate_id();
                self.ledger.open(vm, tier, self.now);
                self.workers[idx].pending_vm = Some((vm, tier));
            }
            WorkerStatus::Down => {
                let vm = self.ledger.allocate_id();
                self.ledger.open(vm, tier, self.now);
                self.install_vm(idx, vm, tier);
            }
            WorkerStatus::Up => {
                // Defensive: double procurement should not happen. The
                // grant is declined before any ledger entry is opened —
                // an open-then-close at the same instant would bill
                // nothing but pollute the ledger's closed-VM count.
            }
        }
    }

    fn install_vm(&mut self, idx: usize, vm: VmId, tier: VmTier) {
        // Any running work was already drained.
        self.workers[idx].running.clear();
        self.workers[idx].reset_runtime(self.now);
        self.workers[idx]
            .gpu
            .set_reconfig_delay(self.config.reconfig_delay);
        self.workers[idx].vm = Some((vm, tier));
        self.workers[idx].status = WorkerStatus::Up;
        self.refresh_index(idx);
        self.journal
            .record(self.now, JournalEvent::VmInstalled { worker: idx });
        if tier == VmTier::Spot {
            self.queue.push(
                self.now + self.config.revocation_check,
                Event::RevocationCheck { worker: idx },
            );
        }
        self.drain_backlog();
    }

    fn on_procurement_retry(&mut self, idx: usize) {
        if matches!(self.workers[idx].status, WorkerStatus::Down) {
            self.procure_replacement(idx);
        }
    }

    /// Safety valve: re-dispatches gateway-backlogged batches once a
    /// routable worker exists. One pass over the original pending set —
    /// a batch that lands back in the backlog during the pass stays
    /// there for the next drain (counted as churn) instead of being
    /// re-drained in a loop within the same call.
    fn drain_backlog(&mut self) {
        if self.backlog.is_empty() {
            return;
        }
        let routable = if self.config.reference_dispatch {
            self.workers.iter().any(Worker::routable)
        } else {
            self.index.any_routable()
        };
        if !routable {
            return;
        }
        let pending: Vec<Batch> = self.backlog.drain(..).collect();
        for b in pending {
            self.dispatch_batch(b);
        }
        self.stats.backlog_requeued += self.backlog.len() as u64;
    }

    // ---- teardown --------------------------------------------------------

    fn censor_remaining(&mut self) {
        let now = self.now;
        let mut leftovers: Vec<(ModelId, bool, Request)> = Vec::new();
        for w in &mut self.workers {
            for b in w.drain_all_batches() {
                for r in b.requests {
                    leftovers.push((b.model, b.strict, r));
                }
            }
        }
        for b in std::mem::take(&mut self.backlog) {
            for r in b.requests {
                leftovers.push((b.model, b.strict, r));
            }
        }
        for acc in self.accumulators.values_mut() {
            for r in acc.drain() {
                leftovers.push((r.model, r.strict, r));
            }
        }
        let measure_from = SimTime::ZERO + self.config.warmup;
        for (model, strict, r) in leftovers {
            if r.arrival < measure_from {
                continue;
            }
            self.censored += 1;
            let total_ms = now.saturating_since(r.arrival).as_millis_f64();
            self.metrics.push(RequestRecord {
                model,
                strict,
                arrival: r.arrival,
                completion: now,
                breakdown: LatencyBreakdown {
                    queueing_ms: total_ms,
                    ..LatencyBreakdown::default()
                },
            });
        }
    }

    fn into_result(mut self, scheme: String) -> SimulationResult {
        let now = self.now;
        // Close any still-open VMs for final billing.
        let open: Vec<VmId> = self
            .workers
            .iter_mut()
            .filter_map(|w| w.vm.take().map(|(id, _)| id))
            .collect();
        for vm in open {
            self.ledger.close(vm, now);
        }
        let cost = CostReport {
            total_usd: self.ledger.total_cost(now),
            spot_usd: self.ledger.cost_by_tier(VmTier::Spot, now),
            on_demand_usd: self.ledger.cost_by_tier(VmTier::OnDemand, now),
            evictions: self.evictions,
        };
        let n = self.workers.len() as f64;
        let per_gpu_compute_utilization: Vec<f64> = self
            .workers
            .iter()
            .map(|w| w.gpu.compute_utilization(now))
            .collect();
        let per_gpu_memory_utilization: Vec<f64> = self
            .workers
            .iter()
            .map(|w| w.gpu.memory_utilization(now))
            .collect();
        let compute_utilization = per_gpu_compute_utilization.iter().sum::<f64>() / n;
        let memory_utilization = per_gpu_memory_utilization.iter().sum::<f64>() / n;
        let cold_starts = self.workers.iter().map(Worker::cold_starts).sum();
        let proactive_boots = self.workers.iter().map(Worker::proactive_boots).sum();
        let stats = EngineStats {
            events_pushed: self.queue.pushed(),
            events_popped: self.queue.popped(),
            peak_heap_len: self.queue.peak_len(),
            index_updates: self.index.updates(),
            ..self.stats
        };
        SimulationResult {
            scheme,
            metrics: self.metrics,
            cost,
            compute_utilization,
            memory_utilization,
            per_gpu_compute_utilization,
            per_gpu_memory_utilization,
            cold_starts,
            reconfigs: self.reconfigs,
            censored: self.censored,
            geometry_timeline: self.geometry_timeline,
            strict_latency_timeline: self.strict_latency_timeline,
            journal: self.journal,
            stats,
            audit: self.audit.into_report(),
            proactive_boots,
            duration: self.cutoff.saturating_since(SimTime::ZERO) - self.config.drain_grace,
            workers: self.workers.len(),
        }
    }
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

/// Convenience: run a scheme by reference.
impl dyn SchemeBuilder + '_ {
    /// The scheme's name as an owned string.
    pub fn name_string(&self) -> String {
        self.name().to_string()
    }
}

fn _assert_object_safe(_: &dyn SchemeBuilder) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes_for_test::AlwaysLargest;
    use protean_metrics::record::Class;
    use protean_trace::TraceShape;

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
        let result = run_simulation(&config, &AlwaysLargest, &t);
        // Completed + censored must equal the post-warmup trace total.
        let factory = RngFactory::new(config.seed);
        let measured = t
            .generate(&factory)
            .requests()
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
        let result = run_simulation(&config, &AlwaysLargest, &t);
        let catalog = Catalog::new();
        let slo = |m: ModelId| catalog.profile(m).slo();
        let compliance = result.metrics.slo_compliance(&slo);
        assert!(compliance > 0.9, "compliance {compliance}");
        assert_eq!(result.cost.evictions, 0);
        assert!(result.cost.total_usd > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let config = ClusterConfig::small_test();
        let t = trace(300.0, 5.0, 0.5);
        let a = run_simulation(&config, &AlwaysLargest, &t);
        let b = run_simulation(&config, &AlwaysLargest, &t);
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
        let short = run_simulation(&config, &AlwaysLargest, &trace(400.0, 20.0, 0.5));
        let long = run_simulation(&config, &AlwaysLargest, &t);
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
        let result = run_simulation(&config, &AlwaysLargest, &t);
        assert!(result.compute_utilization > 0.01);
        assert!(result.memory_utilization > 0.001);
    }

    /// Config for the scripted-eviction tests: a 3-worker hybrid spot
    /// cluster with tight check/startup intervals and the invariant
    /// auditor enabled.
    fn spot_config() -> ClusterConfig {
        let mut config = ClusterConfig::small_test();
        config.workers = 3;
        config.procurement = ProcurementPolicy::Hybrid;
        config.availability = SpotAvailability::Low;
        config.revocation_check = SimDuration::from_secs(5.0);
        config.vm_startup = SimDuration::from_secs(5.0);
        config.procurement_retry = SimDuration::from_secs(5.0);
        config.audit = true;
        config
    }

    #[test]
    fn scripted_eviction_drives_the_spot_path_deterministically() {
        // No seed scanning: the scripted oracle evicts worker 0 at its
        // t=10 s revocation check with a 20 s notice lead, every run.
        let config = spot_config();
        let mut market = crate::fault::ScriptedMarket::new().evict(
            0,
            SimTime::from_secs(10.0),
            SimDuration::from_secs(20.0),
        );
        let t = trace(200.0, 60.0, 0.5);
        let result = run_simulation_with_oracle(&config, &AlwaysLargest, &t, &mut market);
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
        let od_result = run_simulation(&od, &AlwaysLargest, &t);
        let mut hybrid = ClusterConfig::small_test();
        hybrid.procurement = ProcurementPolicy::Hybrid;
        let hy_result = run_simulation(&hybrid, &AlwaysLargest, &t);
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
        let mut config = spot_config();
        config.journal_capacity = 500_000;
        let mut market = crate::fault::ScriptedMarket::new()
            .evict(1, SimTime::from_secs(10.0), SimDuration::from_secs(15.0))
            .evict(2, SimTime::from_secs(20.0), SimDuration::from_secs(10.0));
        let t = trace(300.0, 40.0, 0.5);
        let result = run_simulation_with_oracle(&config, &AlwaysLargest, &t, &mut market);
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
        use protean_trace::RequestId;
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
                    id: RequestId(2 * i),
                    arrival: at,
                    model: ModelId::ResNet50,
                    strict: true,
                });
                if !(20.0..40.0).contains(&secs) {
                    requests.push(Request {
                        id: RequestId(2 * i + 1),
                        arrival: at,
                        model: ModelId::MobileNet,
                        strict: false,
                    });
                }
            }
            let trace = Trace::from_parts(requests, SimDuration::from_secs(60.0));
            run_simulation_on(&config, &AlwaysLargest, trace)
        };
        let reactive = mk(false);
        let predictive = mk(true);
        let critical_cold = |r: &SimulationResult| {
            r.metrics
                .records()
                .iter()
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
        let mut config = ClusterConfig::small_test();
        config.journal_capacity = 200_000;
        let t = trace(300.0, 25.0, 0.5);
        let result = run_simulation(&config, &AlwaysLargest, &t);
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
        let result = run_simulation(&config, &AlwaysLargest, &t);
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
        let result = run_simulation_with_oracle(&config, &AlwaysLargest, &t, &mut market);
        assert_eq!(result.cost.evictions, 2);
        let factory = RngFactory::new(config.seed);
        let expected = t
            .generate(&factory)
            .requests()
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
        let result = run_simulation(&config, &AlwaysLargest, &t);
        // 8 spot workers for the whole run would cost:
        let full = 8.0 * (t.duration + config.drain_grace).as_secs_f64() / 3600.0
            * protean_spot::PricingTable::paper_table3().worker_price(Provider::Aws, VmTier::Spot);
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
        let result = run_simulation(&config, &AlwaysLargest, &t);
        assert!(result.censored > 0, "expected censoring under overload");
        let factory = RngFactory::new(config.seed);
        let expected = t
            .generate(&factory)
            .requests()
            .iter()
            .filter(|r| r.arrival >= SimTime::ZERO + config.warmup)
            .count();
        assert_eq!(result.metrics.count(Class::All), expected);
        // Censored requests carry the cutoff as completion: none exceeds
        // the horizon.
        let horizon = t.duration + config.drain_grace;
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
        let result = run_simulation(&config, &AlwaysLargest, &t);
        // At 10 rps nearly every batch is a singleton, so the typical
        // request waits out the full batch window before sealing.
        let p50 = result
            .metrics
            .latency_percentile_ms(Class::Strict, 0.5)
            .expect("some requests completed");
        assert!(
            p50 >= config.batch_window.as_millis_f64(),
            "P50 {p50} ms below the batch window"
        );
    }

    #[test]
    fn warmup_excludes_early_arrivals_only() {
        let config = ClusterConfig::small_test();
        let t = trace(200.0, 30.0, 0.5);
        let result = run_simulation(&config, &AlwaysLargest, &t);
        let measure_from = SimTime::ZERO + config.warmup;
        for r in result.metrics.records() {
            assert!(r.arrival >= measure_from, "pre-warmup request measured");
        }
    }
}
