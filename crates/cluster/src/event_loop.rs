//! The discrete-event engine: one event loop on one thread.
//!
//! # Order
//!
//! A run's semantics is one total order over its events: by time, ties
//! broken by push order (FIFO), with a gateway arrival winning every
//! tie against a queued event at the same instant. The golden digests
//! pin that order. Every push takes the key `(time, ++seq, 0)` from one
//! run-wide push counter, and the loop pops the smallest pending key.
//! It handles the next arrival instead whenever that is due no later
//! than the smallest key (`ta <= next.time`).
//!
//! Pending events wait in three places. Container boots and
//! batch-window expiries each come due a fixed delay after their push
//! (the run's [`ClusterConfig::cold_start`] and the constant
//! [`BATCH_WINDOW`]), so each class waits in a FIFO lane that is already
//! in key order (asserted on every push, release builds included). Every
//! other event waits in a [`KeyedEventQueue`], a 4-ary min-heap of
//! 16-byte packed keys over a slab of payloads; at fleet scale the heap
//! then shares the cache with the dispatch index. A pop takes the
//! smallest of the three heads.
//!
//! # State
//!
//! The `EventLoop` owns the whole cluster: the gateway (accumulators,
//! backlog, batch ids), the workers (indexed by global worker id) with
//! their execution-jitter streams, one [`DispatchIndex`], the spot
//! market and VM ledger, and every output stream. A handler reports
//! each transition once, with `emit`, in handling order, so nothing is
//! buffered or sorted. A fixed set of observers folds every emitted
//! [`JournalEvent`]: the bounded [`Journal`], the auditor's batch
//! life-cycle check and the run tally (`cold_starts`, `proactive_boots`,
//! `reconfigs`, `geometry_timeline`, `cost.evictions`).
//!
//! # Audit cadence
//!
//! With [`ClusterConfig::audit`] on, every handled event and every
//! dispatched arrival is one sweep opportunity, and every opportunity
//! [`ClusterConfig::audit_every_n`] samples in runs one sweep at once.

use std::collections::{BTreeMap, VecDeque};

use protean_gpu::{Completion, JobId, JobSpec};
use protean_metrics::record::Class;
use protean_metrics::{BatchRecord, MetricsSet};
use protean_models::{Catalog, ModelId};
use protean_sim::{EventKey, KeyedEventQueue, RngFactory, SimRng, SimTime, TimeSeries};
use protean_spot::{PricingTable, ProcurementPolicy, SpotOracle, VmId, VmLedger, VmTier};
use protean_trace::{Lookahead, Request, Run, Trace, TraceConfig, TraceStream};

use crate::audit::Auditor;
use crate::batch::{Accumulator, Batch, BatchId};
use crate::container::Acquire;
use crate::dispatch::DispatchIndex;
use crate::engine::{
    ClusterConfig, CostReport, EngineStats, GeometryChange, SimulationResult, BATCH_WINDOW,
    DRAIN_GRACE, EXEC_JITTER_SIGMA, MAX_RECONFIG_FRACTION, MONITOR_INTERVAL, SCAN_DEPTH,
    TIME_SHARE_OVERHEAD_BASE_MS, TIME_SHARE_OVERHEAD_MS_PER_GB,
};
use crate::journal::{Journal, JournalEvent};
use crate::scheme::{BatchView, DispatchPolicy, SchemeBuilder};
use crate::worker::{FinishEvent, Offer, RunningBatch, Worker, WorkerStatus};

/// Every event class, addressed by global worker id where it concerns
/// one worker.
#[derive(Debug)]
enum Event {
    WindowExpire {
        model: ModelId,
        strict: bool,
        seq: u64,
    },
    MonitorTick,
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
    BootDone {
        worker: usize,
        model: ModelId,
        vm_epoch: u64,
    },
    /// The most numerous pending event. Its worker and slice are
    /// narrowed so that it, and so every slab slot, is 32 bytes.
    JobFinish {
        worker: u32,
        slice: u16,
        job: JobId,
        generation: u64,
        epoch: u64,
    },
    ReconfigDone {
        worker: usize,
        epoch: u64,
    },
}

/// The pending events and the push counter, kept apart from the workers
/// so a handler can push while it holds a worker borrow.
///
/// Two event classes always come due a fixed delay after their push:
/// container boots (the run's `cold_start`) and batch-window expiries
/// (the constant [`BATCH_WINDOW`]). `now` never decreases, so each class
/// comes due in push order, and each waits in a FIFO [`Lane`] that is
/// already in key order. Every other event waits in the heap, a
/// [`KeyedEventQueue`]. A pop takes the smallest of the three heads, so
/// the order is the one a single heap would give.
struct Agenda {
    heap: KeyedEventQueue<Event>,
    boots: Lane,
    expiries: Lane,
    /// Events pushed so far; the last push's key `major`.
    seq: u64,
    popped: u64,
}

/// A FIFO of events that come due in push order.
#[derive(Default)]
struct Lane(VecDeque<(EventKey, Event)>);

impl Lane {
    fn push(&mut self, key: EventKey, ev: Event) {
        // One compare per push keeps the lane's premise checked in
        // release builds too.
        assert!(
            self.0.back().is_none_or(|(k, _)| *k < key),
            "lane out of key order"
        );
        self.0.push_back((key, ev));
    }

    fn peek_key(&self) -> Option<EventKey> {
        self.0.front().map(|(k, _)| *k)
    }
}

/// `true` if `a` is a key that pops before `b` (or `b` is empty).
fn before(a: Option<EventKey>, b: Option<EventKey>) -> bool {
    a.is_some_and(|a| b.is_none_or(|b| a < b))
}

impl Agenda {
    fn new() -> Self {
        Agenda {
            heap: KeyedEventQueue::new(),
            boots: Lane::default(),
            expiries: Lane::default(),
            seq: 0,
            popped: 0,
        }
    }

    /// Schedules `ev` at `time`, after everything pushed before it.
    fn push(&mut self, time: SimTime, ev: Event) {
        self.seq += 1;
        let key = EventKey::new(time, self.seq, 0);
        match ev {
            Event::BootDone { .. } => self.boots.push(key, ev),
            Event::WindowExpire { .. } => self.expiries.push(key, ev),
            _ => self.heap.push(key, ev),
        }
    }

    /// The smallest pending key.
    fn peek_key(&self) -> Option<EventKey> {
        [
            self.heap.peek_key(),
            self.boots.peek_key(),
            self.expiries.peek_key(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Removes and returns the event with the smallest key.
    fn pop(&mut self) -> Option<(EventKey, Event)> {
        let lane = if before(self.expiries.peek_key(), self.boots.peek_key()) {
            &mut self.expiries
        } else {
            &mut self.boots
        };
        let next = if before(lane.peek_key(), self.heap.peek_key()) {
            lane.0.pop_front()
        } else {
            self.heap.pop()
        };
        self.popped += u64::from(next.is_some());
        next
    }

    /// Events pushed and not yet popped, in the heap and both lanes.
    fn pending(&self) -> usize {
        self.heap.len() + self.boots.0.len() + self.expiries.0.len()
    }
}

/// Everything an emitted event reaches, kept apart from the workers and
/// the agenda so a handler can emit while it holds a worker borrow. The
/// set is fixed and statically dispatched; an observer that is off
/// costs one branch.
struct Observers {
    journal: Journal,
    /// Folds the batch life-cycle check; the loop calls the rest.
    audit: Auditor,
    tally: Tally,
}

/// The run counters, each folded from the events that report it.
#[derive(Default)]
struct Tally {
    cold_starts: u64,
    proactive_boots: u64,
    evictions: u64,
    /// One entry per `Reconfigured`.
    geometry_timeline: Vec<GeometryChange>,
}

impl Observers {
    #[inline]
    fn emit(&mut self, now: SimTime, ev: JournalEvent) {
        self.audit.observe(now, &ev);
        let tally = &mut self.tally;
        match &ev {
            JournalEvent::ColdStart { .. } => tally.cold_starts += 1,
            JournalEvent::ProactiveBoot { .. } => tally.proactive_boots += 1,
            JournalEvent::EvictionNotice { .. } => tally.evictions += 1,
            JournalEvent::Reconfigured { worker, geometry } => {
                tally.geometry_timeline.push(GeometryChange {
                    at: now,
                    worker: *worker,
                    geometry: geometry.clone(),
                })
            }
            _ => {}
        }
        self.journal.record(now, ev);
    }
}

/// What a run feeds the loop: a materialised trace's runs or a pair of
/// lazy streams (arrivals + the prewarm pre-scan).
enum Source {
    Materialised(Vec<Run>, protean_sim::SimDuration),
    Streaming(Box<TraceStream>, Box<TraceStream>),
}

/// The engine: the whole cluster's state plus the event queue.
struct EventLoop<'a> {
    config: &'a ClusterConfig,
    catalog: &'a Catalog,
    market: &'a mut dyn SpotOracle,
    ledger: VmLedger,
    /// The fleet, indexed by global worker id.
    workers: Vec<Worker>,
    /// Per-worker execution-jitter streams
    /// (`indexed_stream("engine.exec_jitter", worker)`).
    jitter_rngs: Vec<SimRng>,
    agenda: Agenda,
    index: DispatchIndex,
    /// Open batches per `(model, strictness)`. Ordered, so teardown
    /// censors leftover requests in a fixed order.
    accumulators: BTreeMap<(ModelId, bool), Accumulator>,
    backlog: VecDeque<Batch>,
    now: SimTime,
    cutoff: SimTime,
    next_batch_id: u64,
    dispatch_policy: DispatchPolicy,
    metrics: MetricsSet,
    stats: EngineStats,
    observers: Observers,
    censored: u64,
    /// Per-strict-batch latency samples `(completion, latency_ms)`.
    strict_latency_timeline: TimeSeries,
    /// Reusable candidate buffer for `try_place`.
    scratch_views: Vec<(BatchId, BatchView)>,
}

fn new_metrics(config: &ClusterConfig) -> MetricsSet {
    if config.aggregate_metrics {
        MetricsSet::aggregate()
    } else {
        MetricsSet::new()
    }
}

/// The arrivals of `requests` at or after `measure_from`, the ones a
/// run records.
fn measured(requests: &[Request], measure_from: SimTime) -> impl Iterator<Item = SimTime> + '_ {
    requests
        .iter()
        .map(|r| r.arrival)
        .filter(move |&arrival| arrival >= measure_from)
}

/// Hands out a materialised trace's requests in order, run by run, and
/// gives the runs' memory back as it goes: once half the buffer has been
/// read, the unread tail moves to the front and the buffer shrinks to
/// fit. Each compaction moves no more runs than were read since the
/// last, so a run costs amortised O(1).
struct Draining {
    buf: Vec<Run>,
    /// Index of the run being handed out.
    read: usize,
    /// Requests of `buf[read]` already handed out.
    taken: u32,
}

impl Draining {
    fn new(buf: Vec<Run>) -> Self {
        Draining {
            buf,
            read: 0,
            taken: 0,
        }
    }
}

impl Iterator for Draining {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let run = self.buf.get(self.read)?;
        let r = run.request();
        self.taken += 1;
        if self.taken == run.len {
            self.taken = 0;
            self.read += 1;
            if 2 * self.read >= self.buf.len() {
                self.buf.drain(..self.read);
                self.buf.shrink_to_fit();
                self.read = 0;
            }
        }
        Some(r)
    }
}

impl<'a> EventLoop<'a> {
    fn new(
        config: &'a ClusterConfig,
        catalog: &'a Catalog,
        scheme: &dyn SchemeBuilder,
        market: &'a mut dyn SpotOracle,
    ) -> Self {
        assert!(config.workers > 0, "cluster needs at least one worker");
        let factory = RngFactory::new(config.seed);
        EventLoop {
            config,
            catalog,
            market,
            ledger: VmLedger::new(PricingTable::paper_table3(), config.provider),
            workers: (0..config.workers)
                .map(|g| Worker::new(g, scheme.build(g), SimTime::ZERO))
                .collect(),
            jitter_rngs: (0..config.workers)
                .map(|g| factory.indexed_stream("engine.exec_jitter", g as u64))
                .collect(),
            agenda: Agenda::new(),
            index: DispatchIndex::new(config.workers),
            accumulators: BTreeMap::new(),
            backlog: VecDeque::new(),
            now: SimTime::ZERO,
            cutoff: SimTime::MAX,
            next_batch_id: 0,
            dispatch_policy: scheme.dispatch_policy(),
            metrics: new_metrics(config),
            stats: EngineStats::default(),
            observers: Observers {
                journal: Journal::new(config.journal_capacity),
                audit: Auditor::new(config.audit, config.audit_every_n),
                tally: Tally::default(),
            },
            censored: 0,
            strict_latency_timeline: TimeSeries::new(),
            scratch_views: Vec::new(),
        }
    }

    fn refresh_index(&mut self, g: usize) {
        self.index.refresh_worker(&self.workers[g]);
    }

    /// Reports one transition to every observer.
    fn emit(&mut self, ev: JournalEvent) {
        self.observers.emit(self.now, ev);
    }

    // ---- startup ----------------------------------------------------

    fn provision_initial_vms(&mut self) {
        let config = self.config;
        for g in 0..config.workers {
            let tier = match config.procurement {
                ProcurementPolicy::OnDemandOnly => Some(VmTier::OnDemand),
                policy => policy.replacement_tier(self.market.try_acquire_spot(self.now, g)),
            };
            match tier {
                Some(tier) => {
                    let id = self.ledger.allocate_id();
                    self.ledger.open(id, tier, SimTime::ZERO);
                    let w = &mut self.workers[g];
                    w.vm = Some((id, tier));
                    w.status = WorkerStatus::Up;
                    w.gpu.set_reconfig_delay(config.reconfig_delay);
                    if tier == VmTier::Spot {
                        self.agenda.push(
                            SimTime::ZERO + config.revocation_check,
                            Event::RevocationCheck { worker: g },
                        );
                    }
                }
                None => {
                    self.workers[g].status = WorkerStatus::Down;
                    self.agenda.push(
                        SimTime::ZERO + config.procurement_retry,
                        Event::ProcurementRetry { worker: g },
                    );
                }
            }
        }
        for g in 0..config.workers {
            self.refresh_index(g);
        }
        self.agenda
            .push(SimTime::ZERO + MONITOR_INTERVAL, Event::MonitorTick);
    }

    /// Pre-warms `prewarm_containers` containers on every worker for each
    /// distinct model of `trace_models` (a trace's models, per request or
    /// per run), in first-seen order. Stops reading once `universe`
    /// distinct models were seen.
    fn prewarm_fleet(&mut self, trace_models: impl Iterator<Item = ModelId>, universe: usize) {
        let count = self.config.prewarm_containers;
        if count == 0 {
            return;
        }
        let mut models: Vec<ModelId> = Vec::new();
        let mut last = None;
        for m in trace_models {
            if last != Some(m) && !models.contains(&m) {
                models.push(m);
                if models.len() >= universe {
                    break;
                }
            }
            last = Some(m);
        }
        for w in &mut self.workers {
            w.prewarm(&models, count, self.now);
        }
    }

    // ---- main loop --------------------------------------------------

    fn run_arrivals<I: Iterator<Item = Request>>(
        &mut self,
        arrivals: I,
        duration: protean_sim::SimDuration,
    ) {
        self.cutoff = SimTime::ZERO + duration + DRAIN_GRACE;
        let mut arrivals = Lookahead::new(arrivals);
        loop {
            let next_event = self.agenda.peek_key();
            match arrivals.peek_arrival() {
                // An arrival wins every tie at its instant.
                Some(ta) if next_event.is_none_or(|k| ta <= k.time) => {
                    if ta > self.cutoff {
                        break;
                    }
                    self.now = ta;
                    let r = arrivals.next().expect("peeked");
                    self.dispatch(r);
                }
                _ => match next_event {
                    Some(k) if k.time <= self.cutoff => {
                        let (k, ev) = self.agenda.pop().expect("peeked");
                        self.now = k.time;
                        self.handle(ev);
                    }
                    _ => break,
                },
            }
            let audit = &mut self.observers.audit;
            audit.check(self.now, &self.workers, &self.ledger, &self.index);
        }
        self.now = self.cutoff;
        self.censor_remaining();
    }

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
            Event::MonitorTick => self.on_monitor_tick(),
            Event::RevocationCheck { worker } => self.on_revocation_check(worker),
            Event::EvictionFinal { worker } => self.on_eviction_final(worker),
            Event::VmReady { worker, tier } => self.on_vm_ready(worker, tier),
            Event::ProcurementRetry { worker } => self.on_procurement_retry(worker),
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
            } => self.on_job_finish(worker as usize, usize::from(slice), job, generation, epoch),
            Event::ReconfigDone { worker, epoch } => self.on_reconfig_done(worker, epoch),
        }
    }

    // ---- request path -----------------------------------------------

    fn dispatch(&mut self, request: Request) {
        self.stats.arrivals += 1;
        let batch_size = self.catalog.profile(request.model).batch_size;
        let key = (request.model, request.strict);
        let acc = self.accumulators.entry(key).or_default();
        let first = acc.push(request, batch_size);
        if acc.len() as u32 >= batch_size {
            self.seal_batch(key);
        } else if first {
            let seq = acc.seal_seq;
            self.agenda.push(
                self.now + BATCH_WINDOW,
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
        self.emit(JournalEvent::BatchSealed {
            batch: batch.id,
            model: batch.model,
            strict: batch.strict,
            size: batch.size(),
        });
        self.dispatch_batch(batch);
    }

    /// Routes `batch` to the worker [`DispatchIndex::select`] picks, or
    /// to the backlog if no worker is routable.
    fn dispatch_batch(&mut self, batch: Batch) {
        self.stats.dispatch_batches += 1;
        let cap = match self.dispatch_policy {
            DispatchPolicy::Consolidate { cap_batches } => {
                Some(cap_batches * u64::from(self.catalog.profile(batch.model).batch_size))
            }
            DispatchPolicy::LoadBalance => None,
        };
        let mut visits = 0u64;
        let target = self.index.select(cap, &mut visits);
        self.stats.dispatch_scan_visits += visits;
        let audit = &mut self.observers.audit;
        audit.dispatch_selected(self.now, batch.id, target, cap, self.workers.iter());
        let Some(g) = target else {
            self.backlog.push_back(batch);
            return;
        };
        self.workers[g].accept_dispatch(&batch);
        self.refresh_index(g);
        self.emit(JournalEvent::BatchDispatched {
            batch: batch.id,
            worker: g,
            redispatch: batch.redispatched,
        });
        let model = batch.model;
        let w = &mut self.workers[g];
        match w.acquire_container(batch, self.now, self.catalog) {
            Acquire::Warm => self.try_place(g),
            Acquire::ColdStarted => {
                let vm_epoch = w.vm_epoch;
                self.emit(JournalEvent::ColdStart { worker: g, model });
                self.agenda.push(
                    self.now + self.config.cold_start,
                    Event::BootDone {
                        worker: g,
                        model,
                        vm_epoch,
                    },
                );
            }
        }
    }

    // ---- worker-local handlers ----------------------------------------

    fn on_boot_done(&mut self, g: usize, model: ModelId, vm_epoch: u64) {
        let w = &mut self.workers[g];
        if w.vm_epoch != vm_epoch {
            // The VM this container was booting on has been replaced;
            // the boot died with it (the replacement VM started with no
            // containers). Crediting it would mint a phantom container — or
            // underflow the fresh pool's booting count.
            self.stats.stale_boot_events += 1;
            return;
        }
        if w.boot_done(model, self.now, self.catalog) {
            self.try_place(g);
        }
    }

    fn on_job_finish(&mut self, g: usize, slice: usize, job: JobId, generation: u64, epoch: u64) {
        let w = &mut self.workers[g];
        let status = w.finish_event(slice, generation, epoch);
        if status != FinishEvent::Live {
            self.stats.stale_finish_events += 1;
            self.stats.stale_finish_superseded += u64::from(status == FinishEvent::Superseded);
            return;
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
                if let Some(c) = w.gpu.slice(slice).next_completion(now) {
                    self.arm_finish(g, slice, c);
                }
                return;
            }
        };
        let batch_id = BatchId(finished.spec.id.0);
        let Some(running) = w.finish_running(batch_id, now, self.catalog) else {
            return;
        };
        // Re-arm the slice's single live finish event for the jobs still
        // resident (the all-jobs discipline would have re-pushed each).
        self.stats.finish_events_all_jobs += w.gpu.slice(slice).job_count() as u64;
        if let Some(c) = next {
            self.arm_finish(g, slice, c);
        }
        self.emit(JournalEvent::BatchFinished {
            batch: batch_id,
            worker: g,
        });
        self.record_batch_completion(g, &running);
        self.maybe_begin_reconfigure(g);
        self.try_place(g);
    }

    /// Arms the one live `JobFinish` of worker `g`'s `slice`, for its
    /// next completion `c`.
    fn arm_finish(&mut self, g: usize, slice: usize, c: Completion) {
        self.stats.finish_events_pushed += 1;
        let finish = Event::JobFinish {
            worker: u32::try_from(g).expect("worker id fits in 32 bits"),
            slice: u16::try_from(slice).expect("slice index fits in 16 bits"),
            job: c.job,
            generation: c.generation,
            epoch: self.workers[g].epoch,
        };
        self.agenda.push(c.at, finish);
    }

    fn record_batch_completion(&mut self, g: usize, running: &RunningBatch) {
        let now = self.now;
        let exec_ms = now.saturating_since(running.exec_start).as_millis_f64();
        let interference_ms = (exec_ms - running.solo_on_slice_ms).max(0.0);
        let deficiency_ms = (running.solo_on_slice_ms - running.solo_7g_ms).max(0.0);
        let measure_from = SimTime::ZERO + self.config.warmup;
        self.metrics.push_batch(
            BatchRecord {
                model: running.batch.model,
                strict: running.batch.strict,
                completion: now,
                min_exec_ms: running.solo_7g_ms,
                deficiency_ms,
                interference_ms,
                cold_start_ms: running.batch.cold_wait_ms,
            },
            measured(&running.batch.requests, measure_from),
        );
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
        self.refresh_index(g);
    }

    /// The placement loop: offers the worker's queued batches (up to
    /// [`SCAN_DEPTH`]) to its scheme until a pass places nothing; views
    /// the scheme already declined under the current slice state are
    /// skipped ([`Worker::offer`]).
    fn try_place(&mut self, g: usize) {
        let config = self.config;
        let catalog = self.catalog;
        let now = self.now;
        // Take the scratch buffer so the loop body can borrow `self`
        // mutably; restored before returning. The loop runs on every
        // dispatch/boot/finish event, so it must not allocate.
        let mut views = std::mem::take(&mut self.scratch_views);
        loop {
            if !self.workers[g].gpu.accepting() {
                break;
            }
            views.clear();
            self.workers[g]
                .sched_queue
                .for_each_candidate(SCAN_DEPTH, |b| {
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
                self.stats.place_offers += 1;
                let offer = self.workers[g].offer(&view, now, catalog, config.audit);
                let p = match offer {
                    Offer::Place(p) => p,
                    Offer::Decline => continue,
                    Offer::Skip { contradicted } => {
                        self.stats.place_memo_skips += 1;
                        if contradicted {
                            self.observers.audit.memo_contradicted(now, batch_id, g);
                        }
                        continue;
                    }
                };
                let slices = self.workers[g].gpu.slices().len();
                if p.slice >= slices {
                    self.observers
                        .audit
                        .slice_out_of_range(now, batch_id, g, p.slice, slices);
                    continue;
                }
                let profile = catalog.profile(view.model);
                let slice_profile = self.workers[g].gpu.slice(p.slice).profile();
                // Inference batch latency is affine in batch size (see
                // ModelProfile::fill_factor), so partial (window-sealed)
                // batches run proportionally faster.
                let fill = f64::from(view.size) / f64::from(profile.batch_size);
                let fill_factor = profile.fill_factor(fill);
                let jitter = (self.jitter_rngs[g].standard_normal() * EXEC_JITTER_SIGMA)
                    .exp()
                    .clamp(0.6, 1.7);
                let mut solo = profile
                    .solo_on(slice_profile)
                    .mul_f64(p.solo_scale.max(0.0) * fill_factor * jitter);
                if self.workers[g].gpu.slice(p.slice).mode() == protean_gpu::SharingMode::TimeShared
                {
                    // Context switch between containers on a time-shared
                    // GPU (weights/context re-activation), scaling with
                    // the model's working set.
                    solo += protean_sim::SimDuration::from_millis(
                        TIME_SHARE_OVERHEAD_BASE_MS
                            + TIME_SHARE_OVERHEAD_MS_PER_GB * profile.mem_gb,
                    );
                }
                let spec = JobSpec {
                    id: JobId(batch_id.0),
                    solo,
                    fbr: profile.fbr * p.fbr_scale.max(0.0),
                    mem_gb: profile.mem_gb,
                };
                let w = &mut self.workers[g];
                // No room right now: the batch stays queued.
                let Ok(next) = w.gpu.slice_mut(p.slice).admit(now, spec) else {
                    continue;
                };
                let batch = w
                    .sched_queue
                    .remove(batch_id, profile.mem_gb)
                    .expect("placed batch was queued");
                w.start_running(RunningBatch {
                    batch,
                    slice: p.slice,
                    exec_start: now,
                    solo_on_slice_ms: solo.as_millis_f64(),
                    solo_7g_ms: profile.solo_7g.as_millis_f64() * fill_factor * jitter,
                });
                // One live finish event per slice: the admit bumped the
                // generation, so whatever event was armed before is now
                // stale. The all-jobs discipline would have re-pushed
                // every resident here.
                self.stats.finish_events_all_jobs += w.gpu.slice(p.slice).job_count() as u64;
                self.arm_finish(g, p.slice, next);
                self.emit(JournalEvent::BatchPlaced {
                    batch: batch_id,
                    worker: g,
                    slice: p.slice,
                });
                placed_any = true;
            }
            if !placed_any {
                break;
            }
        }
        self.scratch_views = views;
    }

    fn maybe_begin_reconfigure(&mut self, g: usize) {
        let w = &mut self.workers[g];
        if matches!(w.gpu.state(), protean_gpu::GpuState::Draining { .. }) && w.gpu.is_idle() {
            if let Ok(until) = w.gpu.try_begin_reconfigure(self.now) {
                let epoch = w.epoch;
                self.agenda
                    .push(until, Event::ReconfigDone { worker: g, epoch });
            }
        }
    }

    fn on_reconfig_done(&mut self, g: usize, epoch: u64) {
        let w = &mut self.workers[g];
        if w.epoch != epoch {
            return; // VM replaced while reconfiguring
        }
        if w.gpu.complete_reconfigure(self.now).is_ok() {
            w.epoch += 1;
            let geometry = w.gpu.geometry().to_string();
            self.emit(JournalEvent::Reconfigured {
                worker: g,
                geometry,
            });
            self.refresh_index(g);
            self.try_place(g);
        }
    }

    // ---- monitor ----------------------------------------------------

    fn on_monitor_tick(&mut self) {
        let now = self.now;
        let config = self.config;
        for g in 0..config.workers {
            let w = &mut self.workers[g];
            let agenda = &mut self.agenda;
            let observers = &mut self.observers;
            let vm_epoch = w.vm_epoch;
            let desired = w.monitor_tick(now, config, self.catalog, |model| {
                observers.emit(now, JournalEvent::ProactiveBoot { worker: g, model });
                agenda.push(
                    now + config.cold_start,
                    Event::BootDone {
                        worker: g,
                        model,
                        vm_epoch,
                    },
                )
            });
            if let Some(geometry) = desired {
                let changed = geometry != *self.workers[g].gpu.geometry();
                if changed && self.reconfig_slots_free() {
                    let _ = self.workers[g].gpu.request_reconfigure(geometry);
                    self.refresh_index(g);
                    self.maybe_begin_reconfigure(g);
                }
            }
        }
        self.drain_backlog();
        if now + MONITOR_INTERVAL <= self.cutoff {
            self.agenda.push(now + MONITOR_INTERVAL, Event::MonitorTick);
        }
    }

    fn reconfig_slots_free(&self) -> bool {
        let busy = self.index.routable_len() - self.index.accepting_len();
        let cap = ((MAX_RECONFIG_FRACTION * self.config.workers as f64).ceil() as usize).max(1);
        busy < cap
    }

    // ---- spot lifecycle ---------------------------------------------

    fn on_revocation_check(&mut self, g: usize) {
        let w = &self.workers[g];
        if !matches!(w.status, WorkerStatus::Up) || !matches!(w.vm, Some((_, VmTier::Spot))) {
            return;
        }
        if let Some(lead) = self.market.roll_revocation(self.now, g) {
            let evict_at = self.now + lead;
            self.workers[g].status = WorkerStatus::Evicting { evict_at };
            self.refresh_index(g);
            self.emit(JournalEvent::EvictionNotice {
                worker: g,
                evict_at,
            });
            self.agenda
                .push(evict_at, Event::EvictionFinal { worker: g });
            self.procure_replacement(g);
        } else {
            self.agenda.push(
                self.now + self.config.revocation_check,
                Event::RevocationCheck { worker: g },
            );
        }
    }

    fn procure_replacement(&mut self, g: usize) {
        let granted = self.market.try_acquire_spot(self.now, g);
        match self.config.procurement.replacement_tier(granted) {
            Some(tier) => self.agenda.push(
                self.now + self.config.vm_startup,
                Event::VmReady { worker: g, tier },
            ),
            None => self.agenda.push(
                self.now + self.config.procurement_retry,
                Event::ProcurementRetry { worker: g },
            ),
        }
    }

    fn on_eviction_final(&mut self, g: usize) {
        if !matches!(self.workers[g].status, WorkerStatus::Evicting { .. }) {
            return;
        }
        if let Some((vm, _)) = self.workers[g].vm.take() {
            self.ledger.close(vm, self.now);
        }
        self.emit(JournalEvent::Evicted { worker: g });
        let w = &mut self.workers[g];
        let orphans = w.drain_all_batches();
        w.epoch += 1;
        match w.pending_vm.take() {
            Some((vm, tier)) => self.install_vm(g, vm, tier),
            None => {
                w.status = WorkerStatus::Down;
                self.refresh_index(g);
            }
        }
        for mut b in orphans {
            b.redispatched = true;
            self.dispatch_batch(b);
        }
    }

    fn on_vm_ready(&mut self, g: usize, tier: VmTier) {
        match self.workers[g].status {
            WorkerStatus::Evicting { .. } => {
                let vm = self.ledger.allocate_id();
                self.ledger.open(vm, tier, self.now);
                self.workers[g].pending_vm = Some((vm, tier));
            }
            WorkerStatus::Down => {
                let vm = self.ledger.allocate_id();
                self.ledger.open(vm, tier, self.now);
                self.install_vm(g, vm, tier);
            }
            WorkerStatus::Up => {
                // Defensive: double procurement should not happen. The
                // grant is declined before any ledger entry is opened —
                // an open-then-close at the same instant would bill
                // nothing but pollute the ledger's closed-VM count.
            }
        }
    }

    fn install_vm(&mut self, g: usize, vm: VmId, tier: VmTier) {
        let w = &mut self.workers[g];
        w.reset_runtime(self.now);
        w.gpu.set_reconfig_delay(self.config.reconfig_delay);
        w.vm = Some((vm, tier));
        w.status = WorkerStatus::Up;
        self.refresh_index(g);
        self.emit(JournalEvent::VmInstalled { worker: g });
        if tier == VmTier::Spot {
            self.agenda.push(
                self.now + self.config.revocation_check,
                Event::RevocationCheck { worker: g },
            );
        }
        self.drain_backlog();
    }

    fn on_procurement_retry(&mut self, g: usize) {
        if matches!(self.workers[g].status, WorkerStatus::Down) {
            self.procure_replacement(g);
        }
    }

    fn drain_backlog(&mut self) {
        if self.backlog.is_empty() || !self.index.any_routable() {
            return;
        }
        let pending: Vec<Batch> = self.backlog.drain(..).collect();
        for b in pending {
            self.dispatch_batch(b);
        }
        self.stats.backlog_requeued += self.backlog.len() as u64;
    }

    // ---- teardown ---------------------------------------------------

    /// Records every request still held at the cutoff as completing at
    /// it, all of its latency queueing: each held batch is one row with a
    /// zero shared breakdown, taken from the worker drains, then the
    /// backlog, then the open accumulators.
    fn censor_remaining(&mut self) {
        // Censored records go into their own set, absorbed last, so an
        // aggregate run's latency sums fold in a fixed order.
        let mut censored = new_metrics(self.config);
        let now = self.now;
        let measure_from = SimTime::ZERO + self.config.warmup;
        let mut censor = |model, strict, requests: &[Request]| {
            censored.push_batch(
                BatchRecord {
                    model,
                    strict,
                    completion: now,
                    min_exec_ms: 0.0,
                    deficiency_ms: 0.0,
                    interference_ms: 0.0,
                    cold_start_ms: 0.0,
                },
                measured(requests, measure_from),
            );
        };
        for w in &mut self.workers {
            for b in w.drain_all_batches() {
                censor(b.model, b.strict, &b.requests);
            }
        }
        for b in std::mem::take(&mut self.backlog) {
            censor(b.model, b.strict, &b.requests);
        }
        for (&(model, strict), acc) in &mut self.accumulators {
            censor(model, strict, &acc.drain());
        }
        self.censored = censored.count(Class::All) as u64;
        self.metrics.absorb(censored);
    }

    /// The batch rows and record entries `runs` will store, to reserve
    /// them: a run of `len` requests past the warm-up fills at least
    /// `len / batch_size` batches, and takes `ceil(len / batch_size)`
    /// entries unless a batch boundary splits it. Both are exact for a
    /// trace of whole-batch arrivals.
    fn records_of(&self, runs: &[Run]) -> (usize, usize) {
        let measure_from = SimTime::ZERO + self.config.warmup;
        let (mut batches, mut entries) = (0, 0);
        for r in runs.iter().filter(|r| r.arrival >= measure_from) {
            let batch_size = self.catalog.profile(r.model).batch_size.max(1);
            batches += (r.len / batch_size) as usize;
            entries += r.len.div_ceil(batch_size) as usize;
        }
        (batches, entries)
    }

    fn drive(&mut self, src: Source) {
        self.provision_initial_vms();
        match src {
            Source::Materialised(runs, duration) => {
                // Reserving up front keeps million-request runs from
                // re-growing the record store mid-measurement.
                let (batches, entries) = self.records_of(&runs);
                self.metrics.reserve_batches(batches);
                self.metrics.reserve(entries);
                self.prewarm_fleet(runs.iter().map(|r| r.model), usize::MAX);
                self.run_arrivals(Draining::new(runs), duration);
            }
            Source::Streaming(arrivals, prewarm_scan) => {
                let duration = arrivals.duration();
                let universe = prewarm_scan.model_universe().len();
                self.prewarm_fleet(prewarm_scan.map(|r| r.model), universe);
                self.run_arrivals(arrivals, duration);
            }
        }
    }

    /// Closes the still-open VMs for final billing and folds the run
    /// into its result.
    fn finish(mut self, scheme: String) -> SimulationResult {
        let now = self.cutoff;
        for w in &mut self.workers {
            if let Some((id, _)) = w.vm.take() {
                self.ledger.close(id, now);
            }
        }
        let cost = CostReport {
            total_usd: self.ledger.total_cost(now),
            spot_usd: self.ledger.cost_by_tier(VmTier::Spot, now),
            on_demand_usd: self.ledger.cost_by_tier(VmTier::OnDemand, now),
            evictions: self.observers.tally.evictions,
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
        let mut stats = self.stats;
        let agenda = &self.agenda;
        stats.events_pushed = agenda.seq;
        stats.events_popped = agenda.popped;
        assert_eq!(
            stats.events_pushed,
            stats.events_popped + agenda.pending() as u64,
            "an event left the agenda without being popped"
        );
        stats.peak_heap_len = agenda.heap.peak_len();
        stats.index_updates = self.index.updates();
        SimulationResult {
            scheme,
            metrics: self.metrics,
            cost,
            compute_utilization,
            memory_utilization,
            per_gpu_compute_utilization,
            per_gpu_memory_utilization,
            cold_starts: self.observers.tally.cold_starts,
            reconfigs: self.observers.tally.geometry_timeline.len() as u64,
            censored: self.censored,
            geometry_timeline: self.observers.tally.geometry_timeline,
            strict_latency_timeline: self.strict_latency_timeline,
            journal: self.observers.journal,
            stats,
            audit: self.observers.audit.into_report(),
            proactive_boots: self.observers.tally.proactive_boots,
            duration: now.saturating_since(SimTime::ZERO) - DRAIN_GRACE,
            workers: self.workers.len(),
        }
    }
}

// ---- entry points ---------------------------------------------------

/// The engine behind [`crate::engine::run_trace_with_oracle`].
pub(crate) fn run_trace(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    trace: Trace,
    oracle: &mut dyn SpotOracle,
) -> SimulationResult {
    let duration = trace.duration();
    run(
        config,
        scheme,
        Source::Materialised(trace.into_runs(), duration),
        oracle,
    )
}

/// The engine behind [`crate::engine::run_stream_with_oracle`].
/// Labeled RNG streams are derived statelessly from `(seed, label)`, so
/// the two stream instances built here (arrivals and the prewarm
/// pre-scan) draw exactly the arrivals the materialised trace holds.
pub(crate) fn run_stream(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    trace_config: &TraceConfig,
    oracle: &mut dyn SpotOracle,
) -> SimulationResult {
    let factory = RngFactory::new(config.seed);
    run(
        config,
        scheme,
        Source::Streaming(
            Box::new(trace_config.stream(&factory)),
            Box::new(trace_config.stream(&factory)),
        ),
        oracle,
    )
}

fn run(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    src: Source,
    oracle: &mut dyn SpotOracle,
) -> SimulationResult {
    let catalog = Catalog::new();
    let mut engine = EventLoop::new(config, &catalog, scheme, oracle);
    engine.drive(src);
    engine.finish(scheme.name().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_simulation_on;
    use crate::scheme::{Placement, PlacementCtx, Scheme};
    use crate::schemes_for_test::AlwaysLargest;
    use protean_gpu::{Geometry, SharingMode};
    use protean_sim::SimDuration;

    fn strict_resnet(at_ms: f64) -> Request {
        Request {
            arrival: SimTime::from_millis(at_ms),
            model: ModelId::ResNet50,
            strict: true,
        }
    }

    /// The journal of a small run over `requests`.
    fn journal(requests: Vec<Request>) -> Journal {
        let mut config = ClusterConfig::small_test();
        config.journal_capacity = 4096;
        config.audit = true;
        let trace = Trace::from_parts(requests, SimDuration::from_secs(3.0));
        let r = run_simulation_on(&config, &AlwaysLargest, trace);
        assert!(r.audit.is_clean(), "{:?}", r.audit.violations);
        r.journal
    }

    fn sealed_sizes(journal: &Journal) -> Vec<(SimTime, u32)> {
        journal
            .entries()
            .iter()
            .filter_map(|(t, e)| match e {
                JournalEvent::BatchSealed { size, .. } => Some((*t, *size)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn draining_hands_out_every_request_in_order_and_frees_as_it_reads() {
        // 1000 runs of one to three requests each.
        let requests: Vec<Request> = (0..1000)
            .flat_map(|i| std::iter::repeat_n(strict_resnet(i as f64), 1 + i % 3))
            .collect();
        let runs = Trace::from_parts(requests.clone(), SimDuration::from_secs(1.0)).into_runs();
        assert_eq!(runs.len(), 1000);
        let mut draining = Draining::new(runs);
        let mut out = Vec::new();
        let mut capacities = vec![draining.buf.capacity()];
        while let Some(r) = draining.next() {
            out.push(r);
            if draining.taken == 0 {
                capacities.push(draining.buf.capacity());
            }
        }
        assert_eq!(out, requests);
        assert!(capacities.windows(2).all(|w| w[1] <= w[0]), "capacity grew");
        // Half the runs read: the buffer holds no more than the unread half.
        assert!(capacities[500] <= 500, "{}", capacities[500]);
        assert_eq!(draining.buf.capacity(), 0);
        // Each compaction halves the buffer: O(log n) reallocations.
        let compactions = capacities.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(compactions <= 11, "{compactions} compactions");
    }

    /// Places every batch on slice 99, past every geometry.
    struct PastTheGeometry;

    impl Scheme for PastTheGeometry {
        fn name(&self) -> &'static str {
            "past-the-geometry"
        }
        fn initial_geometry(&self) -> Geometry {
            Geometry::full()
        }
        fn sharing_mode(&self) -> SharingMode {
            SharingMode::Mps
        }
        fn place(&mut self, _: &PlacementCtx<'_>, _: &BatchView) -> Option<Placement> {
            Some(Placement::on_slice(99))
        }
    }

    impl SchemeBuilder for PastTheGeometry {
        fn build(&self, _worker: usize) -> Box<dyn Scheme> {
            Box::new(PastTheGeometry)
        }
        fn name(&self) -> &'static str {
            "past-the-geometry"
        }
    }

    #[test]
    fn a_placement_past_the_geometry_fails_the_audit() {
        let run = |audit: bool| {
            let mut config = ClusterConfig::small_test();
            config.audit = audit;
            let requests = (0..4).map(|i| strict_resnet(10.0 * i as f64)).collect();
            let trace = Trace::from_parts(requests, SimDuration::from_secs(3.0));
            run_simulation_on(&config, &PastTheGeometry, trace)
        };
        let (quiet, audited) = (run(false), run(true));
        assert!(quiet.audit.is_clean());
        assert!(
            audited.audit.violations[0]
                .contains("place chose slice 99 of a geometry with 1 slices"),
            "{:?}",
            audited.audit.violations
        );
        // The batches stay queued, audited or not.
        assert_eq!(quiet.stats, audited.stats);
        assert_eq!(quiet.metrics.count(Class::All), 0);
        assert_eq!(audited.metrics.count(Class::All), 0);
    }

    #[test]
    fn a_slab_slot_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Option<Event>>(), 32);
    }

    #[test]
    fn the_agenda_pops_boots_and_heap_events_in_key_order() {
        let mut agenda = Agenda::new();
        // The payload pushed under each key `major`, to check that each
        // pop hands back the event pushed under its key.
        let mut pushed = vec![String::new()];
        let mut push = |agenda: &mut Agenda, at_ms: f64, ev: Event| {
            pushed.push(format!("{ev:?}"));
            agenda.push(SimTime::from_millis(at_ms), ev);
        };
        let boot = |worker| Event::BootDone {
            worker,
            model: ModelId::ResNet50,
            vm_epoch: 0,
        };
        let expiry = |seq| Event::WindowExpire {
            model: ModelId::ResNet50,
            strict: true,
            seq,
        };
        push(&mut agenda, 8.0, boot(0));
        push(&mut agenda, 8.0, Event::MonitorTick);
        push(&mut agenda, 3.0, Event::EvictionFinal { worker: 1 });
        // A window expiry, a boot and a heap event tie at 8 ms.
        push(&mut agenda, 8.0, expiry(0));
        push(&mut agenda, 8.0, boot(2));
        push(&mut agenda, 9.0, Event::EvictionFinal { worker: 3 });
        let mut popped = Vec::new();
        let mut pop = |agenda: &mut Agenda| {
            let (k, ev) = agenda.pop().expect("pending");
            popped.push((k.time.as_micros() / 1000, k.major, format!("{ev:?}")));
        };
        pop(&mut agenda);
        pop(&mut agenda);
        push(
            &mut agenda,
            8.0,
            Event::ReconfigDone {
                worker: 4,
                epoch: 0,
            },
        );
        push(&mut agenda, 9.0, expiry(1));
        assert_eq!(agenda.seq, agenda.popped + agenda.pending() as u64);
        assert_eq!((agenda.popped, agenda.pending()), (2, 6));
        while agenda.pending() > 0 {
            pop(&mut agenda);
        }
        assert!(agenda.pop().is_none());
        assert_eq!(agenda.seq, agenda.popped);
        for (_, major, ev) in &popped {
            assert_eq!(*ev, pushed[*major as usize]);
        }
        // By time, ties by push order, wherever the event waited.
        let order: Vec<(u64, u64)> = popped.iter().map(|&(ms, major, _)| (ms, major)).collect();
        assert_eq!(
            order,
            [
                (3, 3),
                (8, 1),
                (8, 2),
                (8, 4),
                (8, 5),
                (8, 7),
                (9, 6),
                (9, 8)
            ]
        );
    }

    #[test]
    fn an_arrival_wins_the_tie_against_a_window_expiry_at_its_instant() {
        // The first arrival's 50 ms batch window expires at exactly
        // 1.000 s, when the second request arrives: the arrival joins the
        // open batch before the expiry seals it.
        let tied = journal(vec![strict_resnet(950.0), strict_resnet(1000.0)]);
        assert_eq!(sealed_sizes(&tied), [(SimTime::from_millis(1000.0), 2)]);
        // A millisecond later the window has already sealed alone.
        let late = journal(vec![strict_resnet(950.0), strict_resnet(1001.0)]);
        assert_eq!(
            sealed_sizes(&late),
            [
                (SimTime::from_millis(1000.0), 1),
                (SimTime::from_millis(1051.0), 1)
            ]
        );
    }

    #[test]
    fn the_journal_is_recorded_in_time_order() {
        let requests = (0..400).map(|i| strict_resnet(5.0 * i as f64)).collect();
        let journal = journal(requests);
        assert!(journal.entries().len() > 100);
        assert!(journal.entries().windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
