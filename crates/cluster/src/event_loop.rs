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
//! Pending events wait in two places. Container boots come due a fixed
//! delay after their push (the run's [`ClusterConfig::cold_start`]), so
//! they wait in a FIFO lane that is already in key order (asserted on
//! every push, release builds included). Every other event waits in a
//! [`KeyedEventQueue`], a 4-ary min-heap of 16-byte packed keys over a
//! slab of payloads; at fleet scale the heap then shares the cache with
//! the dispatch index. A pop takes the smaller of the two heads.
//!
//! A superseded heap event is cancelled through the [`EventHandle`] its
//! owner keeps (a slice its `JobFinish`, a worker its `ReconfigDone`, an
//! accumulator its window), so none pops stale; a boot checks `vm_epoch`.
//!
//! # State
//!
//! The `EventLoop` owns the whole cluster: the gateway (accumulators,
//! backlog, batch ids), the workers (indexed by global worker id), one
//! [`DispatchIndex`], the spot market and VM ledger, and every output
//! stream. A handler reports each transition once, with `emit`, in
//! handling order, so nothing is buffered or sorted. A fixed set of
//! observers folds every emitted [`JournalEvent`]: the bounded
//! [`Journal`], the auditor's batch life-cycle check and the run tally
//! (`cold_starts`, `proactive_boots`, `reconfigs`, `geometry_timeline`,
//! `cost.evictions`).
//!
//! # Audit cadence
//!
//! With [`Observe::audit`] set, every handled event and every
//! dispatched arrival run is one sweep opportunity (a run's requests
//! share an instant, so nothing happens between them), and every
//! opportunity its `n` samples in runs one sweep at once.

use std::collections::{BTreeMap, VecDeque};

use protean_gpu::{Completion, JobId, JobSpec};
use protean_metrics::record::Class;
use protean_metrics::{BatchRecord, MetricsSet};
use protean_models::ModelId;
use protean_sim::{
    EventHandle, EventKey, KeyedEventQueue, RngFactory, SimDuration, SimTime, TimeSeries,
};
use protean_spot::{ProcurementPolicy, SpotOracle, VmId, VmLedger, VmTier};
use protean_trace::Run;

use crate::audit::Auditor;
use crate::batch::{Accumulator, Batch, BatchId};
use crate::container::Acquire;
use crate::dispatch::DispatchIndex;
use crate::engine::{
    Arrivals, ClusterConfig, CostReport, EngineStats, GeometryChange, Observe, SimulationResult,
    BATCH_WINDOW, DRAIN_GRACE, MAX_RECONFIG_FRACTION, MONITOR_INTERVAL, SCAN_DEPTH,
    TIME_SHARE_OVERHEAD_BASE_MS, TIME_SHARE_OVERHEAD_MS_PER_GB,
};
use crate::journal::{Journal, JournalEvent};
use crate::scheme::{DispatchPolicy, Placement, SchemeBuilder};
use crate::worker::{Offer, RunningBatch, Worker, WorkerStatus};

/// Every event class, addressed by global worker id where it concerns
/// one worker. `JobFinish`, the most numerous, and `BootDone` narrow it
/// to `u32`, so every event, and so every slab slot, is 16 bytes.
#[derive(Debug, PartialEq)]
enum Event {
    WindowExpire {
        model: ModelId,
        strict: bool,
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
        worker: u32,
        model: ModelId,
        vm_epoch: u64,
    },
    JobFinish {
        worker: u32,
        slice: u16,
        job: JobId,
    },
    ReconfigDone {
        worker: usize,
    },
}

impl Event {
    /// The `(worker, slice)` a `JobFinish` is armed for.
    fn finish_of(&self) -> Option<(usize, usize)> {
        match *self {
            Event::JobFinish { worker, slice, .. } => Some((worker as usize, usize::from(slice))),
            _ => None,
        }
    }
}

/// The pending events and the push counter, kept apart from the workers
/// so a handler can push while it holds a worker borrow.
///
/// Container boots always come due the run's `cold_start` after their
/// push. `now` never decreases, so they come due in push order and wait
/// in a FIFO [`Lane`] that is already in key order. Every other event
/// waits in the heap, a [`KeyedEventQueue`]. A pop takes the smaller of
/// the two heads, so the order is the one a single heap would give.
struct Agenda {
    heap: KeyedEventQueue<Event>,
    boots: Lane,
    /// Events pushed so far; the last push's key `major`.
    seq: u64,
    popped: u64,
    cancelled: u64,
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

/// A worker id as an event carries it.
fn narrow(g: usize) -> u32 {
    u32::try_from(g).expect("worker id fits in 32 bits")
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
            seq: 0,
            popped: 0,
            cancelled: 0,
        }
    }

    /// Schedules `ev` at `time`, after everything pushed before it, and
    /// returns its handle; a boot, in the lane, has none.
    fn push(&mut self, time: SimTime, ev: Event) -> Option<EventHandle> {
        self.seq += 1;
        let key = EventKey::new(time, self.seq, 0);
        match ev {
            Event::BootDone { .. } => self.boots.push(key, ev),
            _ => return Some(self.heap.push(key, ev)),
        }
        None
    }

    /// Cancels the pending event `handle` names, which `kept_for` must
    /// accept (checked in release builds too: a stale handle names a stranger).
    fn cancel(&mut self, handle: EventHandle, kept_for: impl FnOnce(&Event) -> bool) {
        let ev = self.heap.cancel(handle);
        assert!(kept_for(&ev), "{handle:?} now names {ev:?}");
        self.cancelled += 1;
    }

    /// The smallest pending key.
    fn peek_key(&mut self) -> Option<EventKey> {
        let (heap, boots) = (self.heap.peek_key(), self.boots.peek_key());
        if before(boots, heap) {
            boots
        } else {
            heap
        }
    }

    /// Removes and returns the event with the smallest key.
    fn pop(&mut self) -> Option<(EventKey, Event)> {
        let next = if before(self.boots.peek_key(), self.heap.peek_key()) {
            self.boots.0.pop_front()
        } else {
            self.heap.pop()
        };
        self.popped += u64::from(next.is_some());
        next
    }

    /// Events pending in the heap and the lane.
    fn pending(&self) -> usize {
        self.heap.len() + self.boots.0.len()
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

/// The engine: the whole cluster's state plus the event queue.
struct EventLoop<'a> {
    config: &'a ClusterConfig,
    market: &'a mut dyn SpotOracle,
    ledger: VmLedger,
    /// The fleet, indexed by global worker id.
    workers: Vec<Worker>,
    agenda: Agenda,
    index: DispatchIndex,
    /// Open batches per `(model, strictness)`. Ordered, so teardown
    /// censors leftover requests in a fixed order.
    accumulators: BTreeMap<(ModelId, bool), Accumulator>,
    backlog: VecDeque<Batch>,
    now: SimTime,
    cutoff: SimTime,
    next_batch_id: u64,
    scheme: &'static str,
    dispatch_policy: DispatchPolicy,
    metrics: MetricsSet,
    stats: EngineStats,
    observers: Observers,
    censored: u64,
    /// Per-strict-batch latency samples `(completion, latency_ms)`.
    strict_latency_timeline: TimeSeries,
}

fn new_metrics(config: &ClusterConfig) -> MetricsSet {
    if config.aggregate_metrics {
        MetricsSet::aggregate()
    } else {
        MetricsSet::new()
    }
}

/// Hands out a materialised trace's runs in order and gives their memory
/// back as it goes: once half the buffer has been read, the unread tail
/// moves to the front and the buffer shrinks to fit. Each compaction
/// moves no more runs than were read since the last, so a run costs
/// amortised O(1).
struct Draining {
    buf: Vec<Run>,
    /// Index of the next run to hand out.
    read: usize,
}

impl Iterator for Draining {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        let run = *self.buf.get(self.read)?;
        self.read += 1;
        if 2 * self.read >= self.buf.len() {
            self.buf.drain(..self.read);
            self.buf.shrink_to_fit();
            self.read = 0;
        }
        Some(run)
    }
}

impl<'a> EventLoop<'a> {
    /// A fleet whose every worker holds `prewarm_containers` warm
    /// containers of each of `prewarm` models.
    fn new(
        config: &'a ClusterConfig,
        observe: Observe,
        scheme: &dyn SchemeBuilder,
        market: &'a mut dyn SpotOracle,
        prewarm: &[ModelId],
    ) -> Self {
        assert!(config.workers > 0, "cluster needs at least one worker");
        let factory = RngFactory::new(config.seed);
        let count = config.prewarm_containers;
        EventLoop {
            config,
            market,
            ledger: VmLedger::new(config.provider),
            // Each worker's pools are built with it, so that one worker's
            // blocks sit together in memory.
            workers: (0..config.workers)
                .map(|g| {
                    let mut w = Worker::new(g, scheme.build(g), &factory, SimTime::ZERO);
                    if count > 0 {
                        w.prewarm(prewarm, count, SimTime::ZERO);
                    }
                    w
                })
                .collect(),
            agenda: Agenda::new(),
            index: DispatchIndex::new(config.workers),
            accumulators: BTreeMap::new(),
            backlog: VecDeque::new(),
            now: SimTime::ZERO,
            cutoff: SimTime::MAX,
            next_batch_id: 0,
            scheme: scheme.name(),
            dispatch_policy: scheme.dispatch_policy(),
            metrics: new_metrics(config),
            stats: EngineStats::default(),
            observers: Observers {
                journal: Journal::new(observe.journal_capacity),
                audit: Auditor::new(observe.audit),
                tally: Tally::default(),
            },
            censored: 0,
            strict_latency_timeline: TimeSeries::new(),
        }
    }

    fn refresh_index(&mut self, g: usize) {
        self.index.refresh_worker(g, &self.workers[g]);
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

    // ---- main loop --------------------------------------------------

    /// Provisions the fleet, reserves `rows` record rows, feeds it
    /// `runs` over a trace of `duration`, and folds the run into its
    /// result.
    fn drive(
        mut self,
        runs: impl Iterator<Item = Run>,
        duration: SimDuration,
        rows: usize,
    ) -> SimulationResult {
        self.provision_initial_vms();
        self.metrics.reserve(rows);
        self.cutoff = SimTime::ZERO + duration + DRAIN_GRACE;
        let mut runs = runs.peekable();
        loop {
            let next_event = self.agenda.peek_key();
            match runs.peek() {
                // An arrival wins every tie at its instant.
                Some(run) if next_event.is_none_or(|k| run.arrival <= k.time) => {
                    if run.arrival > self.cutoff {
                        break;
                    }
                    self.now = run.arrival;
                    let run = runs.next().expect("peeked");
                    self.dispatch(run);
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
            self.audit_sweep();
        }
        self.now = self.cutoff;
        self.censor_remaining();
        self.finish()
    }

    /// One audit sweep opportunity ([`Auditor::check`]).
    fn audit_sweep(&mut self) {
        let (now, audit, heap) = (self.now, &mut self.observers.audit, &self.agenda.heap);
        let finish_of = |h| heap.get(h).and_then(Event::finish_of);
        audit.check(now, &self.workers, &self.ledger, &self.index, finish_of);
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::WindowExpire { model, strict } => {
                self.stats.expiries += 1;
                let acc = self.accumulators.get_mut(&(model, strict));
                acc.expect("an armed window has its batch").window = None;
                self.seal_batch((model, strict));
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
            } => self.on_boot_done(worker as usize, model, vm_epoch),
            Event::JobFinish { worker, slice, job } => {
                self.on_job_finish(worker as usize, usize::from(slice), job)
            }
            Event::ReconfigDone { worker } => self.on_reconfig_done(worker),
        }
    }

    // ---- request path -----------------------------------------------

    /// Adds `run` to its accumulator in chunks of up to the batch size,
    /// sealing each batch it fills. Only a chunk that opens a batch and
    /// leaves it open arms its window, so a whole-batch arrival arms none;
    /// a later chunk that fills the batch cancels it.
    fn dispatch(&mut self, run: Run) {
        self.stats.arrivals += u64::from(run.len);
        let batch_size = run.model.profile().batch_size;
        let key = (run.model, run.strict);
        let mut left = run.len;
        while left > 0 {
            let acc = self.accumulators.entry(key).or_default();
            let len = left.min(batch_size - acc.len());
            left -= len;
            let opened = acc.push(Run { len, ..run });
            if acc.len() >= batch_size {
                self.seal_batch(key);
            } else if opened {
                let (model, strict) = key;
                let expire = Event::WindowExpire { model, strict };
                acc.window = self.agenda.push(self.now + BATCH_WINDOW, expire);
            }
        }
    }

    /// Seals the open batch of `key`, cancelling its window if armed.
    fn seal_batch(&mut self, key: (ModelId, bool)) {
        let acc = self.accumulators.get_mut(&key).expect("an open batch");
        if let Some(h) = acc.window.take() {
            let (model, strict) = key;
            self.agenda
                .cancel(h, |e| *e == Event::WindowExpire { model, strict });
        }
        let runs = acc.seal();
        let id = BatchId(self.next_batch_id);
        self.next_batch_id += 1;
        let batch = Batch {
            id,
            model: key.0,
            strict: key.1,
            runs,
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
                Some(cap_batches * u64::from(batch.model.profile().batch_size))
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
        match w.acquire_container(batch) {
            Acquire::Warm => self.try_place(g),
            Acquire::ColdStarted => {
                let vm_epoch = w.vm_epoch;
                self.emit(JournalEvent::ColdStart { worker: g, model });
                self.agenda.push(
                    self.now + self.config.cold_start,
                    Event::BootDone {
                        worker: narrow(g),
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
        if w.boot_done(model, self.now) {
            self.try_place(g);
        }
    }

    fn on_job_finish(&mut self, g: usize, slice: usize, job: JobId) {
        let now = self.now;
        let w = &mut self.workers[g];
        let s = w.gpu.slice_mut(slice);
        // The event just popped was the slice's armed one.
        s.armed = None;
        let (finished, next) = match s.finish(now, job) {
            Ok(ok) => ok,
            Err(e) => {
                let msg = || format!("worker {g} slice {slice}: its armed finish failed: {e}");
                self.observers.audit.report(now, msg);
                // Membership did not change: re-arm, or no resident finishes.
                if let Some(c) = w.gpu.slice(slice).next_completion(now) {
                    self.arm_finish(g, slice, c);
                }
                return;
            }
        };
        // Re-arm the slice's single finish event for the jobs still
        // resident (the all-jobs discipline would have re-pushed each),
        // whatever becomes of the finished one.
        self.stats.finish_events_all_jobs += w.gpu.slice(slice).job_count() as u64;
        if let Some(c) = next {
            self.arm_finish(g, slice, c);
        }
        let batch_id = BatchId(finished.spec.id.0);
        let Some(running) = self.workers[g].finish_running(batch_id, now) else {
            let msg =
                || format!("batch {batch_id:?} finished on worker {g}, where it was not running");
            self.observers.audit.report(now, msg);
            return;
        };
        self.emit(JournalEvent::BatchFinished {
            batch: batch_id,
            worker: g,
        });
        self.record_batch_completion(g, &running);
        self.maybe_begin_reconfigure(g);
        self.try_place(g);
    }

    /// Arms the one `JobFinish` of worker `g`'s `slice`, for its next
    /// completion `c`, in place of the one it supersedes.
    fn arm_finish(&mut self, g: usize, slice: usize, c: Completion) {
        self.disarm(g, slice);
        self.stats.finish_events_pushed += 1;
        let finish = Event::JobFinish {
            worker: narrow(g),
            slice: u16::try_from(slice).expect("slice index fits in 16 bits"),
            job: c.job,
        };
        self.workers[g].gpu.slice_mut(slice).armed = self.agenda.push(c.at, finish);
    }

    /// Cancels the armed `JobFinish` of worker `g`'s `slice`, if any.
    fn disarm(&mut self, g: usize, slice: usize) {
        if let Some(h) = self.workers[g].gpu.slice_mut(slice).armed.take() {
            self.stats.stale_finish_events += 1;
            self.agenda.cancel(h, |e| e.finish_of() == Some((g, slice)));
        }
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
            running
                .batch
                .runs
                .iter()
                .filter(|r| r.arrival >= measure_from)
                .map(|r| (r.arrival, r.len)),
        );
        // The timeline grows O(#strict batches); aggregate-metrics
        // runs trade it away for the flat-RSS guarantee.
        if running.batch.strict && !self.config.aggregate_metrics {
            // Added once per request, as a per-request sum rounds.
            let sum_ms: f64 = running
                .batch
                .runs
                .iter()
                .flat_map(|r| {
                    let ms = now.saturating_since(r.arrival).as_millis_f64();
                    std::iter::repeat_n(ms, r.len as usize)
                })
                .sum();
            let mean_lat_ms = sum_ms / f64::from(running.batch.size().max(1));
            self.strict_latency_timeline.push(now, mean_lat_ms);
        }
        self.refresh_index(g);
    }

    /// The placement loop: offers the worker's queued batches (up to
    /// [`SCAN_DEPTH`] per lane) to its scheme until a pass places
    /// nothing.
    fn try_place(&mut self, g: usize) {
        while self.workers[g].gpu.accepting() {
            let placed = [0, 1].map(|lane| self.place_pass(g, lane));
            if placed == [false; 2] {
                break;
            }
        }
    }

    /// One pass over `lane`'s runs of equal views; whether it placed a
    /// batch. Once the scheme or its memo declines the view at the cursor
    /// ([`Worker::offer`]), the memo answers the rest of the run within
    /// the budget in one step (the audit still asks about each). A placed
    /// batch leaves the lane, and the next slides into the cursor.
    fn place_pass(&mut self, g: usize, lane: usize) -> bool {
        let (now, audit) = (self.now, self.observers.audit.enabled);
        let mut left = self.workers[g].sched_queue.lane(lane).len().min(SCAN_DEPTH);
        // The cursor, and the end of the run it is in.
        let (mut pos, mut run_end, mut placed) = (0, 0, false);
        while left > 0 {
            let w = &mut self.workers[g];
            let (head_len, batch) = &w.sched_queue.lane(lane)[pos];
            if pos == run_end {
                run_end = pos + *head_len as usize;
            }
            let view = batch.view();
            self.stats.place_offers += 1;
            self.stats.place_lookups += 1;
            left -= 1;
            let offer = w.offer(&view, now, false);
            let Offer::Place(p) = offer else {
                let end = run_end.min(pos + 1 + left);
                // The members the memo answers, each rechecked by the audit.
                let first = pos + usize::from(offer == Offer::Decline);
                self.stats.place_offers += (end - pos - 1) as u64;
                self.stats.place_memo_skips += (end - first) as u64;
                for i in (first..end).filter(|_| audit) {
                    if w.offer(&view, now, true) == (Offer::Skip { contradicted: true }) {
                        let id = w.sched_queue.lane(lane)[i].1.id;
                        self.observers.audit.report(now, || {
                            format!(
                                "batch {id:?} on worker {g}: place chose a slice for a view \
                                 it declined under the same slice state"
                            )
                        });
                    }
                }
                left -= end - pos - 1;
                pos = end;
                continue;
            };
            if self.admit(g, lane, pos, p) {
                (run_end, placed) = (run_end - 1, true);
            } else {
                pos += 1;
            }
        }
        placed
    }

    /// Starts the batch at `pos` of worker `g`'s `lane` on the slice `p`
    /// the scheme chose; `false` if the slice is out of range or has no
    /// room, and the batch stays queued.
    fn admit(&mut self, g: usize, lane: usize, pos: usize, p: Placement) -> bool {
        let now = self.now;
        let batch = &self.workers[g].sched_queue.lane(lane)[pos].1;
        let (id, view) = (batch.id, batch.view());
        let slices = self.workers[g].gpu.slices().len();
        if p.slice >= slices {
            self.observers.audit.report(now, || {
                format!(
                    "batch {id:?} on worker {g}: place chose slice {} \
                     of a geometry with {slices} slices",
                    p.slice
                )
            });
            return false;
        }
        let profile = view.model.profile();
        let slice_profile = self.workers[g].gpu.slice(p.slice).profile();
        // Inference batch latency is affine in batch size (see
        // ModelProfile::fill_factor), so partial (window-sealed)
        // batches run proportionally faster.
        let fill = f64::from(view.size) / f64::from(profile.batch_size);
        let fill_factor = profile.fill_factor(fill);
        let jitter = self.workers[g].draw_jitter();
        let mut solo = profile
            .solo_on(slice_profile)
            .mul_f64(p.solo_scale.max(0.0) * fill_factor * jitter);
        if self.workers[g].gpu.slice(p.slice).mode() == protean_gpu::SharingMode::TimeShared {
            // Context switch between containers on a time-shared
            // GPU (weights/context re-activation), scaling with
            // the model's working set.
            solo += protean_sim::SimDuration::from_millis(
                TIME_SHARE_OVERHEAD_BASE_MS + TIME_SHARE_OVERHEAD_MS_PER_GB * profile.mem_gb,
            );
        }
        let spec = JobSpec {
            id: JobId(id.0),
            solo,
            fbr: profile.fbr * p.fbr_scale.max(0.0),
            mem_gb: profile.mem_gb,
        };
        let w = &mut self.workers[g];
        // No room right now: the batch stays queued.
        let Ok(next) = w.gpu.slice_mut(p.slice).admit(now, spec) else {
            return false;
        };
        let batch = w.sched_queue.remove_at(lane, pos);
        w.start_running(RunningBatch {
            batch,
            slice: p.slice,
            exec_start: now,
            solo_on_slice_ms: solo.as_millis_f64(),
            solo_7g_ms: profile.solo_7g.as_millis_f64() * fill_factor * jitter,
        });
        // The admit moved every resident's completion, so the slice's
        // finish is re-armed; the all-jobs discipline re-pushed each.
        self.stats.finish_events_all_jobs += w.gpu.slice(p.slice).job_count() as u64;
        self.arm_finish(g, p.slice, next);
        self.emit(JournalEvent::BatchPlaced {
            batch: id,
            worker: g,
            slice: p.slice,
        });
        true
    }

    fn maybe_begin_reconfigure(&mut self, g: usize) {
        let w = &mut self.workers[g];
        if matches!(w.gpu.state(), protean_gpu::GpuState::Draining { .. }) && w.gpu.is_idle() {
            if let Ok(until) = w.gpu.try_begin_reconfigure(self.now) {
                w.reconfig = self.agenda.push(until, Event::ReconfigDone { worker: g });
            }
        }
    }

    fn on_reconfig_done(&mut self, g: usize) {
        let w = &mut self.workers[g];
        w.reconfig = None;
        let done = w.gpu.complete_reconfigure(self.now);
        done.expect("a pending reconfiguration completes at its event");
        let geometry = w.gpu.geometry().to_string();
        self.emit(JournalEvent::Reconfigured {
            worker: g,
            geometry,
        });
        self.refresh_index(g);
        self.try_place(g);
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
            let desired = w.monitor_tick(now, config, |model| {
                observers.emit(now, JournalEvent::ProactiveBoot { worker: g, model });
                agenda.push(
                    now + config.cold_start,
                    Event::BootDone {
                        worker: narrow(g),
                        model,
                        vm_epoch,
                    },
                );
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
        let (delay, ev) = match self.config.procurement.replacement_tier(granted) {
            Some(tier) => (self.config.vm_startup, Event::VmReady { worker: g, tier }),
            None => (
                self.config.procurement_retry,
                Event::ProcurementRetry { worker: g },
            ),
        };
        self.agenda.push(self.now + delay, ev);
    }

    fn on_eviction_final(&mut self, g: usize) {
        if !matches!(self.workers[g].status, WorkerStatus::Evicting { .. }) {
            return;
        }
        if let Some((vm, _)) = self.workers[g].vm.take() {
            self.ledger.close(vm, self.now);
        }
        self.emit(JournalEvent::Evicted { worker: g });
        // The old GPU's pending events die with it.
        for slice in 0..self.workers[g].gpu.slices().len() {
            self.disarm(g, slice);
        }
        let w = &mut self.workers[g];
        let orphans = w.drain_all_batches();
        if let Some(h) = w.reconfig.take() {
            let done = Event::ReconfigDone { worker: g };
            self.agenda.cancel(h, |e| *e == done);
        }
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
        let mut censor = |model, strict, runs: &[Run]| {
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
                runs.iter()
                    .filter(|r| r.arrival >= measure_from)
                    .map(|r| (r.arrival, r.len)),
            );
        };
        for w in &mut self.workers {
            // A worker with no outstanding request holds no batch
            // (audited, and checked here in debug builds).
            if w.outstanding == 0 {
                debug_assert_eq!(w.held_requests(), 0, "worker {}", w.idx);
                continue;
            }
            for b in w.drain_all_batches() {
                censor(b.model, b.strict, &b.runs);
            }
        }
        for b in std::mem::take(&mut self.backlog) {
            censor(b.model, b.strict, &b.runs);
        }
        for (&(model, strict), acc) in &mut self.accumulators {
            censor(model, strict, &acc.seal());
        }
        self.censored = censored.count(Class::All) as u64;
        self.metrics.absorb(censored);
    }

    /// Closes the still-open VMs for final billing and folds the run
    /// into its result.
    fn finish(mut self) -> SimulationResult {
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
            stats.events_popped + agenda.cancelled + agenda.pending() as u64,
            "an event left the agenda without being popped or cancelled"
        );
        stats.peak_heap_len = agenda.heap.peak_len();
        stats.index_updates = self.index.updates();
        SimulationResult {
            scheme: self.scheme.to_string(),
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

// ---- entry point ----------------------------------------------------

/// The engine behind [`crate::engine::simulate`]: lowers `arrivals` to
/// runs, the models every worker pre-warms and the record reservation,
/// then drives them.
pub(crate) fn run(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    arrivals: Arrivals<'_>,
    oracle: &mut dyn SpotOracle,
    observe: Observe,
) -> SimulationResult {
    let factory = RngFactory::new(config.seed);
    let trace = match arrivals {
        Arrivals::Trace(trace) => trace,
        Arrivals::Generate(trace_config) => trace_config.generate(&factory),
        Arrivals::Stream(trace_config) => {
            // Labeled RNG streams are derived statelessly from
            // `(seed, label)`, so the pre-scan and the arrivals draw
            // exactly the runs the materialised trace holds.
            let scan = trace_config.runs(&factory);
            let universe = scan.model_universe().len();
            let prewarm = distinct_models(scan.map(|r| r.model), universe);
            let engine = EventLoop::new(config, observe, scheme, oracle, &prewarm);
            return engine.drive(trace_config.runs(&factory), trace_config.duration, 0);
        }
    };
    let duration = trace.duration();
    let runs = trace.into_runs();
    let prewarm = distinct_models(runs.iter().map(|r| r.model), usize::MAX);
    // Reserving up front keeps million-request runs from re-growing the
    // record store mid-measurement.
    let reserve = records_of(config.warmup, &runs);
    let engine = EventLoop::new(config, observe, scheme, oracle, &prewarm);
    engine.drive(Draining { buf: runs, read: 0 }, duration, reserve)
}

/// The record rows `runs` will store, to reserve them: a run of `len`
/// requests past the `warmup` fills at least `len / batch_size`
/// batches, a row each. Exact for a trace of whole-batch arrivals,
/// whose batches hold one arrival each and so store no further entry.
fn records_of(warmup: SimDuration, runs: &[Run]) -> usize {
    let measure_from = SimTime::ZERO + warmup;
    let mut rows = 0;
    for r in runs.iter().filter(|r| r.arrival >= measure_from) {
        rows += (r.len / r.model.profile().batch_size.max(1)) as usize;
    }
    rows
}

/// The distinct models of `trace_models` (a trace's models, one per
/// run), in first-seen order: the models every worker pre-warms. Stops
/// reading once `universe` distinct models were seen.
fn distinct_models(trace_models: impl Iterator<Item = ModelId>, universe: usize) -> Vec<ModelId> {
    let mut models: Vec<ModelId> = Vec::new();
    for m in trace_models {
        if !models.contains(&m) {
            models.push(m);
            if models.len() >= universe {
                break;
            }
        }
    }
    models
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Runs;
    use crate::engine::simulate;
    use crate::scheme::{BatchView, PlacementCtx, Scheme};
    use crate::schemes_for_test::AlwaysLargest;
    use protean_gpu::{Geometry, SharingMode};
    use protean_trace::{Request, Trace};
    use std::num::NonZeroU64;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn strict_resnet(at_ms: f64) -> Request {
        Request {
            arrival: SimTime::from_millis(at_ms),
            model: ModelId::ResNet50,
            strict: true,
        }
    }

    /// The journal of a small run over `requests`.
    fn journal(requests: Vec<Request>) -> Journal {
        let config = ClusterConfig::small_test();
        let trace = Arrivals::Trace(Trace::from_parts(requests, SimDuration::from_secs(3.0)));
        let observe = Observe {
            journal_capacity: 4096,
            ..Observe::audited()
        };
        let r = simulate(&config, &AlwaysLargest, trace, None, observe);
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
        let runs = Trace::from_parts(requests, SimDuration::from_secs(1.0)).into_runs();
        assert_eq!(runs.len(), 1000);
        let mut draining = Draining {
            buf: runs.clone(),
            read: 0,
        };
        let mut out = Vec::new();
        let mut capacities = vec![draining.buf.capacity()];
        while let Some(r) = draining.next() {
            out.push(r);
            capacities.push(draining.buf.capacity());
        }
        assert_eq!(out, runs);
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
            let config = ClusterConfig::small_test();
            let requests = (0..4).map(|i| strict_resnet(10.0 * i as f64)).collect();
            let trace = Arrivals::Trace(Trace::from_parts(requests, SimDuration::from_secs(3.0)));
            let observe = Observe {
                audit: audit.then_some(NonZeroU64::MIN),
                ..Observe::default()
            };
            simulate(&config, &PastTheGeometry, trace, None, observe)
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

    /// Places a batch on slice 0 only while slice 0 is idle, counting
    /// its calls.
    struct WhileIdle(Arc<AtomicU64>);

    impl Scheme for WhileIdle {
        fn name(&self) -> &'static str {
            "while-idle"
        }
        fn initial_geometry(&self) -> Geometry {
            Geometry::full()
        }
        fn sharing_mode(&self) -> SharingMode {
            SharingMode::Mps
        }
        fn place(&mut self, ctx: &PlacementCtx<'_>, _: &BatchView) -> Option<Placement> {
            self.0.fetch_add(1, Ordering::Relaxed);
            ctx.gpu.slice(0).is_idle().then(|| Placement::on_slice(0))
        }
    }

    impl SchemeBuilder for WhileIdle {
        fn build(&self, _worker: usize) -> Box<dyn Scheme> {
            Box::new(WhileIdle(Arc::clone(&self.0)))
        }
        fn name(&self) -> &'static str {
            "while-idle"
        }
    }

    /// One placement loop on worker 0 over `n` queued strict ResNet 50
    /// batches of one request (one run of equal views), with slice 0
    /// busy first if `busy`: the `(offers, memo skips, lookups)` it
    /// counts, the scheme's calls and the batches left queued.
    fn place_equal_views(n: u64, busy: bool, audit: bool) -> ([u64; 3], u64, usize) {
        let (config, mut market) = small_test();
        let observe = Observe {
            audit: audit.then_some(NonZeroU64::MIN),
            ..Observe::default()
        };
        let scheme = WhileIdle(Arc::default());
        let mut engine = EventLoop::new(&config, observe, &scheme, &mut market, &[]);
        engine.provision_initial_vms();
        let w = &mut engine.workers[0];
        if busy {
            let job = JobSpec {
                id: JobId(u64::MAX),
                solo: SimDuration::from_millis(10.0),
                fbr: 0.1,
                mem_gb: 1.0,
            };
            w.gpu.slice_mut(0).admit(SimTime::ZERO, job).unwrap();
        }
        let run = Run {
            arrival: SimTime::ZERO,
            model: ModelId::ResNet50,
            strict: true,
            len: 1,
        };
        for id in 0..n {
            w.sched_queue.push(Batch {
                id: BatchId(id),
                model: run.model,
                strict: true,
                runs: Runs::One(run),
                sealed_at: SimTime::ZERO,
                cold_wait_ms: 0.0,
                redispatched: false,
            });
        }
        engine.try_place(0);
        let s = &engine.stats;
        let counts = [s.place_offers, s.place_memo_skips, s.place_lookups];
        let calls = scheme.0.load(Ordering::Relaxed);
        (counts, calls, engine.workers[0].sched_queue.len())
    }

    #[test]
    fn a_declined_run_of_equal_views_is_one_lookup() {
        // The scheme declines the first; the memo answers the other four.
        assert_eq!(place_equal_views(5, true, false), ([5, 4, 1], 1, 5));
        // The audit asks the scheme about each of the four as well, and
        // counts the same.
        assert_eq!(place_equal_views(5, true, true), ([5, 4, 1], 5, 5));
    }

    #[test]
    fn a_placement_splits_a_run_and_the_memo_answers_the_rest() {
        // Pass 1: the first batch is placed and leaves; the second slides
        // into the cursor and is declined (slice 0 is busy now), and the
        // memo answers the third. Pass 2 looks the second up, and the memo
        // answers both. Offers 3 + 2, skips 1 + 2, lookups 2 + 1.
        assert_eq!(place_equal_views(3, false, false), ([5, 3, 3], 2, 2));
    }

    #[test]
    fn a_finish_whose_batch_is_not_running_is_reported_and_its_slice_runs_on() {
        let (config, mut market) = small_test();
        let prewarm = [ModelId::ResNet50];
        let observe = Observe::audited();
        let mut engine = EventLoop::new(&config, observe, &AlwaysLargest, &mut market, &prewarm);
        engine.provision_initial_vms();
        // Jobs 1 and 2 share worker 0's slice; only job 2 is a running
        // batch, and job 1 finishes first.
        let job = |id, ms| JobSpec {
            id: JobId(id),
            solo: SimDuration::from_millis(ms),
            fbr: 0.1,
            mem_gb: 1.0,
        };
        let run = Run {
            arrival: SimTime::ZERO,
            model: ModelId::ResNet50,
            strict: true,
            len: 1,
        };
        let batch = Batch {
            id: BatchId(2),
            model: run.model,
            strict: run.strict,
            runs: Runs::One(run),
            sealed_at: SimTime::ZERO,
            cold_wait_ms: 0.0,
            redispatched: false,
        };
        let w = &mut engine.workers[0];
        assert_eq!(w.acquire_container(batch), Acquire::Warm);
        let batch = w.sched_queue.remove(BatchId(2)).unwrap();
        w.gpu
            .slice_mut(0)
            .admit(SimTime::ZERO, job(1, 10.0))
            .unwrap();
        let first = w
            .gpu
            .slice_mut(0)
            .admit(SimTime::ZERO, job(2, 20.0))
            .unwrap();
        w.start_running(RunningBatch {
            batch,
            slice: 0,
            exec_start: SimTime::ZERO,
            solo_on_slice_ms: 20.0,
            solo_7g_ms: 20.0,
        });
        w.outstanding = 1;
        engine.arm_finish(0, 0, first);
        let mut finishes = 0;
        while let Some((k, ev)) = engine.agenda.pop() {
            if let Event::JobFinish { .. } = ev {
                finishes += 1;
                engine.now = k.time;
                engine.handle(ev);
            }
        }
        // Job 1's finish armed job 2's, which completed its batch.
        assert_eq!(finishes, 2);
        assert_eq!(engine.workers[0].held_requests(), 0);
        assert!(engine.workers[0].gpu.slice(0).is_idle());
        let violations = engine.observers.audit.into_report().violations;
        let lost = "BatchId(1) finished on worker 0, where it was not running";
        assert!(
            violations.iter().any(|v| v.contains(lost)),
            "{violations:?}"
        );
    }

    /// An audited two-worker engine whose workers each run one job on
    /// slice 0, each with its finish armed.
    fn two_armed_slices<'a>(
        config: &'a ClusterConfig,
        market: &'a mut protean_spot::SpotMarket,
    ) -> EventLoop<'a> {
        let mut engine = EventLoop::new(config, Observe::audited(), &AlwaysLargest, market, &[]);
        engine.provision_initial_vms();
        for g in 0..2 {
            let job = JobSpec {
                id: JobId(g as u64),
                solo: SimDuration::from_millis(10.0),
                fbr: 0.1,
                mem_gb: 1.0,
            };
            let c = engine.workers[g].gpu.slice_mut(0).admit(SimTime::ZERO, job);
            engine.arm_finish(g, 0, c.unwrap());
        }
        engine
    }

    fn small_test() -> (ClusterConfig, protean_spot::SpotMarket) {
        let config = ClusterConfig::small_test();
        let rng = RngFactory::new(config.seed);
        let market = protean_spot::SpotMarket::new(config.availability, rng.stream("spot.market"));
        (config, market)
    }

    #[test]
    fn a_corrupt_finish_handle_fails_the_sweep() {
        let (config, mut market) = small_test();
        let mut engine = two_armed_slices(&config, &mut market);
        engine.audit_sweep();
        // Worker 0 keeps worker 1's handle, and worker 1 keeps none.
        let h = engine.workers[1].gpu.slice_mut(0).armed.take();
        engine.workers[0].gpu.slice_mut(0).armed = h;
        engine.audit_sweep();
        let report = engine.observers.audit.into_report();
        assert_eq!((report.checks, report.violation_count), (2, 2));
        assert!(
            report.violations[0].contains("worker 0 slice 0 with 1 jobs holds armed handle Some")
                && report.violations[0].ends_with("which names the finish of Some((1, 0))"),
            "{:?}",
            report.violations
        );
        assert!(
            report.violations[1].contains("worker 1 slice 0 with 1 jobs holds armed handle None"),
            "{:?}",
            report.violations
        );
    }

    #[test]
    #[should_panic(expected = "now names JobFinish { worker: 1")]
    fn a_re_arm_through_a_corrupt_handle_panics() {
        let (config, mut market) = small_test();
        let mut engine = two_armed_slices(&config, &mut market);
        engine.workers[0].gpu.slice_mut(0).armed = engine.workers[1].gpu.slice(0).armed;
        // Re-arming worker 0's slice cancels the event its handle names.
        let c = engine.workers[0]
            .gpu
            .slice(0)
            .next_completion(SimTime::ZERO);
        engine.arm_finish(0, 0, c.unwrap());
    }

    #[test]
    fn a_slab_slot_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Option<Event>>(), 16);
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
        let expiry = |strict| Event::WindowExpire {
            model: ModelId::ResNet50,
            strict,
        };
        push(&mut agenda, 8.0, boot(0));
        push(&mut agenda, 8.0, Event::MonitorTick);
        push(&mut agenda, 3.0, Event::EvictionFinal { worker: 1 });
        // A boot and two heap events, one a window expiry, tie at 8 ms.
        push(&mut agenda, 8.0, expiry(true));
        push(&mut agenda, 8.0, boot(2));
        push(&mut agenda, 9.0, Event::EvictionFinal { worker: 3 });
        let mut popped = Vec::new();
        let mut pop = |agenda: &mut Agenda| {
            let (k, ev) = agenda.pop().expect("pending");
            popped.push((k.time.as_micros() / 1000, k.major, format!("{ev:?}")));
        };
        pop(&mut agenda);
        pop(&mut agenda);
        push(&mut agenda, 8.0, Event::ReconfigDone { worker: 4 });
        push(&mut agenda, 9.0, expiry(false));
        // A cancelled event never pops.
        let h = agenda.push(
            SimTime::from_millis(8.5),
            Event::EvictionFinal { worker: 5 },
        );
        agenda.cancel(h.unwrap(), |e| {
            matches!(e, Event::EvictionFinal { worker: 5 })
        });
        assert_eq!(
            agenda.seq,
            agenda.popped + agenda.cancelled + agenda.pending() as u64
        );
        assert_eq!(
            (agenda.popped, agenda.cancelled, agenda.pending()),
            (2, 1, 6)
        );
        while agenda.pending() > 0 {
            pop(&mut agenda);
        }
        assert!(agenda.pop().is_none());
        assert_eq!(agenda.seq, agenda.popped + 1);
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
    fn a_run_fills_batches_in_chunks_and_only_an_open_batch_arms_a_window() {
        let bert = |at_ms: f64, n: usize| {
            std::iter::repeat_n(
                Request {
                    arrival: SimTime::from_millis(at_ms),
                    model: ModelId::Bert,
                    strict: true,
                },
                n,
            )
        };
        // Batch 4: two requests open a batch; a run of seven fills it,
        // fills a second at once and leaves one, sealed by its window.
        let trace = Trace::from_parts(
            bert(0.0, 2).chain(bert(10.0, 7)).collect(),
            SimDuration::from_secs(3.0),
        );
        let observe = Observe {
            journal_capacity: 4096,
            ..Observe::audited()
        };
        let config = ClusterConfig::small_test();
        let r = simulate(
            &config,
            &AlwaysLargest,
            Arrivals::Trace(trace),
            None,
            observe,
        );
        assert!(r.audit.is_clean(), "{:?}", r.audit.violations);
        let ms = SimTime::from_millis;
        assert_eq!(
            sealed_sizes(&r.journal),
            [(ms(10.0), 4), (ms(10.0), 4), (ms(60.0), 1)]
        );
        assert_eq!(r.stats.arrivals, 9);
        // The window opened at 0 ms is cancelled when the batch fills,
        // the chunk that opens and fills the second batch arms none, and
        // the leftover's window seals it at 60 ms.
        assert_eq!((r.stats.expiries, r.stats.dispatch_batches), (1, 3));
    }

    #[test]
    fn the_journal_is_recorded_in_time_order() {
        let requests = (0..400).map(|i| strict_resnet(5.0 * i as f64)).collect();
        let journal = journal(requests);
        assert!(journal.entries().len() > 100);
        assert!(journal.entries().windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
