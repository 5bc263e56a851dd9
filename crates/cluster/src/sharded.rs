//! The discrete-event engine: one coordinator plus `S` shard cores
//! (`ClusterConfig::shards`, default 1), whose results do not depend on
//! `S` bit for bit.
//!
//! # Serial order
//!
//! A run's semantics is one total order over its events: by time, ties
//! broken by push order (FIFO), with a gateway arrival winning every
//! tie against a queued event at the same instant. The golden digests
//! pin that order. The engine reifies it in [`EventKey`]s so that it
//! survives splitting the fleet across shards; at `S = 1` the one shard
//! core holds every worker.
//!
//! # Partition
//!
//! The fleet's `W` workers are strided across `S` shards (worker `g`
//! lives on shard `g % S`). Each shard owns, exclusively:
//!
//! * its workers (GPU, containers, queues, running batches),
//! * a [`KeyedEventQueue`] holding the worker-local event classes
//!   (`ShardEvent`: container boots, job completions, reconfiguration
//!   completions),
//! * a partition [`DispatchIndex`] with one slot per owned worker,
//! * its slice of every output stream (metrics, journal, timelines,
//!   engine stats).
//!
//! Everything *shared* — the gateway accumulators and backlog, the spot
//! market and VM ledger, the batch-id allocator, the auditor — lives on
//! the single `Coordinator`, which also executes every serial event
//! class (`CoordEvent`: window expiries, monitor ticks, the whole
//! spot-VM lifecycle) and every arrival, in serial order.
//!
//! # Phases and the key scheme
//!
//! Between two serial steps the coordinator runs a *phase*: every shard
//! advances its own queue up to an exclusive [`EventKey`] bound. No
//! shard's phase reads another's state, so the shards could run in any
//! order; the engine runs them one after another. Serial order rests on
//! the keys:
//!
//! * Serial-context pushes (coordinator) take `(time, ++gseq, 0)` —
//!   `gseq` is the global push counter, so their relative order is the
//!   FIFO insertion order.
//! * Phase pushes by shard `s` take `(time, G, ((s+1) << 48) | ++ctr)`
//!   where `G` is the `gseq` snapshot at phase start and `ctr` is the
//!   shard's monotone counter. They sort after everything pushed
//!   serially before the phase and before everything pushed after it —
//!   exactly where a single global push counter would have put them.
//! * An arrival at `ta` bounds the phase at `(ta, 0, 0)`: real event
//!   keys carry `major ≥ 1`, so events *at* `ta` wait — the
//!   arrival-wins tie rule.
//!
//! Two phase events with the *same* time but different shards may pop
//! in a different relative order than in serial order. That is harmless
//! by construction: phase handlers touch only their own shard's state
//! and append to mergeable output buffers, so their effects commute;
//! every shared-state mutation happens on the coordinator in serial
//! order.
//!
//! # Ownership
//!
//! Every phase runs inline on the calling thread: the coordinator walks
//! the shard cores in shard order and advances each one to the bound.
//! The cores are a plain `Vec` that the coordinator owns next to its
//! serial state (`Cores` and `Serial`, two disjoint fields), so the
//! borrow checker, not a protocol, keeps a serial handler's shard borrow
//! and its gateway/market updates apart. Nothing is shared across
//! threads and nothing is locked.
//!
//! # Merge
//!
//! Journal entries, audit hook calls and timeline points are buffered
//! as `(ctx_key, n, payload)` where `ctx_key` identifies the execution
//! context (the popped event's key, or `(ta, 0, ++dseq)` for the
//! `dseq`-th arrival) and `n` counts records within the context. A
//! merge by `(ctx_key, n)` reconstructs the serial recording order
//! exactly. Metrics merge by [`MetricsSet::absorb`]; the golden digest
//! is insensitive to record order (it ranks sorted latencies and exact
//! counters), which is what makes per-shard record buffers safe.
//!
//! # What depends on `S` (none of it digest-visible)
//!
//! * `EngineStats::peak_heap_len` is the *sum* of per-queue peaks (the
//!   queues peak at different instants).
//! * `dispatch_scan_visits` grows ~`S`-fold: each dispatch reduction
//!   queries every shard's index root.
//! * The auditor counts the same sweep opportunities (and reports the
//!   same `checks`), but physically collapses the sweeps inside one
//!   phase into a single fleet sweep at the phase boundary.
//! * `AuditReport`/journal/stats are not digest material; all digest
//!   fields (counts, sorted latencies, cost, utilization, cold starts,
//!   reconfigs, censored, evictions) merge exactly.

use std::collections::{BTreeMap, VecDeque};

use protean_gpu::{Completion, JobId, JobSpec};
use protean_metrics::{LatencyBreakdown, MetricsSet, RequestRecord};
use protean_models::{Catalog, ModelId};
use protean_sim::{EventKey, KeyedEventQueue, RngFactory, SimRng, SimTime, TimeSeries};
use protean_spot::{PricingTable, ProcurementPolicy, SpotOracle, VmId, VmLedger, VmTier};
use protean_trace::{Lookahead, Request, Trace, TraceConfig, TraceStream};

use crate::audit::Auditor;
use crate::batch::{Accumulator, Batch, BatchId};
use crate::container::Acquire;
use crate::dispatch::DispatchIndex;
use crate::engine::{ClusterConfig, CostReport, EngineStats, GeometryChange, SimulationResult};
use crate::journal::{Journal, JournalEvent};
use crate::scheme::{BatchView, DispatchPolicy, SchemeBuilder};
use crate::worker::{FinishEvent, Offer, RunningBatch, Worker, WorkerStatus};

/// Shard-tag shift for phase-push minors: `minor = ((s+1) << 48) | ctr`.
const SHARD_TAG_SHIFT: u32 = 48;

/// Worker-local event classes, addressed by the owning shard's local
/// worker `slot` (global worker `shard + slot * stride`), so handlers
/// never divide to find their worker. During a phase a shard only ever
/// pushes these for its *own* workers; the coordinator deposits them
/// with serial keys (cold-start and predictive boots).
#[derive(Debug)]
enum ShardEvent {
    BootDone {
        slot: usize,
        model: ModelId,
        vm_epoch: u64,
    },
    JobFinish {
        slot: usize,
        slice: usize,
        job: JobId,
        generation: u64,
        epoch: u64,
    },
    ReconfigDone {
        slot: usize,
        epoch: u64,
    },
}

/// Serial event classes, handled by the coordinator between phases.
/// They all touch shared state (gateway, market, ledger) or need the
/// fleet-wide dispatch reduction.
#[derive(Debug)]
enum CoordEvent {
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
}

/// Buffered audit hook from a phase context, flushed (sorted) at the
/// phase boundary. Coordinator-context hooks apply directly instead —
/// buffering them would misorder a placement against a later
/// eviction-orphan re-dispatch of the same batch.
#[derive(Debug)]
enum Hook {
    Placed(BatchId, usize),
    Finished(BatchId, usize),
    MemoContradicted(BatchId, usize),
}

impl Hook {
    fn apply(self, audit: &mut Auditor, now: SimTime) {
        match self {
            Hook::Placed(id, g) => audit.batch_placed(now, id, g),
            Hook::Finished(id, g) => audit.batch_finished(now, id, g),
            Hook::MemoContradicted(id, g) => audit.memo_contradicted(now, id, g),
        }
    }
}

/// How an execution context allocates event keys.
enum KeyAlloc<'c> {
    /// Coordinator context: `(time, ++gseq, 0)`.
    Serial { gseq: &'c mut u64 },
    /// Phase context on some shard: `(time, major, shard-tagged ctr)`.
    Phase { major: u64 },
}

/// Where an execution context's audit hooks go.
enum AuditSink<'c> {
    /// Straight into the auditor (coordinator contexts).
    Direct(&'c mut Auditor),
    /// Into the shard's hook buffer (phase contexts).
    Buffered,
}

/// Everything a [`ShardCore`] handler needs from its execution context:
/// the clock, the context key and record counter for output ordering,
/// the key allocator and the audit sink.
struct Ctx<'c> {
    config: &'c ClusterConfig,
    catalog: &'c Catalog,
    now: SimTime,
    /// Identifies this execution context in the merge order.
    ctx_key: EventKey,
    /// Next record ordinal within the context (shared across journal,
    /// hooks and timelines so a sort by `(ctx_key, n)` reproduces the
    /// context's internal recording order).
    n: u64,
    alloc: KeyAlloc<'c>,
    audit: AuditSink<'c>,
}

impl Ctx<'_> {
    fn next_n(&mut self) -> u64 {
        let n = self.n;
        self.n += 1;
        n
    }
}

/// Allocates the key for an event push from this context. A free
/// function (not a `ShardCore` method) so callers can borrow
/// `self.ctr` alongside other `ShardCore` fields.
fn next_event_key(ctx: &mut Ctx<'_>, shard: usize, ctr: &mut u64, time: SimTime) -> EventKey {
    match &mut ctx.alloc {
        KeyAlloc::Serial { gseq } => {
            **gseq += 1;
            EventKey::new(time, **gseq, 0)
        }
        KeyAlloc::Phase { major } => {
            *ctr += 1;
            debug_assert!(*ctr < 1 << SHARD_TAG_SHIFT, "phase counter overflow");
            EventKey::new(time, *major, ((shard as u64 + 1) << SHARD_TAG_SHIFT) | *ctr)
        }
    }
}

/// One shard's state, owned by the coordinator (see [`Cores`]).
struct ShardCore {
    shard: usize,
    /// Owned workers, locally indexed: local `l` of shard `s` among `S`
    /// is global `s + l * S`. `Worker::idx` stays global.
    workers: Vec<Worker>,
    /// Per-owned-worker execution-jitter streams
    /// (`indexed_stream("engine.exec_jitter", global_idx)`): a worker's
    /// jitter sequence depends only on its own placement history, so
    /// shards draw it locally and the results do not depend on `S`.
    jitter_rngs: Vec<SimRng>,
    queue: KeyedEventQueue<ShardEvent>,
    /// Partition index over the owned workers, slot `l` = local `l`;
    /// keys carry global worker indices, so cross-shard reduction is a
    /// min over the per-shard roots.
    index: DispatchIndex,
    metrics: MetricsSet,
    /// `(ctx_key, n, event)` journal entries, merged by key at the end.
    journal_buf: Vec<(EventKey, u64, JournalEvent)>,
    /// Buffered phase-context audit hooks.
    hook_buf: Vec<(EventKey, u64, Hook)>,
    /// Per-strict-batch latency samples of the current phase, moved to
    /// the coordinator's timeline at the phase boundary.
    strict_lat_buf: Vec<(EventKey, u64, f64)>,
    /// Completed MIG geometry changes of the current phase, likewise.
    geom_buf: Vec<(EventKey, u64, GeometryChange)>,
    /// Reusable candidate buffer for `try_place`.
    scratch_views: Vec<(BatchId, BatchView)>,
    stats: EngineStats,
    reconfigs: u64,
    /// Phase-push minor counter: monotone for the whole run, never
    /// reset, so phase keys stay unique and chronologically ordered
    /// across phases sharing a `major` snapshot.
    ctr: u64,
    journal_enabled: bool,
    audit_enabled: bool,
}

impl ShardCore {
    fn new(
        shard: usize,
        stride: usize,
        config: &ClusterConfig,
        scheme: &dyn SchemeBuilder,
        factory: &RngFactory,
    ) -> Self {
        let globals: Vec<usize> = (shard..config.workers).step_by(stride).collect();
        let workers = globals
            .iter()
            .map(|&g| Worker::new(g, scheme.build(g), SimTime::ZERO))
            .collect();
        let jitter_rngs = globals
            .iter()
            .map(|&g| factory.indexed_stream("engine.exec_jitter", g as u64))
            .collect();
        ShardCore {
            shard,
            workers,
            jitter_rngs,
            queue: KeyedEventQueue::new(),
            index: DispatchIndex::partition(config.workers, shard, stride),
            metrics: if config.aggregate_metrics {
                MetricsSet::aggregate()
            } else {
                MetricsSet::new()
            },
            journal_buf: Vec::new(),
            hook_buf: Vec::new(),
            strict_lat_buf: Vec::new(),
            geom_buf: Vec::new(),
            scratch_views: Vec::new(),
            stats: EngineStats::default(),
            reconfigs: 0,
            ctr: 0,
            journal_enabled: config.journal_capacity > 0,
            audit_enabled: config.audit,
        }
    }

    fn refresh_index(&mut self, l: usize) {
        self.index.refresh_worker_slot(l, &self.workers[l]);
    }

    fn journal(&mut self, ctx: &mut Ctx<'_>, ev: JournalEvent) {
        if self.journal_enabled {
            let n = ctx.next_n();
            self.journal_buf.push((ctx.ctx_key, n, ev));
        }
    }

    fn audit(&mut self, ctx: &mut Ctx<'_>, hook: Hook) {
        match &mut ctx.audit {
            AuditSink::Direct(a) => hook.apply(a, ctx.now),
            AuditSink::Buffered if self.audit_enabled => {
                let n = ctx.next_n();
                self.hook_buf.push((ctx.ctx_key, n, hook));
            }
            AuditSink::Buffered => {}
        }
    }

    /// Drains this shard's queue up to (exclusive) `bound`, handling
    /// each event in key order, and returns how many it handled. Newly
    /// pushed events take `major` (the coordinator's `gseq` snapshot) as
    /// their key's `major`.
    fn advance(
        &mut self,
        bound: EventKey,
        major: u64,
        config: &ClusterConfig,
        catalog: &Catalog,
    ) -> u64 {
        let mut handled = 0;
        while self.queue.has_event_before(bound) {
            let (k, ev) = self.queue.pop().expect("peeked");
            let mut ctx = Ctx {
                config,
                catalog,
                now: k.time,
                ctx_key: k,
                n: 0,
                alloc: KeyAlloc::Phase { major },
                audit: AuditSink::Buffered,
            };
            match ev {
                ShardEvent::BootDone {
                    slot,
                    model,
                    vm_epoch,
                } => self.on_boot_done(&mut ctx, slot, model, vm_epoch),
                ShardEvent::JobFinish {
                    slot,
                    slice,
                    job,
                    generation,
                    epoch,
                } => self.on_job_finish(&mut ctx, slot, slice, job, generation, epoch),
                ShardEvent::ReconfigDone { slot, epoch } => {
                    self.on_reconfig_done(&mut ctx, slot, epoch)
                }
            }
            handled += 1;
        }
        handled
    }

    // ---- worker-local handlers ---------------------------------------

    fn on_boot_done(&mut self, ctx: &mut Ctx<'_>, l: usize, model: ModelId, vm_epoch: u64) {
        let now = ctx.now;
        let w = &mut self.workers[l];
        if w.vm_epoch != vm_epoch {
            // The VM this container was booting on has been replaced;
            // the boot died with it (the replacement VM started with no
            // containers). Crediting it would mint a phantom container — or
            // underflow the fresh pool's booting count.
            self.stats.stale_boot_events += 1;
            return;
        }
        if w.boot_done(model, now, ctx.catalog) {
            self.try_place(ctx, l);
        }
    }

    fn on_job_finish(
        &mut self,
        ctx: &mut Ctx<'_>,
        l: usize,
        slice: usize,
        job: JobId,
        generation: u64,
        epoch: u64,
    ) {
        let w = &mut self.workers[l];
        let g = w.idx;
        let status = w.finish_event(slice, generation, epoch);
        if status != FinishEvent::Live {
            self.stats.stale_finish_events += 1;
            self.stats.stale_finish_superseded += u64::from(status == FinishEvent::Superseded);
            return;
        }
        let now = ctx.now;
        let (finished, next) = match w.gpu.slice_mut(slice).finish(now, job) {
            Ok(ok) => ok,
            Err(_) => {
                // Stale in a way the generation missed. The slice's
                // membership (and generation) did not change, so the
                // event just consumed was its only live one — re-arm it
                // or the residents would never finish.
                self.stats.stale_finish_events += 1;
                if let Some(c) = w.gpu.slice(slice).next_completion(now) {
                    self.arm_finish(ctx, l, slice, c);
                }
                return;
            }
        };
        let batch_id = BatchId(finished.spec.id.0);
        let Some(running) = w.finish_running(batch_id, now, ctx.catalog) else {
            return;
        };
        // Re-arm the slice's single live finish event for the jobs still
        // resident (the all-jobs discipline would have re-pushed each).
        self.stats.finish_events_all_jobs += w.gpu.slice(slice).job_count() as u64;
        if let Some(c) = next {
            self.arm_finish(ctx, l, slice, c);
        }
        self.audit(ctx, Hook::Finished(batch_id, g));
        self.journal(
            ctx,
            JournalEvent::BatchFinished {
                batch: batch_id,
                worker: g,
            },
        );
        self.record_batch_completion(ctx, l, &running);
        self.maybe_begin_reconfigure(ctx, l);
        self.try_place(ctx, l);
    }

    /// Arms the one live `JobFinish` of worker `l`'s `slice`, for its
    /// next completion `c`.
    fn arm_finish(&mut self, ctx: &mut Ctx<'_>, l: usize, slice: usize, c: Completion) {
        self.stats.finish_events_pushed += 1;
        let k = next_event_key(ctx, self.shard, &mut self.ctr, c.at);
        let finish = ShardEvent::JobFinish {
            slot: l,
            slice,
            job: c.job,
            generation: c.generation,
            epoch: self.workers[l].epoch,
        };
        self.queue.push(k, finish);
    }

    fn record_batch_completion(&mut self, ctx: &mut Ctx<'_>, l: usize, running: &RunningBatch) {
        let now = ctx.now;
        let exec_ms = now.saturating_since(running.exec_start).as_millis_f64();
        let interference_ms = (exec_ms - running.solo_on_slice_ms).max(0.0);
        let deficiency_ms = (running.solo_on_slice_ms - running.solo_7g_ms).max(0.0);
        let cold_ms = running.batch.cold_wait_ms;
        let measure_from = SimTime::ZERO + ctx.config.warmup;
        for req in &running.batch.requests {
            if req.arrival < measure_from {
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
        }
        // The timeline grows O(#strict batches); aggregate-metrics
        // runs trade it away for the flat-RSS guarantee.
        if running.batch.strict && !ctx.config.aggregate_metrics {
            let mean_lat_ms = running
                .batch
                .requests
                .iter()
                .map(|r| now.saturating_since(r.arrival).as_millis_f64())
                .sum::<f64>()
                / running.batch.requests.len().max(1) as f64;
            let n = ctx.next_n();
            self.strict_lat_buf.push((ctx.ctx_key, n, mean_lat_ms));
        }
        self.refresh_index(l);
    }

    /// The placement loop: offers the worker's queued batches (up to
    /// `scan_depth`) to its scheme until a pass places nothing; views
    /// the scheme already declined under the current slice state are
    /// skipped ([`Worker::offer`]). Event
    /// pushes go through [`next_event_key`], the journal and audit hooks
    /// through the context's buffers/sink.
    fn try_place(&mut self, ctx: &mut Ctx<'_>, l: usize) {
        let g = self.workers[l].idx;
        // Take the scratch buffer so the loop body can borrow `self`
        // mutably; restored before returning. The loop runs on every
        // dispatch/boot/finish event, so it must not allocate.
        let mut views = std::mem::take(&mut self.scratch_views);
        loop {
            if !self.workers[l].gpu.accepting() {
                break;
            }
            views.clear();
            self.workers[l]
                .sched_queue
                .for_each_candidate(ctx.config.scan_depth, |b| {
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
                let offer = self.workers[l].offer(&view, ctx.now, ctx.catalog, self.audit_enabled);
                let p = match offer {
                    Offer::Place(p) => p,
                    Offer::Decline => continue,
                    Offer::Skip { contradicted } => {
                        self.stats.place_memo_skips += 1;
                        if contradicted {
                            self.audit(ctx, Hook::MemoContradicted(batch_id, g));
                        }
                        continue;
                    }
                };
                if p.slice >= self.workers[l].gpu.slices().len() {
                    continue;
                }
                let profile = ctx.catalog.profile(view.model);
                let slice_profile = self.workers[l].gpu.slice(p.slice).profile();
                // Inference batch latency is affine in batch size (see
                // ModelProfile::fill_factor), so partial (window-sealed)
                // batches run proportionally faster.
                let fill = f64::from(view.size) / f64::from(profile.batch_size);
                let fill_factor = profile.fill_factor(fill);
                let jitter = if ctx.config.exec_jitter_sigma > 0.0 {
                    (self.jitter_rngs[l].standard_normal() * ctx.config.exec_jitter_sigma)
                        .exp()
                        .clamp(0.6, 1.7)
                } else {
                    1.0
                };
                let mut solo = profile
                    .solo_on(slice_profile)
                    .mul_f64(p.solo_scale.max(0.0) * fill_factor * jitter);
                if self.workers[l].gpu.slice(p.slice).mode() == protean_gpu::SharingMode::TimeShared
                {
                    // Context switch between containers on a time-shared
                    // GPU (weights/context re-activation), scaling with
                    // the model's working set.
                    solo += protean_sim::SimDuration::from_millis(
                        ctx.config.time_share_overhead_base_ms
                            + ctx.config.time_share_overhead_ms_per_gb * profile.mem_gb,
                    );
                }
                let spec = JobSpec {
                    id: JobId(batch_id.0),
                    solo,
                    fbr: profile.fbr * p.fbr_scale.max(0.0),
                    mem_gb: profile.mem_gb,
                };
                let w = &mut self.workers[l];
                let admitted = w.gpu.slice_mut(p.slice).admit(ctx.now, spec);
                match admitted {
                    Ok(next) => {
                        let batch = w
                            .sched_queue
                            .remove(batch_id, profile.mem_gb)
                            .expect("placed batch was queued");
                        w.start_running(RunningBatch {
                            batch,
                            slice: p.slice,
                            exec_start: ctx.now,
                            solo_on_slice_ms: solo.as_millis_f64(),
                            solo_7g_ms: profile.solo_7g.as_millis_f64() * fill_factor * jitter,
                        });
                        // One live finish event per slice: the admit
                        // bumped the generation, so whatever event was
                        // armed before is now stale. The all-jobs
                        // discipline would have re-pushed every
                        // resident here.
                        let job_count = w.gpu.slice(p.slice).job_count() as u64;
                        self.stats.finish_events_all_jobs += job_count;
                        self.arm_finish(ctx, l, p.slice, next);
                        self.audit(ctx, Hook::Placed(batch_id, g));
                        self.journal(
                            ctx,
                            JournalEvent::BatchPlaced {
                                batch: batch_id,
                                worker: g,
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

    fn maybe_begin_reconfigure(&mut self, ctx: &mut Ctx<'_>, l: usize) {
        let w = &mut self.workers[l];
        if matches!(w.gpu.state(), protean_gpu::GpuState::Draining { .. }) && w.gpu.is_idle() {
            if let Ok(until) = w.gpu.try_begin_reconfigure(ctx.now) {
                let epoch = w.epoch;
                let k = next_event_key(ctx, self.shard, &mut self.ctr, until);
                self.queue
                    .push(k, ShardEvent::ReconfigDone { slot: l, epoch });
            }
        }
    }

    fn on_reconfig_done(&mut self, ctx: &mut Ctx<'_>, l: usize, epoch: u64) {
        let w = &mut self.workers[l];
        let g = w.idx;
        if w.epoch != epoch {
            return; // VM replaced while reconfiguring
        }
        if w.gpu.complete_reconfigure(ctx.now).is_ok() {
            w.epoch += 1;
            self.reconfigs += 1;
            let geometry = w.gpu.geometry().to_string();
            self.journal(
                ctx,
                JournalEvent::Reconfigured {
                    worker: g,
                    geometry: geometry.clone(),
                },
            );
            let n = ctx.next_n();
            self.geom_buf.push((
                ctx.ctx_key,
                n,
                GeometryChange {
                    at: ctx.now,
                    worker: g,
                    geometry,
                },
            ));
            self.refresh_index(l);
            self.try_place(ctx, l);
        }
    }
}

/// Sorts `buf` by `(ctx_key, n)` and empties it into `sink` in that
/// order. The buffer keeps its capacity for the next phase.
fn drain_in_key_order<T>(buf: &mut Vec<(EventKey, u64, T)>, mut sink: impl FnMut(EventKey, T)) {
    if buf.is_empty() {
        return;
    }
    buf.sort_unstable_by_key(|&(key, n, _)| (key, n));
    for (key, _, payload) in buf.drain(..) {
        sink(key, payload);
    }
}

/// The shard cores, indexed by shard, owned by the coordinator.
struct Cores(Vec<ShardCore>);

impl Cores {
    fn len(&self) -> usize {
        self.0.len()
    }

    /// Global worker `g`'s shard core and its local slot there.
    fn locate(&mut self, g: usize) -> (&mut ShardCore, usize) {
        let s = self.len();
        (&mut self.0[g % s], g / s)
    }

    /// Every shard core, in shard order.
    fn iter(&self) -> impl Iterator<Item = &ShardCore> + Clone {
        self.0.iter()
    }

    /// Every worker of the fleet, shard by shard (so not in global
    /// order).
    fn fleet(&self) -> impl Iterator<Item = &Worker> + Clone {
        self.iter().flat_map(|core| core.workers.iter())
    }

    /// Dispatch target selection: `Consolidate` first-fit under `cap`
    /// when the policy asks, then the least-loaded worker with an
    /// accepting GPU — a GPU draining for reconfiguration gets no new
    /// traffic (§4.4 keeps downtime local) — then any live worker if
    /// every GPU is mid-change.
    ///
    /// A cross-shard reduction of the per-shard dispatch indices. Every
    /// shard's index is a partition over its own workers whose keys
    /// carry global worker indices (leaf order monotone in them), so
    /// [`crate::dispatch::select_across`]'s min-over-roots reduction
    /// equals a fleet-wide scan: first-fit picks
    /// the smallest global index any shard can seat (each shard's
    /// descent is leftmost over its own slots), and the least-loaded
    /// tiers pick the min `(outstanding, idx)` root. Decision-only —
    /// mutation (worker state + index refresh) happens strictly after,
    /// which is what makes resolving a whole arrival run's decisions in
    /// serial order between phases hazard-free.
    fn indexed_target(&self, cap: Option<u64>, visits: &mut u64) -> Option<usize> {
        crate::dispatch::select_across(self.iter().map(|core| &core.index), cap, visits)
    }
}

/// What a run feeds the coordinator: a materialised request vector or a
/// pair of lazy streams (arrivals + the prewarm pre-scan).
enum Source {
    Materialised(Vec<Request>, protean_sim::SimDuration),
    Streaming(Box<TraceStream>, Box<TraceStream>),
}

/// The coordinator's serial state: the gateway (accumulators, backlog,
/// batch ids), the spot market and VM ledger, the serial event queue,
/// the auditor, the journal and the counters. It holds no shard core;
/// a handler that needs one borrows it from [`Cores`], a disjoint field
/// of the same [`Coordinator`].
struct Serial<'a> {
    config: &'a ClusterConfig,
    catalog: &'a Catalog,
    market: &'a mut dyn SpotOracle,
    ledger: VmLedger,
    /// Open batches per `(model, strictness)`. Ordered, so teardown
    /// censors leftover requests in a fixed order.
    accumulators: BTreeMap<(ModelId, bool), Accumulator>,
    backlog: VecDeque<Batch>,
    coord_queue: KeyedEventQueue<CoordEvent>,
    /// Global serial push counter — the FIFO insertion counter of the
    /// serial order, reified into the keys.
    gseq: u64,
    /// Arrival-context counter for `(ta, 0, dseq)` merge keys.
    dseq: u64,
    now: SimTime,
    cutoff: SimTime,
    next_batch_id: u64,
    dispatch_policy: DispatchPolicy,
    /// Censored-request records (pushed after the cutoff, merged last —
    /// their position in the serial record stream).
    censor_metrics: MetricsSet,
    journal_buf: Vec<(EventKey, u64, JournalEvent)>,
    stats: EngineStats,
    audit: Auditor,
    evictions: u64,
    censored: u64,
    /// Per-strict-batch latency samples `(completion, latency_ms)`,
    /// in serial order.
    strict_latency_timeline: TimeSeries,
    /// Completed MIG geometry changes, in serial order.
    geometry_timeline: Vec<GeometryChange>,
    /// Reusable merge buffers for phase boundaries.
    scratch_hooks: Vec<(EventKey, u64, Hook)>,
    scratch_strict: Vec<(EventKey, u64, f64)>,
    scratch_geom: Vec<(EventKey, u64, GeometryChange)>,
    /// Current serial context's merge key and record ordinal.
    ctx_key: EventKey,
    ctx_n: u64,
}

impl<'a> Serial<'a> {
    fn new(
        config: &'a ClusterConfig,
        catalog: &'a Catalog,
        dispatch_policy: DispatchPolicy,
        market: &'a mut dyn SpotOracle,
    ) -> Self {
        assert!(config.workers > 0, "cluster needs at least one worker");
        Serial {
            config,
            catalog,
            market,
            ledger: VmLedger::new(PricingTable::paper_table3(), config.provider),
            accumulators: BTreeMap::new(),
            backlog: VecDeque::new(),
            coord_queue: KeyedEventQueue::new(),
            gseq: 0,
            dseq: 0,
            now: SimTime::ZERO,
            cutoff: SimTime::MAX,
            next_batch_id: 0,
            dispatch_policy,
            censor_metrics: if config.aggregate_metrics {
                MetricsSet::aggregate()
            } else {
                MetricsSet::new()
            },
            journal_buf: Vec::new(),
            stats: EngineStats::default(),
            audit: Auditor::new(config.audit, config.audit_every_n),
            evictions: 0,
            censored: 0,
            strict_latency_timeline: TimeSeries::new(),
            geometry_timeline: Vec::new(),
            scratch_hooks: Vec::new(),
            scratch_strict: Vec::new(),
            scratch_geom: Vec::new(),
            ctx_key: EventKey::new(SimTime::ZERO, 0, 0),
            ctx_n: 0,
        }
    }

    /// Allocates a serial event key — the next FIFO position in serial
    /// order.
    fn serial_key(&mut self, time: SimTime) -> EventKey {
        self.gseq += 1;
        EventKey::new(time, self.gseq, 0)
    }

    fn push_coord(&mut self, time: SimTime, ev: CoordEvent) {
        let k = self.serial_key(time);
        self.coord_queue.push(k, ev);
    }

    /// Opens a serial execution context for output-merge ordering.
    fn begin_ctx(&mut self, key: EventKey) {
        self.ctx_key = key;
        self.ctx_n = 0;
    }

    fn cjournal(&mut self, ev: JournalEvent) {
        if self.config.journal_capacity > 0 {
            self.journal_buf.push((self.ctx_key, self.ctx_n, ev));
            self.ctx_n += 1;
        }
    }

    /// Runs a [`ShardCore`] method in the current serial context:
    /// serial key allocation, direct audit sink, shared record ordinal.
    fn with_serial_ctx<R>(&mut self, f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
        let mut ctx = Ctx {
            config: self.config,
            catalog: self.catalog,
            now: self.now,
            ctx_key: self.ctx_key,
            n: self.ctx_n,
            alloc: KeyAlloc::Serial {
                gseq: &mut self.gseq,
            },
            audit: AuditSink::Direct(&mut self.audit),
        };
        let r = f(&mut ctx);
        self.ctx_n = ctx.n;
        r
    }

    fn try_place(&mut self, core: &mut ShardCore, l: usize) {
        self.with_serial_ctx(|ctx| core.try_place(ctx, l));
    }

    fn maybe_begin_reconfigure(&mut self, core: &mut ShardCore, l: usize) {
        self.with_serial_ctx(|ctx| core.maybe_begin_reconfigure(ctx, l));
    }

    fn acquire_container(&mut self, core: &mut ShardCore, l: usize, batch: Batch) {
        let model = batch.model;
        let now = self.now;
        let w = &mut core.workers[l];
        let g = w.idx;
        match w.acquire_container(batch, now, self.catalog) {
            Acquire::Warm => self.try_place(core, l),
            Acquire::ColdStarted => {
                let vm_epoch = w.vm_epoch;
                self.cjournal(JournalEvent::ColdStart { worker: g, model });
                self.arm_boot(&mut core.queue, l, model, vm_epoch);
            }
        }
    }

    /// Arms the `BootDone` of a container boot on worker `slot`, one
    /// cold-start delay from now, in serial order.
    fn arm_boot(
        &mut self,
        queue: &mut KeyedEventQueue<ShardEvent>,
        slot: usize,
        model: ModelId,
        vm_epoch: u64,
    ) {
        let k = self.serial_key(self.now + self.config.cold_start);
        let boot = ShardEvent::BootDone {
            slot,
            model,
            vm_epoch,
        };
        queue.push(k, boot);
    }

    fn procure_replacement(&mut self, g: usize) {
        let granted = self.market.try_acquire_spot(self.now, g);
        match self.config.procurement.replacement_tier(granted) {
            Some(tier) => {
                self.push_coord(
                    self.now + self.config.vm_startup,
                    CoordEvent::VmReady { worker: g, tier },
                );
            }
            None => {
                self.push_coord(
                    self.now + self.config.procurement_retry,
                    CoordEvent::ProcurementRetry { worker: g },
                );
            }
        }
    }

    fn finish(self) -> CoordOutputs {
        CoordOutputs {
            coord_pushed: self.coord_queue.pushed(),
            coord_popped: self.coord_queue.popped(),
            coord_peak: self.coord_queue.peak_len(),
            ledger: self.ledger,
            censor_metrics: self.censor_metrics,
            journal_buf: self.journal_buf,
            strict_latency_timeline: self.strict_latency_timeline,
            geometry_timeline: self.geometry_timeline,
            stats: self.stats,
            audit: self.audit,
            evictions: self.evictions,
            censored: self.censored,
            cutoff: self.cutoff,
        }
    }
}

/// The serial half of the engine: runs every arrival and [`CoordEvent`]
/// in serial order, with shard phases in between. Its two fields are
/// disjoint borrows: a handler holds a core from `cores` while it
/// updates `serial`.
struct Coordinator<'a> {
    cores: Cores,
    serial: Serial<'a>,
}

impl Coordinator<'_> {
    // ---- startup ----------------------------------------------------

    fn provision_initial_vms(&mut self) {
        let Coordinator { cores, serial } = self;
        let config = serial.config;
        for g in 0..config.workers {
            let tier = match config.procurement {
                ProcurementPolicy::OnDemandOnly => Some(VmTier::OnDemand),
                policy => policy.replacement_tier(serial.market.try_acquire_spot(serial.now, g)),
            };
            let (core, l) = cores.locate(g);
            match tier {
                Some(tier) => {
                    let id = serial.ledger.allocate_id();
                    serial.ledger.open(id, tier, SimTime::ZERO);
                    let w = &mut core.workers[l];
                    w.vm = Some((id, tier));
                    w.status = WorkerStatus::Up;
                    w.gpu.set_reconfig_delay(config.reconfig_delay);
                    if tier == VmTier::Spot {
                        serial.push_coord(
                            SimTime::ZERO + config.revocation_check,
                            CoordEvent::RevocationCheck { worker: g },
                        );
                    }
                }
                None => {
                    core.workers[l].status = WorkerStatus::Down;
                    serial.push_coord(
                        SimTime::ZERO + config.procurement_retry,
                        CoordEvent::ProcurementRetry { worker: g },
                    );
                }
            }
        }
        for g in 0..config.workers {
            let (core, l) = cores.locate(g);
            core.refresh_index(l);
        }
        serial.push_coord(
            SimTime::ZERO + config.monitor_interval,
            CoordEvent::MonitorTick,
        );
    }

    /// Pre-warms `prewarm_containers` containers on every worker for each
    /// distinct model of `trace_models` (a trace's per-request models),
    /// in first-seen order. Stops reading once `universe` distinct models
    /// were seen.
    fn prewarm_fleet(&mut self, trace_models: impl Iterator<Item = ModelId>, universe: usize) {
        let count = self.serial.config.prewarm_containers;
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
        let now = self.serial.now;
        for g in 0..self.serial.config.workers {
            let (core, l) = self.cores.locate(g);
            core.workers[l].prewarm(&models, count, now);
        }
    }

    // ---- request path -----------------------------------------------

    fn dispatch(&mut self, request: Request) {
        let serial = &mut self.serial;
        serial.stats.arrivals += 1;
        let batch_size = serial.catalog.profile(request.model).batch_size;
        let key = (request.model, request.strict);
        let acc = serial.accumulators.entry(key).or_default();
        let first = acc.push(request);
        if acc.len() as u32 >= batch_size {
            self.seal_batch(key);
        } else if first {
            let seq = acc.seal_seq;
            serial.push_coord(
                serial.now + serial.config.batch_window,
                CoordEvent::WindowExpire {
                    model: key.0,
                    strict: key.1,
                    seq,
                },
            );
        }
    }

    fn seal_batch(&mut self, key: (ModelId, bool)) {
        let serial = &mut self.serial;
        let requests = match serial.accumulators.get_mut(&key) {
            Some(acc) if !acc.is_empty() => acc.seal(),
            _ => return,
        };
        let id = BatchId(serial.next_batch_id);
        serial.next_batch_id += 1;
        let batch = Batch {
            id,
            model: key.0,
            strict: key.1,
            requests,
            sealed_at: serial.now,
            cold_wait_ms: 0.0,
            redispatched: false,
        };
        serial.audit.batch_sealed(serial.now, batch.id);
        serial.cjournal(JournalEvent::BatchSealed {
            batch: batch.id,
            model: batch.model,
            strict: batch.strict,
            size: batch.size(),
        });
        self.dispatch_batch(batch);
    }

    fn dispatch_batch(&mut self, batch: Batch) {
        let Coordinator { cores, serial } = self;
        serial.stats.dispatch_batches += 1;
        let cap = match serial.dispatch_policy {
            DispatchPolicy::Consolidate { cap_batches } => {
                Some(cap_batches * u64::from(serial.catalog.profile(batch.model).batch_size))
            }
            DispatchPolicy::LoadBalance => None,
        };
        let mut visits = 0u64;
        let target = cores.indexed_target(cap, &mut visits);
        serial.stats.dispatch_scan_visits += visits;
        serial
            .audit
            .dispatch_selected(serial.now, batch.id, target, cap, cores.fleet());
        match target {
            Some(g) => {
                let (core, l) = cores.locate(g);
                let routable = core.workers[l].routable();
                serial.audit.batch_dispatched(
                    serial.now,
                    batch.id,
                    g,
                    routable,
                    batch.redispatched,
                );
                core.workers[l].accept_dispatch(&batch);
                core.refresh_index(l);
                serial.cjournal(JournalEvent::BatchDispatched {
                    batch: batch.id,
                    worker: g,
                    redispatch: batch.redispatched,
                });
                serial.acquire_container(core, l, batch);
            }
            None => serial.backlog.push_back(batch),
        }
    }

    // ---- phases -----------------------------------------------------

    /// Advances every shard that holds an event below the exclusive
    /// `bound` (clamped at the cutoff) to it, with the current `gseq` as
    /// the phase's `major`, and returns how many events the phase
    /// handled.
    ///
    /// Then moves what the shards buffered — audit hooks, strict latency
    /// samples, geometry changes — to the coordinator in merged
    /// `(ctx_key, n)` order, the serial order. Every key a phase handles
    /// sorts below its bound and every later key above it, so flushing
    /// phase by phase builds each output in serial order while the shard
    /// buffers only ever hold one phase's records.
    fn run_phase(&mut self, bound: EventKey) -> u64 {
        let Coordinator { cores, serial } = self;
        let bound = bound.min(EventKey::new(serial.cutoff, u64::MAX, u64::MAX));
        let major = serial.gseq;
        let mut total = 0;
        for core in &mut cores.0 {
            if !core.queue.has_event_before(bound) {
                continue;
            }
            total += core.advance(bound, major, serial.config, serial.catalog);
            serial.scratch_hooks.append(&mut core.hook_buf);
            serial.scratch_strict.append(&mut core.strict_lat_buf);
            serial.scratch_geom.append(&mut core.geom_buf);
        }
        drain_in_key_order(&mut serial.scratch_hooks, |key, hook| {
            hook.apply(&mut serial.audit, key.time)
        });
        drain_in_key_order(&mut serial.scratch_strict, |key, latency_ms| {
            serial.strict_latency_timeline.push(key.time, latency_ms)
        });
        drain_in_key_order(&mut serial.scratch_geom, |_, change| {
            serial.geometry_timeline.push(change)
        });
        total
    }

    /// Counts `opportunities` audit-sweep opportunities (one per handled
    /// event or arrival, whatever `S` is) and, if any came due,
    /// runs one collapsed fleet sweep at `at`.
    fn audit_boundary(&mut self, at: SimTime, opportunities: u64) {
        let Coordinator { cores, serial } = self;
        if opportunities == 0 {
            return;
        }
        let mut due = false;
        for _ in 0..opportunities {
            due |= serial.audit.sweep_due();
        }
        if !due {
            return;
        }
        let mut problems: Vec<String> = Vec::new();
        for core in cores.iter() {
            problems.extend(
                core.index
                    .verify_partition(serial.config.workers, core.workers.iter()),
            );
        }
        serial
            .audit
            .sweep(at, cores.fleet(), &serial.ledger, problems);
    }

    // ---- main loop --------------------------------------------------

    fn run_arrivals<I: Iterator<Item = Request>>(
        &mut self,
        arrivals: I,
        duration: protean_sim::SimDuration,
    ) {
        enum Step {
            Arrival,
            Coord,
            Done,
        }
        self.serial.cutoff = SimTime::ZERO + duration + self.serial.config.drain_grace;
        let mut arrivals = Lookahead::new(arrivals);
        loop {
            let next_arrival = arrivals.peek_arrival();
            let next_coord = self.serial.coord_queue.peek_key();
            let (bound, step) = match (next_arrival, next_coord) {
                (Some(ta), Some(ck)) if ta <= ck.time => (EventKey::new(ta, 0, 0), Step::Arrival),
                (Some(ta), None) => (EventKey::new(ta, 0, 0), Step::Arrival),
                (_, Some(ck)) => (ck, Step::Coord),
                (None, None) => (EventKey::new(SimTime::MAX, u64::MAX, u64::MAX), Step::Done),
            };
            let events = self.run_phase(bound);
            let sweep_at = bound.time.min(self.serial.cutoff);
            self.audit_boundary(sweep_at, events);
            match step {
                Step::Arrival => {
                    let ta = next_arrival.expect("peeked");
                    if ta > self.serial.cutoff {
                        break;
                    }
                    self.dispatch_run(&mut arrivals);
                }
                Step::Coord => {
                    let ck = next_coord.expect("peeked");
                    if ck.time > self.serial.cutoff {
                        break;
                    }
                    if matches!(
                        self.serial.coord_queue.peek(),
                        Some((_, CoordEvent::WindowExpire { .. }))
                    ) {
                        // A window expiry is dispatch-shaped, so it
                        // *opens* a run instead of standing alone: the
                        // phase bounded at its key just completed, which
                        // is exactly the admission proof `dispatch_run`
                        // requires of its first member.
                        self.dispatch_run(&mut arrivals);
                    } else {
                        self.serial.now = ck.time;
                        let (k, ev) = self.serial.coord_queue.pop().expect("peeked");
                        self.serial.begin_ctx(k);
                        self.handle_coord(ev);
                        self.audit_boundary(k.time, 1);
                    }
                }
                Step::Done => break,
            }
        }
        self.serial.now = self.serial.cutoff;
        self.serial
            .audit
            .epoch_conservation(self.serial.now, &self.serial.stats);
        self.censor_remaining();
    }

    /// Peels and dispatches one maximal *dispatch run* — the epoch
    /// coarsening at the heart of this engine's scalability on
    /// dispatch-dense traces. A run is a maximal sequence of
    /// consecutive dispatch-shaped events: gateway arrivals and
    /// `WindowExpire` batch-window dispatches, which route the pending
    /// window batch through the same `DispatchIndex` path an arrival
    /// uses. The phase bounded at the run's first member has just
    /// completed, so every shard's next pending event (if any) sits at
    /// or after that member's bound. Each run member is handled exactly as in
    /// per-arrival mode (serial context, live index resolution, full
    /// mutation, per-member audit opportunity); the run then *extends*
    /// to the next dispatch event only when the phase the per-arrival
    /// discipline would insert before it is provably empty:
    ///
    /// * the member wins its key-order tie against every other pending
    ///   serial coordinator event — an arrival's bound `(ta, 0, 0)`
    ///   orders before every real key at `ta` (real keys have
    ///   `major >= 1`), so `ta <= te` is the arrival's tie win; a
    ///   window expiry qualifies only as the coordinator-queue *head*,
    ///   which (keys being unique) is an automatic strict win — both
    ///   re-checked each step, since dispatching a run member can
    ///   schedule a new window expiry, and
    /// * no shard holds a pending event below the member's key
    ///   (re-checked each step — a cold start deposits a serially-keyed
    ///   `BootDone` into a shard heap mid-run). Events pushed *by* run
    ///   members carry fresh serial majors greater than any admitted
    ///   member's, so they can never retroactively invalidate an
    ///   elision already proven.
    ///
    /// The run cuts the moment a non-dispatch coordinator event
    /// (`MonitorTick`, `RevocationCheck`, `EvictionFinal`, `VmReady`,
    /// `ProcurementRetry`) wins the tie, or a shard conflict
    /// intervenes. A skipped phase with no participants has *no* effect
    /// in per-arrival mode (`run_phase` returns 0 before touching the
    /// epoch counter or the barrier, and a 0-event `audit_boundary` is
    /// a no-op), so eliding it is exact — bit-identical by
    /// construction, for any workload, shard count and cap. Runs
    /// additionally cut at [`ClusterConfig::max_epoch_arrivals`]
    /// members, under journal-capacity pressure, and at the trace end /
    /// cutoff; every cut is attributed to exactly one cause so the
    /// counter triad reconciles (see [`Auditor::epoch_conservation`]).
    fn dispatch_run<I: Iterator<Item = Request>>(&mut self, arrivals: &mut Lookahead<I>) {
        let cap = self.serial.config.max_epoch_arrivals.max(1);
        self.serial.stats.epochs += 1;
        let mut members = 0u64;
        let mut expiry_members = 0u64;
        let mut first_is_expiry = false;
        loop {
            // Select the next member by key order over the unfiltered
            // peeks. Admission was proven by the caller (first member:
            // its bounding phase just ran) or by the extension check at
            // the bottom of the previous iteration.
            let take_arrival = match (arrivals.peek_arrival(), self.serial.coord_queue.peek_key()) {
                (Some(ta), Some(ck)) => ta <= ck.time,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!("admission-checked"),
            };
            if take_arrival {
                let r = arrivals.next().expect("peeked");
                self.serial.now = r.arrival;
                self.serial.dseq += 1;
                self.serial
                    .begin_ctx(EventKey::new(r.arrival, 0, self.serial.dseq));
                self.dispatch(r);
            } else {
                let (k, ev) = self.serial.coord_queue.pop().expect("peeked");
                debug_assert!(
                    matches!(ev, CoordEvent::WindowExpire { .. }),
                    "only window expiries are admitted into dispatch runs"
                );
                if members == 0 {
                    first_is_expiry = true;
                }
                expiry_members += 1;
                self.serial.now = k.time;
                self.serial.begin_ctx(k);
                self.handle_coord(ev);
            }
            members += 1;
            self.audit_boundary(self.serial.now, 1);

            let ta = arrivals
                .peek_arrival()
                .filter(|&ta| ta <= self.serial.cutoff);
            let next_expiry_key = match self.serial.coord_queue.peek() {
                Some((ck, CoordEvent::WindowExpire { .. })) if ck.time <= self.serial.cutoff => {
                    Some(ck)
                }
                _ => None,
            };
            if ta.is_none() && next_expiry_key.is_none() {
                self.serial.stats.run_cutoffs.trace_end += 1;
                break;
            }
            if members >= cap {
                self.serial.stats.run_cutoffs.max_arrivals += 1;
                break;
            }
            if self.serial.config.journal_capacity > 0
                && self.serial.journal_buf.len() >= self.serial.config.journal_capacity
            {
                self.serial.stats.run_cutoffs.journal_pressure += 1;
                break;
            }
            let ck = self.serial.coord_queue.peek_key();
            let arrival_next = ta.is_some_and(|ta| ck.is_none_or(|ck| ta <= ck.time));
            if arrival_next {
                let bound = EventKey::new(ta.expect("checked"), 0, 0);
                if self.cores.iter().any(|c| c.queue.has_event_before(bound)) {
                    self.serial.stats.run_cutoffs.shard_conflict += 1;
                    break;
                }
            } else if let Some(bound) = next_expiry_key {
                if self.cores.iter().any(|c| c.queue.has_event_before(bound)) {
                    self.serial.stats.run_cutoffs.expiry_shard_conflict += 1;
                    break;
                }
            } else {
                // A non-dispatch coordinator event beat the next
                // arrival.
                self.serial.stats.run_cutoffs.serial_event += 1;
                break;
            }
        }
        let arrival_members = members - expiry_members;
        if first_is_expiry {
            self.serial.stats.coalesced_arrivals += arrival_members;
            self.serial.stats.coalesced_expiries += expiry_members - 1;
        } else {
            self.serial.stats.coalesced_arrivals += arrival_members - 1;
            self.serial.stats.coalesced_expiries += expiry_members;
        }
    }

    fn handle_coord(&mut self, ev: CoordEvent) {
        match ev {
            CoordEvent::WindowExpire { model, strict, seq } => {
                self.serial.stats.expiries += 1;
                let stale = self
                    .serial
                    .accumulators
                    .get(&(model, strict))
                    .is_none_or(|acc| acc.seal_seq != seq || acc.is_empty());
                if !stale {
                    self.seal_batch((model, strict));
                }
            }
            CoordEvent::MonitorTick => self.on_monitor_tick(),
            CoordEvent::RevocationCheck { worker } => self.on_revocation_check(worker),
            CoordEvent::EvictionFinal { worker } => self.on_eviction_final(worker),
            CoordEvent::VmReady { worker, tier } => self.on_vm_ready(worker, tier),
            CoordEvent::ProcurementRetry { worker } => self.on_procurement_retry(worker),
        }
    }

    // ---- monitor ----------------------------------------------------

    fn on_monitor_tick(&mut self) {
        let now = self.serial.now;
        let config = self.serial.config;
        for g in 0..config.workers {
            let (core, l) = self.cores.locate(g);
            let serial = &mut self.serial;
            let vm_epoch = core.workers[l].vm_epoch;
            let desired = core.workers[l].monitor_tick(now, config, serial.catalog, |model| {
                serial.arm_boot(&mut core.queue, l, model, vm_epoch)
            });
            if let Some(geometry) = desired {
                // End the `&mut` borrow of this core before
                // `reconfig_slots_free` reads every core, then re-borrow
                // for the mutation.
                let changed = geometry != *core.workers[l].gpu.geometry();
                if changed && self.reconfig_slots_free() {
                    let (core, l) = self.cores.locate(g);
                    let _ = core.workers[l].gpu.request_reconfigure(geometry);
                    core.refresh_index(l);
                    self.serial.maybe_begin_reconfigure(core, l);
                }
            }
        }
        self.drain_backlog();
        if now + config.monitor_interval <= self.serial.cutoff {
            self.serial
                .push_coord(now + config.monitor_interval, CoordEvent::MonitorTick);
        }
    }

    fn reconfig_slots_free(&self) -> bool {
        let busy: usize = self
            .cores
            .iter()
            .map(|core| core.index.routable_len() - core.index.accepting_len())
            .sum();
        let config = self.serial.config;
        let cap = ((config.max_reconfig_fraction * config.workers as f64).ceil() as usize).max(1);
        busy < cap
    }

    // ---- spot lifecycle ---------------------------------------------

    fn on_revocation_check(&mut self, g: usize) {
        let Coordinator { cores, serial } = self;
        let (core, l) = cores.locate(g);
        let w = &core.workers[l];
        if !matches!(w.status, WorkerStatus::Up) || !matches!(w.vm, Some((_, VmTier::Spot))) {
            return;
        }
        if let Some(lead) = serial.market.roll_revocation(serial.now, g) {
            let evict_at = serial.now + lead;
            core.workers[l].status = WorkerStatus::Evicting { evict_at };
            core.refresh_index(l);
            serial.cjournal(JournalEvent::EvictionNotice {
                worker: g,
                evict_at,
            });
            serial.evictions += 1;
            serial.push_coord(evict_at, CoordEvent::EvictionFinal { worker: g });
            serial.procure_replacement(g);
        } else {
            serial.push_coord(
                serial.now + serial.config.revocation_check,
                CoordEvent::RevocationCheck { worker: g },
            );
        }
    }

    fn on_eviction_final(&mut self, g: usize) {
        let (core, l) = self.cores.locate(g);
        if !matches!(core.workers[l].status, WorkerStatus::Evicting { .. }) {
            return;
        }
        if let Some((vm, _)) = core.workers[l].vm.take() {
            self.serial.ledger.close(vm, self.serial.now);
        }
        self.serial.cjournal(JournalEvent::Evicted { worker: g });
        let orphans = core.workers[l].drain_all_batches();
        core.workers[l].epoch += 1;
        match core.workers[l].pending_vm.take() {
            Some((vm, tier)) => self.install_vm(g, vm, tier),
            None => {
                core.workers[l].status = WorkerStatus::Down;
                core.refresh_index(l);
            }
        }
        for mut b in orphans {
            b.redispatched = true;
            self.dispatch_batch(b);
        }
    }

    fn on_vm_ready(&mut self, g: usize, tier: VmTier) {
        let (core, l) = self.cores.locate(g);
        match core.workers[l].status {
            WorkerStatus::Evicting { .. } => {
                let vm = self.serial.ledger.allocate_id();
                self.serial.ledger.open(vm, tier, self.serial.now);
                core.workers[l].pending_vm = Some((vm, tier));
            }
            WorkerStatus::Down => {
                let vm = self.serial.ledger.allocate_id();
                self.serial.ledger.open(vm, tier, self.serial.now);
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
        let Coordinator { cores, serial } = self;
        let (core, l) = cores.locate(g);
        let w = &mut core.workers[l];
        w.reset_runtime(serial.now);
        w.gpu.set_reconfig_delay(serial.config.reconfig_delay);
        w.vm = Some((vm, tier));
        w.status = WorkerStatus::Up;
        core.refresh_index(l);
        serial.cjournal(JournalEvent::VmInstalled { worker: g });
        if tier == VmTier::Spot {
            serial.push_coord(
                serial.now + serial.config.revocation_check,
                CoordEvent::RevocationCheck { worker: g },
            );
        }
        self.drain_backlog();
    }

    fn on_procurement_retry(&mut self, g: usize) {
        let (core, l) = self.cores.locate(g);
        if matches!(core.workers[l].status, WorkerStatus::Down) {
            self.serial.procure_replacement(g);
        }
    }

    fn drain_backlog(&mut self) {
        if self.serial.backlog.is_empty()
            || !self.cores.iter().any(|core| core.index.any_routable())
        {
            return;
        }
        let pending: Vec<Batch> = self.serial.backlog.drain(..).collect();
        for b in pending {
            self.dispatch_batch(b);
        }
        self.serial.stats.backlog_requeued += self.serial.backlog.len() as u64;
    }

    // ---- teardown ---------------------------------------------------

    fn censor_remaining(&mut self) {
        let Coordinator { cores, serial } = self;
        let now = serial.now;
        let mut leftovers: Vec<(ModelId, bool, Request)> = Vec::new();
        for g in 0..serial.config.workers {
            let (core, l) = cores.locate(g);
            for b in core.workers[l].drain_all_batches() {
                for r in b.requests {
                    leftovers.push((b.model, b.strict, r));
                }
            }
        }
        for b in std::mem::take(&mut serial.backlog) {
            for r in b.requests {
                leftovers.push((b.model, b.strict, r));
            }
        }
        for acc in serial.accumulators.values_mut() {
            for r in acc.drain() {
                leftovers.push((r.model, r.strict, r));
            }
        }
        let measure_from = SimTime::ZERO + serial.config.warmup;
        for (model, strict, r) in leftovers {
            if r.arrival < measure_from {
                continue;
            }
            serial.censored += 1;
            let total_ms = now.saturating_since(r.arrival).as_millis_f64();
            serial.censor_metrics.push(RequestRecord {
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

    fn drive(&mut self, src: Source) {
        self.provision_initial_vms();
        match src {
            Source::Materialised(requests, duration) => {
                let per_core = requests.len() / self.cores.len() + 1;
                for core in &mut self.cores.0 {
                    core.metrics.reserve(per_core);
                }
                self.prewarm_fleet(requests.iter().map(|r| r.model), usize::MAX);
                self.run_arrivals(requests.into_iter(), duration);
            }
            Source::Streaming(arrivals, prewarm_scan) => {
                let duration = arrivals.duration();
                let universe = prewarm_scan.model_universe().len();
                self.prewarm_fleet(prewarm_scan.map(|r| r.model), universe);
                self.run_arrivals(arrivals, duration);
            }
        }
    }
}

/// What survives the coordinator after a run — everything the merge
/// needs that is not shard-local.
struct CoordOutputs {
    ledger: VmLedger,
    censor_metrics: MetricsSet,
    journal_buf: Vec<(EventKey, u64, JournalEvent)>,
    strict_latency_timeline: TimeSeries,
    geometry_timeline: Vec<GeometryChange>,
    stats: EngineStats,
    audit: Auditor,
    evictions: u64,
    censored: u64,
    cutoff: SimTime,
    coord_pushed: u64,
    coord_popped: u64,
    coord_peak: usize,
}

// ---- entry points ---------------------------------------------------

/// The engine behind [`crate::engine::run_trace_with_oracle`].
pub(crate) fn run_trace_sharded(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    trace: Trace,
    oracle: &mut dyn SpotOracle,
) -> SimulationResult {
    let duration = trace.duration();
    run_sharded(
        config,
        scheme,
        Source::Materialised(trace.into_requests(), duration),
        oracle,
    )
}

/// The engine behind [`crate::engine::run_stream_with_oracle`].
/// Labeled RNG streams are derived statelessly from `(seed, label)`, so
/// the two stream instances built here (arrivals and the prewarm
/// pre-scan) draw exactly the arrivals the materialised trace holds.
pub(crate) fn run_stream_sharded(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    trace_config: &TraceConfig,
    oracle: &mut dyn SpotOracle,
) -> SimulationResult {
    let factory = RngFactory::new(config.seed);
    run_sharded(
        config,
        scheme,
        Source::Streaming(
            Box::new(trace_config.stream(&factory)),
            Box::new(trace_config.stream(&factory)),
        ),
        oracle,
    )
}

fn run_sharded(
    config: &ClusterConfig,
    scheme: &dyn SchemeBuilder,
    src: Source,
    oracle: &mut dyn SpotOracle,
) -> SimulationResult {
    let factory = RngFactory::new(config.seed);
    let catalog = Catalog::new();
    let shards = config.effective_shards();
    let mut co = Coordinator {
        cores: Cores(
            (0..shards)
                .map(|s| ShardCore::new(s, shards, config, scheme, &factory))
                .collect(),
        ),
        serial: Serial::new(config, &catalog, scheme.dispatch_policy(), oracle),
    };
    co.drive(src);
    let Coordinator { cores, serial } = co;
    merge_result(config, scheme.name().to_string(), serial.finish(), cores.0)
}

// ---- merge ----------------------------------------------------------

fn merge_result(
    config: &ClusterConfig,
    scheme: String,
    out: CoordOutputs,
    mut cores: Vec<ShardCore>,
) -> SimulationResult {
    let shards = cores.len();
    let w_total = config.workers;
    let now = out.cutoff;
    let mut ledger = out.ledger;
    // Close any still-open VMs in global worker order for final billing.
    for g in 0..w_total {
        if let Some((id, _)) = cores[g % shards].workers[g / shards].vm.take() {
            ledger.close(id, now);
        }
    }
    let cost = CostReport {
        total_usd: ledger.total_cost(now),
        spot_usd: ledger.cost_by_tier(VmTier::Spot, now),
        on_demand_usd: ledger.cost_by_tier(VmTier::OnDemand, now),
        evictions: out.evictions,
    };
    let n = w_total as f64;
    // Per-worker results in global worker order.
    let fleet = || (0..w_total).map(|g| &cores[g % shards].workers[g / shards]);
    let per_gpu_compute_utilization: Vec<f64> =
        fleet().map(|w| w.gpu.compute_utilization(now)).collect();
    let per_gpu_memory_utilization: Vec<f64> =
        fleet().map(|w| w.gpu.memory_utilization(now)).collect();
    // Float op order independent of `S`: sum the per-GPU values in
    // global worker order, then divide once.
    let compute_utilization = per_gpu_compute_utilization.iter().sum::<f64>() / n;
    let memory_utilization = per_gpu_memory_utilization.iter().sum::<f64>() / n;
    let cold_starts: u64 = fleet().map(Worker::cold_starts).sum();
    let proactive_boots: u64 = fleet().map(Worker::proactive_boots).sum();
    let reconfigs: u64 = cores.iter().map(|c| c.reconfigs).sum();

    debug_assert!(
        cores
            .iter()
            .all(|c| c.strict_lat_buf.is_empty() && c.geom_buf.is_empty()),
        "every phase flushes its timeline records"
    );
    let mut stats = out.stats;
    stats.events_pushed = out.coord_pushed;
    stats.events_popped = out.coord_popped;
    let mut peak = out.coord_peak;
    for c in &cores {
        stats.events_pushed += c.queue.pushed();
        stats.events_popped += c.queue.popped();
        // The sum of per-queue peaks (see `EngineStats::peak_heap_len`).
        peak += c.queue.peak_len();
        stats.index_updates += c.index.updates();
        stats.finish_events_pushed += c.stats.finish_events_pushed;
        stats.finish_events_all_jobs += c.stats.finish_events_all_jobs;
        stats.stale_finish_events += c.stats.stale_finish_events;
        stats.stale_finish_superseded += c.stats.stale_finish_superseded;
        stats.place_offers += c.stats.place_offers;
        stats.place_memo_skips += c.stats.place_memo_skips;
        stats.stale_boot_events += c.stats.stale_boot_events;
    }
    stats.peak_heap_len = peak;

    let mut metrics = std::mem::take(&mut cores[0].metrics);
    for c in &mut cores[1..] {
        metrics.absorb(std::mem::take(&mut c.metrics));
    }
    metrics.absorb(out.censor_metrics);

    let mut journal = Journal::new(config.journal_capacity);
    if config.journal_capacity > 0 {
        let mut entries = out.journal_buf;
        for c in &mut cores {
            entries.append(&mut c.journal_buf);
        }
        entries.sort_unstable_by_key(|e| (e.0, e.1));
        for (k, _, ev) in entries {
            journal.record(k.time, ev);
        }
    }

    SimulationResult {
        scheme,
        metrics,
        cost,
        compute_utilization,
        memory_utilization,
        per_gpu_compute_utilization,
        per_gpu_memory_utilization,
        cold_starts,
        reconfigs,
        censored: out.censored,
        geometry_timeline: out.geometry_timeline,
        strict_latency_timeline: out.strict_latency_timeline,
        journal,
        stats,
        audit: out.audit.into_report(),
        proactive_boots,
        duration: out.cutoff.saturating_since(SimTime::ZERO) - config.drain_grace,
        workers: w_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_simulation, run_simulation_streaming, run_simulation_with_oracle};
    use crate::schemes_for_test::AlwaysLargest;
    use protean_metrics::record::Class;
    use protean_sim::SimDuration;
    use protean_spot::SpotAvailability;
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

    /// Asserts every digest-visible field matches bit for bit, the
    /// strict-latency timeline matches as a (time, value) multiset, and
    /// the journals record the same event population. (The journal's
    /// exact sequence may legally differ: two same-instant events on
    /// different shards merge in shard-tag order, while one shard
    /// orders them by push sequence — their effects commute.)
    fn assert_equivalent(a: &SimulationResult, b: &SimulationResult) {
        assert_eq!(a.metrics.count(Class::All), b.metrics.count(Class::All));
        assert_eq!(
            a.metrics.count(Class::Strict),
            b.metrics.count(Class::Strict)
        );
        for class in [Class::All, Class::Strict, Class::BestEffort] {
            for q in [0.5, 0.99] {
                let la = a.metrics.latency_percentile_ms(class, q).map(f64::to_bits);
                let lb = b.metrics.latency_percentile_ms(class, q).map(f64::to_bits);
                assert_eq!(la, lb, "latency {class:?} p{q}");
            }
        }
        assert_eq!(a.cost.total_usd.to_bits(), b.cost.total_usd.to_bits());
        assert_eq!(a.cost.spot_usd.to_bits(), b.cost.spot_usd.to_bits());
        assert_eq!(
            a.compute_utilization.to_bits(),
            b.compute_utilization.to_bits()
        );
        assert_eq!(
            a.memory_utilization.to_bits(),
            b.memory_utilization.to_bits()
        );
        assert_eq!(a.cold_starts, b.cold_starts);
        assert_eq!(a.reconfigs, b.reconfigs);
        assert_eq!(a.censored, b.censored);
        assert_eq!(a.cost.evictions, b.cost.evictions);
        assert_eq!(a.proactive_boots, b.proactive_boots);
        assert_eq!(a.stats.finish_events_pushed, b.stats.finish_events_pushed);
        assert_eq!(a.stats.stale_finish_events, b.stats.stale_finish_events);
        assert_eq!(
            a.stats.stale_finish_superseded,
            b.stats.stale_finish_superseded
        );
        assert_eq!(a.stats.place_offers, b.stats.place_offers);
        assert_eq!(a.stats.place_memo_skips, b.stats.place_memo_skips);
        assert_eq!(a.stats.stale_boot_events, b.stats.stale_boot_events);
        assert_eq!(a.stats.dispatch_batches, b.stats.dispatch_batches);
        assert_eq!(a.stats.events_popped, b.stats.events_popped);

        let sorted = |r: &SimulationResult| {
            let mut v: Vec<(u64, u64)> = r
                .strict_latency_timeline
                .points()
                .iter()
                .map(|&(t, x)| (t.as_micros(), x.to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(a), sorted(b));
        assert_eq!(a.geometry_timeline.len(), b.geometry_timeline.len());
        assert_eq!(a.journal.entries().len(), b.journal.entries().len());
        let journal_counts = |r: &SimulationResult| {
            let mut v: Vec<u8> = r
                .journal
                .entries()
                .iter()
                .map(|(_, e)| match e {
                    JournalEvent::BatchSealed { .. } => 0u8,
                    JournalEvent::BatchDispatched { .. } => 1,
                    JournalEvent::ColdStart { .. } => 2,
                    JournalEvent::BatchPlaced { .. } => 3,
                    JournalEvent::BatchFinished { .. } => 4,
                    JournalEvent::Reconfigured { .. } => 5,
                    JournalEvent::EvictionNotice { .. } => 6,
                    JournalEvent::Evicted { .. } => 7,
                    JournalEvent::VmInstalled { .. } => 8,
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(journal_counts(a), journal_counts(b));
    }

    fn run_pair(
        config: &ClusterConfig,
        shards: usize,
        t: &TraceConfig,
    ) -> (SimulationResult, SimulationResult) {
        let one = run_simulation(config, &AlwaysLargest, t);
        let mut sharded = config.clone();
        sharded.shards = shards;
        let par = run_simulation(&sharded, &AlwaysLargest, t);
        (one, par)
    }

    #[test]
    fn sharded_inline_matches_one_shard() {
        let mut config = ClusterConfig::small_test();
        config.journal_capacity = 4096;
        let t = trace(400.0, 30.0, 0.5);
        let (one, par) = run_pair(&config, 2, &t);
        assert_equivalent(&one, &par);
    }

    #[test]
    fn sharded_streaming_matches_one_shard_materialised() {
        let mut config = ClusterConfig::small_test();
        config.aggregate_metrics = true;
        let t = trace(300.0, 20.0, 0.5);
        let one = run_simulation(&config, &AlwaysLargest, &t);
        let mut sharded = config.clone();
        sharded.shards = 2;
        let par = run_simulation_streaming(&sharded, &AlwaysLargest, &t);
        assert_equivalent(&one, &par);
    }

    #[test]
    fn sharded_scripted_eviction_matches_with_audit() {
        let mut config = ClusterConfig::small_test();
        config.workers = 3;
        config.procurement = ProcurementPolicy::Hybrid;
        config.availability = SpotAvailability::Low;
        config.revocation_check = SimDuration::from_secs(5.0);
        config.vm_startup = SimDuration::from_secs(5.0);
        config.procurement_retry = SimDuration::from_secs(5.0);
        config.audit = true;
        let t = trace(200.0, 60.0, 0.5);
        let script = || {
            crate::fault::ScriptedMarket::new().evict(
                0,
                SimTime::from_secs(10.0),
                SimDuration::from_secs(20.0),
            )
        };
        let mut market = script();
        let one = run_simulation_with_oracle(&config, &AlwaysLargest, &t, &mut market);
        let mut sharded = config.clone();
        sharded.shards = 3;
        let mut market = script();
        let par = run_simulation_with_oracle(&sharded, &AlwaysLargest, &t, &mut market);
        assert_eq!(par.cost.evictions, 1);
        assert!(par.audit.is_clean(), "{:?}", par.audit.violations);
        assert!(par.audit.checks > 0);
        assert_eq!(one.audit.checks, par.audit.checks);
        assert_equivalent(&one, &par);
    }

    #[test]
    fn sharded_slo_compliance_matches() {
        let mut config = ClusterConfig::small_test();
        config.cold_start = SimDuration::from_secs(2.0);
        let t = trace(100.0, 40.0, 0.5);
        let (one, par) = run_pair(&config, 4, &t);
        let catalog = Catalog::new();
        let slo = |m: ModelId| catalog.profile(m).slo();
        let a = one.metrics.slo_compliance(&slo);
        let b = par.metrics.slo_compliance(&slo);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(b > 0.9, "compliance {b}");
    }

    #[test]
    fn coarsened_runs_match_per_arrival_epochs_and_reconcile() {
        let mut config = ClusterConfig::small_test();
        config.audit = true;
        config.shards = 4;
        let t = trace(400.0, 30.0, 0.5);
        let mut per_arrival = config.clone();
        per_arrival.max_epoch_arrivals = 1;
        let base = run_simulation(&per_arrival, &AlwaysLargest, &t);
        config.max_epoch_arrivals = 64;
        let coarse = run_simulation(&config, &AlwaysLargest, &t);
        assert_equivalent(&base, &coarse);
        assert!(base.audit.is_clean(), "{:?}", base.audit.violations);
        assert!(coarse.audit.is_clean(), "{:?}", coarse.audit.violations);
        // Per-arrival epochs: every run is a singleton (arrivals and
        // window expiries alike — cap 1 cuts after the first member).
        assert_eq!(base.stats.epochs, base.stats.arrivals + base.stats.expiries);
        assert_eq!(base.stats.coalesced_arrivals, 0);
        assert_eq!(base.stats.coalesced_expiries, 0);
        // Coarsening actually coalesces on a dispatch-dense trace —
        // arrivals and window expiries both — and the extended counter
        // triad reconciles.
        assert!(coarse.stats.epochs < coarse.stats.arrivals);
        assert!(coarse.stats.coalesced_arrivals > 0);
        assert!(coarse.stats.coalesced_expiries > 0);
        assert_eq!(coarse.stats.expiries, base.stats.expiries);
        assert_eq!(
            coarse.stats.epochs + coarse.stats.coalesced_arrivals + coarse.stats.coalesced_expiries,
            coarse.stats.arrivals + coarse.stats.expiries
        );
        assert_eq!(coarse.stats.run_cutoffs.total(), coarse.stats.epochs);
        assert_eq!(base.stats.run_cutoffs.total(), base.stats.epochs);
    }

    #[test]
    fn run_is_cut_exactly_at_a_reconfig_trigger_arrival() {
        // Ten strict arrivals 1 ms apart straddling the t = 2 s monitor
        // tick (the reconfiguration trigger). The sixth arrival lands
        // exactly on the tick and must win its `ta <= te` tie — then
        // the run must cut *there*, because the seventh arrival would
        // need a phase after the serially-ordered tick.
        let requests: Vec<Request> = (0..10)
            .map(|i| Request {
                id: protean_trace::RequestId(i),
                arrival: SimTime::from_millis(1995.0 + i as f64),
                model: ModelId::ResNet50,
                strict: true,
            })
            .collect();
        let t = Trace::from_parts(requests.clone(), SimDuration::from_secs(3.0));
        let mut config = ClusterConfig::small_test();
        config.audit = true;
        config.shards = 2;
        let par = crate::engine::run_simulation_on(&config, &AlwaysLargest, t);
        assert!(par.audit.is_clean(), "{:?}", par.audit.violations);
        assert_eq!(par.stats.arrivals, 10);
        // Run 1: arrivals at 1.995..=2.000 s (six, the tick-tied one
        // included), cut by the serial monitor tick. Run 2: the four
        // remaining arrivals, cut by the trace end.
        assert_eq!(par.stats.epochs, 2);
        assert_eq!(par.stats.coalesced_arrivals, 8);
        assert_eq!(par.stats.run_cutoffs.serial_event, 1);
        assert_eq!(par.stats.run_cutoffs.trace_end, 1);
        assert_eq!(par.stats.run_cutoffs.total(), par.stats.epochs);
        // Still bit-identical to one shard on the same trace.
        let one = crate::engine::run_simulation_on(
            &ClusterConfig {
                audit: true,
                ..ClusterConfig::small_test()
            },
            &AlwaysLargest,
            Trace::from_parts(requests, SimDuration::from_secs(3.0)),
        );
        assert_equivalent(&one, &par);
    }

    #[test]
    fn expiry_run_is_cut_exactly_at_the_first_non_dispatch_coord_event() {
        // Two strict arrivals for *different* models at 1.900 s and
        // 1.920 s open two batch accumulators, whose 50 ms window
        // expiries fire at 1.950 s and 1.970 s — both before the t = 2 s
        // monitor tick — and a third arrival lands beyond the tick at
        // 2.100 s. With expiry coalescing on, one run covers the first
        // four dispatch events (arrival, arrival, expiry, expiry): each
        // expiry is the coordinator-queue head when admitted and no
        // shard holds anything below its key (cold-start `BootDone`s
        // land ~8 s out). The run must then cut *exactly* at the tick —
        // the first non-dispatch coordinator event, which beats the
        // 2.100 s arrival — and the tick itself is handled as a plain
        // serial event, not an epoch. The second run is the last
        // arrival plus its own window expiry, ending with the trace.
        let requests = vec![
            Request {
                id: protean_trace::RequestId(0),
                arrival: SimTime::from_millis(1900.0),
                model: ModelId::ResNet50,
                strict: true,
            },
            Request {
                id: protean_trace::RequestId(1),
                arrival: SimTime::from_millis(1920.0),
                model: ModelId::GoogleNet,
                strict: true,
            },
            Request {
                id: protean_trace::RequestId(2),
                arrival: SimTime::from_millis(2100.0),
                model: ModelId::ResNet50,
                strict: true,
            },
        ];
        let t = Trace::from_parts(requests.clone(), SimDuration::from_secs(3.0));
        let mut config = ClusterConfig::small_test();
        config.audit = true;
        config.shards = 2;
        let par = crate::engine::run_simulation_on(&config, &AlwaysLargest, t);
        assert!(par.audit.is_clean(), "{:?}", par.audit.violations);
        assert_eq!(par.stats.arrivals, 3);
        assert_eq!(par.stats.expiries, 3);
        assert_eq!(par.stats.epochs, 2);
        assert_eq!(par.stats.coalesced_arrivals, 1);
        assert_eq!(par.stats.coalesced_expiries, 3);
        assert_eq!(par.stats.run_cutoffs.serial_event, 1);
        assert_eq!(par.stats.run_cutoffs.trace_end, 1);
        assert_eq!(par.stats.run_cutoffs.total(), par.stats.epochs);

        // Bit-identical to one shard.
        let one = crate::engine::run_simulation_on(
            &ClusterConfig {
                audit: true,
                ..ClusterConfig::small_test()
            },
            &AlwaysLargest,
            Trace::from_parts(requests, SimDuration::from_secs(3.0)),
        );
        assert_eq!(one.stats.expiries, 3);
        assert_equivalent(&one, &par);
    }

    #[test]
    fn journal_pressure_cuts_runs_and_stays_equivalent() {
        let mut config = ClusterConfig::small_test();
        config.journal_capacity = 512;
        let t = trace(400.0, 30.0, 0.5);
        let (one, par) = run_pair(&config, 2, &t);
        assert_equivalent(&one, &par);
        assert!(
            par.stats.run_cutoffs.journal_pressure > 0,
            "expected journal-pressure cutoffs, got {:?}",
            par.stats.run_cutoffs
        );
        assert_eq!(
            par.stats.epochs + par.stats.coalesced_arrivals + par.stats.coalesced_expiries,
            par.stats.arrivals + par.stats.expiries
        );
        assert_eq!(par.stats.run_cutoffs.total(), par.stats.epochs);
    }

    #[test]
    fn shard_count_never_exceeds_workers() {
        let mut config = ClusterConfig::small_test();
        config.workers = 2;
        config.shards = 64;
        let t = trace(100.0, 20.0, 0.5);
        let r = run_simulation(&config, &AlwaysLargest, &t);
        assert!(r.metrics.count(Class::All) > 0);
    }
}
