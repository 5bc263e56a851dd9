//! Per-worker-node state: VM binding, GPU, per-model container pools
//! and waits, running batches and the (optionally strict-priority)
//! scheduler queue.

use std::collections::VecDeque;

use protean_gpu::{Geometry, Gpu};
use protean_models::{Catalog, ModelId};
use protean_sim::{Ewma, SimTime, SlimPush};
use protean_spot::{VmId, VmTier};

use crate::batch::{Batch, BatchId};
use crate::container::{Acquire, Pool};
use crate::engine::ClusterConfig;
use crate::scheme::{BatchView, Placement, PlacementCtx, ReconfigCtx, Scheme};

/// Availability of a worker slot with respect to its backing VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStatus {
    /// VM live, serving traffic.
    Up,
    /// Eviction notice received; finishing existing work, no new
    /// requests routed here. Reclaimed at `evict_at`.
    Evicting {
        /// When the provider reclaims the VM.
        evict_at: SimTime,
    },
    /// No backing VM (evicted and not yet replaced).
    Down,
}

/// A batch currently executing on a GPU slice, with everything needed
/// for the latency breakdown at completion.
#[derive(Debug, Clone)]
pub struct RunningBatch {
    /// The batch itself.
    pub batch: Batch,
    /// Slice index it runs on.
    pub slice: usize,
    /// When execution began (slice admission).
    pub exec_start: SimTime,
    /// Solo time on that slice (after any scheme scaling), ms.
    pub solo_on_slice_ms: f64,
    /// Solo time on the full GPU, ms ("min possible time").
    pub solo_7g_ms: f64,
}

/// Scheduler queue holding batches that have a container and await a
/// slice. When `reorders` is set, strict batches are always served
/// before best-effort ones (§4.1); within a class, order is FIFO.
#[derive(Debug, Default)]
pub struct SchedQueue {
    reorders: bool,
    strict: VecDeque<(u64, Batch)>,
    best_effort: VecDeque<(u64, Batch)>,
    seq: u64,
    /// Running total of queued best-effort batch memory, GB
    /// (Algorithm 1's `BE_mem` input).
    be_mem_gb: f64,
}

impl SchedQueue {
    /// Creates an empty queue with the given reordering policy.
    pub fn new(reorders: bool) -> Self {
        SchedQueue {
            reorders,
            ..SchedQueue::default()
        }
    }

    /// Enqueues a batch; `mem_gb` is its per-batch memory footprint.
    pub fn push(&mut self, batch: Batch, mem_gb: f64) {
        let seq = self.seq;
        self.seq += 1;
        if batch.strict {
            self.strict.slim_push((seq, batch));
        } else {
            self.be_mem_gb += mem_gb;
            self.best_effort.slim_push((seq, batch));
        }
    }

    /// Visits the batches a placement pass may inspect, in service
    /// order, without allocating — the scheduler's placement loop calls
    /// this on every pass. In reordering mode this is up to `depth`
    /// strict batches followed by up to `depth` best-effort batches —
    /// strict priority governs *service order*, but a blocked strict
    /// head must not prevent best-effort batches from using slices
    /// strict batches cannot take anyway.
    pub fn for_each_candidate<'a>(&'a self, depth: usize, mut f: impl FnMut(&'a Batch)) {
        if self.reorders {
            for (_, b) in self.strict.iter().take(depth) {
                f(b);
            }
            for (_, b) in self.best_effort.iter().take(depth) {
                f(b);
            }
        } else {
            // FIFO across both classes: merge by sequence number.
            let mut visited = 0;
            let mut si = self.strict.iter().peekable();
            let mut bi = self.best_effort.iter().peekable();
            while visited < depth {
                match (si.peek(), bi.peek()) {
                    (Some((ss, sb)), Some((bs, bb))) => {
                        if ss < bs {
                            f(sb);
                            si.next();
                        } else {
                            f(bb);
                            bi.next();
                        }
                    }
                    (Some((_, sb)), None) => {
                        f(sb);
                        si.next();
                    }
                    (None, Some((_, bb))) => {
                        f(bb);
                        bi.next();
                    }
                    (None, None) => break,
                }
                visited += 1;
            }
        }
    }

    /// Removes the batch with `id`; `mem_gb` must match the value given
    /// at push time. Returns the batch if present.
    pub fn remove(&mut self, id: BatchId, mem_gb: f64) -> Option<Batch> {
        if let Some(pos) = self.strict.iter().position(|(_, b)| b.id == id) {
            return self.strict.remove(pos).map(|(_, b)| b);
        }
        if let Some(pos) = self.best_effort.iter().position(|(_, b)| b.id == id) {
            let removed = self.best_effort.remove(pos).map(|(_, b)| b);
            if removed.is_some() {
                self.be_mem_gb = (self.be_mem_gb - mem_gb).max(0.0);
            }
            return removed;
        }
        None
    }

    /// Total queued batches.
    pub fn len(&self) -> usize {
        self.strict.len() + self.best_effort.len()
    }

    /// `true` if no batches are queued.
    pub fn is_empty(&self) -> bool {
        self.strict.is_empty() && self.best_effort.is_empty()
    }

    /// Memory of queued best-effort batches, GB.
    pub fn be_mem_gb(&self) -> f64 {
        self.be_mem_gb
    }

    /// Drains every queued batch (eviction path).
    pub fn drain_all(&mut self) -> Vec<Batch> {
        self.be_mem_gb = 0.0;
        self.strict
            .drain(..)
            .chain(self.best_effort.drain(..))
            .map(|(_, b)| b)
            .collect()
    }

    /// Iterates every queued batch (both classes, no particular order);
    /// used by the audit layer's request-conservation sweep.
    pub fn iter_batches(&self) -> impl Iterator<Item = &Batch> {
        self.strict
            .iter()
            .chain(self.best_effort.iter())
            .map(|(_, b)| b)
    }
}

/// Smoothing factor of the batch-arrival EWMA behind predictive
/// container pre-provisioning.
const PREWARM_EWMA_ALPHA: f64 = 0.3;

/// A worker's state for one model: its container pool (§4.2), the
/// batches waiting for a container, and the window demand that drives
/// predictive pre-provisioning.
struct ModelState {
    model: ModelId,
    pool: Pool,
    /// Sealed batches waiting for a container, oldest first.
    waiting: VecDeque<Batch>,
    /// Batches dispatched here in the current monitor window.
    window_batches: u64,
    /// EWMA of per-window batch arrivals.
    predicted: Ewma,
}

impl ModelState {
    /// `model`'s entry in the sorted table, inserted empty if new. The
    /// table grows one slot at a time: a worker serves few models.
    fn of(models: &mut Vec<ModelState>, model: ModelId) -> &mut ModelState {
        let pos = match models.binary_search_by_key(&model, |s| s.model) {
            Ok(pos) => pos,
            Err(pos) => {
                models.reserve_exact(1);
                models.insert(
                    pos,
                    ModelState {
                        model,
                        pool: Pool::new(),
                        waiting: VecDeque::new(),
                        window_batches: 0,
                        predicted: Ewma::new(PREWARM_EWMA_ALPHA),
                    },
                );
                pos
            }
        };
        &mut models[pos]
    }
}

/// The views `Scheme::place` declined under one slice state (see
/// [`Worker::offer`]).
struct DeclineMemo {
    /// `(Gpu::version(), queued best-effort memory bits)` the declines
    /// were recorded under; a different key makes them void.
    key: (u64, u64),
    views: Vec<BatchView>,
}

/// What [`Worker::offer`] made of a queued batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Offer {
    /// The scheme chose a slice.
    Place(Placement),
    /// The scheme declined; the decline is now memoised.
    Decline,
    /// A memoised decline answered and the scheme was not asked. With
    /// `recheck`, it was asked anyway: `contradicted` means it did not
    /// decline, which breaks the [`Scheme::place`] contract.
    Skip { contradicted: bool },
}

/// Whether a popped `JobFinish` event is the live one of its slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishEvent {
    /// Armed for the slice's current membership: handle it.
    Live,
    /// Same GPU, but a later admit or finish on the slice re-armed it.
    Superseded,
    /// The GPU was rebuilt since (reconfiguration or VM replacement).
    Retired,
}

/// One worker node: a VM slot with one GPU and the serving pipeline.
///
/// Per-model state and running batches are private and kept in a fixed
/// order, so no simulated result depends on hash iteration order.
pub struct Worker {
    /// Slot index in the cluster.
    pub idx: usize,
    /// The scheme instance making this worker's scheduling decisions.
    pub scheme: Box<dyn Scheme>,
    /// VM lifecycle status.
    pub status: WorkerStatus,
    /// Backing VM (id, tier) when up or evicting.
    pub vm: Option<(VmId, VmTier)>,
    /// Replacement VM that became ready while the old one drains.
    pub pending_vm: Option<(VmId, VmTier)>,
    /// The worker's GPU.
    pub gpu: Gpu,
    /// Bumped on every GPU rebuild (reconfiguration or VM replacement);
    /// stale completion events carry an older epoch.
    pub epoch: u64,
    /// Bumped only on VM replacement, never on reconfiguration.
    /// Container boots survive a MIG reconfig (containers live in host
    /// memory) but not a VM replacement, so `BootDone` events validate
    /// against this counter rather than `epoch`.
    pub vm_epoch: u64,
    /// Per-model state, sorted by model.
    models: Vec<ModelState>,
    /// Batches with containers awaiting slice placement.
    pub sched_queue: SchedQueue,
    /// Batches executing on the GPU, in admission order.
    running: Vec<RunningBatch>,
    /// Requests assigned to this worker and not yet completed (load
    /// metric for the dispatcher).
    pub outstanding: u64,
    /// Best-effort requests seen in the current monitor window.
    window_be: u64,
    /// Strict requests seen in the current monitor window.
    window_strict: u64,
    /// Most recent best-effort model routed here.
    last_be_model: Option<ModelId>,
    /// Boxed so that a worker whose scheme never declines pays one
    /// pointer and allocates nothing.
    memo: Option<Box<DeclineMemo>>,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("idx", &self.idx)
            .field("status", &self.status)
            .field("outstanding", &self.outstanding)
            .field("queued", &self.sched_queue.len())
            .field("running", &self.running.len())
            .finish()
    }
}

impl Worker {
    /// Creates an up worker with a fresh GPU in the scheme's initial
    /// geometry.
    pub fn new(idx: usize, scheme: Box<dyn Scheme>, now: SimTime) -> Self {
        let gpu = Gpu::new(
            protean_gpu::GpuId(idx as u32),
            scheme.initial_geometry(),
            scheme.sharing_mode(),
            now,
        );
        let reorders = scheme.reorders();
        Worker {
            idx,
            scheme,
            status: WorkerStatus::Up,
            vm: None,
            pending_vm: None,
            gpu,
            epoch: 0,
            vm_epoch: 0,
            models: Vec::new(),
            sched_queue: SchedQueue::new(reorders),
            running: Vec::new(),
            outstanding: 0,
            window_be: 0,
            window_strict: 0,
            last_be_model: None,
            memo: None,
        }
    }

    /// `true` if the dispatcher may route new requests here.
    pub fn routable(&self) -> bool {
        matches!(self.status, WorkerStatus::Up)
    }

    /// The `(routable, gpu accepting, outstanding)` triple that fully
    /// determines this worker's dispatch eligibility and rank — the
    /// state cached by [`crate::dispatch::DispatchIndex`].
    pub fn dispatch_state(&self) -> (bool, bool, u64) {
        (self.routable(), self.gpu.accepting(), self.outstanding)
    }

    /// Re-validates a popped `JobFinish` event: the worker's GPU must
    /// not have been rebuilt since the event was armed (`epoch`), the
    /// slice must still exist, and its membership must be unchanged
    /// (`generation`). The engine keeps one live finish event per slice;
    /// anything not [`FinishEvent::Live`] is stale and gets dropped.
    pub fn finish_event(&self, slice: usize, generation: u64, epoch: u64) -> FinishEvent {
        if self.epoch != epoch || slice >= self.gpu.slices().len() {
            FinishEvent::Retired
        } else if self.gpu.slice(slice).generation() != generation {
            FinishEvent::Superseded
        } else {
            FinishEvent::Live
        }
    }

    /// Offers a queued batch to the scheme, unless the scheme already
    /// declined the same view under the same slice state and queued
    /// best-effort memory. By the [`Scheme::place`] contract it would
    /// decline again, with no side effect, so the call is skipped; with
    /// `recheck` (the audit) it is made anyway and its answer reported.
    /// A chosen slice voids every memoised decline: the scheme may have
    /// moved a cursor, and the engine draws from its jitter stream.
    pub(crate) fn offer(
        &mut self,
        view: &BatchView,
        now: SimTime,
        catalog: &Catalog,
        recheck: bool,
    ) -> Offer {
        let queued_be_mem_gb = self.sched_queue.be_mem_gb();
        let key = (self.gpu.version(), queued_be_mem_gb.to_bits());
        let ctx = PlacementCtx {
            now,
            gpu: &self.gpu,
            queued_be_mem_gb,
            catalog,
        };
        if let Some(memo) = &self.memo {
            if memo.key == key && memo.views.contains(view) {
                let contradicted = recheck && self.scheme.place(&ctx, view).is_some();
                return Offer::Skip { contradicted };
            }
        }
        if let Some(p) = self.scheme.place(&ctx, view) {
            self.forget_declines();
            return Offer::Place(p);
        }
        let memo = self.memo.get_or_insert_with(|| {
            Box::new(DeclineMemo {
                key,
                views: Vec::new(),
            })
        });
        if memo.key != key {
            memo.key = key;
            memo.views.clear();
        }
        memo.views.slim_push(*view);
        Offer::Decline
    }

    /// Voids the memoised declines (scheme state or the GPU changed in a
    /// way the memo key does not see). Keeps the buffer.
    fn forget_declines(&mut self) {
        if let Some(memo) = &mut self.memo {
            memo.views.clear();
        }
    }

    /// Counts a batch routed here into the load and the window demand;
    /// an eviction re-dispatch skips the window's request counts.
    pub(crate) fn accept_dispatch(&mut self, batch: &Batch) {
        let n = batch.requests.len() as u64;
        self.outstanding += n;
        if !batch.redispatched {
            if batch.strict {
                self.window_strict += n;
            } else {
                self.window_be += n;
            }
        }
        if !batch.strict {
            self.last_be_model = Some(batch.model);
        }
        ModelState::of(&mut self.models, batch.model).window_batches += 1;
    }

    /// Gives a batch a container (reactive scale-up, §4.2): a warm one
    /// queues it for placement, a cold start parks it until `boot_done`.
    pub(crate) fn acquire_container(
        &mut self,
        batch: Batch,
        now: SimTime,
        catalog: &Catalog,
    ) -> Acquire {
        let mem = catalog.profile(batch.model).mem_gb;
        let state = ModelState::of(&mut self.models, batch.model);
        let acquired = state.pool.acquire(now);
        match acquired {
            Acquire::Warm => self.sched_queue.push(batch, mem),
            Acquire::ColdStarted => state.waiting.slim_push(batch),
        }
        acquired
    }

    /// A boot for `model` finished: the oldest waiting batch takes the
    /// container and is queued (`true`), or the container parks warm.
    pub(crate) fn boot_done(&mut self, model: ModelId, now: SimTime, catalog: &Catalog) -> bool {
        let state = ModelState::of(&mut self.models, model);
        let waiting = state.waiting.pop_front();
        state.pool.boot_done(now, waiting.is_some());
        let Some(mut batch) = waiting else {
            return false;
        };
        batch.cold_wait_ms = now.saturating_since(batch.sealed_at).as_millis_f64();
        self.sched_queue.push(batch, catalog.profile(model).mem_gb);
        true
    }

    /// Records a placed batch, already removed from the scheduler queue.
    pub(crate) fn start_running(&mut self, running: RunningBatch) {
        self.running.slim_push(running);
    }

    /// Completes running batch `id`, if any: its requests stop being
    /// outstanding, and its container passes to the oldest waiting batch
    /// of its model (queued) or parks warm.
    pub(crate) fn finish_running(
        &mut self,
        id: BatchId,
        now: SimTime,
        catalog: &Catalog,
    ) -> Option<RunningBatch> {
        let pos = self.running.iter().position(|rb| rb.batch.id == id)?;
        let done = self.running.remove(pos);
        self.outstanding = self
            .outstanding
            .saturating_sub(done.batch.requests.len() as u64);
        let model = done.batch.model;
        let state = ModelState::of(&mut self.models, model);
        let next = state.waiting.pop_front();
        state.pool.release(now, next.is_some());
        if let Some(batch) = next {
            self.sched_queue.push(batch, catalog.profile(model).mem_gb);
        }
        Some(done)
    }

    /// The monitor tick. Over the models, in order: reclaim containers
    /// idle for `keep_alive`, close the window into the EWMA and, with
    /// predictive pre-warm on an up worker, boot up to the prediction,
    /// calling `boot(model)` once per boot. Then an up worker's scheme
    /// picks its next geometry from the window's traffic (§4.4).
    pub(crate) fn monitor_tick(
        &mut self,
        now: SimTime,
        config: &ClusterConfig,
        catalog: &Catalog,
        mut boot: impl FnMut(ModelId),
    ) -> Option<Geometry> {
        let prewarm = config.predictive_prewarm && self.routable();
        for s in &mut self.models {
            s.pool.expire_idle(now, config.keep_alive);
            if s.window_batches > 0 {
                s.predicted.observe(s.window_batches as f64);
                s.window_batches = 0;
            }
            if prewarm {
                let desired = s.predicted.predict().ceil() as u32;
                for _ in s.pool.total_containers()..desired {
                    s.pool.boot_proactive();
                    boot(s.model);
                }
            }
        }
        if !self.routable() {
            return None;
        }
        let ctx = ReconfigCtx {
            now,
            gpu: &self.gpu,
            window_be_requests: self.window_be,
            window_strict_requests: self.window_strict,
            be_model: self.last_be_model,
            catalog,
        };
        let desired = self.scheme.reconfigure(&ctx);
        // `reconfigure` is where scheme state may change.
        self.forget_declines();
        self.window_be = 0;
        self.window_strict = 0;
        desired
    }

    /// Pre-warms `count` containers per model unless all already hold
    /// that many.
    pub(crate) fn prewarm(&mut self, models: &[ModelId], count: usize, now: SimTime) {
        let satisfied = models.iter().all(|&m| {
            self.containers()
                .any(|(pm, p)| pm == m && p.total_containers() as usize >= count)
        });
        if satisfied {
            return;
        }
        for &m in models {
            ModelState::of(&mut self.models, m).pool.prewarm(now, count);
        }
    }

    /// Rebuilds the GPU (VM replacement): fresh geometry, empty pools
    /// (window demand is kept). Bumps both epochs — in-flight `JobFinish`
    /// *and* `BootDone` events from the old VM are stale after this.
    pub fn reset_runtime(&mut self, now: SimTime) {
        self.gpu = Gpu::new(
            protean_gpu::GpuId(self.idx as u32),
            self.scheme.initial_geometry(),
            self.scheme.sharing_mode(),
            now,
        );
        self.epoch += 1;
        self.vm_epoch += 1;
        // The fresh GPU restarts its version count.
        self.forget_declines();
        for s in &mut self.models {
            s.pool = Pool::new();
            s.waiting.clear();
        }
        self.running.clear();
    }

    /// Pulls every batch held anywhere in this worker's pipeline for
    /// re-dispatch after an eviction: container waits (by model), the
    /// scheduler queue, then running batches (in admission order).
    pub fn drain_all_batches(&mut self) -> Vec<Batch> {
        let mut out = Vec::new();
        for s in &mut self.models {
            out.extend(s.waiting.drain(..));
        }
        out.extend(self.sched_queue.drain_all());
        out.extend(self.running.drain(..).map(|rb| rb.batch));
        self.outstanding = 0;
        out
    }

    /// Each model's container pool, in `ModelId` order.
    pub(crate) fn containers(&self) -> impl Iterator<Item = (ModelId, &Pool)> {
        self.models.iter().map(|s| (s.model, &s.pool))
    }

    /// Requests held in this worker's pipeline (audited against
    /// `outstanding`).
    pub(crate) fn held_requests(&self) -> u64 {
        let waiting = self.models.iter().flat_map(|s| s.waiting.iter());
        let running = self.running.iter().map(|rb| &rb.batch);
        waiting
            .chain(self.sched_queue.iter_batches())
            .chain(running)
            .map(|b| b.requests.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes_for_test::AlwaysLargest;
    use protean_trace::Request;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn batch(id: u64, strict: bool) -> Batch {
        Batch {
            id: BatchId(id),
            model: ModelId::ResNet50,
            strict,
            requests: vec![Request {
                arrival: SimTime::ZERO,
                model: ModelId::ResNet50,
                strict,
            }],
            sealed_at: SimTime::ZERO,
            cold_wait_ms: 0.0,
            redispatched: false,
        }
    }

    /// The batches `for_each_candidate` visits, in visit order.
    fn candidates(q: &SchedQueue, depth: usize) -> Vec<&Batch> {
        let mut out = Vec::new();
        q.for_each_candidate(depth, |b| out.push(b));
        out
    }

    #[test]
    fn reordering_queue_serves_strict_first() {
        let mut q = SchedQueue::new(true);
        q.push(batch(1, false), 4.0);
        q.push(batch(2, true), 0.0);
        q.push(batch(3, false), 4.0);
        q.push(batch(4, true), 0.0);
        let order: Vec<u64> = candidates(&q, 10).iter().map(|b| b.id.0).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
        assert_eq!(q.be_mem_gb(), 8.0);
    }

    #[test]
    fn fifo_queue_preserves_arrival_order() {
        let mut q = SchedQueue::new(false);
        q.push(batch(1, false), 4.0);
        q.push(batch(2, true), 0.0);
        q.push(batch(3, false), 4.0);
        let order: Vec<u64> = candidates(&q, 10).iter().map(|b| b.id.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn remove_updates_be_memory() {
        let mut q = SchedQueue::new(true);
        q.push(batch(1, false), 4.0);
        q.push(batch(2, true), 0.0);
        assert!(q.remove(BatchId(1), 4.0).is_some());
        assert_eq!(q.be_mem_gb(), 0.0);
        assert!(q.remove(BatchId(99), 4.0).is_none());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn candidates_respects_depth_per_class() {
        let mut q = SchedQueue::new(true);
        for i in 0..10 {
            q.push(batch(i, i % 2 == 0), 1.0);
        }
        // Reordering mode inspects up to `depth` strict plus up to
        // `depth` best-effort batches, strict first.
        let c = candidates(&q, 3);
        assert_eq!(c.len(), 6);
        assert!(c[..3].iter().all(|b| b.strict));
        assert!(c[3..].iter().all(|b| !b.strict));
        // FIFO mode respects the depth strictly.
        let mut f = SchedQueue::new(false);
        for i in 0..10 {
            f.push(batch(i, i % 2 == 0), 1.0);
        }
        assert_eq!(candidates(&f, 3).len(), 3);
    }

    #[test]
    fn drain_all_batches_empties_worker() {
        let mut w = Worker::new(0, Box::new(AlwaysLargest), SimTime::ZERO);
        w.sched_queue.push(batch(1, true), 0.0);
        w.sched_queue.push(batch(2, false), 4.0);
        w.outstanding = 2;
        let reqs = w.drain_all_batches();
        assert_eq!(reqs.len(), 2);
        assert_eq!(w.outstanding, 0);
        assert!(w.sched_queue.is_empty());
    }

    #[test]
    fn drain_order_is_waits_by_model_then_queue_then_running() {
        let catalog = Catalog::new();
        let mut w = Worker::new(0, Box::new(AlwaysLargest), SimTime::ZERO);
        let of = |id, model| Batch {
            model,
            ..batch(id, false)
        };
        // Empty pools: each acquire cold-starts and the batch waits, its
        // model entering the table out of order.
        for (id, model) in [
            (1, ModelId::Vgg19),
            (2, ModelId::ResNet50),
            (3, ModelId::Vgg19),
        ] {
            let acquired = w.acquire_container(of(id, model), SimTime::ZERO, &catalog);
            assert_eq!(acquired, Acquire::ColdStarted);
        }
        w.sched_queue.push(batch(4, true), 0.0);
        for id in [6, 5] {
            w.start_running(RunningBatch {
                batch: batch(id, true),
                slice: 0,
                exec_start: SimTime::ZERO,
                solo_on_slice_ms: 1.0,
                solo_7g_ms: 1.0,
            });
        }
        assert_eq!(w.held_requests(), 6);
        let models: Vec<ModelId> = w.containers().map(|(m, _)| m).collect();
        assert_eq!(models, vec![ModelId::ResNet50, ModelId::Vgg19]);
        let order: Vec<u64> = w.drain_all_batches().iter().map(|b| b.id.0).collect();
        assert_eq!(order, vec![2, 1, 3, 4, 6, 5]);
        assert_eq!(w.held_requests(), 0);
    }

    #[test]
    fn containers_hand_over_to_waiting_batches_in_arrival_order() {
        let catalog = Catalog::new();
        let mut w = Worker::new(0, Box::new(AlwaysLargest), SimTime::ZERO);
        w.acquire_container(batch(1, false), SimTime::ZERO, &catalog);
        w.acquire_container(batch(2, false), SimTime::ZERO, &catalog);
        // The first boot serves the oldest waiter and records its wait.
        assert!(w.boot_done(ModelId::ResNet50, SimTime::from_secs(2.0), &catalog));
        let queued = candidates(&w.sched_queue, 10);
        assert_eq!(queued.len(), 1);
        assert_eq!(queued[0].id, BatchId(1));
        assert_eq!(queued[0].cold_wait_ms, 2000.0);
        // A finishing batch hands its container to the next waiter; the
        // late boot then finds nobody waiting and parks warm.
        let mem = catalog.profile(ModelId::ResNet50).mem_gb;
        let running = w.sched_queue.remove(BatchId(1), mem).unwrap();
        w.start_running(RunningBatch {
            batch: running,
            slice: 0,
            exec_start: SimTime::ZERO,
            solo_on_slice_ms: 1.0,
            solo_7g_ms: 1.0,
        });
        w.outstanding = 2;
        let t3 = SimTime::from_secs(3.0);
        assert!(w.finish_running(BatchId(1), t3, &catalog).is_some());
        assert!(w.finish_running(BatchId(1), t3, &catalog).is_none());
        assert_eq!(w.outstanding, 1);
        assert!(!w.boot_done(ModelId::ResNet50, SimTime::from_secs(4.0), &catalog));
        let (_, pool) = w.containers().next().unwrap();
        assert_eq!((pool.busy_count(), pool.warm_count()), (1, 1));
        assert_eq!(pool.cold_starts(), 2);
    }

    proptest::proptest! {
        /// Push/remove conservation: whatever order batches enter and
        /// leave, the queue's BE-memory counter matches the live BE
        /// batches and `candidates` covers the whole queue at full depth.
        #[test]
        fn prop_queue_conserves_batches_and_memory(
            ops in proptest::collection::vec((proptest::bool::ANY, 0.5f64..8.0), 1..60),
            reorders in proptest::bool::ANY,
        ) {
            let mut q = SchedQueue::new(reorders);
            let mut live: Vec<(u64, bool, f64)> = Vec::new();
            for (next_id, (strict, mem)) in ops.into_iter().enumerate() {
                let next_id = next_id as u64;
                // Alternate pushes with occasional removals.
                if next_id % 3 == 2 && !live.is_empty() {
                    let (id, _, m) = live.remove(0);
                    proptest::prop_assert!(q.remove(BatchId(id), m).is_some());
                } else {
                    q.push(batch(next_id, strict), mem);
                    live.push((next_id, strict, mem));
                }
                let expected_be: f64 = live
                    .iter()
                    .filter(|(_, s, _)| !s)
                    .map(|(_, _, m)| m)
                    .sum();
                proptest::prop_assert!((q.be_mem_gb() - expected_be).abs() < 1e-9,
                    "be mem {} expected {}", q.be_mem_gb(), expected_be);
                proptest::prop_assert_eq!(q.len(), live.len());
                proptest::prop_assert_eq!(candidates(&q, live.len().max(1)).len(), live.len());
            }
            // Drain and verify every live batch is still present.
            for (id, _, m) in live {
                proptest::prop_assert!(q.remove(BatchId(id), m).is_some());
            }
            proptest::prop_assert!(q.is_empty());
        }
    }

    #[test]
    fn buffers_that_held_one_entry_hold_one_slot() {
        let catalog = Catalog::new();
        let mut w = Worker::new(0, Box::new(AlwaysLargest), SimTime::ZERO);
        let at = SimTime::from_secs;
        // A strict batch waits for a cold container; a best-effort batch
        // then takes it warm. Each queues, runs and finishes alone.
        let cold = w.acquire_container(batch(1, true), at(0.0), &catalog);
        assert_eq!(cold, Acquire::ColdStarted);
        assert!(w.boot_done(ModelId::ResNet50, at(1.0), &catalog));
        for (id, mem) in [(1, 0.0), (2, catalog.profile(ModelId::ResNet50).mem_gb)] {
            if id == 2 {
                let warm = w.acquire_container(batch(2, false), at(2.0), &catalog);
                assert_eq!(warm, Acquire::Warm);
            }
            let queued = w.sched_queue.remove(BatchId(id), mem).unwrap();
            w.start_running(RunningBatch {
                batch: queued,
                slice: 0,
                exec_start: at(2.0),
                solo_on_slice_ms: 1.0,
                solo_7g_ms: 1.0,
            });
            w.outstanding += 1;
            assert!(w.finish_running(BatchId(id), at(3.0), &catalog).is_some());
        }
        let state = &w.models[0];
        let slots = [
            w.sched_queue.strict.capacity(),
            w.sched_queue.best_effort.capacity(),
            w.running.capacity(),
            state.waiting.capacity(),
            state.pool.warm_capacity(),
        ];
        // Queued strict, queued best-effort, running, waiting, warm.
        assert_eq!(slots, [1; 5]);
        // The decline memo holds one slot per declined view.
        let (mut w, _) = busy_worker();
        w.offer(&view(true, 1), at(0.0), &catalog, false);
        assert_eq!(w.memo.as_ref().unwrap().views.capacity(), 1);
    }

    #[test]
    fn reset_runtime_bumps_epoch_and_rebuilds_gpu() {
        let mut w = Worker::new(0, Box::new(AlwaysLargest), SimTime::ZERO);
        let e0 = w.epoch;
        w.reset_runtime(SimTime::from_secs(1.0));
        assert_eq!(w.epoch, e0 + 1);
        assert!(w.gpu.is_idle());
        assert!(w.routable());
    }

    /// Declines strict batches while slice 0 is busy, counting its
    /// calls.
    struct StrictAlone(Arc<AtomicU64>);

    impl Scheme for StrictAlone {
        fn name(&self) -> &'static str {
            "strict-alone"
        }
        fn initial_geometry(&self) -> Geometry {
            Geometry::full()
        }
        fn sharing_mode(&self) -> protean_gpu::SharingMode {
            protean_gpu::SharingMode::Mps
        }
        fn place(&mut self, ctx: &PlacementCtx<'_>, batch: &BatchView) -> Option<Placement> {
            self.0.fetch_add(1, Ordering::Relaxed);
            (!batch.strict || ctx.gpu.slice(0).is_idle()).then(|| Placement::on_slice(0))
        }
    }

    /// A worker whose slice 0 runs one job, and its scheme's call count.
    fn busy_worker() -> (Worker, Arc<AtomicU64>) {
        let calls = Arc::default();
        let scheme = Box::new(StrictAlone(Arc::clone(&calls)));
        let mut w = Worker::new(0, scheme, SimTime::ZERO);
        let job = protean_gpu::JobSpec {
            id: protean_gpu::JobId(1),
            solo: protean_sim::SimDuration::from_millis(10.0),
            fbr: 0.1,
            mem_gb: 1.0,
        };
        w.gpu.slice_mut(0).admit(SimTime::ZERO, job).unwrap();
        (w, calls)
    }

    fn view(strict: bool, size: u32) -> BatchView {
        BatchView {
            model: ModelId::ResNet50,
            strict,
            size,
        }
    }

    #[test]
    fn offer_memoises_declines_until_the_slice_state_changes() {
        let catalog = Catalog::new();
        let now = SimTime::ZERO;
        let (mut w, n) = busy_worker();
        let calls = || n.load(Ordering::Relaxed);
        let (a, b) = (view(true, 1), view(true, 2));
        assert_eq!(w.offer(&a, now, &catalog, false), Offer::Decline);
        assert_eq!(calls(), 1);
        let skip = Offer::Skip {
            contradicted: false,
        };
        assert_eq!(w.offer(&a, now, &catalog, false), skip);
        assert_eq!(calls(), 1, "a memoised decline is not re-asked");
        // Another view is asked; the recheck asks, and agrees.
        assert_eq!(w.offer(&b, now, &catalog, false), Offer::Decline);
        assert_eq!(w.offer(&a, now, &catalog, true), skip);
        assert_eq!(calls(), 3);
        // Queued best-effort memory is part of the key.
        w.sched_queue.push(batch(7, false), 2.0);
        assert_eq!(w.offer(&a, now, &catalog, false), Offer::Decline);
        assert_eq!(calls(), 4);
        // So is the GPU's version: the finish frees slice 0.
        let done = SimTime::from_secs(1.0);
        w.gpu
            .slice_mut(0)
            .finish(done, protean_gpu::JobId(1))
            .unwrap();
        let placed = Offer::Place(Placement::on_slice(0));
        assert_eq!(w.offer(&a, now, &catalog, false), placed);
        assert_eq!(calls(), 5);
    }

    #[test]
    fn a_placement_the_monitor_tick_and_a_reset_forget_declines() {
        let catalog = Catalog::new();
        let config = ClusterConfig::small_test();
        let now = SimTime::ZERO;
        let (mut w, n) = busy_worker();
        let strict = view(true, 1);
        let asked = |w: &mut Worker| {
            let before = n.load(Ordering::Relaxed);
            w.offer(&strict, now, &catalog, false);
            n.load(Ordering::Relaxed) > before
        };
        assert!(asked(&mut w));
        assert!(!asked(&mut w));
        // A best-effort batch is placed without touching the GPU.
        let version = w.gpu.version();
        let be = w.offer(&view(false, 1), now, &catalog, false);
        assert_eq!(be, Offer::Place(Placement::on_slice(0)));
        assert_eq!(w.gpu.version(), version);
        assert!(asked(&mut w), "a placement voids the memo");
        assert!(!asked(&mut w));
        w.monitor_tick(now, &config, &catalog, |_| {});
        assert!(asked(&mut w), "reconfigure may change what place declines");
        assert!(!asked(&mut w));
        // The fresh GPU restarts its version count: bring it back to the
        // memo's key, idle this time.
        let key = w.gpu.version();
        w.reset_runtime(now);
        while w.gpu.version() < key {
            w.gpu.slice_mut(0);
        }
        assert!(asked(&mut w), "a reset voids the memo");
    }
}
