//! Per-worker-node state: VM binding, GPU, per-model container pools
//! and waits, running batches and the (optionally strict-priority)
//! scheduler queue.

use std::collections::VecDeque;

use protean_gpu::{Geometry, Gpu};
use protean_models::ModelId;
use protean_sim::{EventHandle, Ewma, RngFactory, SimRng, SimTime, SlimPop, SlimPush};
use protean_spot::{VmId, VmTier};

use crate::batch::{Batch, BatchId};
use crate::container::{Acquire, Pool};
use crate::engine::{ClusterConfig, EXEC_JITTER_SIGMA};
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
/// slice, in two lanes. When `reorders` is set, strict batches (lane 0)
/// are always served before best-effort ones (lane 1, §4.1); otherwise
/// lane 0 holds both classes in push order. Each lane is FIFO.
///
/// A lane is cut into runs of consecutive batches with equal
/// [`BatchView`]s: a run's head entry holds the run's length, every other
/// entry 0, so that a placement pass can answer a declined view's repeats
/// at once. Runs need not be maximal: a removal may leave two adjacent
/// equal runs.
#[derive(Debug, Default)]
pub struct SchedQueue {
    lanes: [VecDeque<(u32, Batch)>; 2],
    /// Length of each lane's last run; 0 for an empty lane.
    last_run: [u32; 2],
    be_count: u32,
    reorders: bool,
    /// Running total of queued best-effort batch memory, GB
    /// (Algorithm 1's `BE_mem` input); exactly 0.0 with none queued.
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

    /// Enqueues a batch at the back of its lane, in the lane's last run
    /// if its view is equal; a best-effort one adds its model's per-batch
    /// memory footprint to the queued total.
    pub fn push(&mut self, batch: Batch) {
        let lane = usize::from(self.reorders && !batch.strict);
        if !batch.strict {
            self.be_count += 1;
            self.be_mem_gb += batch.model.profile().mem_gb;
        }
        let (q, run) = (&mut self.lanes[lane], &mut self.last_run[lane]);
        let extends = q.back().is_some_and(|(_, b)| b.view() == batch.view());
        if extends {
            let head = q.len() - *run as usize;
            q[head].0 += 1;
        }
        *run = if extends { *run + 1 } else { 1 };
        q.slim_push((u32::from(!extends), batch));
    }

    /// Lane `lane` in service order, each batch with its run length (0
    /// off a run's head).
    pub(crate) fn lane(&self, lane: usize) -> &VecDeque<(u32, Batch)> {
        &self.lanes[lane]
    }

    /// Removes and returns the batch at `pos` of `lane`, whose run
    /// shrinks by one.
    pub(crate) fn remove_at(&mut self, lane: usize, pos: usize) -> Batch {
        let q = &mut self.lanes[lane];
        let head = |q: &VecDeque<(u32, Batch)>, pos| (0..=pos).rev().find(|&i| q[i].0 > 0);
        let h = head(q, pos).expect("a lane opens with a run head");
        let len = q[h].0;
        let (_, batch) = q.remove(pos).expect("position in the lane");
        if h < pos || len > 1 {
            q[h].0 = len - 1;
        }
        if h + len as usize == q.len() + 1 {
            // The last run shrank; if it vanished, the run before is last.
            let before = (len == 1 && pos > 0).then(|| head(q, pos - 1).map_or(0, |h| q[h].0));
            self.last_run[lane] = before.unwrap_or(len - 1);
        }
        if !batch.strict {
            self.be_count -= 1;
            let rest = self.be_mem_gb - batch.model.profile().mem_gb;
            self.be_mem_gb = if self.be_count > 0 { rest } else { 0.0 };
        }
        batch
    }

    /// Total queued batches.
    pub fn len(&self) -> usize {
        self.lanes[0].len() + self.lanes[1].len()
    }

    /// `true` if no batches are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory of queued best-effort batches, GB.
    pub fn be_mem_gb(&self) -> f64 {
        self.be_mem_gb
    }

    /// Drains every queued batch (eviction path): strict, then
    /// best-effort, FIFO within each class.
    pub fn drain_all(&mut self) -> Vec<Batch> {
        let lanes = self.lanes.iter_mut().flat_map(|q| q.drain(..));
        let mut out: Vec<Batch> = lanes.map(|(_, b)| b).collect();
        out.sort_by_key(|b| !b.strict);
        (self.last_run, self.be_count, self.be_mem_gb) = ([0; 2], 0, 0.0);
        out
    }

    /// Iterates every queued batch (both classes, no particular order);
    /// used by the audit layer's request-conservation sweep.
    pub fn iter_batches(&self) -> impl Iterator<Item = &Batch> {
        self.lanes.iter().flatten().map(|(_, b)| b)
    }

    /// How the run encoding is broken, if it is: head lengths that do
    /// not tile a lane, a member whose view differs from its head's, or
    /// a wrong last-run length.
    pub(crate) fn run_encoding_error(&self) -> Option<String> {
        for (lane, q) in self.lanes.iter().enumerate() {
            let (mut left, mut last, mut view) = (0, 0, None);
            for (pos, (len, b)) in q.iter().enumerate() {
                if left == 0 && *len > 0 {
                    (left, last, view) = (*len, *len, Some(b.view()));
                } else if left == 0 || *len > 0 || view != Some(b.view()) {
                    return Some(format!("lane {lane} entry {pos} breaks its run"));
                }
                left -= 1;
            }
            let kept = self.last_run[lane];
            if left > 0 || last != kept {
                return Some(format!(
                    "lane {lane} overhung by {left}, last run {last} kept as {kept}"
                ));
            }
        }
        None
    }
}

/// Smoothing factor of the batch-arrival EWMA behind predictive
/// container pre-provisioning.
const PREWARM_EWMA_ALPHA: f64 = 0.3;

/// A worker's state for one model: its container pool (§4.2), the
/// batches waiting for a container, and the window demand that drives
/// predictive pre-provisioning.
///
/// In declaration order (`repr(C)`): the first 80 bytes are what every
/// dispatch and finish reads (the model, the window count, the waits and
/// the pool's warm list and busy/booting counts); the pool's metric
/// counters and the EWMA, read by the monitor tick and the audit, trail.
#[repr(C)]
struct ModelState {
    model: ModelId,
    /// Batches dispatched here in the current monitor window.
    window_batches: u64,
    /// Sealed batches waiting for a container, oldest first.
    waiting: VecDeque<Batch>,
    pool: Pool,
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
                        window_batches: 0,
                        waiting: VecDeque::new(),
                        pool: Pool::new(),
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

/// One worker node: a VM slot with one GPU and the serving pipeline.
///
/// Per-model state and running batches are private and kept in a fixed
/// order, so no simulated result depends on hash iteration order.
///
/// The fields are laid out by temperature, in declaration order
/// (`repr(C)`). A fleet of 50,000 workers is far beyond cache, so every
/// dispatch and finish starts on a cold record. What they read comes
/// first, then the GPU, whose own hot fields lead and whose cold ones
/// border the VM lifecycle fields, which trail.
#[repr(C)]
pub struct Worker {
    /// The pending `ReconfigDone` of a reconfiguration that has begun.
    pub(crate) reconfig: Option<EventHandle>,
    /// Requests assigned to this worker and not yet completed (load
    /// metric for the dispatcher).
    pub outstanding: u64,
    /// VM lifecycle status.
    pub status: WorkerStatus,
    /// Per-model state, sorted by model.
    models: Vec<ModelState>,
    /// Most recent best-effort model routed here.
    last_be_model: Option<ModelId>,
    /// Best-effort requests seen in the current monitor window.
    window_be: u64,
    /// Strict requests seen in the current monitor window.
    window_strict: u64,
    /// Batches executing on the GPU, in admission order.
    running: Vec<RunningBatch>,
    /// Batches with containers awaiting slice placement.
    pub sched_queue: SchedQueue,
    /// Boxed so that a worker whose scheme never declines pays one
    /// pointer and allocates nothing.
    memo: Option<Box<DeclineMemo>>,
    /// The scheme instance making this worker's scheduling decisions.
    pub scheme: Box<dyn Scheme>,
    /// The worker's execution-jitter stream
    /// (`indexed_stream("engine.exec_jitter", idx)`).
    jitter: SimRng,
    /// The worker's GPU.
    pub gpu: Gpu,
    /// Bumped only on VM replacement, never on reconfiguration.
    /// Container boots survive a MIG reconfig (containers live in host
    /// memory) but not a VM replacement, so a `BootDone` event, which
    /// waits in a lane that cannot cancel, checks this counter. The lane
    /// stores it in 32 bits and refuses a boot pushed past `u32::MAX`
    /// replacements (release builds too), so it never wraps into a
    /// stale boot that passes the check.
    pub vm_epoch: u64,
    /// Backing VM (id, tier) when up or evicting.
    pub vm: Option<(VmId, VmTier)>,
    /// Replacement VM that became ready while the old one drains.
    pub pending_vm: Option<(VmId, VmTier)>,
    /// Slot index in the cluster.
    pub idx: usize,
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
    /// geometry, drawing execution jitter from its own stream of `rng`.
    pub fn new(idx: usize, scheme: Box<dyn Scheme>, rng: &RngFactory, now: SimTime) -> Self {
        let gpu = Gpu::new(
            protean_gpu::GpuId(idx as u32),
            scheme.initial_geometry(),
            scheme.sharing_mode(),
            now,
        );
        let reorders = scheme.reorders();
        Worker {
            reconfig: None,
            outstanding: 0,
            status: WorkerStatus::Up,
            models: Vec::new(),
            last_be_model: None,
            window_be: 0,
            window_strict: 0,
            running: Vec::new(),
            sched_queue: SchedQueue::new(reorders),
            memo: None,
            scheme,
            jitter: rng.indexed_stream("engine.exec_jitter", idx as u64),
            gpu,
            vm_epoch: 0,
            vm: None,
            pending_vm: None,
            idx,
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

    /// Offers a queued batch to the scheme, unless the scheme already
    /// declined the same view under the same slice state and queued
    /// best-effort memory. By the [`Scheme::place`] contract it would
    /// decline again, with no side effect, so the call is skipped; with
    /// `recheck` (the audit) it is made anyway and its answer reported.
    /// A chosen slice voids every memoised decline: the scheme may have
    /// moved a cursor, and the engine draws from its jitter stream.
    pub(crate) fn offer(&mut self, view: &BatchView, now: SimTime, recheck: bool) -> Offer {
        let queued_be_mem_gb = self.sched_queue.be_mem_gb();
        let key = (self.gpu.version(), queued_be_mem_gb.to_bits());
        let ctx = PlacementCtx {
            now,
            gpu: &self.gpu,
            queued_be_mem_gb,
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

    /// The next execution-time jitter factor: log-normal with
    /// [`EXEC_JITTER_SIGMA`], clamped to `[0.6, 1.7]`.
    pub(crate) fn draw_jitter(&mut self) -> f64 {
        (self.jitter.standard_normal() * EXEC_JITTER_SIGMA)
            .exp()
            .clamp(0.6, 1.7)
    }

    /// Counts a batch routed here into the load and the window demand;
    /// an eviction re-dispatch skips the window's request counts.
    pub(crate) fn accept_dispatch(&mut self, batch: &Batch) {
        let n = u64::from(batch.size());
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
    pub(crate) fn acquire_container(&mut self, batch: Batch) -> Acquire {
        let state = ModelState::of(&mut self.models, batch.model);
        let acquired = state.pool.acquire();
        match acquired {
            Acquire::Warm => self.sched_queue.push(batch),
            Acquire::ColdStarted => state.waiting.slim_push(batch),
        }
        acquired
    }

    /// A boot for `model` finished: the oldest waiting batch takes the
    /// container and is queued (`true`), or the container parks warm.
    pub(crate) fn boot_done(&mut self, model: ModelId, now: SimTime) -> bool {
        let state = ModelState::of(&mut self.models, model);
        let waiting = state.waiting.slim_pop_front();
        state.pool.boot_done(now, waiting.is_some());
        let Some(mut batch) = waiting else {
            return false;
        };
        batch.cold_wait_ms = now.saturating_since(batch.sealed_at).as_millis_f64();
        self.sched_queue.push(batch);
        true
    }

    /// Records a placed batch, already removed from the scheduler queue.
    pub(crate) fn start_running(&mut self, running: RunningBatch) {
        self.running.slim_push(running);
    }

    /// Completes running batch `id`, if any: its requests stop being
    /// outstanding, and its container passes to the oldest waiting batch
    /// of its model (queued) or parks warm.
    pub(crate) fn finish_running(&mut self, id: BatchId, now: SimTime) -> Option<RunningBatch> {
        let pos = self.running.iter().position(|rb| rb.batch.id == id)?;
        let done = self.running.remove(pos);
        self.outstanding = self
            .outstanding
            .saturating_sub(u64::from(done.batch.size()));
        let state = ModelState::of(&mut self.models, done.batch.model);
        let next = state.waiting.slim_pop_front();
        state.pool.release(now, next.is_some());
        if let Some(batch) = next {
            self.sched_queue.push(batch);
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
        };
        let desired = self.scheme.reconfigure(&ctx);
        // `reconfigure` is where scheme state may change.
        self.forget_declines();
        self.window_be = 0;
        self.window_strict = 0;
        desired
    }

    /// Pre-warms `count` containers of each of `models` (distinct) on a
    /// fresh worker, in one table block sized to them.
    pub(crate) fn prewarm(&mut self, models: &[ModelId], count: usize, now: SimTime) {
        self.models.reserve_exact(models.len());
        for &m in models {
            ModelState::of(&mut self.models, m).pool.prewarm(now, count);
        }
    }

    /// Rebuilds the GPU (VM replacement): fresh geometry, empty pools
    /// (window demand is kept). Bumps `vm_epoch`: in-flight `BootDone`
    /// events from the old VM are stale after this. The waiting queues
    /// give their blocks back.
    pub fn reset_runtime(&mut self, now: SimTime) {
        self.gpu = Gpu::new(
            protean_gpu::GpuId(self.idx as u32),
            self.scheme.initial_geometry(),
            self.scheme.sharing_mode(),
            now,
        );
        self.vm_epoch += 1;
        // The fresh GPU restarts its version count.
        self.forget_declines();
        for s in &mut self.models {
            s.pool = Pool::new();
            s.waiting = VecDeque::new();
        }
        self.running.clear();
    }

    /// Pulls every batch held anywhere in this worker's pipeline for
    /// re-dispatch after an eviction: container waits (by model), the
    /// scheduler queue, then running batches (in admission order). The
    /// waiting queues give their blocks back.
    pub fn drain_all_batches(&mut self) -> Vec<Batch> {
        let mut out = Vec::new();
        for s in &mut self.models {
            out.extend(std::mem::take(&mut s.waiting));
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
            .map(|b| u64::from(b.size()))
            .sum()
    }
}

#[cfg(test)]
impl SchedQueue {
    /// Removes the batch with `id`, if queued (placement removes by
    /// position instead).
    pub(crate) fn remove(&mut self, id: BatchId) -> Option<Batch> {
        let (lane, pos) = (0..2).find_map(|lane| {
            let pos = self.lanes[lane].iter().position(|(_, b)| b.id == id)?;
            Some((lane, pos))
        })?;
        Some(self.remove_at(lane, pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Runs;
    use crate::schemes_for_test::AlwaysLargest;
    use protean_trace::Run;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A batch of `len` requests for `model`.
    fn queued(id: u64, strict: bool, model: ModelId, len: u32) -> Batch {
        Batch {
            id: BatchId(id),
            model,
            strict,
            runs: Runs::One(Run {
                arrival: SimTime::ZERO,
                model,
                strict,
                len,
            }),
            sealed_at: SimTime::ZERO,
            cold_wait_ms: 0.0,
            redispatched: false,
        }
    }

    fn batch(id: u64, strict: bool) -> Batch {
        queued(id, strict, ModelId::ResNet50, 1)
    }

    fn idle_worker() -> Worker {
        let rng = RngFactory::new(0);
        Worker::new(0, Box::new(AlwaysLargest), &rng, SimTime::ZERO)
    }

    /// The batches a placement pass at `depth` may offer, in offer
    /// order: up to `depth` of each lane.
    fn candidates(q: &SchedQueue, depth: usize) -> Vec<&Batch> {
        let lanes = q.lanes.iter();
        lanes
            .flat_map(|l| l.iter().take(depth).map(|(_, b)| b))
            .collect()
    }

    /// Each lane's run-length field, entry by entry.
    fn heads(q: &SchedQueue) -> [Vec<u32>; 2] {
        q.lanes.each_ref().map(|l| l.iter().map(|e| e.0).collect())
    }

    #[test]
    fn reordering_queue_serves_strict_first() {
        let mut q = SchedQueue::new(true);
        q.push(batch(1, false));
        q.push(batch(2, true));
        q.push(batch(3, false));
        q.push(batch(4, true));
        let order: Vec<u64> = candidates(&q, 10).iter().map(|b| b.id.0).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
        // Two best-effort ResNet 50 batches at 6 GB each.
        assert_eq!(q.be_mem_gb(), 12.0);
    }

    #[test]
    fn fifo_queue_preserves_arrival_order() {
        let mut q = SchedQueue::new(false);
        q.push(batch(1, false));
        q.push(batch(2, true));
        q.push(batch(3, false));
        let order: Vec<u64> = candidates(&q, 10).iter().map(|b| b.id.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn remove_updates_be_memory() {
        let mut q = SchedQueue::new(true);
        q.push(batch(1, false));
        q.push(batch(2, true));
        assert!(q.remove(BatchId(1)).is_some());
        assert_eq!(q.be_mem_gb(), 0.0);
        assert!(q.remove(BatchId(99)).is_none());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn an_emptied_best_effort_queue_holds_exactly_zero_memory() {
        for reorders in [true, false] {
            let mut q = SchedQueue::new(reorders);
            let be = |id, model| Batch {
                model,
                ..batch(id, false)
            };
            q.push(be(1, ModelId::MobileNet));
            q.push(be(2, ModelId::MobileNet));
            q.push(batch(3, true));
            q.push(be(4, ModelId::Bert));
            // 2.0 + 2.0 + 3.4 GB, less the same in push order, leaves a
            // 4.4e-16 residue in floating point.
            for id in [1, 2, 4] {
                assert!(q.remove(BatchId(id)).is_some());
            }
            assert_eq!(q.be_mem_gb().to_bits(), 0.0f64.to_bits());
            assert_eq!(q.len(), 1);
        }
    }

    #[test]
    fn equal_views_queue_as_one_run_and_removals_shrink_it() {
        let mut q = SchedQueue::new(true);
        let sized = |id, len| queued(id, true, ModelId::ResNet50, len);
        // Strict 1, 1, 1, 2, 2 and a best-effort batch: two strict runs.
        for (id, len) in [(1, 1), (2, 1), (3, 1), (4, 2), (5, 2)] {
            q.push(sized(id, len));
        }
        q.push(batch(6, false));
        assert_eq!(heads(&q), [vec![3, 0, 0, 2, 0], vec![1]]);
        assert_eq!(q.last_run, [2, 1]);
        // A removed head hands its length on; a removed member shrinks
        // its head; an emptied last run leaves the one before it last.
        assert_eq!(q.remove_at(0, 0).id, BatchId(1));
        assert_eq!(q.remove_at(0, 1).id, BatchId(3));
        assert_eq!(heads(&q)[0], [1, 2, 0]);
        q.remove(BatchId(5));
        q.remove(BatchId(4));
        assert_eq!((heads(&q)[0].clone(), q.last_run[0]), (vec![1], 1));
        // The next equal push extends that run.
        q.push(batch(7, true));
        assert_eq!((heads(&q)[0].clone(), q.last_run[0]), (vec![2, 0], 2));
        assert_eq!(q.run_encoding_error(), None);
    }

    #[test]
    fn the_audit_names_the_worker_of_a_broken_run_encoding() {
        let mut fleet = vec![idle_worker()];
        fleet[0].idx = 3;
        let q = &mut fleet[0].sched_queue;
        q.push(batch(1, true));
        q.push(batch(2, true));
        q.lanes[0][0].0 = 3;
        let mut audit = crate::audit::Auditor::new(Some(std::num::NonZeroU64::MIN));
        let ledger = protean_spot::VmLedger::new(protean_spot::Provider::Aws);
        let index = crate::dispatch::DispatchIndex::new(1);
        audit.check(SimTime::ZERO, &fleet, &ledger, &index, |_| None);
        let report = audit.into_report();
        let broken = "worker 3 scheduler queue: lane 0 overhung by 1";
        assert!(
            report.violations.iter().any(|v| v.contains(broken)),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn candidates_respects_depth_per_class() {
        let mut q = SchedQueue::new(true);
        for i in 0..10 {
            q.push(batch(i, i % 2 == 0));
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
            f.push(batch(i, i % 2 == 0));
        }
        assert_eq!(candidates(&f, 3).len(), 3);
    }

    #[test]
    fn drain_all_batches_empties_worker() {
        let mut w = idle_worker();
        w.sched_queue.push(batch(1, true));
        w.sched_queue.push(batch(2, false));
        w.outstanding = 2;
        let reqs = w.drain_all_batches();
        assert_eq!(reqs.len(), 2);
        assert_eq!(w.outstanding, 0);
        assert!(w.sched_queue.is_empty());
    }

    #[test]
    fn drain_order_is_waits_by_model_then_queue_then_running() {
        let mut w = idle_worker();
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
            let acquired = w.acquire_container(of(id, model));
            assert_eq!(acquired, Acquire::ColdStarted);
        }
        w.sched_queue.push(batch(4, true));
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
        let mut w = idle_worker();
        w.acquire_container(batch(1, false));
        w.acquire_container(batch(2, false));
        // The first boot serves the oldest waiter and records its wait.
        assert!(w.boot_done(ModelId::ResNet50, SimTime::from_secs(2.0)));
        let queued = candidates(&w.sched_queue, 10);
        assert_eq!(queued.len(), 1);
        assert_eq!(queued[0].id, BatchId(1));
        assert_eq!(queued[0].cold_wait_ms, 2000.0);
        // A finishing batch hands its container to the next waiter; the
        // late boot then finds nobody waiting and parks warm.
        let running = w.sched_queue.remove(BatchId(1)).unwrap();
        w.start_running(RunningBatch {
            batch: running,
            slice: 0,
            exec_start: SimTime::ZERO,
            solo_on_slice_ms: 1.0,
            solo_7g_ms: 1.0,
        });
        w.outstanding = 2;
        let t3 = SimTime::from_secs(3.0);
        assert!(w.finish_running(BatchId(1), t3).is_some());
        assert!(w.finish_running(BatchId(1), t3).is_none());
        assert_eq!(w.outstanding, 1);
        assert!(!w.boot_done(ModelId::ResNet50, SimTime::from_secs(4.0)));
        let (_, pool) = w.containers().next().unwrap();
        assert_eq!((pool.busy_count(), pool.warm_count()), (1, 1));
        assert_eq!(pool.cold_starts(), 2);
    }

    #[test]
    fn drained_waiting_queues_give_their_slots_back() {
        let waiting_slots = |w: &Worker| w.models[0].waiting.capacity();
        let burst = |w: &mut Worker| {
            for id in 0..1000 {
                w.acquire_container(batch(id, false));
            }
            assert!(waiting_slots(w) >= 1000);
        };
        // The boots serve the burst, and the queue shrinks as it drains.
        let mut w = idle_worker();
        burst(&mut w);
        for _ in 0..1000 {
            assert!(w.boot_done(ModelId::ResNet50, SimTime::from_secs(8.0)));
        }
        assert!(waiting_slots(&w) <= protean_sim::slim::KEEP);
        // An eviction releases the queue outright, by either path.
        burst(&mut w);
        assert_eq!(w.drain_all_batches().len(), 2000);
        assert_eq!(waiting_slots(&w), 0);
        burst(&mut w);
        w.reset_runtime(SimTime::from_secs(9.0));
        assert_eq!(waiting_slots(&w), 0);
    }

    proptest::proptest! {
        /// Push/remove conservation: whatever order batches enter and
        /// leave, the queue's BE-memory counter matches the live BE
        /// batches and `candidates` covers the whole queue at full depth.
        #[test]
        fn prop_queue_conserves_batches_and_memory(
            ops in proptest::collection::vec(
                (proptest::bool::ANY, proptest::sample::select(ModelId::ALL.to_vec())),
                1..60,
            ),
            reorders in proptest::bool::ANY,
        ) {
            let mut q = SchedQueue::new(reorders);
            let mut live: Vec<(u64, bool, f64)> = Vec::new();
            for (next_id, (strict, model)) in ops.into_iter().enumerate() {
                let next_id = next_id as u64;
                // Alternate pushes with occasional removals.
                if next_id % 3 == 2 && !live.is_empty() {
                    let (id, _, _) = live.remove(0);
                    proptest::prop_assert!(q.remove(BatchId(id)).is_some());
                } else {
                    q.push(Batch { model, ..batch(next_id, strict) });
                    live.push((next_id, strict, model.profile().mem_gb));
                }
                let expected_be: f64 = live
                    .iter()
                    .filter(|(_, s, _)| !s)
                    .map(|(_, _, m)| m)
                    .sum();
                if live.iter().all(|(_, s, _)| *s) {
                    proptest::prop_assert_eq!(q.be_mem_gb().to_bits(), 0.0f64.to_bits());
                }
                proptest::prop_assert!((q.be_mem_gb() - expected_be).abs() < 1e-9,
                    "be mem {} expected {}", q.be_mem_gb(), expected_be);
                proptest::prop_assert_eq!(q.len(), live.len());
                proptest::prop_assert_eq!(candidates(&q, live.len().max(1)).len(), live.len());
            }
            // Drain and verify every live batch is still present.
            for (id, _, _) in live {
                proptest::prop_assert!(q.remove(BatchId(id)).is_some());
            }
            proptest::prop_assert!(q.is_empty());
            proptest::prop_assert_eq!(q.be_mem_gb().to_bits(), 0.0f64.to_bits());
        }

        /// The queue against a plain `Vec<Batch>` in push order, under
        /// random pushes, position removals and drains, in both modes:
        /// the candidates at any depth, the run encoding and the queued
        /// best-effort memory agree. Two models and two sizes make
        /// equal views recur.
        #[test]
        fn prop_queue_matches_a_vec_model(
            ops in proptest::collection::vec((0u32..8, proptest::bool::ANY, 0usize..64), 1..80),
            reorders in proptest::bool::ANY,
        ) {
            let mut q = SchedQueue::new(reorders);
            let mut model: Vec<Batch> = Vec::new();
            let lane_of = |b: &Batch| usize::from(reorders && !b.strict);
            for (id, (op, strict, pick)) in ops.into_iter().enumerate() {
                match op {
                    0..=4 => {
                        let m = [ModelId::ResNet50, ModelId::Bert][pick % 2];
                        let b = queued(id as u64, strict, m, 1 + (pick / 2 % 2) as u32);
                        q.push(b.clone());
                        model.push(b);
                    }
                    5 | 6 if !model.is_empty() => {
                        let i = pick % model.len();
                        let lane = lane_of(&model[i]);
                        let pos = model[..i].iter().filter(|b| lane_of(b) == lane).count();
                        proptest::prop_assert_eq!(q.remove_at(lane, pos), model.remove(i));
                    }
                    7 => {
                        let (mut served, be): (Vec<Batch>, Vec<Batch>) =
                            model.drain(..).partition(|b| b.strict);
                        served.extend(be);
                        proptest::prop_assert_eq!(q.drain_all(), served);
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(q.run_encoding_error(), None);
                let depth = pick % (model.len() + 2);
                let expected: Vec<&Batch> = (0..2)
                    .flat_map(|lane| model.iter().filter(move |b| lane_of(b) == lane).take(depth))
                    .collect();
                proptest::prop_assert_eq!(candidates(&q, depth), expected);
                proptest::prop_assert_eq!(q.len(), model.len());
                let be = model.iter().filter(|b| !b.strict).map(|b| b.model.profile().mem_gb);
                let be: Vec<f64> = be.collect();
                if be.is_empty() {
                    proptest::prop_assert_eq!(q.be_mem_gb().to_bits(), 0.0f64.to_bits());
                }
                let sum: f64 = be.iter().sum();
                proptest::prop_assert!((q.be_mem_gb() - sum).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn buffers_that_held_one_entry_hold_one_slot() {
        let mut w = idle_worker();
        let at = SimTime::from_secs;
        // A strict batch waits for a cold container; a best-effort batch
        // then takes it warm. Each queues, runs and finishes alone.
        let cold = w.acquire_container(batch(1, true));
        assert_eq!(cold, Acquire::ColdStarted);
        assert!(w.boot_done(ModelId::ResNet50, at(1.0)));
        for id in [1, 2] {
            if id == 2 {
                let warm = w.acquire_container(batch(2, false));
                assert_eq!(warm, Acquire::Warm);
            }
            let queued = w.sched_queue.remove(BatchId(id)).unwrap();
            w.start_running(RunningBatch {
                batch: queued,
                slice: 0,
                exec_start: at(2.0),
                solo_on_slice_ms: 1.0,
                solo_7g_ms: 1.0,
            });
            w.outstanding += 1;
            assert!(w.finish_running(BatchId(id), at(3.0)).is_some());
        }
        let state = &w.models[0];
        let slots = [
            w.sched_queue.lanes[0].capacity(),
            w.running.capacity(),
            state.waiting.capacity(),
            state.pool.warm_capacity(),
        ];
        // The FIFO queue's one lane, running, waiting, warm.
        assert_eq!(slots, [1; 4]);
        assert_eq!(w.sched_queue.lanes[1].capacity(), 0);
        // The decline memo holds one slot per declined view.
        let (mut w, _) = busy_worker();
        w.offer(&view(true, 1), at(0.0), false);
        assert_eq!(w.memo.as_ref().unwrap().views.capacity(), 1);
    }

    #[test]
    fn the_per_worker_records_keep_their_sizes() {
        use std::mem::size_of;
        assert_eq!(size_of::<RunningBatch>(), 88);
        assert_eq!(size_of::<ModelState>(), 136);
        assert_eq!(size_of::<Worker>(), 392);
        assert_eq!(size_of::<(u32, Batch)>(), 64);
    }

    #[test]
    fn reset_runtime_bumps_epoch_and_rebuilds_gpu() {
        let mut w = idle_worker();
        let e0 = w.vm_epoch;
        w.reset_runtime(SimTime::from_secs(1.0));
        assert_eq!(w.vm_epoch, e0 + 1);
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
        let mut w = Worker::new(0, scheme, &RngFactory::new(0), SimTime::ZERO);
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
        let now = SimTime::ZERO;
        let (mut w, n) = busy_worker();
        let calls = || n.load(Ordering::Relaxed);
        let (a, b) = (view(true, 1), view(true, 2));
        assert_eq!(w.offer(&a, now, false), Offer::Decline);
        assert_eq!(calls(), 1);
        let skip = Offer::Skip {
            contradicted: false,
        };
        assert_eq!(w.offer(&a, now, false), skip);
        assert_eq!(calls(), 1, "a memoised decline is not re-asked");
        // Another view is asked; the recheck asks, and agrees.
        assert_eq!(w.offer(&b, now, false), Offer::Decline);
        assert_eq!(w.offer(&a, now, true), skip);
        assert_eq!(calls(), 3);
        // Queued best-effort memory is part of the key.
        w.sched_queue.push(batch(7, false));
        assert_eq!(w.offer(&a, now, false), Offer::Decline);
        assert_eq!(calls(), 4);
        // So is the GPU's version: the finish frees slice 0.
        let done = SimTime::from_secs(1.0);
        w.gpu
            .slice_mut(0)
            .finish(done, protean_gpu::JobId(1))
            .unwrap();
        let placed = Offer::Place(Placement::on_slice(0));
        assert_eq!(w.offer(&a, now, false), placed);
        assert_eq!(calls(), 5);
    }

    #[test]
    fn a_placement_the_monitor_tick_and_a_reset_forget_declines() {
        let config = ClusterConfig::small_test();
        let now = SimTime::ZERO;
        let (mut w, n) = busy_worker();
        let strict = view(true, 1);
        let asked = |w: &mut Worker| {
            let before = n.load(Ordering::Relaxed);
            w.offer(&strict, now, false);
            n.load(Ordering::Relaxed) > before
        };
        assert!(asked(&mut w));
        assert!(!asked(&mut w));
        // A best-effort batch is placed without touching the GPU.
        let version = w.gpu.version();
        let be = w.offer(&view(false, 1), now, false);
        assert_eq!(be, Offer::Place(Placement::on_slice(0)));
        assert_eq!(w.gpu.version(), version);
        assert!(asked(&mut w), "a placement voids the memo");
        assert!(!asked(&mut w));
        w.monitor_tick(now, &config, |_| {});
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
