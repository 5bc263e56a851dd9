//! The scheduling-policy abstraction every evaluated scheme implements.

use protean_gpu::{Geometry, Gpu, SharingMode};
use protean_models::ModelId;
use protean_sim::SimTime;

/// What a scheme sees of a batch when placing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchView {
    /// The model the batch serves.
    pub model: ModelId,
    /// Whether the batch carries strict-SLO requests.
    pub strict: bool,
    /// Number of requests in the batch.
    pub size: u32,
}

/// A scheme's placement decision for one batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Index of the chosen slice in the worker GPU's current geometry
    /// (largest slice first).
    pub slice: usize,
    /// Multiplier applied to the job's FBR before admission. Used by
    /// the `GPUlet` baseline: an SM cap stretches execution, spreading
    /// the same memory traffic over a longer run, so the bandwidth
    /// *rate* drops by the stretch; 1.0 for everyone else.
    pub fbr_scale: f64,
    /// Multiplier applied to the job's solo time before admission.
    /// `GPUlet` uses this for the compute loss of the SM cap; 1.0
    /// elsewhere.
    pub solo_scale: f64,
}

impl Placement {
    /// A plain placement on `slice` with no scaling.
    pub fn on_slice(slice: usize) -> Self {
        Placement {
            slice,
            fbr_scale: 1.0,
            solo_scale: 1.0,
        }
    }
}

/// Context handed to [`Scheme::place`]. A batch's profiled quantities
/// (memory, solo time, FBR, RDF) are `batch.model.profile()`
/// ([`ModelId::profile`]).
#[derive(Debug)]
pub struct PlacementCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The worker's GPU (slices largest-first, live occupancy visible).
    pub gpu: &'a Gpu,
    /// Total memory (GB) of best-effort batches currently waiting in
    /// this worker's scheduler queue — the `BE_mem` input of
    /// Algorithm 1.
    pub queued_be_mem_gb: f64,
}

/// Context handed to [`Scheme::reconfigure`] every monitor interval.
/// The best-effort model's profile is `be_model.map(ModelId::profile)`.
#[derive(Debug)]
pub struct ReconfigCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The worker's GPU.
    pub gpu: &'a Gpu,
    /// Best-effort requests that arrived at this worker during the last
    /// monitor window.
    pub window_be_requests: u64,
    /// Strict requests that arrived during the last monitor window.
    pub window_strict_requests: u64,
    /// The most recent best-effort model seen at this worker.
    pub be_model: Option<ModelId>,
}

/// A request-serving policy under evaluation (PROTEAN or a baseline).
///
/// One `Scheme` instance exists per worker node (policies keep per-GPU
/// state such as EWMA predictors and reconfiguration wait counters), all
/// built by a [`SchemeBuilder`].
pub trait Scheme {
    /// Human-readable scheme name, as used in the figures.
    fn name(&self) -> &'static str;

    /// The MIG geometry each GPU starts with.
    fn initial_geometry(&self) -> Geometry;

    /// How slices share between co-located jobs (MPS spatial sharing or
    /// FIFO time sharing).
    fn sharing_mode(&self) -> SharingMode;

    /// Whether the worker should serve strict batches before best-effort
    /// ones (§4.1 request reordering). Defaults to `false` (FIFO).
    fn reorders(&self) -> bool {
        false
    }

    /// Chooses a slice for `batch`, or `None` to leave it queued until
    /// conditions change (a job finishes or the GPU reconfigures).
    ///
    /// Returning a slice whose admission then fails (e.g. out of memory
    /// due to a race with another placement) is handled by the engine:
    /// the batch simply stays queued.
    ///
    /// # Contract
    ///
    /// Whether `place` returns `None` may depend only on `ctx.gpu`,
    /// `ctx.queued_be_mem_gb`, `batch` and scheme state that changes in
    /// [`Scheme::reconfigure`]; not on `ctx.now` or a call count. A
    /// `None` must leave the scheme unchanged. The engine relies on
    /// this: each worker memoises declines and does not re-offer a view
    /// the scheme declined until the GPU (its
    /// [`Gpu::version`](protean_gpu::Gpu::version)), the queued
    /// best-effort memory or the scheme state may have changed. A
    /// `Some` may update scheme state (e.g. a round-robin cursor). With
    /// [`Observe::audit`] on, every skipped offer is made anyway
    /// and an answer other than `None` is a violation.
    ///
    /// A `Some` must name a slice of the current geometry
    /// (`slice < ctx.gpu.slices().len()`). The engine leaves a batch
    /// placed past it queued, having already voided the worker's
    /// memoised declines; with [`Observe::audit`] on, such a
    /// placement is a violation.
    ///
    /// [`Observe::audit`]: crate::Observe::audit
    fn place(&mut self, ctx: &PlacementCtx<'_>, batch: &BatchView) -> Option<Placement>;

    /// Invoked every monitor interval; return `Some(geometry)` to
    /// request an on-the-fly MIG reconfiguration of this worker's GPU
    /// (§4.4). The engine enforces the cluster-wide cap on simultaneous
    /// reconfigurations. Defaults to never reconfiguring.
    fn reconfigure(&mut self, _ctx: &ReconfigCtx<'_>) -> Option<Geometry> {
        None
    }
}

/// Builds one [`Scheme`] instance per worker node.
///
/// Builders are shared across the parallel experiment harness's worker
/// threads (`protean-experiments`), so they must be `Send + Sync`; in
/// practice every builder is plain configuration data.
pub trait SchemeBuilder: Send + Sync {
    /// Builds the scheme instance for worker `worker`.
    fn build(&self, worker: usize) -> Box<dyn Scheme>;

    /// The scheme's display name.
    fn name(&self) -> &'static str;

    /// How the dispatcher routes batches to workers under this scheme.
    fn dispatch_policy(&self) -> DispatchPolicy {
        DispatchPolicy::LoadBalance
    }
}

/// How the dispatcher spreads sealed batches across worker nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchPolicy {
    /// Route each batch to the least-loaded live worker (PROTEAN and
    /// most baselines).
    #[default]
    LoadBalance,
    /// Pack batches onto as few GPUs as possible — utilization-
    /// maximising routing ("consolidate excessive workload batches on
    /// individual GPUs", §1): the lowest-indexed live worker whose
    /// backlog is below `cap_batches` batches of the dispatched model,
    /// falling back to least-loaded when all are at the cap. INFless/
    /// Llama pack deep (SLO-agnostic); GPUlet packs shallow (its
    /// gpu-lets are sized from profiled latency).
    Consolidate {
        /// Outstanding-batch cap per worker before spilling over.
        cap_batches: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_on_slice_defaults_scales() {
        let p = Placement::on_slice(2);
        assert_eq!(p.slice, 2);
        assert_eq!(p.fbr_scale, 1.0);
        assert_eq!(p.solo_scale, 1.0);
    }

    #[test]
    fn scheme_default_hooks() {
        struct S;
        impl Scheme for S {
            fn name(&self) -> &'static str {
                "s"
            }
            fn initial_geometry(&self) -> Geometry {
                Geometry::full()
            }
            fn sharing_mode(&self) -> SharingMode {
                SharingMode::Mps
            }
            fn place(&mut self, _: &PlacementCtx<'_>, _: &BatchView) -> Option<Placement> {
                None
            }
        }
        let mut s = S;
        assert!(!s.reorders());
        let gpu = Gpu::new(
            protean_gpu::GpuId(0),
            Geometry::full(),
            SharingMode::Mps,
            SimTime::ZERO,
        );
        let ctx = ReconfigCtx {
            now: SimTime::ZERO,
            gpu: &gpu,
            window_be_requests: 0,
            window_strict_requests: 0,
            be_model: None,
        };
        assert!(s.reconfigure(&ctx).is_none());
    }
}
