//! The serverless cluster substrate: gateway, dispatcher, request
//! batching and reordering, autoscaling container pools, worker nodes,
//! and the discrete-event engine that drives them (paper Fig. 4).
//!
//! The crate is policy-free: every scheduling decision the paper varies
//! between schemes is delegated to a [`Scheme`] implementation —
//! PROTEAN itself lives in the `protean` crate and the comparison
//! schemes in `protean-baselines`. What this crate fixes is the shared
//! request path:
//!
//! 1. requests **arrive** at the gateway (from a `protean-trace` trace)
//!    and are **dispatched** to the least-loaded live worker, selected
//!    in O(log W) by the incremental [`dispatch::DispatchIndex`];
//! 2. per `(model, strictness)` they accumulate into **batches** (batch
//!    sizes from the model catalog), sealed when full or when the batch
//!    window expires;
//! 3. a sealed batch needs a **container** — warm if the autoscaler kept
//!    one, otherwise a cold start (§4.2: one container per batch,
//!    delayed termination keep-alive);
//! 4. batches wait in the worker's scheduler queue (strict-priority if
//!    the scheme reorders, §4.1) until the scheme **places** them on a
//!    MIG slice of the worker's GPU;
//! 5. completions record per-request latency breakdowns; monitor ticks
//!    drive the scheme's **reconfiguration** hook (≤30% of GPUs may
//!    reconfigure simultaneously, §4.4) and the autoscaler's delayed
//!    termination;
//! 6. the **procurement** layer runs the spot-market emulation:
//!    revocation checks, eviction notices, drain, replacement VMs, and
//!    the dollar ledger (§4.5).
//!
//! One engine drives that path: [`event_loop`] handles every event in
//! `(time, push order)` order on one thread, with each arrival winning
//! the ties at its instant; [`engine`] holds the configuration, the
//! result types and the entry point, [`simulate`], which takes a run's
//! [`Arrivals`], an optional spot oracle and an [`Observe`] value.
//!
//! Two correctness tools ride on top of the engine: the opt-in
//! invariant [`audit`] layer sweeps cluster-wide conservation laws
//! after every event and checks every dispatch selection against the
//! linear scans the dispatch index replaced, and the [`fault`]
//! module's scripted spot oracle drives the eviction machinery through
//! exact adversarial interleavings.
//!
//! # Example
//!
//! ```
//! use protean_cluster::{simulate, Arrivals, ClusterConfig, Observe};
//! use protean_cluster::schemes_for_test::AlwaysLargest;
//! use protean_trace::{TraceConfig, TraceShape};
//! use protean_models::ModelId;
//! use protean_sim::SimDuration;
//!
//! let trace = TraceConfig {
//!     shape: TraceShape::constant(200.0),
//!     duration: SimDuration::from_secs(5.0),
//!     strict_model: ModelId::ResNet50,
//!     strict_fraction: 0.5,
//!     be_pool: vec![ModelId::MobileNet],
//!     be_rotation_period: SimDuration::from_secs(20.0),
//!     batch_arrivals: true,
//! };
//! let mut config = ClusterConfig::small_test();
//! config.warmup = SimDuration::from_secs(0.0); // measure from t=0
//! let arrivals = Arrivals::Generate(&trace);
//! let result = simulate(&config, &AlwaysLargest, arrivals, None, Observe::default());
//! assert!(result.metrics.count(protean_metrics::record::Class::All) > 0);
//! ```

#![deny(clippy::iter_over_hash_type)]

pub mod audit;
pub mod batch;
pub mod container;
pub mod dispatch;
pub mod engine;
pub mod event_loop;
pub mod fault;
pub mod journal;
pub mod scheme;
pub mod worker;

pub use audit::AuditReport;
pub use batch::{Batch, BatchId, Runs};
pub use dispatch::DispatchIndex;
pub use engine::{
    run_stream_with_oracle, run_trace_with_oracle, simulate, Arrivals, ClusterConfig, CostReport,
    EngineStats, Observe, RunCutoffs, SimulationResult,
};
pub use fault::{ScriptedMarket, SpotOracle};
pub use journal::{Journal, JournalEvent};
pub use scheme::{
    BatchView, DispatchPolicy, Placement, PlacementCtx, ReconfigCtx, Scheme, SchemeBuilder,
};

/// Tiny schemes used by doctests and unit tests of this crate.
pub mod schemes_for_test {
    use protean_gpu::{Geometry, SharingMode};

    use crate::scheme::{BatchView, Placement, PlacementCtx, Scheme, SchemeBuilder};

    /// Places every batch on slice 0 of the full-GPU geometry via MPS.
    #[derive(Debug, Clone, Copy)]
    pub struct AlwaysLargest;

    impl Scheme for AlwaysLargest {
        fn name(&self) -> &'static str {
            "always-largest"
        }
        fn initial_geometry(&self) -> Geometry {
            Geometry::full()
        }
        fn sharing_mode(&self) -> SharingMode {
            SharingMode::Mps
        }
        fn place(&mut self, _ctx: &PlacementCtx<'_>, _batch: &BatchView) -> Option<Placement> {
            Some(Placement::on_slice(0))
        }
    }

    impl SchemeBuilder for AlwaysLargest {
        fn build(&self, _worker: usize) -> Box<dyn Scheme> {
            Box::new(AlwaysLargest)
        }
        fn name(&self) -> &'static str {
            "always-largest"
        }
    }
}
