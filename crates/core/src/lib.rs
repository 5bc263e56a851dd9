//! PROTEAN: the paper's SLO-compliant, cost-effective GPU serverless
//! scheduler.
//!
//! This crate is the primary contribution of the reproduced paper. It
//! implements, on top of the `protean-cluster` substrate:
//!
//! * the **slowdown model** (§3) — Eq. 2's slowdown factor
//!   `η = RDF × max(Σ FBR, 1)` that trades off *resource deficiency*
//!   (running on a smaller MIG slice) against *job interference* (MPS
//!   co-location), see [`slowdown::eta`];
//! * **Job Distribution** (§4.3, Algorithm 1) — best-effort batches are
//!   packed onto the fewest, smallest slices by first-fit bin packing
//!   (Guideline 1) while strict batches go to the not-fully-BE-tagged
//!   slice with minimum η (Guideline 2), see [`distribution`];
//! * the **GPU Reconfigurator** (§4.4, Algorithm 2) — predicts the
//!   best-effort memory footprint with a lightweight EWMA, picks the
//!   small-slice set that holds it (`[1g, 2g]` or `[3g]`, giving
//!   geometries `(4g, 2g, 1g)` or `(4g, 3g)`), guards against corner
//!   cases with occupancy thresholds `T_low`/`T_high`, and only
//!   reconfigures after the desired geometry has mismatched the current
//!   one `wait_limit` (3) consecutive times, see [`reconfigurator`];
//! * **request reordering** (§4.1) — strict batches are served before
//!   best-effort batches (the substrate's strict-priority queue).
//!
//! The [`Protean`] type packages all of this as a
//! [`protean_cluster::Scheme`]; [`ProteanBuilder`] instantiates one per
//! worker. The `Oracle` variant (§6.2, Fig. 17) is PROTEAN with perfect
//! prediction and no reconfiguration hesitation, built via
//! [`ProteanConfig::oracle`] (the experiment additionally zeroes the
//! reconfiguration delay in the cluster config).
//!
//! # Example
//!
//! ```
//! use protean::ProteanBuilder;
//! use protean_cluster::{simulate, Arrivals, ClusterConfig, Observe};
//! use protean_trace::{TraceConfig, TraceShape};
//! use protean_models::ModelId;
//! use protean_sim::SimDuration;
//!
//! let trace = TraceConfig {
//!     shape: TraceShape::constant(300.0),
//!     duration: SimDuration::from_secs(20.0),
//!     strict_model: ModelId::ResNet50,
//!     strict_fraction: 0.5,
//!     be_pool: vec![ModelId::MobileNet],
//!     be_rotation_period: SimDuration::from_secs(20.0),
//!     batch_arrivals: true,
//! };
//! let mut config = ClusterConfig::small_test();
//! config.warmup = SimDuration::from_secs(10.0);
//! let arrivals = Arrivals::Generate(&trace);
//! let result = simulate(&config, &ProteanBuilder::paper(), arrivals, None, Observe::default());
//! assert_eq!(result.scheme, "PROTEAN");
//! ```

pub mod distribution;
pub mod reconfigurator;
pub mod scheme;
pub mod slowdown;

pub use distribution::{choose_best_effort_slice, choose_strict_slice, tag_slices};
pub use protean_sim::Ewma;
pub use reconfigurator::{Reconfigurator, ReconfiguratorConfig};
pub use scheme::{Protean, ProteanBuilder, ProteanConfig};
pub use slowdown::eta;
