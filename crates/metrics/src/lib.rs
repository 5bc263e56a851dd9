//! Metrics collection and statistics for the reproduction experiments.
//!
//! The paper's evaluation reports, per scheme: strict-request **SLO
//! compliance**, **tail (P99) latency** with a stacked breakdown into
//! *queueing*, *cold start*, *interference*, *resource deficiency* and
//! *minimum possible time* (Figs. 2, 6, 11), the end-to-end latency
//! **CDF** (Fig. 8), **throughput** per GPU (Fig. 10a), GPU/memory
//! **utilization** (Fig. 10b), and dollar **cost** (Fig. 9). §7 adds
//! confidence intervals, Welch p-values and Cohen's *d*. This crate
//! provides all of those over per-request [`RequestRecord`]s.
//!
//! # Example
//!
//! ```
//! use protean_metrics::{LatencyBreakdown, MetricsSet, RequestRecord};
//! use protean_models::ModelId;
//! use protean_sim::{SimDuration, SimTime};
//!
//! let mut m = MetricsSet::new();
//! m.push(RequestRecord {
//!     model: ModelId::ResNet50,
//!     strict: true,
//!     arrival: SimTime::ZERO,
//!     completion: SimTime::from_millis(120.0),
//!     breakdown: LatencyBreakdown::default(),
//! });
//! let slo = |_| SimDuration::from_millis(285.0);
//! assert_eq!(m.slo_compliance(&slo), 1.0);
//! ```

pub mod record;
pub mod stats;

pub use record::{BatchRecord, LatencyBreakdown, MetricsSet, RequestRecord, Summary};
pub use stats::{cohens_d, mean_ci95, percentile, welch_t_test, SortedLatencies, TTestResult};
