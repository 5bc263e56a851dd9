//! The paper's 22 ML-inference workloads as one calibrated table.
//!
//! PROTEAN's policies never touch model weights — they consume four
//! profiled quantities per model: the per-batch **memory footprint**, the
//! **solo execution time** on a full GPU (`7g`), the **Fractional
//! Bandwidth Requirement** (FBR, Fig. 3), and the **Resource Deficiency
//! Factor** (RDF) on each MIG slice. This crate holds those numbers for
//! the paper's 12 vision models (batch 128, ImageNet) and 10 language
//! models (batch 4, Large Movie Review) in one static table,
//! [`PROFILES`], which [`ModelId::profile`] indexes directly. They are
//! calibrated to the published characteristics:
//!
//! * vision batch latencies on `7g` fall in the paper's 50–200 ms band;
//! * per-batch memory footprints span ~2–14 GB, with *DPN 92* up to
//!   2.74× larger than the small vision models (Fig. 7 discussion);
//! * language-model FBRs are ~59% higher on average than vision FBRs
//!   (§6.2 "VHI models"), and the GPT models up to ~42% higher again
//!   (Fig. 13 discussion);
//! * *ALBERT*'s batch execution grows ~2.15× on a `3g` slice (§2.2) and
//!   *ShuffleNet V2* is barely (<2%) deficiency-sensitive (§6.2).
//!
//! RDF follows an Amdahl-style law: on a slice with compute fraction `c`
//! and bandwidth fraction `b`,
//! `RDF = 1 / (1 − β·(1 − min(c, b)))`, where `β ∈ [0, 1)` is the
//! model's *deficiency sensitivity* — 0 for models that barely notice
//! smaller slices, →1 for models that scale with the full GPU.
//!
//! # Example
//!
//! ```
//! use protean_models::{ModelId, InterferenceClass};
//! use protean_gpu::SliceProfile;
//!
//! let albert = ModelId::Albert.profile();
//! assert_eq!(albert.class, InterferenceClass::Vhi);
//! let rdf = albert.rdf(SliceProfile::G3);
//! assert!((rdf - 2.15).abs() < 0.1, "ALBERT on 3g should be ~2.15x");
//! ```

pub mod catalog;
pub mod profiling;

pub use catalog::{
    generative, in_class, language, vhi_non_generative, vision, Domain, InterferenceClass, ModelId,
    ModelProfile, BATCH_FIXED_COST_FRACTION, DEFAULT_SLO_MULTIPLIER, PROFILES,
};
pub use profiling::{estimate_fbr_from_pairs, CoLocationMeasurement};
