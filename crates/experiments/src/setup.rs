//! The paper's experimental setup (§5) as reusable constructors.

use protean_cluster::ClusterConfig;
use protean_models::{catalog, Domain, ModelId};
use protean_sim::SimDuration;
use protean_trace::{TraceConfig, TraceShape};

/// Mean request rate for the vision models (§5: ~5000 rps).
pub const VISION_RPS: f64 = 5000.0;
/// Request rate for the language models (§5: 128 rps).
pub const LANGUAGE_RPS: f64 = 128.0;

/// Parameters shared by every experiment: trace length and seed
/// (`protean-cli reproduce --duration S --seed N`). The paper runs
/// hour-scale traces on real hardware; the simulated default is 120 s
/// (plus the cluster's 15 s measurement warmup), which is long enough
/// for tens of thousands of batches per scheme while keeping a full
/// `reproduce` under a minute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperSetup {
    /// Simulated trace length, seconds.
    pub duration_secs: f64,
    /// Root seed.
    pub seed: u64,
}

impl Default for PaperSetup {
    fn default() -> Self {
        PaperSetup {
            duration_secs: 120.0,
            seed: 42,
        }
    }
}

impl PaperSetup {
    /// The 8-worker cluster of the paper, on-demand VMs, 3× SLO.
    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig {
            seed: self.seed,
            ..ClusterConfig::paper_default()
        }
    }

    /// The Wiki trace for `strict` at the domain-appropriate rate with
    /// the paper's 50/50 strictness mix and ~20 s BE-model rotation
    /// through the opposite interference class.
    pub fn wiki_trace(&self, strict: ModelId) -> TraceConfig {
        self.trace_with(strict, 0.5, WorkloadTrace::Wiki)
    }

    /// The Twitter (erratic) trace for `strict` (§6.2), scaled to
    /// ~5000 rps peak.
    pub fn twitter_trace(&self, strict: ModelId) -> TraceConfig {
        self.trace_with(strict, 0.5, WorkloadTrace::Twitter)
    }

    /// A constant-rate trace (the §2.2 motivational study).
    pub fn constant_trace(&self, strict: ModelId, rps: f64) -> TraceConfig {
        let mut t = self.trace_with(strict, 0.5, WorkloadTrace::Wiki);
        t.shape = TraceShape::constant(rps);
        t
    }

    /// A Wiki trace with a custom strictness fraction (§6.2 skewed
    /// ratios: 0.75, 0.25, 1.0, 0.0).
    pub fn wiki_trace_with_ratio(&self, strict: ModelId, strict_fraction: f64) -> TraceConfig {
        self.trace_with(strict, strict_fraction, WorkloadTrace::Wiki)
    }

    fn trace_with(
        &self,
        strict: ModelId,
        strict_fraction: f64,
        which: WorkloadTrace,
    ) -> TraceConfig {
        let cat = catalog();
        let rate = match cat.profile(strict).domain {
            Domain::Vision => VISION_RPS,
            Domain::Language => LANGUAGE_RPS,
        };
        let shape = match which {
            WorkloadTrace::Wiki => TraceShape::wiki(rate),
            WorkloadTrace::Twitter => TraceShape::twitter(rate),
        };
        let be_pool = cat.opposite_pool(strict);
        TraceConfig {
            shape,
            duration: SimDuration::from_secs(self.duration_secs),
            strict_model: strict,
            strict_fraction,
            be_pool,
            be_rotation_period: SimDuration::from_secs(20.0),
            // §5 workloads arrive as pre-formed batches (see
            // `TraceConfig::batch_arrivals`).
            batch_arrivals: true,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum WorkloadTrace {
    Wiki,
    Twitter,
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_models::InterferenceClass;

    #[test]
    fn vision_and_language_rates_match_paper() {
        let s = PaperSetup::default();
        let vision = s.wiki_trace(ModelId::ResNet50);
        match vision.shape {
            TraceShape::WikiDiurnal { mean_rps, .. } => assert_eq!(mean_rps, 5000.0),
            _ => panic!("expected wiki shape"),
        }
        let lang = s.wiki_trace(ModelId::Albert);
        match lang.shape {
            TraceShape::WikiDiurnal { mean_rps, .. } => assert_eq!(mean_rps, 128.0),
            _ => panic!("expected wiki shape"),
        }
    }

    #[test]
    fn be_pool_is_opposite_class() {
        let s = PaperSetup::default();
        let cat = catalog();
        let t = s.wiki_trace(ModelId::ResNet50); // HI strict
        for m in &t.be_pool {
            assert_eq!(cat.profile(*m).class, InterferenceClass::Li);
        }
    }

    #[test]
    fn twitter_trace_targets_peak() {
        let s = PaperSetup::default();
        let t = s.twitter_trace(ModelId::MobileNet);
        match t.shape {
            TraceShape::TwitterBursty { peak_rps, .. } => assert_eq!(peak_rps, 5000.0),
            _ => panic!("expected twitter shape"),
        }
    }

    #[test]
    fn cluster_matches_paper_scale() {
        let s = PaperSetup::default();
        let c = s.cluster();
        assert_eq!(c.workers, 8);
        assert_eq!(c.slo_multiplier, 3.0);
    }
}
