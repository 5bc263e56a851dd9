//! The paper's experimental setup (§5): its two rates, and
//! [`PaperSetup`], its cluster and trace as engine types.

use std::path::Path;

use protean_cluster::ClusterConfig;
use protean_models::ModelId;
use protean_trace::TraceConfig;

use crate::scenario::{self, CompiledScenario, TraceSource};

/// Mean request rate for the vision models (§5: ~5000 rps).
pub const VISION_RPS: f64 = 5000.0;
/// Request rate for the language models (§5: 128 rps).
pub const LANGUAGE_RPS: f64 = 128.0;

/// A trace length and a seed on [`scenario::paper`], compiled to engine
/// types. It exists only because the `perf` benchmark driver builds its
/// workloads from it; every other run sets keys on [`scenario::paper`]
/// and runs it through [`scenario::CompiledScenario::simulate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperSetup {
    /// Simulated trace length, seconds.
    pub duration_secs: f64,
    /// Root seed.
    pub seed: u64,
}

impl PaperSetup {
    /// The 8-worker cluster of the paper, on-demand VMs.
    pub fn cluster(&self) -> ClusterConfig {
        self.compile(ModelId::ResNet50).config
    }

    /// The Wiki trace for `strict` at its domain's rate with the paper's
    /// 50/50 strictness mix and ~20 s BE-model rotation through the
    /// opposite interference class.
    pub fn wiki_trace(&self, strict: ModelId) -> TraceConfig {
        match self.compile(strict).trace {
            TraceSource::Config(trace) => trace,
            TraceSource::Csv(_) => unreachable!("the paper's trace is generated"),
        }
    }

    fn compile(&self, model: ModelId) -> CompiledScenario {
        let mut spec = scenario::paper().at_paper_rate(model);
        spec.fleet.seed = self.seed;
        spec.trace.duration_secs = self.duration_secs;
        spec.compile(Path::new(""), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_models::InterferenceClass;
    use protean_trace::TraceShape;

    /// The paper's own trace length and seed.
    const PAPER: PaperSetup = PaperSetup {
        duration_secs: 120.0,
        seed: 42,
    };

    #[test]
    fn vision_and_language_rates_match_paper() {
        let s = PAPER;
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
        let s = PAPER;
        let t = s.wiki_trace(ModelId::ResNet50); // HI strict
        for m in &t.be_pool {
            assert_eq!(m.profile().class, InterferenceClass::Li);
        }
    }

    #[test]
    fn twitter_trace_targets_peak() {
        let keys = [("trace.model", "mobilenet"), ("trace.kind", "twitter")];
        let compiled = scenario::paper().with(&keys).compile(Path::new(""), false);
        match compiled.trace {
            TraceSource::Config(TraceConfig {
                shape: TraceShape::TwitterBursty { peak_rps, .. },
                ..
            }) => assert_eq!(peak_rps, 5000.0),
            _ => panic!("expected twitter shape"),
        }
    }

    #[test]
    fn cluster_matches_paper_scale() {
        let s = PAPER;
        let c = s.cluster();
        assert_eq!(c.workers, 8);
        assert_eq!(c, ClusterConfig::paper_default());
    }
}
