//! Runs a scheme on a scenario spec and condenses the result into one
//! [`SchemeRow`], the one place a run is scored.

use std::path::Path;

use protean_cluster::{Observe, SchemeBuilder, SimulationResult};
use protean_metrics::record::Class;
use protean_metrics::{LatencyBreakdown, Summary};
use protean_models::ModelId;
use protean_sim::SimDuration;

use crate::scenario::{ScenarioError, ScenarioSpec};

/// One scheme's condensed results for one workload — the numbers the
/// paper's figures plot.
#[derive(Debug, Clone)]
pub struct SchemeRow {
    /// Scheme label.
    pub scheme: String,
    /// The strict SLO multiplier the row is scored at.
    pub slo_mult: f64,
    /// Strict SLO compliance at `slo_mult`, percent.
    pub slo_compliance_pct: f64,
    /// Strict P50 latency, ms.
    pub strict_p50_ms: f64,
    /// Strict P99 latency, ms.
    pub strict_p99_ms: f64,
    /// Best-effort P50 latency, ms.
    pub be_p50_ms: f64,
    /// Best-effort P99 latency, ms.
    pub be_p99_ms: f64,
    /// Mean latency breakdown over the strict P99 tail (the stacked
    /// bars of Figs. 2/6/11).
    pub tail_breakdown: LatencyBreakdown,
    /// Strict requests served per GPU per second (Fig. 10a).
    pub strict_throughput: f64,
    /// All requests served per GPU per second.
    pub total_throughput: f64,
    /// Mean GPU compute utilization, percent (Fig. 10b).
    pub gpu_util_pct: f64,
    /// Mean GPU memory utilization, percent (Fig. 10b).
    pub mem_util_pct: f64,
    /// Total dollar cost of the run.
    pub cost_usd: f64,
    /// Spot-VM evictions suffered.
    pub evictions: u64,
    /// Requests censored at cutoff (overload indicator).
    pub censored: u64,
    /// Completed MIG reconfigurations.
    pub reconfigs: u64,
    /// The full simulation result, for figure-specific post-processing
    /// (CDFs, timelines).
    pub result: SimulationResult,
}

/// Runs `scheme` on `spec` ([`ScenarioSpec::compile`], then
/// [`CompiledScenario::simulate`](crate::scenario::CompiledScenario::simulate)),
/// scored at its `[fleet] slo_mult`. A relative CSV path is read from
/// the working directory.
///
/// # Errors
///
/// [`ScenarioError::Invalid`] naming the file and line of a bad CSV.
pub fn run_cell(
    spec: &ScenarioSpec,
    scheme: &dyn SchemeBuilder,
) -> Result<SchemeRow, ScenarioError> {
    let compiled = spec.compile(Path::new(""), false);
    let result = compiled.simulate(scheme, Observe::default())?;
    let (warmup, slo_mult) = (compiled.config.warmup, spec.fleet.slo_mult);
    Ok(SchemeRow::new(result, warmup, slo_mult))
}

impl SchemeRow {
    /// Condenses `result`, a run whose first `warmup` went unmeasured,
    /// scored at a strict SLO of `slo_mult ×` solo 7g latency.
    pub fn new(result: SimulationResult, warmup: SimDuration, slo_mult: f64) -> Self {
        let measured = if result.duration > warmup {
            result.duration - warmup
        } else {
            result.duration
        };
        let m = &result.metrics;
        // One sort per class serves every percentile and the tail cut.
        let strict = m.sorted_latencies(Class::Strict);
        let be = m.sorted_latencies(Class::BestEffort);
        let mut row = SchemeRow {
            scheme: result.scheme.clone(),
            slo_mult,
            // Set below, through the one scorer of compliance.
            slo_compliance_pct: 0.0,
            strict_p50_ms: strict.p50().unwrap_or(0.0),
            strict_p99_ms: strict.p99().unwrap_or(0.0),
            be_p50_ms: be.p50().unwrap_or(0.0),
            be_p99_ms: be.p99().unwrap_or(0.0),
            tail_breakdown: m
                .tail_breakdown_with(Class::Strict, &strict, 0.99)
                .unwrap_or_default(),
            strict_throughput: m.throughput_per_gpu(Class::Strict, measured, result.workers),
            total_throughput: m.throughput_per_gpu(Class::All, measured, result.workers),
            gpu_util_pct: result.compute_utilization * 100.0,
            mem_util_pct: result.memory_utilization * 100.0,
            cost_usd: result.cost.total_usd,
            evictions: result.cost.evictions,
            censored: result.censored,
            reconfigs: result.reconfigs,
            result,
        };
        row.slo_compliance_pct = row.slo_compliance_at(slo_mult);
        row
    }

    /// Strict SLO compliance, percent, at SLO multiplier `slo_mult`.
    pub fn slo_compliance_at(&self, slo_mult: f64) -> f64 {
        let slo = SimulationResult::slo_fn(slo_mult);
        self.result.metrics.slo_compliance(&slo) * 100.0
    }

    /// Each model's counts, compliance and latencies at `slo_mult`.
    pub fn per_model(&self) -> Vec<(ModelId, Summary)> {
        let slo = SimulationResult::slo_fn(self.slo_mult);
        self.result.metrics.per_model_summaries(&slo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use protean_baselines::Baseline;

    #[test]
    fn row_is_populated_and_consistent() {
        let keys = [
            ("trace.duration_secs", "30"),
            ("trace.kind", "constant"),
            ("trace.rps", "400"),
            ("fleet.seed", "1"),
            ("fleet.workers", "2"),
        ];
        let row = run_cell(&scenario::paper().with(&keys), &Baseline::InflessLlama).unwrap();
        assert_eq!(row.scheme, "INFless/Llama");
        assert!((0.0..=100.0).contains(&row.slo_compliance_pct));
        assert!(row.strict_p99_ms >= row.strict_p50_ms);
        assert!(row.strict_throughput > 0.0);
        assert!(row.total_throughput >= row.strict_throughput);
        assert!(row.cost_usd > 0.0);
    }
}
