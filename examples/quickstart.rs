//! Quickstart: simulate PROTEAN serving a mixed strict/best-effort
//! inference workload on an 8-GPU cluster and print the headline
//! numbers.
//!
//! ```text
//! cargo run --release -p protean-experiments --example quickstart
//! ```

use protean::ProteanBuilder;
use protean_cluster::{simulate, Arrivals, ClusterConfig, Observe};
use protean_metrics::record::Class;
use protean_models::ModelId;
use protean_sim::SimDuration;
use protean_trace::{TraceConfig, TraceShape};

fn main() {
    // 1. Describe the workload: ResNet 50 strict requests under a
    //    Wiki-shaped diurnal trace at 5000 rps, with best-effort
    //    requests rotating through low-interference vision models.
    let trace = TraceConfig {
        shape: TraceShape::wiki(5000.0),
        duration: SimDuration::from_secs(60.0),
        strict_model: ModelId::ResNet50,
        strict_fraction: 0.5,
        be_pool: ModelId::ResNet50.opposite_pool(),
        be_rotation_period: SimDuration::from_secs(20.0),
        batch_arrivals: true,
    };

    // 2. The paper's cluster: 8 workers, one A100 each, 3x SLOs.
    let config = ClusterConfig::paper_default();

    // 3. Run PROTEAN over arrivals generated from the trace, on the
    //    config's spot market (no oracle) and with no observer, and
    //    inspect the result.
    let scheme = ProteanBuilder::paper();
    let arrivals = Arrivals::Generate(&trace);
    let result = simulate(&config, &scheme, arrivals, None, Observe::default());
    let slo = |m: ModelId| m.profile().slo();
    println!("scheme:            {}", result.scheme);
    println!(
        "requests served:   {} ({} strict)",
        result.metrics.count(Class::All),
        result.metrics.count(Class::Strict)
    );
    println!(
        "SLO compliance:    {:.2}%",
        result.metrics.slo_compliance(&slo) * 100.0
    );
    println!(
        "strict P99:        {:.1} ms",
        result
            .metrics
            .latency_percentile_ms(Class::Strict, 0.99)
            .unwrap_or(0.0)
    );
    println!(
        "best-effort P99:   {:.1} ms",
        result
            .metrics
            .latency_percentile_ms(Class::BestEffort, 0.99)
            .unwrap_or(0.0)
    );
    println!(
        "GPU utilization:   {:.1}%",
        result.compute_utilization * 100.0
    );
    println!("reconfigurations:  {}", result.reconfigs);
    println!("dollar cost:       ${:.2}", result.cost.total_usd);
}
