//! The metrics the driver reports, as `BENCHMARK.json` declares them.
//! `--trace 0` prints every [`END_TO_END`] metric; `--trace 1` prints
//! every [`PER_LAYER`] metric.

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Host-side numbers a user of the simulator sees, with host time scaled
/// to the reference host speed (see `speed.rs`). The simulated
/// outcomes (`sim.*`) are per-layer instead: a histogram p99 moves in
/// 1.8% buckets and reads the same on most seeds, and on-demand cost
/// does not depend on the seed at all, so as end-to-end metrics they
/// would be constants, not measurements. The seed-42 fingerprint pins
/// them exactly.
pub const END_TO_END: &[Metric] = &[
    e2e("req_per_s", "req/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
];

pub const PER_LAYER: &[Metric] = &[
    layer("scheme.place_calls_per_req", "calls/req", "lower"),
    layer("scheme.place_hit_ratio", "ratio", "higher"),
    layer("scheme.place_ns_per_call", "ns", "lower"),
    layer("scheme.place_share", "fraction", "lower"),
    layer("scheme.reconfigure_calls_per_req", "calls/req", "lower"),
    layer("scheme.reconfigure_ns_per_call", "ns", "lower"),
    layer("scheme.reconfigure_share", "fraction", "lower"),
    layer("scheme.reconfigure_request_ratio", "ratio", "higher"),
    layer("spot.oracle_calls_per_req", "calls/req", "lower"),
    layer("spot.grant_ratio", "ratio", "higher"),
    layer("spot.oracle_share", "fraction", "lower"),
    layer("spot.evictions", "count", "lower"),
    layer("engine.empty_run_s", "s", "lower"),
    layer("engine.events_per_req", "events/req", "lower"),
    layer("engine.peak_heap_len", "events", "lower"),
    layer("engine.stale_finish_ratio", "ratio", "lower"),
    layer("engine.queue_push_pop_ns", "ns", "lower"),
    layer("dispatch.batches_per_req", "batches/req", "lower"),
    layer("dispatch.visits_per_batch", "visits/batch", "lower"),
    layer("dispatch.index_updates_per_batch", "updates/batch", "lower"),
    layer(
        "dispatch.backlog_requeued_per_batch",
        "requeues/batch",
        "lower",
    ),
    layer("dispatch.refresh_ns", "ns", "lower"),
    layer("dispatch.query_ns", "ns", "lower"),
    layer("sharded.epochs_per_dispatch_event", "epochs/event", "lower"),
    layer("sharded.coalesced_share", "fraction", "higher"),
    layer("sharded.cut_serial_share", "fraction", "lower"),
    layer("sharded.cut_conflict_share", "fraction", "lower"),
    layer("sharded.cut_cap_share", "fraction", "lower"),
    layer("host.cpu_per_wall", "cpu-s/s", "lower"),
    layer("container.cold_starts_per_kreq", "starts/kreq", "lower"),
    layer("gpu.reconfigs_per_sim_min", "1/sim-min", "lower"),
    layer("gpu.finish_events_per_batch", "events/batch", "lower"),
    layer("metrics.records", "count", "lower"),
    layer("metrics.push_ns", "ns", "lower"),
    layer("trace.generate_s", "s", "lower"),
    layer("trace.draw_ns_per_req", "ns", "lower"),
    layer("sim.strict_p99_ms", "sim-ms", "lower"),
    layer("sim.be_p99_ms", "sim-ms", "lower"),
    layer("sim.cost_usd", "USD", "lower"),
    layer("sim.censored_pct", "%", "lower"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    layer("bench.unattributed_share", "fraction", "lower"),
    layer("bench.host_slowdown", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    type Row = (String, String, String, Option<f64>);

    fn row(m: &Metric) -> Row {
        (m.name.into(), m.unit.into(), m.better.into(), m.bound)
    }

    fn declared(list: &Value) -> Vec<Row> {
        let Value::Arr(items) = list else {
            panic!("metric list is not an array")
        };
        items
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let rows = |list: &[Metric]| list.iter().map(row).collect::<Vec<_>>();
        assert_eq!(declared(doc.get("end_to_end").unwrap()), rows(END_TO_END));
        assert_eq!(declared(doc.get("per_layer").unwrap()), rows(PER_LAYER));
        let Value::Arr(workloads) = doc.get("workloads").unwrap() else {
            panic!("workloads is not an array")
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let expected: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, expected);
        for (w, spec) in workloads.iter().zip(&crate::workload::WORKLOADS) {
            assert_eq!(w.get("why").and_then(Value::as_str), Some(spec.why));
        }
    }

    #[test]
    fn metric_names_units_and_counts_are_within_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "bad metric name {:?}",
                m.name
            );
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {:?}",
                m.unit
            );
            assert!(m.better == "higher" || m.better == "lower");
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names repeat");
    }
}
