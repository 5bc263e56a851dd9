//! The four named workloads, how each one runs through the engine's
//! public entry points, and the fingerprints that pin their results.

use std::time::Instant;

use protean::ProteanBuilder;
use protean_cluster::{
    run_stream_with_oracle, run_trace_with_oracle, ClusterConfig, SchemeBuilder, SimulationResult,
    SpotOracle,
};
use protean_experiments::setup::LANGUAGE_RPS;
use protean_experiments::{golden, PaperSetup};
use protean_metrics::record::Class;
use protean_models::ModelId;
use protean_sim::{RngFactory, SimDuration};
use protean_spot::{ProcurementPolicy, SpotAvailability, SpotMarket};
use protean_trace::{TraceConfig, TraceShape};

/// Arrival-rate profile, scaled to the fleet at the paper's per-worker
/// language-model operating point (`LANGUAGE_RPS` per 8 workers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Wiki diurnal profile on a real 24 h period: near-constant load.
    DiurnalDay,
    /// Wiki diurnal profile on the paper's compressed 300 s "day".
    Wiki,
    /// Square wave: 8x the operating point for the first half of each
    /// `period_secs`, silent for the second half.
    Pulse { period_secs: f64 },
}

/// Everything that defines a workload besides its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workers: usize,
    /// Fleet shards; 1 runs the sequential engine, more run the sharded
    /// engine with every shard inline on the coordinator thread.
    pub shards: usize,
    /// Hybrid procurement at low spot availability (the paper's
    /// deployment) instead of on-demand VMs.
    pub spot: bool,
    /// Arrivals drawn lazily from `TraceConfig::stream` with histogram
    /// metrics (`aggregate_metrics`); otherwise the trace is
    /// materialised first and every request keeps a full record.
    pub streamed: bool,
    pub shape: Shape,
    pub sim_secs: f64,
    pub warmup_secs: f64,
}

/// Simulated duration of the set-up probe run.
pub const EMPTY_RUN_SECS: f64 = 0.01;

/// Simulated durations shrink by this factor under `--smoke`.
pub const SMOKE_FACTOR: f64 = 0.05;

impl Spec {
    fn mean_rps(&self) -> f64 {
        LANGUAGE_RPS * self.workers as f64 / 8.0
    }

    /// Seeds `ClusterConfig::seed`, which also seeds the trace.
    pub fn cluster(&self, seed: u64) -> ClusterConfig {
        let mut c = PaperSetup {
            duration_secs: self.sim_secs,
            seed,
        }
        .cluster();
        c.workers = self.workers;
        c.shards = self.shards;
        // One thread even when sharded: on a 2-vCPU host shared with
        // other tenants, two spinning shard threads made run times
        // spread three times wider than one thread (see README.md).
        c.shard_threads = 1;
        c.aggregate_metrics = self.streamed;
        c.warmup = SimDuration::from_secs(self.warmup_secs);
        if self.spot {
            c.procurement = ProcurementPolicy::Hybrid;
            c.availability = SpotAvailability::Low;
        }
        c
    }

    pub fn trace(&self, seed: u64) -> TraceConfig {
        let mut t = PaperSetup {
            duration_secs: self.sim_secs,
            seed,
        }
        .wiki_trace(ModelId::Albert);
        let mean = self.mean_rps();
        t.shape = match self.shape {
            Shape::DiurnalDay => TraceShape::WikiDiurnal {
                mean_rps: mean,
                peak_to_mean: 316.0 / 303.0,
                period: SimDuration::from_secs(86_400.0),
            },
            Shape::Wiki => TraceShape::wiki(mean),
            Shape::Pulse { period_secs } => {
                TraceShape::pulse(8.0 * mean, SimDuration::from_secs(period_secs))
            }
        };
        // One best-effort model (the pool's first, BERT) instead of the
        // paper's 20 s rotation: the rotation draws each slot's model
        // from the seed, and which models a run draws changes the work
        // per request (batch sizes, cold starts) by more than a
        // regression bound could absorb (see README.md).
        t.be_pool.truncate(1);
        t
    }

    /// Every simulated duration of the workload scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Spec {
        let shape = match self.shape {
            Shape::Pulse { period_secs } => Shape::Pulse {
                period_secs: period_secs * factor,
            },
            other => other,
        };
        Spec {
            shape,
            sim_secs: self.sim_secs * factor,
            warmup_secs: self.warmup_secs * factor,
            ..self.clone()
        }
    }

    /// The same configuration over the first [`EMPTY_RUN_SECS`] of the
    /// trace: fleet construction, the first arrivals, the drain and the
    /// teardown, with almost no steady-state work.
    pub fn empty_run(&self) -> Spec {
        Spec {
            sim_secs: EMPTY_RUN_SECS,
            ..self.clone()
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub spec: Spec,
    /// Fingerprint at seed 42, full size (see [`fingerprint`]).
    pub pin: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "soak-256",
        why: "per-request pipeline floor on a fleet that fits in cache; tick, dispatch depth and set-up are negligible",
        spec: Spec {
            workers: 256,
            shards: 1,
            spot: false,
            streamed: true,
            shape: Shape::DiurnalDay,
            sim_secs: 1200.0,
            warmup_secs: 15.0,
        },
        pin: "PROTEAN n=4863048 sp50=0000000000000000 sp99=0000000000000000 be99=0000000000000000 cost=4075f07ecfe9b7ba util=3fd58da74dff90d8 cold=8 rc=6670 cens=0 ev=0 hs50=4069e6a6e295700a hs99=4078bf6e9663da64 hb50=4071e703b7370bd4 hb99=407a1ebaaa09d64f",
    },
    Workload {
        name: "wiki-spot-2048",
        why: "the paper's hybrid spot deployment: eviction lifecycle, full per-request records, trace materialised in set-up",
        spec: Spec {
            workers: 2048,
            shards: 1,
            spot: true,
            streamed: false,
            shape: Shape::Wiki,
            sim_secs: 90.0,
            warmup_secs: 15.0,
        },
        pin: "PROTEAN n=2541056 sp50=406a4d0e56041893 sp99=407b6eb439581062 be99=407a582d0e560419 cost=40661d7b8089c13d util=3fd55458ad11d3af cold=0 rc=3588 cens=0 ev=442 hs50=406a4d0e56041893 hs99=407b6eb439581062 hb50=4071e41cac083127 hb99=407a582d0e560419",
    },
    Workload {
        name: "pulse-2048",
        why: "8x overload builds deep queues, so Scheme::place runs 5 times per request and mostly declines; sharded engine, two shards",
        spec: Spec {
            workers: 2048,
            shards: 2,
            spot: false,
            streamed: false,
            shape: Shape::Pulse { period_secs: 10.0 },
            sim_secs: 10.0,
            warmup_secs: 2.5,
        },
        pin: "PROTEAN n=654156 sp50=40c31fb978d4fdf4 sp99=40c6ed6c6a7ef9db be99=40c394478d4fdf3b cost=40417a8d64d7f03a util=3fed806de574d3e9 cold=309734 rc=1180 cens=115708 ev=0 hs50=40c31fb978d4fdf4 hs99=40c6ed6c6a7ef9db hb50=40add3fe76c8b439 hb99=40c394478d4fdf3b",
    },
    Workload {
        name: "planetary-50k",
        why: "fleet state far beyond cache, monitor ticks walk every worker, fleet set-up is a third of the run",
        spec: Spec {
            workers: 50_000,
            shards: 8,
            spot: false,
            streamed: true,
            shape: Shape::DiurnalDay,
            sim_secs: 2.5,
            warmup_secs: 1.0,
        },
        pin: "PROTEAN n=1199084 sp50=0000000000000000 sp99=0000000000000000 be99=0000000000000000 cost=407aaba00000135a util=3fc2d33ee786d3a9 cold=0 rc=0 cens=0 ev=0 hs50=4069e6a6e295700a hs99=40750c72cdcf5734 hb50=40728ee75ca07af6 hb99=407a981ad46e6acc",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The workload's spot market, built exactly as `run_simulation_on`
/// builds it, so wrapped and bare runs draw the same revocations.
pub fn market(config: &ClusterConfig) -> SpotMarket {
    SpotMarket::new(
        config.availability,
        RngFactory::new(config.seed).stream("spot.market"),
    )
}

/// One simulation and its host-side timings (trace materialisation
/// excluded).
pub struct Run {
    pub result: SimulationResult,
    /// Wall time of the `run_*` call alone.
    pub wall_s: f64,
    /// CPU seconds (all threads) over the `run_*` call, if `/proc` is
    /// readable.
    pub cpu_s: Result<f64, String>,
}

/// Runs `spec` once through the public entry point it names.
pub fn run(spec: &Spec, seed: u64, scheme: &dyn SchemeBuilder, oracle: &mut dyn SpotOracle) -> Run {
    let config = spec.cluster(seed);
    let trace = spec.trace(seed);
    let materialised = (!spec.streamed).then(|| trace.generate(&RngFactory::new(seed)));
    let cpu0 = crate::procfs::cpu_seconds();
    let t0 = Instant::now();
    let result = match materialised {
        Some(t) => run_trace_with_oracle(&config, scheme, t, oracle),
        None => run_stream_with_oracle(&config, scheme, &trace, oracle),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = crate::procfs::cpu_seconds().and_then(|c1| Ok(c1 - cpu0?));
    Run {
        result,
        wall_s,
        cpu_s,
    }
}

/// Runs `spec` once with the paper's PROTEAN scheme and a bare market.
pub fn run_untraced(spec: &Spec, seed: u64) -> Run {
    let mut market = market(&spec.cluster(seed));
    run(spec, seed, &ProteanBuilder::paper(), &mut market)
}

/// `golden::digest` plus the bits of the p50 and p99 latency of both
/// classes. Histogram (aggregate) runs leave the digest's latency
/// fields at 0, so the extra fields are what pin their latencies.
pub fn fingerprint(r: &SimulationResult) -> String {
    let bits = |class, q| {
        r.metrics
            .latency_percentile_ms(class, q)
            .unwrap_or(0.0)
            .to_bits()
    };
    format!(
        "{} hs50={:016x} hs99={:016x} hb50={:016x} hb99={:016x}",
        golden::digest(r),
        bits(Class::Strict, 0.5),
        bits(Class::Strict, 0.99),
        bits(Class::BestEffort, 0.5),
        bits(Class::BestEffort, 0.99),
    )
}
