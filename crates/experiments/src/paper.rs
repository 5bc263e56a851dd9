//! The paper's evaluation as data: [`EXPERIMENTS`] holds one row per
//! table or figure of §5–§7, plus the load sweep, the ablations and the
//! §6.2 future-work run, in the order `protean-cli reproduce` runs them.
//!
//! Every run is [`scenario::paper`] with keys set, as `protean-cli` sets
//! its flags. Most rows are grids: that spec under the row's keys at
//! each point of its axes of schemes, models, strictness ratios, loads
//! or SLO multipliers, printed as a table (a line per point of one axis,
//! its runs at the points of another) with an optional chart. What is
//! not a grid keeps a function: Figs. 3/4, Tables 2/3, the Fig. 7
//! timeline, the Fig. 8 CDF, Fig. 9's cost normalisation and the §7
//! statistics. Every simulation runs through [`run_grid`], so a row
//! prints the same text at any thread count.

use std::io::{self, Write};
use std::iter::once;

use protean::{ProteanBuilder, ProteanConfig};
use protean_baselines::Baseline;
use protean_cluster::SchemeBuilder;
use protean_gpu::{Geometry, SliceProfile};
use protean_metrics::record::Class;
use protean_metrics::{cohens_d, mean_ci95, welch_t_test};
use protean_models::ModelId::{self, *};
use protean_models::{
    estimate_fbr_from_pairs, in_class, vhi_non_generative, vision, CoLocationMeasurement,
    InterferenceClass, PROFILES,
};
use protean_sim::series::BucketAgg;
use protean_sim::SimDuration;
use protean_spot::{ProcurementPolicy, Provider, SpotAvailability, VmTier};

use crate::chart::{bar_chart, line_plot, stacked_breakdown_chart};
use crate::harness::{run_grid, GridCell};
use crate::report::{banner, csv_series, table};
use crate::runner::SchemeRow;
use crate::scenario::{self, ScenarioSpec};
use crate::schemes::{self, Build, MOTIVATIONAL, PRIMARY};

/// The per-run duration cap of the rows that run many cells (the load
/// sweep and the §7 seeds).
const CAPPED_SECS: f64 = 60.0;

/// The number of §7 seeds, counted from 1000.
const SEEDS: u64 = 10;

/// Scenario keys and their values, set in order.
type Keys = &'static [(&'static str, &'static str)];

/// One table or figure: the paper's setup run at each point of its axes,
/// printed under its banner.
pub struct Experiment {
    /// The id `protean-cli reproduce --only` takes, e.g.
    /// `fig05_slo_vision`.
    pub id: &'static str,
    banner: Banner,
    /// A banner and table per point, labelled with it.
    blocks: Axis,
    /// A line per point of these axes' product.
    lines: &'static [Axis],
    /// A line's runs, one per point.
    runs: Axis,
    /// Keys set on each run, after its points'.
    keys: Keys,
    columns: &'static [Column],
    chart: Chart,
    /// Whether each run is capped at [`CAPPED_SECS`].
    capped: bool,
    /// A table printed next, under its own banner.
    then: Option<&'static Experiment>,
    own: Option<Own>,
}

/// A row that is not a grid: prints itself from its banner, the spec
/// and the thread count of its simulations.
type Own = fn(Banner, &ScenarioSpec, usize, &mut dyn Write) -> io::Result<()>;

/// `=== <figure>: <caption> ===`, a label filling the caption's `{}`.
#[derive(Clone, Copy)]
struct Banner(&'static str, &'static str);

impl Banner {
    fn print(self, out: &mut dyn Write, label: &str) -> io::Result<()> {
        banner(out, self.0, &self.1.replace("{}", label))
    }
}

enum Column {
    /// The label of the line's first point.
    Point(&'static str),
    /// The text of the line's runs.
    Runs(&'static str, fn(&[SchemeRow]) -> String),
    /// A column per run, headed by its point's label (and this header,
    /// if any).
    EachRun(&'static str, fn(&SchemeRow) -> String),
}

/// What follows a table.
enum Chart {
    None,
    /// Per run point, its mean SLO compliance over the lines.
    MeanBar(&'static str),
    /// Per run point, its SLO compliance against the line loads.
    Load,
    /// The strict-tail composition of each line's run (Figs. 2/6/11).
    Stacked,
    Note(&'static str),
}

/// A value of an axis, and what it changes in a run.
#[derive(Clone, Copy)]
enum Point {
    Base,
    /// A scheme, and the keys it sets.
    Scheme(Build, Keys),
    /// PROTEAN with one design choice changed, named for the ablations,
    /// and the keys it sets.
    Variant(&'static str, fn(&mut ProteanConfig), Keys),
    /// A strict model at its domain's rate.
    Model(ModelId),
    /// A caption, and the keys it sets.
    Set(&'static str, Keys),
    /// The wiki trace's mean rate.
    Load(f64),
}

impl Point {
    fn scheme(self) -> Option<Box<dyn SchemeBuilder>> {
        match self {
            Point::Scheme(build, _) => Some(build()),
            Point::Variant(name, change, _) => {
                let mut config = ProteanConfig::paper();
                config.name = name;
                change(&mut config);
                Some(Box::new(ProteanBuilder::with_config(config, 2.0)))
            }
            _ => None,
        }
    }

    fn label(self) -> String {
        match self {
            Point::Base => String::new(),
            Point::Scheme(build, _) => build().name().to_string(),
            Point::Variant(name, ..) => name.to_string(),
            Point::Model(m) => m.to_string(),
            Point::Set(caption, _) => caption.to_string(),
            Point::Load(rps) => format!("{rps:.0}"),
        }
    }

    fn apply(self, spec: ScenarioSpec) -> ScenarioSpec {
        match self {
            Point::Scheme(_, keys) | Point::Variant(.., keys) | Point::Set(_, keys) => {
                spec.with(keys)
            }
            Point::Model(m) => spec.at_paper_rate(m),
            Point::Load(rps) => spec.with(&[("trace.rps", &rps.to_string())]),
            Point::Base => spec,
        }
    }
}

#[derive(Clone, Copy)]
enum Axis {
    Of(&'static [Point]),
    Schemes(&'static [Build]),
    Models(&'static [ModelId]),
    Loads(&'static [f64]),
    /// The 12 vision models (Fig. 5).
    Vision,
    /// The VHI language models that are not generative (Fig. 12).
    Vhi,
}

const ONE: Axis = Axis::Of(&[Point::Base]);
/// The primary schemes.
const LINEUP: Axis = Axis::Schemes(&PRIMARY);
/// The vision subset of Figs. 6, 15 and 17.
const SUBSET: Axis = Axis::Models(&[ResNet50, ShuffleNetV2, Vgg19]);

impl Axis {
    fn points(self) -> Vec<Point> {
        match self {
            Axis::Of(points) => points.to_vec(),
            Axis::Schemes(builds) => builds.iter().map(|&b| Point::Scheme(b, &[])).collect(),
            Axis::Models(models) => models.iter().map(|&m| Point::Model(m)).collect(),
            Axis::Loads(loads) => loads.iter().map(|&rps| Point::Load(rps)).collect(),
            Axis::Vision => vision().map(|p| Point::Model(p.id)).collect(),
            Axis::Vhi => vhi_non_generative().map(|p| Point::Model(p.id)).collect(),
        }
    }
}

/// A printed line: its first point and its runs.
type Line<'a> = (Point, &'a [SchemeRow]);

fn fixed(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

const SCHEME: Column = Column::Runs("scheme", |runs| runs[0].scheme.clone());
const VARIANT: Column = Column::Runs("variant", |runs| runs[0].scheme.clone());
const SLO: Column = Column::Runs("SLO%", |runs| fixed(runs[0].slo_compliance_pct, 2));
const P99: Column = Column::Runs("P99 ms", |runs| fixed(runs[0].strict_p99_ms, 1));
const BE_P99: Column = Column::Runs("BE P99 ms", |runs| fixed(runs[0].be_p99_ms, 1));
/// Each scheme's SLO compliance per model.
const PIVOT: &[Column] = &[
    Column::Point("model"),
    Column::EachRun("", |r| fixed(r.slo_compliance_pct, 2)),
];

/// The strict P99 tail's composition, ms (Figs. 2/6/11).
const BREAKDOWN: &[Column] = &[
    SCHEME,
    Column::Runs("queueing", |r| fixed(r[0].tail_breakdown.queueing_ms, 1)),
    Column::Runs("cold", |r| fixed(r[0].tail_breakdown.cold_start_ms, 1)),
    Column::Runs("interf.", |r| fixed(r[0].tail_breakdown.interference_ms, 1)),
    Column::Runs("defic.", |r| fixed(r[0].tail_breakdown.deficiency_ms, 1)),
    Column::Runs("min exec", |r| fixed(r[0].tail_breakdown.min_exec_ms, 1)),
    Column::Runs("P99 total", |r| fixed(r[0].tail_breakdown.total_ms(), 1)),
    SLO,
];

/// §5's setup on the wiki trace of ResNet 50 (the model wherever no
/// point names one): a line per primary scheme.
const PAPER: Experiment = Experiment {
    id: "",
    banner: Banner("", ""),
    blocks: ONE,
    lines: &[LINEUP],
    runs: ONE,
    keys: &[],
    columns: &[SCHEME, SLO],
    chart: Chart::None,
    capped: false,
    then: None,
    own: None,
};

/// The HI vision models.
const HI_VISION: &str = r#"["resnet50", "densenet121", "dpn92", "vgg19"]"#;

/// 100% best-effort requests of the HI vision models (Table 5, §6.2).
const ALL_BEST_EFFORT: Keys = &[("trace.strict_fraction", "0"), ("trace.be_pool", HI_VISION)];

fn protean() -> Box<dyn SchemeBuilder> {
    Box::new(ProteanBuilder::paper())
}

/// PROTEAN with one mechanism disabled at a time; the first two are the
/// reordering ablation.
const ABLATIONS: [Point; 7] = [
    Point::Scheme(protean, &[]),
    Point::Variant("no request reordering", |c| c.reorder = false, &[]),
    Point::Variant(
        "no eta placement (largest slice)",
        |c| c.eta_placement = false,
        &[],
    ),
    Point::Variant("no dynamic reconfig", |c| c.dynamic_reconfig = false, &[]),
    Point::Variant("no wait counter", |c| c.reconfigurator.wait_limit = 0, &[]),
    Point::Variant(
        "last-value predictor (no EWMA)",
        |c| c.reconfigurator.ewma_alpha = 1.0,
        &[],
    ),
    // The §4.2 keep-alive is a fleet key, not a PROTEAN knob: no
    // pre-warmed containers, idle ones reclaimed at once.
    Point::Variant(
        "no keep-alive (immediate scale-down)",
        |_| {},
        &[("fleet.prewarm", "0"), ("fleet.keep_alive_secs", "2")],
    ),
];

const SCHEMATIC: &str = r#"
             user requests
                  |
                  v
   +-------------------------------+
   | (1) Gateway                   |  protean_cluster::engine (request ingest,
   |     batching + (3) reordering |  gateway accumulators, strict-first queue:
   |                               |  protean_cluster::worker::SchedQueue)
   +-------------------------------+
                  |
                  v
   +-------------------------------+
   | (2) Dispatcher                |  protean_cluster::scheme::DispatchPolicy
   |     load balancing            |  (least-loaded; consolidation for the
   |                               |  INFless/Llama + GPUlet baselines)
   +-------------------------------+
        |        |        |
        v        v        v
   worker 0  worker 1 .. worker 7      protean_cluster::worker::Worker
   +-------------------------------+
   | (4) Autoscaler                |  protean_cluster::container::Pool
   |     reactive scale-up,        |  (one container per batch, delayed
   |     delayed termination       |  termination keep-alive, optional
   |                               |  predictive pre-provisioning)
   | (5) Job Distribution          |  protean::distribution (Algorithm 1:
   |     (6) tag_values            |  tag_slices / choose_strict_slice by
   |     (7) choose_strict_slice   |  Eq. 2 eta / choose_best_effort_slice
   |     (8) choose_BE_slice       |  first-fit packing)
   | (6) GPU Reconfigurator        |  protean::reconfigurator (Algorithm 2:
   |     EWMA + T_low/T_high +     |  protean::ewma, wait counter, <=30%%
   |     wait counter              |  concurrent reconfigs in the engine)
   |                               |
   |   GPU (MIG slices + MPS)      |  protean_gpu::{Gpu, Slice, Geometry,
   |                               |  placement} (Eq. 1 interference)
   +-------------------------------+
                  ^
                  |
   +-------------------------------+
   | (7) Cost-aware Procurement    |  protean_spot::{SpotMarket,
   |     spot VMs w/ on-demand     |  ProcurementPolicy, VmLedger} +
   |     fallback                  |  the engine's eviction lifecycle
   +-------------------------------+
"#;

/// Every table and figure, in the order `reproduce` runs them.
pub const EXPERIMENTS: [Experiment; 24] = [
    Experiment {
        id: "fig02_motivation",
        banner: Banner("Fig. 2", "{} on one GPU (strict SLO = 3x 7g latency)"),
        // Each model at a constant rate, against itself as best effort.
        blocks: Axis::Of(&[
            Point::Set(
                "Simplified DLA at 500 rps",
                &[
                    ("trace.model", "simplifieddla"),
                    ("trace.rps", "500"),
                    ("trace.be_pool", r#"["simplifieddla"]"#),
                ],
            ),
            Point::Set(
                "ALBERT at 6 rps",
                &[
                    ("trace.model", "albert"),
                    ("trace.rps", "6"),
                    ("trace.be_pool", r#"["albert"]"#),
                ],
            ),
        ]),
        lines: &[Axis::Schemes(&MOTIVATIONAL)],
        // One A100, as in §2.2.
        keys: &[("fleet.workers", "1"), ("trace.kind", "constant")],
        columns: BREAKDOWN,
        chart: Chart::Stacked,
        ..PAPER
    },
    Experiment {
        id: "fig03_fbr_catalog",
        banner: Banner("Fig. 3", "normalized FBRs of the 22 inference workloads"),
        own: Some(fbr_catalog),
        ..PAPER
    },
    Experiment {
        id: "fig04_architecture",
        banner: Banner("Fig. 4", "PROTEAN design (component -> implementation)"),
        own: Some(architecture),
        ..PAPER
    },
    Experiment {
        id: "table2_mig_profiles",
        banner: Banner("Table 2", "MIG instance profiles on an A100-40GB"),
        own: Some(mig_profiles),
        ..PAPER
    },
    Experiment {
        id: "table3_spot_pricing",
        banner: Banner(
            "Table 3",
            "8xA100 hourly pricing (USD), averaged US-east/west",
        ),
        own: Some(spot_pricing),
        ..PAPER
    },
    Experiment {
        id: "fig05_slo_vision",
        banner: Banner("Fig. 5", "SLO compliance (%) per vision model and scheme"),
        lines: &[Axis::Vision],
        runs: LINEUP,
        columns: PIVOT,
        chart: Chart::MeanBar("mean SLO compliance over the 12 vision models (%)"),
        ..PAPER
    },
    Experiment {
        id: "fig06_latency_breakdown",
        banner: Banner("Fig. 6", "P99 tail breakdown (ms), {}"),
        blocks: SUBSET,
        columns: BREAKDOWN,
        chart: Chart::Stacked,
        ..PAPER
    },
    Experiment {
        id: "fig07_reconfig_timeline",
        banner: Banner(
            "Fig. 7",
            "PROTEAN geometry timeline under BE-model rotation",
        ),
        own: Some(reconfig_timeline),
        ..PAPER
    },
    Experiment {
        id: "fig08_latency_cdf",
        banner: Banner("Fig. 8", "latency CDF, {}"),
        own: Some(latency_cdf),
        ..PAPER
    },
    Experiment {
        id: "fig09_cost_slo",
        banner: Banner(
            "Fig. 9",
            "normalized cost vs SLO compliance under spot availability regimes (ResNet 50)",
        ),
        own: Some(cost_slo),
        ..PAPER
    },
    Experiment {
        id: "fig10_throughput_util",
        banner: Banner("Fig. 10a", "throughput ({})"),
        blocks: Axis::Models(&[DenseNet121]),
        columns: &[
            SCHEME,
            Column::Runs("served strict/GPU/s", |r| fixed(r[0].strict_throughput, 1)),
            Column::Runs("served total/GPU/s", |r| fixed(r[0].total_throughput, 1)),
            // Every scheme serves the same arrivals; they differ in batch
            // size over mean strict latency.
            Column::Runs("service rate (req/s per batch slot)", |r| {
                let batch = f64::from(DenseNet121.profile().batch_size);
                let lats = r[0].result.metrics.latencies_ms(Class::Strict);
                let mean_ms = lats.iter().sum::<f64>() / lats.len().max(1) as f64;
                fixed(batch / (mean_ms / 1000.0), 0)
            }),
        ],
        // Consolidating schemes load their busiest GPU while the cluster
        // mean stays low.
        then: Some(&Experiment {
            banner: Banner("Fig. 10b", "GPU utilization ({}), percent"),
            blocks: Axis::Models(&[EfficientNetB0]),
            columns: &[
                SCHEME,
                Column::Runs("GPU util % (mean)", |r| fixed(r[0].gpu_util_pct, 1)),
                Column::Runs("GPU util % (busiest)", |r| {
                    busiest(&r[0].result.per_gpu_compute_utilization)
                }),
                Column::Runs("mem util % (mean)", |r| fixed(r[0].mem_util_pct, 1)),
                Column::Runs("mem util % (busiest)", |r| {
                    busiest(&r[0].result.per_gpu_memory_utilization)
                }),
            ],
            ..PAPER
        }),
        ..PAPER
    },
    Experiment {
        id: "fig11_twitter",
        banner: Banner("Fig. 11", "Twitter trace, {}: P99 breakdown and SLO%"),
        blocks: Axis::Models(&[MobileNet]),
        keys: &[("trace.kind", "twitter")],
        columns: BREAKDOWN,
        chart: Chart::Stacked,
        ..PAPER
    },
    Experiment {
        id: "fig12_vhi_llm",
        banner: Banner("Fig. 12", "SLO compliance (%) per VHI language model"),
        lines: &[Axis::Vhi],
        runs: LINEUP,
        columns: PIVOT,
        ..PAPER
    },
    Experiment {
        id: "fig13_gpt",
        banner: Banner("Fig. 13", "SLO compliance (%) for GPT-1 and GPT-2"),
        lines: &[Axis::Models(&[Gpt1, Gpt2])],
        runs: LINEUP,
        columns: PIVOT,
        ..PAPER
    },
    Experiment {
        id: "fig14_skewed_ratios",
        banner: Banner("Fig. 14", "{}"),
        blocks: Axis::Of(&[
            Point::Set(
                "(a) strict-skewed 75/25",
                &[("trace.strict_fraction", "0.75")],
            ),
            Point::Set("(b) BE-skewed 25/75", &[("trace.strict_fraction", "0.25")]),
        ]),
        lines: &[Axis::Models(&[ShuffleNetV2, Dpn92])],
        runs: LINEUP,
        columns: PIVOT,
        ..PAPER
    },
    Experiment {
        id: "table4_all_strict",
        banner: Banner("Table 4", "SLO compliance (%), 100% strict ResNet 50"),
        // The best-effort rotation is never drawn.
        keys: &[("trace.strict_fraction", "1")],
        ..PAPER
    },
    Experiment {
        id: "table5_all_be",
        banner: Banner(
            "Table 5",
            "(P50, P99) latency in ms, 100% best-effort HI models",
        ),
        keys: ALL_BEST_EFFORT,
        columns: &[
            SCHEME,
            Column::Runs("P50 ms", |r| fixed(r[0].be_p50_ms, 0)),
            Column::Runs("P99 ms", |r| fixed(r[0].be_p99_ms, 0)),
        ],
        ..PAPER
    },
    Experiment {
        id: "fig15_tight_slo",
        banner: Banner(
            "Fig. 15",
            "SLO compliance (%) at 2x (tight) vs 3x (default) SLO",
        ),
        lines: &[SUBSET, LINEUP],
        runs: Axis::Of(&[
            Point::Set("", &[("fleet.slo_mult", "2")]),
            Point::Set("", &[("fleet.slo_mult", "3")]),
        ]),
        columns: &[
            Column::Point("model"),
            SCHEME,
            Column::Runs("SLO% @2x", |r| fixed(r[0].slo_compliance_pct, 2)),
            Column::Runs("SLO% @3x", |r| fixed(r[1].slo_compliance_pct, 2)),
            Column::Runs("degradation", |r| {
                fixed(r[1].slo_compliance_pct - r[0].slo_compliance_pct, 2)
            }),
        ],
        ..PAPER
    },
    Experiment {
        id: "fig16_gpulet",
        banner: Banner("Fig. 16", "PROTEAN vs GPUlet, SLO % ({})"),
        // At 3x both schemes serve this load comfortably; the cache and
        // bandwidth GPUlet cannot partition show at the tight 2x SLO.
        blocks: Axis::Of(&[
            Point::Set("default 3x SLO", &[("fleet.slo_mult", "3")]),
            Point::Set("tight 2x SLO", &[("fleet.slo_mult", "2")]),
        ]),
        lines: &[Axis::Models(&[
            ResNet50,
            Vgg19,
            DenseNet121,
            Dpn92,
            ShuffleNetV2,
        ])],
        runs: Axis::Schemes(&[|| Box::new(Baseline::Gpulet), protean]),
        columns: PIVOT,
        ..PAPER
    },
    Experiment {
        id: "fig17_oracle",
        banner: Banner("Fig. 17", "PROTEAN vs Oracle: SLO % and strict P99 (ms)"),
        lines: &[SUBSET],
        // The Oracle's offline sweeps pre-provision everything: no
        // reconfiguration downtime, no cold starts.
        runs: Axis::Of(&[
            Point::Scheme(protean, &[]),
            Point::Scheme(
                || Box::new(ProteanBuilder::oracle()),
                &[
                    ("fleet.reconfig_delay_secs", "0"),
                    ("fleet.cold_start_secs", "0"),
                ],
            ),
        ]),
        columns: &[
            Column::Point("model"),
            Column::EachRun("SLO%", |r| fixed(r.slo_compliance_pct, 2)),
            Column::EachRun("P99", |r| fixed(r.strict_p99_ms, 1)),
        ],
        ..PAPER
    },
    Experiment {
        id: "ablations",
        banner: Banner(
            "ablations",
            "PROTEAN with one mechanism disabled at a time (ResNet 50)",
        ),
        lines: &[Axis::Of(&ABLATIONS)],
        // The oversized DPN 92 joins ResNet 50's BE rotation, so every
        // mechanism has work to do.
        keys: &[(
            "trace.be_pool",
            r#"["googlenet", "resnet18", "mobilenet", "mobilenetv2", "senet18", "shufflenetv2", "efficientnetb0", "simplifieddla", "dpn92"]"#,
        )],
        columns: &[
            VARIANT,
            SLO,
            P99,
            BE_P99,
            Column::Runs("reconfigs", |r| r[0].reconfigs.to_string()),
            Column::Runs("cold starts", |r| r[0].result.cold_starts.to_string()),
        ],
        // Reordering binds only when strict and BE batches contend for the
        // same slices (§4.1): an oversized HI model against itself on a
        // smaller cluster.
        then: Some(&Experiment {
            banner: Banner(
                "ablations",
                "request reordering under class contention ({}, same-model BE, 6 workers)",
            ),
            blocks: Axis::Models(&[Dpn92]),
            lines: &[Axis::Of(ABLATIONS.split_at(2).0)],
            keys: &[("fleet.workers", "6"), ("trace.be_pool", r#"["dpn92"]"#)],
            columns: &[VARIANT, SLO, P99, BE_P99],
            ..PAPER
        }),
        ..PAPER
    },
    Experiment {
        id: "sweep_load",
        banner: Banner(
            "load sweep",
            "strict SLO compliance vs offered load (ResNet 50, Wiki)",
        ),
        lines: &[Axis::Loads(&[
            2000.0, 4000.0, 6000.0, 8000.0, 10000.0, 12000.0,
        ])],
        runs: LINEUP,
        columns: &[
            Column::Point("offered rps"),
            Column::EachRun("", |r| fixed(r.slo_compliance_pct, 2)),
        ],
        chart: Chart::Load,
        capped: true,
        ..PAPER
    },
    Experiment {
        id: "future_be_tail",
        banner: Banner(
            "future work",
            "100% best-effort HI models: packing vs tail-aware BE placement",
        ),
        lines: &[Axis::Schemes(&[protean, || {
            Box::new(ProteanBuilder::tail_aware())
        }])],
        keys: ALL_BEST_EFFORT,
        columns: &[
            VARIANT,
            Column::Runs("BE P50 ms", |r| fixed(r[0].be_p50_ms, 0)),
            Column::Runs("BE P99 ms", |r| fixed(r[0].be_p99_ms, 0)),
        ],
        chart: Chart::Note(
            "(The tail-aware variant behaves identically whenever strict traffic is present.)",
        ),
        ..PAPER
    },
    Experiment {
        id: "stats_significance",
        banner: Banner("§7 significance", "{}"),
        own: Some(significance),
        capped: true,
        ..PAPER
    },
];

/// The row `id` names.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|x| x.id == id)
}

impl Experiment {
    /// Runs the row's simulations on `threads` workers and prints its
    /// tables and charts to `out`; the text depends on `spec` alone,
    /// [`scenario::paper`] with its trace length and seed set.
    ///
    /// # Errors
    ///
    /// The first error writing to `out`.
    pub fn run(&self, spec: &ScenarioSpec, threads: usize, out: &mut dyn Write) -> io::Result<()> {
        let mut spec = spec.clone();
        if self.capped {
            spec.trace.duration_secs = spec.trace.duration_secs.min(CAPPED_SECS);
        }
        if let Some(run) = self.own {
            return run(self.banner, &spec, threads, out);
        }
        let (blocks, runs) = (self.blocks.points(), self.runs.points());
        // A line per point of the product of the line axes.
        let mut lines: Vec<Vec<Point>> = vec![vec![]];
        for axis in self.lines {
            let points = axis.points();
            let extend = |line: &Vec<Point>| {
                points
                    .iter()
                    .map(|&p| [&line[..], &[p]].concat())
                    .collect::<Vec<_>>()
            };
            lines = lines.iter().flat_map(extend).collect();
        }
        let (mut schemes, mut specs) = (Vec::new(), Vec::new());
        for &block in &blocks {
            for line in &lines {
                for &at in &runs {
                    let points: Vec<Point> = once(block).chain(line.clone()).chain([at]).collect();
                    let cell = points.iter().fold(spec.clone(), |cell, p| p.apply(cell));
                    let scheme = points.iter().find_map(|&p| p.scheme());
                    schemes.push(scheme.expect("a grid has a scheme axis"));
                    specs.push(cell.with(self.keys));
                }
            }
        }
        let cells = specs.into_iter().zip(schemes.iter().map(AsRef::as_ref));
        let results = run_specs(cells, threads);
        let mut results = results.chunks(runs.len());
        let names: Vec<String> = runs.iter().map(|p| p.label()).collect();
        for block in blocks {
            self.banner.print(out, &block.label())?;
            let lines: Vec<Line<'_>> = (lines.iter())
                .map(|line| {
                    (
                        line.first().copied().unwrap_or(Point::Base),
                        results.next().expect("runs per line"),
                    )
                })
                .collect();
            self.print(out, &lines, &names)?;
        }
        self.then
            .map_or(Ok(()), |next| next.run(&spec, threads, out))
    }

    /// One block's table, a line per point, then its chart.
    fn print(&self, out: &mut dyn Write, lines: &[Line<'_>], names: &[String]) -> io::Result<()> {
        let mut headers = Vec::new();
        for column in self.columns {
            match column {
                Column::Point(header) | Column::Runs(header, _) => headers.push(header.to_string()),
                Column::EachRun("", _) => headers.extend(names.iter().cloned()),
                Column::EachRun(header, _) => {
                    headers.extend(names.iter().map(|n| format!("{n} {header}")))
                }
            }
        }
        let line = |&(point, runs): &Line<'_>| {
            let cells = self.columns.iter().flat_map(|column| match column {
                Column::Point(_) => vec![point.label()],
                Column::Runs(_, text) => vec![text(runs)],
                Column::EachRun(_, text) => runs.iter().map(text).collect(),
            });
            cells.collect()
        };
        let body: Vec<Vec<String>> = lines.iter().map(line).collect();
        table(
            out,
            &headers.iter().map(String::as_str).collect::<Vec<_>>(),
            &body,
        )?;
        // Per run point, its SLO compliance on each line.
        let slo = |i: usize| {
            lines
                .iter()
                .map(move |(_, runs)| runs[i].slo_compliance_pct)
        };
        match self.chart {
            Chart::None => Ok(()),
            Chart::MeanBar(title) => {
                let mean = |i| slo(i).sum::<f64>() / lines.len() as f64;
                let bars: Vec<_> = names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.clone(), mean(i)))
                    .collect();
                writeln!(out)?;
                bar_chart(out, title, &bars, 100.0)
            }
            Chart::Load => {
                let loads = lines.iter().map(|(point, _)| match point {
                    Point::Load(rps) => *rps,
                    _ => unreachable!("a load chart's lines are loads"),
                });
                let curve = |i| loads.clone().zip(slo(i)).collect();
                let curves: Vec<_> = names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| (n.clone(), curve(i)))
                    .collect();
                legend_plot(
                    out,
                    "SLO compliance vs offered load",
                    "rps",
                    "SLO %",
                    14,
                    &curves,
                )
            }
            Chart::Stacked => {
                let tail = |(_, runs): &Line<'_>| (runs[0].scheme.clone(), runs[0].tail_breakdown);
                stacked_breakdown_chart(out, &lines.iter().map(tail).collect::<Vec<_>>())
            }
            Chart::Note(note) => writeln!(out, "\n  {note}"),
        }
    }
}

/// Runs each spec under its scheme on `threads` workers.
fn run_specs<'a>(
    cells: impl IntoIterator<Item = (ScenarioSpec, &'a dyn SchemeBuilder)>,
    threads: usize,
) -> Vec<SchemeRow> {
    let cells: Vec<GridCell<'a>> = (cells.into_iter())
        .map(|(spec, scheme)| {
            // Each cell is a scenario file: debug builds, such as the row
            // test's, check that it reparses to itself.
            debug_assert_eq!(scenario::parse(&spec.to_toml()).as_ref(), Ok(&spec));
            let (config, trace) = spec.generated();
            GridCell::new(config, scheme, trace)
        })
        .collect();
    run_grid(&cells, threads)
}

/// The largest of per-GPU utilisation fractions, as a percent.
fn busiest(per_gpu: &[f64]) -> String {
    fixed(per_gpu.iter().copied().fold(0.0, f64::max) * 100.0, 1)
}

/// A blank line, a legend, then a curve per named series (Fig. 8 and
/// the load sweep).
fn legend_plot(
    out: &mut dyn Write,
    title: &str,
    x: &str,
    y: &str,
    height: usize,
    curves: &[(String, Vec<(f64, f64)>)],
) -> io::Result<()> {
    const GLYPHS: [char; 4] = ['M', 'I', 'N', 'P'];
    writeln!(out)?;
    for (i, (name, _)) in curves.iter().enumerate() {
        writeln!(out, "  [{}] {name}", GLYPHS[i % GLYPHS.len()])?;
    }
    let series: Vec<(char, &[(f64, f64)])> = curves
        .iter()
        .enumerate()
        .map(|(i, (_, points))| (GLYPHS[i % GLYPHS.len()], points.as_slice()))
        .collect();
    line_plot(out, title, x, y, &series, height)
}

/// Fig. 3: the catalog's normalised FBRs, then the §3 profiling
/// procedure: the HI vision FBRs recovered from synthetic pairwise
/// co-location slowdowns (Eq. 1).
fn fbr_catalog(banner: Banner, _: &ScenarioSpec, _: usize, out: &mut dyn Write) -> io::Result<()> {
    let max_fbr = PROFILES.iter().map(|p| p.fbr).fold(0.0, f64::max);
    banner.print(out, "")?;
    let rows: Vec<Vec<String>> = PROFILES
        .iter()
        .map(|p| {
            vec![
                p.id.to_string(),
                format!("{:?}", p.domain),
                format!("{:?}", p.class).to_uppercase(),
                format!("{:.3}", p.fbr / max_fbr),
                format!("{:.2}", p.fbr),
            ]
        })
        .collect();
    table(
        out,
        &["model", "domain", "class", "FBR (norm.)", "FBR"],
        &rows,
    )?;

    let profiling = Banner(
        "Fig. 3 (profiling)",
        "FBRs recovered from co-location measurements",
    );
    profiling.print(out, "")?;
    let hi: Vec<_> = in_class(InterferenceClass::Hi).collect();
    let mut measurements = Vec::new();
    for (i, a) in hi.iter().enumerate() {
        for b in &hi[i + 1..] {
            let slowdown = (a.fbr + b.fbr).max(1.0);
            for (job, partner) in [(a.id, b.id), (b.id, a.id)] {
                let measurement = CoLocationMeasurement {
                    job,
                    partner,
                    slowdown,
                };
                measurements.push(measurement);
            }
        }
    }
    let recovered = estimate_fbr_from_pairs(&measurements, 300);
    let mut rows: Vec<Vec<String>> = hi
        .iter()
        .map(|p| {
            vec![
                p.id.to_string(),
                format!("{:.3}", p.fbr),
                format!("{:.3}", recovered.get(&p.id).copied().unwrap_or(f64::NAN)),
            ]
        })
        .collect();
    rows.sort();
    table(out, &["model", "catalog FBR", "recovered FBR"], &rows)
}

/// Fig. 4: the design schematic, each numbered component mapped to its
/// implementation.
fn architecture(banner: Banner, _: &ScenarioSpec, _: usize, out: &mut dyn Write) -> io::Result<()> {
    banner.print(out, "")?;
    writeln!(out, "{SCHEMATIC}")
}

/// Table 2: the A100's MIG instance profiles, and the geometry count the
/// Oracle's exhaustive sweep enumerates.
fn mig_profiles(banner: Banner, _: &ScenarioSpec, _: usize, out: &mut dyn Write) -> io::Result<()> {
    banner.print(out, "")?;
    let rows: Vec<Vec<String>> = SliceProfile::ALL
        .iter()
        .rev()
        .map(|p| {
            vec![
                p.full_name().to_string(),
                format!("{}/7", p.compute_sevenths()),
                format!("{} GB", p.mem_gb()),
                format!("{}/8", p.memory_slices()),
                p.max_count().to_string(),
            ]
        })
        .collect();
    let headers = ["slice", "compute", "memory", "cache/bandwidth", "max count"];
    table(out, &headers, &rows)?;
    let all = Geometry::enumerate_all();
    writeln!(
        out,
        "\n  {} valid geometries under the Table 2 rules (largest: {}, paper's fallback: {})",
        all.len(),
        Geometry::full(),
        Geometry::g4_g3()
    )
}

/// Table 3: on-demand vs spot hourly pricing of an 8×A100 instance.
fn spot_pricing(banner: Banner, _: &ScenarioSpec, _: usize, out: &mut dyn Write) -> io::Result<()> {
    banner.print(out, "")?;
    let rows: Vec<Vec<String>> = Provider::ALL
        .iter()
        .map(|&p| {
            vec![
                p.to_string(),
                format!("{:.4}", p.price(VmTier::OnDemand)),
                format!("{:.4}", p.price(VmTier::Spot)),
                format!("{:.2}%", p.savings() * 100.0),
            ]
        })
        .collect();
    let headers = ["IaaS provider", "on-demand $/h", "spot $/h", "cost savings"];
    table(out, &headers, &rows)
}

/// Fig. 7: PROTEAN's geometry changes for strict ShuffleNet V2 while
/// the BE model rotates every 20 s through HI models including the
/// 13.7 GB DPN 92, which fits no small slice: latency rises until
/// Algorithm 2's wait limit passes and the GPUs move from
/// `(4g, 2g, 1g)` to `(4g, 3g)`.
fn reconfig_timeline(
    banner: Banner,
    spec: &ScenarioSpec,
    threads: usize,
    out: &mut dyn Write,
) -> io::Result<()> {
    let pool = r#"["mobilenet", "dpn92", "resnet50", "dpn92"]"#;
    let spec = spec
        .clone()
        .with(&[("trace.be_pool", pool)])
        .at_paper_rate(ShuffleNetV2);
    banner.print(out, "")?;
    let protean = ProteanBuilder::paper();
    let row = &run_specs([(spec, &protean as &dyn SchemeBuilder)], threads)[0];
    writeln!(
        out,
        "  reconfigurations: {}   SLO compliance: {:.2}%   strict P99: {:.1} ms",
        row.reconfigs, row.slo_compliance_pct, row.strict_p99_ms
    )?;
    writeln!(out, "  geometry changes (time s, worker, new geometry):")?;
    for gc in &row.result.geometry_timeline {
        writeln!(
            out,
            "    t={:>8.2}s  worker {}  -> {}",
            gc.at.as_secs_f64(),
            gc.worker,
            gc.geometry
        )?;
    }
    let buckets = row
        .result
        .strict_latency_timeline
        .bucketed(SimDuration::from_secs(2.0), BucketAgg::P99);
    let points: Vec<Vec<f64>> = buckets
        .iter()
        .map(|(t, v)| vec![t.as_secs_f64(), *v])
        .collect();
    csv_series(
        out,
        "strict P99 latency over time",
        &["time_s", "p99_ms"],
        &points,
    )?;
    let curve: Vec<(f64, f64)> = buckets.iter().map(|(t, v)| (t.as_secs_f64(), *v)).collect();
    line_plot(
        out,
        "strict P99 (2 s buckets) — spike at the DPN 92 rotation, recovery after reconfig",
        "time s",
        "P99 ms",
        &[('*', &curve)],
        12,
    )
}

/// Fig. 8: the strict-latency CDF of each primary scheme on SENet 18.
fn latency_cdf(
    banner: Banner,
    spec: &ScenarioSpec,
    threads: usize,
    out: &mut dyn Write,
) -> io::Result<()> {
    let model = SeNet18;
    let slo_ms = model.profile().slo().as_millis_f64();
    banner.print(out, &format!("{model} (SLO {slo_ms:.0} ms)"))?;
    let lineup = schemes::primary();
    let spec = spec.clone().at_paper_rate(model);
    let cells = lineup.iter().map(|s| (spec.clone(), s.as_ref()));
    let mut curves = Vec::new();
    for row in run_specs(cells, threads) {
        let cdf = row.result.metrics.latency_cdf(Class::Strict, 50);
        let points: Vec<Vec<f64>> = cdf.iter().map(|(l, f)| vec![*l, *f]).collect();
        csv_series(
            out,
            &format!("{} (SLO {slo_ms:.0} ms)", row.scheme),
            &["latency_ms", "cumulative_fraction"],
            &points,
        )?;
        curves.push((row.scheme, cdf));
    }
    let title = format!("latency CDF (SLO at {slo_ms:.0} ms)");
    legend_plot(out, &title, "latency ms", "fraction", 16, &curves)
}

/// Fig. 9: PROTEAN's cost and SLO compliance per spot availability and
/// procurement policy, each cost normalised to the on-demand-only run
/// at the same availability (what the comparison schemes pay).
fn cost_slo(
    banner: Banner,
    spec: &ScenarioSpec,
    threads: usize,
    out: &mut dyn Write,
) -> io::Result<()> {
    const POLICIES: [(&str, ProcurementPolicy); 3] = [
        ("Other schemes (on-demand)", ProcurementPolicy::OnDemandOnly),
        ("Spot Only", ProcurementPolicy::SpotOnly),
        ("PROTEAN (hybrid)", ProcurementPolicy::Hybrid),
    ];
    // Short runs need a denser revocation and procurement cadence than
    // the defaults to resolve the spot dynamics (the paper's runs are
    // hour-scale).
    let cadence = [
        ("fleet.revocation_check_secs", "20"),
        ("fleet.vm_startup_secs", "20"),
        ("fleet.procurement_retry_secs", "20"),
    ];
    let spec = spec.clone().with(&cadence);
    banner.print(out, "")?;
    let scheme = ProteanBuilder::paper();
    let cells = SpotAvailability::ALL
        .iter()
        .flat_map(|&a| POLICIES.iter().map(move |&(_, policy)| (a, policy)))
        .map(|(availability, procurement)| {
            let mut cell = spec.clone();
            (cell.fleet.availability, cell.fleet.procurement) = (availability, procurement);
            (cell, &scheme as &dyn SchemeBuilder)
        });
    let results = run_specs(cells, threads);
    let mut rows = Vec::new();
    for (availability, runs) in SpotAvailability::ALL
        .iter()
        .zip(results.chunks(POLICIES.len()))
    {
        let on_demand_cost = runs[0].cost_usd;
        for ((label, _), row) in POLICIES.iter().zip(runs) {
            rows.push(vec![
                availability.to_string(),
                label.to_string(),
                format!("{:.3}", row.cost_usd / on_demand_cost),
                format!("{:.2}", row.slo_compliance_pct),
                row.evictions.to_string(),
                row.censored.to_string(),
            ]);
        }
    }
    let headers = [
        "availability",
        "procurement",
        "norm. cost",
        "SLO%",
        "evictions",
        "censored",
    ];
    table(out, &headers, &rows)
}

/// §7 statistical significance: the primary comparison over [`SEEDS`]
/// seeds from 1000, with 95% confidence intervals on each scheme's SLO
/// compliance (paper: half-widths < 0.1%), and Welch p-values (paper:
/// ~0.0) and Cohen's *d* (paper: 7.80–304.37) for PROTEAN against each
/// baseline.
fn significance(
    banner: Banner,
    spec: &ScenarioSpec,
    threads: usize,
    out: &mut dyn Write,
) -> io::Result<()> {
    for model in [ResNet50, Bert] {
        let secs = spec.trace.duration_secs;
        let label = format!("{model}: {SEEDS} seeds x {secs} s per scheme");
        banner.print(out, &label)?;
        let lineup = schemes::primary();
        let cells = (1000..1000 + SEEDS).flat_map(|seed| {
            let mut run = spec.clone().at_paper_rate(model);
            run.fleet.seed = seed;
            lineup.iter().map(move |s| (run.clone(), s.as_ref()))
        });
        // compliance[i][k] = scheme i's SLO compliance (%) under seed k.
        let mut compliance: Vec<Vec<f64>> = vec![Vec::new(); lineup.len()];
        for (c, row) in run_specs(cells, threads).iter().enumerate() {
            compliance[c % lineup.len()].push(row.slo_compliance_pct);
        }
        let rows: Vec<Vec<String>> = lineup
            .iter()
            .zip(&compliance)
            .map(|(s, xs)| {
                let (mean, hw) = mean_ci95(xs);
                vec![
                    s.name().to_string(),
                    format!("{mean:.3}"),
                    format!("±{hw:.3}"),
                ]
            })
            .collect();
        table(out, &["scheme", "mean SLO%", "95% CI"], &rows)?;

        // PROTEAN is last in the line-up.
        let protean = compliance.last().expect("lineup non-empty");
        let rows: Vec<Vec<String>> = lineup
            .iter()
            .zip(&compliance)
            .take(lineup.len() - 1)
            .map(|(s, xs)| {
                let t = welch_t_test(protean, xs);
                let d = cohens_d(protean, xs);
                vec![
                    format!("PROTEAN vs {}", s.name()),
                    format!("{:.2}", t.t),
                    format!("{:.1}", t.df),
                    format!("{:.2e}", t.p_value),
                    format!("{d:.2}"),
                ]
            })
            .collect();
        table(out, &["pair", "t", "df", "p-value", "Cohen's d"], &rows)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a of each row's text at a 2 s trace and seed 42, so a
    /// refactor that changes any printed byte fails here.
    const TEXT_HASHES: [(&str, u64); 24] = [
        ("fig02_motivation", 0x626bd3150e418175),
        ("fig03_fbr_catalog", 0xf3de99906653bcac),
        ("fig04_architecture", 0xd617f7f4e023a0cd),
        ("table2_mig_profiles", 0x14b9e743483e7d97),
        ("table3_spot_pricing", 0x7b9d8604763b673f),
        ("fig05_slo_vision", 0xb66314a9b5ac0992),
        ("fig06_latency_breakdown", 0x723be86a272ede95),
        ("fig07_reconfig_timeline", 0xf0227ceb49b0e21e),
        ("fig08_latency_cdf", 0x69942359f29096e0),
        ("fig09_cost_slo", 0x278b48a0a6186337),
        ("fig10_throughput_util", 0x4cc072c81f725fd1),
        ("fig11_twitter", 0x785496f5cbff1381),
        ("fig12_vhi_llm", 0x4975d3e518df59ca),
        ("fig13_gpt", 0xd21ec0c74cbd15ce),
        ("fig14_skewed_ratios", 0x05dfdb63cd74096a),
        ("table4_all_strict", 0x7d5c1aa648f64f9a),
        ("table5_all_be", 0x805cf5ca75c4594a),
        ("fig15_tight_slo", 0xbd8eb45a73d91fc6),
        ("fig16_gpulet", 0xdef19d45e97d43ff),
        ("fig17_oracle", 0x9da8b47257d6fc43),
        ("ablations", 0x5ee8daec1dc5b757),
        ("sweep_load", 0x8b71988590b457b9),
        ("future_be_tail", 0xe81267de166d4d41),
        ("stats_significance", 0x5cbc4c79fe3ac61c),
    ];

    /// In a debug build this also checks that every cell of every row,
    /// Own rows included, reparses from its `to_toml` to itself and
    /// passes the scenario file checks (see `run_specs`).
    #[test]
    fn every_row_prints_its_banner_and_the_same_text_at_any_thread_count() {
        let spec = scenario::paper().with(&[("trace.duration_secs", "2")]);
        let mut hashes = Vec::new();
        for x in &EXPERIMENTS {
            let text = |threads| {
                let mut out = Vec::new();
                x.run(&spec, threads, &mut out).unwrap();
                String::from_utf8(out).unwrap()
            };
            // One worker is `PROTEAN_THREADS=1`; four take the parallel
            // path of every grid with 16 or more cells, on any host.
            let sequential = text(1);
            let banner = format!("=== {}: ", x.banner.0);
            assert!(sequential.contains(&banner), "{}: no '{banner}'", x.id);
            assert_eq!(text(4), sequential, "{}", x.id);
            hashes.push((x.id, crate::golden::fnv1a(sequential.as_bytes())));
        }
        let listed = |table: &[(&str, u64)]| {
            let lines = table
                .iter()
                .map(|(id, h)| format!("        (\"{id}\", 0x{h:016x}),"));
            lines.collect::<Vec<_>>().join("\n")
        };
        assert_eq!(listed(&hashes), listed(&TEXT_HASHES), "row text moved");
    }

    #[test]
    fn ids_are_unique() {
        for (i, x) in EXPERIMENTS.iter().enumerate() {
            let first = EXPERIMENTS.iter().position(|y| y.id == x.id);
            assert_eq!(first, Some(i), "{}", x.id);
        }
    }

    #[test]
    fn design_index_lists_exactly_the_table_ids() {
        let design = include_str!("../../../DESIGN.md");
        let index = design.split("\n## Per-experiment index").nth(1).unwrap();
        let index = index.split("\n## ").next().unwrap();
        // A table line's last cell: "| Fig. 5 | … | `fig05_slo_vision` |".
        let mut listed: Vec<&str> = index
            .lines()
            .filter_map(|line| line.strip_suffix(" |")?.rsplit("| ").next())
            .filter_map(|cell| cell.strip_prefix('`')?.strip_suffix('`'))
            .collect();
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|x| x.id).collect();
        listed.sort_unstable();
        ids.sort_unstable();
        assert_eq!(listed, ids);
    }
}
