//! The paper's evaluation as data: [`EXPERIMENTS`] holds one row per
//! table or figure of §5–§7, plus the load sweep, the ablations and the
//! §6.2 future-work run, in the order `protean-cli reproduce` runs them.
//!
//! Every row is cells plus a view. Its cells are [`scenario::paper`] with
//! keys set, as `protean-cli` sets its flags, at each point of its axes
//! of schemes, models, strictness ratios, loads, seeds, spot regimes or
//! SLO multipliers; [`Experiment::cells`] lists them, and
//! [`Experiment::run`] runs exactly those through [`run_grid`], so a row
//! prints the same text at any thread count. Its view prints what the
//! runs give: a table (a line per point of one axis, its runs at the
//! points of another) with an optional chart, the Fig. 7 timeline, the
//! Fig. 8 CDFs, Fig. 9's normalised costs or the §7 statistics. Figs.
//! 3/4 and Tables 2/3 have no cells: their views print the paper's
//! tables alone.

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
use protean_spot::{Provider, VmTier};

use crate::chart::{bar_chart, line_plot, stacked_breakdown_chart};
use crate::harness::{run_grid, Cell};
use crate::report::{banner, csv_series, table};
use crate::runner::SchemeRow;
use crate::scenario::{self, ScenarioSpec};
use crate::schemes::{Build, MOTIVATIONAL, PRIMARY};

/// The per-run duration cap of the rows that run many cells (the load
/// sweep and the §7 seeds).
const CAPPED_SECS: f64 = 60.0;

/// Scenario keys and their values, set in order.
type Keys = &'static [(&'static str, &'static str)];

/// One table or figure: its cells, the paper's setup at each point of
/// its axes, and the view that prints their results under its banner.
pub struct Experiment {
    /// The id `protean-cli reproduce --only` takes, e.g.
    /// `fig05_slo_vision`.
    pub id: &'static str,
    banner: Banner,
    /// A banner and view per point, labelled with it.
    blocks: Axis,
    /// A line per point of these axes' product.
    lines: &'static [Axis],
    /// A line's runs, one per point.
    runs: Axis,
    /// Keys set on each run, after its points'.
    keys: Keys,
    /// What each block prints.
    view: View,
    /// The longest trace a run takes, s.
    cap_secs: f64,
    /// A row printed next, under its own banner.
    then: Option<&'static Experiment>,
}

/// `=== <figure>: <caption> ===`, a label filling the caption's `{}`.
#[derive(Clone, Copy)]
struct Banner(&'static str, &'static str);

impl Banner {
    fn print(self, out: &mut dyn Write, label: &str) -> io::Result<()> {
        banner(out, self.0, &self.1.replace("{}", label))
    }
}

/// What a block prints of its lines, under its banner. No view builds
/// or runs a simulation.
enum View {
    /// A table of these columns, a line per point.
    Table(&'static [Column]),
    /// A table, then per run point its mean SLO compliance over the
    /// lines, under this title.
    MeanBar(&'static [Column], &'static str),
    /// A table, then per run point its SLO compliance against the line
    /// loads.
    Load(&'static [Column]),
    /// A table, then the strict-tail composition of each line's run
    /// (Figs. 2/6/11).
    Stacked(&'static [Column]),
    /// A table, then a note.
    Note(&'static [Column], &'static str),
    /// Text from the paper's tables alone, for a row with no runs.
    Text(fn(&mut dyn Write) -> io::Result<()>),
    /// Fig. 7: the one run's geometry changes and strict P99 over time.
    Timeline,
    /// Fig. 8: each line's strict-latency CDF on the block's model.
    Cdfs,
    /// Fig. 9: each run's cost, normalised to its line's first run, and
    /// SLO compliance.
    Cost,
    /// §7: each run point's SLO compliance over the lines, its 95% CI,
    /// then the last one's Welch t and Cohen's d against each other.
    Significance,
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

/// A value of an axis, and what it changes in a run.
#[derive(Clone, Copy)]
enum Point {
    /// A scheme, and the keys it sets.
    Scheme(Build, Keys),
    /// PROTEAN with one design choice changed, named for the ablations,
    /// and the keys it sets.
    Variant(&'static str, fn(&mut ProteanConfig), Keys),
    /// A strict model at its domain's rate.
    Model(ModelId),
    /// A caption, and the keys it sets.
    Set(&'static str, Keys),
    /// A key's value, which labels it.
    Value(&'static str, &'static str),
}

impl Point {
    fn scheme(self) -> Option<Box<dyn SchemeBuilder>> {
        match self {
            Point::Scheme(build, _) => Some(build()),
            Point::Variant(name, change, _) => {
                let mut config = ProteanConfig::paper();
                config.name = name;
                change(&mut config);
                Some(Box::new(ProteanBuilder::with_config(config)))
            }
            _ => None,
        }
    }

    fn label(self) -> String {
        match self {
            Point::Scheme(build, _) => build().name().to_string(),
            Point::Variant(name, ..) => name.to_string(),
            Point::Model(m) => m.to_string(),
            Point::Set(caption, _) => caption.to_string(),
            Point::Value(_, value) => value.to_string(),
        }
    }

    fn apply(self, spec: ScenarioSpec) -> ScenarioSpec {
        match self {
            Point::Scheme(_, keys) | Point::Variant(.., keys) | Point::Set(_, keys) => {
                spec.with(keys)
            }
            Point::Model(m) => spec.at_paper_rate(m),
            Point::Value(key, value) => spec.with(&[(key, value)]),
        }
    }
}

#[derive(Clone, Copy)]
enum Axis {
    Of(&'static [Point]),
    Schemes(&'static [Build]),
    Models(&'static [ModelId]),
    /// Values of a key.
    Values(&'static str, &'static [&'static str]),
    /// The 12 vision models (Fig. 5).
    Vision,
    /// The VHI language models that are not generative (Fig. 12).
    Vhi,
}

/// A point that changes nothing.
const BASE: Point = Point::Set("", &[]);
const ONE: Axis = Axis::Of(&[BASE]);
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
            Axis::Values(key, values) => values.iter().map(|&v| Point::Value(key, v)).collect(),
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

/// The strict P99 tail's composition, ms, and its chart (Figs. 2/6/11).
const BREAKDOWN: View = View::Stacked(&[
    SCHEME,
    Column::Runs("queueing", |r| fixed(r[0].tail_breakdown.queueing_ms, 1)),
    Column::Runs("cold", |r| fixed(r[0].tail_breakdown.cold_start_ms, 1)),
    Column::Runs("interf.", |r| fixed(r[0].tail_breakdown.interference_ms, 1)),
    Column::Runs("defic.", |r| fixed(r[0].tail_breakdown.deficiency_ms, 1)),
    Column::Runs("min exec", |r| fixed(r[0].tail_breakdown.min_exec_ms, 1)),
    Column::Runs("P99 total", |r| fixed(r[0].tail_breakdown.total_ms(), 1)),
    SLO,
]);

/// §5's setup on the wiki trace of ResNet 50 (the model wherever no
/// point names one): a line per primary scheme.
const PAPER: Experiment = Experiment {
    id: "",
    banner: Banner("", ""),
    blocks: ONE,
    lines: &[LINEUP],
    runs: ONE,
    keys: &[],
    view: View::Table(&[SCHEME, SLO]),
    cap_secs: f64::INFINITY,
    then: None,
};

/// A row with no runs, and so no cells: its view reads the paper's
/// tables alone.
const TEXT: Experiment = Experiment {
    lines: &[],
    runs: Axis::Of(&[]),
    ..PAPER
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
   | (1) Gateway                   |  protean_cluster::event_loop (request
   |     batching + (3) reordering |  ingest), protean_cluster::batch::Accumulator
   |                               |  (gateway accumulators), strict-first queue:
   |                               |  protean_cluster::worker::SchedQueue
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
   |     EWMA + T_low/T_high +     |  protean::Ewma, wait counter, <=30%
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
        view: BREAKDOWN,
        ..PAPER
    },
    Experiment {
        id: "fig03_fbr_catalog",
        banner: Banner("Fig. 3", "normalized FBRs of the 22 inference workloads"),
        view: View::Text(fbr_catalog),
        then: Some(&Experiment {
            banner: Banner(
                "Fig. 3 (profiling)",
                "FBRs recovered from co-location measurements",
            ),
            view: View::Text(fbr_profiling),
            ..TEXT
        }),
        ..TEXT
    },
    Experiment {
        id: "fig04_architecture",
        banner: Banner("Fig. 4", "PROTEAN design (component -> implementation)"),
        view: View::Text(|out| writeln!(out, "{SCHEMATIC}")),
        ..TEXT
    },
    Experiment {
        id: "table2_mig_profiles",
        banner: Banner("Table 2", "MIG instance profiles on an A100-40GB"),
        view: View::Text(mig_profiles),
        ..TEXT
    },
    Experiment {
        id: "table3_spot_pricing",
        banner: Banner(
            "Table 3",
            "8xA100 hourly pricing (USD), averaged US-east/west",
        ),
        view: View::Text(spot_pricing),
        ..TEXT
    },
    Experiment {
        id: "fig05_slo_vision",
        banner: Banner("Fig. 5", "SLO compliance (%) per vision model and scheme"),
        lines: &[Axis::Vision],
        runs: LINEUP,
        view: View::MeanBar(PIVOT, "mean SLO compliance over the 12 vision models (%)"),
        ..PAPER
    },
    Experiment {
        id: "fig06_latency_breakdown",
        banner: Banner("Fig. 6", "P99 tail breakdown (ms), {}"),
        blocks: SUBSET,
        view: BREAKDOWN,
        ..PAPER
    },
    Experiment {
        id: "fig07_reconfig_timeline",
        banner: Banner(
            "Fig. 7",
            "PROTEAN geometry timeline under BE-model rotation",
        ),
        // Strict ShuffleNet V2 while the BE model rotates every 20 s
        // through HI models including the 13.7 GB DPN 92, which fits no
        // small slice: latency rises until Algorithm 2's wait limit
        // passes and the GPUs move from `(4g, 2g, 1g)` to `(4g, 3g)`.
        blocks: Axis::Models(&[ShuffleNetV2]),
        lines: &[Axis::Schemes(&[protean])],
        keys: &[(
            "trace.be_pool",
            r#"["mobilenet", "dpn92", "resnet50", "dpn92"]"#,
        )],
        view: View::Timeline,
        ..PAPER
    },
    Experiment {
        id: "fig08_latency_cdf",
        banner: Banner("Fig. 8", "latency CDF, {}"),
        blocks: Axis::Models(&[SeNet18]),
        view: View::Cdfs,
        ..PAPER
    },
    Experiment {
        id: "fig09_cost_slo",
        banner: Banner(
            "Fig. 9",
            "normalized cost vs SLO compliance under spot availability regimes (ResNet 50)",
        ),
        // PROTEAN per spot availability and procurement policy, each cost
        // normalised to the on-demand-only run at the same availability
        // (what the comparison schemes pay).
        blocks: Axis::Schemes(&[protean]),
        lines: &[Axis::Values(
            "fleet.availability",
            &["high", "medium", "low"],
        )],
        runs: Axis::Of(&[
            Point::Set(
                "Other schemes (on-demand)",
                &[("fleet.procurement", "ondemand")],
            ),
            Point::Set("Spot Only", &[("fleet.procurement", "spot")]),
            Point::Set("PROTEAN (hybrid)", &[("fleet.procurement", "hybrid")]),
        ]),
        // Short runs need a denser revocation and procurement cadence
        // than the defaults to resolve the spot dynamics (the paper's
        // runs are hour-scale).
        keys: &[
            ("fleet.revocation_check_secs", "20"),
            ("fleet.vm_startup_secs", "20"),
            ("fleet.procurement_retry_secs", "20"),
        ],
        view: View::Cost,
        ..PAPER
    },
    Experiment {
        id: "fig10_throughput_util",
        banner: Banner("Fig. 10a", "throughput ({})"),
        blocks: Axis::Models(&[DenseNet121]),
        view: View::Table(&[
            SCHEME,
            Column::Runs("served strict/GPU/s", |r| fixed(r[0].strict_throughput, 1)),
            Column::Runs("served total/GPU/s", |r| fixed(r[0].total_throughput, 1)),
            // Every scheme serves the same arrivals; they differ in
            // batch size over mean strict latency.
            Column::Runs("service rate (req/s per batch slot)", |r| {
                let batch = f64::from(DenseNet121.profile().batch_size);
                let lats = r[0].result.metrics.latencies_ms(Class::Strict);
                let mean_ms = lats.iter().sum::<f64>() / lats.len().max(1) as f64;
                fixed(batch / (mean_ms / 1000.0), 0)
            }),
        ]),
        // Consolidating schemes load their busiest GPU while the cluster
        // mean stays low.
        then: Some(&Experiment {
            banner: Banner("Fig. 10b", "GPU utilization ({}), percent"),
            blocks: Axis::Models(&[EfficientNetB0]),
            view: View::Table(&[
                SCHEME,
                Column::Runs("GPU util % (mean)", |r| fixed(r[0].gpu_util_pct, 1)),
                Column::Runs("GPU util % (busiest)", |r| {
                    busiest(&r[0].result.per_gpu_compute_utilization)
                }),
                Column::Runs("mem util % (mean)", |r| fixed(r[0].mem_util_pct, 1)),
                Column::Runs("mem util % (busiest)", |r| {
                    busiest(&r[0].result.per_gpu_memory_utilization)
                }),
            ]),
            ..PAPER
        }),
        ..PAPER
    },
    Experiment {
        id: "fig11_twitter",
        banner: Banner("Fig. 11", "Twitter trace, {}: P99 breakdown and SLO%"),
        blocks: Axis::Models(&[MobileNet]),
        keys: &[("trace.kind", "twitter")],
        view: BREAKDOWN,
        ..PAPER
    },
    Experiment {
        id: "fig12_vhi_llm",
        banner: Banner("Fig. 12", "SLO compliance (%) per VHI language model"),
        lines: &[Axis::Vhi],
        runs: LINEUP,
        view: View::Table(PIVOT),
        ..PAPER
    },
    Experiment {
        id: "fig13_gpt",
        banner: Banner("Fig. 13", "SLO compliance (%) for GPT-1 and GPT-2"),
        lines: &[Axis::Models(&[Gpt1, Gpt2])],
        runs: LINEUP,
        view: View::Table(PIVOT),
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
        view: View::Table(PIVOT),
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
        view: View::Table(&[
            SCHEME,
            Column::Runs("P50 ms", |r| fixed(r[0].be_p50_ms, 0)),
            Column::Runs("P99 ms", |r| fixed(r[0].be_p99_ms, 0)),
        ]),
        ..PAPER
    },
    Experiment {
        id: "fig15_tight_slo",
        banner: Banner(
            "Fig. 15",
            "SLO compliance (%) at 2x (tight) vs 3x (default) SLO",
        ),
        // The SLO only scores a run: each run is read at both.
        lines: &[SUBSET, LINEUP],
        view: View::Table(&[
            Column::Point("model"),
            SCHEME,
            Column::Runs("SLO% @2x", |r| fixed(r[0].slo_compliance_at(2.0), 2)),
            Column::Runs("SLO% @3x", |r| fixed(r[0].slo_compliance_at(3.0), 2)),
            Column::Runs("degradation", |r| {
                fixed(r[0].slo_compliance_at(3.0) - r[0].slo_compliance_at(2.0), 2)
            }),
        ]),
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
        view: View::Table(PIVOT),
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
        view: View::Table(&[
            Column::Point("model"),
            Column::EachRun("SLO%", |r| fixed(r.slo_compliance_pct, 2)),
            Column::EachRun("P99", |r| fixed(r.strict_p99_ms, 1)),
        ]),
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
        view: View::Table(&[
            VARIANT,
            SLO,
            P99,
            BE_P99,
            Column::Runs("reconfigs", |r| r[0].reconfigs.to_string()),
            Column::Runs("cold starts", |r| r[0].result.cold_starts.to_string()),
        ]),
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
            view: View::Table(&[VARIANT, SLO, P99, BE_P99]),
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
        lines: &[Axis::Values(
            "trace.rps",
            &["2000", "4000", "6000", "8000", "10000", "12000"],
        )],
        runs: LINEUP,
        view: View::Load(&[
            Column::Point("offered rps"),
            Column::EachRun("", |r| fixed(r.slo_compliance_pct, 2)),
        ]),
        cap_secs: CAPPED_SECS,
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
        view: View::Note(
            &[
                VARIANT,
                Column::Runs("BE P50 ms", |r| fixed(r[0].be_p50_ms, 0)),
                Column::Runs("BE P99 ms", |r| fixed(r[0].be_p99_ms, 0)),
            ],
            "(The tail-aware variant behaves identically whenever strict traffic is present.)",
        ),
        ..PAPER
    },
    Experiment {
        id: "stats_significance",
        banner: Banner("§7 significance", "{}"),
        // The primary comparison over ten seeds from 1000, with 95%
        // confidence intervals on each scheme's SLO compliance (paper:
        // half-widths < 0.1%), and Welch p-values (paper: ~0.0) and
        // Cohen's *d* (paper: 7.80–304.37) for PROTEAN against each
        // baseline.
        blocks: Axis::Models(&[ResNet50, Bert]),
        lines: &[Axis::Values(
            "fleet.seed",
            &[
                "1000", "1001", "1002", "1003", "1004", "1005", "1006", "1007", "1008", "1009",
            ],
        )],
        runs: LINEUP,
        view: View::Significance,
        cap_secs: CAPPED_SECS,
        ..PAPER
    },
];

/// The row `id` names.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|x| x.id == id)
}

impl Experiment {
    /// Every simulation the row runs, in the order [`Experiment::run`]
    /// reads them: per block, per line, per run point, then its `then`
    /// row's. Each is `spec`, [`scenario::paper`] with its trace length
    /// and seed set, under the keys of the cell's points and the row's;
    /// its scheme is the first one a point names.
    ///
    /// # Panics
    ///
    /// If a row with runs names no scheme.
    pub fn cells(&self, spec: &ScenarioSpec) -> Vec<Cell> {
        let mut spec = spec.clone();
        spec.trace.duration_secs = spec.trace.duration_secs.min(self.cap_secs);
        let mut cells = Vec::new();
        for block in self.blocks.points() {
            for line in self.lines() {
                for at in self.runs.points() {
                    let points: Vec<Point> = once(block).chain(line.clone()).chain([at]).collect();
                    let cell = (points.iter())
                        .fold(spec.clone(), |cell, p| p.apply(cell))
                        .with(self.keys);
                    // Each cell is a scenario file: debug builds, such as
                    // the row tests', check that it reparses to itself.
                    debug_assert_eq!(scenario::parse(&cell.to_toml()).as_ref(), Ok(&cell));
                    let scheme = points.iter().find_map(|&p| p.scheme());
                    cells.push((cell, scheme.expect("a grid has a scheme axis")));
                }
            }
        }
        cells.extend(self.then.map(|next| next.cells(&spec)).unwrap_or_default());
        cells
    }

    /// Runs the row's [`Experiment::cells`] on `threads` workers and
    /// prints its views to `out`; the text depends on `spec` alone,
    /// [`scenario::paper`] with its trace length and seed set.
    ///
    /// # Errors
    ///
    /// The first error writing to `out`, or [`run_grid`]'s error for a
    /// `spec` whose CSV trace cannot be read.
    pub fn run(&self, spec: &ScenarioSpec, threads: usize, out: &mut dyn Write) -> io::Result<()> {
        let rows = run_grid(&self.cells(spec), threads).map_err(io::Error::other)?;
        self.print(spec.trace.duration_secs, &mut &rows[..], out)
    }

    /// A line per point of the product of the line axes.
    fn lines(&self) -> Vec<Vec<Point>> {
        let mut lines = vec![vec![]];
        for axis in self.lines {
            let extend = |line: &Vec<Point>| {
                axis.points()
                    .into_iter()
                    .map(|p| [&line[..], &[p]].concat())
                    .collect::<Vec<_>>()
            };
            lines = lines.iter().flat_map(extend).collect();
        }
        lines
    }

    /// Prints each block's banner and view, then the `then` row's, from
    /// `rows`, the results of the cells of a `secs` trace in order,
    /// taking what it reads.
    fn print(&self, secs: f64, rows: &mut &[SchemeRow], out: &mut dyn Write) -> io::Result<()> {
        let secs = secs.min(self.cap_secs);
        let (lines, runs) = (self.lines(), self.runs.points());
        let names: Vec<String> = runs.iter().map(|p| p.label()).collect();
        for block in self.blocks.points() {
            let lines: Vec<Line<'_>> = (lines.iter())
                .map(|line| {
                    let (these, rest) = rows.split_at(runs.len());
                    *rows = rest;
                    (line.first().copied().unwrap_or(BASE), these)
                })
                .collect();
            let (label, n) = (block.label(), lines.len());
            let label = match self.view {
                View::Cdfs => format!("{label} (SLO {:.0} ms)", slo_ms(block)),
                View::Significance => format!("{label}: {n} seeds x {secs} s per scheme"),
                _ => label,
            };
            self.banner.print(out, &label)?;
            if let View::Table(columns)
            | View::MeanBar(columns, _)
            | View::Load(columns)
            | View::Stacked(columns)
            | View::Note(columns, _) = self.view
            {
                table_view(out, columns, &lines, &names)?;
            }
            match self.view {
                View::Table(_) => Ok(()),
                View::MeanBar(_, title) => {
                    let mean = |i| slo(&lines, i).sum::<f64>() / lines.len() as f64;
                    writeln!(out)?;
                    bar_chart(out, title, &per_name(&names, mean), 100.0)
                }
                View::Load(_) => load_plot(out, &lines, &names),
                View::Stacked(_) => {
                    let tail =
                        |(_, runs): &Line<'_>| (runs[0].scheme.clone(), runs[0].tail_breakdown);
                    stacked_breakdown_chart(out, &lines.iter().map(tail).collect::<Vec<_>>())
                }
                View::Note(_, note) => writeln!(out, "\n  {note}"),
                View::Text(text) => text(out),
                View::Timeline => timeline(out, &lines[0].1[0]),
                View::Cdfs => cdfs(out, slo_ms(block), &lines),
                View::Cost => cost(out, &lines, &names),
                View::Significance => significance(out, &lines, &names),
            }?;
        }
        self.then.map_or(Ok(()), |next| next.print(secs, rows, out))
    }
}

/// Per run point `i`, its SLO compliance on each line.
fn slo<'a>(lines: &'a [Line<'_>], i: usize) -> impl Iterator<Item = f64> + Clone + 'a {
    lines
        .iter()
        .map(move |(_, runs)| runs[i].slo_compliance_pct)
}

/// Each name with `f` of its index.
fn per_name<T>(names: &[String], f: impl Fn(usize) -> T) -> Vec<(String, T)> {
    names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.clone(), f(i)))
        .collect()
}

/// A table of `columns`, a line per point.
fn table_view(
    out: &mut dyn Write,
    columns: &[Column],
    lines: &[Line<'_>],
    names: &[String],
) -> io::Result<()> {
    let mut headers = Vec::new();
    for column in columns {
        match column {
            Column::Point(header) | Column::Runs(header, _) => headers.push(header.to_string()),
            Column::EachRun("", _) => headers.extend(names.iter().cloned()),
            Column::EachRun(header, _) => {
                headers.extend(names.iter().map(|n| format!("{n} {header}")))
            }
        }
    }
    let line = |&(point, runs): &Line<'_>| {
        let cells = columns.iter().flat_map(|column| match column {
            Column::Point(_) => vec![point.label()],
            Column::Runs(_, text) => vec![text(runs)],
            Column::EachRun(_, text) => runs.iter().map(text).collect(),
        });
        cells.collect()
    };
    let body: Vec<Vec<String>> = lines.iter().map(line).collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    table(out, &headers, &body)
}

/// Per run point, its SLO compliance against the line loads.
fn load_plot(out: &mut dyn Write, lines: &[Line<'_>], names: &[String]) -> io::Result<()> {
    let loads = lines.iter().map(|(point, _)| match point {
        Point::Value(_, rps) => rps.parse().expect("a load is a number"),
        _ => unreachable!("a load chart's lines are loads"),
    });
    let curves = per_name(names, |i| loads.clone().zip(slo(lines, i)).collect());
    let title = "SLO compliance vs offered load";
    legend_plot(out, title, "rps", "SLO %", 14, &curves)
}

/// The largest of per-GPU utilisation fractions, as a percent.
fn busiest(per_gpu: &[f64]) -> String {
    fixed(per_gpu.iter().copied().fold(0.0, f64::max) * 100.0, 1)
}

/// The strict SLO of a model point at the paper's 3x multiplier, ms.
fn slo_ms(model: Point) -> f64 {
    let Point::Model(m) = model else {
        unreachable!("only a model has an SLO")
    };
    m.profile().slo().as_millis_f64()
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
    let glyphs = || ['M', 'I', 'N', 'P'].into_iter().cycle();
    writeln!(out)?;
    for (glyph, (name, _)) in glyphs().zip(curves) {
        writeln!(out, "  [{glyph}] {name}")?;
    }
    let series: Vec<(char, &[(f64, f64)])> = glyphs()
        .zip(curves)
        .map(|(g, (_, c))| (g, &c[..]))
        .collect();
    line_plot(out, title, x, y, &series, height)
}

/// Fig. 3: the catalog's normalised FBRs.
fn fbr_catalog(out: &mut dyn Write) -> io::Result<()> {
    let max_fbr = PROFILES.iter().map(|p| p.fbr).fold(0.0, f64::max);
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
    let headers = ["model", "domain", "class", "FBR (norm.)", "FBR"];
    table(out, &headers, &rows)
}

/// Fig. 3's §3 profiling procedure: the HI vision FBRs recovered from
/// synthetic pairwise co-location slowdowns (Eq. 1).
fn fbr_profiling(out: &mut dyn Write) -> io::Result<()> {
    let hi: Vec<_> = in_class(InterferenceClass::Hi).collect();
    let mut measurements = Vec::new();
    for (i, a) in hi.iter().enumerate() {
        for b in &hi[i + 1..] {
            let slowdown = (a.fbr + b.fbr).max(1.0);
            for (job, partner) in [(a.id, b.id), (b.id, a.id)] {
                measurements.push(CoLocationMeasurement {
                    job,
                    partner,
                    slowdown,
                });
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

/// Table 2: the A100's MIG instance profiles, and the geometry count the
/// Oracle's exhaustive sweep enumerates.
fn mig_profiles(out: &mut dyn Write) -> io::Result<()> {
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
fn spot_pricing(out: &mut dyn Write) -> io::Result<()> {
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

/// Fig. 7: `row`'s geometry changes, then its strict P99 over time.
fn timeline(out: &mut dyn Write, row: &SchemeRow) -> io::Result<()> {
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
    let timeline = &row.result.strict_latency_timeline;
    let buckets = timeline.bucketed(SimDuration::from_secs(2.0), BucketAgg::P99);
    let curve: Vec<(f64, f64)> = buckets.iter().map(|(t, v)| (t.as_secs_f64(), *v)).collect();
    let title = "strict P99 latency over time";
    csv_series(out, title, ["time_s", "p99_ms"], &curve)?;
    line_plot(
        out,
        "strict P99 (2 s buckets) — spike at the DPN 92 rotation, recovery after reconfig",
        "time s",
        "P99 ms",
        &[('*', &curve)],
        12,
    )
}

/// Fig. 8: each line's strict-latency CDF against an `slo_ms` SLO, as a
/// CSV series and a curve.
fn cdfs(out: &mut dyn Write, slo_ms: f64, lines: &[Line<'_>]) -> io::Result<()> {
    let mut curves = Vec::new();
    for (_, runs) in lines {
        let cdf = runs[0].result.metrics.latency_cdf(Class::Strict, 50);
        let title = format!("{} (SLO {slo_ms:.0} ms)", runs[0].scheme);
        csv_series(out, &title, ["latency_ms", "cumulative_fraction"], &cdf)?;
        curves.push((runs[0].scheme.clone(), cdf));
    }
    let title = format!("latency CDF (SLO at {slo_ms:.0} ms)");
    legend_plot(out, &title, "latency ms", "fraction", 16, &curves)
}

/// Fig. 9: per line and run, the run's cost normalised to the line's
/// first run, its SLO compliance, evictions and censored requests.
fn cost(out: &mut dyn Write, lines: &[Line<'_>], names: &[String]) -> io::Result<()> {
    let mut rows = Vec::new();
    for (point, runs) in lines {
        let first_cost = runs[0].cost_usd;
        for (name, row) in names.iter().zip(*runs) {
            rows.push(vec![
                point.label(),
                name.clone(),
                format!("{:.3}", row.cost_usd / first_cost),
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

/// §7: each run point's mean SLO compliance over the lines with its 95%
/// CI, then Welch's t-test and Cohen's d of the last run point against
/// each other one.
fn significance(out: &mut dyn Write, lines: &[Line<'_>], names: &[String]) -> io::Result<()> {
    let compliance: Vec<Vec<f64>> = (0..names.len()).map(|i| slo(lines, i).collect()).collect();
    let rows: Vec<Vec<String>> = names
        .iter()
        .zip(&compliance)
        .map(|(name, xs)| {
            let (mean, hw) = mean_ci95(xs);
            vec![name.clone(), format!("{mean:.3}"), format!("±{hw:.3}")]
        })
        .collect();
    table(out, &["scheme", "mean SLO%", "95% CI"], &rows)?;

    let (last, others) = compliance.split_last().expect("a run point");
    let rows: Vec<Vec<String>> = names
        .iter()
        .zip(others)
        .map(|(name, xs)| {
            let t = welch_t_test(last, xs);
            let d = cohens_d(last, xs);
            vec![
                format!("{} vs {name}", names[others.len()]),
                format!("{:.2}", t.t),
                format!("{:.1}", t.df),
                format!("{:.2e}", t.p_value),
                format!("{d:.2}"),
            ]
        })
        .collect();
    table(out, &["pair", "t", "df", "p-value", "Cohen's d"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_cell;

    /// FNV-1a of each row's text at a 2 s trace and seed 42, so a
    /// refactor that changes any printed byte fails here.
    const TEXT_HASHES: [(&str, u64); 24] = [
        ("fig02_motivation", 0x626bd3150e418175),
        ("fig03_fbr_catalog", 0xf3de99906653bcac),
        ("fig04_architecture", 0x10d8b05d1ede87f2),
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

    /// In a debug build this also checks that every cell of every row
    /// reparses from its `to_toml` to itself and passes the scenario
    /// file checks (see `Experiment::cells`).
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

    /// Each row's cells at the paper's setup, listed without running a
    /// simulation: a count per row, and every cell a scenario file that
    /// reparses from its `to_toml` to itself (release builds too; debug
    /// builds also check it where the cells are built).
    #[test]
    fn every_rows_cells_are_listed_without_running_them() {
        const COUNTS: [(&str, usize); 24] = [
            ("fig02_motivation", 10),
            ("fig03_fbr_catalog", 0),
            ("fig04_architecture", 0),
            ("table2_mig_profiles", 0),
            ("table3_spot_pricing", 0),
            ("fig05_slo_vision", 48),
            ("fig06_latency_breakdown", 12),
            ("fig07_reconfig_timeline", 1),
            ("fig08_latency_cdf", 4),
            ("fig09_cost_slo", 9),
            ("fig10_throughput_util", 8),
            ("fig11_twitter", 4),
            ("fig12_vhi_llm", 32),
            ("fig13_gpt", 8),
            ("fig14_skewed_ratios", 16),
            ("table4_all_strict", 4),
            ("table5_all_be", 4),
            ("fig15_tight_slo", 12),
            ("fig16_gpulet", 20),
            ("fig17_oracle", 6),
            ("ablations", 9),
            ("sweep_load", 24),
            ("future_be_tail", 2),
            ("stats_significance", 80),
        ];
        let spec = scenario::paper();
        let mut counts = Vec::new();
        for x in &EXPERIMENTS {
            let cells = x.cells(&spec);
            for (cell, _) in &cells {
                let reparsed = scenario::parse(&cell.to_toml());
                assert_eq!(reparsed.as_ref(), Ok(cell), "{}", x.id);
            }
            counts.push((x.id, cells.len()));
        }
        assert_eq!(counts, COUNTS);
    }

    /// Fig. 15 runs each model and scheme once and reads the run at 2x
    /// and at 3x: the looser 3x SLO is met at least as often, and on at
    /// least one run more often. The trace is 20 s so that requests land
    /// after the 15 s warm-up and the scores are not all 100%.
    #[test]
    fn fig15_runs_at_2x_and_3x_differ_only_in_their_score() {
        let spec = scenario::paper().with(&[("trace.duration_secs", "20")]);
        let cells = find("fig15_tight_slo").unwrap().cells(&spec);
        assert_eq!(cells.len(), 12, "one run per model and scheme");
        let mut moved = 0;
        for (cell, scheme) in &cells {
            let name = format!("{} {}", cell.trace.model, scheme.name());
            let row = run_cell(cell, scheme.as_ref()).unwrap();
            let [tight, default] = [2.0, 3.0].map(|mult| row.slo_compliance_at(mult));
            assert_eq!(default, row.slo_compliance_pct, "{name}: scored at 3x");
            assert!(default >= tight, "{name}: {default} at 3x < {tight} at 2x");
            moved += usize::from(default > tight);
        }
        assert!(
            moved > 0,
            "no run's compliance moved: the relation went untested"
        );
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
