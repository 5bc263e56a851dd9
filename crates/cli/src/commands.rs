//! The CLI subcommands.

use protean_cluster::{run_simulation_on, ClusterConfig, SchemeBuilder};
use protean_experiments::harness::{run_grid, thread_count_or, GridCell};
use protean_experiments::report::{scheme_table, table};
use protean_experiments::{run_scheme, schemes};
use protean_gpu::{find_placement, Geometry};
use protean_metrics::record::Class;
use protean_models::{catalog, ModelId};
use protean_sim::SimDuration;
use protean_spot::{ProcurementPolicy, SpotAvailability};
use protean_trace::{check_trace_size, Trace, TraceConfig, TraceShape};

use crate::args::{ArgError, Args};

/// Top-level usage text.
pub const USAGE: &str = "\
protean-cli — PROTEAN GPU-serverless simulator

USAGE:
  protean-cli simulate  [flags]  run one scheme and print its report
  protean-cli compare   [flags]  run all primary schemes side by side
  protean-cli replay    [flags]  replay a CSV trace file (--trace-file)
  protean-cli gen-trace [flags]  write a generated trace to --out
  protean-cli catalog            list the 22 workload models
  protean-cli geometries         list valid MIG geometries + placements
  protean-cli scenario list      list the scenario catalog (--dir)
  protean-cli scenario run       run scenarios with report cards
  protean-cli help               this text

FLAGS (simulate / compare):
  --model <name>          workload model, e.g. resnet50, vgg19, gpt2
                          (see `catalog`; default resnet50)
  --scheme <name>         simulate only: protean | oracle | molecule |
                          infless (or llama) | naive | migonly | mpsmig |
                          smart | gpulet (default protean)
  --trace <kind>          wiki | twitter | constant (default wiki)
  --rps <f64>             arrival rate; default 5000 vision / 128 language
  --duration <secs>       trace length (default 60; at most 1e8 s and
                          1e8 requests at --rps)
  --strict-frac <f64>     strict share of requests (default 0.5)
  --workers <n>           cluster size (default 8)
  --seed <u64>            root seed (default 42)
  --slo-mult <f64>        SLO = mult x 7g latency (default 3)
  --procurement <p>       ondemand | spot | hybrid (default ondemand;
                          on-demand also accepted)
  --threads <n>           compare only: worker threads for the scheme
                          grid (default PROTEAN_THREADS, then the
                          machine's available parallelism)
  --availability <a>      high | moderate | low (default high; medium
                          also accepted)
  --per-model <bool>      simulate only: also print a per-model table

FLAGS (replay):
  --trace-file <path>     CSV produced by gen-trace (arrival_us,model,strict)
  --scheme / --workers / --seed / --slo-mult as above

FLAGS (gen-trace):
  --out <path>            output CSV path
  --model / --trace / --rps / --duration / --strict-frac / --seed as above

FLAGS (scenario list / scenario run):
  --dir <path>            scenario catalog directory (default scenarios)
  --name <scenario>       run only the scenario with this name
  --smoke <bool>          scale request rates to 25% (never durations;
                          scripted evictions stay at absolute times)
  --out <path>            write one <name>.json report card per scenario
                          into this directory
";

/// Flags [`build_run`] reads, shared by `simulate` and `compare`.
const RUN_FLAGS: [&str; 10] = [
    "model",
    "trace",
    "rps",
    "duration",
    "strict-frac",
    "workers",
    "seed",
    "slo-mult",
    "procurement",
    "availability",
];
/// `simulate`'s own flags on top of [`RUN_FLAGS`].
const SIMULATE_FLAGS: [&str; 2] = ["scheme", "per-model"];
/// `compare`'s own flags on top of [`RUN_FLAGS`].
const COMPARE_FLAGS: [&str; 1] = ["threads"];

/// Resolves a model name like `resnet50` or `ResNet 50`: dropping
/// everything but ASCII letters and digits and lowercasing turns every
/// display name into its slug.
pub fn parse_model(name: &str) -> Result<ModelId, ArgError> {
    let slug: String = name
        .chars()
        .filter(char::is_ascii_alphanumeric)
        .collect::<String>()
        .to_ascii_lowercase();
    ModelId::from_slug(&slug).ok_or_else(|| {
        ArgError(format!(
            "unknown model '{name}' (run `protean-cli catalog` for the list)"
        ))
    })
}

/// Resolves a scheme name.
pub fn parse_scheme(name: &str) -> Result<Box<dyn SchemeBuilder>, ArgError> {
    schemes::by_name(name).ok_or_else(|| ArgError(schemes::unknown_scheme(name)))
}

fn parse_procurement(name: &str) -> Result<ProcurementPolicy, ArgError> {
    ProcurementPolicy::from_slug(name).map_err(|e| ArgError(e.to_string()))
}

fn parse_availability(name: &str) -> Result<SpotAvailability, ArgError> {
    SpotAvailability::from_slug(name).map_err(|e| ArgError(e.to_string()))
}

/// The value of `--name` as a finite `f64`, or `default` when absent:
/// `nan` and `inf` parse as `f64` but name no rate, span or multiplier.
fn get_finite(args: &Args, name: &str, default: f64) -> Result<f64, ArgError> {
    let value: f64 = args.get_or(name, default)?;
    if value.is_finite() {
        Ok(value)
    } else {
        Err(ArgError(format!("--{name} must be finite, got {value}")))
    }
}

/// `paper_default` with the `--workers`, `--seed` and `--slo-mult`
/// flags applied: the fleet flags `simulate`, `compare` and `replay`
/// share.
fn fleet_config(args: &Args) -> Result<ClusterConfig, ArgError> {
    let mut config = ClusterConfig::paper_default();
    config.workers = args.get_or("workers", 8usize)?;
    if config.workers == 0 {
        return Err(ArgError("--workers must be at least 1".into()));
    }
    config.seed = args.get_or("seed", 42u64)?;
    config.slo_multiplier = get_finite(args, "slo-mult", 3.0)?;
    if config.slo_multiplier < 1.0 {
        return Err(ArgError("--slo-mult must be >= 1".into()));
    }
    Ok(config)
}

fn build_run(args: &Args) -> Result<(ClusterConfig, TraceConfig), ArgError> {
    let model = parse_model(args.get("model").unwrap_or("resnet50"))?;
    let cat = catalog();
    let default_rps = match cat.profile(model).domain {
        protean_models::Domain::Vision => 5000.0,
        protean_models::Domain::Language => 128.0,
    };
    let rps = get_finite(args, "rps", default_rps)?;
    if rps <= 0.0 {
        return Err(ArgError("--rps must be positive".into()));
    }
    let secs = get_finite(args, "duration", 60.0)?;
    if secs <= 0.0 {
        return Err(ArgError("--duration must be positive".into()));
    }
    let Some(duration) = SimDuration::try_from_secs(secs) else {
        return Err(ArgError(format!(
            "--duration {secs:e} is beyond the simulated clock (about 1.8e13 s)"
        )));
    };
    // Every command here materialises its trace.
    check_trace_size(secs, rps).map_err(|e| ArgError(format!("--duration {e}")))?;
    let strict_fraction: f64 = args.get_or("strict-frac", 0.5)?;
    if !(0.0..=1.0).contains(&strict_fraction) {
        return Err(ArgError("--strict-frac must be in [0, 1]".into()));
    }
    let shape = match args.get("trace").unwrap_or("wiki") {
        "wiki" => TraceShape::wiki(rps),
        "twitter" => TraceShape::twitter(rps),
        "constant" => TraceShape::constant(rps),
        other => {
            return Err(ArgError(format!(
                "unknown trace '{other}' (wiki | twitter | constant)"
            )))
        }
    };
    let be_pool = cat.opposite_pool(model);
    let trace = TraceConfig {
        shape,
        duration,
        strict_model: model,
        strict_fraction,
        be_pool,
        be_rotation_period: SimDuration::from_secs(20.0),
        batch_arrivals: true,
    };
    let mut config = fleet_config(args)?;
    // Absent flags keep `paper_default`'s on-demand, high availability.
    if let Some(name) = args.get("procurement") {
        config.procurement = parse_procurement(name)?;
    }
    if let Some(name) = args.get("availability") {
        config.availability = parse_availability(name)?;
    }
    Ok((config, trace))
}

/// `simulate`: one scheme, full report.
pub fn simulate(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&[&RUN_FLAGS[..], &SIMULATE_FLAGS].concat())?;
    let (config, trace) = build_run(args)?;
    let scheme = parse_scheme(args.get("scheme").unwrap_or("protean"))?;
    let row = run_scheme(&config, scheme.as_ref(), &trace);
    scheme_table(std::slice::from_ref(&row));
    println!();
    println!(
        "  cost ${:.2} ({} evictions) · GPU util {:.1}% · mem util {:.1}% · {} reconfigs · {} cold starts",
        row.cost_usd,
        row.evictions,
        row.gpu_util_pct,
        row.mem_util_pct,
        row.reconfigs,
        row.result.cold_starts,
    );
    if args.get_or("per-model", false)? {
        let cat = catalog();
        let mult = config.slo_multiplier;
        let slo = move |m: ModelId| cat.profile(m).slo_with_multiplier(mult);
        let rows: Vec<Vec<String>> = row
            .result
            .metrics
            .per_model_summaries(&slo)
            .into_iter()
            .map(|(model, s)| {
                vec![
                    model.to_string(),
                    s.total.to_string(),
                    s.strict.to_string(),
                    format!("{:.2}", s.slo_compliance * 100.0),
                    format!("{:.1}", s.strict_p99_ms.max(s.be_p99_ms)),
                ]
            })
            .collect();
        println!();
        table(&["model", "requests", "strict", "SLO%", "P99 ms"], &rows);
    }
    Ok(())
}

/// `compare`: the primary line-up side by side.
pub fn compare(args: &Args) -> Result<(), ArgError> {
    if args.get("scheme").is_some() {
        return Err(ArgError(
            "--scheme does not apply to `compare` (it runs all primary schemes)".into(),
        ));
    }
    args.reject_unknown(&[&RUN_FLAGS[..], &COMPARE_FLAGS].concat())?;
    let (config, trace) = build_run(args)?;
    let threads = thread_count_or(match args.get("threads") {
        None => None,
        Some(_) => Some(args.get_or("threads", 1usize)?),
    });
    let lineup = schemes::primary();
    let cells: Vec<GridCell<'_>> = lineup
        .iter()
        .map(|s| GridCell::new(config.clone(), s.as_ref(), trace.clone()))
        .collect();
    let rows = run_grid(&cells, threads);
    scheme_table(&rows);
    Ok(())
}

/// `catalog`: the 22 workload models.
pub fn catalog_cmd(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&[])?;
    let cat = catalog();
    let rows: Vec<Vec<String>> = cat
        .profiles()
        .iter()
        .map(|p| {
            vec![
                p.id.to_string(),
                format!("{:?}", p.domain),
                format!("{:?}", p.class),
                p.batch_size.to_string(),
                format!("{:.1}", p.mem_gb),
                format!("{:.0}", p.solo_7g.as_millis_f64()),
                format!("{:.2}", p.fbr),
            ]
        })
        .collect();
    table(
        &[
            "model", "domain", "class", "batch", "mem GB", "7g ms", "FBR",
        ],
        &rows,
    );
    Ok(())
}

/// `geometries`: every valid MIG geometry with a physical placement.
pub fn geometries(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&[])?;
    let mut all = Geometry::enumerate_all();
    all.sort_by_key(|g| (std::cmp::Reverse(g.total_compute_sevenths()), g.len()));
    let rows: Vec<Vec<String>> = all
        .iter()
        .map(|g| {
            let placement = find_placement(g.slices())
                .expect("enumerated geometries are placeable")
                .iter()
                .map(|(p, s)| format!("{p}@{s}"))
                .collect::<Vec<_>>()
                .join(" ");
            vec![
                g.to_string(),
                format!("{}/7", g.total_compute_sevenths()),
                format!("{:.0} GB", g.total_mem_gb()),
                placement,
            ]
        })
        .collect();
    table(
        &["geometry", "compute", "memory", "placement (slice@start)"],
        &rows,
    );
    println!("\n  {} valid geometries", all.len());
    Ok(())
}

/// `replay`: run a scheme over a CSV trace file.
pub fn replay(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&["trace-file", "scheme", "workers", "seed", "slo-mult"])?;
    let path = args
        .get("trace-file")
        .ok_or_else(|| ArgError("replay requires --trace-file <path>".into()))?;
    let config = fleet_config(args)?;
    let scheme = parse_scheme(args.get("scheme").unwrap_or("protean"))?;
    let trace = Trace::read_csv_file(path).map_err(|e| ArgError(e.to_string()))?;
    println!(
        "  replaying {} requests over {}",
        trace.requests().len(),
        trace.duration()
    );
    let result = run_simulation_on(&config, scheme.as_ref(), trace);
    let cat = catalog();
    let slo = protean_cluster::SimulationResult::slo_fn(&cat, config.slo_multiplier);
    println!(
        "  scheme {} · SLO {:.2}% · strict P99 {:.1} ms · BE P99 {:.1} ms · censored {}",
        result.scheme,
        result.metrics.slo_compliance(&slo) * 100.0,
        result
            .metrics
            .latency_percentile_ms(Class::Strict, 0.99)
            .unwrap_or(0.0),
        result
            .metrics
            .latency_percentile_ms(Class::BestEffort, 0.99)
            .unwrap_or(0.0),
        result.censored,
    );
    Ok(())
}

/// `gen-trace`: write a generated trace to a CSV file.
pub fn gen_trace(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&[
        "out",
        "model",
        "trace",
        "rps",
        "duration",
        "strict-frac",
        "seed",
    ])?;
    let out = args
        .get("out")
        .ok_or_else(|| ArgError("gen-trace requires --out <path>".into()))?;
    let (_, trace_config) = build_run(args)?;
    let seed: u64 = args.get_or("seed", 42u64)?;
    let trace = trace_config.generate(&protean_sim::RngFactory::new(seed));
    let file =
        std::fs::File::create(out).map_err(|e| ArgError(format!("cannot create {out}: {e}")))?;
    trace
        .write_csv(std::io::BufWriter::new(file))
        .map_err(|e| ArgError(format!("write failed: {e}")))?;
    println!(
        "  wrote {} requests ({} strict) to {out}",
        trace.stats().total,
        trace.stats().strict
    );
    Ok(())
}

/// `scenario list` / `scenario run`: the declarative adversarial
/// scenario catalog (see `scenarios/` and the scenario DSL docs).
pub fn scenario(action: Option<&str>, args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&["dir", "name", "smoke", "out"])?;
    let dir = std::path::PathBuf::from(args.get("dir").unwrap_or("scenarios"));
    let files =
        protean_experiments::scenario::catalog_files(&dir).map_err(|e| ArgError(e.to_string()))?;
    if files.is_empty() {
        return Err(ArgError(format!(
            "no scenario files (*.toml) found in {}",
            dir.display()
        )));
    }
    let specs: Vec<(
        std::path::PathBuf,
        protean_experiments::scenario::ScenarioSpec,
    )> = files
        .iter()
        .map(|f| {
            protean_experiments::scenario::load_file(f)
                .map(|s| (f.clone(), s))
                .map_err(|e| ArgError(e.to_string()))
        })
        .collect::<Result<_, _>>()?;
    match action {
        Some("list") => {
            let rows: Vec<Vec<String>> = specs
                .iter()
                .map(|(f, s)| {
                    vec![
                        s.name.clone(),
                        f.file_name()
                            .unwrap_or_default()
                            .to_string_lossy()
                            .into_owned(),
                        s.description.clone(),
                    ]
                })
                .collect();
            table(&["scenario", "file", "description"], &rows);
            Ok(())
        }
        Some("run") => {
            let smoke: bool = args.get_or("smoke", false)?;
            let only = args.get("name");
            let out_dir = args.get("out").map(std::path::PathBuf::from);
            if let Some(d) = &out_dir {
                std::fs::create_dir_all(d)
                    .map_err(|e| ArgError(format!("cannot create {}: {e}", d.display())))?;
            }
            let selected: Vec<_> = specs
                .iter()
                .filter(|(_, s)| only.is_none_or(|n| s.name == n))
                .collect();
            if selected.is_empty() {
                return Err(ArgError(format!(
                    "no scenario named '{}' in {} (run `scenario list`)",
                    only.unwrap_or_default(),
                    dir.display()
                )));
            }
            let mut outcomes = Vec::with_capacity(selected.len());
            for (file, spec) in selected {
                let base = file.parent().unwrap_or(std::path::Path::new("."));
                let outcome = protean_experiments::scenario::run(spec, base, smoke)
                    .map_err(|e| ArgError(e.to_string()))?;
                if let Some(d) = &out_dir {
                    let path = d.join(format!("{}.json", spec.name));
                    std::fs::write(&path, outcome.to_json())
                        .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;
                }
                outcomes.push(outcome);
            }
            let headers = protean_experiments::scenario::card_headers();
            let rows: Vec<Vec<String>> = outcomes.iter().map(|o| o.table_row()).collect();
            table(&headers, &rows);
            println!(
                "\n  {} scenario(s) green: audited and unaudited digests identical, audits clean{}",
                outcomes.len(),
                if smoke { " (smoke rates)" } else { "" }
            );
            Ok(())
        }
        Some(other) => Err(ArgError(format!(
            "unknown scenario action '{other}' (list | run)"
        ))),
        None => Err(ArgError("scenario requires an action: list | run".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_spot::Provider;

    #[test]
    fn model_names_resolve_loosely() {
        assert_eq!(parse_model("resnet50").unwrap(), ModelId::ResNet50);
        assert_eq!(parse_model("ResNet 50").unwrap(), ModelId::ResNet50);
        assert_eq!(parse_model("GPT-2").unwrap(), ModelId::Gpt2);
        assert_eq!(parse_model("shufflenetv2").unwrap(), ModelId::ShuffleNetV2);
        assert!(parse_model("resnet5000").is_err());
        // Normalising a display name yields its slug, for every model.
        for m in ModelId::ALL {
            assert_eq!(parse_model(m.name()).unwrap(), m, "{}", m.name());
            assert_eq!(parse_model(m.slug()).unwrap(), m, "{}", m.slug());
        }
    }

    /// A scenario whose `[fleet]` section is `fleet`.
    fn scenario_fleet(fleet: &str) -> protean_experiments::scenario::ScenarioSpec {
        protean_experiments::scenario::parse(&format!("name = \"x\"\n[fleet]\n{fleet}\n"))
            .unwrap_or_else(|e| panic!("{fleet}: {e}"))
    }

    #[test]
    fn schemes_resolve() {
        for name in schemes::names() {
            for spelled in [name.to_string(), name.to_ascii_uppercase()] {
                let cli = parse_scheme(&spelled).unwrap().name();
                let dsl = scenario_fleet(&format!("scheme = \"{spelled}\""));
                assert_eq!(schemes::by_name(&dsl.fleet.scheme).unwrap().name(), cli);
            }
        }
        assert_eq!(schemes::names().count(), 10);
        let err = parse_scheme("unknown").err().unwrap();
        assert_eq!(
            err.0,
            "unknown scheme 'unknown' (protean | oracle | molecule | infless | naive | migonly | mpsmig | smart | gpulet)"
        );
    }

    #[test]
    fn build_run_applies_defaults_and_validates() {
        let args = Args::parse(vec!["simulate".to_string()]).unwrap();
        let (config, trace) = build_run(&args).unwrap();
        assert_eq!(config.workers, 8);
        assert_eq!(config.procurement, ProcurementPolicy::OnDemandOnly);
        assert_eq!(config.availability, SpotAvailability::High);
        assert_eq!(trace.strict_model, ModelId::ResNet50);
        assert!(trace.batch_arrivals);

        let bad = Args::parse(
            "simulate --strict-frac 1.5"
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(build_run(&bad).is_err());
    }

    #[test]
    fn language_models_default_to_their_rate() {
        let args = Args::parse(
            "simulate --model bert"
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let (_, trace) = build_run(&args).unwrap();
        match trace.shape {
            TraceShape::WikiDiurnal { mean_rps, .. } => assert_eq!(mean_rps, 128.0),
            _ => panic!("expected wiki"),
        }
    }

    #[test]
    fn catalog_and_geometries_commands_run() {
        let none = Args::parse(Vec::new()).unwrap();
        catalog_cmd(&none).unwrap();
        geometries(&none).unwrap();
        // Unknown flags are rejected.
        let bad = Args::parse(
            "catalog --oops 1"
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(catalog_cmd(&bad).is_err());
    }

    #[test]
    fn compare_rejects_scheme_flag_and_replay_requires_file() {
        let a = Args::parse(
            "compare --scheme protean"
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(compare(&a).is_err());
        let r = Args::parse(vec!["replay".to_string()]).unwrap();
        assert!(replay(&r).is_err());
        let missing = Args::parse(
            "replay --trace-file /nonexistent/x.csv"
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(replay(&missing).is_err());
        let g = Args::parse(vec!["gen-trace".to_string()]).unwrap();
        assert!(gen_trace(&g).is_err(), "gen-trace without --out must fail");
    }

    #[test]
    fn gen_trace_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("protean_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let toks = format!(
            "gen-trace --model mobilenet --rps 400 --duration 5 --out {}",
            path.display()
        );
        let a = Args::parse(
            toks.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        gen_trace(&a).unwrap();
        let toks = format!("replay --trace-file {} --workers 2", path.display());
        let a = Args::parse(
            toks.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        replay(&a).unwrap();

        // A malformed trace comes back as an ArgError naming the file and
        // line — not a panic deep inside the reader.
        let bad = dir.join("bad.csv");
        std::fs::write(&bad, "arrival_us,model,strict\n100,resnet50\n").unwrap();
        let toks = format!("replay --trace-file {}", bad.display());
        let a = Args::parse(
            toks.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let err = replay(&a).unwrap_err();
        assert!(err.0.contains("bad.csv"), "no path in '{}'", err.0);
        assert!(err.0.contains("line 2"), "no line in '{}'", err.0);

        // Nonsensical replay flags are rejected up front.
        let toks = format!("replay --trace-file {} --workers 0", path.display());
        let a = Args::parse(
            toks.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(replay(&a).unwrap_err().0.contains("--workers"));
        let toks = format!("replay --trace-file {} --slo-mult 0.5", path.display());
        let a = Args::parse(
            toks.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(replay(&a).unwrap_err().0.contains("--slo-mult"));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(bad).ok();
    }

    #[test]
    fn each_run_command_accepts_exactly_the_flags_it_reads() {
        let parse = |line: &str| {
            Args::parse(
                line.split_whitespace()
                    .map(String::from)
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        };
        // `compare` reads --availability through `build_run`.
        compare(&parse(
            "compare --availability low --procurement hybrid --workers 2 --rps 50 --duration 2",
        ))
        .unwrap();
        // `simulate` runs one scheme on one thread: --threads is
        // compare-only. The engine is one event loop, so there is no
        // shard, shard-thread or epoch knob.
        let unknown = [
            "threads 4",
            "shard-threads 2",
            "shards 4",
            "max-epoch-arrivals 16",
        ];
        for flag in unknown {
            let err = simulate(&parse(&format!("simulate --{flag}"))).unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert!(
                err.0.starts_with(&format!("unknown flag --{name} ")),
                "{err}"
            );
        }
        for flag in &unknown[1..] {
            let err = compare(&parse(&format!("compare --{flag}"))).unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert!(
                err.0.starts_with(&format!("unknown flag --{name} ")),
                "{err}"
            );
        }
    }

    #[test]
    fn non_finite_numbers_are_rejected_with_a_typed_error() {
        let parse = |line: &str| {
            Args::parse(
                line.split_whitespace()
                    .map(String::from)
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        };
        let rejects = |err: ArgError, flag: &str| {
            assert!(
                err.0.starts_with(&format!("--{flag} must be finite")),
                "{err}"
            );
        };
        // Unchecked, a `nan` rate panics in the trace generator, an `inf`
        // duration in `SimDuration`, and a `nan` multiplier passes `< 1`.
        for (flag, value) in [("rps", "nan"), ("duration", "inf"), ("slo-mult", "nan")] {
            rejects(
                simulate(&parse(&format!("simulate --{flag} {value}"))).unwrap_err(),
                flag,
            );
            rejects(
                compare(&parse(&format!("compare --{flag} {value}"))).unwrap_err(),
                flag,
            );
        }
        rejects(
            replay(&parse(
                "replay --trace-file /nonexistent/x.csv --slo-mult nan",
            ))
            .unwrap_err(),
            "slo-mult",
        );
    }

    #[test]
    fn duration_beyond_the_clock_is_rejected_with_a_typed_error() {
        // Unchecked, the clock saturates and the trace generator sizes
        // its BE rotation schedule from the saturated span, aborting on
        // a multi-terabyte allocation.
        for cmd in ["simulate", "compare", "gen-trace --out /nonexistent/x.csv"] {
            let line = format!("{cmd} --duration 1e300");
            let args = Args::parse(
                line.split_whitespace()
                    .map(String::from)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            let err = match cmd {
                "simulate" => simulate(&args),
                "compare" => compare(&args),
                _ => gen_trace(&args),
            }
            .unwrap_err();
            assert!(
                err.0
                    .starts_with("--duration 1e300 is beyond the simulated clock"),
                "{err}"
            );
        }
    }

    #[test]
    fn durations_past_the_trace_caps_are_rejected_before_allocating() {
        // Unchecked, 1e9 s aborts on the materialised arrival instants
        // and 1e12 s on the BE rotation schedule; 1e6 s at the default
        // 5000 rps is 5e9 requests.
        for (duration, reason) in [
            ("1e12", "is 1e12 s, over the cap of 1e8 s"),
            ("1e9", "is 1e9 s, over the cap of 1e8 s"),
            ("1e6", "is 1e6 s, which at 5000 rps is about 5e9 requests"),
        ] {
            for cmd in [
                "simulate --workers 8",
                "compare",
                "gen-trace --out /nonexistent/x.csv",
            ] {
                let line = format!("{cmd} --duration {duration}");
                let args = Args::parse(
                    line.split_whitespace()
                        .map(String::from)
                        .collect::<Vec<_>>(),
                )
                .unwrap();
                let err = match cmd.split(' ').next() {
                    Some("simulate") => simulate(&args),
                    Some("compare") => compare(&args),
                    _ => gen_trace(&args),
                }
                .unwrap_err();
                assert!(err.0.starts_with(&format!("--duration {reason}")), "{err}");
            }
        }
        // The request cap scales with the rate: 1e6 s at 50 rps fits.
        let args = Args::parse(["simulate", "--duration", "1e6", "--rps", "50"].map(String::from))
            .unwrap();
        assert!(build_run(&args).is_ok());
    }

    #[test]
    fn procurement_and_availability_parse() {
        // Every slug and alias, in either case, resolves identically in
        // the CLI and the scenario DSL, and `to_toml` writes the slug.
        let procurement = ProcurementPolicy::ALL
            .map(|p| (p.slug(), p))
            .into_iter()
            .chain(ProcurementPolicy::ALIASES);
        for (name, p) in procurement {
            for spelled in [name.to_string(), name.to_ascii_uppercase()] {
                assert_eq!(parse_procurement(&spelled).unwrap(), p);
                let spec = scenario_fleet(&format!("procurement = \"{spelled}\""));
                assert_eq!(spec.fleet.procurement, p);
                let line = format!("procurement = \"{}\"", p.slug());
                assert!(spec.to_toml().contains(&line), "{line}");
            }
        }
        let availability = SpotAvailability::ALL
            .map(|a| (a.slug(), a))
            .into_iter()
            .chain(SpotAvailability::ALIASES);
        for (name, a) in availability {
            for spelled in [name.to_string(), name.to_ascii_uppercase()] {
                assert_eq!(parse_availability(&spelled).unwrap(), a);
                let spec = scenario_fleet(&format!("availability = \"{spelled}\""));
                assert_eq!(spec.fleet.availability, a);
                let line = format!("availability = \"{}\"", a.slug());
                assert!(spec.to_toml().contains(&line), "{line}");
            }
        }
        // The provider has no CLI flag; the DSL reads it from the same table.
        for p in Provider::ALL {
            let spec = scenario_fleet(&format!("provider = \"{}\"", p.slug().to_ascii_uppercase()));
            assert_eq!(spec.fleet.provider, p);
            assert!(spec
                .to_toml()
                .contains(&format!("provider = \"{}\"", p.slug())));
        }
        let err =
            protean_experiments::scenario::parse("name = \"x\"\n[fleet]\nprovider = \"ibm\"\n");
        assert_eq!(
            err.unwrap_err().to_string(),
            "line 3: unknown provider 'ibm' (aws | azure | gcp)"
        );
        assert_eq!(
            parse_procurement("free").unwrap_err().0,
            "unknown procurement 'free' (ondemand | spot | hybrid)"
        );
        assert_eq!(
            parse_availability("none").unwrap_err().0,
            "unknown availability 'none' (high | moderate | low)"
        );
    }
}
