//! The CLI subcommands. Each writes its report to an output the caller
//! flushes.

use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use protean_cluster::{run_simulation_on, SchemeBuilder, SimulationResult};
use protean_experiments::harness::{run_grid, thread_count, thread_count_or, GridCell};
use protean_experiments::paper::{self, EXPERIMENTS};
use protean_experiments::report::{scheme_table, table};
use protean_experiments::scenario::{
    self, CompiledScenario, ScenarioError, ScenarioSpec, TraceSource, RUN_FLAGS,
};
use protean_experiments::{run_scheme, schemes, PaperSetup};
use protean_gpu::{find_placement, Geometry};
use protean_metrics::record::Class;
use protean_models::{catalog, Domain};
use protean_trace::TraceConfig;

use crate::args::{ArgError, Args};

/// Top-level usage text.
pub const USAGE: &str = "\
protean-cli — PROTEAN GPU-serverless simulator

USAGE:
  protean-cli simulate  [flags]  run one scheme and print its report
  protean-cli compare   [flags]  run all primary schemes side by side
  protean-cli replay    [flags]  replay a CSV trace file (--trace-file)
  protean-cli gen-trace [flags]  write a generated trace to --out
  protean-cli reproduce [flags]  the paper's tables and figures
  protean-cli catalog            list the 22 workload models
  protean-cli geometries         list valid MIG geometries + placements
  protean-cli scenario list      list the scenario catalog (--dir)
  protean-cli scenario run       run scenarios with report cards
  protean-cli help               this text

Each run flag sets one scenario key (see README), checked as in a file.

FLAGS (simulate):
  --model <name>          workload model, e.g. resnet50, vgg19, gpt2
                          (see `catalog`; default resnet50)
  --trace <kind>          constant | wiki | twitter | pulse (default wiki)
  --rps <f64>             arrival rate; default 5000 vision / 128 language
  --duration <secs>       trace length (default 60; at most 1e8 s and
                          1e8 requests at --rps)
  --strict-frac <f64>     strict share of requests (default 0.5)
  --workers <n>           cluster size (default 8)
  --seed <u64>            root seed (default 42)
  --slo-mult <f64>        SLO = mult x 7g latency (default 3)
  --procurement <p>       ondemand | spot | hybrid (default ondemand;
                          on-demand also accepted)
  --availability <a>      high | moderate | low (default high; medium
                          also accepted)
  --scheme <name>         protean | oracle | molecule | infless (or
                          llama) | naive | migonly | mpsmig | smart |
                          gpulet (default protean)
  --per-model <bool>      also print a per-model table

FLAGS (compare):
  --model / --trace / --rps / --duration / --strict-frac / --workers /
  --seed / --slo-mult / --procurement / --availability as above
  --threads <n>           worker threads for the scheme grid (default
                          PROTEAN_THREADS, then the machine's available
                          parallelism)

FLAGS (replay):
  --trace-file <path>     CSV produced by gen-trace (arrival_us,model,strict)
  --scheme / --workers / --seed / --slo-mult as above

FLAGS (gen-trace):
  --out <path>            output CSV path
  --model / --trace / --rps / --duration / --strict-frac / --seed as above

FLAGS (reproduce):
  --only <id>             one experiment, e.g. fig05_slo_vision (default
                          every one, in the paper's order)
  --duration <secs>       trace length per run (default 120; the load
                          sweep and the §7 seeds cap it at 60)
  --seed <u64>            root seed (default 42; the §7 runs use seeds
                          1000-1009)
  --out <dir>             write one <id>.txt per experiment into <dir>

FLAGS (scenario list / scenario run):
  --dir <path>            scenario catalog directory (default scenarios)
  --name <scenario>       run only the scenario with this name
  --smoke <bool>          scale request rates to 25% (never durations;
                          scripted evictions stay at absolute times)
  --out <path>            write one <name>.json report card per scenario
                          into this directory
";

/// The run flags ([`RUN_FLAGS`]) that describe a generated trace.
const TRACE: [&str; 5] = ["model", "trace", "rps", "duration", "strict-frac"];
/// The run flags that describe the fleet.
const FLEET: [&str; 3] = ["workers", "seed", "slo-mult"];
/// The run flags that describe the VM market.
const MARKET: [&str; 2] = ["procurement", "availability"];

/// The flags `command` accepts: the run flags it reads, then its own.
fn flags_of(command: &str) -> Vec<&'static str> {
    let groups: &[&[&str]] = match command {
        "simulate" => &[&TRACE, &FLEET, &MARKET, &["scheme", "per-model"]],
        "compare" => &[&TRACE, &FLEET, &MARKET, &["threads"]],
        "replay" => &[&["trace-file", "scheme"], &FLEET],
        "gen-trace" => &[&TRACE, &["seed", "out"]],
        "reproduce" => &[&["only", "duration", "seed", "out"]],
        // `scenario list` and `scenario run`.
        _ => &[&["dir", "name", "smoke", "out"]],
    };
    groups.concat()
}

/// The scenario every run command starts from: `paper_default`'s fleet
/// (a test pins it) and a 60 s wiki trace of batched arrivals.
const BASE: &str = "name = \"cli\"
[fleet]
workers = 8
revocation_check_secs = 60
vm_startup_secs = 30
procurement_retry_secs = 60
[trace]
kind = \"wiki\"
batch_arrivals = true
";

impl From<ScenarioError> for ArgError {
    fn from(e: ScenarioError) -> Self {
        ArgError(e.to_string())
    }
}

/// Why a command stopped.
#[derive(Debug)]
pub enum Failure {
    /// Its input was refused.
    Input(ArgError),
    /// Writing its output failed.
    Output(io::Error),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Input(e) => e.fmt(f),
            Failure::Output(e) => write!(f, "cannot write output: {e}"),
        }
    }
}

impl From<ArgError> for Failure {
    fn from(e: ArgError) -> Self {
        Failure::Input(e)
    }
}

impl From<ScenarioError> for Failure {
    fn from(e: ScenarioError) -> Self {
        Failure::Input(e.into())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Output(e)
    }
}

/// The run `command`'s `args` describe: [`BASE`] with each run flag
/// given overriding its key, checked as that key is in a scenario file.
/// Without `--rps` the rate is 5000 for a vision model, 128 for a
/// language one.
fn compile_run(command: &str, args: &Args) -> Result<CompiledScenario, ArgError> {
    // `--trace-file` is a path as given, not one relative to a file.
    Ok(run_spec(command, args)?.compile(Path::new(""), false))
}

/// [`compile_run`]'s scenario, before it is compiled.
fn run_spec(command: &str, args: &Args) -> Result<ScenarioSpec, ArgError> {
    args.reject_unknown(&flags_of(command))?;
    let mut spec = scenario::parse(BASE)?;
    let mut given = Vec::new();
    for (flag, key) in RUN_FLAGS {
        if let Some(raw) = args.get(flag) {
            spec.set(key, flag, raw)?;
            given.push((flag, key));
        }
    }
    if args.get("rps").is_none() {
        spec.trace.rps = match catalog().profile(spec.trace.model).domain {
            Domain::Vision => 5000.0,
            Domain::Language => 128.0,
        };
    }
    spec.check_flags(&given)?;
    Ok(spec)
}

/// The scheme a run names; its key's row admits only known names.
fn scheme_of(run: &CompiledScenario) -> Box<dyn SchemeBuilder> {
    schemes::by_name(&run.scheme).expect("the scheme key admits only known schemes")
}

/// The trace a run generates: only `replay` takes `--trace-file`.
fn generated(run: &CompiledScenario) -> &TraceConfig {
    let TraceSource::Config(trace) = &run.trace else {
        unreachable!("only replay takes --trace-file")
    };
    trace
}

/// `simulate`: one scheme, full report.
pub fn simulate(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let run = compile_run("simulate", args)?;
    let row = run_scheme(&run.config, scheme_of(&run).as_ref(), generated(&run));
    scheme_table(out, std::slice::from_ref(&row))?;
    writeln!(out)?;
    writeln!(
        out,
        "  cost ${:.2} ({} evictions) · GPU util {:.1}% · mem util {:.1}% · {} reconfigs · {} cold starts",
        row.cost_usd,
        row.evictions,
        row.gpu_util_pct,
        row.mem_util_pct,
        row.reconfigs,
        row.result.cold_starts,
    )?;
    if args.get_or("per-model", false)? {
        let cat = catalog();
        let slo = SimulationResult::slo_fn(&cat, run.config.slo_multiplier);
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
        writeln!(out)?;
        table(
            out,
            &["model", "requests", "strict", "SLO%", "P99 ms"],
            &rows,
        )?;
    }
    Ok(())
}

/// `compare`: the primary line-up side by side.
pub fn compare(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    if args.get("scheme").is_some() {
        let msg = "--scheme does not apply to `compare` (it runs all primary schemes)";
        return Err(ArgError(msg.into()).into());
    }
    let run = compile_run("compare", args)?;
    let threads = args.get("threads").map(|_| args.get_or("threads", 1usize));
    let threads = thread_count_or(threads.transpose()?);
    let lineup = schemes::primary();
    let cells: Vec<GridCell<'_>> = lineup
        .iter()
        .map(|s| GridCell::new(run.config.clone(), s.as_ref(), generated(&run).clone()))
        .collect();
    let rows = run_grid(&cells, threads);
    Ok(scheme_table(out, &rows)?)
}

/// `catalog`: the 22 workload models.
pub fn catalog_cmd(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
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
    let headers = [
        "model", "domain", "class", "batch", "mem GB", "7g ms", "FBR",
    ];
    Ok(table(out, &headers, &rows)?)
}

/// `geometries`: every valid MIG geometry with a physical placement.
pub fn geometries(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
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
    let headers = ["geometry", "compute", "memory", "placement (slice@start)"];
    table(out, &headers, &rows)?;
    Ok(writeln!(out, "\n  {} valid geometries", all.len())?)
}

/// `replay`: run a scheme over a CSV trace file.
pub fn replay(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let run = compile_run("replay", args)?;
    let TraceSource::Csv(_) = &run.trace else {
        return Err(ArgError("replay requires --trace-file <path>".into()).into());
    };
    let trace = run.trace.load(run.config.seed)?;
    writeln!(
        out,
        "  replaying {} requests over {}",
        trace.len(),
        trace.duration()
    )?;
    let result = run_simulation_on(&run.config, scheme_of(&run).as_ref(), trace);
    let cat = catalog();
    let slo = SimulationResult::slo_fn(&cat, run.config.slo_multiplier);
    let p99 = |class| result.metrics.latency_percentile_ms(class, 0.99);
    writeln!(
        out,
        "  scheme {} · SLO {:.2}% · strict P99 {:.1} ms · BE P99 {:.1} ms · censored {}",
        result.scheme,
        result.metrics.slo_compliance(&slo) * 100.0,
        p99(Class::Strict).unwrap_or(0.0),
        p99(Class::BestEffort).unwrap_or(0.0),
        result.censored,
    )?;
    Ok(())
}

/// `gen-trace`: write a generated trace to a CSV file.
pub fn gen_trace(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let run = compile_run("gen-trace", args)?;
    let path = args
        .get("out")
        .ok_or_else(|| ArgError("gen-trace requires --out <path>".into()))?;
    let trace = run.trace.load(run.config.seed)?;
    let file =
        std::fs::File::create(path).map_err(|e| ArgError(format!("cannot create {path}: {e}")))?;
    trace
        .write_csv(std::io::BufWriter::new(file))
        .map_err(|e| ArgError(format!("write failed: {e}")))?;
    writeln!(
        out,
        "  wrote {} requests ({} strict) to {path}",
        trace.stats().total,
        trace.stats().strict
    )?;
    Ok(())
}

/// `reproduce`: the paper's tables and figures, one row of
/// [`EXPERIMENTS`] each, to `out` or to one `<id>.txt` per row.
pub fn reproduce(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    // `--duration` and `--seed` set the keys `simulate`'s do, checked on
    // its 5000 rps wiki run, so the trace caps hold here too.
    let spec = run_spec("reproduce", args)?;
    let mut setup = PaperSetup::default();
    if args.get("duration").is_some() {
        setup.duration_secs = spec.trace.duration_secs;
    }
    if args.get("seed").is_some() {
        setup.seed = spec.fleet.seed;
    }
    let rows = match args.get("only") {
        None => EXPERIMENTS.iter().collect(),
        Some(id) => vec![paper::find(id).ok_or_else(|| {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|x| x.id).collect();
            ArgError(format!(
                "--only: unknown experiment '{id}' ({})",
                ids.join(" | ")
            ))
        })?],
    };
    let threads = thread_count();
    let Some(dir) = args.get("out").map(Path::new) else {
        return Ok(rows.iter().try_for_each(|x| x.run(&setup, threads, out))?);
    };
    std::fs::create_dir_all(dir)
        .map_err(|e| ArgError(format!("cannot create {}: {e}", dir.display())))?;
    for x in rows {
        let path = dir.join(format!("{}.txt", x.id));
        let cannot = |e| ArgError(format!("cannot write {}: {e}", path.display()));
        let mut file = io::BufWriter::new(std::fs::File::create(&path).map_err(cannot)?);
        x.run(&setup, threads, &mut file)
            .and_then(|()| file.flush())
            .map_err(cannot)?;
        writeln!(out, "  wrote {}", path.display())?;
    }
    Ok(())
}

/// `scenario list` / `scenario run`: the declarative adversarial
/// scenario catalog (see `scenarios/` and the scenario DSL docs).
pub fn scenario(action: Option<&str>, args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    args.reject_unknown(&flags_of("scenario"))?;
    let dir = PathBuf::from(args.get("dir").unwrap_or("scenarios"));
    let files = scenario::catalog_files(&dir)?;
    if files.is_empty() {
        let msg = format!("no scenario files (*.toml) found in {}", dir.display());
        return Err(ArgError(msg).into());
    }
    let specs: Vec<(PathBuf, ScenarioSpec)> = files
        .iter()
        .map(|f| scenario::load_file(f).map(|s| (f.clone(), s)))
        .collect::<Result<_, _>>()?;
    match action {
        Some("list") => {
            let rows: Vec<Vec<String>> = specs
                .iter()
                .map(|(f, s)| {
                    let file = f.file_name().unwrap_or_default().to_string_lossy();
                    vec![s.name.clone(), file.into_owned(), s.description.clone()]
                })
                .collect();
            Ok(table(out, &["scenario", "file", "description"], &rows)?)
        }
        Some("run") => {
            let smoke: bool = args.get_or("smoke", false)?;
            let only = args.get("name");
            let out_dir = args.get("out").map(PathBuf::from);
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
                ))
                .into());
            }
            let mut outcomes = Vec::with_capacity(selected.len());
            for (file, spec) in selected {
                let base = file.parent().unwrap_or(Path::new("."));
                let outcome = scenario::run(spec, base, smoke)?;
                if let Some(d) = &out_dir {
                    let path = d.join(format!("{}.json", spec.name));
                    std::fs::write(&path, outcome.to_json())
                        .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;
                }
                outcomes.push(outcome);
            }
            let headers = scenario::card_headers();
            let rows: Vec<Vec<String>> = outcomes.iter().map(|o| o.table_row()).collect();
            table(out, &headers, &rows)?;
            writeln!(
                out,
                "\n  {} scenario(s) green: audited and unaudited digests identical, audits clean{}",
                outcomes.len(),
                if smoke { " (smoke rates)" } else { "" }
            )?;
            Ok(())
        }
        Some(other) => {
            Err(ArgError(format!("unknown scenario action '{other}' (list | run)")).into())
        }
        None => Err(ArgError("scenario requires an action: list | run".into()).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_cluster::ClusterConfig;
    use protean_models::ModelId;
    use protean_sim::SimDuration;
    use protean_spot::{ProcurementPolicy, Provider, SpotAvailability};
    use protean_trace::TraceShape;

    /// `simulate`'s run for the flag tokens `flags`.
    fn simulate_run(flags: &[&str]) -> Result<CompiledScenario, ArgError> {
        let tokens = ["simulate"].iter().chain(flags).map(|t| t.to_string());
        compile_run("simulate", &Args::parse(tokens).unwrap())
    }

    #[test]
    fn model_names_resolve_loosely() {
        let model = |name| simulate_run(&["--model", name]).map(|r| generated(&r).strict_model);
        assert_eq!(model("resnet50").unwrap(), ModelId::ResNet50);
        assert_eq!(model("ResNet 50").unwrap(), ModelId::ResNet50);
        assert_eq!(model("GPT-2").unwrap(), ModelId::Gpt2);
        assert_eq!(model("shufflenetv2").unwrap(), ModelId::ShuffleNetV2);
        assert!(model("resnet5000").is_err());
        // Normalising a display name yields its slug, for every model.
        for m in ModelId::ALL {
            assert_eq!(model(m.name()).unwrap(), m, "{}", m.name());
            assert_eq!(model(m.slug()).unwrap(), m, "{}", m.slug());
        }
    }

    /// A scenario whose `[fleet]` section is `fleet`.
    fn scenario_fleet(fleet: &str) -> ScenarioSpec {
        scenario::parse(&format!("name = \"x\"\n[fleet]\n{fleet}\n"))
            .unwrap_or_else(|e| panic!("{fleet}: {e}"))
    }

    #[test]
    fn schemes_resolve() {
        for name in schemes::names() {
            for spelled in [name.to_string(), name.to_ascii_uppercase()] {
                let cli = scheme_of(&simulate_run(&["--scheme", &spelled]).unwrap()).name();
                let dsl = scenario_fleet(&format!("scheme = \"{spelled}\""));
                assert_eq!(schemes::by_name(&dsl.fleet.scheme).unwrap().name(), cli);
            }
        }
        assert_eq!(schemes::names().count(), 10);
        let err = simulate_run(&["--scheme", "unknown"]).unwrap_err();
        assert_eq!(
            err.0,
            "--scheme: unknown scheme 'unknown' (protean | oracle | molecule | infless | naive | migonly | mpsmig | smart | gpulet)"
        );
    }

    #[test]
    fn compile_run_applies_defaults_and_validates() {
        let run = simulate_run(&[]).unwrap();
        assert_eq!(run.config, ClusterConfig::paper_default());
        let model = ModelId::ResNet50;
        let trace = TraceConfig {
            shape: TraceShape::wiki(5000.0),
            duration: SimDuration::from_secs(60.0),
            strict_model: model,
            strict_fraction: 0.5,
            be_pool: catalog().opposite_pool(model),
            be_rotation_period: SimDuration::from_secs(20.0),
            batch_arrivals: true,
        };
        assert_eq!(generated(&run), &trace);
        assert!(simulate_run(&["--strict-frac", "1.5"]).is_err());
    }

    #[test]
    fn language_models_default_to_their_rate() {
        let run = simulate_run(&["--model", "bert"]).unwrap();
        match generated(&run).shape {
            TraceShape::WikiDiurnal { mean_rps, .. } => assert_eq!(mean_rps, 128.0),
            _ => panic!("expected wiki"),
        }
    }

    #[test]
    fn catalog_and_geometries_commands_run() {
        let none = Args::parse(Vec::new()).unwrap();
        catalog_cmd(&none, &mut io::sink()).unwrap();
        geometries(&none, &mut io::sink()).unwrap();
        // Unknown flags are rejected.
        let bad = Args::parse(
            "catalog --oops 1"
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(catalog_cmd(&bad, &mut io::sink()).is_err());
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
        assert!(compare(&a, &mut io::sink()).is_err());
        let r = Args::parse(vec!["replay".to_string()]).unwrap();
        assert!(replay(&r, &mut io::sink()).is_err());
        let missing = Args::parse(
            "replay --trace-file /nonexistent/x.csv"
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(replay(&missing, &mut io::sink()).is_err());
        let g = Args::parse(vec!["gen-trace".to_string()]).unwrap();
        assert!(
            gen_trace(&g, &mut io::sink()).is_err(),
            "gen-trace without --out must fail"
        );
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
        gen_trace(&a, &mut io::sink()).unwrap();
        let toks = format!("replay --trace-file {} --workers 2", path.display());
        let a = Args::parse(
            toks.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        replay(&a, &mut io::sink()).unwrap();

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
        let err = replay(&a, &mut io::sink()).unwrap_err();
        assert!(err.to_string().contains("bad.csv"), "no path in '{err}'");
        assert!(err.to_string().contains("line 2"), "no line in '{err}'");

        // Nonsensical replay flags are rejected up front.
        let toks = format!("replay --trace-file {} --workers 0", path.display());
        let a = Args::parse(
            toks.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(replay(&a, &mut io::sink())
            .unwrap_err()
            .to_string()
            .contains("--workers"));
        let toks = format!("replay --trace-file {} --slo-mult 0.5", path.display());
        let a = Args::parse(
            toks.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(replay(&a, &mut io::sink())
            .unwrap_err()
            .to_string()
            .contains("--slo-mult"));
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
        compare(
            &parse(
                "compare --availability low --procurement hybrid --workers 2 --rps 50 --duration 2",
            ),
            &mut io::sink(),
        )
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
            let err = simulate(&parse(&format!("simulate --{flag}")), &mut io::sink()).unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert!(
                err.to_string()
                    .starts_with(&format!("unknown flag --{name} ")),
                "{err}"
            );
        }
        for flag in &unknown[1..] {
            let err = compare(&parse(&format!("compare --{flag}")), &mut io::sink()).unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert!(
                err.to_string()
                    .starts_with(&format!("unknown flag --{name} ")),
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
        let rejects = |err: Failure, flag: &str, key: &str, value: &str| {
            let text = &err.to_string();
            assert!(
                text.starts_with(&format!("--{flag}: '{key}' must be ")),
                "{err}"
            );
            assert!(text.ends_with(&format!(", got {value}")), "{err}");
        };
        // Unchecked, a `nan` rate panics in the trace generator, an `inf`
        // duration in `SimDuration`, and a `nan` multiplier passes `< 1`.
        for (flag, key, value) in [
            ("rps", "rps", "nan"),
            ("duration", "duration_secs", "inf"),
            ("slo-mult", "slo_mult", "nan"),
        ] {
            let line = format!("simulate --{flag} {value}");
            rejects(
                simulate(&parse(&line), &mut io::sink()).unwrap_err(),
                flag,
                key,
                value,
            );
            let line = format!("compare --{flag} {value}");
            rejects(
                compare(&parse(&line), &mut io::sink()).unwrap_err(),
                flag,
                key,
                value,
            );
        }
        let line = "replay --trace-file /nonexistent/x.csv --slo-mult nan";
        rejects(
            replay(&parse(line), &mut io::sink()).unwrap_err(),
            "slo-mult",
            "slo_mult",
            "nan",
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
                "simulate" => simulate(&args, &mut io::sink()),
                "compare" => compare(&args, &mut io::sink()),
                _ => gen_trace(&args, &mut io::sink()),
            }
            .unwrap_err();
            assert!(
                err.to_string().starts_with(
                    "--duration: 'duration_secs' must be within the simulated clock (about 1.8e13 s), got 1e300"
                ),
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
                    Some("simulate") => simulate(&args, &mut io::sink()),
                    Some("compare") => compare(&args, &mut io::sink()),
                    _ => gen_trace(&args, &mut io::sink()),
                }
                .unwrap_err();
                let expected = format!("--duration: 'duration_secs' {reason}");
                assert!(err.to_string().starts_with(&expected), "{err}");
            }
        }
        // The request cap scales with the rate: 1e6 s at 50 rps fits.
        assert!(simulate_run(&["--duration", "1e6", "--rps", "50"]).is_ok());
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
                let run = simulate_run(&["--procurement", &spelled]).unwrap();
                assert_eq!(run.config.procurement, p);
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
                let run = simulate_run(&["--availability", &spelled]).unwrap();
                assert_eq!(run.config.availability, a);
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
        let err = scenario::parse("name = \"x\"\n[fleet]\nprovider = \"ibm\"\n");
        assert_eq!(
            err.unwrap_err().to_string(),
            "line 3: unknown provider 'ibm' (aws | azure | gcp)"
        );
        assert_eq!(
            simulate_run(&["--procurement", "free"]).unwrap_err().0,
            "--procurement: unknown procurement 'free' (ondemand | spot | hybrid)"
        );
        assert_eq!(
            simulate_run(&["--availability", "none"]).unwrap_err().0,
            "--availability: unknown availability 'none' (high | moderate | low)"
        );
    }

    #[test]
    fn readme_lists_each_run_flag_with_its_key() {
        let readme = include_str!("../../../README.md");
        for (flag, key) in RUN_FLAGS {
            let (section, name) = key.split_once('.').unwrap();
            let row = format!("| `--{flag}` | `[{section}] {name}` |");
            assert!(readme.contains(&row), "README lacks {row}");
        }
    }

    /// The flags a USAGE line lists first: `--a <x>  doc` lists `a`,
    /// `--a / --b as above` lists both.
    fn listed_flags(line: &str) -> Vec<&str> {
        let tokens = line
            .split_whitespace()
            .take_while(|t| t.starts_with("--") || *t == "/");
        tokens.filter_map(|t| t.strip_prefix("--")).collect()
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_command_accepts() {
        let mut listed: Vec<(&str, Vec<&str>)> = Vec::new();
        for block in USAGE.split("\nFLAGS (").skip(1) {
            let (commands, body) = block.split_once("):\n").unwrap();
            let flags: Vec<&str> = body.lines().flat_map(listed_flags).collect();
            listed.extend(commands.split(" / ").map(|c| (c, flags.clone())));
        }
        let commands = [
            "simulate",
            "compare",
            "replay",
            "gen-trace",
            "reproduce",
            "scenario list",
            "scenario run",
        ];
        let blocks: Vec<&str> = listed.iter().map(|(c, _)| *c).collect();
        assert_eq!(blocks, commands);
        for (command, mut usage) in listed {
            let mut accepted = flags_of(command.split(' ').next().unwrap());
            accepted.sort_unstable();
            usage.sort_unstable();
            assert_eq!(usage, accepted, "{command}");
        }
        // `--trace` lists the `kind` row's slugs, as its refusal does.
        let refusal = ScenarioSpec::default()
            .set("trace.kind", "trace", "?")
            .unwrap_err();
        let refusal = refusal.to_string();
        let slugs = refusal.rsplit_once(" (").unwrap().1.trim_end_matches(')');
        let line = USAGE
            .lines()
            .find(|l| l.starts_with("  --trace <kind>"))
            .unwrap();
        let documented = line.split_once("<kind>").unwrap().1.trim();
        assert_eq!(documented, format!("{slugs} (default wiki)"));
    }
}
