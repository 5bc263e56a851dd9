//! Scenario DSL: declarative adversarial market/trace/fleet scripts.
//!
//! One TOML file declares everything a run needs — a scripted spot
//! market (eviction storms with notice-lead jitter, denial bursts), a
//! trace (diurnal base plus superimposed flash-crowd bursts, or a
//! user-authored CSV), and a fleet/scheme configuration — and this
//! module compiles it onto the existing engine types:
//! [`ScriptedMarket`], [`TraceConfig`] and [`ClusterConfig`]. Every
//! scenario runs through the engine **twice** — audited and unaudited —
//! and the runner asserts a clean audit and bit-identical digests
//! between the arms, so the catalog doubles as a standing differential
//! test of the engine and its auditor under adversarial schedules.
//!
//! [`ScenarioSpec::compile`] is the one lowering of a spec and
//! [`CompiledScenario::simulate`] the one way to run it: the CLI, every
//! paper row, the goldens and the catalog all go through them. The
//! spot market is `[fleet] availability`'s, rolled by the engine,
//! unless `[market]` scripts something (a script, `deny_rest`,
//! evictions or storms); then the run uses that script alone, which
//! grants every roll past its end unless `deny_rest` is set.
//!
//! The parser is a deliberate TOML *subset* (single-line scalars,
//! `[table]` and `[[array-of-tables]]` headers, `#` comments, no
//! nesting beyond one dotted level) implemented by hand because the
//! workspace takes no serde/toml dependency. It is strict where it
//! matters: unknown keys and unknown sections fail loudly with the
//! offending line number — the `deny_unknown_fields` contract — and
//! every value is type- and range-checked at parse time, failing with
//! its line and a message that names its key. Integer keys are read
//! from their literal exactly, not through `f64`. Scheme, procurement,
//! availability, provider and trace-kind names are matched ignoring
//! ASCII case; a model may be given by slug or display name.
//!
//! Each section has one key table: a row per key gives its name, kind,
//! range, default (the section's `Default`) or "required", doc text, and
//! the spec field it fills. Parsing, the range checks, [`ScenarioSpec::to_toml`]
//! and the schema below are all walks over those rows. A unit test
//! renders the tables and compares them with this block. The CLI's run
//! flags ([`RUN_FLAGS`]) set the same keys through the same rows and
//! checks across keys, and a refusal names the flag instead of a line.
//!
//! # Schema
//!
//! ```toml
//! name = "<text>"                     # required; ASCII letters, digits, _ and -
//! description = ""
//!
//! [fleet]
//! workers = 4                         # an integer >= 1 and <= 1000000
//! seed = 42                           # an integer >= 0; root seed
//! scheme = "protean"                  # protean | oracle | molecule | infless | naive | migonly | mpsmig | smart | gpulet
//! procurement = "ondemand"            # ondemand | spot | hybrid
//! availability = "high"               # high | moderate | low
//! provider = "aws"                    # aws | azure | gcp
//! slo_mult = 3                        # a number >= 1; strict SLO
//! revocation_check_secs = 5           # a span of at least 0.000001 s
//! vm_startup_secs = 5                 # a span of at least 0 s; VM grant to serving
//! procurement_retry_secs = 5          # a span of at least 0.000001 s
//! prewarm = 4                         # an integer >= 0 and <= 10000; per (worker, model)
//! cold_start_secs = 8                 # a span of at least 0 s
//! keep_alive_secs = 600               # a span of at least 0 s; idle containers kept
//! reconfig_delay_secs = 2             # a span of at least 0 s; MIG reconfiguration
//!
//! [trace]
//! csv = "<text>"                      # exclusive with all other keys and bursts
//! model = "resnet50"                  # strict model
//! kind = "constant"                   # constant | wiki | twitter | pulse
//! rps = 200                           # a number > 0 and <= 100000000
//! duration_secs = 60                  # a span of at least 0.000001 s; <= 1e8 and <= 1e8 / rps
//! strict_fraction = 0.5               # a number >= 0 and <= 1
//! be_pool = ["<model>", ...]          # an array of model slugs; [] is the opposite pool
//! be_rotation_secs = 20               # a span of at least 0.000001 s; > duration_secs / 1e7
//! batch_arrivals = false
//! pulse_low_rps = 0                   # a number >= 0 and <= 100000000; <= rps
//! pulse_period_secs = 10              # a span of at least 0.000001 s
//! pulse_duty = 0.5                    # a number > 0 and <= 1
//!
//! [[trace.burst]]
//! start_secs = <secs>                 # required; a span of at least 0 s
//! duration_secs = <secs>              # required; a span of at least 0.000001 s
//! add_rps = <number>                  # required; a number > 0 and <= 100000000
//!
//! [market]
//! script = ""                         # per-roll grant (g) / deny (d)
//! deny_rest = false                   # deny once the script ends
//!
//! [[market.eviction]]
//! worker = <integer>                  # required; an integer >= 0
//! at_secs = <secs>                    # required; a span of at least 0 s; arms at the next check
//! lead_secs = <secs>                  # required; a span of at least 0 s; notice lead
//!
//! [[market.storm]]
//! workers = [<worker>, ...]           # required; a non-empty array of worker indices; in lead-draw order
//! at_secs = <secs>                    # required; a span of at least 0 s
//! lead_secs = <secs>                  # required; a span of at least 0 s
//! lead_jitter_secs = 0                # a span of at least 0 s; lead ~ U[lead, lead + jitter]
//! jitter_seed = 0                     # an integer >= 0
//!
//! [expect]
//! min_evictions = <integer>           # at least this many evictions
//! min_reconfigs = <integer>           # at least this many reconfigs
//! max_censored = <integer>            # at most this many censored
//! ```
//!
//! Storm leads are drawn from a dedicated labelled RNG stream
//! (`RngFactory::new(jitter_seed)`, stream `scenario.storm.lead`
//! indexed by storm position), in the listed worker order — fully
//! deterministic, independent of the engine's own streams.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::ops::{RangeBounds, RangeInclusive};
use std::path::{Path, PathBuf};

use protean_cluster::{
    simulate, Arrivals, ClusterConfig, Observe, SchemeBuilder, ScriptedMarket, SimulationResult,
    SpotOracle,
};
use protean_metrics::record::Class;
use protean_models::{Domain, ModelId, DEFAULT_SLO_MULTIPLIER};
use protean_sim::{RngFactory, SimDuration, SimTime};
use protean_spot::{ProcurementPolicy, Provider, SpotAvailability};
use protean_trace::{
    check_rotation_schedule, check_trace_size, BurstWindow, Trace, TraceConfig, TraceShape,
    MAX_MATERIALISED_REQUESTS,
};

use crate::golden;
use crate::runner::SchemeRow;
use crate::schemes;
use crate::setup::{LANGUAGE_RPS, VISION_RPS};

/// Smoke mode scales request *rates* by this factor. Durations are
/// never scaled: scripted evictions fire at absolute times, and
/// truncating the clock would make storm scenarios vacuous.
pub const SMOKE_RPS_FACTOR: f64 = 0.25;

/// Error from parsing, compiling or running a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A malformed or rejected scenario file (1-based line number).
    Parse {
        /// Line the error points at.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// A command-line flag's value that a key's row refused, or that
    /// failed a check across keys (see [`ScenarioSpec::set`]).
    Flag {
        /// The flag, without its dashes.
        flag: String,
        /// What was wrong.
        msg: String,
    },
    /// A semantically invalid scenario or a failed run-time assertion
    /// (digest divergence, audit violation, unmet expectation).
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            ScenarioError::Flag { flag, msg } => write!(f, "--{flag}: {msg}"),
            ScenarioError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn perr<T>(line: usize, msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError::Parse {
        line,
        msg: msg.into(),
    })
}

// ---------------------------------------------------------------------------
// Spec types (what a file parses into; `PartialEq` powers round-trip tests)
// ---------------------------------------------------------------------------

/// Base trace shape selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Flat rate.
    Constant,
    /// Wikipedia-like diurnal curve.
    Wiki,
    /// Twitter-like bursty curve.
    Twitter,
    /// ON/OFF square wave (see the `pulse_*` keys).
    Pulse,
}

impl TraceKind {
    const ALL: [TraceKind; 4] = [Self::Constant, Self::Wiki, Self::Twitter, Self::Pulse];

    /// The name scenario files spell, in declaration order.
    fn slug(self) -> &'static str {
        ["constant", "wiki", "twitter", "pulse"][self as usize]
    }

    /// Resolves a slug, ignoring ASCII case.
    fn from_slug(name: &str) -> Result<TraceKind, String> {
        let all = TraceKind::ALL;
        all.into_iter()
            .find(|k| k.slug().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let slugs = all.map(TraceKind::slug).join(" | ");
                format!("unknown trace kind '{name}' ({slugs})")
            })
    }
}

/// `[fleet]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Worker count (default 4).
    pub workers: usize,
    /// Root seed (default 42).
    pub seed: u64,
    /// Scheme name, resolved via [`schemes::by_name`].
    pub scheme: String,
    /// VM procurement policy.
    pub procurement: ProcurementPolicy,
    /// Spot availability regime. It drives the spot market unless
    /// `[market]` scripts one; a scripted market grants every roll past
    /// its script unless `deny_rest` is set.
    pub availability: SpotAvailability,
    /// Pricing provider.
    pub provider: Provider,
    /// Strict SLO multiplier. It only scores a run: the engine never
    /// sees it.
    pub slo_mult: f64,
    /// Revocation check interval, seconds.
    pub revocation_check_secs: f64,
    /// VM grant-to-serving delay, seconds.
    pub vm_startup_secs: f64,
    /// Procurement retry interval, seconds.
    pub procurement_retry_secs: f64,
    /// Warm containers pre-provisioned per (worker, model).
    pub prewarm: usize,
    /// Container cold-start latency, seconds.
    pub cold_start_secs: f64,
    /// How long an idle warm container is kept, seconds.
    pub keep_alive_secs: f64,
    /// MIG reconfiguration latency, seconds.
    pub reconfig_delay_secs: f64,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            workers: 4,
            seed: 42,
            scheme: "protean".into(),
            procurement: ProcurementPolicy::OnDemandOnly,
            availability: SpotAvailability::High,
            provider: Provider::Aws,
            slo_mult: DEFAULT_SLO_MULTIPLIER,
            revocation_check_secs: 5.0,
            vm_startup_secs: 5.0,
            procurement_retry_secs: 5.0,
            prewarm: 4,
            cold_start_secs: 8.0,
            keep_alive_secs: 600.0,
            reconfig_delay_secs: 2.0,
        }
    }
}

/// `[[trace.burst]]` entry: a flash crowd added on top of the base.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BurstSpec {
    /// Window start, seconds.
    pub start_secs: f64,
    /// Window length, seconds.
    pub duration_secs: f64,
    /// Extra arrival rate inside the window.
    pub add_rps: f64,
}

/// `[trace]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// CSV trace path (relative to the scenario file). Exclusive with
    /// every generated-trace key.
    pub csv: Option<String>,
    /// Strict model.
    pub model: ModelId,
    /// Base shape.
    pub kind: TraceKind,
    /// Mean (wiki/constant) or peak (twitter) or ON (pulse) rate.
    pub rps: f64,
    /// Trace length, seconds.
    pub duration_secs: f64,
    /// Fraction of arrivals that are strict.
    pub strict_fraction: f64,
    /// Best-effort rotation pool; empty = the model's opposite
    /// interference pool (the paper's default mix).
    pub be_pool: Vec<ModelId>,
    /// BE pool rotation period, seconds.
    pub be_rotation_secs: f64,
    /// Draw whole batches per arrival instant instead of singletons.
    pub batch_arrivals: bool,
    /// Pulse OFF rate (kind = pulse only).
    pub pulse_low_rps: f64,
    /// Pulse period, seconds (kind = pulse only).
    pub pulse_period_secs: f64,
    /// Pulse ON duty fraction (kind = pulse only).
    pub pulse_duty: f64,
    /// Flash-crowd windows, additive over the base shape.
    pub bursts: Vec<BurstSpec>,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            csv: None,
            model: ModelId::ResNet50,
            kind: TraceKind::Constant,
            rps: 200.0,
            duration_secs: 60.0,
            strict_fraction: 0.5,
            be_pool: Vec::new(),
            be_rotation_secs: 20.0,
            batch_arrivals: false,
            pulse_low_rps: 0.0,
            pulse_period_secs: 10.0,
            pulse_duty: 0.5,
            bursts: Vec::new(),
        }
    }
}

/// `[[market.eviction]]` entry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvictionSpec {
    /// Target worker index.
    pub worker: usize,
    /// Notice arms at the first revocation check at or after this.
    pub at_secs: f64,
    /// Notice lead (reclaim delay), seconds.
    pub lead_secs: f64,
}

/// `[[market.storm]]` entry: correlated evictions with jittered leads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StormSpec {
    /// Workers hit by the storm, in lead-draw order.
    pub workers: Vec<usize>,
    /// Notice arm time for every member.
    pub at_secs: f64,
    /// Base notice lead, seconds.
    pub lead_secs: f64,
    /// Leads are drawn uniformly from `[lead, lead + jitter]`.
    pub lead_jitter_secs: f64,
    /// Seed of the dedicated jitter stream.
    pub jitter_seed: u64,
}

/// `[market]` section.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MarketSpec {
    /// Per-roll grant/deny prefix: `g` grants, `d` denies.
    pub script: String,
    /// Deny every roll after the script is exhausted.
    pub deny_rest: bool,
    /// Individually scripted evictions, in file order.
    pub evictions: Vec<EvictionSpec>,
    /// Correlated eviction storms, in file order (armed after the
    /// individual evictions).
    pub storms: Vec<StormSpec>,
}

/// `[expect]` section: post-run assertions the runner enforces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExpectSpec {
    /// The run must suffer at least this many evictions.
    pub min_evictions: Option<u64>,
    /// The run must complete at least this many MIG reconfigurations.
    pub min_reconfigs: Option<u64>,
    /// The run must censor at most this many requests.
    pub max_censored: Option<u64>,
}

/// A parsed scenario file; `Default` has every key's default.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSpec {
    /// Scenario name (required; used for report cards and `--name`): a
    /// plain file stem, as its card is `<name>.json`.
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// `[fleet]`.
    pub fleet: FleetSpec,
    /// `[trace]`.
    pub trace: TraceSpec,
    /// `[market]`.
    pub market: MarketSpec,
    /// `[expect]`.
    pub expect: ExpectSpec,
}

// ---------------------------------------------------------------------------
// TOML-subset parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    /// A finite number and its literal, which integer keys read exactly.
    Num(f64, String),
    Bool(bool),
    Arr(Vec<Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Num(..) => "number",
            Value::Bool(_) => "boolean",
            Value::Arr(_) => "array",
        }
    }
}

/// Truncates `line` at the first `#` outside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Splits a bracketless array body on top-level commas (string-aware).
fn split_array(inner: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut in_str = false;
    let mut start = 0;
    for (i, c) in inner.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&inner[start..]);
    parts
}

fn parse_scalar(raw: &str, line: usize) -> Result<Value, ScenarioError> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(end) = rest.find('"') else {
            return perr(line, "unterminated string");
        };
        if !rest[end + 1..].trim().is_empty() {
            return perr(line, "trailing content after string");
        }
        return Ok(Value::Str(rest[..end].to_string()));
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    match raw.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Value::Num(n, raw.to_string())),
        _ => perr(line, format!("cannot parse value '{raw}'")),
    }
}

fn parse_value(raw: &str, line: usize) -> Result<Value, ScenarioError> {
    let raw = raw.trim();
    if raw.is_empty() {
        return perr(line, "missing value");
    }
    if let Some(rest) = raw.strip_prefix('[') {
        let Some(inner) = rest.strip_suffix(']') else {
            return perr(line, "unterminated array (arrays must be single-line)");
        };
        if inner.trim().is_empty() {
            return Ok(Value::Arr(Vec::new()));
        }
        let items = split_array(inner)
            .into_iter()
            .map(|p| parse_scalar(p, line))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Value::Arr(items));
    }
    parse_scalar(raw, line)
}

/// One table's keys, each with its source line, and the line of the
/// table's header.
#[derive(Default)]
struct Table {
    line: usize,
    entries: BTreeMap<String, (Value, usize)>,
}

// ---------------------------------------------------------------------------
// Key tables: each key is declared once, in its section's table, and one
// walk over the table parses, range-checks and serializes it
// ---------------------------------------------------------------------------

/// The shortest span a key may give where zero is refused: a zero check,
/// retry or rotation interval never lets the clock advance, and a span
/// under a microsecond rounds to zero on the clock.
const MIN_SPAN: f64 = 1e-6;

/// The highest arrival rate: one second of it already holds as many
/// requests as a materialised trace may.
const MAX_RPS: f64 = MAX_MATERIALISED_REQUESTS;

/// The most workers a fleet may have: five times a 200,000-worker
/// set-up check. A worker's state is about 1 KB at the default prewarm.
const MAX_WORKERS: u64 = 1_000_000;

/// The most warm containers a pool may pre-provision.
const MAX_PREWARM: u64 = 10_000;

/// The most containers a fleet may pre-provision: `workers × prewarm`
/// for each model its trace invokes, counted as all 22 of the catalog.
/// Each is an 8-byte idle stamp, so the cap bounds them at 800 MB.
const MAX_PREWARMED_CONTAINERS: u64 = 100_000_000;

/// Reads and writes the spec field a key fills.
struct Field<S, T> {
    get: fn(&S) -> T,
    set: fn(&mut S, T),
}

/// What a key holds and the range it must lie in.
enum Kind<S> {
    /// Seconds on the simulated clock: at least `.0`, and within the
    /// clock's range (about 1.8e13 s).
    Secs(f64, Field<S, f64>),
    /// A number within the bounds.
    Num((Bound<f64>, Bound<f64>), Field<S, f64>),
    /// An integer within the range, read from its literal exactly.
    Count(RangeInclusive<u64>, Field<S, u64>),
    /// An integer, or `None` when the key is absent.
    OptCount(Field<S, Option<u64>>),
    Bool(Field<S, bool>),
    /// A string that `.1` resolves (through a slug table, or as written)
    /// and stores. `.0` is `None` when the field is unset.
    Text(
        fn(&S) -> Option<&str>,
        fn(&mut S, &str) -> Result<(), String>,
    ),
    /// A list of model slugs.
    Models(Field<S, Vec<ModelId>>),
    /// A non-empty list of worker indices.
    Workers(Field<S, Vec<usize>>),
}

/// One key of a section.
struct Key<S> {
    name: &'static str,
    kind: Kind<S>,
    /// A required key has no default: a table without it is refused.
    required: bool,
    /// Rendered into the module doc's schema, which a test compares.
    #[cfg_attr(not(test), allow(dead_code))]
    doc: &'static str,
}

/// A section's key table.
struct Section<S: Default + 'static> {
    /// `fleet`, `trace.burst`, …; empty for the top level.
    name: &'static str,
    /// Why a key given in the file does not apply, given the others.
    unused: fn(&S, &str) -> Option<String>,
    keys: &'static [Key<S>],
}

/// The line each key given sits on, by `section.key` and entry (its
/// index among an array's tables; 0 in a single section). Flags are
/// numbered as lines: see [`ScenarioSpec::check_flags`].
type Lines = BTreeMap<(String, usize), usize>;

/// The line the first given of `keys` of `entry` sits on; 0 for none.
fn line_of(at: &Lines, entry: usize, keys: &[&str]) -> usize {
    let line = keys.iter().find_map(|k| at.get(&(k.to_string(), entry)));
    line.copied().unwrap_or(0)
}

/// `"trace.rps"` as `("trace", "rps")`; a top-level key has section `""`.
fn split_key(key: &str) -> (&str, &str) {
    key.rsplit_once('.').unwrap_or(("", key))
}

/// Stores a resolved value, or passes on why it did not resolve.
fn put<T, E: fmt::Display>(slot: &mut T, got: Result<T, E>) -> Result<(), String> {
    *slot = got.map_err(|e| e.to_string())?;
    Ok(())
}

/// A string kept as written.
fn text(v: &str) -> Result<String, String> {
    Ok(v.to_string())
}

/// A scenario name: a plain file stem, so that `<name>.json` lands in
/// the directory it is written to.
fn stem(name: &str) -> Result<String, String> {
    let plain = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    if !name.is_empty() && name.chars().all(plain) {
        Ok(name.to_string())
    } else {
        Err(format!(
            "'name' must be ASCII letters, digits, '_' and '-' only, got {name:?}"
        ))
    }
}

fn scheme(name: &str) -> Result<String, String> {
    let known = schemes::by_name(name).map(|_| name.to_string());
    known.ok_or_else(|| schemes::unknown_scheme(name))
}

/// A model by slug or display name: lowercasing `ResNet 50` and
/// dropping all but ASCII letters and digits gives its slug.
fn model(name: &str) -> Result<ModelId, String> {
    let slug: String = name.chars().filter(char::is_ascii_alphanumeric).collect();
    ModelId::from_slug(&slug.to_ascii_lowercase())
        .ok_or_else(|| format!("unknown model '{name}', not in `protean-cli catalog`"))
}

fn script(s: &str) -> Result<String, String> {
    match s.chars().find(|c| *c != 'g' && *c != 'd') {
        Some(bad) => Err(format!(
            "market script may contain only 'g' and 'd', found '{bad}'"
        )),
        None => Ok(s.to_string()),
    }
}

/// The integer a number literal spells, exactly. An integral float
/// below 2^53, such as `6.0`, also counts.
fn count(x: f64, raw: &str) -> Option<u64> {
    let integral = x >= 0.0 && x.fract() == 0.0 && x < 9_007_199_254_740_992.0;
    raw.parse().ok().or(integral.then_some(x as u64))
}

impl<S> Kind<S> {
    /// What a value must be, as range errors word it.
    fn expects(&self) -> String {
        match self {
            Kind::Secs(min, _) => format!("a span of at least {min} s"),
            Kind::Num(range, _) => {
                let side = |bound, op| match bound {
                    Included(x) => Some(format!("{op}= {x}")),
                    Excluded(x) => Some(format!("{op} {x}")),
                    Unbounded => None,
                };
                let sides = [side(range.start_bound(), ">"), side(range.end_bound(), "<")];
                let sides: Vec<String> = sides.into_iter().flatten().collect();
                format!("a number {}", sides.join(" and "))
            }
            Kind::Count(range, _) => match *range.end() {
                u64::MAX => format!("an integer >= {}", range.start()),
                max => format!("an integer >= {} and <= {max}", range.start()),
            },
            Kind::OptCount(_) => "an integer >= 0".into(),
            Kind::Bool(_) => "a boolean".into(),
            Kind::Text(..) => "a string".into(),
            Kind::Models(_) => "an array of model slugs".into(),
            Kind::Workers(_) => "a non-empty array of worker indices".into(),
        }
    }

    /// Why `key` refuses the value written `got`.
    fn refusal(&self, key: &str, got: &str) -> String {
        format!("'{key}' must be {}, got {got}", self.expects())
    }

    /// Type- and range-checks `value` as `key`, and stores it in `spec`.
    fn read(&self, key: &str, value: Value, spec: &mut S) -> Result<(), String> {
        let refuse = |got: &str| self.refusal(key, got);
        match (self, value) {
            (Kind::Secs(min, f), Value::Num(x, raw)) => {
                if x > 0.0 && SimDuration::try_from_secs(x).is_none() {
                    return Err(format!(
                        "'{key}' must be within the simulated clock (about 1.8e13 s), got {x:e}"
                    ));
                }
                if x < *min {
                    return Err(refuse(&raw));
                }
                (f.set)(spec, x);
            }
            (Kind::Num(range, f), Value::Num(x, raw)) => {
                if !range.contains(&x) {
                    return Err(refuse(&raw));
                }
                (f.set)(spec, x);
            }
            (Kind::Count(range, f), Value::Num(x, raw)) => {
                let n = count(x, &raw).filter(|n| range.contains(n));
                (f.set)(spec, n.ok_or_else(|| refuse(&raw))?);
            }
            (Kind::OptCount(f), Value::Num(x, raw)) => {
                let n = count(x, &raw).ok_or_else(|| refuse(&raw))?;
                (f.set)(spec, Some(n));
            }
            (Kind::Bool(f), Value::Bool(b)) => (f.set)(spec, b),
            (Kind::Text(_, set), Value::Str(s)) => set(spec, &s)?,
            (Kind::Models(f), Value::Arr(items)) => {
                let models = items.iter().map(|v| match v {
                    Value::Str(s) => model(s),
                    v => Err(refuse(&format!("an entry of type {}", v.type_name()))),
                });
                (f.set)(spec, models.collect::<Result<_, _>>()?);
            }
            (Kind::Workers(f), Value::Arr(items)) => {
                if items.is_empty() {
                    return Err(refuse("[]"));
                }
                let workers = items.iter().map(|v| match v {
                    Value::Num(x, raw) => count(*x, raw)
                        .map(|n| n as usize)
                        .ok_or_else(|| refuse(raw)),
                    v => Err(refuse(&format!("an entry of type {}", v.type_name()))),
                });
                (f.set)(spec, workers.collect::<Result<_, _>>()?);
            }
            (_, v) => return Err(refuse(v.type_name())),
        }
        Ok(())
    }

    /// The field's value as a TOML literal; `None` when it is unset.
    fn literal(&self, spec: &S) -> Option<String> {
        let list = |items: Vec<String>| format!("[{}]", items.join(", "));
        match self {
            Kind::Secs(_, f) | Kind::Num(_, f) => Some((f.get)(spec).to_string()),
            Kind::Count(_, f) => Some((f.get)(spec).to_string()),
            Kind::OptCount(f) => (f.get)(spec).map(|n| n.to_string()),
            Kind::Bool(f) => Some((f.get)(spec).to_string()),
            Kind::Text(get, _) => get(spec).map(|s| format!("\"{s}\"")),
            Kind::Models(f) => {
                let pool = (f.get)(spec);
                let slugs = pool.iter().map(|m| format!("\"{}\"", m.slug()));
                (!pool.is_empty()).then(|| list(slugs.collect()))
            }
            Kind::Workers(f) => Some(list((f.get)(spec).iter().map(usize::to_string).collect())),
        }
    }
}

impl<S: Default> Section<S> {
    /// `[fleet]`, `[[trace.burst]]`, or `top level`.
    fn label(&self) -> String {
        match self.name {
            "" => "top level".into(),
            name if ARRAYS.contains(&name) => format!("[[{name}]]"),
            name => format!("[{name}]"),
        }
    }

    /// Reads `table`, the section's `entry`, through its keys. A key not
    /// in the table is unknown; each key given is type- and range-checked
    /// and its line recorded in `at`; each required key must be given.
    fn read(&self, mut table: Table, entry: usize, at: &mut Lines) -> Result<S, ScenarioError> {
        let known = |name: &String| self.keys.iter().any(|k| k.name == name.as_str());
        if let Some((name, (_, line))) = table.entries.iter().find(|(name, _)| !known(name)) {
            return perr(*line, format!("unknown key '{name}' in {}", self.label()));
        }
        let mut spec = S::default();
        for key in self.keys {
            match table.entries.remove(key.name) {
                Some((value, line)) => {
                    key.kind
                        .read(key.name, value, &mut spec)
                        .or_else(|msg| perr(line, msg))?;
                    at.insert((format!("{}.{}", self.name, key.name), entry), line);
                }
                None if key.required => {
                    let msg = format!("missing required key '{}' in {}", key.name, self.label());
                    return perr(table.line, msg);
                }
                None => {}
            }
        }
        Ok(spec)
    }

    /// Sets key `name` of `spec` from the text of a flag, through the
    /// same type and range check as a file's value.
    fn set(&self, spec: &mut S, name: &str, raw: &str) -> Result<(), String> {
        let Some(key) = self.keys.iter().find(|k| k.name == name) else {
            return Err(format!("unknown key '{name}' in {}", self.label()));
        };
        let value = match key.kind {
            Kind::Text(..) => Ok(Value::Str(raw.into())),
            _ => parse_value(raw, 0).map_err(|_| key.kind.refusal(name, raw)),
        };
        key.kind.read(name, value?, spec)
    }

    /// Appends the header and every set key that applies; nothing when
    /// no key is set.
    fn write(&self, spec: &S, out: &mut String) {
        let rows: Vec<String> = self
            .keys
            .iter()
            .filter(|k| (self.unused)(spec, k.name).is_none())
            .filter_map(|k| Some(format!("{} = {}\n", k.name, k.kind.literal(spec)?)))
            .collect();
        if !rows.is_empty() && !self.name.is_empty() {
            out.push_str(&format!("\n{}\n", self.label()));
        }
        out.extend(rows);
    }
}

/// A key row of a section table, named after the spec field it fills:
/// `opt!(field, Kind(args), "doc")` with the doc optional. `req!` marks
/// a required key. `as usize` keeps a count in a `usize` field;
/// `Str(check)`, `OptStr` and `Slug(from_slug)` are string keys.
macro_rules! opt {
    ($($row:tt)*) => {
        key!(false, $($row)*)
    };
}

macro_rules! req {
    ($($row:tt)*) => {
        key!(true, $($row)*)
    };
}

macro_rules! key {
    ($req:expr, $f:ident, $kind:ident $(($($arg:expr),*))? $(as $t:ident)? $(, $doc:literal)?) => {
        Key {
            name: stringify!($f),
            kind: kind!($f, $kind $(($($arg),*))? $(as $t)?),
            required: $req,
            doc: concat!($($doc)?),
        }
    };
}

macro_rules! kind {
    ($f:ident, Str($check:expr)) => {
        Kind::Text(|s| Some(s.$f.as_str()), |s, v| put(&mut s.$f, $check(v)))
    };
    ($f:ident, OptStr) => {
        Kind::Text(|s| s.$f.as_deref(), |s, v| put(&mut s.$f, text(v).map(Some)))
    };
    ($f:ident, Slug($parse:expr)) => {
        Kind::Text(|s| Some(s.$f.slug()), |s, v| put(&mut s.$f, $parse(v)))
    };
    ($f:ident, $kind:ident $(($($arg:expr),*))? as usize) => {
        Kind::$kind($($($arg,)*)? Field {
            get: |s| s.$f as u64,
            set: |s, v| s.$f = v as usize,
        })
    };
    ($f:ident, $kind:ident $(($($arg:expr),*))?) => {
        Kind::$kind($($($arg,)*)? Field {
            get: |s| s.$f.clone(),
            set: |s, v| s.$f = v,
        })
    };
}

/// Every key applies.
fn all_apply<S>(_: &S, _: &str) -> Option<String> {
    None
}

const ROOT: Section<ScenarioSpec> = Section {
    name: "",
    unused: all_apply,
    keys: &[
        req!(name, Str(stem), "ASCII letters, digits, _ and -"),
        opt!(description, Str(text)),
    ],
};

const FLEET: Section<FleetSpec> = Section {
    name: "fleet",
    unused: all_apply,
    keys: &[
        opt!(workers, Count(1..=MAX_WORKERS) as usize),
        opt!(seed, Count(0..=u64::MAX), "root seed"),
        opt!(scheme, Str(scheme)),
        opt!(procurement, Slug(ProcurementPolicy::from_slug)),
        opt!(availability, Slug(SpotAvailability::from_slug)),
        opt!(provider, Slug(Provider::from_slug)),
        opt!(slo_mult, Num((Included(1.0), Unbounded)), "strict SLO"),
        opt!(revocation_check_secs, Secs(MIN_SPAN)),
        opt!(vm_startup_secs, Secs(0.0), "VM grant to serving"),
        opt!(procurement_retry_secs, Secs(MIN_SPAN)),
        opt!(
            prewarm,
            Count(0..=MAX_PREWARM) as usize,
            "per (worker, model)"
        ),
        opt!(cold_start_secs, Secs(0.0)),
        opt!(keep_alive_secs, Secs(0.0), "idle containers kept"),
        opt!(reconfig_delay_secs, Secs(0.0), "MIG reconfiguration"),
    ],
};

/// Why a `[trace]` key given in the file does not apply: a CSV trace
/// takes no other key, and the pulse keys need kind = "pulse".
fn trace_key_unused(t: &TraceSpec, key: &str) -> Option<String> {
    if t.csv.is_some() && key != "csv" {
        Some(format!("'{key}' cannot be combined with 'csv'"))
    } else if key.starts_with("pulse_") && t.kind != TraceKind::Pulse {
        Some(format!("'{key}' is only valid with kind = \"pulse\""))
    } else {
        None
    }
}

const TRACE: Section<TraceSpec> = Section {
    name: "trace",
    unused: trace_key_unused,
    keys: &[
        opt!(csv, OptStr, "exclusive with all other keys and bursts"),
        opt!(model, Slug(model), "strict model"),
        opt!(kind, Slug(TraceKind::from_slug)),
        opt!(rps, Num((Excluded(0.0), Included(MAX_RPS)))),
        opt!(duration_secs, Secs(MIN_SPAN), "<= 1e8 and <= 1e8 / rps"),
        opt!(strict_fraction, Num((Included(0.0), Included(1.0)))),
        opt!(be_pool, Models, "[] is the opposite pool"),
        opt!(be_rotation_secs, Secs(MIN_SPAN), "> duration_secs / 1e7"),
        opt!(batch_arrivals, Bool),
        opt!(
            pulse_low_rps,
            Num((Included(0.0), Included(MAX_RPS))),
            "<= rps"
        ),
        opt!(pulse_period_secs, Secs(MIN_SPAN)),
        opt!(pulse_duty, Num((Excluded(0.0), Included(1.0)))),
    ],
};

const BURST: Section<BurstSpec> = Section {
    name: "trace.burst",
    unused: all_apply,
    keys: &[
        req!(start_secs, Secs(0.0)),
        req!(duration_secs, Secs(MIN_SPAN)),
        req!(add_rps, Num((Excluded(0.0), Included(MAX_RPS)))),
    ],
};

const MARKET: Section<MarketSpec> = Section {
    name: "market",
    unused: all_apply,
    keys: &[
        opt!(script, Str(script), "per-roll grant (g) / deny (d)"),
        opt!(deny_rest, Bool, "deny once the script ends"),
    ],
};

const EVICTION: Section<EvictionSpec> = Section {
    name: "market.eviction",
    unused: all_apply,
    keys: &[
        req!(worker, Count(0..=u64::MAX) as usize),
        req!(at_secs, Secs(0.0), "arms at the next check"),
        req!(lead_secs, Secs(0.0), "notice lead"),
    ],
};

const STORM: Section<StormSpec> = Section {
    name: "market.storm",
    unused: all_apply,
    keys: &[
        req!(workers, Workers, "in lead-draw order"),
        req!(at_secs, Secs(0.0)),
        req!(lead_secs, Secs(0.0)),
        opt!(lead_jitter_secs, Secs(0.0), "lead ~ U[lead, lead + jitter]"),
        opt!(jitter_seed, Count(0..=u64::MAX)),
    ],
};

const EXPECT: Section<ExpectSpec> = Section {
    name: "expect",
    unused: all_apply,
    keys: &[
        opt!(min_evictions, OptCount, "at least this many evictions"),
        opt!(min_reconfigs, OptCount, "at least this many reconfigs"),
        opt!(max_censored, OptCount, "at most this many censored"),
    ],
};

const SINGLES: [&str; 4] = [FLEET.name, TRACE.name, MARKET.name, EXPECT.name];
const ARRAYS: [&str; 3] = [BURST.name, EVICTION.name, STORM.name];

/// The checks that read more than one key, run once every key is set;
/// `at` locates a failure.
fn check(spec: &ScenarioSpec, at: &Lines) -> Result<(), ScenarioError> {
    // Each key given applies: only `[trace]` keys exclude one another.
    for ((path, _), &line) in at {
        if let ("trace", key) = split_key(path) {
            trace_key_unused(&spec.trace, key).map_or(Ok(()), |msg| perr(line, msg))?;
        }
    }
    let (f, m) = (&spec.fleet, &spec.market);
    let models = ModelId::ALL.len() as u64;
    let counts = [f.workers as u64, f.prewarm as u64, models];
    let containers = counts.into_iter().fold(1, u64::saturating_mul);
    if containers > MAX_PREWARMED_CONTAINERS {
        let msg = format!(
            "'workers' x 'prewarm' x {models} models is {containers:e} containers to pre-provision, \
             over the cap of {MAX_PREWARMED_CONTAINERS:e}"
        );
        return perr(line_of(at, 0, &["fleet.prewarm", "fleet.workers"]), msg);
    }
    if spec.trace.csv.is_none() {
        check_trace(&spec.trace, at)?;
    }
    for (i, e) in m.evictions.iter().enumerate() {
        check_worker(at, "market.eviction.worker", i, e.worker, f.workers)?;
    }
    for (i, s) in m.storms.iter().enumerate() {
        for &w in &s.workers {
            check_worker(at, "market.storm.workers", i, w, f.workers)?;
        }
        if SimDuration::try_from_secs(s.lead_secs + s.lead_jitter_secs).is_none() {
            let msg =
                "'lead_secs' must leave lead_secs + lead_jitter_secs within the simulated clock";
            return perr(line_of(at, i, &["market.storm.lead_secs"]), msg);
        }
    }
    Ok(())
}

/// A scripted worker index `w` must name one of the fleet's `n` workers.
fn check_worker(at: &Lines, key: &str, i: usize, w: usize, n: usize) -> Result<(), ScenarioError> {
    if w < n {
        return Ok(());
    }
    let name = split_key(key).1;
    let msg =
        format!("'{name}' must index the fleet, but {w} is out of range for a {n}-worker fleet");
    perr(line_of(at, i, &[key]), msg)
}

/// A pulse's OFF rate is at most its ON rate, and the trace, bursts
/// included, fits the caps: a run materialises its trace.
fn check_trace(t: &TraceSpec, at: &Lines) -> Result<(), ScenarioError> {
    let line = |keys: &[&str]| line_of(at, 0, keys);
    if t.pulse_low_rps > t.rps {
        let (rps, low) = (t.rps, t.pulse_low_rps);
        let msg = format!("'pulse_low_rps' must be at most rps ({rps}), got {low}");
        return perr(line(&["trace.pulse_low_rps"]), msg);
    }
    let size = ["trace.duration_secs", "trace.rps"];
    if let Err(e) = check_trace_size(t.duration_secs, t.rps) {
        return perr(line(&size), format!("'duration_secs' {e}"));
    }
    let mut requests = t.rps * t.duration_secs;
    for (i, b) in t.bursts.iter().enumerate() {
        let inside = (b.start_secs + b.duration_secs).min(t.duration_secs) - b.start_secs;
        requests += b.add_rps * inside.max(0.0);
        if requests > MAX_MATERIALISED_REQUESTS {
            let msg = format!(
                "'add_rps' must keep the trace within the {MAX_MATERIALISED_REQUESTS:e} requests \
                 a materialised trace holds, but this burst brings it to about {:e}",
                requests.round()
            );
            return perr(line_of(at, i, &["trace.burst.add_rps"]), msg);
        }
    }
    if let Err(e) = check_rotation_schedule(t.duration_secs, t.be_rotation_secs) {
        let line = line(&["trace.be_rotation_secs", size[0], size[1]]);
        return perr(line, format!("'be_rotation_secs' {e}"));
    }
    Ok(())
}

/// Parses scenario text. See the module docs for the schema.
///
/// # Errors
///
/// Returns [`ScenarioError::Parse`] with the offending 1-based line for
/// any syntax error, unknown section, unknown or missing key, type
/// mismatch or out-of-range value.
pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioError> {
    // Pass 1: split the file into tables.
    let mut root = Table {
        line: 1,
        ..Table::default()
    };
    let mut singles: BTreeMap<&'static str, Table> = BTreeMap::new();
    let mut arrays: Vec<(&'static str, Table)> = Vec::new();
    let mut current: &mut Table = &mut root;
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        let table = Table {
            line: line_no,
            ..Table::default()
        };
        if line.starts_with('[') {
            let array = line.starts_with("[[");
            let (open, close, known, other) = match array {
                true => ("[[", "]]", &ARRAYS[..], &SINGLES[..]),
                false => ("[", "]", &SINGLES[..], &ARRAYS[..]),
            };
            let Some(name) = line.strip_prefix(open).and_then(|h| h.strip_suffix(close)) else {
                return perr(line_no, format!("malformed {open}section{close} header"));
            };
            let name = name.trim();
            let Some(&name) = known.iter().find(|s| **s == name) else {
                if other.contains(&name) {
                    let (open, close) = if array { ("[", "]") } else { ("[[", "]]") };
                    return perr(line_no, format!("wrong brackets — use {open}{name}{close}"));
                }
                return perr(line_no, format!("unknown section {open}{name}{close}"));
            };
            if array {
                arrays.push((name, table));
                current = &mut arrays.last_mut().expect("just pushed").1;
            } else if singles.contains_key(name) {
                return perr(line_no, format!("duplicate section [{name}]"));
            } else {
                current = singles.entry(name).or_insert(table);
            }
            continue;
        }
        let Some(eq) = line.find('=') else {
            return perr(line_no, "expected 'key = value' or a [section] header");
        };
        let key = line[..eq].trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return perr(line_no, format!("malformed key '{key}'"));
        }
        let value = parse_value(&line[eq + 1..], line_no)?;
        if current
            .entries
            .insert(key.into(), (value, line_no))
            .is_some()
        {
            return perr(line_no, format!("duplicate key '{key}'"));
        }
    }

    // Pass 2: read each table through its section's keys, then check
    // what spans keys and sections.
    let mut at = Lines::new();
    let mut single = |name| singles.remove(name).unwrap_or_default();
    let mut spec = ROOT.read(root, 0, &mut at)?;
    spec.fleet = FLEET.read(single(FLEET.name), 0, &mut at)?;
    spec.trace = TRACE.read(single(TRACE.name), 0, &mut at)?;
    spec.market = MARKET.read(single(MARKET.name), 0, &mut at)?;
    spec.expect = EXPECT.read(single(EXPECT.name), 0, &mut at)?;
    for (name, table) in arrays {
        let (trace, market) = (&mut spec.trace, &mut spec.market);
        if name == BURST.name {
            if trace.csv.is_some() {
                return perr(table.line, "[[trace.burst]] cannot overlay a csv trace");
            }
            trace
                .bursts
                .push(BURST.read(table, trace.bursts.len(), &mut at)?);
        } else if name == EVICTION.name {
            let entry = market.evictions.len();
            market.evictions.push(EVICTION.read(table, entry, &mut at)?);
        } else {
            market
                .storms
                .push(STORM.read(table, market.storms.len(), &mut at)?);
        }
    }
    check(&spec, &at)?;
    Ok(spec)
}

/// Reads and parses a scenario file, prefixing errors with the path.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] for I/O failures and a
/// path-prefixed variant of whatever [`parse`] reports.
pub fn load_file(path: &Path) -> Result<ScenarioSpec, ScenarioError> {
    let at = |msg: &dyn fmt::Display| format!("{}: {msg}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Invalid(at(&e)))?;
    parse(&text).map_err(|e| match e {
        ScenarioError::Parse { line, msg } => ScenarioError::Parse {
            line,
            msg: at(&msg),
        },
        ScenarioError::Invalid(msg) => ScenarioError::Invalid(at(&msg)),
        flag => flag,
    })
}

/// `protean-cli`'s run flags, each with the key it sets: a run command
/// [`ScenarioSpec::set`]s each flag given on a base spec, then runs
/// [`ScenarioSpec::check_flags`].
pub const RUN_FLAGS: [(&str, &str); 12] = [
    ("model", "trace.model"),
    ("trace", "trace.kind"),
    ("rps", "trace.rps"),
    ("duration", "trace.duration_secs"),
    ("strict-frac", "trace.strict_fraction"),
    ("trace-file", "trace.csv"),
    ("workers", "fleet.workers"),
    ("seed", "fleet.seed"),
    ("slo-mult", "fleet.slo_mult"),
    ("scheme", "fleet.scheme"),
    ("procurement", "fleet.procurement"),
    ("availability", "fleet.availability"),
];

/// The §5 arrival rate of `model`'s domain: [`VISION_RPS`] or
/// [`LANGUAGE_RPS`].
pub fn paper_rps(model: ModelId) -> f64 {
    match model.profile().domain {
        Domain::Vision => VISION_RPS,
        Domain::Language => LANGUAGE_RPS,
    }
}

/// The paper's §5 set-up: the run description the paper's rows, the
/// goldens and the CLI set keys of. `ClusterConfig::paper_default`'s
/// fleet, and a 120 s Wiki trace of batched arrivals for ResNet 50 at
/// its domain's rate, half of them strict, the best-effort model
/// rotating through the opposite class every 20 s. The paper runs
/// hour-scale traces; 120 s (after the 15 s warm-up) is tens of
/// thousands of batches per scheme and keeps `reproduce` near a minute.
pub fn paper() -> ScenarioSpec {
    let spec = ScenarioSpec {
        name: "paper".into(),
        fleet: FleetSpec {
            workers: 8,
            revocation_check_secs: 60.0,
            vm_startup_secs: 30.0,
            procurement_retry_secs: 60.0,
            ..FleetSpec::default()
        },
        trace: TraceSpec {
            kind: TraceKind::Wiki,
            duration_secs: 120.0,
            batch_arrivals: true,
            ..TraceSpec::default()
        },
        ..ScenarioSpec::default()
    };
    spec.at_paper_rate(ModelId::ResNet50)
}

impl ScenarioSpec {
    /// The spec with each `(key, value)` written in code set in order,
    /// as [`ScenarioSpec::set`] sets a flag's.
    ///
    /// # Panics
    ///
    /// If a key's row refuses its value.
    pub fn with(mut self, keys: &[(&str, &str)]) -> Self {
        for &(key, value) in keys {
            self.set(key, key, value).unwrap_or_else(|e| panic!("{e}"));
        }
        self
    }

    /// The spec with `model` strict at its domain's §5 rate.
    pub fn at_paper_rate(mut self, model: ModelId) -> Self {
        self.trace.model = model;
        self.trace.rps = paper_rps(model);
        self
    }

    /// Sets `key` of `[fleet]` or `[trace]` (`"trace.rps"`) to `raw`, the
    /// text of flag `--flag`, through the key's row, as a file's value is.
    /// Once every flag is set, run [`ScenarioSpec::check_flags`].
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Flag`] naming `flag` when the row refuses `raw`.
    pub fn set(&mut self, key: &str, flag: &str, raw: &str) -> Result<(), ScenarioError> {
        let set = match split_key(key) {
            ("fleet", name) => FLEET.set(&mut self.fleet, name, raw),
            ("trace", name) => TRACE.set(&mut self.trace, name, raw),
            _ => Err(format!("no flag sets '{key}'")),
        };
        let flag = flag.into();
        set.map_err(|msg| ScenarioError::Flag { flag, msg })
    }

    /// Runs [`parse`]'s checks across keys on a spec whose keys the
    /// `(flag, key)` pairs of `flags` set.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Flag`] naming the flag whose key a check failed.
    pub fn check_flags(&self, flags: &[(&str, &str)]) -> Result<(), ScenarioError> {
        // Flag `i` stands on "line" `i + 1`; line 0 is no flag.
        let at = flags.iter().enumerate();
        let at = at.map(|(i, &(_, key))| ((key.to_string(), 0), i + 1));
        check(self, &at.collect()).map_err(|e| match e {
            ScenarioError::Parse { line: 0, msg } => ScenarioError::Invalid(msg),
            ScenarioError::Parse { line, msg } => {
                let flag = flags[line - 1].0.into();
                ScenarioError::Flag { flag, msg }
            }
            e => e,
        })
    }

    /// Serializes the spec back to canonical scenario TOML, one walk over
    /// the key tables. The output reparses to an identical spec
    /// (`parse(s.to_toml()) == s`), which the proptest round-trip pins.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        ROOT.write(self, &mut out);
        FLEET.write(&self.fleet, &mut out);
        TRACE.write(&self.trace, &mut out);
        if self.trace.csv.is_none() {
            for b in &self.trace.bursts {
                BURST.write(b, &mut out);
            }
        }
        MARKET.write(&self.market, &mut out);
        for e in &self.market.evictions {
            EVICTION.write(e, &mut out);
        }
        for s in &self.market.storms {
            STORM.write(s, &mut out);
        }
        EXPECT.write(&self.expect, &mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// Compilation onto engine types
// ---------------------------------------------------------------------------

/// Where the compiled scenario's requests come from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSource {
    /// Generate from a [`TraceConfig`] with the run seed.
    Config(TraceConfig),
    /// Read a CSV trace (path already resolved against the scenario
    /// file's directory).
    Csv(PathBuf),
}

impl TraceSource {
    /// The requests: generated from `seed`, or read from the file.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] naming the file and line of a bad CSV.
    pub fn load(&self, seed: u64) -> Result<Trace, ScenarioError> {
        match self {
            TraceSource::Config(tc) => Ok(tc.generate(&RngFactory::new(seed))),
            TraceSource::Csv(path) => {
                Trace::read_csv_file(path).map_err(|e| ScenarioError::Invalid(e.to_string()))
            }
        }
    }
}

/// A scenario lowered onto the engine's own types.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScenario {
    /// Cluster configuration ([`run`] audits one of its two arms).
    pub config: ClusterConfig,
    /// Request source.
    pub trace: TraceSource,
    /// The fully-armed scripted market (evictions, storms with drawn
    /// jitter, grant/deny script) when `[market]` scripts anything;
    /// `None` runs the engine's spot market of `[fleet] availability`.
    pub market: Option<ScriptedMarket>,
    /// Scheme name (resolve with [`schemes::by_name`]).
    pub scheme: String,
}

impl CompiledScenario {
    /// Runs `scheme` on the compiled cluster, requests and market under
    /// `observe`. A generated trace is drawn from the run seed; a CSV
    /// trace is read here. Each call runs on a fresh copy of the
    /// scripted market, so a repeat is a replica.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] naming the file and line of a bad CSV.
    pub fn simulate(
        &self,
        scheme: &dyn SchemeBuilder,
        observe: Observe,
    ) -> Result<SimulationResult, ScenarioError> {
        let arrivals = match &self.trace {
            TraceSource::Config(trace) => Arrivals::Generate(trace),
            TraceSource::Csv(_) => Arrivals::Trace(self.trace.load(self.config.seed)?),
        };
        let mut market = self.market.clone();
        let oracle = market.as_mut().map(|m| m as &mut dyn SpotOracle);
        Ok(simulate(&self.config, scheme, arrivals, oracle, observe))
    }
}

impl ScenarioSpec {
    /// Lowers the spec onto [`ClusterConfig`] / [`TraceConfig`] /
    /// [`ScriptedMarket`], the one lowering every run of a spec takes.
    /// `base_dir` anchors relative CSV paths; `smoke` scales request
    /// rates by [`SMOKE_RPS_FACTOR`] (never durations — scripted
    /// evictions fire at absolute times). The market is scripted only
    /// when `[market]` differs from its default.
    pub fn compile(&self, base_dir: &Path, smoke: bool) -> CompiledScenario {
        let (secs, at) = (SimDuration::from_secs, SimTime::from_secs);
        let f = &self.fleet;
        let mut config = ClusterConfig::paper_default();
        config.workers = f.workers;
        config.seed = f.seed;
        config.procurement = f.procurement;
        config.availability = f.availability;
        config.provider = f.provider;
        config.revocation_check = secs(f.revocation_check_secs);
        config.vm_startup = secs(f.vm_startup_secs);
        config.procurement_retry = secs(f.procurement_retry_secs);
        config.prewarm_containers = f.prewarm;
        config.cold_start = secs(f.cold_start_secs);
        config.keep_alive = secs(f.keep_alive_secs);
        config.reconfig_delay = secs(f.reconfig_delay_secs);

        let rps_factor = if smoke { SMOKE_RPS_FACTOR } else { 1.0 };
        let trace = if let Some(csv) = &self.trace.csv {
            TraceSource::Csv(base_dir.join(csv))
        } else {
            let t = &self.trace;
            let rps = t.rps * rps_factor;
            let base = match t.kind {
                TraceKind::Constant => TraceShape::constant(rps),
                TraceKind::Wiki => TraceShape::wiki(rps),
                TraceKind::Twitter => TraceShape::twitter(rps),
                TraceKind::Pulse => TraceShape::Pulse {
                    high_rps: rps,
                    low_rps: t.pulse_low_rps * rps_factor,
                    period: secs(t.pulse_period_secs),
                    duty: t.pulse_duty,
                },
            };
            let bursts = t.bursts.iter().map(|b| BurstWindow {
                start: at(b.start_secs),
                duration: secs(b.duration_secs),
                add_rps: b.add_rps * rps_factor,
            });
            let shape = match t.bursts.is_empty() {
                true => base,
                false => TraceShape::overlay(base, bursts.collect()),
            };
            let be_pool = if t.be_pool.is_empty() {
                t.model.opposite_pool()
            } else {
                t.be_pool.clone()
            };
            TraceSource::Config(TraceConfig {
                shape,
                duration: secs(t.duration_secs),
                strict_model: t.model,
                strict_fraction: t.strict_fraction,
                be_pool,
                be_rotation_period: secs(t.be_rotation_secs),
                batch_arrivals: t.batch_arrivals,
            })
        };

        CompiledScenario {
            config,
            trace,
            market: (self.market != MarketSpec::default()).then(|| self.market.compile()),
            scheme: self.fleet.scheme.clone(),
        }
    }
}

impl MarketSpec {
    /// The scripted market: evictions, then storms with their leads
    /// drawn, then the grant/deny script.
    fn compile(&self) -> ScriptedMarket {
        let (secs, at) = (SimDuration::from_secs, SimTime::from_secs);
        let mut market = ScriptedMarket::new();
        for e in &self.evictions {
            market = market.evict(e.worker, at(e.at_secs), secs(e.lead_secs));
        }
        for (i, s) in self.storms.iter().enumerate() {
            let mut rng =
                RngFactory::new(s.jitter_seed).indexed_stream("scenario.storm.lead", i as u64);
            for w in &s.workers {
                let lead = s.lead_secs + rng.uniform() * s.lead_jitter_secs;
                market = market.evict(*w, at(s.at_secs), secs(lead));
            }
        }
        for c in self.script.chars() {
            market = match c {
                'g' => market.grant_next(1),
                _ => market.deny_next(1),
            };
        }
        if self.deny_rest {
            market = market.deny_rest();
        }
        market
    }
}

// ---------------------------------------------------------------------------
// Runner + report cards
// ---------------------------------------------------------------------------

/// The report card of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Whether request rates were smoke-scaled.
    pub smoke: bool,
    /// Golden digest (identical across the audited and unaudited arms).
    pub digest: String,
    /// The audited arm, scored at the scenario's `[fleet] slo_mult`.
    pub row: SchemeRow,
}

impl ScenarioOutcome {
    /// Renders the report card as a JSON object.
    pub fn to_json(&self) -> String {
        let text = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
        let usd = |x: f64| format!("{x:.6}");
        let (row, r) = (&self.row, &self.row.result);
        let fields = [
            ("scenario", text(&self.name)),
            ("scheme", text(&row.scheme)),
            ("smoke", self.smoke.to_string()),
            ("digest", text(&self.digest)),
            ("requests", r.metrics.count(Class::All).to_string()),
            ("slo_pct", format!("{:.4}", row.slo_compliance_pct)),
            ("strict_p50_ms", format!("{:.4}", row.strict_p50_ms)),
            ("strict_p99_ms", format!("{:.4}", row.strict_p99_ms)),
            ("be_p99_ms", format!("{:.4}", row.be_p99_ms)),
            ("cost_usd", usd(row.cost_usd)),
            ("spot_usd", usd(r.cost.spot_usd)),
            ("on_demand_usd", usd(r.cost.on_demand_usd)),
            ("evictions", row.evictions.to_string()),
            ("reconfigs", row.reconfigs.to_string()),
            ("cold_starts", r.cold_starts.to_string()),
            ("censored", row.censored.to_string()),
            ("audit_checks", r.audit.checks.to_string()),
        ];
        let fields = fields.map(|(key, value)| format!("\"{key}\": {value}"));
        format!("{{{}}}", fields.join(", "))
    }

    /// One row for the rendered report-card table; pair with
    /// [`card_headers`].
    pub fn table_row(&self) -> Vec<String> {
        let row = &self.row;
        vec![
            self.name.clone(),
            row.scheme.clone(),
            format!("{}", row.result.metrics.count(Class::All)),
            format!("{:.2}", row.slo_compliance_pct),
            format!("{:.1}", row.strict_p99_ms),
            format!("{:.4}", row.cost_usd),
            format!("{}", row.evictions),
            format!("{}", row.reconfigs),
            format!("{}", row.censored),
        ]
    }
}

/// Headers matching [`ScenarioOutcome::table_row`].
pub fn card_headers() -> Vec<&'static str> {
    vec![
        "scenario", "scheme", "requests", "SLO%", "P99 ms", "cost $", "evict", "reconf", "censored",
    ]
}

/// Runs one scenario through both engine arms and condenses the result.
///
/// An audited and an unaudited arm each run the compiled scenario
/// through [`CompiledScenario::simulate`]; the audit must be clean and
/// the two golden digests must match bit-for-bit (the auditor only
/// reads engine state), or the run fails. `[expect]` assertions are
/// enforced on the audited arm.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] on an unknown scheme, an
/// unreadable CSV trace, digest divergence, an audit violation or an
/// unmet expectation.
pub fn run(
    spec: &ScenarioSpec,
    base_dir: &Path,
    smoke: bool,
) -> Result<ScenarioOutcome, ScenarioError> {
    let compiled = spec.compile(base_dir, smoke);
    let scheme = schemes::by_name(&compiled.scheme)
        .ok_or_else(|| ScenarioError::Invalid(format!("unknown scheme '{}'", compiled.scheme)))?;
    let audited = compiled.simulate(scheme.as_ref(), Observe::audited())?;
    if !audited.audit.is_clean() {
        return Err(ScenarioError::Invalid(format!(
            "scenario '{}': audit violations: {:?}",
            spec.name, audited.audit.violations
        )));
    }
    let digest = golden::digest(&audited);
    let unaudited = golden::digest(&compiled.simulate(scheme.as_ref(), Observe::default())?);
    if digest != unaudited {
        return Err(ScenarioError::Invalid(format!(
            "scenario '{}': audited and unaudited digests diverge:\n  audited:   {}\n  unaudited: {}",
            spec.name, digest, unaudited
        )));
    }

    let e = &spec.expect;
    let expectations = [
        (e.min_evictions, ">=", audited.cost.evictions, "evictions"),
        (e.min_reconfigs, ">=", audited.reconfigs, "reconfigs"),
        (e.max_censored, "<=", audited.censored, "censored requests"),
    ];
    for (bound, op, saw, what) in expectations {
        let Some(bound) = bound else { continue };
        if (op == ">=" && saw < bound) || (op == "<=" && saw > bound) {
            return Err(ScenarioError::Invalid(format!(
                "scenario '{}': expected {op} {bound} {what}, saw {saw}",
                spec.name
            )));
        }
    }

    Ok(ScenarioOutcome {
        name: spec.name.clone(),
        smoke,
        digest,
        row: SchemeRow::new(audited, compiled.config.warmup, spec.fleet.slo_mult),
    })
}

/// Loads every `*.toml` scenario file under `dir`, sorted by file
/// name, each with its spec.
///
/// # Errors
///
/// [`ScenarioError::Invalid`] if the directory is unreadable or two
/// files share a name (their report cards would overwrite each other),
/// naming both files; else what [`load_file`] reports.
pub fn load_catalog(dir: &Path) -> Result<Vec<(PathBuf, ScenarioSpec)>, ScenarioError> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| ScenarioError::Invalid(format!("{}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    let mut specs: Vec<(PathBuf, ScenarioSpec)> = Vec::new();
    for file in files {
        let spec = load_file(&file)?;
        if let Some((first, _)) = specs.iter().find(|(_, s)| s.name == spec.name) {
            let (first, file) = (first.display(), file.display());
            let msg = format!("{first} and {file} both name scenario '{}'", spec.name);
            return Err(ScenarioError::Invalid(msg));
        }
        specs.push((file, spec));
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_cluster::SpotOracle;

    const MINIMAL: &str = "name = \"minimal\"\n";

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let spec = parse(MINIMAL).unwrap();
        assert_eq!(spec.name, "minimal");
        assert_eq!(spec.fleet, FleetSpec::default());
        assert_eq!(spec.trace, TraceSpec::default());
        assert_eq!(spec.market, MarketSpec::default());
        assert_eq!(spec.expect, ExpectSpec::default());
    }

    #[test]
    fn full_scenario_parses_and_round_trips() {
        let text = r#"
# A kitchen-sink scenario.
name = "full"
description = "all features # not a comment"

[fleet]
workers = 6
seed = 7
scheme = "protean"
procurement = "hybrid"
availability = "low"
provider = "gcp"
slo_mult = 3.5

[trace]
model = "resnet50"
kind = "wiki"
rps = 320
duration_secs = 50
be_pool = ["mobilenet", "dpn92"]

[[trace.burst]]
start_secs = 20
duration_secs = 8
add_rps = 600

[market]
script = "gdd"
deny_rest = true

[[market.eviction]]
worker = 1
at_secs = 15
lead_secs = 10

[[market.storm]]
workers = [0, 2, 3]
at_secs = 25
lead_secs = 20
lead_jitter_secs = 5
jitter_seed = 9

[expect]
min_evictions = 4
"#;
        let spec = parse(text).unwrap();
        assert_eq!(spec.fleet.workers, 6);
        assert_eq!(spec.fleet.provider, Provider::Gcp);
        assert_eq!(spec.trace.bursts.len(), 1);
        assert_eq!(spec.market.evictions.len(), 1);
        assert_eq!(spec.market.storms[0].workers, vec![0, 2, 3]);
        assert_eq!(spec.expect.min_evictions, Some(4));
        let reparsed = parse(&spec.to_toml()).unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn unknown_keys_and_sections_fail_with_line_numbers() {
        let err = parse("name = \"x\"\n\n[fleet]\nworkerz = 3\n").unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Parse {
                line: 4,
                msg: "unknown key 'workerz' in [fleet]".into()
            }
        );
        let err = parse("name = \"x\"\n[flleet]\n").unwrap_err();
        assert!(matches!(err, ScenarioError::Parse { line: 2, .. }), "{err}");
        let err = parse("name = \"x\"\ntypo = 1\n").unwrap_err();
        assert!(err.to_string().contains("unknown key 'typo'"), "{err}");
        // Array/table confusion gets a pointed message.
        let err = parse("name = \"x\"\n[trace.burst]\n").unwrap_err();
        assert!(err.to_string().contains("[[trace.burst]]"), "{err}");
        let err = parse("name = \"x\"\n[[fleet]]\n").unwrap_err();
        assert!(err.to_string().contains("use [fleet]"), "{err}");
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert!(parse("name = \"x\"\n[fleet]\nworkers = \"three\"\n").is_err());
        assert!(parse("name = \"x\"\n[fleet]\nworkers = 2.5\n").is_err());
        assert!(parse("name = \"x\"\n[fleet]\nworkers = -1\n").is_err());
        assert!(parse("name = \"x\"\n[market]\nscript = \"gx\"\n").is_err());
        assert!(parse("name = \"x\"\n[trace]\nkind = \"cosine\"\n").is_err());
        assert!(parse("name = \"x\"\n[trace]\nmodel = \"gpt5\"\n").is_err());
        assert!(parse("name = \"x\"\n[fleet]\nscheme = \"magic\"\n").is_err());
        assert!(parse("no_name_key = 1\n").is_err());
        assert!(parse("name = \"x\"\n[fleet]\nworkers = 2\nworkers = 3\n").is_err());
        // Pulse keys outside kind = pulse.
        assert!(parse("name = \"x\"\n[trace]\npulse_duty = 0.3\n").is_err());
        // Out-of-range worker in a script.
        let err = parse("name = \"x\"\n[fleet]\nworkers = 2\n\n[[market.eviction]]\nworker = 5\nat_secs = 1\nlead_secs = 1\n")
            .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        // Spans: a negative one panics in `SimDuration`, a zero check or
        // retry interval never lets the clock advance, and a zero BE
        // rotation rolls one schedule entry per microsecond.
        for (section, case) in [
            ("fleet", "cold_start_secs = -1"),
            ("fleet", "vm_startup_secs = -0.5"),
            ("fleet", "procurement_retry_secs = -2"),
            ("trace", "be_rotation_secs = -20"),
            (
                "fleet",
                "procurement = \"hybrid\"\navailability = \"low\"\nrevocation_check_secs = 0",
            ),
            (
                "fleet",
                "procurement = \"spot\"\nprocurement_retry_secs = 0\n[market]\nscript = \"dddd\"\ndeny_rest = true",
            ),
            ("trace", "be_rotation_secs = 0"),
            ("trace", "be_rotation_secs = 0.0000001"),
            // Past the clock's range a span saturates, and the trace
            // generator sizes its BE rotation schedule from it.
            ("trace", "duration_secs = 1e300"),
            (
                "fleet",
                "workers = 2\n\n[[market.eviction]]\nworker = 0\nat_secs = 1e300\nlead_secs = 1",
            ),
        ] {
            let key = case
                .lines()
                .find(|l| l.contains("_secs"))
                .and_then(|l| l.split(' ').next())
                .unwrap();
            let err = parse(&format!("name = \"x\"\n[{section}]\n{case}\n")).unwrap_err();
            assert!(
                matches!(&err, ScenarioError::Parse { msg, .. } if msg.starts_with(&format!("'{key}' must be"))),
                "{case}: {err}"
            );
        }
        // One microsecond is a valid rotation, but over 1e5 s it rolls
        // 1e11 schedule entries: refused on its own line, not aborted on
        // the allocation.
        let text =
            "name = \"x\"\n[trace]\nrps = 10\nduration_secs = 100000\nbe_rotation_secs = 0.000001\n";
        match parse(text).unwrap_err() {
            ScenarioError::Parse { line, msg } => {
                assert_eq!(line, 5);
                assert!(
                    msg.starts_with(
                        "'be_rotation_secs' is 1e-6 s, which over 1e5 s is about 1e11 BE rotations"
                    ),
                    "{msg}"
                );
            }
            other => panic!("{other}"),
        }
        // Zero is a valid start-up or cold-start delay.
        let spec =
            parse("name = \"x\"\n[fleet]\ncold_start_secs = 0\nvm_startup_secs = 0\n").unwrap();
        assert_eq!(spec.fleet.cold_start_secs, 0.0);
        assert_eq!(spec.fleet.vm_startup_secs, 0.0);
    }

    #[test]
    fn durations_past_the_trace_caps_are_rejected_with_their_line() {
        // Unchecked, 1e9 s aborts on the materialised arrival instants
        // and 1e12 s on the BE rotation schedule.
        for (case, reason) in [
            ("duration_secs = 1e12", "is 1e12 s, over the cap of 1e8 s"),
            ("duration_secs = 1e9", "is 1e9 s, over the cap of 1e8 s"),
            (
                "rps = 5000\nduration_secs = 1e6",
                "is 1e6 s, which at 5000 rps is about 5e9 requests",
            ),
        ] {
            let text = format!("name = \"x\"\n[trace]\n{case}\n");
            let line = text
                .lines()
                .position(|l| l.starts_with("duration_secs"))
                .unwrap()
                + 1;
            match parse(&text).unwrap_err() {
                ScenarioError::Parse { line: at, msg } => {
                    assert_eq!(at, line, "{case}");
                    let expected = format!("'duration_secs' {reason}");
                    assert!(msg.starts_with(&expected), "{case}: {msg}");
                }
                other => panic!("{case}: {other}"),
            }
        }
        assert!(parse("name = \"x\"\n[trace]\nrps = 50\nduration_secs = 1e6\n").is_ok());
    }

    #[test]
    fn bursts_count_toward_the_trace_size_cap() {
        // Unchecked, 1e8 extra rps over 1e6 s aborts on the allocation.
        let text = "name = \"x\"\n[trace]\nrps = 1\nduration_secs = 1e6\n\n[[trace.burst]]\nstart_secs = 0\nduration_secs = 1e6\nadd_rps = 1e8\n";
        match parse(text).unwrap_err() {
            ScenarioError::Parse { line, msg } => {
                assert_eq!(line, 9);
                assert!(
                    msg.starts_with("'add_rps' must keep the trace within the 1e8 requests"),
                    "{msg}"
                );
                assert!(msg.ends_with("brings it to about 1.00000001e14"), "{msg}");
            }
            other => panic!("{other}"),
        }
        // Only the part of a burst inside the span counts.
        let past_the_end = "name = \"x\"\n[trace]\nrps = 1\nduration_secs = 10\n\n[[trace.burst]]\nstart_secs = 20\nduration_secs = 1e6\nadd_rps = 1e8\n";
        assert!(parse(past_the_end).is_ok());
    }

    #[test]
    fn fleets_are_capped_in_workers_and_prewarmed_containers() {
        // Unchecked, `u64::MAX` workers panics on the fleet allocation.
        let err = parse("name = \"x\"\n[fleet]\nworkers = 18446744073709551615\n").unwrap_err();
        let msg = "'workers' must be an integer >= 1 and <= 1000000, got 18446744073709551615";
        assert_eq!(
            err,
            ScenarioError::Parse {
                line: 3,
                msg: msg.into()
            }
        );
        // Each key fits its row, but together they pre-provision
        // 1.1e8 containers.
        let err = parse("name = \"x\"\n[fleet]\nprewarm = 5\nworkers = 1000000\n").unwrap_err();
        let msg = "'workers' x 'prewarm' x 22 models is 1.1e8 containers to pre-provision, over the cap of 1e8";
        assert_eq!(
            err,
            ScenarioError::Parse {
                line: 3,
                msg: msg.into()
            }
        );
        // The same checks refuse a flag, naming it.
        let mut spec = ScenarioSpec::default();
        let err = spec
            .set("fleet.workers", "workers", "100000000000")
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "--workers: 'workers' must be an integer >= 1 and <= 1000000, got 100000000000"
        );
        spec.fleet.prewarm = 5;
        spec.set("fleet.workers", "workers", "1000000").unwrap();
        let err = spec
            .check_flags(&[("workers", "fleet.workers")])
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Flag {
                flag: "workers".into(),
                msg: msg.into()
            }
        );
    }

    #[test]
    fn csv_traces_exclude_generated_keys_and_bursts() {
        let spec = parse("name = \"x\"\n[trace]\ncsv = \"t.csv\"\n").unwrap();
        assert_eq!(spec.trace.csv.as_deref(), Some("t.csv"));
        assert!(parse("name = \"x\"\n[trace]\ncsv = \"t.csv\"\nrps = 100\n").is_err());
        assert!(parse("name = \"x\"\n[trace]\ncsv = \"t.csv\"\n\n[[trace.burst]]\nstart_secs = 1\nduration_secs = 1\nadd_rps = 10\n").is_err());
        // Round trip with csv.
        let reparsed = parse(&spec.to_toml()).unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn compile_maps_fleet_and_market_onto_engine_types() {
        let text = r#"
name = "c"
[fleet]
workers = 5
seed = 11
procurement = "spot"
availability = "moderate"
provider = "azure"

[market]
script = "dg"
deny_rest = true

[[market.eviction]]
worker = 2
at_secs = 10
lead_secs = 5

[[market.storm]]
workers = [0, 1]
at_secs = 20
lead_secs = 10
lead_jitter_secs = 0
jitter_seed = 3
"#;
        let spec = parse(text).unwrap();
        let compiled = spec.compile(Path::new("."), false);
        assert_eq!(compiled.config.workers, 5);
        assert_eq!(compiled.config.seed, 11);
        assert_eq!(compiled.config.procurement, ProcurementPolicy::SpotOnly);
        assert_eq!(compiled.config.availability, SpotAvailability::Moderate);
        assert_eq!(compiled.config.provider, Provider::Azure);
        // 1 scripted + 2 storm members armed.
        let mut m = compiled.market.clone().expect("[market] scripts evictions");
        assert_eq!(m.pending_evictions(), 3);
        // Zero jitter: storm leads are exactly lead_secs.
        assert_eq!(
            m.roll_revocation(SimTime::from_secs(20.0), 0),
            Some(SimDuration::from_secs(10.0))
        );
        // Compilation is deterministic.
        assert_eq!(compiled, spec.compile(Path::new("."), false));
        // An unscripted `[market]` leaves the market to `availability`.
        let unscripted = parse("name = \"u\"\n[fleet]\nprocurement = \"spot\"\n").unwrap();
        assert_eq!(unscripted.compile(Path::new("."), false).market, None);
    }

    #[test]
    fn storm_jitter_is_deterministic_and_bounded() {
        let text = "name = \"j\"\n[fleet]\nworkers = 4\n\n[[market.storm]]\nworkers = [0, 1, 2, 3]\nat_secs = 10\nlead_secs = 20\nlead_jitter_secs = 10\njitter_seed = 5\n";
        let spec = parse(text).unwrap();
        let a = spec.compile(Path::new("."), false);
        let b = spec.compile(Path::new("."), false);
        assert_eq!(a.market, b.market);
        let mut m = a.market.expect("[market] scripts a storm");
        let mut leads = Vec::new();
        for w in 0..4 {
            let lead = m.roll_revocation(SimTime::from_secs(10.0), w).unwrap();
            let secs = lead.as_secs_f64();
            assert!(
                (20.0..30.0).contains(&secs),
                "lead {secs} outside jitter band"
            );
            leads.push(secs);
        }
        // Jitter actually varies the leads.
        assert!(leads.iter().any(|l| (l - leads[0]).abs() > 1e-9));
    }

    #[test]
    fn smoke_scales_rates_but_not_times() {
        let text = "name = \"s\"\n[trace]\nkind = \"wiki\"\nrps = 400\nduration_secs = 50\n\n[[trace.burst]]\nstart_secs = 20\nduration_secs = 10\nadd_rps = 100\n";
        let spec = parse(text).unwrap();
        let full = spec.compile(Path::new("."), false);
        let smoke = spec.compile(Path::new("."), true);
        let (TraceSource::Config(f), TraceSource::Config(s)) = (&full.trace, &smoke.trace) else {
            panic!("expected generated traces");
        };
        assert_eq!(f.duration, s.duration);
        let TraceShape::Overlay {
            base: fb,
            bursts: fbu,
        } = &f.shape
        else {
            panic!()
        };
        let TraceShape::Overlay {
            base: sb,
            bursts: sbu,
        } = &s.shape
        else {
            panic!()
        };
        let TraceShape::WikiDiurnal { mean_rps: fr, .. } = **fb else {
            panic!()
        };
        let TraceShape::WikiDiurnal { mean_rps: sr, .. } = **sb else {
            panic!()
        };
        assert!((sr - fr * SMOKE_RPS_FACTOR).abs() < 1e-12);
        assert_eq!(fbu[0].start, sbu[0].start);
        assert!((sbu[0].add_rps - fbu[0].add_rps * SMOKE_RPS_FACTOR).abs() < 1e-12);
    }

    #[test]
    fn outcome_json_is_well_formed_enough_to_eyeball() {
        let spec =
            parse("name = \"tiny\"\n[fleet]\nworkers = 2\n[trace]\nrps = 80\nduration_secs = 25\n")
                .unwrap();
        let outcome = run(&spec, Path::new("."), true).unwrap();
        // The whole card, so a field that moves or drifts fails here.
        let card = concat!(
            r#"{"scenario": "tiny", "scheme": "PROTEAN", "smoke": true, "#,
            r#""digest": "PROTEAN n=206 sp50=40556ccccccccccd sp99=4059271a9fbe76c9 "#,
            r#"be99=405400f5c28f5c29 cost=3fb17a8d64d7f0ed util=3fb4d502bed8738c "#,
            r#"cold=0 rc=2 cens=0 ev=0", "requests": 206, "slo_pct": 100.0000, "#,
            r#""strict_p50_ms": 85.7000, "strict_p99_ms": 100.6110, "be_p99_ms": 80.0150, "#,
            r#""cost_usd": 0.068276, "spot_usd": 0.000000, "on_demand_usd": 0.068276, "#,
            r#""evictions": 0, "reconfigs": 2, "cold_starts": 0, "censored": 0, "#,
            r#""audit_checks": 1191}"#,
        );
        assert_eq!(outcome.to_json(), card);
    }

    #[test]
    fn integer_keys_are_read_exactly() {
        let text = "name = \"x\"\n[fleet]\nseed = 9007199254740993\n\n[[market.storm]]\nworkers = [0]\nat_secs = 1\nlead_secs = 1\njitter_seed = 18446744073709551615\n\n[expect]\nmin_evictions = 18446744073709551615\n";
        let spec = parse(text).unwrap();
        assert_eq!(spec.fleet.seed, 9_007_199_254_740_993);
        assert_eq!(spec.market.storms[0].jitter_seed, u64::MAX);
        // `u64::MAX` is an assertion like any other, not "no assertion".
        assert_eq!(spec.expect.min_evictions, Some(u64::MAX));
        assert_eq!(parse(&spec.to_toml()).unwrap(), spec);
        // An integral float literal still counts; past `u64::MAX` fails
        // on its line.
        let spec = parse("name = \"x\"\n[fleet]\nworkers = 6.0\n").unwrap();
        assert_eq!(spec.fleet.workers, 6);
        match parse("name = \"x\"\n[fleet]\nseed = 18446744073709551616\n").unwrap_err() {
            ScenarioError::Parse { line, msg } => {
                assert_eq!(line, 3);
                assert!(msg.starts_with("'seed' must be an integer"), "{msg}");
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn missing_required_keys_fail_on_the_header_line() {
        for (section, body, key) in [
            (
                "trace.burst",
                "start_secs = 1\nadd_rps = 1",
                "duration_secs",
            ),
            ("market.eviction", "worker = 0\nlead_secs = 1", "at_secs"),
            ("market.storm", "at_secs = 1\nlead_secs = 1", "workers"),
        ] {
            let err = parse(&format!("name = \"x\"\n\n[[{section}]]\n{body}\n")).unwrap_err();
            let msg = format!("missing required key '{key}' in [[{section}]]");
            assert_eq!(err, ScenarioError::Parse { line: 3, msg });
        }
    }

    #[test]
    fn sub_microsecond_pulse_period_is_rejected_with_its_line() {
        let text = "name = \"x\"\n[trace]\nkind = \"pulse\"\npulse_period_secs = 0.0000001\n";
        match parse(text).unwrap_err() {
            ScenarioError::Parse { line, msg } => {
                assert_eq!(line, 4);
                assert!(msg.starts_with("'pulse_period_secs' must be"), "{msg}");
            }
            other => panic!("{other}"),
        }
    }

    /// The values a boundary walk feeds a numeric key: its bounds, the
    /// values just past them, `1e300` and `-0.0`. Empty for other kinds.
    fn boundary_values<S>(kind: &Kind<S>) -> Vec<String> {
        let floats = |values: Vec<f64>| {
            let extremes = [1e300, -0.0];
            values
                .into_iter()
                .chain(extremes)
                .map(|x| x.to_string())
                .collect()
        };
        let counts = |range: &RangeInclusive<u64>| {
            let (min, max) = (*range.start(), *range.end());
            let past_u64 = "18446744073709551616".to_string();
            let below = min.checked_sub(1).map_or("-1".into(), |n| n.to_string());
            let above = max
                .checked_add(1)
                .map_or(past_u64.clone(), |n| n.to_string());
            let values = [min.to_string(), below, max.to_string(), above];
            let extremes = [u64::MAX.to_string(), past_u64];
            let values = values.into_iter().chain(extremes);
            values.chain(floats(Vec::new())).collect()
        };
        match kind {
            Kind::Secs(min, _) => {
                let mut max = SimDuration::MAX.as_secs_f64();
                while SimDuration::try_from_secs(max).is_none() {
                    max = max.next_down();
                }
                floats(vec![*min, min.next_down(), max, max.next_up()])
            }
            Kind::Num((lo, hi), _) => {
                let mut values = match *lo {
                    Included(x) => vec![x, x.next_down()],
                    Excluded(x) => vec![x.next_up(), x],
                    Unbounded => Vec::new(),
                };
                match *hi {
                    Included(x) => values.extend([x, x.next_up()]),
                    Excluded(x) => values.extend([x.next_down(), x]),
                    Unbounded => values.push(f64::MAX),
                }
                floats(values)
            }
            Kind::Count(range, _) => counts(range),
            Kind::OptCount(_) => counts(&(0..=u64::MAX)),
            _ => Vec::new(),
        }
    }

    /// Feeds every numeric key of `section` its boundary values, one
    /// file each. A value is either accepted, compiled and (for a
    /// generated-trace key) generated without a panic, or refused on
    /// the key's line by a message that starts with the key.
    fn walk_boundaries<S: Default>(section: &Section<S>) {
        let base = match section.name {
            "trace" => "rps = 1\nduration_secs = 1\nkind = \"pulse\"",
            "trace.burst" => "start_secs = 0\nduration_secs = 1\nadd_rps = 1",
            "market.eviction" => "worker = 0\nat_secs = 0\nlead_secs = 0",
            "market.storm" => "workers = [0]\nat_secs = 0\nlead_secs = 0",
            _ => "",
        };
        for key in section.keys {
            let others: Vec<&str> = base
                .lines()
                .filter(|l| !l.starts_with(&format!("{} =", key.name)))
                .collect();
            for value in boundary_values(&key.kind) {
                let text = format!(
                    "name = \"b\"\n{}\n{}\n{} = {value}\n",
                    section.label(),
                    others.join("\n"),
                    key.name
                );
                let line = text.lines().count();
                let case = format!("{} = {value}", key.name);
                match parse(&text) {
                    Ok(spec) => {
                        let compiled = spec.compile(Path::new("."), false);
                        let generated = section.name == "trace"
                            && !["rps", "duration_secs"].contains(&key.name);
                        if let (true, TraceSource::Config(tc)) = (generated, compiled.trace) {
                            tc.generate(&RngFactory::new(1));
                        }
                    }
                    Err(ScenarioError::Parse { line: at, msg }) => {
                        assert_eq!(at, line, "{case}: {msg}");
                        // The trace-size cap words its refusal "'duration_secs' is …".
                        let must = format!("'{}' must", key.name);
                        let capped = key.name == "duration_secs" && msg.contains(" over the cap ");
                        assert!(msg.starts_with(&must) || capped, "{case}: {msg}");
                    }
                    Err(e) => panic!("{case}: {e}"),
                }
            }
        }
    }

    /// Feeds `--flag`, which sets key `name` of `section`, its row's
    /// boundary values and, for a numeric row, text no file can hold. A
    /// value is either accepted, compiled and (for a generated-trace key)
    /// generated without a panic, or refused by an error naming the flag.
    /// A value a file can hold gets the same spec, or the same refusal,
    /// from a file that sets the key to it.
    fn walk_flag<S: Default>(section: &Section<S>, name: &str, flag: &str) {
        let key = section.keys.iter().find(|k| k.name == name).unwrap();
        let mut values = boundary_values(&key.kind);
        let in_files = values.len();
        if in_files > 0 {
            values.extend(["nan", "inf", "-inf", "1e999", "", "x"].map(String::from));
        }
        let full = format!("{}.{name}", section.name);
        for (i, value) in values.iter().enumerate() {
            let mut spec = ScenarioSpec {
                name: "b".into(),
                ..ScenarioSpec::default()
            };
            let set = spec.set(&full, flag, value);
            let by_flag = set.and_then(|()| spec.check_flags(&[(flag, &full)]));
            let text = format!("name = \"b\"\n{}\n{name} = {value}\n", section.label());
            match (by_flag, parse(&text)) {
                (Ok(()), Ok(twin)) if i < in_files => {
                    assert_eq!(spec, twin, "--{flag} {value}");
                    let compiled = spec.compile(Path::new("."), false);
                    let generated =
                        section.name == "trace" && !["rps", "duration_secs"].contains(&name);
                    if let (true, TraceSource::Config(tc)) = (generated, compiled.trace) {
                        tc.generate(&RngFactory::new(1));
                    }
                }
                (Err(ScenarioError::Flag { flag: named, msg }), file) => {
                    assert_eq!(named, flag, "--{flag} {value}: {msg}");
                    if let (true, Err(ScenarioError::Parse { msg: twin, .. })) =
                        (i < in_files, file)
                    {
                        assert_eq!(msg, twin, "--{flag} {value}");
                    } else {
                        assert!(i >= in_files, "--{flag} {value}: a file accepts it");
                    }
                }
                (flag_path, file) => panic!("--{flag} {value}: {flag_path:?} but {file:?}"),
            }
        }
    }

    #[test]
    fn every_numeric_key_is_checked_at_its_bounds() {
        walk_boundaries(&FLEET);
        walk_boundaries(&TRACE);
        walk_boundaries(&BURST);
        walk_boundaries(&MARKET);
        walk_boundaries(&EVICTION);
        walk_boundaries(&STORM);
        walk_boundaries(&EXPECT);
        // The flag path: every run flag, through the setter and the
        // checks across keys.
        for (flag, key) in RUN_FLAGS {
            match split_key(key) {
                ("fleet", name) => walk_flag(&FLEET, name, flag),
                ("trace", name) => walk_flag(&TRACE, name, flag),
                _ => panic!("--{flag} sets {key}, outside [fleet] and [trace]"),
            }
        }
    }

    /// A value for a schema line whose key has no default to show.
    fn placeholder<S>(kind: &Kind<S>) -> &'static str {
        match kind {
            Kind::Secs(..) => "<secs>",
            Kind::Num(..) => "<number>",
            Kind::Count(..) | Kind::OptCount(_) => "<integer>",
            Kind::Bool(_) => "<bool>",
            Kind::Text(..) => "\"<text>\"",
            Kind::Models(_) => "[\"<model>\", ...]",
            Kind::Workers(_) => "[<worker>, ...]",
        }
    }

    /// Renders `section` as lines of the schema: each key with its
    /// default, then whether it is required, its range or its slugs,
    /// and its doc.
    fn render_schema<S: Default>(section: &Section<S>, out: &mut Vec<String>) {
        if !section.name.is_empty() {
            out.extend([String::new(), section.label()]);
        }
        let blank = S::default();
        for key in section.keys {
            let mut notes = Vec::new();
            if key.required {
                notes.push("required".to_string());
            }
            match &key.kind {
                Kind::Bool(_) | Kind::OptCount(_) => {}
                // A slug table lists its names when refusing one.
                Kind::Text(_, set) => {
                    let refusal = set(&mut S::default(), "?").err().unwrap_or_default();
                    if let Some(slugs) = refusal.rsplit_once(" (") {
                        notes.push(slugs.1.trim_end_matches(')').to_string());
                    }
                }
                kind => notes.push(kind.expects()),
            }
            if !key.doc.is_empty() {
                notes.push(key.doc.to_string());
            }
            let value = match key.kind.literal(&blank) {
                Some(v) if !key.required => v,
                _ => placeholder(&key.kind).to_string(),
            };
            let line = format!("{} = {value}", key.name);
            out.push(match notes.is_empty() {
                true => line,
                false => format!("{line:<36}# {}", notes.join("; ")),
            });
        }
    }

    #[test]
    fn module_doc_schema_is_the_rendered_key_tables() {
        let mut lines = Vec::new();
        render_schema(&ROOT, &mut lines);
        render_schema(&FLEET, &mut lines);
        render_schema(&TRACE, &mut lines);
        render_schema(&BURST, &mut lines);
        render_schema(&MARKET, &mut lines);
        render_schema(&EVICTION, &mut lines);
        render_schema(&STORM, &mut lines);
        render_schema(&EXPECT, &mut lines);
        let rendered = lines.join("\n");
        let source = include_str!("scenario.rs");
        let block = source
            .split_once("//! # Schema\n//!\n//! ```toml\n")
            .and_then(|(_, rest)| rest.split_once("//! ```\n"))
            .map(|(block, _)| block)
            .expect("the module doc has a # Schema toml block");
        let documented: Vec<&str> = block
            .lines()
            .map(|l| l.strip_prefix("//!").unwrap_or(l))
            .map(|l| l.strip_prefix(' ').unwrap_or(l))
            .collect();
        assert_eq!(
            documented.join("\n"),
            rendered,
            "paste the rendered schema into the module doc:\n{rendered}"
        );
    }
}
