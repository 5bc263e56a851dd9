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
//! The parser is a deliberate TOML *subset* (single-line scalars,
//! `[table]` and `[[array-of-tables]]` headers, `#` comments, no
//! nesting beyond one dotted level) implemented by hand because the
//! workspace takes no serde/toml dependency. It is strict where it
//! matters: unknown keys and unknown sections fail loudly with the
//! offending line number — the `deny_unknown_fields` contract — and
//! every value is type- and range-checked at parse time (every
//! `*_secs` value must fit the simulated clock, below about 1.8e13 s).
//! Scheme, procurement, availability and provider names are matched
//! ignoring ASCII case, through the same tables the CLI uses.
//!
//! # Schema
//!
//! ```toml
//! name = "az_eviction_storm"          # required
//! description = "..."                 # optional
//!
//! [fleet]                             # all keys optional
//! workers = 6                         # default 4
//! seed = 42
//! scheme = "protean"                  # protean | oracle | molecule | infless
//!                                     # (alias llama) | naive | migonly |
//!                                     # mpsmig | smart | gpulet
//! procurement = "hybrid"              # ondemand (alias on-demand) | spot | hybrid
//! availability = "low"                # high | moderate (alias medium) | low
//! provider = "aws"                    # aws | azure | gcp
//! slo_mult = 3.0
//! revocation_check_secs = 5.0         # > 0 (at least one microsecond)
//! vm_startup_secs = 5.0               # >= 0
//! procurement_retry_secs = 5.0        # > 0 (at least one microsecond)
//! prewarm = 4
//! cold_start_secs = 8.0               # >= 0
//!
//! [trace]
//! model = "resnet50"
//! kind = "wiki"                       # constant | wiki | twitter | pulse
//! rps = 300.0
//! duration_secs = 60.0
//! strict_fraction = 0.5
//! be_pool = ["mobilenet", "dpn92"]    # default: opposite interference pool
//! be_rotation_secs = 20.0             # > 0 (at least one microsecond)
//! batch_arrivals = false
//! # csv = "trace.csv"                 # exclusive with every key above
//!
//! [[trace.burst]]                     # flash crowds, additive over the base
//! start_secs = 20.0
//! duration_secs = 10.0
//! add_rps = 500.0
//!
//! [market]
//! script = "gdd"                      # per-roll grant/deny prefix
//! deny_rest = false
//!
//! [[market.eviction]]                 # one scripted notice
//! worker = 1
//! at_secs = 20.0
//! lead_secs = 30.0
//!
//! [[market.storm]]                    # correlated notices, jittered leads
//! workers = [0, 1, 2]
//! at_secs = 20.0
//! lead_secs = 30.0
//! lead_jitter_secs = 10.0             # lead ~ U[lead, lead + jitter]
//! jitter_seed = 7
//!
//! [expect]                            # optional post-run assertions
//! min_evictions = 3
//! min_reconfigs = 1
//! max_censored = 100
//! ```
//!
//! Storm leads are drawn from a dedicated labelled RNG stream
//! (`RngFactory::new(jitter_seed)`, stream `scenario.storm.lead`
//! indexed by storm position), in the listed worker order — fully
//! deterministic, independent of the engine's own streams.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use protean_cluster::{run_trace_with_oracle, ClusterConfig, ScriptedMarket, SimulationResult};
use protean_metrics::record::Class;
use protean_models::{catalog, ModelId};
use protean_sim::{RngFactory, SimDuration, SimTime};
use protean_spot::{ProcurementPolicy, Provider, SpotAvailability};
use protean_trace::{BurstWindow, Trace, TraceConfig, TraceShape};

use crate::golden;
use crate::schemes;

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
    /// A semantically invalid scenario or a failed run-time assertion
    /// (digest divergence, audit violation, unmet expectation).
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
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
    fn as_str(self) -> &'static str {
        match self {
            TraceKind::Constant => "constant",
            TraceKind::Wiki => "wiki",
            TraceKind::Twitter => "twitter",
            TraceKind::Pulse => "pulse",
        }
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
    /// Spot availability regime (only used by unscripted rolls).
    pub availability: SpotAvailability,
    /// Pricing provider.
    pub provider: Provider,
    /// Strict SLO multiplier.
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
            slo_mult: 3.0,
            revocation_check_secs: 5.0,
            vm_startup_secs: 5.0,
            procurement_retry_secs: 5.0,
            prewarm: 4,
            cold_start_secs: 8.0,
        }
    }
}

/// `[[trace.burst]]` entry: a flash crowd added on top of the base.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct EvictionSpec {
    /// Target worker index.
    pub worker: usize,
    /// Notice arms at the first revocation check at or after this.
    pub at_secs: f64,
    /// Notice lead (reclaim delay), seconds.
    pub lead_secs: f64,
}

/// `[[market.storm]]` entry: correlated evictions with jittered leads.
#[derive(Debug, Clone, PartialEq)]
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

/// A parsed scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (required; used for report cards and `--name`).
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
    Num(f64),
    Bool(bool),
    Arr(Vec<Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Num(_) => "number",
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
        Ok(n) if n.is_finite() => Ok(Value::Num(n)),
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

/// One table's worth of keys, each remembering its source line.
/// Consumers `take_*` the keys they know; [`Table::finish`] then
/// rejects whatever is left — the deny-unknown-fields contract.
struct Table {
    section: String,
    entries: BTreeMap<String, (Value, usize)>,
}

impl Table {
    fn new(section: &str) -> Self {
        Table {
            section: section.to_string(),
            entries: BTreeMap::new(),
        }
    }

    fn insert(&mut self, key: &str, value: Value, line: usize) -> Result<(), ScenarioError> {
        if self
            .entries
            .insert(key.to_string(), (value, line))
            .is_some()
        {
            return perr(line, format!("duplicate key '{key}'"));
        }
        Ok(())
    }

    fn take(&mut self, key: &str) -> Option<(Value, usize)> {
        self.entries.remove(key)
    }

    /// A number. A `*_secs` key is a span or instant on the simulated
    /// clock, so a value past the clock's range is rejected here; the
    /// callers check the lower bounds.
    fn take_f64(&mut self, key: &str, default: f64) -> Result<f64, ScenarioError> {
        match self.take(key) {
            None => Ok(default),
            Some((Value::Num(n), line))
                if key.ends_with("_secs") && n > 0.0 && SimDuration::try_from_secs(n).is_none() =>
            {
                perr(
                    line,
                    format!(
                        "'{key}' must be within the simulated clock (about 1.8e13 s), got {n:e}"
                    ),
                )
            }
            Some((Value::Num(n), _)) => Ok(n),
            Some((v, line)) => perr(
                line,
                format!("'{key}' must be a number, got {}", v.type_name()),
            ),
        }
    }

    /// A span in seconds: at least one microsecond when `positive`
    /// (a zero retry or check interval never lets the clock advance),
    /// else non-negative.
    fn take_secs(&mut self, key: &str, default: f64, positive: bool) -> Result<f64, ScenarioError> {
        let line = self.entries.get(key).map_or(0, |(_, line)| *line);
        let secs = self.take_f64(key, default)?;
        let (ok, bound) = if positive {
            (secs >= 1e-6, "at least 0.000001 (one microsecond)")
        } else {
            (secs >= 0.0, ">= 0")
        };
        if ok {
            Ok(secs)
        } else {
            perr(line, format!("'{key}' must be {bound}, got {secs}"))
        }
    }

    fn take_unsigned(&mut self, key: &str, default: u64) -> Result<u64, ScenarioError> {
        match self.take(key) {
            None => Ok(default),
            Some((Value::Num(n), line)) => {
                if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
                    perr(line, format!("'{key}' must be a non-negative integer"))
                } else {
                    Ok(n as u64)
                }
            }
            Some((v, line)) => perr(
                line,
                format!("'{key}' must be an integer, got {}", v.type_name()),
            ),
        }
    }

    fn take_bool(&mut self, key: &str, default: bool) -> Result<bool, ScenarioError> {
        match self.take(key) {
            None => Ok(default),
            Some((Value::Bool(b), _)) => Ok(b),
            Some((v, line)) => perr(
                line,
                format!("'{key}' must be a boolean, got {}", v.type_name()),
            ),
        }
    }

    fn take_str(&mut self, key: &str) -> Result<Option<(String, usize)>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some((Value::Str(s), line)) => Ok(Some((s, line))),
            Some((v, line)) => perr(
                line,
                format!("'{key}' must be a string, got {}", v.type_name()),
            ),
        }
    }

    fn take_arr(&mut self, key: &str) -> Result<Option<(Vec<Value>, usize)>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some((Value::Arr(a), line)) => Ok(Some((a, line))),
            Some((v, line)) => perr(
                line,
                format!("'{key}' must be an array, got {}", v.type_name()),
            ),
        }
    }

    /// Errors on any key nobody consumed, naming it and its line.
    fn finish(self) -> Result<(), ScenarioError> {
        if let Some((key, (_, line))) = self.entries.into_iter().next() {
            let section = if self.section.is_empty() {
                "top level".to_string()
            } else {
                format!("[{}]", self.section)
            };
            return perr(line, format!("unknown key '{key}' in {section}"));
        }
        Ok(())
    }
}

fn parse_model(name: &str, line: usize) -> Result<ModelId, ScenarioError> {
    ModelId::from_slug(name).ok_or_else(|| ScenarioError::Parse {
        line,
        msg: format!("unknown model slug '{name}'"),
    })
}

/// Parses scenario text. See the module docs for the schema.
///
/// # Errors
///
/// Returns [`ScenarioError::Parse`] with the offending 1-based line for
/// any syntax error, unknown section, unknown key, type mismatch or
/// out-of-range value.
pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioError> {
    // Pass 1: split the file into tables.
    let mut root = Table::new("");
    let mut singles: BTreeMap<&'static str, Table> = BTreeMap::new();
    let mut arrays: Vec<(&'static str, Table)> = Vec::new();
    const SINGLE: [&str; 4] = ["fleet", "trace", "market", "expect"];
    const ARRAY: [&str; 3] = ["trace.burst", "market.eviction", "market.storm"];
    let mut current: &mut Table = &mut root;
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[") {
            let Some(name) = header.strip_suffix("]]") else {
                return perr(line_no, "malformed [[section]] header");
            };
            let name = name.trim();
            let Some(known) = ARRAY.iter().find(|s| **s == name) else {
                if SINGLE.contains(&name) {
                    return perr(
                        line_no,
                        format!("[{name}] is a table, not an array — use [{name}]"),
                    );
                }
                return perr(line_no, format!("unknown section [[{name}]]"));
            };
            arrays.push((known, Table::new(known)));
            current = &mut arrays.last_mut().expect("just pushed").1;
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let Some(name) = header.strip_suffix(']') else {
                return perr(line_no, "malformed [section] header");
            };
            let name = name.trim();
            let Some(known) = SINGLE.iter().find(|s| **s == name) else {
                if ARRAY.contains(&name) {
                    return perr(
                        line_no,
                        format!("[{name}] is an array of tables — use [[{name}]]"),
                    );
                }
                return perr(line_no, format!("unknown section [{name}]"));
            };
            if singles.contains_key(known) {
                return perr(line_no, format!("duplicate section [{name}]"));
            }
            singles.insert(known, Table::new(known));
            current = singles.get_mut(known).expect("just inserted");
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
        current.insert(key, value, line_no)?;
    }

    // Pass 2: consume tables into the spec, rejecting leftovers.
    let Some((name, _)) = root.take_str("name")? else {
        return perr(1, "scenario is missing the required top-level 'name' key");
    };
    let description = root
        .take_str("description")?
        .map(|(s, _)| s)
        .unwrap_or_default();
    root.finish()?;

    let fleet = {
        let mut t = singles
            .remove("fleet")
            .unwrap_or_else(|| Table::new("fleet"));
        let d = FleetSpec::default();
        let workers = t.take_unsigned("workers", d.workers as u64)? as usize;
        let seed = t.take_unsigned("seed", d.seed)?;
        let (scheme, scheme_line) = t
            .take_str("scheme")?
            .unwrap_or_else(|| (d.scheme.clone(), 0));
        if schemes::by_name(&scheme).is_none() {
            return perr(scheme_line, schemes::unknown_scheme(&scheme));
        }
        let procurement = match t.take_str("procurement")? {
            None => d.procurement,
            Some((s, line)) => {
                ProcurementPolicy::from_slug(&s).or_else(|e| perr(line, e.to_string()))?
            }
        };
        let availability = match t.take_str("availability")? {
            None => d.availability,
            Some((s, line)) => {
                SpotAvailability::from_slug(&s).or_else(|e| perr(line, e.to_string()))?
            }
        };
        let provider = match t.take_str("provider")? {
            None => d.provider,
            Some((s, line)) => Provider::from_slug(&s).or_else(|e| perr(line, e.to_string()))?,
        };
        let spec = FleetSpec {
            workers,
            seed,
            scheme,
            procurement,
            availability,
            provider,
            slo_mult: t.take_f64("slo_mult", d.slo_mult)?,
            revocation_check_secs: t.take_secs(
                "revocation_check_secs",
                d.revocation_check_secs,
                true,
            )?,
            vm_startup_secs: t.take_secs("vm_startup_secs", d.vm_startup_secs, false)?,
            procurement_retry_secs: t.take_secs(
                "procurement_retry_secs",
                d.procurement_retry_secs,
                true,
            )?,
            prewarm: t.take_unsigned("prewarm", d.prewarm as u64)? as usize,
            cold_start_secs: t.take_secs("cold_start_secs", d.cold_start_secs, false)?,
        };
        t.finish()?;
        if spec.workers == 0 {
            return Err(ScenarioError::Invalid(
                "[fleet] workers must be at least 1".into(),
            ));
        }
        if spec.slo_mult < 1.0 {
            return Err(ScenarioError::Invalid(
                "[fleet] slo_mult must be >= 1".into(),
            ));
        }
        spec
    };

    let mut bursts = Vec::new();
    let mut evictions = Vec::new();
    let mut storms = Vec::new();
    for (section, mut t) in arrays {
        match section {
            "trace.burst" => {
                let b = BurstSpec {
                    start_secs: t.take_f64("start_secs", -1.0)?,
                    duration_secs: t.take_f64("duration_secs", -1.0)?,
                    add_rps: t.take_f64("add_rps", -1.0)?,
                };
                t.finish()?;
                if b.start_secs < 0.0 || b.duration_secs <= 0.0 || b.add_rps <= 0.0 {
                    return Err(ScenarioError::Invalid(
                        "[[trace.burst]] needs start_secs >= 0, duration_secs > 0 and add_rps > 0"
                            .into(),
                    ));
                }
                bursts.push(b);
            }
            "market.eviction" => {
                let e = EvictionSpec {
                    worker: t.take_unsigned("worker", u64::MAX)? as usize,
                    at_secs: t.take_f64("at_secs", -1.0)?,
                    lead_secs: t.take_f64("lead_secs", -1.0)?,
                };
                t.finish()?;
                if e.worker == u64::MAX as usize || e.at_secs < 0.0 || e.lead_secs < 0.0 {
                    return Err(ScenarioError::Invalid(
                        "[[market.eviction]] needs worker, at_secs >= 0 and lead_secs >= 0".into(),
                    ));
                }
                evictions.push(e);
            }
            "market.storm" => {
                let workers = match t.take_arr("workers")? {
                    None => Vec::new(),
                    Some((items, line)) => items
                        .into_iter()
                        .map(|v| match v {
                            Value::Num(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as usize),
                            _ => perr(line, "storm 'workers' must be non-negative integers"),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                };
                let s = StormSpec {
                    workers,
                    at_secs: t.take_f64("at_secs", -1.0)?,
                    lead_secs: t.take_f64("lead_secs", -1.0)?,
                    lead_jitter_secs: t.take_f64("lead_jitter_secs", 0.0)?,
                    jitter_seed: t.take_unsigned("jitter_seed", 0)?,
                };
                t.finish()?;
                if s.workers.is_empty()
                    || s.at_secs < 0.0
                    || s.lead_secs < 0.0
                    || s.lead_jitter_secs < 0.0
                {
                    return Err(ScenarioError::Invalid(
                        "[[market.storm]] needs non-empty workers, at_secs >= 0, lead_secs >= 0 and lead_jitter_secs >= 0"
                            .into(),
                    ));
                }
                storms.push(s);
            }
            _ => unreachable!("section filtered in pass 1"),
        }
    }

    let trace = {
        let mut t = singles
            .remove("trace")
            .unwrap_or_else(|| Table::new("trace"));
        let d = TraceSpec::default();
        let csv = t.take_str("csv")?.map(|(s, _)| s);
        if csv.is_some() {
            // Every generated-trace key is meaningless with a CSV; a
            // leftover is reported as unknown by `finish`, and bursts
            // cannot overlay a materialised trace.
            t.finish()?;
            if !bursts.is_empty() {
                return Err(ScenarioError::Invalid(
                    "[[trace.burst]] cannot overlay a csv trace".into(),
                ));
            }
            TraceSpec { csv, ..d }
        } else {
            let model = match t.take_str("model")? {
                None => d.model,
                Some((s, line)) => parse_model(&s, line)?,
            };
            let kind = match t.take_str("kind")? {
                None => d.kind,
                Some((s, line)) => match s.as_str() {
                    "constant" => TraceKind::Constant,
                    "wiki" => TraceKind::Wiki,
                    "twitter" => TraceKind::Twitter,
                    "pulse" => TraceKind::Pulse,
                    other => {
                        return perr(
                            line,
                            format!(
                                "unknown trace kind '{other}' (constant | wiki | twitter | pulse)"
                            ),
                        )
                    }
                },
            };
            if kind != TraceKind::Pulse {
                for key in ["pulse_low_rps", "pulse_period_secs", "pulse_duty"] {
                    if let Some((_, line)) = t.take(key) {
                        return perr(line, format!("'{key}' is only valid with kind = \"pulse\""));
                    }
                }
            }
            let be_pool = match t.take_arr("be_pool")? {
                None => Vec::new(),
                Some((items, line)) => items
                    .into_iter()
                    .map(|v| match v {
                        Value::Str(s) => parse_model(&s, line),
                        other => perr(
                            line,
                            format!(
                                "be_pool entries must be model slugs, got {}",
                                other.type_name()
                            ),
                        ),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            };
            let spec = TraceSpec {
                csv: None,
                model,
                kind,
                rps: t.take_f64("rps", d.rps)?,
                duration_secs: t.take_f64("duration_secs", d.duration_secs)?,
                strict_fraction: t.take_f64("strict_fraction", d.strict_fraction)?,
                be_pool,
                be_rotation_secs: t.take_secs("be_rotation_secs", d.be_rotation_secs, true)?,
                batch_arrivals: t.take_bool("batch_arrivals", d.batch_arrivals)?,
                pulse_low_rps: t.take_f64("pulse_low_rps", d.pulse_low_rps)?,
                pulse_period_secs: t.take_f64("pulse_period_secs", d.pulse_period_secs)?,
                pulse_duty: t.take_f64("pulse_duty", d.pulse_duty)?,
                bursts,
            };
            t.finish()?;
            if spec.rps <= 0.0 || spec.duration_secs <= 0.0 {
                return Err(ScenarioError::Invalid(
                    "[trace] rps and duration_secs must be positive".into(),
                ));
            }
            if !(0.0..=1.0).contains(&spec.strict_fraction) {
                return Err(ScenarioError::Invalid(
                    "[trace] strict_fraction must be in [0, 1]".into(),
                ));
            }
            if spec.kind == TraceKind::Pulse
                && !(spec.pulse_low_rps >= 0.0
                    && spec.pulse_period_secs > 0.0
                    && spec.pulse_duty > 0.0
                    && spec.pulse_duty <= 1.0)
            {
                return Err(ScenarioError::Invalid(
                    "[trace] pulse needs pulse_low_rps >= 0, pulse_period_secs > 0 and pulse_duty in (0, 1]".into(),
                ));
            }
            spec
        }
    };

    let market = {
        let mut t = singles
            .remove("market")
            .unwrap_or_else(|| Table::new("market"));
        let (script, script_line) = t.take_str("script")?.unwrap_or_default();
        if let Some(bad) = script.chars().find(|c| *c != 'g' && *c != 'd') {
            return perr(
                script_line,
                format!("market script may contain only 'g' and 'd', found '{bad}'"),
            );
        }
        let spec = MarketSpec {
            script,
            deny_rest: t.take_bool("deny_rest", false)?,
            evictions,
            storms,
        };
        t.finish()?;
        spec
    };

    let expect = {
        let mut t = singles
            .remove("expect")
            .unwrap_or_else(|| Table::new("expect"));
        let take_opt = |t: &mut Table, key: &str| -> Result<Option<u64>, ScenarioError> {
            match t.take_unsigned(key, u64::MAX)? {
                u64::MAX => Ok(None),
                n => Ok(Some(n)),
            }
        };
        let spec = ExpectSpec {
            min_evictions: take_opt(&mut t, "min_evictions")?,
            min_reconfigs: take_opt(&mut t, "min_reconfigs")?,
            max_censored: take_opt(&mut t, "max_censored")?,
        };
        t.finish()?;
        spec
    };

    let spec = ScenarioSpec {
        name,
        description,
        fleet,
        trace,
        market,
        expect,
    };
    // Cross-field validation.
    for e in &spec.market.evictions {
        if e.worker >= spec.fleet.workers {
            return Err(ScenarioError::Invalid(format!(
                "[[market.eviction]] worker {} is out of range for a {}-worker fleet",
                e.worker, spec.fleet.workers
            )));
        }
    }
    for s in &spec.market.storms {
        for w in &s.workers {
            if *w >= spec.fleet.workers {
                return Err(ScenarioError::Invalid(format!(
                    "[[market.storm]] worker {} is out of range for a {}-worker fleet",
                    w, spec.fleet.workers
                )));
            }
        }
    }
    Ok(spec)
}

/// Reads and parses a scenario file, prefixing errors with the path.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] for I/O failures and a
/// path-prefixed variant of whatever [`parse`] reports.
pub fn load_file(path: &Path) -> Result<ScenarioSpec, ScenarioError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::Invalid(format!("{}: {e}", path.display())))?;
    parse(&text).map_err(|e| match e {
        ScenarioError::Parse { line, msg } => ScenarioError::Parse {
            line,
            msg: format!("{}: {msg}", path.display()),
        },
        ScenarioError::Invalid(msg) => ScenarioError::Invalid(format!("{}: {msg}", path.display())),
    })
}

// ---------------------------------------------------------------------------
// Canonical serialization (round-trip contract: parse(to_toml(s)) == s)
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// Serializes the spec back to canonical scenario TOML. The output
    /// reparses to an identical spec (`parse(s.to_toml()) == s`), which
    /// the proptest round-trip pins.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let p = &mut out;
        use std::fmt::Write;
        writeln!(p, "name = \"{}\"", self.name).unwrap();
        writeln!(p, "description = \"{}\"", self.description).unwrap();
        let f = &self.fleet;
        writeln!(p, "\n[fleet]").unwrap();
        writeln!(p, "workers = {}", f.workers).unwrap();
        writeln!(p, "seed = {}", f.seed).unwrap();
        writeln!(p, "scheme = \"{}\"", f.scheme).unwrap();
        writeln!(p, "procurement = \"{}\"", f.procurement.slug()).unwrap();
        writeln!(p, "availability = \"{}\"", f.availability.slug()).unwrap();
        writeln!(p, "provider = \"{}\"", f.provider.slug()).unwrap();
        writeln!(p, "slo_mult = {}", f.slo_mult).unwrap();
        writeln!(p, "revocation_check_secs = {}", f.revocation_check_secs).unwrap();
        writeln!(p, "vm_startup_secs = {}", f.vm_startup_secs).unwrap();
        writeln!(p, "procurement_retry_secs = {}", f.procurement_retry_secs).unwrap();
        writeln!(p, "prewarm = {}", f.prewarm).unwrap();
        writeln!(p, "cold_start_secs = {}", f.cold_start_secs).unwrap();
        let t = &self.trace;
        writeln!(p, "\n[trace]").unwrap();
        if let Some(csv) = &t.csv {
            writeln!(p, "csv = \"{csv}\"").unwrap();
        } else {
            writeln!(p, "model = \"{}\"", t.model.slug()).unwrap();
            writeln!(p, "kind = \"{}\"", t.kind.as_str()).unwrap();
            writeln!(p, "rps = {}", t.rps).unwrap();
            writeln!(p, "duration_secs = {}", t.duration_secs).unwrap();
            writeln!(p, "strict_fraction = {}", t.strict_fraction).unwrap();
            if !t.be_pool.is_empty() {
                let pool: Vec<String> = t
                    .be_pool
                    .iter()
                    .map(|m| format!("\"{}\"", m.slug()))
                    .collect();
                writeln!(p, "be_pool = [{}]", pool.join(", ")).unwrap();
            }
            writeln!(p, "be_rotation_secs = {}", t.be_rotation_secs).unwrap();
            writeln!(p, "batch_arrivals = {}", t.batch_arrivals).unwrap();
            if t.kind == TraceKind::Pulse {
                writeln!(p, "pulse_low_rps = {}", t.pulse_low_rps).unwrap();
                writeln!(p, "pulse_period_secs = {}", t.pulse_period_secs).unwrap();
                writeln!(p, "pulse_duty = {}", t.pulse_duty).unwrap();
            }
            for b in &t.bursts {
                writeln!(p, "\n[[trace.burst]]").unwrap();
                writeln!(p, "start_secs = {}", b.start_secs).unwrap();
                writeln!(p, "duration_secs = {}", b.duration_secs).unwrap();
                writeln!(p, "add_rps = {}", b.add_rps).unwrap();
            }
        }
        let m = &self.market;
        writeln!(p, "\n[market]").unwrap();
        writeln!(p, "script = \"{}\"", m.script).unwrap();
        writeln!(p, "deny_rest = {}", m.deny_rest).unwrap();
        for e in &m.evictions {
            writeln!(p, "\n[[market.eviction]]").unwrap();
            writeln!(p, "worker = {}", e.worker).unwrap();
            writeln!(p, "at_secs = {}", e.at_secs).unwrap();
            writeln!(p, "lead_secs = {}", e.lead_secs).unwrap();
        }
        for s in &m.storms {
            writeln!(p, "\n[[market.storm]]").unwrap();
            let workers: Vec<String> = s.workers.iter().map(|w| w.to_string()).collect();
            writeln!(p, "workers = [{}]", workers.join(", ")).unwrap();
            writeln!(p, "at_secs = {}", s.at_secs).unwrap();
            writeln!(p, "lead_secs = {}", s.lead_secs).unwrap();
            writeln!(p, "lead_jitter_secs = {}", s.lead_jitter_secs).unwrap();
            writeln!(p, "jitter_seed = {}", s.jitter_seed).unwrap();
        }
        let e = &self.expect;
        if e.min_evictions.is_some() || e.min_reconfigs.is_some() || e.max_censored.is_some() {
            writeln!(p, "\n[expect]").unwrap();
            if let Some(n) = e.min_evictions {
                writeln!(p, "min_evictions = {n}").unwrap();
            }
            if let Some(n) = e.min_reconfigs {
                writeln!(p, "min_reconfigs = {n}").unwrap();
            }
            if let Some(n) = e.max_censored {
                writeln!(p, "max_censored = {n}").unwrap();
            }
        }
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

/// A scenario lowered onto the engine's own types.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScenario {
    /// Cluster configuration (auditing is always enabled).
    pub config: ClusterConfig,
    /// Request source.
    pub trace: TraceSource,
    /// Fully-armed scripted market (evictions, storms with drawn
    /// jitter, grant/deny script).
    pub market: ScriptedMarket,
    /// Scheme name (resolve with [`schemes::by_name`]).
    pub scheme: String,
}

impl ScenarioSpec {
    /// Lowers the spec onto [`ClusterConfig`] / [`TraceConfig`] /
    /// [`ScriptedMarket`]. `base_dir` anchors relative CSV paths;
    /// `smoke` scales request rates by [`SMOKE_RPS_FACTOR`] (never
    /// durations — scripted evictions fire at absolute times).
    pub fn compile(&self, base_dir: &Path, smoke: bool) -> CompiledScenario {
        let f = &self.fleet;
        let mut config = ClusterConfig::paper_default();
        config.workers = f.workers;
        config.seed = f.seed;
        config.slo_multiplier = f.slo_mult;
        config.procurement = f.procurement;
        config.availability = f.availability;
        config.provider = f.provider;
        config.revocation_check = SimDuration::from_secs(f.revocation_check_secs);
        config.vm_startup = SimDuration::from_secs(f.vm_startup_secs);
        config.procurement_retry = SimDuration::from_secs(f.procurement_retry_secs);
        config.prewarm_containers = f.prewarm;
        config.cold_start = SimDuration::from_secs(f.cold_start_secs);
        config.audit = true;

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
                    period: SimDuration::from_secs(t.pulse_period_secs),
                    duty: t.pulse_duty,
                },
            };
            let shape = if t.bursts.is_empty() {
                base
            } else {
                TraceShape::overlay(
                    base,
                    t.bursts
                        .iter()
                        .map(|b| BurstWindow {
                            start: SimTime::from_secs(b.start_secs),
                            duration: SimDuration::from_secs(b.duration_secs),
                            add_rps: b.add_rps * rps_factor,
                        })
                        .collect(),
                )
            };
            let be_pool = if t.be_pool.is_empty() {
                catalog().opposite_pool(t.model)
            } else {
                t.be_pool.clone()
            };
            TraceSource::Config(TraceConfig {
                shape,
                duration: SimDuration::from_secs(t.duration_secs),
                strict_model: t.model,
                strict_fraction: t.strict_fraction,
                be_pool,
                be_rotation_period: SimDuration::from_secs(t.be_rotation_secs),
                batch_arrivals: t.batch_arrivals,
            })
        };

        let mut market = ScriptedMarket::new();
        for e in &self.market.evictions {
            market = market.evict(
                e.worker,
                SimTime::from_secs(e.at_secs),
                SimDuration::from_secs(e.lead_secs),
            );
        }
        for (i, s) in self.market.storms.iter().enumerate() {
            let mut rng =
                RngFactory::new(s.jitter_seed).indexed_stream("scenario.storm.lead", i as u64);
            for w in &s.workers {
                let lead = s.lead_secs + rng.uniform() * s.lead_jitter_secs;
                market = market.evict(
                    *w,
                    SimTime::from_secs(s.at_secs),
                    SimDuration::from_secs(lead),
                );
            }
        }
        for c in self.market.script.chars() {
            market = if c == 'g' {
                market.grant_next(1)
            } else {
                market.deny_next(1)
            };
        }
        if self.market.deny_rest {
            market = market.deny_rest();
        }

        CompiledScenario {
            config,
            trace,
            market,
            scheme: self.fleet.scheme.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Runner + report cards
// ---------------------------------------------------------------------------

/// Condensed SLO/cost report card for one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Scheme label as the engine reports it.
    pub scheme: String,
    /// Whether request rates were smoke-scaled.
    pub smoke: bool,
    /// Golden digest (identical across the audited and unaudited arms).
    pub digest: String,
    /// Post-warmup requests measured.
    pub requests: usize,
    /// Strict SLO compliance, percent.
    pub slo_pct: f64,
    /// Strict P50 latency, ms.
    pub strict_p50_ms: f64,
    /// Strict P99 latency, ms.
    pub strict_p99_ms: f64,
    /// Best-effort P99 latency, ms.
    pub be_p99_ms: f64,
    /// Total dollar cost.
    pub cost_usd: f64,
    /// Spot share of the cost.
    pub spot_usd: f64,
    /// On-demand share of the cost.
    pub on_demand_usd: f64,
    /// Spot evictions suffered.
    pub evictions: u64,
    /// Completed MIG reconfigurations.
    pub reconfigs: u64,
    /// Cold starts triggered.
    pub cold_starts: u64,
    /// Requests censored at cutoff.
    pub censored: u64,
    /// Invariant sweeps performed (both arms were clean).
    pub audit_checks: u64,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl ScenarioOutcome {
    fn from_result(
        name: &str,
        smoke: bool,
        digest: String,
        slo_mult: f64,
        r: &SimulationResult,
    ) -> Self {
        let cat = catalog();
        let slo = SimulationResult::slo_fn(&cat, slo_mult);
        ScenarioOutcome {
            name: name.to_string(),
            scheme: r.scheme.clone(),
            smoke,
            digest,
            requests: r.metrics.count(Class::All),
            slo_pct: r.metrics.slo_compliance(&slo) * 100.0,
            strict_p50_ms: r
                .metrics
                .latency_percentile_ms(Class::Strict, 0.5)
                .unwrap_or(0.0),
            strict_p99_ms: r
                .metrics
                .latency_percentile_ms(Class::Strict, 0.99)
                .unwrap_or(0.0),
            be_p99_ms: r
                .metrics
                .latency_percentile_ms(Class::BestEffort, 0.99)
                .unwrap_or(0.0),
            cost_usd: r.cost.total_usd,
            spot_usd: r.cost.spot_usd,
            on_demand_usd: r.cost.on_demand_usd,
            evictions: r.cost.evictions,
            reconfigs: r.reconfigs,
            cold_starts: r.cold_starts,
            censored: r.censored,
            audit_checks: r.audit.checks,
        }
    }

    /// Renders the report card as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"scenario\": \"{}\", \"scheme\": \"{}\", \"smoke\": {}, \"digest\": \"{}\", ",
                "\"requests\": {}, \"slo_pct\": {:.4}, \"strict_p50_ms\": {:.4}, ",
                "\"strict_p99_ms\": {:.4}, \"be_p99_ms\": {:.4}, \"cost_usd\": {:.6}, ",
                "\"spot_usd\": {:.6}, \"on_demand_usd\": {:.6}, \"evictions\": {}, ",
                "\"reconfigs\": {}, \"cold_starts\": {}, \"censored\": {}, \"audit_checks\": {}}}"
            ),
            json_escape(&self.name),
            json_escape(&self.scheme),
            self.smoke,
            json_escape(&self.digest),
            self.requests,
            self.slo_pct,
            self.strict_p50_ms,
            self.strict_p99_ms,
            self.be_p99_ms,
            // `+ 0.0` normalizes IEEE negative zero out of the JSON.
            self.cost_usd + 0.0,
            self.spot_usd + 0.0,
            self.on_demand_usd + 0.0,
            self.evictions,
            self.reconfigs,
            self.cold_starts,
            self.censored,
            self.audit_checks,
        )
    }

    /// One row for the rendered report-card table; pair with
    /// [`card_headers`].
    pub fn table_row(&self) -> Vec<String> {
        vec![
            self.name.clone(),
            self.scheme.clone(),
            format!("{}", self.requests),
            format!("{:.2}", self.slo_pct),
            format!("{:.1}", self.strict_p99_ms),
            format!("{:.4}", self.cost_usd),
            format!("{}", self.evictions),
            format!("{}", self.reconfigs),
            format!("{}", self.censored),
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
/// The audited arm (the compiled config, `audit = true`) and an
/// unaudited arm run the identical compiled scenario; the audit must be
/// clean and the two golden digests must match bit-for-bit (the auditor
/// only reads engine state), or the run fails. `[expect]` assertions
/// are enforced on the audited arm.
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
    let trace = match &compiled.trace {
        TraceSource::Config(tc) => tc.generate(&RngFactory::new(compiled.config.seed)),
        TraceSource::Csv(path) => {
            Trace::read_csv_file(path).map_err(|e| ScenarioError::Invalid(e.to_string()))?
        }
    };

    let run_arm = |audit: bool| {
        let mut config = compiled.config.clone();
        config.audit = audit;
        let mut market = compiled.market.clone();
        run_trace_with_oracle(&config, scheme.as_ref(), trace.clone(), &mut market)
    };
    let audited = run_arm(true);
    if !audited.audit.is_clean() {
        return Err(ScenarioError::Invalid(format!(
            "scenario '{}': audit violations: {:?}",
            spec.name, audited.audit.violations
        )));
    }
    let digest = golden::digest(&audited);
    let unaudited = golden::digest(&run_arm(false));
    if digest != unaudited {
        return Err(ScenarioError::Invalid(format!(
            "scenario '{}': audited and unaudited digests diverge:\n  audited:   {}\n  unaudited: {}",
            spec.name, digest, unaudited
        )));
    }

    if let Some(min) = spec.expect.min_evictions {
        if audited.cost.evictions < min {
            return Err(ScenarioError::Invalid(format!(
                "scenario '{}': expected >= {min} evictions, saw {}",
                spec.name, audited.cost.evictions
            )));
        }
    }
    if let Some(min) = spec.expect.min_reconfigs {
        if audited.reconfigs < min {
            return Err(ScenarioError::Invalid(format!(
                "scenario '{}': expected >= {min} reconfigs, saw {}",
                spec.name, audited.reconfigs
            )));
        }
    }
    if let Some(max) = spec.expect.max_censored {
        if audited.censored > max {
            return Err(ScenarioError::Invalid(format!(
                "scenario '{}': expected <= {max} censored requests, saw {}",
                spec.name, audited.censored
            )));
        }
    }

    Ok(ScenarioOutcome::from_result(
        &spec.name,
        smoke,
        digest,
        spec.fleet.slo_mult,
        &audited,
    ))
}

/// Lists `*.toml` scenario files under `dir`, sorted by file name.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] if the directory is unreadable.
pub fn catalog_files(dir: &Path) -> Result<Vec<PathBuf>, ScenarioError> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| ScenarioError::Invalid(format!("{}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    Ok(files)
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
        // Zero is a valid start-up or cold-start delay.
        let spec =
            parse("name = \"x\"\n[fleet]\ncold_start_secs = 0\nvm_startup_secs = 0\n").unwrap();
        assert_eq!(spec.fleet.cold_start_secs, 0.0);
        assert_eq!(spec.fleet.vm_startup_secs, 0.0);
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
        assert!(compiled.config.audit);
        // 1 scripted + 2 storm members armed.
        assert_eq!(compiled.market.pending_evictions(), 3);
        // Zero jitter: storm leads are exactly lead_secs.
        let mut m = compiled.market.clone();
        assert_eq!(
            m.roll_revocation(SimTime::from_secs(20.0), 0),
            Some(SimDuration::from_secs(10.0))
        );
        // Compilation is deterministic.
        assert_eq!(compiled, spec.compile(Path::new("."), false));
    }

    #[test]
    fn storm_jitter_is_deterministic_and_bounded() {
        let text = "name = \"j\"\n[fleet]\nworkers = 4\n\n[[market.storm]]\nworkers = [0, 1, 2, 3]\nat_secs = 10\nlead_secs = 20\nlead_jitter_secs = 10\njitter_seed = 5\n";
        let spec = parse(text).unwrap();
        let a = spec.compile(Path::new("."), false);
        let b = spec.compile(Path::new("."), false);
        assert_eq!(a.market, b.market);
        let mut m = a.market.clone();
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
        let json = outcome.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"scenario\": \"tiny\""));
        assert!(json.contains("\"smoke\": true"));
        assert!(outcome.requests > 0);
        assert!(outcome.audit_checks > 0);
    }
}
