//! `perf` — the benchmark driver.
//!
//! ```text
//! perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! perf --repin
//! ```
//!
//! Each invocation measures one named workload (see `README.md` for why
//! each exists). Every repetition runs in a fresh child process of this
//! binary, one child at a time, so each has its own peak RSS and a
//! clean allocator; a child runs the simulation on one thread.
//!
//! * `--trace 0` (default): a few set-up measurements, then untraced
//!   repetitions until `--seconds` have passed (at least three). Prints
//!   the end-to-end metrics as medians.
//! * `--trace 1`: one set-up measurement, then untraced and traced runs
//!   alternately until `--seconds` have passed (at least one pair).
//!   Prints the per-layer metrics.
//!
//! Every run's fingerprint must agree; at seed 42 (without `--smoke`)
//! it must also equal the workload's pinned fingerprint. A mismatch
//! marks the run failed and the process exits with status 1 after
//! printing every metric. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--smoke` scales every simulated duration by 0.05 and runs one of
//! each child, unpinned. `--repin` prints each workload's seed-42
//! fingerprint for the table in `workload.rs`.

mod child;
mod json;
mod metrics;
mod probes;
mod procfs;
mod speed;
mod timed;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use child::{Role, WALL_S};
use metrics::{Metric, END_TO_END, PER_LAYER};
use workload::{Spec, Workload, SMOKE_FACTOR, WORKLOADS};

/// The seed whose fingerprints are pinned.
const PIN_SEED: u64 = 42;
/// Set-up measurements per untraced invocation; `setup_s` is their
/// median.
const SETUP_CHILDREN: usize = 3;
/// Each set-up measurement repeats the empty run until this much wall
/// time has accumulated.
const SETUP_BUDGET_S: f64 = 1.0;
/// Fewest untraced repetitions an untraced invocation makes.
const MIN_REPS: usize = 3;

const USAGE: &str = "usage: perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       perf --repin";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repin: bool,
    child: Option<Role>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: PIN_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        repin: false,
        child: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                a.workload = Some(workload::find(&name).ok_or(format!(
                    "unknown workload {name:?}; one of {}",
                    names.join(", ")
                ))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&a.seconds) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--repin" => a.repin = true,
            "--child" => {
                let role = value()?;
                a.child = Some(Role::parse(&role).ok_or(format!("unknown child role {role:?}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_none() && !a.repin {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.repin, args.workload, args.child) {
        (true, _, _) => repin(),
        (false, Some(w), Some(role)) => {
            let (spec, budget) = sized(w, args.smoke);
            let (fp, values) = child::run(role, &spec, args.seed, budget);
            println!("{}", child::report_line(fp.as_deref(), &values));
            Ok(true)
        }
        (false, Some(w), None) => drive(w, &args),
        (false, None, _) => unreachable!("parse_args requires --workload without --repin"),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// The workload's spec and set-up budget, scaled down under `--smoke`.
fn sized(w: &Workload, smoke: bool) -> (Spec, f64) {
    if smoke {
        (w.spec.scaled(SMOKE_FACTOR), SETUP_BUDGET_S * SMOKE_FACTOR)
    } else {
        (w.spec.clone(), SETUP_BUDGET_S)
    }
}

/// What one child reported.
struct Report {
    role: Role,
    fingerprint: Option<String>,
    metrics: BTreeMap<String, Option<f64>>,
}

/// Runs one child process to completion and parses its report.
fn spawn(role: Role, w: &Workload, seed: u64, smoke: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", role.name(), "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {} child: {e}", role.name()))?;
    if !out.status.success() {
        return Err(format!("{} child failed: {}", role.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(line).map_err(|e| format!("{} child report: {e}", role.name()))?;
    let Some(json::Value::Obj(values)) = doc.get("metrics") else {
        return Err(format!("{} child report has no metrics", role.name()));
    };
    Ok(Report {
        role,
        fingerprint: doc
            .get("fingerprint")
            .and_then(|f| f.as_str())
            .map(String::from),
        metrics: values
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64()))
            .collect(),
    })
}

/// One invocation: children in sequence, then the summary and the
/// result line. Returns whether every run was correct.
fn drive(w: &'static Workload, a: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let mut reports = Vec::new();
    let setups = if a.trace || a.smoke {
        1
    } else {
        SETUP_CHILDREN
    };
    for _ in 0..setups {
        reports.push(spawn(Role::Setup, w, a.seed, a.smoke)?);
    }
    let min_rounds = if a.trace || a.smoke { 1 } else { MIN_REPS };
    let timed_from = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || (!a.smoke && timed_from.elapsed().as_secs_f64() < a.seconds) {
        reports.push(spawn(Role::Rep, w, a.seed, a.smoke)?);
        if a.trace {
            reports.push(spawn(Role::Traced, w, a.seed, a.smoke)?);
        }
        rounds += 1;
    }

    let pinned = a.seed == PIN_SEED && !a.smoke;
    let expected = if pinned {
        Some(w.pin.to_string())
    } else {
        reports.iter().find_map(|r| r.fingerprint.clone())
    };
    let mut failed = 0;
    for r in &reports {
        if r.fingerprint.is_some() && r.fingerprint != expected {
            failed += 1;
            eprintln!(
                "perf: {} {} fingerprint mismatch\n  expected {}\n  got      {}",
                w.name,
                r.role.name(),
                expected.as_deref().unwrap_or("-"),
                r.fingerprint.as_deref().unwrap_or("-"),
            );
        }
    }

    let of = |role: Role| -> Vec<&Report> { reports.iter().filter(|r| r.role == role).collect() };
    let (setup, reps, traced) = (of(Role::Setup), of(Role::Rep), of(Role::Traced));
    let mut rows = Vec::new();
    let declared: &[Metric] = if a.trace { PER_LAYER } else { END_TO_END };
    for m in declared {
        let values = if m.name == "bench.trace_overhead_pct" {
            // Each traced run against the untraced run just before it,
            // so slow drift in host speed cancels within a pair.
            let pairs = collect(&traced, WALL_S)
                .into_iter()
                .zip(collect(&reps, WALL_S));
            pairs.map(|(t, u)| Some(100.0 * (t? / u? - 1.0))).collect()
        } else {
            // The first kind of child that reports the metric supplies it.
            [&traced, &reps, &setup]
                .into_iter()
                .map(|group| collect(group, m.name))
                .find(|v| !v.is_empty())
                .ok_or(format!("no child reported {}", m.name))?
        };
        rows.push((m, values));
    }

    println!("perf {}: {}", w.name, w.why);
    println!(
        "perf {} seed={} rev={} host_cores={} threads={} setups={} reps={} traced={} \
         host_slowdown={} elapsed={:.1}s{}",
        w.name,
        a.seed,
        git_rev(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        w.spec.cluster(a.seed).shard_threads,
        setup.len(),
        reps.len(),
        traced.len(),
        readable(median(&collect(&reps, "bench.host_slowdown"))),
        started.elapsed().as_secs_f64(),
        if pinned { " pinned" } else { "" },
    );
    let mut metrics = Vec::new();
    for (m, values) in &rows {
        let med = median(values);
        let present: Vec<f64> = values.iter().flatten().copied().collect();
        println!(
            "  {:<38} {:>12} {:<14} min {} max {} n={}",
            m.name,
            readable(med),
            m.unit,
            readable(present.iter().copied().reduce(f64::min)),
            readable(present.iter().copied().reduce(f64::max)),
            present.len(),
        );
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(m.name),
            json::number(med),
            json::quote(m.unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        reports.len(),
        failed,
        metrics.join(", ")
    );
    Ok(failed == 0)
}

fn collect(group: &[&Report], name: &str) -> Vec<Option<f64>> {
    group
        .iter()
        .filter_map(|r| r.metrics.get(name).copied())
        .collect()
}

/// About six significant digits, for the human-readable summary (the
/// result line keeps every digit).
fn readable(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() && v != 0.0 => {
            let decimals = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
            format!("{v:.decimals$}")
        }
        Some(v) if v.is_finite() => "0".into(),
        _ => "null".into(),
    }
}

/// Median of the present values; `None` when there are none.
fn median(values: &[Option<f64>]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().flatten().copied().collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Prints every workload's fingerprint at the pinned seed.
fn repin() -> Result<bool, String> {
    for w in &WORKLOADS {
        let r = spawn(Role::Rep, w, PIN_SEED, false)?;
        println!(
            "{}: {}",
            w.name,
            r.fingerprint.ok_or("rep child gave no fingerprint")?
        );
    }
    Ok(true)
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process, nothing outside the checkout); `unknown` when the
/// checkout carries no `.git`.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{name}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))?
                .split_whitespace()
                .next()
                .map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let a = args(&[
            "--workload",
            "soak-256",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "soak-256", "--trace", "2"],
            &["--workload", "soak-256", "--seconds", "-1"],
            &["--workload", "soak-256", "--bogus"],
            &["--workload"],
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn median_skips_missing_values() {
        assert_eq!(median(&[Some(3.0), None, Some(1.0), Some(2.0)]), Some(2.0));
        assert_eq!(median(&[Some(1.0), Some(4.0)]), Some(2.5));
        assert_eq!(median(&[None]), None);
    }
}
