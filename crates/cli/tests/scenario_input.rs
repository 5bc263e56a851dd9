//! `protean-cli scenario run` on scenario files it must refuse: the
//! process exits with status 2, a rejected file names the offending
//! line, a catalog whose files share a name names both, and a run that
//! misses its `[expect]` says which expectation failed. None of them may
//! panic.

use std::process::Command;

/// Runs `scenario <action> --smoke true` over a directory holding a
/// `<stem>.toml` per `(stem, toml)` of `files`; returns the exit code
/// and stderr.
fn scenario(action: &str, files: &[(&str, &str)]) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!(
        "protean_cli_scenario_{}_{action}_{}",
        std::process::id(),
        files[0].0
    ));
    std::fs::create_dir_all(&dir).unwrap();
    for (stem, toml) in files {
        std::fs::write(dir.join(format!("{stem}.toml")), toml).unwrap();
    }
    let out = Command::new(env!("CARGO_BIN_EXE_protean-cli"))
        .args(["scenario", action, "--smoke", "true", "--dir"])
        .arg(&dir)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn out_of_range_values_are_rejected_with_their_line() {
    let cases = [
        // Past `u64::MAX`: read exactly, not rounded through `f64`.
        (
            "seed_overflow",
            "name = \"x\"\n[fleet]\nseed = 18446744073709551616\n",
            3,
            "'seed' must be",
        ),
        // Past the worker cap: unchecked, the fleet allocation panics.
        (
            "workers_overflow",
            "name = \"x\"\n[fleet]\nworkers = 18446744073709551615\n",
            3,
            "'workers' must be an integer >= 1 and <= 1000000",
        ),
        // Unchecked, the burst's 1e14 requests abort on the allocation.
        (
            "burst_overflow",
            "name = \"x\"\n[trace]\nrps = 1\nduration_secs = 1e6\n\n[[trace.burst]]\nstart_secs = 0\nduration_secs = 1e6\nadd_rps = 1e8\n",
            9,
            "'add_rps' must keep the trace within",
        ),
        // Rounds to a zero-microsecond pulse period.
        (
            "pulse_period",
            "name = \"x\"\n[trace]\nkind = \"pulse\"\nrps = 10\nduration_secs = 20\npulse_period_secs = 0.0000001\n",
            6,
            "'pulse_period_secs' must be",
        ),
        // A card is `<out>/<name>.json`: only a plain file stem is a name.
        ("dotdot", "name = \"../x\"\n", 1, "'name' must be ASCII letters"),
        ("absolute", "name = \"/abs\"\n", 1, "'name' must be ASCII letters"),
        ("empty", "name = \"\"\n", 1, "'name' must be ASCII letters"),
        ("tab", "\nname = \"a\tb\"\n", 2, "digits, '_' and '-' only, got \"a\\tb\""),
    ];
    for (name, toml, line, reason) in cases {
        let (code, stderr) = scenario("run", &[(name, toml)]);
        assert_eq!(code, Some(2), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!("line {line}:")),
            "{name}: {stderr}"
        );
        assert!(stderr.contains(reason), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

#[test]
fn an_expectation_of_u64_max_evictions_is_enforced() {
    let toml = "name = \"x\"\n[fleet]\nworkers = 1\n[trace]\nrps = 20\nduration_secs = 20\n[expect]\nmin_evictions = 18446744073709551615\n";
    let (code, stderr) = scenario("run", &[("expect_max", toml)]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("expected >= 18446744073709551615 evictions, saw 0"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Two files of one name would write one card: `list` and `run` both
/// refuse the catalog and name both files.
#[test]
fn a_catalog_with_two_files_of_one_name_is_refused() {
    let twin = "name = \"twin\"\n";
    for action in ["list", "run"] {
        let (code, stderr) = scenario(action, &[("first", twin), ("second", twin)]);
        assert_eq!(code, Some(2), "{action}: {stderr}");
        let both = ["first.toml and ", "second.toml both name scenario 'twin'"];
        assert!(
            both.iter().all(|b| stderr.contains(b)),
            "{action}: {stderr}"
        );
    }
}
