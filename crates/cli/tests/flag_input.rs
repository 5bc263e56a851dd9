//! `protean-cli` run flags it must refuse: the process exits with status
//! 2 and names the flag, instead of panicking or aborting on an
//! allocation.

use std::process::Command;

/// Runs `protean-cli` with `args`; returns the exit code and stderr.
fn cli(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_protean-cli"))
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn fleets_past_the_worker_cap_are_refused_naming_the_flag() {
    // Unchecked, 1e11 workers aborts on a 36 TB fleet allocation.
    for args in [
        &["simulate", "--workers", "100000000000"][..],
        &["compare", "--workers", "18446744073709551615"],
        &["replay", "--trace-file", "t.csv", "--workers", "1000001"],
    ] {
        let (code, stderr) = cli(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr
                .starts_with("error: --workers: 'workers' must be an integer >= 1 and <= 1000000"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn reproduce_refuses_bad_durations_seeds_and_ids_naming_the_flag() {
    // Unchecked, `nan`, `-5` and `1e300` panic in the clock, `abc` ran the
    // default, and 1e6 s at the 5000 rps the check assumes is 5e9
    // requests.
    for (flag, value) in [
        ("duration", "nan"),
        ("duration", "-5"),
        ("duration", "1e300"),
        ("duration", "abc"),
        ("duration", "1e6"),
        ("seed", "abc"),
        ("seed", "-1"),
    ] {
        let (code, stderr) = cli(&["reproduce", &format!("--{flag}"), value]);
        assert_eq!(code, Some(2), "--{flag} {value}: {stderr}");
        let named = format!(
            "error: --{flag}: '{}' ",
            flag.replace("duration", "duration_secs")
        );
        assert!(stderr.starts_with(&named), "--{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "--{flag} {value}: {stderr}");
    }
    let (code, stderr) = cli(&["reproduce", "--only", "fig01"]);
    assert_eq!(code, Some(2), "{stderr}");
    let ids = "(fig02_motivation | fig03_fbr_catalog | fig04_architecture | table2_mig_profiles";
    assert!(
        stderr.starts_with(&format!("error: --only: unknown experiment 'fig01' {ids}")),
        "{stderr}"
    );
    assert!(stderr.ends_with(" | stats_significance)\n"), "{stderr}");
}
