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
