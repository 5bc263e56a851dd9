//! `protean-cli replay` on trace files it must refuse: the process exits
//! with status 2 and names the offending line, instead of panicking or
//! running for simulated centuries.

use std::process::Command;

/// Runs `replay` over a trace file holding `csv`; returns the exit code
/// and stderr.
fn replay(name: &str, csv: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("protean_cli_replay_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, csv).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_protean-cli"))
        .args(["replay", "--trace-file"])
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn replay_rejects_arrivals_past_the_span_cap() {
    let cases = [
        (
            "max_u64.csv",
            "arrival_us,model,strict\n18446744073709551615,resnet50,1\n",
            2,
        ),
        (
            "far_future.csv",
            "arrival_us,model,strict\n100,resnet50,1\n500000000000000,resnet50,1\n",
            3,
        ),
    ];
    for (name, csv, line) in cases {
        let (code, stderr) = replay(name, csv);
        assert_eq!(code, Some(2), "{name}: {stderr}");
        assert!(stderr.contains(&format!("line {line}")), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}
