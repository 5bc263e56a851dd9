//! `protean-cli` — run PROTEAN simulations from the command line.
//!
//! ```text
//! protean-cli simulate --model resnet50 --scheme protean --rps 5000 \
//!     --duration 60 --trace wiki --strict-frac 0.5 --procurement hybrid \
//!     --availability low --workers 8 --seed 42 --slo-mult 3
//! protean-cli compare --model vgg19 --duration 60
//! protean-cli gen-trace --model resnet50 --duration 10 --out trace.csv
//! protean-cli replay --trace-file trace.csv --workers 2
//! protean-cli reproduce --only fig05_slo_vision --duration 20
//! protean-cli scenario run --smoke true
//! protean-cli catalog
//! protean-cli geometries
//! protean-cli help
//! ```
//!
//! Each run flag overrides one scenario key (`--rps` is `[trace] rps`)
//! and is checked as that key is in a scenario file.

mod args;
mod commands;

use std::io::{self, Write};

use args::Args;
use commands::Failure;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = run(raw, &mut io::BufWriter::new(io::stdout().lock()));
    std::process::exit(code);
}

/// Runs the command `raw` names with its report on `out`, flushed, and
/// returns the exit status: 0, or 2 once the error is on stderr. A
/// reader that closes `out` early (`protean-cli catalog | head -1`) ends
/// the run quietly.
fn run(raw: Vec<String>, out: &mut dyn Write) -> i32 {
    let outcome = if raw.first().map(String::as_str) == Some("scenario") {
        // `scenario` takes a second positional (the action) the flag
        // parser would otherwise reject; peel both off before parsing.
        let action = raw.get(1).filter(|a| !a.starts_with("--")).cloned();
        let rest = raw[1 + usize::from(action.is_some())..].to_vec();
        Args::parse(rest)
            .map_err(Failure::from)
            .and_then(|args| commands::scenario(action.as_deref(), &args, out))
    } else {
        match Args::parse(raw) {
            Ok(args) => command(&args, out),
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("run `protean-cli help` for usage");
                return 2;
            }
        }
    };
    match outcome.and_then(|()| Ok(out.flush()?)) {
        Ok(()) => 0,
        Err(Failure::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn command(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    match args.command.as_deref() {
        Some("simulate") => commands::simulate(args, out),
        Some("compare") => commands::compare(args, out),
        Some("replay") => commands::replay(args, out),
        Some("gen-trace") => commands::gen_trace(args, out),
        Some("reproduce") => commands::reproduce(args, out),
        Some("catalog") => commands::catalog_cmd(args, out),
        Some("geometries") => commands::geometries(args, out),
        Some("help") | None => Ok(out.write_all(commands::USAGE.as_bytes())?),
        Some(other) => Err(args::ArgError(format!(
            "unknown command '{other}' (simulate | compare | replay | gen-trace | reproduce | catalog | geometries | scenario | help)"
        ))
        .into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An output whose reader is gone: every write fails with `kind`.
    struct Closed(io::ErrorKind);

    impl Write for Closed {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(self.0.into())
        }
    }

    fn tokens(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn a_closed_pipe_ends_the_run_quietly() {
        for line in [
            "catalog",
            "geometries",
            "help",
            "reproduce --only table2_mig_profiles",
        ] {
            let mut out = Closed(io::ErrorKind::BrokenPipe);
            assert_eq!(run(tokens(line), &mut out), 0, "{line}");
        }
        // Any other write error is one.
        let mut out = Closed(io::ErrorKind::PermissionDenied);
        assert_eq!(run(tokens("catalog"), &mut out), 2);
    }
}
