//! `protean-cli` — run PROTEAN simulations from the command line.
//!
//! ```text
//! protean-cli simulate --model resnet50 --scheme protean --rps 5000 \
//!     --duration 60 --trace wiki --strict-frac 0.5 --procurement hybrid \
//!     --availability low --workers 8 --seed 42 --slo-mult 3
//! protean-cli compare --model vgg19 --duration 60
//! protean-cli gen-trace --model resnet50 --duration 10 --out trace.csv
//! protean-cli replay --trace-file trace.csv --workers 2
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

use args::Args;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `scenario` takes a second positional (the action) the flag parser
    // would otherwise reject; peel both off before parsing flags.
    if raw.first().map(String::as_str) == Some("scenario") {
        let action = raw.get(1).filter(|a| !a.starts_with("--")).cloned();
        let rest = raw[1 + usize::from(action.is_some())..].to_vec();
        let outcome =
            Args::parse(rest).and_then(|args| commands::scenario(action.as_deref(), &args));
        if let Err(e) = outcome {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    let parsed = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `protean-cli help` for usage");
            std::process::exit(2);
        }
    };
    let outcome = match parsed.command.as_deref() {
        Some("simulate") => commands::simulate(&parsed),
        Some("compare") => commands::compare(&parsed),
        Some("replay") => commands::replay(&parsed),
        Some("gen-trace") => commands::gen_trace(&parsed),
        Some("catalog") => commands::catalog_cmd(&parsed),
        Some("geometries") => commands::geometries(&parsed),
        Some("help") | None => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => Err(args::ArgError(format!(
            "unknown command '{other}' (simulate | compare | replay | gen-trace | catalog | geometries | scenario | help)"
        ))),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}
