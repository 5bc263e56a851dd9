//! Prints the golden result digests and fingerprints
//! `tests/golden_seed.rs` pins: the digest lines, a blank line, then
//! the fingerprint lines. With `--fields` it prints instead one hash
//! per result field, so a re-pin can name the field it moves.
//!
//! Run after an *intentional* behaviour change and paste the output
//! into the `EXPECTED` and `FINGERPRINTS` tables of the test. An
//! unintentional mismatch is a regression — the engine's results must
//! be bit-identical across pure-performance refactors.

use protean_experiments::golden;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let lines = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => {
            let mut lines = golden::golden_digests();
            lines.push(String::new());
            lines.extend(golden::golden_fingerprints());
            lines
        }
        ["--fields"] => golden::golden_field_hashes(),
        _ => {
            eprintln!("usage: golden_digest [--fields]");
            std::process::exit(2);
        }
    };
    for line in lines {
        println!("{line}");
    }
}
