//! Scheme line-ups used across figures.

use protean::ProteanBuilder;
use protean_baselines::Baseline;
use protean_cluster::SchemeBuilder;

/// Builds one scheme.
pub type Build = fn() -> Box<dyn SchemeBuilder>;

/// The primary comparison of Figs. 5–15: Molecule (beta),
/// INFless/Llama, Naïve Slicing and PROTEAN.
pub const PRIMARY: [Build; 4] = [
    || Box::new(Baseline::MoleculeBeta),
    || Box::new(Baseline::InflessLlama),
    || Box::new(Baseline::NaiveSlicing),
    || Box::new(ProteanBuilder::paper()),
];

/// The §2.2 motivational line-up (Fig. 2): No MPS or MIG, MPS Only,
/// MIG Only, MPS+MIG, and the 'Smart' MPS+MIG straw man.
pub const MOTIVATIONAL: [Build; 5] = [
    || Box::new(Baseline::MoleculeBeta), // "No MPS or MIG"
    || Box::new(Baseline::InflessLlama), // "MPS Only"
    || Box::new(Baseline::MigOnly),
    || Box::new(Baseline::MpsMigEven),
    || Box::new(Baseline::SmartMpsMig),
];

/// The [`PRIMARY`] schemes, built.
pub fn primary() -> Vec<Box<dyn SchemeBuilder>> {
    PRIMARY.iter().map(|build| build()).collect()
}

/// Every scheme the CLI and scenario files name: the names each
/// answers to (canonical first, then aliases) and its builder.
const TABLE: [(&[&str], Build); 9] = [
    (&["protean"], || Box::new(ProteanBuilder::paper())),
    (&["oracle"], || Box::new(ProteanBuilder::oracle())),
    (&["molecule"], || Box::new(Baseline::MoleculeBeta)),
    (&["infless", "llama"], || Box::new(Baseline::InflessLlama)),
    (&["naive"], || Box::new(Baseline::NaiveSlicing)),
    (&["migonly"], || Box::new(Baseline::MigOnly)),
    (&["mpsmig"], || Box::new(Baseline::MpsMigEven)),
    (&["smart"], || Box::new(Baseline::SmartMpsMig)),
    (&["gpulet"], || Box::new(Baseline::Gpulet)),
];

/// Resolves a scheme by its CLI/scenario-file name, ignoring ASCII
/// case. `None` for an unknown name; [`unknown_scheme`] words the
/// error.
pub fn by_name(name: &str) -> Option<Box<dyn SchemeBuilder>> {
    TABLE
        .iter()
        .find(|(names, _)| names.iter().any(|n| n.eq_ignore_ascii_case(name)))
        .map(|(_, build)| build())
}

/// Every name [`by_name`] resolves, aliases included.
pub fn names() -> impl Iterator<Item = &'static str> {
    TABLE.iter().flat_map(|(names, _)| names.iter().copied())
}

/// The error for a name [`by_name`] rejects, listing the canonical
/// names.
pub fn unknown_scheme(name: &str) -> String {
    let canonical: Vec<&str> = TABLE.iter().map(|(names, _)| names[0]).collect();
    format!("unknown scheme '{name}' ({})", canonical.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineups_have_expected_members() {
        let names: Vec<&str> = primary().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "Molecule (beta)",
                "INFless/Llama",
                "Naive Slicing",
                "PROTEAN"
            ]
        );
        assert_eq!(MOTIVATIONAL.len(), 5);
    }
}
