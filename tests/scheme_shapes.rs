//! Qualitative-shape regression tests: the orderings the paper's
//! evaluation establishes must hold in the reproduction. These guard
//! the calibration — if a refactor breaks "PROTEAN beats INFless on HI
//! models", these fail before any figure is regenerated.

use protean::ProteanBuilder;
use protean_baselines::Baseline;
use protean_cluster::SchemeBuilder;
use protean_experiments::scenario::{self, ScenarioSpec};
use protean_experiments::{run_cell, SchemeRow};
use protean_models::ModelId;

/// The paper's set-up at a 60 s trace with `model` strict at its
/// domain's rate.
fn setup(model: ModelId) -> ScenarioSpec {
    let keys = [("trace.duration_secs", "60")];
    scenario::paper().at_paper_rate(model).with(&keys)
}

/// `scheme` on `spec`, scored at the paper's 3x SLO.
fn scored(spec: &ScenarioSpec, scheme: &dyn SchemeBuilder) -> SchemeRow {
    run_cell(spec, scheme).unwrap()
}

/// Fig. 5 shape: PROTEAN dominates every primary baseline on an HI
/// vision model, and INFless/Llama suffers the most interference.
#[test]
fn protean_beats_baselines_on_hi_vision() {
    let spec = setup(ModelId::ResNet50);
    let protean = scored(&spec, &ProteanBuilder::paper());
    let infless = scored(&spec, &Baseline::InflessLlama);
    let molecule = scored(&spec, &Baseline::MoleculeBeta);
    let naive = scored(&spec, &Baseline::NaiveSlicing);
    assert!(
        protean.slo_compliance_pct > 95.0,
        "{}",
        protean.slo_compliance_pct
    );
    assert!(
        protean.slo_compliance_pct >= naive.slo_compliance_pct - 1.0,
        "PROTEAN {} vs Naive {}",
        protean.slo_compliance_pct,
        naive.slo_compliance_pct
    );
    assert!(
        protean.slo_compliance_pct > infless.slo_compliance_pct + 20.0,
        "PROTEAN {} vs INFless {}",
        protean.slo_compliance_pct,
        infless.slo_compliance_pct
    );
    assert!(
        protean.slo_compliance_pct >= molecule.slo_compliance_pct,
        "PROTEAN {} vs Molecule {}",
        protean.slo_compliance_pct,
        molecule.slo_compliance_pct
    );
    // Fig. 6 shape: INFless's tail is interference-dominated, Molecule's
    // queueing-dominated, and PROTEAN's has the least of both.
    assert!(infless.tail_breakdown.interference_ms > protean.tail_breakdown.interference_ms);
    assert!(molecule.tail_breakdown.queueing_ms > protean.tail_breakdown.queueing_ms);
    assert_eq!(molecule.tail_breakdown.interference_ms, 0.0);
}

/// Fig. 12 shape: the VHI language models sink MPS consolidation.
#[test]
fn infless_collapses_on_vhi_llm() {
    let spec = setup(ModelId::Bert);
    let protean = scored(&spec, &ProteanBuilder::paper());
    let infless = scored(&spec, &Baseline::InflessLlama);
    assert!(
        protean.slo_compliance_pct > 85.0,
        "{}",
        protean.slo_compliance_pct
    );
    assert!(
        infless.slo_compliance_pct < 50.0,
        "{}",
        infless.slo_compliance_pct
    );
}

/// Fig. 13 shape: generative LLMs are the worst case for MPS-only
/// consolidation; PROTEAN stays serviceable.
#[test]
fn gpt_is_worst_case_for_mps_only() {
    let spec = setup(ModelId::Gpt1);
    let protean = scored(&spec, &ProteanBuilder::paper());
    let infless = scored(&spec, &Baseline::InflessLlama);
    assert!(
        protean.slo_compliance_pct > 80.0,
        "{}",
        protean.slo_compliance_pct
    );
    assert!(
        infless.slo_compliance_pct < 30.0,
        "{}",
        infless.slo_compliance_pct
    );
}

/// Table 4 shape: in the 100%-strict HI case, PROTEAN keeps high
/// compliance while INFless/Llama collapses.
#[test]
fn all_strict_case_matches_table4_shape() {
    // The best-effort rotation is never drawn.
    let keys = [
        ("trace.duration_secs", "60"),
        ("trace.strict_fraction", "1"),
    ];
    let spec = scenario::paper().with(&keys);
    let protean = scored(&spec, &ProteanBuilder::paper());
    let infless = scored(&spec, &Baseline::InflessLlama);
    assert!(
        protean.slo_compliance_pct > 90.0,
        "{}",
        protean.slo_compliance_pct
    );
    assert!(
        infless.slo_compliance_pct < 40.0,
        "{}",
        infless.slo_compliance_pct
    );
}

/// Fig. 15 shape: tightening the SLO to 2× degrades PROTEAN only
/// mildly (paper: ≤ ~5%).
#[test]
fn tight_slo_degrades_protean_gracefully() {
    let row = scored(&setup(ModelId::ShuffleNetV2), &ProteanBuilder::paper());
    let tight = row.slo_compliance_at(2.0);
    let degradation = row.slo_compliance_pct - tight;
    assert!(degradation < 8.0, "degradation {degradation}");
    assert!(tight > 90.0, "{tight}");
}

/// Fig. 17 shape: the Oracle beats PROTEAN by at most a whisker.
#[test]
fn oracle_gap_is_small() {
    let spec = setup(ModelId::ResNet50);
    let protean = scored(&spec, &ProteanBuilder::paper());
    let instant = [
        ("fleet.reconfig_delay_secs", "0"),
        ("fleet.cold_start_secs", "0"),
    ];
    let oracle = scored(&spec.with(&instant), &ProteanBuilder::oracle());
    let gap = oracle.slo_compliance_pct - protean.slo_compliance_pct;
    assert!(gap.abs() < 3.0, "oracle gap {gap}");
}

/// Fig. 16 shape: GPUlet's SM caps help but cache/bandwidth sharing
/// still costs it against PROTEAN's MIG isolation.
#[test]
fn protean_at_least_matches_gpulet() {
    let spec = setup(ModelId::Vgg19);
    let protean = scored(&spec, &ProteanBuilder::paper());
    let gpulet = scored(&spec, &Baseline::Gpulet);
    assert!(
        protean.slo_compliance_pct >= gpulet.slo_compliance_pct - 1.0,
        "PROTEAN {} vs GPUlet {}",
        protean.slo_compliance_pct,
        gpulet.slo_compliance_pct
    );
}
