//! The calibrated 22-model table.

use std::fmt;

use protean_gpu::SliceProfile;
use protean_sim::SimDuration;

/// SLO multiplier used throughout the paper: a strict request's deadline
/// is `3 ×` its batch execution latency on the full GPU (§5).
pub const DEFAULT_SLO_MULTIPLIER: f64 = 3.0;

/// Fraction of a batch's execution cost that does not shrink with
/// partial fill (kernel launches, weight reads); the remainder scales
/// linearly with the number of requests in the batch.
pub const BATCH_FIXED_COST_FRACTION: f64 = 0.3;

/// The application domain a model belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Image classification, batch size 128 (ImageNet-1k).
    Vision,
    /// Sequence classification, batch size 4 (Large Movie Review).
    Language,
}

/// The paper's interference classes, assigned from the Fig. 3 FBRs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterferenceClass {
    /// Low Interference (yellow bars in Fig. 3).
    Li,
    /// High Interference (orange bars in Fig. 3).
    Hi,
    /// Very High Interference — the language models of §6.2.
    Vhi,
}

/// Identifier of one of the paper's 22 workload models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelId {
    // -- Vision (batch 128) --
    /// ResNet 50 (HI).
    ResNet50,
    /// GoogleNet (LI).
    GoogleNet,
    /// DenseNet 121 (HI).
    DenseNet121,
    /// DPN 92 (HI, largest memory footprint).
    Dpn92,
    /// VGG 19 (HI).
    Vgg19,
    /// ResNet 18 (LI).
    ResNet18,
    /// MobileNet (LI).
    MobileNet,
    /// MobileNet V2 (LI).
    MobileNetV2,
    /// SENet 18 (LI).
    SeNet18,
    /// ShuffleNet V2 (LI, least deficiency-sensitive).
    ShuffleNetV2,
    /// EfficientNet-B0 (LI).
    EfficientNetB0,
    /// Simplified DLA (LI).
    SimplifiedDla,
    // -- Language (batch 4) --
    /// ALBERT (VHI).
    Albert,
    /// BERT (VHI).
    Bert,
    /// DeBERTa (VHI).
    DeBerta,
    /// DistilBERT (VHI).
    DistilBert,
    /// FlauBERT (VHI, longest execution).
    FlauBert,
    /// Funnel-Transformer (VHI).
    FunnelTransformer,
    /// RoBERTa (VHI).
    RoBerta,
    /// SqueezeBERT (VHI).
    SqueezeBert,
    /// OpenAI GPT-1 (VHI, generative).
    Gpt1,
    /// OpenAI GPT-2 (VHI, generative).
    Gpt2,
}

impl ModelId {
    /// All 22 models, vision first.
    pub const ALL: [ModelId; 22] = [
        ModelId::ResNet50,
        ModelId::GoogleNet,
        ModelId::DenseNet121,
        ModelId::Dpn92,
        ModelId::Vgg19,
        ModelId::ResNet18,
        ModelId::MobileNet,
        ModelId::MobileNetV2,
        ModelId::SeNet18,
        ModelId::ShuffleNetV2,
        ModelId::EfficientNetB0,
        ModelId::SimplifiedDla,
        ModelId::Albert,
        ModelId::Bert,
        ModelId::DeBerta,
        ModelId::DistilBert,
        ModelId::FlauBert,
        ModelId::FunnelTransformer,
        ModelId::RoBerta,
        ModelId::SqueezeBert,
        ModelId::Gpt1,
        ModelId::Gpt2,
    ];

    /// The model's profiled quantities: its row of [`PROFILES`].
    pub fn profile(self) -> &'static ModelProfile {
        &PROFILES[self as usize]
    }

    /// A stable machine-readable slug (lowercase alphanumeric), used by
    /// trace files and the CLI.
    pub fn slug(self) -> &'static str {
        self.profile().slug
    }

    /// Resolves a slug produced by [`ModelId::slug`].
    pub fn from_slug(slug: &str) -> Option<ModelId> {
        ModelId::ALL.into_iter().find(|m| m.slug() == slug)
    }

    /// The model's display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        self.profile().name
    }

    /// The pool of models whose class is "opposite" to this one's within
    /// the same domain — the paper rotates BE requests through the
    /// opposite-class pool of the strict model (§5). Never empty and
    /// never contains `self`: the table has both LI and HI vision
    /// models, and every LLM has non-generative peers.
    pub fn opposite_pool(self) -> Vec<ModelId> {
        let p = self.profile();
        match p.domain {
            Domain::Vision => {
                let target = match p.class {
                    InterferenceClass::Li => InterferenceClass::Hi,
                    _ => InterferenceClass::Li,
                };
                vision()
                    .filter(|m| m.class == target)
                    .map(|m| m.id)
                    .collect()
            }
            // All language models are VHI; the BE pool is the other
            // non-generative LLMs (Fig. 13 rotates BE through the
            // "previously-seen LLMs").
            Domain::Language => vhi_non_generative()
                .filter(|m| m.id != self)
                .map(|m| m.id)
                .collect(),
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The profiled quantities PROTEAN's policies consume for one model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelProfile {
    /// Which model this is.
    pub id: ModelId,
    /// Machine-readable slug ([`ModelId::slug`]).
    pub slug: &'static str,
    /// Display name as in the paper's figures ([`ModelId::name`]).
    pub name: &'static str,
    /// Application domain (fixes the batch size and dataset).
    pub domain: Domain,
    /// `true` for the generative GPT models of Fig. 13.
    pub generative: bool,
    /// Interference class from the Fig. 3 FBR ranking.
    pub class: InterferenceClass,
    /// Requests per served batch (128 vision / 4 language, §5).
    pub batch_size: u32,
    /// GPU memory per in-flight batch, GB (weights + activations).
    pub mem_gb: f64,
    /// Solo batch execution time on the full GPU (`7g`).
    pub solo_7g: SimDuration,
    /// Fractional Bandwidth Requirement on the full GPU (Eq. 1's
    /// `bw × sm` product, Fig. 3).
    pub fbr: f64,
    /// Deficiency sensitivity `β` of the Amdahl-style RDF law.
    pub deficiency_beta: f64,
}

impl ModelProfile {
    /// The Resource Deficiency Factor on `slice`:
    /// `RDF = Solo_slice / Solo_7g ≥ 1` (§3).
    ///
    /// Modelled as `1 / (1 − β·(1 − min(c, b)))` where `c` and `b` are
    /// the slice's compute and bandwidth fractions — a model slows down
    /// according to whichever resource it loses more of.
    pub fn rdf(&self, slice: SliceProfile) -> f64 {
        let effective = slice.compute_fraction().min(slice.bandwidth_fraction());
        1.0 / (1.0 - self.deficiency_beta * (1.0 - effective))
    }

    /// Solo batch execution time on `slice` (`Solo_7g × RDF`).
    pub fn solo_on(&self, slice: SliceProfile) -> SimDuration {
        self.solo_7g.mul_f64(self.rdf(slice))
    }

    /// Fraction of a full batch's execution time a batch filled to
    /// `fill ∈ [0, 1]` takes: inference latency is affine in batch size
    /// — a fixed kernel-launch/weight-read floor
    /// ([`BATCH_FIXED_COST_FRACTION`]) plus a per-sample term.
    pub fn fill_factor(&self, fill: f64) -> f64 {
        BATCH_FIXED_COST_FRACTION + (1.0 - BATCH_FIXED_COST_FRACTION) * fill.clamp(0.0, 1.0)
    }

    /// The strict-request SLO deadline at the default 3× multiplier.
    pub fn slo(&self) -> SimDuration {
        self.slo_with_multiplier(DEFAULT_SLO_MULTIPLIER)
    }

    /// The strict-request SLO deadline at a custom multiplier (the §6.2
    /// tight-SLO study uses 2×).
    ///
    /// # Panics
    ///
    /// Panics if `multiplier < 1`.
    pub fn slo_with_multiplier(&self, multiplier: f64) -> SimDuration {
        assert!(multiplier >= 1.0, "SLO below execution time: {multiplier}");
        self.solo_7g.mul_f64(multiplier)
    }

    /// `true` if one batch of this model fits in `slice`'s memory.
    pub fn fits_in(&self, slice: SliceProfile) -> bool {
        self.mem_gb <= slice.mem_gb() + 1e-9
    }

    /// The smallest profile that can hold one batch.
    pub fn smallest_fitting_slice(&self) -> SliceProfile {
        SliceProfile::ALL
            .into_iter()
            .find(|&s| self.fits_in(s))
            .expect("every model fits in 7g.40gb")
    }
}

const VISION_BATCH: u32 = 128;
const LANGUAGE_BATCH: u32 = 4;

/// One row of [`PROFILES`]; the 7g solo time is in whole milliseconds.
#[allow(clippy::too_many_arguments)]
const fn row(
    id: ModelId,
    slug: &'static str,
    name: &'static str,
    domain: Domain,
    class: InterferenceClass,
    generative: bool,
    solo_ms: u64,
    mem_gb: f64,
    fbr: f64,
    deficiency_beta: f64,
) -> ModelProfile {
    let batch_size = match domain {
        Domain::Vision => VISION_BATCH,
        Domain::Language => LANGUAGE_BATCH,
    };
    ModelProfile {
        id,
        slug,
        name,
        domain,
        generative,
        class,
        batch_size,
        mem_gb,
        solo_7g: SimDuration::from_micros(solo_ms * 1_000),
        fbr,
        deficiency_beta,
    }
}

/// The calibrated profiles of all 22 paper workloads, in
/// [`ModelId::ALL`] order ([`ModelId::profile`] indexes it).
#[rustfmt::skip]
pub static PROFILES: [ModelProfile; 22] = {
    use Domain::{Language, Vision};
    use InterferenceClass::{Hi, Li, Vhi};
    use ModelId::*;
    [
        // id, slug, name, domain, class, generative, 7g ms, GB, FBR, β
        row(ResNet50, "resnet50", "ResNet 50", Vision, Hi, false, 95, 6.0, 0.52, 0.55),
        row(GoogleNet, "googlenet", "GoogleNet", Vision, Li, false, 70, 4.0, 0.26, 0.30),
        row(DenseNet121, "densenet121", "DenseNet 121", Vision, Hi, false, 120, 7.0, 0.56, 0.60),
        row(Dpn92, "dpn92", "DPN 92", Vision, Hi, false, 160, 13.7, 0.66, 0.72),
        row(Vgg19, "vgg19", "VGG 19", Vision, Hi, false, 140, 8.5, 0.62, 0.70),
        row(ResNet18, "resnet18", "ResNet 18", Vision, Li, false, 58, 3.5, 0.22, 0.25),
        row(MobileNet, "mobilenet", "MobileNet", Vision, Li, false, 52, 2.0, 0.14, 0.10),
        row(MobileNetV2, "mobilenetv2", "MobileNet V2", Vision, Li, false, 55, 2.2, 0.15, 0.12),
        row(SeNet18, "senet18", "SENet 18", Vision, Li, false, 65, 3.6, 0.24, 0.28),
        row(ShuffleNetV2, "shufflenetv2", "ShuffleNet V2", Vision, Li, false, 50, 2.5, 0.12, 0.03),
        row(EfficientNetB0, "efficientnetb0", "EfficientNet-B0", Vision, Li, false, 75, 3.2, 0.20, 0.20),
        row(SimplifiedDla, "simplifieddla", "Simplified DLA", Vision, Li, false, 60, 3.0, 0.16, 0.30),
        row(Albert, "albert", "ALBERT", Language, Vhi, false, 110, 3.0, 0.50, 0.936),
        row(Bert, "bert", "BERT", Language, Vhi, false, 90, 3.4, 0.46, 0.80),
        row(DeBerta, "deberta", "DeBERTa", Language, Vhi, false, 150, 4.5, 0.52, 0.85),
        row(DistilBert, "distilbert", "DistilBERT", Language, Vhi, false, 60, 2.2, 0.40, 0.70),
        row(FlauBert, "flaubert", "FlauBERT", Language, Vhi, false, 185, 4.0, 0.48, 0.82),
        row(FunnelTransformer, "funneltransformer", "Funnel-Transformer", Language, Vhi, false, 130, 3.8, 0.50, 0.84),
        row(RoBerta, "roberta", "RoBERTa", Language, Vhi, false, 95, 3.5, 0.47, 0.80),
        row(SqueezeBert, "squeezebert", "SqueezeBERT", Language, Vhi, false, 80, 2.6, 0.42, 0.72),
        row(Gpt1, "gpt1", "GPT-1", Language, Vhi, true, 120, 4.2, 0.62, 0.86),
        row(Gpt2, "gpt2", "GPT-2", Language, Vhi, true, 190, 5.5, 0.67, 0.88),
    ]
};

/// The 12 vision models.
pub fn vision() -> impl Iterator<Item = &'static ModelProfile> {
    PROFILES.iter().filter(|p| p.domain == Domain::Vision)
}

/// The 10 language models.
pub fn language() -> impl Iterator<Item = &'static ModelProfile> {
    PROFILES.iter().filter(|p| p.domain == Domain::Language)
}

/// The non-generative language models (the Fig. 12 VHI set).
pub fn vhi_non_generative() -> impl Iterator<Item = &'static ModelProfile> {
    language().filter(|p| !p.generative)
}

/// The generative GPT models (Fig. 13).
pub fn generative() -> impl Iterator<Item = &'static ModelProfile> {
    PROFILES.iter().filter(|p| p.generative)
}

/// Models in the given interference class.
pub fn in_class(class: InterferenceClass) -> impl Iterator<Item = &'static ModelProfile> {
    PROFILES.iter().filter(move |p| p.class == class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn catalog_has_22_models_with_paper_batches() {
        assert_eq!(PROFILES.len(), 22);
        assert_eq!(vision().count(), 12);
        assert_eq!(language().count(), 10);
        assert_eq!(generative().count(), 2);
        for p in vision() {
            assert_eq!(p.batch_size, 128);
        }
        for p in language() {
            assert_eq!(p.batch_size, 4);
            assert_eq!(p.class, InterferenceClass::Vhi);
        }
    }

    #[test]
    fn solo_times_in_paper_band() {
        // §5: batch sizes selected so 7g latency is ~50-200 ms.
        for p in &PROFILES {
            let ms = p.solo_7g.as_millis_f64();
            assert!((50.0..=200.0).contains(&ms), "{}: {ms} ms", p.id);
        }
    }

    #[test]
    fn memory_footprints_in_paper_band() {
        // §5: ~2 to 14 GB per batch.
        for p in &PROFILES {
            assert!(
                (2.0..=14.0).contains(&p.mem_gb),
                "{}: {} GB",
                p.id,
                p.mem_gb
            );
        }
    }

    #[test]
    fn dpn92_footprint_dominates() {
        // Fig. 7: DPN 92's footprint is up to 2.74× the other BE models'.
        let dpn = ModelId::Dpn92.profile().mem_gb;
        let shuffle = ModelId::ShuffleNetV2.profile().mem_gb;
        assert!(dpn / shuffle > 2.7, "ratio {}", dpn / shuffle);
        for p in vision() {
            assert!(p.mem_gb <= dpn);
        }
    }

    #[test]
    fn llm_fbrs_exceed_vision_by_published_margin() {
        let vis_mean: f64 = vision().map(|p| p.fbr).sum::<f64>() / 12.0;
        let llm_mean: f64 =
            vhi_non_generative().map(|p| p.fbr).sum::<f64>() / vhi_non_generative().count() as f64;
        let uplift = llm_mean / vis_mean - 1.0;
        // §6.2: "59% higher on average".
        assert!((0.45..=0.75).contains(&uplift), "uplift {uplift}");
        // Fig. 13: GPT FBRs up to 42% above the other LLMs.
        let gpt_max = generative().map(|p| p.fbr).fold(0.0, f64::max);
        assert!(
            (gpt_max / llm_mean - 1.0) > 0.3,
            "gpt uplift {}",
            gpt_max / llm_mean - 1.0
        );
    }

    #[test]
    fn albert_rdf_matches_paper() {
        // §2.2: ALBERT's batch execution grows 2.15× on a 3g slice.
        let rdf = ModelId::Albert.profile().rdf(SliceProfile::G3);
        assert!((rdf - 2.15).abs() < 0.05, "rdf {rdf}");
    }

    #[test]
    fn shufflenet_barely_deficiency_sensitive() {
        // §6.2: ShuffleNet V2 is <2% affected on the scheduling slices.
        let p = ModelId::ShuffleNetV2.profile();
        assert!(p.rdf(SliceProfile::G3) < 1.02);
        assert!(p.rdf(SliceProfile::G4) < 1.02);
    }

    #[test]
    fn rdf_monotone_in_slice_size() {
        for p in &PROFILES {
            let mut last = f64::INFINITY;
            for s in SliceProfile::ALL {
                let rdf = p.rdf(s);
                assert!(rdf <= last + 1e-12, "{}: RDF not monotone at {s}", p.id);
                assert!(rdf >= 1.0 - 1e-12);
                last = rdf;
            }
            assert_eq!(p.rdf(SliceProfile::G7), 1.0);
        }
    }

    #[test]
    fn fill_factor_is_affine_and_bounded() {
        let p = ModelId::ResNet50.profile();
        assert_eq!(p.fill_factor(1.0), 1.0);
        assert!((p.fill_factor(0.0) - BATCH_FIXED_COST_FRACTION).abs() < 1e-12);
        assert!((p.fill_factor(0.5) - 0.65).abs() < 1e-12);
        // Out-of-range fills are clamped.
        assert_eq!(p.fill_factor(2.0), 1.0);
    }

    #[test]
    fn slo_is_three_times_solo() {
        let p = ModelId::ResNet50.profile();
        assert_eq!(p.slo(), p.solo_7g.mul_f64(3.0));
        assert_eq!(p.slo_with_multiplier(2.0), p.solo_7g.mul_f64(2.0));
    }

    #[test]
    fn smallest_fitting_slice_respects_memory() {
        let smallest = |m: ModelId| m.profile().smallest_fitting_slice();
        assert_eq!(smallest(ModelId::Dpn92), SliceProfile::G3);
        assert_eq!(smallest(ModelId::MobileNet), SliceProfile::G1);
        assert_eq!(smallest(ModelId::Gpt2), SliceProfile::G2);
    }

    #[test]
    fn opposite_pool_swaps_classes() {
        // Strict HI vision model -> BE pool is LI vision.
        for id in ModelId::ResNet50.opposite_pool() {
            assert_eq!(id.profile().class, InterferenceClass::Li);
        }
        // Strict LI vision model -> BE pool is HI vision.
        for id in ModelId::ShuffleNetV2.opposite_pool() {
            assert_eq!(id.profile().class, InterferenceClass::Hi);
        }
        // Strict GPT -> BE pool is the other non-generative LLMs.
        let pool = ModelId::Gpt1.opposite_pool();
        assert_eq!(pool.len(), 8);
        assert!(!pool.contains(&ModelId::Gpt1));
        assert!(!pool.contains(&ModelId::Gpt2));
    }

    #[test]
    fn opposite_pool_is_never_empty() {
        // The trace builders use the pool as the BE rotation without a
        // fallback, so every model needs at least one BE peer.
        for m in ModelId::ALL {
            let pool = m.opposite_pool();
            assert!(!pool.is_empty(), "{m} has no BE peers");
            assert!(!pool.contains(&m), "{m} is its own BE peer");
        }
    }

    #[test]
    fn profiles_are_in_model_order() {
        // `profile` indexes by discriminant, and the BE rotation draws
        // from `opposite_pool` by index, so the table keeps `ALL` order.
        for (i, m) in ModelId::ALL.into_iter().enumerate() {
            assert_eq!(m as usize, i, "{m}");
            assert_eq!(m.profile().id, m);
        }
    }

    #[test]
    fn slugs_round_trip() {
        for m in ModelId::ALL {
            assert_eq!(ModelId::from_slug(m.slug()), Some(m), "{m}");
            assert!(m
                .slug()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        }
        assert_eq!(ModelId::from_slug("nope"), None);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(ModelId::Dpn92.to_string(), "DPN 92");
        assert_eq!(ModelId::Gpt2.to_string(), "GPT-2");
        assert_eq!(ModelId::SimplifiedDla.to_string(), "Simplified DLA");
    }

    proptest! {
        /// RDF decreases (weakly) as effective resources grow, for any
        /// sensitivity in range.
        #[test]
        fn prop_rdf_law_monotone(beta in 0.0f64..0.95) {
            let mut p = *ModelId::ResNet50.profile();
            p.deficiency_beta = beta;
            let mut last = f64::INFINITY;
            for s in SliceProfile::ALL {
                let rdf = p.rdf(s);
                prop_assert!(rdf <= last + 1e-12);
                prop_assert!(rdf >= 1.0 - 1e-12);
                last = rdf;
            }
        }
    }
}
