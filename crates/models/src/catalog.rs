//! The calibrated 22-model catalog.

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

    /// Stable dense index for array-backed lookup tables.
    pub fn index(self) -> usize {
        ModelId::ALL
            .iter()
            .position(|&m| m == self)
            .expect("every ModelId is in ALL")
    }

    /// A stable machine-readable slug (lowercase alphanumeric), used by
    /// trace files and the CLI.
    pub fn slug(self) -> &'static str {
        match self {
            ModelId::ResNet50 => "resnet50",
            ModelId::GoogleNet => "googlenet",
            ModelId::DenseNet121 => "densenet121",
            ModelId::Dpn92 => "dpn92",
            ModelId::Vgg19 => "vgg19",
            ModelId::ResNet18 => "resnet18",
            ModelId::MobileNet => "mobilenet",
            ModelId::MobileNetV2 => "mobilenetv2",
            ModelId::SeNet18 => "senet18",
            ModelId::ShuffleNetV2 => "shufflenetv2",
            ModelId::EfficientNetB0 => "efficientnetb0",
            ModelId::SimplifiedDla => "simplifieddla",
            ModelId::Albert => "albert",
            ModelId::Bert => "bert",
            ModelId::DeBerta => "deberta",
            ModelId::DistilBert => "distilbert",
            ModelId::FlauBert => "flaubert",
            ModelId::FunnelTransformer => "funneltransformer",
            ModelId::RoBerta => "roberta",
            ModelId::SqueezeBert => "squeezebert",
            ModelId::Gpt1 => "gpt1",
            ModelId::Gpt2 => "gpt2",
        }
    }

    /// Resolves a slug produced by [`ModelId::slug`].
    pub fn from_slug(slug: &str) -> Option<ModelId> {
        ModelId::ALL.into_iter().find(|m| m.slug() == slug)
    }

    /// The model's display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::ResNet50 => "ResNet 50",
            ModelId::GoogleNet => "GoogleNet",
            ModelId::DenseNet121 => "DenseNet 121",
            ModelId::Dpn92 => "DPN 92",
            ModelId::Vgg19 => "VGG 19",
            ModelId::ResNet18 => "ResNet 18",
            ModelId::MobileNet => "MobileNet",
            ModelId::MobileNetV2 => "MobileNet V2",
            ModelId::SeNet18 => "SENet 18",
            ModelId::ShuffleNetV2 => "ShuffleNet V2",
            ModelId::EfficientNetB0 => "EfficientNet-B0",
            ModelId::SimplifiedDla => "Simplified DLA",
            ModelId::Albert => "ALBERT",
            ModelId::Bert => "BERT",
            ModelId::DeBerta => "DeBERTa",
            ModelId::DistilBert => "DistilBERT",
            ModelId::FlauBert => "FlauBERT",
            ModelId::FunnelTransformer => "Funnel-Transformer",
            ModelId::RoBerta => "RoBERTa",
            ModelId::SqueezeBert => "SqueezeBERT",
            ModelId::Gpt1 => "GPT-1",
            ModelId::Gpt2 => "GPT-2",
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

/// The full 22-model catalog. Obtain via [`catalog`].
#[derive(Debug, Clone)]
pub struct Catalog {
    profiles: Vec<ModelProfile>,
}

/// Returns the calibrated catalog of all 22 paper workloads.
pub fn catalog() -> Catalog {
    Catalog::new()
}

const VISION_BATCH: u32 = 128;
const LANGUAGE_BATCH: u32 = 4;

impl Catalog {
    /// Builds the catalog (cheap; the data is `const`-like).
    pub fn new() -> Self {
        use Domain::{Language, Vision};
        use InterferenceClass::{Hi, Li, Vhi};
        let mk = |id, domain, class, generative, solo_ms: f64, mem, fbr, beta| ModelProfile {
            id,
            domain,
            generative,
            class,
            batch_size: match domain {
                Vision => VISION_BATCH,
                Language => LANGUAGE_BATCH,
            },
            mem_gb: mem,
            solo_7g: SimDuration::from_millis(solo_ms),
            fbr,
            deficiency_beta: beta,
        };
        let profiles = vec![
            mk(ModelId::ResNet50, Vision, Hi, false, 95.0, 6.0, 0.52, 0.55),
            mk(ModelId::GoogleNet, Vision, Li, false, 70.0, 4.0, 0.26, 0.30),
            mk(
                ModelId::DenseNet121,
                Vision,
                Hi,
                false,
                120.0,
                7.0,
                0.56,
                0.60,
            ),
            mk(ModelId::Dpn92, Vision, Hi, false, 160.0, 13.7, 0.66, 0.72),
            mk(ModelId::Vgg19, Vision, Hi, false, 140.0, 8.5, 0.62, 0.70),
            mk(ModelId::ResNet18, Vision, Li, false, 58.0, 3.5, 0.22, 0.25),
            mk(ModelId::MobileNet, Vision, Li, false, 52.0, 2.0, 0.14, 0.10),
            mk(
                ModelId::MobileNetV2,
                Vision,
                Li,
                false,
                55.0,
                2.2,
                0.15,
                0.12,
            ),
            mk(ModelId::SeNet18, Vision, Li, false, 65.0, 3.6, 0.24, 0.28),
            mk(
                ModelId::ShuffleNetV2,
                Vision,
                Li,
                false,
                50.0,
                2.5,
                0.12,
                0.03,
            ),
            mk(
                ModelId::EfficientNetB0,
                Vision,
                Li,
                false,
                75.0,
                3.2,
                0.20,
                0.20,
            ),
            mk(
                ModelId::SimplifiedDla,
                Vision,
                Li,
                false,
                60.0,
                3.0,
                0.16,
                0.30,
            ),
            mk(
                ModelId::Albert,
                Language,
                Vhi,
                false,
                110.0,
                3.0,
                0.50,
                0.936,
            ),
            mk(ModelId::Bert, Language, Vhi, false, 90.0, 3.4, 0.46, 0.80),
            mk(
                ModelId::DeBerta,
                Language,
                Vhi,
                false,
                150.0,
                4.5,
                0.52,
                0.85,
            ),
            mk(
                ModelId::DistilBert,
                Language,
                Vhi,
                false,
                60.0,
                2.2,
                0.40,
                0.70,
            ),
            mk(
                ModelId::FlauBert,
                Language,
                Vhi,
                false,
                185.0,
                4.0,
                0.48,
                0.82,
            ),
            mk(
                ModelId::FunnelTransformer,
                Language,
                Vhi,
                false,
                130.0,
                3.8,
                0.50,
                0.84,
            ),
            mk(
                ModelId::RoBerta,
                Language,
                Vhi,
                false,
                95.0,
                3.5,
                0.47,
                0.80,
            ),
            mk(
                ModelId::SqueezeBert,
                Language,
                Vhi,
                false,
                80.0,
                2.6,
                0.42,
                0.72,
            ),
            mk(ModelId::Gpt1, Language, Vhi, true, 120.0, 4.2, 0.62, 0.86),
            mk(ModelId::Gpt2, Language, Vhi, true, 190.0, 5.5, 0.67, 0.88),
        ];
        debug_assert_eq!(profiles.len(), ModelId::ALL.len());
        Catalog { profiles }
    }

    /// The profile for `id`.
    pub fn profile(&self, id: ModelId) -> &ModelProfile {
        &self.profiles[id.index()]
    }

    /// All profiles, in [`ModelId::ALL`] order.
    pub fn profiles(&self) -> &[ModelProfile] {
        &self.profiles
    }

    /// The 12 vision models.
    pub fn vision(&self) -> impl Iterator<Item = &ModelProfile> {
        self.profiles.iter().filter(|p| p.domain == Domain::Vision)
    }

    /// The 10 language models.
    pub fn language(&self) -> impl Iterator<Item = &ModelProfile> {
        self.profiles
            .iter()
            .filter(|p| p.domain == Domain::Language)
    }

    /// The non-generative language models (the Fig. 12 VHI set).
    pub fn vhi_non_generative(&self) -> impl Iterator<Item = &ModelProfile> {
        self.language().filter(|p| !p.generative)
    }

    /// The generative GPT models (Fig. 13).
    pub fn generative(&self) -> impl Iterator<Item = &ModelProfile> {
        self.profiles.iter().filter(|p| p.generative)
    }

    /// Models in the given interference class.
    pub fn in_class(&self, class: InterferenceClass) -> impl Iterator<Item = &ModelProfile> {
        self.profiles.iter().filter(move |p| p.class == class)
    }

    /// The pool of models whose class is "opposite" to `class` within
    /// the same domain — the paper rotates BE requests through the
    /// opposite-class pool of the strict model (§5). Never empty and
    /// never contains `strict`: the catalog has both LI and HI vision
    /// models, and every LLM has non-generative peers.
    pub fn opposite_pool(&self, strict: ModelId) -> Vec<ModelId> {
        let p = *self.profile(strict);
        match p.domain {
            Domain::Vision => {
                let target = match p.class {
                    InterferenceClass::Li => InterferenceClass::Hi,
                    _ => InterferenceClass::Li,
                };
                self.vision()
                    .filter(|m| m.class == target)
                    .map(|m| m.id)
                    .collect()
            }
            // All language models are VHI; the BE pool is the other
            // non-generative LLMs (Fig. 13 rotates BE through the
            // "previously-seen LLMs").
            Domain::Language => self
                .vhi_non_generative()
                .filter(|m| m.id != strict)
                .map(|m| m.id)
                .collect(),
        }
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn catalog_has_22_models_with_paper_batches() {
        let c = catalog();
        assert_eq!(c.profiles().len(), 22);
        assert_eq!(c.vision().count(), 12);
        assert_eq!(c.language().count(), 10);
        assert_eq!(c.generative().count(), 2);
        for p in c.vision() {
            assert_eq!(p.batch_size, 128);
        }
        for p in c.language() {
            assert_eq!(p.batch_size, 4);
            assert_eq!(p.class, InterferenceClass::Vhi);
        }
    }

    #[test]
    fn solo_times_in_paper_band() {
        // §5: batch sizes selected so 7g latency is ~50-200 ms.
        for p in catalog().profiles() {
            let ms = p.solo_7g.as_millis_f64();
            assert!((50.0..=200.0).contains(&ms), "{}: {ms} ms", p.id);
        }
    }

    #[test]
    fn memory_footprints_in_paper_band() {
        // §5: ~2 to 14 GB per batch.
        for p in catalog().profiles() {
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
        let c = catalog();
        let dpn = c.profile(ModelId::Dpn92).mem_gb;
        let shuffle = c.profile(ModelId::ShuffleNetV2).mem_gb;
        assert!(dpn / shuffle > 2.7, "ratio {}", dpn / shuffle);
        for p in c.vision() {
            assert!(p.mem_gb <= dpn);
        }
    }

    #[test]
    fn llm_fbrs_exceed_vision_by_published_margin() {
        let c = catalog();
        let vis_mean: f64 = c.vision().map(|p| p.fbr).sum::<f64>() / 12.0;
        let llm_mean: f64 = c.vhi_non_generative().map(|p| p.fbr).sum::<f64>()
            / c.vhi_non_generative().count() as f64;
        let uplift = llm_mean / vis_mean - 1.0;
        // §6.2: "59% higher on average".
        assert!((0.45..=0.75).contains(&uplift), "uplift {uplift}");
        // Fig. 13: GPT FBRs up to 42% above the other LLMs.
        let gpt_max = c.generative().map(|p| p.fbr).fold(0.0, f64::max);
        assert!(
            (gpt_max / llm_mean - 1.0) > 0.3,
            "gpt uplift {}",
            gpt_max / llm_mean - 1.0
        );
    }

    #[test]
    fn albert_rdf_matches_paper() {
        // §2.2: ALBERT's batch execution grows 2.15× on a 3g slice.
        let rdf = catalog().profile(ModelId::Albert).rdf(SliceProfile::G3);
        assert!((rdf - 2.15).abs() < 0.05, "rdf {rdf}");
    }

    #[test]
    fn shufflenet_barely_deficiency_sensitive() {
        // §6.2: ShuffleNet V2 is <2% affected on the scheduling slices.
        let p = *catalog().profile(ModelId::ShuffleNetV2);
        assert!(p.rdf(SliceProfile::G3) < 1.02);
        assert!(p.rdf(SliceProfile::G4) < 1.02);
    }

    #[test]
    fn rdf_monotone_in_slice_size() {
        for p in catalog().profiles() {
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
        let p = *catalog().profile(ModelId::ResNet50);
        assert_eq!(p.fill_factor(1.0), 1.0);
        assert!((p.fill_factor(0.0) - BATCH_FIXED_COST_FRACTION).abs() < 1e-12);
        assert!((p.fill_factor(0.5) - 0.65).abs() < 1e-12);
        // Out-of-range fills are clamped.
        assert_eq!(p.fill_factor(2.0), 1.0);
    }

    #[test]
    fn slo_is_three_times_solo() {
        let p = *catalog().profile(ModelId::ResNet50);
        assert_eq!(p.slo(), p.solo_7g.mul_f64(3.0));
        assert_eq!(p.slo_with_multiplier(2.0), p.solo_7g.mul_f64(2.0));
    }

    #[test]
    fn smallest_fitting_slice_respects_memory() {
        let c = catalog();
        assert_eq!(
            c.profile(ModelId::Dpn92).smallest_fitting_slice(),
            SliceProfile::G3
        );
        assert_eq!(
            c.profile(ModelId::MobileNet).smallest_fitting_slice(),
            SliceProfile::G1
        );
        assert_eq!(
            c.profile(ModelId::Gpt2).smallest_fitting_slice(),
            SliceProfile::G2
        );
    }

    #[test]
    fn opposite_pool_swaps_classes() {
        let c = catalog();
        // Strict HI vision model -> BE pool is LI vision.
        for id in c.opposite_pool(ModelId::ResNet50) {
            assert_eq!(c.profile(id).class, InterferenceClass::Li);
        }
        // Strict LI vision model -> BE pool is HI vision.
        for id in c.opposite_pool(ModelId::ShuffleNetV2) {
            assert_eq!(c.profile(id).class, InterferenceClass::Hi);
        }
        // Strict GPT -> BE pool is the other non-generative LLMs.
        let pool = c.opposite_pool(ModelId::Gpt1);
        assert_eq!(pool.len(), 8);
        assert!(!pool.contains(&ModelId::Gpt1));
        assert!(!pool.contains(&ModelId::Gpt2));
    }

    #[test]
    fn opposite_pool_is_never_empty() {
        // The trace builders use the pool as the BE rotation without a
        // fallback, so every model needs at least one BE peer.
        let c = catalog();
        for m in ModelId::ALL {
            let pool = c.opposite_pool(m);
            assert!(!pool.is_empty(), "{m} has no BE peers");
            assert!(!pool.contains(&m), "{m} is its own BE peer");
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
            let mut p = *catalog().profile(ModelId::ResNet50);
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
