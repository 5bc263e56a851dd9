//! Eq. 2: the slowdown factor `η` used to choose strict-request slices.

use protean_gpu::Slice;
use protean_models::ModelProfile;

/// The Eq. 2 slowdown factor of placing one batch of `profile` on
/// `slice`:
///
/// ```text
/// η = RDF × max( bw_k·sm_k + Σ_i bw_i·sm_i , 1 )
/// ```
///
/// The bandwidth sum covers the incoming job itself, the jobs already
/// resident on the slice, and — via `tag_value` — the best-effort load
/// Algorithm 1 has earmarked for this slice but not yet placed
/// (`tag_value` is the fraction of the slice's memory BE requests will
/// occupy; `be_fbr_hint` is the expected per-batch FBR of that BE
/// model). All FBRs are scaled to the slice's bandwidth share.
///
/// # Example
///
/// ```
/// use protean::eta;
/// use protean_gpu::{Slice, SliceProfile, SharingMode};
/// use protean_models::ModelId;
/// use protean_sim::SimTime;
///
/// let resnet = ModelId::ResNet50.profile();
/// let empty_4g = Slice::new(SliceProfile::G4, SharingMode::Mps, SimTime::ZERO);
/// let empty_1g = Slice::new(SliceProfile::G1, SharingMode::Mps, SimTime::ZERO);
/// // The 1g slice is worse for ResNet 50: heavy resource deficiency
/// // (its RDF there exceeds the 4g's).
/// assert!(eta(resnet, &empty_1g, 0.0, 0.0) > 1.3 * eta(resnet, &empty_4g, 0.0, 0.0));
/// ```
pub fn eta(profile: &ModelProfile, slice: &Slice, tag_value: f64, be_fbr_hint: f64) -> f64 {
    let sp = slice.profile();
    let rdf = profile.rdf(sp);
    let own_share = profile.fbr / sp.bandwidth_fraction();
    let be_share = tag_value.clamp(0.0, 1.0) * be_fbr_hint / sp.bandwidth_fraction();
    let total = slice.fbr_load() + own_share + be_share;
    // Contention-only Eq. 1 (the job's solo starvation on a small slice
    // is already in its RDF), normalised by the job's own demand, plus
    // the super-additive MPS cache term per co-runner.
    let contention = (total / own_share.max(1.0)).max(1.0);
    let cache = protean_gpu::slice::MPS_CACHE_PENALTY * slice.job_count() as f64;
    rdf * (contention + cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_gpu::{JobId, JobSpec, SharingMode, SliceProfile};
    use protean_models::ModelId;
    use protean_sim::{SimDuration, SimTime};

    fn mps(profile: SliceProfile) -> Slice {
        Slice::new(profile, SharingMode::Mps, SimTime::ZERO)
    }

    #[test]
    fn empty_large_slice_has_eta_one_for_li_model() {
        let shuffle = ModelId::ShuffleNetV2.profile();
        let s = mps(SliceProfile::G7);
        let e = eta(shuffle, &s, 0.0, 0.0);
        assert!((e - 1.0).abs() < 1e-9, "eta {e}");
    }

    #[test]
    fn resident_jobs_raise_eta() {
        let resnet = ModelId::ResNet50.profile();
        let mut s = mps(SliceProfile::G4);
        let base = eta(resnet, &s, 0.0, 0.0);
        s.admit(
            SimTime::ZERO,
            JobSpec {
                id: JobId(1),
                solo: SimDuration::from_millis(100.0),
                fbr: 0.5,
                mem_gb: 4.0,
            },
        )
        .unwrap();
        let loaded = eta(resnet, &s, 0.0, 0.0);
        assert!(loaded > base, "loaded {loaded} <= base {base}");
    }

    #[test]
    fn tag_value_penalises_be_destined_slices() {
        let resnet = ModelId::ResNet50.profile();
        let s = mps(SliceProfile::G3);
        let untagged = eta(resnet, &s, 0.0, 0.5);
        let tagged = eta(resnet, &s, 1.0, 0.5);
        assert!(tagged > untagged);
        // Hint without tag contributes nothing.
        assert_eq!(eta(resnet, &s, 0.0, 0.9), untagged);
    }

    #[test]
    fn eta_trades_deficiency_against_interference() {
        // A busy 4g vs an empty 3g: once the 4g is loaded enough, the
        // empty 3g (higher RDF, no interference) should win — the
        // essence of Guideline 2.
        let resnet = ModelId::ResNet50.profile();
        let mut busy_4g = mps(SliceProfile::G4);
        for i in 0..3 {
            busy_4g
                .admit(
                    SimTime::ZERO,
                    JobSpec {
                        id: JobId(i),
                        solo: SimDuration::from_millis(100.0),
                        fbr: 0.45,
                        mem_gb: 4.0,
                    },
                )
                .unwrap();
        }
        let idle_3g = mps(SliceProfile::G3);
        assert!(
            eta(resnet, &idle_3g, 0.0, 0.0) < eta(resnet, &busy_4g, 0.0, 0.0),
            "idle 3g should beat a saturated 4g"
        );
    }
}
