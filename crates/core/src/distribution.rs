//! Algorithm 1: the Job Distribution logic (§4.3).
//!
//! Best-effort batches are *packed* onto the fewest, smallest slices
//! via first-fit bin packing (Guideline 1); strict batches go to the
//! slice with minimum Eq. 2 slowdown `η` among slices not fully
//! earmarked for best-effort work (Guideline 2). The earmarking is the
//! paper's `tag_value`: walking the slices in ascending order of
//! resources, each slice is tagged with the fraction of its memory the
//! queued best-effort work will occupy.

use protean_gpu::{Geometry, Slice};
use protean_models::ModelProfile;

use crate::slowdown::eta;

/// Indices of `slices` in ascending order of resources (compute share,
/// then memory), in the first `slices.len()` entries. `slices`
/// normally comes from [`protean_gpu::Gpu::slices`], which is
/// descending, but the order is recomputed here so callers need not
/// care. Held inline: a GPU has at most [`Geometry::MAX_SLICES`].
fn ascending_order(slices: &[Slice]) -> [usize; Geometry::MAX_SLICES] {
    let mut idx = std::array::from_fn(|i| i);
    // The keys are distinct, so the unstable sort is deterministic.
    idx[..slices.len()].sort_unstable_by_key(|&i| {
        let p = slices[i].profile();
        (
            p.compute_sevenths(),
            p.mem_gb() as u64,
            std::cmp::Reverse(i),
        )
    });
    idx
}

/// Guideline 1 leaves the larger slices *for* strict requests, so the
/// largest slice's tag is capped below 1: however much best-effort work
/// is backed up, strict batches must never be locked out of the whole
/// GPU (they are the priority class).
const LARGEST_SLICE_TAG_CAP: f64 = 0.95;

/// Lines 1–8 of Algorithm 1: assigns each slice a `tag_value` — the
/// fraction of its available memory that queued best-effort work
/// (`be_mem_gb` in total) will occupy — walking slices smallest-first.
/// The first `slices.len()` entries are the tags, aligned with the
/// input order; the rest are zero. The largest slice's tag is capped
/// just below 1 (`LARGEST_SLICE_TAG_CAP`).
///
/// # Panics
///
/// Panics if there are more than [`Geometry::MAX_SLICES`] slices.
///
/// # Example
///
/// ```
/// use protean::tag_slices;
/// use protean_gpu::{Slice, SliceProfile, SharingMode};
/// use protean_sim::SimTime;
///
/// let slices = vec![
///     Slice::new(SliceProfile::G4, SharingMode::Mps, SimTime::ZERO),
///     Slice::new(SliceProfile::G2, SharingMode::Mps, SimTime::ZERO),
///     Slice::new(SliceProfile::G1, SharingMode::Mps, SimTime::ZERO),
/// ];
/// // 8 GB of BE work: fills the 1g (5 GB), spills 3 GB onto the 2g.
/// let tags = tag_slices(&slices, 8.0);
/// assert_eq!(tags[..3], [0.0, 0.3, 1.0]);
/// ```
pub fn tag_slices(slices: &[Slice], be_mem_gb: f64) -> [f64; Geometry::MAX_SLICES] {
    let mut tags = [0.0; Geometry::MAX_SLICES];
    let mut remaining = be_mem_gb.max(0.0);
    let order = ascending_order(slices);
    let order = &order[..slices.len()];
    let largest = order.last().copied();
    for &i in order {
        if remaining <= 0.0 {
            break;
        }
        let cap = if Some(i) == largest {
            LARGEST_SLICE_TAG_CAP
        } else {
            1.0
        };
        let available = slices[i].mem_available_gb();
        if available <= 0.0 {
            tags[i] = cap;
            continue;
        }
        tags[i] = (remaining / available).min(cap);
        remaining = (remaining - available).max(0.0);
    }
    tags
}

/// `choose_best_effort_slice` (Algorithm 1 line 14): first-fit bin
/// packing — the smallest slice whose free memory holds one batch of
/// `profile`. `None` if nothing fits right now.
pub fn choose_best_effort_slice(slices: &[Slice], profile: &ModelProfile) -> Option<usize> {
    ascending_order(slices)[..slices.len()]
        .iter()
        .copied()
        .find(|&i| slices[i].mem_available_gb() + 1e-9 >= profile.mem_gb)
}

/// `choose_strict_slice` (Algorithm 1 line 12): among slices not fully
/// earmarked for best-effort work (`tag_value < 1`) whose free memory
/// holds the batch, the one with minimum Eq. 2 slowdown `η`; ties go to
/// the larger slice. `None` if no slice qualifies right now.
///
/// `be_fbr_hint` is the expected FBR of the best-effort model, used to
/// cost the earmarked-but-unplaced BE load (see [`eta`]).
pub fn choose_strict_slice(
    slices: &[Slice],
    tags: &[f64],
    profile: &ModelProfile,
    be_fbr_hint: f64,
) -> Option<usize> {
    debug_assert_eq!(slices.len(), tags.len());
    let mut best: Option<(f64, u32, usize)> = None;
    for (i, slice) in slices.iter().enumerate() {
        if tags[i] >= 1.0 {
            continue;
        }
        if slice.mem_available_gb() + 1e-9 < profile.mem_gb {
            continue;
        }
        let e = eta(profile, slice, tags[i], be_fbr_hint);
        let compute = slice.profile().compute_sevenths();
        let better = match best {
            None => true,
            Some((be, bc, _)) => e < be - 1e-12 || ((e - be).abs() <= 1e-12 && compute > bc),
        };
        if better {
            best = Some((e, compute, i));
        }
    }
    best.map(|(_, _, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_gpu::{JobId, JobSpec, SharingMode, SliceProfile};
    use protean_models::ModelId;
    use protean_sim::{SimDuration, SimTime};

    fn slices(profiles: &[SliceProfile]) -> Vec<Slice> {
        profiles
            .iter()
            .map(|&p| Slice::new(p, SharingMode::Mps, SimTime::ZERO))
            .collect()
    }

    fn occupy(slice: &mut Slice, id: u64, fbr: f64, mem: f64) {
        slice
            .admit(
                SimTime::ZERO,
                JobSpec {
                    id: JobId(id),
                    solo: SimDuration::from_millis(100.0),
                    fbr,
                    mem_gb: mem,
                },
            )
            .unwrap();
    }

    #[test]
    fn tags_fill_smallest_first() {
        let s = slices(&[SliceProfile::G4, SliceProfile::G3, SliceProfile::G1]);
        // 5 GB exactly fills the 1g; larger slices untouched.
        assert_eq!(tag_slices(&s, 5.0)[..3], [0.0, 0.0, 1.0]);
        // 15 GB: 1g full, 10/20 of the 3g.
        assert_eq!(tag_slices(&s, 15.0)[..3], [0.0, 0.5, 1.0]);
        // Zero BE memory tags nothing.
        assert_eq!(tag_slices(&s, 0.0)[..3], [0.0, 0.0, 0.0]);
    }

    #[test]
    fn tags_account_for_occupied_memory() {
        let mut s = slices(&[SliceProfile::G2, SliceProfile::G1]);
        occupy(&mut s[1], 1, 0.1, 4.0); // 1 GB free on the 1g
        let tags = tag_slices(&s, 1.0);
        assert_eq!(tags[..2], [0.0, 1.0]);
    }

    #[test]
    fn be_packing_is_first_fit_ascending() {
        let s = slices(&[SliceProfile::G4, SliceProfile::G2, SliceProfile::G1]);
        // MobileNet (2 GB) goes to the 1g.
        assert_eq!(
            choose_best_effort_slice(&s, ModelId::MobileNet.profile()),
            Some(2)
        );
        // DPN 92 (13.7 GB) only fits the 4g.
        assert_eq!(
            choose_best_effort_slice(&s, ModelId::Dpn92.profile()),
            Some(0)
        );
    }

    #[test]
    fn be_packing_spills_when_small_slice_full() {
        let mut s = slices(&[SliceProfile::G4, SliceProfile::G1]);
        occupy(&mut s[1], 1, 0.1, 4.0);
        assert_eq!(
            choose_best_effort_slice(&s, ModelId::MobileNet.profile()),
            Some(0)
        );
        occupy(&mut s[0], 2, 0.1, 19.0);
        assert_eq!(
            choose_best_effort_slice(&s, ModelId::MobileNet.profile()),
            None
        );
    }

    #[test]
    fn strict_avoids_fully_tagged_slices() {
        let s = slices(&[SliceProfile::G4, SliceProfile::G3]);
        let resnet = ModelId::ResNet50.profile();
        // 3g fully earmarked for BE: strict must take the 4g even if the
        // 3g looks idle.
        let picked = choose_strict_slice(&s, &[0.0, 1.0], resnet, 0.3).unwrap();
        assert_eq!(picked, 0);
        // Everything tagged: nowhere to go.
        assert_eq!(choose_strict_slice(&s, &[1.0, 1.0], resnet, 0.3), None);
    }

    #[test]
    fn strict_prefers_largest_when_idle() {
        let s = slices(&[SliceProfile::G4, SliceProfile::G3, SliceProfile::G2]);
        let shuffle = ModelId::ShuffleNetV2.profile();
        // All idle and far below saturation: η ties at RDF; the largest
        // slice (lowest RDF) wins.
        let picked = choose_strict_slice(&s, &[0.0, 0.0, 0.0], shuffle, 0.0).unwrap();
        assert_eq!(picked, 0);
    }

    #[test]
    fn strict_load_balances_away_from_saturated_large_slice() {
        let mut s = slices(&[SliceProfile::G4, SliceProfile::G3]);
        // Saturate the 4g with heavy jobs.
        for i in 0..3 {
            occupy(&mut s[0], i, 0.5, 4.0);
        }
        let resnet = ModelId::ResNet50.profile();
        let picked = choose_strict_slice(&s, &[0.0, 0.0], resnet, 0.0).unwrap();
        assert_eq!(picked, 1, "interference on the 4g should push to the 3g");
    }

    proptest::proptest! {
        /// Tagging never exceeds each slice's cap, the largest slice is
        /// never fully tagged, and the tagged memory accounts for the
        /// whole BE backlog up to the non-largest slices' capacity.
        #[test]
        fn prop_tags_are_bounded_and_ordered(
            be_mem in 0.0f64..80.0,
            geometry_idx in 0usize..4,
        ) {
            use protean_gpu::Geometry;
            let geometry = [
                Geometry::full(),
                Geometry::g4_g3(),
                Geometry::g4_g2_g1(),
                Geometry::g3_g3(),
            ][geometry_idx].clone();
            let slices: Vec<Slice> = geometry
                .slices()
                .iter()
                .map(|&p| Slice::new(p, SharingMode::Mps, SimTime::ZERO))
                .collect();
            let tags = tag_slices(&slices, be_mem);
            let (tags, rest) = tags.split_at(slices.len());
            proptest::prop_assert!(rest.iter().all(|&t| t == 0.0));
            for (i, &t) in tags.iter().enumerate() {
                proptest::prop_assert!((0.0..=1.0).contains(&t), "tag {t}");
                // Index 0 is the largest slice (descending order).
                if i == 0 && slices.len() > 1 {
                    proptest::prop_assert!(t < 1.0, "largest slice fully tagged");
                }
            }
            // Smaller slices fill before larger ones get any tag.
            for w in (0..slices.len().saturating_sub(1)).rev() {
                // slices[w] is larger than slices[w+1].
                if tags[w] > 0.0 && w + 1 < slices.len() {
                    proptest::prop_assert!(
                        tags[w + 1] >= 1.0 - 1e-9,
                        "larger slice tagged before smaller one filled"
                    );
                }
            }
        }

        /// choose_strict_slice never returns a slice the batch cannot
        /// occupy; choose_best_effort_slice always returns the smallest
        /// fitting slice.
        #[test]
        fn prop_choices_are_feasible(
            be_mem in 0.0f64..40.0,
            model_idx in 0usize..12,
        ) {
            let profile = protean_models::vision().nth(model_idx).expect("12 vision models");
            let slices: Vec<Slice> = protean_gpu::Geometry::g4_g2_g1()
                .slices()
                .iter()
                .map(|&p| Slice::new(p, SharingMode::Mps, SimTime::ZERO))
                .collect();
            let tags = tag_slices(&slices, be_mem);
            let tags = &tags[..slices.len()];
            if let Some(i) = choose_strict_slice(&slices, tags, profile, 0.3) {
                proptest::prop_assert!(tags[i] < 1.0);
                proptest::prop_assert!(slices[i].mem_available_gb() + 1e-9 >= profile.mem_gb);
            }
            if let Some(i) = choose_best_effort_slice(&slices, profile) {
                proptest::prop_assert!(slices[i].mem_available_gb() + 1e-9 >= profile.mem_gb);
                // No smaller slice fits.
                for (j, s) in slices.iter().enumerate() {
                    if s.profile().compute_sevenths() < slices[i].profile().compute_sevenths() {
                        proptest::prop_assert!(
                            s.mem_available_gb() + 1e-9 < profile.mem_gb,
                            "slice {j} was a smaller fit"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn strict_respects_memory() {
        let s = slices(&[SliceProfile::G2, SliceProfile::G1]);
        // DPN 92 (13.7 GB) fits neither slice.
        assert_eq!(
            choose_strict_slice(&s, &[0.0, 0.0], ModelId::Dpn92.profile(), 0.0),
            None
        );
    }
}
