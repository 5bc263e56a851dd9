//! Physical MIG placement on the A100's memory slices.
//!
//! MIG instances are not free-floating: the A100-40GB exposes 8 memory
//! slices and each profile may only *start* at specific slice indices
//! (NVIDIA's published placement table):
//!
//! | profile | memory slices occupied | allowed start indices |
//! |---|---|---|
//! | `1g.5gb` | 1 | 0–6 |
//! | `2g.10gb` | 2 | 0, 2, 4 |
//! | `3g.20gb` | 4 | 0, 4 |
//! | `4g.20gb` | 4 | 0 |
//! | `7g.40gb` | 8 | 0 |
//!
//! A multiset of profiles is a valid geometry only if every instance
//! can be placed at an allowed start without overlap. This rules out
//! combinations a pure compute-budget check would accept — e.g.
//! `(3g, 3g, 1g)` sums to 7/7 compute but needs 9 of the 8 memory
//! slices. Conversely, the flexible starts admit non-obvious packings:
//! `(3g, 2g, 2g)` is legal with the `3g` at slice 4 and the `2g`s at
//! slices 0 and 2.

use crate::profile::SliceProfile;

/// Number of memory slices on an A100-40GB.
pub const MEMORY_SLICES: usize = 8;

impl SliceProfile {
    /// The slice indices an instance may start at (NVIDIA placement
    /// table).
    pub const fn allowed_starts(self) -> &'static [usize] {
        match self {
            SliceProfile::G1 => &[0, 1, 2, 3, 4, 5, 6],
            SliceProfile::G2 => &[0, 2, 4],
            SliceProfile::G3 => &[0, 4],
            SliceProfile::G4 => &[0],
            SliceProfile::G7 => &[0],
        }
    }
}

/// Finds a physical placement (start slice per instance) for the given
/// profiles, or `None` if no legal non-overlapping assignment exists.
/// Profiles are placed largest-first (fewest start options first),
/// which keeps the backtracking search tiny.
pub fn find_placement(profiles: &[SliceProfile]) -> Option<Vec<(SliceProfile, usize)>> {
    let mut ordered: Vec<SliceProfile> = profiles.to_vec();
    ordered.sort_by_key(|p| {
        (
            p.allowed_starts().len(),
            std::cmp::Reverse(p.memory_slices()),
        )
    });
    let mut occupied = [false; MEMORY_SLICES];
    let mut placement = Vec::with_capacity(ordered.len());
    if place_rec(&ordered, 0, &mut occupied, &mut placement) {
        Some(placement)
    } else {
        None
    }
}

fn place_rec(
    profiles: &[SliceProfile],
    idx: usize,
    occupied: &mut [bool; MEMORY_SLICES],
    placement: &mut Vec<(SliceProfile, usize)>,
) -> bool {
    let Some(&p) = profiles.get(idx) else {
        return true;
    };
    let width = p.memory_slices();
    for &start in p.allowed_starts() {
        if start + width > MEMORY_SLICES {
            continue;
        }
        if occupied[start..start + width].iter().any(|&o| o) {
            continue;
        }
        occupied[start..start + width]
            .iter_mut()
            .for_each(|o| *o = true);
        placement.push((p, start));
        if place_rec(profiles, idx + 1, occupied, placement) {
            return true;
        }
        placement.pop();
        occupied[start..start + width]
            .iter_mut()
            .for_each(|o| *o = false);
    }
    false
}

/// `true` if the profiles admit a legal physical placement.
pub fn is_placeable(profiles: &[SliceProfile]) -> bool {
    find_placement(profiles).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn profiles(s: &str) -> Vec<SliceProfile> {
        s.split(',')
            .map(|t| match t.trim() {
                "1g" => SliceProfile::G1,
                "2g" => SliceProfile::G2,
                "3g" => SliceProfile::G3,
                "4g" => SliceProfile::G4,
                "7g" => SliceProfile::G7,
                other => panic!("bad profile {other}"),
            })
            .collect()
    }

    #[test]
    fn paper_geometries_are_placeable() {
        for g in [
            "7g",
            "4g,3g",
            "4g,2g,1g",
            "3g,3g",
            "2g,2g,2g,1g",
            "1g,1g,1g,1g,1g,1g,1g",
        ] {
            assert!(is_placeable(&profiles(g)), "{g} should be placeable");
        }
    }

    #[test]
    fn slot_constrained_combinations_are_rejected() {
        // 3g + 3g + 1g: compute fits (7/7) but the 3g instances consume
        // all 8 memory slices (4 each) leaving none for the 1g.
        assert!(!is_placeable(&profiles("3g,3g,1g")));
        // 4g + 3g + 1g: again 9 memory slices.
        assert!(!is_placeable(&profiles("4g,3g,1g")));
        // Two 4g instances can never coexist (both must start at 0).
        assert!(!is_placeable(&profiles("4g,4g")));
        // 7g excludes everything else.
        assert!(!is_placeable(&profiles("7g,1g")));
    }

    #[test]
    fn flexible_starts_allow_nontrivial_packings() {
        // 3g at slice 4 leaves slices 0-3 for two 2g (starts 0 and 2):
        // placeable even though a naive left-to-right packing fails.
        assert!(is_placeable(&profiles("3g,2g,2g")));
        // Similarly 3g at 4 + 2g at 0 + 1g at 2 and 3.
        assert!(is_placeable(&profiles("3g,2g,1g,1g")));
        // 3g at 4 + four 1g at 0-3.
        assert!(is_placeable(&profiles("3g,1g,1g,1g,1g")));
    }

    #[test]
    fn placement_returns_legal_starts() {
        let placement = find_placement(&profiles("4g,2g,1g")).unwrap();
        let mut occupied = [false; MEMORY_SLICES];
        for (p, start) in &placement {
            assert!(p.allowed_starts().contains(start), "{p} at {start}");
            for (s, slot) in occupied
                .iter_mut()
                .enumerate()
                .skip(*start)
                .take(p.memory_slices())
            {
                assert!(!*slot, "overlap at slice {s}");
                *slot = true;
            }
        }
    }

    proptest! {
        /// Placeability implies the compute and memory-slice budgets
        /// hold (the converse is false — that is the point).
        #[test]
        fn prop_placeable_implies_budgets(
            g4 in 0usize..=1, g3 in 0usize..=2, g2 in 0usize..=3, g1 in 0usize..=7,
        ) {
            prop_assume!(g4 + g3 + g2 + g1 > 0);
            let mut v = Vec::new();
            v.extend(std::iter::repeat_n(SliceProfile::G4, g4));
            v.extend(std::iter::repeat_n(SliceProfile::G3, g3));
            v.extend(std::iter::repeat_n(SliceProfile::G2, g2));
            v.extend(std::iter::repeat_n(SliceProfile::G1, g1));
            if is_placeable(&v) {
                let compute: u32 = v.iter().map(|p| p.compute_sevenths()).sum();
                let slices: usize = v.iter().map(|p| p.memory_slices()).sum();
                prop_assert!(compute <= 7);
                prop_assert!(slices <= MEMORY_SLICES);
            }
        }

        /// find_placement and is_placeable agree, and any returned
        /// placement is non-overlapping and start-legal.
        #[test]
        fn prop_placement_is_sound(
            g3 in 0usize..=2, g2 in 0usize..=3, g1 in 0usize..=7,
        ) {
            let mut v = Vec::new();
            v.extend(std::iter::repeat_n(SliceProfile::G3, g3));
            v.extend(std::iter::repeat_n(SliceProfile::G2, g2));
            v.extend(std::iter::repeat_n(SliceProfile::G1, g1));
            match find_placement(&v) {
                None => prop_assert!(!is_placeable(&v)),
                Some(placement) => {
                    let mut occupied = [false; MEMORY_SLICES];
                    for (p, start) in placement {
                        prop_assert!(p.allowed_starts().contains(&start));
                        for slot in occupied.iter_mut().skip(start).take(p.memory_slices()) {
                            prop_assert!(!*slot);
                            *slot = true;
                        }
                    }
                }
            }
        }
    }
}
