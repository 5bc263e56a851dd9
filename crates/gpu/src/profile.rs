//! MIG slice profiles and geometries (paper Table 2).

use std::fmt;

use crate::placement::MEMORY_SLICES;

/// A MIG instance profile on an A100-40GB, as listed in Table 2 of the
/// paper.
///
/// The short names follow the paper's convention: `7g` is the whole GPU,
/// `4g` has 4/7 of the SMs and 20 GB of memory, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SliceProfile {
    /// `1g.5gb` — 1/7 compute, 5 GB, 1/8 cache+bandwidth.
    G1,
    /// `2g.10gb` — 2/7 compute, 10 GB, 2/8 cache+bandwidth.
    G2,
    /// `3g.20gb` — 3/7 compute, 20 GB, 4/8 cache+bandwidth.
    G3,
    /// `4g.20gb` — 4/7 compute, 20 GB, 4/8 cache+bandwidth.
    G4,
    /// `7g.40gb` — the full GPU.
    G7,
}

impl SliceProfile {
    /// All profiles in ascending order of resources.
    pub const ALL: [SliceProfile; 5] = [
        SliceProfile::G1,
        SliceProfile::G2,
        SliceProfile::G3,
        SliceProfile::G4,
        SliceProfile::G7,
    ];

    /// Compute share in sevenths of the GPU's SMs.
    pub const fn compute_sevenths(self) -> u32 {
        match self {
            SliceProfile::G1 => 1,
            SliceProfile::G2 => 2,
            SliceProfile::G3 => 3,
            SliceProfile::G4 => 4,
            SliceProfile::G7 => 7,
        }
    }

    /// Compute share as a fraction of the whole GPU.
    pub fn compute_fraction(self) -> f64 {
        f64::from(self.compute_sevenths()) / 7.0
    }

    /// Memory slices one instance of this profile occupies, of the
    /// A100's [`MEMORY_SLICES`]. Table 2's memory and cache columns both
    /// follow from it: 5 GB and one eighth of the cache per slice.
    pub const fn memory_slices(self) -> usize {
        match self {
            SliceProfile::G1 => 1,
            SliceProfile::G2 => 2,
            SliceProfile::G3 => 4,
            SliceProfile::G4 => 4,
            SliceProfile::G7 => 8,
        }
    }

    /// Dedicated memory capacity in GB (Table 2): 5 GB per memory slice.
    pub const fn mem_gb(self) -> f64 {
        5.0 * self.memory_slices() as f64
    }

    /// Memory-bandwidth share as a fraction of the whole GPU. MIG
    /// isolates bandwidth per slice in proportion to the memory/cache
    /// partition.
    pub fn bandwidth_fraction(self) -> f64 {
        self.memory_slices() as f64 / MEMORY_SLICES as f64
    }

    /// Maximum number of instances of this profile on one GPU (Table 2).
    pub const fn max_count(self) -> usize {
        match self {
            SliceProfile::G1 => 7,
            SliceProfile::G2 => 3,
            SliceProfile::G3 => 2,
            SliceProfile::G4 => 1,
            SliceProfile::G7 => 1,
        }
    }

    /// The paper's short name (`"1g"`, …, `"7g"`).
    pub const fn short_name(self) -> &'static str {
        match self {
            SliceProfile::G1 => "1g",
            SliceProfile::G2 => "2g",
            SliceProfile::G3 => "3g",
            SliceProfile::G4 => "4g",
            SliceProfile::G7 => "7g",
        }
    }

    /// The full NVIDIA profile name (`"1g.5gb"`, …, `"7g.40gb"`).
    pub const fn full_name(self) -> &'static str {
        match self {
            SliceProfile::G1 => "1g.5gb",
            SliceProfile::G2 => "2g.10gb",
            SliceProfile::G3 => "3g.20gb",
            SliceProfile::G4 => "4g.20gb",
            SliceProfile::G7 => "7g.40gb",
        }
    }
}

impl fmt::Display for SliceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Error returned when a slice combination is not a valid MIG geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// The geometry contains no slices.
    Empty,
    /// The combined compute share exceeds the GPU's 7 sevenths.
    ComputeOverflow {
        /// Total compute share requested, in sevenths.
        sevenths: u32,
    },
    /// A profile appears more times than MIG allows (Table 2 max count).
    TooMany {
        /// The over-subscribed profile.
        profile: SliceProfile,
        /// How many instances were requested.
        count: usize,
    },
    /// `7g` must be the only slice on the GPU.
    FullGpuNotAlone,
    /// The combination fits the compute budget but admits no legal
    /// physical placement on the A100's memory slices (see
    /// [`crate::placement`]).
    Unplaceable,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::Empty => write!(f, "geometry has no slices"),
            GeometryError::ComputeOverflow { sevenths } => {
                write!(f, "geometry needs {sevenths}/7 compute units")
            }
            GeometryError::TooMany { profile, count } => write!(
                f,
                "{count} instances of {profile} exceed the maximum of {}",
                profile.max_count()
            ),
            GeometryError::FullGpuNotAlone => {
                write!(f, "7g cannot be combined with other slices")
            }
            GeometryError::Unplaceable => {
                write!(f, "no legal placement on the GPU's memory slices")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// A validated MIG configuration: the multiset of slice profiles the GPU
/// is partitioned into. The paper calls this a *geometry*.
///
/// Slices are stored in descending order of resources, so index 0 is
/// always the largest slice. They are held inline (at most
/// [`Geometry::MAX_SLICES`]), so a geometry owns no heap block.
///
/// # Example
///
/// ```
/// use protean_gpu::{Geometry, SliceProfile};
/// let g = Geometry::new(vec![SliceProfile::G1, SliceProfile::G4, SliceProfile::G2])?;
/// assert_eq!(g.slices()[0], SliceProfile::G4);
/// assert_eq!(g.to_string(), "(4g, 2g, 1g)");
/// # Ok::<(), protean_gpu::GeometryError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// The profiles in `slices[..len]`; every later entry is `G1`, so
    /// the derived comparisons see only the profiles.
    slices: [SliceProfile; Geometry::MAX_SLICES],
    len: u8,
}

impl Geometry {
    /// The most slices a geometry holds: seven `1g` instances fill the
    /// GPU's seven compute units.
    pub const MAX_SLICES: usize = 7;

    /// A geometry of `slices`, already validated and in descending
    /// order.
    fn from_sorted(slices: &[SliceProfile]) -> Self {
        let mut inline = [SliceProfile::G1; Self::MAX_SLICES];
        inline[..slices.len()].copy_from_slice(slices);
        Geometry {
            slices: inline,
            len: slices.len() as u8,
        }
    }

    /// Validates and creates a geometry from the given profiles.
    ///
    /// Validation enforces the Table 2 rules — at least one slice,
    /// per-profile instance limits, total compute ≤ 7/7, `7g` only as
    /// the sole slice — **and** the physical placement rules: the
    /// combination must admit a legal, non-overlapping assignment to
    /// the A100's 8 memory slices at NVIDIA's allowed start indices
    /// (see [`crate::placement`]).
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] describing the violated rule.
    pub fn new(mut slices: Vec<SliceProfile>) -> Result<Self, GeometryError> {
        if slices.is_empty() {
            return Err(GeometryError::Empty);
        }
        for &p in &SliceProfile::ALL {
            let count = slices.iter().filter(|&&s| s == p).count();
            if count > p.max_count() {
                return Err(GeometryError::TooMany { profile: p, count });
            }
        }
        if slices.contains(&SliceProfile::G7) && slices.len() > 1 {
            return Err(GeometryError::FullGpuNotAlone);
        }
        let sevenths: u32 = slices.iter().map(|s| s.compute_sevenths()).sum();
        if sevenths > 7 {
            return Err(GeometryError::ComputeOverflow { sevenths });
        }
        if !crate::placement::is_placeable(&slices) {
            return Err(GeometryError::Unplaceable);
        }
        slices.sort_by(|a, b| b.cmp(a));
        Ok(Geometry::from_sorted(&slices))
    }

    /// The whole-GPU geometry `(7g)`.
    pub fn full() -> Self {
        Geometry::from_sorted(&[SliceProfile::G7])
    }

    /// The `(4g, 3g)` geometry the paper uses as its robust fallback.
    pub fn g4_g3() -> Self {
        Geometry::from_sorted(&[SliceProfile::G4, SliceProfile::G3])
    }

    /// The `(4g, 2g, 1g)` geometry PROTEAN starts from (Fig. 7).
    pub fn g4_g2_g1() -> Self {
        Geometry::from_sorted(&[SliceProfile::G4, SliceProfile::G2, SliceProfile::G1])
    }

    /// The `(3g, 3g)` even split.
    pub fn g3_g3() -> Self {
        Geometry::from_sorted(&[SliceProfile::G3, SliceProfile::G3])
    }

    /// The slices in descending order of resources.
    pub fn slices(&self) -> &[SliceProfile] {
        &self.slices[..usize::from(self.len)]
    }

    /// Number of slices.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// `true` if the geometry has no slices (never true for a validated
    /// geometry; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total compute share in sevenths.
    pub fn total_compute_sevenths(&self) -> u32 {
        self.slices().iter().map(|s| s.compute_sevenths()).sum()
    }

    /// Total slice memory in GB.
    pub fn total_mem_gb(&self) -> f64 {
        self.slices().iter().map(|s| s.mem_gb()).sum()
    }

    /// The largest slice.
    pub fn largest(&self) -> SliceProfile {
        self.slices[0]
    }

    /// Enumerates every valid geometry (by this crate's rules) that fully
    /// or partially uses the GPU, without the trivial duplicates that
    /// differ only in slice order. Used by the `Oracle` baseline's
    /// exhaustive sweep.
    pub fn enumerate_all() -> Vec<Geometry> {
        let mut out = vec![Geometry::full()];
        // counts: (g4, g3, g2, g1) with compute 4a+3b+2c+d <= 7.
        for g4 in 0..=1u32 {
            for g3 in 0..=2u32 {
                for g2 in 0..=3u32 {
                    for g1 in 0..=7u32 {
                        let total = 4 * g4 + 3 * g3 + 2 * g2 + g1;
                        if total == 0 || total > 7 {
                            continue;
                        }
                        let mut v = Vec::new();
                        v.extend(std::iter::repeat_n(SliceProfile::G4, g4 as usize));
                        v.extend(std::iter::repeat_n(SliceProfile::G3, g3 as usize));
                        v.extend(std::iter::repeat_n(SliceProfile::G2, g2 as usize));
                        v.extend(std::iter::repeat_n(SliceProfile::G1, g1 as usize));
                        // Combinations within the compute budget may
                        // still be physically unplaceable.
                        if let Ok(g) = Geometry::new(v) {
                            out.push(g);
                        }
                    }
                }
            }
        }
        out
    }
}

impl fmt::Debug for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Geometry")
            .field("slices", &self.slices())
            .finish()
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, s) in self.slices().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table2_values() {
        assert_eq!(SliceProfile::G7.mem_gb(), 40.0);
        assert_eq!(SliceProfile::G4.mem_gb(), 20.0);
        assert_eq!(SliceProfile::G3.mem_gb(), 20.0);
        assert_eq!(SliceProfile::G2.mem_gb(), 10.0);
        assert_eq!(SliceProfile::G1.mem_gb(), 5.0);
        assert_eq!(SliceProfile::G4.bandwidth_fraction(), 0.5);
        assert_eq!(SliceProfile::G3.bandwidth_fraction(), 0.5);
        assert_eq!(SliceProfile::G1.max_count(), 7);
        assert_eq!(SliceProfile::G3.max_count(), 2);
        assert_eq!(SliceProfile::G7.full_name(), "7g.40gb");
    }

    #[test]
    fn paper_geometries_are_valid() {
        for g in [
            Geometry::full(),
            Geometry::g4_g3(),
            Geometry::g4_g2_g1(),
            Geometry::g3_g3(),
        ] {
            assert!(g.total_compute_sevenths() <= 7, "{g}");
        }
        assert!(Geometry::new(vec![SliceProfile::G1; 7]).is_ok());
        assert!(Geometry::new(vec![
            SliceProfile::G2,
            SliceProfile::G2,
            SliceProfile::G2,
            SliceProfile::G1
        ])
        .is_ok());
    }

    #[test]
    fn invalid_geometries_rejected() {
        assert_eq!(Geometry::new(vec![]), Err(GeometryError::Empty));
        assert_eq!(
            Geometry::new(vec![SliceProfile::G4, SliceProfile::G4]),
            Err(GeometryError::TooMany {
                profile: SliceProfile::G4,
                count: 2
            })
        );
        assert_eq!(
            Geometry::new(vec![SliceProfile::G7, SliceProfile::G1]),
            Err(GeometryError::FullGpuNotAlone)
        );
        assert_eq!(
            Geometry::new(vec![SliceProfile::G3, SliceProfile::G3, SliceProfile::G2]),
            Err(GeometryError::ComputeOverflow { sevenths: 8 })
        );
        // Fits the compute budget (7/7) but needs 9 of the 8 memory
        // slices — the old compute-only rule would wrongly accept this
        // 45 GB configuration.
        assert_eq!(
            Geometry::new(vec![SliceProfile::G3, SliceProfile::G3, SliceProfile::G1]),
            Err(GeometryError::Unplaceable)
        );
    }

    #[test]
    fn slices_sorted_descending() {
        let g = Geometry::new(vec![SliceProfile::G1, SliceProfile::G3, SliceProfile::G2]).unwrap();
        assert_eq!(
            g.slices(),
            &[SliceProfile::G3, SliceProfile::G2, SliceProfile::G1]
        );
        assert_eq!(g.largest(), SliceProfile::G3);
    }

    #[test]
    fn geometries_are_inline_and_debug_as_their_slices() {
        assert_eq!(std::mem::size_of::<Geometry>(), 8);
        let g = Geometry::new(vec![SliceProfile::G3, SliceProfile::G4]).unwrap();
        assert_eq!(g, Geometry::g4_g3());
        assert_eq!(format!("{g:?}"), "Geometry { slices: [G4, G3] }");
        let seven = Geometry::new(vec![SliceProfile::G1; Geometry::MAX_SLICES]).unwrap();
        assert_eq!(seven.len(), Geometry::MAX_SLICES);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Geometry::g4_g3().to_string(), "(4g, 3g)");
        assert_eq!(Geometry::g4_g2_g1().to_string(), "(4g, 2g, 1g)");
    }

    #[test]
    fn enumerate_all_is_valid_and_deduplicated() {
        let all = Geometry::enumerate_all();
        assert!(
            all.len() > 20,
            "expected many geometries, got {}",
            all.len()
        );
        for g in &all {
            assert!(g.total_compute_sevenths() <= 7);
        }
        let mut seen = std::collections::HashSet::new();
        for g in &all {
            assert!(seen.insert(g.clone()), "duplicate geometry {g}");
        }
        assert!(all.contains(&Geometry::g4_g3()));
        assert!(all.contains(&Geometry::full()));
    }

    proptest! {
        /// Any multiset of non-7g profiles within per-profile limits is
        /// valid iff its compute total fits in 7 sevenths.
        #[test]
        fn prop_validation_matches_compute_budget(
            g4 in 0usize..=1, g3 in 0usize..=2, g2 in 0usize..=3, g1 in 0usize..=7,
        ) {
            prop_assume!(g4 + g3 + g2 + g1 > 0);
            let mut v = Vec::new();
            v.extend(std::iter::repeat_n(SliceProfile::G4, g4));
            v.extend(std::iter::repeat_n(SliceProfile::G3, g3));
            v.extend(std::iter::repeat_n(SliceProfile::G2, g2));
            v.extend(std::iter::repeat_n(SliceProfile::G1, g1));
            let total = 4*g4 + 3*g3 + 2*g2 + g1;
            let placeable = crate::placement::is_placeable(&v);
            let result = Geometry::new(v);
            if total <= 7 && placeable {
                prop_assert!(result.is_ok());
            } else {
                prop_assert!(result.is_err());
            }
        }
    }
}
