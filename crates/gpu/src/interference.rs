//! The paper's job-slowdown model (Eq. 1 and Eq. 2).
//!
//! *Prophet*'s interference model, re-purposed by PROTEAN for the hybrid
//! MPS+MIG setting: a job `J_k` co-located (via MPS) with jobs
//! `J_1 … J_n` runs in
//!
//! ```text
//! T_k = Solo_k × max( Σ_j bw_j × sm_j , 1 )          (Eq. 1)
//! ```
//!
//! where `bw_j × sm_j` is job `J_j`'s Fractional Bandwidth Requirement
//! (FBR) and the sum includes `J_k` itself. On a MIG slice the available
//! bandwidth is only the slice's share of the GPU's, so a job's effective
//! FBR grows by the reciprocal of the slice's bandwidth fraction.

use protean_sim::SimDuration;

/// The slowdown factor `max(Σ FBR, 1)` for a set of co-located jobs'
/// effective FBRs (already scaled to the slice's bandwidth).
///
/// Below saturation (Σ < 1) there is no slowdown: the memory system keeps
/// up with every job. Past saturation every job is stretched
/// proportionally to the total demand.
///
/// # Example
///
/// ```
/// use protean_gpu::slowdown_factor;
/// assert_eq!(slowdown_factor(&[0.3, 0.4]), 1.0);      // under capacity
/// assert_eq!(slowdown_factor(&[0.8, 0.7]), 1.5);      // 150% demand
/// ```
pub fn slowdown_factor(fbr_shares: &[f64]) -> f64 {
    slowdown_factor_iter(fbr_shares.iter().copied())
}

/// [`slowdown_factor`] over any iterator of effective FBRs —
/// allocation-free, for callers that would otherwise collect a
/// temporary `Vec` just to sum it.
pub fn slowdown_factor_iter(fbr_shares: impl IntoIterator<Item = f64>) -> f64 {
    let total: f64 = fbr_shares.into_iter().sum();
    total.max(1.0)
}

/// Eq. 1: execution time of a job with solo time `solo` under the given
/// slowdown factor.
///
/// # Example
///
/// ```
/// use protean_gpu::{execution_time, slowdown_factor};
/// use protean_sim::SimDuration;
/// let solo = SimDuration::from_millis(100.0);
/// let t = execution_time(solo, slowdown_factor(&[0.9, 0.6]));
/// assert_eq!(t, SimDuration::from_millis(150.0));
/// ```
pub fn execution_time(solo: SimDuration, slowdown: f64) -> SimDuration {
    solo.mul_f64(slowdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_interference_below_saturation() {
        assert_eq!(slowdown_factor(&[]), 1.0);
        assert_eq!(slowdown_factor(&[0.2]), 1.0);
        assert_eq!(slowdown_factor(&[0.5, 0.49]), 1.0);
    }

    #[test]
    fn proportional_slowdown_above_saturation() {
        assert!((slowdown_factor(&[0.7, 0.7]) - 1.4).abs() < 1e-12);
        assert!((slowdown_factor(&[1.0, 1.0, 1.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn execution_time_scales_solo() {
        let solo = SimDuration::from_millis(80.0);
        assert_eq!(execution_time(solo, 1.0), solo);
        assert_eq!(execution_time(solo, 2.5), SimDuration::from_millis(200.0));
    }

    #[test]
    fn iter_variant_matches_slice_variant() {
        let shares = [0.8, 0.7, 0.1];
        assert_eq!(
            slowdown_factor_iter(shares.iter().copied()).to_bits(),
            slowdown_factor(&shares).to_bits()
        );
        assert_eq!(slowdown_factor_iter(std::iter::empty()), 1.0);
    }

    proptest! {
        /// Slowdown is monotone in each job's FBR and never below 1.
        #[test]
        fn prop_slowdown_monotone(shares in proptest::collection::vec(0.0f64..2.0, 0..8), extra in 0.0f64..2.0) {
            let base = slowdown_factor(&shares);
            prop_assert!(base >= 1.0);
            let mut more = shares.clone();
            more.push(extra);
            prop_assert!(slowdown_factor(&more) >= base);
        }

        /// Adding a zero-FBR job never changes the slowdown.
        #[test]
        fn prop_zero_job_is_free(shares in proptest::collection::vec(0.0f64..2.0, 0..8)) {
            let mut with_zero = shares.clone();
            with_zero.push(0.0);
            prop_assert_eq!(slowdown_factor(&shares), slowdown_factor(&with_zero));
        }
    }
}
