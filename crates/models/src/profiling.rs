//! FBR estimation from co-location measurements.
//!
//! The paper (§3) estimates each job's Fractional Bandwidth Requirement
//! "by averaging the values obtained from solving the linear equations
//! derived from Equation 1 for multiple co-locations". This module
//! implements that profiling procedure: feed it slowdowns observed when
//! pairs of jobs were co-located under MPS, and it recovers per-job FBRs
//! by Gauss–Seidel iteration on the linear system
//! `slowdown(k, i) = fbr_k + fbr_i` (valid whenever the pair saturates
//! bandwidth, i.e. slowdown > 1).

use std::collections::HashMap;

/// One profiled co-location: two jobs ran together under MPS and the
/// first was observed to slow down by `slowdown` relative to its solo
/// time on the same slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoLocationMeasurement<K> {
    /// The measured job.
    pub job: K,
    /// Its co-located partner.
    pub partner: K,
    /// `T_job / Solo_job` for the run, per Eq. 1 equal to
    /// `max(fbr_job + fbr_partner, 1)`.
    pub slowdown: f64,
}

/// Recovers per-job FBRs from pairwise co-location slowdowns.
///
/// Measurements with `slowdown <= 1` carry no equality information (the
/// pair did not saturate bandwidth) and are ignored. Jobs that appear
/// only in ignored measurements are absent from the result.
///
/// Returns the estimated FBR per job key. Estimates are clamped to be
/// non-negative.
///
/// # Example
///
/// ```
/// use protean_models::{estimate_fbr_from_pairs, CoLocationMeasurement};
/// let m = vec![
///     CoLocationMeasurement { job: "a", partner: "b", slowdown: 1.1 },
///     CoLocationMeasurement { job: "b", partner: "a", slowdown: 1.1 },
///     CoLocationMeasurement { job: "a", partner: "c", slowdown: 1.3 },
///     CoLocationMeasurement { job: "c", partner: "a", slowdown: 1.3 },
///     CoLocationMeasurement { job: "b", partner: "c", slowdown: 1.4 },
///     CoLocationMeasurement { job: "c", partner: "b", slowdown: 1.4 },
/// ];
/// let fbr = estimate_fbr_from_pairs(&m, 200);
/// // a+b = 1.1, a+c = 1.3, b+c = 1.4  =>  a=0.5, b=0.6, c=0.8
/// assert!((fbr["a"] - 0.5).abs() < 1e-6);
/// assert!((fbr["b"] - 0.6).abs() < 1e-6);
/// assert!((fbr["c"] - 0.8).abs() < 1e-6);
/// ```
pub fn estimate_fbr_from_pairs<K>(
    measurements: &[CoLocationMeasurement<K>],
    iterations: usize,
) -> HashMap<K, f64>
where
    K: Clone + Eq + std::hash::Hash + Ord,
{
    // Keep only saturated pairs: slowdown = fbr_a + fbr_b.
    let saturated: Vec<&CoLocationMeasurement<K>> = measurements
        .iter()
        .filter(|m| m.slowdown > 1.0 + 1e-12)
        .collect();
    let mut estimates: HashMap<K, f64> = HashMap::new();
    for m in &saturated {
        // Symmetric initial guess: split the measured total evenly.
        estimates.entry(m.job.clone()).or_insert(m.slowdown / 2.0);
        estimates
            .entry(m.partner.clone())
            .or_insert(m.slowdown / 2.0);
    }
    // Deterministic iteration order regardless of hash state.
    let mut keys: Vec<K> = estimates.keys().cloned().collect();
    keys.sort();
    for _ in 0..iterations {
        for key in &keys {
            let mut sum = 0.0;
            let mut count = 0usize;
            for m in &saturated {
                if m.job == *key {
                    sum += m.slowdown - estimates[&m.partner];
                    count += 1;
                } else if m.partner == *key {
                    sum += m.slowdown - estimates[&m.job];
                    count += 1;
                }
            }
            if count > 0 {
                let v = (sum / count as f64).max(0.0);
                estimates.insert(key.clone(), v);
            }
        }
    }
    estimates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ModelId;
    use proptest::prelude::*;

    /// Generate synthetic pairwise measurements from ground-truth FBRs
    /// via Eq. 1, then check the profiler recovers them.
    fn measurements_from_truth(truth: &[(ModelId, f64)]) -> Vec<CoLocationMeasurement<ModelId>> {
        let mut out = Vec::new();
        for (i, &(a, fa)) in truth.iter().enumerate() {
            for &(b, fb) in truth.iter().skip(i + 1) {
                let slowdown = (fa + fb).max(1.0);
                out.push(CoLocationMeasurement {
                    job: a,
                    partner: b,
                    slowdown,
                });
                out.push(CoLocationMeasurement {
                    job: b,
                    partner: a,
                    slowdown,
                });
            }
        }
        out
    }

    #[test]
    fn recovers_catalog_hi_fbrs() {
        // The HI vision models all pairwise saturate (fbr sums > 1), so
        // their FBRs are exactly identifiable.
        let truth: Vec<(ModelId, f64)> = [
            ModelId::ResNet50,
            ModelId::DenseNet121,
            ModelId::Vgg19,
            ModelId::Dpn92,
        ]
        .iter()
        .map(|&id| (id, id.profile().fbr))
        .collect();
        let est = estimate_fbr_from_pairs(&measurements_from_truth(&truth), 300);
        for (id, fbr) in truth {
            let got = est[&id];
            assert!((got - fbr).abs() < 1e-6, "{id}: {got} vs {fbr}");
        }
    }

    #[test]
    fn unsaturated_pairs_are_ignored() {
        let m = vec![CoLocationMeasurement {
            job: "a",
            partner: "b",
            slowdown: 1.0,
        }];
        let est = estimate_fbr_from_pairs(&m, 50);
        assert!(est.is_empty());
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let est = estimate_fbr_from_pairs::<&str>(&[], 50);
        assert!(est.is_empty());
    }

    proptest! {
        /// For any three saturating jobs, the profiler solves the system.
        #[test]
        fn prop_three_job_identifiability(
            fa in 0.55f64..1.0, fb in 0.55f64..1.0, fc in 0.55f64..1.0,
        ) {
            let m = vec![
                CoLocationMeasurement { job: 0u8, partner: 1, slowdown: fa + fb },
                CoLocationMeasurement { job: 1u8, partner: 0, slowdown: fa + fb },
                CoLocationMeasurement { job: 0u8, partner: 2, slowdown: fa + fc },
                CoLocationMeasurement { job: 2u8, partner: 0, slowdown: fa + fc },
                CoLocationMeasurement { job: 1u8, partner: 2, slowdown: fb + fc },
                CoLocationMeasurement { job: 2u8, partner: 1, slowdown: fb + fc },
            ];
            let est = estimate_fbr_from_pairs(&m, 400);
            prop_assert!((est[&0] - fa).abs() < 1e-4);
            prop_assert!((est[&1] - fb).abs() < 1e-4);
            prop_assert!((est[&2] - fc).abs() < 1e-4);
        }
    }
}
