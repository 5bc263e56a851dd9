//! Algorithm 2: the GPU Reconfigurator (§4.4).
//!
//! Every monitor interval `W` the reconfigurator predicts the upcoming
//! best-effort load (EWMA over per-window BE request counts), converts
//! it to a resident memory footprint (Little's law: arrival rate ×
//! expected batch residency time), picks the small-slice set that can
//! hold it (`[1g, 2g]`, else `[3g]`), and — guarded by the occupancy
//! thresholds `T_low`/`T_high` — proposes either `(4g, 2g, 1g)` or the
//! robust `(4g, 3g)` geometry. A change is only issued after the same
//! mismatch has been observed `wait_limit` consecutive times, so
//! transient blips do not pay the ~2 s reconfiguration downtime.

use protean_gpu::{Geometry, SliceProfile};
use protean_models::ModelProfile;

use protean_sim::Ewma;

/// Tunables of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfiguratorConfig {
    /// EWMA smoothing factor for the BE request predictor.
    pub ewma_alpha: f64,
    /// Consecutive mismatches required before reconfiguring (paper: 3).
    pub wait_limit: u32,
    /// BE occupancy of the small-slice set below which consolidating on
    /// `(4g, 3g)` is preferred (line 19's `T_low` check).
    pub t_low: f64,
    /// BE occupancy above which `(2g, 1g)` would be overwhelmed and
    /// `(4g, 3g)` is preferred (line 19's `T_high` check).
    pub t_high: f64,
    /// Interference margin on the expected BE batch residency time used
    /// in the Little's-law footprint estimate.
    pub residency_margin: f64,
}

impl Default for ReconfiguratorConfig {
    fn default() -> Self {
        ReconfiguratorConfig {
            ewma_alpha: 0.3,
            wait_limit: 3,
            t_low: 0.25,
            t_high: 0.85,
            residency_margin: 2.0,
        }
    }
}

/// Maximum fraction of a candidate slice-set's memory *bandwidth* the
/// predicted best-effort stream may demand before the set is rejected
/// (part of the "threshold values identified using profiling
/// information" of §4.4): small slices that can *hold* the BE batches
/// but cannot *feed* them would become a tarpit.
const BANDWIDTH_FEASIBILITY_CAP: f64 = 0.85;

/// The per-GPU reconfiguration state machine.
#[derive(Debug, Clone)]
pub struct Reconfigurator {
    config: ReconfiguratorConfig,
    predictor: Ewma,
    wait_ctr: u32,
}

impl Reconfigurator {
    /// Creates a reconfigurator with the given tunables.
    pub fn new(config: ReconfiguratorConfig) -> Self {
        Reconfigurator {
            predictor: Ewma::new(config.ewma_alpha),
            config,
            wait_ctr: 0,
        }
    }

    /// Lines 8–23 of Algorithm 2: the geometry the predictor currently
    /// favours, before the wait-counter hysteresis.
    pub fn desired_geometry(
        &mut self,
        window_be_requests: u64,
        window_secs: f64,
        be_model: Option<&ModelProfile>,
    ) -> Geometry {
        self.predictor.observe(window_be_requests as f64);
        let pred_be_num = self.predictor.predict();
        let Some(be) = be_model else {
            // No BE workload information: keep the big slices.
            return Geometry::g4_g3();
        };
        let pred_be_mem = self.predicted_be_mem_gb(pred_be_num, window_secs, be);
        // small_slice_set = [[1g, 2g], [3g]]
        let candidates: [&[SliceProfile]; 2] =
            [&[SliceProfile::G1, SliceProfile::G2], &[SliceProfile::G3]];
        let be_batches_per_sec = pred_be_num / window_secs.max(1e-9) / f64::from(be.batch_size);
        let mut chosen: Option<&[SliceProfile]> = None;
        for set in candidates {
            let capacity: f64 = set.iter().map(|p| p.mem_gb()).sum();
            let largest_slice = *set
                .iter()
                .max_by_key(|p| p.compute_sevenths())
                .expect("candidate sets are non-empty");
            // The set must hold the predicted footprint, fit at least
            // one batch of the BE model in a single slice, and have the
            // bandwidth to actually serve the BE stream.
            let fits_mem = capacity >= pred_be_mem && largest_slice.mem_gb() + 1e-9 >= be.mem_gb;
            let set_bandwidth: f64 = set.iter().map(|p| p.bandwidth_fraction()).sum();
            let bw_demand = be_batches_per_sec * be.solo_on(largest_slice).as_secs_f64() * be.fbr;
            let feasible_bw = bw_demand <= BANDWIDTH_FEASIBILITY_CAP * set_bandwidth;
            if fits_mem && feasible_bw {
                chosen = Some(set);
                break;
            }
        }
        match chosen {
            Some(set) if set.len() == 2 => {
                let capacity: f64 = set.iter().map(|p| p.mem_gb()).sum();
                let occupancy = pred_be_mem / capacity;
                if occupancy < self.config.t_low || occupancy > self.config.t_high {
                    Geometry::g4_g3()
                } else {
                    Geometry::g4_g2_g1()
                }
            }
            // Either the `[3g]` set (geometry (4g, 3g)) or nothing fits
            // (line 20's fallback): both resolve to (4g, 3g).
            _ => Geometry::g4_g3(),
        }
    }

    /// Little's-law resident footprint: BE batch arrival rate × expected
    /// residency time × per-batch memory.
    fn predicted_be_mem_gb(&self, pred_be_num: f64, window_secs: f64, be: &ModelProfile) -> f64 {
        if pred_be_num <= 0.0 || window_secs <= 0.0 {
            return 0.0;
        }
        let batches_per_sec = pred_be_num / window_secs / f64::from(be.batch_size);
        let residency_secs =
            be.solo_on(be.smallest_fitting_slice()).as_secs_f64() * self.config.residency_margin;
        let resident_batches = (batches_per_sec * residency_secs).max(1.0);
        resident_batches.ceil() * be.mem_gb
    }

    /// Lines 24–30: one monitor-interval step. Returns `Some(geometry)`
    /// when the desired geometry has mismatched `current` for
    /// `wait_limit` consecutive calls (and resets the counter).
    pub fn step(
        &mut self,
        current: &Geometry,
        window_be_requests: u64,
        window_secs: f64,
        be_model: Option<&ModelProfile>,
    ) -> Option<Geometry> {
        let desired = self.desired_geometry(window_be_requests, window_secs, be_model);
        if desired == *current {
            self.wait_ctr = 0;
            return None;
        }
        self.wait_ctr += 1;
        if self.wait_ctr >= self.config.wait_limit {
            self.wait_ctr = 0;
            Some(desired)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_models::{catalog, ModelId};

    fn recon() -> Reconfigurator {
        Reconfigurator::new(ReconfiguratorConfig::default())
    }

    #[test]
    fn small_be_footprint_keeps_small_slices() {
        let cat = catalog();
        let mobilenet = cat.profile(ModelId::MobileNet);
        let mut r = recon();
        // A steady moderate BE stream that fits (2g, 1g).
        let mut g = Geometry::g4_g3();
        for _ in 0..20 {
            g = r.desired_geometry(8000, 2.0, Some(mobilenet));
        }
        assert_eq!(g, Geometry::g4_g2_g1());
    }

    #[test]
    fn huge_be_model_forces_4g_3g() {
        let cat = catalog();
        let dpn = cat.profile(ModelId::Dpn92);
        let mut r = recon();
        // DPN 92 batches (13.7 GB) cannot fit 1g or 2g at all.
        let g = r.desired_geometry(8000, 2.0, Some(dpn));
        assert_eq!(g, Geometry::g4_g3());
    }

    #[test]
    fn tiny_be_load_consolidates_on_4g_3g() {
        let cat = catalog();
        let mobilenet = cat.profile(ModelId::MobileNet);
        let mut r = recon();
        let g = r.desired_geometry(0, 2.0, Some(mobilenet));
        assert_eq!(g, Geometry::g4_g3());
    }

    #[test]
    fn no_be_model_defaults_to_4g_3g() {
        let mut r = recon();
        assert_eq!(r.desired_geometry(100, 2.0, None), Geometry::g4_g3());
    }

    #[test]
    fn wait_counter_delays_reconfiguration() {
        let cat = catalog();
        let mobilenet = cat.profile(ModelId::MobileNet);
        let mut r = recon();
        let current = Geometry::g4_g3();
        // Sustained load that wants (4g, 2g, 1g): the first two steps
        // must hold back, the third fires.
        assert_eq!(r.step(&current, 8000, 2.0, Some(mobilenet)), None);
        assert_eq!(r.step(&current, 8000, 2.0, Some(mobilenet)), None);
        assert_eq!(
            r.step(&current, 8000, 2.0, Some(mobilenet)),
            Some(Geometry::g4_g2_g1())
        );
        // Counter reset: the next mismatch waits again.
        assert_eq!(r.step(&current, 8000, 2.0, Some(mobilenet)), None);
    }

    #[test]
    fn matching_geometry_resets_counter() {
        let cat = catalog();
        let mobilenet = cat.profile(ModelId::MobileNet);
        let mut r = recon();
        let mismatch = Geometry::g4_g3();
        let matching = Geometry::g4_g2_g1();
        for _ in 0..10 {
            // Warm the EWMA so desired is stably (4g, 2g, 1g).
            r.desired_geometry(8000, 2.0, Some(mobilenet));
        }
        assert_eq!(r.step(&mismatch, 8000, 2.0, Some(mobilenet)), None);
        assert_eq!(r.step(&mismatch, 8000, 2.0, Some(mobilenet)), None);
        // A tick where current matches desired clears the counter...
        assert_eq!(r.step(&matching, 8000, 2.0, Some(mobilenet)), None);
        // ...so the mismatch must accumulate from scratch.
        assert_eq!(r.step(&mismatch, 8000, 2.0, Some(mobilenet)), None);
        assert_eq!(r.step(&mismatch, 8000, 2.0, Some(mobilenet)), None);
        assert!(r.step(&mismatch, 8000, 2.0, Some(mobilenet)).is_some());
    }

    #[test]
    fn wait_limit_zero_fires_immediately() {
        let cat = catalog();
        let mobilenet = cat.profile(ModelId::MobileNet);
        let mut r = Reconfigurator::new(ReconfiguratorConfig {
            wait_limit: 0,
            ewma_alpha: 1.0,
            ..ReconfiguratorConfig::default()
        });
        assert_eq!(
            r.step(&Geometry::g4_g3(), 8000, 2.0, Some(mobilenet)),
            Some(Geometry::g4_g2_g1())
        );
    }

    #[test]
    fn ewma_smooths_bursts() {
        let cat = catalog();
        let mobilenet = cat.profile(ModelId::MobileNet);
        let mut r = recon();
        // Long quiet phase.
        for _ in 0..20 {
            r.desired_geometry(0, 2.0, Some(mobilenet));
        }
        // One burst window is damped by the EWMA: the prediction stays
        // low enough to keep the quiet geometry, where an unsmoothed
        // predictor already wants (4g, 2g, 1g).
        assert_eq!(
            r.desired_geometry(4000, 2.0, Some(mobilenet)),
            Geometry::g4_g3()
        );
        let mut unsmoothed = Reconfigurator::new(ReconfiguratorConfig {
            ewma_alpha: 1.0,
            ..ReconfiguratorConfig::default()
        });
        assert_eq!(
            unsmoothed.desired_geometry(4000, 2.0, Some(mobilenet)),
            Geometry::g4_g2_g1()
        );
    }
}
