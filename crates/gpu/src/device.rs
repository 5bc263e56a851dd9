//! A whole GPU: a set of slices under one MIG geometry, plus the
//! drain → reconfigure → rebuild lifecycle.
//!
//! MIG reconfiguration requires every slice to be idle (no running
//! processes), and takes ~2 s on an A100 (paper §4.4). The lifecycle here
//! mirrors that: the caller *requests* a new geometry, the GPU enters a
//! draining state in which no new jobs should be placed, reconfiguration
//! *begins* once the last job finishes, and the new slices come up after
//! the reconfiguration delay.

use std::fmt;

use protean_sim::{SimDuration, SimTime};

use crate::profile::{Geometry, SliceProfile};
use crate::slice::{SharingMode, Slice};

/// Identifier of a GPU in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpuId(pub u32);

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// Lifecycle state of a GPU with respect to MIG reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuState {
    /// Serving jobs normally.
    Active,
    /// A reconfiguration is pending; no new jobs should be admitted and
    /// the reconfiguration starts once all slices are idle.
    Draining {
        /// Geometry to apply once drained.
        target: Geometry,
    },
    /// MIG partitions are being rebuilt; the GPU is unusable until
    /// `until`.
    Reconfiguring {
        /// When the new geometry becomes available.
        until: SimTime,
        /// Geometry being applied.
        target: Geometry,
    },
}

/// Error returned by the reconfiguration lifecycle methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigError {
    /// A reconfiguration is already in progress.
    AlreadyReconfiguring,
    /// `try_begin_reconfigure` was called while jobs are still running.
    NotDrained,
    /// `complete_reconfigure` was called before the reconfiguration
    /// delay elapsed or without one in progress.
    NotReconfiguring,
}

impl fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigError::AlreadyReconfiguring => write!(f, "reconfiguration in progress"),
            ReconfigError::NotDrained => write!(f, "slices still have running jobs"),
            ReconfigError::NotReconfiguring => write!(f, "no reconfiguration in progress"),
        }
    }
}

impl std::error::Error for ReconfigError {}

/// Default MIG reconfiguration latency (paper §4.4: ~2 s).
pub const DEFAULT_RECONFIG_DELAY: SimDuration = SimDuration::from_micros(2_000_000);

/// One simulated A100 GPU.
///
/// # Example
///
/// ```
/// use protean_gpu::{Gpu, GpuId, Geometry, SharingMode};
/// use protean_sim::SimTime;
///
/// let mut gpu = Gpu::new(GpuId(0), Geometry::g4_g3(), SharingMode::Mps, SimTime::ZERO);
/// assert_eq!(gpu.slices().len(), 2);
/// // Request a new geometry; it applies once the GPU drains.
/// gpu.request_reconfigure(Geometry::g4_g2_g1()).unwrap();
/// let until = gpu.try_begin_reconfigure(SimTime::ZERO).unwrap();
/// gpu.complete_reconfigure(until).unwrap();
/// assert_eq!(gpu.geometry(), &Geometry::g4_g2_g1());
/// ```
#[derive(Debug, Clone)]
pub struct Gpu {
    id: GpuId,
    geometry: Geometry,
    slices: Vec<Slice>,
    mode: SharingMode,
    state: GpuState,
    reconfig_delay: SimDuration,
    started: SimTime,
    /// Busy compute integral (sevenths·seconds) from retired slice sets.
    retired_busy_sevenths_secs: f64,
    /// Memory integral (GB·seconds) from retired slice sets.
    retired_mem_gb_secs: f64,
    /// Bumped by every method that can change what a placement sees.
    version: u64,
}

impl Gpu {
    /// Creates a GPU with the given initial geometry; all slices share
    /// via `mode`.
    pub fn new(id: GpuId, geometry: Geometry, mode: SharingMode, now: SimTime) -> Self {
        let slices = build_slices(&geometry, mode, now);
        Gpu {
            id,
            geometry,
            slices,
            mode,
            state: GpuState::Active,
            reconfig_delay: DEFAULT_RECONFIG_DELAY,
            started: now,
            retired_busy_sevenths_secs: 0.0,
            retired_mem_gb_secs: 0.0,
            version: 0,
        }
    }

    /// Overrides the reconfiguration latency (default ~2 s).
    pub fn set_reconfig_delay(&mut self, delay: SimDuration) {
        self.reconfig_delay = delay;
    }

    /// The GPU's id.
    pub fn id(&self) -> GpuId {
        self.id
    }

    /// The current geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The lifecycle state.
    pub fn state(&self) -> &GpuState {
        &self.state
    }

    /// `true` if new jobs may be placed on this GPU's slices.
    pub fn accepting(&self) -> bool {
        matches!(self.state, GpuState::Active)
    }

    /// The slices of the current geometry, largest first.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// Mutable access to a slice by index. Bumps [`Gpu::version`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn slice_mut(&mut self, idx: usize) -> &mut Slice {
        self.version += 1;
        &mut self.slices[idx]
    }

    /// Shared access to a slice by index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn slice(&self, idx: usize) -> &Slice {
        &self.slices[idx]
    }

    /// `true` if no slice has a resident job.
    pub fn is_idle(&self) -> bool {
        self.slices.iter().all(Slice::is_idle)
    }

    /// A counter bumped by every method that can change what a
    /// placement sees: [`Gpu::slice_mut`] and the four reconfiguration
    /// lifecycle methods, whether or not the call changes anything. Two
    /// reads that return the same value bracket no such call, so the
    /// slices and the lifecycle state are unchanged between them.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Requests a geometry change. The GPU stops accepting jobs and the
    /// change is applied once it drains (see
    /// [`Gpu::try_begin_reconfigure`]). Requesting the current geometry
    /// while active is a no-op returning `Ok(false)`.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigError::AlreadyReconfiguring`] if a
    /// reconfiguration has already begun (draining can be retargeted).
    pub fn request_reconfigure(&mut self, target: Geometry) -> Result<bool, ReconfigError> {
        self.version += 1;
        match &self.state {
            GpuState::Reconfiguring { .. } => Err(ReconfigError::AlreadyReconfiguring),
            GpuState::Active if target == self.geometry => Ok(false),
            GpuState::Active | GpuState::Draining { .. } => {
                self.state = GpuState::Draining { target };
                Ok(true)
            }
        }
    }

    /// Cancels a pending (draining) reconfiguration, returning the GPU to
    /// active service. No-op unless draining.
    pub fn cancel_reconfigure(&mut self) {
        self.version += 1;
        if matches!(self.state, GpuState::Draining { .. }) {
            self.state = GpuState::Active;
        }
    }

    /// Begins the reconfiguration if the GPU is draining and idle.
    /// Returns the completion instant.
    ///
    /// # Errors
    ///
    /// * [`ReconfigError::NotReconfiguring`] if no change was requested.
    /// * [`ReconfigError::NotDrained`] if jobs are still running.
    pub fn try_begin_reconfigure(&mut self, now: SimTime) -> Result<SimTime, ReconfigError> {
        self.version += 1;
        let target = match &self.state {
            GpuState::Draining { target } => target.clone(),
            _ => return Err(ReconfigError::NotReconfiguring),
        };
        if !self.is_idle() {
            return Err(ReconfigError::NotDrained);
        }
        // Retire the old slices' accounting before they are destroyed.
        for s in &self.slices {
            self.retired_busy_sevenths_secs +=
                s.busy_integral_secs(now) * f64::from(s.profile().compute_sevenths());
            self.retired_mem_gb_secs += s.mem_integral_gb_secs(now);
        }
        let until = now + self.reconfig_delay;
        self.state = GpuState::Reconfiguring { until, target };
        Ok(until)
    }

    /// Installs the new geometry once the reconfiguration delay has
    /// elapsed.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigError::NotReconfiguring`] if called without a
    /// reconfiguration in progress or before its completion instant.
    pub fn complete_reconfigure(&mut self, now: SimTime) -> Result<(), ReconfigError> {
        self.version += 1;
        let (until, target) = match &self.state {
            GpuState::Reconfiguring { until, target } => (*until, target.clone()),
            _ => return Err(ReconfigError::NotReconfiguring),
        };
        if now < until {
            return Err(ReconfigError::NotReconfiguring);
        }
        self.slices = build_slices(&target, self.mode, now);
        self.geometry = target;
        self.state = GpuState::Active;
        Ok(())
    }

    /// Compute utilization: the busy-time of each slice weighted by its
    /// compute share, over the whole GPU and observation window. The
    /// paper reports this as "percentage non-idle time" per GPU.
    pub fn compute_utilization(&self, now: SimTime) -> f64 {
        let window = now.saturating_since(self.started).as_secs_f64();
        if window <= 0.0 {
            return 0.0;
        }
        let live: f64 = self
            .slices
            .iter()
            .map(|s| s.busy_integral_secs(now) * f64::from(s.profile().compute_sevenths()))
            .sum();
        (self.retired_busy_sevenths_secs + live) / (7.0 * window)
    }

    /// Memory utilization: time-averaged occupied GB over the GPU's
    /// 40 GB, across the observation window.
    pub fn memory_utilization(&self, now: SimTime) -> f64 {
        let window = now.saturating_since(self.started).as_secs_f64();
        if window <= 0.0 {
            return 0.0;
        }
        let live: f64 = self
            .slices
            .iter()
            .map(|s| s.mem_integral_gb_secs(now))
            .sum();
        (self.retired_mem_gb_secs + live) / (SliceProfile::G7.mem_gb() * window)
    }
}

fn build_slices(geometry: &Geometry, mode: SharingMode, now: SimTime) -> Vec<Slice> {
    geometry
        .slices()
        .iter()
        .map(|&p| Slice::new(p, mode, now))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::{JobId, JobSpec};

    fn spec(id: u64, solo_ms: f64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            solo: SimDuration::from_millis(solo_ms),
            fbr: 0.3,
            mem_gb: 2.0,
        }
    }

    #[test]
    fn reconfigure_happy_path() {
        let mut gpu = Gpu::new(GpuId(0), Geometry::full(), SharingMode::Mps, SimTime::ZERO);
        assert!(gpu.accepting());
        assert!(gpu.request_reconfigure(Geometry::g4_g3()).unwrap());
        assert!(!gpu.accepting());
        let until = gpu.try_begin_reconfigure(SimTime::from_secs(1.0)).unwrap();
        assert_eq!(until, SimTime::from_secs(3.0));
        assert!(gpu.complete_reconfigure(SimTime::from_secs(2.0)).is_err());
        gpu.complete_reconfigure(until).unwrap();
        assert_eq!(gpu.geometry(), &Geometry::g4_g3());
        assert_eq!(gpu.slices().len(), 2);
        assert!(gpu.accepting());
    }

    #[test]
    fn same_geometry_request_is_noop() {
        let mut gpu = Gpu::new(GpuId(0), Geometry::g4_g3(), SharingMode::Mps, SimTime::ZERO);
        assert!(!gpu.request_reconfigure(Geometry::g4_g3()).unwrap());
        assert!(gpu.accepting());
    }

    #[test]
    fn cannot_begin_while_jobs_running() {
        let mut gpu = Gpu::new(GpuId(0), Geometry::full(), SharingMode::Mps, SimTime::ZERO);
        gpu.slice_mut(0)
            .admit(SimTime::ZERO, spec(1, 100.0))
            .unwrap();
        gpu.request_reconfigure(Geometry::g4_g3()).unwrap();
        assert_eq!(
            gpu.try_begin_reconfigure(SimTime::ZERO),
            Err(ReconfigError::NotDrained)
        );
        // Finish the job, then the reconfiguration may begin.
        gpu.slice_mut(0)
            .finish(SimTime::from_millis(100.0), JobId(1))
            .unwrap();
        assert!(gpu
            .try_begin_reconfigure(SimTime::from_millis(100.0))
            .is_ok());
        assert_eq!(
            gpu.request_reconfigure(Geometry::full()),
            Err(ReconfigError::AlreadyReconfiguring)
        );
    }

    #[test]
    fn cancel_returns_to_active() {
        let mut gpu = Gpu::new(GpuId(0), Geometry::full(), SharingMode::Mps, SimTime::ZERO);
        gpu.request_reconfigure(Geometry::g4_g3()).unwrap();
        gpu.cancel_reconfigure();
        assert!(gpu.accepting());
        assert_eq!(gpu.geometry(), &Geometry::full());
    }

    #[test]
    fn retargeting_while_draining_is_allowed() {
        let mut gpu = Gpu::new(GpuId(0), Geometry::full(), SharingMode::Mps, SimTime::ZERO);
        gpu.request_reconfigure(Geometry::g4_g3()).unwrap();
        gpu.request_reconfigure(Geometry::g3_g3()).unwrap();
        let until = gpu.try_begin_reconfigure(SimTime::ZERO).unwrap();
        gpu.complete_reconfigure(until).unwrap();
        assert_eq!(gpu.geometry(), &Geometry::g3_g3());
    }

    #[test]
    fn utilization_survives_reconfiguration() {
        let mut gpu = Gpu::new(GpuId(0), Geometry::full(), SharingMode::Mps, SimTime::ZERO);
        // Busy 1s on the whole GPU.
        gpu.slice_mut(0)
            .admit(SimTime::ZERO, spec(1, 1000.0))
            .unwrap();
        gpu.slice_mut(0)
            .finish(SimTime::from_secs(1.0), JobId(1))
            .unwrap();
        gpu.request_reconfigure(Geometry::g4_g3()).unwrap();
        let until = gpu.try_begin_reconfigure(SimTime::from_secs(1.0)).unwrap();
        gpu.complete_reconfigure(until).unwrap();
        // Over 4 seconds: busy-compute was 7 sevenths for 1s out of 7×4.
        let util = gpu.compute_utilization(SimTime::from_secs(4.0));
        assert!((util - 0.25).abs() < 1e-9, "util was {util}");
        // Memory: 2 GB for 1 s over 40 GB × 4 s = 1.25%.
        let mem = gpu.memory_utilization(SimTime::from_secs(4.0));
        assert!((mem - 0.0125).abs() < 1e-9, "mem was {mem}");
    }

    #[test]
    fn utilization_weights_by_compute_share() {
        let mut gpu = Gpu::new(GpuId(0), Geometry::g4_g3(), SharingMode::Mps, SimTime::ZERO);
        // Keep only the 3g slice busy for the whole window.
        gpu.slice_mut(1)
            .admit(SimTime::ZERO, spec(1, 1000.0))
            .unwrap();
        let util = gpu.compute_utilization(SimTime::from_secs(1.0));
        assert!((util - 3.0 / 7.0).abs() < 1e-9, "util was {util}");
    }

    #[test]
    fn every_placement_visible_mutation_bumps_the_version() {
        let mut gpu = Gpu::new(GpuId(0), Geometry::full(), SharingMode::Mps, SimTime::ZERO);
        let mut seen = gpu.version();
        let mut bumped = |gpu: &Gpu, what: &str| {
            assert!(gpu.version() > seen, "{what} did not bump the version");
            seen = gpu.version();
        };
        gpu.slice_mut(0);
        bumped(&gpu, "slice_mut");
        gpu.request_reconfigure(Geometry::g4_g3()).unwrap();
        bumped(&gpu, "request_reconfigure");
        gpu.cancel_reconfigure();
        bumped(&gpu, "cancel_reconfigure");
        gpu.request_reconfigure(Geometry::g4_g3()).unwrap();
        bumped(&gpu, "request_reconfigure (again)");
        let until = gpu.try_begin_reconfigure(SimTime::ZERO).unwrap();
        bumped(&gpu, "try_begin_reconfigure");
        gpu.complete_reconfigure(until).unwrap();
        bumped(&gpu, "complete_reconfigure");
        // Shared reads leave it alone.
        let _ = (gpu.slices(), gpu.slice(0), gpu.accepting(), gpu.is_idle());
        assert_eq!(gpu.version(), seen);
    }
}
