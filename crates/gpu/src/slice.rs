//! A single MIG slice executing jobs under MPS spatial sharing or FIFO
//! time sharing.
//!
//! MPS execution is modelled as processor sharing with a global slowdown
//! factor (Eq. 1): all resident jobs progress at rate `1 / slowdown`,
//! and the slowdown changes whenever slice membership changes. On each
//! membership change the slice hands back its **earliest** projected
//! completion ([`Slice::next_completion`]), tagged with a generation
//! counter so stale events can be discarded: the caller keeps at most
//! one live completion event per slice and re-arms it whenever
//! membership changes, instead of re-projecting every resident job.
//! [`Slice::project_completions`] still exposes the full projection set
//! for diagnostics and tests.
//!
//! The slice also maintains its Σ FBR-share and Σ memory incrementally:
//! admission appends to the running sums (bit-identical to a fresh
//! left-fold) and departure recomputes them from scratch (floating-point
//! subtraction would not be), so `fbr_load`/`advance` never re-sum the
//! resident set.

use std::fmt;

use protean_sim::{Accumulator, SimDuration, SimTime};

use crate::interference::slowdown_factor_iter;
use crate::profile::SliceProfile;

/// Identifier of a job (a request batch) running on a GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Everything the GPU needs to know to execute one job on one slice.
///
/// The caller (the cluster) pre-resolves workload-specific quantities:
/// `solo` is the job's isolated execution time *on this slice* (i.e.
/// `Solo_7g × RDF(slice)`), and `fbr` is the job's Fractional Bandwidth
/// Requirement relative to the *whole GPU's* bandwidth — the slice scales
/// it to its own bandwidth share internally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Unique id of the job.
    pub id: JobId,
    /// Isolated execution time on this slice.
    pub solo: SimDuration,
    /// Fractional Bandwidth Requirement relative to the full GPU.
    pub fbr: f64,
    /// GPU memory occupied while the job runs, in GB.
    pub mem_gb: f64,
}

/// How jobs on the slice share its resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingMode {
    /// NVIDIA MPS: jobs run concurrently, interfering per Eq. 1.
    Mps,
    /// One job at a time; the slice reports [`AdmitError::Busy`] while
    /// occupied (the caller queues).
    TimeShared,
}

/// A projected job completion, tagged with the slice generation at which
/// the projection was made. A completion is only valid while the slice's
/// [`Slice::generation`] still equals `generation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The job that will complete.
    pub job: JobId,
    /// Projected completion instant.
    pub at: SimTime,
    /// Slice generation the projection belongs to.
    pub generation: u64,
}

/// Error returned by [`Slice::admit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmitError {
    /// The job's memory footprint does not fit in the slice's free memory.
    OutOfMemory {
        /// Free memory at admission time, in GB.
        available_gb: f64,
        /// The job's requested memory, in GB.
        requested_gb: f64,
    },
    /// Time-shared slice already has a running job.
    Busy,
    /// A job with the same id is already resident.
    DuplicateJob(JobId),
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::OutOfMemory {
                available_gb,
                requested_gb,
            } => write!(
                f,
                "job needs {requested_gb} GB but only {available_gb} GB free"
            ),
            AdmitError::Busy => write!(f, "time-shared slice is busy"),
            AdmitError::DuplicateJob(id) => write!(f, "{id} is already resident"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Error returned by [`Slice::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishError {
    /// No resident job has the given id.
    UnknownJob(JobId),
    /// The job exists but still has work remaining (the completion event
    /// that triggered this call was stale).
    NotDone(JobId),
}

impl fmt::Display for FinishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FinishError::UnknownJob(id) => write!(f, "{id} is not resident"),
            FinishError::NotDone(id) => write!(f, "{id} has work remaining"),
        }
    }
}

impl std::error::Error for FinishError {}

/// Information about a job that has just finished on the slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinishedJob {
    /// The job's spec as admitted.
    pub spec: JobSpec,
    /// When the job was admitted.
    pub admitted_at: SimTime,
}

#[derive(Debug, Clone)]
struct Running {
    spec: JobSpec,
    admitted_at: SimTime,
    /// Remaining solo-equivalent work, in (fractional) microseconds.
    remaining_us: f64,
}

/// Tolerance (in solo-microseconds) under which a job counts as done;
/// absorbs the rounding introduced by projecting completions onto the
/// integer-microsecond clock.
const DONE_EPSILON_US: f64 = 1e-3;

/// Additional slowdown per *extra* co-located MPS process, beyond the
/// Eq. 1 bandwidth term: MPS processes share L2/caches (Fig. 1a), so
/// every additional co-runner thrashes them a little even below
/// bandwidth saturation. MIG isolation avoids this across slices, which
/// is exactly the super-additive penalty the paper's motivational study
/// attributes to "MPS Only" consolidation.
pub const MPS_CACHE_PENALTY: f64 = 0.1;

/// The super-additive MPS cache-thrashing term: zero for a lone
/// process, [`MPS_CACHE_PENALTY`] per additional co-runner.
fn cache_penalty(co_located: usize) -> f64 {
    MPS_CACHE_PENALTY * co_located.saturating_sub(1) as f64
}

/// One MIG slice: the unit PROTEAN schedules jobs onto.
///
/// See the [crate docs](crate) for the execution model and an example.
#[derive(Debug, Clone)]
pub struct Slice {
    profile: SliceProfile,
    mode: SharingMode,
    running: Vec<Running>,
    last_advance: SimTime,
    generation: u64,
    busy: Accumulator,
    mem: Accumulator,
    /// Cached Σ `fbr_share` over resident jobs; equals the left-fold sum
    /// of [`Slice::fbr_share`] in admission order at all times.
    fbr_share_sum: f64,
    /// Cached Σ `mem_gb` over resident jobs, same discipline.
    mem_gb_sum: f64,
}

impl Slice {
    /// Creates an idle slice observing metrics from `now`.
    pub fn new(profile: SliceProfile, mode: SharingMode, now: SimTime) -> Self {
        Slice {
            profile,
            mode,
            running: Vec::new(),
            last_advance: now,
            generation: 0,
            busy: Accumulator::new(now),
            mem: Accumulator::new(now),
            fbr_share_sum: 0.0,
            mem_gb_sum: 0.0,
        }
    }

    /// The slice's MIG profile.
    pub fn profile(&self) -> SliceProfile {
        self.profile
    }

    /// The slice's sharing mode.
    pub fn mode(&self) -> SharingMode {
        self.mode
    }

    /// The current generation; completions from earlier generations are
    /// stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Memory currently occupied by resident jobs, in GB.
    pub fn mem_used_gb(&self) -> f64 {
        self.mem_gb_sum
    }

    /// Free memory, in GB.
    pub fn mem_available_gb(&self) -> f64 {
        (self.profile.mem_gb() - self.mem_used_gb()).max(0.0)
    }

    /// `true` if no jobs are resident.
    pub fn is_idle(&self) -> bool {
        self.running.is_empty()
    }

    /// Number of resident jobs.
    pub fn job_count(&self) -> usize {
        self.running.len()
    }

    /// Specs of the resident jobs, in admission order.
    pub fn jobs(&self) -> impl Iterator<Item = &JobSpec> {
        self.running.iter().map(|r| &r.spec)
    }

    /// The Eq. 1 slowdown an *unstarved* job (bandwidth share ≤ 1)
    /// currently experiences on this slice. Jobs whose own demand
    /// exceeds the slice's bandwidth are normalised by their own share
    /// (`max(1, total / max(1, share)) + penalty`): their solo starvation is
    /// already captured by the RDF in their solo time, so Eq. 1 here
    /// models only the *contention between co-located jobs*.
    pub fn current_slowdown(&self) -> f64 {
        match self.mode {
            SharingMode::TimeShared => 1.0,
            SharingMode::Mps => {
                slowdown_factor_iter(self.running.iter().map(|r| self.fbr_share(&r.spec)))
                    + cache_penalty(self.running.len())
            }
        }
    }

    /// The per-job slowdown for a resident job with bandwidth share
    /// `share`, given the slice's total share load `total` and `n`
    /// co-located jobs: `max(1, total / max(1, share)) + penalty`.
    fn slowdown_of_share(share: f64, total: f64, n: usize) -> f64 {
        (total / share.max(1.0)).max(1.0) + cache_penalty(n)
    }

    fn fbr_share(&self, spec: &JobSpec) -> f64 {
        spec.fbr / self.profile.bandwidth_fraction()
    }

    /// The raw sum of resident jobs' bandwidth shares (before Eq. 1's
    /// `max(·, 1)`), scaled to this slice's bandwidth. Zero for
    /// time-shared slices. O(1): served from the incrementally
    /// maintained sum.
    pub fn fbr_load(&self) -> f64 {
        match self.mode {
            SharingMode::TimeShared => 0.0,
            SharingMode::Mps => self.fbr_share_sum,
        }
    }

    /// Rebuilds the cached sums with the same left-fold the fresh
    /// iterator sums used, so departures stay bit-identical (an
    /// incremental subtraction would not be).
    fn recompute_sums(&mut self) {
        let fbr: f64 = self.running.iter().map(|r| self.fbr_share(&r.spec)).sum();
        let mem: f64 = self.running.iter().map(|r| r.spec.mem_gb).sum();
        self.fbr_share_sum = fbr;
        self.mem_gb_sum = mem;
    }

    /// Admits a job at `now` and returns the slice's **earliest**
    /// projected completion (previous projections become stale — the
    /// caller replaces its single live completion event for this slice).
    ///
    /// # Errors
    ///
    /// * [`AdmitError::OutOfMemory`] if the job does not fit in free slice
    ///   memory.
    /// * [`AdmitError::Busy`] if the slice is time-shared and occupied.
    /// * [`AdmitError::DuplicateJob`] if the id is already resident.
    pub fn admit(&mut self, now: SimTime, spec: JobSpec) -> Result<Completion, AdmitError> {
        if self.running.iter().any(|r| r.spec.id == spec.id) {
            return Err(AdmitError::DuplicateJob(spec.id));
        }
        if self.mode == SharingMode::TimeShared && !self.running.is_empty() {
            return Err(AdmitError::Busy);
        }
        let available = self.mem_available_gb();
        if spec.mem_gb > available + 1e-9 {
            return Err(AdmitError::OutOfMemory {
                available_gb: available,
                requested_gb: spec.mem_gb,
            });
        }
        self.advance(now);
        self.running.push(Running {
            spec,
            admitted_at: now,
            remaining_us: spec.solo.as_micros() as f64,
        });
        self.fbr_share_sum += self.fbr_share(&spec);
        self.mem_gb_sum += spec.mem_gb;
        self.after_membership_change(now);
        Ok(self
            .next_completion(now)
            .expect("slice just admitted a job"))
    }

    /// Completes `job` at `now` (which must match a live completion
    /// projection) and returns the finished job plus the earliest
    /// projection among the jobs still resident (`None` if the slice is
    /// now idle).
    ///
    /// # Errors
    ///
    /// * [`FinishError::UnknownJob`] if the job is not resident.
    /// * [`FinishError::NotDone`] if the job still has work remaining —
    ///   the triggering event was stale and should have been discarded
    ///   via [`Slice::generation`].
    pub fn finish(
        &mut self,
        now: SimTime,
        job: JobId,
    ) -> Result<(FinishedJob, Option<Completion>), FinishError> {
        self.advance(now);
        let idx = self
            .running
            .iter()
            .position(|r| r.spec.id == job)
            .ok_or(FinishError::UnknownJob(job))?;
        if self.running[idx].remaining_us > DONE_EPSILON_US {
            return Err(FinishError::NotDone(job));
        }
        let done = self.running.remove(idx);
        self.recompute_sums();
        self.after_membership_change(now);
        Ok((
            FinishedJob {
                spec: done.spec,
                admitted_at: done.admitted_at,
            },
            self.next_completion(now),
        ))
    }

    /// Advances job progress to `now`, each job at its own slowdown.
    fn advance(&mut self, now: SimTime) {
        let elapsed_us = now.saturating_since(self.last_advance).as_micros() as f64;
        if elapsed_us > 0.0 && !self.running.is_empty() {
            let total = self.fbr_load();
            let n = self.running.len();
            for i in 0..n {
                let sd = self.job_slowdown(&self.running[i].spec, total, n);
                let r = &mut self.running[i];
                r.remaining_us = (r.remaining_us - elapsed_us / sd).max(0.0);
            }
        }
        self.last_advance = self.last_advance.max(now);
    }

    /// The slowdown of one resident job given the precomputed total
    /// share load `total` and job count `n` — evaluated per job without
    /// materialising a slowdown vector.
    fn job_slowdown(&self, spec: &JobSpec, total: f64, n: usize) -> f64 {
        match self.mode {
            SharingMode::TimeShared => 1.0,
            SharingMode::Mps => Self::slowdown_of_share(self.fbr_share(spec), total, n),
        }
    }

    fn after_membership_change(&mut self, now: SimTime) {
        self.generation += 1;
        self.busy
            .set_level(now, if self.running.is_empty() { 0.0 } else { 1.0 });
        self.mem.set_level(now, self.mem_used_gb());
    }

    /// Current completion projections for all resident jobs.
    ///
    /// The event hot path uses [`Slice::next_completion`] instead; this
    /// full projection set remains for placement diagnostics and tests.
    pub fn project_completions(&self, now: SimTime) -> Vec<Completion> {
        let total = self.fbr_load();
        let n = self.running.len();
        self.running
            .iter()
            .map(|r| {
                let sd = self.job_slowdown(&r.spec, total, n);
                Completion {
                    job: r.spec.id,
                    at: now + SimDuration::from_micros((r.remaining_us * sd).ceil() as u64),
                    generation: self.generation,
                }
            })
            .collect()
    }

    /// The earliest projected completion among resident jobs, or `None`
    /// if the slice is idle. Ties resolve to the earliest-admitted
    /// resident — exactly the event the all-jobs re-projection
    /// discipline would have delivered first (its contiguous push block
    /// popped FIFO at equal times), so arming only this one event is
    /// observationally identical.
    pub fn next_completion(&self, now: SimTime) -> Option<Completion> {
        let total = self.fbr_load();
        let n = self.running.len();
        let mut best: Option<Completion> = None;
        for r in &self.running {
            let sd = self.job_slowdown(&r.spec, total, n);
            let at = now + SimDuration::from_micros((r.remaining_us * sd).ceil() as u64);
            if best.is_none_or(|b| at < b.at) {
                best = Some(Completion {
                    job: r.spec.id,
                    at,
                    generation: self.generation,
                });
            }
        }
        best
    }

    /// Total busy time in seconds (`∫ busy dt`) up to `now`.
    pub fn busy_integral_secs(&self, now: SimTime) -> f64 {
        self.busy.integral(now)
    }

    /// Total memory occupancy integral in GB·seconds up to `now`.
    pub fn mem_integral_gb_secs(&self, now: SimTime) -> f64 {
        self.mem.integral(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(id: u64, solo_ms: f64, fbr: f64, mem: f64) -> JobSpec {
        JobSpec {
            id: JobId(id),
            solo: SimDuration::from_millis(solo_ms),
            fbr,
            mem_gb: mem,
        }
    }

    /// Completion instants are ceiled onto the microsecond clock, so
    /// float noise can land them 1 us late.
    fn assert_close(actual: SimTime, expected_ms: f64) {
        let expected = SimTime::from_millis(expected_ms);
        assert!(
            actual.saturating_since(expected) <= SimDuration::from_micros(2)
                && expected.saturating_since(actual) <= SimDuration::from_micros(2),
            "got {actual:?}, expected ~{expected:?}"
        );
    }

    #[test]
    fn solo_job_finishes_after_solo_time() {
        let mut s = Slice::new(SliceProfile::G7, SharingMode::Mps, SimTime::ZERO);
        let next = s.admit(SimTime::ZERO, spec(1, 100.0, 0.3, 4.0)).unwrap();
        assert_eq!(next.job, JobId(1));
        assert_eq!(next.at, SimTime::from_millis(100.0));
        let (done, rest) = s.finish(next.at, JobId(1)).unwrap();
        assert_eq!(done.spec.id, JobId(1));
        assert_eq!(rest, None);
        assert!(s.is_idle());
    }

    #[test]
    fn two_saturating_jobs_slow_each_other() {
        // Two jobs with FBR 0.8 on 7g: slowdown = 1.6.
        let mut s = Slice::new(SliceProfile::G7, SharingMode::Mps, SimTime::ZERO);
        s.admit(SimTime::ZERO, spec(1, 100.0, 0.8, 4.0)).unwrap();
        let next = s.admit(SimTime::ZERO, spec(2, 100.0, 0.8, 4.0)).unwrap();
        // Both jobs project the same instant; the earliest-admitted
        // resident wins the tie.
        assert_eq!(next.job, JobId(1));
        let completions = s.project_completions(SimTime::ZERO);
        assert_eq!(completions.len(), 2);
        for c in &completions {
            // Bandwidth term 1.6 plus one co-runner's cache penalty.
            assert_close(c.at, 170.0);
        }
    }

    #[test]
    fn bandwidth_scales_with_slice() {
        // A 0.3-FBR job consumes 0.6 of a 3g slice's bandwidth (4/8).
        let mut s = Slice::new(SliceProfile::G3, SharingMode::Mps, SimTime::ZERO);
        s.admit(SimTime::ZERO, spec(1, 100.0, 0.3, 4.0)).unwrap();
        assert!((s.current_slowdown() - 1.0).abs() < 1e-12);
        s.admit(SimTime::ZERO, spec(2, 100.0, 0.3, 4.0)).unwrap();
        // 1.2 bandwidth + 0.1 cache penalty for the second co-runner.
        assert!((s.current_slowdown() - 1.3).abs() < 1e-12);
    }

    #[test]
    fn departure_speeds_up_survivor() {
        // Job 1: FBR 0.9, job 2: FBR 0.9 on 7g. Slowdown 1.8 while both
        // run. Job 1 admitted at t=0, job 2 at t=0; both solo 100ms.
        let mut s = Slice::new(SliceProfile::G7, SharingMode::Mps, SimTime::ZERO);
        s.admit(SimTime::ZERO, spec(1, 100.0, 0.9, 4.0)).unwrap();
        let c = s.admit(SimTime::ZERO, spec(2, 100.0, 0.9, 4.0)).unwrap();
        // Bandwidth term 1.8 plus one co-runner's 0.1 cache penalty
        // (completions are ceiled onto the microsecond clock).
        let eta = c.at;
        assert!(eta.saturating_since(SimTime::from_millis(190.0)) <= SimDuration::from_micros(2));
        // Finish job 1 at its projected completion; job 2 is also done.
        let (_, rest) = s.finish(eta, JobId(1)).unwrap();
        let rest = rest.expect("job 2 still resident");
        assert_eq!(rest.job, JobId(2));
        assert!(rest.at.saturating_since(eta) <= SimDuration::from_micros(2));
    }

    #[test]
    fn late_arrival_stretches_early_job() {
        // Job 1 runs alone (FBR 0.8) for 50ms (half done), then job 2
        // (FBR 0.8) arrives: slowdown 1.6 + 0.1 cache penalty, so the
        // remaining 50ms of work takes 85ms. Total: 135ms.
        let mut s = Slice::new(SliceProfile::G7, SharingMode::Mps, SimTime::ZERO);
        s.admit(SimTime::ZERO, spec(1, 100.0, 0.8, 4.0)).unwrap();
        let next = s
            .admit(SimTime::from_millis(50.0), spec(2, 100.0, 0.8, 4.0))
            .unwrap();
        // Job 1 finishes first and is what the admit hands back.
        assert_eq!(next.job, JobId(1));
        assert_close(next.at, 135.0);
        let c = s.project_completions(SimTime::from_millis(50.0));
        let j1 = c.iter().find(|c| c.job == JobId(1)).unwrap();
        assert_close(j1.at, 135.0);
        let j2 = c.iter().find(|c| c.job == JobId(2)).unwrap();
        assert_close(j2.at, 220.0);
    }

    #[test]
    fn memory_admission_control() {
        let mut s = Slice::new(SliceProfile::G1, SharingMode::Mps, SimTime::ZERO);
        s.admit(SimTime::ZERO, spec(1, 100.0, 0.1, 4.0)).unwrap();
        let err = s
            .admit(SimTime::ZERO, spec(2, 100.0, 0.1, 2.0))
            .unwrap_err();
        assert!(matches!(err, AdmitError::OutOfMemory { .. }));
        assert_eq!(s.mem_available_gb(), 1.0);
    }

    #[test]
    fn time_shared_slice_rejects_second_job() {
        let mut s = Slice::new(SliceProfile::G7, SharingMode::TimeShared, SimTime::ZERO);
        s.admit(SimTime::ZERO, spec(1, 100.0, 0.9, 4.0)).unwrap();
        assert_eq!(
            s.admit(SimTime::ZERO, spec(2, 100.0, 0.9, 4.0)),
            Err(AdmitError::Busy)
        );
        // No interference in time-shared mode regardless of FBR.
        assert_eq!(s.current_slowdown(), 1.0);
    }

    #[test]
    fn duplicate_job_rejected() {
        let mut s = Slice::new(SliceProfile::G7, SharingMode::Mps, SimTime::ZERO);
        s.admit(SimTime::ZERO, spec(1, 100.0, 0.1, 1.0)).unwrap();
        assert_eq!(
            s.admit(SimTime::ZERO, spec(1, 50.0, 0.1, 1.0)),
            Err(AdmitError::DuplicateJob(JobId(1)))
        );
    }

    #[test]
    fn stale_finish_is_rejected() {
        let mut s = Slice::new(SliceProfile::G7, SharingMode::Mps, SimTime::ZERO);
        s.admit(SimTime::ZERO, spec(1, 100.0, 0.9, 4.0)).unwrap();
        // Try to finish long before the job is done.
        assert_eq!(
            s.finish(SimTime::from_millis(10.0), JobId(1)),
            Err(FinishError::NotDone(JobId(1)))
        );
        assert_eq!(
            s.finish(SimTime::from_millis(10.0), JobId(2)),
            Err(FinishError::UnknownJob(JobId(2)))
        );
    }

    #[test]
    fn generation_increments_on_membership_changes() {
        let mut s = Slice::new(SliceProfile::G7, SharingMode::Mps, SimTime::ZERO);
        let g0 = s.generation();
        let c = s.admit(SimTime::ZERO, spec(1, 100.0, 0.2, 1.0)).unwrap();
        assert_eq!(c.generation, g0 + 1);
        s.finish(c.at, JobId(1)).unwrap();
        assert_eq!(s.generation(), g0 + 2);
    }

    #[test]
    fn busy_fraction_tracks_occupancy() {
        let mut s = Slice::new(SliceProfile::G7, SharingMode::Mps, SimTime::ZERO);
        let c = s.admit(SimTime::ZERO, spec(1, 100.0, 0.2, 1.0)).unwrap();
        s.finish(c.at, JobId(1)).unwrap();
        // Busy 100ms out of 200ms observed.
        assert!((s.busy_integral_secs(SimTime::from_millis(200.0)) - 0.1).abs() < 1e-9);
        // Memory: 1 GB for half the window.
        assert!((s.mem_integral_gb_secs(SimTime::from_millis(200.0)) - 0.1).abs() < 1e-9);
    }

    /// The earliest-completion invariant: [`Slice::next_completion`] is
    /// the strict minimum of [`Slice::project_completions`] with ties
    /// resolved to the earliest-admitted resident, and the cached
    /// Σ FBR-share matches a fresh re-sum bit for bit.
    fn assert_next_completion_invariant(s: &Slice, now: SimTime) {
        let full = s.project_completions(now);
        let mut expected: Option<Completion> = None;
        for c in &full {
            if expected.is_none_or(|b| c.at < b.at) {
                expected = Some(*c);
            }
        }
        assert_eq!(s.next_completion(now), expected);
        let fresh: f64 = s
            .jobs()
            .map(|sp| sp.fbr / s.profile().bandwidth_fraction())
            .sum();
        assert_eq!(
            s.fbr_load().to_bits(),
            fresh.to_bits(),
            "cached fbr sum drifted from fresh re-sum"
        );
    }

    proptest! {
        /// Conservation of work under the next-completion discipline:
        /// however arrivals interleave, jobs never finish faster than
        /// their solo time, draining by always finishing the slice's
        /// earliest projection empties the slice, and the invariant
        /// holds after every membership change.
        #[test]
        fn prop_next_completion_drains_slice(
            solos in proptest::collection::vec(10.0f64..200.0, 1..6),
            fbrs in proptest::collection::vec(0.05f64..0.9, 6),
            gaps in proptest::collection::vec(0.0f64..80.0, 6),
        ) {
            let mut s = Slice::new(SliceProfile::G7, SharingMode::Mps, SimTime::ZERO);
            let mut admitted_at = std::collections::HashMap::new();
            let mut clock = SimTime::ZERO;
            for (i, &solo) in solos.iter().enumerate() {
                clock += SimDuration::from_millis(gaps[i]);
                let sp = spec(i as u64, solo, fbrs[i], 1.0);
                let next = s.admit(clock, sp).unwrap();
                admitted_at.insert(sp.id, clock);
                prop_assert_eq!(Some(next), s.next_completion(clock));
                assert_next_completion_invariant(&s, clock);
            }
            // Drain by always finishing the earliest projection — the
            // one event the engine keeps live per slice.
            let mut finished = 0;
            while let Some(c) = s.next_completion(clock) {
                let (done, rearmed) = s.finish(c.at, c.job).unwrap();
                let held = c.at - admitted_at[&c.job];
                // Processor sharing can only stretch a job.
                prop_assert!(held.as_micros() + 1 >= done.spec.solo.as_micros(),
                    "job finished faster than solo: {held:?} < {:?}", done.spec.solo);
                finished += 1;
                clock = c.at;
                prop_assert_eq!(rearmed, s.next_completion(clock));
                assert_next_completion_invariant(&s, clock);
            }
            prop_assert!(s.is_idle());
            prop_assert_eq!(finished, solos.len());
        }
    }
}
