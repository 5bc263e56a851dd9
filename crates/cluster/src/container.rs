//! Autoscaling container pools (paper §4.2).
//!
//! One pool per `(worker, model)`. The reactive scale-up policy boots
//! one container per sealed batch when no warm container is free; the
//! delayed-termination policy keeps surplus warm containers alive for a
//! keep-alive period (~10 min) before reclaiming them, which the paper
//! reports eliminates up to 98% of cold starts versus immediate
//! scale-down.

use protean_sim::{SimDuration, SimTime, SlimPush};

/// The container pool for one model on one worker.
///
/// In declaration order (`repr(C)`), the metric counters, read only by
/// the audit, trail.
#[derive(Debug, Clone, Default)]
#[repr(C)]
pub struct Pool {
    /// Idle warm containers, tagged with when they became idle.
    warm: Vec<SimTime>,
    /// Containers currently executing a batch.
    busy: u32,
    /// Containers booting (cold starts in flight).
    booting: u32,
    /// Total cold starts triggered (metric).
    cold_starts: u64,
    /// Proactive boots triggered by predictive pre-provisioning
    /// (off the critical path; not counted in `cold_starts`).
    proactive_boots: u64,
    /// Containers provisioned warm via [`Pool::prewarm`] (metric; lets
    /// the audit layer balance the container-conservation equation).
    prewarmed: u64,
    /// Containers reclaimed by delayed termination (metric).
    reclaimed: u64,
}

/// Outcome of asking the pool for a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// A warm container was allocated; the batch can be scheduled now.
    Warm,
    /// No warm container: a cold start was triggered; the caller gets a
    /// boot-done callback after the cold-start delay.
    ColdStarted,
}

impl Pool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Pool::default()
    }

    /// Provisions `count` warm containers at `now` without a cold
    /// start, modelling the steady state of a long-running deployment
    /// whose keep-alive (§4.2) retains containers across the
    /// best-effort model rotation.
    pub fn prewarm(&mut self, now: SimTime, count: usize) {
        debug_assert!(self.warm.last().is_none_or(|&t| t <= now));
        // All `count` at once: one block that fits them exactly.
        self.warm.reserve_exact(count);
        self.warm.extend(std::iter::repeat_n(now, count));
        self.prewarmed += count as u64;
    }

    /// Requests a container for a sealed batch (reactive scale-up: one
    /// container per batch).
    pub fn acquire(&mut self) -> Acquire {
        if self.warm.pop().is_some() {
            self.busy += 1;
            Acquire::Warm
        } else {
            self.booting += 1;
            self.cold_starts += 1;
            Acquire::ColdStarted
        }
    }

    /// Starts booting a container *ahead of demand* (predictive
    /// autoscaling): the boot is not on any batch's critical path. The
    /// caller schedules the same boot-done callback as for a reactive
    /// cold start.
    pub fn boot_proactive(&mut self) {
        self.booting += 1;
        self.proactive_boots += 1;
    }

    /// Containers in any state (warm + busy + booting).
    pub fn total_containers(&self) -> u32 {
        self.warm.len() as u32 + self.busy + self.booting
    }

    /// Proactive boots triggered so far.
    pub fn proactive_boots(&self) -> u64 {
        self.proactive_boots
    }

    /// A cold start finished. Returns `true` if the container should be
    /// handed to a waiting batch (caller-tracked), in which case it is
    /// accounted busy; otherwise it parks warm.
    pub fn boot_done(&mut self, now: SimTime, batch_waiting: bool) {
        debug_assert!(self.booting > 0, "boot_done without boot in flight");
        self.booting = self.booting.saturating_sub(1);
        if batch_waiting {
            self.busy += 1;
        } else {
            debug_assert!(self.warm.last().is_none_or(|&t| t <= now));
            self.warm.slim_push(now);
        }
    }

    /// A batch finished. If another batch is waiting, the container is
    /// re-used immediately (`reuse = true`); otherwise it parks warm.
    pub fn release(&mut self, now: SimTime, reuse: bool) {
        debug_assert!(self.busy > 0, "release without busy container");
        self.busy = self.busy.saturating_sub(1);
        if reuse {
            self.busy += 1;
        } else {
            debug_assert!(self.warm.last().is_none_or(|&t| t <= now));
            self.warm.slim_push(now);
        }
    }

    /// Delayed termination: reclaims warm containers idle for at least
    /// `keep_alive`. Returns how many were reclaimed.
    ///
    /// `warm` is pushed at nondecreasing sim times (the engine's clock
    /// only moves forward) and popped from the back, so it stays sorted
    /// by idle-since: expired entries form a prefix, and a fresh front
    /// entry means nothing can expire — the monitor tick's per-pool
    /// sweep is O(1) in the common no-op case instead of a full walk.
    pub fn expire_idle(&mut self, now: SimTime, keep_alive: SimDuration) -> usize {
        match self.warm.first() {
            Some(&oldest) if now.saturating_since(oldest) >= keep_alive => {}
            _ => return 0,
        }
        let expired = self
            .warm
            .partition_point(|&idle_since| now.saturating_since(idle_since) >= keep_alive);
        self.warm.drain(..expired);
        self.reclaimed += expired as u64;
        expired
    }

    /// Idle warm containers.
    pub fn warm_count(&self) -> usize {
        self.warm.len()
    }

    /// Slots the warm list has allocated (the growth-policy tests).
    #[cfg(test)]
    pub(crate) fn warm_capacity(&self) -> usize {
        self.warm.capacity()
    }

    /// Containers executing batches.
    pub fn busy_count(&self) -> u32 {
        self.busy
    }

    /// Cold starts in flight.
    pub fn booting_count(&self) -> u32 {
        self.booting
    }

    /// Cold starts triggered so far.
    pub fn cold_starts(&self) -> u64 {
        self.cold_starts
    }

    /// Containers provisioned warm via [`Pool::prewarm`] so far.
    pub fn prewarmed(&self) -> u64 {
        self.prewarmed
    }

    /// Warm containers reclaimed by delayed termination so far.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_then_warm_reuse() {
        let mut p = Pool::new();
        assert_eq!(p.acquire(), Acquire::ColdStarted);
        assert_eq!(p.cold_starts(), 1);
        p.boot_done(SimTime::from_secs(5.0), true);
        assert_eq!(p.busy_count(), 1);
        // Release with nobody waiting: container parks warm.
        p.release(SimTime::from_secs(6.0), false);
        assert_eq!(p.warm_count(), 1);
        // Next acquire is warm — no new cold start.
        assert_eq!(p.acquire(), Acquire::Warm);
        assert_eq!(p.cold_starts(), 1);
    }

    #[test]
    fn prewarm_allocates_exactly_its_count() {
        let mut p = Pool::new();
        p.prewarm(SimTime::ZERO, 3);
        assert_eq!((p.warm_count(), p.warm_capacity()), (3, 3));
    }

    #[test]
    fn boot_done_without_waiter_parks_warm() {
        let mut p = Pool::new();
        p.acquire();
        p.boot_done(SimTime::from_secs(5.0), false);
        assert_eq!(p.warm_count(), 1);
        assert_eq!(p.busy_count(), 0);
        assert_eq!(p.booting_count(), 0);
    }

    #[test]
    fn release_with_reuse_keeps_busy() {
        let mut p = Pool::new();
        p.acquire();
        p.boot_done(SimTime::from_secs(1.0), true);
        p.release(SimTime::from_secs(2.0), true);
        assert_eq!(p.busy_count(), 1);
        assert_eq!(p.warm_count(), 0);
    }

    #[test]
    fn proactive_boots_do_not_count_as_cold_starts() {
        let mut p = Pool::new();
        p.boot_proactive();
        assert_eq!(p.cold_starts(), 0);
        assert_eq!(p.proactive_boots(), 1);
        assert_eq!(p.total_containers(), 1);
        p.boot_done(SimTime::from_secs(5.0), false);
        assert_eq!(p.warm_count(), 1);
        // The pre-booted container serves the next batch warm.
        assert_eq!(p.acquire(), Acquire::Warm);
        assert_eq!(p.cold_starts(), 0);
    }

    #[test]
    fn delayed_termination_reclaims_only_stale() {
        let mut p = Pool::new();
        p.acquire();
        p.acquire();
        p.boot_done(SimTime::from_secs(1.0), false); // warm since t=1
        p.boot_done(SimTime::from_secs(105.0), false); // warm since t=105
        let keep = SimDuration::from_secs(600.0);
        assert_eq!(p.expire_idle(SimTime::from_secs(500.0), keep), 0);
        assert_eq!(p.expire_idle(SimTime::from_secs(650.0), keep), 1);
        assert_eq!(p.warm_count(), 1);
        assert_eq!(p.reclaimed(), 1);
        // Idle for `keep_alive` less 1 µs, the t=105 container is kept;
        // idle for exactly `keep_alive`, it is reclaimed.
        let idle_since = SimTime::from_secs(105.0);
        let just_before = idle_since + keep - SimDuration::from_micros(1);
        assert_eq!(p.expire_idle(just_before, keep), 0);
        assert_eq!(p.expire_idle(idle_since + keep, keep), 1);
        assert_eq!(p.warm_count(), 0);
    }
}
