//! Deterministic fault injection for the spot-market lifecycle.
//!
//! The engine consumes the spot market through the
//! [`SpotOracle`] trait, whose production implementation
//! ([`protean_spot::SpotMarket`]) draws revocations and grants from a
//! seeded RNG. That is the right model for experiments, but it makes
//! lifecycle *bug hunting* miserable: the interesting interleavings —
//! an eviction notice landing while a cold-start boot is in flight, a
//! replacement VM coming up before the old one drains, a procurement
//! denial burst keeping a slot down across several retries — only occur
//! when the RNG happens to produce them, which is why the test suite
//! used to scan 16 seeds hoping for an eviction.
//!
//! [`ScriptedMarket`] replaces the dice with a script: evictions fire
//! at the times (and with the notice leads) the test says, and
//! spot-acquisition rolls consume a scripted grant/deny sequence. Runs
//! stay fully deterministic, so each adversarial schedule is a regular
//! unit test, and the randomized-schedule property test composes
//! arbitrary scripts with the invariant auditor enabled.
//!
//! ```
//! use protean_cluster::fault::ScriptedMarket;
//! use protean_sim::{SimDuration, SimTime};
//!
//! // Worker 1 gets an eviction notice at its first revocation check at
//! // or after t=10 s, with the VM reclaimed 40 s later; the first two
//! // spot requests after that are denied.
//! let market = ScriptedMarket::new()
//!     .evict(1, SimTime::from_secs(10.0), SimDuration::from_secs(40.0))
//!     .deny_next(2);
//! ```

use std::collections::VecDeque;

use protean_sim::{SimDuration, SimTime};
pub use protean_spot::SpotOracle;

/// One scripted eviction notice, armed until consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScriptedEviction {
    worker: usize,
    /// The notice fires at the worker's first revocation check at or
    /// after this instant.
    at: SimTime,
    /// Notice lead: the VM is reclaimed `lead` after the notice.
    lead: SimDuration,
}

/// A [`SpotOracle`] that follows a script instead of rolling dice.
///
/// Revocations: [`ScriptedMarket::evict`] arms one eviction notice per
/// call; a worker's revocation check consumes the matching entry
/// (`worker, now >= at`) with the **earliest `at`**, breaking ties by
/// arming order. Checks with no matching entry return no notice. The
/// selection depends only on the script and the check's `(now, worker)`,
/// never on global check interleaving.
///
/// Acquisitions: each spot-acquisition roll pops the front of the
/// grant/deny queue ([`ScriptedMarket::deny_next`] /
/// [`ScriptedMarket::grant_next`]); once the queue is exhausted, rolls
/// return the default (granted, unless [`ScriptedMarket::deny_rest`]).
/// Note that initial cluster provisioning under a spot-eligible
/// procurement policy rolls one acquisition per worker (in worker
/// order) at `t = 0`, consuming the head of the queue.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScriptedMarket {
    evictions: Vec<ScriptedEviction>,
    grants: VecDeque<bool>,
    deny_rest: bool,
    revocation_checks: u64,
    acquisition_rolls: u64,
}

impl ScriptedMarket {
    /// A market that never evicts and grants every spot request.
    pub fn new() -> Self {
        ScriptedMarket::default()
    }

    /// Arms an eviction notice: `worker`'s first revocation check at or
    /// after `at` fires a notice with the VM reclaimed `lead` later.
    pub fn evict(mut self, worker: usize, at: SimTime, lead: SimDuration) -> Self {
        self.evictions.push(ScriptedEviction { worker, at, lead });
        self
    }

    /// Appends `n` denials to the acquisition script.
    pub fn deny_next(mut self, n: usize) -> Self {
        self.grants.extend(std::iter::repeat_n(false, n));
        self
    }

    /// Appends `n` grants to the acquisition script.
    pub fn grant_next(mut self, n: usize) -> Self {
        self.grants.extend(std::iter::repeat_n(true, n));
        self
    }

    /// Denies every acquisition roll after the scripted queue runs out
    /// (the default is to grant them).
    pub fn deny_rest(mut self) -> Self {
        self.deny_rest = true;
        self
    }

    /// Revocation checks rolled so far.
    pub fn revocation_checks(&self) -> u64 {
        self.revocation_checks
    }

    /// Spot-acquisition requests rolled so far.
    pub fn acquisition_rolls(&self) -> u64 {
        self.acquisition_rolls
    }

    /// Scripted evictions not yet consumed.
    pub fn pending_evictions(&self) -> usize {
        self.evictions.len()
    }
}

impl SpotOracle for ScriptedMarket {
    fn roll_revocation(&mut self, now: SimTime, worker: usize) -> Option<SimDuration> {
        self.revocation_checks += 1;
        // Among armed entries for this worker that are due, consume the
        // one with the earliest `at` (arming order breaks ties). The
        // first due *position* is not enough: a late-armed entry with an
        // earlier `at` must fire before an early-armed one that is
        // merely also due by `now`.
        let hit = self
            .evictions
            .iter()
            .enumerate()
            .filter(|(_, e)| e.worker == worker && now >= e.at)
            .min_by_key(|(i, e)| (e.at, *i))
            .map(|(i, _)| i)?;
        Some(self.evictions.remove(hit).lead)
    }

    fn try_acquire_spot(&mut self, _now: SimTime, _worker: usize) -> bool {
        self.acquisition_rolls += 1;
        self.grants.pop_front().unwrap_or(!self.deny_rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evictions_fire_once_per_matching_check() {
        let mut m = ScriptedMarket::new()
            .evict(0, SimTime::from_secs(5.0), SimDuration::from_secs(60.0))
            .evict(1, SimTime::from_secs(5.0), SimDuration::from_secs(30.0));
        // Too early, and the wrong worker, roll nothing.
        assert_eq!(m.roll_revocation(SimTime::from_secs(1.0), 0), None);
        assert_eq!(m.roll_revocation(SimTime::from_secs(9.0), 2), None);
        assert_eq!(
            m.roll_revocation(SimTime::from_secs(9.0), 0),
            Some(SimDuration::from_secs(60.0))
        );
        // Consumed: the same worker rolls clean afterwards.
        assert_eq!(m.roll_revocation(SimTime::from_secs(20.0), 0), None);
        assert_eq!(
            m.roll_revocation(SimTime::from_secs(5.0), 1),
            Some(SimDuration::from_secs(30.0))
        );
        assert_eq!(m.pending_evictions(), 0);
        assert_eq!(m.revocation_checks(), 5);
    }

    /// Regression: an entry armed later but due earlier must fire first.
    /// The pre-fix code consumed the first *armed* due entry, so a check
    /// late enough to make both due returned the wrong lead.
    #[test]
    fn earliest_at_wins_regardless_of_arming_order() {
        let mut m = ScriptedMarket::new()
            .evict(0, SimTime::from_secs(10.0), SimDuration::from_secs(60.0))
            .evict(0, SimTime::from_secs(5.0), SimDuration::from_secs(30.0));
        // At t=20 both entries are due; the at=5 one (armed second) wins.
        assert_eq!(
            m.roll_revocation(SimTime::from_secs(20.0), 0),
            Some(SimDuration::from_secs(30.0))
        );
        assert_eq!(
            m.roll_revocation(SimTime::from_secs(20.0), 0),
            Some(SimDuration::from_secs(60.0))
        );
        assert_eq!(m.pending_evictions(), 0);
    }

    /// Identical `at` on the same worker: arming order breaks the tie,
    /// and the documented order holds on a fresh clone (the scenario
    /// runner clones one script into its audited and unaudited arms).
    #[test]
    fn identical_at_resolves_in_arming_order_across_clones() {
        let script = ScriptedMarket::new()
            .evict(3, SimTime::from_secs(10.0), SimDuration::from_secs(40.0))
            .evict(3, SimTime::from_secs(10.0), SimDuration::from_secs(20.0));
        let mut a = script.clone();
        let mut b = script;
        for m in [&mut a, &mut b] {
            assert_eq!(
                m.roll_revocation(SimTime::from_secs(10.0), 3),
                Some(SimDuration::from_secs(40.0))
            );
            assert_eq!(
                m.roll_revocation(SimTime::from_secs(10.0), 3),
                Some(SimDuration::from_secs(20.0))
            );
        }
        assert_eq!(a, b);
    }

    #[test]
    fn acquisition_script_then_default() {
        let mut m = ScriptedMarket::new().deny_next(2).grant_next(1);
        let t = SimTime::ZERO;
        assert!(!m.try_acquire_spot(t, 0));
        assert!(!m.try_acquire_spot(t, 0));
        assert!(m.try_acquire_spot(t, 0));
        assert!(m.try_acquire_spot(t, 0), "exhausted script grants");
        let mut d = ScriptedMarket::new().grant_next(1).deny_rest();
        assert!(d.try_acquire_spot(t, 0));
        assert!(!d.try_acquire_spot(t, 0), "deny_rest flips the default");
        assert_eq!(d.acquisition_rolls(), 2);
    }
}
