//! Spot-market emulation and cost accounting (paper §2.3, §4.5, §5).
//!
//! The paper itself *emulates* the spot/on-demand worker aspect: it
//! projects dollar cost from VM running time at average AWS prices and
//! generates revocation notifications at fixed intervals with a
//! revocation probability `P_rev` derived from Narayanan et al.:
//!
//! * high spot availability: `P_rev = 0`
//! * moderate availability: `P_rev = 0.354`
//! * low availability: `P_rev = 0.708`
//!
//! Eviction notices arrive 30–120 s before the VM is reclaimed, which is
//! what makes the hybrid scheme viable: GPU serverless batches run <1 s,
//! so in-flight work drains comfortably inside the notice window while a
//! replacement VM (spot if available, otherwise on-demand) spins up.
//!
//! This crate reproduces that emulation: [`Provider::price`] reads the
//! paper's Table 3 prices, [`SpotMarket`] drives revocations and spot
//! acquisition, [`ProcurementPolicy`] captures the three strategies
//! compared in Fig. 9, and [`VmLedger`] integrates dollar cost. The
//! cluster engine consumes the market through the [`SpotOracle`] trait,
//! which fault-injection harnesses implement with scripted schedules to
//! drive adversarial eviction/procurement interleavings
//! deterministically.
//!
//! # Example
//!
//! ```
//! use protean_spot::{Provider, SpotAvailability, VmTier};
//!
//! let aws = Provider::Aws.price(VmTier::Spot);
//! assert!((aws - 9.8318).abs() < 1e-4);
//! assert!(Provider::Gcp.savings() > 0.70);
//! assert_eq!(SpotAvailability::Low.revocation_probability(), 0.708);
//! ```

use std::collections::HashMap;
use std::fmt;

use protean_sim::{SimDuration, SimRng, SimTime};

/// The three IaaS providers of Table 3 (by market share).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provider {
    /// Amazon Web Services.
    Aws,
    /// Microsoft Azure.
    Azure,
    /// Google Cloud.
    Gcp,
}

impl Provider {
    /// All providers in Table 3 order.
    pub const ALL: [Provider; 3] = [Provider::Aws, Provider::Azure, Provider::Gcp];

    /// Stable machine-readable name, as scenario files spell it.
    pub fn slug(self) -> &'static str {
        match self {
            Provider::Aws => "aws",
            Provider::Azure => "azure",
            Provider::Gcp => "gcp",
        }
    }

    /// Resolves a slug, ignoring ASCII case.
    pub fn from_slug(name: &str) -> Result<Provider, UnknownSlug> {
        find_slug("provider", &Provider::ALL, Provider::slug, &[], name)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Provider::Aws => "AWS",
            Provider::Azure => "Microsoft Azure",
            Provider::Gcp => "Google Cloud",
        }
    }

    /// Hourly price (USD) of a full 8×A100 instance: the paper's Table 3,
    /// averaged across US-east/west.
    pub fn price(self, tier: VmTier) -> f64 {
        let (on_demand, spot) = match self {
            Provider::Aws => (32.7726, 9.8318),
            Provider::Azure => (32.7700, 18.0235),
            Provider::Gcp => (30.0846, 8.8147),
        };
        match tier {
            VmTier::OnDemand => on_demand,
            VmTier::Spot => spot,
        }
    }

    /// Hourly price of one single-GPU worker VM (the paper's cluster has
    /// one A100 per worker node; we apportion the 8×A100 instance price).
    pub fn worker_price(self, tier: VmTier) -> f64 {
        self.price(tier) / 8.0
    }

    /// Fractional saving of spot over on-demand (Table 3's "Cost
    /// Savings" column).
    pub fn savings(self) -> f64 {
        1.0 - self.price(VmTier::Spot) / self.price(VmTier::OnDemand)
    }
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A name that none of an enum's slugs or aliases match. It displays as
/// `unknown procurement 'free' (ondemand | spot | hybrid)`, listing the
/// enum's own slugs, so the message cannot drift from the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSlug {
    what: &'static str,
    name: String,
    slugs: Vec<&'static str>,
}

impl fmt::Display for UnknownSlug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} '{}' ({})",
            self.what,
            self.name,
            self.slugs.join(" | ")
        )
    }
}

impl std::error::Error for UnknownSlug {}

/// The lookup behind every `from_slug`: `name` against each variant's
/// slug, then against `aliases`, ignoring ASCII case.
fn find_slug<T: Copy>(
    what: &'static str,
    all: &[T],
    slug: fn(T) -> &'static str,
    aliases: &[(&str, T)],
    name: &str,
) -> Result<T, UnknownSlug> {
    all.iter()
        .map(|&v| (slug(v), v))
        .chain(aliases.iter().copied())
        .find(|(s, _)| s.eq_ignore_ascii_case(name))
        .map(|(_, v)| v)
        .ok_or_else(|| UnknownSlug {
            what,
            name: name.to_string(),
            slugs: all.iter().map(|&v| slug(v)).collect(),
        })
}

/// VM reliability tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmTier {
    /// Reliable, full-price VM.
    OnDemand,
    /// Discounted, revocable VM.
    Spot,
}

impl fmt::Display for VmTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VmTier::OnDemand => "on-demand",
            VmTier::Spot => "spot",
        })
    }
}

/// Spot-market availability regimes (§5), with `P_rev` values from
/// Narayanan et al.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpotAvailability {
    /// High availability: never revoked.
    High,
    /// Moderate availability.
    Moderate,
    /// Low availability.
    Low,
}

impl SpotAvailability {
    /// All regimes, from most to least available.
    pub const ALL: [SpotAvailability; 3] = [
        SpotAvailability::High,
        SpotAvailability::Moderate,
        SpotAvailability::Low,
    ];

    /// Spellings [`SpotAvailability::from_slug`] accepts besides the
    /// slugs (`medium` is the Fig. 9 label).
    pub const ALIASES: [(&'static str, SpotAvailability); 1] =
        [("medium", SpotAvailability::Moderate)];

    /// Stable machine-readable name, as CLI flags and scenario files
    /// spell it.
    pub fn slug(self) -> &'static str {
        match self {
            SpotAvailability::High => "high",
            SpotAvailability::Moderate => "moderate",
            SpotAvailability::Low => "low",
        }
    }

    /// Resolves a slug or an alias, ignoring ASCII case.
    pub fn from_slug(name: &str) -> Result<SpotAvailability, UnknownSlug> {
        find_slug(
            "availability",
            &SpotAvailability::ALL,
            SpotAvailability::slug,
            &SpotAvailability::ALIASES,
            name,
        )
    }

    /// The revocation probability applied at each check interval.
    pub fn revocation_probability(self) -> f64 {
        match self {
            SpotAvailability::High => 0.0,
            SpotAvailability::Moderate => 0.354,
            SpotAvailability::Low => 0.708,
        }
    }

    /// Probability a fresh spot request is granted. Revocation pressure
    /// and scarcity move together: when the provider is reclaiming spot
    /// capacity it is also not granting new spot requests, so we model
    /// grant probability as the complement of `P_rev`.
    pub fn acquisition_probability(self) -> f64 {
        1.0 - self.revocation_probability()
    }

    /// Display name used in Fig. 9.
    pub fn name(self) -> &'static str {
        match self {
            SpotAvailability::High => "high",
            SpotAvailability::Moderate => "medium",
            SpotAvailability::Low => "low",
        }
    }
}

impl fmt::Display for SpotAvailability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The procurement strategies compared in Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcurementPolicy {
    /// Only reliable VMs (what the comparison schemes use).
    OnDemandOnly,
    /// Only spot VMs; workers lost to eviction are replaced only when
    /// the spot market grants a new VM (the `Spot Only` variant).
    SpotOnly,
    /// PROTEAN's policy: prefer spot, fall back to on-demand when the
    /// spot request fails.
    Hybrid,
}

impl ProcurementPolicy {
    /// All policies, in Fig. 9 order.
    pub const ALL: [ProcurementPolicy; 3] = [
        ProcurementPolicy::OnDemandOnly,
        ProcurementPolicy::SpotOnly,
        ProcurementPolicy::Hybrid,
    ];

    /// Spellings [`ProcurementPolicy::from_slug`] accepts besides the
    /// slugs.
    pub const ALIASES: [(&'static str, ProcurementPolicy); 1] =
        [("on-demand", ProcurementPolicy::OnDemandOnly)];

    /// Stable machine-readable name, as CLI flags and scenario files
    /// spell it.
    pub fn slug(self) -> &'static str {
        match self {
            ProcurementPolicy::OnDemandOnly => "ondemand",
            ProcurementPolicy::SpotOnly => "spot",
            ProcurementPolicy::Hybrid => "hybrid",
        }
    }

    /// Resolves a slug or an alias, ignoring ASCII case.
    pub fn from_slug(name: &str) -> Result<ProcurementPolicy, UnknownSlug> {
        find_slug(
            "procurement",
            &ProcurementPolicy::ALL,
            ProcurementPolicy::slug,
            &ProcurementPolicy::ALIASES,
            name,
        )
    }

    /// Decides the tier of a replacement VM given whether the spot
    /// market granted the request. `None` means no VM can be acquired
    /// now (Spot-only under scarcity) and the caller should retry later.
    pub fn replacement_tier(self, spot_granted: bool) -> Option<VmTier> {
        match self {
            ProcurementPolicy::OnDemandOnly => Some(VmTier::OnDemand),
            ProcurementPolicy::SpotOnly => spot_granted.then_some(VmTier::Spot),
            ProcurementPolicy::Hybrid => Some(if spot_granted {
                VmTier::Spot
            } else {
                VmTier::OnDemand
            }),
        }
    }
}

/// The spot market: drives revocation notices and spot-request grants.
#[derive(Debug, Clone)]
pub struct SpotMarket {
    availability: SpotAvailability,
    rng: SimRng,
    notice_min: SimDuration,
    notice_max: SimDuration,
}

impl SpotMarket {
    /// Creates a market under the given availability regime, drawing
    /// randomness from `rng`.
    pub fn new(availability: SpotAvailability, rng: SimRng) -> Self {
        SpotMarket {
            availability,
            rng,
            notice_min: SimDuration::from_secs(30.0),
            notice_max: SimDuration::from_secs(120.0),
        }
    }

    /// The market's availability regime.
    pub fn availability(&self) -> SpotAvailability {
        self.availability
    }
}

/// The engine-facing abstraction over the spot market's two stochastic
/// decisions: revocation rolls and spot-acquisition grants.
///
/// The production implementation is [`SpotMarket`], which draws both
/// from a seeded RNG stream. Deterministic fault-injection harnesses
/// substitute scripted implementations so a test can drive a *specific*
/// eviction × cold-start × reconfiguration interleaving (eviction
/// notice while a boot is in flight, replacement VM ready before the
/// old one drains, procurement denial bursts) instead of scanning
/// seeds hoping the RNG produces one.
///
/// `now` and `worker` identify the roll site; [`SpotMarket`] ignores
/// them (every roll is i.i.d.), scripted markets key on them.
pub trait SpotOracle {
    /// Rolls one revocation check for the spot VM backing `worker` at
    /// `now`. `Some(lead)` means an eviction notice fires now and the
    /// VM is reclaimed after `lead`.
    fn roll_revocation(&mut self, now: SimTime, worker: usize) -> Option<SimDuration>;

    /// Rolls one spot-acquisition request on behalf of `worker` at
    /// `now`. `true` means the provider grants a spot VM.
    fn try_acquire_spot(&mut self, now: SimTime, worker: usize) -> bool;
}

impl SpotOracle for SpotMarket {
    /// Each check revokes with the regime's probability; the notice
    /// lead is uniform in the providers' 30–120 s band.
    fn roll_revocation(&mut self, _now: SimTime, _worker: usize) -> Option<SimDuration> {
        if self.rng.chance(self.availability.revocation_probability()) {
            let lead = self
                .rng
                .uniform_range(self.notice_min.as_secs_f64(), self.notice_max.as_secs_f64());
            Some(SimDuration::from_secs(lead))
        } else {
            None
        }
    }

    fn try_acquire_spot(&mut self, _now: SimTime, _worker: usize) -> bool {
        self.rng.chance(self.availability.acquisition_probability())
    }
}

/// Identifier of a VM in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u64);

#[derive(Debug, Clone, Copy, PartialEq)]
struct LedgerEntry {
    vm: VmId,
    tier: VmTier,
    started: SimTime,
    ended: Option<SimTime>,
}

/// Integrates dollar cost over VM lifetimes, per tier.
///
/// `open` and `close` are O(1): besides the push-ordered `entries`
/// (the order `cost_by_tier` sums in), the ledger maps every open VM to
/// the position of its open entry, so provisioning and closing a fleet
/// of `W` VMs costs O(W) rather than a scan per call.
///
/// # Example
///
/// ```
/// use protean_spot::{Provider, VmLedger, VmId, VmTier};
/// use protean_sim::SimTime;
///
/// let mut ledger = VmLedger::new(Provider::Aws);
/// ledger.open(VmId(0), VmTier::Spot, SimTime::ZERO);
/// ledger.close(VmId(0), SimTime::from_secs(3600.0));
/// let cost = ledger.total_cost(SimTime::from_secs(3600.0));
/// assert!((cost - 9.8318 / 8.0).abs() < 1e-6); // one worker spot-hour
/// ```
#[derive(Debug, Clone)]
pub struct VmLedger {
    provider: Provider,
    entries: Vec<LedgerEntry>,
    /// `entries` position of the open entry of each allocated id,
    /// indexed by `VmId.0` (`len() == next_id`).
    open_dense: Vec<Option<usize>>,
    /// The same map for ids at or beyond `next_id` that the caller made
    /// up rather than allocated; `allocate_id` moves an id across when
    /// it reaches it.
    open_sparse: HashMap<VmId, usize>,
    /// Entries in both maps: the open VMs.
    open_vms: usize,
    next_id: u64,
    misuse_events: u64,
}

impl VmLedger {
    /// Creates an empty ledger billing at `provider`'s prices.
    pub fn new(provider: Provider) -> Self {
        VmLedger {
            provider,
            entries: Vec::new(),
            open_dense: Vec::new(),
            open_sparse: HashMap::new(),
            open_vms: 0,
            next_id: 0,
            misuse_events: 0,
        }
    }

    /// Allocates a fresh [`VmId`].
    pub fn allocate_id(&mut self) -> VmId {
        let id = VmId(self.next_id);
        self.next_id += 1;
        // An id the caller opened before it was allocated keeps its entry.
        self.open_dense.push(self.open_sparse.remove(&id));
        id
    }

    /// `entries` position of `vm`'s open entry, if it has one.
    fn open_entry(&self, vm: VmId) -> Option<usize> {
        if vm.0 < self.next_id {
            self.open_dense[vm.0 as usize]
        } else {
            self.open_sparse.get(&vm).copied()
        }
    }

    /// Records `vm`'s open entry at `entries[pos]`, or clears it (`None`).
    fn set_open_entry(&mut self, vm: VmId, pos: Option<usize>) {
        if vm.0 < self.next_id {
            self.open_dense[vm.0 as usize] = pos;
        } else if let Some(pos) = pos {
            self.open_sparse.insert(vm, pos);
        } else {
            self.open_sparse.remove(&vm);
        }
    }

    /// Starts billing `vm` at `now`.
    ///
    /// Opening a VM that is already open is caller misuse: it would
    /// double-bill the same machine. Debug builds panic; release builds
    /// ignore the duplicate open, record it in [`VmLedger::misuse_events`],
    /// and keep the original entry so cost stays conservative.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `vm` is already open.
    pub fn open(&mut self, vm: VmId, tier: VmTier, now: SimTime) {
        if self.open_entry(vm).is_some() {
            // Tally before asserting so the count survives a caught
            // debug panic identically to the release no-op.
            self.misuse_events += 1;
            debug_assert!(false, "VM {vm:?} is already open");
            return;
        }
        self.set_open_entry(vm, Some(self.entries.len()));
        self.open_vms += 1;
        self.entries.push(LedgerEntry {
            vm,
            tier,
            started: now,
            ended: None,
        });
    }

    /// Stops billing `vm` at `now`.
    ///
    /// Closing a VM with no open entry (unknown id, or already closed) is
    /// caller misuse. Debug builds panic; release builds ignore the close
    /// and record it in [`VmLedger::misuse_events`]. A close timestamped
    /// before the matching open is clamped to the open time, so the entry
    /// can never bill a negative interval.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `vm` has no open entry or `now` precedes
    /// its open time.
    pub fn close(&mut self, vm: VmId, now: SimTime) {
        let Some(pos) = self.open_entry(vm) else {
            self.misuse_events += 1;
            debug_assert!(false, "VM {vm:?} is not open");
            return;
        };
        self.set_open_entry(vm, None);
        self.open_vms -= 1;
        let entry = &mut self.entries[pos];
        debug_assert_eq!(entry.vm, vm, "open-entry map points at another VM");
        if now < entry.started {
            let started = entry.started;
            entry.ended = Some(started);
            self.misuse_events += 1;
            debug_assert!(
                false,
                "VM {vm:?} closed at {now} before it opened at {started}"
            );
            return;
        }
        entry.ended = Some(now);
    }

    /// How many misuse edges (double open, close of a non-open VM, close
    /// before open) release builds have saturated away. Always 0 on a
    /// correctly driven ledger; the auditor flags any increase.
    pub fn misuse_events(&self) -> u64 {
        self.misuse_events
    }

    /// Dollar cost accrued by `tier` VMs up to `now`; `0.0` for a tier
    /// with no VM.
    pub fn cost_by_tier(&self, tier: VmTier, now: SimTime) -> f64 {
        let hourly = self.provider.worker_price(tier);
        // From +0.0: an empty f64 `sum()` is -0.0, which prints as
        // "-0.00". Every cost is >= +0.0, so a non-empty fold has the
        // same bits as `sum()`.
        self.entries
            .iter()
            .filter(|e| e.tier == tier)
            .map(|e| {
                let end = e.ended.unwrap_or(now).min(now);
                end.saturating_since(e.started).as_secs_f64() / 3600.0 * hourly
            })
            .fold(0.0, |total, cost| total + cost)
    }

    /// Total dollar cost up to `now`.
    pub fn total_cost(&self, now: SimTime) -> f64 {
        self.cost_by_tier(VmTier::OnDemand, now) + self.cost_by_tier(VmTier::Spot, now)
    }

    /// Count of currently open VMs.
    pub fn open_count(&self) -> usize {
        self.open_vms
    }

    /// Total evicted/closed VM count by tier (for reporting).
    pub fn closed_count(&self, tier: VmTier) -> usize {
        self.entries
            .iter()
            .filter(|e| e.tier == tier && e.ended.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use protean_sim::RngFactory;

    #[test]
    fn table3_savings_match_paper() {
        assert!((Provider::Aws.savings() - 0.6999).abs() < 1e-3);
        assert!((Provider::Azure.savings() - 0.4501).abs() < 1e-3);
        assert!((Provider::Gcp.savings() - 0.7070).abs() < 1e-3);
    }

    #[test]
    fn availability_probabilities_match_paper() {
        assert_eq!(SpotAvailability::High.revocation_probability(), 0.0);
        assert_eq!(SpotAvailability::Moderate.revocation_probability(), 0.354);
        assert_eq!(SpotAvailability::Low.revocation_probability(), 0.708);
        assert!((SpotAvailability::Low.acquisition_probability() - 0.292).abs() < 1e-12);
    }

    #[test]
    fn high_availability_never_revokes() {
        let mut m = SpotMarket::new(SpotAvailability::High, RngFactory::new(1).stream("m"));
        for _ in 0..1000 {
            assert!(m.roll_revocation(SimTime::ZERO, 0).is_none());
            assert!(m.try_acquire_spot(SimTime::ZERO, 0));
        }
    }

    #[test]
    fn low_availability_revokes_and_denies_at_rate() {
        let mut m = SpotMarket::new(SpotAvailability::Low, RngFactory::new(2).stream("m"));
        let n = 10_000;
        let mut revocations = 0;
        let mut grants = 0;
        for _ in 0..n {
            if let Some(lead) = m.roll_revocation(SimTime::ZERO, 0) {
                revocations += 1;
                let secs = lead.as_secs_f64();
                assert!((30.0..=120.0).contains(&secs), "lead {secs}");
            }
            if m.try_acquire_spot(SimTime::ZERO, 0) {
                grants += 1;
            }
        }
        let rev_rate = revocations as f64 / n as f64;
        let grant_rate = grants as f64 / n as f64;
        assert!((rev_rate - 0.708).abs() < 0.02, "rev {rev_rate}");
        assert!((grant_rate - 0.292).abs() < 0.02, "grant {grant_rate}");
    }

    #[test]
    fn policy_replacement_tiers() {
        use ProcurementPolicy::*;
        assert_eq!(OnDemandOnly.replacement_tier(true), Some(VmTier::OnDemand));
        assert_eq!(OnDemandOnly.replacement_tier(false), Some(VmTier::OnDemand));
        assert_eq!(SpotOnly.replacement_tier(true), Some(VmTier::Spot));
        assert_eq!(SpotOnly.replacement_tier(false), None);
        assert_eq!(Hybrid.replacement_tier(true), Some(VmTier::Spot));
        assert_eq!(Hybrid.replacement_tier(false), Some(VmTier::OnDemand));
    }

    #[test]
    fn ledger_bills_open_and_closed_vms() {
        let mut l = VmLedger::new(Provider::Aws);
        let a = l.allocate_id();
        let b = l.allocate_id();
        assert_ne!(a, b);
        l.open(a, VmTier::OnDemand, SimTime::ZERO);
        l.open(b, VmTier::Spot, SimTime::ZERO);
        l.close(b, SimTime::from_secs(1800.0));
        assert_eq!(l.open_count(), 1);
        assert_eq!(l.closed_count(VmTier::Spot), 1);
        let now = SimTime::from_secs(3600.0);
        let od = l.cost_by_tier(VmTier::OnDemand, now);
        let spot = l.cost_by_tier(VmTier::Spot, now);
        assert!((od - 32.7726 / 8.0).abs() < 1e-6);
        assert!((spot - 9.8318 / 16.0).abs() < 1e-6);
        assert!((l.total_cost(now) - od - spot).abs() < 1e-12);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn double_open_panics() {
        let mut l = VmLedger::new(Provider::Aws);
        l.open(VmId(0), VmTier::Spot, SimTime::ZERO);
        l.open(VmId(0), VmTier::Spot, SimTime::ZERO);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn close_unopened_panics() {
        let mut l = VmLedger::new(Provider::Aws);
        l.close(VmId(3), SimTime::ZERO);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn close_before_open_panics() {
        let mut l = VmLedger::new(Provider::Aws);
        l.open(VmId(0), VmTier::Spot, SimTime::from_secs(100.0));
        l.close(VmId(0), SimTime::from_secs(50.0));
    }

    /// Release builds must not corrupt cost accounting on misuse: the
    /// double open is ignored, the bogus close is ignored, the
    /// close-before-open clamps to a zero-length interval, and every edge
    /// is tallied in `misuse_events` for the auditor.
    #[cfg(not(debug_assertions))]
    #[test]
    fn misuse_saturates_and_is_counted_in_release() {
        let mut l = VmLedger::new(Provider::Aws);
        l.open(VmId(0), VmTier::Spot, SimTime::ZERO);
        l.open(VmId(0), VmTier::OnDemand, SimTime::from_secs(10.0)); // double open
        assert_eq!(l.misuse_events(), 1);
        assert_eq!(l.open_count(), 1);
        l.close(VmId(7), SimTime::from_secs(20.0)); // unknown id
        assert_eq!(l.misuse_events(), 2);
        l.close(VmId(0), SimTime::from_secs(3600.0));
        l.close(VmId(0), SimTime::from_secs(7200.0)); // already closed
        assert_eq!(l.misuse_events(), 3);
        let spot_hour = 9.8318 / 8.0;
        assert!((l.total_cost(SimTime::from_secs(7200.0)) - spot_hour).abs() < 1e-9);
        // Close before open clamps the interval to zero length.
        l.open(VmId(1), VmTier::Spot, SimTime::from_secs(8000.0));
        l.close(VmId(1), SimTime::from_secs(7000.0));
        assert_eq!(l.misuse_events(), 4);
        assert_eq!(l.open_count(), 0);
        assert!((l.total_cost(SimTime::from_secs(9000.0)) - spot_hour).abs() < 1e-9);
    }

    /// Cost queries at a `now` earlier than an entry's open must saturate
    /// to zero, never bill a negative interval — in every build.
    #[test]
    fn cost_query_before_open_saturates() {
        let mut l = VmLedger::new(Provider::Aws);
        l.open(VmId(0), VmTier::Spot, SimTime::from_secs(100.0));
        assert_eq!(l.total_cost(SimTime::from_secs(50.0)), 0.0);
        l.close(VmId(0), SimTime::from_secs(3700.0));
        assert_eq!(l.total_cost(SimTime::from_secs(50.0)), 0.0);
        // And a query between open and close bills only the elapsed part.
        let partial = l.total_cost(SimTime::from_secs(1900.0));
        assert!((partial - 0.5 * 9.8318 / 8.0).abs() < 1e-9);
        assert_eq!(l.misuse_events(), 0);
    }

    /// A tier with no VM costs +0.0, not the -0.0 of an empty `sum()`,
    /// which a report prints as "-0.00".
    #[test]
    fn a_tier_without_vms_costs_positive_zero() {
        let mut l = VmLedger::new(Provider::Aws);
        let now = SimTime::from_secs(60.0);
        assert_eq!(l.cost_by_tier(VmTier::Spot, now).to_bits(), 0);
        l.open(VmId(0), VmTier::OnDemand, SimTime::ZERO);
        assert_eq!(l.cost_by_tier(VmTier::Spot, now).to_bits(), 0);
        assert_eq!(format!("{:.2}", l.cost_by_tier(VmTier::Spot, now)), "0.00");
        assert!(l.cost_by_tier(VmTier::OnDemand, now) > 0.0);
    }

    /// The linear-scan ledger the indexed [`VmLedger`] replaced, kept as
    /// the differential oracle: `open` scans for a duplicate, `close`
    /// finds the first open entry from the start.
    struct LinearLedger {
        provider: Provider,
        entries: Vec<LedgerEntry>,
        next_id: u64,
        misuse_events: u64,
    }

    impl LinearLedger {
        fn new(provider: Provider) -> Self {
            LinearLedger {
                provider,
                entries: Vec::new(),
                next_id: 0,
                misuse_events: 0,
            }
        }

        fn allocate_id(&mut self) -> VmId {
            let id = VmId(self.next_id);
            self.next_id += 1;
            id
        }

        fn open(&mut self, vm: VmId, tier: VmTier, now: SimTime) {
            if self.entries.iter().any(|e| e.vm == vm && e.ended.is_none()) {
                self.misuse_events += 1;
                debug_assert!(false, "VM {vm:?} is already open");
                return;
            }
            self.entries.push(LedgerEntry {
                vm,
                tier,
                started: now,
                ended: None,
            });
        }

        fn close(&mut self, vm: VmId, now: SimTime) {
            let Some(entry) = self
                .entries
                .iter_mut()
                .find(|e| e.vm == vm && e.ended.is_none())
            else {
                self.misuse_events += 1;
                debug_assert!(false, "VM {vm:?} is not open");
                return;
            };
            if now < entry.started {
                let started = entry.started;
                entry.ended = Some(started);
                self.misuse_events += 1;
                debug_assert!(
                    false,
                    "VM {vm:?} closed at {now} before it opened at {started}"
                );
                return;
            }
            entry.ended = Some(now);
        }

        fn cost_by_tier(&self, tier: VmTier, now: SimTime) -> f64 {
            let hourly = self.provider.worker_price(tier);
            self.entries
                .iter()
                .filter(|e| e.tier == tier)
                .map(|e| {
                    let end = e.ended.unwrap_or(now).min(now);
                    end.saturating_since(e.started).as_secs_f64() / 3600.0 * hourly
                })
                .fold(0.0, |total, cost| total + cost)
        }

        fn total_cost(&self, now: SimTime) -> f64 {
            self.cost_by_tier(VmTier::OnDemand, now) + self.cost_by_tier(VmTier::Spot, now)
        }

        fn open_count(&self) -> usize {
            self.entries.iter().filter(|e| e.ended.is_none()).count()
        }

        fn closed_count(&self, tier: VmTier) -> usize {
            self.entries
                .iter()
                .filter(|e| e.tier == tier && e.ended.is_some())
                .count()
        }
    }

    /// Runs `op` on both ledgers and reports whether each panicked: debug
    /// builds assert on misuse after tallying it, so a caught panic leaves
    /// the same state the release no-op does.
    fn both_panic(
        indexed: &mut VmLedger,
        linear: &mut LinearLedger,
        op_indexed: impl FnOnce(&mut VmLedger),
        op_linear: impl FnOnce(&mut LinearLedger),
    ) -> (bool, bool) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let a = catch_unwind(AssertUnwindSafe(|| op_indexed(indexed))).is_err();
        let b = catch_unwind(AssertUnwindSafe(|| op_linear(linear))).is_err();
        (a, b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The indexed ledger is step-for-step equal to the linear-scan
        /// one. Ids are drawn from a space of 6 while only some are
        /// allocated, and `now` is not monotone, so every misuse edge
        /// occurs: double open, close of an unknown id, double close,
        /// close before open, reopen after close, and opening a made-up
        /// id that `allocate_id` later hands out.
        #[test]
        fn prop_indexed_ledger_matches_linear_scan(
            steps in proptest::collection::vec(
                (0usize..4, 0u64..6, prop::bool::ANY, 0.0f64..20_000.0),
                1..120,
            ),
        ) {
            let mut indexed = VmLedger::new(Provider::Azure);
            let mut linear = LinearLedger::new(Provider::Azure);
            for (step, &(op, id, spot, secs)) in steps.iter().enumerate() {
                let vm = VmId(id);
                let now = SimTime::from_secs(secs);
                let tier = if spot { VmTier::Spot } else { VmTier::OnDemand };
                match op {
                    0 => prop_assert_eq!(indexed.allocate_id(), linear.allocate_id()),
                    1 => {
                        let (a, b) = both_panic(
                            &mut indexed,
                            &mut linear,
                            |l| l.open(vm, tier, now),
                            |l| l.open(vm, tier, now),
                        );
                        prop_assert_eq!(a, b, "open {:?} at step {}", vm, step);
                    }
                    2 => {
                        let (a, b) = both_panic(
                            &mut indexed,
                            &mut linear,
                            |l| l.close(vm, now),
                            |l| l.close(vm, now),
                        );
                        prop_assert_eq!(a, b, "close {:?} at step {}", vm, step);
                    }
                    _ => {
                        for tier in [VmTier::OnDemand, VmTier::Spot] {
                            prop_assert_eq!(
                                indexed.cost_by_tier(tier, now).to_bits(),
                                linear.cost_by_tier(tier, now).to_bits()
                            );
                        }
                        prop_assert_eq!(
                            indexed.total_cost(now).to_bits(),
                            linear.total_cost(now).to_bits()
                        );
                    }
                }
                prop_assert_eq!(indexed.misuse_events(), linear.misuse_events);
                prop_assert_eq!(indexed.open_count(), linear.open_count());
                for tier in [VmTier::OnDemand, VmTier::Spot] {
                    prop_assert_eq!(indexed.closed_count(tier), linear.closed_count(tier));
                }
            }
        }

        /// Hybrid policy always produces a replacement; the cost ledger
        /// is additive and non-negative.
        #[test]
        fn prop_ledger_monotone(hours in proptest::collection::vec(0.0f64..10.0, 1..20)) {
            let mut l = VmLedger::new(Provider::Gcp);
            let mut t = SimTime::ZERO;
            for (i, h) in hours.iter().enumerate() {
                let id = l.allocate_id();
                let tier = if i % 2 == 0 { VmTier::Spot } else { VmTier::OnDemand };
                l.open(id, tier, t);
                t += SimDuration::from_secs(h * 3600.0);
                l.close(id, t);
            }
            let mid = SimTime::from_secs(t.as_secs_f64() / 2.0);
            prop_assert!(l.total_cost(mid) <= l.total_cost(t) + 1e-9);
            prop_assert!(l.total_cost(t) >= 0.0);
        }
    }
}
