//! Opt-in cluster-state invariant auditor.
//!
//! The engine's correctness story rests on conservation laws that no
//! single unit test can see end to end: containers must not be minted
//! or leaked across cold starts, evictions and VM replacements;
//! `Worker::outstanding` must equal the requests physically held in the
//! worker's pipeline; the VM ledger must bill exactly the VMs bound (or
//! pending) on workers; batches must walk the
//! `Sealed → Dispatched → Placed → Finished` lifecycle in order, with
//! the only allowed regression being an eviction re-dispatch.
//!
//! When [`crate::ClusterConfig`]'s `audit` flag is set, the engine
//! sweeps these invariants after **every** handled event and arrival
//! (or every `audit_every_n`-th one, for fleet-scale runs where a full
//! sweep per event is unaffordable), and records each violation into
//! [`AuditReport`]. The sweep also cross-checks the incremental
//! [`crate::dispatch::DispatchIndex`] against the workers' live state —
//! the index-coherence invariant backing the O(log W) dispatcher — and
//! every dispatch selection is checked against the linear-scan
//! reference [`crate::dispatch::reference_select`]. With
//! the flag off (the default) every hook returns immediately — the
//! auditor holds no state and the run's results are bit-identical to an
//! unaudited run. With the flag *on* results are also bit-identical:
//! the auditor only reads engine state, so it can ride along in any
//! test or experiment.
//!
//! The auditor is the complement of the deterministic fault-injection
//! harness ([`crate::fault`]): scripted adversarial schedules drive the
//! engine through the eviction × cold-start × reconfiguration corner
//! cases, and the auditor proves the lifecycle machinery conserved
//! every resource along the way.

use std::collections::HashMap;

use protean_sim::SimTime;
use protean_spot::VmLedger;

use crate::batch::BatchId;
use crate::dispatch::reference_select;
use crate::worker::{Worker, WorkerStatus};

/// Cap on recorded violation messages; beyond it only the count grows.
const MAX_RECORDED: usize = 64;

/// Outcome of an audited run, surfaced in
/// [`crate::SimulationResult::audit`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Whether the auditor was enabled for the run.
    pub enabled: bool,
    /// Full-state invariant sweeps performed (one per handled event or
    /// dispatched arrival, thinned by
    /// [`crate::ClusterConfig::audit_every_n`] sampling).
    pub checks: u64,
    /// Total invariant violations detected.
    pub violation_count: u64,
    /// The first [`MAX_RECORDED`] violation messages, in detection
    /// order.
    pub violations: Vec<String>,
}

impl AuditReport {
    /// `true` if the audited run violated no invariant. A disabled
    /// auditor reports clean (it saw nothing).
    pub fn is_clean(&self) -> bool {
        self.violation_count == 0
    }
}

/// Batch lifecycle stage tracked for the causality invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Sealed,
    Dispatched,
    Placed,
}

/// The live auditor owned by the engine. Every hook is a no-op unless
/// constructed enabled.
#[derive(Debug, Default)]
pub(crate) struct Auditor {
    enabled: bool,
    /// Run the full sweep on every `every_n`-th opportunity (≥ 1). The
    /// O(1) batch-lifecycle hooks are never sampled.
    every_n: u64,
    /// Sweep opportunities seen (sampled or not).
    opportunities: u64,
    checks: u64,
    violation_count: u64,
    violations: Vec<String>,
    /// Lifecycle stage per in-flight batch (finished batches are
    /// dropped to bound memory).
    stages: HashMap<BatchId, Stage>,
    /// Ledger misuse tally at the last sweep, so each absorbed misuse
    /// event is reported once rather than on every subsequent sweep.
    last_ledger_misuse: u64,
}

impl Auditor {
    pub(crate) fn new(enabled: bool, every_n: u64) -> Self {
        Auditor {
            enabled,
            every_n: every_n.max(1),
            ..Auditor::default()
        }
    }

    fn violation(&mut self, now: SimTime, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations
                .push(format!("t={:.6}s {msg}", now.as_secs_f64()));
        }
    }

    /// A batch was sealed at the gateway.
    pub(crate) fn batch_sealed(&mut self, now: SimTime, id: BatchId) {
        if !self.enabled {
            return;
        }
        if self.stages.insert(id, Stage::Sealed).is_some() {
            self.violation(now, format!("batch {id:?} sealed twice"));
        }
    }

    /// A batch was dispatched to `worker`. `routable` is the target's
    /// routability at dispatch time; `redispatch` marks an eviction
    /// orphan re-entering the dispatcher.
    pub(crate) fn batch_dispatched(
        &mut self,
        now: SimTime,
        id: BatchId,
        worker: usize,
        routable: bool,
        redispatch: bool,
    ) {
        if !self.enabled {
            return;
        }
        if !routable {
            self.violation(
                now,
                format!("batch {id:?} dispatched to non-routable worker {worker}"),
            );
        }
        let ok = match self.stages.get(&id) {
            Some(Stage::Sealed) => true,
            // Eviction orphans legitimately regress from Dispatched
            // (waiting for container/slice) or Placed (running when the
            // VM died) back to Dispatched.
            Some(Stage::Dispatched) | Some(Stage::Placed) => redispatch,
            None => false,
        };
        if !ok {
            self.violation(
                now,
                format!(
                    "batch {id:?} dispatched out of order (stage {:?}, redispatch {redispatch})",
                    self.stages.get(&id)
                ),
            );
        }
        self.stages.insert(id, Stage::Dispatched);
    }

    /// A batch began executing on a slice.
    pub(crate) fn batch_placed(&mut self, now: SimTime, id: BatchId, worker: usize) {
        if !self.enabled {
            return;
        }
        if self.stages.get(&id) != Some(&Stage::Dispatched) {
            self.violation(
                now,
                format!(
                    "batch {id:?} placed on worker {worker} out of order (stage {:?})",
                    self.stages.get(&id)
                ),
            );
        }
        self.stages.insert(id, Stage::Placed);
    }

    /// A batch finished executing.
    pub(crate) fn batch_finished(&mut self, now: SimTime, id: BatchId, worker: usize) {
        if !self.enabled {
            return;
        }
        if self.stages.remove(&id) != Some(Stage::Placed) {
            self.violation(
                now,
                format!("batch {id:?} finished on worker {worker} without being placed"),
            );
        }
    }

    /// A re-check of a memoised decline: `Scheme::place` was asked
    /// again about batch `id` under the slice state it declined it in,
    /// and did not decline (a breach of the `Scheme::place` contract).
    pub(crate) fn memo_contradicted(&mut self, now: SimTime, id: BatchId, worker: usize) {
        if !self.enabled {
            return;
        }
        self.violation(
            now,
            format!(
                "batch {id:?} on worker {worker}: place chose a slice for a view \
                 it declined under the same slice state"
            ),
        );
    }

    /// Checks one dispatch selection — `selected`, the index's answer
    /// for batch `id` under first-fit cap `cap` — against the linear
    /// scans over the fleet's live state ([`reference_select`]). `fleet`
    /// yields every worker, in any order. O(W) per dispatch and never
    /// sampled: `every_n` thins only the full sweeps.
    pub(crate) fn dispatch_selected<'a>(
        &mut self,
        now: SimTime,
        id: BatchId,
        selected: Option<usize>,
        cap: Option<u64>,
        fleet: impl Iterator<Item = &'a Worker> + Clone,
    ) {
        if !self.enabled {
            return;
        }
        let reference = reference_select(fleet, cap);
        if selected != reference {
            self.violation(
                now,
                format!(
                    "batch {id:?} dispatched to worker {selected:?}, \
                     linear reference selects {reference:?}"
                ),
            );
        }
    }

    /// Counts a sweep opportunity and reports whether this one is
    /// sampled in (`every_n` thinning). Callers that assemble the fleet
    /// view from several shards use this to skip the assembly cost on
    /// thinned-out opportunities.
    pub(crate) fn sweep_due(&mut self) -> bool {
        if !self.enabled {
            return false;
        }
        self.opportunities += 1;
        if !(self.opportunities - 1).is_multiple_of(self.every_n) {
            return false;
        }
        self.checks += 1;
        true
    }

    /// The conservation sweep body, over any iteration of the fleet's
    /// workers. The engine chains its per-shard worker slices here, after
    /// verifying each shard's partition of the dispatch index via
    /// [`crate::dispatch::DispatchIndex::verify_partition`] and passing
    /// the messages as `index_problems`: the incrementally-maintained
    /// index must agree with the workers' live state at every quiescent
    /// point, or the O(log W) dispatcher could diverge from the
    /// linear-scan reference. Call only after [`Auditor::sweep_due`]
    /// returned `true`.
    pub(crate) fn sweep<'a>(
        &mut self,
        now: SimTime,
        workers: impl Iterator<Item = &'a Worker>,
        ledger: &VmLedger,
        index_problems: Vec<String>,
    ) {
        for msg in index_problems {
            self.violation(now, msg);
        }
        let mut bound_vms = 0usize;
        for w in workers {
            // Container conservation per (worker, model): the pool's
            // live population must equal its birth events minus its
            // reclaims — a saturating underflow or phantom container
            // breaks the equality.
            for (model, pool) in w.containers() {
                let live = u64::from(pool.busy_count())
                    + u64::from(pool.booting_count())
                    + pool.warm_count() as u64;
                let born = pool.prewarmed() + pool.cold_starts() + pool.proactive_boots();
                if live + pool.reclaimed() != born {
                    self.violation(
                        now,
                        format!(
                            "worker {} model {model:?} container conservation broken: \
                             warm {} + busy {} + booting {} + reclaimed {} != \
                             prewarmed {} + cold {} + proactive {}",
                            w.idx,
                            pool.warm_count(),
                            pool.busy_count(),
                            pool.booting_count(),
                            pool.reclaimed(),
                            pool.prewarmed(),
                            pool.cold_starts(),
                            pool.proactive_boots(),
                        ),
                    );
                }
            }
            // Request accounting: `outstanding` is the dispatcher's load
            // signal and must equal the requests physically held in the
            // worker's pipeline.
            let held = w.held_requests();
            if held != w.outstanding {
                self.violation(
                    now,
                    format!(
                        "worker {} outstanding {} != held requests {held}",
                        w.idx, w.outstanding
                    ),
                );
            }
            // VM binding coherence with the lifecycle status.
            let vm_ok = match w.status {
                WorkerStatus::Up | WorkerStatus::Evicting { .. } => w.vm.is_some(),
                WorkerStatus::Down => w.vm.is_none(),
            };
            if !vm_ok {
                self.violation(
                    now,
                    format!(
                        "worker {} status {:?} inconsistent with VM binding {:?}",
                        w.idx, w.status, w.vm
                    ),
                );
            }
            if w.pending_vm.is_some() && !matches!(w.status, WorkerStatus::Evicting { .. }) {
                self.violation(
                    now,
                    format!(
                        "worker {} holds a pending VM while {:?} (double procurement)",
                        w.idx, w.status
                    ),
                );
            }
            bound_vms += usize::from(w.vm.is_some()) + usize::from(w.pending_vm.is_some());
        }
        // Ledger coherence: every open ledger entry is bound to (or
        // pending on) exactly one worker slot.
        if ledger.open_count() != bound_vms {
            self.violation(
                now,
                format!(
                    "ledger has {} open VMs but workers bind {bound_vms}",
                    ledger.open_count()
                ),
            );
        }
        // Ledger conservation: the engine must never hit the ledger's
        // saturating misuse edges (double open, close of a non-open VM,
        // close before open). Release builds silently absorb those, so
        // the auditor flags each increase of the misuse tally.
        if ledger.misuse_events() > self.last_ledger_misuse {
            self.violation(
                now,
                format!(
                    "ledger absorbed {} misuse event(s) (double open / bad close)",
                    ledger.misuse_events() - self.last_ledger_misuse
                ),
            );
            self.last_ledger_misuse = ledger.misuse_events();
        }
    }

    /// End-of-run reconciliation of the epoch-coarsening counter triad.
    /// Every
    /// dispatch-shaped event — a gateway arrival or a `WindowExpire`
    /// batch-window dispatch — is either the head of a run (one epoch)
    /// or coalesced into one, and every run ends for exactly one
    /// recorded cause, so:
    ///
    /// * `epochs + coalesced_arrivals + coalesced_expiries ==
    ///   arrivals + expiries`, and
    /// * `run_cutoffs.total() == epochs`.
    ///
    /// A broken triad means a run was cut without attribution (or
    /// double-attributed) — the accounting bug this check exists to
    /// catch, since the digests it rides next to are insensitive to
    /// stats. Records violations only; it is not a sweep and does not
    /// touch `checks`, which stays comparable across shard counts and
    /// coarsening caps.
    pub(crate) fn epoch_conservation(&mut self, now: SimTime, stats: &crate::engine::EngineStats) {
        if !self.enabled {
            return;
        }
        if stats.epochs + stats.coalesced_arrivals + stats.coalesced_expiries
            != stats.arrivals + stats.expiries
        {
            self.violation(
                now,
                format!(
                    "epoch conservation broken: epochs {} + coalesced arrivals {} \
                     + coalesced expiries {} != arrivals {} + expiries {}",
                    stats.epochs,
                    stats.coalesced_arrivals,
                    stats.coalesced_expiries,
                    stats.arrivals,
                    stats.expiries
                ),
            );
        }
        if stats.run_cutoffs.total() != stats.epochs {
            self.violation(
                now,
                format!(
                    "run cutoff attribution broken: cutoffs {:?} total {} != epochs {}",
                    stats.run_cutoffs,
                    stats.run_cutoffs.total(),
                    stats.epochs
                ),
            );
        }
    }

    pub(crate) fn into_report(self) -> AuditReport {
        AuditReport {
            enabled: self.enabled,
            checks: self.checks,
            violation_count: self.violation_count,
            violations: self.violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::DispatchIndex;
    use crate::schemes_for_test::AlwaysLargest;

    /// One audit opportunity over `workers`: the sweep the engine runs
    /// at a phase boundary, with the index verified as one partition.
    fn check(a: &mut Auditor, workers: &[Worker], ledger: &VmLedger, index: &DispatchIndex) {
        if a.sweep_due() {
            a.sweep(SimTime::ZERO, workers.iter(), ledger, index.verify(workers));
        }
    }

    #[test]
    fn disabled_auditor_is_inert_and_clean() {
        let mut a = Auditor::new(false, 1);
        a.batch_sealed(SimTime::ZERO, BatchId(0));
        a.batch_finished(SimTime::ZERO, BatchId(0), 0); // would violate if on
        check(&mut a, &[], &dummy_ledger(), &DispatchIndex::new(0));
        let r = a.into_report();
        assert!(!r.enabled);
        assert!(r.is_clean());
        assert_eq!(r.checks, 0);
    }

    #[test]
    fn sampling_thins_sweeps_but_first_opportunity_is_checked() {
        let mut a = Auditor::new(true, 3);
        let index = DispatchIndex::new(0);
        for _ in 0..7 {
            check(&mut a, &[], &dummy_ledger(), &index);
        }
        // Opportunities 1, 4 and 7 are swept.
        let r = a.into_report();
        assert_eq!(r.checks, 3);
        assert!(r.is_clean());
    }

    #[test]
    fn every_n_zero_is_treated_as_one() {
        let mut a = Auditor::new(true, 0);
        let index = DispatchIndex::new(0);
        for _ in 0..5 {
            check(&mut a, &[], &dummy_ledger(), &index);
        }
        assert_eq!(a.into_report().checks, 5);
    }

    #[test]
    fn incoherent_dispatch_index_is_a_violation() {
        let mut a = Auditor::new(true, 1);
        // An index sized for a worker the cluster does not have.
        let index = DispatchIndex::new(1);
        check(&mut a, &[], &dummy_ledger(), &index);
        let r = a.into_report();
        assert_eq!(r.violation_count, 1);
        assert!(r.violations[0].contains("dispatch index"));
    }

    #[test]
    fn dispatch_disagreeing_with_the_linear_reference_is_a_violation() {
        let mut fleet: Vec<Worker> = (0..3)
            .map(|g| Worker::new(g, Box::new(AlwaysLargest), SimTime::ZERO))
            .collect();
        for (w, outstanding) in fleet.iter_mut().zip([5, 0, 2]) {
            w.status = WorkerStatus::Up;
            w.outstanding = outstanding;
        }
        let mut a = Auditor::new(true, 1);
        // Least-loaded: the reference picks worker 1; so does the index.
        a.dispatch_selected(SimTime::ZERO, BatchId(0), Some(1), None, fleet.iter());
        // First-fit under cap 3: worker 0 is full, worker 1 has headroom.
        a.dispatch_selected(SimTime::ZERO, BatchId(1), Some(1), Some(3), fleet.iter());
        assert_eq!(a.violation_count, 0);
        // A selection the scans would not make: worker 2 is neither the
        // least-loaded nor the leftmost with headroom.
        a.dispatch_selected(SimTime::ZERO, BatchId(2), Some(2), None, fleet.iter().rev());
        a.dispatch_selected(SimTime::ZERO, BatchId(3), Some(2), Some(3), fleet.iter());
        // Sending a batch to the backlog while a worker is routable.
        a.dispatch_selected(SimTime::ZERO, BatchId(4), None, None, fleet.iter());
        let r = a.into_report();
        assert_eq!(r.violation_count, 3);
        assert!(r.violations[0].contains("linear reference selects Some(1)"));
        // Dispatch checks are not sweeps.
        assert_eq!(r.checks, 0);
    }

    #[test]
    fn lifecycle_ordering_is_enforced() {
        let mut a = Auditor::new(true, 1);
        let id = BatchId(7);
        a.batch_sealed(SimTime::ZERO, id);
        a.batch_dispatched(SimTime::ZERO, id, 0, true, false);
        a.batch_placed(SimTime::ZERO, id, 0);
        a.batch_finished(SimTime::ZERO, id, 0);
        assert_eq!(a.violation_count, 0);
        // Finishing again (never re-sealed) violates.
        a.batch_finished(SimTime::ZERO, id, 0);
        assert_eq!(a.violation_count, 1);
    }

    #[test]
    fn redispatch_regression_is_allowed_only_when_flagged() {
        let mut a = Auditor::new(true, 1);
        let id = BatchId(3);
        a.batch_sealed(SimTime::ZERO, id);
        a.batch_dispatched(SimTime::ZERO, id, 0, true, false);
        a.batch_placed(SimTime::ZERO, id, 0);
        // Eviction orphan: allowed with the flag...
        a.batch_dispatched(SimTime::ZERO, id, 1, true, true);
        assert_eq!(a.violation_count, 0);
        a.batch_placed(SimTime::ZERO, id, 1);
        // ...but a plain double dispatch is a violation.
        a.batch_dispatched(SimTime::ZERO, id, 1, true, false);
        assert_eq!(a.violation_count, 1);
    }

    #[test]
    fn non_routable_dispatch_is_a_violation() {
        let mut a = Auditor::new(true, 1);
        let id = BatchId(1);
        a.batch_sealed(SimTime::ZERO, id);
        a.batch_dispatched(SimTime::ZERO, id, 2, false, false);
        assert_eq!(a.violation_count, 1);
        assert!(a.violations[0].contains("non-routable"));
    }

    #[test]
    fn violation_messages_are_capped_but_counted() {
        let mut a = Auditor::new(true, 1);
        for i in 0..(MAX_RECORDED as u64 + 40) {
            // Finished without ever being sealed: one violation each.
            a.batch_finished(SimTime::ZERO, BatchId(i), 0);
        }
        let r = a.into_report();
        assert_eq!(r.violation_count, MAX_RECORDED as u64 + 40);
        assert_eq!(r.violations.len(), MAX_RECORDED);
        assert!(!r.is_clean());
    }

    #[test]
    fn epoch_conservation_accepts_a_reconciled_triad_without_a_sweep() {
        let mut a = Auditor::new(true, 1);
        let stats = crate::engine::EngineStats {
            arrivals: 10,
            expiries: 4,
            epochs: 4,
            coalesced_arrivals: 7,
            coalesced_expiries: 3,
            run_cutoffs: crate::engine::RunCutoffs {
                serial_event: 1,
                expiry_shard_conflict: 1,
                max_arrivals: 1,
                trace_end: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        a.epoch_conservation(SimTime::ZERO, &stats);
        let r = a.into_report();
        assert!(r.is_clean());
        // Not a sweep: `checks` stays comparable across engine arms.
        assert_eq!(r.checks, 0);
    }

    #[test]
    fn epoch_conservation_flags_both_broken_identities() {
        let mut a = Auditor::new(true, 1);
        let stats = crate::engine::EngineStats {
            arrivals: 10,
            expiries: 2,
            epochs: 3,
            coalesced_arrivals: 5,
            coalesced_expiries: 1, // 3 + 5 + 1 != 10 + 2
            run_cutoffs: crate::engine::RunCutoffs {
                trace_end: 1, // total 1 != 3 epochs
                ..Default::default()
            },
            ..Default::default()
        };
        a.epoch_conservation(SimTime::ZERO, &stats);
        let r = a.into_report();
        assert_eq!(r.violation_count, 2);
        assert!(r.violations[0].contains("epoch conservation"));
        assert!(r.violations[1].contains("cutoff attribution"));
    }

    fn dummy_ledger() -> VmLedger {
        VmLedger::new(
            protean_spot::PricingTable::paper_table3(),
            protean_spot::Provider::Aws,
        )
    }

    /// A ledger that absorbed a misuse edge (here: close of a VM that was
    /// never opened) is a violation — reported once, not on every sweep.
    #[test]
    fn ledger_misuse_is_flagged_once() {
        let mut ledger = dummy_ledger();
        // Debug builds panic on the misuse edge; catch it so the test
        // exercises the same post-misuse state release builds reach.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ledger.close(protean_spot::VmId(99), SimTime::ZERO);
        }));
        assert_eq!(ledger.misuse_events(), 1);
        let mut a = Auditor::new(true, 1);
        let index = DispatchIndex::new(0);
        check(&mut a, &[], &ledger, &index);
        assert_eq!(a.violation_count, 1);
        assert!(a.violations[0].contains("misuse"));
        // Same tally on the next sweep: no new violation.
        check(&mut a, &[], &ledger, &index);
        assert_eq!(a.violation_count, 1);
    }
}
