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
//! When a run's [`crate::Observe::audit`] is `Some(n)`, the engine
//! sweeps these invariants after every `n`-th handled event or arrival
//! run (`n = 1`: after **every** one; fleet-scale runs sample), and
//! records each violation into [`AuditReport`]. The sweep also cross-checks the incremental
//! [`crate::dispatch::DispatchIndex`] against the workers' live state —
//! the index-coherence invariant backing the O(log W) dispatcher — and
//! every dispatch selection is checked against the linear-scan
//! reference [`crate::dispatch::reference_select`]. With auditing off
//! (`None`, the default) every hook returns immediately — the auditor
//! holds no state and the run's results are bit-identical to an
//! unaudited run. With it *on* results are also bit-identical:
//! the auditor only reads engine state, so it can ride along in any
//! test or experiment.
//!
//! The auditor is the complement of the deterministic fault-injection
//! harness ([`crate::fault`]): scripted adversarial schedules drive the
//! engine through the eviction × cold-start × reconfiguration corner
//! cases, and the auditor proves the lifecycle machinery conserved
//! every resource along the way.

use std::collections::HashMap;

use protean_sim::{EventHandle, SimTime};
use protean_spot::VmLedger;

use crate::batch::BatchId;
use crate::dispatch::{reference_select, DispatchIndex};
use crate::journal::JournalEvent;
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
    /// dispatched arrival run, thinned by the sampling of
    /// [`crate::Observe::audit`]).
    pub checks: u64,
    /// Total invariant violations detected.
    pub violation_count: u64,
    /// The first `MAX_RECORDED` (64) violation messages, in detection
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
    pub(crate) enabled: bool,
    /// Run the full sweep on every `every_n`-th opportunity (≥ 1). The
    /// O(1) batch life-cycle check is never sampled.
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
    /// An auditor sweeping on every `n`-th opportunity of `audit`
    /// ([`crate::Observe::audit`]); `None` builds it disabled.
    pub(crate) fn new(audit: Option<std::num::NonZeroU64>) -> Self {
        Auditor {
            enabled: audit.is_some(),
            every_n: audit.map_or(1, |n| n.get()),
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

    /// Folds one emitted event into the batch life-cycle check: a batch
    /// walks `Sealed → Dispatched → Placed → Finished`, and the one
    /// legal regression is an eviction orphan re-dispatched from
    /// `Dispatched` or `Placed`. Other events pass through. Inlined, so
    /// that an unaudited run pays one branch per event.
    #[inline]
    pub(crate) fn observe(&mut self, now: SimTime, ev: &JournalEvent) {
        if self.enabled {
            self.observe_stage(now, ev);
        }
    }

    fn observe_stage(&mut self, now: SimTime, ev: &JournalEvent) {
        let (id, to, redispatch) = match *ev {
            JournalEvent::BatchSealed { batch, .. } => (batch, Some(Stage::Sealed), false),
            JournalEvent::BatchDispatched {
                batch, redispatch, ..
            } => (batch, Some(Stage::Dispatched), redispatch),
            JournalEvent::BatchPlaced { batch, .. } => (batch, Some(Stage::Placed), false),
            JournalEvent::BatchFinished { batch, .. } => (batch, None, false),
            _ => return,
        };
        let from = match to {
            Some(stage) => self.stages.insert(id, stage),
            None => self.stages.remove(&id),
        };
        let ok = match (from, to) {
            (None, Some(Stage::Sealed))
            | (Some(Stage::Sealed), Some(Stage::Dispatched))
            | (Some(Stage::Dispatched), Some(Stage::Placed))
            | (Some(Stage::Placed), None) => true,
            (Some(Stage::Dispatched | Stage::Placed), Some(Stage::Dispatched)) => redispatch,
            _ => false,
        };
        if !ok {
            self.violation(
                now,
                format!("batch {id:?} out of order: {from:?} then {ev:?}"),
            );
        }
    }

    /// Records the violation `msg` describes, formatted only if the
    /// auditor is on.
    pub(crate) fn report(&mut self, now: SimTime, msg: impl FnOnce() -> String) {
        if self.enabled {
            self.violation(now, msg());
        }
    }

    /// Checks one dispatch selection — `selected`, the index's answer
    /// for batch `id` under first-fit cap `cap` — against the linear
    /// scans over the fleet's live state ([`reference_select`]), and
    /// that the selected worker is routable. `fleet` yields every
    /// worker, in any order. O(W) per dispatch and never sampled:
    /// `every_n` thins only the full sweeps.
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
        if let Some(g) = selected {
            if !fleet.clone().any(|w| w.idx == g && w.routable()) {
                self.violation(
                    now,
                    format!("batch {id:?} dispatched to non-routable worker {g}"),
                );
            }
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

    /// One sweep opportunity: counts it and, if `every_n` sampling
    /// takes it, runs the conservation sweep over `workers` (the whole
    /// fleet, in worker order). The sweep also verifies `index` against
    /// the workers' live state
    /// ([`crate::dispatch::DispatchIndex::verify`]): the
    /// incrementally-maintained index must agree with it at every
    /// quiescent point, or the O(log W) dispatcher could diverge from
    /// the linear-scan reference. `finish_of` names the `(worker, slice)`
    /// of the pending `JobFinish` a handle names, if it names one.
    pub(crate) fn check(
        &mut self,
        now: SimTime,
        workers: &[Worker],
        ledger: &VmLedger,
        index: &DispatchIndex,
        finish_of: impl Fn(EventHandle) -> Option<(usize, usize)>,
    ) {
        if !self.enabled {
            return;
        }
        self.opportunities += 1;
        if !(self.opportunities - 1).is_multiple_of(self.every_n) {
            return;
        }
        self.checks += 1;
        for msg in index.verify(workers) {
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
            // The runs a placement pass trusts to skip declined repeats.
            if let Some(msg) = w.sched_queue.run_encoding_error() {
                self.violation(now, format!("worker {} scheduler queue: {msg}", w.idx));
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
            // One armed finish per busy slice, none on an idle one. A
            // worker without a VM keeps its evicted GPU, whose events
            // were cancelled, until a new VM rebuilds it.
            for (i, slice) in w.gpu.slices().iter().enumerate().filter(|_| w.vm.is_some()) {
                let names = slice.armed.map(&finish_of);
                if names != (!slice.is_idle()).then_some(Some((w.idx, i))) {
                    let (idx, jobs, armed) = (w.idx, slice.job_count(), slice.armed);
                    let names = names.flatten();
                    let msg = format!(
                        "worker {idx} slice {i} with {jobs} jobs holds armed handle {armed:?}, \
                         which names the finish of {names:?}"
                    );
                    self.violation(now, msg);
                }
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
    use crate::schemes_for_test::AlwaysLargest;
    use protean_models::ModelId;
    use std::num::NonZeroU64;

    fn sealed(id: u64) -> JournalEvent {
        JournalEvent::BatchSealed {
            batch: BatchId(id),
            model: ModelId::ResNet50,
            strict: true,
            size: 1,
        }
    }

    fn dispatched(id: u64, worker: usize, redispatch: bool) -> JournalEvent {
        JournalEvent::BatchDispatched {
            batch: BatchId(id),
            worker,
            redispatch,
        }
    }

    fn placed(id: u64, worker: usize) -> JournalEvent {
        JournalEvent::BatchPlaced {
            batch: BatchId(id),
            worker,
            slice: 0,
        }
    }

    fn finished(id: u64, worker: usize) -> JournalEvent {
        JournalEvent::BatchFinished {
            batch: BatchId(id),
            worker,
        }
    }

    /// Feeds `events` to `a`, all at time zero.
    fn observe_all(a: &mut Auditor, events: &[JournalEvent]) {
        for ev in events {
            a.observe(SimTime::ZERO, ev);
        }
    }

    /// A three-worker fleet, all up, with the given loads.
    fn fleet(outstanding: [u64; 3]) -> Vec<Worker> {
        let rng = protean_sim::RngFactory::new(0);
        let mut fleet: Vec<Worker> = (0..3)
            .map(|g| Worker::new(g, Box::new(AlwaysLargest), &rng, SimTime::ZERO))
            .collect();
        for (w, outstanding) in fleet.iter_mut().zip(outstanding) {
            w.status = WorkerStatus::Up;
            w.outstanding = outstanding;
        }
        fleet
    }

    #[test]
    fn disabled_auditor_is_inert_and_clean() {
        let mut a = Auditor::new(None);
        // Each would violate if on.
        observe_all(&mut a, &[sealed(0), finished(0, 0)]);
        let mut down = fleet([0; 3]);
        down[1].status = WorkerStatus::Down;
        a.dispatch_selected(SimTime::ZERO, BatchId(0), Some(1), None, down.iter());
        a.report(SimTime::ZERO, || {
            unreachable!("a disabled auditor formats nothing")
        });
        a.check(
            SimTime::ZERO,
            &[],
            &dummy_ledger(),
            &DispatchIndex::new(0),
            |_| None,
        );
        let r = a.into_report();
        assert!(!r.enabled);
        assert!(r.is_clean());
        assert_eq!(r.checks, 0);
    }

    #[test]
    fn sampling_thins_sweeps_but_first_opportunity_is_checked() {
        let mut a = Auditor::new(NonZeroU64::new(3));
        let index = DispatchIndex::new(0);
        for _ in 0..7 {
            a.check(SimTime::ZERO, &[], &dummy_ledger(), &index, |_| None);
        }
        // Opportunities 1, 4 and 7 are swept.
        let r = a.into_report();
        assert_eq!(r.checks, 3);
        assert!(r.is_clean());
    }

    #[test]
    fn incoherent_dispatch_index_is_a_violation() {
        let mut a = Auditor::new(Some(NonZeroU64::MIN));
        // An index sized for a worker the cluster does not have.
        let index = DispatchIndex::new(1);
        a.check(SimTime::ZERO, &[], &dummy_ledger(), &index, |_| None);
        let r = a.into_report();
        assert_eq!(r.violation_count, 1);
        assert!(r.violations[0].contains("dispatch index"));
    }

    #[test]
    fn dispatch_disagreeing_with_the_linear_reference_is_a_violation() {
        let fleet = fleet([5, 0, 2]);
        let mut a = Auditor::new(Some(NonZeroU64::MIN));
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
        let mut a = Auditor::new(Some(NonZeroU64::MIN));
        observe_all(
            &mut a,
            &[
                sealed(7),
                dispatched(7, 0, false),
                placed(7, 0),
                finished(7, 0),
            ],
        );
        // Events that are not batch transitions pass through.
        a.observe(SimTime::ZERO, &JournalEvent::Evicted { worker: 0 });
        assert_eq!(a.violation_count, 0);
        // Finishing again (never re-sealed) violates.
        a.observe(SimTime::ZERO, &finished(7, 0));
        assert_eq!(a.violation_count, 1);
        // So do a second seal, and a placement that skips dispatch.
        observe_all(&mut a, &[sealed(8), sealed(8), sealed(9), placed(9, 0)]);
        assert_eq!(a.violation_count, 3);
        assert!(a.violations[0].contains("BatchId(7) out of order"));
    }

    #[test]
    fn redispatch_regression_is_allowed_only_when_flagged() {
        let mut a = Auditor::new(Some(NonZeroU64::MIN));
        observe_all(
            &mut a,
            &[
                sealed(3),
                dispatched(3, 0, false),
                placed(3, 0),
                // Eviction orphan: allowed with the flag...
                dispatched(3, 1, true),
            ],
        );
        assert_eq!(a.violation_count, 0);
        a.observe(SimTime::ZERO, &placed(3, 1));
        // ...but a plain double dispatch is a violation.
        a.observe(SimTime::ZERO, &dispatched(3, 1, false));
        assert_eq!(a.violation_count, 1);
    }

    #[test]
    fn non_routable_dispatch_is_a_violation() {
        let mut fleet = fleet([0; 3]);
        fleet[2].status = WorkerStatus::Down;
        let mut a = Auditor::new(Some(NonZeroU64::MIN));
        a.dispatch_selected(SimTime::ZERO, BatchId(1), Some(2), None, fleet.iter());
        // The linear reference, which never picks a non-routable worker,
        // disagrees too.
        assert_eq!(a.violation_count, 2);
        assert!(a.violations[0].contains("non-routable worker 2"));
    }

    #[test]
    fn violation_messages_are_capped_but_counted() {
        let mut a = Auditor::new(Some(NonZeroU64::MIN));
        for i in 0..(MAX_RECORDED as u64 + 40) {
            // Finished without ever being sealed: one violation each.
            a.observe(SimTime::ZERO, &finished(i, 0));
        }
        let r = a.into_report();
        assert_eq!(r.violation_count, MAX_RECORDED as u64 + 40);
        assert_eq!(r.violations.len(), MAX_RECORDED);
        assert!(!r.is_clean());
    }

    fn dummy_ledger() -> VmLedger {
        VmLedger::new(protean_spot::Provider::Aws)
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
        let mut a = Auditor::new(Some(NonZeroU64::MIN));
        let index = DispatchIndex::new(0);
        a.check(SimTime::ZERO, &[], &ledger, &index, |_| None);
        assert_eq!(a.violation_count, 1);
        assert!(a.violations[0].contains("misuse"));
        // Same tally on the next sweep: no new violation.
        a.check(SimTime::ZERO, &[], &ledger, &index, |_| None);
        assert_eq!(a.violation_count, 1);
    }
}
