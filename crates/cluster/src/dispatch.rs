//! Incrementally-maintained dispatcher index: O(log W) target selection.
//!
//! The gateway dispatcher routes every sealed batch to either the
//! least-loaded worker (`DispatchPolicy::LoadBalance`) or the
//! lowest-indexed worker with headroom (`DispatchPolicy::Consolidate`).
//! Scanning all `W` workers per batch is fine at the paper's 8-GPU
//! testbed but quadratic in fleet size once arrival rate scales with
//! `W`; at 512 workers the scan dominates the run. [`DispatchIndex`]
//! replaces the scans with incrementally-maintained structures:
//!
//! * two tournament-tree tiers keyed by `(outstanding, idx)` — workers
//!   that are routable **and** whose GPU is accepting, and all routable
//!   workers — so least-loaded selection reads the tree root, whose
//!   `(outstanding, idx)` ordering reproduces the linear scan's
//!   `min_by_key` tie-break *exactly*, while updates re-fold one
//!   O(log W) root path in a flat array (no per-node allocations to
//!   miss cache on at fleet scale);
//! * `Consolidate` first-fit reuses the accepting tier's tree as a
//!   max-headroom oracle: an internal node's key is the minimum
//!   `(outstanding, idx)` of its subtree, so "does this subtree hold a
//!   worker with headroom under `cap`?" is a single comparison, and a
//!   root descent that prefers the left child whenever it qualifies
//!   lands on the *leftmost* accepting worker with `outstanding < cap`
//!   in O(log W) — the identical slot the linear front scan finds —
//!   while a fully saturated fleet is rejected in O(1) at the root.
//!
//! The engine refreshes a worker's entry at every point its dispatch
//! state can change: `outstanding` increments (dispatch) and decrements
//! (completion), worker status changes (eviction notice, final
//! eviction, VM install), and GPU accepting/draining flips
//! (reconfiguration request and completion). Because every query is
//! answered from the same `(outstanding, idx)` key the scans used, the
//! index picks the *identical* worker — pinned by the golden-seed
//! digests and checked two ways by the audit layer: the index's
//! contents against the workers' live state ([`DispatchIndex::verify`]),
//! and every dispatch selection against the O(W) scans it replaced
//! ([`reference_select`]). The property tests in
//! `tests/dispatch_index.rs` cross-check raw queries the same way.

use crate::worker::Worker;

/// Cached dispatch-relevant state of one worker slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    outstanding: u64,
    accepting: bool,
}

/// Sentinel key for an ineligible slot: compares above every real
/// `(outstanding, idx)` key, so `min` ignores it.
const ABSENT: (u64, usize) = (u64::MAX, usize::MAX);

/// A flat tournament (min-segment) tree over per-slot
/// `(outstanding, idx)` keys. `set` is O(log W) along a contiguous
/// array — no per-node allocation, so maintenance stays cache-resident
/// at thousands of workers where pointer-based ordered sets thrash —
/// and the root holds the exact `min_by_key((outstanding, idx))` the
/// linear scan computes, ties broken toward the lower index by the
/// tuple order.
#[derive(Debug, Clone)]
struct MinTree {
    /// Leaf count padded to a power of two; leaves live at
    /// `cap..cap + n`, internal node `i` covers `2i` and `2i + 1`.
    cap: usize,
    tree: Vec<(u64, usize)>,
}

impl MinTree {
    fn new(n: usize) -> Self {
        let cap = n.next_power_of_two().max(1);
        MinTree {
            cap,
            tree: vec![ABSENT; 2 * cap],
        }
    }

    /// Sets slot `idx`'s key (`None` = ineligible) and re-folds the
    /// path to the root.
    fn set(&mut self, idx: usize, key: Option<(u64, usize)>) {
        let mut i = self.cap + idx;
        self.tree[i] = key.unwrap_or(ABSENT);
        while i > 1 {
            i /= 2;
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
    }

    /// The slot holding the minimum key, if any slot is eligible.
    fn min_idx(&self) -> Option<usize> {
        let root = self.tree[1];
        (root != ABSENT).then_some(root.1)
    }
}

/// Incrementally-maintained index over worker dispatch state, one slot
/// per worker. See the [module docs](self) for the tier structure and
/// maintenance contract.
#[derive(Debug)]
pub struct DispatchIndex {
    /// Routable workers whose GPU is accepting, keyed `(outstanding, idx)`.
    accepting: MinTree,
    /// All routable workers, keyed `(outstanding, idx)`.
    routable: MinTree,
    /// Tier sizes, maintained alongside the trees.
    accepting_count: usize,
    routable_count: usize,
    /// Dense snapshot per worker slot; `None` = not routable.
    entries: Vec<Option<Entry>>,
    /// Maintenance operations applied (surfaced in `EngineStats`).
    updates: u64,
}

impl DispatchIndex {
    /// An index over `n` worker slots, all initially non-routable.
    pub fn new(n: usize) -> Self {
        DispatchIndex {
            accepting: MinTree::new(n),
            routable: MinTree::new(n),
            accepting_count: 0,
            routable_count: 0,
            entries: vec![None; n],
            updates: 0,
        }
    }

    /// Re-caches worker `idx`'s dispatch state. Call after *any*
    /// mutation of the worker's status, GPU accepting state, or
    /// `outstanding`.
    pub fn refresh(&mut self, idx: usize, routable: bool, accepting: bool, outstanding: u64) {
        self.updates += 1;
        let old = self.entries[idx];
        let new = routable.then_some(Entry {
            outstanding,
            accepting,
        });
        if old == new {
            return;
        }
        self.routable.set(idx, new.map(|e| (e.outstanding, idx)));
        self.accepting.set(
            idx,
            new.and_then(|e| e.accepting.then_some((e.outstanding, idx))),
        );
        self.routable_count =
            self.routable_count + usize::from(new.is_some()) - usize::from(old.is_some());
        self.accepting_count = self.accepting_count + usize::from(new.is_some_and(|e| e.accepting))
            - usize::from(old.is_some_and(|e| e.accepting));
        self.entries[idx] = new;
    }

    /// [`DispatchIndex::refresh`] from the worker's live state.
    pub fn refresh_worker(&mut self, w: &Worker) {
        let (routable, accepting, outstanding) = w.dispatch_state();
        self.refresh(w.idx, routable, accepting, outstanding);
    }

    /// The least-loaded routable worker with an accepting GPU — the
    /// same `(outstanding, idx)` minimum the linear scan's `min_by_key`
    /// returns.
    pub fn least_loaded_accepting(&self) -> Option<usize> {
        self.accepting.min_idx()
    }

    /// The least-loaded routable worker regardless of GPU state.
    pub fn least_loaded_routable(&self) -> Option<usize> {
        self.routable.min_idx()
    }

    /// `true` if any worker is routable.
    pub fn any_routable(&self) -> bool {
        self.routable_count > 0
    }

    /// Routable workers.
    pub fn routable_len(&self) -> usize {
        self.routable_count
    }

    /// Routable workers whose GPU is accepting.
    pub fn accepting_len(&self) -> usize {
        self.accepting_count
    }

    /// Maintenance operations applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// `Consolidate` first-fit: the lowest-indexed routable, accepting
    /// worker with `outstanding < cap`, answered by root descent over
    /// the accepting tournament tree. An internal node's key is the
    /// minimum `(outstanding, idx)` of its subtree, so `key.0 < cap`
    /// holds exactly when the subtree contains a worker with headroom;
    /// preferring the left child whenever it qualifies reaches the
    /// leftmost eligible leaf — the identical slot the linear front
    /// scan returns — in O(log W), and a saturated fleet is rejected
    /// in O(1) at the root. Each *query* adds one to `visits` (the
    /// indexed dispatcher's unit of work, surfaced in
    /// `EngineStats::dispatch_scan_visits`), matching the least-loaded
    /// tiers' one-visit-per-query accounting.
    pub fn first_fit(&self, cap: u64, visits: &mut u64) -> Option<usize> {
        *visits += 1;
        let tree = &self.accepting.tree;
        if tree[1].0 >= cap {
            return None;
        }
        let mut i = 1;
        while i < self.accepting.cap {
            i = if tree[2 * i].0 < cap {
                2 * i
            } else {
                2 * i + 1
            };
        }
        Some(tree[i].1)
    }

    /// Dispatch target selection: `Consolidate` first-fit when `cap` is
    /// set, then the least-loaded worker whose GPU is accepting — a GPU
    /// draining for reconfiguration gets no new traffic (§4.4 keeps
    /// downtime local) — then the least-loaded routable worker if every
    /// GPU is mid-change. Each tier consulted adds one to `visits`; a
    /// later tier is consulted only when every earlier one is empty,
    /// mirroring [`reference_select`]'s short-circuit.
    pub fn select(&self, cap: Option<u64>, visits: &mut u64) -> Option<usize> {
        cap.and_then(|cap| self.first_fit(cap, visits))
            .or_else(|| {
                *visits += 1;
                self.least_loaded_accepting()
            })
            .or_else(|| {
                *visits += 1;
                self.least_loaded_routable()
            })
    }

    /// Cross-checks the index against the workers' live state: the
    /// audited index-coherence invariant. `workers` must be the whole
    /// fleet in worker order. Returns one message per discrepancy (slot
    /// count, tier membership, tree contents, or dense snapshot — the
    /// first-fit descent reads only the accepting tree, so tree equality
    /// covers it).
    pub fn verify(&self, workers: &[Worker]) -> Vec<String> {
        if self.entries.len() != workers.len() {
            return vec![format!(
                "dispatch index covers {} slots but the fleet has {} workers",
                self.entries.len(),
                workers.len(),
            )];
        }
        let mut out = Vec::new();
        let mut live_accepting = MinTree::new(workers.len());
        let mut live_routable = MinTree::new(workers.len());
        let mut live_accepting_count = 0;
        let mut live_routable_count = 0;
        for (slot, w) in workers.iter().enumerate() {
            if w.idx != slot {
                out.push(format!(
                    "worker {} sits in dispatch index slot {slot}",
                    w.idx
                ));
                continue;
            }
            let (routable, accepting, outstanding) = w.dispatch_state();
            let expect = routable.then_some(Entry {
                outstanding,
                accepting,
            });
            if self.entries[slot] != expect {
                out.push(format!(
                    "dispatch index entry for worker {} is {:?}, live state is {:?}",
                    w.idx, self.entries[slot], expect
                ));
            }
            live_routable.set(slot, expect.map(|e| (e.outstanding, slot)));
            live_accepting.set(
                slot,
                expect.and_then(|e| e.accepting.then_some((e.outstanding, slot))),
            );
            live_routable_count += usize::from(expect.is_some());
            live_accepting_count += usize::from(expect.is_some_and(|e| e.accepting));
        }
        if live_accepting.tree != self.accepting.tree
            || live_accepting_count != self.accepting_count
        {
            out.push(format!(
                "dispatch index accepting tier (count {}) != live (count {})",
                self.accepting_count, live_accepting_count
            ));
        }
        if live_routable.tree != self.routable.tree || live_routable_count != self.routable_count {
            out.push(format!(
                "dispatch index routable tier (count {}) != live (count {})",
                self.routable_count, live_routable_count
            ));
        }
        out
    }
}

/// The linear-scan reference for [`DispatchIndex::select`]: the O(W) scans the
/// index replaced, read straight from the workers' live state. Same
/// cascade — `Consolidate` first-fit when `cap` is set, then the
/// least-loaded worker whose GPU is accepting (a GPU draining for
/// reconfiguration gets no new traffic, §4.4), then any routable
/// worker — and the same `(outstanding, idx)` tie-break.
///
/// `fleet` may yield the workers in any order: every tier ranks by the
/// worker index, so first-fit's "leftmost" is the smallest eligible
/// index. The auditor
/// checks each dispatch selection against this function when
/// [`crate::ClusterConfig::audit`] is set.
pub fn reference_select<'a, I>(fleet: I, cap: Option<u64>) -> Option<usize>
where
    I: Iterator<Item = &'a Worker> + Clone,
{
    let accepting = |w: &&Worker| w.routable() && w.gpu.accepting();
    cap.and_then(|cap| {
        fleet
            .clone()
            .filter(|w| accepting(w) && w.outstanding < cap)
            .map(|w| w.idx)
            .min()
    })
    .or_else(|| {
        fleet
            .clone()
            .filter(accepting)
            .min_by_key(|w| (w.outstanding, w.idx))
            .map(|w| w.idx)
    })
    .or_else(|| {
        fleet
            .filter(|w| w.routable())
            .min_by_key(|w| (w.outstanding, w.idx))
            .map(|w| w.idx)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(states: &[(bool, bool, u64)]) -> DispatchIndex {
        let mut index = DispatchIndex::new(states.len());
        for (idx, &(routable, accepting, outstanding)) in states.iter().enumerate() {
            index.refresh(idx, routable, accepting, outstanding);
        }
        index
    }

    #[test]
    fn least_loaded_matches_min_by_key_tie_break() {
        let index = filled(&[
            (true, true, 5),
            (true, true, 3),
            (true, false, 1),
            (true, true, 3),
        ]);
        // Ties on outstanding break toward the lower index, exactly as
        // `min_by_key(|w| (w.outstanding, w.idx))` does.
        assert_eq!(index.least_loaded_accepting(), Some(1));
        // The routable tier sees the draining worker 2 as well.
        assert_eq!(index.least_loaded_routable(), Some(2));
        assert_eq!(index.routable_len(), 4);
        assert_eq!(index.accepting_len(), 3);
    }

    #[test]
    fn non_routable_workers_vanish_from_both_tiers() {
        let mut index = filled(&[(true, true, 0), (true, true, 0)]);
        index.refresh(0, false, false, 0);
        assert_eq!(index.least_loaded_accepting(), Some(1));
        index.refresh(1, false, true, 0);
        assert!(index.least_loaded_accepting().is_none());
        assert!(index.least_loaded_routable().is_none());
        assert!(!index.any_routable());
    }

    #[test]
    fn first_fit_descends_to_the_leftmost_slot_with_headroom() {
        let index = filled(&[(true, true, 4), (true, true, 4), (true, true, 0)]);
        let mut visits = 0;
        assert_eq!(index.first_fit(4, &mut visits), Some(2));
        // A query is one unit of work regardless of fleet shape.
        assert_eq!(visits, 1);
        // First-fit, not best-fit: the leftmost slot with headroom wins
        // even when a later slot is emptier.
        let index = filled(&[(true, true, 3), (true, true, 0)]);
        let mut visits = 0;
        assert_eq!(index.first_fit(4, &mut visits), Some(0));
    }

    #[test]
    fn saturated_fleet_is_rejected_at_the_root() {
        let mut index = filled(&[(true, true, 8), (true, true, 8)]);
        let mut visits = 0;
        assert_eq!(index.first_fit(8, &mut visits), None);
        assert_eq!(visits, 1);
        index.refresh(1, true, true, 7);
        let mut visits = 0;
        assert_eq!(index.first_fit(8, &mut visits), Some(1));
    }

    #[test]
    fn refreshed_headroom_is_visible_to_the_next_descent() {
        let mut index = filled(&[(true, true, 4), (true, true, 0)]);
        let mut visits = 0;
        assert_eq!(index.first_fit(4, &mut visits), Some(1));
        // Worker 0 completes a request: the next descent finds it.
        index.refresh(0, true, true, 3);
        let mut visits = 0;
        assert_eq!(index.first_fit(4, &mut visits), Some(0));
    }

    #[test]
    fn draining_slots_are_invisible_to_first_fit() {
        let mut index = filled(&[(true, false, 0), (true, true, 0)]);
        let mut visits = 0;
        assert_eq!(index.first_fit(2, &mut visits), Some(1));
        // Reconfiguration completes; worker 0 accepts again.
        index.refresh(0, true, true, 0);
        let mut visits = 0;
        assert_eq!(index.first_fit(2, &mut visits), Some(0));
    }

    #[test]
    fn distinct_caps_share_the_same_tree() {
        let index = filled(&[(true, true, 6), (true, true, 2)]);
        let mut visits = 0;
        // Cap 4: worker 0 saturated, descent bears right to worker 1.
        assert_eq!(index.first_fit(4, &mut visits), Some(1));
        // Cap 8: worker 0 has headroom again — no per-cap state to go stale.
        assert_eq!(index.first_fit(8, &mut visits), Some(0));
        // Cap 1: nobody idle.
        assert_eq!(index.first_fit(1, &mut visits), None);
        assert_eq!(visits, 3);
    }

    #[test]
    fn descent_ignores_padding_leaves_in_non_power_of_two_fleets() {
        // Three slots pad to four leaves; the spare leaf holds the
        // ABSENT sentinel and must never attract the descent.
        let index = filled(&[(true, true, 9), (true, true, 9), (true, true, 1)]);
        let mut visits = 0;
        assert_eq!(index.first_fit(9, &mut visits), Some(2));
        assert_eq!(index.first_fit(1, &mut visits), None);
    }
}
