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
//! * two disjoint tournament-tree tiers keyed by `(outstanding, idx)`:
//!   the *accepting* tier holds routable workers whose GPU is accepting,
//!   the *draining* tier routable workers whose GPU is mid-change. A
//!   routable worker sits in exactly one of them. Least-loaded selection
//!   reads the accepting root, or the smaller of the two roots when any
//!   routable worker will do; the `(outstanding, idx)` ordering
//!   reproduces the linear scan's `min_by_key` tie-break *exactly*.
//!   An update re-folds one O(log W) root path in a flat array (no
//!   per-node allocations to miss cache on at fleet scale), and stops at
//!   the first ancestor whose minimum does not change;
//! * `Consolidate` first-fit reuses the accepting tier's tree as a
//!   max-headroom oracle: an internal node's key is the minimum
//!   `(outstanding, idx)` of its subtree, so "does this subtree hold a
//!   worker with headroom under `cap`?" is a single comparison, and a
//!   root descent that prefers the left child whenever it qualifies
//!   lands on the *leftmost* accepting worker with `outstanding < cap`
//!   in O(log W) — the identical slot the linear front scan finds —
//!   while a fully saturated fleet is rejected in O(1) at the root.
//!
//! Most refreshes change only a worker's `outstanding` while its GPU
//! keeps accepting. Such a refresh reads and re-folds the accepting tree
//! alone: a present accepting leaf proves the draining leaf is absent,
//! so the draining tree stays out of cache until a GPU starts or ends a
//! change.
//!
//! # Key layout
//!
//! A key is one `u64`, `outstanding << 32 | idx`, whose integer order
//! is the tuple order; first-fit's comparison is `key >> 32 < cap`.
//! Both halves must fit in 32 bits, and the all-ones value of each is
//! left to the empty-slot sentinel `u64::MAX`: `pack` asserts it on
//! every refresh, in release builds too. The leaves are the only
//! per-slot state — a worker's cached `(routable, accepting,
//! outstanding)` is read back from its two leaves — so a refresh
//! touches nothing but the root paths. At 50,000 workers a tree pads to
//! 65,536 leaves, 1 MiB, half the size of a `(u64, usize)` tree.
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

/// Sentinel key for an ineligible slot: compares above every real
/// packed key, so `min` ignores it.
const ABSENT: u64 = u64::MAX;

/// The largest `outstanding` a packed key can hold: its upper half's
/// all-ones value belongs to [`ABSENT`].
const MAX_OUTSTANDING: u64 = u32::MAX as u64 - 1;

/// Packs `(outstanding, idx)` into one key with the same order.
fn pack(outstanding: u64, idx: usize) -> u64 {
    assert!(
        outstanding <= MAX_OUTSTANDING && idx < u32::MAX as usize,
        "dispatch key ({outstanding}, {idx}) does not fit in 32 + 32 bits"
    );
    (outstanding << 32) | idx as u64
}

/// The slot index a packed key names.
fn slot_of(key: u64) -> usize {
    (key & u64::from(u32::MAX)) as usize
}

/// Worker `idx`'s leaves in the accepting and the draining tree: its
/// packed key in the tier it belongs to, [`ABSENT`] in the other. A
/// non-routable worker is absent from both.
fn leaves(idx: usize, routable: bool, accepting: bool, outstanding: u64) -> (u64, u64) {
    if !routable {
        (ABSENT, ABSENT)
    } else if accepting {
        (pack(outstanding, idx), ABSENT)
    } else {
        (ABSENT, pack(outstanding, idx))
    }
}

/// The `outstanding` each of a worker's (accepting, draining) leaves
/// records, `None` where the leaf is absent.
fn decode(leaves: (u64, u64)) -> (Option<u64>, Option<u64>) {
    let outstanding = |key: u64| (key != ABSENT).then_some(key >> 32);
    (outstanding(leaves.0), outstanding(leaves.1))
}

/// `count` adjusted for one leaf going from `old` to `new`.
fn recount(count: usize, old: u64, new: u64) -> usize {
    count + usize::from(new != ABSENT) - usize::from(old != ABSENT)
}

/// A flat tournament (min-segment) tree over per-slot packed
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
    tree: Vec<u64>,
}

impl MinTree {
    fn new(n: usize) -> Self {
        let cap = n.next_power_of_two().max(1);
        MinTree {
            cap,
            tree: vec![ABSENT; 2 * cap],
        }
    }

    /// Slot `idx`'s key ([`ABSENT`] = ineligible).
    fn leaf(&self, idx: usize) -> u64 {
        self.tree[self.cap + idx]
    }

    /// Sets slot `idx`'s key ([`ABSENT`] = ineligible) and re-folds the
    /// path toward the root, stopping at the first ancestor whose
    /// minimum does not change: every ancestor above it is unchanged too.
    fn set(&mut self, idx: usize, key: u64) {
        let mut i = self.cap + idx;
        self.tree[i] = key;
        while i > 1 {
            i /= 2;
            let min = self.tree[2 * i].min(self.tree[2 * i + 1]);
            if self.tree[i] == min {
                break;
            }
            self.tree[i] = min;
        }
    }

    /// The minimum key ([`ABSENT`] if no slot is eligible).
    fn root(&self) -> u64 {
        self.tree[1]
    }
}

/// Incrementally-maintained index over worker dispatch state, one slot
/// per worker. See the [module docs](self) for the tier structure and
/// maintenance contract.
///
/// The trees' leaves are the only per-slot state: a worker's cached
/// `(routable, accepting, outstanding)` is read back from its two
/// leaves, so a refresh touches no other array.
#[derive(Debug)]
pub struct DispatchIndex {
    /// Routable workers whose GPU is accepting, keyed `(outstanding, idx)`.
    accepting: MinTree,
    /// Routable workers whose GPU is not accepting, keyed the same way;
    /// disjoint from `accepting`.
    draining: MinTree,
    /// Tier sizes, maintained alongside the trees.
    accepting_count: usize,
    draining_count: usize,
    /// Worker slots covered.
    slots: usize,
    /// Maintenance operations applied (surfaced in `EngineStats`).
    updates: u64,
}

impl DispatchIndex {
    /// An index over `n` worker slots, all initially non-routable.
    pub fn new(n: usize) -> Self {
        DispatchIndex {
            accepting: MinTree::new(n),
            draining: MinTree::new(n),
            accepting_count: 0,
            draining_count: 0,
            slots: n,
            updates: 0,
        }
    }

    /// Re-caches worker `idx`'s dispatch state. Call after *any*
    /// mutation of the worker's status, GPU accepting state, or
    /// `outstanding`. Only a tree whose leaf changes is re-folded, and a
    /// worker that was and stays accepting never reads the draining tree.
    pub fn refresh(&mut self, idx: usize, routable: bool, accepting: bool, outstanding: u64) {
        assert!(
            idx < self.slots,
            "worker {idx} outside a {}-slot index",
            self.slots
        );
        self.updates += 1;
        let (a, d) = leaves(idx, routable, accepting, outstanding);
        let old_a = self.accepting.leaf(idx);
        if a != old_a {
            self.accepting.set(idx, a);
            self.accepting_count = recount(self.accepting_count, old_a, a);
        }
        // The tiers are disjoint: a present accepting leaf, before and
        // after, means the draining leaf is and stays absent.
        if old_a == ABSENT || a == ABSENT {
            let old_d = self.draining.leaf(idx);
            if d != old_d {
                self.draining.set(idx, d);
                self.draining_count = recount(self.draining_count, old_d, d);
            }
        }
    }

    /// [`DispatchIndex::refresh`] from the live state of worker `g`.
    pub fn refresh_worker(&mut self, g: usize, w: &Worker) {
        let (routable, accepting, outstanding) = w.dispatch_state();
        self.refresh(g, routable, accepting, outstanding);
    }

    /// The least-loaded routable worker with an accepting GPU — the
    /// same `(outstanding, idx)` minimum the linear scan's `min_by_key`
    /// returns.
    pub fn least_loaded_accepting(&self) -> Option<usize> {
        let root = self.accepting.root();
        (root != ABSENT).then_some(slot_of(root))
    }

    /// The least-loaded routable worker regardless of GPU state: the
    /// smaller of the accepting and the draining tier's minimum.
    pub fn least_loaded_routable(&self) -> Option<usize> {
        let root = self.accepting.root().min(self.draining.root());
        (root != ABSENT).then_some(slot_of(root))
    }

    /// `true` if any worker is routable.
    pub fn any_routable(&self) -> bool {
        self.routable_len() > 0
    }

    /// Routable workers, accepting or draining.
    pub fn routable_len(&self) -> usize {
        self.accepting_count + self.draining_count
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
    /// minimum `(outstanding, idx)` of its subtree, so its outstanding
    /// half (`key >> 32`) is below `cap` exactly when the subtree
    /// contains a worker with headroom;
    /// preferring the left child whenever it qualifies reaches the
    /// leftmost eligible leaf — the identical slot the linear front
    /// scan returns — in O(log W), and a saturated fleet is rejected
    /// in O(1) at the root. Each *query* adds one to `visits` (the
    /// indexed dispatcher's unit of work, surfaced in
    /// `EngineStats::dispatch_scan_visits`), matching the least-loaded
    /// tiers' one-visit-per-query accounting.
    pub fn first_fit(&self, cap: u64, visits: &mut u64) -> Option<usize> {
        *visits += 1;
        // Every real outstanding half is below `u32::MAX` and the
        // sentinel's equals it, so the clamp keeps `< cap` exact for
        // real keys and false for empty subtrees.
        let cap = cap.min(u64::from(u32::MAX));
        let tree = &self.accepting.tree;
        if tree[1] >> 32 >= cap {
            return None;
        }
        let mut i = 1;
        while i < self.accepting.cap {
            i = if tree[2 * i] >> 32 < cap {
                2 * i
            } else {
                2 * i + 1
            };
        }
        Some(slot_of(tree[i]))
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
    /// count, a worker's leaves, either tier's size or tree contents —
    /// the first-fit descent reads only the accepting tree, so tree
    /// equality covers it).
    pub fn verify(&self, workers: &[Worker]) -> Vec<String> {
        if self.slots != workers.len() {
            return vec![format!(
                "dispatch index covers {} slots but the fleet has {} workers",
                self.slots,
                workers.len(),
            )];
        }
        let mut out = Vec::new();
        let mut live_accepting = MinTree::new(workers.len());
        let mut live_draining = MinTree::new(workers.len());
        let mut live_accepting_count = 0;
        let mut live_draining_count = 0;
        for (slot, w) in workers.iter().enumerate() {
            if w.idx != slot {
                out.push(format!(
                    "worker {} sits in dispatch index slot {slot}",
                    w.idx
                ));
                continue;
            }
            let (routable, accepting, outstanding) = w.dispatch_state();
            let (a, d) = leaves(slot, routable, accepting, outstanding);
            let cached = (self.accepting.leaf(slot), self.draining.leaf(slot));
            if cached != (a, d) {
                out.push(format!(
                    "dispatch index entry for worker {} is {:?} (outstanding in the \
                     accepting, draining tier), live state is {:?}",
                    w.idx,
                    decode(cached),
                    decode((a, d))
                ));
            }
            live_accepting.set(slot, a);
            live_draining.set(slot, d);
            live_accepting_count += usize::from(a != ABSENT);
            live_draining_count += usize::from(d != ABSENT);
        }
        for (tier, cached, count, live, live_count) in [
            (
                "accepting",
                &self.accepting,
                self.accepting_count,
                &live_accepting,
                live_accepting_count,
            ),
            (
                "draining",
                &self.draining,
                self.draining_count,
                &live_draining,
                live_draining_count,
            ),
        ] {
            if live.tree != cached.tree || live_count != count {
                out.push(format!(
                    "dispatch index {tier} tier (count {count}) != live (count {live_count})"
                ));
            }
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
/// [`crate::Observe::audit`] is set.
pub fn reference_select<'a, I>(fleet: I, cap: Option<u64>) -> Option<usize>
where
    I: Iterator<Item = &'a Worker> + Clone,
{
    let accepting = |w: &Worker| w.routable() && w.gpu.accepting();
    let least_loaded = |eligible: fn(&Worker) -> bool| {
        let key = |w: &&Worker| (w.outstanding, w.idx);
        let eligible = fleet.clone().filter(|w| eligible(w));
        eligible.min_by_key(key).map(|w| w.idx)
    };
    cap.and_then(|cap| {
        fleet
            .clone()
            .filter(|w| accepting(w) && w.outstanding < cap)
            .map(|w| w.idx)
            .min()
    })
    .or_else(|| least_loaded(accepting))
    .or_else(|| least_loaded(Worker::routable))
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
        // Routable selection sees the draining tier's worker 2 as well.
        assert_eq!(index.least_loaded_routable(), Some(2));
        assert_eq!(index.routable_len(), 4);
        assert_eq!(index.accepting_len(), 3);
    }

    #[test]
    fn a_worker_sits_in_exactly_one_tier_while_routable() {
        let mut index = filled(&[(true, true, 2), (true, true, 4)]);
        // Worker 0 starts a reconfiguration: it leaves the accepting tier.
        index.refresh(0, true, false, 2);
        assert_eq!(
            (index.accepting.leaf(0), index.draining.leaf(0)),
            (ABSENT, pack(2, 0))
        );
        assert_eq!((index.accepting_len(), index.routable_len()), (1, 2));
        assert_eq!(index.least_loaded_accepting(), Some(1));
        assert_eq!(index.least_loaded_routable(), Some(0));
        // Its load drains while the change runs; then it accepts again.
        index.refresh(0, true, false, 0);
        index.refresh(0, true, true, 0);
        assert_eq!(
            (index.accepting.leaf(0), index.draining.leaf(0)),
            (pack(0, 0), ABSENT)
        );
        assert_eq!((index.accepting_len(), index.routable_len()), (2, 2));
        // An eviction notice mid-change clears the draining leaf.
        index.refresh(1, true, false, 4);
        index.refresh(1, false, false, 4);
        assert_eq!(index.draining.root(), ABSENT);
        assert_eq!((index.accepting_len(), index.routable_len()), (1, 1));
    }

    #[test]
    fn verify_reports_a_corrupted_draining_leaf() {
        use crate::schemes_for_test::AlwaysLargest;
        use crate::SchemeBuilder;
        use protean_gpu::Geometry;
        use protean_sim::{RngFactory, SimTime};

        let rng = RngFactory::new(0);
        let mut fleet: Vec<Worker> = (0..3)
            .map(|g| Worker::new(g, AlwaysLargest.build(g), &rng, SimTime::ZERO))
            .collect();
        fleet[1].outstanding = 6;
        fleet[1]
            .gpu
            .request_reconfigure(Geometry::g3_g3())
            .expect("active GPU");
        let indexed = |fleet: &[Worker]| {
            let mut index = DispatchIndex::new(fleet.len());
            for (g, w) in fleet.iter().enumerate() {
                index.refresh_worker(g, w);
            }
            index
        };
        let index = indexed(&fleet);
        assert!(index.verify(&fleet).is_empty());
        assert_eq!(index.draining.leaf(1), pack(6, 1));

        // A stale outstanding in the draining leaf.
        let mut stale = indexed(&fleet);
        stale.draining.set(1, pack(5, 1));
        let problems = stale.verify(&fleet);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(
            problems[0].contains("worker 1 is (None, Some(5))"),
            "{problems:?}"
        );
        assert!(problems[0].ends_with("live state is (None, Some(6))"));
        assert!(problems[1].starts_with("dispatch index draining tier"));

        // A draining leaf beside the accepting worker 2's accepting leaf.
        let mut doubled = indexed(&fleet);
        doubled.draining.set(2, pack(0, 2));
        doubled.draining_count += 1;
        let problems = doubled.verify(&fleet);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(
            problems[0].contains("worker 2 is (Some(0), Some(0))"),
            "{problems:?}"
        );
        assert!(problems[1].contains("draining tier (count 2) != live (count 1)"));
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
