//! The growth policy of per-worker and per-slice buffers.
//!
//! `Vec` and `VecDeque` open at four slots on their first push. A fleet
//! holds several such buffers per worker (queued batches, running
//! batches, container waits, warm containers, a slice's jobs) and each
//! usually holds zero to two entries, so at fleet scale most of that
//! first block is empty. [`SlimPush`] gives a buffer one slot on its
//! first push and doubles its capacity after that: a buffer that never
//! holds more than one entry costs one slot, and a deep queue still
//! grows in amortised O(1).
//!
//! A queue that fills in a burst and then drains would keep its peak
//! block for the rest of the run. [`SlimPop`] gives it back: a pop that
//! leaves a quarter of the slots or fewer in use shrinks the buffer to
//! twice what it still holds, but never below [`KEEP`] slots, so a small
//! buffer never reallocates. Between the double on a full push and the
//! halve at a quarter, a buffer that hovers at one length neither grows
//! nor shrinks, and both stay amortised O(1).
//!
//! # Example
//!
//! ```
//! use std::collections::VecDeque;
//! use protean_sim::slim::KEEP;
//! use protean_sim::{SlimPop, SlimPush};
//!
//! let mut v = Vec::new();
//! v.slim_push(7);
//! assert_eq!(v.capacity(), 1);
//! v.slim_push(8);
//! v.slim_push(9);
//! assert_eq!(v.capacity(), 4);
//!
//! let mut q: VecDeque<u32> = (0..1000).collect();
//! while q.slim_pop_front().is_some() {}
//! assert!(q.capacity() <= KEEP);
//! ```

use std::collections::VecDeque;

/// A push that sizes the buffer to what it holds: capacity goes
/// 0 → 1 → 2 → 4 → 8 → … across pushes.
pub trait SlimPush<T> {
    /// Appends `value` at the back, growing the capacity by the policy
    /// when the buffer is full.
    fn slim_push(&mut self, value: T);
}

/// The slots to add before one more push into a buffer of `len`
/// entries and `capacity` slots: none while there is room, else one
/// for an empty buffer and `capacity` (doubling) after that.
#[inline]
fn extra_slots(len: usize, capacity: usize) -> usize {
    if len < capacity {
        0
    } else {
        capacity.max(1)
    }
}

/// Slots a [`SlimPop`] buffer keeps however far it drains.
pub const KEEP: usize = 8;

/// A pop that gives back what a drained buffer no longer needs: after
/// a pop that leaves `len <= capacity / 4`, the capacity shrinks to
/// `max(2 * len, KEEP)`.
pub trait SlimPop<T> {
    /// Removes and returns the front entry, shrinking the buffer by the
    /// policy.
    fn slim_pop_front(&mut self) -> Option<T>;
}

/// The capacity to shrink to after a pop that left `len` entries in
/// `capacity` slots, if the policy shrinks at all.
#[inline]
fn shrunk_capacity(len: usize, capacity: usize) -> Option<usize> {
    (capacity > KEEP && len <= capacity / 4).then(|| (2 * len).max(KEEP))
}

impl<T> SlimPop<T> for VecDeque<T> {
    #[inline]
    fn slim_pop_front(&mut self) -> Option<T> {
        let front = self.pop_front();
        if let Some(slots) = shrunk_capacity(self.len(), self.capacity()) {
            self.shrink_to(slots);
        }
        front
    }
}

impl<T> SlimPush<T> for Vec<T> {
    fn slim_push(&mut self, value: T) {
        self.reserve_exact(extra_slots(self.len(), self.capacity()));
        self.push(value);
    }
}

impl<T> SlimPush<T> for VecDeque<T> {
    fn slim_push(&mut self, value: T) {
        self.reserve_exact(extra_slots(self.len(), self.capacity()));
        self.push_back(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn capacity_goes_one_two_four_eight() {
        let mut v: Vec<u64> = Vec::new();
        let mut d: VecDeque<u64> = VecDeque::new();
        assert_eq!((v.capacity(), d.capacity()), (0, 0));
        let mut seen = Vec::new();
        for i in 0..8 {
            v.slim_push(i);
            d.slim_push(i);
            assert_eq!(v.capacity(), d.capacity());
            seen.push(v.capacity());
        }
        assert_eq!(seen, [1, 2, 4, 4, 8, 8, 8, 8]);
        assert!(v.iter().eq(d.iter()));
    }

    #[test]
    fn a_full_drain_keeps_keep_slots() {
        for n in [KEEP + 1, 100, 10_000] {
            // Grown by pushes (a power of two) or built at any capacity.
            let mut grown: VecDeque<usize> = VecDeque::new();
            for i in 0..n {
                grown.slim_push(i);
            }
            for mut d in [grown, (0..n).collect()] {
                let mut popped = 0;
                while let Some(i) = d.slim_pop_front() {
                    assert_eq!(i, popped);
                    popped += 1;
                }
                assert_eq!(popped, n);
                assert_eq!(d.capacity(), KEEP, "after draining {n}");
            }
        }
    }

    #[test]
    fn a_small_buffer_keeps_its_slots() {
        // One slot, as a worker's waiting queue holds one batch: the pop
        // that empties it does not reallocate.
        let mut d = VecDeque::new();
        d.slim_push(1u64);
        assert_eq!(d.slim_pop_front(), Some(1));
        assert_eq!(d.capacity(), 1);
        // Nor does a buffer at the floor.
        let mut d: VecDeque<u64> = VecDeque::with_capacity(KEEP);
        d.extend(0..KEEP as u64);
        while d.slim_pop_front().is_some() {}
        assert_eq!(d.capacity(), KEEP);
        // Past the floor, the pop that leaves a quarter shrinks to half.
        let mut d: VecDeque<u64> = VecDeque::with_capacity(4 * KEEP);
        d.extend(0..KEEP as u64 + 2);
        d.slim_pop_front();
        assert_eq!(d.capacity(), 4 * KEEP, "over a quarter left: kept");
        d.slim_pop_front();
        assert_eq!(d.capacity(), 2 * KEEP, "a quarter left: halved");
    }

    proptest! {
        /// Random runs of pushes and pops hand back what a plain
        /// `VecDeque` does, and after every pop the buffer holds at
        /// most four slots per entry, or `KEEP` slots.
        #[test]
        fn prop_slim_pops_match_pop_front_and_bound_the_capacity(
            runs in proptest::collection::vec((proptest::bool::ANY, 1usize..300), 1..40),
        ) {
            let mut slim: VecDeque<u32> = VecDeque::new();
            let mut plain: VecDeque<u32> = VecDeque::new();
            let mut next = 0u32;
            for &(push, n) in &runs {
                for _ in 0..n {
                    if push {
                        slim.slim_push(next);
                        plain.push_back(next);
                        next += 1;
                    } else {
                        prop_assert_eq!(slim.slim_pop_front(), plain.pop_front());
                        prop_assert!(slim.capacity() <= KEEP.max(4 * slim.len()));
                    }
                }
            }
            prop_assert!(slim.iter().eq(plain.iter()));
        }
    }
}
