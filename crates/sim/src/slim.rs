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
//! # Example
//!
//! ```
//! use protean_sim::SlimPush;
//!
//! let mut v = Vec::new();
//! v.slim_push(7);
//! assert_eq!(v.capacity(), 1);
//! v.slim_push(8);
//! v.slim_push(9);
//! assert_eq!(v.capacity(), 4);
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
}
