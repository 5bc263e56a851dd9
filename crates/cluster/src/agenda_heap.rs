//! The event loop's heap: a 4-ary min-heap of 16-byte packed keys.
//!
//! An entry is one `u128`: the fire time in microseconds in the upper
//! 64 bits, and `seq << 24 | slot` in the lower 64, where `seq` is the
//! run-wide push counter and `slot` the slab slot holding the event's
//! payload. `seq` is unique per push, so the integer order of the
//! entries is exactly the `(time, seq)` order, and the slot never
//! decides a comparison. Both packing bounds (`seq < 2^40`, `slot <
//! 2^24`) are asserted on every push, in release builds too.
//!
//! Four children per node halve the depth of a binary heap, and a sift
//! moves the displaced entry through a hole instead of swapping. At
//! 51,745 pending events (the 50,000-worker fleet's peak) the heap is
//! 0.8 MB, small enough to share the cache with the dispatch index.

use protean_sim::{EventKey, SimTime};

/// Bits of the lower half that hold the slab slot.
const SLOT_BITS: u32 = 24;

/// Bits of the lower half that hold the push counter.
const SEQ_BITS: u32 = 64 - SLOT_BITS;

/// Children per node.
const ARITY: usize = 4;

/// A min-heap of `(time, seq, slot)` entries that pops in `(time, seq)`
/// order; see the [module docs](self).
#[derive(Default)]
pub(crate) struct AgendaHeap {
    keys: Vec<u128>,
    /// The largest length ever reached.
    peak_len: usize,
}

/// Packs one entry.
///
/// # Panics
///
/// If `seq` needs more than 40 bits or `slot` more than 24.
fn pack(time: SimTime, seq: u64, slot: u32) -> u128 {
    assert!(
        seq < 1 << SEQ_BITS,
        "push counter {seq} does not fit the heap key's {SEQ_BITS} bits"
    );
    assert!(
        slot < 1 << SLOT_BITS,
        "slab slot {slot} does not fit the heap key's {SLOT_BITS} bits"
    );
    u128::from(time.as_micros()) << 64 | u128::from(seq << SLOT_BITS | u64::from(slot))
}

/// The `(time, seq, 0)` key an entry was pushed under.
fn key_of(entry: u128) -> EventKey {
    let time = SimTime::from_micros((entry >> 64) as u64);
    EventKey::new(time, entry as u64 >> SLOT_BITS, 0)
}

/// The slab slot an entry names.
fn slot_of(entry: u128) -> u32 {
    (entry as u32) & ((1 << SLOT_BITS) - 1)
}

impl AgendaHeap {
    /// Schedules the payload in `slot` at `time` under push number `seq`.
    pub(crate) fn push(&mut self, time: SimTime, seq: u64, slot: u32) {
        let entry = pack(time, seq, slot);
        let keys = &mut self.keys;
        let mut hole = keys.len();
        keys.push(entry);
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            if keys[parent] < entry {
                break;
            }
            keys[hole] = keys[parent];
            hole = parent;
        }
        keys[hole] = entry;
        self.peak_len = self.peak_len.max(keys.len());
    }

    /// The smallest pending key.
    pub(crate) fn peek_key(&self) -> Option<EventKey> {
        self.keys.first().map(|&e| key_of(e))
    }

    /// Removes the smallest entry; returns its key and slab slot.
    pub(crate) fn pop(&mut self) -> Option<(EventKey, u32)> {
        let last = self.keys.pop()?;
        let keys = &mut self.keys;
        let Some(&top) = keys.first() else {
            return Some((key_of(last), slot_of(last)));
        };
        // Sift `last` down from the root's hole.
        let len = keys.len();
        let mut hole = 0;
        loop {
            let first = ARITY * hole + 1;
            if first >= len {
                break;
            }
            let kids = &keys[first..(first + ARITY).min(len)];
            let (mut child, mut min) = (first, kids[0]);
            for (i, &k) in kids.iter().enumerate().skip(1) {
                if k < min {
                    (child, min) = (first + i, k);
                }
            }
            if last < min {
                break;
            }
            keys[hole] = min;
            hole = child;
        }
        keys[hole] = last;
        Some((key_of(top), slot_of(top)))
    }

    /// Pending entries.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The largest length ever reached.
    pub(crate) fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn a_key_round_trips_through_its_packing() {
        let time = SimTime::from_micros(u64::MAX);
        let entry = pack(time, (1 << SEQ_BITS) - 1, (1 << SLOT_BITS) - 1);
        assert_eq!(key_of(entry), EventKey::new(time, (1 << SEQ_BITS) - 1, 0));
        assert_eq!(slot_of(entry), (1 << SLOT_BITS) - 1);
    }

    #[test]
    #[should_panic(expected = "push counter 1099511627776 does not fit")]
    fn a_push_counter_past_40_bits_is_refused() {
        AgendaHeap::default().push(SimTime::ZERO, 1 << SEQ_BITS, 0);
    }

    #[test]
    #[should_panic(expected = "slab slot 16777216 does not fit")]
    fn a_slab_slot_past_24_bits_is_refused() {
        AgendaHeap::default().push(SimTime::ZERO, 1, 1 << SLOT_BITS);
    }

    proptest! {
        /// Pushes and pops interleaved at a handful of distinct times pop
        /// in exactly the `(time, seq)` order of a sorted reference, with
        /// each entry's own slot.
        #[test]
        fn prop_pops_follow_time_then_push_order(
            ops in proptest::collection::vec((0u64..6, 0u32..3), 1..400),
        ) {
            let mut heap = AgendaHeap::default();
            let mut model: Vec<(u64, u64, u32)> = Vec::new();
            let mut seq = 0;
            let mut peak = 0;
            for (time, op) in ops {
                // Two pushes to every pop, so the heap grows several levels.
                if op < 2 {
                    seq += 1;
                    let slot = (seq as u32 * 7919) % (1 << SLOT_BITS);
                    heap.push(SimTime::from_micros(time), seq, slot);
                    model.push((time, seq, slot));
                    model.sort_unstable_by(|a, b| b.cmp(a));
                } else {
                    let want = model.pop().map(|(t, s, slot)| {
                        (EventKey::new(SimTime::from_micros(t), s, 0), slot)
                    });
                    prop_assert_eq!(heap.peek_key(), want.map(|(k, _)| k));
                    prop_assert_eq!(heap.pop(), want);
                }
                peak = peak.max(model.len());
                prop_assert_eq!(heap.len(), model.len());
            }
            while let Some((t, s, slot)) = model.pop() {
                let want = (EventKey::new(SimTime::from_micros(t), s, 0), slot);
                prop_assert_eq!(heap.pop(), Some(want));
            }
            prop_assert_eq!(heap.pop(), None);
            prop_assert_eq!(heap.peak_len(), peak);
        }
    }
}
