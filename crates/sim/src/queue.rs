//! The simulation's event queue: a 4-ary min-heap of 16-byte packed
//! keys over a slab of payloads.
//!
//! A heap entry is one `u128`: the fire time in microseconds in the
//! upper 64 bits, and `major << 24 | slot` in the lower 64, where `slot`
//! is the slab slot holding the event's payload. The integer order of
//! the entries is therefore the `(time, major)` order, and the slot
//! decides only between equal `(time, major)` keys. Every push asserts
//! both packing bounds (`major < 2^40`, `slot < 2^24`) and that the
//! key's unused `minor` is 0, in release builds too.
//!
//! Four children per node halve the depth of a binary heap, and a sift
//! moves the displaced entry through a hole instead of swapping, so a
//! level costs one 16-byte move. A popped event's slot goes on a free
//! list and is reused before the slab grows, so the slab never holds
//! more slots than the queue's peak length. At 51,745 pending events
//! (the 50,000-worker fleet's peak) the heap is 0.8 MB, small enough to
//! share the cache with the cluster engine's dispatch index.

use crate::time::SimTime;

/// Ordering key for [`KeyedEventQueue`]: chronological by `time`, then
/// by `major`.
///
/// The tie-break is the caller's, not the queue's: the cluster engine
/// takes `major` from its run-wide push counter, so equal-time events
/// pop in push order. Keys equal in both `time` and `major` pop in an
/// order that is deterministic but not first-in first-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Fire time.
    pub time: SimTime,
    /// Tie-break at equal times (the push counter); below `2^40`.
    pub major: u64,
    /// Always 0; the queue refuses any other value. The field outlives
    /// its use only because the benchmark driver in `perf/` still builds
    /// keys with `EventKey::new(time, major, 0)`; it goes when that
    /// driver next changes.
    pub minor: u64,
}

impl EventKey {
    /// The key `(time, major, minor)`; a queue accepts it only with
    /// `minor == 0`.
    pub fn new(time: SimTime, major: u64, minor: u64) -> Self {
        EventKey { time, major, minor }
    }
}

/// Bits of an entry's lower half that hold the slab slot.
const SLOT_BITS: u32 = 24;

/// Bits of an entry's lower half that hold the key's `major`.
const MAJOR_BITS: u32 = 64 - SLOT_BITS;

/// Children per heap node.
const ARITY: usize = 4;

/// A priority queue of [`EventKey`]-stamped events that pops in
/// `(time, major)` order; see the [module docs](self).
#[derive(Debug)]
pub struct KeyedEventQueue<E> {
    /// Packed entries in heap order.
    keys: Vec<u128>,
    /// Payloads, addressed by the slot in each entry's low bits.
    slab: Vec<Option<E>>,
    /// Vacant slab slots, reused before the slab grows.
    free: Vec<u32>,
    /// The largest length ever reached.
    peak_len: usize,
}

// The release profile has no LTO, so the non-generic helpers below are
// `#[inline]`: otherwise every push and pop of a caller in another
// crate, such as the cluster engine, would call into this one. The
// queue's `push`, `pop` and `peek_key` are marked too, so the engine
// inlines them into its own push and pop.

/// Packs one entry.
///
/// # Panics
///
/// If `key.minor` is not 0, `key.major` needs more than 40 bits or
/// `slot` more than 24.
#[inline]
fn pack(key: EventKey, slot: usize) -> u128 {
    let EventKey { time, major, minor } = key;
    assert!(minor == 0, "event key minor {minor} is not 0");
    assert!(
        major < 1 << MAJOR_BITS,
        "event key major {major} does not fit the heap key's {MAJOR_BITS} bits"
    );
    assert!(
        slot < 1 << SLOT_BITS,
        "slab slot {slot} does not fit the heap key's {SLOT_BITS} bits"
    );
    u128::from(time.as_micros()) << 64 | u128::from(major << SLOT_BITS | slot as u64)
}

/// The `(time, major, 0)` key an entry was pushed under.
#[inline]
fn key_of(entry: u128) -> EventKey {
    let time = SimTime::from_micros((entry >> 64) as u64);
    EventKey::new(time, entry as u64 >> SLOT_BITS, 0)
}

/// The slab slot an entry names.
#[inline]
fn slot_of(entry: u128) -> u32 {
    (entry as u32) & ((1 << SLOT_BITS) - 1)
}

/// Appends `entry` to the heap `keys` and sifts it up.
#[inline]
fn sift_up(keys: &mut Vec<u128>, entry: u128) {
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
}

/// Overwrites the root of the non-empty heap `keys` by sifting `entry`
/// down from it.
#[inline]
fn sift_down(keys: &mut [u128], entry: u128) {
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
        if entry < min {
            break;
        }
        keys[hole] = min;
        hole = child;
    }
    keys[hole] = entry;
}

impl<E> KeyedEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        KeyedEventQueue {
            keys: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            peak_len: 0,
        }
    }

    /// Schedules `event` under `key`.
    ///
    /// # Panics
    ///
    /// If `key.minor` is not 0, `key.major` is `2^40` or more, or the
    /// queue already holds `2^24` events.
    #[inline]
    pub fn push(&mut self, key: EventKey, event: E) {
        let slot = self.free.pop().map_or(self.slab.len(), |s| s as usize);
        let entry = pack(key, slot);
        if slot < self.slab.len() {
            self.slab[slot] = Some(event);
        } else {
            self.slab.push(Some(event));
        }
        sift_up(&mut self.keys, entry);
        self.peak_len = self.peak_len.max(self.keys.len());
    }

    /// Removes and returns the event with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        let last = self.keys.pop()?;
        let top = match self.keys.first() {
            Some(&top) => {
                sift_down(&mut self.keys, last);
                top
            }
            None => last,
        };
        let slot = slot_of(top);
        self.free.push(slot);
        let event = self.slab[slot as usize].take().expect("live slab slot");
        Some((key_of(top), event))
    }

    /// The smallest pending key without removing its event.
    #[inline]
    pub fn peek_key(&self) -> Option<EventKey> {
        self.keys.first().map(|&e| key_of(e))
    }

    /// The largest number of pending events ever reached.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

impl<E> Default for KeyedEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keyed_queue_pops_in_key_order() {
        let mut q = KeyedEventQueue::new();
        let t = SimTime::from_secs(1.0);
        q.push(EventKey::new(t, 2, 0), "push-2");
        q.push(EventKey::new(t, 1, 0), "push-1");
        q.push(EventKey::new(SimTime::ZERO, 9, 0), "earlier-time");
        assert_eq!(q.peek_key(), Some(EventKey::new(SimTime::ZERO, 9, 0)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["earlier-time", "push-1", "push-2"]);
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 3);
    }

    #[test]
    fn a_key_round_trips_through_its_packing() {
        let key = EventKey::new(SimTime::from_micros(u64::MAX), (1 << MAJOR_BITS) - 1, 0);
        let entry = pack(key, (1 << SLOT_BITS) - 1);
        assert_eq!(key_of(entry), key);
        assert_eq!(slot_of(entry), (1 << SLOT_BITS) - 1);
    }

    #[test]
    #[should_panic(expected = "event key major 1099511627776 does not fit")]
    fn a_push_counter_past_40_bits_is_refused() {
        KeyedEventQueue::new().push(EventKey::new(SimTime::ZERO, 1 << MAJOR_BITS, 0), ());
    }

    #[test]
    #[should_panic(expected = "slab slot 16777216 does not fit")]
    fn a_slab_slot_past_24_bits_is_refused() {
        pack(EventKey::new(SimTime::ZERO, 1, 0), 1 << SLOT_BITS);
    }

    #[test]
    #[should_panic(expected = "event key minor 1 is not 0")]
    fn a_non_zero_minor_is_refused() {
        KeyedEventQueue::new().push(EventKey::new(SimTime::ZERO, 1, 1), ());
    }

    proptest! {
        /// Keyed pops are a total order on `(time, major)`.
        #[test]
        fn prop_keyed_total_order(keys in proptest::collection::vec((0u64..50, 0u64..8), 1..200)) {
            let mut q = KeyedEventQueue::new();
            for &(t, a) in &keys {
                q.push(EventKey::new(SimTime::from_micros(t), a, 0), ());
            }
            let mut last: Option<EventKey> = None;
            while let Some((k, ())) = q.pop() {
                if let Some(lk) = last {
                    prop_assert!(k >= lk);
                }
                last = Some(k);
            }
        }

        /// Pushes, pops and holds (pop one, push one later, as `perf`'s
        /// probe does) at a handful of distinct times hand back exactly
        /// the payloads of a sorted reference, in its `(time, major)`
        /// order, and the slab never outgrows the queue's peak length.
        #[test]
        fn prop_pops_follow_time_then_push_order(
            ops in proptest::collection::vec((0u64..6, 0u32..4), 1..400),
        ) {
            let mut q = KeyedEventQueue::new();
            let mut model: BTreeMap<(u64, u64), String> = BTreeMap::new();
            let mut major = 0;
            let mut peak = 0;
            for (time, op) in ops {
                // Two pushes to every pop or hold, so the heap grows
                // several levels.
                let at = if op < 2 {
                    Some(time)
                } else {
                    let want = model.pop_first();
                    prop_assert_eq!(
                        q.peek_key(),
                        want.as_ref().map(|&((t, m), _)| EventKey::new(SimTime::from_micros(t), m, 0))
                    );
                    let got = q.pop().map(|(k, e)| ((k.time.as_micros(), k.major), e));
                    prop_assert_eq!(&got, &want);
                    // A hold pushes one event `time` after the one it popped.
                    want.filter(|_| op == 3).map(|((t, _), _)| t + time)
                };
                if let Some(t) = at {
                    major += 1;
                    q.push(EventKey::new(SimTime::from_micros(t), major, 0), format!("ev{major}"));
                    model.insert((t, major), format!("ev{major}"));
                }
                peak = peak.max(model.len());
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.slab.len(), peak);
            }
            while let Some(want) = model.pop_first() {
                let got = q.pop().map(|(k, e)| ((k.time.as_micros(), k.major), e));
                prop_assert_eq!(got, Some(want));
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert_eq!(q.peak_len(), peak);
        }
    }
}
