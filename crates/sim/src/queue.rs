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
//!
//! A push returns the event's [`EventHandle`], its slab slot, which
//! [`KeyedEventQueue::cancel`] empties. The entry leaves the heap when it
//! reaches the root, and only then is the slot reused, so a handle names
//! one event for as long as that event is pending.

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

/// A pending event's slab slot, returned by [`KeyedEventQueue::push`]
/// and taken by [`KeyedEventQueue::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle(u32);

/// A priority queue of [`EventKey`]-stamped events that pops in
/// `(time, major)` order; see the [module docs](self).
#[derive(Debug)]
pub struct KeyedEventQueue<E> {
    /// Packed entries in heap order, cancelled ones included.
    keys: Vec<u128>,
    /// Payloads, addressed by the slot in each entry's low bits; `None`
    /// for a vacant slot or a cancelled event.
    slab: Vec<Option<E>>,
    /// Vacant slab slots, reused before the slab grows.
    free: Vec<u32>,
    /// Cancelled entries still in the heap.
    cancelled: usize,
    /// The most entries the heap ever held.
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
            cancelled: 0,
            peak_len: 0,
        }
    }

    /// Schedules `event` under `key` and returns its handle.
    ///
    /// # Panics
    ///
    /// If `key.minor` is not 0, `key.major` is `2^40` or more, or the
    /// heap already holds `2^24` entries.
    #[inline]
    pub fn push(&mut self, key: EventKey, event: E) -> EventHandle {
        let slot = self.free.pop().map_or(self.slab.len(), |s| s as usize);
        let entry = pack(key, slot);
        if slot < self.slab.len() {
            self.slab[slot] = Some(event);
        } else {
            self.slab.push(Some(event));
        }
        sift_up(&mut self.keys, entry);
        self.peak_len = self.peak_len.max(self.keys.len());
        EventHandle(slot as u32)
    }

    /// Unschedules the pending event `handle` names and returns it; its
    /// entry leaves the heap at the root. Panics if it is not pending.
    #[inline]
    pub fn cancel(&mut self, handle: EventHandle) -> E {
        self.cancelled += 1;
        let event = self.slab[handle.0 as usize].take();
        event.expect("cancel of an event that is not pending")
    }

    /// The event `handle` names, if it is pending.
    pub fn get(&self, handle: EventHandle) -> Option<&E> {
        self.slab.get(handle.0 as usize)?.as_ref()
    }

    /// Removes the root entry and frees its slot.
    #[inline]
    fn remove_root(&mut self) -> Option<u128> {
        let last = self.keys.pop()?;
        let top = match self.keys.first() {
            Some(&top) => {
                sift_down(&mut self.keys, last);
                top
            }
            None => last,
        };
        self.free.push(slot_of(top));
        Some(top)
    }

    /// Removes and returns the pending event with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        let key = self.peek_key()?;
        let slot = slot_of(self.remove_root()?);
        Some((key, self.slab[slot as usize].take().expect("pending root")))
    }

    /// The smallest pending key without removing its event. Cancelled
    /// entries that lead the heap leave it here.
    #[inline]
    pub fn peek_key(&mut self) -> Option<EventKey> {
        while let Some(&top) = self.keys.first() {
            if self.slab[slot_of(top) as usize].is_some() {
                return Some(key_of(top));
            }
            self.remove_root();
            self.cancelled -= 1;
        }
        None
    }

    /// The most entries the heap ever held, cancelled ones included.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.keys.len() - self.cancelled
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    #[test]
    fn a_cancelled_event_never_surfaces_and_keeps_its_slot_until_its_entry_leaves() {
        let mut q = KeyedEventQueue::new();
        let key = |at, major| EventKey::new(SimTime::from_micros(at), major, 0);
        let first = q.push(key(1, 1), "first");
        let second = q.push(key(2, 2), "second");
        q.push(key(3, 3), "third");
        assert_eq!(q.cancel(first), "first");
        assert_eq!((q.get(first), q.get(second)), (None, Some(&"second")));
        assert_eq!(q.len(), 2);
        // The cancelled entry still holds its slot, so a push takes a
        // fresh one.
        let fourth = q.push(key(0, 4), "fourth");
        assert_eq!((fourth, q.slab.len()), (EventHandle(3), 4));
        assert_eq!(q.peek_key(), Some(key(0, 4)));
        assert_eq!(q.pop(), Some((key(0, 4), "fourth")));
        // The cancelled entry leads now: the peek drops it and frees its
        // slot, which the next push reuses.
        assert_eq!(q.peek_key(), Some(key(2, 2)));
        assert_eq!(q.push(key(5, 5), "fifth"), first);
        assert_eq!(q.cancel(second), "second");
        assert_eq!(q.peek_key(), Some(key(3, 3)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["third", "fifth"]);
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 4);
    }

    #[test]
    #[should_panic(expected = "cancel of an event that is not pending")]
    fn a_popped_event_cannot_be_cancelled() {
        let mut q = KeyedEventQueue::new();
        let handle = q.push(EventKey::new(SimTime::ZERO, 1, 0), ());
        q.pop();
        q.cancel(handle);
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

        /// Pushes, pops, holds (pop one, push one later, as `perf`'s
        /// probe does) and cancels at a handful of distinct times hand
        /// back exactly the payloads of a sorted reference that drops
        /// each cancelled key, in its `(time, major)` order, and the slab
        /// never outgrows the heap's peak length.
        #[test]
        fn prop_pops_follow_time_then_push_order(
            ops in proptest::collection::vec((0u64..6, 0u32..6), 1..400),
        ) {
            let mut q = KeyedEventQueue::new();
            let mut model: BTreeMap<(u64, u64), (String, EventHandle)> = BTreeMap::new();
            let mut major = 0;
            let mut peak = 0;
            let pop = |q: &mut KeyedEventQueue<String>| {
                q.pop().map(|(k, e)| ((k.time.as_micros(), k.major), e))
            };
            for (time, op) in ops {
                // Three pushes to every pop, hold or cancel, so the heap
                // grows several levels.
                let at = match op {
                    0..3 => Some(time),
                    5 => {
                        // Cancel the pending event `time` picks.
                        let nth = model.keys().nth(time as usize % model.len().max(1)).copied();
                        if let Some((_, (name, handle))) = nth.and_then(|k| model.remove_entry(&k)) {
                            prop_assert_eq!(q.cancel(handle), name);
                        }
                        None
                    }
                    _ => {
                        let want = model.pop_first().map(|(k, (name, _))| (k, name));
                        prop_assert_eq!(
                            q.peek_key(),
                            want.as_ref().map(|&((t, m), _)| EventKey::new(SimTime::from_micros(t), m, 0))
                        );
                        prop_assert_eq!(&pop(&mut q), &want);
                        // A hold pushes one event `time` after the one it popped.
                        want.filter(|_| op == 4).map(|((t, _), _)| t + time)
                    }
                };
                if let Some(t) = at {
                    major += 1;
                    let handle = q.push(EventKey::new(SimTime::from_micros(t), major, 0), format!("ev{major}"));
                    model.insert((t, major), (format!("ev{major}"), handle));
                }
                peak = peak.max(model.len());
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.slab.len(), q.peak_len());
                prop_assert!(q.peak_len() >= peak);
            }
            while let Some((k, (name, _))) = model.pop_first() {
                prop_assert_eq!(pop(&mut q), Some((k, name)));
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert!(q.is_empty());
        }
    }
}
