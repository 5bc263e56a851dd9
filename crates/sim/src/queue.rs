//! Deterministic timestamped event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Explicit ordering key for [`KeyedEventQueue`]: chronological by
/// `time`, then lexicographic on `(major, minor)`.
///
/// An internal tie-break (one FIFO counter per queue) is right only when
/// a single loop owns all pushes. The sharded cluster engine instead has
/// *several* producers pushing into *several* queues between
/// synchronization points, and needs the merged pop order across all of
/// them to reproduce one global FIFO counter's order bit for bit. That
/// only works if the tie-break is part of the event itself: the coordinator allocates `major` from the
/// serial push counter and shards derive `minor` from their phase-local
/// counters, so any two events — regardless of which queue they sit in
/// — compare the same way a single queue's insertion order would have
/// compared them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Fire time.
    pub time: SimTime,
    /// Primary tie-break at equal times (serial push counter).
    pub major: u64,
    /// Secondary tie-break (producer-local counter).
    pub minor: u64,
}

impl EventKey {
    /// The key `(time, major, minor)`.
    pub fn new(time: SimTime, major: u64, minor: u64) -> Self {
        EventKey { time, major, minor }
    }
}

/// A priority queue of [`EventKey`]-stamped events that pops in key
/// order. Ties are broken by the caller-supplied key, not an internal
/// counter — see the [`EventKey`] docs for why the sharded engine needs
/// that.
#[derive(Debug)]
pub struct KeyedEventQueue<E> {
    heap: BinaryHeap<KeyedEntry<E>>,
    pushed: u64,
    popped: u64,
    peak_len: usize,
}

#[derive(Debug)]
struct KeyedEntry<E> {
    key: EventKey,
    event: E,
}

impl<E> PartialEq for KeyedEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for KeyedEntry<E> {}

impl<E> PartialOrd for KeyedEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for KeyedEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap; invert so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}

impl<E> KeyedEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        KeyedEventQueue {
            heap: BinaryHeap::new(),
            pushed: 0,
            popped: 0,
            peak_len: 0,
        }
    }

    /// Schedules `event` under `key`.
    pub fn push(&mut self, key: EventKey, event: E) {
        self.pushed += 1;
        self.heap.push(KeyedEntry { key, event });
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Removes and returns the event with the smallest key.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        let e = self.heap.pop().map(|e| (e.key, e.event));
        if e.is_some() {
            self.popped += 1;
        }
        e
    }

    /// The smallest pending key without removing its event.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|e| e.key)
    }

    /// The smallest pending key and a borrow of its event, without
    /// removing either. The sharded engine's run peeler uses this to
    /// decide whether the next coordinator event is dispatch-shaped (a
    /// window expiry it may admit into the run) before committing to a
    /// pop.
    pub fn peek(&self) -> Option<(EventKey, &E)> {
        self.heap.peek().map(|e| (e.key, &e.event))
    }

    /// `true` if some pending event orders strictly before `bound` —
    /// the phase-participation / run-conflict test of the sharded
    /// cluster engine, which must decide in O(1) per shard whether a
    /// phase bounded at `bound` would have anything to do.
    pub fn has_event_before(&self, bound: EventKey) -> bool {
        self.peek_key().is_some_and(|k| k < bound)
    }

    /// Events pushed over the queue's lifetime.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Events popped over the queue's lifetime.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// The largest heap size ever reached.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for KeyedEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keyed_queue_pops_in_key_order() {
        let mut q = KeyedEventQueue::new();
        let t = SimTime::from_secs(1.0);
        q.push(EventKey::new(t, 2, 0), "serial-2");
        q.push(EventKey::new(t, 1, 1 << 48), "phase-1-shard");
        q.push(EventKey::new(t, 1, 0), "serial-1");
        q.push(EventKey::new(SimTime::ZERO, 9, 9), "earlier-time");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec!["earlier-time", "serial-1", "phase-1-shard", "serial-2"]
        );
        assert_eq!(q.pushed(), 4);
        assert_eq!(q.popped(), 4);
        assert_eq!(q.peak_len(), 4);
    }

    #[test]
    fn has_event_before_is_a_strict_bound() {
        let mut q = KeyedEventQueue::new();
        let t = SimTime::from_secs(1.0);
        assert!(!q.has_event_before(EventKey::new(SimTime::MAX, u64::MAX, u64::MAX)));
        q.push(EventKey::new(t, 3, 5), ());
        assert!(q.has_event_before(EventKey::new(t, 3, 6)));
        // The bound is exclusive: an event exactly at the bound does
        // not participate.
        assert!(!q.has_event_before(EventKey::new(t, 3, 5)));
        assert!(!q.has_event_before(EventKey::new(t, 0, 0)));
        assert!(q.has_event_before(EventKey::new(SimTime::from_secs(2.0), 0, 0)));
    }

    proptest! {
        /// Keyed pops are a total order on (time, major, minor).
        #[test]
        fn prop_keyed_total_order(keys in proptest::collection::vec((0u64..50, 0u64..8, 0u64..8), 1..200)) {
            let mut q = KeyedEventQueue::new();
            for &(t, a, b) in &keys {
                q.push(EventKey::new(SimTime::from_micros(t), a, b), ());
            }
            let mut last: Option<EventKey> = None;
            while let Some((k, ())) = q.pop() {
                if let Some(lk) = last {
                    prop_assert!(k >= lk);
                }
                last = Some(k);
            }
        }
    }
}
