//! Deterministic timestamped event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Explicit ordering key for [`KeyedEventQueue`]: chronological by
/// `time`, then lexicographic on `(major, minor)`.
///
/// The tie-break is the caller's, not the queue's: the cluster engine
/// takes `major` from its run-wide push counter (and leaves `minor` at
/// 0), so equal-time events pop in push order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Fire time.
    pub time: SimTime,
    /// Primary tie-break at equal times (the push counter).
    pub major: u64,
    /// Secondary tie-break.
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
/// counter (see [`EventKey`]).
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
        q.push(EventKey::new(t, 2, 0), "push-2");
        q.push(EventKey::new(t, 1, 1), "minor-breaks-major-tie");
        q.push(EventKey::new(t, 1, 0), "push-1");
        q.push(EventKey::new(SimTime::ZERO, 9, 9), "earlier-time");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec!["earlier-time", "push-1", "minor-breaks-major-tie", "push-2"]
        );
        assert_eq!(q.pushed(), 4);
        assert_eq!(q.popped(), 4);
        assert_eq!(q.peak_len(), 4);
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
