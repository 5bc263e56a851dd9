//! Request batches and the per-`(model, strictness)` batch accumulators.

use protean_models::ModelId;
use protean_sim::SimTime;
use protean_trace::Request;

/// Identifier of a batch; doubles as the GPU-level `JobId` payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BatchId(pub u64);

/// A sealed batch of same-model, same-strictness requests moving through
/// the worker pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Unique id (also used as the GPU job id).
    pub id: BatchId,
    /// The model every request in the batch invokes.
    pub model: ModelId,
    /// Strictness class of the batch.
    pub strict: bool,
    /// The member requests (their arrivals are all that metrics need).
    pub requests: Vec<Request>,
    /// When the batch was sealed.
    pub sealed_at: SimTime,
    /// Cold-start wait on this batch's critical path, ms (set when the
    /// batch had to wait for a container boot).
    pub cold_wait_ms: f64,
    /// `true` once the batch has been orphaned by an eviction and sent
    /// through the dispatcher again. Re-dispatches must not re-count the
    /// batch in per-window load statistics.
    pub redispatched: bool,
}

impl Batch {
    /// Number of member requests.
    pub fn size(&self) -> u32 {
        self.requests.len() as u32
    }
}

/// Accumulates requests for one `(model, strict)` key until the batch is
/// full or its window expires.
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    pending: Vec<Request>,
    /// Bumped every time a batch is sealed; stale window-expiry events
    /// carry the old value and are ignored.
    pub seal_seq: u64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator::default()
    }

    /// Adds a request to a batch of at most `batch_size`; returns `true`
    /// if this was the first pending request (so the caller should arm a
    /// window-expiry timer). The first request sizes the batch for
    /// `batch_size`, so filling it never regrows it.
    pub fn push(&mut self, request: Request, batch_size: u32) -> bool {
        let first = self.pending.is_empty();
        if first {
            self.pending.reserve_exact(batch_size as usize);
        }
        self.pending.push(request);
        first
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// `true` if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Seals and returns the pending requests (empties the accumulator
    /// and bumps `seal_seq`).
    pub fn seal(&mut self) -> Vec<Request> {
        self.seal_seq += 1;
        std::mem::take(&mut self.pending)
    }

    /// Drains pending requests without sealing semantics (used when a
    /// worker is evicted and its requests are re-dispatched).
    pub fn drain(&mut self) -> Vec<Request> {
        self.seal_seq += 1;
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(at_ms: u64) -> Request {
        Request {
            arrival: SimTime::from_millis(at_ms as f64),
            model: ModelId::ResNet50,
            strict: true,
        }
    }

    #[test]
    fn first_push_signals_timer() {
        let mut a = Accumulator::new();
        assert!(a.push(req(0), 4));
        assert!(!a.push(req(1), 4));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn a_batch_is_sized_once_on_its_first_push() {
        let mut a = Accumulator::new();
        for round in 0..2 {
            for i in 0..128 {
                a.push(req(i), 128);
                assert_eq!(a.pending.capacity(), 128, "round {round}, push {i}");
            }
            assert_eq!(a.seal().capacity(), 128);
        }
    }

    #[test]
    fn seal_empties_and_bumps_seq() {
        let mut a = Accumulator::new();
        a.push(req(0), 4);
        a.push(req(1), 4);
        let s0 = a.seal_seq;
        let sealed = a.seal();
        assert_eq!(sealed.len(), 2);
        assert!(a.is_empty());
        assert_eq!(a.seal_seq, s0 + 1);
        // Second seal returns empty but still bumps.
        assert!(a.seal().is_empty());
        assert_eq!(a.seal_seq, s0 + 2);
    }

    #[test]
    fn batch_size_counts_requests() {
        let b = Batch {
            id: BatchId(1),
            model: ModelId::MobileNet,
            strict: false,
            requests: vec![req(0), req(1), req(2)],
            sealed_at: SimTime::ZERO,
            cold_wait_ms: 0.0,
            redispatched: false,
        };
        assert_eq!(b.size(), 3);
    }
}
