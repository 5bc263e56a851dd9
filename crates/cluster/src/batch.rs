//! Request batches and the per-`(model, strictness)` batch accumulators.

use protean_models::ModelId;
use protean_sim::SimTime;
use protean_trace::Run;

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
    /// The member requests as arrival runs, in order (their arrivals are
    /// all that metrics need). A batch filled by one batch arrival holds
    /// one run.
    pub runs: Vec<Run>,
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
        self.runs.iter().map(|r| r.len).sum()
    }
}

/// Accumulates arrival runs for one `(model, strict)` key until the
/// batch is full or its window expires.
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    pending: Vec<Run>,
    /// Requests in `pending`.
    len: u32,
    /// Bumped every time a batch is sealed; stale window-expiry events
    /// carry the old value and are ignored.
    pub seal_seq: u64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator::default()
    }

    /// Adds a run of requests; returns `true` if it is the first pending
    /// run, which opens the batch (the caller arms its window-expiry
    /// timer unless the run also filled it). The first run sizes the
    /// batch for one run, which is all a batch filled by one batch
    /// arrival needs.
    pub fn push(&mut self, run: Run) -> bool {
        let first = self.pending.is_empty();
        if first {
            self.pending.reserve_exact(1);
        }
        self.pending.push(run);
        self.len += run.len;
        first
    }

    /// Number of pending requests.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// `true` if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Seals and returns the pending runs (empties the accumulator and
    /// bumps `seal_seq`).
    pub fn seal(&mut self) -> Vec<Run> {
        self.seal_seq += 1;
        self.len = 0;
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(at_ms: u64, len: u32) -> Run {
        Run {
            arrival: SimTime::from_millis(at_ms as f64),
            model: ModelId::ResNet50,
            strict: true,
            len,
        }
    }

    #[test]
    fn first_push_signals_timer() {
        let mut a = Accumulator::new();
        assert!(a.push(run(0, 1)));
        assert!(!a.push(run(1, 3)));
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn a_batch_is_sized_once_on_its_first_push() {
        let mut a = Accumulator::new();
        for round in 0..2 {
            a.push(run(round, 128));
            assert_eq!(a.pending.capacity(), 1, "round {round}");
            assert_eq!(a.seal().capacity(), 1);
        }
    }

    #[test]
    fn seal_empties_and_bumps_seq() {
        let mut a = Accumulator::new();
        a.push(run(0, 2));
        a.push(run(1, 1));
        let s0 = a.seal_seq;
        let sealed = a.seal();
        assert_eq!(sealed.len(), 2);
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
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
            runs: vec![run(0, 1), run(1, 2)],
            sealed_at: SimTime::ZERO,
            cold_wait_ms: 0.0,
            redispatched: false,
        };
        assert_eq!(b.size(), 3);
    }
}
