//! Request batches and the per-`(model, strictness)` batch accumulators.

use std::ops::Deref;

use protean_models::ModelId;
use protean_sim::{EventHandle, SimTime};
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
    /// one run, inline.
    pub runs: Runs,
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

    /// What `Scheme::place` sees of the batch.
    pub fn view(&self) -> crate::BatchView {
        crate::BatchView {
            model: self.model,
            strict: self.strict,
            size: self.size(),
        }
    }
}

/// A batch's arrival runs: one run inline, so that a batch filled by one
/// batch arrival owns no heap block, or several in a vector. Reads as a
/// slice of runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Runs {
    /// Exactly one run.
    One(Run),
    /// Any other number of runs (an empty batch holds none).
    Many(Vec<Run>),
}

impl Deref for Runs {
    type Target = [Run];

    fn deref(&self) -> &[Run] {
        match self {
            Runs::One(run) => std::slice::from_ref(run),
            Runs::Many(runs) => runs,
        }
    }
}

/// Accumulates arrival runs for one `(model, strict)` key until the
/// batch is full or its window expires.
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    pending: Vec<Run>,
    /// Requests in `pending`.
    len: u32,
    /// The open batch's armed window expiry, cancelled if it fills first.
    pub(crate) window: Option<EventHandle>,
}

impl Accumulator {
    /// Adds a run of requests; returns `true` if it is the first pending
    /// run, which opens the batch (the caller arms its window-expiry
    /// timer unless the run also filled it). The buffer starts at one
    /// slot, which is all a batch filled by one batch arrival needs.
    pub fn push(&mut self, run: Run) -> bool {
        let first = self.pending.is_empty();
        if self.pending.capacity() == 0 {
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

    /// Seals and returns the pending runs (empties the accumulator). The
    /// buffer stays for the next batch: one run leaves inline, several
    /// leave in a vector of their own.
    pub fn seal(&mut self) -> Runs {
        self.len = 0;
        let runs = match self.pending[..] {
            [run] => Runs::One(run),
            _ => Runs::Many(self.pending.to_vec()),
        };
        self.pending.clear();
        runs
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
        let mut a = Accumulator::default();
        assert!(a.push(run(0, 1)));
        assert!(!a.push(run(1, 3)));
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn a_batch_is_sized_once_on_its_first_push() {
        let mut a = Accumulator::default();
        for round in 0..2 {
            a.push(run(round, 128));
            assert_eq!(a.pending.capacity(), 1, "round {round}");
            assert_eq!(a.seal().len(), 1);
        }
    }

    #[test]
    fn a_batch_sealed_from_one_run_owns_no_heap_block() {
        let mut a = Accumulator::default();
        a.push(run(0, 8));
        assert_eq!(a.seal(), Runs::One(run(0, 8)));
        // Two runs leave in a vector that fits them exactly.
        a.push(run(1, 3));
        a.push(run(2, 5));
        match a.seal() {
            Runs::Many(runs) => assert_eq!((runs.len(), runs.capacity()), (2, 2)),
            one => panic!("two runs sealed as {one:?}"),
        }
    }

    #[test]
    fn the_accumulator_keeps_one_slot_across_seals() {
        let mut a = Accumulator::default();
        a.push(run(0, 8));
        let slot = a.pending.as_ptr();
        for round in 1..4 {
            a.seal();
            a.push(run(round, 8));
            assert_eq!(a.pending.as_ptr(), slot, "round {round}");
            assert_eq!(a.pending.capacity(), 1);
        }
    }

    #[test]
    fn a_batch_is_56_bytes() {
        assert_eq!(std::mem::size_of::<Runs>(), 24);
        assert_eq!(std::mem::size_of::<Batch>(), 56);
    }

    proptest::proptest! {
        /// Sealing k pushed runs returns exactly those runs, in order,
        /// and counts their requests.
        #[test]
        fn prop_seal_returns_the_pushed_runs_in_order(
            lens in proptest::collection::vec(1u32..64, 1..=8),
        ) {
            let mut a = Accumulator::default();
            let pushed: Vec<Run> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| run(i as u64, len))
                .collect();
            for &r in &pushed {
                a.push(r);
            }
            proptest::prop_assert_eq!(a.len(), lens.iter().sum::<u32>());
            let sealed = a.seal();
            proptest::prop_assert_eq!(&sealed[..], &pushed[..]);
            proptest::prop_assert_eq!(matches!(sealed, Runs::One(_)), pushed.len() == 1);
            proptest::prop_assert!(a.is_empty());
        }
    }

    #[test]
    fn seal_empties_the_accumulator() {
        let mut a = Accumulator::default();
        a.push(run(0, 2));
        a.push(run(1, 1));
        let sealed = a.seal();
        assert_eq!(sealed.len(), 2);
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
        // A second seal returns nothing.
        assert!(a.seal().is_empty());
    }

    #[test]
    fn batch_size_counts_requests() {
        let b = Batch {
            id: BatchId(1),
            model: ModelId::MobileNet,
            strict: false,
            runs: Runs::Many(vec![run(0, 1), run(1, 2)]),
            sealed_at: SimTime::ZERO,
            cold_wait_ms: 0.0,
            redispatched: false,
        };
        assert_eq!(b.size(), 3);
    }
}
