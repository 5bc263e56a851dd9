//! Observability: the engine's event stream and its bounded journal.
//!
//! The engine emits each state transition it reports — batch
//! lifecycle, container boots, reconfigurations, spot-market events —
//! once, as a [`JournalEvent`], to a fixed set of observers: this
//! journal, the auditor's batch life-cycle check and the run tally
//! behind [`crate::SimulationResult`]'s `cold_starts`,
//! `proactive_boots`, `reconfigs`, `geometry_timeline` and
//! `cost.evictions`. When a run's [`crate::Observe::journal_capacity`]
//! is non-zero the journal records them, so a run can be audited after
//! the fact without re-instrumenting the engine. It is bounded: once
//! `capacity` entries are recorded, further events are counted but
//! dropped. No run counter reads it.

use protean_models::ModelId;
use protean_sim::SimTime;

use crate::batch::BatchId;

/// One recorded cluster event.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A batch was sealed at the gateway.
    BatchSealed {
        /// The batch.
        batch: BatchId,
        /// Its model.
        model: ModelId,
        /// Strictness class.
        strict: bool,
        /// Number of requests.
        size: u32,
    },
    /// A batch was dispatched to a worker.
    BatchDispatched {
        /// The batch.
        batch: BatchId,
        /// Destination worker.
        worker: usize,
        /// `true` when this is an eviction orphan re-entering the
        /// dispatcher rather than a freshly sealed batch.
        redispatch: bool,
    },
    /// A batch began executing on a slice.
    BatchPlaced {
        /// The batch.
        batch: BatchId,
        /// The worker.
        worker: usize,
        /// Slice index within the worker's geometry.
        slice: usize,
    },
    /// A batch finished executing.
    BatchFinished {
        /// The batch.
        batch: BatchId,
        /// The worker.
        worker: usize,
    },
    /// A container cold start began.
    ColdStart {
        /// The worker.
        worker: usize,
        /// The model whose pool is booting a container.
        model: ModelId,
    },
    /// Predictive pre-provisioning booted a container ahead of demand.
    ProactiveBoot {
        /// The worker.
        worker: usize,
        /// The model whose pool is booting a container.
        model: ModelId,
    },
    /// A GPU completed a MIG reconfiguration.
    Reconfigured {
        /// The worker.
        worker: usize,
        /// The new geometry in paper notation.
        geometry: String,
    },
    /// A spot VM received an eviction notice.
    EvictionNotice {
        /// The worker.
        worker: usize,
        /// When the VM will be reclaimed.
        evict_at: SimTime,
    },
    /// A worker's VM was reclaimed.
    Evicted {
        /// The worker.
        worker: usize,
    },
    /// A replacement VM came up on a worker slot.
    VmInstalled {
        /// The worker.
        worker: usize,
    },
}

/// A bounded, timestamped journal of [`JournalEvent`]s.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    capacity: usize,
    entries: Vec<(SimTime, JournalEvent)>,
    dropped: u64,
}

impl Journal {
    /// Creates a journal holding at most `capacity` entries
    /// (`capacity == 0` disables recording entirely).
    pub fn new(capacity: usize) -> Self {
        Journal {
            capacity,
            entries: Vec::new(),
            dropped: 0,
        }
    }

    /// Records `event` at `now` (drops it once full).
    #[inline]
    pub fn record(&mut self, now: SimTime, event: JournalEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((now, event));
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded entries, in order.
    pub fn entries(&self) -> &[(SimTime, JournalEvent)] {
        &self.entries
    }

    /// Events that arrived after the journal filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Entries matching a predicate (convenience for tests/analysis).
    pub fn filter<'a, F: Fn(&JournalEvent) -> bool + 'a>(
        &'a self,
        pred: F,
    ) -> impl Iterator<Item = &'a (SimTime, JournalEvent)> + 'a {
        self.entries.iter().filter(move |(_, e)| pred(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_journal_records_nothing() {
        let mut j = Journal::new(0);
        j.record(SimTime::ZERO, JournalEvent::Evicted { worker: 0 });
        assert!(j.entries().is_empty());
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn journal_caps_and_counts_drops() {
        let mut j = Journal::new(2);
        for w in 0..5 {
            j.record(
                SimTime::from_secs(w as f64),
                JournalEvent::Evicted { worker: w },
            );
        }
        assert_eq!(j.entries().len(), 2);
        assert_eq!(j.dropped(), 3);
    }

    #[test]
    fn filter_selects_matching_events() {
        let mut j = Journal::new(16);
        j.record(SimTime::ZERO, JournalEvent::Evicted { worker: 1 });
        j.record(
            SimTime::ZERO,
            JournalEvent::Reconfigured {
                worker: 2,
                geometry: "(4g, 3g)".into(),
            },
        );
        let evictions: Vec<_> = j
            .filter(|e| matches!(e, JournalEvent::Evicted { .. }))
            .collect();
        assert_eq!(evictions.len(), 1);
    }
}
