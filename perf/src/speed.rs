//! Host-speed calibration. The benchmark host is shared with other
//! tenants, and its speed drifts: on the 2-vCPU host of the baseline one
//! `soak-256` run took 1.85 to 2.42 s over one minute, and 1.28 to 1.47 s
//! over another minute half an hour later, with no time stolen from the
//! process (its CPU time tracked its wall time). Ten-seed spreads of raw
//! throughput reached 0.28. So every child times a fixed calibration
//! loop — plain standard-library code that shares nothing with the
//! simulator — before and after the section it measures, and reports
//! host seconds scaled to the speed at which that loop takes
//! [`REFERENCE_LOOP_S`]. A change to the simulator cannot move the loop,
//! so the scaling cannot hide a gain. It removes most of the drift, not
//! all of it: when neighbours slow the simulator's cache-missing work
//! more than they slow the loop, the difference still shows.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The reference speed: the time of one calibration pass. A round figure
/// within the range the baseline host (2-vCPU Xeon at 2.1 GHz) showed as
/// its speed drifted, 6.4 to 8.6 ms.
pub const REFERENCE_LOOP_S: f64 = 0.008;

/// Loop passes timed on each side of the measured section.
const PASSES: usize = 5;

/// Priority-queue churn, the kind of work a discrete-event engine does
/// most: of the loops tried (heap, hash map, B-tree, sort, pointer
/// chase over 32 MB), its time tracked the simulator's run time best.
struct Loop {
    heap: BinaryHeap<(u64, u32)>,
    state: u64,
}

impl Loop {
    fn new() -> Self {
        let mut l = Loop {
            heap: BinaryHeap::new(),
            state: 0x9E37_79B9_7F4A_7C15,
        };
        for i in 0..4096 {
            let key = l.next() >> 20;
            l.heap.push((key, i));
        }
        l
    }

    /// xorshift64: the same keys in every process.
    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// One timed pass of 100,000 pops and pushes, in seconds.
    fn pass_s(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..100_000 {
            let (key, i) = self.heap.pop().expect("the heap never drains");
            let step = self.next() >> 24;
            self.heap.push((black_box(key + step), i));
        }
        t0.elapsed().as_secs_f64()
    }
}

/// Runs `f` between two sets of calibration passes and returns its
/// output with the host's slowdown against the reference: the median
/// pass time over [`REFERENCE_LOOP_S`], above 1 when the host is slow.
/// Divide host seconds measured inside `f` by it.
pub fn calibrated<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let mut l = Loop::new();
    let mut passes: Vec<f64> = (0..PASSES).map(|_| l.pass_s()).collect();
    let out = f();
    passes.extend((0..PASSES).map(|_| l.pass_s()));
    passes.sort_by(f64::total_cmp);
    let n = passes.len();
    let median = (passes[n / 2 - 1] + passes[n / 2]) / 2.0;
    (out, median / REFERENCE_LOOP_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_positive_and_output_passes_through() {
        let (out, slowdown) = calibrated(|| 7);
        assert_eq!(out, 7);
        assert!(slowdown.is_finite() && slowdown > 0.0, "{slowdown}");
    }
}
