//! Simulated clock types.
//!
//! [`SimTime`] is an absolute instant and [`SimDuration`] a span, both with
//! microsecond resolution backed by `u64`. Microseconds give ~584k years of
//! range, far beyond any simulated horizon, while staying cheap to compare
//! and hash. All arithmetic saturates rather than wrapping so that clock
//! math can never silently travel back in time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulated clock, in microseconds since the
/// start of the simulation.
///
/// # Example
///
/// ```
/// use protean_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(1500.0);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// # Example
///
/// ```
/// use protean_sim::SimDuration;
/// let d = SimDuration::from_secs(2.0) / 4.0;
/// assert_eq!(d, SimDuration::from_millis(500.0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

const MICROS_PER_SEC: f64 = 1_000_000.0;

/// 2^64: the first microsecond count the `u64` clock cannot hold.
const MICROS_LIMIT: f64 = 18_446_744_073_709_551_616.0;

/// `secs` rounded to whole microseconds, or `None` if the clock cannot
/// hold it: negative, not finite, or 2^64 µs (about 1.8e13 s) or more.
fn micros_from_secs(secs: f64) -> Option<u64> {
    let micros = (secs * MICROS_PER_SEC).round();
    (secs >= 0.0 && micros < MICROS_LIMIT).then_some(micros as u64)
}

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (useful as an "never" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a count of microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `secs` seconds after the origin.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, not finite, or too late for the
    /// clock (2^64 µs, about 1.8e13 s, or more).
    pub fn from_secs(secs: f64) -> Self {
        let micros = micros_from_secs(secs);
        SimTime(micros.unwrap_or_else(|| panic!("invalid time: {secs}")))
    }

    /// Creates an instant `millis` milliseconds after the origin.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative, not finite, or too late for the
    /// clock.
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs(millis / 1_000.0)
    }

    /// The raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed as seconds since the origin.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of `self` and `other`.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of `self` and `other`.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from a count of microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, not finite, or too long for the
    /// clock (2^64 µs, about 1.8e13 s, or more); see
    /// [`SimDuration::try_from_secs`].
    pub fn from_secs(secs: f64) -> Self {
        Self::try_from_secs(secs).unwrap_or_else(|| panic!("invalid duration: {secs}"))
    }

    /// A span of `secs` seconds, or `None` where [`SimDuration::from_secs`]
    /// would panic. Input checks use it to reject a span with an error.
    pub fn try_from_secs(secs: f64) -> Option<Self> {
        micros_from_secs(secs).map(SimDuration)
    }

    /// Creates a span of `millis` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative, not finite, or too long for the
    /// clock.
    pub fn from_millis(millis: f64) -> Self {
        Self::from_secs(millis / 1_000.0)
    }

    /// The raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span expressed in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC
    }

    /// This span expressed in milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// `true` if this is the empty span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by a non-negative factor, saturating at
    /// [`SimDuration::MAX`].
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor: {factor}"
        );
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(scaled.round() as u64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        self.mul_f64(rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        assert!(rhs > 0.0, "division by non-positive factor: {rhs}");
        self.mul_f64(1.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}us", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_secs(1.25);
        assert_eq!(t.as_micros(), 1_250_000);
        assert_eq!(t.as_secs_f64(), 1.25);
        let d = SimDuration::from_millis(0.5);
        assert_eq!(d.as_micros(), 500);
    }

    #[test]
    fn arithmetic_saturates() {
        let t = SimTime::from_secs(1.0);
        let earlier = SimTime::from_secs(5.0);
        assert_eq!(t.saturating_since(earlier), SimDuration::ZERO);
        assert_eq!(t - earlier, SimDuration::ZERO);
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1.0), SimTime::MAX);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(2.0);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_secs(3.0));
        assert_eq!(d / 2.0, SimDuration::from_secs(1.0));
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_secs(1.0) < SimTime::from_secs(2.0));
        assert_eq!(
            SimTime::from_secs(3.0).max(SimTime::from_secs(2.0)),
            SimTime::from_secs(3.0)
        );
        assert_eq!(
            SimTime::from_secs(3.0).min(SimTime::from_secs(2.0)),
            SimTime::from_secs(2.0)
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [1.0, 2.0, 3.0]
            .iter()
            .map(|&s| SimDuration::from_secs(s))
            .sum();
        assert_eq!(total, SimDuration::from_secs(6.0));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_millis(1.5).to_string(), "1.50ms");
        assert_eq!(SimDuration::from_secs(2.0).to_string(), "2.000s");
    }

    #[test]
    #[should_panic]
    fn negative_seconds_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn seconds_beyond_the_clock_rejected() {
        let _ = SimDuration::from_secs(1e300);
    }

    #[test]
    fn the_clock_holds_up_to_two_to_the_64_micros() {
        // 2^64 µs is about 1.845e13 s: just below it converts exactly,
        // just above it (and anything negative or not finite) is refused.
        let near = SimDuration::try_from_secs(1.8e13).unwrap();
        assert_eq!(near.as_micros(), 18_000_000_000_000_000_000);
        for secs in [1.85e13, 1e300, f64::INFINITY, f64::NAN, -1.0] {
            assert_eq!(SimDuration::try_from_secs(secs), None, "{secs}");
        }
        assert_eq!(SimDuration::try_from_secs(-0.0), Some(SimDuration::ZERO));
    }
}
