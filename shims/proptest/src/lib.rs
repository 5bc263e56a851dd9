//! Offline stand-in for the `proptest` crate.
//!
//! The build environment for this repository has no network access and
//! no crates.io mirror, so the workspace vendors a minimal,
//! API-compatible subset of `proptest` 1.x: the [`proptest!`] /
//! [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assume!`] macros,
//! [`ProptestConfig`], the [`Strategy`] trait for ranges, tuples,
//! [`collection::vec`], [`bool::ANY`] and [`sample::select`].
//!
//! Differences from upstream, by design:
//!
//! * Cases are generated from a **fixed seed** derived from the test's
//!   module path, so runs are reproducible in CI (upstream randomizes
//!   and persists regressions).
//! * There is **no shrinking**: a failing case panics with the case
//!   index and message; rerunning reproduces it exactly.
//!
//! See `shims/README.md` for how to swap the registry crate back in.

use std::ops::{Range, RangeInclusive};

/// Runner configuration; only `cases` is interpreted.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps the heavier simulation
        // properties fast while still exploring the space.
        ProptestConfig { cases: 64 }
    }
}

/// The deterministic per-case generator handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// The generator for case `case` of the property named `name`.
    /// The same `(name, case)` always produces the same sequence.
    pub fn for_case(name: &str, case: u32) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            state: hash ^ (u64::from(case) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// The next 64 random bits (splitmix64 stream).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "cannot sample empty range [{lo}, {hi})");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// A value generator. The subset of upstream `Strategy` this workspace
/// needs: one `sample` per case, no shrinking tree.
pub trait Strategy {
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo) as u64 + 1;
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u64, u32, i64, i32);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        lo + (hi - lo) * rng.next_f64()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for [`vec()`]: inclusive on both ends.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            SizeRange {
                lo: exact,
                hi: exact,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec`s of `element` values with length in `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length lies in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.size.lo, self.size.hi + 1);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod bool {
    use super::{Strategy, TestRng};

    /// Strategy type behind [`ANY`].
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    /// Generates `true` or `false` with equal probability.
    pub const ANY: BoolAny = BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy returned by [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T> {
        items: Vec<T>,
    }

    /// Picks a uniformly random element of `items` per case.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "cannot select from an empty list");
        Select { items }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.items[rng.usize_in(0, self.items.len())].clone()
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy};
}

/// Defines property tests: each `fn name(pat in strategy, ...)` becomes
/// a `#[test]` (the attribute is written inside the block, as with
/// upstream proptest) that runs `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$attr:meta])*
     fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __config: $crate::ProptestConfig = $config;
            let __name = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..__config.cases {
                let mut __rng = $crate::TestRng::for_case(__name, __case);
                $(let $pat = $crate::Strategy::sample(&($strategy), &mut __rng);)+
                let __outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(__msg) = __outcome {
                    panic!("property {} failed at case {}: {}", __name, __case, __msg);
                }
            }
        }
        $crate::__proptest_impl!(($config) $($rest)*);
    };
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(__l == __r) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

/// Skips the current case when its inputs do not satisfy `cond`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name_and_case() {
        let mut a = crate::TestRng::for_case("x", 3);
        let mut b = crate::TestRng::for_case("x", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::for_case("x", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn strategies_respect_bounds() {
        let mut rng = crate::TestRng::for_case("bounds", 0);
        for _ in 0..1000 {
            let f = (1.5f64..2.5).sample(&mut rng);
            assert!((1.5..2.5).contains(&f));
            let u = (3usize..=5).sample(&mut rng);
            assert!((3..=5).contains(&u));
            let v = crate::collection::vec(0u64..10, 2..6).sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
            let (x, b) = ((0.0f64..1.0), crate::bool::ANY).sample(&mut rng);
            assert!((0.0..1.0).contains(&x));
            let _ = b;
            let s = crate::sample::select(vec![7, 8, 9]).sample(&mut rng);
            assert!((7..=9).contains(&s));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro pipeline itself: generation, assertion, assumption.
        #[test]
        fn prop_macro_roundtrip(x in 0u64..100, flip in prop::bool::ANY) {
            prop_assume!(x != 99);
            prop_assert!(x < 99, "x was {}", x);
            let doubled = x * 2;
            prop_assert_eq!(doubled % 2, 0);
            let _ = flip;
        }
    }
}
