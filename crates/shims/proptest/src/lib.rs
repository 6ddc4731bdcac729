//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! The build container has no crates registry, so the workspace pins
//! `proptest` to this path dependency. It keeps the public surface the
//! suites rely on — the [`proptest!`] macro with
//! `#![proptest_config(..)]`, range / tuple / [`Just`] /
//! [`collection::vec`] / [`any`] strategies, `prop_map` /
//! `prop_flat_map`, and the `prop_assert*` macros — but trades away
//! shrinking: a failing case panics immediately, and the deterministic
//! RNG makes every failure reproducible by rerunning the same test
//! binary.
//!
//! [`Just`]: strategy::Just
//! [`any`]: arbitrary::any

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike upstream there is no value tree: `generate` draws a
    /// fresh value directly (no shrinking).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { source: self, f }
        }

        /// Generate a value, then generate from the strategy `f`
        /// builds out of it (dependent generation).
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { source: self, f }
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone, Copy, Debug)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, T, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.source.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Clone, Copy, Debug)]
    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;

        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            let inner = (self.f)(self.source.generate(rng));
            inner.generate(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range_shim(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range_incl_shim(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            rng.gen_range_f64_shim(self.clone())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

pub mod arbitrary {
    //! `any::<T>()` — the canonical strategy for a type.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draw an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_word() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_word() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Clone, Copy, Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T` (full range for integers).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// The strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.start >= self.size.end {
                self.size.start
            } else {
                rng.gen_range_shim(self.size.clone())
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `Vec` whose length is drawn from `size` and whose elements
    /// are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

pub mod test_runner {
    //! Per-test configuration and the deterministic RNG.

    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Mirror of upstream's `ProptestConfig`; only `cases` is honored.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of generated cases per test.
        pub cases: u32,
        /// Accepted for source compatibility; unused (no shrinking).
        pub max_shrink_iters: u32,
        /// Accepted for source compatibility; unused (no rejection
        /// sampling).
        pub max_global_rejects: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256, max_shrink_iters: 0, max_global_rejects: 0 }
        }
    }

    /// Error type for early case rejection (`return Ok(())` /
    /// `Err(..)` from a test body). The shim panics on `Err`.
    #[derive(Clone, Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic generator handed to strategies. Seeded from the
    /// FNV hash of `file::test_name`, so every test function explores
    /// its own input stream (two tests sharing a stream would silently
    /// duplicate coverage) while every run of the binary sees
    /// identical inputs.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        inner: SmallRng,
    }

    impl TestRng {
        /// Deterministic RNG keyed by the test's `file::name` site.
        pub fn deterministic(site: &str) -> Self {
            // FNV-1a over the site string.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in site.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { inner: SmallRng::seed_from_u64(h) }
        }

        /// Next raw 64-bit word.
        pub fn next_word(&mut self) -> u64 {
            self.inner.next_u64()
        }

        /// Uniform draw from a half-open integer range.
        pub fn gen_range_shim<T, R>(&mut self, range: R) -> T
        where
            R: rand::distributions::uniform::SampleRange<T>,
        {
            self.inner.gen_range(range)
        }

        /// Uniform draw from an inclusive integer range.
        pub fn gen_range_incl_shim<T, R>(&mut self, range: R) -> T
        where
            R: rand::distributions::uniform::SampleRange<T>,
        {
            self.inner.gen_range(range)
        }

        /// Uniform draw from a half-open f64 range.
        pub fn gen_range_f64_shim(&mut self, range: std::ops::Range<f64>) -> f64 {
            self.inner.gen_range(range)
        }
    }
}

/// Everything the suites import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Define property tests: each `fn name(pat in strategy, ...)` becomes
/// a `#[test]` that draws `config.cases` inputs and runs the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        #[allow(clippy::redundant_closure_call)]
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                file!(),
                "::",
                stringify!($name)
            ));
            for _case in 0..config.cases {
                let ($($pat,)+) =
                    ($( $crate::strategy::Strategy::generate(&($strat), &mut rng), )+);
                // As upstream: the body runs in a Result-returning
                // scope so `return Ok(())` rejects a case early.
                let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = result {
                    panic!("proptest case failed: {e}");
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::test_runner::Config::default()) $($rest)*);
    };
}

/// `assert!` with proptest spelling (panics; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// `assert_eq!` with proptest spelling (panics; no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// `assert_ne!` with proptest spelling (panics; no shrinking).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (usize, Vec<u64>)> {
        (1usize..8).prop_flat_map(|n| (Just(n), crate::collection::vec(0u64..100, 0..n)))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_respected(x in 3usize..24, y in 1u64..100, f in 0.0f64..0.15) {
            prop_assert!((3..24).contains(&x));
            prop_assert!((1..100).contains(&y));
            prop_assert!((0.0..0.15).contains(&f));
        }

        #[test]
        fn flat_map_links_sizes((n, v) in arb_pair()) {
            prop_assert!(v.len() < n.max(1) || v.is_empty());
            for e in v {
                prop_assert!(e < 100);
            }
        }

        #[test]
        fn maps_apply(s in (0u32..10).prop_map(|x| x * 2)) {
            prop_assert!(s % 2 == 0);
            prop_assert!(s < 20);
        }

        #[test]
        fn any_covers_wide_range(a in any::<u64>(), b in any::<u32>()) {
            // Statistical smoke only: values exist and differ across draws.
            let _ = (a, b);
        }
    }

    #[test]
    fn default_config_cases() {
        let c = ProptestConfig::default();
        assert_eq!(c.cases, 256);
    }
}
