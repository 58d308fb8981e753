//! Offline drop-in subset of the `proptest` 1.x API.
//!
//! The build environment has no network access, so the real crate cannot
//! be fetched. This crate re-implements the slice of the API this
//! workspace's property tests use: the [`proptest!`] macro, the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` /
//! `prop_flat_map`, range and tuple strategies, [`collection::vec`],
//! [`arbitrary::any`], `prop_oneof!`, `Just`, the `prop_assert*` family,
//! and `prop_assume!`.
//!
//! Inputs are sampled deterministically (seeded per test by the test's
//! module path and name), so failures reproduce across runs. Shrinking is
//! not implemented: a failing case reports the full generated input
//! instead of a minimised one.

#![forbid(unsafe_code)]

/// Test-runner configuration and case-level error plumbing.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Runner configuration (`ProptestConfig` in the prelude).
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of accepted cases to run per test.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` accepted cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the test fails.
        Fail(String),
        /// `prop_assume!` rejected the input; the case is re-drawn.
        Reject(String),
    }

    /// Result type the generated case closures return.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// The deterministic source all strategies draw from.
    pub struct TestRng(StdRng);

    impl TestRng {
        /// A generator seeded from a stable string (the test's full name).
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the test name: stable across runs and platforms.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng(StdRng::seed_from_u64(h))
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` builds
        /// from it.
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(
            self,
            f: F,
        ) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Always generates a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;

        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    trait StrategyObj<V> {
        fn generate_obj(&self, rng: &mut TestRng) -> V;
    }

    impl<S: Strategy> StrategyObj<S::Value> for S {
        fn generate_obj(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased strategy (see [`Strategy::boxed`]).
    pub struct BoxedStrategy<V>(Box<dyn StrategyObj<V>>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            self.0.generate_obj(rng)
        }
    }

    /// Uniform choice among alternatives (built by `prop_oneof!`).
    pub struct Union<V>(Vec<BoxedStrategy<V>>);

    impl<V> Union<V> {
        /// A union over the given alternatives.
        ///
        /// # Panics
        ///
        /// Panics when `arms` is empty.
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union(arms)
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let arm = rng.gen_range(0..self.0.len());
            self.0[arm].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// An inclusive length range for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Generates `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;
    use rand::Rng;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_prim {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.gen()
                }
            }
        )*};
    }

    impl_arbitrary_prim!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy over the whole domain of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// The glob-import surface used by tests (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::test_runner::{TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, ...)` block
/// becomes a `#[test]` that runs the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { $crate::test_runner::Config::default(); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not part of the public
/// API surface.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                let mut accepted: u32 = 0;
                let mut attempts: u32 = 0;
                let max_attempts = config.cases.saturating_mul(20).max(1024);
                while accepted < config.cases {
                    attempts += 1;
                    assert!(
                        attempts <= max_attempts,
                        "gave up after {attempts} attempts ({accepted} accepted): \
                         prop_assume! rejects too much input",
                    );
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let __case_desc = {
                        let mut s = ::std::string::String::new();
                        $(
                            s.push_str(concat!(stringify!($arg), " = "));
                            s.push_str(&::std::format!("{:?}", &$arg));
                            s.push_str("; ");
                        )+
                        s
                    };
                    let __outcome: $crate::test_runner::TestCaseResult =
                        (move || { $body ::std::result::Result::Ok(()) })();
                    match __outcome {
                        ::std::result::Result::Ok(()) => accepted += 1,
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property failed after {accepted} passing case(s): {msg}\n\
                                 input: {__case_desc}",
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}` ({} == {})",
            l,
            r,
            stringify!($left),
            stringify!($right),
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` != `{:?}` ({} != {})",
            l,
            r,
            stringify!($left),
            stringify!($right),
        );
    }};
}

/// Rejects the current input; the runner draws a fresh case instead.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                ::std::string::String::from(stringify!($cond)),
            ));
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs(x in 0u32..10, v in crate::collection::vec(0i64..=5, 1..8)) {
            prop_assert!(x < 10);
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|&e| (0..=5).contains(&e)));
        }

        #[test]
        fn combinators_compose(
            pair in (1usize..4).prop_flat_map(|n| {
                crate::collection::vec(0usize..n, n).prop_map(move |v| (n, v))
            }),
            flag in any::<bool>(),
            tagged in prop_oneof![Just(0u8), 1u8..3],
        ) {
            let (n, v) = pair;
            prop_assert_eq!(v.len(), n);
            prop_assert!(v.iter().all(|&e| e < n));
            prop_assert!(tagged < 3);
            // About half the draws are rejected and re-drawn; every
            // accepted one satisfies the assumption.
            prop_assume!(flag);
            prop_assert!(flag);
        }
    }

    #[test]
    fn deterministic_across_runners() {
        use crate::strategy::Strategy;
        let s = crate::collection::vec(0u64..1000, 3..6);
        let mut a = crate::test_runner::TestRng::deterministic("x");
        let mut b = crate::test_runner::TestRng::deterministic("x");
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }
}
