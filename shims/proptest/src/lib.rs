//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset the workspace's property tests use: the
//! [`proptest!`] macro with an optional `#![proptest_config(...)]` header,
//! range and [`any`] strategies, and the `prop_assert*` macros. Each test
//! runs `cases` deterministic iterations (seed derived from the test name
//! and case index, so failures reproduce); shrinking is not implemented —
//! the failing case's seed and arguments are reported by the panic instead.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runner configuration (`with_cases` is the only knob the workspace uses).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` iterations.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// A source of random values for one property case.
pub type TestRng = StdRng;

/// Drives one property: deterministic per (test name, case index).
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
    name_hash: u64,
}

impl TestRunner {
    /// Creates a runner for the named property.
    pub fn new(config: ProptestConfig, name: &str) -> TestRunner {
        // FNV-1a over the test name: stable across runs and platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        TestRunner {
            config,
            name_hash: h,
        }
    }

    /// Number of cases to run.
    pub fn cases(&self) -> u32 {
        self.config.cases
    }

    /// The RNG for case `case`.
    pub fn case_rng(&self, case: u32) -> TestRng {
        StdRng::seed_from_u64(self.name_hash ^ ((case as u64) << 32 | 0x5EED))
    }
}

/// Generates values of `Self::Value` from an RNG.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, self.clone())
            }
        }
    )*};
}
impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rand::Rng::gen_range(rng, self.clone())
    }
}

/// Types with a canonical "anything" strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rand::Rng::gen(rng)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rand::Rng::gen(rng)
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rand::Rng::gen(rng)
    }
}

/// The [`any`] strategy carrier.
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(core::marker::PhantomData<T>);

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies (the real crate's `prop::collection` namespace).
pub mod collection {
    use crate::{Strategy, TestRng};

    /// Strategy for `Vec`s of `element` values with length drawn from
    /// `size` ([`vec`]).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// A `Vec` strategy: each value has a length in `size` and elements
    /// drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rand::Rng::gen_range(rng, self.size.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything the tests import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Any, Arbitrary, ProptestConfig,
        Strategy, TestRunner,
    };
    // The real crate's prelude aliases the crate root as `prop`, which is
    // how tests reach `prop::collection::vec`.
    pub use crate as prop;
}

/// Asserts a condition inside a property (panics with case context).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*)
    };
}

/// Declares property tests. Supports the real crate's common shape:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///     /// docs
///     #[test]
///     fn prop(x in 0u64..100, flag in any::<bool>()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let runner = $crate::TestRunner::new(config, stringify!($name));
                for case in 0..runner.cases() {
                    let mut rng = runner.case_rng(case);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                    let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                        $body
                    }));
                    if let Err(payload) = result {
                        eprintln!(
                            "proptest {}: case {}/{} failed with inputs: {:?}",
                            stringify!($name),
                            case,
                            runner.cases(),
                            ($(&$arg,)*)
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u64..17, y in 0usize..4, b in any::<bool>()) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 4);
            prop_assert_ne!(b, !b);
        }
    }

    #[test]
    fn deterministic_between_runners() {
        let r1 = TestRunner::new(ProptestConfig::with_cases(4), "same");
        let r2 = TestRunner::new(ProptestConfig::with_cases(4), "same");
        for case in 0..4 {
            let a: u64 = (0u64..1000).generate(&mut r1.case_rng(case));
            let b: u64 = (0u64..1000).generate(&mut r2.case_rng(case));
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic]
    fn failing_property_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            #[allow(unused)]
            fn always_fails(x in 0u32..2) {
                prop_assert!(x > 10);
            }
        }
        always_fails();
    }
}
