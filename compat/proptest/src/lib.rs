//! Minimal offline replacement for `proptest`.
//!
//! Implements the subset the workspace uses: the [`proptest!`] macro with an
//! optional `#![proptest_config(...)]` header, parameters in both
//! `name: Type` (via [`arbitrary::Arbitrary`]) and `name in strategy` (via
//! [`strategy::Strategy`], where strategies are plain ranges) forms, and the
//! `prop_assert!` / `prop_assert_eq!` assertion macros.
//!
//! No shrinking: a failing case reports its deterministic per-case seed so it
//! can be replayed by re-running the test. Case count defaults to 64 and can
//! be overridden per-block with `ProptestConfig::with_cases(n)` or globally
//! with the `PROPTEST_CASES` environment variable.

use rand::SeedableRng;

/// Runner configuration (only `cases` is honoured).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
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
        ProptestConfig { cases: 64 }
    }
}

/// Test-runner internals (RNG type, failure type and driver loop).
pub mod test_runner {
    /// The generator handed to property bodies.
    pub type TestRng = rand::rngs::StdRng;

    /// Why a test case failed (the error type property bodies return).
    #[derive(Clone, Debug, PartialEq)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// A failed case with the given reason.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError(reason.into())
        }

        /// Upstream distinguishes rejects from failures; here both abort
        /// the case with a message.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for TestCaseError {}

    impl From<String> for TestCaseError {
        fn from(reason: String) -> Self {
            TestCaseError(reason)
        }
    }

    impl From<&str> for TestCaseError {
        fn from(reason: &str) -> Self {
            TestCaseError(reason.to_string())
        }
    }
}

/// FNV-1a, used to derive a stable per-property seed from its name.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Drives `property` for the configured number of cases, panicking with the
/// case seed on the first failure. Called by the [`proptest!`] expansion.
pub fn run_cases<F>(config: &ProptestConfig, name: &str, mut property: F)
where
    F: FnMut(&mut test_runner::TestRng, u64) -> Result<(), test_runner::TestCaseError>,
{
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(config.cases);
    let name_seed = fnv1a(name.as_bytes());
    for case in 0..cases as u64 {
        let seed = name_seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = test_runner::TestRng::seed_from_u64(seed);
        if let Err(message) = property(&mut rng, case) {
            panic!("property {name} failed at case {case}/{cases} (seed {seed:#018x}): {message}");
        }
    }
}

/// `Arbitrary`: types generatable from nothing but randomness.
pub mod arbitrary {
    use super::test_runner::TestRng;
    use rand::{Rng, RngCore};

    /// A type with a canonical "any value" generator.
    pub trait Arbitrary: Sized {
        /// One uniformly random value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_via_gen {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.gen()
                }
            }
        )*};
    }
    impl_arbitrary_via_gen!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f64, f32);

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    impl Arbitrary for i128 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            u128::arbitrary(rng) as i128
        }
    }
}

/// `Strategy`: value generators written as expressions (`lo..hi` ranges).
pub mod strategy {
    use super::test_runner::TestRng;
    use rand::distributions::uniform::SampleUniform;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A reusable recipe for generating values.
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Samples one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<T: SampleUniform + PartialOrd + Copy> Strategy for Range<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    impl<T: SampleUniform + PartialOrd + Copy> Strategy for RangeInclusive<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            rng.gen_range(self.clone())
        }
    }

    /// A strategy always producing clones of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::arbitrary::Arbitrary;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declares property tests. Each `fn` runs many random cases; as with the
/// upstream crate, it carries its own `#[test]` (the macro adds none, so a
/// second one would register the test twice).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = ($config:expr);) => {};
    (
        config = ($config:expr);
        $(#[$meta:meta])*
        fn $name:ident($($params:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            $crate::run_cases(
                &__config,
                ::core::stringify!($name),
                |__rng: &mut $crate::test_runner::TestRng,
                 __case: u64|
                 -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    let _ = __case;
                    $crate::__proptest_bind! { __rng, $($params)* }
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_fns! { config = ($config); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $var:ident : $ty:ty, $($rest:tt)*) => {
        let $var: $ty = <$ty as $crate::arbitrary::Arbitrary>::arbitrary($rng);
        $crate::__proptest_bind! { $rng, $($rest)* }
    };
    ($rng:ident, $var:ident : $ty:ty) => {
        let $var: $ty = <$ty as $crate::arbitrary::Arbitrary>::arbitrary($rng);
    };
    ($rng:ident, $var:ident in $strategy:expr, $($rest:tt)*) => {
        let $var = $crate::strategy::Strategy::sample(&($strategy), $rng);
        $crate::__proptest_bind! { $rng, $($rest)* }
    };
    ($rng:ident, $var:ident in $strategy:expr) => {
        let $var = $crate::strategy::Strategy::sample(&($strategy), $rng);
    };
}

/// Asserts a condition inside a property, failing the case (not the whole
/// process) so the runner can report the case seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: {}", ::core::stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: {}: {}",
                    ::core::stringify!($cond),
                    ::std::format!($($fmt)+)
                ),
            ));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let __left = &$left;
        let __right = &$right;
        if !(*__left == *__right) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{}` == `{}` ({:?} != {:?})",
                    ::core::stringify!($left),
                    ::core::stringify!($right),
                    __left,
                    __right
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let __left = &$left;
        let __right = &$right;
        if !(*__left == *__right) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed ({:?} != {:?}): {}",
                    __left,
                    __right,
                    ::std::format!($($fmt)+)
                ),
            ));
        }
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let __left = &$left;
        let __right = &$right;
        if *__left == *__right {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{}` != `{}` (both {:?})",
                    ::core::stringify!($left),
                    ::core::stringify!($right),
                    __left
                ),
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn arbitrary_and_strategy_params(a: u32, b in 10u64..20, f in 0.0f64..=1.0) {
            let _ = a;
            prop_assert!((10..20).contains(&b));
            prop_assert!((0.0..=1.0).contains(&f), "f = {}", f);
        }

        #[test]
        fn trailing_comma_params(
            x in 1usize..5,
            y: u64,
        ) {
            prop_assert!((1..5).contains(&x));
            prop_assert_ne!(x, 0);
            let _ = y;
        }
    }

    #[test]
    fn failing_property_panics_with_seed() {
        let result = std::panic::catch_unwind(|| {
            crate::run_cases(
                &ProptestConfig::with_cases(5),
                "always_fails",
                |_rng, _case| Err(crate::test_runner::TestCaseError::fail("boom")),
            );
        });
        let err = result.expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(
            msg.contains("always_fails") && msg.contains("boom"),
            "{msg}"
        );
    }

    #[test]
    fn cases_are_deterministic() {
        let mut first = Vec::new();
        crate::run_cases(&ProptestConfig::with_cases(8), "det", |rng, _| {
            first.push(rand::Rng::gen::<u64>(rng));
            Ok(())
        });
        let mut second = Vec::new();
        crate::run_cases(&ProptestConfig::with_cases(8), "det", |rng, _| {
            second.push(rand::Rng::gen::<u64>(rng));
            Ok(())
        });
        assert_eq!(first, second);
        assert_eq!(first.len(), 8);
    }
}
