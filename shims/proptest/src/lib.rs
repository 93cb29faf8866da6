//! Offline shim for `proptest`.
//!
//! Implements the subset the workspace's property tests use: `Strategy` with
//! `prop_flat_map`, integer-range and tuple strategies, `any`,
//! `collection::vec`, and the `proptest!` / `prop_assert!` / `prop_assert_eq!`
//! macros. Each property runs a fixed number of deterministic random cases
//! (no shrinking): a failing case panics with the case number so it can be
//! replayed — case streams are a pure function of the iteration index.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// Number of random cases each `proptest!` property runs.
pub const CASES: u64 = 64;

/// Creates the deterministic RNG for one case of one property.
pub fn case_rng(case: u64) -> TestRng {
    StdRng::seed_from_u64(0xC0FF_EE00 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A failed property case.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A generator of random values for one property input.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Derives a strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<T, F> {
    inner: T,
    f: F,
}

impl<T, S, F> Strategy for FlatMap<T, F>
where
    T: Strategy,
    S: Strategy,
    F: Fn(T::Value) -> S,
{
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let seed_value = self.inner.sample(rng);
        (self.f)(seed_value).sample(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy!((A, B)(A, B, C)(A, B, C, D)(A, B, C, D, E));

/// Types with a canonical "any value" strategy.
pub trait Arbitrary {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen_range(0..=u64::MAX)
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen_range(0..=u8::MAX)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen_bool(0.5)
    }
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy producing any value of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

/// Collection strategies.
pub mod collection {
    use super::{Rng, Strategy, TestRng};

    /// An inclusive size range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                min: r.start,
                max_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                min: *r.start(),
                max_inclusive: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                min: n,
                max_inclusive: n,
            }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.gen_range(self.size.min..=self.size.max_inclusive);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy producing vectors of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// The glob-import surface the property tests use.
pub mod prelude {
    pub use crate::{any, Arbitrary, Strategy, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Asserts a condition inside a property, failing the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property, failing the current case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left != right {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: `{:?}` != `{:?}`",
                left, right
            )));
        }
    }};
}

/// Declares property tests: each `fn name(input in strategy, ...) { body }`
/// becomes a `#[test]` running [`CASES`] deterministic random cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            for case in 0..$crate::CASES {
                let mut proptest_rng = $crate::case_rng(case);
                $(let $pat = $crate::Strategy::sample(&($strat), &mut proptest_rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(err) = outcome {
                    panic!(
                        "property '{}' failed at case {}: {}",
                        stringify!($name),
                        case,
                        err
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::collection::vec;
    use crate::prelude::*;

    proptest! {
        #[test]
        fn vec_lengths_respect_bounds(values in vec(0u64..10, 2..5)) {
            prop_assert!(values.len() >= 2 && values.len() < 5, "len {}", values.len());
            prop_assert!(values.iter().all(|&v| v < 10));
        }

        #[test]
        fn flat_map_pins_shared_dimension((a, b) in (1usize..8).prop_flat_map(|n| {
            (vec(any::<u8>(), n..=n), vec(any::<u8>(), n..=n))
        })) {
            prop_assert_eq!(a.len(), b.len());
        }
    }
}
