//! First-party deterministic property-testing harness.
//!
//! The workspace's property tests generate many randomized cases per
//! property (ranges, tuples, `collection::vec`, `bool::ANY`) and assert
//! invariants over them. This crate supplies that machinery without an
//! external dependency, in the same spirit as `aml-rng`: case `i` of
//! every property is generated from the fixed seed `i`, so a failure
//! reproduces identically on every machine and every run — no shrinking,
//! no persisted failure files, no environment variables.
//!
//! The macro surface follows the well-known `proptest!` shape so the
//! tests read idiomatically:
//!
//! ```
//! use aml_propcheck::prelude::*;
//!
//! proptest! {
//!     #[test]
//!     fn add_commutes(a in 0u32..1000, b in 0u32..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```
//!
//! Design notes:
//! - **Deterministic**: per-case seeds are the case index; there is no
//!   global RNG state and no time-based seeding.
//! - **No shrinking**: failures report the assert with the generated
//!   values in scope; with fixed seeds a debugger or `dbg!` reproduces
//!   the exact case. For this workspace's numeric invariants that trade
//!   is worth the simplicity.
//! - `prop_assume!(cond)` skips the remainder of a case (early-returns
//!   the case closure), matching the usual semantics closely enough for
//!   the precondition patterns used here.

// The doc example above shows the `#[test]` the macro surface expects;
// the example exists to compile-check that surface, not to run.
#![allow(clippy::test_attr_in_doctest)]

/// Runner configuration (only `cases` is honored).
pub struct ProptestConfig {
    /// Number of cases to generate per property.
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

/// Per-case generator: SplitMix64 over a salted case index.
///
/// Distinct from `aml-rng`'s `StdRng` only in seeding (salted so that
/// property cases don't correlate with experiment seeds).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Generator for one case; `seed` is the case index.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Value generator: how a `a in <expr>` binding draws its value.
pub trait Strategy {
    /// Generated type.
    type Value;
    /// Draw one value.
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128) as u128;
                assert!(span > 0, "empty range");
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                self.start + (self.end - self.start) * rng.unit_f64() as $t
            }
        }
    )*};
}

float_strategy!(f32, f64);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.gen_value(rng), self.1.gen_value(rng))
    }
}

pub mod bool {
    //! Boolean strategies.

    use super::{Strategy, TestRng};

    /// The strategy type behind [`ANY`].
    pub struct Any;

    /// Uniform boolean.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = core::primitive::bool;
        fn gen_value(&self, rng: &mut TestRng) -> core::primitive::bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// Vec of `size.start..size.end` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.clone().gen_value(rng);
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

pub mod prelude {
    //! One-stop import for property tests.
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
    pub use crate::{ProptestConfig, Strategy};
}

/// Define property-test functions: each `fn` runs `cases` times with
/// its arguments freshly generated per case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__propcheck_fns!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__propcheck_fns!{ cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __propcheck_fns {
    (cfg = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                for __case in 0..__cfg.cases as u64 {
                    let mut __rng = $crate::TestRng::new(__case);
                    $(let $arg = $crate::Strategy::gen_value(&($strat), &mut __rng);)*
                    // Closure so prop_assume! can early-return the case.
                    let __run = move || $body;
                    __run();
                }
            }
        )*
    };
}

/// Assert inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Skip the rest of the case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<u64> = (0..8).map(|i| TestRng::new(i).next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|i| TestRng::new(i).next_u64()).collect();
        assert_eq!(a, b);
        // Distinct case indices give distinct draws.
        assert_eq!(
            a.iter().collect::<std::collections::BTreeSet<_>>().len(),
            a.len()
        );
    }

    #[test]
    fn range_strategies_respect_bounds() {
        let mut rng = TestRng::new(0);
        for _ in 0..500 {
            let v = Strategy::gen_value(&(10usize..20), &mut rng);
            assert!((10..20).contains(&v));
            let w = Strategy::gen_value(&(-3i64..=3), &mut rng);
            assert!((-3..=3).contains(&w));
            let f = Strategy::gen_value(&(0.25f64..0.75), &mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = TestRng::new(1);
        for _ in 0..100 {
            let v = Strategy::gen_value(&crate::collection::vec(0u8..10, 2..6), &mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|x| *x < 10));
        }
    }

    proptest! {
        #[test]
        fn macro_binds_and_runs(a in 0u32..100, b in 0u32..100) {
            prop_assert!(a < 100 && b < 100);
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn assume_skips_cases(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_form_parses(x in 0u8..=255) {
            let _ = x;
        }
    }
}
