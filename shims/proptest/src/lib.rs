//! Offline shim for the [`proptest`](https://crates.io/crates/proptest) API
//! subset this workspace's property tests use.
//!
//! The build environment has no crates.io access, so this vendored
//! mini-crate provides:
//!
//! * the [`proptest!`] macro (functions with `arg in strategy` inputs);
//! * range strategies over integers and floats, tuple strategies,
//!   [`prelude::any`]`::<bool>()`;
//! * [`collection::vec`] and [`collection::hash_set`];
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`.
//!
//! Unlike real proptest there is no shrinking: a failing case panics with
//! the generated inputs' debug representation via the standard assert
//! machinery, and every test runs a fixed number of deterministic cases
//! (seeded per test name), so failures reproduce exactly across runs.
//!
//! ```
//! use proptest::prelude::*;
//!
//! let mut rng = proptest::test_runner::TestRng::deterministic("doc");
//! let v = proptest::collection::vec(0u64..10, 3..6).generate(&mut rng);
//! assert!(v.len() >= 3 && v.len() < 6);
//! assert!(v.iter().all(|&x| x < 10));
//! ```

use std::ops::Range;

pub mod test_runner {
    /// Number of generated cases per property.
    pub const CASES: u64 = 64;

    /// Deterministic per-test generator (xorshift64*), seeded from the
    /// test's name so distinct properties explore distinct streams but
    /// every run of the same property sees the same cases.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from an arbitrary label (typically `stringify!(test_name)`).
        pub fn deterministic(label: &str) -> Self {
            // FNV-1a over the label, never zero.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in label.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h | 1 }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform draw from `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// Uniform draw from `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

use test_runner::TestRng;

/// A source of generated values. The real proptest `Strategy` builds value
/// *trees* for shrinking; this shim only ever needs fresh values.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Produces one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty strategy range");
        // Scale in f64 and clamp: a raw f32 cast of the unit fraction can
        // round up to 1.0 and yield exactly `end`.
        let v = (self.start as f64 + rng.unit_f64() * (self.end as f64 - self.start as f64)) as f32;
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

macro_rules! tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

/// Strategy for "any value of a type" (`any::<bool>()` and friends).
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! any_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

any_int_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

/// Creates a strategy producing arbitrary values of `T`.
pub fn arbitrary_any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any {
        _marker: std::marker::PhantomData,
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::HashSet;
    use std::hash::Hash;
    use std::ops::Range;

    /// Strategy for `Vec`s whose length is drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of values from `element`, length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Strategy for `HashSet`s whose size is drawn from `size`.
    pub struct HashSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for HashSetStrategy<S>
    where
        S::Value: Hash + Eq,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let target = self.size.generate(rng);
            let mut out = HashSet::with_capacity(target);
            // The value domain could be smaller than `target`; cap the
            // attempts so generation always terminates.
            let mut budget = 64 * (target + 1);
            while out.len() < target && budget > 0 {
                out.insert(self.element.generate(rng));
                budget -= 1;
            }
            out
        }
    }

    /// A set of distinct values from `element`, size in `size` (best
    /// effort when the element domain is small).
    pub fn hash_set<S: Strategy>(element: S, size: Range<usize>) -> HashSetStrategy<S> {
        HashSetStrategy { element, size }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// `any::<T>()` — arbitrary values of `T`.
    pub fn any<T>() -> crate::Any<T>
    where
        crate::Any<T>: crate::Strategy,
    {
        crate::arbitrary_any::<T>()
    }
}

/// Defines property tests: each function's arguments are drawn from the
/// given strategies for [`test_runner::CASES`] deterministic cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name));
                for __case in 0..$crate::test_runner::CASES {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                }
            }
        )*
    };
}

/// Asserts a property holds; panics with the formatted message otherwise.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::test_runner::TestRng;
    use std::collections::HashSet;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic("bounds");
        for _ in 0..1_000 {
            let x = (3u64..17).generate(&mut rng);
            assert!((3..17).contains(&x));
            let f = (0.0f64..1.0).generate(&mut rng);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn hash_set_hits_target_size_on_big_domains() {
        let mut rng = TestRng::deterministic("hs");
        for _ in 0..100 {
            let s: HashSet<u64> = collection::hash_set(0u64..1 << 30, 3..60).generate(&mut rng);
            assert!((3..60).contains(&s.len()));
        }
    }

    #[test]
    fn small_domain_set_terminates() {
        let mut rng = TestRng::deterministic("small");
        let s: HashSet<u64> = collection::hash_set(0u64..2, 3..10).generate(&mut rng);
        assert!(s.len() <= 2);
    }

    proptest! {
        /// The macro itself: tuples, vecs, and `any` compose.
        #[test]
        fn macro_expands_and_runs(
            pairs in collection::vec((0u64..100, 0u64..100), 1..10),
            flag in any::<bool>(),
        ) {
            prop_assert!(pairs.len() < 10);
            for (a, b) in pairs {
                prop_assert!(a < 100 && b < 100);
            }
            // `any::<bool>()` composes with the tuple and vec strategies;
            // what it draws is a plain `bool`.
            let _drawn: bool = flag;
        }
    }
}
