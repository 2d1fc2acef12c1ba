//! Offline shim for [proptest](https://crates.io/crates/proptest).
//!
//! The build environment has no registry access, so this crate implements
//! the subset of proptest's API the workspace's property tests use:
//!
//! * the [`proptest!`] macro (with a leading `#![proptest_config(..)]`,
//!   `#[test]` attributes, doc comments, and `pat in strategy` bindings,
//!   including `mut` bindings);
//! * integer-range strategies (`-1000i64..1000`), [`any`](strategy::any)`::<bool>()`
//!   and [`collection::vec`];
//! * [`prop_assert!`] / [`prop_assert_eq!`];
//! * **shrinking**: a failing case is reduced by a bounded greedy halving
//!   search ([`Strategy::shrink`](strategy::Strategy::shrink)) before it is reported, so the panic
//!   message names a (locally) minimal failing input instead of the raw
//!   random sample.
//!
//! Each test runs `ProptestConfig::cases` deterministic pseudo-random
//! cases (seeded from the test's module path and case index, so failures
//! reproduce exactly). Swap in the real proptest by removing the path
//! override in the workspace `Cargo.toml`.

pub mod test_runner {
    /// How many pseudo-random cases each property runs.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// SplitMix64: tiny, seedable, and good enough for test-case
    /// generation. Seeded per (test, case) so every failure reproduces.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn from_seed(seed: u64) -> Self {
            TestRng { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
        }

        /// Deterministic RNG for one case of one named test.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            test_name.hash(&mut h);
            case.hash(&mut h);
            Self::from_seed(h.finish())
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n = 0` returns 0.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                return 0;
            }
            // Multiply-shift reduction; bias is irrelevant at test scale.
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values for one `pat in strategy` binding.
    pub trait Strategy {
        type Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Candidate simplifications of a failing value, *simplest first*.
        /// The runner greedily walks to the first candidate that still
        /// fails; strategies with nothing meaningful to shrink return
        /// nothing (the default).
        fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
            Vec::new()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
                fn shrink(&self, value: &$t) -> Vec<$t> {
                    int_shrink(self.start as i128, *value as i128)
                        .into_iter()
                        .map(|v| v as $t)
                        .collect()
                }
            }
        )*};
    }

    int_range_strategy!(i64, u32, u64, usize);

    /// Halving toward the range start: `start` itself, the midpoint, and
    /// the predecessor — simplest first, `value` excluded.
    pub(crate) fn int_shrink(start: i128, value: i128) -> Vec<i128> {
        if value == start {
            return Vec::new();
        }
        let mut out = vec![start, start + (value - start) / 2, value - 1];
        out.dedup();
        out.retain(|&v| v != value);
        out
    }

    /// `any::<T>()` — full-domain strategy for small types.
    pub struct Any<T>(std::marker::PhantomData<T>);

    pub fn any<T>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl Strategy for Any<bool> {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
        fn shrink(&self, value: &bool) -> Vec<bool> {
            if *value {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }

    // The `proptest!` macro folds a test's bindings into a nested tuple
    // strategy `(s1, (s2, ()))`, so shrinking can vary one binding while
    // holding the others fixed.

    impl Strategy for () {
        type Value = ();
        fn sample(&self, _rng: &mut TestRng) {}
    }

    impl<A, B> Strategy for (A, B)
    where
        A: Strategy,
        B: Strategy,
        A::Value: Clone,
        B::Value: Clone,
    {
        type Value = (A::Value, B::Value);

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.sample(rng), self.1.sample(rng))
        }

        fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
            let mut out = Vec::new();
            for a in self.0.shrink(&value.0) {
                out.push((a, value.1.clone()));
            }
            for b in self.1.shrink(&value.1) {
                out.push((value.0.clone(), b));
            }
            out
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `Vec`s of `elem` with length drawn from `size`.
    pub struct VecStrategy<S> {
        elem: S,
        min: usize,
        max: usize,
    }

    pub fn vec<S: Strategy>(elem: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        let (min, max) = (size.start, size.end);
        assert!(min < max, "empty vec size range");
        VecStrategy { elem, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.min + rng.below((self.max - self.min) as u64) as usize;
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }

        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            // Length halving first (smaller inputs are simpler), then
            // dropping one element, then shrinking elements in place.
            if value.len() > self.min {
                let half = (value.len() / 2).max(self.min);
                if half < value.len() - 1 {
                    out.push(value[..half].to_vec());
                }
                out.push(value[..value.len() - 1].to_vec());
            }
            for (i, x) in value.iter().enumerate() {
                for c in self.elem.shrink(x) {
                    let mut w = value.clone();
                    w[i] = c;
                    out.push(w);
                }
            }
            out
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{any, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};

    /// Mirror of real proptest's `prelude::prop` module path
    /// (`prop::collection::vec(..)`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Greedy bounded shrink: walk to the first candidate that still fails,
/// repeat from there, stop when no candidate fails (local minimum) or
/// after `MAX_SHRINK_RUNS` property executions. Returns the minimal
/// failing value and its failure message.
pub fn shrink_failure<S, F>(
    strat: &S,
    mut value: S::Value,
    run: &F,
    mut message: String,
) -> (S::Value, String)
where
    S: strategy::Strategy,
    S::Value: Clone,
    F: Fn(S::Value) -> Result<(), String>,
{
    const MAX_SHRINK_RUNS: usize = 512;
    let mut runs = 0;
    'outer: while runs < MAX_SHRINK_RUNS {
        for candidate in strat.shrink(&value) {
            runs += 1;
            if let Err(msg) = run(candidate.clone()) {
                value = candidate;
                message = msg;
                continue 'outer;
            }
            if runs >= MAX_SHRINK_RUNS {
                break;
            }
        }
        break; // every candidate passes: local minimum
    }
    (value, message)
}

/// Pins a runner closure's argument type to `S::Value` so the
/// `proptest!` expansion type-checks without explicit annotations.
#[doc(hidden)]
pub fn bind_runner<S, F>(_strat: &S, f: F) -> F
where
    S: strategy::Strategy,
    F: Fn(S::Value) -> Result<(), String>,
{
    f
}

/// Fails the current case (returning its message) unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return Err(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return Err(format!($($fmt)+));
        }
    }};
}

/// The property-test macro: each contained `#[test] fn name(bindings)`
/// becomes a zero-argument test running `cases` deterministic samples,
/// shrinking any failure before reporting it.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($params:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            let __strat = $crate::__proptest_strats!($($params)*);
            let __run = $crate::bind_runner(&__strat, |__vals| {
                $crate::__proptest_unbind!{ __vals; $($params)* }
                (move || {
                    $body
                    Ok(())
                })()
            });
            for __case in 0..__config.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                let __vals = $crate::strategy::Strategy::sample(&__strat, &mut __rng);
                if let Err(__msg) = __run(::std::clone::Clone::clone(&__vals)) {
                    let (__min, __min_msg) =
                        $crate::shrink_failure(&__strat, __vals, &__run, __msg);
                    panic!(
                        "proptest case {} of {} failed: {}\nminimal failing input ({}): {:?}",
                        __case,
                        __config.cases,
                        __min_msg,
                        stringify!($($params)*),
                        __min,
                    );
                }
            }
        }
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
}

/// Folds `a in s1, b in s2, ...` into the nested tuple strategy
/// `(s1, (s2, ()))`.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_strats {
    () => { () };
    (mut $var:ident in $strat:expr) => { (($strat), ()) };
    (mut $var:ident in $strat:expr, $($rest:tt)*) => {
        (($strat), $crate::__proptest_strats!($($rest)*))
    };
    ($var:ident in $strat:expr) => { (($strat), ()) };
    ($var:ident in $strat:expr, $($rest:tt)*) => {
        (($strat), $crate::__proptest_strats!($($rest)*))
    };
}

/// Destructures the nested tuple value produced by the strategy of
/// [`__proptest_strats!`] back into the test's named bindings.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_unbind {
    ($vals:ident;) => { let () = $vals; };
    ($vals:ident; mut $var:ident in $strat:expr) => {
        let (mut $var, _) = $vals;
    };
    ($vals:ident; mut $var:ident in $strat:expr, $($rest:tt)*) => {
        let (mut $var, $vals) = $vals;
        $crate::__proptest_unbind!{ $vals; $($rest)* }
    };
    ($vals:ident; $var:ident in $strat:expr) => {
        let ($var, _) = $vals;
    };
    ($vals:ident; $var:ident in $strat:expr, $($rest:tt)*) => {
        let ($var, $vals) = $vals;
        $crate::__proptest_unbind!{ $vals; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::for_case("t", 3);
        let mut b = TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_strategies_stay_in_bounds() {
        let mut rng = TestRng::from_seed(7);
        for _ in 0..500 {
            let v = Strategy::sample(&(-10i64..10), &mut rng);
            assert!((-10..10).contains(&v));
            let u = Strategy::sample(&(3usize..6), &mut rng);
            assert!((3..6).contains(&u));
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = TestRng::from_seed(9);
        for _ in 0..200 {
            let v = Strategy::sample(&prop::collection::vec(0i64..5, 2..7), &mut rng);
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|&x| (0..5).contains(&x)));
        }
    }

    #[test]
    fn int_shrink_halves_toward_start() {
        let s = 0i64..100;
        assert_eq!(s.shrink(&57), vec![0, 28, 56]);
        assert_eq!(s.shrink(&0), Vec::<i64>::new());
        let neg = -10i64..10;
        assert_eq!(neg.shrink(&-10), Vec::<i64>::new());
        assert!(neg.shrink(&6).contains(&-2));
        assert!(Strategy::shrink(&any::<bool>(), &true).contains(&false));
        assert!(Strategy::shrink(&any::<bool>(), &false).is_empty());
    }

    #[test]
    fn vec_shrink_reduces_length_and_elements() {
        let s = prop::collection::vec(0i64..10, 1..9);
        let cands = s.shrink(&vec![5, 6, 7, 8]);
        assert!(cands.contains(&vec![5, 6]), "{cands:?}"); // halving
        assert!(cands.contains(&vec![5, 6, 7]), "{cands:?}"); // drop last
        assert!(cands.contains(&vec![0, 6, 7, 8]), "{cands:?}"); // element
        assert!(s.shrink(&vec![0]).is_empty());
    }

    #[test]
    fn shrink_failure_finds_local_minimum() {
        // Property: x < 10. Failing sample 57 must shrink to exactly 10.
        let strat = (0i64..100, ());
        let run = |(x, ()): (i64, ())| {
            if x >= 10 {
                Err(format!("{x} too big"))
            } else {
                Ok(())
            }
        };
        let (min, msg) = crate::shrink_failure(&strat, (57, ()), &run, "seed".into());
        assert_eq!(min.0, 10);
        assert_eq!(msg, "10 too big");
    }

    #[test]
    fn failing_property_reports_minimal_input() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn sums_stay_small(data in prop::collection::vec(0i64..100, 1..9)) {
                prop_assert!(data.iter().sum::<i64>() < 50);
            }
        }
        let err = std::panic::catch_unwind(sums_stay_small).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("minimal failing input"), "{msg}");
        // The greedy shrinker lands on a single-element vector whose value
        // sits exactly at the property boundary.
        assert!(msg.contains("[50]"), "{msg}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: bindings, mut bindings, and prop_asserts.
        #[test]
        fn macro_binds_and_asserts(mut data in prop::collection::vec(-5i64..5, 1..9),
                                   k in 1i64..4) {
            data.sort_unstable();
            prop_assert!(data.windows(2).all(|w| w[0] <= w[1]));
            prop_assert_eq!(k.signum(), 1);
        }
    }
}
