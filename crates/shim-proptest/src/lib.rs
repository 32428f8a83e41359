//! Offline drop-in for the subset of `proptest` 1.x this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the property-testing surface it needs: the
//! [`Strategy`](strategy::Strategy) trait over ranges / tuples /
//! [`Just`](strategy::Just) / collections / string patterns,
//! `any::<T>()`, `prop_oneof!`, `prop_map`, and the [`proptest!`] /
//! `prop_assert*!` macros.
//!
//! Differences from real proptest, deliberate for a zero-dependency
//! shim: no shrinking (a failing case panics with its inputs printed
//! instead of a minimised counterexample), no persisted regression
//! files (`proptest-regressions/` is ignored), and a default of 64
//! cases per property (override per block with
//! `#![proptest_config(ProptestConfig::with_cases(n))]`). Generation is
//! deterministic per test name, so failures reproduce across runs.

pub mod test_runner {
    //! Case generation and failure plumbing.

    /// Error carried out of a failing property body by `prop_assert!`.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Build a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Result type of one generated case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Per-block configuration (only `cases` is honoured).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic generator backing all strategies (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct GenRng {
        state: u64,
    }

    impl GenRng {
        /// Seed deterministically from a test name, so each property
        /// sees a stable stream across runs.
        pub fn for_test(name: &str) -> GenRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
            }
            GenRng { state: h ^ 0x9E37_79B9_7F4A_7C15 }
        }

        /// Next 64 random bits.
        pub fn bits(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)` (`bound > 0`).
        pub fn below(&mut self, bound: u64) -> u64 {
            self.bits() % bound.max(1)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.bits() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and the strategy combinators.

    use crate::test_runner::GenRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut GenRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erase the strategy (needed by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Object-safe core used by [`BoxedStrategy`].
    trait DynStrategy<V> {
        fn generate_dyn(&self, rng: &mut GenRng) -> V;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut GenRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A boxed, type-erased strategy.
    pub struct BoxedStrategy<V>(Box<dyn DynStrategy<V>>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;

        fn generate(&self, rng: &mut GenRng) -> V {
            self.0.generate_dyn(rng)
        }
    }

    /// Always generates a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut GenRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Build from a non-empty arm list.
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut GenRng) -> V {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn generate(&self, rng: &mut GenRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! impl_strategy_int_range {
        ($($t:ty),*) => {
            $(
                impl Strategy for std::ops::Range<$t> {
                    type Value = $t;
                    fn generate(&self, rng: &mut GenRng) -> $t {
                        assert!(self.start < self.end, "empty strategy range");
                        let span = (self.end as u64).wrapping_sub(self.start as u64);
                        (self.start as u64).wrapping_add(rng.below(span)) as $t
                    }
                }
                impl Strategy for std::ops::RangeInclusive<$t> {
                    type Value = $t;
                    fn generate(&self, rng: &mut GenRng) -> $t {
                        let (lo, hi) = (*self.start(), *self.end());
                        assert!(lo <= hi, "empty strategy range");
                        let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                        if span == 0 {
                            return rng.bits() as $t;
                        }
                        (lo as u64).wrapping_add(rng.below(span)) as $t
                    }
                }
            )*
        };
    }

    impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_strategy_float_range {
        ($($t:ty),*) => {
            $(
                impl Strategy for std::ops::Range<$t> {
                    type Value = $t;
                    fn generate(&self, rng: &mut GenRng) -> $t {
                        assert!(self.start < self.end, "empty strategy range");
                        self.start + (self.end - self.start) * rng.unit_f64() as $t
                    }
                }
                impl Strategy for std::ops::RangeInclusive<$t> {
                    type Value = $t;
                    fn generate(&self, rng: &mut GenRng) -> $t {
                        let (lo, hi) = (*self.start(), *self.end());
                        lo + (hi - lo) * rng.unit_f64() as $t
                    }
                }
            )*
        };
    }

    impl_strategy_float_range!(f32, f64);

    macro_rules! impl_strategy_tuple {
        ($(($($s:ident . $idx:tt),+)),*) => {
            $(
                impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                    type Value = ($($s::Value,)+);
                    fn generate(&self, rng: &mut GenRng) -> Self::Value {
                        ($(self.$idx.generate(rng),)+)
                    }
                }
            )*
        };
    }

    impl_strategy_tuple!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

    /// String pattern strategy. Supports the `.{lo,hi}` shape actually
    /// used in this workspace (arbitrary chars, length in `[lo, hi]`);
    /// anything else falls back to 0–32 arbitrary chars.
    impl Strategy for &str {
        type Value = String;

        fn generate(&self, rng: &mut GenRng) -> String {
            let (lo, hi) = parse_dot_repeat(self).unwrap_or((0, 32));
            let len = lo + rng.below((hi - lo + 1) as u64) as usize;
            // Mix ASCII with multi-byte characters so UTF-8 handling is
            // genuinely exercised.
            const POOL: &[char] = &[
                'a',
                'b',
                'z',
                'A',
                'Q',
                '0',
                '9',
                ' ',
                '_',
                '-',
                '.',
                '!',
                'µ',
                'λ',
                'κ',
                'ß',
                '中',
                '�',
                '\u{1F600}',
                '\'',
                '"',
                '\\',
            ];
            (0..len).map(|_| POOL[rng.below(POOL.len() as u64) as usize]).collect()
        }
    }

    /// Parse `.{lo,hi}` → `(lo, hi)`.
    fn parse_dot_repeat(pattern: &str) -> Option<(usize, usize)> {
        let rest = pattern.strip_prefix(".{")?.strip_suffix('}')?;
        let (lo, hi) = rest.split_once(',')?;
        Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
    }

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// The strategy `any::<Self>()` returns.
        type Strategy: Strategy<Value = Self>;

        /// The canonical full-range strategy.
        fn arbitrary() -> Self::Strategy;
    }

    /// Full-range strategy for primitives (see [`Arbitrary`]).
    pub struct AnyOf<T>(std::marker::PhantomData<T>);

    macro_rules! impl_arbitrary_prim {
        ($($t:ty => $gen:expr),* $(,)?) => {
            $(
                impl Strategy for AnyOf<$t> {
                    type Value = $t;
                    fn generate(&self, rng: &mut GenRng) -> $t {
                        let f: fn(&mut GenRng) -> $t = $gen;
                        f(rng)
                    }
                }
                impl Arbitrary for $t {
                    type Strategy = AnyOf<$t>;
                    fn arbitrary() -> AnyOf<$t> {
                        AnyOf(std::marker::PhantomData)
                    }
                }
            )*
        };
    }

    impl_arbitrary_prim!(
        u8 => |r| r.bits() as u8,
        u16 => |r| r.bits() as u16,
        u32 => |r| r.bits() as u32,
        u64 => |r| r.bits(),
        usize => |r| r.bits() as usize,
        i8 => |r| r.bits() as i8,
        i16 => |r| r.bits() as i16,
        i32 => |r| r.bits() as i32,
        i64 => |r| r.bits() as i64,
        isize => |r| r.bits() as isize,
        bool => |r| r.bits() & 1 == 1,
        f64 => |r| r.unit_f64(),
    );

    /// The canonical strategy for any value of `T`.
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }
}

pub mod collection {
    //! Collection strategies (`vec`, `btree_set`).

    use crate::strategy::Strategy;
    use crate::test_runner::GenRng;

    /// Inclusive size bounds for a generated collection.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut GenRng) -> usize {
            self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
        }
    }

    /// Strategy for `Vec<S::Value>` with length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut GenRng) -> Vec<S::Value> {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Strategy for `BTreeSet<S::Value>` with *target* size in `size`
    /// (smaller when the element domain is too narrow).
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;

        fn generate(&self, rng: &mut GenRng) -> std::collections::BTreeSet<S::Value> {
            let target = self.size.pick(rng);
            let mut out = std::collections::BTreeSet::new();
            // Bounded attempts: narrow domains (e.g. 0..3 with target 5)
            // must terminate with a smaller set rather than spin.
            let mut tries = 0;
            while out.len() < target && tries < target * 20 + 16 {
                out.insert(self.element.generate(rng));
                tries += 1;
            }
            out
        }
    }

    /// A set of up to `size` distinct elements drawn from `element`.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size: size.into() }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Assert a condition inside a property, failing the case (not
/// panicking) so the harness can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// `prop_assert!` for equality, printing both sides on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        match (&$a, &$b) {
            (l, r) => {
                $crate::prop_assert!(l == r, "assert_eq failed: {:?} != {:?}", l, r);
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        match (&$a, &$b) {
            (l, r) => {
                $crate::prop_assert!(l == r, $($fmt)*);
            }
        }
    };
}

/// `prop_assert!` for inequality, printing both sides on failure.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        match (&$a, &$b) {
            (l, r) => {
                $crate::prop_assert!(l != r, "assert_ne failed: both {:?}", l);
            }
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::Strategy::boxed($arm)),+])
    };
}

/// Define property tests: each `fn name(arg in strategy, ...)` body runs
/// for `cases` generated inputs (see [`test_runner::ProptestConfig`]).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (config = ($cfg:expr);
     $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng = $crate::test_runner::GenRng::for_test(stringify!($name));
                for __case in 0..__cfg.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                    let __inputs =
                        format!(concat!($(stringify!($arg), " = {:?}; "),+), $(&$arg),+);
                    let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = __result {
                        panic!(
                            "property {} failed at case {}: {}\n  inputs: {}",
                            stringify!($name),
                            __case,
                            e,
                            __inputs
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_oneof_generate_in_domain() {
        let mut rng = crate::test_runner::GenRng::for_test("domain");
        let s = crate::collection::vec(prop_oneof![Just(1u8), Just(2), Just(3)], 5..10);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((5..10).contains(&v.len()));
            assert!(v.iter().all(|x| (1..=3).contains(x)));
        }
    }

    #[test]
    fn string_pattern_respects_length() {
        let mut rng = crate::test_runner::GenRng::for_test("strings");
        for _ in 0..50 {
            let s = Strategy::generate(&".{2,7}", &mut rng);
            let n = s.chars().count();
            assert!((2..=7).contains(&n), "{s:?} has {n} chars");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_round_trip(a in 0u64..100, pair in (0u32..10, any::<bool>()),
                            v in crate::collection::vec(any::<u8>(), 0..20)) {
            prop_assert!(a < 100);
            prop_assert!(pair.0 < 10);
            prop_assert_eq!(v.len(), v.len());
            if v.is_empty() {
                return Ok(());
            }
            prop_assert_ne!(v.len(), 100);
        }
    }

    proptest! {
        #[test]
        fn prop_map_applies(x in (0u64..50).prop_map(|v| v * 2)) {
            prop_assert!(x % 2 == 0 && x < 100);
        }
    }
}
