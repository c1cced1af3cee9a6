//! Vendored, dependency-free subset of `proptest`.
//!
//! Offline builds cannot fetch the real crate, so this reimplements the
//! surface the repository's property tests use: the [`Strategy`] trait
//! with `prop_map` / `prop_flat_map` / `boxed`, numeric-range and
//! regex-literal strategies, `Just`, `any::<T>()`, tuple composition,
//! [`collection`] strategies, [`prop_oneof!`], and the [`proptest!`]
//! test-harness macro with `prop_assert!` / `prop_assert_eq!`.
//!
//! Semantics differ from upstream in one deliberate way: failing inputs
//! are *not shrunk* — the failing case is reported as generated. Cases
//! are sampled deterministically per test (fixed seed sequence), so
//! failures reproduce.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::marker::PhantomData;
use std::rc::Rc;

/// Per-test configuration, settable with
/// `#![proptest_config(ProptestConfig { cases: …, ..ProptestConfig::default() })]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
    /// Accepted for upstream compatibility; this implementation never
    /// shrinks, so the value is unused.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            max_shrink_iters: 0,
        }
    }
}

/// Error type threaded out of `prop_assert!` failures.
pub type TestCaseError = String;

/// A generator of test values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then a dependent strategy from it.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erase for heterogeneous composition (`prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            sampler: Rc::new(move |rng| self.sample(rng)),
        }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn sample(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// A type-erased strategy (cheaply clonable).
#[derive(Clone)]
pub struct BoxedStrategy<T> {
    sampler: Rc<dyn Fn(&mut StdRng) -> T>,
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        (self.sampler)(rng)
    }
}

/// Uniform choice between boxed alternatives (built by [`prop_oneof!`]).
#[derive(Clone)]
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Build from the alternatives; panics if empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        let i = rng.gen_range(0..self.arms.len());
        self.arms[i].sample(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

// ---------------------------------------------------------------------
// Numeric ranges
// ---------------------------------------------------------------------

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for ::std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for ::std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategies!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64);

// ---------------------------------------------------------------------
// `any`
// ---------------------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Draw from the full domain.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.gen_range(<$t>::MIN..=<$t>::MAX)
            }
        }
    )*};
}

arbitrary_ints!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.gen_bool(0.5)
    }
}

/// Strategy over a type's full domain (see [`any`]).
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// ---------------------------------------------------------------------
// Tuples
// ---------------------------------------------------------------------

macro_rules! tuple_strategies {
    ($(($($t:ident . $idx:tt),+))*) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

// ---------------------------------------------------------------------
// Regex-literal string strategies
// ---------------------------------------------------------------------

enum Atom {
    /// `[a-z0-9_]`-style class, stored as inclusive char ranges.
    Class(Vec<(char, char)>),
    /// `\PC` — any non-control character.
    Printable,
    /// A literal character.
    Lit(char),
}

enum Quant {
    One,
    Star,
    Between(usize, usize),
}

fn parse_pattern(pat: &str) -> Vec<(Atom, Quant)> {
    let mut chars = pat.chars().peekable();
    let mut out = Vec::new();
    while let Some(c) = chars.next() {
        let atom = match c {
            '[' => {
                let mut ranges = Vec::new();
                let mut class: Vec<char> = Vec::new();
                for c in chars.by_ref() {
                    if c == ']' {
                        break;
                    }
                    class.push(c);
                }
                let mut i = 0;
                while i < class.len() {
                    if i + 2 < class.len() && class[i + 1] == '-' {
                        ranges.push((class[i], class[i + 2]));
                        i += 3;
                    } else {
                        ranges.push((class[i], class[i]));
                        i += 1;
                    }
                }
                Atom::Class(ranges)
            }
            '\\' => match chars.next() {
                Some('P') => {
                    let next = chars.next();
                    assert_eq!(next, Some('C'), "only the \\PC escape class is supported");
                    Atom::Printable
                }
                Some('d') => Atom::Class(vec![('0', '9')]),
                Some(other) => Atom::Lit(other),
                None => panic!("dangling escape in pattern {pat:?}"),
            },
            lit => Atom::Lit(lit),
        };
        let quant = match chars.peek() {
            Some('*') => {
                chars.next();
                Quant::Star
            }
            Some('+') => {
                chars.next();
                Quant::Between(1, 64)
            }
            Some('?') => {
                chars.next();
                Quant::Between(0, 1)
            }
            Some('{') => {
                chars.next();
                let mut spec = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        break;
                    }
                    spec.push(c);
                }
                let (lo, hi) = match spec.split_once(',') {
                    Some((lo, hi)) => (
                        lo.parse().expect("quantifier lower bound"),
                        hi.parse().expect("quantifier upper bound"),
                    ),
                    None => {
                        let n = spec.parse().expect("quantifier count");
                        (n, n)
                    }
                };
                Quant::Between(lo, hi)
            }
            _ => Quant::One,
        };
        out.push((atom, quant));
    }
    out
}

/// A small pool of non-ASCII, non-control characters so `\PC` exercises
/// multi-byte UTF-8 paths.
const UNICODE_POOL: &[char] = &['é', 'λ', 'Ω', '→', '字', '𝕏', 'ß', '¬'];

fn sample_atom(atom: &Atom, rng: &mut StdRng) -> char {
    match atom {
        Atom::Lit(c) => *c,
        Atom::Class(ranges) => {
            let (lo, hi) = ranges[rng.gen_range(0..ranges.len())];
            char::from_u32(rng.gen_range(lo as u32..=hi as u32)).unwrap_or(lo)
        }
        Atom::Printable => {
            if rng.gen_bool(0.125) {
                UNICODE_POOL[rng.gen_range(0..UNICODE_POOL.len())]
            } else {
                char::from(rng.gen_range(0x20u8..0x7F))
            }
        }
    }
}

impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut StdRng) -> String {
        let mut out = String::new();
        for (atom, quant) in parse_pattern(self) {
            let n = match quant {
                Quant::One => 1,
                Quant::Star => rng.gen_range(0usize..=64),
                Quant::Between(lo, hi) => rng.gen_range(lo..=hi),
            };
            for _ in 0..n {
                out.push(sample_atom(&atom, rng));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------

/// Element-count specification for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange {
            lo: n,
            hi_inclusive: n,
        }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
        SizeRange {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

impl SizeRange {
    fn sample(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.lo..=self.hi_inclusive)
    }
}

/// Strategies for standard collections.
pub mod collection {
    use super::{SizeRange, Strategy};
    use rand::rngs::StdRng;
    use std::collections::{BTreeMap, BTreeSet};

    /// `Vec` of `size` elements drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// `BTreeSet` built from `size` draws (duplicates collapse, so the
    /// set may be smaller than the drawn size — as in real proptest's
    /// best-effort behaviour).
    pub fn btree_set<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            elem,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    #[derive(Clone)]
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> BTreeSet<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// `BTreeMap` built from `size` key/value draws.
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy {
            key,
            value,
            size: size.into(),
        }
    }

    /// See [`btree_map`].
    #[derive(Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn sample(&self, rng: &mut StdRng) -> BTreeMap<K::Value, V::Value> {
            let n = self.size.sample(rng);
            (0..n)
                .map(|_| (self.key.sample(rng), self.value.sample(rng)))
                .collect()
        }
    }
}

pub use collection::{BTreeMapStrategy, BTreeSetStrategy, VecStrategy};

/// Build the deterministic generator for one test case.
pub fn case_rng(case: u64) -> StdRng {
    StdRng::seed_from_u64(
        0x70_72_6F_70u64
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(case),
    )
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Assert inside a `proptest!` body (reports instead of panicking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Equality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` != `{:?}`", left, right
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` != `{:?}`: {}", left, right, format!($($fmt)+)
        );
    }};
}

/// Inequality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
}

/// Define property tests. Each function is expanded into a `#[test]`
/// that samples its arguments `cases` times.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@expand $cfg; $($rest)*);
    };
    (@expand $cfg:expr; $(
        $(#[$attr:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            #[allow(unused_variables)]
            for case in 0..u64::from(config.cases) {
                let rng = &mut $crate::case_rng(case);
                $(let $arg = $crate::Strategy::sample(&($strat), rng);)+
                let outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(message) = outcome {
                    panic!("proptest case {case} failed: {message}");
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@expand $crate::ProptestConfig::default(); $($rest)*);
    };
}

/// The common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestCaseError, Union,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_tuples_and_maps_compose() {
        let rng = &mut super::case_rng(1);
        let s = (0i32..10, 5u8..=6).prop_map(|(a, b)| (a * 2, b));
        for _ in 0..100 {
            let (a, b) = s.sample(rng);
            assert!(a % 2 == 0 && (0..20).contains(&a));
            assert!((5..=6).contains(&b));
        }
    }

    #[test]
    fn regex_literals_generate_matching_strings() {
        let rng = &mut super::case_rng(2);
        for _ in 0..100 {
            let ident = "[a-z_][a-z0-9_]{0,30}".sample(rng);
            assert!(!ident.is_empty() && ident.len() <= 31);
            let first = ident.chars().next().expect("non-empty");
            assert!(first == '_' || first.is_ascii_lowercase());
            let free = "\\PC{0,40}".sample(rng);
            assert!(free.chars().all(|c| !c.is_control()));
        }
    }

    #[test]
    fn collections_respect_size_bounds() {
        let rng = &mut super::case_rng(3);
        for _ in 0..100 {
            let v = super::collection::vec(0u32..9, 2..5).sample(rng);
            assert!((2..5).contains(&v.len()));
            let s = super::collection::btree_set(0usize..16, 1..6).sample(rng);
            assert!(!s.is_empty() && s.len() <= 5);
            let m = super::collection::btree_map(0u32..4, 1u32..100, 0..3).sample(rng);
            assert!(m.len() <= 2);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        #[test]
        fn the_harness_macro_works(x in 0i32..100, label in "[a-z]{1,4}") {
            prop_assert!((0..100).contains(&x));
            prop_assert_eq!(label.len(), label.chars().count());
            if x > 1000 {
                return Ok(()); // exercise early return
            }
        }

        #[test]
        fn oneof_and_flat_map_compose(
            v in (1usize..4).prop_flat_map(|n| super::collection::vec(
                prop_oneof![Just(1u8), Just(2u8), 5u8..7],
                n..=n,
            ))
        ) {
            prop_assert!(!v.is_empty() && v.len() <= 3);
            prop_assert!(v.iter().all(|&x| [1, 2, 5, 6].contains(&x)));
        }
    }
}
