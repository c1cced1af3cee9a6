//! Vendored, dependency-free subset of `serde`.
//!
//! Offline builds cannot fetch the real `serde`, so this crate provides
//! the slice the toolchain uses: `#[derive(Serialize, Deserialize)]`
//! (re-exported from the local `serde_derive` proc-macro) without
//! serde's visitor machinery. The two directions are asymmetric:
//! * [`Serialize`] renders into a concrete [`Value`] tree, which the
//!   local `serde_json` prints, so every written byte (and every hash
//!   taken over written bytes) comes from one printer;
//! * [`Deserialize`] reads JSON text directly through the pull
//!   [`de::Reader`], building no tree: a derived struct matches its
//!   borrowed field keys as they stream past.
//!
//! Data-model conventions (mirroring serde's externally-tagged defaults):
//! * structs → maps of field name → value; newtype structs are
//!   transparent; tuple structs → sequences; unit structs → null;
//! * enums → `"Variant"` for unit variants, `{"Variant": …}` otherwise;
//! * maps → sequences of `[key, value]` pairs, so non-string keys
//!   round-trip without a string-key convention.
//!
//! Reading accepts what it writes and a little more, the same everywhere:
//! a struct skips unknown fields, keeps the first of a repeated key and
//! rejects a missing one (`Option` fields included); an integer target
//! accepts an integral float and `f64` accepts integers; a tuple struct
//! or tuple variant ignores extra elements, where a plain tuple rejects
//! them.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

pub mod de;

use de::{Number, Reader};

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing value tree every type serialises through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer outside `i64` range (or any non-negative parse).
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Ordered map with string keys (struct fields, enum tags).
    Map(Vec<(String, Value)>),
}

/// Total, deterministic ordering over [`Value`] trees.
///
/// Values of the same variant compare by payload (floats via
/// `total_cmp`, sequences and maps lexicographically); different
/// variants compare by a fixed rank. The order itself is arbitrary —
/// what matters is that it is stable across processes, so serialised
/// hash maps (whose iteration order is seeded per map instance) can be
/// rendered in one canonical entry order and safely byte-compared or
/// content-addressed downstream.
#[must_use]
pub fn canonical_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::I64(_) => 2,
            Value::U64(_) => 3,
            Value::F64(_) => 4,
            Value::Str(_) => 5,
            Value::Seq(_) => 6,
            Value::Map(_) => 7,
        }
    }
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::I64(x), Value::I64(y)) => x.cmp(y),
        (Value::U64(x), Value::U64(y)) => x.cmp(y),
        (Value::F64(x), Value::F64(y)) => x.total_cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Seq(x), Value::Seq(y)) => {
            for (xi, yi) in x.iter().zip(y) {
                let c = canonical_cmp(xi, yi);
                if c != Ordering::Equal {
                    return c;
                }
            }
            x.len().cmp(&y.len())
        }
        (Value::Map(x), Value::Map(y)) => {
            for ((kx, vx), (ky, vy)) in x.iter().zip(y) {
                let c = kx.cmp(ky).then_with(|| canonical_cmp(vx, vy));
                if c != Ordering::Equal {
                    return c;
                }
            }
            x.len().cmp(&y.len())
        }
        _ => rank(a).cmp(&rank(b)),
    }
}

/// Deserialisation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Build an error from any displayable message.
    pub fn custom(msg: impl fmt::Display) -> DeError {
        DeError(msg.to_string())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// Convert to the value tree.
    fn to_value(&self) -> Value;
}

/// Types that can read themselves from JSON text.
pub trait Deserialize: Sized {
    /// Read one value from `r`, consuming exactly its tokens.
    ///
    /// # Errors
    /// [`DeError`] describing the first mismatch or malformed token.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

/// An integer target's view of a number: integral floats are accepted,
/// because JSON printers drop the ".0".
#[inline]
fn integer(r: &mut Reader<'_>) -> Result<i128, DeError> {
    match r.number()? {
        Number::I64(v) => Ok(i128::from(v)),
        Number::U64(v) => Ok(i128::from(v)),
        Number::F64(v) if v.fract() == 0.0 && v.abs() < 2f64.powi(63) => Ok(v as i128),
        Number::F64(v) => Err(DeError(format!("expected integer, got {v}"))),
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if (*self as i128) >= 0 && (*self as i128) > i64::MAX as i128 {
                    Value::U64(*self as u64)
                } else {
                    Value::I64(*self as i64)
                }
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                let n = integer(r)?;
                <$t>::try_from(n).map_err(|_| DeError(format!(
                    "integer {n} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}

int_impls!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.bool()
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Ok(match r.number()? {
            Number::I64(v) => v as f64,
            Number::U64(v) => v as f64,
            Number::F64(v) => v,
        })
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Ok(f64::deserialize(r)? as f32)
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let s = r.string()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError(format!("expected single-char string, got {s:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.string().map(std::borrow::Cow::into_owned)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for &'static str {
    /// Static string slices (used in error payloads) deserialise by
    /// leaking the parsed string — a deliberate trade for supporting
    /// `&'static str` fields without serde's borrowed-data machinery.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Ok(Box::leak(String::deserialize(r)?.into_boxed_str()))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

// ---------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        if r.peek() == Some(b'n') {
            r.null().map(|()| None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.begin_seq()?;
        let mut items = Vec::new();
        while r.next_element()? {
            items.push(T::deserialize(r)?);
        }
        Ok(items)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let items = Vec::<T>::deserialize(r)?;
        let got = items.len();
        items
            .try_into()
            .map_err(|_| DeError(format!("expected array of length {N}, got {got}")))
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        T::deserialize(r).map(Box::new)
    }
}

impl<T: Serialize> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        T::deserialize(r).map(std::sync::Arc::new)
    }
}

fn map_to_value<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) -> Value {
    Value::Seq(
        entries
            .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
            .collect(),
    )
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        // Hash-map iteration order is seeded per map *instance*, so the
        // raw entry order would differ between equal maps (and between
        // processes). Sorting by [`canonical_cmp`] fixes one canonical
        // rendering for any map with the same content.
        let mut entries: Vec<Value> = self
            .iter()
            .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
            .collect();
        entries.sort_by(canonical_cmp);
        Value::Seq(entries)
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        // A map is its `[key, value]` pairs; a repeated key keeps its
        // last value.
        Ok(Vec::<(K, V)>::deserialize(r)?.into_iter().collect())
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Ok(Vec::<(K, V)>::deserialize(r)?.into_iter().collect())
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
                r.begin_seq()?;
                let out = ($(
                    {
                        let _ = $n; // positional marker
                        r.element::<$t>("tuple too short")?
                    },
                )+);
                if r.next_element()? {
                    return Err(DeError("tuple too long".into()));
                }
                Ok(out)
            }
        }
    )*};
}

tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Ok(match r.peek() {
            Some(b'n') => {
                r.null()?;
                Value::Null
            }
            Some(b't' | b'f') => Value::Bool(r.bool()?),
            Some(b'"') => Value::Str(r.string()?.into_owned()),
            Some(b'[') => {
                r.begin_seq()?;
                let mut items = Vec::new();
                while r.next_element()? {
                    items.push(Value::deserialize(r)?);
                }
                Value::Seq(items)
            }
            Some(b'{') => {
                r.begin_map()?;
                let mut entries = Vec::new();
                while let Some(key) = r.next_key()? {
                    entries.push((key.into_owned(), Value::deserialize(r)?));
                }
                Value::Map(entries)
            }
            Some(b'-' | b'0'..=b'9') => match r.number()? {
                Number::I64(v) => Value::I64(v),
                Number::U64(v) => Value::U64(v),
                Number::F64(v) => Value::F64(v),
            },
            None => return Err(r.error("unexpected end of input")),
            Some(c) => return Err(r.error(&format!("unexpected `{}`", c as char))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read<T: Deserialize>(json: &str) -> Result<T, DeError> {
        let mut r = Reader::new(json);
        let value = T::deserialize(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(read::<i32>("42"), Ok(42));
        assert_eq!(read::<u64>("18446744073709551615"), Ok(u64::MAX));
        assert_eq!(read::<f64>("1.5"), Ok(1.5));
        assert_eq!(read::<bool>("true"), Ok(true));
        assert_eq!(read::<String>("\"hi\""), Ok("hi".to_string()));
        assert_eq!(read::<char>("\"x\""), Ok('x'));
        assert!(read::<char>("\"xy\"").is_err());
        assert!(read::<u8>("256").is_err());
        assert!(read::<u32>("-1").is_err());
    }

    #[test]
    fn integral_floats_deserialise_as_integers() {
        assert_eq!(read::<u32>("7.0"), Ok(7));
        assert_eq!(read::<u32>("7e0"), Ok(7));
        assert!(read::<u32>("7.5").is_err());
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<(String, u32)> = read(r#"[["a", 1], ["b", 2]]"#).expect("pairs");
        assert_eq!(v, vec![(String::from("a"), 1u32), (String::from("b"), 2)]);

        let mut m = HashMap::new();
        m.insert(3u32, vec![1i64, 2]);
        assert_eq!(read::<HashMap<u32, Vec<i64>>>("[[3, [1, 2]]]"), Ok(m));
        // A repeated map key keeps its last value, as collecting would.
        let b: BTreeMap<u8, u8> = read("[[1, 2], [1, 3]]").expect("map");
        assert_eq!(b.into_iter().collect::<Vec<_>>(), vec![(1, 3)]);
        assert!(read::<BTreeMap<u8, u8>>("[[1]]").is_err());
        assert!(read::<BTreeMap<u8, u8>>("[[1, 2, 3]]").is_err());

        assert_eq!(read::<[u8; 3]>("[1, 2, 3]"), Ok([1, 2, 3]));
        assert!(read::<[u8; 3]>("[1, 2]").is_err());
        assert_eq!(read::<Option<i32>>("null"), Ok(None));
        assert_eq!(read::<Option<i32>>("5"), Ok(Some(5)));
    }

    #[test]
    fn values_read_every_shape() {
        let v: Value = read(r#"{"a": [null, true, -3, 18446744073709551615, 0.5, "s"], "b": {}}"#)
            .expect("value");
        let expected = Value::Map(vec![
            (
                "a".into(),
                Value::Seq(vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::I64(-3),
                    Value::U64(u64::MAX),
                    Value::F64(0.5),
                    Value::Str("s".into()),
                ]),
            ),
            ("b".into(), Value::Map(vec![])),
        ]);
        assert_eq!(v, expected);
    }

    #[test]
    fn nesting_stops_at_the_depth_limit() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let deepest = nest(de::MAX_DEPTH);
        let too_deep = nest(de::MAX_DEPTH + 1);
        assert!(read::<Value>(&deepest).is_ok());
        assert!(read::<Value>(&too_deep).is_err());
        let skip = |json: &str| {
            let mut r = Reader::new(json);
            r.skip_value().and_then(|()| r.finish())
        };
        assert!(skip(&deepest).is_ok());
        assert!(skip(&too_deep).is_err());
        // Far past the limit, the reader fails before it recurses far.
        assert!(skip(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn hash_maps_serialise_in_canonical_key_order() {
        // Two maps with the same content but different insertion orders
        // (and different per-instance hash seeds) must render
        // identically: downstream code content-addresses and
        // byte-compares serialised forms.
        let mut a = HashMap::new();
        for k in [9u32, 2, 7, 1, 4] {
            a.insert(k, k * 10);
        }
        let mut b = HashMap::new();
        for k in [4u32, 1, 7, 2, 9] {
            b.insert(k, k * 10);
        }
        assert_eq!(a.to_value(), b.to_value());
        let expected: Vec<Value> = [1u32, 2, 4, 7, 9]
            .iter()
            .map(|k| Value::Seq(vec![k.to_value(), (k * 10).to_value()]))
            .collect();
        assert_eq!(a.to_value(), Value::Seq(expected));
    }
}
