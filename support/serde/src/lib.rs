//! Vendored, dependency-free subset of `serde`.
//!
//! Offline builds cannot fetch the real `serde`, so this crate provides
//! the slice the toolchain uses: `#[derive(Serialize, Deserialize)]`
//! (re-exported from the local `serde_derive` proc-macro) without
//! serde's visitor machinery. Each direction streams JSON text through
//! one concrete type and builds no tree:
//! * [`Serialize`] writes through the [`ser::Writer`], so every written
//!   byte (and every hash taken over written bytes) comes from one
//!   printer;
//! * [`Deserialize`] reads through the pull [`de::Reader`]: a derived
//!   struct matches its borrowed field keys as they stream past.
//!
//! Data-model conventions (mirroring serde's externally-tagged defaults):
//! * structs → maps of field name → value; newtype structs are
//!   transparent; tuple structs → sequences; unit structs → null;
//! * enums → `"Variant"` for unit variants, `{"Variant": …}` otherwise;
//! * maps → sequences of `[key, value]` pairs, so non-string keys
//!   round-trip without a string-key convention. A hash map writes its
//!   entries in key order, so equal maps write equal bytes.
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
pub mod ser;

use de::{Number, Reader};
use ser::Writer;

pub use serde_derive::{Deserialize, Serialize};

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

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Write one value to `w`.
    fn serialize(&self, w: &mut Writer);
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
            #[inline]
            fn serialize(&self, w: &mut Writer) {
                w.int(*self as i128);
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
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl Deserialize for bool {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.bool()
    }
}

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(*self);
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
    fn serialize(&self, w: &mut Writer) {
        w.f64(f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Ok(f64::deserialize(r)? as f32)
    }
}

impl Serialize for char {
    fn serialize(&self, w: &mut Writer) {
        w.str(self.encode_utf8(&mut [0; 4]));
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
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl Deserialize for String {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        r.string().map(std::borrow::Cow::into_owned)
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

// ---------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(v) => v.serialize(w),
            None => w.null(),
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

/// Write `items` as one sequence.
fn seq<'a, T: Serialize + 'a>(w: &mut Writer, items: impl IntoIterator<Item = &'a T>) {
    w.begin_seq();
    for item in items {
        item.serialize(w);
    }
    w.end_seq();
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        seq(w, self);
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
    fn serialize(&self, w: &mut Writer) {
        seq(w, self);
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
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        T::deserialize(r).map(Box::new)
    }
}

impl<T: Serialize> Serialize for std::sync::Arc<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        T::deserialize(r).map(std::sync::Arc::new)
    }
}

/// Write map entries as a sequence of `[key, value]` pairs.
fn pairs<'a, K: Serialize + 'a, V: Serialize + 'a>(
    w: &mut Writer,
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
) {
    w.begin_seq();
    for (k, v) in entries {
        w.begin_seq();
        k.serialize(w);
        v.serialize(w);
        w.end_seq();
    }
    w.end_seq();
}

impl<K: Serialize + Ord, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self, w: &mut Writer) {
        // Hash-map iteration order is seeded per map *instance*, so the
        // raw entry order would differ between equal maps (and between
        // processes). Key order fixes one rendering for any map with the
        // same content.
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        pairs(w, entries);
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
    fn serialize(&self, w: &mut Writer) {
        pairs(w, self);
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
            fn serialize(&self, w: &mut Writer) {
                w.begin_seq();
                $(self.$n.serialize(w);)+
                w.end_seq();
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
        let json = r#"{"a": [null, true, -3, 18446744073709551615, 0.5, "s"], "b": {}}"#;
        let mut r = Reader::new(json);
        r.begin_map().expect("{");
        assert_eq!(r.next_key().expect("key").as_deref(), Some("a"));
        r.begin_seq().expect("[");
        assert_eq!(r.element::<Option<u8>>("null"), Ok(None));
        assert_eq!(r.element::<bool>("bool"), Ok(true));
        assert_eq!(r.element::<i64>("i64"), Ok(-3));
        assert_eq!(r.element::<u64>("u64"), Ok(u64::MAX));
        assert_eq!(r.element::<f64>("f64"), Ok(0.5));
        assert_eq!(r.element::<String>("str"), Ok("s".into()));
        assert_eq!(r.next_element(), Ok(false));
        assert_eq!(r.next_key().expect("key").as_deref(), Some("b"));
        r.begin_map().expect("inner {");
        assert_eq!(r.next_key(), Ok(None));
        assert_eq!(r.next_key(), Ok(None));
        r.finish().expect("end");
        // The same text skips whole.
        let mut r = Reader::new(json);
        assert_eq!(r.skip_value().and_then(|()| r.finish()), Ok(()));
    }

    #[test]
    fn nesting_stops_at_the_depth_limit() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let deepest = nest(de::MAX_DEPTH);
        let too_deep = nest(de::MAX_DEPTH + 1);
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
        let json = |map: &HashMap<u32, u32>| {
            let mut w = Writer::compact();
            map.serialize(&mut w);
            w.into_string()
        };
        assert_eq!(json(&a), json(&b));
        assert_eq!(json(&a), "[[1,10],[2,20],[4,40],[7,70],[9,90]]");
    }
}
