//! Vendored, dependency-free subset of `serde_json` for the local
//! `serde`: [`to_string`] and [`to_string_pretty`], which run the type's
//! own [`Serialize`] impl through a compact or pretty
//! `serde::ser::Writer`, and [`from_str`], which hands the text to its
//! [`Deserialize`] impl through a `serde::de::Reader`.

use serde::de::Reader;
use serde::ser::Writer;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Serialisation or parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serialise to compact JSON.
///
/// # Errors
/// Never fails: every value the writer takes is representable; the
/// `Result` mirrors the real `serde_json` signature.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut w = Writer::compact();
    value.serialize(&mut w);
    Ok(w.into_string())
}

/// Serialise to human-readable JSON (two-space indent).
///
/// # Errors
/// Never fails: every value the writer takes is representable; the
/// `Result` mirrors the real `serde_json` signature.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut w = Writer::pretty();
    value.serialize(&mut w);
    Ok(w.into_string())
}

/// Read a value from JSON text; anything but whitespace after it is an
/// error.
///
/// # Errors
/// [`Error`] with the first malformed construct or type mismatch.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut r = Reader::new(text);
    T::deserialize(&mut r)
        .and_then(|value| r.finish().map(|()| value))
        .map_err(|e| Error(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `text` is one well-formed JSON value, read through
    /// `Reader::skip_value` as an unknown field would be.
    fn well_formed(text: &str) -> bool {
        let mut r = Reader::new(text);
        r.skip_value().and_then(|()| r.finish()).is_ok()
    }

    /// Read `json` as a `T` and check it prints back to the same text.
    fn round_trip<T: Serialize + Deserialize>(json: &str) {
        let v: T = from_str(json).expect(json);
        assert_eq!(to_string(&v).expect("print"), json);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip::<Option<bool>>("null");
        round_trip::<bool>("true");
        round_trip::<bool>("false");
        round_trip::<i64>("0");
        round_trip::<i64>("-7");
        round_trip::<u64>("18446744073709551615");
        round_trip::<f64>("1.5");
        round_trip::<String>("\"hi\"");
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Nested {
        name: String,
        items: (i64, Option<bool>, bool),
        empty: Vec<u8>,
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Nested {
            name: "x\n\"quoted\"".into(),
            items: (1, None, true),
            empty: vec![],
        };
        let compact = to_string(&v).expect("print");
        let pretty = to_string_pretty(&v).expect("pretty");
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Nested>(&compact).as_ref(), Ok(&v));
        assert_eq!(from_str::<Nested>(&pretty), Ok(v));
    }

    #[test]
    fn malformed_input_is_rejected() {
        for bad in ["{\"a\":}", "[1,", "tru", "1 2"] {
            assert!(!well_formed(bad), "{bad}");
        }
        assert!(from_str::<Vec<u8>>("[1,").is_err());
        assert!(from_str::<bool>("tru").is_err());
        assert!(from_str::<u8>("1 2").is_err());
    }

    #[test]
    fn float_display_round_trips() {
        let v: f64 = 0.1 + 0.2;
        let back: f64 = from_str(&to_string(&v).expect("print")).expect("parse");
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Point {
        x: i32,
        label: Option<String>,
        weight: f64,
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Pair(u8, u8);

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Shape {
        Empty,
        Dot(Point),
        Segment(u8, u8),
        Box { w: u32, h: u32 },
    }

    #[test]
    fn struct_fields_read_in_any_order() {
        let want = Point {
            x: 3,
            label: Some("a".into()),
            weight: 0.5,
        };
        for json in [
            r#"{"x":3,"label":"a","weight":0.5}"#,
            r#"{"weight":0.5,"x":3,"label":"a"}"#,
            r#"{"label":"a","weight":0.5,"x":3}"#,
        ] {
            assert_eq!(from_str::<Point>(json), Ok(want.clone()), "{json}");
        }
    }

    #[test]
    fn unknown_fields_are_skipped_however_nested() {
        let json = r#"{"extra":{"deep":[1,{"a":[null,true,"s\"]"]},-2.5e3]},"x":1,
            "label":null,"more":[[],{}],"weight":2}"#;
        let want = Point {
            x: 1,
            label: None,
            weight: 2.0,
        };
        assert_eq!(from_str::<Point>(json), Ok(want));
        // A skipped value must still be well-formed JSON.
        assert!(from_str::<Point>(r#"{"extra":[1,],"x":1,"label":null,"weight":2}"#).is_err());
    }

    #[test]
    fn the_first_of_a_repeated_key_wins() {
        let json = r#"{"x":1,"label":null,"weight":2,"x":"not even a number"}"#;
        assert_eq!(from_str::<Point>(json).map(|p| p.x), Ok(1));
    }

    #[test]
    fn a_missing_field_is_an_error_even_for_an_option() {
        let err = from_str::<Point>(r#"{"x":1,"weight":2}"#).expect_err("label is missing");
        assert!(err.to_string().contains("missing field `label`"), "{err}");
        assert!(from_str::<Point>(r#"{"label":null,"weight":2}"#).is_err());
    }

    #[test]
    fn numbers_convert_between_integers_and_floats() {
        assert_eq!(from_str::<u32>("7.0"), Ok(7));
        assert_eq!(from_str::<i64>("-2e3"), Ok(-2000));
        assert!(from_str::<u32>("7.25").is_err());
        assert_eq!(from_str::<f64>("7"), Ok(7.0));
        assert_eq!(from_str::<f64>("18446744073709551615"), Ok(u64::MAX as f64));
        assert_eq!(from_str::<u64>("18446744073709551615"), Ok(u64::MAX));
        assert!(from_str::<u64>("18446744073709551616").is_err());
        assert_eq!(from_str::<i64>("-9223372036854775808"), Ok(i64::MIN));
        assert!(from_str::<i64>("9223372036854775808").is_err());
        assert_eq!(from_str::<u64>("9223372036854775808"), Ok(1 << 63));
        // Float text goes through `str::parse::<f64>`, bit for bit.
        for text in ["0.1", "1e-320", "-0.0", "2.5E+10", "123456789.123456789"] {
            let got = from_str::<f64>(text).expect(text);
            assert_eq!(got.to_bits(), text.parse::<f64>().expect(text).to_bits());
        }
    }

    #[test]
    fn escapes_decode() {
        assert_eq!(
            from_str::<String>(r#""q\"b\\s\/n\n\u00e9\u0041""#),
            Ok("q\"b\\s/n\n\u{e9}A".to_string())
        );
        assert_eq!(from_str::<String>(r#""ö""#), Ok("ö".to_string()));
        assert!(from_str::<String>(r#""\x""#).is_err());
        assert!(from_str::<String>(r#""\ud800""#).is_err());
        // A UTF-16 surrogate pair is one character; a lone half is not.
        assert_eq!(
            from_str::<String>(r#""\ud83d\ude00\uD83D\uDE00""#),
            Ok("\u{1f600}\u{1f600}".to_string())
        );
        for bad in [
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\n""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83d\ude0""#,
        ] {
            assert!(from_str::<String>(bad).is_err(), "{bad}");
        }
        // Exactly four hex digits: no sign, no space, no shorter run.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u41""#] {
            assert!(from_str::<String>(bad).is_err(), "{bad}");
        }
        assert_eq!(
            from_str::<String>(r#""\u00E9\u00e9""#),
            Ok("éé".to_string())
        );
        assert!(from_str::<String>(r#""\u00"#).is_err());
        assert!(from_str::<String>(r#""open"#).is_err());
        // Keys with escapes match field names too.
        let p: Point =
            from_str(r#"{"\u0078":1,"lab\u0065l":null,"weight":0}"#).expect("escaped keys");
        assert_eq!(p.x, 1);
        let control = "\u{1}\t".to_string();
        assert_eq!(
            from_str::<String>(&to_string(&control).expect("print")),
            Ok(control)
        );
    }

    #[test]
    fn empty_containers_and_pretty_input_read() {
        assert_eq!(from_str::<Vec<u8>>("[]"), Ok(vec![]));
        assert_eq!(from_str::<Vec<u8>>(" [ ] "), Ok(vec![]));
        assert_eq!(from_str::<Nothing>("{}"), Ok(Nothing {}));
        let shapes = vec![
            Shape::Empty,
            Shape::Dot(Point {
                x: -1,
                label: Some("p".into()),
                weight: 1.5,
            }),
            Shape::Segment(1, 2),
            Shape::Box { w: 3, h: 4 },
        ];
        let pretty = to_string_pretty(&shapes).expect("pretty");
        assert!(pretty.contains("\n  "));
        assert_eq!(from_str::<Vec<Shape>>(&pretty), Ok(shapes));
        assert_eq!(
            from_str::<Shape>("\t{ \"Box\" :\r\n{ \"h\" : 4 , \"w\" : 3 } }\n"),
            Ok(Shape::Box { w: 3, h: 4 })
        );
    }

    #[test]
    fn enums_accept_only_their_own_variants() {
        assert_eq!(from_str::<Shape>(r#""Empty""#), Ok(Shape::Empty));
        for bad in [
            r#""Circle""#,
            r#"{"Circle":1}"#,
            r#""Segment""#,
            r#"{"Empty":null}"#,
            r#"{}"#,
            r#"{"Segment":[1,2],"Empty":null}"#,
            "3",
        ] {
            assert!(from_str::<Shape>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn tuple_length_rules() {
        // Plain tuples take exactly their arity.
        assert_eq!(from_str::<(u8, u8)>("[1,2]"), Ok((1, 2)));
        assert!(from_str::<(u8, u8)>("[1]").is_err());
        assert!(from_str::<(u8, u8)>("[1,2,3]").is_err());
        // Tuple structs and tuple variants ignore extra elements.
        assert_eq!(from_str::<Pair>("[1,2,[3]]"), Ok(Pair(1, 2)));
        assert!(from_str::<Pair>("[1]").is_err());
        assert_eq!(
            from_str::<Shape>(r#"{"Segment":[1,2,"x"]}"#),
            Ok(Shape::Segment(1, 2))
        );
        assert!(from_str::<Shape>(r#"{"Segment":[1]}"#).is_err());
        assert_eq!(from_str::<[u8; 2]>("[1,2]"), Ok([1, 2]));
        assert!(from_str::<[u8; 2]>("[1,2,3]").is_err());
    }

    #[test]
    fn trailing_characters_are_rejected() {
        assert_eq!(from_str::<u8>(" 1 \n"), Ok(1));
        for bad in ["1 2", "[1] x", "{} {}", "\"a\"\"b\"", "null,"] {
            assert!(!well_formed(bad), "{bad}");
        }
        assert!(from_str::<Point>(r#"{"x":1,"label":null,"weight":2}}"#).is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error() {
        let deep = |n: usize| format!("{}0{}", "[".repeat(n), "]".repeat(n));
        assert!(well_formed(&deep(serde::de::MAX_DEPTH - 1)));
        assert!(!well_formed(&deep(serde::de::MAX_DEPTH + 1)));
        // Also inside a field that is skipped.
        let hidden = format!(
            r#"{{"x":1,"label":null,"weight":2,"junk":{}}}"#,
            deep(serde::de::MAX_DEPTH)
        );
        assert!(from_str::<Point>(&hidden).is_err());
    }

    #[derive(serde::Serialize)]
    struct Meters(u32);

    #[derive(serde::Serialize)]
    struct Marker;

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Nothing {}

    /// The exact bytes of both printers. Store file names, store keys
    /// and committed JSON all hash or compare these bytes, so a change
    /// here is a format change, never a refactor.
    #[test]
    fn printer_bytes_are_pinned() {
        use std::collections::{BTreeMap, HashMap};
        fn pin<T: serde::Serialize>(value: &T, compact: &str, pretty: &str) {
            assert_eq!(to_string(value).expect("print"), compact);
            assert_eq!(to_string_pretty(value).expect("pretty"), pretty);
        }
        let point = |label: Option<&str>| Point {
            x: -1,
            label: label.map(String::from),
            weight: 1.5,
        };
        // Every derive shape.
        pin(
            &point(Some("a")),
            r#"{"x":-1,"label":"a","weight":1.5}"#,
            "{\n  \"x\": -1,\n  \"label\": \"a\",\n  \"weight\": 1.5\n}",
        );
        pin(&Meters(7), "7", "7");
        pin(&Pair(1, 2), "[1,2]", "[\n  1,\n  2\n]");
        pin(&Marker, "null", "null");
        pin(&Nothing {}, "{}", "{}");
        pin(&Shape::Empty, r#""Empty""#, r#""Empty""#);
        pin(
            &Shape::Dot(point(None)),
            r#"{"Dot":{"x":-1,"label":null,"weight":1.5}}"#,
            "{\n  \"Dot\": {\n    \"x\": -1,\n    \"label\": null,\n    \"weight\": 1.5\n  }\n}",
        );
        pin(
            &Shape::Segment(1, 2),
            r#"{"Segment":[1,2]}"#,
            "{\n  \"Segment\": [\n    1,\n    2\n  ]\n}",
        );
        pin(
            &Shape::Box { w: 3, h: 4 },
            r#"{"Box":{"w":3,"h":4}}"#,
            "{\n  \"Box\": {\n    \"w\": 3,\n    \"h\": 4\n  }\n}",
        );
        // Options, empty containers and nesting.
        pin(&Some(5u8), "5", "5");
        pin(&None::<u8>, "null", "null");
        pin(&Vec::<u8>::new(), "[]", "[]");
        pin(&vec![Vec::<u8>::new()], "[[]]", "[\n  []\n]");
        pin(
            &(Vec::<u8>::new(), Nothing {}, [[1u8]]),
            "[[],{},[[1]]]",
            "[\n  [],\n  {},\n  [\n    [\n      1\n    ]\n  ]\n]",
        );
        pin(
            &(1u8, "s", true, 'c'),
            r#"[1,"s",true,"c"]"#,
            "[\n  1,\n  \"s\",\n  true,\n  \"c\"\n]",
        );
        pin(&Box::new(std::sync::Arc::new(false)), "false", "false");
        // Integers at the edges of both ranges.
        pin(&u64::MAX, "18446744073709551615", "18446744073709551615");
        pin(&i64::MIN, "-9223372036854775808", "-9223372036854775808");
        pin(
            &(i64::MAX as u64 + 1),
            "9223372036854775808",
            "9223372036854775808",
        );
        pin(&-1i8, "-1", "-1");
        // Floats: shortest round-trip text, an `f32` widened to `f64`,
        // integral values without ".0", and non-finite values as null.
        pin(&(0.1 + 0.2), "0.30000000000000004", "0.30000000000000004");
        pin(&0.1f32, "0.10000000149011612", "0.10000000149011612");
        pin(&2.0f64, "2", "2");
        pin(&-0.0f64, "-0", "-0");
        pin(&1e21f64, "1000000000000000000000", "1000000000000000000000");
        pin(&1e-7f64, "0.0000001", "0.0000001");
        pin(
            &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
            "[null,null,null]",
            "[\n  null,\n  null,\n  null\n]",
        );
        // Strings: the short escapes, other control characters as
        // lowercase `\u00xx`, everything else (`/`, DEL, non-ASCII) as is.
        let escaped = concat!(
            r#""q\"b\\/\n\r\t\u0008\u000c\u001f\u0001"#,
            "\u{7f}",
            r#"é😀""#
        );
        pin(
            &"q\"b\\/\n\r\t\u{8}\u{c}\u{1f}\u{1}\u{7f}é😀",
            escaped,
            escaped,
        );
        // Maps are `[key, value]` pairs; a hash map in key order, here
        // numeric (9 < 10 < 100), not textual.
        let hash: HashMap<u32, &str> = [(100, "c"), (9, "a"), (10, "b")].into_iter().collect();
        pin(
            &hash,
            r#"[[9,"a"],[10,"b"],[100,"c"]]"#,
            "[\n  [\n    9,\n    \"a\"\n  ],\n  [\n    10,\n    \"b\"\n  ],\n  [\n    100,\n    \"c\"\n  ]\n]",
        );
        let tree: BTreeMap<String, Vec<u8>> = [("b".into(), vec![]), ("a".into(), vec![1])]
            .into_iter()
            .collect();
        pin(
            &tree,
            r#"[["a",[1]],["b",[]]]"#,
            "[\n  [\n    \"a\",\n    [\n      1\n    ]\n  ],\n  [\n    \"b\",\n    []\n  ]\n]",
        );
    }
}
