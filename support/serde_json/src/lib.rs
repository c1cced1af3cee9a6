//! Vendored, dependency-free subset of `serde_json` for the local
//! `serde`: compact and pretty printing of the [`Value`] tree that
//! [`Serialize`] builds, and [`from_str`], which hands the text to the
//! type's own [`Deserialize`] impl through a `serde::de::Reader`.

use serde::de::Reader;
use serde::{Deserialize, Serialize, Value};
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
/// Never fails for the value-tree model; the `Result` mirrors the real
/// `serde_json` signature.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialise to human-readable JSON (two-space indent).
///
/// # Errors
/// Never fails for the value-tree model; the `Result` mirrors the real
/// `serde_json` signature.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
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

// ---------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(n) => {
            if n.is_finite() {
                // `Display` for f64 is the shortest round-trippable form.
                out.push_str(&n.to_string());
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => write_delimited(
            out,
            items.iter(),
            indent,
            depth,
            ('[', ']'),
            |o, item, ind, d| {
                write_value(o, item, ind, d);
            },
        ),
        Value::Map(entries) => {
            write_delimited(
                out,
                entries.iter(),
                indent,
                depth,
                ('{', '}'),
                |o, (k, val), ind, d| {
                    write_string(o, k);
                    o.push(':');
                    if ind.is_some() {
                        o.push(' ');
                    }
                    write_value(o, val, ind, d);
                },
            );
        }
    }
}

fn write_delimited<I: ExactSizeIterator>(
    out: &mut String,
    items: I,
    indent: Option<usize>,
    depth: usize,
    (open, close): (char, char),
    mut write_item: impl FnMut(&mut String, I::Item, Option<usize>, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        write_item(out, item, indent, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for json in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "18446744073709551615",
            "1.5",
            "\"hi\"",
        ] {
            let v: Value = from_str(json).expect(json);
            assert_eq!(to_string(&v).expect("print"), json);
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("x\n\"quoted\"".into())),
            (
                "items".into(),
                Value::Seq(vec![Value::I64(1), Value::Null, Value::Bool(true)]),
            ),
            ("empty".into(), Value::Seq(vec![])),
        ]);
        let compact = to_string(&v).expect("print");
        let back: Value = from_str(&compact).expect("parse");
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).expect("pretty");
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).expect("parse pretty");
        assert_eq!(back, v);
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(from_str::<Value>("{\"a\":}").is_err());
        assert!(from_str::<Value>("[1,").is_err());
        assert!(from_str::<Value>("tru").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }

    #[test]
    fn float_display_round_trips() {
        let v = Value::F64(0.1 + 0.2);
        let back: Value = from_str(&to_string(&v).expect("print")).expect("parse");
        assert_eq!(back, v);
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
        assert_eq!(
            from_str::<Value>("9223372036854775808"),
            Ok(Value::U64(1 << 63))
        );
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
        assert_eq!(from_str::<Value>("{}"), Ok(Value::Map(vec![])));
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
            assert!(from_str::<Value>(bad).is_err(), "{bad}");
        }
        assert!(from_str::<Point>(r#"{"x":1,"label":null,"weight":2}}"#).is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error() {
        let deep = |n: usize| format!("{}0{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&deep(serde::de::MAX_DEPTH - 1)).is_ok());
        assert!(from_str::<Value>(&deep(serde::de::MAX_DEPTH + 1)).is_err());
        // Also inside a field that is skipped.
        let hidden = format!(
            r#"{{"x":1,"label":null,"weight":2,"junk":{}}}"#,
            deep(serde::de::MAX_DEPTH)
        );
        assert!(from_str::<Point>(&hidden).is_err());
    }
}
