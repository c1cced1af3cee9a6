//! The streaming writer every [`Serialize`](crate::Serialize) impl
//! writes JSON text through, the mirror of [`de::Reader`](crate::de::Reader).
//!
//! A [`Writer`] appends to one `String` as the value is walked:
//! containers are opened with [`Writer::begin_seq`] /
//! [`Writer::begin_map`] and closed with [`Writer::end_seq`] /
//! [`Writer::end_map`]; a map entry is a [`Writer::key`] followed by
//! its value. The writer places every comma, colon and (when pretty)
//! newline and two-space indent itself, so an impl only names tokens.
//!
//! The text is fixed byte for byte, because store file names and keys
//! hash it: integers in decimal, finite floats in `f64`'s shortest
//! round-trip `Display` form (so `2.0` is `2`) and non-finite ones as
//! `null`; strings escape `"`, `\`, `\n`, `\r` and `\t` by letter and
//! every other control character as lowercase `\u00xx`. An empty
//! container is `[]` or `{}` in both layouts.

use std::fmt::Write as _;

/// A JSON writer appending to a `String`. See the module docs.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    pretty: bool,
    /// Containers currently open.
    depth: usize,
    /// The innermost open container has no entry yet (so the next one
    /// takes no leading comma). An enclosing container always has one.
    fresh: bool,
    /// A map key was just written, so the next value follows its `:`.
    after_key: bool,
}

impl Writer {
    /// A writer of compact JSON: no whitespace at all.
    #[must_use]
    pub fn compact() -> Writer {
        Writer::default()
    }

    /// A writer of pretty JSON: one entry a line, two-space indent, and
    /// a space after each `:`.
    #[must_use]
    pub fn pretty() -> Writer {
        Writer {
            pretty: true,
            ..Writer::default()
        }
    }

    /// The text written so far.
    #[must_use]
    pub fn into_string(self) -> String {
        debug_assert_eq!(self.depth, 0, "unclosed container");
        self.out
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Start a new entry of the innermost open container.
    #[inline]
    fn entry(&mut self) {
        if !std::mem::take(&mut self.fresh) {
            self.out.push(',');
        }
        if self.pretty {
            self.newline();
        }
    }

    /// Start a value: a map value follows its key, a sequence element
    /// is a new entry, and a top-level value needs nothing.
    #[inline]
    fn value(&mut self) {
        if !std::mem::take(&mut self.after_key) && self.depth > 0 {
            self.entry();
        }
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.value();
        self.out.push_str("null");
    }

    /// Write `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Write an integer (every primitive integer type widens to
    /// `i128` without loss).
    pub fn int(&mut self, v: i128) {
        self.value();
        let _ = write!(self.out, "{v}");
    }

    /// Write a float in its shortest round-trip form, or `null` when it
    /// is not finite.
    pub fn f64(&mut self, v: f64) {
        self.value();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Write a string, escaped.
    pub fn str(&mut self, s: &str) {
        self.value();
        self.string(s);
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        // Every byte that needs an escape is ASCII, so the runs between
        // them are whole characters.
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[run..i]);
            run = i + 1;
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{:04x}", b);
            } else {
                self.out.push_str(escape);
            }
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    fn begin(&mut self, open: char) {
        self.value();
        self.out.push(open);
        self.depth += 1;
        self.fresh = true;
    }

    fn end(&mut self, close: char) {
        self.depth -= 1;
        if !std::mem::replace(&mut self.fresh, false) && self.pretty {
            self.newline();
        }
        self.out.push(close);
    }

    /// Open a sequence (`[`); its elements are the values written until
    /// the matching [`Writer::end_seq`].
    pub fn begin_seq(&mut self) {
        self.begin('[');
    }

    /// Close the innermost open sequence (`]`).
    pub fn end_seq(&mut self) {
        self.end(']');
    }

    /// Open a map (`{`); each entry is a [`Writer::key`] and one value.
    pub fn begin_map(&mut self) {
        self.begin('{');
    }

    /// Write the key of the innermost open map's next entry.
    pub fn key(&mut self, k: &str) {
        self.entry();
        self.string(k);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
    }

    /// Close the innermost open map (`}`).
    pub fn end_map(&mut self) {
        self.end('}');
    }
}
