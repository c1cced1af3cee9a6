//! The pull reader every [`Deserialize`] impl reads JSON text through.
//!
//! A [`Reader`] walks the bytes once, handing out one token at a time:
//! containers are opened with [`Reader::begin_map`] /
//! [`Reader::begin_seq`] and iterated with [`Reader::next_key`] /
//! [`Reader::next_element`], which also consume the closing bracket.
//! Keys without escapes are borrowed from the input, so a derived struct
//! matches its field names without allocating, and
//! [`Reader::skip_value`] walks a value it does not need through the
//! same calls, building nothing.
//!
//! The grammar is strict JSON with whitespace allowed between any two
//! tokens, and numbers scanned as a greedy run of `-`, digits, `.`,
//! `e`, `E` and `+` that must then parse as an `i64`, a `u64` or an
//! `f64` (in that order, the first two only without a float character).
//! Containers nest at most [`MAX_DEPTH`] deep: deeper input is an error,
//! not a stack overflow. A `\u` escape takes exactly four hex digits; a
//! UTF-16 surrogate pair of two escapes is one character, and a lone
//! surrogate is an error.

use crate::{DeError, Deserialize};
use std::borrow::Cow;

/// Deepest container nesting a [`Reader`] accepts (the default
/// recursion limit of the real `serde_json`). Every open `[` or `{`
/// counts, whether it is decoded or skipped.
pub const MAX_DEPTH: usize = 128;

/// A JSON number as written: an integer when the text has no `.`, `e`,
/// `E` or `+` and fits `i64` (or else `u64`), a float otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Integer text within `i64`.
    I64(i64),
    /// Integer text above `i64::MAX` that fits `u64`.
    U64(u64),
    /// Any other number, parsed by `str::parse::<f64>`.
    F64(f64),
}

/// A pull reader over JSON text. See the module docs.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The text; every slice taken of it starts and ends next to an
    /// ASCII byte, so it is always on a character boundary.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
    /// Bit `d - 1` is set while the container at depth `d` has yielded
    /// no entry yet (so the next one takes no leading comma).
    fresh: u128,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            fresh: 0,
        }
    }

    /// An error naming the current byte offset.
    pub fn error(&self, what: &str) -> DeError {
        DeError(format!("{what} at byte {}", self.pos))
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The first byte of the next token (whitespace skipped), or `None`
    /// at the end of the input.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    /// Check that only whitespace is left.
    ///
    /// # Errors
    /// [`DeError`] naming the first trailing byte.
    pub fn finish(&mut self) -> Result<(), DeError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    #[inline]
    fn keyword(&mut self, kw: &str) -> Result<(), DeError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{kw}`")))
        }
    }

    /// Read `null`.
    ///
    /// # Errors
    /// [`DeError`] when the next token is anything else.
    #[inline]
    pub fn null(&mut self) -> Result<(), DeError> {
        self.keyword("null")
    }

    /// Read `true` or `false`.
    ///
    /// # Errors
    /// [`DeError`] when the next token is not a boolean.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DeError> {
        match self.peek() {
            Some(b't') => self.keyword("true").map(|()| true),
            Some(b'f') => self.keyword("false").map(|()| false),
            _ => Err(self.error("expected bool")),
        }
    }

    /// Read a number. See [`Number`] for how the text is classified.
    ///
    /// # Errors
    /// [`DeError`] when the next token is not a well-formed number.
    #[inline]
    pub fn number(&mut self) -> Result<Number, DeError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.error("expected number"));
        }
        let start = self.pos;
        self.pos += 1;
        let mut float = false;
        while let Some(&c) = self.bytes.get(self.pos) {
            match c {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if !float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Number::I64(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Number::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Number::F64)
            .map_err(|_| DeError(format!("malformed number `{text}`")))
    }

    /// Read a string, borrowed from the input when it has no escapes.
    ///
    /// # Errors
    /// [`DeError`] on a missing quote or a bad escape.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.expect(b'"')?;
        let bytes = self.bytes;
        let mut out: Option<String> = None;
        loop {
            let start = self.pos;
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            let run = &self.text[start..self.pos];
            match bytes.get(self.pos) {
                None => return Err(DeError("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(_) => {
                    let s = out.get_or_insert_with(String::new);
                    s.push_str(run);
                    self.pos += 1;
                    let c = self.escape()?;
                    s.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    /// The character of the escape whose letter is at `pos` (left on
    /// the escape's last byte).
    fn escape(&mut self) -> Result<char, DeError> {
        Ok(match self.bytes.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = match self.hex4()? {
                    high @ 0xd800..=0xdbff => {
                        if !self.bytes[self.pos + 1..].starts_with(b"\\u") {
                            return Err(self.error("lone surrogate \\u escape"));
                        }
                        self.pos += 2;
                        match self.hex4()? {
                            low @ 0xdc00..=0xdfff => {
                                0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                            }
                            _ => return Err(self.error("lone surrogate \\u escape")),
                        }
                    }
                    code => code,
                };
                char::from_u32(code).ok_or_else(|| self.error("lone surrogate \\u escape"))?
            }
            _ => return Err(self.error("bad escape")),
        })
    }

    /// The four hex digits after the `u` at `pos` (left on the last).
    fn hex4(&mut self) -> Result<u32, DeError> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| DeError("truncated \\u escape".into()))?;
        let mut code = 0;
        for &b in hex {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| DeError("bad \\u escape".into()))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    #[inline]
    fn begin(&mut self, open: u8) -> Result<(), DeError> {
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.fresh |= 1 << (self.depth - 1);
        Ok(())
    }

    /// Whether the innermost open container has another entry; `false`
    /// consumes its `close` bracket.
    #[inline]
    fn next(&mut self, close: u8) -> Result<bool, DeError> {
        let Some(bit) = self.depth.checked_sub(1).map(|d| 1u128 << d) else {
            return Err(self.error("no open container"));
        };
        let fresh = self.fresh & bit != 0;
        match self.peek() {
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !fresh => {
                self.pos += 1;
                Ok(true)
            }
            _ if fresh => {
                self.fresh &= !bit;
                Ok(true)
            }
            _ => Err(self.error(&format!("expected `,` or `{}`", close as char))),
        }
    }

    /// Open a map (`{`).
    ///
    /// # Errors
    /// [`DeError`] when the next token is not `{`, or past [`MAX_DEPTH`].
    #[inline]
    pub fn begin_map(&mut self) -> Result<(), DeError> {
        self.begin(b'{')
    }

    /// The next key of the innermost open map, with its `:` consumed so
    /// the value is next; `None` (with the `}` consumed) after the last.
    ///
    /// # Errors
    /// [`DeError`] on malformed separators or keys.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, DeError> {
        if !self.next(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Open a sequence (`[`).
    ///
    /// # Errors
    /// [`DeError`] when the next token is not `[`, or past [`MAX_DEPTH`].
    #[inline]
    pub fn begin_seq(&mut self) -> Result<(), DeError> {
        self.begin(b'[')
    }

    /// Whether the innermost open sequence has another element (which
    /// is then next); `false` consumes the `]`.
    ///
    /// # Errors
    /// [`DeError`] on malformed separators.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, DeError> {
        self.next(b']')
    }

    /// Read and discard one value of any shape, checking it as strictly
    /// as a typed read would.
    ///
    /// # Errors
    /// [`DeError`] on malformed input or nesting past [`MAX_DEPTH`].
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        match self.peek() {
            Some(b'n') => self.null(),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(b'[') => {
                self.begin_seq()?;
                self.skip_elements()
            }
            Some(b'{') => {
                self.begin_map()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            None => Err(self.error("unexpected end of input")),
            Some(c) => Err(self.error(&format!("unexpected `{}`", c as char))),
        }
    }

    /// Skip the remaining elements of the innermost open sequence (the
    /// tail a tuple struct or tuple variant ignores).
    ///
    /// # Errors
    /// [`DeError`] on malformed input.
    pub fn skip_elements(&mut self) -> Result<(), DeError> {
        while self.next_element()? {
            self.skip_value()?;
        }
        Ok(())
    }

    /// The next element of the innermost open sequence, which must have
    /// one.
    ///
    /// # Errors
    /// [`DeError`] `short` when the sequence has ended, or the element's
    /// own error.
    pub fn element<T: Deserialize>(&mut self, short: &str) -> Result<T, DeError> {
        if self.next_element()? {
            T::deserialize(self)
        } else {
            Err(DeError(short.into()))
        }
    }
}

/// A struct field's decoded value, or a "missing field" error when its
/// key never appeared (derive-macro helper).
///
/// # Errors
/// [`DeError`] naming `field` when `slot` is `None`.
#[inline]
pub fn required<T>(slot: Option<T>, field: &str) -> Result<T, DeError> {
    slot.ok_or_else(|| DeError(format!("missing field `{field}`")))
}
