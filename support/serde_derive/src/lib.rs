//! Vendored `#[derive(Serialize, Deserialize)]` for the local `serde`
//! stub.
//!
//! Instead of `syn`/`quote` (unavailable offline), the item's token
//! stream is walked directly: attributes and visibility are skipped, the
//! struct/enum shape is extracted, and the impl is emitted as a source
//! string parsed back into a `TokenStream`. Supported shapes are exactly
//! what the toolchain derives on: non-generic structs (named, tuple,
//! unit) and enums whose variants are unit, tuple, or struct-like.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::Serialize`: code that writes the item straight to a
/// `serde::ser::Writer`.
///
/// A named struct (or struct variant) is a map of its fields in
/// declaration order, a newtype struct its field's value, a tuple
/// struct a sequence and a unit struct `null`. An enum writes a unit
/// variant as its name string and any other variant as
/// `{"Variant": payload}`, the payload written as the matching struct
/// would be.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(body) => {
            let (pattern, write) = write_body(body);
            format!("let {name}{pattern} = self; {write}")
        }
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|Variant { name: vn, body }| match body {
                    Body::Unit => format!("{name}::{vn} => w.str({vn:?}),"),
                    _ => {
                        let (pattern, write) = write_body(body);
                        format!(
                            "{name}::{vn}{pattern} => {{ w.begin_map(); w.key({vn:?}); {write} \
                             w.end_map(); }}"
                        )
                    }
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n fn serialize(&self, w: &mut ::serde::ser::Writer) \
         {{ {body} }}\n }}"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// A pattern binding a body's fields to `a0, a1, …` (fresh names: a
/// field may be called `w`), and the statements writing them.
fn write_body(body: &Body) -> (String, String) {
    let write = |i: usize| format!("::serde::Serialize::serialize(a{i}, w);");
    match body {
        Body::Unit => (String::new(), "w.null();".to_string()),
        Body::Tuple(1) => ("(a0)".to_string(), write(0)),
        Body::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("a{i}")).collect();
            let items: String = (0..*n).map(write).collect();
            (
                format!("({})", binds.join(", ")),
                format!("w.begin_seq(); {items} w.end_seq();"),
            )
        }
        Body::Named(fields) => {
            let binds: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| format!("{}: a{i}", f.name))
                .collect();
            let entries: String = fields
                .iter()
                .enumerate()
                .map(|(i, f)| format!("w.key({:?}); {}", f.name, write(i)))
                .collect();
            (
                format!(" {{ {} }}", binds.join(", ")),
                format!("w.begin_map(); {entries} w.end_map();"),
            )
        }
    }
}

/// Derive `serde::Deserialize`: code that reads the item straight off
/// a `serde::de::Reader`.
///
/// A named struct (or struct variant) keeps one `Option` slot per field
/// and matches each borrowed key against the field names: the first
/// occurrence of a key fills its slot, repeats and unknown keys are
/// skipped, and an empty slot at the closing brace is a missing-field
/// error. An enum reads a unit variant from its name string and any
/// other variant from the single key of `{"Variant": payload}`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(body) => format!("Ok({})", read_body(name, body)),
        Shape::Enum(variants) => {
            let (unit, tagged): (Vec<&Variant>, Vec<&Variant>) =
                variants.iter().partition(|v| matches!(v.body, Body::Unit));
            let unit_arms: String = unit
                .iter()
                .map(|v| format!("{:?} => Ok({name}::{}),", v.name, v.name))
                .collect();
            let tagged_arms: String = tagged
                .iter()
                .map(|v| {
                    let read = read_body(&format!("{name}::{}", v.name), &v.body);
                    format!("{:?} => {read},", v.name)
                })
                .collect();
            let unknown = format!(
                "other => return Err(::serde::DeError::custom(format!(\
                 \"unknown variant `{{other}}` of {name}\"))),"
            );
            // Each arm only when some variant takes that form: an arm
            // of nothing but `unknown` would diverge.
            let unit = if unit.is_empty() {
                String::new()
            } else {
                format!("Some(b'\"') => match &*r.string()? {{ {unit_arms} {unknown} }},")
            };
            let tagged = if tagged.is_empty() {
                String::new()
            } else {
                format!(
                    "Some(b'{{') => {{\n\
                     r.begin_map()?;\n\
                     let Some(tag) = r.next_key()? else {{\n\
                         return Err(r.error(\"expected enum {name}, got an empty map\"));\n\
                     }};\n\
                     let value = match &*tag {{ {tagged_arms} {unknown} }};\n\
                     if r.next_key()?.is_some() {{\n\
                         return Err(r.error(\"expected enum {name}, got a map of several keys\"));\n\
                     }}\n\
                     Ok(value)\n\
                     }},"
                )
            };
            format!(
                "match r.peek() {{ {unit} {tagged} _ => Err(r.error(\"expected enum {name}\")), }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n fn deserialize(r: &mut ::serde::de::Reader<'_>) \
         -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\n }}"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}

/// An expression reading the value `path…` of a struct or variant body.
/// A unit body skips whatever value is there; a tuple body skips the
/// elements past its own.
fn read_body(path: &str, body: &Body) -> String {
    let read = "::serde::Deserialize::deserialize(r)?";
    match body {
        Body::Unit => format!("{{ r.skip_value()?; {path} }}"),
        Body::Tuple(1) => format!("{path}({read})"),
        Body::Tuple(n) => {
            let short = format!("{path} too short");
            let gets: Vec<String> = (0..*n).map(|_| format!("r.element({short:?})?")).collect();
            format!(
                "{{ r.begin_seq()?; let value = {path}({}); r.skip_elements()?; value }}",
                gets.join(", ")
            )
        }
        Body::Named(fields) => {
            let slots: String = fields
                .iter()
                .enumerate()
                .map(|(i, f)| format!("let mut f{i}: ::std::option::Option<{}> = None;", f.ty))
                .collect();
            let arms: String = fields
                .iter()
                .enumerate()
                .map(|(i, f)| format!("{:?} if f{i}.is_none() => f{i} = Some({read}),", f.name))
                .collect();
            let inits: Vec<String> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| format!("{}: ::serde::de::required(f{i}, {:?})?", f.name, f.name))
                .collect();
            format!(
                "{{ r.begin_map()?; {slots}\n\
                 while let Some(key) = r.next_key()? {{ match &*key {{ {arms} _ => r.skip_value()?, }} }}\n\
                 {path} {{ {} }} }}",
                inits.join(", ")
            )
        }
    }
}

// ---------------------------------------------------------------------
// Token-level item parsing
// ---------------------------------------------------------------------

struct Item {
    name: String,
    shape: Shape,
}

/// A named field and its type, as source text.
struct Field {
    name: String,
    ty: String,
}

enum Shape {
    Struct(Body),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    body: Body,
}

/// What follows a struct or variant name.
enum Body {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        t => panic!("derive: expected `struct` or `enum`, found {t}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        t => panic!("derive: expected item name, found {t}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("derive(Serialize/Deserialize): generic type `{name}` is not supported");
    }
    let shape = match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Struct(Body::Unit),
            Some(t @ TokenTree::Group(_)) => Shape::Struct(parse_body(Some(t))),
            other => panic!("derive: unsupported struct body: {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("derive: expected enum body, found {other:?}"),
        },
        other => panic!("derive: unsupported item kind `{other}`"),
    };
    Item { name, shape }
}

/// The body a `{ … }` or `( … )` group opens; anything else (a
/// variant's `= discriminant`, or nothing) is a unit body.
fn parse_body(t: Option<&TokenTree>) -> Body {
    match t {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Body::Named(named_fields(g.stream()))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Tuple(split_top_level(g.stream()).len())
        }
        _ => Body::Unit,
    }
}

/// Advance past leading `#[...]` attributes and `pub` / `pub(...)`.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => *i += 2, // `#` + bracket group
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g))
                    if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // pub(crate) etc.
                }
            }
            _ => return,
        }
    }
}

/// Split a field/variant list on top-level commas. Groups are opaque
/// trees; only `<...>` nesting needs explicit tracking.
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out: Vec<Vec<TokenTree>> = Vec::new();
    let mut cur: Vec<TokenTree> = Vec::new();
    let mut angle = 0i32;
    for t in stream {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                out.push(std::mem::take(&mut cur));
                continue;
            }
            _ => {}
        }
        cur.push(t);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The fields of a named-field body (struct or struct variant).
fn named_fields(stream: TokenStream) -> Vec<Field> {
    split_top_level(stream)
        .into_iter()
        .map(|field| {
            let mut i = 0;
            skip_attrs_and_vis(&field, &mut i);
            let name = match &field[i] {
                TokenTree::Ident(id) => id.to_string(),
                t => panic!("derive: expected field name, found {t}"),
            };
            // Skip the name and its `:`; the rest is the type.
            let ty: TokenStream = field[i + 2..].iter().cloned().collect();
            Field {
                name,
                ty: ty.to_string(),
            }
        })
        .collect()
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    split_top_level(stream)
        .into_iter()
        .map(|var| {
            let mut i = 0;
            skip_attrs_and_vis(&var, &mut i);
            let name = match &var[i] {
                TokenTree::Ident(id) => id.to_string(),
                t => panic!("derive: expected variant name, found {t}"),
            };
            Variant {
                name,
                body: parse_body(var.get(i + 1)),
            }
        })
        .collect()
}
