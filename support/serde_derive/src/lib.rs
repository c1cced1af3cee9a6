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

/// Derive `serde::Serialize`: code that renders the item as a
/// `serde::Value` tree.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.shape {
        Shape::NamedStruct(fields) => {
            let pushes: String = fields
                .iter()
                .map(|Field { name: f, .. }| {
                    format!("m.push(({f:?}.to_string(), ::serde::Serialize::to_value(&self.{f})));")
                })
                .collect();
            format!("let mut m = ::std::vec::Vec::new(); {pushes} ::serde::Value::Map(m)")
        }
        Shape::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Seq(vec![{}])", items.join(", "))
        }
        Shape::UnitStruct => "::serde::Value::Null".to_string(),
        Shape::Enum(variants) => {
            let name = &item.name;
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        VariantShape::Unit => {
                            format!("{name}::{vn} => ::serde::Value::Str({vn:?}.to_string()),")
                        }
                        VariantShape::Tuple(1) => format!(
                            "{name}::{vn}(a0) => ::serde::Value::Map(vec![({vn:?}.to_string(), \
                             ::serde::Serialize::to_value(a0))]),"
                        ),
                        VariantShape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("a{i}")).collect();
                            let vals: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => ::serde::Value::Map(vec![({vn:?}.to_string(), \
                                 ::serde::Value::Seq(vec![{}]))]),",
                                binds.join(", "),
                                vals.join(", ")
                            )
                        }
                        VariantShape::Struct(fields) => {
                            let pushes: Vec<String> = fields
                                .iter()
                                .map(|Field { name: f, .. }| {
                                    format!(
                                        "({f:?}.to_string(), ::serde::Serialize::to_value({f}))"
                                    )
                                })
                                .collect();
                            let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            format!(
                                "{name}::{vn} {{ {} }} => ::serde::Value::Map(vec![({vn:?}\
                                 .to_string(), ::serde::Value::Map(vec![{}]))]),",
                                names.join(", "),
                                pushes.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {} {{\n fn to_value(&self) -> ::serde::Value {{ {body} }}\n }}",
        item.name
    )
    .parse()
    .expect("generated Serialize impl parses")
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
        Shape::NamedStruct(fields) => format!("Ok({})", read_named(name, fields)),
        Shape::TupleStruct(1) => format!("Ok({name}(::serde::Deserialize::deserialize(r)?))"),
        Shape::TupleStruct(n) => format!("Ok({})", read_tuple(name, *n, "tuple struct too short")),
        Shape::UnitStruct => format!("r.skip_value()?; Ok({name})"),
        Shape::Enum(variants) => {
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.shape, VariantShape::Unit))
                .map(|v| format!("{:?} => Ok({name}::{}),", v.name, v.name))
                .collect();
            let tagged_arms: String = variants
                .iter()
                .filter_map(|v| {
                    let path = format!("{name}::{}", v.name);
                    let read = match &v.shape {
                        VariantShape::Unit => return None,
                        VariantShape::Tuple(1) => {
                            format!("{path}(::serde::Deserialize::deserialize(r)?)")
                        }
                        VariantShape::Tuple(n) => read_tuple(&path, *n, "variant tuple too short"),
                        VariantShape::Struct(fields) => read_named(&path, fields),
                    };
                    Some(format!("{:?} => {read},", v.name))
                })
                .collect();
            let unknown = format!(
                "other => return Err(::serde::DeError::custom(format!(\
                 \"unknown variant `{{other}}` of {name}\"))),"
            );
            // Each arm only when some variant takes that form: an arm
            // of nothing but `unknown` would diverge.
            let unit = if unit_arms.is_empty() {
                String::new()
            } else {
                format!("Some(b'\"') => match &*r.string()? {{ {unit_arms} {unknown} }},")
            };
            let tagged = if tagged_arms.is_empty() {
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

/// An expression reading a map into the named-field value `path { … }`.
fn read_named(path: &str, fields: &[Field]) -> String {
    let slots: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| format!("let mut f{i}: ::std::option::Option<{}> = None;", f.ty))
        .collect();
    let arms: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "{:?} if f{i}.is_none() => f{i} = Some(::serde::Deserialize::deserialize(r)?),",
                f.name
            )
        })
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

/// An expression reading a sequence into the tuple value `path(…)`;
/// elements past the `n`th are skipped.
fn read_tuple(path: &str, n: usize, short: &str) -> String {
    let gets: Vec<String> = (0..n).map(|_| format!("r.element({short:?})?")).collect();
    format!(
        "{{ r.begin_seq()?; let value = {path}({}); r.skip_elements()?; value }}",
        gets.join(", ")
    )
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
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
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
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::TupleStruct(split_top_level(g.stream()).len())
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::UnitStruct,
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
            i += 1;
            let shape = match var.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    VariantShape::Tuple(split_top_level(g.stream()).len())
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    VariantShape::Struct(named_fields(g.stream()))
                }
                // `Variant` or `Variant = discriminant`.
                _ => VariantShape::Unit,
            };
            Variant { name, shape }
        })
        .collect()
}
