//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the compat `serde`.
//!
//! Implemented without `syn`/`quote` (unavailable offline): the item is
//! parsed directly from the `proc_macro::TokenStream` and the impl is
//! emitted as source text. Supported shapes — exactly what this workspace
//! derives — are non-generic structs (named, tuple, unit) and non-generic
//! enums (unit, tuple and struct variants). The one `#[serde(...)]`
//! attribute understood is `#[serde(skip)]` on a named struct field: the
//! field is left out of the serialized map and filled with
//! `Default::default()` on the way back.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item).parse().expect("generated impl parses")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated impl parses")
}

enum Fields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

enum Shape {
    Struct(Fields),
    Enum(Vec<(String, Fields)>),
}

struct Item {
    name: String,
    shape: Shape,
    /// `#[serde(skip)]` fields of a named struct.
    skipped: Vec<String>,
}

fn parse_item(input: TokenStream) -> Item {
    let mut toks = input.into_iter().peekable();
    skip_attrs_and_vis(&mut toks);
    let kind = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected struct/enum, got {other:?}"),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected item name, got {other:?}"),
    };
    if matches!(&toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("derive({name}): generic types are not supported by the compat serde_derive");
    }
    match kind.as_str() {
        "struct" => {
            let mut skipped = Vec::new();
            let fields = match toks.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream(), &mut skipped))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("unexpected struct body {other:?}"),
            };
            Item {
                name,
                shape: Shape::Struct(fields),
                skipped,
            }
        }
        "enum" => {
            let body = match toks.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("expected enum body, got {other:?}"),
            };
            Item {
                name,
                shape: Shape::Enum(parse_variants(body)),
                skipped: Vec::new(),
            }
        }
        other => panic!("cannot derive for {other}"),
    }
}

/// Skips attributes and a visibility; true iff one of the attributes was
/// `#[serde(skip)]`.
fn skip_attrs_and_vis(toks: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) -> bool {
    let mut serde_skip = false;
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                // The [...] group.
                if let Some(TokenTree::Group(attr)) = toks.next() {
                    let text: String = attr.stream().to_string().split_whitespace().collect();
                    serde_skip |= text == "serde(skip)";
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                toks.next();
                // Optional restriction: pub(crate), pub(in path).
                if matches!(&toks.peek(), Some(TokenTree::Group(g))
                    if g.delimiter() == Delimiter::Parenthesis)
                {
                    toks.next();
                }
            }
            _ => return serde_skip,
        }
    }
}

/// Parses `name: Type, ...`, skipping types with bracket-depth tracking
/// (`HashMap<K, V>` has commas that do not separate fields). Fields marked
/// `#[serde(skip)]` go to `skipped` instead of the returned list.
fn parse_named_fields(body: TokenStream, skipped: &mut Vec<String>) -> Vec<String> {
    let mut toks = body.into_iter().peekable();
    let mut names = Vec::new();
    loop {
        let skip = skip_attrs_and_vis(&mut toks);
        match toks.next() {
            None => break,
            Some(TokenTree::Ident(id)) if skip => skipped.push(id.to_string()),
            Some(TokenTree::Ident(id)) => names.push(id.to_string()),
            other => panic!("expected field name, got {other:?}"),
        }
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected ':' after field name, got {other:?}"),
        }
        let mut depth = 0i32;
        for tok in toks.by_ref() {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
        }
    }
    names
}

/// Number of fields in a tuple-struct/tuple-variant body.
fn count_tuple_fields(body: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut fields = 0usize;
    let mut saw_tokens = false;
    for tok in body {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                fields += 1;
                saw_tokens = false;
                continue;
            }
            _ => {}
        }
        saw_tokens = true;
    }
    fields + usize::from(saw_tokens)
}

fn parse_variants(body: TokenStream) -> Vec<(String, Fields)> {
    let mut toks = body.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attrs_and_vis(&mut toks);
        let name = match toks.next() {
            None => break,
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("expected variant name, got {other:?}"),
        };
        let fields = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                toks.next();
                Fields::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let mut skipped = Vec::new();
                let names = parse_named_fields(g.stream(), &mut skipped);
                assert!(
                    skipped.is_empty(),
                    "#[serde(skip)] is only supported on struct fields"
                );
                toks.next();
                Fields::Named(names)
            }
            _ => Fields::Unit,
        };
        // Skip an optional `= discriminant` and the separating comma.
        for tok in toks.by_ref() {
            if matches!(&tok, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push((name, fields));
    }
    variants
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(Fields::Unit) => "::serde::Content::Null".to_string(),
        Shape::Struct(Fields::Named(fields)) => named_to_content(fields, "self."),
        Shape::Struct(Fields::Tuple(1)) => "::serde::Serialize::to_content(&self.0)".to_string(),
        Shape::Struct(Fields::Tuple(n)) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_content(&self.{i})"))
                .collect();
            format!("::serde::Content::Seq(::std::vec![{}])", elems.join(", "))
        }
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for (vname, fields) in variants {
                let arm = match fields {
                    Fields::Unit => format!(
                        "{name}::{vname} => ::serde::Content::Str(\
                         ::std::string::String::from(\"{vname}\")),\n"
                    ),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let payload = if *n == 1 {
                            "::serde::Serialize::to_content(__f0)".to_string()
                        } else {
                            let elems: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_content({b})"))
                                .collect();
                            format!("::serde::Content::Seq(::std::vec![{}])", elems.join(", "))
                        };
                        format!(
                            "{name}::{vname}({}) => ::serde::Content::Map(::std::vec![(\
                             ::std::string::String::from(\"{vname}\"), {payload})]),\n",
                            binds.join(", ")
                        )
                    }
                    Fields::Named(fnames) => {
                        let payload = named_to_content(fnames, "");
                        format!(
                            "{name}::{vname} {{ {} }} => ::serde::Content::Map(::std::vec![(\
                             ::std::string::String::from(\"{vname}\"), {payload})]),\n",
                            fnames.join(", ")
                        )
                    }
                };
                arms.push_str(&arm);
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_content(&self) -> ::serde::Content {{\n{body}\n}}\n}}\n"
    )
}

/// `Content::Map` expression for named fields; `prefix` is `self.` for
/// structs and empty for enum-variant bindings.
fn named_to_content(fields: &[String], prefix: &str) -> String {
    let entries: Vec<String> = fields
        .iter()
        .map(|f| {
            format!(
                "(::std::string::String::from(\"{f}\"), \
                 ::serde::Serialize::to_content(&{prefix}{f}))"
            )
        })
        .collect();
    format!("::serde::Content::Map(::std::vec![{}])", entries.join(", "))
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(Fields::Unit) => format!("::std::result::Result::Ok({name})"),
        Shape::Struct(Fields::Named(fields)) => {
            let mut assigns = named_from_content(fields, "__m");
            for f in &item.skipped {
                assigns.push_str(&format!("\n{f}: ::std::default::Default::default(),"));
            }
            format!(
                "let __m = __c.as_map().ok_or_else(|| \
                 ::serde::DeError::new(\"{name}: expected map\"))?;\n\
                 ::std::result::Result::Ok({name} {{ {assigns} }})"
            )
        }
        Shape::Struct(Fields::Tuple(1)) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_content(__c)?))")
        }
        Shape::Struct(Fields::Tuple(n)) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_content(&__s[{i}])?"))
                .collect();
            format!(
                "let __s = __c.as_seq().ok_or_else(|| \
                 ::serde::DeError::new(\"{name}: expected sequence\"))?;\n\
                 if __s.len() != {n} {{ return ::std::result::Result::Err(\
                 ::serde::DeError::new(\"{name}: wrong tuple arity\")); }}\n\
                 ::std::result::Result::Ok({name}({}))",
                elems.join(", ")
            )
        }
        Shape::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for (vname, fields) in variants {
                match fields {
                    Fields::Unit => unit_arms.push_str(&format!(
                        "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),\n"
                    )),
                    Fields::Tuple(1) => data_arms.push_str(&format!(
                        "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}(\
                         ::serde::Deserialize::from_content(__v)?)),\n"
                    )),
                    Fields::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_content(&__s[{i}])?"))
                            .collect();
                        data_arms.push_str(&format!(
                            "\"{vname}\" => {{\n\
                             let __s = __v.as_seq().ok_or_else(|| \
                             ::serde::DeError::new(\"{name}::{vname}: expected sequence\"))?;\n\
                             if __s.len() != {n} {{ return ::std::result::Result::Err(\
                             ::serde::DeError::new(\"{name}::{vname}: wrong arity\")); }}\n\
                             ::std::result::Result::Ok({name}::{vname}({}))\n}}\n",
                            elems.join(", ")
                        ));
                    }
                    Fields::Named(fnames) => {
                        let assigns = named_from_content(fnames, "__m");
                        data_arms.push_str(&format!(
                            "\"{vname}\" => {{\n\
                             let __m = __v.as_map().ok_or_else(|| \
                             ::serde::DeError::new(\"{name}::{vname}: expected map\"))?;\n\
                             ::std::result::Result::Ok({name}::{vname} {{ {assigns} }})\n}}\n"
                        ));
                    }
                }
            }
            format!(
                "match __c {{\n\
                 ::serde::Content::Str(__s) => match __s.as_str() {{\n\
                 {unit_arms}\
                 __other => ::std::result::Result::Err(::serde::DeError::new(\
                 ::std::format!(\"{name}: unknown variant {{__other}}\"))),\n\
                 }},\n\
                 ::serde::Content::Map(__entries) if __entries.len() == 1 => {{\n\
                 let (__k, __v) = &__entries[0];\n\
                 match __k.as_str() {{\n\
                 {data_arms}\
                 __other => ::std::result::Result::Err(::serde::DeError::new(\
                 ::std::format!(\"{name}: unknown variant {{__other}}\"))),\n\
                 }}\n}}\n\
                 _ => ::std::result::Result::Err(::serde::DeError::new(\
                 \"{name}: expected a variant name or single-entry map\")),\n\
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_content(__c: &::serde::Content) -> \
         ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n}}\n"
    )
}

/// `field: from_content(field(map, "field"))?, ...` assignments.
fn named_from_content(fields: &[String], map_var: &str) -> String {
    fields
        .iter()
        .map(|f| {
            format!(
                "{f}: ::serde::Deserialize::from_content(\
                 ::serde::Content::field({map_var}, \"{f}\"))?,"
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}
