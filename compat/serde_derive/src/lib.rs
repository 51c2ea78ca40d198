//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the in-tree serde
//! shim.
//!
//! The macros are hand-rolled on top of `proc_macro` (no `syn`/`quote`,
//! which are unavailable in this hermetic workspace). They support exactly
//! the shapes the WBAM workspace uses:
//!
//! * structs with named fields, tuple structs (newtype included), unit
//!   structs;
//! * enums with unit, tuple and struct variants;
//! * plain type parameters (`Action<M>`), which receive a
//!   `Serialize`/`Deserialize` bound on the generated impl.
//!
//! Struct fields and enum variants reach the data format with both their
//! name and their declaration position, so reordering either changes the
//! binary encoding (`WIRE.md` §5).
//!
//! Field attributes (`#[serde(...)]`), lifetimes and `where` clauses are not
//! supported and fail with a compile error naming the limitation.

#![warn(missing_docs)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives the shim's `serde::Serialize` for a struct or enum.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derives the shim's `serde::Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

enum Body {
    Struct(Fields),
    Enum(Vec<(String, Fields)>),
}

struct GenericParam {
    name: String,
    bounds: String,
}

struct Item {
    name: String,
    generics: Vec<GenericParam>,
    body: Body,
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&toks, &mut i);

    let kind = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected `struct` or `enum`, found {other}"),
    };
    i += 1;
    let name = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected type name, found {other}"),
    };
    i += 1;

    let generics = parse_generics(&toks, &mut i);

    if matches!(&toks.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "where") {
        panic!("derive shim: `where` clauses are not supported");
    }

    let body = match kind.as_str() {
        "struct" => Body::Struct(parse_struct_fields(&toks, &mut i)),
        "enum" => {
            let group = expect_group(&toks, &mut i, Delimiter::Brace, "enum body");
            Body::Enum(parse_variants(group))
        }
        other => panic!("derive shim: unsupported item kind `{other}`"),
    };

    Item {
        name,
        generics,
        body,
    }
}

fn skip_attrs_and_vis(toks: &[TokenTree], i: &mut usize) {
    loop {
        match toks.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = toks.get(*i + 1) {
                    if let Some(TokenTree::Ident(id)) = g.stream().into_iter().next() {
                        if id.to_string() == "serde" {
                            panic!("derive shim: #[serde(...)] attributes are not supported");
                        }
                    }
                }
                *i += 2; // `#` + bracketed attribute group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = toks.get(*i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1; // pub(crate) etc.
                    }
                }
            }
            _ => return,
        }
    }
}

fn parse_generics(toks: &[TokenTree], i: &mut usize) -> Vec<GenericParam> {
    match toks.get(*i) {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {}
        _ => return Vec::new(),
    }
    *i += 1;
    let mut params = Vec::new();
    let mut depth = 0usize;
    let mut current: Vec<TokenTree> = Vec::new();
    loop {
        let tok = toks
            .get(*i)
            .unwrap_or_else(|| panic!("derive shim: unclosed generics"))
            .clone();
        *i += 1;
        match &tok {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                depth += 1;
                current.push(tok);
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                if depth == 0 {
                    if !current.is_empty() {
                        params.push(parse_generic_param(&current));
                    }
                    return params;
                }
                depth -= 1;
                current.push(tok);
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                params.push(parse_generic_param(&current));
                current.clear();
            }
            _ => current.push(tok),
        }
    }
}

fn parse_generic_param(toks: &[TokenTree]) -> GenericParam {
    if let Some(TokenTree::Punct(p)) = toks.first() {
        if p.as_char() == '\'' {
            panic!("derive shim: lifetime parameters are not supported");
        }
    }
    if let Some(TokenTree::Ident(id)) = toks.first() {
        if id.to_string() == "const" {
            panic!("derive shim: const generics are not supported");
        }
    }
    let name = match toks.first() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("derive shim: expected type parameter, found {other:?}"),
    };
    let bounds = match toks.get(1) {
        Some(TokenTree::Punct(p)) if p.as_char() == ':' => toks[2..]
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(" "),
        _ => String::new(),
    };
    GenericParam { name, bounds }
}

fn expect_group<'a>(
    toks: &'a [TokenTree],
    i: &mut usize,
    delim: Delimiter,
    what: &str,
) -> &'a proc_macro::Group {
    match toks.get(*i) {
        Some(TokenTree::Group(g)) if g.delimiter() == delim => {
            *i += 1;
            g
        }
        other => panic!("derive shim: expected {what}, found {other:?}"),
    }
}

fn parse_struct_fields(toks: &[TokenTree], i: &mut usize) -> Fields {
    match toks.get(*i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Fields::Named(parse_named_fields(g))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Fields::Tuple(count_tuple_fields(g))
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
        other => panic!("derive shim: expected struct body, found {other:?}"),
    }
}

fn parse_named_fields(group: &proc_macro::Group) -> Vec<String> {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("derive shim: expected field name, found {other}"),
        };
        names.push(name);
        i += 1;
        // Skip `: Type` up to the next top-level comma.
        let mut depth = 0usize;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    names
}

fn count_tuple_fields(group: &proc_macro::Group) -> usize {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut depth = 0usize;
    let mut saw_tokens_since_comma = false;
    for tok in &toks {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                count += 1;
                saw_tokens_since_comma = false;
                continue;
            }
            _ => {}
        }
        saw_tokens_since_comma = true;
    }
    if !saw_tokens_since_comma {
        count -= 1; // trailing comma
    }
    count
}

fn parse_variants(group: &proc_macro::Group) -> Vec<(String, Fields)> {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("derive shim: expected variant name, found {other}"),
        };
        i += 1;
        let fields = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple_fields(g))
            }
            _ => Fields::Unit,
        };
        if let Some(TokenTree::Punct(p)) = toks.get(i) {
            if p.as_char() == '=' {
                panic!("derive shim: explicit enum discriminants are not supported");
            }
            if p.as_char() == ',' {
                i += 1;
            }
        }
        variants.push((name, fields));
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------
//
// Generated methods name their own generics `__S` / `'__de` and their locals
// `__*`, so they cannot collide with the item's type parameters or fields.

const SINK: &str = "::serde::ser::Sink";
const SOURCE: &str = "::serde::de::Source";
const KEY: &str = "::serde::de::Key";
const DE_ERROR: &str = "::serde::de::DeError";
const OK: &str = "::std::result::Result::Ok";
const ERR: &str = "::std::result::Result::Err";

fn impl_header(item: &Item, trait_bound: &str) -> (String, String) {
    if item.generics.is_empty() {
        return (String::new(), String::new());
    }
    let impl_params: Vec<String> = item
        .generics
        .iter()
        .map(|p| {
            if p.bounds.is_empty() {
                format!("{}: {trait_bound}", p.name)
            } else {
                format!("{}: {} + {trait_bound}", p.name, p.bounds)
            }
        })
        .collect();
    let ty_params: Vec<String> = item.generics.iter().map(|p| p.name.clone()).collect();
    (
        format!("<{}>", impl_params.join(", ")),
        format!("<{}>", ty_params.join(", ")),
    )
}

/// Statements streaming `fields` (whose values are the expressions
/// `{prefix}{name}`, or `{prefix}{index}` for tuple fields) as one value.
fn ser_fields(prefix: &str, fields: &Fields) -> String {
    let value =
        |f: &dyn std::fmt::Display| format!("::serde::Serialize::serialize({prefix}{f}, __s);");
    match fields {
        Fields::Unit => format!("{SINK}::null(__s);"),
        Fields::Tuple(1) => value(&0),
        Fields::Tuple(n) => {
            let items: String = (0..*n).map(|k| value(&k)).collect();
            format!("{SINK}::begin_seq(__s, {n}); {items} {SINK}::end_seq(__s);")
        }
        Fields::Named(names) => {
            let entries: String = names
                .iter()
                .map(|f| format!("{SINK}::field(__s, \"{f}\"); {}", value(f)))
                .collect();
            format!(
                "{SINK}::begin_struct(__s, {}); {entries} {SINK}::end_struct(__s);",
                names.len()
            )
        }
    }
}

fn gen_serialize(item: &Item) -> String {
    let (impl_generics, ty_generics) = impl_header(item, "::serde::Serialize");
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => ser_fields("&self.", fields),
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .enumerate()
                .map(|(index, (vname, fields))| {
                    let pattern = match fields {
                        Fields::Unit => {
                            return format!(
                            "{name}::{vname} => {SINK}::unit_variant(__s, {index}, \"{vname}\"),"
                        )
                        }
                        Fields::Tuple(n) => {
                            let binders: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                            format!("({})", binders.join(", "))
                        }
                        Fields::Named(fnames) => format!("{{ {} }}", fnames.join(", ")),
                    };
                    let prefix = if matches!(fields, Fields::Tuple(_)) {
                        "__f"
                    } else {
                        ""
                    };
                    format!(
                        "{name}::{vname} {pattern} => {{\
                             {SINK}::begin_variant(__s, {index}, \"{vname}\");\
                             {} {SINK}::end_variant(__s);\
                         }}",
                        ser_fields(prefix, fields)
                    )
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "impl{impl_generics} ::serde::Serialize for {name}{ty_generics} {{\
            fn serialize<__S: {SINK}>(&self, __s: &mut __S) {{ {body} }}\
         }}"
    )
}

/// Statements reading one value from `__src` as `fields`, ending in an
/// `Ok({ty_path} ...)` expression. A named field is matched by its position
/// or by its name, whichever the format supplies; entries may come in any
/// order, the first entry per field wins, unknown entries are skipped (still
/// validated), and a field the input lacks reads as `null`, so `Option`
/// fields tolerate absence as with real serde while required ones fail with
/// the field named.
fn de_fields(ty_path: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => format!("{SOURCE}::skip(__src)?; {OK}({ty_path})"),
        Fields::Tuple(1) => {
            format!("{OK}({ty_path}(::serde::Deserialize::deserialize(__src)?))")
        }
        Fields::Tuple(n) => {
            let items = vec!["::serde::Deserialize::deserialize(__src)?"; *n];
            format!(
                "if {SOURCE}::begin_seq(__src)? != {n} {{\
                     return {ERR}({DE_ERROR}::new(\"wrong number of fields for {ty_path}\"));\
                 }}\
                 let __v = {ty_path}({});\
                 {SOURCE}::end_seq(__src);\
                 {OK}(__v)",
                items.join(", ")
            )
        }
        Fields::Named(names) => {
            let context = |f: &str| {
                format!(
                    ".map_err(|e| {DE_ERROR}::new(\
                     ::std::format!(\"field `{f}` of {ty_path}: {{e}}\")))?"
                )
            };
            let slots: String = (0..names.len())
                .map(|k| format!("let mut __f{k} = ::std::option::Option::None;"))
                .collect();
            let arms: String = names
                .iter()
                .enumerate()
                .map(|(k, f)| {
                    format!(
                        "{KEY}::Index({k}) | {KEY}::Name(\"{f}\") if __f{k}.is_none() => \
                         __f{k} = ::std::option::Option::Some(\
                         ::serde::Deserialize::deserialize(__src){}),",
                        context(f)
                    )
                })
                .collect();
            let build: String = names
                .iter()
                .enumerate()
                .map(|(k, f)| {
                    format!(
                        "{f}: match __f{k} {{\
                             ::std::option::Option::Some(__v) => __v,\
                             ::std::option::Option::None => {SOURCE}::absent(__src){},\
                         }},",
                        context(f)
                    )
                })
                .collect();
            format!(
                "{slots}\
                 for __p in 0..{SOURCE}::begin_struct(__src)? {{\
                     match {SOURCE}::field(__src, __p)? {{ {arms} _ => {SOURCE}::skip(__src)?, }}\
                 }}\
                 {SOURCE}::end_struct(__src);\
                 {OK}({ty_path} {{ {build} }})"
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let (impl_generics, ty_generics) = impl_header(item, "::serde::Deserialize");
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => de_fields(name, fields),
        Body::Enum(variants) => gen_deserialize_enum(name, variants),
    };
    format!(
        "impl{impl_generics} ::serde::Deserialize for {name}{ty_generics} {{\
            fn deserialize<'__de, __S: {SOURCE}<'__de>>(__src: &mut __S) \
                -> ::std::result::Result<Self, {DE_ERROR}> {{ {body} }}\
         }}"
    )
}

/// The source names the variant by its index or by its name (mapped to the
/// index here), and says whether data follows; a unit variant must have
/// none, any other must have some.
fn gen_deserialize_enum(name: &str, variants: &[(String, Fields)]) -> String {
    let count = variants.len();
    let name_arms: String = variants
        .iter()
        .enumerate()
        .map(|(index, (vname, _))| format!("\"{vname}\" => {index},"))
        .collect();
    let arms: String = variants
        .iter()
        .enumerate()
        .map(|(index, (vname, fields))| {
            let wrong = |what: &str| {
                format!(
                    "({index}, _) => {ERR}({DE_ERROR}::new(\
                     \"variant `{vname}` of enum {name} {what}\")),"
                )
            };
            match fields {
                Fields::Unit => format!(
                    "({index}, false) => {OK}({name}::{vname}), {}",
                    wrong("carries data")
                ),
                _ => format!(
                    "({index}, true) => {{ {} }} {}",
                    de_fields(&format!("{name}::{vname}"), fields),
                    wrong("carries no data")
                ),
            }
        })
        .collect();
    format!(
        "let (__key, __data) = {SOURCE}::begin_enum(__src, \"{name}\")?;\
         let __index = match __key {{\
             {KEY}::Index(__i) => __i,\
             {KEY}::Name(__n) => match __n {{\
                 {name_arms}\
                 other => return {ERR}({DE_ERROR}::new(::std::format!(\
                     \"unknown variant `{{other}}` of enum {name}\"))),\
             }},\
         }};\
         let __v: Self = match (__index, __data) {{\
             {arms}\
             (other, _) => {ERR}({DE_ERROR}::new(::std::format!(\
                 \"variant index {{other}} out of range for enum {name} ({count} variants)\"))),\
         }}?;\
         if __data {{ {SOURCE}::end_variant(__src); }}\
         {OK}(__v)"
    )
}
