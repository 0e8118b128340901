//! Token-stream parsing for the derive input (structs and enums only).

use proc_macro::{Delimiter, TokenStream, TokenTree};

use crate::model::{Field, Fields, Item, Variant};
use crate::{group_with, is_ident, is_punct, trees};

/// Parses a derive input item. Panics (= compile error) on unsupported shapes.
pub fn parse_item(input: TokenStream) -> Item {
    let tokens = trees(input);
    let mut cursor = 0;

    skip_attributes_and_visibility(&tokens, &mut cursor);

    let keyword = match tokens.get(cursor) {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => panic!("serde shim derive: expected `struct` or `enum`, found {other:?}"),
    };
    cursor += 1;

    let name = match tokens.get(cursor) {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => panic!("serde shim derive: expected type name, found {other:?}"),
    };
    cursor += 1;

    if tokens.get(cursor).is_some_and(|t| is_punct(t, '<')) {
        panic!("serde shim derive: generic types are not supported (type `{name}`)");
    }

    match keyword.as_str() {
        "struct" => {
            let fields = match tokens.get(cursor) {
                None => Fields::Unit,
                Some(t) if is_punct(t, ';') => Fields::Unit,
                Some(t) => {
                    if let Some(stream) = group_with(t, Delimiter::Brace) {
                        Fields::Named(parse_named_fields(stream))
                    } else if let Some(stream) = group_with(t, Delimiter::Parenthesis) {
                        Fields::Tuple(parse_tuple_fields(stream, false).0)
                    } else {
                        panic!("serde shim derive: unexpected token after struct name: {t}");
                    }
                }
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let stream = tokens
                .get(cursor)
                .and_then(|t| group_with(t, Delimiter::Brace))
                .unwrap_or_else(|| panic!("serde shim derive: expected enum body for `{name}`"));
            Item::Enum { name, variants: parse_variants(stream) }
        }
        other => panic!("serde shim derive: `{other}` items are not supported"),
    }
}

/// Advances past leading `#[...]` attributes and a `pub` / `pub(...)`
/// visibility qualifier.
fn skip_attributes_and_visibility(tokens: &[TokenTree], cursor: &mut usize) {
    loop {
        match tokens.get(*cursor) {
            Some(t) if is_punct(t, '#') => {
                *cursor += 1; // '#'
                if tokens
                    .get(*cursor)
                    .and_then(|t| group_with(t, Delimiter::Bracket))
                    .is_none()
                {
                    panic!("serde shim derive: malformed attribute");
                }
                *cursor += 1; // the [...] group
            }
            Some(t) if is_ident(t, "pub") => {
                *cursor += 1;
                if tokens
                    .get(*cursor)
                    .and_then(|t| group_with(t, Delimiter::Parenthesis))
                    .is_some()
                {
                    *cursor += 1; // pub(crate) etc.
                }
            }
            _ => return,
        }
    }
}

/// Extracts `with = "module"` from a `#[serde(...)]` attribute group, panicking
/// on any other serde attribute (they are not implemented in this shim).
fn serde_with_of_attribute(group: TokenStream) -> Option<String> {
    let tokens = trees(group);
    if tokens.len() != 2 || !is_ident(&tokens[0], "serde") {
        return None; // a non-serde attribute (doc comment etc.)
    }
    let inner = group_with(&tokens[1], Delimiter::Parenthesis)
        .unwrap_or_else(|| panic!("serde shim derive: malformed #[serde(...)] attribute"));
    let inner_tokens = trees(inner);
    match inner_tokens.as_slice() {
        [first, eq, TokenTree::Literal(lit)] if is_ident(first, "with") && is_punct(eq, '=') => {
            let text = lit.to_string();
            Some(
                text.trim_matches('"')
                    .to_string(),
            )
        }
        _ => panic!(
            "serde shim derive: only #[serde(with = \"module\")] is supported, \
             found #[serde({})]",
            inner_tokens.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(" ")
        ),
    }
}

/// Consumes the attributes in front of a field or variant, returning the
/// `with`-module if one was declared.
fn take_field_attributes(tokens: &[TokenTree], cursor: &mut usize) -> Option<String> {
    let mut with = None;
    while tokens.get(*cursor).is_some_and(|t| is_punct(t, '#')) {
        *cursor += 1;
        let group = tokens
            .get(*cursor)
            .and_then(|t| group_with(t, Delimiter::Bracket))
            .unwrap_or_else(|| panic!("serde shim derive: malformed attribute"));
        *cursor += 1;
        if let Some(module) = serde_with_of_attribute(group) {
            with = Some(module);
        }
    }
    with
}

/// Collects the verbatim tokens of a type, up to a top-level comma (angle
/// brackets tracked so `Map<K, V>` stays intact).
fn take_type(tokens: &[TokenTree], cursor: &mut usize) -> String {
    let mut depth: i64 = 0;
    let mut out = Vec::new();
    while let Some(token) = tokens.get(*cursor) {
        if is_punct(token, ',') && depth == 0 {
            break;
        }
        if is_punct(token, '<') {
            depth += 1;
        }
        if is_punct(token, '>') {
            depth -= 1;
        }
        out.push(token.to_string());
        *cursor += 1;
    }
    if out.is_empty() {
        panic!("serde shim derive: expected a type");
    }
    out.join(" ")
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens = trees(stream);
    let mut cursor = 0;
    let mut fields = Vec::new();
    while cursor < tokens.len() {
        let with = take_field_attributes(&tokens, &mut cursor);
        skip_attributes_and_visibility(&tokens, &mut cursor);
        let name = match tokens.get(cursor) {
            Some(TokenTree::Ident(ident)) => ident.to_string(),
            other => panic!("serde shim derive: expected field name, found {other:?}"),
        };
        cursor += 1;
        if !tokens.get(cursor).is_some_and(|t| is_punct(t, ':')) {
            panic!("serde shim derive: expected `:` after field `{name}`");
        }
        cursor += 1;
        let ty = take_type(&tokens, &mut cursor);
        fields.push(Field { name, ty, with });
        if tokens.get(cursor).is_some_and(|t| is_punct(t, ',')) {
            cursor += 1;
        }
    }
    fields
}

/// Parses positional fields, returning their types and the `with`-module of
/// a lone field; `with` is accepted only there, and only when `newtype_with`
/// (the fields of an enum variant).
fn parse_tuple_fields(stream: TokenStream, newtype_with: bool) -> (Vec<String>, Option<String>) {
    let tokens = trees(stream);
    let mut cursor = 0;
    let mut types = Vec::new();
    let mut module = None;
    while cursor < tokens.len() {
        if let Some(with) = take_field_attributes(&tokens, &mut cursor) {
            module = Some(with);
        }
        skip_attributes_and_visibility(&tokens, &mut cursor);
        types.push(take_type(&tokens, &mut cursor));
        if tokens.get(cursor).is_some_and(|t| is_punct(t, ',')) {
            cursor += 1;
        }
    }
    if module.is_some() && !(newtype_with && types.len() == 1) {
        panic!(
            "serde shim derive: #[serde(with)] on a tuple field is supported only \
             in a newtype enum variant"
        );
    }
    (types, module)
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens = trees(stream);
    let mut cursor = 0;
    let mut variants = Vec::new();
    while cursor < tokens.len() {
        let _ = take_field_attributes(&tokens, &mut cursor);
        let name = match tokens.get(cursor) {
            Some(TokenTree::Ident(ident)) => ident.to_string(),
            other => panic!("serde shim derive: expected variant name, found {other:?}"),
        };
        cursor += 1;
        let (fields, with) = match tokens.get(cursor) {
            Some(t) if group_with(t, Delimiter::Parenthesis).is_some() => {
                let stream = group_with(t, Delimiter::Parenthesis).expect("checked");
                cursor += 1;
                let (types, with) = parse_tuple_fields(stream, true);
                (Fields::Tuple(types), with)
            }
            Some(t) if group_with(t, Delimiter::Brace).is_some() => {
                let stream = group_with(t, Delimiter::Brace).expect("checked");
                cursor += 1;
                (Fields::Named(parse_named_fields(stream)), None)
            }
            _ => (Fields::Unit, None),
        };
        if tokens.get(cursor).is_some_and(|t| is_punct(t, '=')) {
            panic!("serde shim derive: explicit enum discriminants are not supported");
        }
        if tokens.get(cursor).is_some_and(|t| is_punct(t, ',')) {
            cursor += 1;
        }
        variants.push(Variant { name, fields, with });
    }
    variants
}
