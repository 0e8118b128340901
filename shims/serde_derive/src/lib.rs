//! Offline shim for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the
//! shapes this workspace uses — plain structs (named, tuple, unit) and enums
//! (unit / newtype / tuple / struct variants), plus the
//! `#[serde(with = "module")]` attribute on named fields and on a newtype
//! variant's field — by parsing the item's token
//! stream directly (no `syn`/`quote` available offline) and emitting code
//! against the `serde` shim's simplified content model.
//!
//! Unsupported shapes (generic types, other `#[serde(...)]` attributes) fail
//! loudly at compile time rather than silently misbehaving.

use proc_macro::{Delimiter, TokenStream, TokenTree};

mod model;
mod parse;

use model::{Fields, Item};

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse::parse_item(input);
    generate_serialize(&item).parse().expect("generated Serialize impl must parse")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse::parse_item(input);
    generate_deserialize(&item).parse().expect("generated Deserialize impl must parse")
}

/// Collects the token trees of a stream into a vector.
fn trees(stream: TokenStream) -> Vec<TokenTree> {
    stream.into_iter().collect()
}

/// True if the tree is the given punctuation character.
fn is_punct(tree: &TokenTree, ch: char) -> bool {
    matches!(tree, TokenTree::Punct(p) if p.as_char() == ch)
}

/// True if the tree is the given identifier.
fn is_ident(tree: &TokenTree, name: &str) -> bool {
    matches!(tree, TokenTree::Ident(i) if i.to_string() == name)
}

/// True if the tree is a group with the given delimiter.
fn group_with(tree: &TokenTree, delimiter: Delimiter) -> Option<TokenStream> {
    match tree {
        TokenTree::Group(g) if g.delimiter() == delimiter => Some(g.stream()),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Code generation: Serialize
// ---------------------------------------------------------------------------

fn generate_serialize(item: &Item) -> String {
    let name = item.name();
    let body = match item {
        Item::Struct { fields, .. } => serialize_struct_body(name, fields),
        Item::Enum { variants, .. } => {
            let mut arms = String::new();
            for (index, variant) in variants.iter().enumerate() {
                let v = &variant.name;
                match &variant.fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{v} => serde::Serializer::serialize_unit_variant(\
                         __serializer, \"{name}\", {index}u32, \"{v}\"),\n"
                    )),
                    Fields::Tuple(types) if types.len() == 1 => {
                        let (helper, value) = match &variant.with {
                            None => (String::new(), "__f0"),
                            Some(module) => (with_helper(module, &types[0]), "&__SerdeWith(__f0)"),
                        };
                        arms.push_str(&format!(
                            "{name}::{v}(__f0) => {{\n{helper}\
                             serde::Serializer::serialize_newtype_variant(\
                             __serializer, \"{name}\", {index}u32, \"{v}\", {value})\n}}\n"
                        ))
                    }
                    Fields::Tuple(types) => {
                        let binders: Vec<String> =
                            (0..types.len()).map(|i| format!("__f{i}")).collect();
                        let mut arm = format!(
                            "{name}::{v}({binds}) => {{\n\
                             let mut __sv = serde::Serializer::serialize_tuple_variant(\
                             __serializer, \"{name}\", {index}u32, \"{v}\", {len}usize)?;\n",
                            binds = binders.join(", "),
                            len = types.len(),
                        );
                        for binder in &binders {
                            arm.push_str(&format!(
                                "serde::ser::SerializeTupleVariant::serialize_field(\
                                 &mut __sv, {binder})?;\n"
                            ));
                        }
                        arm.push_str("serde::ser::SerializeTupleVariant::end(__sv)\n}\n");
                        arms.push_str(&arm);
                    }
                    Fields::Named(fields) => {
                        let names: Vec<&str> =
                            fields.iter().map(|f| f.name.as_str()).collect();
                        let mut arm = format!(
                            "{name}::{v} {{ {binds} }} => {{\n\
                             let mut __sv = serde::Serializer::serialize_struct_variant(\
                             __serializer, \"{name}\", {index}u32, \"{v}\", {len}usize)?;\n",
                            binds = names.join(", "),
                            len = fields.len(),
                        );
                        for field in fields {
                            arm.push_str(&serialize_field_stmt(
                                "serde::ser::SerializeStructVariant",
                                "__sv",
                                &field.name,
                                &field.name,
                                field.with.as_deref(),
                                &field.ty,
                                false,
                            ));
                        }
                        arm.push_str("serde::ser::SerializeStructVariant::end(__sv)\n}\n");
                        arms.push_str(&arm);
                    }
                }
            }
            format!("match self {{\n{arms}}}\n")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl serde::Serialize for {name} {{\n\
         fn serialize<__S: serde::Serializer>(&self, __serializer: __S)\n\
         -> std::result::Result<__S::Ok, __S::Error> {{\n{body}}}\n}}\n"
    )
}

fn serialize_struct_body(name: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => {
            format!("serde::Serializer::serialize_unit_struct(__serializer, \"{name}\")\n")
        }
        Fields::Tuple(types) if types.len() == 1 => format!(
            "serde::Serializer::serialize_newtype_struct(__serializer, \"{name}\", &self.0)\n"
        ),
        Fields::Tuple(types) => {
            let mut body = format!(
                "let mut __sv = serde::Serializer::serialize_tuple(__serializer, {}usize)?;\n",
                types.len()
            );
            for index in 0..types.len() {
                body.push_str(&format!(
                    "serde::ser::SerializeSeq::serialize_element(&mut __sv, &self.{index})?;\n"
                ));
            }
            body.push_str("serde::ser::SerializeSeq::end(__sv)\n");
            body
        }
        Fields::Named(fields) => {
            let mut body = format!(
                "let mut __sv = serde::Serializer::serialize_struct(\
                 __serializer, \"{name}\", {}usize)?;\n",
                fields.len()
            );
            for field in fields {
                body.push_str(&serialize_field_stmt(
                    "serde::ser::SerializeStruct",
                    "__sv",
                    &field.name,
                    &field.name,
                    field.with.as_deref(),
                    &field.ty,
                    true,
                ));
            }
            body.push_str("serde::ser::SerializeStruct::end(__sv)\n");
            body
        }
    }
}

/// One `serialize_field` statement; wraps `with`-fields in a helper struct
/// that routes serialization through the named module.
#[allow(clippy::too_many_arguments)]
fn serialize_field_stmt(
    builder_trait: &str,
    builder: &str,
    key: &str,
    binding: &str,
    with: Option<&str>,
    field_type: &str,
    through_self: bool,
) -> String {
    let access = if through_self { format!("&self.{binding}") } else { binding.to_string() };
    match with {
        None => format!("{builder_trait}::serialize_field(&mut {builder}, \"{key}\", {access})?;\n"),
        Some(module) => format!(
            "{{\n{helper}\
             {builder_trait}::serialize_field(&mut {builder}, \"{key}\", \
             &__SerdeWith({access}))?;\n}}\n",
            helper = with_helper(module, field_type),
        ),
    }
}

/// A helper struct `__SerdeWith` around a `&field_type` whose `Serialize`
/// routes through `module::serialize`.
fn with_helper(module: &str, field_type: &str) -> String {
    format!(
        "struct __SerdeWith<'a>(&'a {field_type});\n\
         impl<'a> serde::Serialize for __SerdeWith<'a> {{\n\
         fn serialize<__S: serde::Serializer>(&self, __serializer: __S)\n\
         -> std::result::Result<__S::Ok, __S::Error> {{\n\
         {module}::serialize(self.0, __serializer)\n}}\n}}\n"
    )
}

// ---------------------------------------------------------------------------
// Code generation: Deserialize
// ---------------------------------------------------------------------------

fn generate_deserialize(item: &Item) -> String {
    let name = item.name();
    let body = match item {
        Item::Struct { fields, .. } => deserialize_struct_body(name, name, fields, None),
        Item::Enum { variants, .. } => {
            let mut arms = String::new();
            for variant in variants {
                let v = &variant.name;
                let constructor = format!("{name}::{v}");
                match &variant.fields {
                    Fields::Unit => arms.push_str(&format!(
                        "\"{v}\" => {{\n\
                         serde::__private::expect_no_payload::<__D::Error>(__payload, \"{v}\")?;\n\
                         Ok({constructor})\n}}\n"
                    )),
                    Fields::Tuple(types) if types.len() == 1 => {
                        let payload = format!(
                            "serde::__private::expect_payload::<__D::Error>(__payload, \"{v}\")?"
                        );
                        let field = match &variant.with {
                            None => format!(
                                "serde::__private::from_content::<_, __D::Error>({payload})?"
                            ),
                            Some(module) => format!(
                                "{module}::deserialize(\
                                 serde::__private::ContentDeserializer::<__D::Error>::new({payload}))?"
                            ),
                        };
                        arms.push_str(&format!("\"{v}\" => Ok({constructor}({field})),\n"))
                    }
                    Fields::Tuple(types) => {
                        let len = types.len();
                        let mut arm = format!(
                            "\"{v}\" => {{\n\
                             let __seq = serde::__private::expect_seq::<__D::Error>(\
                             serde::__private::expect_payload::<__D::Error>(__payload, \"{v}\")?, \
                             {len}usize)?;\n\
                             let mut __it = __seq.into_iter();\n\
                             Ok({constructor}(\n"
                        );
                        for _ in 0..len {
                            arm.push_str(
                                "serde::__private::from_content::<_, __D::Error>(\
                                 __it.next().expect(\"length checked\"))?,\n",
                            );
                        }
                        arm.push_str("))\n}\n");
                        arms.push_str(&arm);
                    }
                    Fields::Named(_) => {
                        let inner = deserialize_struct_body(
                            name,
                            &constructor,
                            &variant.fields,
                            Some(&format!(
                                "serde::__private::expect_payload::<__D::Error>(__payload, \"{v}\")?"
                            )),
                        );
                        arms.push_str(&format!("\"{v}\" => {{\n{inner}}}\n"));
                    }
                }
            }
            format!(
                "let __content = serde::Deserializer::deserialize_any(__deserializer)?;\n\
                 let (__variant, __payload) = \
                 serde::__private::enum_parts::<__D::Error>(__content, \"{name}\")?;\n\
                 match __variant.as_str() {{\n{arms}\
                 __other => Err(<__D::Error as serde::de::Error>::custom(\
                 format!(\"unknown variant `{{}}` for enum {name}\", __other))),\n}}\n"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl<'de> serde::Deserialize<'de> for {name} {{\n\
         fn deserialize<__D: serde::Deserializer<'de>>(__deserializer: __D)\n\
         -> std::result::Result<Self, __D::Error> {{\n{body}}}\n}}\n"
    )
}

/// Builds the body constructing `constructor` from a content tree. When
/// `payload` is `None`, the content comes from the deserializer itself.
fn deserialize_struct_body(
    type_name: &str,
    constructor: &str,
    fields: &Fields,
    payload: Option<&str>,
) -> String {
    let source = match payload {
        Some(expr) => expr.to_string(),
        None => "serde::Deserializer::deserialize_any(__deserializer)?".to_string(),
    };
    match fields {
        Fields::Unit => format!(
            "let _ = {source};\nOk({constructor})\n"
        ),
        Fields::Tuple(types) if types.len() == 1 => format!(
            "Ok({constructor}(serde::__private::from_content::<_, __D::Error>({source})?))\n"
        ),
        Fields::Tuple(types) => {
            let len = types.len();
            let mut body = format!(
                "let __seq = serde::__private::expect_seq::<__D::Error>({source}, {len}usize)?;\n\
                 let mut __it = __seq.into_iter();\n\
                 Ok({constructor}(\n"
            );
            for _ in 0..len {
                body.push_str(
                    "serde::__private::from_content::<_, __D::Error>(\
                     __it.next().expect(\"length checked\"))?,\n",
                );
            }
            body.push_str("))\n");
            body
        }
        Fields::Named(fields) => {
            let mut body = format!(
                "let mut __map = serde::__private::expect_map::<__D::Error>(\
                 {source}, \"{type_name}\")?;\n\
                 #[allow(clippy::needless_update)]\n\
                 Ok({constructor} {{\n"
            );
            for field in fields {
                let key = &field.name;
                match &field.with {
                    None => body.push_str(&format!(
                        "{key}: serde::__private::take_field::<_, __D::Error>(\
                         &mut __map, \"{key}\")?,\n"
                    )),
                    Some(module) => body.push_str(&format!(
                        "{key}: {module}::deserialize(\
                         serde::__private::take_field_deserializer::<__D::Error>(\
                         &mut __map, \"{key}\"))?,\n"
                    )),
                }
            }
            body.push_str("})\n");
            body
        }
    }
}
