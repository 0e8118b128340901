//! The parsed shape of a derive input.

/// A named field (or, for tuple fields, just its type).
#[derive(Debug)]
pub struct Field {
    /// Field name (empty for tuple fields).
    pub name: String,
    /// Verbatim type tokens (used to generate `with`-module helper structs).
    pub ty: String,
    /// `#[serde(with = "module")]` if present.
    pub with: Option<String>,
}

/// The fields of a struct or enum variant.
#[derive(Debug)]
pub enum Fields {
    /// No fields (`struct S;` / `V`).
    Unit,
    /// Positional fields (`struct S(A, B);` / `V(A, B)`), types verbatim.
    Tuple(Vec<String>),
    /// Named fields (`struct S { a: A }` / `V { a: A }`).
    Named(Vec<Field>),
}

/// One enum variant.
#[derive(Debug)]
pub struct Variant {
    /// Variant name.
    pub name: String,
    /// Variant payload shape.
    pub fields: Fields,
    /// `#[serde(with = "module")]` on a newtype variant's field, if present.
    pub with: Option<String>,
}

/// A parsed derive input item.
#[derive(Debug)]
pub enum Item {
    /// A struct.
    Struct {
        /// Type name.
        name: String,
        /// Field shape.
        fields: Fields,
    },
    /// An enum.
    Enum {
        /// Type name.
        name: String,
        /// The variants in declaration order.
        variants: Vec<Variant>,
    },
}

impl Item {
    /// The type name.
    pub fn name(&self) -> &str {
        match self {
            Item::Struct { name, .. } | Item::Enum { name, .. } => name,
        }
    }
}
