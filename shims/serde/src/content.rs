//! The shim's single data model: a JSON-like value tree.

/// A serialized value. Every `Deserialize` impl consumes one; a `Serialize`
/// impl produces one only through the [`ContentSerializer`] (JSON map keys).
///
/// [`ContentSerializer`]: crate::__private::ContentSerializer
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// Null / `None` / unit.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer (used for negative values).
    I64(i64),
    /// An unsigned integer (used for non-negative values).
    U64(u64),
    /// A 128-bit signed integer.
    I128(i128),
    /// A 128-bit unsigned integer.
    U128(u128),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// A sequence (array / tuple / tuple variant payload).
    Seq(Vec<Content>),
    /// A map (struct fields / map entries / struct variant payload), with
    /// insertion order preserved.
    Map(Vec<(Content, Content)>),
}

impl Content {
    /// A short description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::I64(_) | Content::U64(_) | Content::I128(_) | Content::U128(_) => "integer",
            Content::F64(_) => "float",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}
