//! Support machinery for the derive macros (and the `serde_json` shim).
//!
//! Not part of the public API contract — the derive-generated code and the
//! sibling `serde_json` shim are the only intended consumers.

use std::marker::PhantomData;

use crate::content::Content;
use crate::de::{self, Deserialize, Deserializer};
use crate::ser::{
    self, Serialize, SerializeMap, SerializeSeq, SerializeStruct, SerializeStructVariant,
    SerializeTupleVariant, Serializer,
};

// ---------------------------------------------------------------------------
// A serializer that builds a Content tree.
// ---------------------------------------------------------------------------

/// Serializer producing a [`Content`] tree; generic over the error type so any
/// format error can flow through. `serde_json` renders values by streaming;
/// it builds a tree only for a map key, which must be checked to be scalar.
pub struct ContentSerializer<E>(PhantomData<E>);

impl<E> ContentSerializer<E> {
    /// Creates the serializer.
    pub fn new() -> Self {
        ContentSerializer(PhantomData)
    }
}

impl<E> Default for ContentSerializer<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializes any value into a [`Content`] tree.
pub fn to_content<T: Serialize + ?Sized, E: ser::Error>(value: &T) -> Result<Content, E> {
    value.serialize(ContentSerializer::<E>::new())
}

/// Builder for sequences.
pub struct ContentSeq<E> {
    items: Vec<Content>,
    _marker: PhantomData<E>,
}

/// Builder for maps.
pub struct ContentMap<E> {
    entries: Vec<(Content, Content)>,
    _marker: PhantomData<E>,
}

/// Builder for structs (a map with string keys).
pub struct ContentStruct<E> {
    entries: Vec<(Content, Content)>,
    _marker: PhantomData<E>,
}

/// Builder for tuple variants: `{"Variant": [..]}`.
pub struct ContentTupleVariant<E> {
    variant: &'static str,
    items: Vec<Content>,
    _marker: PhantomData<E>,
}

/// Builder for struct variants: `{"Variant": {..}}`.
pub struct ContentStructVariant<E> {
    variant: &'static str,
    entries: Vec<(Content, Content)>,
    _marker: PhantomData<E>,
}

impl<E: ser::Error> Serializer for ContentSerializer<E> {
    type Ok = Content;
    type Error = E;
    type SerializeSeq = ContentSeq<E>;
    type SerializeMap = ContentMap<E>;
    type SerializeStruct = ContentStruct<E>;
    type SerializeTupleVariant = ContentTupleVariant<E>;
    type SerializeStructVariant = ContentStructVariant<E>;

    fn serialize_bool(self, v: bool) -> Result<Content, E> {
        Ok(Content::Bool(v))
    }
    fn serialize_i64(self, v: i64) -> Result<Content, E> {
        Ok(if v >= 0 { Content::U64(v as u64) } else { Content::I64(v) })
    }
    fn serialize_i128(self, v: i128) -> Result<Content, E> {
        Ok(Content::I128(v))
    }
    fn serialize_u64(self, v: u64) -> Result<Content, E> {
        Ok(Content::U64(v))
    }
    fn serialize_u128(self, v: u128) -> Result<Content, E> {
        Ok(Content::U128(v))
    }
    fn serialize_f64(self, v: f64) -> Result<Content, E> {
        Ok(Content::F64(v))
    }
    fn serialize_str(self, v: &str) -> Result<Content, E> {
        Ok(Content::Str(v.to_owned()))
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<Content, E> {
        Ok(Content::Seq(v.iter().map(|&b| Content::U64(u64::from(b))).collect()))
    }
    fn serialize_none(self) -> Result<Content, E> {
        Ok(Content::Null)
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Content, E> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<Content, E> {
        Ok(Content::Null)
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<Content, E> {
        Ok(Content::Null)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<Content, E> {
        value.serialize(self)
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<Content, E> {
        Ok(Content::Str(variant.to_owned()))
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<Content, E> {
        let inner = to_content::<T, E>(value)?;
        Ok(Content::Map(vec![(Content::Str(variant.to_owned()), inner)]))
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<ContentSeq<E>, E> {
        Ok(ContentSeq { items: Vec::with_capacity(len.unwrap_or(0)), _marker: PhantomData })
    }
    fn serialize_map(self, len: Option<usize>) -> Result<ContentMap<E>, E> {
        Ok(ContentMap { entries: Vec::with_capacity(len.unwrap_or(0)), _marker: PhantomData })
    }
    fn serialize_struct(self, _name: &'static str, len: usize) -> Result<ContentStruct<E>, E> {
        Ok(ContentStruct { entries: Vec::with_capacity(len), _marker: PhantomData })
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<ContentTupleVariant<E>, E> {
        Ok(ContentTupleVariant { variant, items: Vec::with_capacity(len), _marker: PhantomData })
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<ContentStructVariant<E>, E> {
        Ok(ContentStructVariant { variant, entries: Vec::with_capacity(len), _marker: PhantomData })
    }
}

impl<E: ser::Error> SerializeSeq for ContentSeq<E> {
    type Ok = Content;
    type Error = E;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), E> {
        self.items.push(to_content::<T, E>(value)?);
        Ok(())
    }
    fn end(self) -> Result<Content, E> {
        Ok(Content::Seq(self.items))
    }
}

impl<E: ser::Error> SerializeMap for ContentMap<E> {
    type Ok = Content;
    type Error = E;
    fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), E> {
        self.entries.push((to_content::<K, E>(key)?, to_content::<V, E>(value)?));
        Ok(())
    }
    fn end(self) -> Result<Content, E> {
        Ok(Content::Map(self.entries))
    }
}

impl<E: ser::Error> SerializeStruct for ContentStruct<E> {
    type Ok = Content;
    type Error = E;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), E> {
        self.entries.push((Content::Str(key.to_owned()), to_content::<T, E>(value)?));
        Ok(())
    }
    fn end(self) -> Result<Content, E> {
        Ok(Content::Map(self.entries))
    }
}

impl<E: ser::Error> SerializeTupleVariant for ContentTupleVariant<E> {
    type Ok = Content;
    type Error = E;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), E> {
        self.items.push(to_content::<T, E>(value)?);
        Ok(())
    }
    fn end(self) -> Result<Content, E> {
        Ok(Content::Map(vec![(
            Content::Str(self.variant.to_owned()),
            Content::Seq(self.items),
        )]))
    }
}

impl<E: ser::Error> SerializeStructVariant for ContentStructVariant<E> {
    type Ok = Content;
    type Error = E;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), E> {
        self.entries.push((Content::Str(key.to_owned()), to_content::<T, E>(value)?));
        Ok(())
    }
    fn end(self) -> Result<Content, E> {
        Ok(Content::Map(vec![(
            Content::Str(self.variant.to_owned()),
            Content::Map(self.entries),
        )]))
    }
}

// ---------------------------------------------------------------------------
// The one concrete deserializer: replays a Content tree.
// ---------------------------------------------------------------------------

/// Deserializer replaying a [`Content`] tree; generic over the error type.
pub struct ContentDeserializer<E> {
    content: Content,
    _marker: PhantomData<E>,
}

impl<E> ContentDeserializer<E> {
    /// Wraps a content tree.
    pub fn new(content: Content) -> Self {
        ContentDeserializer { content, _marker: PhantomData }
    }
}

impl<'de, E: de::Error> Deserializer<'de> for ContentDeserializer<E> {
    type Error = E;
    fn deserialize_any(self) -> Result<Content, E> {
        Ok(self.content)
    }
}

/// Deserializes a typed value out of a content tree.
pub fn from_content<'de, T: Deserialize<'de>, E: de::Error>(content: Content) -> Result<T, E> {
    T::deserialize(ContentDeserializer::<E>::new(content))
}

// ---------------------------------------------------------------------------
// Helpers called by derive-generated code.
// ---------------------------------------------------------------------------

/// Unwraps a map (struct) content, naming the struct in errors.
pub fn expect_map<E: de::Error>(
    content: Content,
    type_name: &str,
) -> Result<Vec<(Content, Content)>, E> {
    match content {
        Content::Map(entries) => Ok(entries),
        other => Err(E::custom(format!("expected map for {type_name}, found {}", other.kind()))),
    }
}

/// Unwraps a sequence content of exactly `len` elements.
pub fn expect_seq<E: de::Error>(content: Content, len: usize) -> Result<Vec<Content>, E> {
    match content {
        Content::Seq(items) if items.len() == len => Ok(items),
        Content::Seq(items) => Err(E::custom(format!(
            "expected sequence of length {len}, found {}",
            items.len()
        ))),
        other => Err(E::custom(format!("expected sequence, found {}", other.kind()))),
    }
}

/// Removes the raw content of field `key` from a struct map (Null if absent,
/// so `Option` fields default to `None`).
pub fn take_raw(entries: &mut Vec<(Content, Content)>, key: &str) -> Content {
    let position = entries
        .iter()
        .position(|(k, _)| matches!(k, Content::Str(s) if s == key));
    match position {
        Some(index) => entries.swap_remove(index).1,
        None => Content::Null,
    }
}

/// Removes and deserializes field `key` from a struct map.
pub fn take_field<'de, T: Deserialize<'de>, E: de::Error>(
    entries: &mut Vec<(Content, Content)>,
    key: &str,
) -> Result<T, E> {
    from_content::<T, E>(take_raw(entries, key))
        .map_err(|e| E::custom(format!("field `{key}`: {e}")))
}

/// Removes field `key` and wraps it as a deserializer (for `with`-modules).
pub fn take_field_deserializer<E: de::Error>(
    entries: &mut Vec<(Content, Content)>,
    key: &str,
) -> ContentDeserializer<E> {
    ContentDeserializer::new(take_raw(entries, key))
}

/// Splits enum content into `(variant_name, payload)`.
pub fn enum_parts<E: de::Error>(
    content: Content,
    type_name: &str,
) -> Result<(String, Option<Content>), E> {
    match content {
        Content::Str(variant) => Ok((variant, None)),
        Content::Map(mut entries) if entries.len() == 1 => {
            let (key, payload) = entries.pop().expect("length checked");
            match key {
                Content::Str(variant) => Ok((variant, Some(payload))),
                other => Err(E::custom(format!(
                    "expected string variant key for {type_name}, found {}",
                    other.kind()
                ))),
            }
        }
        other => Err(E::custom(format!(
            "expected variant for {type_name}, found {}",
            other.kind()
        ))),
    }
}

/// Unwraps the payload of a data-carrying variant.
pub fn expect_payload<E: de::Error>(
    payload: Option<Content>,
    variant: &str,
) -> Result<Content, E> {
    payload.ok_or_else(|| E::custom(format!("variant {variant} expects a payload")))
}

/// Asserts a unit variant carries no payload (tolerating an explicit null).
pub fn expect_no_payload<E: de::Error>(payload: Option<Content>, variant: &str) -> Result<(), E> {
    match payload {
        None | Some(Content::Null) => Ok(()),
        Some(other) => Err(E::custom(format!(
            "unit variant {variant} does not expect a payload, found {}",
            other.kind()
        ))),
    }
}
