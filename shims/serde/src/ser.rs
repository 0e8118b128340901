//! Serialization half of the shim.

use std::fmt::Display;

/// Error raised while serializing.
pub trait Error: Sized + Display {
    /// Builds an error from a message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// A serializable type.
pub trait Serialize {
    /// Serializes `self` into the given serializer.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A data-format serializer.
///
/// The shim has two: `serde_json`'s streaming writer, which renders JSON text
/// straight into its output as the value walks itself, and the [`Content`]
/// builder, which `serde_json` uses only to check and render map keys.
/// Deserialization still goes through a [`Content`] tree.
///
/// [`Content`]: crate::content::Content
pub trait Serializer: Sized {
    /// The value produced on success.
    type Ok;
    /// The error type.
    type Error: Error;
    /// Builder for sequences and tuples.
    type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    /// Builder for maps.
    type SerializeMap: SerializeMap<Ok = Self::Ok, Error = Self::Error>;
    /// Builder for structs.
    type SerializeStruct: SerializeStruct<Ok = Self::Ok, Error = Self::Error>;
    /// Builder for tuple variants.
    type SerializeTupleVariant: SerializeTupleVariant<Ok = Self::Ok, Error = Self::Error>;
    /// Builder for struct variants.
    type SerializeStructVariant: SerializeStructVariant<Ok = Self::Ok, Error = Self::Error>;

    /// Serializes a boolean.
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    /// Serializes a signed integer.
    fn serialize_i8(self, v: i8) -> Result<Self::Ok, Self::Error> {
        self.serialize_i64(i64::from(v))
    }
    /// Serializes a signed integer.
    fn serialize_i16(self, v: i16) -> Result<Self::Ok, Self::Error> {
        self.serialize_i64(i64::from(v))
    }
    /// Serializes a signed integer.
    fn serialize_i32(self, v: i32) -> Result<Self::Ok, Self::Error> {
        self.serialize_i64(i64::from(v))
    }
    /// Serializes a signed integer.
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    /// Serializes a 128-bit signed integer.
    fn serialize_i128(self, v: i128) -> Result<Self::Ok, Self::Error>;
    /// Serializes an unsigned integer.
    fn serialize_u8(self, v: u8) -> Result<Self::Ok, Self::Error> {
        self.serialize_u64(u64::from(v))
    }
    /// Serializes an unsigned integer.
    fn serialize_u16(self, v: u16) -> Result<Self::Ok, Self::Error> {
        self.serialize_u64(u64::from(v))
    }
    /// Serializes an unsigned integer.
    fn serialize_u32(self, v: u32) -> Result<Self::Ok, Self::Error> {
        self.serialize_u64(u64::from(v))
    }
    /// Serializes an unsigned integer.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    /// Serializes a 128-bit unsigned integer.
    fn serialize_u128(self, v: u128) -> Result<Self::Ok, Self::Error>;
    /// Serializes a float.
    fn serialize_f32(self, v: f32) -> Result<Self::Ok, Self::Error> {
        self.serialize_f64(f64::from(v))
    }
    /// Serializes a float.
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    /// Serializes a character.
    fn serialize_char(self, v: char) -> Result<Self::Ok, Self::Error> {
        self.serialize_str(&v.to_string())
    }
    /// Serializes a string.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    /// Serializes raw bytes.
    fn serialize_bytes(self, v: &[u8]) -> Result<Self::Ok, Self::Error>;
    /// Serializes `None`.
    fn serialize_none(self) -> Result<Self::Ok, Self::Error>;
    /// Serializes `Some(value)`.
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Self::Ok, Self::Error>;
    /// Serializes the unit value.
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
    /// Serializes a unit struct.
    fn serialize_unit_struct(self, name: &'static str) -> Result<Self::Ok, Self::Error>;
    /// Serializes a newtype struct (transparently, like real serde).
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error>;
    /// Serializes a unit enum variant.
    fn serialize_unit_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
    ) -> Result<Self::Ok, Self::Error>;
    /// Serializes a newtype enum variant.
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error>;
    /// Begins serializing a sequence.
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
    /// Begins serializing a tuple.
    fn serialize_tuple(self, len: usize) -> Result<Self::SerializeSeq, Self::Error> {
        self.serialize_seq(Some(len))
    }
    /// Begins serializing a map.
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;
    /// Begins serializing a struct.
    fn serialize_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStruct, Self::Error>;
    /// Begins serializing a tuple variant.
    fn serialize_tuple_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleVariant, Self::Error>;
    /// Begins serializing a struct variant.
    fn serialize_struct_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStructVariant, Self::Error>;
}

/// Sequence builder.
pub trait SerializeSeq {
    /// The value produced on success.
    type Ok;
    /// The error type.
    type Error: Error;
    /// Appends one element.
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Finishes the sequence.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Map builder.
pub trait SerializeMap {
    /// The value produced on success.
    type Ok;
    /// The error type.
    type Error: Error;
    /// Appends one entry.
    fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), Self::Error>;
    /// Finishes the map.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Struct builder.
pub trait SerializeStruct {
    /// The value produced on success.
    type Ok;
    /// The error type.
    type Error: Error;
    /// Appends one named field.
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Self::Error>;
    /// Finishes the struct.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Tuple-variant builder.
pub trait SerializeTupleVariant {
    /// The value produced on success.
    type Ok;
    /// The error type.
    type Error: Error;
    /// Appends one positional field.
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Finishes the variant.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Struct-variant builder.
pub trait SerializeStructVariant {
    /// The value produced on success.
    type Ok;
    /// The error type.
    type Error: Error;
    /// Appends one named field.
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Self::Error>;
    /// Finishes the variant.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}
