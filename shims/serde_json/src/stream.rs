//! Streaming JSON rendering.
//!
//! [`Writer`] is a [`serde::Serializer`] that appends JSON text straight to
//! the output string as the value walks itself: no intermediate
//! [`Content`] tree, no per-field or per-string copy. A compound value
//! ([`Compound`]) remembers only whether its next element is the first and
//! which bracket closes it (a tuple or struct variant closes two: `]}` or
//! `}}`). Pretty output is the same writer with an indent depth; a container
//! writes its newline only when its first element arrives, so an empty one
//! stays `[]` / `{}`.
//!
//! The layout is exactly the one the `Content` renderer produced (kept as the
//! `#[cfg(test)]` reference in `writer.rs`): enums are externally tagged
//! (`"Unit"`, `{"Newtype":v}`, `{"Tuple":[..]}`, `{"Struct":{..}}`), `None`,
//! `()` and unit structs are `null`, bytes are an array of numbers, and a
//! float always keeps a `.`, `e` or `E`. Map keys are the one place a value
//! is still built as `Content` first: they are few, a key must be a scalar,
//! and the error for one that is not names its kind, as it always has.

use std::fmt::{Display, Write as _};

use serde::__private::to_content;
use serde::content::Content;
use serde::ser::{
    Serialize, SerializeMap, SerializeSeq, SerializeStruct, SerializeStructVariant,
    SerializeTupleVariant, Serializer,
};

use crate::{Error, Result};

/// Appends the JSON text of serialized values to a string.
pub(crate) struct Writer<'a> {
    out: &'a mut String,
    pretty: bool,
    /// Nesting depth of the value being written (indentation, pretty only).
    depth: usize,
}

impl<'a> Writer<'a> {
    /// A writer producing compact JSON.
    pub(crate) fn compact(out: &'a mut String) -> Self {
        Writer {
            out,
            pretty: false,
            depth: 0,
        }
    }

    /// A writer producing JSON indented by two spaces a level.
    pub(crate) fn pretty(out: &'a mut String) -> Self {
        Writer {
            out,
            pretty: true,
            depth: 0,
        }
    }

    fn display(&mut self, value: impl Display) {
        // Writing into a `String` cannot fail.
        let _ = write!(self.out, "{value}");
    }

    /// Opens a container.
    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
    }

    /// Starts one element (or entry) of the innermost open container.
    fn element(&mut self, first: bool) {
        if !first {
            self.out.push(',');
        }
        if self.pretty {
            self.newline();
        }
    }

    /// Separates an entry's key from its value.
    fn colon(&mut self) {
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Closes the innermost open container; `empty` if it got no element.
    fn close(&mut self, bracket: char, empty: bool) {
        self.depth -= 1;
        if self.pretty && !empty {
            self.newline();
        }
        self.out.push(bracket);
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Opens the `{"Variant":` wrapper of an externally tagged variant.
    fn open_variant(&mut self, variant: &str) {
        self.open('{');
        self.element(true);
        write_string(variant, self.out);
        self.colon();
    }
}

/// The builder of a sequence, map, struct or variant payload.
pub(crate) struct Compound<'w, 'a> {
    writer: &'w mut Writer<'a>,
    first: bool,
    close: char,
    /// Whether a variant's `{"Variant":` wrapper must be closed too.
    variant: bool,
}

impl<'w, 'a> Compound<'w, 'a> {
    fn new(writer: &'w mut Writer<'a>, open: char, close: char, variant: bool) -> Self {
        writer.open(open);
        Compound {
            writer,
            first: true,
            close,
            variant,
        }
    }

    fn element(&mut self) {
        self.writer.element(self.first);
        self.first = false;
    }

    fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) -> Result<()> {
        self.element();
        write_string(key, self.writer.out);
        self.writer.colon();
        value.serialize(&mut *self.writer)
    }

    fn finish(self) -> Result<()> {
        self.writer.close(self.close, self.first);
        if self.variant {
            self.writer.close('}', false);
        }
        Ok(())
    }
}

impl<'w, 'a> Serializer for &'w mut Writer<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'w, 'a>;
    type SerializeMap = Compound<'w, 'a>;
    type SerializeStruct = Compound<'w, 'a>;
    type SerializeTupleVariant = Compound<'w, 'a>;
    type SerializeStructVariant = Compound<'w, 'a>;

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<()> {
        self.display(v);
        Ok(())
    }
    fn serialize_i128(self, v: i128) -> Result<()> {
        self.display(v);
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<()> {
        self.display(v);
        Ok(())
    }
    fn serialize_u128(self, v: u128) -> Result<()> {
        self.display(v);
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<()> {
        if !v.is_finite() {
            return Err(Error::new("cannot serialize non-finite float as JSON"));
        }
        let start = self.out.len();
        self.display(v);
        // Keep floats recognisable as floats on re-parse.
        if !self.out[start..].contains(['.', 'e', 'E']) {
            self.out.push_str(".0");
        }
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<()> {
        write_string(v, self.out);
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<()> {
        let mut seq = self.serialize_seq(Some(v.len()))?;
        for byte in v {
            seq.serialize_element(byte)?;
        }
        SerializeSeq::end(seq)
    }
    fn serialize_none(self) -> Result<()> {
        self.serialize_unit()
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<()> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<()> {
        self.serialize_unit()
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(self)
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
    ) -> Result<()> {
        self.serialize_str(variant)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<()> {
        self.open_variant(variant);
        value.serialize(&mut *self)?;
        self.close('}', false);
        Ok(())
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'w, 'a>> {
        Ok(Compound::new(self, '[', ']', false))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'w, 'a>> {
        Ok(Compound::new(self, '{', '}', false))
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Compound<'w, 'a>> {
        Ok(Compound::new(self, '{', '}', false))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'w, 'a>> {
        self.open_variant(variant);
        Ok(Compound::new(self, '[', ']', true))
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _variant_index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'w, 'a>> {
        self.open_variant(variant);
        Ok(Compound::new(self, '{', '}', true))
    }
}

impl SerializeSeq for Compound<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.element();
        value.serialize(&mut *self.writer)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl SerializeMap for Compound<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<()> {
        self.element();
        write_key(&to_content::<K, Error>(key)?, self.writer.out)?;
        self.writer.colon();
        value.serialize(&mut *self.writer)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl SerializeStruct for Compound<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.field(key, value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl SerializeTupleVariant for Compound<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl SerializeStructVariant for Compound<'_, '_> {
    type Ok = ();
    type Error = Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<()> {
        self.field(key, value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

/// JSON object keys must be strings; integer and bool keys are quoted
/// (matching real serde_json's integer-key behaviour).
fn write_key(key: &Content, out: &mut String) -> Result<()> {
    match key {
        Content::Str(s) => write_string(s, out),
        Content::I64(v) => write_string(&v.to_string(), out),
        Content::U64(v) => write_string(&v.to_string(), out),
        Content::I128(v) => write_string(&v.to_string(), out),
        Content::U128(v) => write_string(&v.to_string(), out),
        Content::Bool(v) => write_string(&v.to_string(), out),
        other => {
            return Err(Error::new(format!(
                "JSON keys must be scalar, found {}",
                other.kind()
            )))
        }
    }
    Ok(())
}

/// Writes `text` as a JSON string literal. Runs of bytes that need no escape
/// are copied in one piece; every byte that does is ASCII, so the runs split
/// only on character boundaries.
fn write_string(text: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (index, &byte) in text.as_bytes().iter().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&text[run..index]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run = index + 1;
    }
    out.push_str(&text[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use serde::Serialize;

    use super::*;
    use crate::{to_string, to_string_pretty, to_vec, writer};

    /// Rendered text, or the error message.
    type Rendered = std::result::Result<String, String>;

    /// Renders `value` through the `Content` tree, as the shim did before it
    /// streamed: `(compact, pretty)`, each the text or the error message.
    fn reference<T: Serialize + ?Sized>(
        value: &T,
    ) -> (Rendered, Rendered) {
        let content = to_content::<T, Error>(value).expect("building a Content tree never fails");
        let mut compact = String::new();
        let mut pretty = String::new();
        (
            writer::write_compact(&content, &mut compact).map(|()| compact),
            writer::write_pretty(&content, &mut pretty, 0).map(|()| pretty),
        )
    }

    /// Streams `value` both ways and checks every byte (or the error message)
    /// against the reference; returns the compact text.
    fn identical<T: Serialize + ?Sized>(value: &T) -> Rendered {
        let (compact, pretty) = reference(value);
        let streamed = to_string(value).map_err(|e| e.message);
        assert_eq!(streamed, compact, "compact output differs");
        assert_eq!(
            to_string_pretty(value).map_err(|e| e.message),
            pretty,
            "pretty output differs"
        );
        let bytes = to_vec(value).map_err(|e| e.message);
        assert_eq!(
            bytes,
            streamed.clone().map(String::into_bytes),
            "to_vec differs"
        );
        streamed
    }

    #[derive(Serialize)]
    struct UnitStruct;

    #[derive(Serialize)]
    struct Newtype(u32);

    #[derive(Serialize)]
    struct TupleStruct(i8, String, Option<u8>);

    #[derive(Serialize)]
    struct NoFields {}

    #[derive(Serialize)]
    struct Record {
        id: u64,
        name: String,
        tags: Vec<String>,
        score: Option<f64>,
        nested: Vec<Vec<i32>>,
        shape: Shape,
    }

    #[derive(Serialize)]
    enum Shape {
        Unit,
        Newtype(Box<Shape>),
        Tuple(u8, Option<String>),
        EmptyTuple(),
        Struct { name: String, inner: Vec<Shape> },
        EmptyStruct {},
    }

    /// Serializes through `serialize_bytes`, which no std impl reaches.
    struct Bytes(&'static [u8]);

    impl Serialize for Bytes {
        fn serialize<S: serde::Serializer>(
            &self,
            serializer: S,
        ) -> std::result::Result<S::Ok, S::Error> {
            serializer.serialize_bytes(self.0)
        }
    }

    fn shapes() -> Vec<Shape> {
        vec![
            Shape::Unit,
            Shape::Newtype(Box::new(Shape::Unit)),
            Shape::Newtype(Box::new(Shape::Tuple(7, None))),
            Shape::Tuple(1, Some("one".into())),
            Shape::EmptyTuple(),
            Shape::Struct {
                name: "s".into(),
                inner: vec![],
            },
            Shape::Struct {
                name: "deep".into(),
                inner: vec![
                    Shape::EmptyStruct {},
                    Shape::Newtype(Box::new(Shape::EmptyTuple())),
                ],
            },
            Shape::EmptyStruct {},
        ]
    }

    #[test]
    fn every_serializer_method_matches_the_content_renderer() {
        assert_eq!(identical(&()).unwrap(), "null");
        assert_eq!(identical(&UnitStruct).unwrap(), "null");
        assert_eq!(identical(&Newtype(9)).unwrap(), "9");
        assert_eq!(
            identical(&TupleStruct(-3, "t".into(), None)).unwrap(),
            r#"[-3,"t",null]"#
        );
        assert_eq!(identical(&NoFields {}).unwrap(), "{}");
        assert_eq!(identical(&Some(5u8)).unwrap(), "5");
        assert_eq!(identical(&None::<u8>).unwrap(), "null");
        assert_eq!(identical(&'x').unwrap(), r#""x""#);
        assert_eq!(identical(&'"').unwrap(), r#""\"""#);
        assert_eq!(identical(&(true, false)).unwrap(), "[true,false]");
        assert_eq!(identical(&Bytes(&[0, 1, 255])).unwrap(), "[0,1,255]");
        assert_eq!(identical(&Bytes(&[])).unwrap(), "[]");
        for shape in shapes() {
            identical(&shape).unwrap();
        }
        assert_eq!(identical(&Shape::Unit).unwrap(), r#""Unit""#);
        assert_eq!(
            identical(&Shape::EmptyTuple()).unwrap(),
            r#"{"EmptyTuple":[]}"#
        );
        assert_eq!(
            identical(&Shape::EmptyStruct {}).unwrap(),
            r#"{"EmptyStruct":{}}"#
        );
        assert_eq!(
            identical(&Shape::Newtype(Box::new(Shape::Tuple(2, None)))).unwrap(),
            r#"{"Newtype":{"Tuple":[2,null]}}"#
        );
        identical(&shapes()).unwrap();
        identical(&Record {
            id: 1,
            name: "r".into(),
            tags: vec!["a".into(), String::new()],
            score: Some(0.5),
            nested: vec![vec![], vec![1, -2], vec![]],
            shape: Shape::Struct {
                name: "in".into(),
                inner: shapes(),
            },
        })
        .unwrap();
    }

    #[test]
    fn nested_and_empty_containers_match() {
        identical(&Vec::<u8>::new()).unwrap();
        identical(&vec![Vec::<u8>::new()]).unwrap();
        identical(&vec![vec![vec![1u8]], vec![], vec![vec![], vec![2, 3]]]).unwrap();
        identical(&BTreeMap::<String, u8>::new()).unwrap();
        let mut inner = BTreeMap::new();
        inner.insert("empty".to_string(), BTreeMap::<String, Vec<u8>>::new());
        let mut full = BTreeMap::new();
        full.insert("xs".to_string(), vec![1u8, 2]);
        full.insert("none".to_string(), vec![]);
        inner.insert("full".to_string(), full);
        let mut outer = BTreeMap::new();
        outer.insert("inner".to_string(), inner);
        outer.insert("also empty".to_string(), BTreeMap::new());
        identical(&outer).unwrap();
        identical(&vec![NoFields {}, NoFields {}]).unwrap();
        identical(&(Vec::<u8>::new(), BTreeMap::<u8, u8>::new(), NoFields {})).unwrap();
    }

    #[test]
    fn strings_escape_exactly_as_before() {
        for text in [
            "",
            "plain",
            "\"",
            "\\",
            "\n",
            "\u{1}",
            "\u{1f}",
            "\u{0}\u{7}\u{8}\u{9}\u{a}\u{b}\u{c}\u{d}\u{1b}\u{7f}",
            "a\"b\\c\nd\re\tf",
            "\"\"\\\\",
            "ends with an escape\n",
            "snow\u{2603}man",
            "emoji \u{1f600} and \u{e9}\u{301}",
            "\u{2028}\u{2029}\u{feff}",
            "mixed \u{1f}\u{1f600}\"\u{10ffff}",
        ] {
            identical(text).unwrap();
            identical(&text.to_string()).unwrap();
            identical(&vec![text]).unwrap();
        }
        assert_eq!(identical("\u{1}\u{1f}").unwrap(), r#""\u0001\u001f""#);
    }

    #[test]
    fn integers_and_floats_match() {
        identical(&[i64::MIN, -1, 0, 1, i64::MAX]).unwrap();
        identical(&[0, u64::MAX]).unwrap();
        identical(&[i128::MIN, -1, 0, i128::MAX]).unwrap();
        identical(&[0, u128::MAX]).unwrap();
        identical(&(i8::MIN, i16::MIN, i32::MIN, u8::MAX, u16::MAX, u32::MAX)).unwrap();
        identical(&(usize::MAX, isize::MIN)).unwrap();
        assert_eq!(identical(&2.5f64).unwrap(), "2.5");
        assert_eq!(identical(&3.0f64).unwrap(), "3.0");
        assert_eq!(identical(&-0.0f64).unwrap(), "-0.0");
        identical(&1e300f64).unwrap();
        identical(&[1e-300f64, f64::MIN_POSITIVE, f64::MAX, f64::MIN, 0.1, -7.0]).unwrap();
        identical(&[0.1f32, 3.0, -0.0]).unwrap();
    }

    #[test]
    fn map_keys_are_quoted_scalars() {
        let ints: BTreeMap<i64, &str> = [(i64::MIN, "min"), (-1, "m"), (0, "z"), (7, "s")].into();
        assert_eq!(identical(&ints).unwrap().matches("\"-1\":").count(), 1);
        let bools: BTreeMap<bool, u8> = [(false, 0), (true, 1)].into();
        assert_eq!(identical(&bools).unwrap(), r#"{"false":0,"true":1}"#);
        let wide: BTreeMap<u128, i128> = [(u128::MAX, i128::MIN), (0, 0)].into();
        identical(&wide).unwrap();
        let signed: BTreeMap<i128, ()> = [(i128::MIN, ())].into();
        identical(&signed).unwrap();
        let chars: BTreeMap<char, u8> = [('"', 1), ('\n', 2)].into();
        identical(&chars).unwrap();
        let units: BTreeMap<u8, Shape> = [(1, Shape::Unit), (2, Shape::EmptyTuple())].into();
        identical(&units).unwrap();
    }

    #[test]
    fn errors_match_and_never_panic() {
        let nan = identical(&f64::NAN).unwrap_err();
        assert_eq!(nan, "cannot serialize non-finite float as JSON");
        assert_eq!(identical(&f64::INFINITY).unwrap_err(), nan);
        assert_eq!(identical(&vec![1.0, f64::NEG_INFINITY]).unwrap_err(), nan);
        assert_eq!(identical(&Some(vec![Some(f32::NAN)])).unwrap_err(), nan);

        let seq_keys: BTreeMap<Vec<u8>, u8> = [(vec![1], 1)].into();
        assert_eq!(
            identical(&seq_keys).unwrap_err(),
            "JSON keys must be scalar, found sequence"
        );
        let map_keys: BTreeMap<BTreeMap<u8, u8>, u8> = [([(1, 1)].into(), 1)].into();
        assert_eq!(
            identical(&map_keys).unwrap_err(),
            "JSON keys must be scalar, found map"
        );
        let null_keys: BTreeMap<Option<u8>, u8> = [(None, 1)].into();
        assert_eq!(
            identical(&null_keys).unwrap_err(),
            "JSON keys must be scalar, found null"
        );
        let unit_keys: BTreeMap<(), u8> = [((), 1)].into();
        assert_eq!(
            identical(&unit_keys).unwrap_err(),
            "JSON keys must be scalar, found null"
        );

        // The error surfaces through the public API with the crate's prefix.
        let err = to_string(&f64::NAN).unwrap_err();
        assert_eq!(
            err.to_string(),
            "JSON error: cannot serialize non-finite float as JSON"
        );
        assert!(to_string_pretty(&seq_keys).is_err());
        assert!(to_vec(&seq_keys).is_err());
    }

    /// A value of random shape, so containers nest in every combination.
    #[derive(Serialize)]
    enum Node {
        Null,
        Flag(bool),
        Int(i64),
        Float(f64),
        Text(String),
        List(Vec<Node>),
        Object(BTreeMap<String, Node>),
        Keyed(BTreeMap<i32, Node>),
        Pair(Box<Node>, Option<Box<Node>>),
        Record {
            first: Box<Node>,
            rest: Vec<Node>,
            flag: Option<bool>,
        },
    }

    /// xorshift64*: enough randomness for shapes, no dependency.
    struct Shapes(u64);

    impl Shapes {
        fn next(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
        }

        fn text(&mut self) -> String {
            const PIECES: [&str; 8] = ["a", "\"", "\\", "\n", "\u{1}", "\u{e9}", "\u{1f600}", " "];
            (0..self.next(6))
                .map(|_| PIECES[self.next(8) as usize])
                .collect()
        }

        fn node(&mut self, depth: u32) -> Node {
            let leaf = depth == 0;
            match self.next(if leaf { 5 } else { 10 }) {
                0 => Node::Null,
                1 => Node::Flag(self.next(2) == 1),
                2 => Node::Int(self.next(u64::MAX) as i64),
                3 => Node::Float((self.next(1 << 20) as f64 - 524_288.0) / 64.0),
                4 => Node::Text(self.text()),
                5 => Node::List((0..self.next(4)).map(|_| self.node(depth - 1)).collect()),
                6 => Node::Object(
                    (0..self.next(4))
                        .map(|_| (self.text(), self.node(depth - 1)))
                        .collect(),
                ),
                7 => Node::Keyed(
                    (0..self.next(3))
                        .map(|_| (self.next(9) as i32 - 4, self.node(depth - 1)))
                        .collect(),
                ),
                8 => Node::Pair(
                    Box::new(self.node(depth - 1)),
                    (self.next(2) == 1).then(|| Box::new(self.node(depth - 1))),
                ),
                _ => Node::Record {
                    first: Box::new(self.node(depth - 1)),
                    rest: (0..self.next(3)).map(|_| self.node(depth - 1)).collect(),
                    flag: [None, Some(true), Some(false)][self.next(3) as usize],
                },
            }
        }
    }

    #[test]
    fn random_shapes_match() {
        let mut shapes = Shapes(0x5db_2015);
        for round in 0..400 {
            let node = shapes.node(1 + round % 5);
            identical(&node).unwrap();
        }
    }
}
