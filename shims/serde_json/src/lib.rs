//! Offline shim for the `serde_json` crate.
//!
//! Supports the subset this workspace uses: `to_string`, `to_string_pretty`,
//! `to_vec` and `from_str` / `from_slice`. Rendering streams: a
//! [`Serializer`](serde::Serializer) writes the JSON text straight into the
//! output string as the value walks itself. Parsing still builds the `serde`
//! shim's [`Content`](serde::content::Content) tree and deserializes from it.

use std::fmt;

use serde::content::Content;
use serde::__private::ContentDeserializer;
use serde::{Deserialize, Serialize};

mod parser;
mod stream;
#[cfg(test)]
mod writer;

/// An error produced while encoding or decoding JSON.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Error { message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.message)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

/// Result alias for JSON operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize(&mut stream::Writer::compact(&mut out))?;
    Ok(out)
}

/// Serializes a value to an indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize(&mut stream::Writer::pretty(&mut out))?;
    Ok(out)
}

/// Serializes a value to JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Deserializes a value from a JSON string.
pub fn from_str<'de, T: Deserialize<'de>>(text: &str) -> Result<T> {
    let content = parser::parse(text)?;
    T::deserialize(ContentDeserializer::<Error>::new(content))
}

/// Deserializes a value from JSON bytes.
pub fn from_slice<'de, T: Deserialize<'de>>(bytes: &[u8]) -> Result<T> {
    let text = std::str::from_utf8(bytes).map_err(|e| Error::new(e.to_string()))?;
    from_str(text)
}

/// Parses arbitrary JSON into the shim's content tree (the closest thing this
/// shim has to `serde_json::Value`).
pub fn content_from_str(text: &str) -> Result<Content> {
    parser::parse(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&"hi\n\"there\"").unwrap(), r#""hi\n\"there\"""#);
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<i64>("-42").unwrap(), -42);
        assert_eq!(from_str::<String>(r#""aAb""#).unwrap(), "aAb");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("3").unwrap(), Some(3));
    }

    #[test]
    fn collections_roundtrip() {
        let v = vec![1u32, 2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&json).unwrap(), v);

        let pairs: Vec<(String, i64)> = vec![("a".into(), -1), ("b".into(), 2)];
        let json = to_string(&pairs).unwrap();
        assert_eq!(from_str::<Vec<(String, i64)>>(&json).unwrap(), pairs);
    }

    #[test]
    fn whitespace_and_errors() {
        assert_eq!(from_str::<Vec<u8>>(" [ 1 , 2 ] ").unwrap(), vec![1, 2]);
        assert!(from_str::<u64>("").is_err());
        assert!(from_str::<u64>("12 34").is_err());
        assert!(from_str::<Vec<u8>>("[1,").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<bool>("frue").is_err());
    }

    #[test]
    fn floats_and_unicode() {
        assert_eq!(from_str::<f64>("2.5e1").unwrap(), 25.0);
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
        assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "\u{1f600}");
        let round: String = from_str(&to_string("snow\u{2603}man").unwrap()).unwrap();
        assert_eq!(round, "snow\u{2603}man");
    }

    /// Hex text for a `u32`, as a `with`-module.
    mod hex {
        use serde::Deserialize;

        pub fn serialize<S: serde::Serializer>(v: &u32, s: S) -> Result<S::Ok, S::Error> {
            s.serialize_str(&format!("{v:x}"))
        }

        pub fn deserialize<'de, D: serde::Deserializer<'de>>(d: D) -> Result<u32, D::Error> {
            let text = String::deserialize(d)?;
            u32::from_str_radix(&text, 16).map_err(serde::de::Error::custom)
        }
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Cell {
        Plain(u32),
        Hex(#[serde(with = "hex")] u32),
        Pair(u32, u32),
    }

    #[test]
    fn newtype_variants_route_through_with_modules() {
        let cells = vec![Cell::Plain(255), Cell::Hex(255), Cell::Pair(1, 2)];
        let json = to_string(&cells).unwrap();
        assert_eq!(json, r#"[{"Plain":255},{"Hex":"ff"},{"Pair":[1,2]}]"#);
        assert_eq!(from_str::<Vec<Cell>>(&json).unwrap(), cells);
        assert!(from_str::<Cell>(r#"{"Hex":"zz"}"#).is_err());
        assert!(from_str::<Cell>(r#"{"Hex":255}"#).is_err());
    }

    /// `n` arrays, each holding the next.
    fn nested_arrays(n: usize) -> String {
        format!("{}{}", "[".repeat(n), "]".repeat(n))
    }

    #[test]
    fn nesting_is_bounded() {
        // At the bound, parsing and dropping the tree fit a 2 MiB thread,
        // unoptimised too.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                assert!(content_from_str(&nested_arrays(parser::MAX_DEPTH)).is_ok());
                let objects = format!(
                    "{}0{}",
                    r#"{"a":"#.repeat(parser::MAX_DEPTH),
                    "}".repeat(parser::MAX_DEPTH)
                );
                assert!(content_from_str(&objects).is_ok());
            })
            .unwrap()
            .join()
            .unwrap();
        let deep = [
            nested_arrays(parser::MAX_DEPTH + 1),
            "[".repeat(100_000),
            r#"{"a":"#.repeat(100_000),
        ];
        for text in deep {
            let err = content_from_str(&text).unwrap_err().to_string();
            assert!(err.contains("nesting deeper than 128 levels"), "{err}");
            assert!(from_slice::<Vec<u8>>(text.as_bytes()).is_err());
        }
    }

    #[test]
    fn pretty_output_parses_back() {
        let pairs: Vec<(String, Vec<u8>)> = vec![("xs".into(), vec![1, 2])];
        let pretty = to_string_pretty(&pairs).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Vec<(String, Vec<u8>)>>(&pretty).unwrap(), pairs);
    }
}
