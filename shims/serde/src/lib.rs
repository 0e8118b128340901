//! Offline shim for the `serde` crate.
//!
//! Keeps serde's *shape* — `Serialize`/`Serializer`, `Deserialize`/
//! `Deserializer` with associated `Ok`/`Error` types, derive macros, and the
//! `#[serde(with = "module")]` attribute — without serde's full visitor
//! architecture. `serde_json` (the sibling shim) is the only data format.
//! Serialization is generic over the [`Serializer`], so `serde_json` streams
//! its text directly; deserialization funnels through one simplified data
//! model, [`content::Content`] (a JSON-ish value tree), which the parser
//! builds and every `Deserialize` impl consumes.

pub mod content;
pub mod de;
pub mod ser;

#[doc(hidden)]
pub mod __private;

mod impls;

pub use de::{Deserialize, DeserializeOwned, Deserializer};
pub use ser::{Serialize, Serializer};

// The derive macros, under the same names as the traits (separate namespaces).
pub use serde_derive::{Deserialize, Serialize};
