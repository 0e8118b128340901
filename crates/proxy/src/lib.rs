//! # sdb-proxy
//!
//! The data-owner (DO) side of the SDB reproduction — the "lightweight SDB proxy"
//! of the paper's architecture (§2.2, Figure 2). The proxy is the only component
//! that ever holds key material. It is responsible for:
//!
//! * **Key management** ([`keystore`]): the system key (n, φ(n), g), per-column
//!   column keys, the auxiliary all-ones column keys, the row-id cipher and the
//!   equality-tag PRF key.
//! * **Upload** ([`encryptor`]): turning a plaintext table plus sensitivity choices
//!   into the encrypted table stored at the SP (demo step 1).
//! * **Query rewriting** ([`rewriter`]): parsing application SQL, rewriting every
//!   operator that touches a sensitive column into SDB UDF calls over encrypted
//!   columns, and producing a [`plan::ResultPlan`] describing how to decrypt and
//!   post-process whatever the SP sends back (demo step 2, Figure 3). A
//!   statement seen before replays its cached [`shape::Shape`] instead.
//! * **Interactive protocols** ([`oracle`]): answering the SP's blinded sign /
//!   group-tag / rank requests during execution.
//! * **Result decryption** ([`decryptor`]): reconstructing plaintext results from
//!   encrypted ingredients, then applying any client-side post-processing
//!   (final projection arithmetic, HAVING, ORDER BY, DISTINCT, LIMIT).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decryptor;
pub mod encryptor;
pub mod error;
pub mod keystore;
pub mod meta;
pub mod oracle;
pub mod plan;
pub mod proxy;
pub mod rewriter;
pub mod session;
pub mod shape;

pub use decryptor::Decryptor;
pub use encryptor::{EncryptedUpload, Encryptor, UploadOptions};
pub use error::ProxyError;
pub use keystore::KeyStore;
pub use meta::{ColumnMeta, TableMeta};
pub use oracle::ProxyOracle;
pub use plan::{Ingredient, OutputColumn, ResultPlan};
pub use proxy::{ClientCost, RewrittenQuery, SdbProxy};
pub use session::QuerySession;
pub use shape::Shape;

/// Library result alias.
pub type Result<T> = std::result::Result<T, ProxyError>;
