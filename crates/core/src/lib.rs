//! # sdb
//!
//! End-to-end reproduction of *"SDB: A Secure Query Processing System with Data
//! Interoperability"* (He, Wong, Kao, Cheung, Li, Yiu, Lo — PVLDB 8(12), 2015).
//!
//! This crate wires the two halves of the paper's architecture together:
//!
//! * the **DO-side proxy** ([`sdb_proxy`]) — key store, query rewriting,
//!   interactive protocols, result decryption — and
//! * the **SP-side engine** ([`sdb_engine`]) — an unmodified relational engine plus
//!   the SDB UDF set —
//!
//! behind a single [`SdbClient`] that mirrors what an application sees: define
//! tables (marking columns `SENSITIVE`), insert data, upload, and run SQL. All
//! round trips between proxy and SP go through an explicit, byte-counted
//! [`wire`] layer, so the demo's cost breakdown (experiment E3) counts exactly
//! what crosses it, and the adversarial memory audit (experiment E4, an
//! [`audit`] a test runs over a [`WireCapture`]) sees exactly what a
//! service-provider attacker could observe.
//!
//! ```
//! use sdb::{SdbClient, SdbConfig};
//!
//! // Keys from the OS: the profiles alone are seeded fixtures.
//! let mut client = SdbClient::new(SdbConfig::test_profile().entropy_keyed()).unwrap();
//! client.execute("CREATE TABLE staff (id INT, salary INT SENSITIVE)").unwrap();
//! client.execute("INSERT INTO staff VALUES (1, 1000), (2, 2500)").unwrap();
//! client.upload_all().unwrap();
//!
//! let result = client.query("SELECT SUM(salary) AS total FROM staff").unwrap();
//! assert_eq!(result.rows()[0][0].render(), "3500");
//! // The rewritten query that actually ran at the SP never mentions plaintext:
//! assert!(result.rewritten_sql.contains("SDB_KEY_UPDATE"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod client;
pub mod wire;

pub use audit::{AuditReport, MemoryAuditor};
pub use client::{QueryResult, SdbClient, SdbConfig, SdbError};
pub use sdb_crypto::KeyConfig;
pub use sdb_proxy::UploadOptions;
pub use wire::{decode_frame, encode_frame, WireCapture, WireLog, WireMessage, WireMessageKind};

/// Library result alias.
pub type Result<T> = std::result::Result<T, SdbError>;
