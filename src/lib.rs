//! Root package of the SDB reproduction workspace.
//!
//! It hosts the system-level integration tests under `tests/` and the
//! runnable demos under `examples/`, which exercise the full DO-proxy +
//! SP-engine stack, plus the one piece of code they share: the TPC-H
//! [`coverage`] analyzer (SDB against a CryptDB-style onion system, the
//! paper's 22-of-22 vs 4-of-22 claim). The system itself lives in the
//! `crates/` members — start with the `sdb` core crate (`crates/core`) and
//! the architecture tour in `ARCHITECTURE.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;

pub use coverage::{analyze_query, CoverageReport, RequiredOperation, SystemSupport};
