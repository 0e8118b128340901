//! # sdb-engine
//!
//! The service-provider (SP) half of the SDB reproduction: a from-scratch
//! relational execution engine with a user-defined-function registry, into which
//! the SDB secure operators are plugged exactly as the paper plugs Hive UDFs into
//! Spark SQL (paper §2.2, Figure 2).
//!
//! The engine never holds any key material. Everything it can compute over
//! sensitive data goes through:
//!
//! * **SDB scalar UDFs** ([`secure`]) — `SDB_MULTIPLY`, `SDB_ADD`, `SDB_KEY_UPDATE`,
//!   … — pure modular arithmetic over secret shares, using only the public modulus
//!   `n` shipped as a UDF argument;
//! * **SDB aggregate UDFs** — `SDB_SUM` folds a key-unified encrypted column with
//!   modular addition;
//! * **oracle calls** ([`secure::SdbOracle`]) — the interactive half of the
//!   comparison / grouping / ranking protocols, where the SP ships *blinded or
//!   encrypted* values to the data owner's proxy and receives back only the
//!   plaintext-free verdicts it needs (sign bits, opaque group tags, opaque rank
//!   surrogates). Every crossing of this interface is counted so the benches can
//!   report client vs server cost (experiment E3) and the audit can inspect the
//!   traffic (experiment E4).
//!
//! The same engine executes plaintext queries (no UDFs involved), which is how the
//! plaintext baseline of `sdb-baseline` runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod error;
pub mod eval;
pub mod kernels;
pub mod operators;
pub mod optimizer;
pub mod planner;
pub mod secure;
pub mod stats;
pub mod trace;
pub mod udf;

pub use config::ExecConfig;
pub use engine::{QueryOptions, QueryOutput, SpEngine};
pub use error::EngineError;
pub use operators::{BoxedOperator, ExecContext, PhysicalOperator, DEFAULT_BATCH_SIZE};
pub use optimizer::Optimizer;
pub use planner::PhysicalPlanner;
pub use sdb_storage::{BufferPool, CancelToken, MemoryBudget};
pub use secure::{
    LatencyOracle, NullOracle, OracleRequest, OracleResponse, OracleResult, SdbOracle,
};
pub use stats::ExecutionStats;
pub use trace::{QueryTrace, SpanReport, TraceEvent, TraceReport};
pub use udf::{ScalarUdf, UdfRegistry, UdfSites};

/// Library result alias.
pub type Result<T> = std::result::Result<T, EngineError>;
