//! The secure-operation plumbing of the SP engine: the oracle interface to the
//! data owner's proxy and shared helpers for the SDB UDFs.
//!
//! ## Why an oracle exists
//!
//! Most SDB operators are pure server-side modular arithmetic over secret shares
//! (multiplication, key update, addition of key-unified columns, SUM folding).
//! Comparisons, grouping and ranking, however, cannot be decided by the SP alone —
//! that is exactly the information the encryption is designed to withhold. The
//! paper's architecture handles this with proxy interaction (the client cost the
//! demo breaks down in step 2); this module is that interaction boundary.
//!
//! Everything that crosses the boundary is *blinded or encrypted*: sign requests
//! carry multiplicatively blinded differences, group/rank requests carry ordinary
//! secret shares plus encrypted row ids. What comes back is deliberately opaque:
//! sign bits, opaque group tags or opaque rank surrogates. The
//! [`OracleTraffic`](crate::stats::ExecutionStats) counters and the audit layer in
//! `sdb` (core crate) watch this boundary.

use std::fmt;
use std::sync::Arc;

use num_bigint::BigUint;
use sdb_crypto::EncryptedRowId;
use serde::{Deserialize, Serialize};

use crate::{EngineError, Result};

/// What the SP is asking the DO proxy to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OracleRequestKind {
    /// Return the sign (−1/0/+1) of each blinded difference.
    Sign,
    /// Return an opaque equality tag per row (equal plaintexts ⇔ equal tags).
    GroupTag,
    /// Return an opaque order-preserving surrogate per row.
    Rank,
}

/// One row shipped to the oracle: the encrypted row id (so the proxy can derive the
/// item key) and an encrypted or blinded share.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleRow {
    /// Encrypted row id as stored at the SP.
    pub row_id: EncryptedRowId,
    /// The encrypted (possibly blinded) value.
    pub share: BigUint,
}

/// A batched request from the SP to the DO proxy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleRequest {
    /// Which protocol step this is.
    pub kind: OracleRequestKind,
    /// The proxy-side key handle identifying which column key applies
    /// (established during query rewriting; opaque to the SP).
    pub handle: String,
    /// The rows to resolve.
    pub rows: Vec<OracleRow>,
}

impl OracleRequest {
    /// Approximate wire size in bytes (for cost accounting).
    pub fn approx_size_bytes(&self) -> usize {
        self.handle.len()
            + self
                .rows
                .iter()
                .map(|r| r.row_id.size_bytes() + (r.share.bits() as usize).div_ceil(8))
                .sum::<usize>()
    }
}

/// The proxy's answer to an [`OracleRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OracleResponse {
    /// Per-row signs for a [`OracleRequestKind::Sign`] request.
    Signs(Vec<i8>),
    /// Per-row opaque equality tags for a [`OracleRequestKind::GroupTag`] request.
    Tags(Vec<u64>),
    /// Per-row opaque rank surrogates for a [`OracleRequestKind::Rank`] request.
    Ranks(Vec<u64>),
}

impl OracleResponse {
    /// Number of per-row answers carried.
    pub fn len(&self) -> usize {
        match self {
            OracleResponse::Signs(v) => v.len(),
            OracleResponse::Tags(v) => v.len(),
            OracleResponse::Ranks(v) => v.len(),
        }
    }

    /// True when the response is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Result alias for oracle implementations (they live on the proxy side, so their
/// error is a plain string from the engine's point of view).
pub type OracleResult = std::result::Result<OracleResponse, String>;

/// The interface the DO proxy exposes to the SP engine for interactive protocol
/// steps. Implemented by `sdb-proxy`; the engine only sees this trait.
pub trait SdbOracle: Send + Sync {
    /// Resolves a batched request.
    fn resolve(&self, request: OracleRequest) -> OracleResult;
}

/// Shared handle to an oracle.
pub type OracleRef = Arc<dyn SdbOracle>;

/// An oracle that refuses every request. Used when the engine runs plaintext-only
/// workloads (the baseline path) — any secure operation reaching it is a bug or an
/// unsupported query, and surfaces as a clear error.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullOracle;

impl SdbOracle for NullOracle {
    fn resolve(&self, request: OracleRequest) -> OracleResult {
        Err(format!(
            "no DO proxy connected (request kind {:?}, {} rows)",
            request.kind,
            request.rows.len()
        ))
    }
}

/// An [`SdbOracle`] wrapper injecting a fixed per-request latency before
/// delegating to the wrapped oracle — a simulated WAN round trip.
///
/// The in-process proxy answers in microseconds, which hides the protocol's
/// real unit cost; wrapping it makes every round trip pay a realistic RTT, so
/// tests and benches can *observe* (as wall-clock time) whether operators
/// batch their oracle traffic or quietly regress to per-batch or per-row
/// trips. Every [`crate::ExecContext`] wraps its oracle when its
/// [`crate::ExecConfig::oracle_latency`] is set: process-wide with
/// `SDB_TEST_ORACLE_LATENCY_MS`, or per engine with
/// [`crate::SpEngine::with_oracle_latency`].
pub struct LatencyOracle {
    inner: OracleRef,
    latency: std::time::Duration,
}

impl LatencyOracle {
    /// Wraps `inner`, delaying every request by `latency`.
    pub fn new(inner: OracleRef, latency: std::time::Duration) -> Self {
        LatencyOracle { inner, latency }
    }
}

impl SdbOracle for LatencyOracle {
    fn resolve(&self, request: OracleRequest) -> OracleResult {
        std::thread::sleep(self.latency);
        self.inner.resolve(request)
    }
}

impl fmt::Display for OracleRequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleRequestKind::Sign => write!(f, "sign"),
            OracleRequestKind::GroupTag => write!(f, "group-tag"),
            OracleRequestKind::Rank => write!(f, "rank"),
        }
    }
}

/// Names of the oracle-backed pseudo-functions the rewriter may emit. These are not
/// ordinary scalar UDFs — the executor resolves them with a batched oracle call
/// before row-wise evaluation.
pub mod oracle_fns {
    /// `SDB_CMP_GT(diff_e, row_id, handle, n)` — strictly greater.
    pub const CMP_GT: &str = "SDB_CMP_GT";
    /// `SDB_CMP_GE(diff_e, row_id, handle, n)` — greater or equal.
    pub const CMP_GE: &str = "SDB_CMP_GE";
    /// `SDB_CMP_LT(diff_e, row_id, handle, n)` — strictly less.
    pub const CMP_LT: &str = "SDB_CMP_LT";
    /// `SDB_CMP_LE(diff_e, row_id, handle, n)` — less or equal.
    pub const CMP_LE: &str = "SDB_CMP_LE";
    /// `SDB_CMP_EQ(diff_e, row_id, handle, n)` — equal.
    pub const CMP_EQ: &str = "SDB_CMP_EQ";
    /// `SDB_CMP_NE(diff_e, row_id, handle, n)` — not equal.
    pub const CMP_NE: &str = "SDB_CMP_NE";
    /// `SDB_GROUP_TAG(col_e, row_id, handle)` — opaque equality tag.
    pub const GROUP_TAG: &str = "SDB_GROUP_TAG";
    /// `SDB_RANK(col_e, row_id, handle)` — opaque order surrogate.
    pub const RANK: &str = "SDB_RANK";

    /// All comparison function names.
    pub const ALL_CMP: [&str; 6] = [CMP_GT, CMP_GE, CMP_LT, CMP_LE, CMP_EQ, CMP_NE];

    /// True if `name` is any oracle-backed function.
    pub fn is_oracle_fn(name: &str) -> bool {
        let upper = name.to_ascii_uppercase();
        ALL_CMP.contains(&upper.as_str()) || upper == GROUP_TAG || upper == RANK
    }

    /// True if `name` is an oracle-backed comparison.
    pub fn is_cmp_fn(name: &str) -> bool {
        ALL_CMP.contains(&name.to_ascii_uppercase().as_str())
    }
}

/// Parses a UDF string argument carrying a big decimal number (`n`, `p`, `q`, …).
pub fn parse_biguint_arg(name: &str, text: &str) -> Result<BigUint> {
    BigUint::parse_bytes(text.as_bytes(), 10).ok_or_else(|| EngineError::UdfInvocation {
        name: name.to_string(),
        detail: format!("argument '{text}' is not a decimal integer"),
    })
}

/// Converts a sign (−1/0/+1) into the boolean outcome of a comparison operator.
pub fn sign_to_bool(op: &str, sign: i8) -> Result<bool> {
    match op.to_ascii_uppercase().as_str() {
        "SDB_CMP_GT" => Ok(sign > 0),
        "SDB_CMP_GE" => Ok(sign >= 0),
        "SDB_CMP_LT" => Ok(sign < 0),
        "SDB_CMP_LE" => Ok(sign <= 0),
        "SDB_CMP_EQ" => Ok(sign == 0),
        "SDB_CMP_NE" => Ok(sign != 0),
        other => Err(EngineError::UdfInvocation {
            name: other.to_string(),
            detail: "not a comparison oracle function".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_oracle_refuses() {
        let oracle = NullOracle;
        let req = OracleRequest {
            kind: OracleRequestKind::Sign,
            handle: "h".into(),
            rows: vec![],
        };
        assert!(oracle.resolve(req).is_err());
    }

    #[test]
    fn oracle_fn_classification() {
        assert!(oracle_fns::is_oracle_fn("sdb_cmp_gt"));
        assert!(oracle_fns::is_oracle_fn("SDB_GROUP_TAG"));
        assert!(oracle_fns::is_oracle_fn("SDB_RANK"));
        assert!(!oracle_fns::is_oracle_fn("SDB_MULTIPLY"));
        assert!(oracle_fns::is_cmp_fn("SDB_CMP_EQ"));
        assert!(!oracle_fns::is_cmp_fn("SDB_RANK"));
    }

    #[test]
    fn sign_to_bool_semantics() {
        assert!(sign_to_bool("SDB_CMP_GT", 1).unwrap());
        assert!(!sign_to_bool("SDB_CMP_GT", 0).unwrap());
        assert!(sign_to_bool("SDB_CMP_GE", 0).unwrap());
        assert!(sign_to_bool("SDB_CMP_LT", -1).unwrap());
        assert!(sign_to_bool("SDB_CMP_LE", -1).unwrap());
        assert!(sign_to_bool("SDB_CMP_EQ", 0).unwrap());
        assert!(sign_to_bool("SDB_CMP_NE", 1).unwrap());
        assert!(sign_to_bool("SDB_MULTIPLY", 0).is_err());
    }

    #[test]
    fn biguint_arg_parsing() {
        assert_eq!(
            parse_biguint_arg("SDB_MULTIPLY", "12345678901234567890").unwrap(),
            BigUint::parse_bytes(b"12345678901234567890", 10).unwrap()
        );
        assert!(parse_biguint_arg("SDB_MULTIPLY", "not-a-number").is_err());
    }

    #[test]
    fn latency_oracle_delays_then_delegates() {
        struct Echo;
        impl SdbOracle for Echo {
            fn resolve(&self, request: OracleRequest) -> OracleResult {
                Ok(OracleResponse::Signs(vec![1; request.rows.len()]))
            }
        }
        let oracle = LatencyOracle::new(Arc::new(Echo), std::time::Duration::from_millis(5));
        let started = std::time::Instant::now();
        let response = oracle
            .resolve(OracleRequest {
                kind: OracleRequestKind::Sign,
                handle: "h".into(),
                rows: vec![],
            })
            .unwrap();
        assert!(started.elapsed() >= std::time::Duration::from_millis(5));
        assert_eq!(response, OracleResponse::Signs(vec![]));
    }

    #[test]
    fn response_len() {
        assert_eq!(OracleResponse::Signs(vec![1, -1, 0]).len(), 3);
        assert!(OracleResponse::Tags(vec![]).is_empty());
    }
}
