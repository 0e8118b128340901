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
use sdb_storage::shares::biguint_of;
use sdb_storage::ShareColumn;
use serde::ser::{SerializeSeq, SerializeStruct};
use serde::{Deserialize, Deserializer, Serialize, Serializer};

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

/// The rows of an [`OracleRequest`], a column each: the encrypted row ids
/// (so the proxy can derive the item keys) and the encrypted or blinded
/// shares as limbs, no NULL among them.
///
/// On the wire the rows are the JSON array of `{"row_id": …, "share": …}`
/// objects, both fields base64 text (see [`sdb_crypto::wire`]), written from
/// the limbs and read back into them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleRows {
    row_ids: Vec<EncryptedRowId>,
    shares: ShareColumn,
}

impl OracleRows {
    /// The rows whose row ids and shares these are, in order. Panics when
    /// the lengths differ or a share is NULL.
    pub fn new(row_ids: Vec<EncryptedRowId>, shares: ShareColumn) -> OracleRows {
        assert_eq!(row_ids.len(), shares.len(), "a share for every row id");
        assert_eq!(shares.null_count(), 0, "oracle shares are never NULL");
        OracleRows { row_ids, shares }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.row_ids.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// The encrypted row ids.
    pub fn row_ids(&self) -> &[EncryptedRowId] {
        &self.row_ids
    }

    /// The shares.
    pub fn shares(&self) -> &ShareColumn {
        &self.shares
    }

    /// The share of `row` as a number.
    pub fn share(&self, row: usize) -> BigUint {
        biguint_of(self.shares.row(row))
    }

    /// Wire size of the rows in bytes: each row id's and each share's
    /// minimal bytes (for cost accounting).
    pub fn approx_size_bytes(&self) -> usize {
        let row_ids: usize = self.row_ids.iter().map(EncryptedRowId::size_bytes).sum();
        row_ids
            + (0..self.len())
                .map(|row| self.shares.byte_len(row))
                .sum::<usize>()
    }
}

impl FromIterator<(EncryptedRowId, BigUint)> for OracleRows {
    fn from_iter<I: IntoIterator<Item = (EncryptedRowId, BigUint)>>(rows: I) -> Self {
        let (mut row_ids, mut shares) = (Vec::new(), ShareColumn::default());
        for (row_id, share) in rows {
            row_ids.push(row_id);
            shares.push(&share);
        }
        OracleRows { row_ids, shares }
    }
}

/// One row of [`OracleRows`] as its wire object.
struct WireRow<'r>(&'r OracleRows, usize);

impl Serialize for WireRow<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        let WireRow(rows, row) = *self;
        let mut bytes = Vec::with_capacity(rows.shares.byte_len(row));
        rows.shares.write_bytes_le(row, &mut bytes);
        let mut s = serializer.serialize_struct("OracleRow", 2)?;
        s.serialize_field("row_id", &rows.row_ids[row])?;
        s.serialize_field("share", &sdb_crypto::wire::encode(&bytes))?;
        s.end()
    }
}

impl Serialize for OracleRows {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.len()))?;
        for row in 0..self.len() {
            seq.serialize_element(&WireRow(self, row))?;
        }
        seq.end()
    }
}

impl<'de> Deserialize<'de> for OracleRows {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        /// The wire object of one row.
        #[derive(Deserialize)]
        struct Row {
            row_id: EncryptedRowId,
            #[serde(with = "sdb_crypto::wire::share")]
            share: BigUint,
        }
        let rows = Vec::<Row>::deserialize(deserializer)?;
        Ok(rows
            .into_iter()
            .map(|row| (row.row_id, row.share))
            .collect())
    }
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
    pub rows: OracleRows,
}

impl OracleRequest {
    /// Approximate wire size in bytes (for cost accounting).
    pub fn approx_size_bytes(&self) -> usize {
        self.handle.len() + self.rows.approx_size_bytes()
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
        is_cmp_fn(name) || name.eq_ignore_ascii_case(GROUP_TAG) || name.eq_ignore_ascii_case(RANK)
    }

    /// True if `name` is an oracle-backed comparison.
    pub fn is_cmp_fn(name: &str) -> bool {
        ALL_CMP.iter().any(|cmp| cmp.eq_ignore_ascii_case(name))
    }
}

/// What a comparison oracle function asks of the sign of its blinded
/// difference, parsed once from the function's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `SDB_CMP_GT`: sign > 0.
    Gt,
    /// `SDB_CMP_GE`: sign ≥ 0.
    Ge,
    /// `SDB_CMP_LT`: sign < 0.
    Lt,
    /// `SDB_CMP_LE`: sign ≤ 0.
    Le,
    /// `SDB_CMP_EQ`: sign = 0.
    Eq,
    /// `SDB_CMP_NE`: sign ≠ 0.
    Ne,
}

impl CmpOp {
    /// The comparison a function name (any case) names, if it is one.
    pub fn parse(name: &str) -> Option<CmpOp> {
        const OPS: [CmpOp; 6] = [
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        let at = oracle_fns::ALL_CMP
            .iter()
            .position(|cmp| cmp.eq_ignore_ascii_case(name))?;
        Some(OPS[at])
    }

    /// Whether a sign (−1/0/+1) satisfies the comparison.
    pub fn holds(self, sign: i8) -> bool {
        match self {
            CmpOp::Gt => sign > 0,
            CmpOp::Ge => sign >= 0,
            CmpOp::Lt => sign < 0,
            CmpOp::Le => sign <= 0,
            CmpOp::Eq => sign == 0,
            CmpOp::Ne => sign != 0,
        }
    }
}

/// Parses a UDF string argument carrying a big decimal number (`n`, `p`, `q`, …).
pub fn parse_biguint_arg(name: &str, text: &str) -> Result<BigUint> {
    BigUint::parse_bytes(text.as_bytes(), 10).ok_or_else(|| EngineError::UdfInvocation {
        name: name.to_string(),
        detail: format!("argument '{text}' is not a decimal integer"),
    })
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
            rows: OracleRows::default(),
        };
        assert!(oracle.resolve(req).is_err());
    }

    fn row_id(nonce: u64) -> EncryptedRowId {
        EncryptedRowId(sdb_crypto::sies::SiesCiphertext {
            nonce,
            tag: 7,
            body: vec![1, 2, 3],
        })
    }

    /// A zero share, a 64-bit one and a 512-bit one, under three row ids.
    fn request() -> OracleRequest {
        let shares = [
            BigUint::from(0u32),
            BigUint::from(0x0102_0304_0506_0708u64),
            (BigUint::from(1u32) << 511u32) + BigUint::from(5u32),
        ];
        OracleRequest {
            kind: OracleRequestKind::GroupTag,
            handle: "h1".into(),
            rows: (1..).map(row_id).zip(shares).collect(),
        }
    }

    /// The columnar rows are written as the array of row objects: the
    /// pinned text, and byte for byte what a `Vec` of derived row structs
    /// (the request's earlier form) writes.
    #[test]
    fn requests_serialise_to_the_row_objects_text() {
        let empty = OracleRequest {
            kind: OracleRequestKind::Sign,
            handle: "h0".into(),
            rows: OracleRows::default(),
        };
        let text = serde_json::to_string(&empty).unwrap();
        assert_eq!(text, r#"{"kind":"Sign","handle":"h0","rows":[]}"#);

        let text = serde_json::to_string(&request()).unwrap();
        let golden = concat!(
            r#"{"kind":"GroupTag","handle":"h1","rows":["#,
            r#"{"row_id":"AQAAAAAAAAAHAAAAAAAAAAECAw==","share":""},"#,
            r#"{"row_id":"AgAAAAAAAAAHAAAAAAAAAAECAw==","share":"CAcGBQQDAgE="},"#,
            r#"{"row_id":"AwAAAAAAAAAHAAAAAAAAAAECAw==","share":""#,
            "BQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAgA==",
            r#""}]}"#,
        );
        assert_eq!(text, golden);

        #[derive(Serialize)]
        struct Row {
            row_id: EncryptedRowId,
            #[serde(with = "sdb_crypto::wire::share")]
            share: BigUint,
        }
        #[derive(Serialize)]
        struct RowRequest {
            kind: OracleRequestKind,
            handle: String,
            rows: Vec<Row>,
        }
        let request = request();
        let rows = (0..request.rows.len())
            .map(|row| Row {
                row_id: request.rows.row_ids()[row].clone(),
                share: request.rows.share(row),
            })
            .collect();
        let reference = RowRequest {
            kind: request.kind,
            handle: request.handle.clone(),
            rows,
        };
        assert_eq!(serde_json::to_string(&reference).unwrap(), golden);
        // 19 bytes a row id, 0 + 8 + 64 share bytes, 2 handle bytes.
        assert_eq!(request.approx_size_bytes(), 3 * 19 + 72 + 2);
    }

    /// A request reads back as it was written; a share or row id that is
    /// not canonical base64 is refused.
    #[test]
    fn requests_round_trip_and_refuse_malformed_text() {
        let request = request();
        let text = serde_json::to_string(&request).unwrap();
        let back: OracleRequest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, request);
        assert_eq!(back.rows.share(2), request.rows.share(2));
        for (good, bad) in [
            (r#""share":"CAcGBQQDAgE=""#, r#""share":"CAcGBQQDAgE""#),
            (r#""share":"CAcGBQQDAgE=""#, r#""share":"CAcGBQQDAgEA""#),
            (r#""share":"CAcGBQQDAgE=""#, r#""share":"CAcGBQQD!gE=""#),
            (r#""share":"CAcGBQQDAgE=""#, r#""share":7"#),
            (
                r#""row_id":"AQAAAAAAAAAHAAAAAAAAAAECAw==""#,
                r#""row_id":"AQAA""#,
            ),
        ] {
            let broken = text.replacen(good, bad, 1);
            assert_ne!(broken, text);
            assert!(
                serde_json::from_str::<OracleRequest>(&broken).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn oracle_fn_classification() {
        assert!(oracle_fns::is_oracle_fn("sdb_cmp_gt"));
        assert!(oracle_fns::is_oracle_fn("SDB_GROUP_TAG"));
        assert!(oracle_fns::is_oracle_fn("SDB_RANK"));
        assert!(!oracle_fns::is_oracle_fn("SDB_MULTIPLY"));
        assert!(oracle_fns::is_cmp_fn("SDB_CMP_EQ"));
        assert!(!oracle_fns::is_cmp_fn("SDB_RANK"));
        assert!(!oracle_fns::is_oracle_fn("SDB_CMP_GTE"));
        assert_eq!(CmpOp::parse("sdb_cmp_le"), Some(CmpOp::Le));
        assert_eq!(CmpOp::parse("SDB_GROUP_TAG"), None);
    }

    #[test]
    fn sign_to_bool_semantics() {
        let holds = |name: &str, sign: i8| CmpOp::parse(name).map(|cmp| cmp.holds(sign));
        assert_eq!(holds("SDB_CMP_GT", 1), Some(true));
        assert_eq!(holds("SDB_CMP_GT", 0), Some(false));
        assert_eq!(holds("SDB_CMP_GE", 0), Some(true));
        assert_eq!(holds("SDB_CMP_LT", -1), Some(true));
        assert_eq!(holds("SDB_CMP_LE", -1), Some(true));
        assert_eq!(holds("SDB_CMP_EQ", 0), Some(true));
        assert_eq!(holds("SDB_CMP_NE", 1), Some(true));
        assert_eq!(holds("SDB_MULTIPLY", 0), None);
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
    fn response_len() {
        assert_eq!(OracleResponse::Signs(vec![1, -1, 0]).len(), 3);
        assert!(OracleResponse::Tags(vec![]).is_empty());
    }
}
