//! The explicit DO ↔ SP boundary.
//!
//! The paper runs the proxy and the SP on two machines; this reproduction keeps
//! them in one process but forces every exchange through this module so that
//! (1) the cost model can count bytes and round trips, and (2) the adversarial
//! audit can inspect exactly what a network or SP attacker would see (QR
//! knowledge, paper §2.3). Oracle traffic is recorded by wrapping the proxy's
//! oracle in [`RecordingOracle`].

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use serde::Serialize;

use sdb_engine::{OracleRequest, OracleResult, SdbOracle};
use sdb_storage::catalog::TableHandle;

/// One message crossing the DO ↔ SP boundary.
#[derive(Debug, Clone, Serialize)]
pub struct WireMessage {
    /// Direction and kind of the message.
    pub kind: WireMessageKind,
    /// Serialised payload (what an eavesdropper sees).
    pub payload: String,
}

/// Kinds of wire messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum WireMessageKind {
    /// Rewritten SQL text sent from the proxy to the SP, or, for a
    /// statement the proxy holds the shape of, its shape statement (JSON:
    /// shape id, draws, and the template on its first sending).
    QueryToSp,
    /// Encrypted result batch sent from the SP to the proxy.
    ResultToProxy,
    /// Oracle request (SP → proxy).
    OracleRequest,
    /// Oracle response (proxy → SP).
    OracleResponse,
    /// Encrypted table upload (proxy → SP).
    Upload,
}

/// Length-prefixes `payload` as one wire frame: a 4-byte big-endian length
/// followed by the payload bytes. This is the framing the serving layer
/// speaks over byte streams; pairing with [`decode_frame`] round-trips any
/// payload.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Decodes one length-prefixed frame from the front of `bytes`, returning
/// the payload and the total bytes consumed. Errors (with a description) on
/// a truncated header or body — the caller should read more bytes and retry.
pub fn decode_frame(bytes: &[u8]) -> Result<(&[u8], usize), String> {
    if bytes.len() < 4 {
        return Err(format!("frame header needs 4 bytes, have {}", bytes.len()));
    }
    let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    let total = 4 + len;
    if bytes.len() < total {
        return Err(format!(
            "frame body needs {len} bytes, have {}",
            bytes.len() - 4
        ));
    }
    Ok((&bytes[4..total], total))
}

/// A log of every message that crossed the boundary.
#[derive(Debug, Default, Clone)]
pub struct WireLog {
    messages: Arc<Mutex<Vec<Logged>>>,
}

/// One logged message: its payload as sent, or typed rows whose JSON is
/// rendered when the log is first read, off the path that sent them.
#[derive(Debug)]
struct Logged {
    kind: WireMessageKind,
    text: OnceLock<String>,
    rows: Option<(TableHandle, Range<usize>)>,
}

impl Logged {
    /// The payload an eavesdropper sees: for rows, the JSON of the batch
    /// they form.
    fn payload(&self) -> &str {
        self.text.get_or_init(|| {
            let (table, rows) = self.rows.as_ref().expect("a message holds text or rows");
            let batch = table.read().scan();
            let rows = batch
                .slice(rows.start, rows.len())
                .expect("appended rows stay");
            serde_json::to_string(&rows).unwrap_or_default()
        })
    }
}

impl WireLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        WireLog::default()
    }

    /// Records a message.
    pub fn record(&self, kind: WireMessageKind, payload: String) {
        self.messages.lock().push(Logged {
            kind,
            text: OnceLock::from(payload),
            rows: None,
        });
    }

    /// Records a message of the rows `rows` of `table` — rows appended to
    /// it, which no later statement changes — as typed rows: the payload,
    /// the JSON of the batch they form, is rendered only when the log's
    /// payloads or byte counts are read. The caller must not hold `table`'s
    /// lock.
    pub fn record_rows(&self, kind: WireMessageKind, table: TableHandle, rows: Range<usize>) {
        self.messages.lock().push(Logged {
            kind,
            text: OnceLock::new(),
            rows: Some((table, rows)),
        });
    }

    /// All recorded messages.
    pub fn messages(&self) -> Vec<WireMessage> {
        (self.messages.lock().iter())
            .map(|m| WireMessage {
                kind: m.kind,
                payload: m.payload().to_string(),
            })
            .collect()
    }

    /// Total bytes recorded for a message kind.
    pub fn bytes_of_kind(&self, kind: WireMessageKind) -> usize {
        self.messages
            .lock()
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| m.payload().len())
            .sum()
    }

    /// Number of messages of a kind.
    pub fn count_of_kind(&self, kind: WireMessageKind) -> usize {
        self.messages
            .lock()
            .iter()
            .filter(|m| m.kind == kind)
            .count()
    }

    /// Total bytes across all messages.
    pub fn total_bytes(&self) -> usize {
        self.messages.lock().iter().map(|m| m.payload().len()).sum()
    }

    /// Concatenation of every payload (haystack for the audit).
    pub fn concatenated_payloads(&self) -> String {
        self.messages
            .lock()
            .iter()
            .map(Logged::payload)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Clears the log.
    pub fn clear(&self) {
        self.messages.lock().clear();
    }
}

/// Wraps the proxy's oracle so that every request/response crossing the boundary is
/// recorded in the wire log.
pub struct RecordingOracle {
    inner: Arc<dyn SdbOracle>,
    log: WireLog,
}

impl RecordingOracle {
    /// Wraps `inner`, recording traffic into `log`.
    pub fn new(inner: Arc<dyn SdbOracle>, log: WireLog) -> Self {
        RecordingOracle { inner, log }
    }
}

impl SdbOracle for RecordingOracle {
    fn resolve(&self, request: OracleRequest) -> OracleResult {
        let payload = serde_json::to_string(&request).unwrap_or_default();
        self.log.record(WireMessageKind::OracleRequest, payload);
        let response = self.inner.resolve(request);
        if let Ok(response) = &response {
            let payload = serde_json::to_string(response).unwrap_or_default();
            self.log.record(WireMessageKind::OracleResponse, payload);
        }
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_engine::NullOracle;

    #[test]
    fn log_accounts_bytes_and_kinds() {
        let log = WireLog::new();
        log.record(WireMessageKind::QueryToSp, "SELECT 1".to_string());
        log.record(WireMessageKind::ResultToProxy, "{}".to_string());
        assert_eq!(log.count_of_kind(WireMessageKind::QueryToSp), 1);
        assert_eq!(log.bytes_of_kind(WireMessageKind::QueryToSp), 8);
        assert_eq!(log.total_bytes(), 10);
        assert!(log.concatenated_payloads().contains("SELECT 1"));
        log.clear();
        assert_eq!(log.total_bytes(), 0);
    }

    #[test]
    fn frames_round_trip_and_report_truncation() {
        let payload = br#"{"Execute":{"session":3,"sql":"SELECT 1"}}"#;
        let frame = encode_frame(payload);
        assert_eq!(frame.len(), payload.len() + 4);
        let (decoded, consumed) = decode_frame(&frame).unwrap();
        assert_eq!(decoded, payload);
        assert_eq!(consumed, frame.len());

        // Back-to-back frames decode in sequence.
        let mut two = frame.clone();
        two.extend_from_slice(&encode_frame(b"x"));
        let (first, used) = decode_frame(&two).unwrap();
        assert_eq!(first, payload);
        let (second, _) = decode_frame(&two[used..]).unwrap();
        assert_eq!(second, b"x");

        // Truncations are reported, not panics.
        assert!(decode_frame(&frame[..2]).is_err());
        assert!(decode_frame(&frame[..frame.len() - 1]).is_err());
        let empty_frame = encode_frame(b"");
        let (empty, consumed) = decode_frame(&empty_frame).unwrap();
        assert!(empty.is_empty());
        assert_eq!(consumed, 4);
    }

    #[test]
    fn recording_oracle_logs_requests() {
        let log = WireLog::new();
        let oracle = RecordingOracle::new(Arc::new(NullOracle), log.clone());
        let request = OracleRequest {
            kind: sdb_engine::secure::OracleRequestKind::Sign,
            handle: "h0".into(),
            rows: Default::default(),
        };
        let _ = oracle.resolve(request);
        assert_eq!(log.count_of_kind(WireMessageKind::OracleRequest), 1);
        // NullOracle fails, so there is no response message.
        assert_eq!(log.count_of_kind(WireMessageKind::OracleResponse), 0);
    }
}
