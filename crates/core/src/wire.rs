//! The explicit DO ↔ SP boundary.
//!
//! The paper runs the proxy and the SP on two machines; this reproduction keeps
//! them in one process but forces every exchange through this module so that
//! (1) the cost model can count bytes and round trips, always, and (2) a test
//! — the adversarial audit among them — can capture exactly what a network or
//! SP attacker would see (QR knowledge, paper §2.3). Oracle traffic is
//! recorded by wrapping the proxy's oracle in [`RecordingOracle`].

use std::ops::Range;
use std::sync::{Arc, Weak};

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

/// Per-kind message and byte counts of everything that crossed the
/// boundary. The log keeps counts, not payloads: a payload is measured and
/// dropped as it is recorded, so a long-running client or server holds a
/// few integers however much traffic it serves. A test that needs the
/// payloads themselves opens a [`WireCapture`] with [`WireLog::capture`].
#[derive(Debug, Default, Clone)]
pub struct WireLog {
    ledger: Arc<Mutex<Ledger>>,
}

/// How many appended-row messages the log holds unsized: one more, and it
/// sizes them all. An entry is a kind, a table handle and a row range (32
/// bytes), so this caps the pending rows at 32 KiB however long a client
/// INSERTs without reading its byte counts; the counts stay exact, because
/// appended rows never change.
const PENDING_ROWS_BOUND: usize = 1024;

#[derive(Debug, Default)]
struct Ledger {
    /// Messages and bytes per kind, indexed by `WireMessageKind as usize`.
    messages: [usize; 5],
    bytes: [usize; 5],
    /// Appended rows counted as messages, not yet as bytes: the JSON they
    /// send is rendered when the byte counts are next read, off the path
    /// that sent them.
    pending_rows: Vec<(WireMessageKind, TableHandle, Range<usize>)>,
    /// The open captures; a dropped one is pruned at the next record.
    captures: Vec<Weak<Mutex<Vec<WireMessage>>>>,
}

impl Ledger {
    /// Hands a copy of a message to every open capture; `payload` runs
    /// only if one is open.
    fn capture(&mut self, kind: WireMessageKind, payload: impl FnOnce() -> String) {
        self.captures.retain(|capture| capture.strong_count() > 0);
        if self.captures.is_empty() {
            return;
        }
        let message = WireMessage {
            kind,
            payload: payload(),
        };
        for capture in self.captures.iter().filter_map(Weak::upgrade) {
            capture.lock().push(message.clone());
        }
    }

    /// Adds the bytes of every pending row message.
    fn size_rows(&mut self) {
        for (kind, table, rows) in std::mem::take(&mut self.pending_rows) {
            self.bytes[kind as usize] += rows_json(&table, rows).len();
        }
    }
}

/// The JSON of the batch that rows `rows` of `table` form.
fn rows_json(table: &TableHandle, rows: Range<usize>) -> String {
    let batch = table.read().scan();
    let rows = (batch.slice(rows.start, rows.len())).expect("appended rows stay");
    serde_json::to_string(&rows).unwrap_or_default()
}

impl WireLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        WireLog::default()
    }

    /// Records a message: counts it and its bytes, then drops it unless a
    /// capture is open.
    pub fn record(&self, kind: WireMessageKind, payload: String) {
        let mut ledger = self.ledger.lock();
        ledger.messages[kind as usize] += 1;
        ledger.bytes[kind as usize] += payload.len();
        ledger.capture(kind, || payload);
    }

    /// Records a message of the rows `rows` of `table` — rows appended to
    /// it, which no later statement changes — as typed rows: the payload,
    /// the JSON of the batch they form, is rendered when the byte counts
    /// are read, when more than `PENDING_ROWS_BOUND` such messages are
    /// pending, or at once for an open capture. The caller must hold no
    /// table's lock.
    pub fn record_rows(&self, kind: WireMessageKind, table: TableHandle, rows: Range<usize>) {
        let mut ledger = self.ledger.lock();
        ledger.messages[kind as usize] += 1;
        ledger.capture(kind, || rows_json(&table, rows.clone()));
        ledger.pending_rows.push((kind, table, rows));
        if ledger.pending_rows.len() > PENDING_ROWS_BOUND {
            ledger.size_rows();
        }
    }

    /// Starts keeping a copy of every payload recorded from now on, until
    /// the returned handle is dropped. This is how tests and the audit
    /// read what crossed the wire; without an open capture the log keeps
    /// no payload.
    pub fn capture(&self) -> WireCapture {
        let capture = WireCapture::default();
        (self.ledger.lock().captures).push(Arc::downgrade(&capture.messages));
        capture
    }

    /// Total bytes recorded for a message kind.
    pub fn bytes_of_kind(&self, kind: WireMessageKind) -> usize {
        let mut ledger = self.ledger.lock();
        ledger.size_rows();
        ledger.bytes[kind as usize]
    }

    /// Number of messages of a kind.
    pub fn count_of_kind(&self, kind: WireMessageKind) -> usize {
        self.ledger.lock().messages[kind as usize]
    }

    /// Total bytes across all messages.
    pub fn total_bytes(&self) -> usize {
        let mut ledger = self.ledger.lock();
        ledger.size_rows();
        ledger.bytes.iter().sum()
    }

    /// Resets the counts. Open captures keep what they hold.
    pub fn clear(&self) {
        let mut ledger = self.ledger.lock();
        (ledger.messages, ledger.bytes) = Default::default();
        ledger.pending_rows.clear();
    }
}

/// The messages a [`WireLog`] recorded while this handle was alive, in
/// order (see [`WireLog::capture`]). Dropping it ends the capture.
#[derive(Debug, Default)]
pub struct WireCapture {
    messages: Arc<Mutex<Vec<WireMessage>>>,
}

impl WireCapture {
    /// Every captured message.
    pub fn messages(&self) -> Vec<WireMessage> {
        self.messages.lock().clone()
    }

    /// Concatenation of every captured payload (haystack for the audit).
    pub fn concatenated_payloads(&self) -> String {
        let messages = self.messages.lock();
        let payloads: Vec<&str> = messages.iter().map(|m| m.payload.as_str()).collect();
        payloads.join("\n")
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
        log.clear();
        assert_eq!(log.total_bytes(), 0);
        assert_eq!(log.count_of_kind(WireMessageKind::QueryToSp), 0);
    }

    #[test]
    fn a_capture_keeps_what_is_recorded_while_it_lives() {
        let log = WireLog::new();
        log.record(WireMessageKind::QueryToSp, "before".to_string());
        let capture = log.capture();
        let other = log.clone().capture();
        log.record(WireMessageKind::QueryToSp, "SELECT 1".to_string());
        log.clear();
        log.record(WireMessageKind::ResultToProxy, "{}".to_string());
        assert_eq!(capture.concatenated_payloads(), "SELECT 1\n{}");
        let kinds: Vec<_> = capture.messages().iter().map(|m| m.kind).collect();
        assert_eq!(
            kinds,
            [WireMessageKind::QueryToSp, WireMessageKind::ResultToProxy]
        );
        drop(capture);
        log.record(WireMessageKind::QueryToSp, "after".to_string());
        assert_eq!(
            log.ledger.lock().captures.len(),
            1,
            "the dropped one is gone"
        );
        assert!(other.concatenated_payloads().ends_with("after"));
        drop(other);
        log.record(WireMessageKind::QueryToSp, "unseen".to_string());
        assert!(log.ledger.lock().captures.is_empty());
    }

    #[test]
    fn insert_rows_are_counted_at_once_and_sized_when_read() {
        use sdb_storage::{Catalog, ColumnDef, DataType, Schema, Table, Value};
        let mut table = Table::new(
            "t",
            Schema::new(vec![ColumnDef::public("v", DataType::Int)]),
        );
        for v in 0..3 {
            table.insert_row(vec![Value::Int(v)]).unwrap();
        }
        let table = Catalog::new().register_table(table).unwrap();
        let rows = table.read().scan().slice(1, 2).unwrap();
        let json = serde_json::to_string(&rows).unwrap();

        let log = WireLog::new();
        let capture = log.capture();
        log.record_rows(WireMessageKind::Upload, table.clone(), 1..3);
        assert_eq!(log.count_of_kind(WireMessageKind::Upload), 1);
        assert_eq!(log.ledger.lock().pending_rows.len(), 1);
        assert_eq!(log.bytes_of_kind(WireMessageKind::Upload), json.len());
        assert!(log.ledger.lock().pending_rows.is_empty());
        assert_eq!(capture.concatenated_payloads(), json);

        // Clearing drops rows not yet sized.
        log.record_rows(WireMessageKind::Upload, table, 1..3);
        log.clear();
        assert!(log.ledger.lock().pending_rows.is_empty());
        assert_eq!(log.total_bytes(), 0);
    }

    /// A client that INSERTs and never reads its counts holds at most
    /// `PENDING_ROWS_BOUND` unsized row messages, none sized before the
    /// bound is passed, and its totals are what sizing each at once gives.
    #[test]
    fn pending_insert_rows_stay_bounded_and_exact() {
        use sdb_storage::{Catalog, ColumnDef, DataType, Schema, Table, Value};
        let mut table = Table::new(
            "t",
            Schema::new(vec![ColumnDef::public("v", DataType::Int)]),
        );
        for v in 0..4 {
            table.insert_row(vec![Value::Int(v * 1000)]).unwrap();
        }
        let table = Catalog::new().register_table(table).unwrap();

        let (lazy, eager) = (WireLog::new(), WireLog::new());
        let mut expected = 0;
        for i in 0..3 * PENDING_ROWS_BOUND + 5 {
            let rows = i % 3..4;
            lazy.record_rows(WireMessageKind::Upload, table.clone(), rows.clone());
            let pending = lazy.ledger.lock().pending_rows.len();
            assert!(pending <= PENDING_ROWS_BOUND, "{pending} after {i}");
            if i < PENDING_ROWS_BOUND {
                assert_eq!(pending, i + 1, "nothing is sized below the bound");
            }
            eager.record_rows(WireMessageKind::Upload, table.clone(), rows);
            expected = eager.bytes_of_kind(WireMessageKind::Upload);
        }
        assert_eq!(lazy.total_bytes(), expected);
        assert_eq!(lazy.bytes_of_kind(WireMessageKind::Upload), expected);
        assert_eq!(
            lazy.count_of_kind(WireMessageKind::Upload),
            3 * PENDING_ROWS_BOUND + 5
        );
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
