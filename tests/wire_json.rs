//! Byte identity of the streamed wire JSON, and its round trip.
//!
//! `serde_json` renders every payload by streaming it straight into the
//! output string. These tests hold that output, byte for byte, to the
//! `Content`-tree renderer it replaced — compact for the DO ↔ SP payloads
//! (upload tables, result batches, oracle requests and responses, the key
//! store) and the serving frames, pretty for exported traces — on the workspace's
//! real payload types. The reference renderer is the serde_json shim's own
//! test reference, included from its source. Every DO ↔ SP payload a client
//! records also decodes to exactly the value that was sent, and carries its
//! shares as base64 bytes (`sdb_crypto::wire`), never as decimal digits.

use std::sync::{Arc, Mutex};

use num_bigint::BigUint;
use num_traits::Zero;
use serde::Serialize;

use sdb::wire::RecordingOracle;
use sdb::{SdbClient, SdbConfig, WireCapture, WireLog, WireMessageKind};
use sdb_engine::{OracleRequest, OracleResponse, OracleResult, QueryOptions, SdbOracle};
use sdb_server::metrics::{QueryInfo, QueryState};
use sdb_server::{Request, Response, SdbServer, ServerConfig};
use sdb_storage::{ColumnDef, DataType, RecordBatch, Schema, Table, Value};
use sdb_workload::{generate_all, ScaleFactor, SensitivityProfile};

#[path = "../shims/serde_json/src/writer.rs"]
mod reference;

/// Panics with the first differing byte and its surroundings.
fn assert_same_text(streamed: &str, expected: &str, what: &str) {
    if streamed == expected {
        return;
    }
    let at = streamed
        .bytes()
        .zip(expected.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(streamed.len().min(expected.len()));
    let around = |text: &str| {
        let bytes = &text.as_bytes()[at.saturating_sub(40)..(at + 40).min(text.len())];
        String::from_utf8_lossy(bytes).into_owned()
    };
    panic!(
        "{what}: streamed JSON differs from the Content renderer at byte {at} \
         (lengths {} vs {}): streamed …{}… reference …{}…",
        streamed.len(),
        expected.len(),
        around(streamed),
        around(expected)
    );
}

/// Checks `to_string`, `to_vec` and `to_string_pretty` of `value` against the
/// reference renderer; returns the compact text.
fn streams_identically<T: Serialize>(value: &T, what: &str) -> String {
    let content = serde::__private::to_content::<T, serde_json::Error>(value).unwrap();
    let mut compact = String::new();
    reference::write_compact(&content, &mut compact).unwrap();
    let mut pretty = String::new();
    reference::write_pretty(&content, &mut pretty, 0).unwrap();

    let streamed = serde_json::to_string(value).unwrap();
    assert_same_text(&streamed, &compact, what);
    assert!(
        serde_json::to_vec(value).unwrap() == compact.as_bytes(),
        "{what}: to_vec"
    );
    assert_same_text(&serde_json::to_string_pretty(value).unwrap(), &pretty, what);
    streamed
}

/// Every JSON payload captured on the wire (all but the rewritten SQL) is a
/// fixed point of parse + reference render: nothing the streaming writer
/// produced renders differently.
fn wire_payloads_are_canonical(capture: &WireCapture) {
    let mut checked = 0;
    for message in capture.messages() {
        if message.kind == WireMessageKind::QueryToSp {
            continue;
        }
        let content = serde_json::content_from_str(&message.payload).unwrap();
        let mut rendered = String::new();
        reference::write_compact(&content, &mut rendered).unwrap();
        assert_same_text(
            &message.payload,
            &rendered,
            &format!("{:?} payload", message.kind),
        );
        checked += 1;
    }
    assert!(checked > 0, "the wire carried JSON");
}

/// Forwards to the proxy's oracle, keeping every typed request and response.
struct CapturingOracle {
    inner: Arc<dyn SdbOracle>,
    seen: Mutex<Vec<(OracleRequest, OracleResponse)>>,
}

impl SdbOracle for CapturingOracle {
    fn resolve(&self, request: OracleRequest) -> OracleResult {
        let response = self.inner.resolve(request.clone())?;
        self.seen.lock().unwrap().push((request, response.clone()));
        Ok(response)
    }
}

/// The decimal digits of `value` by long division through the public
/// operators, 19 digits at a time — independent of `BigUint`'s `Display`.
fn decimal_by_division(value: &BigUint) -> String {
    let chunk = BigUint::from(10_000_000_000_000_000_000u64);
    let mut rest = value.clone();
    let mut chunks = Vec::new();
    loop {
        chunks.push((&rest % &chunk).to_u64().unwrap());
        rest = &rest / &chunk;
        if rest.is_zero() {
            break;
        }
    }
    let mut text = chunks.pop().unwrap().to_string();
    for chunk in chunks.iter().rev() {
        text.push_str(&format!("{chunk:019}"));
    }
    text
}

/// The longest run of decimal digits in `text`.
fn longest_digit_run(text: &str) -> usize {
    (text.split(|c: char| !c.is_ascii_digit()))
        .map(str::len)
        .max()
        .unwrap_or(0)
}

/// A client with the tiny Financial workload uploaded, and a capture of its
/// wire from the upload on.
fn loaded_client() -> (SdbClient, WireCapture) {
    let mut client = SdbClient::new(SdbConfig::test_profile()).expect("client");
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, 0x5db) {
        client.stage_table(table).expect("stage");
    }
    let capture = client.wire().capture();
    client.upload_all().expect("upload");
    (client, capture)
}

#[test]
fn upload_tables_key_store_and_sp_storage_stream_identically() {
    let (client, _) = loaded_client();
    let tables = client.engine().catalog().snapshot();
    assert_eq!(tables.len(), 8);
    let mut shares = 0;
    for table in &tables {
        streams_identically(table, table.name());
        for value in table.scan().rows().flatten() {
            if let Value::Encrypted(share) = value {
                assert_eq!(share.to_string(), decimal_by_division(&share));
                shares += 1;
            }
        }
    }
    assert!(shares > 100, "the upload holds shares: {shares}");
    let keystore = client.proxy().keystore();
    let json = streams_identically(keystore, "key store");
    assert_eq!(keystore.approx_size_bytes(), json.len());
    let snapshot = sdb_storage::persist::CatalogSnapshot::capture(client.engine().catalog());
    streams_identically(&snapshot, "catalog snapshot");
}

#[test]
fn results_oracle_traffic_and_traces_stream_identically() {
    let (client, capture) = loaded_client();
    let mut kinds = Vec::new();
    for id in [1u8, 3, 6, 10, 18] {
        let template = sdb_workload::query_by_id(id).expect("template");
        let rewritten = client.rewrite_only(template.sql).expect("rewrite");
        let oracle = Arc::new(CapturingOracle {
            inner: client.proxy().oracle(&rewritten),
            seen: Mutex::new(Vec::new()),
        });
        let opts = QueryOptions::default()
            .with_tracing(true)
            .with_oracle(oracle.clone());
        let output = client
            .engine()
            .execute_sql_with(&rewritten.server_sql, &opts)
            .unwrap_or_else(|e| panic!("Q{id}: {e}"));
        streams_identically(&output.batch, &format!("Q{id} result batch"));
        let trace = output.trace.expect("tracing was on");
        let pretty = trace.to_json();
        let content = serde::__private::to_content::<_, serde_json::Error>(&trace).unwrap();
        let mut expected = String::new();
        reference::write_pretty(&content, &mut expected, 0).unwrap();
        assert_same_text(&pretty, &expected, &format!("Q{id} trace export"));
        for (request, response) in oracle.seen.lock().unwrap().iter() {
            kinds.push(request.kind);
            streams_identically(request, &format!("Q{id} oracle request"));
            streams_identically(response, &format!("Q{id} oracle response"));
        }

        // The same query end to end: every JSON payload the client recorded
        // on its wire ledger renders exactly as the reference would.
        client
            .query(template.sql)
            .unwrap_or_else(|e| panic!("Q{id}: {e}"));
    }
    assert!(kinds.len() >= 2, "the queries reach the oracle: {kinds:?}");
    wire_payloads_are_canonical(&capture);
}

#[test]
fn every_value_variant_streams_identically() {
    let (client, _) = loaded_client();
    let encrypted = client.engine().catalog().snapshot().remove(0);
    let encrypted = encrypted.scan();
    let schema = Schema::new(vec![
        ColumnDef::public("price", DataType::Decimal { scale: 2 }),
        ColumnDef::public("shipped", DataType::Date),
        ColumnDef::public("comment", DataType::Varchar),
        ColumnDef::public("urgent", DataType::Bool),
        ColumnDef::public("count", DataType::Int),
        ColumnDef::public("tag", DataType::Tag),
    ]);
    let batch = RecordBatch::from_rows(
        schema,
        vec![
            vec![
                Value::Decimal {
                    units: -12_345,
                    scale: 2,
                },
                Value::Date(-1),
                Value::Str(
                    "quote \" backslash \\ newline \n control \u{1}\u{1f} snow \u{2603}".into(),
                ),
                Value::Bool(true),
                Value::Int(i64::MIN),
                Value::Tag(u64::MAX),
            ],
            vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
            vec![
                Value::Decimal { units: 0, scale: 2 },
                Value::Date(19_000),
                Value::Str(String::new()),
                Value::Bool(false),
                Value::Int(i64::MAX),
                Value::Tag(0),
            ],
        ],
    )
    .expect("typed batch");
    streams_identically(&batch, "plain batch");
    streams_identically(&encrypted, "encrypted batch");
    let mut mixed_table = Table::new("mixed", batch.schema().clone());
    for row in batch.rows() {
        mixed_table.insert_row(row).expect("insert");
    }
    streams_identically(&mixed_table, "plain table");
}

#[test]
fn every_serving_frame_streams_identically() {
    let mut server = SdbServer::new(
        ServerConfig::test_profile()
            .with_tracing(true)
            .with_slow_query_ms(0),
    )
    .unwrap();
    let capture = server.wire().capture();
    server
        .execute_ddl("CREATE TABLE t (id INT, region VARCHAR, v INT SENSITIVE)")
        .unwrap();
    server
        .execute_ddl("INSERT INTO t VALUES (1, 'north', 5), (2, 'south \"x\"', 7), (3, 'north', 9)")
        .unwrap();
    server.upload_all().unwrap();
    let session = server.connect();
    for sql in [
        "SELECT region, SUM(v) AS total FROM t GROUP BY region ORDER BY region",
        "SELECT id FROM t WHERE v > 6 ORDER BY v DESC",
    ] {
        server.execute(session, sql).unwrap();
    }

    let requests = [
        Request::Connect,
        Request::Execute {
            session,
            sql: "SELECT 'a\"b' FROM t".into(),
        },
        Request::Cancel { session },
        Request::Stats { session },
        Request::SessionStats { session },
        Request::Metrics,
        Request::ListQueries,
        Request::CancelQuery { query: u64::MAX },
        Request::SlowQueries,
        Request::Close { session },
    ];
    for request in &requests {
        streams_identically(request, &format!("{request:?}"));
    }

    let slow = server.slow_queries();
    assert_eq!(slow.len(), 2);
    assert!(slow.iter().all(|record| record.trace.is_some()));
    let responses = [
        Response::Connected { session },
        Response::Rows {
            columns: vec!["region".into(), "total".into()],
            rows: vec![
                vec!["north".into(), "14".into()],
                vec!["south \"x\"".into(), "NULL".into()],
            ],
        },
        Response::Rows {
            columns: vec![],
            rows: vec![],
        },
        Response::Cancelled { session },
        Response::Stats {
            stats: server.session_stats(session).unwrap(),
        },
        Response::Metrics {
            snapshot: server.metrics_snapshot(),
        },
        Response::Queries {
            queries: vec![QueryInfo {
                query: 3,
                session,
                sql: "SELECT v FROM t".into(),
                elapsed_us: 17,
                state: QueryState::Degraded,
            }],
        },
        Response::Queries { queries: vec![] },
        Response::QueryCancelled { query: 3 },
        Response::SlowQueries { queries: slow },
        Response::Closed { session },
        Response::Error {
            message: "protocol error: \u{0}\u{1b}\t".into(),
        },
    ];
    for response in &responses {
        streams_identically(response, &format!("{response:?}"));
    }

    // The frames the server itself answers with are canonical too, and so
    // is the DO ↔ SP traffic they caused.
    for request in &requests {
        let answer = server.handle_frame(&sdb::encode_frame(
            serde_json::to_string(request).unwrap().as_bytes(),
        ));
        let (payload, consumed) = sdb::decode_frame(&answer).unwrap();
        assert_eq!(consumed, answer.len());
        let payload = std::str::from_utf8(payload).unwrap();
        let content = serde_json::content_from_str(payload).unwrap();
        let mut rendered = String::new();
        reference::write_compact(&content, &mut rendered).unwrap();
        assert_same_text(payload, &rendered, &format!("answer to {request:?}"));
    }
    wire_payloads_are_canonical(&capture);
}

#[test]
fn every_recorded_payload_decodes_to_what_was_sent() {
    let (mut client, capture) = loaded_client();
    client
        .execute("CREATE TABLE ledger (id INT, amount DECIMAL(12,2) SENSITIVE, note VARCHAR(20) SENSITIVE)")
        .unwrap();
    client
        .execute("INSERT INTO ledger VALUES (1, 1234567.89, 'opening'), (2, 0.00, NULL), (3, -0.01, 'nil')")
        .unwrap();
    client.upload("ledger").unwrap();

    // The upload of every table decodes to what the SP loaded.
    let uploads: Vec<String> = (capture.messages().into_iter())
        .filter(|m| m.kind == WireMessageKind::Upload)
        .map(|m| m.payload)
        .collect();
    assert_eq!(uploads.len(), 9);
    let catalog = client.engine().catalog();
    for payload in &uploads {
        let sent: Table = serde_json::from_str(payload).unwrap();
        let stored = catalog.table(sent.name()).unwrap();
        let stored = stored.read();
        assert_eq!(sent.scan(), stored.scan(), "{}", sent.name());
        assert_eq!(serde_json::to_string(&sent).unwrap(), *payload);
    }

    // Each query twice: once end to end, whose result batch the proxy
    // decrypts again from the recorded payload, and once on a capturing
    // oracle whose typed traffic the recorded requests and responses decode
    // to.
    let mut kinds = Vec::new();
    for id in [1u8, 3, 6, 10, 18, 22] {
        let sql = sdb_workload::query_by_id(id).expect("template").sql;
        let rewritten = client.rewrite_only(sql).unwrap();
        let answer = client.run_rewritten(&rewritten).unwrap();
        let messages = capture.messages();
        let payload = &messages.last().unwrap().payload;
        assert_eq!(
            messages.last().unwrap().kind,
            WireMessageKind::ResultToProxy
        );
        let batch: RecordBatch = serde_json::from_str(payload).unwrap();
        assert_eq!(serde_json::to_string(&batch).unwrap(), *payload, "Q{id}");
        let (decrypted, _) = client.proxy().decrypt_result(&rewritten, &batch).unwrap();
        assert_eq!(decrypted, answer.batch, "Q{id}");

        let rewritten = client.rewrite_only(sql).unwrap();
        let oracle = Arc::new(CapturingOracle {
            inner: client.proxy().oracle(&rewritten),
            seen: Mutex::new(Vec::new()),
        });
        let log = WireLog::new();
        let log_capture = log.capture();
        let opts = QueryOptions::default()
            .with_oracle(Arc::new(RecordingOracle::new(oracle.clone(), log.clone())));
        client
            .engine()
            .execute_sql_with(&rewritten.server_sql, &opts)
            .unwrap_or_else(|e| panic!("Q{id}: {e}"));
        let seen = oracle.seen.lock().unwrap();
        let recorded = log_capture.messages();
        assert_eq!(recorded.len(), 2 * seen.len());
        for ((request, response), pair) in seen.iter().zip(recorded.chunks(2)) {
            kinds.push(request.kind);
            assert_eq!(pair[0].kind, WireMessageKind::OracleRequest);
            assert_eq!(pair[1].kind, WireMessageKind::OracleResponse);
            let sent: OracleRequest = serde_json::from_str(&pair[0].payload).unwrap();
            assert_eq!(&sent, request, "Q{id}");
            let answered: OracleResponse = serde_json::from_str(&pair[1].payload).unwrap();
            assert_eq!(&answered, response, "Q{id}");
        }
        for message in &recorded {
            client.wire().record(message.kind, message.payload.clone());
        }
    }
    assert!(kinds.len() >= 2, "the queries reach the oracle: {kinds:?}");

    // No share went out as decimal digits: the longest digit run on these
    // payloads is a date, a count or a tag, never a residue of n.
    for message in capture.messages() {
        if message.kind == WireMessageKind::QueryToSp {
            continue;
        }
        let run = longest_digit_run(&message.payload);
        assert!(run < 40, "{:?} holds {run} decimal digits", message.kind);
    }
}
