//! Mutation tests for the framed protocol, the serving layer's untrusted
//! input: valid `Connect`, `Execute`, `Stats` and `Metrics` frames are
//! bit-flipped under fixed seeds, cut at every length and given rewritten
//! length prefixes, and two over-deep payloads join them (1 MiB of `[`, and
//! an `Execute` whose SQL nests 100 000 deep). Every case must come back as a
//! framed `Response` that decodes — `Response::Error` for input the server
//! cannot use — and never panic or abort. After each case the same server
//! still answers a valid query correctly, with no query in flight.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sdb::{decode_frame, encode_frame};
use sdb_server::{Request, Response, SdbServer, ServerConfig};

/// The query every case is followed by, and its one rendered row.
const CHECK_SQL: &str = "SELECT SUM(v) AS total FROM t";
const CHECK_ROW: &str = "12";

/// A deterministic stream of words.
struct Words(u64);

impl Words {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn server() -> SdbServer {
    let mut server = SdbServer::new(ServerConfig::test_profile()).expect("server");
    server
        .execute_ddl("CREATE TABLE t (id INT, v INT SENSITIVE)")
        .expect("create");
    server
        .execute_ddl("INSERT INTO t VALUES (1, 5), (2, 7)")
        .expect("insert");
    server.upload_all().expect("upload");
    server
}

fn frame(request: &Request) -> Vec<u8> {
    encode_frame(serde_json::to_string(request).unwrap().as_bytes())
}

/// Sends one frame: the server must not panic, and its answer must be one
/// whole frame holding a `Response`.
fn respond(server: &SdbServer, input: &[u8], what: &str) -> Response {
    let output = catch_unwind(AssertUnwindSafe(|| server.handle_frame(input)))
        .unwrap_or_else(|_| panic!("{what}: the server panicked"));
    let (payload, consumed) =
        decode_frame(&output).unwrap_or_else(|e| panic!("{what}: the answer is no frame: {e}"));
    assert_eq!(consumed, output.len(), "{what}: bytes after the answer");
    serde_json::from_slice(payload)
        .unwrap_or_else(|e| panic!("{what}: the answer is no response: {e}"))
}

/// The server still serves: a new session gets the right answer, and
/// nothing is left in flight.
fn assert_still_serves(server: &SdbServer, what: &str) {
    let session = match respond(server, &frame(&Request::Connect), what) {
        Response::Connected { session } => session,
        other => panic!("{what}: connect answered {other:?}"),
    };
    let execute = Request::Execute {
        session,
        sql: CHECK_SQL.into(),
    };
    match respond(server, &frame(&execute), what) {
        Response::Rows { rows, .. } => assert_eq!(rows, vec![vec![CHECK_ROW.to_string()]]),
        other => panic!("{what}: the check query answered {other:?}"),
    }
    respond(server, &frame(&Request::Close { session }), what);
    assert_eq!(server.metrics_snapshot().queries_in_flight, 0, "{what}");
    assert!(server.list_queries().is_empty(), "{what}");
}

/// A mutated frame gets an answer, and the server keeps serving.
fn survives(server: &SdbServer, input: &[u8], what: &str) {
    respond(server, input, what);
    assert_still_serves(server, what);
}

fn valid_frames(session: u64) -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("connect", frame(&Request::Connect)),
        (
            "execute",
            frame(&Request::Execute {
                session,
                sql: CHECK_SQL.into(),
            }),
        ),
        ("stats", frame(&Request::Stats { session })),
        ("metrics", frame(&Request::Metrics)),
    ]
}

#[test]
fn bit_flipped_frames_are_answered() {
    let server = server();
    let session = server.connect();
    for (seed, (name, valid)) in valid_frames(session).into_iter().enumerate() {
        let mut words = Words(0x9e37_79b9_7f4a_7c15 ^ seed as u64);
        for case in 0..48 {
            let mut mutated = valid.clone();
            for _ in 0..1 + case % 3 {
                let bit = (words.next() % (mutated.len() as u64 * 8)) as usize;
                mutated[bit / 8] ^= 1 << (bit % 8);
            }
            survives(&server, &mutated, &format!("{name}, flip case {case}"));
        }
    }
}

#[test]
fn truncated_frames_are_errors() {
    let server = server();
    let session = server.connect();
    for (name, valid) in valid_frames(session) {
        for len in 0..valid.len() {
            let what = format!("{name} cut to {len} bytes");
            match respond(&server, &valid[..len], &what) {
                Response::Error { .. } => {}
                other => panic!("{what}: answered {other:?}"),
            }
            assert_still_serves(&server, &what);
        }
    }
}

#[test]
fn rewritten_length_prefixes_are_answered() {
    let server = server();
    let session = server.connect();
    for (name, valid) in valid_frames(session) {
        let body = valid.len() as u32 - 4;
        for claimed in [0, 1, body - 1, body + 1, body * 2, u32::MAX / 2, u32::MAX] {
            let mut mutated = valid.clone();
            mutated[..4].copy_from_slice(&claimed.to_be_bytes());
            survives(
                &server,
                &mutated,
                &format!("{name} claiming {claimed} bytes"),
            );
        }
    }
}

#[test]
fn over_deep_payloads_are_errors() {
    let server = server();
    let session = server.connect();
    let deep_sql = format!(
        "SELECT {}1{} FROM t",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    let cases = [
        ("1 MiB of `[`", encode_frame(&vec![b'['; 1 << 20])),
        (
            "SQL nested 100 000 deep",
            frame(&Request::Execute {
                session,
                sql: deep_sql,
            }),
        ),
    ];
    for (what, input) in cases {
        match respond(&server, &input, what) {
            Response::Error { message } => assert!(message.contains("deeper than"), "{message}"),
            other => panic!("{what}: answered {other:?}"),
        }
        // The DO ↔ SP log holds what crossed to the SP (the check queries),
        // never the application's frame.
        assert!(server.wire().total_bytes() < 1 << 20, "{what}");
        assert_still_serves(&server, what);
    }
}
