//! Framed request/response protocol.
//!
//! Each request and each response is a JSON payload wrapped in a 4-byte
//! big-endian length frame ([`sdb::encode_frame`] / [`sdb::decode_frame`]).
//! These frames run between the application and the DO-side server: they
//! carry plaintext SQL and decrypted rows by design, so they stay out of the
//! server's [`sdb::WireLog`], which holds the DO ↔ SP traffic a network or SP
//! attacker would see (the rewritten statements, encrypted results and
//! oracle exchanges a framed `Execute` causes).

use serde::{Deserialize, Serialize};

use sdb::{decode_frame, encode_frame};

use crate::error::ServerError;
use crate::metrics::{MetricsSnapshot, QueryInfo, SlowQueryRecord};
use crate::server::{SdbServer, SessionStats};

/// A client-to-server request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Open a session.
    Connect,
    /// Run one SQL query on a session.
    Execute {
        /// Target session id.
        session: u64,
        /// The SQL text.
        sql: String,
    },
    /// Cancel the session's in-flight query.
    Cancel {
        /// Target session id.
        session: u64,
    },
    /// Fetch cumulative session statistics.
    Stats {
        /// Target session id.
        session: u64,
    },
    /// Fetch cumulative session statistics (explicit alias of
    /// [`Request::Stats`]; both return [`Response::Stats`]).
    SessionStats {
        /// Target session id.
        session: u64,
    },
    /// Fetch a point-in-time snapshot of every server-wide metric.
    Metrics,
    /// List every in-flight query (queued or running) with its session,
    /// SQL, elapsed time, admission state and cancellation id.
    ListQueries,
    /// Cancel one in-flight query by the id [`Request::ListQueries`]
    /// reported.
    CancelQuery {
        /// Target query id.
        query: u64,
    },
    /// Fetch the captured slow queries, oldest first.
    SlowQueries,
    /// Close a session.
    Close {
        /// Target session id.
        session: u64,
    },
}

/// A server-to-client response.
// The metrics snapshot dominates the enum size, but a response is built
// once per frame and immediately serialised — boxing it would only buy
// an allocation on that cold path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Session opened.
    Connected {
        /// The new session id.
        session: u64,
    },
    /// Query results, decrypted and rendered.
    Rows {
        /// Result column names.
        columns: Vec<String>,
        /// Result rows, one rendered string per value.
        rows: Vec<Vec<String>>,
    },
    /// Cancellation delivered to the session's current token.
    Cancelled {
        /// The session whose query was cancelled.
        session: u64,
    },
    /// Cumulative session statistics.
    Stats {
        /// The statistics snapshot.
        stats: SessionStats,
    },
    /// Server-wide metrics.
    Metrics {
        /// The registry snapshot.
        snapshot: MetricsSnapshot,
    },
    /// In-flight queries.
    Queries {
        /// One entry per queued or running query, in submission order.
        queries: Vec<QueryInfo>,
    },
    /// Cancellation delivered to one in-flight query's token.
    QueryCancelled {
        /// The cancelled query id.
        query: u64,
    },
    /// Captured slow queries.
    SlowQueries {
        /// The retained records, oldest first.
        queries: Vec<SlowQueryRecord>,
    },
    /// Session closed.
    Closed {
        /// The closed session id.
        session: u64,
    },
    /// The request failed.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl SdbServer {
    /// Handles one framed request and returns the framed response. Protocol
    /// errors (bad frame, bytes after the frame, bad JSON, unknown session)
    /// come back as framed [`Response::Error`] messages, never as a Rust
    /// error — a serving loop always has bytes to send back.
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        let request =
            decode_frame(frame).and_then(|(payload, consumed)| match frame.len() - consumed {
                0 => serde_json::from_slice::<Request>(payload).map_err(|err| err.to_string()),
                trailing => Err(format!("{trailing} bytes after the frame")),
            });
        let response = match request {
            Ok(request) => self.handle_request(request),
            Err(detail) => Response::Error {
                message: ServerError::Protocol(detail).to_string(),
            },
        };
        encode_frame(&serde_json::to_vec(&response).unwrap_or_default())
    }

    /// Executes one decoded request.
    fn handle_request(&self, request: Request) -> Response {
        match request {
            Request::Connect => Response::Connected {
                session: self.connect(),
            },
            Request::Execute { session, sql } => match self.execute(session, &sql) {
                Ok(result) => Response::Rows {
                    columns: result.column_names(),
                    rows: result
                        .rows()
                        .iter()
                        .map(|row| row.iter().map(|value| value.render()).collect())
                        .collect(),
                },
                Err(err) => Response::Error {
                    message: err.to_string(),
                },
            },
            Request::Cancel { session } => match self.cancel(session) {
                Ok(()) => Response::Cancelled { session },
                Err(err) => Response::Error {
                    message: err.to_string(),
                },
            },
            Request::Stats { session } | Request::SessionStats { session } => {
                match self.session_stats(session) {
                    Ok(stats) => Response::Stats { stats },
                    Err(err) => Response::Error {
                        message: err.to_string(),
                    },
                }
            }
            Request::Metrics => Response::Metrics {
                snapshot: self.metrics_snapshot(),
            },
            Request::ListQueries => Response::Queries {
                queries: self.list_queries(),
            },
            Request::CancelQuery { query } => match self.cancel_query(query) {
                Ok(()) => Response::QueryCancelled { query },
                Err(err) => Response::Error {
                    message: err.to_string(),
                },
            },
            Request::SlowQueries => Response::SlowQueries {
                queries: self.slow_queries(),
            },
            Request::Close { session } => match self.close(session) {
                Ok(()) => Response::Closed { session },
                Err(err) => Response::Error {
                    message: err.to_string(),
                },
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;

    fn frame(request: &Request) -> Vec<u8> {
        encode_frame(serde_json::to_string(request).unwrap().as_bytes())
    }

    fn unframe(bytes: &[u8]) -> Response {
        let (payload, _) = decode_frame(bytes).unwrap();
        serde_json::from_slice(payload).unwrap()
    }

    #[test]
    fn requests_round_trip_through_serde() {
        let request = Request::Execute {
            session: 7,
            sql: "SELECT 1".into(),
        };
        let json = serde_json::to_string(&request).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);
    }

    /// Application frames carry plaintext SQL and decrypted rows by design;
    /// none of them enters the DO ↔ SP log, whatever the frame holds.
    #[test]
    fn session_frames_stay_off_the_wire_log() {
        let server = SdbServer::new(ServerConfig::test_profile()).unwrap();
        let capture = server.wire().capture();
        let session = match unframe(&server.handle_frame(&frame(&Request::Connect))) {
            Response::Connected { session } => session,
            other => panic!("unexpected {other:?}"),
        };
        for input in [
            frame(&Request::Metrics),
            frame(&Request::Stats { session }),
            b"\x00\x00".to_vec(),
            encode_frame(b"not json"),
            frame(&Request::Close { session }),
        ] {
            let output = server.handle_frame(&input);
            let (_, consumed) = decode_frame(&output).unwrap();
            assert_eq!(consumed, output.len());
            assert!(capture.messages().is_empty());
            assert_eq!(server.wire().total_bytes(), 0);
        }
    }

    #[test]
    fn framed_session_lifecycle() {
        let mut server = SdbServer::new(ServerConfig::test_profile()).unwrap();
        server
            .execute_ddl("CREATE TABLE t (id INT, v INT SENSITIVE)")
            .unwrap();
        server
            .execute_ddl("INSERT INTO t VALUES (1, 5), (2, 7)")
            .unwrap();
        server.upload_all().unwrap();
        let capture = server.wire().capture();

        let session = match unframe(&server.handle_frame(&frame(&Request::Connect))) {
            Response::Connected { session } => session,
            other => panic!("unexpected {other:?}"),
        };
        let response = unframe(&server.handle_frame(&frame(&Request::Execute {
            session,
            sql: "SELECT SUM(v) AS total FROM t".into(),
        })));
        match response {
            Response::Rows { columns, rows } => {
                assert_eq!(columns, vec!["total".to_string()]);
                assert_eq!(rows, vec![vec!["12".to_string()]]);
            }
            other => panic!("unexpected {other:?}"),
        }
        let response = unframe(&server.handle_frame(&frame(&Request::Stats { session })));
        match response {
            Response::Stats { stats } => assert_eq!(stats.queries, 1),
            other => panic!("unexpected {other:?}"),
        }
        match unframe(&server.handle_frame(&frame(&Request::Close { session }))) {
            Response::Closed { session: closed } => assert_eq!(closed, session),
            other => panic!("unexpected {other:?}"),
        }
        // Unknown sessions and garbage frames come back as framed errors.
        match unframe(&server.handle_frame(&frame(&Request::Stats { session }))) {
            Response::Error { message } => assert!(message.contains("unknown session")),
            other => panic!("unexpected {other:?}"),
        }
        match unframe(&server.handle_frame(b"\x00\x00")) {
            Response::Error { message } => assert!(message.contains("protocol error")),
            other => panic!("unexpected {other:?}"),
        }
        match unframe(&server.handle_frame(&encode_frame(b"not json"))) {
            Response::Error { message } => assert!(message.contains("protocol error")),
            other => panic!("unexpected {other:?}"),
        }
        // The query crossed the DO ↔ SP boundary rewritten and came back
        // encrypted; neither the framed request nor its rendered rows did.
        let wire = server.wire();
        assert!(wire.count_of_kind(sdb::WireMessageKind::QueryToSp) >= 1);
        assert!(wire.count_of_kind(sdb::WireMessageKind::ResultToProxy) >= 1);
        for message in capture.messages() {
            assert!(!message.payload.contains("\"Execute\""), "{message:?}");
            assert!(!message.payload.contains("\"Rows\""), "{message:?}");
        }
    }

    /// A frame followed by more bytes is refused, not answered for its
    /// first request with the rest dropped unseen.
    #[test]
    fn bytes_after_a_frame_are_a_protocol_error() {
        let server = SdbServer::new(ServerConfig::test_profile()).unwrap();
        let before = server.connect();
        let mut input = frame(&Request::Connect);
        input.extend(frame(&Request::Connect));
        let trailing = input.len() / 2;
        match unframe(&server.handle_frame(&input)) {
            Response::Error { message } => {
                assert!(message.contains("protocol error"), "{message}");
                assert!(message.contains(&format!("{trailing} bytes")), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Neither request of the refused input opened a session.
        assert_eq!(server.connect(), before + 1);
    }

    #[test]
    fn observability_frames_round_trip() {
        let mut server = SdbServer::new(ServerConfig::test_profile()).unwrap();
        server
            .execute_ddl("CREATE TABLE t (id INT, v INT SENSITIVE)")
            .unwrap();
        server
            .execute_ddl("INSERT INTO t VALUES (1, 5), (2, 7)")
            .unwrap();
        server.upload_all().unwrap();

        let session = match unframe(&server.handle_frame(&frame(&Request::Connect))) {
            Response::Connected { session } => session,
            other => panic!("unexpected {other:?}"),
        };
        let response = unframe(&server.handle_frame(&frame(&Request::Execute {
            session,
            sql: "SELECT SUM(v) AS total FROM t".into(),
        })));
        assert!(matches!(response, Response::Rows { .. }));

        // `SessionStats` is the explicit alias of `Stats`.
        let response = unframe(&server.handle_frame(&frame(&Request::SessionStats { session })));
        match response {
            Response::Stats { stats } => assert_eq!(stats.queries, 1),
            other => panic!("unexpected {other:?}"),
        }

        // The metrics frame reflects the executed query.
        let response = unframe(&server.handle_frame(&frame(&Request::Metrics)));
        match response {
            Response::Metrics { snapshot } => {
                assert_eq!(snapshot.queries_executed, 1);
                assert_eq!(snapshot.query_latency.count, 1);
                assert_eq!(snapshot.queries_in_flight, 0);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Nothing is in flight between requests.
        let response = unframe(&server.handle_frame(&frame(&Request::ListQueries)));
        match response {
            Response::Queries { queries } => assert!(queries.is_empty()),
            other => panic!("unexpected {other:?}"),
        }

        // The slow log decodes regardless of whether capture is on (the CI
        // leg runs this suite with SDB_SLOW_QUERY_MS=0, capturing
        // everything).
        let response = unframe(&server.handle_frame(&frame(&Request::SlowQueries)));
        match response {
            Response::SlowQueries { queries } => {
                if server.slow_query_threshold().is_some() {
                    assert_eq!(queries.len(), 1);
                    assert_eq!(queries[0].session, session);
                } else {
                    assert!(queries.is_empty());
                }
            }
            other => panic!("unexpected {other:?}"),
        }

        // Cancelling a finished (unknown) query is a framed error.
        let response = unframe(&server.handle_frame(&frame(&Request::CancelQuery { query: 999 })));
        match response {
            Response::Error { message } => assert!(message.contains("unknown query")),
            other => panic!("unexpected {other:?}"),
        }
    }
}
