//! Framed request/response protocol.
//!
//! Layered directly on the wire boundary from `sdb`: each request and each
//! response is a JSON payload wrapped in a 4-byte big-endian length frame
//! ([`sdb::encode_frame`] / [`sdb::decode_frame`]), and every crossing is
//! recorded in the server's [`sdb::WireLog`] as
//! [`WireMessageKind::SessionRequest`] / [`WireMessageKind::SessionResponse`]
//! — so the adversarial audit inspects serving traffic exactly like query and
//! oracle traffic.

use serde::{Deserialize, Serialize};

use sdb::{decode_frame, encode_frame, WireMessageKind};

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
    /// errors (bad frame, bad JSON, unknown session) come back as framed
    /// [`Response::Error`] messages, never as a Rust error — a serving loop
    /// always has bytes to send back.
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        let response = match decode_frame(frame) {
            Err(detail) => Response::Error {
                message: ServerError::Protocol(detail).to_string(),
            },
            Ok((payload, _)) => {
                self.wire().record(
                    WireMessageKind::SessionRequest,
                    String::from_utf8_lossy(payload).into_owned(),
                );
                match serde_json::from_slice::<Request>(payload) {
                    Err(err) => Response::Error {
                        message: ServerError::Protocol(err.to_string()).to_string(),
                    },
                    Ok(request) => self.handle_request(request),
                }
            }
        };
        let json = serde_json::to_string(&response).unwrap_or_default();
        let frame = encode_frame(json.as_bytes());
        self.wire().record(WireMessageKind::SessionResponse, json);
        frame
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

    #[test]
    fn logged_response_is_the_framed_payload() {
        let server = SdbServer::new(ServerConfig::test_profile()).unwrap();
        let session = match unframe(&server.handle_frame(&frame(&Request::Connect))) {
            Response::Connected { session } => session,
            other => panic!("unexpected {other:?}"),
        };
        for input in [
            frame(&Request::Metrics),
            frame(&Request::Stats { session }),
            frame(&Request::Execute {
                session,
                sql: "SELECT * FROM missing".into(),
            }),
            b"\x00\x00".to_vec(),
            frame(&Request::Close { session }),
        ] {
            let output = server.handle_frame(&input);
            let (payload, consumed) = decode_frame(&output).unwrap();
            assert_eq!(consumed, output.len());
            let logged = server.wire().messages().pop().unwrap();
            assert_eq!(logged.kind, WireMessageKind::SessionResponse);
            assert_eq!(logged.payload.as_bytes(), payload);
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
        // Both directions were recorded on the wire.
        assert!(server.wire().count_of_kind(WireMessageKind::SessionRequest) >= 5);
        assert!(
            server
                .wire()
                .count_of_kind(WireMessageKind::SessionResponse)
                >= 6
        );
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
