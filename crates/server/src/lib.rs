//! # sdb-server
//!
//! The serving layer of the SDB reproduction: a session manager that
//! multiplexes many concurrent queries over **one** shared catalog, **one**
//! global buffer pool and **one** memory budget — the deployment shape the
//! paper assumes when the SP serves many analysts at once.
//!
//! Three mechanisms make that safe:
//!
//! * **Budget admission** ([`AdmissionController`]) — each query plans under
//!   a share of the global budget; when every slot is taken, submissions
//!   either queue in strict FIFO order or run immediately on a degraded
//!   share (its blocking operators then overflow to the pager sooner).
//! * **Cooperative cancellation** ([`CancelToken`]) — polled in scan loops,
//!   oracle round trips, pager operations and admission waits; a cancelled
//!   query's buffer-pool lease and spill file are reclaimed on the way out.
//! * **Pager leases** — every query executes against its own lease on the
//!   shared [`BufferPool`], so per-query spill files, statistics and frames
//!   are attributed and cleaned up per query while residency is bounded
//!   globally.
//!
//! The server also observes itself as a system: a lock-free
//! [`MetricsRegistry`] accumulates counters, gauges and latency histograms
//! across queries, admission and the shared pool
//! ([`SdbServer::metrics_snapshot`], Prometheus exposition via
//! [`MetricsSnapshot::render_prometheus`]); [`SdbServer::list_queries`]
//! introspects in-flight queries (cancellable by id through
//! [`SdbServer::cancel_query`]); and queries meeting the `SDB_SLOW_QUERY_MS`
//! threshold land in a ring-buffer slow-query log
//! ([`SdbServer::slow_queries`]).
//!
//! Quickstart (runs under `cargo test` as a doc-test):
//!
//! ```
//! use sdb_server::{SdbServer, ServerConfig};
//!
//! let mut server = SdbServer::new(ServerConfig::test_profile())?;
//! server.execute_ddl("CREATE TABLE orders (id INT, amount INT SENSITIVE)")?;
//! server.execute_ddl("INSERT INTO orders VALUES (1, 100), (2, 250), (3, 75)")?;
//! server.upload_all()?;
//!
//! // Sessions are ids; `execute` takes `&self`, so many threads can serve
//! // queries against the same server at once.
//! let session = server.connect();
//! let result = server.execute(session, "SELECT SUM(amount) AS total FROM orders")?;
//! assert_eq!(result.rows()[0][0].render(), "425");
//!
//! let stats = server.session_stats(session)?;
//! assert_eq!(stats.queries, 1);
//! server.close(session)?;
//! # Ok::<(), sdb_server::ServerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod error;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use admission::{AdmissionController, AdmissionGrant, AdmissionMode};
pub use error::{Result, ServerError};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramBucket, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, QueryInfo, QueryOutcome, QueryState, SlowQueryLog, SlowQueryRecord,
};
pub use protocol::{Request, Response};
pub use sdb_storage::{BufferPool, CancelToken, MemoryBudget};
pub use server::{SdbServer, ServerConfig, SessionStats};
