//! The session manager: many concurrent queries over one engine.
//!
//! One [`SdbServer`] owns a single [`sdb::SdbClient`] (proxy + SP engine +
//! wire counts), one global [`BufferPool`] sized by the server's memory budget,
//! and one [`AdmissionController`]. Each connected session runs queries
//! through [`SdbServer::execute`], which:
//!
//! 1. registers the query's [`CancelToken`] so [`SdbServer::cancel`] works,
//! 2. waits for (or degrades under) budget admission,
//! 3. takes a fresh [`Pager`] lease on the shared pool, and
//! 4. executes through the client with per-query [`QueryOptions`] — so the
//!    plan sees this query's budget share while the pages live in the global
//!    pool.
//!
//! Dropping the lease (normal completion, error or cancellation alike)
//! releases the query's frames and deletes its spill file; dropping the
//! admission grant frees the slot for the next queued submission.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use sdb::{QueryResult, SdbClient, SdbConfig, SdbError, WireLog};
use sdb_engine::{ExecConfig, QueryOptions};
use sdb_storage::{BufferPool, CancelToken, MemoryBudget, Pager};

use crate::admission::{AdmissionController, AdmissionMode};
use crate::error::{Result, ServerError};
use crate::metrics::{
    MetricsRegistry, MetricsSnapshot, QueryInfo, QueryOutcome, QueryState, SlowQueryLog,
    SlowQueryRecord,
};

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Key material / profile for the embedded client.
    pub client: SdbConfig,
    /// Global memory budget shared by every concurrent query.
    pub global_budget: MemoryBudget,
    /// Admission slots (concurrent queries at full budget share).
    pub max_concurrent: usize,
    /// What a pool-hot submission does: queue FIFO or run degraded.
    pub admission: AdmissionMode,
    /// Workers per query (`None` inherits the engine default).
    pub parallelism: Option<usize>,
    /// Per-operator tracing per query (`None` inherits the engine default,
    /// which honours `SDB_TRACE`).
    pub tracing: Option<bool>,
    /// Slow-query capture threshold in milliseconds: queries at least this
    /// slow land in the ring-buffer slow-query log, `0` captures every
    /// query. `None` inherits `SDB_SLOW_QUERY_MS` (capture off when that is
    /// unset too).
    pub slow_query_ms: Option<u64>,
}

impl ServerConfig {
    /// Small-parameter profile for tests: the client's test key profile and
    /// the process default budget ([`ExecConfig::memory_budget`]: the
    /// `SDB_TEST_MEM_BUDGET` bytes, unlimited when unset).
    pub fn test_profile() -> Self {
        ServerConfig {
            client: SdbConfig::test_profile(),
            global_budget: ExecConfig::default().memory_budget,
            max_concurrent: 4,
            admission: AdmissionMode::Queue,
            parallelism: None,
            tracing: None,
            slow_query_ms: None,
        }
    }

    /// Sets the global memory budget.
    pub fn with_global_budget(mut self, budget: MemoryBudget) -> Self {
        self.global_budget = budget;
        self
    }

    /// Sets the number of admission slots.
    pub fn with_max_concurrent(mut self, slots: usize) -> Self {
        self.max_concurrent = slots;
        self
    }

    /// Sets the pool-hot policy.
    pub fn with_admission_mode(mut self, mode: AdmissionMode) -> Self {
        self.admission = mode;
        self
    }

    /// Sets the per-query worker count.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Forces per-query tracing on or off.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = Some(tracing);
        self
    }

    /// The metrics registry is always on: `metrics` must be `true`. Kept
    /// only for callers written when the registry could be turned off.
    pub fn with_metrics(self, metrics: bool) -> Self {
        assert!(metrics, "the metrics registry cannot be turned off");
        self
    }

    /// Sets the slow-query capture threshold (milliseconds; `0` captures
    /// every query), overriding `SDB_SLOW_QUERY_MS`.
    pub fn with_slow_query_ms(mut self, threshold_ms: u64) -> Self {
        self.slow_query_ms = Some(threshold_ms);
        self
    }
}

/// Cumulative per-session statistics, updated after every query.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Queries submitted (successful or not).
    pub queries: usize,
    /// Result rows returned across successful queries.
    pub rows_returned: usize,
    /// Pages this session's queries spilled from their pool leases.
    pub pages_spilled: usize,
    /// Oracle round trips across successful queries.
    pub oracle_round_trips: usize,
    /// Submissions that waited in the admission queue.
    pub queued_admissions: usize,
    /// Submissions that ran on a degraded (spilling) budget share.
    pub degraded_admissions: usize,
    /// Queries that ended because their cancel token fired.
    pub cancelled_queries: usize,
    /// Queries that failed for any other reason.
    pub failed_queries: usize,
    /// Successful queries whose rewrite the DO replayed from a cached
    /// statement shape.
    pub do_shape_hits: usize,
}

impl SessionStats {
    /// Adds a per-query delta into the cumulative stats. The execute path
    /// builds exactly one delta per query and applies it both here and to
    /// the server's [`MetricsRegistry`], so per-session and global counters
    /// can never drift.
    pub fn merge(&mut self, delta: &SessionStats) {
        self.queries += delta.queries;
        self.rows_returned += delta.rows_returned;
        self.pages_spilled += delta.pages_spilled;
        self.oracle_round_trips += delta.oracle_round_trips;
        self.queued_admissions += delta.queued_admissions;
        self.degraded_admissions += delta.degraded_admissions;
        self.cancelled_queries += delta.cancelled_queries;
        self.failed_queries += delta.failed_queries;
        self.do_shape_hits += delta.do_shape_hits;
    }
}

/// Per-session serving state.
#[derive(Debug, Default)]
struct SessionState {
    /// Cancel token of the in-flight (or most recent) query.
    cancel: Mutex<CancelToken>,
    stats: Mutex<SessionStats>,
}

/// One in-flight query, tracked from submission to completion for live
/// introspection ([`SdbServer::list_queries`]) and by-id cancellation
/// ([`SdbServer::cancel_query`]).
#[derive(Debug)]
struct InFlight {
    session: u64,
    sql: String,
    started: Instant,
    state: Mutex<QueryState>,
    cancel: CancelToken,
}

/// Unregisters an in-flight query on every exit path (success, error,
/// cancellation, panic) of [`SdbServer::execute_with_token`].
struct InFlightGuard<'a> {
    server: &'a SdbServer,
    query: u64,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.server.queries.lock().remove(&self.query);
    }
}

/// A multi-session query server over one shared engine.
///
/// Setup (DDL, inserts, upload) happens single-threaded through
/// [`SdbServer::execute_ddl`] / [`SdbServer::upload_all`]; serving happens
/// through shared references, so tests and callers can run
/// [`SdbServer::execute`] from many threads at once.
pub struct SdbServer {
    client: SdbClient,
    pool: Arc<BufferPool>,
    admission: AdmissionController,
    sessions: Mutex<HashMap<u64, Arc<SessionState>>>,
    next_session: AtomicU64,
    /// What every query runs with before its grant's budget, lease and
    /// cancel token are added: the configured worker count and tracing.
    options: QueryOptions,
    metrics: Arc<MetricsRegistry>,
    queries: Mutex<HashMap<u64, Arc<InFlight>>>,
    next_query: AtomicU64,
    slow_log: SlowQueryLog,
    slow_threshold: Option<Duration>,
}

impl SdbServer {
    /// Builds a server: embedded client, shared buffer pool sized by the
    /// global budget, and admission controller. Fails with
    /// [`sdb_engine::EngineError::InvalidConfig`] on a zero worker count.
    pub fn new(config: ServerConfig) -> Result<Self> {
        let client = SdbClient::new(config.client)?;
        let options = QueryOptions {
            parallelism: config.parallelism,
            tracing: config.tracing,
            ..QueryOptions::default()
        };
        (options.apply(client.engine().config())).map_err(SdbError::Engine)?;
        let pool = Arc::new(BufferPool::new(&config.global_budget));
        let admission = AdmissionController::new(
            config.max_concurrent,
            config.admission,
            config.global_budget,
        );
        // Read once, when the server starts.
        #[allow(clippy::disallowed_methods)]
        let slow_threshold = config
            .slow_query_ms
            .or_else(|| std::env::var("SDB_SLOW_QUERY_MS").ok()?.trim().parse().ok())
            .map(Duration::from_millis);
        Ok(SdbServer {
            client,
            pool,
            admission,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            options,
            metrics: Arc::new(MetricsRegistry::default()),
            queries: Mutex::new(HashMap::new()),
            next_query: AtomicU64::new(1),
            slow_log: SlowQueryLog::default(),
            slow_threshold,
        })
    }

    /// Runs a setup statement (`CREATE TABLE … SENSITIVE`, `INSERT`) on the
    /// data-owner side.
    pub fn execute_ddl(&mut self, sql: &str) -> Result<()> {
        Ok(self.client.execute(sql)?)
    }

    /// Stages an already-built plaintext table on the data-owner side (bulk
    /// loading path used by tests and benches).
    pub fn stage_table(&mut self, table: sdb_storage::Table) -> Result<()> {
        Ok(self.client.stage_table(table)?)
    }

    /// Encrypts and uploads every staged table to the SP.
    pub fn upload_all(&mut self) -> Result<()> {
        Ok(self.client.upload_all()?)
    }

    /// Opens a session and returns its id.
    pub fn connect(&self) -> u64 {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.sessions
            .lock()
            .insert(id, Arc::new(SessionState::default()));
        id
    }

    /// Closes a session. In-flight queries finish; later requests on the id
    /// fail with [`ServerError::UnknownSession`].
    pub fn close(&self, session: u64) -> Result<()> {
        self.sessions
            .lock()
            .remove(&session)
            .map(|_| ())
            .ok_or(ServerError::UnknownSession(session))
    }

    /// Runs one query on a session with a fresh cancel token.
    pub fn execute(&self, session: u64, sql: &str) -> Result<QueryResult> {
        self.execute_with_token(session, sql, CancelToken::new())
    }

    /// Runs one query on a session under a caller-supplied cancel token —
    /// the deterministic-test entry point
    /// ([`CancelToken::cancel_after_checks`] trips the token at an exact
    /// poll count, independent of thread timing).
    pub fn execute_with_token(
        &self,
        session: u64,
        sql: &str,
        cancel: CancelToken,
    ) -> Result<QueryResult> {
        let state = self.session(session)?;
        *state.cancel.lock() = cancel.clone();

        let query_id = self.next_query.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let inflight = Arc::new(InFlight {
            session,
            sql: sql.to_string(),
            started,
            state: Mutex::new(QueryState::Queued),
            cancel: cancel.clone(),
        });
        self.queries.lock().insert(query_id, Arc::clone(&inflight));
        // Declared before the grant and the lease, so the query stays
        // listed until both are released.
        let _inflight = InFlightGuard {
            server: self,
            query: query_id,
        };

        let grant = match self.admission.admit(&cancel) {
            Ok(grant) => grant,
            Err(err) => {
                let delta = SessionStats {
                    queries: 1,
                    cancelled_queries: 1,
                    ..SessionStats::default()
                };
                state.stats.lock().merge(&delta);
                self.metrics.record_admission_cancelled();
                self.metrics.fold_query(&delta, started.elapsed(), None);
                self.maybe_record_slow(
                    query_id,
                    session,
                    sql,
                    started.elapsed(),
                    QueryOutcome::Cancelled,
                    None,
                );
                return Err(err);
            }
        };
        self.metrics.record_admission_wait(grant.wait());
        *inflight.state.lock() = if grant.degraded() {
            QueryState::Degraded
        } else {
            QueryState::Running
        };

        let pager = Arc::new(Pager::shared(&self.pool));
        // Composes with the tracing observer the engine installs on the
        // same lease (`Pager::add_observer` fans out to both).
        let metrics = Arc::clone(&self.metrics);
        pager.add_observer(Arc::new(move |event| metrics.observe_pager_event(event)));
        let opts = (self.options.clone())
            .with_memory_budget(grant.budget().clone())
            .with_cancel_token(cancel.clone())
            .with_pager(Arc::clone(&pager));

        let result = self.client.query_with(sql, &opts);
        let pager_stats = pager.stats();
        let elapsed = started.elapsed();

        // One delta per query, applied to the session and folded into the
        // registry — the two can never drift.
        let mut delta = SessionStats {
            queries: 1,
            pages_spilled: pager_stats.pages_spilled,
            ..SessionStats::default()
        };
        if grant.queued() {
            delta.queued_admissions = 1;
        }
        if grant.degraded() {
            delta.degraded_admissions = 1;
        }
        match &result {
            Ok(result) => {
                delta.rows_returned = result.rows().len();
                delta.oracle_round_trips = result.server_stats.oracle_round_trips;
                delta.do_shape_hits = result.do_shape_hits;
            }
            Err(_) if cancel.is_cancelled() => delta.cancelled_queries = 1,
            Err(_) => delta.failed_queries = 1,
        }
        state.stats.lock().merge(&delta);
        self.metrics.fold_query(
            &delta,
            elapsed,
            result.as_ref().ok().map(|r| &r.server_stats),
        );
        let outcome = match &result {
            Ok(_) => QueryOutcome::Completed,
            Err(_) if cancel.is_cancelled() => QueryOutcome::Cancelled,
            Err(_) => QueryOutcome::Failed,
        };
        self.maybe_record_slow(
            query_id,
            session,
            sql,
            elapsed,
            outcome,
            result.as_ref().ok(),
        );

        // Order matters for cleanup: the lease goes first (frees this
        // query's frames and deletes its spill file), then the grant frees
        // the admission slot.
        drop(pager);
        drop(grant);

        match result {
            Ok(result) => Ok(result),
            Err(_) if cancel.is_cancelled() => Err(ServerError::Cancelled),
            Err(err) => Err(ServerError::Client(err)),
        }
    }

    /// Cancels the session's in-flight query (cooperative: the query stops
    /// at its next poll point — scan batch, oracle round trip, pager
    /// operation or admission wait).
    pub fn cancel(&self, session: u64) -> Result<()> {
        let state = self.session(session)?;
        let token = state.cancel.lock().clone();
        token.cancel();
        Ok(())
    }

    /// Cancels one in-flight query by the id [`SdbServer::list_queries`]
    /// reports — cooperative, like [`SdbServer::cancel`], but scoped to a
    /// single query instead of whatever the session ran last.
    pub fn cancel_query(&self, query: u64) -> Result<()> {
        let token = self
            .queries
            .lock()
            .get(&query)
            .map(|q| q.cancel.clone())
            .ok_or(ServerError::UnknownQuery(query))?;
        token.cancel();
        Ok(())
    }

    /// Cumulative statistics for a session.
    pub fn session_stats(&self, session: u64) -> Result<SessionStats> {
        Ok(self.session(session)?.stats.lock().clone())
    }

    /// Every in-flight query (queued or running), ordered by query id —
    /// submission order, since ids are handed out at submission.
    pub fn list_queries(&self) -> Vec<QueryInfo> {
        let mut queries: Vec<QueryInfo> = self
            .queries
            .lock()
            .iter()
            .map(|(&id, q)| QueryInfo {
                query: id,
                session: q.session,
                sql: q.sql.clone(),
                elapsed_us: q.started.elapsed().as_micros().min(u64::MAX as u128) as u64,
                state: *q.state.lock(),
            })
            .collect();
        queries.sort_by_key(|info| info.query);
        queries
    }

    /// The server-wide metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A point-in-time view of every server metric. Counters and histograms
    /// accumulate on the hot path; the instantaneous gauges (running /
    /// in-flight queries, queue depth, pool residency) are refreshed here,
    /// at snapshot time.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics
            .queries_running
            .set(self.admission.running() as u64);
        self.metrics
            .queries_in_flight
            .set(self.queries.lock().len() as u64);
        self.metrics
            .admission_queue_depth
            .set(self.admission.waiting() as u64);
        self.metrics
            .pool_resident_bytes
            .set(self.pool.resident_bytes() as u64);
        self.metrics
            .pool_pinned_bytes
            .set(self.pool.pinned_bytes() as u64);
        self.metrics
            .pool_capacity_bytes
            .set(self.pool.capacity().unwrap_or(0) as u64);
        self.metrics
            .power_memo_bytes
            .set(self.client.engine().power_memo().bytes() as u64);
        let client = &self.client;
        self.metrics.statement_shape_bytes.set(
            (client.proxy().statement_shape_bytes() + client.engine().statement_shape_bytes())
                as u64,
        );
        self.metrics.snapshot()
    }

    /// The captured slow queries, oldest first (empty unless a threshold
    /// is configured via [`ServerConfig::with_slow_query_ms`] or
    /// `SDB_SLOW_QUERY_MS`).
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        self.slow_log.snapshot()
    }

    /// The slow-query threshold in effect, if capture is on.
    pub fn slow_query_threshold(&self) -> Option<Duration> {
        self.slow_threshold
    }

    /// Records the query in the slow log when capture is on and the query
    /// met the threshold.
    fn maybe_record_slow(
        &self,
        query: u64,
        session: u64,
        sql: &str,
        elapsed: Duration,
        outcome: QueryOutcome,
        result: Option<&QueryResult>,
    ) {
        let Some(threshold) = self.slow_threshold else {
            return;
        };
        if elapsed < threshold {
            return;
        }
        self.metrics.record_slow_query();
        self.slow_log.record(SlowQueryRecord {
            query,
            session,
            sql: sql.to_string(),
            elapsed_us: elapsed.as_micros().min(u64::MAX as u128) as u64,
            outcome,
            stats: result.map(|r| r.server_stats.clone()).unwrap_or_default(),
            trace: result.and_then(|r| r.trace.clone()),
        });
    }

    /// The shared buffer pool (tests assert on residency and spill files).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The admission controller (tests assert FIFO order and counters).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The wire log counting every DO ↔ SP crossing (rewritten statements,
    /// encrypted results, oracle traffic, uploads); session frames stay off
    /// it. It keeps counts, not payloads: see [`WireLog::capture`].
    pub fn wire(&self) -> &WireLog {
        self.client.wire()
    }

    /// The embedded end-to-end client.
    pub fn client(&self) -> &SdbClient {
        &self.client
    }

    /// Open session count.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().len()
    }

    fn session(&self, id: u64) -> Result<Arc<SessionState>> {
        self.sessions
            .lock()
            .get(&id)
            .cloned()
            .ok_or(ServerError::UnknownSession(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_server() -> SdbServer {
        let mut server = SdbServer::new(ServerConfig::test_profile()).unwrap();
        server
            .execute_ddl("CREATE TABLE t (id INT, v INT SENSITIVE)")
            .unwrap();
        server
            .execute_ddl("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
            .unwrap();
        server.upload_all().unwrap();
        server
    }

    #[test]
    fn server_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SdbServer>();
    }

    #[test]
    fn sessions_run_queries_and_track_stats() {
        let server = tiny_server();
        let session = server.connect();
        let result = server
            .execute(session, "SELECT SUM(v) AS total FROM t")
            .unwrap();
        assert_eq!(result.rows()[0][0].render(), "60");
        let stats = server.session_stats(session).unwrap();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.rows_returned, 1);
        assert_eq!(stats.cancelled_queries, 0);
        server.close(session).unwrap();
        assert!(matches!(
            server.execute(session, "SELECT v FROM t"),
            Err(ServerError::UnknownSession(_))
        ));
    }

    #[test]
    fn cancelled_query_leaves_session_usable() {
        let server = tiny_server();
        let session = server.connect();
        let cancel = CancelToken::cancel_after_checks(1);
        let err = server
            .execute_with_token(session, "SELECT v FROM t WHERE v > 5", cancel)
            .unwrap_err();
        assert!(matches!(err, ServerError::Cancelled));
        assert_eq!(server.pool().resident_pages(), 0);
        assert_eq!(server.pool().spill_file_count(), 0);
        let result = server
            .execute(session, "SELECT SUM(v) AS total FROM t")
            .unwrap();
        assert_eq!(result.rows()[0][0].render(), "60");
        let stats = server.session_stats(session).unwrap();
        assert_eq!(stats.cancelled_queries, 1);
        assert_eq!(stats.queries, 2);
    }
}
