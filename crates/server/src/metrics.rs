//! Server-wide metrics and introspection.
//!
//! One [`MetricsRegistry`] lives on every [`crate::SdbServer`] and watches
//! the server *as a system*: how many queries ran (and how fast, as a
//! log-bucketed latency histogram), how the admission controller behaved
//! (queued / degraded / cancelled submissions, wait times, queue depth),
//! how hot the shared buffer pool is (spill pages and bytes, evictions,
//! residency), and what the oracle link cost (round trips, per-query mean
//! RTT, coalescing and memo effectiveness).
//!
//! Everything on the hot path is a relaxed atomic — no locks, no
//! allocation — so recording a metric costs a handful of nanoseconds and
//! the registry can sit inside the pager's event callback (which runs under
//! the pool lock) without adding contention.
//!
//! The registry is exposed three ways:
//!
//! * [`crate::SdbServer::metrics_snapshot`] / the [`crate::Request::Metrics`]
//!   protocol frame — a serialisable [`MetricsSnapshot`] point-in-time view;
//! * [`MetricsSnapshot::render_prometheus`] — the Prometheus text exposition
//!   format, one `# HELP` / `# TYPE` / sample group per metric;
//! * live introspection — [`crate::SdbServer::list_queries`] returns a
//!   [`QueryInfo`] per in-flight query, including the query id that
//!   [`crate::SdbServer::cancel_query`] accepts.
//!
//! On top of the registry sits the [`SlowQueryLog`]: a bounded ring buffer
//! of [`SlowQueryRecord`]s for queries whose end-to-end latency met the
//! `SDB_SLOW_QUERY_MS` threshold (`0` captures every query; unset disables
//! capture), each carrying the query's [`ExecutionStats`] and — when tracing
//! was on — its full [`TraceReport`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use sdb_engine::stats::ExecutionStats;
use sdb_engine::trace::TraceReport;
use sdb_storage::PagerEvent;

use crate::server::SessionStats;

/// Number of log-scale histogram buckets. Bucket `i` (for `0 < i < 39`)
/// holds values `v` with `2^(i-1) <= v <= 2^i - 1`; bucket 0 holds exactly
/// zero and the last bucket is open-ended. In microseconds that spans
/// sub-microsecond to ~3.8 days before saturating.
const BUCKETS: usize = 40;

/// How many slow queries the ring buffer retains before evicting the oldest.
pub const SLOW_QUERY_LOG_CAPACITY: usize = 64;

/// The bucket a value lands in: 0 for zero, otherwise the value's bit
/// length, saturating into the open-ended last bucket.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The largest value bucket `index` can hold (`u64::MAX` for the
/// open-ended last bucket — rendered as `+Inf` in the exposition format).
fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A monotonically increasing counter (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (relaxed atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log-bucketed histogram of `u64` samples (microseconds on every latency
/// metric). Recording touches one bucket, the sum and the max — three
/// relaxed atomics, no locks.
///
/// A [`HistogramSnapshot`] derives its total count from the bucket counts
/// themselves, so a snapshot taken mid-write is still internally consistent:
/// the count always equals the sum of the bucket counts it reports.
#[derive(Debug)]
pub struct Histogram {
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in whole microseconds (saturating).
    pub fn record_duration(&self, duration: Duration) {
        self.record(duration.as_micros().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time view with derived quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        let last = counts.iter().rposition(|&c| c > 0);
        let buckets = counts
            .iter()
            .enumerate()
            .take(last.map_or(0, |i| i + 1))
            .map(|(i, &c)| HistogramBucket {
                le: bucket_upper_bound(i),
                count: c,
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(&counts, count, max, 50),
            p90: quantile(&counts, count, max, 90),
            p99: quantile(&counts, count, max, 99),
            buckets,
        }
    }
}

/// The value at or below which `pct` percent of samples fall, resolved to
/// the containing bucket's upper bound and clamped to the observed max (so
/// a one-sample histogram reports that sample, not a power of two).
fn quantile(counts: &[u64], count: u64, max: u64, pct: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count * pct).div_ceil(100)).max(1);
    let mut cumulative = 0;
    for (i, &c) in counts.iter().enumerate() {
        cumulative += c;
        if cumulative >= rank {
            return bucket_upper_bound(i).min(max);
        }
    }
    max
}

/// One histogram bucket: the count of samples `<= le` landing in this
/// bucket (per-bucket, not cumulative; `le == u64::MAX` is the open end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Samples that landed in this bucket.
    pub count: u64,
}

/// A serialisable point-in-time view of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total samples (always the sum of `buckets`).
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample observed.
    pub max: u64,
    /// Median (bucket-resolution upper bound).
    pub p50: u64,
    /// 90th percentile (bucket-resolution upper bound).
    pub p90: u64,
    /// 99th percentile (bucket-resolution upper bound).
    pub p99: u64,
    /// Per-bucket counts, trimmed after the last non-empty bucket.
    pub buckets: Vec<HistogramBucket>,
}

/// The lock-free registry of server-wide counters, gauges and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    // Query lifecycle.
    queries_executed: Counter,
    queries_cancelled: Counter,
    queries_failed: Counter,
    rows_returned: Counter,
    slow_queries: Counter,
    query_latency: Histogram,
    // Admission control.
    admissions_queued: Counter,
    admissions_degraded: Counter,
    admissions_cancelled: Counter,
    admission_wait: Histogram,
    // Oracle link.
    oracle_round_trips: Counter,
    oracle_rows_shipped: Counter,
    oracle_rows_coalesced: Counter,
    oracle_rtt: Histogram,
    // Key-update power memo.
    key_update_memo_hits: Counter,
    // Share kernels.
    share_kernel_rows: Counter,
    share_kernel_micros: Counter,
    // Statement shapes and planning.
    do_shape_hits: Counter,
    plan_cache_hits: Counter,
    plan_micros: Counter,
    // Shared buffer pool (fed by the pager observer).
    pool_spill_pages: Counter,
    pool_spill_bytes_written: Counter,
    pool_spill_bytes_read: Counter,
    pool_evictions: Counter,
    // Instantaneous state, refreshed by the server at snapshot time.
    pub(crate) queries_running: Gauge,
    pub(crate) queries_in_flight: Gauge,
    pub(crate) admission_queue_depth: Gauge,
    pub(crate) pool_resident_bytes: Gauge,
    pub(crate) pool_pinned_bytes: Gauge,
    pub(crate) pool_capacity_bytes: Gauge,
    pub(crate) power_memo_bytes: Gauge,
    pub(crate) statement_shape_bytes: Gauge,
}

impl MetricsRegistry {
    /// Feeds one pager event into the pool counters. Cheap enough to run
    /// inside the pager's observer callback (under the pool lock).
    pub fn observe_pager_event(&self, event: PagerEvent) {
        match event {
            PagerEvent::SpillWrite { bytes } => {
                self.pool_spill_pages.inc();
                self.pool_spill_bytes_written.add(bytes as u64);
            }
            PagerEvent::SpillRead { bytes } => {
                self.pool_spill_bytes_read.add(bytes as u64);
            }
            PagerEvent::Evict => self.pool_evictions.inc(),
        }
    }

    /// Records how long a successful admission waited for its slot.
    pub fn record_admission_wait(&self, wait: Duration) {
        self.admission_wait.record_duration(wait);
    }

    /// Records a submission whose waiter was cancelled before admission.
    pub fn record_admission_cancelled(&self) {
        self.admissions_cancelled.inc();
    }

    /// Records a query that met the slow threshold.
    pub fn record_slow_query(&self) {
        self.slow_queries.inc();
    }

    /// Folds one query's completion into the registry: the *same*
    /// [`SessionStats`] delta the session accumulates (so global and
    /// per-session counters can never drift), the end-to-end latency, and —
    /// for successful queries — the engine's execution statistics for the
    /// oracle-link metrics.
    pub fn fold_query(
        &self,
        delta: &SessionStats,
        latency: Duration,
        stats: Option<&ExecutionStats>,
    ) {
        self.queries_executed.add(delta.queries as u64);
        self.queries_cancelled.add(delta.cancelled_queries as u64);
        self.queries_failed.add(delta.failed_queries as u64);
        self.rows_returned.add(delta.rows_returned as u64);
        self.admissions_queued.add(delta.queued_admissions as u64);
        self.admissions_degraded
            .add(delta.degraded_admissions as u64);
        self.oracle_round_trips.add(delta.oracle_round_trips as u64);
        self.do_shape_hits.add(delta.do_shape_hits as u64);
        self.query_latency.record_duration(latency);
        if let Some(stats) = stats {
            self.oracle_rows_shipped
                .add(stats.oracle_rows_shipped as u64);
            self.oracle_rows_coalesced
                .add(stats.oracle_rows_coalesced as u64);
            self.key_update_memo_hits
                .add(stats.key_update_memo_hits as u64);
            self.share_kernel_rows.add(stats.share_kernel_rows as u64);
            (self.share_kernel_micros).add(stats.share_kernel_time.as_micros() as u64);
            self.plan_cache_hits.add(stats.plan_cache_hits as u64);
            self.plan_micros.add(stats.plan_time.as_micros() as u64);
            if stats.oracle_round_trips > 0 {
                // One sample per query: the mean round-trip time over this
                // query's trips (per-trip timing would need an engine hook
                // on the hot path; the mean is what capacity planning needs).
                self.oracle_rtt
                    .record_duration(stats.oracle_time / stats.oracle_round_trips as u32);
            }
        }
    }

    /// A serialisable point-in-time view of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries_executed: self.queries_executed.get(),
            queries_cancelled: self.queries_cancelled.get(),
            queries_failed: self.queries_failed.get(),
            rows_returned: self.rows_returned.get(),
            slow_queries: self.slow_queries.get(),
            query_latency: self.query_latency.snapshot(),
            admissions_queued: self.admissions_queued.get(),
            admissions_degraded: self.admissions_degraded.get(),
            admissions_cancelled: self.admissions_cancelled.get(),
            admission_wait: self.admission_wait.snapshot(),
            oracle_round_trips: self.oracle_round_trips.get(),
            oracle_rows_shipped: self.oracle_rows_shipped.get(),
            oracle_rows_coalesced: self.oracle_rows_coalesced.get(),
            oracle_rtt: self.oracle_rtt.snapshot(),
            key_update_memo_hits: self.key_update_memo_hits.get(),
            share_kernel_rows: self.share_kernel_rows.get(),
            share_kernel_micros: self.share_kernel_micros.get(),
            do_shape_hits: self.do_shape_hits.get(),
            plan_cache_hits: self.plan_cache_hits.get(),
            plan_micros: self.plan_micros.get(),
            pool_spill_pages: self.pool_spill_pages.get(),
            pool_spill_bytes_written: self.pool_spill_bytes_written.get(),
            pool_spill_bytes_read: self.pool_spill_bytes_read.get(),
            pool_evictions: self.pool_evictions.get(),
            queries_running: self.queries_running.get(),
            queries_in_flight: self.queries_in_flight.get(),
            admission_queue_depth: self.admission_queue_depth.get(),
            pool_resident_bytes: self.pool_resident_bytes.get(),
            pool_pinned_bytes: self.pool_pinned_bytes.get(),
            pool_capacity_bytes: self.pool_capacity_bytes.get(),
            power_memo_bytes: self.power_memo_bytes.get(),
            statement_shape_bytes: self.statement_shape_bytes.get(),
        }
    }

    /// Renders the current state in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// A serialisable point-in-time view of the whole registry — the payload of
/// [`crate::Response::Metrics`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Queries submitted (successful, cancelled or failed).
    pub queries_executed: u64,
    /// Queries that ended because their cancel token fired.
    pub queries_cancelled: u64,
    /// Queries that failed for any other reason.
    pub queries_failed: u64,
    /// Result rows returned across successful queries.
    pub rows_returned: u64,
    /// Queries that met the slow-query threshold.
    pub slow_queries: u64,
    /// End-to-end query latency (µs).
    pub query_latency: HistogramSnapshot,
    /// Submissions that waited in the admission queue.
    pub admissions_queued: u64,
    /// Submissions that ran on a degraded (spilling) budget share.
    pub admissions_degraded: u64,
    /// Submissions cancelled while waiting for admission.
    pub admissions_cancelled: u64,
    /// Admission wait time (µs) of admitted submissions.
    pub admission_wait: HistogramSnapshot,
    /// Oracle round trips across successful queries.
    pub oracle_round_trips: u64,
    /// Rows shipped to the oracle.
    pub oracle_rows_shipped: u64,
    /// Operand rows coalesced across batches before an oracle call.
    pub oracle_rows_coalesced: u64,
    /// Per-query mean oracle round-trip time (µs); one sample per query
    /// that made at least one trip.
    pub oracle_rtt: HistogramSnapshot,
    /// Key-update rows served from the engine's power memo.
    pub key_update_memo_hits: u64,
    /// Rows whose share arithmetic a share kernel evaluated, per operator.
    pub share_kernel_rows: u64,
    /// Microseconds the share kernels took.
    pub share_kernel_micros: u64,
    /// Queries whose rewrite the DO replayed from a cached statement shape.
    pub do_shape_hits: u64,
    /// Queries whose optimised plan the SP took from its plan cache.
    pub plan_cache_hits: u64,
    /// Microseconds the SP spent planning queries (parse or bind, optimise,
    /// physical planning).
    pub plan_micros: u64,
    /// Pages spilled from the shared pool (observer-counted).
    pub pool_spill_pages: u64,
    /// Encoded bytes written to spill files.
    pub pool_spill_bytes_written: u64,
    /// Encoded bytes read back from spill files.
    pub pool_spill_bytes_read: u64,
    /// Pages evicted from the shared pool.
    pub pool_evictions: u64,
    /// Queries holding an admission slot right now.
    pub queries_running: u64,
    /// Queries in flight (queued or running) right now.
    pub queries_in_flight: u64,
    /// Submissions waiting in the admission queue right now.
    pub admission_queue_depth: u64,
    /// Decoded bytes resident in the shared pool right now.
    pub pool_resident_bytes: u64,
    /// Pinned bytes in the shared pool right now.
    pub pool_pinned_bytes: u64,
    /// Pool capacity in bytes (0 for an unlimited budget).
    pub pool_capacity_bytes: u64,
    /// Residue bytes the engine's key-update power memo holds right now.
    pub power_memo_bytes: u64,
    /// Approximate bytes the DO's and the SP's statement-shape caches hold
    /// right now.
    pub statement_shape_bytes: u64,
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format: for
    /// each metric a `# HELP` line, a `# TYPE` line and its samples —
    /// histograms expose cumulative `_bucket{le="…"}` samples ending at
    /// `le="+Inf"`, plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let counters: [(&str, &str, u64); 21] = [
            (
                "sdb_queries_executed_total",
                "Queries submitted (successful, cancelled or failed)",
                self.queries_executed,
            ),
            (
                "sdb_queries_cancelled_total",
                "Queries ended by their cancel token",
                self.queries_cancelled,
            ),
            (
                "sdb_queries_failed_total",
                "Queries failed for a non-cancellation reason",
                self.queries_failed,
            ),
            (
                "sdb_rows_returned_total",
                "Result rows returned across successful queries",
                self.rows_returned,
            ),
            (
                "sdb_slow_queries_total",
                "Queries that met the SDB_SLOW_QUERY_MS threshold",
                self.slow_queries,
            ),
            (
                "sdb_admissions_queued_total",
                "Submissions that waited in the admission queue",
                self.admissions_queued,
            ),
            (
                "sdb_admissions_degraded_total",
                "Submissions run on a degraded budget share",
                self.admissions_degraded,
            ),
            (
                "sdb_admissions_cancelled_total",
                "Submissions cancelled while waiting for admission",
                self.admissions_cancelled,
            ),
            (
                "sdb_oracle_round_trips_total",
                "Oracle round trips across successful queries",
                self.oracle_round_trips,
            ),
            (
                "sdb_oracle_rows_shipped_total",
                "Rows shipped to the oracle",
                self.oracle_rows_shipped,
            ),
            (
                "sdb_oracle_rows_coalesced_total",
                "Operand rows coalesced across batches before an oracle call",
                self.oracle_rows_coalesced,
            ),
            (
                "sdb_key_update_memo_hits_total",
                "Key-update rows served from the engine's power memo",
                self.key_update_memo_hits,
            ),
            (
                "sdb_share_kernel_rows_total",
                "Rows whose share arithmetic a share kernel evaluated, per operator",
                self.share_kernel_rows,
            ),
            (
                "sdb_share_kernel_micros_total",
                "Microseconds the share kernels took",
                self.share_kernel_micros,
            ),
            (
                "sdb_do_shape_hits_total",
                "Queries whose rewrite the DO replayed from a cached statement shape",
                self.do_shape_hits,
            ),
            (
                "sdb_plan_cache_hits_total",
                "Queries whose optimised plan the SP took from its plan cache",
                self.plan_cache_hits,
            ),
            (
                "sdb_plan_micros_total",
                "Microseconds the SP spent planning queries",
                self.plan_micros,
            ),
            (
                "sdb_pool_spill_pages_total",
                "Pages spilled from the shared buffer pool",
                self.pool_spill_pages,
            ),
            (
                "sdb_pool_spill_bytes_written_total",
                "Encoded bytes written to spill files",
                self.pool_spill_bytes_written,
            ),
            (
                "sdb_pool_spill_bytes_read_total",
                "Encoded bytes read back from spill files",
                self.pool_spill_bytes_read,
            ),
            (
                "sdb_pool_evictions_total",
                "Pages evicted from the shared buffer pool",
                self.pool_evictions,
            ),
        ];
        for (name, help, value) in counters {
            render_sample(&mut out, name, help, "counter", value);
        }
        let gauges: [(&str, &str, u64); 8] = [
            (
                "sdb_queries_running",
                "Queries holding an admission slot",
                self.queries_running,
            ),
            (
                "sdb_queries_in_flight",
                "Queries queued or running",
                self.queries_in_flight,
            ),
            (
                "sdb_admission_queue_depth",
                "Submissions waiting in the admission queue",
                self.admission_queue_depth,
            ),
            (
                "sdb_pool_resident_bytes",
                "Decoded bytes resident in the shared pool",
                self.pool_resident_bytes,
            ),
            (
                "sdb_pool_pinned_bytes",
                "Pinned bytes in the shared pool",
                self.pool_pinned_bytes,
            ),
            (
                "sdb_pool_capacity_bytes",
                "Pool capacity in bytes (0 = unlimited)",
                self.pool_capacity_bytes,
            ),
            (
                "sdb_power_memo_bytes",
                "Residue bytes held by the engine's key-update power memo",
                self.power_memo_bytes,
            ),
            (
                "sdb_statement_shape_bytes",
                "Approximate bytes held by the DO's and the SP's statement-shape caches",
                self.statement_shape_bytes,
            ),
        ];
        for (name, help, value) in gauges {
            render_sample(&mut out, name, help, "gauge", value);
        }
        render_histogram(
            &mut out,
            "sdb_query_latency_microseconds",
            "End-to-end query latency",
            &self.query_latency,
        );
        render_histogram(
            &mut out,
            "sdb_admission_wait_microseconds",
            "Admission wait time of admitted submissions",
            &self.admission_wait,
        );
        render_histogram(
            &mut out,
            "sdb_oracle_rtt_microseconds",
            "Per-query mean oracle round-trip time",
            &self.oracle_rtt,
        );
        out
    }
}

/// One `# HELP` / `# TYPE` / sample group for a scalar metric.
fn render_sample(out: &mut String, name: &str, help: &str, kind: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
    ));
}

/// One histogram group: cumulative buckets ending at `+Inf`, sum and count.
fn render_histogram(out: &mut String, name: &str, help: &str, snapshot: &HistogramSnapshot) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let mut cumulative = 0;
    for bucket in &snapshot.buckets {
        cumulative += bucket.count;
        if bucket.le == u64::MAX {
            break;
        }
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            bucket.le
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
        snapshot.count, snapshot.sum, snapshot.count
    ));
}

/// Admission state of an in-flight query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryState {
    /// Waiting in the admission queue.
    Queued,
    /// Running on a full budget share.
    Running,
    /// Running on a degraded (spilling) budget share.
    Degraded,
}

/// One in-flight query, as reported by [`crate::SdbServer::list_queries`]
/// and the [`crate::Request::ListQueries`] frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryInfo {
    /// The query's id — the cancellation handle
    /// [`crate::SdbServer::cancel_query`] accepts.
    pub query: u64,
    /// The session the query runs on.
    pub session: u64,
    /// The SQL text as submitted.
    pub sql: String,
    /// Time since submission (µs).
    pub elapsed_us: u64,
    /// Where the query is in its admission lifecycle.
    pub state: QueryState,
}

/// How a captured slow query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryOutcome {
    /// Returned rows normally.
    Completed,
    /// Ended by its cancel token.
    Cancelled,
    /// Failed for any other reason.
    Failed,
}

/// One captured slow query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowQueryRecord {
    /// The query id it ran under.
    pub query: u64,
    /// The session it ran on.
    pub session: u64,
    /// The SQL text as submitted.
    pub sql: String,
    /// End-to-end latency (µs).
    pub elapsed_us: u64,
    /// How the query ended.
    pub outcome: QueryOutcome,
    /// The engine's execution statistics (default-zero for queries that
    /// never produced a result).
    pub stats: ExecutionStats,
    /// The full per-operator trace, when tracing was on for the query.
    pub trace: Option<TraceReport>,
}

/// A bounded ring buffer of slow queries: recording past capacity evicts
/// the oldest record first.
#[derive(Debug)]
pub struct SlowQueryLog {
    capacity: usize,
    entries: Mutex<VecDeque<SlowQueryRecord>>,
}

impl SlowQueryLog {
    /// Creates a log retaining at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        SlowQueryLog {
            capacity: capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends a record, evicting the oldest past capacity.
    pub fn record(&self, record: SlowQueryRecord) {
        let mut entries = self.entries.lock();
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(record);
    }

    /// The retained records, oldest first.
    pub fn snapshot(&self) -> Vec<SlowQueryRecord> {
        self.entries.lock().iter().cloned().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

impl Default for SlowQueryLog {
    fn default() -> Self {
        SlowQueryLog::new(SLOW_QUERY_LOG_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries_zero_edges_and_saturating_max() {
        // Zero has its own bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_upper_bound(0), 0);
        // Values exactly on bucket edges: 2^i - 1 is the top of bucket i,
        // 2^i the bottom of bucket i + 1.
        for i in 1..20usize {
            let top = (1u64 << i) - 1;
            assert_eq!(bucket_index(top), i, "top edge of bucket {i}");
            assert_eq!(
                bucket_index(top + 1),
                i + 1,
                "bottom edge of bucket {}",
                i + 1
            );
            assert_eq!(bucket_upper_bound(i), top);
        }
        // The last bucket saturates: anything with >= 39 bits lands there.
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << (BUCKETS as u32 - 1)), BUCKETS - 1);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);

        let hist = Histogram::default();
        hist.record(0);
        hist.record(1);
        hist.record(2);
        hist.record(3);
        hist.record(4);
        hist.record(u64::MAX);
        let snap = hist.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.sum, u64::MAX.wrapping_add(10));
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4 → bucket 3.
        assert_eq!(snap.buckets[0].count, 1);
        assert_eq!(snap.buckets[1].count, 1);
        assert_eq!(snap.buckets[2].count, 2);
        assert_eq!(snap.buckets[3].count, 1);
        assert_eq!(snap.buckets.last().unwrap().le, u64::MAX);
        assert_eq!(snap.buckets.last().unwrap().count, 1);
        assert_eq!(
            snap.buckets.iter().map(|b| b.count).sum::<u64>(),
            snap.count
        );
    }

    #[test]
    fn quantiles_resolve_to_bucket_upper_bounds_clamped_to_max() {
        let hist = Histogram::default();
        hist.record(5);
        let one = hist.snapshot();
        // A single sample: every quantile is that sample (clamped to max),
        // not the containing bucket's upper bound (7).
        assert_eq!((one.p50, one.p90, one.p99, one.max), (5, 5, 5, 5));

        let hist = Histogram::default();
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 1000] {
            hist.record(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 10);
        // Rank 5 of 10 lands on the bucket holding 16 (le = 31).
        assert_eq!(snap.p50, 31);
        // Rank 9 lands on the bucket holding 256 (le = 511).
        assert_eq!(snap.p90, 511);
        // Rank 10 lands on the bucket holding 1000, clamped to the max.
        assert_eq!(snap.p99, 1000);
        assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99);
    }

    #[test]
    fn snapshot_under_concurrent_writes_stays_consistent() {
        let hist = Arc::new(Histogram::default());
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let hist = Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        hist.record(w * 10_000 + i);
                    }
                })
            })
            .collect();
        // Snapshots taken while writers are live must be internally
        // consistent: the count is the sum of the bucket counts, quantiles
        // are ordered, and counts only grow between snapshots.
        let mut last_count = 0;
        for _ in 0..50 {
            let snap = hist.snapshot();
            assert_eq!(
                snap.buckets.iter().map(|b| b.count).sum::<u64>(),
                snap.count
            );
            assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99 && snap.p99 <= snap.max);
            assert!(snap.count >= last_count, "sample count must be monotone");
            last_count = snap.count;
        }
        for writer in writers {
            writer.join().unwrap();
        }
        let final_snap = hist.snapshot();
        assert_eq!(final_snap.count, 20_000);
        assert_eq!(
            final_snap.buckets.iter().map(|b| b.count).sum::<u64>(),
            20_000
        );
    }

    #[test]
    fn slow_query_ring_evicts_oldest_first() {
        let log = SlowQueryLog::new(3);
        for id in 0..5u64 {
            log.record(SlowQueryRecord {
                query: id,
                session: 1,
                sql: format!("SELECT {id}"),
                elapsed_us: id * 10,
                outcome: QueryOutcome::Completed,
                stats: ExecutionStats::default(),
                trace: None,
            });
        }
        assert_eq!(log.len(), 3);
        let ids: Vec<u64> = log.snapshot().iter().map(|r| r.query).collect();
        // Records 0 and 1 were evicted; the survivors stay in arrival order.
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let registry = MetricsRegistry::default();
        registry.fold_query(
            &SessionStats {
                queries: 1,
                rows_returned: 3,
                oracle_round_trips: 2,
                ..SessionStats::default()
            },
            Duration::from_micros(1500),
            None,
        );
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE sdb_queries_executed_total counter"));
        assert!(text.contains("sdb_queries_executed_total 1"));
        assert!(text.contains("# TYPE sdb_query_latency_microseconds histogram"));
        assert!(text.contains("sdb_query_latency_microseconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("sdb_query_latency_microseconds_count 1"));
        assert!(text.contains("sdb_query_latency_microseconds_sum 1500"));
        // Round trip of the snapshot through the protocol's serde.
        let snap = registry.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
