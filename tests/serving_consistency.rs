//! Serving-layer system tests: concurrent multi-session execution over one
//! shared engine, buffer pool and memory budget.
//!
//! Three properties, each asserted deterministically:
//!
//! 1. **Consistency** — every query a concurrent session runs returns bytes
//!    identical to the same query run serially on a fresh deployment, across
//!    the budget × parallelism matrix (`SDB_TEST_MEM_BUDGET`-style bounded
//!    memory and multi-worker execution included).
//! 2. **Cancellation hygiene** — a query cancelled at *any* poll point (scan
//!    batches, oracle round trips, pager appends/pins — which covers
//!    mid-spill) releases its buffer-pool frames and deletes its spill file,
//!    and the server keeps serving byte-identical results afterwards.
//! 3. **Admission control** — pool-hot submissions queue in strict FIFO
//!    order (or run degraded with spilling plans), and no submission is
//!    starved.

use std::sync::Arc;

use sdb_engine::MemoryBudget;
use sdb_server::{
    AdmissionMode, CancelToken, HistogramSnapshot, QueryState, SdbServer, ServerConfig,
    ServerError, SessionStats,
};
use sdb_storage::{ColumnDef, DataType, Schema, Table, Value};

/// Rows in the test table; sized so bounded-budget runs actually spill.
const ROWS: i64 = 160;

/// Deterministic mixed dataset: public ids/regions, sensitive amounts.
fn orders_table() -> Table {
    let schema = Schema::new(vec![
        ColumnDef::public("id", DataType::Int),
        ColumnDef::public("region", DataType::Varchar),
        ColumnDef::sensitive("amount", DataType::Int),
        ColumnDef::sensitive("qty", DataType::Int),
    ]);
    let mut table = Table::new("orders", schema);
    for id in 0..ROWS {
        let region = ["north", "south", "east", "west"][(id % 4) as usize];
        // A seeded linear-congruential walk keeps the data deterministic
        // without any RNG dependency.
        let amount = (id * 7919 + 104_729) % 10_000;
        let qty = (id * 6101 + 15_485) % 5_000;
        table
            .insert_row(vec![
                Value::Int(id),
                Value::Str(region.to_string()),
                Value::Int(amount),
                Value::Int(qty),
            ])
            .expect("insert");
    }
    table
}

/// The mixed workload: point lookups and analytic queries, several of which
/// go through the comparison / grouping / ranking oracle protocols.
fn mixed_queries() -> Vec<&'static str> {
    vec![
        "SELECT amount FROM orders WHERE id = 37",
        "SELECT qty FROM orders WHERE id = 101",
        "SELECT SUM(amount) AS total FROM orders",
        "SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM orders GROUP BY region ORDER BY region",
        "SELECT id, amount FROM orders WHERE amount > qty ORDER BY id LIMIT 20",
        "SELECT id, amount FROM orders ORDER BY amount DESC LIMIT 10",
    ]
}

fn build_server(
    budget: MemoryBudget,
    parallelism: usize,
    max_concurrent: usize,
    mode: AdmissionMode,
) -> SdbServer {
    let config = ServerConfig::test_profile()
        .with_global_budget(budget)
        .with_max_concurrent(max_concurrent)
        .with_admission_mode(mode)
        .with_parallelism(parallelism);
    let mut server = SdbServer::new(config).expect("server");
    server.stage_table(orders_table()).expect("stage");
    server.upload_all().expect("upload");
    server
}

/// The byte-identity fingerprint: the decrypted result batch, serialised.
fn fingerprint(result: &sdb::QueryResult) -> String {
    serde_json::to_string(&result.batch).expect("serialise batch")
}

/// The budget × parallelism matrix every property runs under.
fn matrix() -> Vec<(MemoryBudget, usize)> {
    vec![
        (MemoryBudget::unlimited(), 1),
        (MemoryBudget::unlimited(), 4),
        (MemoryBudget::bytes(64 << 10), 1),
        (MemoryBudget::bytes(64 << 10), 4),
    ]
}

#[test]
fn concurrent_sessions_match_serial_execution() {
    let queries = mixed_queries();
    for (config, (budget, parallelism)) in matrix().into_iter().enumerate() {
        // Serial reference: a fresh deployment runs each query once.
        let serial = build_server(budget.clone(), parallelism, 4, AdmissionMode::Queue);
        let session = serial.connect();
        let reference: Vec<String> = queries
            .iter()
            .map(|sql| fingerprint(&serial.execute(session, sql).expect("serial query")))
            .collect();
        drop(serial);

        // The full session sweep runs on the first matrix point; the other
        // points each take one session count, so every (budget,
        // parallelism, N) combination is still covered without cubing the
        // runtime.
        let session_counts: &[usize] = if config == 0 {
            &[2, 4, 8]
        } else {
            &[[4, 8, 2][config - 1]]
        };
        for &sessions in session_counts {
            let server = Arc::new(build_server(
                budget.clone(),
                parallelism,
                4,
                AdmissionMode::Queue,
            ));
            let mut workers = Vec::new();
            for worker in 0..sessions {
                let server = Arc::clone(&server);
                let queries = queries.clone();
                let reference = reference.clone();
                workers.push(std::thread::spawn(move || {
                    let session = server.connect();
                    // Each session walks the workload from a different
                    // offset, so distinct queries overlap in time.
                    for step in 0..queries.len() {
                        let index = (worker + step) % queries.len();
                        let result = server
                            .execute(session, queries[index])
                            .expect("concurrent query");
                        assert_eq!(
                            fingerprint(&result),
                            reference[index],
                            "session {worker} query {index} diverged from serial bytes"
                        );
                    }
                    server.close(session).expect("close");
                }));
            }
            for worker in workers {
                worker.join().expect("session thread");
            }
            // Every lease was dropped: nothing stays resident, no spill
            // files survive their query.
            assert_eq!(server.pool().resident_pages(), 0);
            assert_eq!(server.pool().spill_file_count(), 0);
        }
    }
}

#[test]
fn cancellation_at_every_poll_point_leaves_server_clean() {
    // Oracle comparisons + grouping + ordering + (under the bounded budget)
    // spilling: the densest poll-point coverage one statement can have.
    let sql = "SELECT region, SUM(amount) AS total FROM orders \
               WHERE amount > qty GROUP BY region ORDER BY region";
    for budget in [MemoryBudget::unlimited(), MemoryBudget::bytes(64 << 10)] {
        let server = build_server(budget, 1, 4, AdmissionMode::Queue);
        let session = server.connect();

        // Probe run: counts the query's deterministic poll sequence and
        // pins the reference bytes.
        let probe = CancelToken::new();
        let reference = server
            .execute_with_token(session, sql, probe.clone())
            .expect("probe query");
        let reference = fingerprint(&reference);
        let total_checks = probe.checks();
        assert!(
            total_checks >= 3,
            "expected several poll points, saw {total_checks}"
        );

        // Cancel at every poll point (capped to keep runtime bounded, but
        // always including the first and last).
        let step = (total_checks / 10).max(1);
        let mut fuses: Vec<u64> = (1..=total_checks).step_by(step as usize).collect();
        if fuses.last() != Some(&total_checks) {
            fuses.push(total_checks);
        }
        for fuse in fuses {
            let cancel = CancelToken::cancel_after_checks(fuse);
            let err = server
                .execute_with_token(session, sql, cancel)
                .expect_err("query should cancel");
            assert!(
                matches!(err, ServerError::Cancelled),
                "fuse {fuse}: unexpected error {err}"
            );
            // The cancelled query's lease is gone: no resident frames, no
            // spill file left on disk.
            assert_eq!(
                server.pool().resident_pages(),
                0,
                "fuse {fuse}: cancelled query left resident pages"
            );
            assert_eq!(
                server.pool().spill_file_count(),
                0,
                "fuse {fuse}: cancelled query leaked a spill file"
            );
        }

        // The server keeps serving, and the bytes are still identical.
        let after = server.execute(session, sql).expect("post-cancel query");
        assert_eq!(fingerprint(&after), reference);
        let stats = server.session_stats(session).expect("stats");
        assert!(stats.cancelled_queries >= 2);
        assert_eq!(stats.failed_queries, 0);
    }
}

#[test]
fn mid_flight_cancel_from_another_thread_is_clean() {
    // The asynchronous flavour: a cancel request arrives from another
    // thread while the query holds pool pages. Timing decides *where* it
    // lands, the assertions hold wherever that is.
    let server = Arc::new(build_server(
        MemoryBudget::bytes(64 << 10),
        1,
        4,
        AdmissionMode::Queue,
    ));
    let session = server.connect();
    let sql = "SELECT id, amount FROM orders WHERE amount > qty ORDER BY amount DESC";
    let canceller = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            // Fire once the query is plausibly mid-flight; firing before it
            // starts is also fine (the token trips at the first poll).
            std::thread::sleep(std::time::Duration::from_millis(2));
            server.cancel(session).expect("cancel");
        })
    };
    let outcome = server.execute(session, sql);
    canceller.join().expect("canceller thread");
    if let Err(err) = outcome {
        assert!(matches!(err, ServerError::Cancelled), "unexpected {err}");
    }
    assert_eq!(server.pool().resident_pages(), 0);
    assert_eq!(server.pool().spill_file_count(), 0);
    // Session still serves after the cancellation.
    let result = server
        .execute(session, "SELECT SUM(amount) AS total FROM orders")
        .expect("post-cancel query");
    assert_eq!(result.rows().len(), 1);
}

#[test]
fn pool_hot_submissions_queue_in_fifo_order() {
    let server = Arc::new(build_server(
        MemoryBudget::unlimited(),
        1,
        1,
        AdmissionMode::Queue,
    ));
    // Hold the only admission slot directly, so every submission below is
    // provably pool-hot before any of them can run.
    let hold = server
        .admission()
        .admit(&CancelToken::new())
        .expect("hold slot");

    let mut workers = Vec::new();
    for _ in 0..3 {
        let waiters_before = server.admission().waiting();
        let worker = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let session = server.connect();
                let result = server
                    .execute(session, "SELECT SUM(amount) AS total FROM orders")
                    .expect("queued query");
                assert_eq!(result.rows().len(), 1);
                server.session_stats(session).expect("stats")
            })
        };
        // Serialise ticket issue: wait until this submission is queued
        // before spawning the next, so the FIFO order is known exactly.
        while server.admission().waiting() <= waiters_before {
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        workers.push(worker);
    }

    assert_eq!(server.admission().running(), 1);
    drop(hold);
    for worker in workers {
        let stats = worker.join().expect("worker");
        assert_eq!(stats.queued_admissions, 1);
    }
    // Ticket 0 is the held slot; the queued submissions ran in exactly the
    // order they arrived.
    assert_eq!(server.admission().admitted_order(), vec![0, 1, 2, 3]);
    assert_eq!(server.admission().total_queued(), 3);
}

/// Public-only table whose sort runs span several buffer-pool pages, so a
/// degraded budget share must spill. (It has to be all-public: a sensitive
/// sort key moves the ORDER BY client-side and the SP plan collapses to a
/// scan that never touches the pool.)
fn wide_table() -> Table {
    let schema = Schema::new(vec![
        ColumnDef::public("id", DataType::Int),
        ColumnDef::public("pad", DataType::Varchar),
    ]);
    let mut table = Table::new("wide", schema);
    for id in 0..1280 {
        table
            .insert_row(vec![Value::Int(id), Value::Str(format!("{id:0>120}"))])
            .expect("insert");
    }
    table
}

#[test]
fn degraded_submissions_run_spilling_plans() {
    let mut server = build_server(MemoryBudget::bytes(64 << 10), 1, 1, AdmissionMode::Degrade);
    server.stage_table(wide_table()).expect("stage wide");
    server.upload_all().expect("upload wide");
    let session = server.connect();

    // Reference bytes from a normal (non-degraded) run. The sort key is
    // public, so the ORDER BY runs server-side through ExternalSort.
    let sql = "SELECT id, pad FROM wide ORDER BY id DESC";
    let reference = fingerprint(&server.execute(session, sql).expect("reference"));

    // Hold the only slot: the next submission is pool-hot and, in Degrade
    // mode, runs immediately on a quartered budget share.
    let hold = server
        .admission()
        .admit(&CancelToken::new())
        .expect("hold slot");
    let result = server.execute(session, sql).expect("degraded query");
    drop(hold);

    assert_eq!(
        fingerprint(&result),
        reference,
        "degraded run changed bytes"
    );
    let stats = server.session_stats(session).expect("stats");
    assert_eq!(stats.degraded_admissions, 1);
    assert!(
        result.server_stats.pages_spilled > 0,
        "degraded budget share should force spilling, stats: {:?}",
        result.server_stats
    );
}

/// A subquery spills through its query's lease on the shared pool, so the
/// session is billed for those pages: the outer plan only streams, the
/// uncorrelated subquery's sort overflows the budget share.
#[test]
fn subquery_spills_count_against_the_session() {
    let mut server = build_server(MemoryBudget::bytes(64 << 10), 1, 1, AdmissionMode::Queue);
    server.stage_table(wide_table()).expect("stage wide");
    server.upload_all().expect("upload wide");
    let session = server.connect();

    let sql = "SELECT id FROM wide WHERE id < 4 AND id IN (SELECT id FROM wide ORDER BY pad DESC)";
    let result = server.execute(session, sql).expect("subquery");
    assert_eq!(result.rows().len(), 4);
    let spilled = result.server_stats.pages_spilled;
    assert!(spilled > 0, "the subquery's sort must spill");
    let stats = server.session_stats(session).expect("stats");
    assert_eq!(stats.pages_spilled, spilled);
}

/// A latency histogram snapshot must be internally consistent no matter when
/// it was taken: the count equals the per-bucket sum, and the quantiles are
/// ordered and bounded by the observed max.
fn assert_histogram_consistent(name: &str, hist: &HistogramSnapshot) {
    let bucket_sum: u64 = hist.buckets.iter().map(|b| b.count).sum();
    assert_eq!(
        hist.count, bucket_sum,
        "{name}: count diverges from bucket sum"
    );
    assert!(
        hist.p50 <= hist.p90 && hist.p90 <= hist.p99,
        "{name}: quantiles out of order ({} / {} / {})",
        hist.p50,
        hist.p90,
        hist.p99
    );
    assert!(hist.p99 <= hist.max, "{name}: p99 exceeds observed max");
    if hist.count > 0 {
        assert!(hist.sum >= hist.max, "{name}: sum below max");
    }
}

#[test]
fn metrics_snapshot_accounts_for_the_mixed_workload() {
    // The mixed concurrent workload from the consistency property, under the
    // bounded budget so spilling and oracle traffic both happen — then the
    // registry's snapshot must reconcile exactly with the per-session stats.
    let queries = mixed_queries();
    let sessions = 4;
    let server = Arc::new(build_server(
        MemoryBudget::bytes(64 << 10),
        1,
        4,
        AdmissionMode::Queue,
    ));
    let mut workers = Vec::new();
    for worker in 0..sessions {
        let server = Arc::clone(&server);
        let queries = queries.clone();
        workers.push(std::thread::spawn(move || {
            let session = server.connect();
            for step in 0..queries.len() {
                let index = (worker + step) % queries.len();
                server
                    .execute(session, queries[index])
                    .expect("concurrent query");
            }
            server.session_stats(session).expect("stats")
        }));
    }
    let mut summed = SessionStats::default();
    for worker in workers {
        summed.merge(&worker.join().expect("session thread"));
    }

    let snapshot = server.metrics_snapshot();
    let total = (sessions * queries.len()) as u64;
    assert_eq!(summed.queries as u64, total);

    // Exact counter reconciliation against the summed session stats: the
    // single-delta fold guarantees these can never drift.
    assert_eq!(snapshot.queries_executed, total);
    assert_eq!(snapshot.queries_cancelled, 0);
    assert_eq!(snapshot.queries_failed, 0);
    assert_eq!(snapshot.rows_returned, summed.rows_returned as u64);
    assert_eq!(
        snapshot.oracle_round_trips,
        summed.oracle_round_trips as u64
    );
    assert_eq!(snapshot.admissions_queued, summed.queued_admissions as u64);
    assert_eq!(
        snapshot.admissions_degraded,
        summed.degraded_admissions as u64
    );
    // The workload's analytic queries go through the oracle protocols.
    assert!(snapshot.oracle_round_trips > 0);
    assert!(snapshot.oracle_rows_shipped > 0);

    // The latency histogram saw every query, and its buckets reconcile.
    assert_eq!(snapshot.query_latency.count, total);
    assert_histogram_consistent("query_latency", &snapshot.query_latency);
    assert_histogram_consistent("admission_wait", &snapshot.admission_wait);
    assert_histogram_consistent("oracle_rtt", &snapshot.oracle_rtt);
    assert_eq!(snapshot.admission_wait.count, total);
    // One RTT sample per query that made at least one oracle trip; the point
    // lookups in the workload make none.
    assert!(snapshot.oracle_rtt.count > 0);
    assert!(snapshot.oracle_rtt.count <= total);

    // Nothing is in flight after the workers joined, and the gauges say so.
    assert_eq!(snapshot.queries_running, 0);
    assert_eq!(snapshot.queries_in_flight, 0);
    assert_eq!(snapshot.admission_queue_depth, 0);
    assert_eq!(snapshot.pool_resident_bytes, 0);
    assert_eq!(snapshot.pool_pinned_bytes, 0);
    assert_eq!(snapshot.pool_capacity_bytes, 64 << 10);

    // The bounded budget forced the pool observer to see spill traffic.
    assert!(snapshot.pool_spill_pages > 0);
    assert!(snapshot.pool_spill_bytes_written > 0);
    assert_eq!(summed.pages_spilled as u64, snapshot.pool_spill_pages);
}

#[test]
fn prometheus_exposition_parses_line_by_line() {
    let server = build_server(MemoryBudget::bytes(64 << 10), 1, 4, AdmissionMode::Queue);
    let session = server.connect();
    for sql in mixed_queries() {
        server.execute(session, sql).expect("query");
    }

    let text = server.metrics().render_prometheus();
    let snapshot = server.metrics_snapshot();
    let mut samples: Vec<(String, Option<String>, u64)> = Vec::new();
    for line in text.lines() {
        assert!(!line.trim().is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# ") {
            // Metadata: `# HELP <name> <text>` or `# TYPE <name> <kind>`.
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap();
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "unknown metadata line: {line}"
            );
            let name = parts.next().expect("metric name");
            assert!(name.starts_with("sdb_"), "unprefixed metric: {name}");
            let tail = parts.next().expect("metadata payload");
            if keyword == "TYPE" {
                assert!(
                    ["counter", "gauge", "histogram"].contains(&tail),
                    "unknown metric type: {line}"
                );
            }
            continue;
        }
        // Sample: `name value` or `name{le="..."} value`.
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let value: u64 = value.parse().unwrap_or_else(|_| {
            panic!("non-integer sample value in line: {line}");
        });
        let (name, label) = match series.split_once('{') {
            None => (series.to_string(), None),
            Some((name, labels)) => {
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|rest| rest.strip_suffix("\"}"))
                    .unwrap_or_else(|| panic!("malformed label set in line: {line}"));
                (name.to_string(), Some(le.to_string()))
            }
        };
        samples.push((name, label, value));
    }

    let value_of = |name: &str| {
        samples
            .iter()
            .find(|(n, label, _)| n == name && label.is_none())
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .2
    };
    assert_eq!(value_of("sdb_queries_executed_total"), 6);
    assert_eq!(
        value_of("sdb_oracle_round_trips_total"),
        snapshot.oracle_round_trips
    );
    assert_eq!(value_of("sdb_queries_running"), 0);

    // Histogram series: cumulative buckets are monotone, end in +Inf, and
    // agree with the _count sample.
    for hist in [
        "sdb_query_latency_microseconds",
        "sdb_admission_wait_microseconds",
        "sdb_oracle_rtt_microseconds",
    ] {
        let buckets: Vec<&(String, Option<String>, u64)> = samples
            .iter()
            .filter(|(n, _, _)| n == &format!("{hist}_bucket"))
            .collect();
        assert!(!buckets.is_empty(), "{hist}: no bucket series");
        let mut previous = 0;
        for (_, le, cumulative) in &buckets {
            assert!(le.is_some(), "{hist}: bucket without le label");
            assert!(
                *cumulative >= previous,
                "{hist}: cumulative bucket counts decreased"
            );
            previous = *cumulative;
        }
        let (_, le, total) = buckets.last().unwrap();
        assert_eq!(le.as_deref(), Some("+Inf"), "{hist}: last bucket not +Inf");
        assert_eq!(*total, value_of(&format!("{hist}_count")));
    }
    // Every query leaves exactly one latency and one wait sample; the RTT
    // histogram samples only queries that made oracle trips.
    assert_eq!(value_of("sdb_query_latency_microseconds_count"), 6);
    assert_eq!(value_of("sdb_admission_wait_microseconds_count"), 6);
}

#[test]
fn list_queries_exposes_mid_flight_query_with_usable_cancel_id() {
    let server = Arc::new(build_server(
        MemoryBudget::unlimited(),
        1,
        1,
        AdmissionMode::Queue,
    ));
    let session = server.connect();
    let sql = "SELECT SUM(amount) AS total FROM orders";

    // Hold the only admission slot so the submission below is provably
    // observable: it stays queued until we let it through or cancel it.
    let hold = server
        .admission()
        .admit(&CancelToken::new())
        .expect("hold slot");

    let worker = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.execute(session, sql))
    };
    // The query registers in the in-flight table before admission, so this
    // poll terminates as soon as the worker thread reaches `admit`.
    let info = loop {
        let queries = server.list_queries();
        if let Some(info) = queries.into_iter().next() {
            break info;
        }
        std::thread::sleep(std::time::Duration::from_micros(100));
    };
    assert_eq!(info.session, session);
    assert_eq!(info.sql, sql);
    assert_eq!(info.state, QueryState::Queued);

    // The reported id is usable: cancelling it aborts the queued wait.
    server.cancel_query(info.query).expect("cancel by id");
    let outcome = worker.join().expect("worker thread");
    assert!(matches!(outcome, Err(ServerError::Cancelled)));
    drop(hold);

    // The in-flight table is empty again, and the registry recorded the
    // admission-wait cancellation.
    assert!(server.list_queries().is_empty());
    let snapshot = server.metrics_snapshot();
    assert_eq!(snapshot.queries_executed, 1);
    assert_eq!(snapshot.queries_cancelled, 1);
    assert_eq!(snapshot.admissions_cancelled, 1);
    assert_eq!(snapshot.queries_in_flight, 0);

    // The session (and the server) keep serving afterwards.
    let result = server.execute(session, sql).expect("post-cancel query");
    assert_eq!(result.rows().len(), 1);
    assert_eq!(server.metrics_snapshot().queries_executed, 2);
}

#[test]
fn no_submission_starves_under_sustained_load() {
    let server = Arc::new(build_server(
        MemoryBudget::unlimited(),
        1,
        1,
        AdmissionMode::Queue,
    ));
    let mut workers = Vec::new();
    for worker in 0..3 {
        let server = Arc::clone(&server);
        workers.push(std::thread::spawn(move || {
            let session = server.connect();
            for step in 0..8 {
                let result = server
                    .execute(session, "SELECT COUNT(*) AS n FROM orders")
                    .expect("query");
                assert_eq!(
                    result.rows()[0][0].render(),
                    ROWS.to_string(),
                    "worker {worker} step {step}"
                );
            }
        }));
    }
    // FIFO admission means every one of the 24 submissions runs; a livelock
    // would hang the join (and the test harness timeout would catch it).
    for worker in workers {
        worker.join().expect("no submission starved");
    }
    assert_eq!(server.admission().running(), 0);
    assert_eq!(server.admission().waiting(), 0);
}

#[test]
fn a_scan_opened_before_an_insert_keeps_its_snapshot() {
    use sdb_engine::{ExecConfig, ExecContext, PhysicalPlanner, UdfRegistry};

    let mut server = build_server(MemoryBudget::unlimited(), 1, 1, AdmissionMode::Queue);
    let catalog = Arc::clone(server.client().engine().catalog());
    let registry = UdfRegistry::with_sdb_udfs();
    let ctx = Arc::new(ExecContext::new(
        &catalog,
        &registry,
        None,
        ExecConfig {
            batch_size: 32,
            ..ExecConfig::default()
        },
        None,
        None,
    ));
    let sdb_sql::Statement::Query(query) = sdb_sql::parse_sql("SELECT id FROM orders").unwrap()
    else {
        panic!("a query");
    };
    let plan = sdb_sql::PlanBuilder::build(&query).unwrap();
    let mut root = PhysicalPlanner::new(Arc::clone(&ctx)).plan(&plan).unwrap();

    // The scan is open and one batch in when the INSERT lands on its table.
    root.open().unwrap();
    let mut ids: Vec<Value> = Vec::new();
    ids.extend_from_slice(
        root.next_batch()
            .unwrap()
            .expect("first batch")
            .column(0)
            .values(),
    );
    assert_eq!(ids.len(), 32);
    server
        .execute_ddl(&format!(
            "INSERT INTO orders VALUES ({ROWS}, 'north', 1, 2)"
        ))
        .expect("insert while the scan is open");
    while let Some(batch) = root.next_batch().unwrap() {
        ids.extend_from_slice(batch.column(0).values());
    }
    root.close().unwrap();
    let before: Vec<Value> = (0..ROWS).map(Value::Int).collect();
    assert_eq!(ids, before, "the open scan saw exactly the pre-insert rows");

    // The writer copied on write; the next query reads the new row.
    let session = server.connect();
    let result = server
        .execute(session, "SELECT id FROM orders ORDER BY id DESC LIMIT 1")
        .expect("query after the insert");
    assert_eq!(result.rows(), vec![vec![Value::Int(ROWS)]]);
    let stored = catalog.table("orders").unwrap().read().num_rows();
    assert_eq!(stored as i64, ROWS + 1);
}
