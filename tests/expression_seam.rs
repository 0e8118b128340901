//! End to end through the expression seam: the DO's post-processing keys
//! `DISTINCT` on the engine's key path, string literals keep their UTF-8
//! through the lexer at both ends, and the seam's clock (`eval_time`) nests
//! inside every span's own time.

use sdb::{SdbClient, SdbConfig};
use sdb_engine::{QueryOptions, SpEngine};
use sdb_storage::RecordBatch;
use sdb_workload::{all_queries, generate_all, ScaleFactor, SensitivityProfile};

/// A table `t(name, salary)` with `salary` sensitive at the SDB client and
/// the same rows in a plaintext engine.
fn deployments(create: &str, rows: &str) -> (SdbClient, SpEngine) {
    let mut client = SdbClient::new(SdbConfig::test_profile()).expect("client");
    client
        .execute(&format!("CREATE TABLE {create}"))
        .expect("create");
    client.execute(rows).expect("insert");
    client.upload_all().expect("upload");
    let plain = SpEngine::new();
    let plain_create = create.replace(" SENSITIVE", "");
    (plain.execute_sql(&format!("CREATE TABLE {plain_create}"))).expect("plain create");
    plain.execute_sql(rows).expect("plain insert");
    (client, plain)
}

/// The rows of a batch as their values' debug forms, sorted: NULL and the
/// string `'NULL'` stay apart (their renderings do not).
fn rows_of(batch: &RecordBatch) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (batch.rows())
        .map(|row| row.iter().map(|value| format!("{value:?}")).collect())
        .collect();
    rows.sort();
    rows
}

#[test]
fn do_distinct_keeps_null_apart_from_the_string_null() {
    let rows = "INSERT INTO t VALUES (NULL, 5), ('NULL', 5), ('a', 5), ('a\u{1f}b', 5), ('a', 5)";
    let (client, plain) = deployments("t (name VARCHAR(8), salary INT SENSITIVE)", rows);
    for sql in [
        "SELECT DISTINCT name, salary FROM t",
        "SELECT DISTINCT name, salary FROM t ORDER BY name",
    ] {
        let sdb = client.query(sql).expect("sdb");
        let reference = plain.execute_sql(sql).expect("plain").batch;
        assert_eq!(rows_of(&sdb.batch), rows_of(&reference), "{sql}");
        assert_eq!(sdb.batch.num_rows(), 4, "{sql}");
    }
}

#[test]
fn non_ascii_and_quoted_literals_round_trip_through_insert_and_a_lifted_lookup() {
    let rows = "INSERT INTO t VALUES ('é', 1), ('日本', 2), ('it''s', 3), ('plain', 4)";
    let (client, plain) = deployments("t (name VARCHAR(8), salary INT SENSITIVE)", rows);
    let all = "SELECT name, salary FROM t ORDER BY salary";
    let stored = client.query(all).expect("sdb");
    assert_eq!(
        rows_of(&stored.batch),
        rows_of(&plain.execute_sql(all).expect("plain").batch)
    );
    let names: Vec<String> = (stored.rows().iter()).map(|row| row[0].render()).collect();
    assert_eq!(names, ["é", "日本", "it's", "plain"]);
    for (written, salary) in [("'é'", 1), ("'日本'", 2), ("'it''s'", 3)] {
        let sql = format!("SELECT name, salary FROM t WHERE name = {written}");
        assert_eq!(
            client.rewrite_only(&sql).expect("rewrite").lifted(),
            [written],
            "{sql}"
        );
        // Twice: the second lookup replays the shape at both ends.
        for _ in 0..2 {
            let sdb = client.query(&sql).expect("sdb");
            let reference = plain.execute_sql(&sql).expect("plain").batch;
            assert_eq!(rows_of(&sdb.batch), rows_of(&reference), "{sql}");
            assert_eq!(sdb.rows().len(), 1, "{sql}");
            assert_eq!(sdb.rows()[0][1].render(), salary.to_string(), "{sql}");
        }
    }
}

/// At parallelism 1, every span's seam time holds its share kernels' time
/// and fits in its own wall time (microsecond rounding allowed); scans and
/// limits evaluate nothing.
#[test]
fn every_spans_eval_time_holds_its_share_kernels_and_fits_its_own_time() {
    let mut client = SdbClient::new(SdbConfig::test_profile()).expect("client");
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, 7) {
        client.stage_table(table).expect("stage");
    }
    client.upload_all().expect("upload");
    let opts = QueryOptions::default()
        .with_tracing(true)
        .with_parallelism(1);
    let (mut evaluated, mut kernels) = (0, 0);
    for query in all_queries() {
        let traced = client.query_with(query.sql, &opts).expect("query");
        let report = traced.trace.expect("tracing was on");
        for span in &report.spans {
            let x = &span.exclusive;
            let (eval, kernel) = (
                x.eval_time.as_micros() as u64,
                x.share_kernel_time.as_micros() as u64,
            );
            let at = format!("Q{} {}", query.id, span.name);
            assert!(
                kernel <= eval + 1,
                "{at}: kernels {kernel} µs, eval {eval} µs"
            );
            assert!(
                eval <= span.exclusive_us + 2,
                "{at}: eval {eval} µs, self {} µs",
                span.exclusive_us
            );
            if span.name.contains("Scan") || span.name == "Limit" {
                assert_eq!(x.eval_time.as_nanos(), 0, "{at}");
            }
            evaluated += usize::from(x.eval_time.as_nanos() > 0);
            kernels += usize::from(x.share_kernel_rows > 0);
        }
    }
    assert!(evaluated > 22, "{evaluated} spans evaluated");
    assert!(kernels > 0, "the share kernels ran");
}
