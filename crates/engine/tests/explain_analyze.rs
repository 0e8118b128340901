//! Golden-format tests for `EXPLAIN ANALYZE`: the rendered output must keep
//! its stable shape — header line, depth-indented operator lines, per-line
//! `rows=` / `batches=` / `time=` / `(self …)` annotations, estimate-vs-actual
//! deviation after `ANALYZE` — across the budget × parallelism matrix, with
//! spill attribution appearing exactly when a budget forces spilling, and the
//! JSON trace export landing under `SDB_TRACE_DIR`.

use sdb_engine::{ExecConfig, MemoryBudget, SpEngine};

/// The process defaults at one worker.
fn serial() -> ExecConfig {
    ExecConfig {
        parallelism: 1,
        ..ExecConfig::default()
    }
}

/// A three-table star fixture: `fact(id, k1, k2, v)` joined to dimensions
/// `d1(k, name1)` and `d2(k, name2)`, with optimizer statistics collected.
fn engine_with(config: ExecConfig) -> SpEngine {
    let engine = SpEngine::new().with_config(config);
    engine
        .execute_sql("CREATE TABLE fact (id INT, k1 INT, k2 INT, v INT)")
        .unwrap();
    engine
        .execute_sql("CREATE TABLE d1 (k INT, name1 VARCHAR(10))")
        .unwrap();
    engine
        .execute_sql("CREATE TABLE d2 (k INT, name2 VARCHAR(10))")
        .unwrap();
    for chunk in 0..10i64 {
        let rows: Vec<String> = (0..60i64)
            .map(|i| {
                let id = chunk * 60 + i;
                format!("({id}, {}, {}, {})", id % 5, id % 7, id % 100)
            })
            .collect();
        engine
            .execute_sql(&format!("INSERT INTO fact VALUES {}", rows.join(", ")))
            .unwrap();
    }
    for k in 0..5 {
        engine
            .execute_sql(&format!("INSERT INTO d1 VALUES ({k}, 'a{k}')"))
            .unwrap();
    }
    for k in 0..7 {
        engine
            .execute_sql(&format!("INSERT INTO d2 VALUES ({k}, 'b{k}')"))
            .unwrap();
    }
    engine.execute_sql("ANALYZE").unwrap();
    engine
}

const THREE_TABLE_JOIN: &str = "EXPLAIN ANALYZE \
     SELECT d1.name1, d2.name2, f.v FROM fact f \
     JOIN d1 ON f.k1 = d1.k \
     JOIN d2 ON f.k2 = d2.k \
     WHERE f.v > 10 ORDER BY f.id";

/// Runs an `EXPLAIN ANALYZE` statement and returns its rendered plan lines.
fn plan_lines(engine: &SpEngine, sql: &str) -> Vec<String> {
    let out = engine.execute_sql(sql).unwrap();
    assert!(
        out.trace.is_some(),
        "EXPLAIN ANALYZE must carry the full trace report"
    );
    (0..out.batch.num_rows())
        .map(|row| out.batch.column(0).value(row).as_str().unwrap().to_string())
        .collect()
}

/// The acceptance query: a three-table join renders one line per operator
/// with actual rows, wall time, and estimate-vs-actual deviation.
#[test]
fn three_table_join_renders_actuals_and_deviation() {
    let engine = engine_with(serial());
    let lines = plan_lines(&engine, THREE_TABLE_JOIN);

    assert!(
        lines[0].starts_with("analyzed plan ("),
        "header line: {}",
        lines[0]
    );
    assert!(lines[0].contains("rows in"), "header totals: {}", lines[0]);
    let operators = &lines[1..];
    assert!(operators.len() >= 6, "scan x3 + join x2 + sort at least");
    for line in operators {
        assert!(line.contains(" rows="), "actual rows on every line: {line}");
        assert!(line.contains(" batches="), "batch count: {line}");
        assert!(line.contains(" time="), "wall time: {line}");
        assert!(line.contains("(self "), "exclusive share: {line}");
    }
    let joins = operators.iter().filter(|l| l.contains("Join")).count();
    assert_eq!(joins, 2, "two joins in a three-table plan: {operators:?}");
    let scans = operators.iter().filter(|l| l.contains("TableScan")).count();
    assert_eq!(scans, 3, "three scans: {operators:?}");
    // ANALYZE ran, so estimates exist and deviation is rendered (exact on
    // the scans: estimated row counts match actuals, ±0.0%).
    assert!(
        operators.iter().any(|l| l.contains("est\u{2248}")),
        "estimate-vs-actual must be present: {operators:?}"
    );
    assert!(
        operators.iter().any(|l| l.contains("%)")),
        "deviation percentage must be present: {operators:?}"
    );
    let fact_scan = operators
        .iter()
        .find(|l| l.contains("TableScan rows=600"))
        .expect("the fact scan produces all 600 rows");
    assert!(
        fact_scan.contains("est\u{2248}600 (+0.0%)"),
        "analyzed scan estimate is exact: {fact_scan}"
    );
}

/// Rendering keeps its shape across the budget × parallelism matrix; a
/// 4 KiB budget additionally surfaces per-operator spill attribution.
#[test]
fn rendering_is_stable_across_budget_and_parallelism_matrix() {
    for budget in [Some(4 * 1024), None] {
        for parallelism in [1, 4] {
            // Explicitly unlimited without a budget, so a CI-level
            // SDB_TEST_MEM_BUDGET cannot leak in.
            let memory_budget = budget.map_or_else(MemoryBudget::unlimited, MemoryBudget::bytes);
            let engine = engine_with(ExecConfig {
                parallelism,
                memory_budget,
                ..ExecConfig::default()
            });
            let lines = plan_lines(&engine, THREE_TABLE_JOIN);
            let knobs = format!("budget={budget:?} parallelism={parallelism}");

            assert!(
                lines[0].starts_with("analyzed plan ("),
                "{knobs}: {lines:?}"
            );
            for line in &lines[1..] {
                assert!(line.contains(" rows="), "{knobs}: {line}");
                assert!(line.contains(" time="), "{knobs}: {line}");
            }
            assert!(
                lines[1..].iter().any(|l| l.contains("est\u{2248}")),
                "{knobs}: estimates must render"
            );
            let spilled = lines[1..].iter().any(|l| l.contains("spill["));
            match budget {
                Some(_) => assert!(
                    spilled,
                    "{knobs}: a 4 KiB budget must spill and be attributed: {lines:?}"
                ),
                None => assert!(!spilled, "{knobs}: unlimited budget must not spill"),
            }
        }
    }
}

/// Plain queries (no `EXPLAIN ANALYZE`) carry no trace unless tracing is on;
/// with `ExecConfig::tracing` on the same query reports a span tree whose root
/// accounts for every output row. The knob is set explicitly on both sides
/// so the test holds under the CI `SDB_TRACE=1` leg too.
#[test]
fn plain_queries_trace_only_when_asked() {
    let engine = engine_with(ExecConfig {
        tracing: false,
        ..serial()
    });
    let sql = "SELECT v FROM fact WHERE v > 50 ORDER BY id";
    let untraced = engine.execute_sql(sql).unwrap();
    assert!(untraced.trace.is_none(), "tracing off records nothing");

    let traced_engine = engine_with(ExecConfig {
        tracing: true,
        ..serial()
    });
    let traced = traced_engine.execute_sql(sql).unwrap();
    assert_eq!(untraced.batch, traced.batch, "tracing never changes output");
    let report = traced.trace.expect("tracing was on");
    let root = &report.spans[report.root.unwrap()];
    assert_eq!(root.rows_out, traced.batch.num_rows());
    assert!(root.batches_out > 0);
}

/// `SDB_TRACE_DIR` exports each traced query's report as a JSON file with
/// the stable schema (it parses back into a `TraceReport`).
#[test]
fn trace_dir_exports_json_reports() {
    let dir = std::env::temp_dir().join(format!("sdb-trace-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("SDB_TRACE_DIR", &dir);
    let engine = engine_with(serial());
    let lines = plan_lines(&engine, THREE_TABLE_JOIN);
    std::env::remove_var("SDB_TRACE_DIR");
    assert!(!lines.is_empty());

    let exported: Vec<_> = std::fs::read_dir(&dir)
        .expect("SDB_TRACE_DIR must be created")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    assert!(!exported.is_empty(), "at least the analyzed query exported");
    for path in &exported {
        let text = std::fs::read_to_string(path).unwrap();
        let report: sdb_engine::TraceReport = serde_json::from_str(&text).unwrap();
        assert!(
            !report.spans.is_empty(),
            "exported trace has spans: {path:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An equality on a public column reads through its index: `EXPLAIN` names
/// the index scan and its column, `EXPLAIN ANALYZE` gives it the rows it
/// emitted (and counts only those as scanned), and its trace span carries
/// the same label — a `Scan` name, which tooling files under scans.
#[test]
fn index_scans_name_their_column_and_count_the_rows_they_emit() {
    let engine = engine_with(serial());
    let out = engine
        .execute_sql("EXPLAIN SELECT v FROM fact WHERE id = 42")
        .unwrap();
    let explained: Vec<String> = (0..out.batch.num_rows())
        .map(|row| out.batch.column(0).value(row).as_str().unwrap().to_string())
        .collect();
    assert!(
        explained.iter().any(|l| l.trim() == "IndexScan(fact.id)"),
        "{explained:?}"
    );

    let lines = plan_lines(
        &engine,
        "EXPLAIN ANALYZE SELECT v FROM fact WHERE k1 IN (3, 4)",
    );
    let scan = (lines.iter())
        .find(|l| l.trim_start().starts_with("IndexScan(fact.k1) "))
        .unwrap_or_else(|| panic!("an index scan line: {lines:?}"));
    assert!(
        scan.contains(" rows=240 "),
        "two keys of five over 600 rows: {scan}"
    );
    assert!(scan.contains(" cols=2/4"), "{scan}");
    let out = engine
        .execute_sql("EXPLAIN ANALYZE SELECT v FROM fact WHERE k1 IN (3, 4)")
        .unwrap();
    assert_eq!(out.stats.rows_scanned, 240);
    let report = out.trace.expect("EXPLAIN ANALYZE carries its trace");
    let span = (report.spans.iter())
        .find(|s| s.name.starts_with("IndexScan"))
        .expect("an index scan span");
    assert_eq!(span.name, "IndexScan(fact.k1)");
    assert_eq!(span.rows_out, 240);
}
