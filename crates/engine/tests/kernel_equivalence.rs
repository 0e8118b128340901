//! Kernel-vs-scalar equivalence: every vectorised kernel (selection, join /
//! group key rendering, global aggregation) must be **byte-identical** to the
//! scalar interpreter it fast-paths, over NULL-heavy columns of every typed
//! vector variant.
//!
//! A proptest drives randomly generated tables (~30% NULLs per column, mixed
//! INT-in-DECIMAL representations, strings with LIKE metacharacters in the
//! data) through a fixed query battery twice — `with_vectorised(true)` vs
//! `with_vectorised(false)` — and asserts raw batch equality, *without* ORDER
//! BY: group first-occurrence order, join match order and row order are part
//! of the contract. Deterministic tests pin the selection bitmap's word
//! boundaries (row counts ≡ 0, 1 and 63 mod 64) and the parallel morsel
//! paths.

use std::sync::Arc;

use proptest::prelude::*;

use sdb_engine::planner::execute_plan;
use sdb_engine::{ExecConfig, ExecContext, UdfRegistry};
use sdb_sql::plan::PlanBuilder;
use sdb_sql::{parse_sql, Statement};
use sdb_storage::{Catalog, ColumnDef, DataType, RecordBatch, Schema, Value};

/// The query battery: every kernel family and every fallback-worthy shape.
const QUERIES: &[&str] = &[
    // Selection: numeric comparisons (INT, DECIMAL with mixed element
    // scales, DATE), string comparison, Kleene AND/OR, NOT, IS [NOT] NULL,
    // IN lists, BETWEEN, LIKE, bare and negated boolean columns.
    "SELECT i FROM t WHERE i > 10",
    "SELECT i FROM t WHERE i <= -25",
    "SELECT i, d FROM t WHERE d >= 1.25",
    "SELECT i FROM t WHERE d < 30",
    "SELECT i FROM t WHERE dt > DATE '1970-04-10'",
    "SELECT i, s FROM t WHERE s = 'ab'",
    "SELECT i FROM t WHERE s < 'b'",
    "SELECT i FROM t WHERE i > 0 AND d < 20",
    "SELECT i FROM t WHERE i < -50 OR s = 'cc'",
    "SELECT i FROM t WHERE NOT (i > 0)",
    "SELECT i FROM t WHERE i IS NULL",
    "SELECT i FROM t WHERE s IS NOT NULL",
    "SELECT i FROM t WHERE i IN (1, 2, 3, -7)",
    "SELECT i FROM t WHERE i NOT IN (0, 5)",
    "SELECT i FROM t WHERE s IN ('a', 'bb', 'zz')",
    "SELECT i FROM t WHERE i BETWEEN -10 AND 40",
    "SELECT i FROM t WHERE i NOT BETWEEN 0 AND 9",
    "SELECT i, s FROM t WHERE s LIKE 'a%'",
    "SELECT i FROM t WHERE s NOT LIKE '%b'",
    "SELECT i FROM t WHERE b",
    "SELECT i FROM t WHERE NOT b",
    "SELECT i FROM t WHERE b = TRUE",
    // Mixed-class comparison: must *fall back* and surface the scalar
    // path's NULL-propagation before any per-row type error on valid rows
    // is even possible (all-NULL operands short-circuit identically).
    "SELECT i FROM t WHERE i IS NULL AND s IS NULL",
    // Key kernels: hash join build + probe over every key type, NULL keys
    // never matching; LEFT JOIN null padding; grouped aggregation with NULL
    // groups (NULL groups exist) and multi-column keys.
    "SELECT a.i, b.i FROM t a JOIN t b ON a.g = b.g",
    "SELECT a.i, b.s FROM t a JOIN t b ON a.s = b.s",
    "SELECT a.i, b.i FROM t a LEFT JOIN t b ON a.i = b.i",
    "SELECT a.i, b.i FROM t a JOIN t b ON a.g = b.g AND a.b = b.b",
    "SELECT g, COUNT(*) AS n FROM t GROUP BY g",
    "SELECT g, b, COUNT(*) AS n, SUM(i) AS si FROM t GROUP BY g, b",
    "SELECT s, MIN(i) AS lo, MAX(d) AS hi FROM t GROUP BY s",
    // Global aggregation kernels: COUNT(*) vs COUNT(col), SUM/AVG over
    // mixed INT/DECIMAL representations, MIN/MAX over every variant
    // (first-minimum / last-maximum tie rules), DISTINCT fallback.
    "SELECT COUNT(*) AS c, COUNT(i) AS ci, SUM(i) AS si, AVG(i) AS ai, \
     MIN(i) AS mi, MAX(i) AS xi FROM t",
    "SELECT SUM(d) AS sd, AVG(d) AS ad, MIN(d) AS md, MAX(d) AS xd FROM t",
    "SELECT MIN(s) AS ms, MAX(s) AS xs, MIN(b) AS mb, MAX(b) AS xb, \
     MIN(dt) AS mdt, MAX(dt) AS xdt FROM t",
    "SELECT COUNT(DISTINCT g) AS dg, SUM(i) AS si FROM t",
    "SELECT COUNT(*) AS c FROM t WHERE i > 100000",
];

/// One generated row: (i INT, d DECIMAL(2), s VARCHAR, b BOOL, dt DATE,
/// g INT).
type Row = (
    Option<i64>,
    Option<Value>,
    Option<String>,
    Option<bool>,
    Option<i32>,
    Option<i64>,
);

fn table_of(rows: &[Row]) -> Catalog {
    let catalog = Catalog::new();
    let t = catalog
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::public("i", DataType::Int),
                ColumnDef::public("d", DataType::Decimal { scale: 2 }),
                ColumnDef::public("s", DataType::Varchar),
                ColumnDef::public("b", DataType::Bool),
                ColumnDef::public("dt", DataType::Date),
                ColumnDef::public("g", DataType::Int),
            ]),
        )
        .unwrap();
    let mut guard = t.write();
    let lift = |v: Option<Value>| v.unwrap_or(Value::Null);
    for (i, d, s, b, dt, g) in rows {
        guard
            .insert_row(vec![
                lift(i.map(Value::Int)),
                lift(d.clone()),
                lift(s.clone().map(Value::Str)),
                lift(b.map(Value::Bool)),
                lift(dt.map(Value::Date)),
                lift(g.map(Value::Int)),
            ])
            .unwrap();
    }
    drop(guard);
    catalog
}

/// Runs one query; errors are part of the observable contract, so they are
/// returned (as their display text) rather than panicking — e.g. MIN/MAX
/// over mixed INT/DECIMAL groups errors on the scalar path and the kernels
/// must surface the identical error.
fn run(
    catalog: &Catalog,
    sql: &str,
    vectorised: bool,
    parallelism: usize,
) -> Result<RecordBatch, String> {
    let registry = UdfRegistry::with_sdb_udfs();
    let ctx = Arc::new(ExecContext::new(
        catalog,
        &registry,
        None,
        ExecConfig {
            vectorised,
            parallelism,
            ..ExecConfig::default()
        },
        None,
        None,
    ));
    let plan = match parse_sql(sql).unwrap() {
        Statement::Query(q) => PlanBuilder::build(&q).unwrap(),
        other => panic!("expected query, got {other:?}"),
    };
    execute_plan(&ctx, &plan).map_err(|e| e.to_string())
}

/// Runs the full battery with kernels on and off and asserts raw equality —
/// of the output batch *and* of any error.
fn cross_check(catalog: &Catalog, parallelism: usize) {
    for sql in QUERIES {
        let scalar = run(catalog, sql, false, parallelism);
        let vectorised = run(catalog, sql, true, parallelism);
        assert_eq!(
            scalar, vectorised,
            "kernel diverged from scalar (parallelism={parallelism}) for: {sql}"
        );
    }
}

/// Expands one 64-bit seed into a NULL-heavy row (~25% NULLs per column).
///
/// DECIMAL(2) cells alternate between `Int` (the scale-0 short form the
/// loader writes for whole numbers) and `Decimal { scale: 2 }` elements —
/// the kernels must reproduce the scalar path's mixed-scale arithmetic.
/// Strings include LIKE metacharacters (`a%b`) as *data*.
fn row_from(r: u64) -> Row {
    let strings = ["a", "ab", "abc", "b", "bb", "cc", "zz", "a%b", "", "ba"];
    let keep = |bit: u64| r >> bit & 3 != 0; // ~25% NULLs per column
    (
        keep(0).then_some((r % 199) as i64 - 99),
        keep(2).then_some(if r.is_multiple_of(3) {
            Value::Int((r % 120) as i64 - 60)
        } else {
            Value::Decimal {
                units: (r % 12_000) as i64 - 6_000,
                scale: 2,
            }
        }),
        keep(4).then_some(strings[(r % strings.len() as u64) as usize].to_owned()),
        keep(6).then_some(r & 16 != 0),
        keep(8).then_some((r % 400) as i32),
        keep(10).then_some((r % 5) as i64),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// The acceptance property: over random NULL-heavy tables, every query
    /// in the battery is byte-identical with kernels on vs off.
    #[test]
    fn kernels_match_scalar_on_random_null_heavy_tables(
        seeds in proptest::collection::vec(any::<u64>(), 1..96)
    ) {
        let rows: Vec<Row> = seeds.into_iter().map(row_from).collect();
        let catalog = table_of(&rows);
        cross_check(&catalog, 1);
    }
}

/// Deterministic NULL-heavy rows for the word-boundary and parallel tests.
fn deterministic_rows(n: usize) -> Vec<Row> {
    let mix = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
    (0..n).map(|i| row_from(mix(i as u64))).collect()
}

/// Selection bitmaps pack 64 rows per word: row counts congruent to 0, 1 and
/// 63 mod 64 pin the tail-word masking on both sides of every boundary.
#[test]
fn word_boundary_row_counts_match_scalar() {
    for n in [63, 64, 65, 127, 128, 129] {
        let catalog = table_of(&deterministic_rows(n));
        cross_check(&catalog, 1);
    }
}

/// The engagement counters prove which path actually ran: kernels-on runs
/// engage the vectorised paths for every kernel family, kernels-off runs
/// never do (and count their scalar batches instead), and a shape no kernel
/// compiles falls back even with kernels on. The budget is pinned unlimited
/// — the spilling operator variants prepare rows outside the kernel paths,
/// so engagement is only guaranteed for the in-memory operators.
#[test]
fn engagement_counters_record_which_path_ran() {
    let catalog = table_of(&deterministic_rows(128));
    let registry = UdfRegistry::with_sdb_udfs();
    let run_counted = |sql: &str, vectorised: bool| {
        let ctx = Arc::new(ExecContext::new(
            &catalog,
            &registry,
            None,
            ExecConfig {
                vectorised,
                memory_budget: sdb_storage::MemoryBudget::unlimited(),
                ..ExecConfig::default()
            },
            None,
            None,
        ));
        let plan = match parse_sql(sql).unwrap() {
            Statement::Query(q) => PlanBuilder::build(&q).unwrap(),
            other => panic!("expected query, got {other:?}"),
        };
        execute_plan(&ctx, &plan).unwrap();
        ctx.stats()
    };
    for sql in [
        "SELECT i FROM t WHERE i > 10",                   // selection kernel
        "SELECT a.i, b.i FROM t a JOIN t b ON a.g = b.g", // join key kernel
        "SELECT g, COUNT(*) AS n FROM t GROUP BY g",      // group key kernel
        "SELECT COUNT(*) AS c, SUM(i) AS si FROM t",      // global agg kernel
    ] {
        let on = run_counted(sql, true);
        assert!(on.vectorised_batches > 0, "kernels must engage for: {sql}");
        let off = run_counted(sql, false);
        assert_eq!(
            off.vectorised_batches, 0,
            "kernels-off must never engage for: {sql}"
        );
        assert!(
            off.scalar_fallback_batches > 0,
            "the scalar path must be counted for: {sql}"
        );
    }
    // Arithmetic in the predicate: outside the selection kernel's
    // column-vs-literal subset, so it falls back (and says so) even with
    // kernels on.
    let fallback = run_counted("SELECT i FROM t WHERE i - 5 > 10", true);
    assert!(fallback.scalar_fallback_batches > 0);
}

/// The kernels compose with morsel parallelism: batch-level fast paths fire
/// inside parallel workers and the merged output still matches the serial
/// scalar reference.
#[test]
fn kernels_match_scalar_under_parallelism() {
    let catalog = table_of(&deterministic_rows(257));
    cross_check(&catalog, 4);
    // Cross-parallelism: vectorised parallel vs scalar serial. Skip queries
    // that error (error text can legitimately differ across parallelism).
    for sql in QUERIES {
        let reference = run(&catalog, sql, false, 1);
        if reference.is_err() {
            continue;
        }
        let got = run(&catalog, sql, true, 4);
        assert_eq!(reference, got, "parallel kernel diverged for: {sql}");
    }
}
