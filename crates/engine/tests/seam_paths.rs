//! The operator paths the benchmark never runs, through the expression
//! seam: a nested-loop join with an ON predicate (one predicate call per
//! left row and right page) against a reference built row by row here, and
//! an external sort on VARCHAR, DECIMAL, DATE and computed keys against the
//! in-memory sort — each unbudgeted and at a 64-byte lease, where the join's
//! right side is paged and the sort spills its runs — and at a 2 KiB lease,
//! where a run appends several batches.

use std::sync::Arc;

use sdb_engine::planner::{execute_plan, PhysicalPlanner};
use sdb_engine::{ExecConfig, ExecContext, ExecutionStats, MemoryBudget, UdfRegistry};
use sdb_sql::plan::PlanBuilder;
use sdb_sql::{parse_sql, Statement};
use sdb_storage::{Catalog, ColumnDef, DataType, RecordBatch, Schema, Value};

/// Deterministic pseudo-random stream (no RNG dependency in the data).
fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

/// `l(a, s)` and `r(b, t)`: small INT and VARCHAR columns with NULLs and
/// repeated values.
fn join_rows() -> (Vec<[Value; 2]>, Vec<[Value; 2]>) {
    let cell = |i: u64, modulus: u64| match mix(i) % modulus {
        0 => [Value::Null, Value::Str(format!("s{}", i % 3))],
        1 => [Value::Int((i % 5) as i64), Value::Null],
        k => [Value::Int(k as i64 % 6), Value::Str(format!("s{}", k % 4))],
    };
    let left = (0..13).map(|i| cell(i, 9)).collect();
    let right = (100..111).map(|i| cell(i, 7)).collect();
    (left, right)
}

fn table(catalog: &Catalog, name: &str, columns: [(&str, DataType); 2], rows: &[[Value; 2]]) {
    let defs = columns.map(|(column, data_type)| ColumnDef::public(column, data_type));
    let table = catalog
        .create_table(name, Schema::new(defs.to_vec()))
        .unwrap();
    let mut table = table.write();
    for row in rows {
        table.insert_row(row.to_vec()).unwrap();
    }
}

fn run(
    catalog: &Catalog,
    sql: &str,
    budget: MemoryBudget,
    batch_size: usize,
) -> (String, RecordBatch, ExecutionStats) {
    let Statement::Query(query) = parse_sql(sql).unwrap() else {
        panic!("a query: {sql}");
    };
    let registry = UdfRegistry::with_sdb_udfs();
    let config = ExecConfig {
        memory_budget: budget,
        optimizer: false,
        parallelism: 1,
        batch_size,
        ..ExecConfig::default()
    };
    let ctx = Arc::new(ExecContext::new(
        catalog, &registry, None, config, None, None,
    ));
    let plan = PlanBuilder::build(&query).unwrap();
    let tree = (PhysicalPlanner::new(Arc::clone(&ctx)).plan(&plan))
        .unwrap()
        .describe();
    let batch = execute_plan(&ctx, &plan).unwrap();
    (tree, batch, ctx.stats())
}

/// The two rows' INT cells, when neither is NULL.
fn ints(l: &[Value; 2], r: &[Value; 2]) -> Option<(i64, i64)> {
    match (&l[0], &r[0]) {
        (Value::Int(a), Value::Int(b)) => Some((*a, *b)),
        _ => None,
    }
}

/// The two rows' VARCHAR cells, when neither is NULL.
fn texts<'v>(l: &'v [Value; 2], r: &'v [Value; 2]) -> Option<(&'v str, &'v str)> {
    match (&l[1], &r[1]) {
        (Value::Str(s), Value::Str(t)) => Some((s, t)),
        _ => None,
    }
}

/// The join's answer built row by row: left rows in order, each one's
/// matches in right-row order, a NULL-padded row for an unmatched left row
/// of a LEFT JOIN.
fn reference(
    left: &[[Value; 2]],
    right: &[[Value; 2]],
    outer: bool,
    keep: impl Fn(&[Value; 2], &[Value; 2]) -> bool,
) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for l in left {
        let before = rows.len();
        for r in right.iter().filter(|r| keep(l, r)) {
            rows.push([l.clone(), r.clone()].concat());
        }
        if outer && rows.len() == before {
            rows.push([l.clone(), [Value::Null, Value::Null]].concat());
        }
    }
    rows
}

type Keep = fn(&[Value; 2], &[Value; 2]) -> bool;

#[test]
fn nested_loop_joins_with_an_on_predicate_match_a_row_by_row_reference() {
    let (left, right) = join_rows();
    let catalog = Catalog::new();
    table(
        &catalog,
        "l",
        [("a", DataType::Int), ("s", DataType::Varchar)],
        &left,
    );
    table(
        &catalog,
        "r",
        [("b", DataType::Int), ("t", DataType::Varchar)],
        &right,
    );
    let cases: [(&str, bool, Keep, bool); 6] = [
        (
            "JOIN r ON l.a > r.b",
            false,
            |l, r| ints(l, r).is_some_and(|(a, b)| a > b),
            false,
        ),
        (
            "LEFT JOIN r ON l.a < r.b",
            true,
            |l, r| ints(l, r).is_some_and(|(a, b)| a < b),
            false,
        ),
        // A UDF in the predicate: one call per pair, the interpreter's count.
        (
            "JOIN r ON ABS(l.a - r.b) <= 1",
            false,
            |l, r| ints(l, r).is_some_and(|(a, b)| (a - b).abs() <= 1),
            true,
        ),
        // NULL keys on both sides of a disjunction.
        (
            "JOIN r ON l.a = r.b OR l.s = r.t",
            false,
            |l, r| {
                ints(l, r).is_some_and(|(a, b)| a == b) || texts(l, r).is_some_and(|(s, t)| s == t)
            },
            false,
        ),
        (
            "LEFT JOIN r ON l.s <> r.t",
            true,
            |l, r| texts(l, r).is_some_and(|(s, t)| s != t),
            false,
        ),
        // The residual LEFT JOIN: an equality beside a non-equi conjunct.
        (
            "LEFT JOIN r ON l.a = r.b AND l.s < r.t",
            true,
            |l, r| {
                ints(l, r).is_some_and(|(a, b)| a == b) && texts(l, r).is_some_and(|(s, t)| s < t)
            },
            false,
        ),
    ];
    for (join, outer, keep, calls_udf) in cases {
        let sql = format!("SELECT l.a, l.s, r.b, r.t FROM l {join}");
        let expected = reference(&left, &right, outer, keep);
        for (budget, paged) in [
            (MemoryBudget::unlimited(), false),
            (MemoryBudget::bytes(64), true),
        ] {
            let (tree, batch, stats) = run(&catalog, &sql, budget, 4);
            assert!(tree.contains("NestedLoopJoin"), "{sql}: {tree}");
            assert_eq!(batch.rows().collect::<Vec<_>>(), expected, "{sql}");
            assert_eq!(stats.peak_resident_pages > 0, paged, "{sql}");
            let pairs = left.len() * right.len();
            assert_eq!(stats.udf_calls, if calls_udf { pairs } else { 0 }, "{sql}");
        }
    }
}

/// `k(id, s, d, dt)`: VARCHAR, DECIMAL and DATE sort keys with NULLs and
/// many ties.
fn sort_catalog() -> Catalog {
    let catalog = Catalog::new();
    let k = catalog
        .create_table(
            "k",
            Schema::new(vec![
                ColumnDef::public("id", DataType::Int),
                ColumnDef::public("s", DataType::Varchar),
                ColumnDef::public("d", DataType::Decimal { scale: 2 }),
                ColumnDef::public("dt", DataType::Date),
            ]),
        )
        .unwrap();
    let mut k = k.write();
    for i in 0..300u64 {
        let r = mix(i);
        let null = |salt: u64| (r >> salt).is_multiple_of(9);
        k.insert_row(vec![
            Value::Int(i as i64),
            match null(3) {
                true => Value::Null,
                false => Value::Str(format!("name{}", r % 17)),
            },
            match null(7) {
                true => Value::Null,
                false => Value::Decimal {
                    units: (r % 2_000) as i64 - 1_000,
                    scale: 2,
                },
            },
            match null(11) {
                true => Value::Null,
                false => Value::Date(9_000 + (r % 800) as i32),
            },
        ])
        .unwrap();
    }
    drop(k);
    catalog
}

/// What each query's spill wrote at the 64-byte lease (64-row pages) when
/// every sort key, a column reference too, was copied into a column of its
/// own: a key that is a column reference is now read from that column, so
/// a query may only write fewer bytes.
const COPIED_KEY_SPILL_BYTES: [usize; 5] = [10_711, 10_648, 7_842, 14_448, 16_269];

#[test]
fn external_sorts_on_typed_and_computed_keys_equal_the_in_memory_sort() {
    let catalog = sort_catalog();
    let queries = [
        "SELECT id, s FROM k ORDER BY s DESC, id",
        "SELECT id, d FROM k ORDER BY d, id DESC",
        "SELECT id, dt FROM k ORDER BY dt DESC, id",
        "SELECT id, d, dt FROM k ORDER BY YEAR(dt), d * 3 - id, id",
        "SELECT id, s, d FROM k ORDER BY s, d DESC, id",
    ];
    for (sql, copied_bytes) in queries.into_iter().zip(COPIED_KEY_SPILL_BYTES) {
        let (_, in_memory, unbudgeted) = run(&catalog, sql, MemoryBudget::unlimited(), 64);
        assert_eq!(unbudgeted.spill_bytes_written, 0, "{sql}");
        assert_eq!(in_memory.num_rows(), 300, "{sql}");
        let (tree, spilled, stats) = run(&catalog, sql, MemoryBudget::bytes(64), 64);
        assert!(tree.contains("Sort"), "{tree}");
        assert_eq!(spilled, in_memory, "{sql}");
        assert!(stats.spill_bytes_written > 0, "{sql}: the runs spilled");
        assert!(
            stats.spill_bytes_written <= copied_bytes,
            "{sql}: {} spill bytes",
            stats.spill_bytes_written
        );
        assert_eq!(stats.udf_calls, unbudgeted.udf_calls, "{sql}");
    }
}

/// `m(id, d)`: a DECIMAL column NULL in every row of the first batches, so
/// a computed key over it starts all NULL (or an INT) and turns DECIMAL.
fn late_decimal_catalog() -> Catalog {
    let catalog = Catalog::new();
    let m = catalog
        .create_table(
            "m",
            Schema::new(vec![
                ColumnDef::public("id", DataType::Int),
                ColumnDef::public("d", DataType::Decimal { scale: 2 }),
            ]),
        )
        .unwrap();
    let mut m = m.write();
    for i in 0..200u64 {
        let d = match i < 40 || mix(i).is_multiple_of(7) {
            true => Value::Null,
            false => Value::Decimal {
                units: (mix(i) % 900) as i64 - 450,
                scale: 2,
            },
        };
        m.insert_row(vec![Value::Int(i as i64), d]).unwrap();
    }
    drop(m);
    catalog
}

#[test]
fn a_run_of_several_batches_keeps_one_type_per_computed_key() {
    // At 16-row batches and a 2 KiB lease each run holds several batches,
    // and the first ones' computed keys are all NULL or all INT.
    let catalog = late_decimal_catalog();
    let queries = [
        "SELECT id, d FROM m ORDER BY d * 3 - id, id",
        "SELECT id, d FROM m ORDER BY CASE WHEN id < 40 THEN 0 ELSE d END DESC, id",
        "SELECT id, d FROM m ORDER BY d, id DESC",
    ];
    // What each spill wrote when every key was copied into a column.
    let copied_key_spill_bytes = [7_776, 7_848, 7_776];
    for (sql, copied_bytes) in queries.into_iter().zip(copied_key_spill_bytes) {
        let (_, in_memory, _) = run(&catalog, sql, MemoryBudget::unlimited(), 16);
        assert_eq!(in_memory.num_rows(), 200, "{sql}");
        let (_, spilled, stats) = run(&catalog, sql, MemoryBudget::bytes(2_048), 16);
        assert!(stats.spill_bytes_written > 0, "{sql}: the runs spilled");
        assert_eq!(spilled, in_memory, "{sql}");
        assert!(stats.spill_bytes_written <= copied_bytes, "{sql}");
    }
}
