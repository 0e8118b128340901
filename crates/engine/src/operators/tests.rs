//! Unit tests for the individual physical operators: empty inputs, single
//! batches, and multi-batch boundaries.

use std::sync::Arc;

use sdb_sql::ast::{BinaryOp, Expr, JoinKind, Literal};
use sdb_sql::plan::{AggFunc, AggregateExpr, ProjectionItem, SortKey};
use sdb_storage::{Catalog, ColumnDef, DataType, MemoryBudget, RecordBatch, Schema, Value};

use super::aggregate::HashAggregate;
use super::filter::Filter;
use super::join::{HashJoin, NestedLoopJoin};
use super::project::Project;
use super::scan::TableScan;
use super::sort::{Distinct, Limit, Sort};
use super::{drain_operator, BoxedOperator, ExecContext, PhysicalOperator};
use crate::secure::OracleRef;
use crate::udf::UdfRegistry;
use crate::{ExecConfig, Result};

fn registry() -> UdfRegistry {
    UdfRegistry::with_sdb_udfs()
}

/// A context under `config` on a private pool.
fn context<'a>(
    catalog: &'a Catalog,
    reg: &'a UdfRegistry,
    oracle: Option<OracleRef>,
    config: ExecConfig,
) -> Arc<ExecContext<'a>> {
    Arc::new(ExecContext::new(catalog, reg, oracle, config, None, None))
}

fn catalog_with_numbers(rows: &[(i64, i64)]) -> Catalog {
    let catalog = Catalog::new();
    let schema = Schema::new(vec![
        ColumnDef::public("a", DataType::Int),
        ColumnDef::public("b", DataType::Int),
    ]);
    let table = catalog.create_table("numbers", schema).unwrap();
    let mut guard = table.write();
    for &(a, b) in rows {
        guard
            .insert_row(vec![Value::Int(a), Value::Int(b)])
            .unwrap();
    }
    drop(guard);
    catalog
}

fn col(name: &str) -> Expr {
    Expr::Column(name.to_string())
}

fn int(v: i64) -> Expr {
    Expr::Literal(Literal::Int(v))
}

/// A source operator replaying a fixed list of batches (for operators whose
/// inputs are easier to stage directly than through a scan).
struct FixedBatches {
    batches: Vec<RecordBatch>,
    next: usize,
}

impl FixedBatches {
    fn new(batches: Vec<RecordBatch>) -> Self {
        FixedBatches { batches, next: 0 }
    }

    fn boxed<'a>(batches: Vec<RecordBatch>) -> BoxedOperator<'a> {
        Box::new(FixedBatches::new(batches))
    }
}

impl PhysicalOperator for FixedBatches {
    fn name(&self) -> &'static str {
        "FixedBatches"
    }
    fn open(&mut self) -> Result<()> {
        self.next = 0;
        Ok(())
    }
    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        let batch = self.batches.get(self.next).cloned();
        self.next += 1;
        Ok(batch)
    }
    fn close(&mut self) -> Result<()> {
        Ok(())
    }
}

fn int_batches(schema: &Schema, chunks: &[&[(i64, i64)]]) -> Vec<RecordBatch> {
    chunks
        .iter()
        .map(|chunk| {
            RecordBatch::from_rows(
                schema.clone(),
                chunk
                    .iter()
                    .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
                    .collect(),
            )
            .unwrap()
        })
        .collect()
}

fn ab_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::public("a", DataType::Int),
        ColumnDef::public("b", DataType::Int),
    ])
}

// ---------------------------------------------------------------------------
// TableScan
// ---------------------------------------------------------------------------

#[test]
fn scan_chunks_by_batch_size() {
    let rows: Vec<(i64, i64)> = (0..5).map(|i| (i, i * 10)).collect();
    let catalog = catalog_with_numbers(&rows);
    let reg = registry();
    let ctx = context(
        &catalog,
        &reg,
        None,
        ExecConfig {
            batch_size: 2,
            ..ExecConfig::default()
        },
    );
    let mut scan = TableScan::new(Arc::clone(&ctx), "numbers", None);
    scan.open().unwrap();
    let sizes: Vec<usize> = std::iter::from_fn(|| scan.next_batch().unwrap())
        .map(|b| b.num_rows())
        .collect();
    scan.close().unwrap();
    assert_eq!(sizes, vec![2, 2, 1]);
    assert_eq!(ctx.stats().rows_scanned, 5);
}

#[test]
fn scan_of_empty_table_emits_schema_batch() {
    let catalog = catalog_with_numbers(&[]);
    let reg = registry();
    let ctx = context(&catalog, &reg, None, ExecConfig::default());
    let mut scan = TableScan::new(ctx, "numbers", Some("n"));
    let batch = drain_operator(&mut scan).unwrap();
    assert_eq!(batch.num_rows(), 0);
    assert_eq!(batch.schema().column_at(0).name, "n.a");
}

#[test]
fn scanned_batches_are_windows_onto_the_tables_buffers() {
    let rows: Vec<(i64, i64)> = (0..10).map(|i| (i, i * 10)).collect();
    let catalog = catalog_with_numbers(&rows);
    let reg = registry();
    let ctx = context(
        &catalog,
        &reg,
        None,
        ExecConfig {
            batch_size: 4,
            ..ExecConfig::default()
        },
    );
    let handle = catalog.table("numbers").unwrap();

    // Only `b` is referenced: the scan reads that one column.
    let mut scan =
        TableScan::new(Arc::clone(&ctx), "numbers", None).reading(Some(vec!["B".into()]));
    scan.open().unwrap();
    let mut seen = 0;
    while let Some(batch) = scan.next_batch().unwrap() {
        assert_eq!(batch.schema().column_at(0).name, "numbers.b");
        assert_eq!(batch.num_columns(), 1);
        assert_eq!(batch.column(0).get(0), &Value::Int(seen * 10));
        seen += batch.num_rows() as i64;
        // No cell was copied on the way here, nor by anything downstream
        // that only narrows or shares.
        let stored = handle.read();
        let derived = [
            batch.clone(),
            batch.slice(1, 1).unwrap(),
            batch.limit(2),
            batch.project(&[0]),
            batch.filter(&vec![true; batch.num_rows()]).unwrap(),
        ];
        for batch in &derived {
            assert!(batch.column(0).shares_buffer(stored.column("b").unwrap()));
        }
    }
    scan.close().unwrap();
    assert_eq!(seen, 10);
    let stats = ctx.stats();
    assert_eq!((stats.scan_columns_read, stats.scan_columns_total), (1, 2));
    assert_eq!(stats.rows_scanned, 10);
}

/// Plans must be able to cross threads: `PhysicalOperator` has `Send` as a
/// supertrait, so a boxed operator tree is `Send` (compile-time check).
#[test]
fn operator_trees_are_send() {
    fn assert_send<T: Send>(_: &T) {}
    let batches = int_batches(&ab_schema(), &[&[(1, 1)]]);
    let op: BoxedOperator<'static> = FixedBatches::boxed(batches);
    assert_send(&op);
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

#[test]
fn filter_across_batches_and_empty_input() {
    let catalog = Catalog::new();
    let reg = registry();
    let ctx = context(&catalog, &reg, None, ExecConfig::default());
    let schema = ab_schema();

    // Predicate a > 2 over batches [(1,1),(3,3)] and [(5,5)].
    let input = FixedBatches::boxed(int_batches(&schema, &[&[(1, 1), (3, 3)], &[(5, 5)]]));
    let predicate = Expr::binary(col("a"), BinaryOp::Gt, int(2));
    let mut filter = Filter::new(Arc::clone(&ctx), input, predicate.clone());
    let out = drain_operator(&mut filter).unwrap();
    assert_eq!(out.num_rows(), 2);
    assert_eq!(out.column(0).get(0), &Value::Int(3));

    // Empty input keeps the schema.
    let input = FixedBatches::boxed(vec![RecordBatch::empty(schema.clone())]);
    let mut filter = Filter::new(ctx, input, predicate);
    let out = drain_operator(&mut filter).unwrap();
    assert_eq!(out.num_rows(), 0);
    assert_eq!(out.num_columns(), 2);
}

// ---------------------------------------------------------------------------
// Project
// ---------------------------------------------------------------------------

#[test]
fn project_computes_per_batch() {
    let catalog = Catalog::new();
    let reg = registry();
    let ctx = context(&catalog, &reg, None, ExecConfig::default());
    let schema = ab_schema();
    let input = FixedBatches::boxed(int_batches(&schema, &[&[(1, 10)], &[(2, 20)], &[]]));
    let items = vec![
        ProjectionItem::Named {
            expr: Expr::binary(col("a"), BinaryOp::Add, col("b")),
            name: "sum".into(),
        },
        ProjectionItem::Wildcard,
    ];
    let mut project = Project::new(ctx, input, items, vec![]);
    let out = drain_operator(&mut project).unwrap();
    assert_eq!(out.num_columns(), 3);
    assert_eq!(out.schema().column_at(0).name, "sum");
    assert_eq!(out.column(0).get(1), &Value::Int(22));
    assert_eq!(out.num_rows(), 2);
}

/// An item that is a column reference is that column's buffer under the
/// item's name and the input's type and sensitivity; only the real expression
/// beside it is computed — and typed as before, NULL-leading batch included.
#[test]
fn project_shares_what_it_does_not_compute() {
    let catalog = Catalog::new();
    let reg = registry();
    let ctx = context(&catalog, &reg, None, ExecConfig::default());
    let schema = Schema::new(vec![
        ColumnDef::public("a", DataType::Int),
        ColumnDef::sensitive("b", DataType::Decimal { scale: 2 }),
    ]);
    let dec = |units| Value::Decimal { units, scale: 2 };
    let batches = vec![
        RecordBatch::from_rows(schema.clone(), vec![vec![Value::Int(1), Value::Null]]).unwrap(),
        RecordBatch::from_rows(schema, vec![vec![Value::Int(2), dec(250)]]).unwrap(),
    ];
    let items = vec![
        ProjectionItem::Named {
            expr: col("b"),
            name: "renamed".into(),
        },
        ProjectionItem::Named {
            expr: Expr::binary(col("b"), BinaryOp::Add, col("b")),
            name: "twice".into(),
        },
    ];
    let mut project = Project::new(ctx, FixedBatches::boxed(batches.clone()), items, vec![]);
    project.open().unwrap();
    for input in &batches {
        let out = project.next_batch().unwrap().unwrap();
        assert!(out.column(0).shares_buffer(input.column(1)));
        let renamed = out.schema().column_at(0);
        assert_eq!(renamed.name, "renamed");
        assert_eq!(renamed.data_type, DataType::Decimal { scale: 2 });
        assert!(renamed.sensitivity.is_sensitive());
        // The computed column waited for the second batch to learn its type.
        assert_eq!(
            out.schema().column_at(1).data_type,
            DataType::Decimal { scale: 2 }
        );
    }
    assert!(project.next_batch().unwrap().is_none());
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

fn join_sides(schema: &Schema) -> (BoxedOperator<'static>, BoxedOperator<'static>) {
    // Left: 4 rows split across two batches; right: 3 rows, one batch.
    let left = FixedBatches::boxed(int_batches(
        schema,
        &[&[(1, 100), (2, 200)], &[(2, 201), (4, 400)]],
    ));
    let right_schema = Schema::new(vec![
        ColumnDef::public("k", DataType::Int),
        ColumnDef::public("v", DataType::Int),
    ]);
    let right = FixedBatches::boxed(vec![RecordBatch::from_rows(
        right_schema,
        vec![
            vec![Value::Int(1), Value::Int(-1)],
            vec![Value::Int(2), Value::Int(-2)],
            vec![Value::Int(9), Value::Int(-9)],
        ],
    )
    .unwrap()]);
    (left, right)
}

#[test]
fn hash_join_streams_probe_batches() {
    let catalog = Catalog::new();
    let reg = registry();
    let ctx = context(&catalog, &reg, None, ExecConfig::default());
    let schema = ab_schema();
    let (left, right) = join_sides(&schema);
    let mut join = HashJoin::new(
        Arc::clone(&ctx),
        left,
        right,
        JoinKind::Inner,
        vec![col("a")],
        vec![col("k")],
    );
    let out = drain_operator(&mut join).unwrap();
    // Matches: a=1 (1 row), a=2 twice (2 rows); a=4 unmatched.
    assert_eq!(out.num_rows(), 3);
    assert_eq!(out.num_columns(), 4);

    // Left join pads the unmatched row with NULLs.
    let (left, right) = join_sides(&schema);
    let mut join = HashJoin::new(
        ctx,
        left,
        right,
        JoinKind::Left,
        vec![col("a")],
        vec![col("k")],
    );
    let out = drain_operator(&mut join).unwrap();
    assert_eq!(out.num_rows(), 4);
    assert!(out.column(2).get(3).is_null());
}

#[test]
fn hash_join_with_empty_sides() {
    let catalog = Catalog::new();
    let reg = registry();
    let ctx = context(&catalog, &reg, None, ExecConfig::default());
    let schema = ab_schema();
    let empty = || FixedBatches::boxed(vec![RecordBatch::empty(ab_schema())]);

    let left = FixedBatches::boxed(int_batches(&schema, &[&[(1, 1)]]));
    let mut join = HashJoin::new(
        Arc::clone(&ctx),
        left,
        empty(),
        JoinKind::Inner,
        vec![col("a")],
        vec![col("a")],
    );
    assert_eq!(drain_operator(&mut join).unwrap().num_rows(), 0);

    let right = FixedBatches::boxed(int_batches(&schema, &[&[(1, 1)]]));
    let mut join = HashJoin::new(
        ctx,
        empty(),
        right,
        JoinKind::Inner,
        vec![col("a")],
        vec![col("a")],
    );
    let out = drain_operator(&mut join).unwrap();
    assert_eq!(out.num_rows(), 0);
    assert_eq!(out.num_columns(), 4);
}

/// A foreign key against its primary key: every probe row matches exactly
/// once, so the probe columns of the output are the input's buffers, not
/// copies; one unmatched row and they are gathered.
#[test]
fn fk_pk_probe_shares_the_probe_columns() {
    let catalog = Catalog::new();
    let reg = registry();
    let ctx = context(&catalog, &reg, None, ExecConfig::default());
    let schema = ab_schema();
    let dim = || FixedBatches::boxed(int_batches(&ab_schema(), &[&[(2, -2), (1, -1), (3, -3)]]));
    let probe = |rows: &[(i64, i64)]| int_batches(&schema, &[rows]).remove(0);

    let fact = probe(&[(1, 10), (3, 30), (1, 11), (2, 20)]);
    let mut join = HashJoin::new(
        Arc::clone(&ctx),
        FixedBatches::boxed(vec![fact.clone()]),
        dim(),
        JoinKind::Inner,
        vec![col("a")],
        vec![col("a")],
    );
    join.open().unwrap();
    let out = join.next_batch().unwrap().unwrap();
    join.close().unwrap();
    assert!(out.column(0).shares_buffer(fact.column(0)));
    assert!(out.column(1).shares_buffer(fact.column(1)));
    let dim_values: Vec<Value> = out.column(3).values().to_vec();
    assert_eq!(dim_values, [-1, -3, -1, -2].map(Value::Int));

    let fact = probe(&[(1, 10), (4, 40)]);
    let mut join = HashJoin::new(
        ctx,
        FixedBatches::boxed(vec![fact.clone()]),
        dim(),
        JoinKind::Inner,
        vec![col("a")],
        vec![col("a")],
    );
    join.open().unwrap();
    let out = join.next_batch().unwrap().unwrap();
    assert_eq!(out.num_rows(), 1);
    assert!(!out.column(0).shares_buffer(fact.column(0)));
}

/// Duplicate build keys come back in ascending build-row order under each
/// probe row, a LEFT JOIN pads what matched nothing (NULL keys included) with
/// NULLs through the gather, and empty inputs on either side keep the shape.
#[test]
fn hash_join_orders_matches_and_pads_unmatched_rows() {
    let catalog = Catalog::new();
    let reg = registry();
    let ctx = context(&catalog, &reg, None, ExecConfig::default());
    let schema = ab_schema();
    let build = || {
        FixedBatches::boxed(keyed_batches(
            &ab_schema(),
            &[
                &[(Some(7), 0), (Some(8), 1), (None, 2)],
                &[(Some(7), 3), (Some(7), 4)],
            ],
        ))
    };
    let probe = keyed_batches(&schema, &[&[(Some(7), 100), (None, 101), (Some(9), 102)]]);
    let run = |kind, left: Vec<RecordBatch>, right: BoxedOperator<'static>| {
        let left = FixedBatches::boxed(left);
        let keys = vec![col("a")];
        let mut join = HashJoin::new(Arc::clone(&ctx), left, right, kind, keys.clone(), keys);
        drain_operator(&mut join).unwrap()
    };
    let int = |v| Value::Int(v);

    let inner = run(JoinKind::Inner, probe.clone(), build());
    let build_rows: Vec<Value> = inner.column(3).values().to_vec();
    assert_eq!(build_rows, [0, 3, 4].map(int), "ascending build rows");

    let left = run(JoinKind::Left, probe.clone(), build());
    assert_eq!(left.num_rows(), 5);
    assert_eq!(left.row(2), vec![int(7), int(100), int(7), int(4)]);
    assert_eq!(
        left.row(3),
        vec![Value::Null, int(101), Value::Null, Value::Null]
    );
    assert_eq!(
        left.row(4),
        vec![int(9), int(102), Value::Null, Value::Null]
    );
    assert_eq!(left.column(2).data_type(), DataType::Int);

    // Empty build side: a LEFT JOIN pads every probe row.
    let empty = || FixedBatches::boxed(vec![RecordBatch::empty(ab_schema())]);
    let padded = run(JoinKind::Left, probe.clone(), empty());
    assert_eq!(padded.num_rows(), 3);
    assert!(padded.column(2).values().iter().all(Value::is_null));
    // Empty probe batch: an empty batch of the combined schema.
    let none = run(
        JoinKind::Left,
        vec![RecordBatch::empty(ab_schema())],
        build(),
    );
    assert_eq!((none.num_rows(), none.num_columns()), (0, 4));
}

/// With every hash forced to collide, the key equality alone decides each
/// match: an inner join, a LEFT JOIN, a GROUP BY with a NULL group and a
/// DISTINCT all produce exactly what they produce under the real hasher.
#[test]
fn forced_hash_collisions_change_no_result() {
    use crate::kernels::keys::FORCE_COLLISIONS;

    let catalog = Catalog::new();
    let reg = registry();
    // Serial: the hook is per thread.
    let ctx = context(
        &catalog,
        &reg,
        None,
        ExecConfig {
            parallelism: 1,
            ..ExecConfig::default()
        },
    );
    let rows: Vec<(Option<i64>, i64)> = (0..90)
        .map(|i| ((i % 11 != 0).then_some(i % 7), i % 5))
        .collect();
    let chunks: Vec<&[(Option<i64>, i64)]> = rows.chunks(16).collect();
    let input = || FixedBatches::boxed(keyed_batches(&ab_schema(), &chunks));

    let run_all = || {
        let mut outputs = Vec::new();
        for kind in [JoinKind::Inner, JoinKind::Left] {
            let keys = vec![col("a"), col("b")];
            let mut join =
                HashJoin::new(Arc::clone(&ctx), input(), input(), kind, keys.clone(), keys);
            outputs.push(drain_operator(&mut join).unwrap());
        }
        let mut aggregate = HashAggregate::new(
            Arc::clone(&ctx),
            input(),
            vec![(col("a"), "a".into())],
            vec![AggregateExpr {
                func: AggFunc::Count,
                arg: Some(col("b")),
                distinct: true,
                name: "n".into(),
            }],
        );
        outputs.push(drain_operator(&mut aggregate).unwrap());
        outputs.push(drain_operator(&mut Distinct::new(input())).unwrap());
        outputs
    };

    let expected = run_all();
    FORCE_COLLISIONS.with(|force| force.set(true));
    assert_eq!(crate::kernels::keys::hash_key([&Value::Int(1)]), 0);
    let collided = run_all();
    FORCE_COLLISIONS.with(|force| force.set(false));
    assert_eq!(expected, collided);
    // The inputs exercise what they claim to: a NULL group among the 8, and
    // DISTINCT dropping most of the 90 rows.
    assert_eq!(expected[2].num_rows(), 8);
    assert!(expected[2].column(0).values().contains(&Value::Null));
    assert!(expected[3].num_rows() < 45);
    assert!(expected[0].num_rows() > 90 && expected[1].num_rows() > expected[0].num_rows());
}

#[test]
fn nested_loop_join_applies_predicate() {
    let catalog = Catalog::new();
    let reg = registry();
    let ctx = context(&catalog, &reg, None, ExecConfig::default());
    let schema = ab_schema();
    let (left, right) = join_sides(&schema);
    let on = Expr::binary(col("a"), BinaryOp::Lt, col("k"));
    let mut join = NestedLoopJoin::new(ctx, left, right, JoinKind::Inner, Some(on));
    let out = drain_operator(&mut join).unwrap();
    // a<k pairs: 1<2, 1<9, 2<9, 2<9, 4<9 = 5 rows.
    assert_eq!(out.num_rows(), 5);
}

// ---------------------------------------------------------------------------
// Aggregate
// ---------------------------------------------------------------------------

#[test]
fn aggregate_groups_across_batch_boundaries() {
    let catalog = Catalog::new();
    let reg = registry();
    let ctx = context(&catalog, &reg, None, ExecConfig::default());
    let schema = ab_schema();
    // Group 1 spans both batches.
    let input = FixedBatches::boxed(int_batches(&schema, &[&[(1, 10), (2, 20)], &[(1, 30)]]));
    let mut aggregate = HashAggregate::new(
        ctx,
        input,
        vec![(col("a"), "a".into())],
        vec![AggregateExpr {
            func: AggFunc::Sum,
            arg: Some(col("b")),
            distinct: false,
            name: "s".into(),
        }],
    );
    let out = drain_operator(&mut aggregate).unwrap();
    assert_eq!(out.num_rows(), 2);
    let row0 = out.row(0);
    assert_eq!(row0, vec![Value::Int(1), Value::Int(40)]);
}

#[test]
fn global_aggregate_over_empty_input_yields_one_row() {
    let catalog = Catalog::new();
    let reg = registry();
    let ctx = context(&catalog, &reg, None, ExecConfig::default());
    let input = FixedBatches::boxed(vec![RecordBatch::empty(ab_schema())]);
    let mut aggregate = HashAggregate::new(
        ctx,
        input,
        vec![],
        vec![AggregateExpr {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
            name: "n".into(),
        }],
    );
    let out = drain_operator(&mut aggregate).unwrap();
    assert_eq!(out.num_rows(), 1);
    assert_eq!(out.column(0).get(0), &Value::Int(0));
}

// ---------------------------------------------------------------------------
// Sort / Limit / Distinct
// ---------------------------------------------------------------------------

#[test]
fn sort_merges_batches() {
    let catalog = Catalog::new();
    let reg = registry();
    let ctx = context(&catalog, &reg, None, ExecConfig::default());
    let schema = ab_schema();
    let input = FixedBatches::boxed(int_batches(&schema, &[&[(3, 0), (1, 0)], &[(2, 0)]]));
    let keys = vec![SortKey {
        expr: col("a"),
        desc: false,
    }];
    let mut sort = Sort::new(ctx, input, keys);
    let out = drain_operator(&mut sort).unwrap();
    let values: Vec<i64> = out
        .column(0)
        .values()
        .iter()
        .map(|v| v.as_i64().unwrap())
        .collect();
    assert_eq!(values, vec![1, 2, 3]);
}

#[test]
fn limit_stops_mid_batch_and_across_batches() {
    let schema = ab_schema();
    // Limit 3 over batches of 2+2 rows → 2 rows then 1 row.
    let input = FixedBatches::boxed(int_batches(
        &schema,
        &[&[(1, 0), (2, 0)], &[(3, 0), (4, 0)]],
    ));
    let mut limit = Limit::new(input, 3);
    let out = drain_operator(&mut limit).unwrap();
    assert_eq!(out.num_rows(), 3);

    // Limit 0 still yields the schema.
    let input = FixedBatches::boxed(int_batches(&schema, &[&[(1, 0)]]));
    let mut limit = Limit::new(input, 0);
    let out = drain_operator(&mut limit).unwrap();
    assert_eq!(out.num_rows(), 0);
    assert_eq!(out.num_columns(), 2);
}

#[test]
fn distinct_deduplicates_across_batches() {
    let schema = ab_schema();
    // The duplicate of (1, 10) sits in a later batch: the seen-set must span
    // batch boundaries.
    let input = FixedBatches::boxed(int_batches(
        &schema,
        &[&[(1, 10), (2, 20)], &[(1, 10), (3, 30)]],
    ));
    let mut distinct = Distinct::new(input);
    let out = drain_operator(&mut distinct).unwrap();
    assert_eq!(out.num_rows(), 3);
}

// ---------------------------------------------------------------------------
// OracleResolve batching semantics
// ---------------------------------------------------------------------------

/// A stub DO-proxy oracle that answers every request and counts round trips
/// through the context's statistics (which the operator updates itself).
struct StubOracle;

impl crate::secure::SdbOracle for StubOracle {
    fn resolve(&self, request: crate::secure::OracleRequest) -> crate::secure::OracleResult {
        use crate::secure::{OracleRequestKind, OracleResponse};
        let n = request.rows.len();
        Ok(match request.kind {
            OracleRequestKind::Sign => OracleResponse::Signs(vec![1; n]),
            OracleRequestKind::GroupTag => OracleResponse::Tags((0..n as u64).collect()),
            OracleRequestKind::Rank => OracleResponse::Ranks((0..n as u64).collect()),
        })
    }
}

fn encrypted_batches(chunks: usize, rows_per_chunk: usize) -> Vec<RecordBatch> {
    use num_bigint::BigUint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(9);
    let cipher = sdb_crypto::SiesCipher::from_master(&mut rng);
    let schema = Schema::new(vec![
        ColumnDef::sensitive("v", DataType::Encrypted),
        ColumnDef::public("rid", DataType::EncryptedRowId),
    ]);
    (0..chunks)
        .map(|c| {
            let rows = (0..rows_per_chunk)
                .map(|r| {
                    let rid = sdb_crypto::EncryptedRowId(
                        cipher.encrypt_biguint(&mut rng, &BigUint::from((c * 100 + r) as u64 + 1)),
                    );
                    vec![
                        Value::Encrypted(BigUint::from((c * 10 + r) as u64 + 3)),
                        Value::EncryptedRowId(rid),
                    ]
                })
                .collect();
            RecordBatch::from_rows(schema.clone(), rows).unwrap()
        })
        .collect()
}

fn oracle_call(name: &str) -> Expr {
    Expr::Function {
        name: name.to_string(),
        args: vec![
            col("v"),
            col("rid"),
            Expr::Literal(Literal::Str("h1".into())),
        ],
        distinct: false,
        wildcard: false,
    }
}

/// A comparison call (arity 4: share, row id, handle, public modulus).
fn cmp_call(handle: &str) -> Expr {
    Expr::Function {
        name: "SDB_CMP_GT".to_string(),
        args: vec![
            col("v"),
            col("rid"),
            Expr::Literal(Literal::Str(handle.into())),
            Expr::Literal(Literal::Str("1000003".into())),
        ],
        distinct: false,
        wildcard: false,
    }
}

/// A stub whose answers depend only on the (stable) row-id ciphertext — like
/// the real proxy, whose verdicts are invariant under the SP's blinding
/// factors and request chunking. Required for byte-identity comparisons
/// across batching modes (positional answers would differ by chunking).
struct ContentOracle;

impl crate::secure::SdbOracle for ContentOracle {
    fn resolve(&self, request: crate::secure::OracleRequest) -> crate::secure::OracleResult {
        use crate::secure::{OracleRequestKind, OracleResponse};
        let body_sum = |r: &crate::secure::OracleRow| -> u64 {
            r.row_id.0.body.iter().map(|&b| u64::from(b)).sum()
        };
        Ok(match request.kind {
            OracleRequestKind::Sign => OracleResponse::Signs(
                request
                    .rows
                    .iter()
                    .map(|r| if body_sum(r).is_multiple_of(2) { 1 } else { -1 })
                    .collect(),
            ),
            OracleRequestKind::GroupTag => {
                OracleResponse::Tags(request.rows.iter().map(|r| body_sum(r) % 16).collect())
            }
            OracleRequestKind::Rank => {
                OracleResponse::Ranks((0..request.rows.len() as u64).collect())
            }
        })
    }
}

#[test]
fn rank_calls_resolve_in_one_round_trip_across_batches() {
    use super::oracle::OracleResolve;
    let catalog = Catalog::new();
    let reg = registry();
    let oracle: crate::secure::OracleRef = std::sync::Arc::new(StubOracle);

    // Rank surrogates are only comparable within one request: multi-batch
    // input must still produce exactly one round trip.
    let ctx = context(&catalog, &reg, Some(oracle.clone()), ExecConfig::default());
    let input = FixedBatches::boxed(encrypted_batches(3, 2));
    let mut resolve = OracleResolve::new(Arc::clone(&ctx), input, vec![oracle_call("SDB_RANK")]);
    let out = drain_operator(&mut resolve).unwrap();
    assert_eq!(out.num_rows(), 6);
    assert_eq!(
        ctx.stats().oracle_round_trips,
        1,
        "ranks must batch across input batches"
    );
    // All six rows answered from one rank block, in request order.
    assert_eq!(out.column(2).get(5), &Value::Int(5));

    // Group tags coalesce across input batches too (the cross-batch
    // accumulator): one trip for three input batches.
    let ctx = context(&catalog, &reg, Some(oracle.clone()), ExecConfig::default());
    let input = FixedBatches::boxed(encrypted_batches(3, 2));
    let mut resolve =
        OracleResolve::new(Arc::clone(&ctx), input, vec![oracle_call("SDB_GROUP_TAG")]);
    let out = drain_operator(&mut resolve).unwrap();
    assert_eq!(out.num_rows(), 6);
    let stats = ctx.stats();
    assert_eq!(stats.oracle_round_trips, 1, "tags coalesce across batches");
    assert_eq!(stats.oracle_rows_coalesced, 6);

    // With batching off, tags resolve per batch — the pre-batching behavior.
    let ctx = context(
        &catalog,
        &reg,
        Some(oracle),
        ExecConfig {
            oracle_batching: false,
            ..ExecConfig::default()
        },
    );
    let input = FixedBatches::boxed(encrypted_batches(3, 2));
    let mut resolve =
        OracleResolve::new(Arc::clone(&ctx), input, vec![oracle_call("SDB_GROUP_TAG")]);
    let out = drain_operator(&mut resolve).unwrap();
    assert_eq!(out.num_rows(), 6);
    let stats = ctx.stats();
    assert_eq!(
        stats.oracle_round_trips, 3,
        "unbatched tags resolve per batch"
    );
    assert_eq!(stats.oracle_rows_coalesced, 0);
}

#[test]
fn batching_is_byte_identical_and_one_trip_per_call_under_any_budget() {
    use super::oracle::OracleResolve;
    let catalog = Catalog::new();
    let reg = registry();
    let calls = || vec![cmp_call("h1"), cmp_call("h2"), oracle_call("SDB_GROUP_TAG")];

    // Reference: batching off, unlimited budget (one trip per call per batch).
    let oracle: crate::secure::OracleRef = std::sync::Arc::new(ContentOracle);
    let ref_ctx = context(
        &catalog,
        &reg,
        Some(oracle.clone()),
        ExecConfig {
            oracle_batching: false,
            ..ExecConfig::default()
        },
    );
    let input = FixedBatches::boxed(encrypted_batches(25, 16));
    let mut resolve = OracleResolve::new(Arc::clone(&ref_ctx), input, calls());
    let expected = drain_operator(&mut resolve).unwrap();
    assert_eq!(expected.num_rows(), 400);
    assert_eq!(
        ref_ctx.stats().oracle_round_trips,
        75,
        "3 calls x 25 batches without batching"
    );

    // Batched: one coalesced trip per distinct call, identical answers —
    // with and without a budget that forces the parked batches to spill.
    for budget in [None, Some(4096usize)] {
        let mut config = ExecConfig::default();
        if let Some(bytes) = budget {
            config.memory_budget = MemoryBudget::bytes(bytes);
        }
        let ctx = context(&catalog, &reg, Some(oracle.clone()), config);
        let input = FixedBatches::boxed(encrypted_batches(25, 16));
        let mut resolve = OracleResolve::new(Arc::clone(&ctx), input, calls());
        let out = drain_operator(&mut resolve).unwrap();
        assert_eq!(expected, out, "batched output diverged (budget {budget:?})");
        let stats = ctx.stats();
        assert_eq!(
            stats.oracle_round_trips, 3,
            "one coalesced trip per distinct call (budget {budget:?})"
        );
        assert_eq!(stats.oracle_rows_coalesced, 1200, "400 rows x 3 calls");
        assert_eq!(stats.oracle_rows_shipped, 1200);
        assert_eq!(ctx.pager().resident_bytes(), 0, "parked pages all freed");
        if budget.is_some() {
            assert!(
                stats.pages_spilled > 0,
                "a 4K budget must spill the parked batches: {stats:?}"
            );
        }
    }
}

#[test]
fn memo_answers_repeated_operands_without_new_trips() {
    use super::oracle::OracleResolve;
    let catalog = Catalog::new();
    let reg = registry();
    let oracle: crate::secure::OracleRef = std::sync::Arc::new(ContentOracle);

    // Batches 1 and 3 carry identical (share, row id) operands. Streaming
    // (batching off) resolves batch by batch: the third batch is answered
    // entirely from the memo — two trips total, zero for the repeat.
    let mut batches = encrypted_batches(2, 2);
    batches.push(batches[0].clone());
    let ctx = context(
        &catalog,
        &reg,
        Some(oracle.clone()),
        ExecConfig {
            oracle_batching: false,
            ..ExecConfig::default()
        },
    );
    let input = FixedBatches::boxed(batches.clone());
    let mut resolve = OracleResolve::new(Arc::clone(&ctx), input, vec![cmp_call("h1")]);
    let out = drain_operator(&mut resolve).unwrap();
    assert_eq!(out.num_rows(), 6);
    let stats = ctx.stats();
    assert_eq!(
        stats.oracle_round_trips, 2,
        "the repeated batch must not travel the link"
    );
    assert_eq!(stats.oracle_memo_hits, 2);
    assert_eq!(stats.oracle_rows_shipped, 4);
    // The memoized answers are the same the oracle would have given.
    assert_eq!(out.column(2).get(0), out.column(2).get(4));
    assert_eq!(out.column(2).get(1), out.column(2).get(5));
}

#[test]
fn zero_row_rank_input_short_circuits_without_a_trip() {
    use super::oracle::OracleResolve;
    let catalog = Catalog::new();
    let reg = registry();
    let oracle: crate::secure::OracleRef = std::sync::Arc::new(StubOracle);
    let schema = Schema::new(vec![
        ColumnDef::sensitive("v", DataType::Encrypted),
        ColumnDef::public("rid", DataType::EncryptedRowId),
    ]);

    for batching in [true, false] {
        let ctx = context(
            &catalog,
            &reg,
            Some(oracle.clone()),
            ExecConfig {
                oracle_batching: batching,
                ..ExecConfig::default()
            },
        );
        let input = FixedBatches::boxed(vec![RecordBatch::empty(schema.clone())]);
        let mut resolve =
            OracleResolve::new(Arc::clone(&ctx), input, vec![oracle_call("SDB_RANK")]);
        let out = drain_operator(&mut resolve).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(
            out.num_columns(),
            3,
            "the rank column still appears (batching={batching})"
        );
        assert_eq!(
            ctx.stats().oracle_round_trips,
            0,
            "zero-row rank resolution must not travel the link (batching={batching})"
        );
    }
}

// ---------------------------------------------------------------------------
// Project type stability across batches
// ---------------------------------------------------------------------------

#[test]
fn project_locks_computed_types_across_null_leading_batches() {
    let catalog = Catalog::new();
    let reg = registry();
    let ctx = context(&catalog, &reg, None, ExecConfig::default());
    let schema = Schema::new(vec![
        ColumnDef::public("a", DataType::Int),
        ColumnDef::public("name", DataType::Varchar),
    ]);
    let batch = |rows: Vec<(i64, &str)>| {
        RecordBatch::from_rows(
            schema.clone(),
            rows.into_iter()
                .map(|(a, s)| vec![Value::Int(a), Value::Str(s.into())])
                .collect(),
        )
        .unwrap()
    };
    // CASE WHEN a > 10 THEN name END: all-NULL in the first batch (would have
    // inferred Int per-batch), Varchar in the second.
    let case = Expr::Case {
        operand: None,
        branches: vec![(Expr::binary(col("a"), BinaryOp::Gt, int(10)), col("name"))],
        else_expr: None,
    };
    let input = FixedBatches::boxed(vec![
        batch(vec![(1, "low"), (2, "lower")]),
        batch(vec![(100, "high")]),
    ]);
    let items = vec![ProjectionItem::Named {
        expr: case,
        name: "c".into(),
    }];
    let mut project = Project::new(ctx, input, items, vec![]);
    let out = drain_operator(&mut project).unwrap();
    assert_eq!(out.num_rows(), 3);
    assert_eq!(out.schema().column_at(0).data_type, DataType::Varchar);
    assert!(out.column(0).get(0).is_null());
    assert_eq!(out.column(0).get(2), &Value::Str("high".into()));
}

// ---------------------------------------------------------------------------
// ExternalSort / SpillingHashAggregate (bounded-memory variants)
// ---------------------------------------------------------------------------

/// A context whose tiny budget forces the spilling operators to actually
/// spill on a few hundred rows.
fn tiny_budget_ctx<'a>(
    catalog: &'a Catalog,
    reg: &'a UdfRegistry,
    batch_size: usize,
) -> Arc<ExecContext<'a>> {
    context(
        catalog,
        reg,
        None,
        ExecConfig {
            memory_budget: MemoryBudget::bytes(256),
            batch_size,
            ..ExecConfig::default()
        },
    )
}

fn spillable_rows() -> Vec<(i64, i64)> {
    // Many duplicate keys (a % 5) so sort stability and group merging are
    // both exercised; values are distinct so misordered rows are visible.
    (0..400).map(|i| (i % 5, i)).collect()
}

#[test]
fn external_sort_is_byte_identical_to_in_memory_sort() {
    use super::external_sort::ExternalSort;

    let rows = spillable_rows();
    let catalog = catalog_with_numbers(&rows);
    let reg = registry();
    let keys = vec![SortKey {
        expr: col("a"),
        desc: false,
    }];

    let in_memory_ctx = context(
        &catalog,
        &reg,
        None,
        ExecConfig {
            batch_size: 32,
            ..ExecConfig::default()
        },
    );
    let mut reference = Sort::new(
        Arc::clone(&in_memory_ctx),
        Box::new(TableScan::new(Arc::clone(&in_memory_ctx), "numbers", None)),
        keys.clone(),
    );
    let expected = drain_operator(&mut reference).unwrap();

    let ctx = tiny_budget_ctx(&catalog, &reg, 32);
    let mut external = ExternalSort::new(
        Arc::clone(&ctx),
        Box::new(TableScan::new(Arc::clone(&ctx), "numbers", None)),
        keys,
    );
    let out = drain_operator(&mut external).unwrap();

    assert_eq!(
        expected, out,
        "spill-forced sort must match the stable sort"
    );
    let stats = ctx.stats();
    assert!(
        stats.pages_spilled > 0,
        "256-byte budget must spill: {stats:?}"
    );
    assert!(stats.spill_bytes_read > 0, "merge must fault pages back in");
    assert_eq!(ctx.pager().resident_bytes(), 0, "all pages freed at close");
}

#[test]
fn external_sort_empty_input_matches_sort() {
    use super::external_sort::ExternalSort;

    let catalog = catalog_with_numbers(&[]);
    let reg = registry();
    let ctx = tiny_budget_ctx(&catalog, &reg, 32);
    let keys = vec![SortKey {
        expr: col("a"),
        desc: true,
    }];
    let mut reference = Sort::new(
        Arc::clone(&ctx),
        Box::new(TableScan::new(Arc::clone(&ctx), "numbers", None)),
        keys.clone(),
    );
    let expected = drain_operator(&mut reference).unwrap();
    let mut external = ExternalSort::new(
        Arc::clone(&ctx),
        Box::new(TableScan::new(Arc::clone(&ctx), "numbers", None)),
        keys,
    );
    assert_eq!(expected, drain_operator(&mut external).unwrap());
}

#[test]
fn spilling_aggregate_is_byte_identical_to_hash_aggregate() {
    use super::spill_aggregate::SpillingHashAggregate;

    let rows = spillable_rows();
    let catalog = catalog_with_numbers(&rows);
    let reg = registry();
    let group_by = vec![(col("a"), "a".to_string())];
    let aggregates = vec![
        AggregateExpr {
            func: AggFunc::Sum,
            arg: Some(col("b")),
            distinct: false,
            name: "s".into(),
        },
        AggregateExpr {
            func: AggFunc::Count,
            arg: Some(col("b")),
            distinct: true,
            name: "dc".into(),
        },
        AggregateExpr {
            func: AggFunc::Min,
            arg: Some(col("b")),
            distinct: false,
            name: "lo".into(),
        },
    ];

    let in_memory_ctx = context(
        &catalog,
        &reg,
        None,
        ExecConfig {
            batch_size: 32,
            ..ExecConfig::default()
        },
    );
    let mut reference = HashAggregate::new(
        Arc::clone(&in_memory_ctx),
        Box::new(TableScan::new(Arc::clone(&in_memory_ctx), "numbers", None)),
        group_by.clone(),
        aggregates.clone(),
    );
    let expected = drain_operator(&mut reference).unwrap();

    let ctx = tiny_budget_ctx(&catalog, &reg, 32);
    let mut spilling = SpillingHashAggregate::new(
        Arc::clone(&ctx),
        Box::new(TableScan::new(Arc::clone(&ctx), "numbers", None)),
        group_by,
        aggregates,
    );
    let out = drain_operator(&mut spilling).unwrap();

    assert_eq!(
        expected, out,
        "groups must come back in first-occurrence order"
    );
    assert!(ctx.stats().pages_spilled > 0, "256-byte budget must spill");
    assert_eq!(ctx.pager().resident_bytes(), 0, "partition pages all freed");
}

#[test]
fn spilling_aggregate_global_and_empty_inputs() {
    use super::spill_aggregate::SpillingHashAggregate;

    let aggregates = vec![AggregateExpr {
        func: AggFunc::Count,
        arg: None,
        distinct: false,
        name: "n".into(),
    }];
    for rows in [vec![], spillable_rows()] {
        let catalog = catalog_with_numbers(&rows);
        let reg = registry();
        let ctx = tiny_budget_ctx(&catalog, &reg, 32);
        let mut reference = HashAggregate::new(
            Arc::clone(&ctx),
            Box::new(TableScan::new(Arc::clone(&ctx), "numbers", None)),
            vec![],
            aggregates.clone(),
        );
        let expected = drain_operator(&mut reference).unwrap();
        let mut spilling = SpillingHashAggregate::new(
            Arc::clone(&ctx),
            Box::new(TableScan::new(Arc::clone(&ctx), "numbers", None)),
            vec![],
            aggregates.clone(),
        );
        assert_eq!(
            expected,
            drain_operator(&mut spilling).unwrap(),
            "global aggregate over {} rows",
            rows.len()
        );
    }
}

// ---------------------------------------------------------------------------
// GraceHashJoin (bounded-memory hash join)
// ---------------------------------------------------------------------------

/// Join inputs with duplicate and NULL keys: `rows` become `(key, payload)`
/// pairs, `None` keys become SQL NULLs.
fn keyed_batches(schema: &Schema, chunks: &[&[(Option<i64>, i64)]]) -> Vec<RecordBatch> {
    chunks
        .iter()
        .map(|chunk| {
            RecordBatch::from_rows(
                schema.clone(),
                chunk
                    .iter()
                    .map(|&(k, v)| vec![k.map(Value::Int).unwrap_or(Value::Null), Value::Int(v)])
                    .collect(),
            )
            .unwrap()
        })
        .collect()
}

/// Cross-checks GraceHashJoin (tiny budget, forced spilling) against the
/// in-memory HashJoin on the same inputs, for both join kinds.
#[test]
fn grace_join_is_byte_identical_to_hash_join() {
    use super::grace_join::GraceHashJoin;

    let schema = ab_schema();
    let right_schema = Schema::new(vec![
        ColumnDef::public("k", DataType::Int),
        ColumnDef::public("v", DataType::Int),
    ]);
    // Build side: 300 rows over 10 keys (plus NULLs that must never match),
    // split across many batches. Probe side: duplicate keys, a NULL key and
    // keys with no match.
    let build_rows: Vec<(Option<i64>, i64)> = (0..300)
        .map(|i| {
            if i % 29 == 0 {
                (None, i)
            } else {
                (Some(i % 10), i)
            }
        })
        .collect();
    let probe_rows: Vec<(Option<i64>, i64)> = (0..60)
        .map(|i| {
            if i % 13 == 0 {
                (None, 1000 + i)
            } else {
                (Some(i % 15), 1000 + i)
            }
        })
        .collect();
    let build_chunks: Vec<&[(Option<i64>, i64)]> = build_rows.chunks(32).collect();
    let probe_chunks: Vec<&[(Option<i64>, i64)]> = probe_rows.chunks(7).collect();

    let catalog = Catalog::new();
    let reg = registry();
    for kind in [JoinKind::Inner, JoinKind::Left] {
        let unlimited = context(
            &catalog,
            &reg,
            None,
            ExecConfig {
                batch_size: 16,
                ..ExecConfig::default()
            },
        );
        let mut reference = HashJoin::new(
            Arc::clone(&unlimited),
            FixedBatches::boxed(keyed_batches(&schema, &probe_chunks)),
            FixedBatches::boxed(keyed_batches(&right_schema, &build_chunks)),
            kind,
            vec![col("a")],
            vec![col("k")],
        );
        let expected = drain_operator(&mut reference).unwrap();

        let ctx = tiny_budget_ctx(&catalog, &reg, 16);
        let mut grace = GraceHashJoin::new(
            Arc::clone(&ctx),
            FixedBatches::boxed(keyed_batches(&schema, &probe_chunks)),
            FixedBatches::boxed(keyed_batches(&right_schema, &build_chunks)),
            kind,
            vec![col("a")],
            vec![col("k")],
        );
        let out = drain_operator(&mut grace).unwrap();
        assert_eq!(expected, out, "{kind:?} join diverged");
        let stats = ctx.stats();
        assert!(
            stats.join_spilled_rows > 0,
            "a 256-byte budget must force partitioning: {stats:?}"
        );
        assert!(stats.join_build_partitions > 0);
        assert_eq!(
            ctx.pager().resident_bytes(),
            0,
            "all partition and output pages freed"
        );
    }
}

/// One giant key cannot be split by re-partitioning: recursion must bottom
/// out and join the pathological partition in memory, still correctly.
#[test]
fn grace_join_survives_single_key_skew() {
    use super::grace_join::GraceHashJoin;

    let schema = ab_schema();
    let right_schema = Schema::new(vec![
        ColumnDef::public("k", DataType::Int),
        ColumnDef::public("v", DataType::Int),
    ]);
    let build_rows: Vec<(Option<i64>, i64)> = (0..200).map(|i| (Some(7), i)).collect();
    let build_chunks: Vec<&[(Option<i64>, i64)]> = build_rows.chunks(25).collect();
    let probe: &[(Option<i64>, i64)] = &[(Some(7), 1), (Some(8), 2), (Some(7), 3)];

    let catalog = Catalog::new();
    let reg = registry();
    let ctx = tiny_budget_ctx(&catalog, &reg, 16);
    let mut grace = GraceHashJoin::new(
        Arc::clone(&ctx),
        FixedBatches::boxed(keyed_batches(&schema, &[probe])),
        FixedBatches::boxed(keyed_batches(&right_schema, &build_chunks)),
        JoinKind::Inner,
        vec![col("a")],
        vec![col("k")],
    );
    let out = drain_operator(&mut grace).unwrap();
    // Two probe rows match all 200 build rows each; the a=8 row matches none.
    assert_eq!(out.num_rows(), 400);
    assert_eq!(ctx.pager().resident_bytes(), 0);
}

/// Empty sides under a budget behave exactly like the in-memory join: an
/// empty build side joins nothing, an empty (but schema-carrying) probe side
/// yields an empty combined batch.
#[test]
fn grace_join_with_empty_sides() {
    use super::grace_join::GraceHashJoin;

    let catalog = Catalog::new();
    let reg = registry();
    let schema = ab_schema();
    let empty = || FixedBatches::boxed(vec![RecordBatch::empty(ab_schema())]);

    let ctx = tiny_budget_ctx(&catalog, &reg, 16);
    let left = FixedBatches::boxed(int_batches(&schema, &[&[(1, 1)]]));
    let mut join = GraceHashJoin::new(
        Arc::clone(&ctx),
        left,
        empty(),
        JoinKind::Inner,
        vec![col("a")],
        vec![col("a")],
    );
    assert_eq!(drain_operator(&mut join).unwrap().num_rows(), 0);

    let right = FixedBatches::boxed(int_batches(&schema, &[&[(1, 1)]]));
    let mut join = GraceHashJoin::new(
        Arc::clone(&ctx),
        empty(),
        right,
        JoinKind::Inner,
        vec![col("a")],
        vec![col("a")],
    );
    let out = drain_operator(&mut join).unwrap();
    assert_eq!(out.num_rows(), 0);
    assert_eq!(out.num_columns(), 4);
}

/// A spill-forced Grace join whose keys are oracle group tags: each side
/// resolves in exactly one coalesced round trip, spilled chunks are never
/// re-resolved (the rendered `__joinkey` rides the partition streams), and
/// the output stays byte-identical to the in-memory join.
#[test]
fn grace_join_resolves_oracle_keys_in_one_trip_per_side() {
    use super::grace_join::GraceHashJoin;

    let catalog = Catalog::new();
    let reg = registry();
    let oracle: crate::secure::OracleRef = std::sync::Arc::new(ContentOracle);
    let tag_key = |handle: &str| Expr::Function {
        name: "SDB_GROUP_TAG".to_string(),
        args: vec![
            col("v"),
            col("rid"),
            Expr::Literal(Literal::Str(handle.into())),
        ],
        distinct: false,
        wildcard: false,
    };
    // Probe (left): 48 rows in 6 batches; build (right): 32 rows in 4
    // batches. Distinct handles per side so the memo cannot mask trip counts.
    let left_in = || FixedBatches::boxed(encrypted_batches(6, 8));
    let right_in = || FixedBatches::boxed(encrypted_batches(4, 8));

    let unlimited = context(
        &catalog,
        &reg,
        Some(oracle.clone()),
        ExecConfig {
            batch_size: 16,
            ..ExecConfig::default()
        },
    );
    let mut reference = HashJoin::new(
        Arc::clone(&unlimited),
        left_in(),
        right_in(),
        JoinKind::Inner,
        vec![tag_key("hL")],
        vec![tag_key("hR")],
    );
    let expected = drain_operator(&mut reference).unwrap();
    assert!(expected.num_rows() > 0, "tags must produce matches");

    // Batched Grace under a spill-forcing budget: one trip per side, total.
    let ctx = context(
        &catalog,
        &reg,
        Some(oracle.clone()),
        ExecConfig {
            memory_budget: MemoryBudget::bytes(256),
            batch_size: 16,
            ..ExecConfig::default()
        },
    );
    let mut grace = GraceHashJoin::new(
        Arc::clone(&ctx),
        left_in(),
        right_in(),
        JoinKind::Inner,
        vec![tag_key("hL")],
        vec![tag_key("hR")],
    );
    let out = drain_operator(&mut grace).unwrap();
    assert_eq!(expected, out, "oracle-keyed grace join diverged");
    let stats = ctx.stats();
    assert!(
        stats.join_spilled_rows > 0,
        "a 256-byte budget must force partitioning: {stats:?}"
    );
    assert_eq!(
        stats.oracle_round_trips, 2,
        "one coalesced trip per side, zero per spilled chunk"
    );
    assert_eq!(stats.oracle_rows_shipped, 80, "48 probe + 32 build rows");
    assert_eq!(stats.oracle_memo_hits, 0, "handles differ per side");
    assert_eq!(ctx.pager().resident_bytes(), 0);

    // Batching off: every accumulated chunk pays its own trips, same bytes.
    let ctx = context(
        &catalog,
        &reg,
        Some(oracle),
        ExecConfig {
            memory_budget: MemoryBudget::bytes(256),
            batch_size: 16,
            oracle_batching: false,
            ..ExecConfig::default()
        },
    );
    let mut grace = GraceHashJoin::new(
        Arc::clone(&ctx),
        left_in(),
        right_in(),
        JoinKind::Inner,
        vec![tag_key("hL")],
        vec![tag_key("hR")],
    );
    let out = drain_operator(&mut grace).unwrap();
    assert_eq!(expected, out, "unbatched grace join diverged");
    assert!(
        ctx.stats().oracle_round_trips > 2,
        "per-chunk resolution pays a trip per chunk: {:?}",
        ctx.stats()
    );
}

#[test]
fn describe_renders_operator_trees() {
    let catalog = catalog_with_numbers(&[(1, 2)]);
    let reg = registry();
    let ctx = context(&catalog, &reg, None, ExecConfig::default());
    let scan: BoxedOperator<'_> = Box::new(TableScan::new(Arc::clone(&ctx), "numbers", None));
    let filter: BoxedOperator<'_> = Box::new(Filter::new(
        Arc::clone(&ctx),
        scan,
        Expr::Binary {
            left: Box::new(col("a")),
            op: BinaryOp::Gt,
            right: Box::new(int(0)),
        },
    ));
    let limit = Limit::new(filter, 1);
    assert_eq!(limit.describe(), "Limit(Filter(TableScan))");
}
