//! Cost-based-optimizer cross-checks: reordered plans must produce results
//! **byte-identical** to the syntactic plans.
//!
//! The matrix runs every query at optimizer {on, off} × memory budget
//! {4 KiB, 64 KiB, unlimited} × parallelism {1, 4} against an
//! optimizer-off/unbudgeted/serial reference. Queries carry a total
//! `ORDER BY` (unique key combinations) so their output order is defined —
//! for order-free queries SQL leaves row order unspecified and the optimizer
//! documents the same.
//!
//! A proptest then hammers the same property over randomly generated
//! workload tables, and targeted tests pin the acceptance criteria: the
//! smallest relation becomes a hash-join build side, `EXPLAIN` reports
//! per-node rows and oracle-round-trip costs, and the block-nested-loop
//! right side stays paged under a budget.

use std::sync::Arc;

use proptest::prelude::*;

use sdb_engine::planner::execute_plan;
use sdb_engine::{ExecConfig, ExecContext, MemoryBudget, SpEngine, UdfRegistry};
use sdb_sql::plan::{LogicalPlan, PlanBuilder};
use sdb_sql::{parse_sql, Statement};
use sdb_storage::{Catalog, ColumnDef, DataType, RecordBatch, Schema, Value};

fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

/// Three tables with heavily skewed sizes: `big` (fact), `mid`, `small`.
/// `big.grp` joins `mid.g`; `mid.h` joins `small.h`; `small` also matches
/// `big.sm` directly for star-shaped queries.
fn skewed_catalog(big_rows: usize, mid_rows: usize, small_rows: usize) -> Catalog {
    let catalog = Catalog::new();
    let big = catalog
        .create_table(
            "big",
            Schema::new(vec![
                ColumnDef::public("id", DataType::Int),
                ColumnDef::public("grp", DataType::Int),
                ColumnDef::public("sm", DataType::Int),
                ColumnDef::public("val", DataType::Int),
            ]),
        )
        .unwrap();
    {
        let mut t = big.write();
        for i in 0..big_rows {
            let r = mix(i as u64);
            t.insert_row(vec![
                Value::Int(i as i64),
                Value::Int((r % mid_rows.max(1) as u64) as i64),
                Value::Int((r % small_rows.max(1) as u64) as i64),
                Value::Int((r % 97) as i64),
            ])
            .unwrap();
        }
    }
    let mid = catalog
        .create_table(
            "mid",
            Schema::new(vec![
                ColumnDef::public("g", DataType::Int),
                ColumnDef::public("h", DataType::Int),
                ColumnDef::public("w", DataType::Int),
            ]),
        )
        .unwrap();
    {
        let mut t = mid.write();
        for i in 0..mid_rows {
            t.insert_row(vec![
                Value::Int(i as i64),
                Value::Int((i % small_rows.max(1)) as i64),
                Value::Int((mix(i as u64) % 31) as i64),
            ])
            .unwrap();
        }
    }
    let small = catalog
        .create_table(
            "small",
            Schema::new(vec![
                ColumnDef::public("h", DataType::Int),
                ColumnDef::public("label", DataType::Varchar),
            ]),
        )
        .unwrap();
    {
        let mut t = small.write();
        for i in 0..small_rows {
            t.insert_row(vec![Value::Int(i as i64), Value::Str(format!("s{i}"))])
                .unwrap();
        }
    }
    catalog
}

fn parse_plan(sql: &str) -> LogicalPlan {
    match parse_sql(sql).unwrap() {
        Statement::Query(q) => PlanBuilder::build(&q).unwrap(),
        other => panic!("expected query, got {other:?}"),
    }
}

fn run(
    catalog: &Catalog,
    sql: &str,
    optimizer: bool,
    budget: MemoryBudget,
    parallelism: usize,
) -> RecordBatch {
    let registry = UdfRegistry::with_sdb_udfs();
    let ctx = Arc::new(ExecContext::new(
        catalog,
        &registry,
        None,
        ExecConfig {
            optimizer,
            memory_budget: budget,
            parallelism,
            ..ExecConfig::default()
        },
        None,
        None,
    ));
    let plan = parse_plan(sql);
    execute_plan(&ctx, &plan).unwrap_or_else(|e| panic!("query failed: {sql}: {e}"))
}

/// Multi-join queries with total ORDER BY keys, exercising reordered hash
/// joins, implicit joins through WHERE, LEFT joins above inner regions,
/// aggregation and subqueries.
const MATRIX_QUERIES: &[&str] = &[
    // 3-way chain, skewed sizes.
    "SELECT b.id, m.g, s.label FROM big b \
     JOIN mid m ON b.grp = m.g JOIN small s ON m.h = s.h \
     ORDER BY b.id, m.g",
    // Star: both dimensions join the fact directly.
    "SELECT b.id, m.g, s.label FROM big b \
     JOIN mid m ON b.grp = m.g JOIN small s ON b.sm = s.h \
     ORDER BY b.id, m.g",
    // Implicit joins: the region forms through the WHERE clause; the
    // single-table conjunct stays above the region.
    "SELECT b.id, s.label FROM big b, mid m, small s \
     WHERE b.grp = m.g AND m.h = s.h AND b.val > 40 \
     ORDER BY b.id, s.label",
    // Aggregation above the reordered region (ORDER BY on unique group key).
    "SELECT s.label, COUNT(*) AS n, SUM(b.val) AS total FROM big b \
     JOIN mid m ON b.grp = m.g JOIN small s ON m.h = s.h \
     GROUP BY s.label ORDER BY s.label",
    // LEFT JOIN above an inner region: only the region below reorders.
    "SELECT b.id, m.g, s.label FROM big b \
     JOIN mid m ON b.grp = m.g LEFT JOIN small s ON m.w = s.h \
     ORDER BY b.id, m.g",
    // Subquery over a second region.
    "SELECT b.id FROM big b JOIN mid m ON b.grp = m.g \
     WHERE b.val > (SELECT COUNT(*) FROM small) \
     ORDER BY b.id, m.g",
];

#[test]
fn optimizer_matches_syntactic_plans_across_knob_matrix() {
    let catalog = skewed_catalog(600, 40, 6);
    catalog.analyze_all().unwrap();

    for sql in MATRIX_QUERIES {
        let reference = run(&catalog, sql, false, MemoryBudget::unlimited(), 1);
        assert!(reference.num_rows() > 0, "degenerate matrix query: {sql}");
        for optimizer in [true, false] {
            for budget in [
                MemoryBudget::bytes(4 * 1024),
                MemoryBudget::bytes(64 * 1024),
                MemoryBudget::unlimited(),
            ] {
                for parallelism in [1usize, 4] {
                    let got = run(&catalog, sql, optimizer, budget.clone(), parallelism);
                    assert_eq!(
                        got, reference,
                        "optimizer={optimizer} budget={budget:?} \
                         parallelism={parallelism} diverged for: {sql}"
                    );
                }
            }
        }
    }
}

/// Kernels-on vs kernels-off byte-identity over *optimized* plans: the
/// vectorised fast paths must not change a byte even when join reordering
/// and selection pushdown have reshaped the plan, across the budget ×
/// parallelism matrix.
#[test]
fn kernels_match_scalar_across_optimized_matrix() {
    let catalog = skewed_catalog(600, 40, 6);
    catalog.analyze_all().unwrap();
    let registry = UdfRegistry::with_sdb_udfs();
    let run_v = |sql: &str, vectorised: bool, budget: MemoryBudget, parallelism: usize| {
        let ctx = Arc::new(ExecContext::new(
            &catalog,
            &registry,
            None,
            ExecConfig {
                vectorised,
                optimizer: true,
                memory_budget: budget,
                parallelism,
                ..ExecConfig::default()
            },
            None,
            None,
        ));
        let plan = parse_plan(sql);
        execute_plan(&ctx, &plan).unwrap_or_else(|e| panic!("query failed: {sql}: {e}"))
    };
    for sql in MATRIX_QUERIES {
        for budget in [
            MemoryBudget::bytes(4 * 1024),
            MemoryBudget::bytes(64 * 1024),
            MemoryBudget::unlimited(),
        ] {
            for parallelism in [1usize, 4] {
                let scalar = run_v(sql, false, budget.clone(), parallelism);
                let vectorised = run_v(sql, true, budget.clone(), parallelism);
                assert_eq!(
                    scalar, vectorised,
                    "kernels diverged (budget={budget:?} parallelism={parallelism}) for: {sql}"
                );
            }
        }
    }
}

#[test]
fn region_ambiguous_bare_name_keeps_syntactic_plan() {
    // `flag` is unique inside its original ON scope (a⋈b) but ambiguous
    // region-wide (a.flag and c.flag): the optimizer must keep the
    // syntactic plan rather than hoist the conjunct to where it no longer
    // resolves.
    let catalog = Catalog::new();
    for (name, cols) in [
        ("a", vec!["id", "flag", "va"]),
        ("b", vec!["id", "k", "vb"]),
        ("c", vec!["k", "flag", "vc"]),
    ] {
        let schema = Schema::new(
            cols.iter()
                .map(|c| ColumnDef::public(c, DataType::Int))
                .collect(),
        );
        let t = catalog.create_table(name, schema).unwrap();
        let mut guard = t.write();
        for i in 0..10i64 {
            guard
                .insert_row(vec![Value::Int(i % 5), Value::Int(i % 2), Value::Int(i)])
                .unwrap();
        }
    }
    catalog.analyze_all().unwrap();

    let sql = "SELECT a.va, b.vb, c.vc FROM a \
               JOIN b ON a.id = b.id AND flag = 1 \
               JOIN c ON b.k = c.k \
               ORDER BY a.va, b.vb, c.vc";
    let reference = run(&catalog, sql, false, MemoryBudget::unlimited(), 1);
    // Before the fix this errored with "ambiguous column reference flag".
    let got = run(&catalog, sql, true, MemoryBudget::unlimited(), 1);
    assert_eq!(got, reference);

    // The 3-leaf region containing the ambiguous conjunct must not be
    // reordered: `c` stays the outer join's right input, exactly as written.
    // (The unambiguous (a, b) sub-region may still re-plan internally — with
    // selection pushdown, `flag = 1` shrinks `a` into the cheaper build side
    // — so only the outer region's structure is pinned.)
    let plan = parse_plan(sql);
    let optimized = sdb_engine::Optimizer::new(&catalog).optimize(&plan);
    let rendered = optimized.describe();
    let positions: Vec<usize> = ["Scan(a)", "Scan(b)", "Scan(c)"]
        .iter()
        .map(|scan| rendered.find(scan).expect("all scans present"))
        .collect();
    assert!(
        positions[0] < positions[2] && positions[1] < positions[2],
        "region with an unresolvable conjunct must keep c outermost: {rendered}"
    );
}

#[test]
fn bare_limit_blocks_reordering_but_sorted_limit_does_not() {
    let catalog = skewed_catalog(200, 40, 6);
    catalog.analyze_all().unwrap();
    let optimizer = sdb_engine::Optimizer::new(&catalog);

    // LIMIT without ORDER BY: which rows survive the cutoff depends on the
    // production order, so the region must stay syntactic (otherwise the
    // result *set* changes, not just its order).
    let bare = parse_plan(
        "SELECT b.id, m.g, s.label FROM big b \
         JOIN mid m ON b.grp = m.g JOIN small s ON m.h = s.h LIMIT 3",
    );
    assert_eq!(
        optimizer.optimize(&bare).describe(),
        bare.describe(),
        "a bare LIMIT must block reordering below it"
    );
    let reference = {
        let registry = UdfRegistry::with_sdb_udfs();
        let ctx = Arc::new(ExecContext::new(
            &catalog,
            &registry,
            None,
            ExecConfig {
                optimizer: false,
                parallelism: 1,
                ..ExecConfig::default()
            },
            None,
            None,
        ));
        execute_plan(&ctx, &bare).unwrap()
    };
    let got = {
        let registry = UdfRegistry::with_sdb_udfs();
        let ctx = Arc::new(ExecContext::new(
            &catalog,
            &registry,
            None,
            ExecConfig {
                optimizer: true,
                parallelism: 1,
                ..ExecConfig::default()
            },
            None,
            None,
        ));
        execute_plan(&ctx, &bare).unwrap()
    };
    assert_eq!(got, reference, "bare-LIMIT result set must not change");

    // With a Sort pinned between LIMIT and the region, reordering is back on.
    let sorted = parse_plan(
        "SELECT b.id, m.g, s.label FROM big b \
         JOIN mid m ON b.grp = m.g JOIN small s ON m.h = s.h \
         ORDER BY b.id, m.g LIMIT 3",
    );
    assert_ne!(
        optimizer.optimize(&sorted).describe(),
        sorted.describe(),
        "an ordered LIMIT reorders as usual"
    );
}

#[test]
fn empty_tables_reorder_safely() {
    // Zero-row relations still have stats (row_count 0); reordered plans
    // must agree with syntactic ones on schema and emptiness.
    let catalog = skewed_catalog(50, 0, 0);
    catalog.analyze_all().unwrap();
    for sql in &MATRIX_QUERIES[..4] {
        let reference = run(&catalog, sql, false, MemoryBudget::unlimited(), 1);
        let got = run(&catalog, sql, true, MemoryBudget::bytes(4 * 1024), 2);
        assert_eq!(got, reference, "empty-table divergence for {sql}");
    }
}

#[test]
fn smallest_relation_becomes_hash_join_build_side() {
    let catalog = skewed_catalog(600, 40, 6);
    catalog.analyze_all().unwrap();
    // An explicit Optimizer (auto-analyze off) so a CI-level
    // SDB_TEST_ANALYZE cannot re-collect the stats this test clears below.
    let optimizer = sdb_engine::Optimizer::new(&catalog);

    let plan = parse_plan(MATRIX_QUERIES[0]);
    let optimized = optimizer.optimize(&plan);
    assert_ne!(
        optimized.describe(),
        plan.describe(),
        "stats present: the 3-way chain must reorder"
    );

    // `small` (6 rows) must sit as the right (= build) child of its join.
    fn small_is_right_child(plan: &LogicalPlan) -> bool {
        match plan {
            LogicalPlan::Join { left, right, .. } => {
                matches!(right.as_ref(), LogicalPlan::Scan { table, .. } if table == "small")
                    || small_is_right_child(left)
                    || small_is_right_child(right)
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. } => small_is_right_child(input),
            LogicalPlan::Scan { .. } => false,
        }
    }
    assert!(
        small_is_right_child(&optimized),
        "smallest relation must be a build side: {}",
        optimized.describe()
    );

    // Without statistics the syntactic plan survives untouched.
    catalog.clear_stats("big");
    let untouched = optimizer.optimize(&plan);
    assert_eq!(untouched.describe(), plan.describe());
}

#[test]
fn analyze_and_explain_through_the_engine() {
    let engine = SpEngine::new().with_parallelism(1);
    engine
        .execute_sql("CREATE TABLE f (id INT, d INT, v INT)")
        .unwrap();
    engine
        .execute_sql("CREATE TABLE d (id INT, t INT)")
        .unwrap();
    engine
        .execute_sql("CREATE TABLE t (id INT, name VARCHAR(10))")
        .unwrap();
    for i in 0..200 {
        engine
            .execute_sql(&format!(
                "INSERT INTO f VALUES ({i}, {}, {})",
                i % 20,
                i % 7
            ))
            .unwrap();
    }
    for i in 0..20 {
        engine
            .execute_sql(&format!("INSERT INTO d VALUES ({i}, {})", i % 4))
            .unwrap();
    }
    for i in 0..4 {
        engine
            .execute_sql(&format!("INSERT INTO t VALUES ({i}, 'x{i}')"))
            .unwrap();
    }

    // ANALYZE through SQL returns one row per analyzed table.
    let out = engine.execute_sql("ANALYZE").unwrap();
    assert_eq!(out.batch.num_rows(), 3);
    assert_eq!(engine.catalog().table_stats("f").unwrap().row_count, 200);

    // EXPLAIN renders the physical tree plus per-node rows and costs
    // (oracle round trips included), without executing anything.
    let sql = "EXPLAIN SELECT f.id, t.name FROM f \
               JOIN d ON f.d = d.id JOIN t ON d.t = t.id \
               ORDER BY f.id";
    let out = engine.execute_sql(sql).unwrap();
    let lines: Vec<String> = out
        .batch
        .column(0)
        .values()
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect();
    let text = lines.join("\n");
    assert!(text.contains("physical plan"), "{text}");
    assert!(text.contains("HashJoin"), "{text}");
    assert!(text.contains("rows≈"), "{text}");
    assert!(text.contains("trips="), "{text}");
    assert!(text.contains("total cost≈"), "{text}");
    // The smallest relation (t, 4 rows) is a build side in the reordered
    // physical tree: it appears as the second child of a HashJoin.
    assert!(text.contains("Join[Inner] (build = right child)"), "{text}");

    // The optimizer-off engine explains the syntactic plan.
    let syntactic = SpEngine::with_catalog(Arc::clone(engine.catalog())).with_optimizer(false);
    let off = syntactic.explain_sql(sql).unwrap().join("\n");
    assert!(off.contains("optimizer off"), "{off}");
}

#[test]
fn nested_loop_right_side_stays_paged_under_budget() {
    // A non-equi join forces the nested-loop operator; with a tiny budget
    // its right side must route through the pager (block-nested-loop) and
    // still match the in-memory answer byte for byte.
    let catalog = skewed_catalog(120, 60, 6);
    let sql = "SELECT b.id, m.g FROM big b JOIN mid m ON b.grp > m.g \
               WHERE m.g > 30 ORDER BY b.id, m.g";
    let reference = run(&catalog, sql, false, MemoryBudget::unlimited(), 1);

    let registry = UdfRegistry::with_sdb_udfs();
    // The scan reads only `m.g` (60 ints, under 512 B): the budget sits
    // below that.
    let ctx = Arc::new(ExecContext::new(
        &catalog,
        &registry,
        None,
        ExecConfig {
            memory_budget: MemoryBudget::bytes(128),
            parallelism: 1,
            ..ExecConfig::default()
        },
        None,
        None,
    ));
    let plan = parse_plan(sql);
    let got = execute_plan(&ctx, &plan).unwrap();
    assert_eq!(got, reference, "paged nested loop diverged");
    let stats = ctx.stats();
    assert!(
        stats.spill_bytes_written > 0,
        "128B budget must park the right side in the pager: {stats:?}"
    );
    assert!(
        stats.spill_bytes_read >= stats.spill_bytes_written,
        "each left batch re-reads the right pages: {stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random workload tables: optimizer-on results equal optimizer-off
    /// results for ordered multi-join queries at every budget.
    #[test]
    fn optimizer_identity_over_random_tables(
        big_rows in 1usize..200,
        mid_rows in 1usize..40,
        small_rows in 1usize..8,
        tiny_budget in any::<bool>(),
    ) {
        let catalog = skewed_catalog(big_rows, mid_rows, small_rows);
        catalog.analyze_all().unwrap();
        let budget = if tiny_budget {
            MemoryBudget::bytes(4 * 1024)
        } else {
            MemoryBudget::unlimited()
        };
        for sql in &MATRIX_QUERIES[..3] {
            let reference = run(&catalog, sql, false, MemoryBudget::unlimited(), 1);
            let got = run(&catalog, sql, true, budget.clone(), 2);
            prop_assert_eq!(
                &got,
                &reference,
                "optimizer diverged for {} at {} x {} x {} rows",
                sql, big_rows, mid_rows, small_rows
            );
        }
    }
}
