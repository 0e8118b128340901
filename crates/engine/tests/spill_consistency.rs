//! Bounded-memory execution cross-checks: with a budget small enough to
//! force spilling, sort and aggregate plans must produce results
//! **byte-identical** to the unbudgeted in-memory path — at parallelism
//! {1, 4} × batch size {2, default} — and every spill temp file must be gone
//! once the query's context drops, on success and on error alike.

use std::sync::Arc;

use proptest::prelude::*;

use sdb_engine::planner::execute_plan;
use sdb_engine::{ExecConfig, ExecContext, MemoryBudget, UdfRegistry, DEFAULT_BATCH_SIZE};
use sdb_sql::ast::Query;
use sdb_sql::plan::PlanBuilder;
use sdb_sql::{parse_sql, Statement};
use sdb_storage::{BufferPool, Catalog, ColumnDef, DataType, Pager, RecordBatch, Schema, Value};

/// Deterministic pseudo-random stream (no RNG dependency in the data).
fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

/// A `big(id, grp, val, name)` fact table plus a `dim(k, label)` dimension.
fn generated_catalog(rows: usize) -> Catalog {
    let catalog = Catalog::new();
    let big = catalog
        .create_table(
            "big",
            Schema::new(vec![
                ColumnDef::public("id", DataType::Int),
                ColumnDef::public("grp", DataType::Int),
                ColumnDef::public("val", DataType::Int),
                ColumnDef::public("name", DataType::Varchar),
            ]),
        )
        .unwrap();
    {
        let mut t = big.write();
        for i in 0..rows {
            let r = mix(i as u64);
            t.insert_row(vec![
                Value::Int(i as i64),
                Value::Int((r % 7) as i64),
                // Many collisions so sort stability is observable.
                Value::Int((r % 50) as i64),
                Value::Str(format!("n{}", r % 23)),
            ])
            .unwrap();
        }
    }
    let dim = catalog
        .create_table(
            "dim",
            Schema::new(vec![
                ColumnDef::public("k", DataType::Int),
                ColumnDef::public("label", DataType::Varchar),
            ]),
        )
        .unwrap();
    {
        let mut t = dim.write();
        for k in 0..5 {
            t.insert_row(vec![Value::Int(k), Value::Str(format!("g{k}"))])
                .unwrap();
        }
    }
    catalog
}

fn parse_query(sql: &str) -> Query {
    match parse_sql(sql).unwrap() {
        Statement::Query(q) => q,
        other => panic!("expected query, got {other:?}"),
    }
}

fn run(
    catalog: &Catalog,
    query: &Query,
    parallelism: usize,
    batch_size: usize,
    budget: MemoryBudget,
) -> (RecordBatch, sdb_engine::ExecutionStats) {
    let registry = UdfRegistry::with_sdb_udfs();
    // This suite pins which operator spills by fixing the *syntactic* plan;
    // the optimizer stays off so a CI-level SDB_TEST_ANALYZE cannot reorder
    // the joins out from under the per-query spill expectations.
    // (Optimized-plan byte-identity has its own matrix in
    // optimizer_consistency.rs.)
    let ctx = Arc::new(ExecContext::new(
        catalog,
        &registry,
        None,
        ExecConfig {
            memory_budget: budget,
            optimizer: false,
            parallelism,
            batch_size,
            ..ExecConfig::default()
        },
        None,
        None,
    ));
    let plan = PlanBuilder::build(query).unwrap();
    let batch = execute_plan(&ctx, &plan).unwrap();
    (batch, ctx.stats())
}

const SPILL_QUERIES: &[&str] = &[
    // Multi-key sorts with heavy key collisions (stability matters).
    "SELECT id, grp, val FROM big ORDER BY val, grp",
    "SELECT name, val FROM big ORDER BY name DESC, id",
    "SELECT val FROM big ORDER BY val DESC LIMIT 25",
    // Grouped aggregation: every aggregate kind, distinct included.
    "SELECT grp, COUNT(*) AS n, SUM(val) AS s, AVG(val) AS m, MIN(val) AS lo, MAX(val) AS hi \
     FROM big GROUP BY grp ORDER BY grp",
    "SELECT name, COUNT(DISTINCT grp) AS dg, SUM(val) AS s FROM big GROUP BY name ORDER BY name",
    "SELECT COUNT(*) AS n, SUM(val) AS s FROM big",
    // Aggregate above a join, then sorted.
    "SELECT d.label, SUM(b.val) AS s FROM big b JOIN dim d ON b.grp = d.k \
     GROUP BY d.label ORDER BY s DESC, d.label",
    // Sort feeding distinct-above semantics.
    "SELECT DISTINCT grp FROM big ORDER BY grp",
];

/// Join-heavy plans for the Grace hash join: inner and LEFT joins, residual
/// ON conjuncts, self joins and join-above-aggregate shapes. The flag says
/// whether the plan's *build* (right) side is big enough that a 4KB budget
/// must actually spill it — joins whose build side is the 5-row `dim` table
/// stay on the in-memory path even under a budget, and the residual LEFT
/// JOIN keeps the nested-loop plan, which never partitions. Only some queries
/// carry a top-level ORDER BY: hash-join output order itself is part of the
/// byte-identity contract, so most compare raw join order.
const JOIN_QUERIES: &[(&str, bool)] = &[
    // Small probe side, spilling build side (dim ⋈ big).
    (
        "SELECT d.label, b.id FROM dim d JOIN big b ON d.k = b.grp",
        true,
    ),
    // Self join on a composite key: both sides big, collisions on (grp, val).
    (
        "SELECT a.id, b.id FROM big a JOIN big b ON a.grp = b.grp AND a.val = b.val \
         WHERE a.id < 500",
        true,
    ),
    // LEFT JOIN null-padding: dim rows without matches (grp spans 0..7 only).
    (
        "SELECT d.label, b.id FROM dim d LEFT JOIN big b ON d.k = b.grp",
        true,
    ),
    // LEFT JOIN with a small build side: the in-memory fallback path.
    (
        "SELECT b.id, d.label FROM big b LEFT JOIN dim d ON b.grp = d.k",
        false,
    ),
    // Residual ON conjunct above an inner hash join (filter above the join).
    (
        "SELECT d.label, b.id FROM dim d JOIN big b ON d.k = b.grp AND b.val > 25",
        true,
    ),
    // LEFT JOIN with a residual: stays nested-loop under every budget —
    // residuals decide matching, and both plans must agree.
    (
        "SELECT d.label, b.id FROM dim d LEFT JOIN big b ON d.k = b.grp AND b.val < 3",
        false,
    ),
    // Join feeding a blocking consumer (external sort above the join).
    (
        "SELECT d.label, b.id FROM dim d JOIN big b ON d.k = b.grp ORDER BY b.val, b.id",
        true,
    ),
    // Join plus a scalar subquery that itself runs (and spills) under the
    // inherited budget.
    (
        "SELECT d.label, b.id FROM dim d JOIN big b ON d.k = b.grp \
         WHERE b.val > (SELECT AVG(val) FROM big)",
        true,
    ),
];

/// The Grace hash join acceptance bar: inner + LEFT + residual-ON joins,
/// byte-identical to the unbudgeted in-memory plans across the whole knob
/// matrix, with the big-build-side plans actually spilling.
#[test]
fn grace_join_matches_in_memory_across_knob_matrix() {
    let catalog = generated_catalog(3_000);
    for &(sql, expect_spill) in JOIN_QUERIES {
        let query = parse_query(sql);
        let (reference, _) = run(
            &catalog,
            &query,
            1,
            DEFAULT_BATCH_SIZE,
            MemoryBudget::unlimited(),
        );
        let mut spilled_somewhere = false;
        for budget_bytes in [4 * 1024, 64 * 1024] {
            for parallelism in [1, 4] {
                for batch_size in [2, DEFAULT_BATCH_SIZE] {
                    let (out, stats) = run(
                        &catalog,
                        &query,
                        parallelism,
                        batch_size,
                        MemoryBudget::bytes(budget_bytes),
                    );
                    assert_eq!(
                        reference, out,
                        "budget={budget_bytes} parallelism={parallelism} \
                         batch_size={batch_size} diverged for: {sql}"
                    );
                    spilled_somewhere |= stats.join_spilled_rows > 0;
                }
            }
        }
        assert_eq!(
            spilled_somewhere, expect_spill,
            "build-side spill expectation wrong for: {sql}"
        );
    }
}

/// Grace-join metrics surface in the merged snapshot: partition and spilled
/// row counts, plus pager page traffic, at serial and parallel settings.
#[test]
fn grace_join_metrics_surface_in_stats() {
    let catalog = generated_catalog(3_000);
    let query = parse_query("SELECT d.label, b.id FROM dim d JOIN big b ON d.k = b.grp");
    for parallelism in [1, 4] {
        let (_, stats) = run(
            &catalog,
            &query,
            parallelism,
            DEFAULT_BATCH_SIZE,
            MemoryBudget::bytes(4 * 1024),
        );
        assert!(
            stats.join_build_partitions > 0,
            "parallelism {parallelism}: {stats:?}"
        );
        assert!(stats.join_spilled_rows >= 3_000, "whole build side routed");
        assert!(
            stats.pages_spilled > 0,
            "partition pages hit the spill file"
        );
        assert!(stats.spill_bytes_read > 0, "pair joining reads them back");
    }
}

/// The acceptance bar: tiny and moderate budgets, across the parallelism ×
/// batch-size matrix, all byte-identical to the unbudgeted reference.
#[test]
fn spilling_matches_in_memory_across_knob_matrix() {
    let catalog = generated_catalog(3_000);
    for sql in SPILL_QUERIES {
        let query = parse_query(sql);
        let (reference, _) = run(
            &catalog,
            &query,
            1,
            DEFAULT_BATCH_SIZE,
            MemoryBudget::unlimited(),
        );
        let mut spilled_somewhere = false;
        for budget_bytes in [4 * 1024, 64 * 1024] {
            for parallelism in [1, 4] {
                for batch_size in [2, DEFAULT_BATCH_SIZE] {
                    let (out, stats) = run(
                        &catalog,
                        &query,
                        parallelism,
                        batch_size,
                        MemoryBudget::bytes(budget_bytes),
                    );
                    assert_eq!(
                        reference, out,
                        "budget={budget_bytes} parallelism={parallelism} \
                         batch_size={batch_size} diverged for: {sql}"
                    );
                    spilled_somewhere |= stats.pages_spilled > 0;
                }
            }
        }
        assert!(
            spilled_somewhere,
            "a 4KB budget over 3k rows must actually spill for: {sql}"
        );
    }
}

/// Spill metrics surface in the merged stats snapshot (and a parallel run
/// reports them too, through the shared pager).
#[test]
fn spill_metrics_surface_in_stats() {
    let catalog = generated_catalog(3_000);
    let query = parse_query("SELECT id FROM big ORDER BY val, id");
    for parallelism in [1, 4] {
        let (_, stats) = run(
            &catalog,
            &query,
            parallelism,
            DEFAULT_BATCH_SIZE,
            MemoryBudget::bytes(4 * 1024),
        );
        assert!(
            stats.pages_spilled > 0,
            "parallelism {parallelism}: {stats:?}"
        );
        assert!(stats.spill_bytes_written > 0);
        assert!(stats.spill_bytes_read > 0, "merge reads pages back");
        assert!(stats.pages_evicted >= stats.pages_spilled);
        assert!(stats.peak_resident_pages > 0);
    }
}

/// Spill files live in the configured directory while the query runs and are
/// gone when the context drops — success path.
#[test]
fn spill_files_removed_after_query_drop() {
    let dir = std::env::temp_dir().join(format!("sdb-spill-ok-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let catalog = generated_catalog(2_000);
    let registry = UdfRegistry::with_sdb_udfs();

    let spill_path = {
        let ctx = Arc::new(ExecContext::new(
            &catalog,
            &registry,
            None,
            ExecConfig {
                memory_budget: MemoryBudget::bytes(2 * 1024).with_spill_dir(&dir),
                ..ExecConfig::default()
            },
            None,
            None,
        ));
        let plan = PlanBuilder::build(&parse_query("SELECT id FROM big ORDER BY val, id")).unwrap();
        execute_plan(&ctx, &plan).unwrap();
        let path = ctx
            .pager()
            .spill_path()
            .expect("a 2KB budget over 2k rows must create a spill file");
        assert!(path.exists(), "spill file exists while the context lives");
        assert_eq!(path.parent(), Some(dir.as_path()), "honours the spill dir");
        path
    };
    assert!(!spill_path.exists(), "context drop must delete the file");
    std::fs::remove_dir(&dir).expect("spill dir must be empty again");
}

/// The error path: a query that fails *after* spilling (SUM over a VARCHAR
/// column errors at finalisation) must still clean its spill file up.
#[test]
fn spill_files_removed_after_failed_query() {
    let dir = std::env::temp_dir().join(format!("sdb-spill-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let catalog = generated_catalog(2_000);
    let registry = UdfRegistry::with_sdb_udfs();

    let spill_path = {
        let ctx = Arc::new(ExecContext::new(
            &catalog,
            &registry,
            None,
            ExecConfig {
                memory_budget: MemoryBudget::bytes(2 * 1024).with_spill_dir(&dir),
                ..ExecConfig::default()
            },
            None,
            None,
        ));
        let plan = PlanBuilder::build(&parse_query("SELECT SUM(name) AS s FROM big")).unwrap();
        let result = execute_plan(&ctx, &plan);
        assert!(result.is_err(), "summing strings must fail");
        let stats = ctx.stats();
        assert!(
            stats.pages_spilled > 0,
            "the failure must happen after spilling: {stats:?}"
        );
        ctx.pager().spill_path().expect("spill file was created")
    };
    assert!(!spill_path.exists(), "error path must delete the file too");
    std::fs::remove_dir(&dir).expect("spill dir must be empty again");
}

/// Builds a small catalog from arbitrary rows (with NULLs and duplicate
/// keys) for the property test.
fn catalog_from_rows(rows: &[(i64, i64, bool)]) -> Catalog {
    let catalog = Catalog::new();
    let t = catalog
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::public("k", DataType::Int),
                ColumnDef::public("v", DataType::Int),
            ]),
        )
        .unwrap();
    let mut guard = t.write();
    for &(k, v, null_v) in rows {
        guard
            .insert_row(vec![
                Value::Int(k),
                if null_v { Value::Null } else { Value::Int(v) },
            ])
            .unwrap();
    }
    drop(guard);
    catalog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for arbitrary small tables (duplicate-heavy keys, NULLs),
    /// a 1KB budget yields byte-identical results to the in-memory path for
    /// both a stable multi-batch sort and a grouped aggregate, at
    /// parallelism 1 and 4.
    #[test]
    fn budgeted_equals_unbudgeted_property(
        rows in proptest::collection::vec((0i64..8, -100i64..100, any::<bool>()), 0..120),
        batch_size in 1usize..9,
    ) {
        let catalog = catalog_from_rows(&rows);
        for sql in [
            "SELECT k, v FROM t ORDER BY k",
            "SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo FROM t GROUP BY k",
        ] {
            let query = parse_query(sql);
            let (reference, _) =
                run(&catalog, &query, 1, DEFAULT_BATCH_SIZE, MemoryBudget::unlimited());
            for parallelism in [1usize, 4] {
                let (out, _) = run(
                    &catalog,
                    &query,
                    parallelism,
                    batch_size,
                    MemoryBudget::bytes(1024),
                );
                prop_assert_eq!(&reference, &out, "parallelism {} for {}", parallelism, sql);
            }
        }
    }
}

/// A subquery spills through its parent's pager lease. On a shared pool,
/// under a 4 KiB budget share, an uncorrelated subquery whose sort spills
/// returns the unbudgeted bytes, and every page it spilled shows on the
/// lease (what the serving layer bills the session) and in the query's
/// statistics, counted once.
#[test]
fn subqueries_spill_through_the_parents_lease() {
    let catalog = generated_catalog(2_000);
    let registry = UdfRegistry::with_sdb_udfs();
    // Only the subquery materialises: the outer scan and filter stream.
    let query = parse_query(
        "SELECT id, val FROM big WHERE id < 40 AND val IN (SELECT val FROM big ORDER BY name, id)",
    );
    let plan = PlanBuilder::build(&query).unwrap();
    let serial = ExecConfig {
        parallelism: 1,
        optimizer: false,
        ..ExecConfig::default()
    };
    let unbudgeted = ExecConfig {
        memory_budget: MemoryBudget::unlimited(),
        ..serial.clone()
    };
    let reference = execute_plan(
        &Arc::new(ExecContext::new(
            &catalog, &registry, None, unbudgeted, None, None,
        )),
        &plan,
    )
    .unwrap();
    assert_eq!(reference.num_rows(), 40);

    let pool = Arc::new(BufferPool::new(&MemoryBudget::bytes(1 << 20)));
    let lease = Arc::new(Pager::shared(&pool));
    let budgeted = ExecConfig {
        memory_budget: MemoryBudget::bytes(4 << 10),
        ..serial
    };
    let ctx = Arc::new(ExecContext::new(
        &catalog,
        &registry,
        None,
        budgeted,
        Some(Arc::clone(&lease)),
        None,
    ));
    let out = execute_plan(&ctx, &plan).unwrap();
    assert_eq!(out, reference, "the budgeted subquery changed bytes");
    let spilled = lease.stats().pages_spilled;
    assert!(spilled > 0, "the subquery's sort must spill on the lease");
    assert_eq!(ctx.stats().pages_spilled, spilled);
}

/// A UDF that panics on its `calls`-th invocation.
struct PanicAfter {
    calls: std::sync::atomic::AtomicUsize,
}

impl sdb_engine::ScalarUdf for PanicAfter {
    fn name(&self) -> &str {
        "PANIC_AFTER"
    }

    fn invoke(&self, _: &[Value]) -> sdb_engine::Result<Value> {
        let call = self
            .calls
            .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
        assert!(call > 1, "a bug inside a user-defined function");
        Ok(Value::Bool(true))
    }
}

/// A query that panics after it has spilled on a shared lease fails with an
/// error instead. The unwound operators free their pages as they drop, so a
/// caller that keeps the lease sees none left; releasing the lease, as the
/// serving layer does after every query, then deletes the spill file, exactly
/// as after any other error; the next query on the same pool answers byte
/// for byte what a fresh engine does.
#[test]
fn a_panicking_query_fails_and_leaves_its_pool_clean() {
    let sorted = "SELECT id, val FROM big ORDER BY val, id";
    let mut engine = sdb_engine::SpEngine::with_catalog(Arc::new(generated_catalog(2_000)))
        .with_config(ExecConfig {
            batch_size: 64,
            parallelism: 1,
            ..ExecConfig::default()
        });
    engine.registry_mut().register(Arc::new(PanicAfter {
        calls: std::sync::atomic::AtomicUsize::new(1_500),
    }));
    let pool = Arc::new(BufferPool::new(&MemoryBudget::unlimited()));
    let opts = |lease: &Arc<Pager>| {
        sdb_engine::QueryOptions::default()
            .with_memory_budget(MemoryBudget::bytes(2 * 1024))
            .with_pager(Arc::clone(lease))
    };

    let lease = Arc::new(Pager::shared(&pool));
    let failed = engine.execute_sql_with(
        "SELECT id, val FROM big WHERE PANIC_AFTER(id) ORDER BY val, id",
        &opts(&lease),
    );
    assert!(
        matches!(&failed, Err(sdb_engine::EngineError::Panicked { detail })
            if detail.contains("a bug inside a user-defined function")),
        "{failed:?}"
    );
    assert!(
        lease.stats().pages_spilled > 0,
        "the panic came after spilling"
    );
    assert_eq!(
        (pool.resident_pages(), lease.resident_bytes()),
        (0, 0),
        "the kept lease holds no page of the failed query"
    );
    let spill_file = lease.spill_path().expect("the lease spilled to a file");
    drop(lease);
    assert!(!spill_file.exists(), "the spill file went with the lease");
    assert_eq!(
        (
            pool.lease_count(),
            pool.resident_pages(),
            pool.spill_file_count()
        ),
        (0, 0, 0)
    );

    let lease = Arc::new(Pager::shared(&pool));
    let after = engine.execute_sql_with(sorted, &opts(&lease)).unwrap();
    assert!(lease.stats().pages_spilled > 0);
    let fresh = sdb_engine::SpEngine::with_catalog(Arc::new(generated_catalog(2_000)))
        .execute_sql(sorted)
        .unwrap();
    assert_eq!(after.batch, fresh.batch);
}

/// Every blocking node whose input fits a limited budget stays in memory:
/// the same operator that overflows a small lease appends no page to a
/// 1 MiB one, and answers as the unlimited run does.
#[test]
fn blocking_nodes_that_fit_a_limited_lease_append_no_page() {
    let catalog = generated_catalog(1_000);
    let registry = UdfRegistry::with_sdb_udfs();
    let cases = [
        ("Sort", "SELECT id, val FROM big ORDER BY val, id"),
        (
            "HashAggregate",
            "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM big GROUP BY grp",
        ),
        (
            "HashJoin",
            "SELECT d.label, b.id FROM dim d JOIN big b ON d.k = b.grp",
        ),
        (
            "NestedLoopJoin",
            "SELECT d.label, b.id FROM dim d JOIN big b ON d.k > b.grp",
        ),
    ];
    let pool = Arc::new(BufferPool::new(&MemoryBudget::unlimited()));
    for (operator, sql) in cases {
        let plan = PlanBuilder::build(&parse_query(sql)).unwrap();
        let (reference, _) = run(
            &catalog,
            &parse_query(sql),
            1,
            64,
            MemoryBudget::unlimited(),
        );
        for (budget, overflows) in [(1 << 20, false), (4 << 10, true)] {
            let lease = Arc::new(Pager::shared(&pool));
            let config = ExecConfig {
                memory_budget: MemoryBudget::bytes(budget),
                optimizer: false,
                parallelism: 1,
                batch_size: 64,
                ..ExecConfig::default()
            };
            let ctx = Arc::new(ExecContext::new(
                &catalog,
                &registry,
                None,
                config,
                Some(Arc::clone(&lease)),
                None,
            ));
            let tree = (sdb_engine::planner::PhysicalPlanner::new(Arc::clone(&ctx)).plan(&plan))
                .unwrap()
                .describe();
            assert!(tree.contains(operator), "{tree}");
            assert_eq!(execute_plan(&ctx, &plan).unwrap(), reference, "{sql}");
            let peak = lease.stats().peak_resident_pages;
            assert_eq!(peak > 0, overflows, "{budget}-byte lease, {sql}");
            assert_eq!(ctx.stats().peak_resident_pages, peak);
        }
    }
}

/// Each blocking node forced to overflow and cancelled at any poll point —
/// while holding its input, while spilling it, or with its spill sealed and
/// only partly drained — fails with `Cancelled`, and the pages it abandons
/// free themselves as they drop: a caller that keeps the lease sees none
/// left.
#[test]
fn an_abandoned_blocking_node_leaves_its_kept_lease_clean() {
    let cases = [
        "SELECT id, val FROM big ORDER BY val, id",
        "SELECT id, COUNT(*) AS n, SUM(val) AS s FROM big GROUP BY id",
        "SELECT a.id, b.id FROM big a JOIN big b ON a.grp = b.grp AND a.val = b.val \
         WHERE a.id < 500",
        "SELECT d.label, b.id FROM dim d JOIN big b ON d.k > b.grp",
    ];
    // Small batches: many held batches to replay, many pages to abandon.
    let engine = sdb_engine::SpEngine::with_catalog(Arc::new(generated_catalog(3_000)))
        .with_config(ExecConfig {
            optimizer: false,
            parallelism: 1,
            batch_size: 64,
            ..ExecConfig::default()
        });
    let pool = Arc::new(BufferPool::new(&MemoryBudget::unlimited()));
    let opts = |lease: &Arc<Pager>, cancel: sdb_storage::CancelToken| {
        sdb_engine::QueryOptions::default()
            .with_memory_budget(MemoryBudget::bytes(4 * 1024))
            .with_pager(Arc::clone(lease))
            .with_cancel_token(cancel)
    };

    for sql in cases {
        let probe = sdb_storage::CancelToken::new();
        let lease = Arc::new(Pager::shared(&pool));
        engine
            .execute_sql_with(sql, &opts(&lease, probe.clone()))
            .unwrap();
        let stats = lease.stats();
        assert!(stats.peak_resident_pages > 0, "{sql} did not overflow");
        assert_eq!(lease.resident_bytes(), 0);
        let checks = probe.checks();
        assert!(
            checks > 40,
            "{sql}: expected many poll points, saw {checks}"
        );

        let step = (checks / 40).max(1);
        for fuse in (1..checks).step_by(step as usize) {
            let lease = Arc::new(Pager::shared(&pool));
            let cancel = sdb_storage::CancelToken::cancel_after_checks(fuse);
            let failed = engine.execute_sql_with(sql, &opts(&lease, cancel));
            assert!(
                matches!(
                    &failed,
                    Err(sdb_engine::EngineError::Storage(
                        sdb_storage::StorageError::Cancelled
                    ))
                ),
                "fuse {fuse}, {sql}: {:?}",
                failed.map(|out| out.batch.num_rows())
            );
            assert_eq!(
                (lease.resident_bytes(), pool.resident_pages()),
                (0, 0),
                "fuse {fuse} of {checks}: the kept lease holds pages of {sql}"
            );
        }
    }
}

/// A spill device that fails under a query on a 64 KiB lease — a short
/// write, a full disk, a failed read-back — makes the query fail with a
/// typed `StorageError::Persistence`, never a panic; the kept lease holds no
/// page of it, and releasing the lease leaves the spill dir empty.
#[test]
fn a_failing_spill_device_is_a_typed_error_and_leaves_nothing_behind() {
    use sdb_engine::{EngineError, QueryOptions};
    use sdb_storage::{SpillFault, StorageError};

    let engine = sdb_engine::SpEngine::with_catalog(Arc::new(generated_catalog(4_000)))
        .with_config(ExecConfig {
            batch_size: 64,
            parallelism: 1,
            ..ExecConfig::default()
        });
    for fault in [
        SpillFault::ShortWrite,
        SpillFault::NoSpace,
        SpillFault::ReadError,
    ] {
        let dir =
            std::env::temp_dir().join(format!("sdb-spill-fault-{}-{fault:?}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pool = Arc::new(BufferPool::new(
            &MemoryBudget::unlimited().with_spill_dir(&dir),
        ));
        let lease = Arc::new(Pager::shared(&pool));
        lease.inject_spill_fault(fault);
        let opts = QueryOptions::default()
            .with_memory_budget(MemoryBudget::bytes(64 << 10))
            .with_pager(Arc::clone(&lease));
        let failed =
            engine.execute_sql_with("SELECT id, val, name FROM big ORDER BY val, id", &opts);
        assert!(
            matches!(
                &failed,
                Err(EngineError::Storage(StorageError::Persistence { .. }))
            ),
            "{fault:?}: {failed:?}"
        );
        if fault == SpillFault::ReadError {
            assert!(lease.stats().pages_spilled > 0, "pages were written");
        }
        assert_eq!(
            (pool.resident_pages(), lease.resident_bytes()),
            (0, 0),
            "{fault:?}: the kept lease holds no page of the failed query"
        );
        drop(opts);
        drop(lease);
        assert_eq!(pool.spill_file_count(), 0, "{fault:?}");
        std::fs::remove_dir(&dir)
            .unwrap_or_else(|e| panic!("{fault:?}: the spill dir is empty: {e}"));
    }
}
