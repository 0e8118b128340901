//! Index scans against full scans: every `col = literal` / `col IN (…)`
//! shape below runs once through an `IndexScan` and once through an
//! un-indexable twin (`col + 0 = literal`, or `(… IN …) = TRUE` for
//! strings) that must take the full-table path. The outputs are
//! byte-identical, and so are the SDB arithmetic counters — at the default
//! settings, at batch size 2, at parallelism 4 and under a 4 KiB budget.
//! Then the copy-on-write contract: a lookup sees exactly its snapshot's
//! rows, whatever is inserted, extended or replaced around it.

use std::sync::{Arc, Barrier};

use num_bigint::{BigUint, RandBigInt};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sdb_engine::operators::{drain_operator, BoxedOperator};
use sdb_engine::{ExecConfig, ExecContext, ExecutionStats, PhysicalPlanner, SpEngine, UdfRegistry};
use sdb_sql::dates::days_from_civil;
use sdb_sql::{parse_sql, PlanBuilder, Statement};
use sdb_storage::{Catalog, ColumnDef, DataType, MemoryBudget, RecordBatch, Schema, Table, Value};

/// `t(id, name, day, price, grp, a, sdb_s)` with shares in `a` and `sdb_s`,
/// and `u(id, label)` to join it with; both analyzed. Returns the modulus.
fn fixture() -> (Catalog, BigUint) {
    let mut rng = StdRng::seed_from_u64(0x1dec5);
    let mut n = rng.gen_biguint(128);
    n.set_bit(127, true);
    n.set_bit(0, true);
    let catalog = Catalog::new();
    let t = catalog
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::public("id", DataType::Int),
                ColumnDef::public("name", DataType::Varchar),
                ColumnDef::public("day", DataType::Date),
                ColumnDef::public("price", DataType::Decimal { scale: 2 }),
                ColumnDef::public("grp", DataType::Int),
                ColumnDef::sensitive("a", DataType::Encrypted),
                ColumnDef::sensitive("sdb_s", DataType::Encrypted),
            ]),
        )
        .unwrap();
    for i in 0..300i64 {
        let null_every = |k: i64, v: Value| if i % k == 0 { Value::Null } else { v };
        t.write()
            .insert_row(vec![
                Value::Int(i % 120),
                null_every(17, Value::Str(format!("n{}", i % 9))),
                Value::Date(days_from_civil(1995, 1, 1) + (i % 11) as i32),
                Value::Decimal {
                    units: (i % 13) * 50,
                    scale: 2,
                },
                null_every(23, Value::Int(i % 6)),
                Value::Encrypted(rng.gen_biguint_below(&n)),
                Value::Encrypted(rng.gen_biguint_below(&n)),
            ])
            .unwrap();
    }
    let u = catalog
        .create_table(
            "u",
            Schema::new(vec![
                ColumnDef::public("id", DataType::Int),
                ColumnDef::public("label", DataType::Varchar),
            ]),
        )
        .unwrap();
    for id in 0..8 {
        u.write()
            .insert_row(vec![Value::Int(id), Value::Str(format!("g{id}"))])
            .unwrap();
    }
    catalog.analyze_all().unwrap();
    (catalog, n)
}

fn parse(sql: &str) -> sdb_sql::ast::Query {
    match parse_sql(sql).unwrap() {
        Statement::Query(query) => query,
        other => panic!("expected a query, got {other:?}"),
    }
}

/// Runs `sql` under `config`: its output, its statistics and its physical
/// plan's description.
fn run(catalog: &Catalog, sql: &str, config: ExecConfig) -> (RecordBatch, ExecutionStats, String) {
    let registry = UdfRegistry::with_sdb_udfs();
    let ctx = Arc::new(ExecContext::new(
        catalog, &registry, None, config, None, None,
    ));
    let plan = PlanBuilder::build(&parse(sql)).unwrap();
    let plan = match ctx.optimizer_enabled() {
        true => ctx.optimizer().optimize(&plan),
        false => plan,
    };
    let mut root = PhysicalPlanner::new(Arc::clone(&ctx)).plan(&plan).unwrap();
    let described = root.describe();
    let out = drain_operator(root.as_mut()).unwrap_or_else(|e| panic!("{sql}: {e}"));
    (out, ctx.stats(), described)
}

/// The settings every shape runs under.
fn settings() -> Vec<(&'static str, ExecConfig)> {
    let base = ExecConfig {
        rng_seed: Some(5),
        ..ExecConfig::default()
    };
    vec![
        ("default", base.clone()),
        (
            "batch 2",
            ExecConfig {
                batch_size: 2,
                ..base.clone()
            },
        ),
        (
            "parallelism 4",
            ExecConfig {
                parallelism: 4,
                ..base.clone()
            },
        ),
        (
            "4 KiB budget",
            ExecConfig {
                memory_budget: MemoryBudget::bytes(4 << 10),
                ..base
            },
        ),
    ]
}

#[test]
fn index_scans_answer_exactly_what_full_scans_answer() {
    let (catalog, n) = fixture();
    let day = days_from_civil(1995, 1, 1) + 4;
    let date = sdb_sql::dates::format_date(day);
    let sum = format!("SUM(SDB_KEY_UPDATE(a, sdb_s, '7', '11', '{n}'))");
    // (indexed, twin): the twin's conjunct is no bare column against
    // literals, so it must scan the whole table.
    let shapes: Vec<(String, String)> = vec![
        (
            "SELECT id, name, price FROM t WHERE id = 7".into(),
            "SELECT id, name, price FROM t WHERE id + 0 = 7".into(),
        ),
        (
            "SELECT id, grp FROM t WHERE name = 'n4' ORDER BY id".into(),
            "SELECT id, grp FROM t WHERE (name = 'n4') = TRUE ORDER BY id".into(),
        ),
        (
            format!("SELECT id, day FROM t WHERE day = DATE '{date}'"),
            format!("SELECT id, day FROM t WHERE day + 0 = DATE '{date}'"),
        ),
        (
            "SELECT id, name FROM t WHERE id IN (9, 3, 9, 111, 3)".into(),
            "SELECT id, name FROM t WHERE id + 0 IN (9, 3, 9, 111, 3)".into(),
        ),
        (
            "SELECT id FROM t WHERE name IN ('n1', 'zz', 'n1', NULL)".into(),
            "SELECT id FROM t WHERE (name IN ('n1', 'zz', 'n1', NULL)) = TRUE".into(),
        ),
        (
            "SELECT id FROM t WHERE id = 4040".into(),
            "SELECT id FROM t WHERE id + 0 = 4040".into(),
        ),
        (
            "SELECT id FROM t WHERE grp = NULL".into(),
            "SELECT id FROM t WHERE grp + 0 = NULL".into(),
        ),
        (
            "SELECT id, price FROM t WHERE id = 12.00".into(),
            "SELECT id, price FROM t WHERE id + 0 = 12.00".into(),
        ),
        (
            "SELECT id FROM t WHERE id = 12.5".into(),
            "SELECT id FROM t WHERE id + 0 = 12.5".into(),
        ),
        (
            "SELECT id FROM t WHERE price = 1.5 AND grp < 4".into(),
            "SELECT id FROM t WHERE price + 0 = 1.5 AND grp < 4".into(),
        ),
        (
            "SELECT x.id, x.name FROM t x WHERE x.grp = 3 AND x.id > 40".into(),
            "SELECT x.id, x.name FROM t x WHERE x.grp + 0 = 3 AND x.id > 40".into(),
        ),
        (
            "SELECT t.id FROM t WHERE t.id IN (5, 6)".into(),
            "SELECT t.id FROM t WHERE t.id + 0 IN (5, 6)".into(),
        ),
        (
            "SELECT t.id, u.label FROM t JOIN u ON t.grp = u.id WHERE u.id = 2 ORDER BY t.id"
                .into(),
            "SELECT t.id, u.label FROM t JOIN u ON t.grp = u.id WHERE u.id + 0 = 2 ORDER BY t.id"
                .into(),
        ),
        (
            "SELECT t.id, u.label FROM t JOIN u ON t.grp = u.id WHERE t.id = 30".into(),
            "SELECT t.id, u.label FROM t JOIN u ON t.grp = u.id WHERE t.id + 0 = 30".into(),
        ),
        (
            format!("SELECT grp, {sum} AS s, COUNT(*) AS c FROM t WHERE grp = 2 GROUP BY grp"),
            format!("SELECT grp, {sum} AS s, COUNT(*) AS c FROM t WHERE grp + 0 = 2 GROUP BY grp"),
        ),
        (
            format!("SELECT {sum} AS s FROM t WHERE id IN (1, 2, 3, 4)"),
            format!("SELECT {sum} AS s FROM t WHERE id + 0 IN (1, 2, 3, 4)"),
        ),
    ];
    for (indexed, twin) in &shapes {
        let mut answers = Vec::new();
        for (setting, config) in settings() {
            let (out, stats, plan) = run(&catalog, indexed, config.clone());
            let (twin_out, twin_stats, twin_plan) = run(&catalog, twin, config);
            let context = format!("{indexed} [{setting}]: {plan} / {twin_plan}");
            assert!(plan.contains("IndexScan("), "{context}");
            assert!(!twin_plan.contains("IndexScan("), "{context}");
            assert_eq!(out, twin_out, "{context}");
            assert_eq!(
                serde_json::to_string(&out).unwrap(),
                serde_json::to_string(&twin_out).unwrap(),
                "{context}"
            );
            assert_eq!(stats.udf_calls, twin_stats.udf_calls, "{context}");
            assert_eq!(
                stats.key_update_calls, twin_stats.key_update_calls,
                "{context}"
            );
            assert_eq!(
                stats.key_update_pows, twin_stats.key_update_pows,
                "{context}"
            );
            assert_eq!(
                stats.key_update_derived, twin_stats.key_update_derived,
                "{context}"
            );
            assert!(stats.rows_scanned < twin_stats.rows_scanned, "{context}");
            answers.push(out);
        }
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "{indexed}");
    }
    // The shapes exercise what they claim: matches, misses and SDB work.
    let indexed = |sql: &str| run(&catalog, sql, ExecConfig::default());
    let (out, stats, _) = indexed(&shapes[14].0);
    assert_eq!(out.num_rows(), 1);
    assert!(stats.key_update_calls > 0 && stats.udf_calls > 0);
    let in_list = indexed("SELECT id, name FROM t WHERE id IN (9, 3, 9, 111, 3)");
    assert_eq!((in_list.0.num_rows(), in_list.1.rows_scanned), (8, 8));
    assert_eq!(
        indexed("SELECT id FROM t WHERE id = 4040").1.rows_scanned,
        0
    );
    assert_eq!(indexed("SELECT id FROM t WHERE id = 12.5").0.num_rows(), 0);
    assert_eq!(indexed("SELECT id FROM t WHERE id = 12.00").0.num_rows(), 3);
}

/// With every hash forced to collide, an index scan hands the filter every
/// row of its snapshot, and the answers stay exactly the full scan's.
#[test]
fn forced_collisions_leave_index_scan_answers_exact() {
    use sdb_storage::keys::FORCE_COLLISIONS;

    let (catalog, _) = fixture();
    // Serial: the hook is per thread.
    let config = ExecConfig {
        parallelism: 1,
        ..ExecConfig::default()
    };
    let queries = [
        "SELECT id, name FROM t WHERE id IN (3, 7, 3) ORDER BY id",
        "SELECT id FROM t WHERE name = 'n2'",
        "SELECT id FROM t WHERE id = 9999",
    ];
    let expected: Vec<(RecordBatch, ExecutionStats, String)> = (queries.iter())
        .map(|sql| run(&catalog, sql, config.clone()))
        .collect();
    // A fresh catalog: its indexes are built while every hash collides.
    let (collided_catalog, _) = fixture();
    FORCE_COLLISIONS.with(|force| force.set(true));
    let collided: Vec<(RecordBatch, ExecutionStats, String)> = (queries.iter())
        .map(|sql| run(&collided_catalog, sql, config.clone()))
        .collect();
    FORCE_COLLISIONS.with(|force| force.set(false));
    for ((sql, (out, stats, plan)), (collided_out, collided_stats, _)) in
        queries.iter().zip(&expected).zip(&collided)
    {
        assert!(plan.contains("IndexScan("), "{sql}: {plan}");
        assert_eq!(out, collided_out, "{sql}");
        assert!(stats.rows_scanned < collided_stats.rows_scanned, "{sql}");
        assert_eq!(collided_stats.rows_scanned, 300, "every row is a candidate");
    }
}

#[test]
fn an_index_scan_opened_before_an_insert_keeps_its_snapshot() {
    let (catalog, _) = fixture();
    let registry = UdfRegistry::with_sdb_udfs();
    let config = ExecConfig {
        batch_size: 1,
        ..ExecConfig::default()
    };
    fn plan_of<'a>(ctx: &Arc<ExecContext<'a>>) -> BoxedOperator<'a> {
        let plan = PlanBuilder::build(&parse("SELECT id, grp FROM t WHERE id = 5")).unwrap();
        PhysicalPlanner::new(Arc::clone(ctx)).plan(&plan).unwrap()
    }
    let ctx = Arc::new(ExecContext::new(
        &catalog,
        &registry,
        None,
        config.clone(),
        None,
        None,
    ));
    let mut root = plan_of(&ctx);
    assert!(root.describe().contains("IndexScan(t.id)"));
    root.open().unwrap();
    let mut rows = root.next_batch().unwrap().expect("one row in").num_rows();

    // Row 300 holds the key; a query planned and run now sees it.
    let handle = catalog.table("t").unwrap();
    let mut row = handle.read().scan().row(5);
    row[4] = Value::Int(77);
    handle.write().insert_row(row).unwrap();
    let after = Arc::new(ExecContext::new(
        &catalog, &registry, None, config, None, None,
    ));
    let seen = drain_operator(plan_of(&after).as_mut()).unwrap();
    assert_eq!(seen.num_rows(), 4);
    assert_eq!(seen.column(1).get(3), &Value::Int(77));

    // The scan opened before the insert finishes on its own snapshot.
    while let Some(batch) = root.next_batch().unwrap() {
        assert!(!batch.column(1).values().contains(&Value::Int(77)));
        rows += batch.num_rows();
    }
    root.close().unwrap();
    assert_eq!(rows, 3, "ids 5, 125 and 245 only");
}

#[test]
fn lookups_racing_inserts_see_whole_prefixes() {
    let engine = SpEngine::new().with_parallelism(1);
    engine.execute_sql("CREATE TABLE r (k INT, v INT)").unwrap();
    const STEPS: i64 = 60;
    const READERS: usize = 2;
    let barrier = Barrier::new(READERS + 1);
    // Readers record what they saw and check it after the last step, so a
    // failing reader never leaves the others waiting at the barrier.
    let seen: Vec<Vec<(i64, Vec<Value>)>> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut seen = Vec::new();
                    for step in 0..STEPS {
                        barrier.wait();
                        let out = engine.execute_sql("SELECT v FROM r WHERE k = 7");
                        let values = out.map(|out| out.batch.column(0).values().to_vec());
                        seen.push((step, values.unwrap_or_default()));
                    }
                    seen
                })
            })
            .collect();
        for step in 0..STEPS {
            engine
                .execute_sql(&format!(
                    "INSERT INTO r VALUES (7, {step}), ({}, 0)",
                    step + 100
                ))
                .unwrap();
            barrier.wait();
        }
        // The readers' last lookups may overlap one more insert.
        engine
            .execute_sql(&format!("INSERT INTO r VALUES (7, {STEPS})"))
            .unwrap();
        readers
            .into_iter()
            .map(|reader| reader.join().expect("reader"))
            .collect()
    });
    for (step, values) in seen.into_iter().flatten() {
        // Step `step` had inserted `step + 1` rows of key 7, and the writer
        // was inserting the next one meanwhile: either answer is a whole
        // prefix of the inserts, in insert order.
        let rows = values.len() as i64;
        assert!(
            rows == step + 1 || rows == step + 2,
            "step {step}: {values:?}"
        );
        let prefix: Vec<Value> = (0..rows).map(Value::Int).collect();
        assert_eq!(values, prefix, "step {step}");
    }
    let catalog = engine.catalog();
    assert_eq!(catalog.indexed_columns(), vec![("r".to_string(), 0)]);
}

#[test]
fn a_replaced_table_is_looked_up_afresh() {
    let engine = SpEngine::new();
    engine
        .execute_sql("CREATE TABLE s (k INT, v VARCHAR(8))")
        .unwrap();
    engine
        .execute_sql("INSERT INTO s VALUES (1, 'a'), (2, 'b'), (3, 'c'), (2, 'd')")
        .unwrap();
    let lookup = |sql: &str| {
        let out = engine.execute_sql(sql).unwrap();
        (
            out.batch.column(0).values().to_vec(),
            out.stats.rows_scanned,
        )
    };
    let strs = |v: &[&str]| {
        v.iter()
            .map(|s| Value::Str(s.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        lookup("SELECT v FROM s WHERE k = 2"),
        (strs(&["b", "d"]), 2)
    );

    // Same name, same schema, other rows: row 1 no longer holds key 2.
    let schema = engine.catalog().table("s").unwrap().read().schema().clone();
    let mut replacement = Table::new("s", schema);
    for (k, v) in [(2, "x"), (5, "y")] {
        replacement
            .insert_row(vec![Value::Int(k), Value::Str(v.into())])
            .unwrap();
    }
    engine.catalog().register_or_replace(replacement);
    assert!(engine.catalog().indexed_columns().is_empty());
    assert_eq!(lookup("SELECT v FROM s WHERE k = 2"), (strs(&["x"]), 1));
    assert_eq!(lookup("SELECT v FROM s WHERE k = 3"), (strs(&[]), 0));

    engine.catalog().drop_table("s").unwrap();
    assert!(engine.catalog().indexed_columns().is_empty());
    assert!(engine.execute_sql("SELECT v FROM s WHERE k = 2").is_err());
}
