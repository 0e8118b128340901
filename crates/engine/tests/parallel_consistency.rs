//! Cross-checks of the morsel-parallel operator pipeline against serial
//! execution: identical results at every `parallelism` × `batch_size`
//! combination, at the 100k-row scale the acceptance bar names, under seeded
//! blinding RNGs, and with distinct-but-identically-rendered subqueries.

use std::sync::Arc;

use num_bigint::BigUint;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sdb_engine::planner::execute_plan;
use sdb_engine::{ExecConfig, ExecContext, UdfRegistry, DEFAULT_BATCH_SIZE};
use sdb_sql::ast::{Expr, Literal, Query, SelectItem, TableRef};
use sdb_sql::plan::PlanBuilder;
use sdb_sql::{parse_sql, Statement};
use sdb_storage::{Catalog, ColumnDef, DataType, RecordBatch, Schema, Value};

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
                Value::Int((r % 10_000) as i64),
                Value::Str(format!("n{}", r % 97)),
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

fn run(catalog: &Catalog, query: &Query, parallelism: usize, batch_size: usize) -> RecordBatch {
    let registry = UdfRegistry::with_sdb_udfs();
    let ctx = Arc::new(ExecContext::new(
        catalog,
        &registry,
        None,
        ExecConfig {
            parallelism,
            batch_size,
            ..ExecConfig::default()
        },
        None,
        None,
    ));
    let plan = PlanBuilder::build(query).unwrap();
    execute_plan(&ctx, &plan).unwrap()
}

/// Runs `sql` serially (parallelism 1, default batches) as the reference,
/// then asserts every parallelism × batch-size combination is byte-identical.
fn cross_check(catalog: &Catalog, sql: &str) {
    let query = parse_query(sql);
    let reference = run(catalog, &query, 1, DEFAULT_BATCH_SIZE);
    for parallelism in [1, 2, 4] {
        for batch_size in [2, DEFAULT_BATCH_SIZE] {
            let out = run(catalog, &query, parallelism, batch_size);
            assert_eq!(
                reference, out,
                "parallelism={parallelism} batch_size={batch_size} diverged for: {sql}"
            );
        }
    }
}

/// The knob-matrix battery: scans, joins, aggregates, ordering, subqueries.
const KNOB_QUERIES: &[&str] = &[
    // Plain scan and scan + filter + projection.
    "SELECT * FROM big",
    "SELECT name, val * 2 AS double_val FROM big WHERE val > 5000",
    // Hash join, both as the small and the large build side.
    "SELECT b.id, d.label FROM big b JOIN dim d ON b.grp = d.k",
    "SELECT d.label, b.val FROM dim d JOIN big b ON d.k = b.grp",
    "SELECT b.id, d.label FROM big b LEFT JOIN dim d ON b.grp = d.k",
    // Aggregation: grouped, distinct, global, and over a join.
    "SELECT grp, COUNT(*) AS n, SUM(val) AS s, AVG(val) AS m, MIN(val) AS lo, MAX(val) AS hi \
         FROM big GROUP BY grp ORDER BY grp",
    "SELECT grp, COUNT(DISTINCT name) AS dn FROM big GROUP BY grp ORDER BY grp",
    "SELECT COUNT(*) AS n, SUM(val) AS s FROM big WHERE id > 990",
    "SELECT d.label, SUM(b.val) AS s FROM big b JOIN dim d ON b.grp = d.k \
         GROUP BY d.label ORDER BY d.label",
    // Order-shaping and subqueries.
    "SELECT DISTINCT grp FROM big ORDER BY grp LIMIT 3",
    "SELECT val FROM big ORDER BY val DESC LIMIT 10",
    "SELECT id FROM big WHERE val > (SELECT AVG(val) FROM big) ORDER BY id LIMIT 20",
    "SELECT id FROM big WHERE grp IN (SELECT k FROM dim WHERE label = 'g3') ORDER BY id LIMIT 20",
];

#[test]
fn parallel_matches_serial_across_knob_matrix() {
    let catalog = generated_catalog(1_000);
    for sql in KNOB_QUERIES {
        cross_check(&catalog, sql);
    }
}

/// Kernels-on vs kernels-off byte-identity across the budget × parallelism
/// matrix: the vectorised fast paths must compose with morsel parallelism
/// *and* memory-budgeted (spilling) operators without changing a byte.
#[test]
fn kernels_match_scalar_across_budget_matrix() {
    let catalog = generated_catalog(1_000);
    let registry = UdfRegistry::with_sdb_udfs();
    let run_v = |query: &Query, vectorised: bool, budget: Option<usize>, parallelism: usize| {
        let mut config = ExecConfig {
            vectorised,
            parallelism,
            ..ExecConfig::default()
        };
        if let Some(bytes) = budget {
            config.memory_budget = sdb_storage::MemoryBudget::bytes(bytes);
        }
        let ctx = ExecContext::new(&catalog, &registry, None, config, None, None);
        let plan = PlanBuilder::build(query).unwrap();
        execute_plan(&Arc::new(ctx), &plan).unwrap()
    };
    for sql in KNOB_QUERIES {
        let query = parse_query(sql);
        for budget in [Some(4 * 1024), Some(64 * 1024), None] {
            for parallelism in [1, 4] {
                let scalar = run_v(&query, false, budget, parallelism);
                let vectorised = run_v(&query, true, budget, parallelism);
                assert_eq!(
                    scalar, vectorised,
                    "kernels diverged (budget={budget:?} parallelism={parallelism}) for: {sql}"
                );
            }
        }
    }
}

/// Tracing-on vs tracing-off byte-identity across the budget × parallelism
/// matrix: the instrumented wrappers forward batches untouched, so traced
/// execution changes no output byte — and the trace really recorded the run
/// (a span tree exists and its root produced the output's rows).
#[test]
fn tracing_is_byte_identical_across_knob_matrix() {
    let catalog = generated_catalog(1_000);
    let registry = UdfRegistry::with_sdb_udfs();
    let run_t = |query: &Query, tracing: bool, budget: Option<usize>, parallelism: usize| {
        let mut config = ExecConfig {
            parallelism,
            tracing,
            ..ExecConfig::default()
        };
        if let Some(bytes) = budget {
            config.memory_budget = sdb_storage::MemoryBudget::bytes(bytes);
        }
        let ctx = ExecContext::new(&catalog, &registry, None, config, None, None);
        let ctx = Arc::new(ctx);
        let plan = PlanBuilder::build(query).unwrap();
        let out = execute_plan(&ctx, &plan).unwrap();
        let report = ctx.trace().map(|t| t.report());
        (out, report)
    };
    for sql in KNOB_QUERIES {
        let query = parse_query(sql);
        for budget in [Some(4 * 1024), None] {
            for parallelism in [1, 4] {
                let (untraced, no_report) = run_t(&query, false, budget, parallelism);
                let (traced, report) = run_t(&query, true, budget, parallelism);
                let knobs = format!("budget={budget:?} parallelism={parallelism}");
                assert_eq!(
                    untraced, traced,
                    "tracing changed output ({knobs}) for: {sql}"
                );
                assert!(no_report.is_none(), "tracing off must record nothing");
                let report = report.expect("tracing on must produce a report");
                let root = &report.spans[report.root.expect("plan must have a root span")];
                assert_eq!(
                    root.rows_out,
                    traced.num_rows(),
                    "root span must account for every output row ({knobs}) for: {sql}"
                );
            }
        }
    }
}

/// The acceptance bar: at `parallelism > 1`, scan, join and aggregate plans
/// over a ≥100k-row generated table are byte-identical to serial execution.
#[test]
fn parallel_matches_serial_at_100k_rows() {
    let catalog = generated_catalog(100_000);
    for sql in [
        "SELECT id, val FROM big WHERE val > 9000",
        // dim ⋈ big puts the 100k side on the parallel build.
        "SELECT d.label, b.val FROM dim d JOIN big b ON d.k = b.grp",
        "SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM big GROUP BY grp ORDER BY grp",
    ] {
        let query = parse_query(sql);
        let serial = run(&catalog, &query, 1, DEFAULT_BATCH_SIZE);
        let parallel = run(&catalog, &query, 4, DEFAULT_BATCH_SIZE);
        assert_eq!(serial, parallel, "100k-row cross-check diverged for: {sql}");
        assert!(serial.num_rows() > 0, "cross-check must cover real rows");
    }
}

/// A stub DO-proxy oracle whose sign answers depend only on the (stable)
/// encrypted row id, never on the blinded share — like the real proxy, whose
/// verdicts are invariant under the SP's blinding factors.
struct ParityOracle;

impl sdb_engine::SdbOracle for ParityOracle {
    fn resolve(&self, request: sdb_engine::OracleRequest) -> sdb_engine::OracleResult {
        use sdb_engine::secure::OracleRequestKind;
        let n = request.rows.len();
        Ok(match request.kind {
            OracleRequestKind::Sign => sdb_engine::OracleResponse::Signs(
                request
                    .rows
                    .iter()
                    .map(|r| {
                        let sum: u64 = r.row_id.0.body.iter().map(|&b| u64::from(b)).sum();
                        if sum.is_multiple_of(2) {
                            1
                        } else {
                            -1
                        }
                    })
                    .collect(),
            ),
            OracleRequestKind::GroupTag => {
                sdb_engine::OracleResponse::Tags((0..n as u64).collect())
            }
            OracleRequestKind::Rank => sdb_engine::OracleResponse::Ranks((0..n as u64).collect()),
        })
    }
}

/// An `enc(id, v, rid)` table of `rows` encrypted rows under a seeded cipher.
fn encrypted_catalog(rows: u64) -> Catalog {
    let catalog = Catalog::new();
    let enc = catalog
        .create_table(
            "enc",
            Schema::new(vec![
                ColumnDef::public("id", DataType::Int),
                ColumnDef::sensitive("v", DataType::Encrypted),
                ColumnDef::public("rid", DataType::EncryptedRowId),
            ]),
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let cipher = sdb_crypto::SiesCipher::from_master(&mut rng);
    let mut t = enc.write();
    for i in 0..rows {
        let rid =
            sdb_crypto::EncryptedRowId(cipher.encrypt_biguint(&mut rng, &BigUint::from(i + 1)));
        t.insert_row(vec![
            Value::Int(i as i64),
            Value::Encrypted(BigUint::from(mix(i) % 1_000_003)),
            Value::EncryptedRowId(rid),
        ])
        .unwrap();
    }
    drop(t);
    catalog
}

/// Seeded blinding RNGs keep parallel oracle-backed execution deterministic:
/// repeated seeded runs at `parallelism = 4` are identical to each other and
/// to the seeded serial run.
#[test]
fn seeded_rng_keeps_parallel_oracle_runs_deterministic() {
    let catalog = encrypted_catalog(200);
    let registry = UdfRegistry::with_sdb_udfs();
    let query = parse_query("SELECT id FROM enc WHERE SDB_CMP_GT(v, rid, 'h', '1000003')");
    let plan = PlanBuilder::build(&query).unwrap();
    let run_seeded = |parallelism: usize| {
        let oracle: sdb_engine::secure::OracleRef = Arc::new(ParityOracle);
        let ctx = Arc::new(ExecContext::new(
            &catalog,
            &registry,
            Some(oracle),
            ExecConfig {
                rng_seed: Some(42),
                parallelism,
                batch_size: 64,
                ..ExecConfig::default()
            },
            None,
            None,
        ));
        execute_plan(&ctx, &plan).unwrap()
    };

    let serial = run_seeded(1);
    let parallel_a = run_seeded(4);
    let parallel_b = run_seeded(4);
    assert!(serial.num_rows() > 0, "the oracle must keep some rows");
    assert_eq!(parallel_a, parallel_b, "seeded parallel runs must repeat");
    assert_eq!(serial, parallel_a, "parallel must match serial output");
}

/// Two subqueries whose SQL *text* renders identically but which differ
/// structurally (an INT literal vs a scale-0 DECIMAL literal, both displaying
/// as `1`) must get distinct cache entries — keying by display string alone
/// would hand the second query the first one's result. The cache buckets by
/// display text but verifies full structural equality before a hit.
#[test]
fn subquery_cache_distinguishes_identically_rendered_subqueries() {
    let catalog = Catalog::new();
    let one = catalog
        .create_table(
            "one",
            Schema::new(vec![ColumnDef::public("x", DataType::Int)]),
        )
        .unwrap();
    one.write().insert_row(vec![Value::Int(9)]).unwrap();

    let literal_subquery = |lit: Literal| {
        let mut q = Query::empty();
        q.projections = vec![SelectItem::Expr {
            expr: Expr::Literal(lit),
            alias: None,
        }];
        q.from = vec![TableRef {
            name: "one".into(),
            alias: None,
        }];
        q
    };
    let int_sub = literal_subquery(Literal::Int(1));
    let dec_sub = literal_subquery(Literal::Decimal { units: 1, scale: 0 });
    assert_eq!(
        int_sub.to_string(),
        dec_sub.to_string(),
        "the test needs two subqueries with identical SQL renderings"
    );

    let mut outer = Query::empty();
    outer.projections = vec![
        SelectItem::Expr {
            expr: Expr::ScalarSubquery(Box::new(int_sub)),
            alias: Some("a".into()),
        },
        SelectItem::Expr {
            expr: Expr::ScalarSubquery(Box::new(dec_sub)),
            alias: Some("b".into()),
        },
    ];
    outer.from = vec![TableRef {
        name: "one".into(),
        alias: None,
    }];

    let registry = UdfRegistry::with_sdb_udfs();
    let ctx = Arc::new(ExecContext::new(
        &catalog,
        &registry,
        None,
        ExecConfig::default(),
        None,
        None,
    ));
    let plan = PlanBuilder::build(&outer).unwrap();
    let out = execute_plan(&ctx, &plan).unwrap();
    assert_eq!(out.num_rows(), 1);
    assert_eq!(out.column(0).get(0), &Value::Int(1));
    assert_eq!(
        out.column(1).get(0),
        &Value::Decimal { units: 1, scale: 0 },
        "the decimal parameterisation must not collide with the int one"
    );
}

/// Cross-batch oracle batching over the full knob matrix: at every
/// parallelism × batch-size × memory-budget combination, a two-predicate
/// secure filter resolves in exactly one round trip per distinct call, with
/// output byte-identical to the unbatched per-batch path.
#[test]
fn oracle_batching_matrix_is_byte_identical_with_exact_trip_counts() {
    let catalog = encrypted_catalog(200);
    let registry = UdfRegistry::with_sdb_udfs();
    // Two distinct comparison calls (different proxy handles) in one WHERE
    // clause: batched, each coalesces all 200 rows into one trip.
    let query = parse_query(
        "SELECT id FROM enc WHERE SDB_CMP_GT(v, rid, 'h', '1000003') \
         AND SDB_CMP_GT(v, rid, 'h2', '1000003')",
    );
    let plan = PlanBuilder::build(&query).unwrap();

    let run_with =
        |parallelism: usize, batch_size: usize, budget: Option<usize>, batching: bool| {
            let oracle: sdb_engine::secure::OracleRef = Arc::new(ParityOracle);
            let mut config = ExecConfig {
                rng_seed: Some(42),
                parallelism,
                batch_size,
                oracle_batching: batching,
                ..ExecConfig::default()
            };
            if let Some(bytes) = budget {
                config.memory_budget = sdb_storage::MemoryBudget::bytes(bytes);
            }
            let ctx = ExecContext::new(&catalog, &registry, Some(oracle), config, None, None);
            let ctx = Arc::new(ctx);
            let out = execute_plan(&ctx, &plan).unwrap();
            (out, ctx.stats())
        };

    // Unbatched reference: one trip per call per 2-row input batch. The
    // blinding factors differ from the batched runs (different chunking),
    // but the proxy's verdicts depend only on the stable row ids — so the
    // outputs must still be byte-identical.
    let (reference, ref_stats) = run_with(1, 2, None, false);
    assert!(reference.num_rows() > 0, "the filter must keep some rows");
    assert_eq!(
        ref_stats.oracle_round_trips, 200,
        "2 calls x 100 two-row batches without batching"
    );
    assert_eq!(ref_stats.oracle_memo_hits, 0);

    for parallelism in [1, 4] {
        for batch_size in [2, DEFAULT_BATCH_SIZE] {
            for budget in [None, Some(4096)] {
                let (out, stats) = run_with(parallelism, batch_size, budget, true);
                let knobs =
                    format!("parallelism={parallelism} batch_size={batch_size} budget={budget:?}");
                assert_eq!(reference, out, "batched output diverged ({knobs})");
                assert_eq!(
                    stats.oracle_round_trips, 2,
                    "one coalesced trip per distinct call ({knobs})"
                );
                assert_eq!(
                    stats.oracle_rows_coalesced, 400,
                    "200 rows x 2 calls ({knobs})"
                );
                assert_eq!(stats.oracle_memo_hits, 0, "all operands distinct ({knobs})");
            }
        }
    }
}

/// The encrypted-value memo spans plan executions on one context: re-running
/// a secure filter answers every sign from the memo — zero additional round
/// trips over the DO-proxy link.
#[test]
fn memo_answers_repeat_executions_without_round_trips() {
    let catalog = encrypted_catalog(200);
    let registry = UdfRegistry::with_sdb_udfs();
    let query = parse_query(
        "SELECT id FROM enc WHERE SDB_CMP_GT(v, rid, 'h', '1000003') \
         AND SDB_CMP_GT(v, rid, 'h2', '1000003')",
    );
    let plan = PlanBuilder::build(&query).unwrap();
    let oracle: sdb_engine::secure::OracleRef = Arc::new(ParityOracle);
    let ctx = Arc::new(ExecContext::new(
        &catalog,
        &registry,
        Some(oracle),
        ExecConfig {
            rng_seed: Some(42),
            parallelism: 4,
            batch_size: 64,
            ..ExecConfig::default()
        },
        None,
        None,
    ));

    let first = execute_plan(&ctx, &plan).unwrap();
    assert_eq!(ctx.stats().oracle_round_trips, 2);
    let second = execute_plan(&ctx, &plan).unwrap();
    assert_eq!(first, second, "memoized answers must reproduce the output");
    let stats = ctx.stats();
    assert_eq!(
        stats.oracle_round_trips, 2,
        "the repeat execution travels zero additional trips"
    );
    assert_eq!(
        stats.oracle_memo_hits, 400,
        "200 rows x 2 calls answered from the memo"
    );
}

/// A [`ParityOracle`] that also records every blinded operand it is shipped,
/// one vector per request.
#[derive(Default)]
struct RecordingOracle {
    shipped: std::sync::Mutex<Vec<Vec<BigUint>>>,
}

impl RecordingOracle {
    fn take(&self) -> Vec<Vec<BigUint>> {
        std::mem::take(&mut self.shipped.lock().unwrap())
    }
}

impl sdb_engine::SdbOracle for RecordingOracle {
    fn resolve(&self, request: sdb_engine::OracleRequest) -> sdb_engine::OracleResult {
        let shares = request.rows.iter().map(|r| r.share.clone()).collect();
        self.shipped.lock().unwrap().push(shares);
        ParityOracle.resolve(request)
    }
}

/// The blinding RNGs are seeded when a query first blinds, never shared
/// between queries: two unseeded runs of one compare on one engine ship
/// different operands (same answers), while a seeded config reproduces its
/// operands exactly at parallelism 1 and 4.
#[test]
fn blinding_is_fresh_per_query_unless_seeded() {
    let sql = "SELECT id FROM enc WHERE SDB_CMP_GT(v, rid, 'h', '1000003')";
    let recorder = Arc::new(RecordingOracle::default());
    let engine = sdb_engine::SpEngine::with_catalog(Arc::new(encrypted_catalog(64)));
    engine.connect_oracle(Arc::clone(&recorder) as sdb_engine::secure::OracleRef);
    let first = engine.execute_sql(sql).unwrap();
    let first_shipped = recorder.take();
    let second = engine.execute_sql(sql).unwrap();
    let second_shipped = recorder.take();
    assert_eq!(
        first.batch, second.batch,
        "blinding must not change answers"
    );
    assert!(
        !first_shipped.is_empty(),
        "the compare must reach the oracle"
    );
    assert_ne!(
        first_shipped, second_shipped,
        "unseeded queries must draw fresh blinding factors"
    );

    let catalog = encrypted_catalog(64);
    let registry = UdfRegistry::with_sdb_udfs();
    let plan = PlanBuilder::build(&parse_query(sql)).unwrap();
    let run_seeded = |parallelism: usize| {
        let config = ExecConfig {
            rng_seed: Some(42),
            parallelism,
            batch_size: 16,
            ..ExecConfig::default()
        };
        let oracle = Arc::clone(&recorder) as sdb_engine::secure::OracleRef;
        let ctx = Arc::new(ExecContext::new(
            &catalog,
            &registry,
            Some(oracle),
            config,
            None,
            None,
        ));
        let out = execute_plan(&ctx, &plan).unwrap();
        (out, recorder.take())
    };
    for parallelism in [1, 4] {
        let (out_a, shipped_a) = run_seeded(parallelism);
        let (out_b, shipped_b) = run_seeded(parallelism);
        assert_eq!(out_a, first.batch, "parallelism {parallelism}");
        assert_eq!(out_a, out_b, "parallelism {parallelism}");
        assert!(!shipped_a.is_empty());
        assert_eq!(
            shipped_a, shipped_b,
            "a seeded config must repeat its operands (parallelism {parallelism})"
        );
    }
}
