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
//!
//! The share kernels (expressions of the five SDB share UDFs) get the same
//! treatment against the interpreter: random trees at three modulus widths,
//! the shapes they must decline, and every operator that evaluates through
//! them — answers, errors and the UDF / key-update counters identical.

use std::sync::Arc;

use num_bigint::{BigUint, RandBigInt};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sdb_crypto::{EncryptedRowId, SiesCipher};
use sdb_engine::planner::execute_plan;
use sdb_engine::secure::{OracleRequest, OracleResponse, OracleResult, SdbOracle};
use sdb_engine::{ExecConfig, ExecContext, SpEngine, UdfRegistry};
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
/// — an aggregate that overflows its budget prepares rows outside the
/// kernel paths, so engagement is only guaranteed in memory.
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

// ---------------------------------------------------------------------------
// Share kernels: expressions of the five SDB share UDFs, a batch at a time
// ---------------------------------------------------------------------------

/// The share table `s(id, g, a, b, c, sdb_s, x, d, rid)` under a random odd
/// `n` of `bits` bits: `a`, `b`, `c` shares (NULL on every seventh row, the
/// auxiliary `sdb_s` with them; `c` NULL on some others too), `x` an INT and
/// `d` a DECIMAL(2) plain operand with NULLs, `rid` an encrypted row id.
struct ShareTable {
    catalog: Arc<Catalog>,
    n: BigUint,
    /// Exponents, two of them neighbours (derived from each other).
    p: [BigUint; 4],
    q: [BigUint; 3],
}

fn share_table(bits: u64, rows: usize, seed: u64) -> ShareTable {
    let mut rng = StdRng::seed_from_u64(seed ^ bits);
    let mut n = rng.gen_biguint(bits);
    n.set_bit(bits - 1, true);
    n.set_bit(0, true);
    let p0 = rng.gen_biguint_below(&n);
    let p = [
        p0.clone(),
        &p0 + BigUint::from(3u32),
        rng.gen_biguint_below(&n),
        rng.gen_biguint_below(&n),
    ];
    let q = [(); 3].map(|()| rng.gen_biguint_below(&n));
    let cipher = SiesCipher::from_master(&mut rng);
    let catalog = Catalog::new();
    let table = catalog
        .create_table(
            "s",
            Schema::new(vec![
                ColumnDef::public("id", DataType::Int),
                ColumnDef::public("g", DataType::Int),
                ColumnDef::sensitive("a", DataType::Encrypted),
                ColumnDef::sensitive("b", DataType::Encrypted),
                ColumnDef::sensitive("c", DataType::Encrypted),
                ColumnDef::sensitive("sdb_s", DataType::Encrypted),
                ColumnDef::public("x", DataType::Int),
                ColumnDef::public("d", DataType::Decimal { scale: 2 }),
                ColumnDef::public("rid", DataType::EncryptedRowId),
            ]),
        )
        .unwrap();
    let mut guard = table.write();
    for i in 0..rows as i64 {
        let absent = i % 7 == 3;
        let mut share = |present: bool| match present {
            true => Value::Encrypted(rng.gen_biguint_below(&n)),
            false => Value::Null,
        };
        let (a, b, s) = (share(!absent), share(!absent), share(!absent));
        let c = share(!absent && i % 5 != 1);
        let x = match i % 6 {
            4 => Value::Null,
            _ => Value::Int((i * 37) % 101 - 50),
        };
        let d = match i % 4 {
            2 => Value::Null,
            1 => Value::Int(i % 9 - 4),
            _ => Value::Decimal {
                units: (i * 131) % 2001 - 1000,
                scale: 2,
            },
        };
        let rid = cipher.encrypt_biguint(&mut rng, &BigUint::from(i as u64 + 1));
        guard
            .insert_row(vec![
                Value::Int(i),
                Value::Int(i % 3),
                a,
                b,
                c,
                s,
                x,
                d,
                Value::EncryptedRowId(EncryptedRowId(rid)),
            ])
            .unwrap();
    }
    drop(guard);
    ShareTable {
        catalog: Arc::new(catalog),
        n,
        p,
        q,
    }
}

/// A tiny deterministic generator for expression trees.
struct Draw(u64);

impl Draw {
    fn next(&mut self, below: u64) -> u64 {
        // SplitMix64.
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % below
    }
}

impl ShareTable {
    /// A random share expression of depth at most `depth` over the five
    /// share UDFs, the share columns and the plain operands.
    fn tree(&self, draw: &mut Draw, depth: u32) -> String {
        let n = &self.n;
        if depth == 0 || draw.next(4) == 0 {
            return ["a", "b", "c"][draw.next(3) as usize].to_string();
        }
        let plain = |draw: &mut Draw| {
            ["x", "d", "x", "d", "3", "-7", "1.25", "NULL"][draw.next(8) as usize].to_string()
        };
        let sub = |draw: &mut Draw| self.tree(draw, depth - 1);
        match draw.next(5) {
            0 => format!("SDB_MULTIPLY({}, {}, '{n}')", sub(draw), sub(draw)),
            1 => format!("SDB_ADD({}, {}, '{n}')", sub(draw), sub(draw)),
            2 => {
                let a = sub(draw);
                let p = &self.p[draw.next(4) as usize];
                let q = &self.q[draw.next(3) as usize];
                format!("SDB_KEY_UPDATE({a}, sdb_s, '{p}', '{q}', '{n}')")
            }
            3 => {
                let a = sub(draw);
                let scale = draw.next(4);
                format!("SDB_MUL_PLAIN({a}, {}, {scale}, '{n}')", plain(draw))
            }
            _ => {
                let a = sub(draw);
                let scale = draw.next(4);
                format!("SDB_ADD_PLAIN({a}, {}, {scale}, sdb_s, '{n}')", plain(draw))
            }
        }
    }

    /// `SDB_KEY_UPDATE(a, sdb_s, p_i, q_j, n)` as SQL text.
    fn ku(&self, a: &str, i: usize, j: usize) -> String {
        let (p, q, n) = (&self.p[i], &self.q[j], &self.n);
        format!("SDB_KEY_UPDATE({a}, sdb_s, '{p}', '{q}', '{n}')")
    }
}

/// What one run of a query shows: its answer or error, the counters the
/// kernels must reproduce, and the rows the kernels evaluated.
#[derive(Debug)]
struct Observed {
    result: Result<RecordBatch, String>,
    counters: [usize; 5],
    kernel_rows: usize,
}

fn observe(engine: &SpEngine, sql: &str) -> Observed {
    match engine.execute_sql(sql) {
        Ok(out) => Observed {
            result: Ok(out.batch),
            counters: [
                out.stats.udf_calls,
                out.stats.key_update_calls,
                out.stats.key_update_pows,
                out.stats.key_update_derived,
                out.stats.key_update_memo_hits,
            ],
            kernel_rows: out.stats.share_kernel_rows,
        },
        Err(e) => Observed {
            result: Err(format!("{e:?}")),
            counters: [0; 5],
            kernel_rows: 0,
        },
    }
}

/// Two engines over `catalog`, kernels on and off, otherwise alike.
fn engine_pair(catalog: &Arc<Catalog>, parallelism: usize) -> (SpEngine, SpEngine) {
    let engine = |vectorised| {
        SpEngine::with_catalog(Arc::clone(catalog))
            .with_parallelism(parallelism)
            .with_vectorised(vectorised)
    };
    (engine(true), engine(false))
}

/// Runs every query of `sqls` three times on a kernel engine and an
/// interpreter engine — a cold power memo, the run it admits the exponents
/// on, and one it serves from — and asserts identical answers, errors and
/// counters on every run. Returns the rows the kernels evaluated.
fn share_cross_check(catalog: &Arc<Catalog>, sqls: &[String], parallelism: usize) -> usize {
    let (kernels, interpreter) = engine_pair(catalog, parallelism);
    let mut kernel_rows = 0;
    for round in 0..3 {
        for sql in sqls {
            let on = observe(&kernels, sql);
            let off = observe(&interpreter, sql);
            let context = format!("round {round}, parallelism {parallelism}: {sql}");
            assert_eq!(on.result, off.result, "{context}");
            assert_eq!(on.counters, off.counters, "{context}");
            assert_eq!(off.kernel_rows, 0, "{context}");
            kernel_rows += on.kernel_rows;
        }
    }
    kernel_rows
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Random trees of the five share UDFs, depth ≤ 4, over encrypted and
    /// plain columns with NULLs, in a projection and a grouped aggregate, at
    /// 128-, 256- and 512-bit moduli and parallelism 1 and 2, with a cold and
    /// a warm power memo: the kernels answer exactly as the interpreter, and
    /// count the same calls, powers and memo hits.
    #[test]
    fn share_kernels_match_the_interpreter_on_random_trees(seed in any::<u64>()) {
        for bits in [128u64, 256, 512] {
            let table = share_table(bits, 40, seed);
            let mut draw = Draw(seed);
            let (t1, t2, t3) = (table.tree(&mut draw, 4), table.tree(&mut draw, 4), table.tree(&mut draw, 3));
            let sqls = [
                format!("SELECT id, {t1} AS e1, {t2} AS e2 FROM s"),
                format!(
                    "SELECT g, SUM({t3}) AS v, SUM({}) AS w, COUNT(*) AS c FROM s GROUP BY g",
                    table.ku(&t1, 0, 1)
                ),
            ];
            let rows: usize = [1, 2]
                .into_iter()
                .map(|parallelism| share_cross_check(&table.catalog, &sqls, parallelism))
                .sum();
            prop_assert!(rows > 0, "the kernels never engaged");
        }
    }
}

/// Shapes the kernels must decline — an even `n`, an unparsable constant, a
/// non-share cell, a NULL auxiliary share where the operand is not, a share
/// at or above `n`, a scale out of range — answer (or fail) exactly as the
/// interpreter, and the kernels evaluate nothing.
#[test]
fn declined_share_shapes_are_the_interpreters() {
    let table = share_table(256, 30, 7);
    let n = &table.n;
    let even = n + BigUint::from(1u32);
    // A share at or above `n` in its own table.
    let catalog = Catalog::new();
    let big = catalog
        .create_table(
            "big",
            Schema::new(vec![
                ColumnDef::sensitive("a", DataType::Encrypted),
                ColumnDef::sensitive("b", DataType::Encrypted),
            ]),
        )
        .unwrap();
    for a in [n + BigUint::from(5u32), BigUint::from(9u32)] {
        big.write()
            .insert_row(vec![
                Value::Encrypted(a),
                Value::Encrypted(BigUint::from(11u32)),
            ])
            .unwrap();
    }
    let big = Arc::new(catalog);
    // `c` is NULL on rows where `a` is not: as an auxiliary share it fails
    // the key update and the plain addition there.
    let (p, q) = (&table.p[0], &table.q[0]);
    let cases: [(&Arc<Catalog>, String, bool); 8] = [
        (
            &table.catalog,
            format!("SELECT SDB_KEY_UPDATE(a, c, '{p}', '{q}', '{n}') AS k FROM s"),
            false,
        ),
        (
            &table.catalog,
            format!("SELECT SDB_ADD_PLAIN(a, x, 0, c, '{n}') AS k FROM s"),
            false,
        ),
        (
            &table.catalog,
            format!("SELECT SDB_MULTIPLY(a, b, '{even}') AS m FROM s"),
            true,
        ),
        (
            &table.catalog,
            format!(
                "SELECT SDB_KEY_UPDATE(a, sdb_s, '{}', '{}', '{even}') AS k FROM s",
                table.p[0], table.q[0]
            ),
            true,
        ),
        (
            &table.catalog,
            "SELECT SDB_ADD(a, b, 'n0t') AS m FROM s".to_string(),
            false,
        ),
        (
            &table.catalog,
            format!("SELECT SDB_MULTIPLY(x, b, '{n}') AS m FROM s"),
            false,
        ),
        (
            &big,
            format!("SELECT SDB_MULTIPLY(a, b, '{n}') AS m FROM big"),
            true,
        ),
        (
            &table.catalog,
            format!("SELECT SDB_MUL_PLAIN(a, x, 19, '{n}') AS m FROM s"),
            false,
        ),
    ];
    for (catalog, sql, answers) in cases {
        let (kernels, interpreter) = engine_pair(catalog, 1);
        let (on, off) = (observe(&kernels, &sql), observe(&interpreter, &sql));
        assert_eq!(on.result, off.result, "{sql}");
        assert_eq!(on.counters, off.counters, "{sql}");
        assert_eq!(on.result.is_ok(), answers, "{sql}: {:?}", on.result);
        assert_eq!(on.kernel_rows, 0, "the kernels must decline: {sql}");
    }
}

/// Group-tag oracle answering with the low 64 bits of each (unblinded) share,
/// so the answer column shows the shares the operands evaluated to.
struct LowBitsOracle;

impl SdbOracle for LowBitsOracle {
    fn resolve(&self, request: OracleRequest) -> OracleResult {
        let tags = (request.rows.iter())
            .map(|row| row.share.iter_u64_digits().next().unwrap_or(0))
            .collect();
        Ok(OracleResponse::Tags(tags))
    }
}

/// Each consumer of the expression seam — `Project`, `HashAggregate` in
/// memory and overflowing a tiny budget, `OracleResolve` — runs its
/// share arithmetic in the kernels (the traced span of that operator counts
/// the rows) and answers byte for byte as with the kernels off; the
/// operators' share counters add up to the query's.
#[test]
fn every_consumer_runs_the_kernels_and_answers_as_the_interpreter() {
    let table = share_table(256, 300, 11);
    let n = &table.n;
    let product = format!("SDB_ADD_PLAIN(SDB_MULTIPLY(a, b, '{n}'), d, 2, sdb_s, '{n}')");
    let summed = format!(
        "SUM({}) AS v, SUM({}) AS w",
        table.ku("a", 0, 0),
        table.ku(&product, 1, 2)
    );
    let cases = [
        ("Project", format!("SELECT id, {product} AS v FROM s"), None),
        (
            "HashAggregate",
            format!("SELECT g, {summed} FROM s GROUP BY g"),
            None,
        ),
        (
            "HashAggregate",
            format!("SELECT g, {summed} FROM s GROUP BY g"),
            Some(2048),
        ),
        (
            "OracleResolve",
            format!(
                "SELECT id, SDB_GROUP_TAG({}, rid, 'h') AS tag FROM s",
                table.ku("c", 2, 1)
            ),
            None,
        ),
    ];
    for (operator, sql, budget) in cases {
        let engine = |vectorised| {
            let mut engine = SpEngine::with_catalog(Arc::clone(&table.catalog))
                .with_parallelism(1)
                .with_batch_size(64)
                .with_vectorised(vectorised)
                .with_tracing(true);
            if let Some(bytes) = budget {
                engine = engine.with_memory_budget(sdb_storage::MemoryBudget::bytes(bytes));
            } else {
                engine = engine.with_memory_budget(sdb_storage::MemoryBudget::unlimited());
            }
            engine.connect_oracle(Arc::new(LowBitsOracle));
            engine
        };
        let on = engine(true).execute_sql(&sql).unwrap();
        let off = engine(false).execute_sql(&sql).unwrap();
        assert_eq!(on.batch, off.batch, "{operator}: {sql}");
        assert_eq!(on.stats.udf_calls, off.stats.udf_calls, "{operator}");
        assert_eq!(off.stats.share_kernel_rows, 0);
        let trace = on.trace.expect("tracing was on");
        let spans = || trace.spans.iter().map(|span| &span.exclusive);
        let engaged: Vec<&str> = (trace.spans.iter())
            .filter(|span| span.exclusive.share_kernel_rows > 0)
            .map(|span| span.name.as_str())
            .collect();
        assert_eq!(engaged, [operator], "{sql}");
        assert_eq!(
            on.stats.share_kernel_rows, 300,
            "{operator}: every row, once"
        );
        assert_eq!(
            spans().map(|x| x.share_kernel_rows).sum::<usize>(),
            on.stats.share_kernel_rows
        );
        let time: std::time::Duration = spans().map(|x| x.share_kernel_time).sum();
        assert_eq!(time, on.stats.share_kernel_time, "{operator}");
        if budget.is_some() {
            assert!(on.stats.pages_spilled > 0, "the budget must spill");
        }
    }
}

/// A batch longer than a kernel's chunk of rows: the key-update windows
/// straddle chunk boundaries and every chunk picks up where the previous
/// one stopped, so answers and counters stay the interpreter's.
#[test]
fn long_batches_run_in_chunks_as_the_interpreter() {
    let table = share_table(256, 2500, 3);
    let n = &table.n;
    let product = format!("SDB_ADD_PLAIN(SDB_MULTIPLY(a, b, '{n}'), d, 2, sdb_s, '{n}')");
    let sqls = [
        format!("SELECT id, {} AS v FROM s", table.ku(&product, 1, 0)),
        format!(
            "SELECT g, SUM({}) AS v, SUM({}) AS w FROM s GROUP BY g",
            table.ku("c", 0, 2),
            table.ku("a", 3, 1)
        ),
    ];
    assert!(share_cross_check(&table.catalog, &sqls, 1) > 0);
}
