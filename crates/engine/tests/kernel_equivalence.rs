//! Kernel-vs-interpreter equivalence: every columnar kernel must answer
//! exactly as the row interpreter it stands in for, which is the reference
//! these tests call directly.
//!
//! * *Selection.* [`CompiledPredicate::selection`] + `filter_bitmap` against
//!   row-by-row [`Evaluator::evaluate_predicate`] + `RecordBatch::filter`,
//!   over every form a batch reaches a `Filter` in: a fresh scan, slice
//!   windows at odd offsets, page-codec round trips, gathers and partition
//!   morsels. Where the kernel compiles, the interpreter must not fail.
//! * *Global aggregates.* [`GlobalAggKernel::execute`] against
//!   [`compute_aggregate`] over the interpreted argument values, including
//!   empty input, the scalar fold's tie rules and the mixed INT/DECIMAL
//!   cells the kernel must decline.
//! * *Share kernels.* Whole queries over the five SDB share UDFs on two
//!   engines: one as shipped, and one whose registry serves the same five
//!   functions through wrappers the kernels do not recognise, so every call
//!   runs in the interpreter. Answers, errors and the UDF / key-update
//!   counters must be identical.
//!
//! The random tables are NULL-heavy (~25% per column), DECIMAL cells mix the
//! `Int` short form with `Decimal` elements, and strings carry LIKE
//! metacharacters as data.

use std::sync::Arc;

use num_bigint::{BigUint, RandBigInt};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sdb_crypto::{EncryptedRowId, SiesCipher};
use sdb_engine::eval::Evaluator;
use sdb_engine::kernels::{CompiledPredicate, GlobalAggKernel};
use sdb_engine::operators::aggregate::compute_aggregate;
use sdb_engine::operators::expr::{bind_to_existing_columns, sensitivity_of};
use sdb_engine::planner::execute_plan;
use sdb_engine::secure::{OracleRequest, OracleResponse, OracleResult, SdbOracle};
use sdb_engine::{ExecConfig, ExecContext, ScalarUdf, SpEngine, UdfRegistry};
use sdb_sql::ast::Expr;
use sdb_sql::plan::{AggFunc, AggregateExpr, PlanBuilder};
use sdb_sql::{parse_sql, Statement};
use sdb_storage::pager::{decode_batch, encode_batch};
use sdb_storage::{Catalog, ColumnDef, DataType, RecordBatch, Schema, Value};

/// Predicates in the selection kernel's subset — numeric comparisons (INT,
/// DECIMAL with mixed element scales, DATE), string comparison, Kleene
/// AND/OR, NOT, IS [NOT] NULL, IN lists, BETWEEN, LIKE, bare and negated
/// boolean columns — and shapes it declines (arithmetic, mixed classes).
const PREDICATES: &[&str] = &[
    "i > 10",
    "i <= -25",
    "d >= 1.25",
    "d < 30",
    "dt > DATE '1970-04-10'",
    "s = 'ab'",
    "s < 'b'",
    "i > 0 AND d < 20",
    "i < -50 OR s = 'cc'",
    "NOT (i > 0)",
    "i IS NULL",
    "s IS NOT NULL",
    "i IN (1, 2, 3, -7)",
    "i NOT IN (0, 5)",
    "s IN ('a', 'bb', 'zz')",
    "i BETWEEN -10 AND 40",
    "i NOT BETWEEN 0 AND 9",
    "s LIKE 'a%'",
    "s NOT LIKE '%b'",
    "b",
    "NOT b",
    "b = TRUE",
    "i IS NULL AND s IS NULL",
    "g = 2 OR d IS NULL",
    "i - 5 > 10",
    "s > 3",
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

/// Expands one 64-bit seed into a NULL-heavy row (~25% NULLs per column).
///
/// DECIMAL(2) cells alternate between `Int` (the scale-0 short form the
/// loader writes for whole numbers) and `Decimal { scale: 2 }` elements —
/// the kernels must reproduce the interpreter's mixed-scale arithmetic.
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

/// Deterministic NULL-heavy rows.
fn deterministic_rows(n: usize) -> Vec<Row> {
    let mix = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
    (0..n).map(|i| row_from(mix(i as u64))).collect()
}

/// Every form in which an operator hands a batch of `t` to a kernel: its
/// fresh scan, slice windows at odd offsets (the tail and head words of a
/// bitmap no longer line up with the buffer's), the page codec's round trip
/// (a spilled run read back), gathers (a filter's or join's output) and the
/// morsels of a parallel operator.
fn batch_forms(catalog: &Catalog) -> Vec<(String, RecordBatch)> {
    let scan = catalog.table("t").unwrap().read().scan();
    let n = scan.num_rows();
    let mut forms = vec![("scan".to_string(), scan.clone())];
    for (offset, len) in [(1, 62), (3, 64), (5, 65), (63, 2), (65, 63), (7, 0)] {
        if offset + len <= n {
            let window = scan.slice(offset, len).unwrap();
            forms.push((format!("slice {offset}+{len}"), window));
        }
    }
    if n > 1 {
        let tail = scan.slice(1, n - 1).unwrap();
        forms.push(("slice 1..".into(), tail.clone()));
        forms.push((
            "codec(slice 1..)".into(),
            decode_batch(&encode_batch(&tail)).unwrap(),
        ));
    }
    forms.push(("codec".into(), decode_batch(&encode_batch(&scan)).unwrap()));
    let reversed: Vec<usize> = (0..n).rev().collect();
    let every_third: Vec<usize> = (0..n).step_by(3).collect();
    forms.push(("gather reversed".into(), scan.gather(&reversed)));
    forms.push(("gather every third".into(), scan.gather(&every_third)));
    for parts in [2, 3, 4, 7] {
        for (i, morsel) in scan.partition(parts).into_iter().enumerate() {
            forms.push((format!("morsel {i}/{parts}"), morsel));
        }
    }
    forms
}

/// The predicate of `SELECT … WHERE <sql>`, as parsed.
fn predicate(sql: &str) -> Expr {
    match parse_sql(&format!("SELECT i FROM t WHERE {sql}")).unwrap() {
        Statement::Query(q) => q.where_clause.expect("a WHERE clause"),
        other => panic!("expected query, got {other:?}"),
    }
}

/// The predicates of [`PREDICATES`] outside the selection kernel's subset.
const DECLINED: &[&str] = &["i - 5 > 10", "s > 3"];

/// Runs every predicate over every batch form through the selection kernel
/// and through the interpreter, as `Filter` would: the kernel compiles
/// exactly the predicates of its subset, and where it does, the
/// interpreter does not fail and keeps the same rows.
// The interpreter is this test's reference, so it is built here
// directly rather than through the expression seam.
#[allow(clippy::disallowed_methods)]
fn selection_cross_check(catalog: &Catalog) {
    let registry = UdfRegistry::with_sdb_udfs();
    for sql in PREDICATES {
        let predicate = predicate(sql);
        for (form, batch) in batch_forms(catalog) {
            let bound = bind_to_existing_columns(&predicate, batch.schema());
            let compiled = CompiledPredicate::compile(&bound, batch.schema());
            assert_eq!(compiled.is_none(), DECLINED.contains(sql), "{sql}");
            let Some(compiled) = compiled else { continue };
            let selection = compiled.selection(&batch).expect("typed columns");
            let evaluator = Evaluator::new(&registry);
            let mask: Vec<bool> = (0..batch.num_rows())
                .map(|row| evaluator.evaluate_predicate(&bound, &batch, row))
                .collect::<Result<_, _>>()
                .unwrap_or_else(|e| panic!("{sql} on {form}: the kernel compiled, yet {e}"));
            assert_eq!(
                batch.filter_bitmap(&selection).unwrap(),
                batch.filter(&mask).unwrap(),
                "{sql} on {form} ({} rows)",
                batch.num_rows()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Over random NULL-heavy tables, the selection kernel keeps exactly the
    /// rows the interpreter keeps, on every batch form.
    #[test]
    fn kernels_match_scalar_on_random_null_heavy_tables(
        seeds in proptest::collection::vec(any::<u64>(), 1..96)
    ) {
        let rows: Vec<Row> = seeds.into_iter().map(row_from).collect();
        selection_cross_check(&table_of(&rows));
    }
}

/// Selection bitmaps pack 64 rows per word: row counts on both sides of one
/// and two word boundaries pin the tail-word masking.
#[test]
fn word_boundary_row_counts_match_scalar() {
    for n in [63, 64, 65, 127, 128, 129] {
        selection_cross_check(&table_of(&deterministic_rows(n)));
    }
}

/// A parallel operator hands the kernels its morsels (2, 3, 4 and 7 of a
/// 257-row batch, among the batch forms): each answers as the interpreter.
#[test]
fn kernels_match_scalar_under_parallelism() {
    let catalog = table_of(&deterministic_rows(257));
    selection_cross_check(&catalog);
    aggregate_cross_check(&catalog);
}

// ---------------------------------------------------------------------------
// Global aggregates
// ---------------------------------------------------------------------------

fn aggregate(func: AggFunc, arg: Option<&str>, distinct: bool) -> AggregateExpr {
    let name = format!("{func:?}({})", arg.unwrap_or("*"));
    AggregateExpr {
        func,
        arg: arg.map(|col| Expr::Column(col.to_string())),
        distinct,
        name,
    }
}

/// Global aggregate lists over `t`: COUNT(*) vs COUNT(col), SUM/AVG over
/// INT and mixed INT/DECIMAL cells, MIN/MAX over every type, and MIN/MAX
/// DISTINCT (which the scalar fold ignores).
fn aggregate_lists() -> Vec<Vec<AggregateExpr>> {
    use AggFunc::*;
    let each = |funcs: &[AggFunc], col: &str| -> Vec<AggregateExpr> {
        funcs
            .iter()
            .map(|f| aggregate(*f, Some(col), false))
            .collect()
    };
    let mut lists = vec![
        each(&[Count, Sum, Avg, Min, Max], "i"),
        each(&[Count, Sum, Avg, Min, Max], "d"),
        each(&[Sum, Avg, Min, Max], "b"),
        each(&[Min, Max, Count], "s"),
        each(&[Sum, Min, Max], "dt"),
        vec![
            aggregate(Count, None, false),
            aggregate(Min, Some("g"), true),
        ],
    ];
    lists.push(lists.concat());
    lists
}

/// The interpreter's answer: each argument evaluated row by row, folded by
/// [`compute_aggregate`], and typed as `HashAggregate` types its output.
// The interpreter is this test's reference, so it is built here
// directly rather than through the expression seam.
#[allow(clippy::disallowed_methods)]
fn interpreted_aggregates(aggregates: &[AggregateExpr], batch: &RecordBatch) -> RecordBatch {
    let registry = UdfRegistry::with_sdb_udfs();
    let evaluator = Evaluator::new(&registry);
    let rows = batch.num_rows();
    let row: Vec<Value> = (aggregates.iter())
        .map(|agg| {
            let values = (agg.arg.iter())
                .flat_map(|arg| (0..rows).map(|row| evaluator.evaluate(arg, batch, row).unwrap()))
                .collect();
            compute_aggregate(agg, rows, values).unwrap()
        })
        .collect();
    let defs = (aggregates.iter().zip(&row))
        .map(|(agg, value)| {
            let data_type = value.data_type().unwrap_or(DataType::Int);
            ColumnDef {
                name: agg.name.clone(),
                data_type,
                sensitivity: sensitivity_of(data_type),
            }
        })
        .collect();
    RecordBatch::from_rows(Schema::new(defs), vec![row]).unwrap()
}

/// The kernel's plan of `aggregates` over `schema`, if it compiles.
fn agg_kernel(aggregates: &[AggregateExpr], schema: &Schema) -> Option<GlobalAggKernel> {
    let args: Vec<Expr> = (aggregates.iter())
        .map(|agg| agg.arg.clone().unwrap_or(Expr::Column(String::new())))
        .collect();
    GlobalAggKernel::compile(aggregates, &args, schema)
}

/// The kernel answers `aggregates` over `batch` as the interpreter does.
fn aggregate_matches(aggregates: &[AggregateExpr], batch: &RecordBatch, what: &str) {
    let kernel = agg_kernel(aggregates, batch.schema()).expect("in the kernel subset");
    let out = kernel.execute(aggregates, batch).expect("typed columns");
    assert_eq!(out, interpreted_aggregates(aggregates, batch), "{what}");
}

/// Every aggregate list over every batch form of a table, empty ones
/// included (COUNT 0, every other aggregate NULL).
fn aggregate_cross_check(catalog: &Catalog) {
    for aggregates in aggregate_lists() {
        let names: Vec<&str> = aggregates.iter().map(|a| a.name.as_str()).collect();
        for (form, batch) in batch_forms(catalog) {
            aggregate_matches(&aggregates, &batch, &format!("{names:?} on {form}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// Over random NULL-heavy tables, the global-aggregate kernel answers as
    /// the interpreter's fold on every batch form.
    #[test]
    fn global_aggregates_match_the_interpreter_on_random_tables(
        seeds in proptest::collection::vec(any::<u64>(), 1..96)
    ) {
        let rows: Vec<Row> = seeds.into_iter().map(row_from).collect();
        aggregate_cross_check(&table_of(&rows));
    }
}

/// Empty input and the word-boundary row counts; and numerically equal
/// cells in different representations, where MIN keeps the first minimum
/// and MAX the last maximum, as `min_by` / `max_by` do.
#[test]
fn global_aggregates_match_on_empty_input_and_keep_the_tie_rules() {
    for n in [0, 63, 64, 65, 129] {
        aggregate_cross_check(&table_of(&deterministic_rows(n)));
    }
    let decimal = |units| Value::Decimal { units, scale: 2 };
    let cells = [
        decimal(500),
        Value::Int(5),
        Value::Null,
        decimal(900),
        Value::Int(9),
        decimal(700),
    ];
    let schema = Schema::new(vec![ColumnDef::public("d", DataType::Decimal { scale: 2 })]);
    let rows = cells.iter().map(|c| vec![c.clone()]).collect();
    let batch = RecordBatch::from_rows(schema, rows).unwrap();
    let aggregates = [
        aggregate(AggFunc::Min, Some("d"), false),
        aggregate(AggFunc::Max, Some("d"), false),
    ];
    aggregate_matches(&aggregates, &batch, "ties");
    aggregate_matches(
        &aggregates,
        &batch.gather(&[5, 4, 3, 2, 1, 0]),
        "ties reversed",
    );
    let reference = interpreted_aggregates(&aggregates, &batch);
    assert_eq!(reference.column(0).value(0).into_owned(), decimal(500));
    assert_eq!(reference.column(1).value(0).into_owned(), Value::Int(9));
}

/// What the interpreter owns: DISTINCT on SUM/COUNT/AVG and computed
/// arguments do not compile, and cells whose variant is not the column's
/// declared type — an INT column holding `Decimal` cells, as a projection
/// of mixed expressions leaves them — compile (the schema is all the plan
/// sees) but are declined batch by batch, while the interpreter answers.
#[test]
fn the_global_aggregate_kernel_declines_what_the_interpreter_owns() {
    let schema = Schema::new(vec![ColumnDef::public("i", DataType::Int)]);
    for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Avg] {
        assert!(agg_kernel(&[aggregate(func, Some("i"), true)], &schema).is_none());
    }
    let sum = [aggregate(AggFunc::Sum, Some("i"), false)];
    let computed = predicate("i - 5 > 10");
    assert!(GlobalAggKernel::compile(&sum, &[computed], &schema).is_none());
    let cells = [
        Value::Int(4),
        Value::Decimal {
            units: 125,
            scale: 2,
        },
        Value::Null,
    ];
    let batch = RecordBatch::from_rows_unchecked(schema, cells.map(|cell| vec![cell]));
    for func in [
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Count,
    ] {
        let aggregates = [aggregate(func, Some("i"), false)];
        let kernel = agg_kernel(&aggregates, batch.schema()).unwrap();
        assert_eq!(kernel.execute(&aggregates, &batch), None, "{func:?}");
        interpreted_aggregates(&aggregates, &batch);
    }
}

/// The engagement counters say which path ran: a filter, a join, a grouped
/// and a global aggregate over plain columns run their kernels, and a
/// predicate outside the selection kernel's subset falls back, and says so.
/// The budget is pinned unlimited — an aggregate that overflows its budget
/// prepares rows outside the kernel paths.
#[test]
fn engagement_counters_record_which_path_ran() {
    let catalog = table_of(&deterministic_rows(128));
    let registry = UdfRegistry::with_sdb_udfs();
    let run_counted = |sql: &str| {
        let ctx = Arc::new(ExecContext::new(
            &catalog,
            &registry,
            None,
            ExecConfig {
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
        "SELECT a.i, b.i FROM t a JOIN t b ON a.g = b.g", // join keys
        "SELECT g, COUNT(*) AS n FROM t GROUP BY g",      // group keys
        "SELECT COUNT(*) AS c, SUM(i) AS si FROM t",      // global agg kernel
    ] {
        let stats = run_counted(sql);
        assert!(
            stats.vectorised_batches > 0,
            "kernels must engage for: {sql}"
        );
    }
    // Arithmetic in the predicate: outside the selection kernel's
    // column-vs-literal subset, so it falls back (and says so).
    let fallback = run_counted("SELECT i FROM t WHERE i - 5 > 10");
    assert!(fallback.scalar_fallback_batches > 0);
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

/// A share UDF the share kernels do not recognise: it delegates everything
/// but [`ScalarUdf::share_op`], so every call runs in the interpreter.
struct Interpreted(Arc<dyn ScalarUdf>);

impl ScalarUdf for Interpreted {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn invoke(&self, args: &[Value]) -> sdb_engine::Result<Value> {
        self.0.invoke(args)
    }

    fn site_instance(&self) -> Option<Arc<dyn ScalarUdf>> {
        let site = self.0.site_instance()?;
        Some(Arc::new(Interpreted(site)))
    }

    fn remembered_constants(&self) -> Vec<String> {
        self.0.remembered_constants()
    }
}

/// The reference engine: `engine` with the five share UDFs served through
/// [`Interpreted`] wrappers.
fn interpreted(mut engine: SpEngine) -> SpEngine {
    let registry = engine.registry_mut();
    for name in [
        "SDB_MULTIPLY",
        "SDB_ADD",
        "SDB_KEY_UPDATE",
        "SDB_MUL_PLAIN",
        "SDB_ADD_PLAIN",
    ] {
        let udf = registry.get(name).expect("a share UDF");
        registry.register(Arc::new(Interpreted(udf)));
    }
    engine
}

/// Two engines over `catalog`, with the share kernels and with the
/// interpreter, otherwise alike.
fn engine_pair(catalog: &Arc<Catalog>, parallelism: usize) -> (SpEngine, SpEngine) {
    let engine = || {
        SpEngine::with_catalog(Arc::clone(catalog)).with_config(ExecConfig {
            parallelism,
            ..ExecConfig::default()
        })
    };
    (engine(), interpreted(engine()))
}

/// Runs every query of `sqls` three times on a kernel engine and the
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
        let shares = request.rows.shares();
        let tags = (0..shares.len())
            .map(|row| shares.row(row).first().copied().unwrap_or(0))
            .collect();
        Ok(OracleResponse::Tags(tags))
    }
}

/// Each consumer of the expression seam — `Project`, `HashAggregate` in
/// memory and overflowing a tiny budget, `OracleResolve` — runs its
/// share arithmetic in the kernels (the traced span of that operator counts
/// the rows) and answers byte for byte as the interpreter engine; the
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
        let engine = || {
            let memory_budget = budget.map_or_else(
                sdb_storage::MemoryBudget::unlimited,
                sdb_storage::MemoryBudget::bytes,
            );
            let engine =
                SpEngine::with_catalog(Arc::clone(&table.catalog)).with_config(ExecConfig {
                    parallelism: 1,
                    batch_size: 64,
                    tracing: true,
                    memory_budget,
                    ..ExecConfig::default()
                });
            engine.connect_oracle(Arc::new(LowBitsOracle));
            engine
        };
        let on = engine().execute_sql(&sql).unwrap();
        let off = interpreted(engine()).execute_sql(&sql).unwrap();
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
