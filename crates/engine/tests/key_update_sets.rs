//! Key-update sets against the textbook formula.
//!
//! Every `SDB_KEY_UPDATE` of the query shapes below — whether its `S_e^p` came
//! from a set's row of powers (shared ladder, derived neighbour, lone head)
//! or from the function itself — must equal `a · s^p · q mod n` computed with
//! `BigUint::modpow`, row by row, at the three shipped key widths, at batch
//! size 2 and the default, at parallelism 1 and 4, unbounded and under a
//! 4 KiB budget (the spilling aggregate). Where a set raises several rows in
//! lockstep, the rows it holds at the end are exactly those its last block
//! should have taken.

use std::sync::Arc;

use num_bigint::{BigUint, RandBigInt};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sdb_crypto::{BoundKeyUpdateSet, EncryptedRowId, KeyConfig, KeyUpdateParams, SiesCipher};
use sdb_engine::planner::execute_plan;
use sdb_engine::secure::{OracleRequest, OracleResponse, OracleResult, SdbOracle};
use sdb_engine::{ExecConfig, ExecContext, ExecutionStats, UdfRegistry, DEFAULT_BATCH_SIZE};
use sdb_sql::plan::PlanBuilder;
use sdb_sql::{parse_sql, Statement};
use sdb_storage::{Catalog, ColumnDef, DataType, MemoryBudget, RecordBatch, Schema, Value};

/// The textbook key update, as the paper writes it.
fn textbook_key_update(a: &BigUint, s: &BigUint, p: &BigUint, q: &BigUint, n: &BigUint) -> BigUint {
    (a * s.modpow(p, n) % n) * q % n
}

/// One row of the fact table `t`; `s` is NULL on every seventh row, together
/// with `a` (a row the upload never encrypted).
struct Row {
    id: i64,
    g: i64,
    k: i64,
    a: Option<BigUint>,
    b: BigUint,
    s: Option<BigUint>,
}

/// Tables `t(id, g, k, a, b, sdb_s, rid, p_same, p_own)` and
/// `u(id, c, sdb_s)` of random residues below a random odd `n`, with the
/// exponents and factors the queries use.
struct Fixture {
    catalog: Catalog,
    n: BigUint,
    rows: Vec<Row>,
    /// `u`'s rows: `(id, c, s)`, ids 0..4.
    dims: Vec<(i64, BigUint, BigUint)>,
    /// Three unrelated exponents; the queries also use their neighbours.
    p: [BigUint; 3],
    q: [BigUint; 4],
    /// Per-row exponents, as `t.p_own` holds them.
    p_own: Vec<BigUint>,
}

fn fixture(config: KeyConfig, rows: usize) -> Fixture {
    let mut rng = StdRng::seed_from_u64(0x5e75 + config.prime_bits);
    let bits = 2 * config.prime_bits;
    let mut n = rng.gen_biguint(bits);
    n.set_bit(bits - 1, true);
    n.set_bit(0, true);
    let cipher = SiesCipher::from_master(&mut rng);
    let p = [(); 3].map(|()| rng.gen_biguint_below(&n));
    let q = [(); 4].map(|()| rng.gen_biguint_below(&n));

    let catalog = Catalog::new();
    let t = catalog
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::public("id", DataType::Int),
                ColumnDef::public("g", DataType::Int),
                ColumnDef::public("k", DataType::Int),
                ColumnDef::sensitive("a", DataType::Encrypted),
                ColumnDef::sensitive("b", DataType::Encrypted),
                ColumnDef::sensitive("sdb_s", DataType::Encrypted),
                ColumnDef::public("rid", DataType::EncryptedRowId),
                ColumnDef::public("p_same", DataType::Varchar),
                ColumnDef::public("p_own", DataType::Varchar),
            ]),
        )
        .unwrap();
    let mut data = Vec::new();
    let mut p_own = Vec::new();
    for i in 0..rows as i64 {
        let absent = i % 7 == 3;
        let row = Row {
            id: i,
            g: i % 3,
            k: i % 5,
            a: (!absent).then(|| rng.gen_biguint_below(&n)),
            b: rng.gen_biguint_below(&n),
            s: (!absent).then(|| rng.gen_biguint_below(&n)),
        };
        let own = rng.gen_biguint_below(&n);
        let share = |v: &Option<BigUint>| v.clone().map_or(Value::Null, Value::Encrypted);
        let rid = cipher.encrypt_biguint(&mut rng, &BigUint::from(i as u64 + 1));
        t.write()
            .insert_row(vec![
                Value::Int(row.id),
                Value::Int(row.g),
                Value::Int(row.k),
                share(&row.a),
                Value::Encrypted(row.b.clone()),
                share(&row.s),
                Value::EncryptedRowId(EncryptedRowId(rid)),
                Value::Str(p[0].to_string()),
                Value::Str(own.to_string()),
            ])
            .unwrap();
        data.push(row);
        p_own.push(own);
    }
    let u = catalog
        .create_table(
            "u",
            Schema::new(vec![
                ColumnDef::public("id", DataType::Int),
                ColumnDef::sensitive("c", DataType::Encrypted),
                ColumnDef::sensitive("sdb_s", DataType::Encrypted),
            ]),
        )
        .unwrap();
    let mut dims = Vec::new();
    // Ids 0..4 match `t.k`; 5 and 6 have no partner in `t`.
    for id in 0..7 {
        let (c, s) = (rng.gen_biguint_below(&n), rng.gen_biguint_below(&n));
        u.write()
            .insert_row(vec![
                Value::Int(id),
                Value::Encrypted(c.clone()),
                Value::Encrypted(s.clone()),
            ])
            .unwrap();
        dims.push((id, c, s));
    }
    Fixture {
        catalog,
        n,
        rows: data,
        dims,
        p,
        q,
        p_own,
    }
}

impl Fixture {
    /// `SDB_KEY_UPDATE(a, aux, 'p', 'q', 'n')` as SQL text.
    fn ku(&self, a: &str, aux: &str, p: &BigUint, q: &BigUint) -> String {
        format!("SDB_KEY_UPDATE({a}, {aux}, '{p}', '{q}', '{}')", self.n)
    }

    fn textbook(&self, a: &BigUint, s: &BigUint, p: &BigUint, q: &BigUint) -> BigUint {
        textbook_key_update(a, s, p, q, &self.n)
    }
}

/// Group-tag oracle that remembers the shares it was sent (group-tag requests
/// are not blinded) and answers with their low 64 bits.
#[derive(Default)]
struct RecordingOracle {
    seen: Mutex<Vec<(String, Vec<BigUint>)>>,
}

impl SdbOracle for RecordingOracle {
    fn resolve(&self, request: OracleRequest) -> OracleResult {
        let shares: Vec<BigUint> = request.rows.iter().map(|row| row.share.clone()).collect();
        let tags = shares
            .iter()
            .map(|share| share.iter_u64_digits().next().unwrap_or(0))
            .collect();
        self.seen.lock().push((request.handle, shares));
        Ok(OracleResponse::Tags(tags))
    }
}

/// Execution knobs of one run.
#[derive(Clone, Copy, Debug)]
struct Knobs {
    parallelism: usize,
    batch_size: usize,
    budget: Option<usize>,
}

fn knob_matrix(wide: bool) -> Vec<Knobs> {
    let mut out = Vec::new();
    for parallelism in [1, 4] {
        for batch_size in [2, DEFAULT_BATCH_SIZE] {
            for budget in [None, Some(4 << 10)] {
                // The 2048-bit reference is slow: one bounded and one
                // unbounded configuration per parallelism are enough there.
                if wide && (batch_size == 2) != budget.is_some() {
                    continue;
                }
                out.push(Knobs {
                    parallelism,
                    batch_size,
                    budget,
                });
            }
        }
    }
    out
}

fn run(
    catalog: &Catalog,
    sql: &str,
    knobs: Knobs,
    oracle: Option<Arc<dyn SdbOracle>>,
) -> sdb_engine::Result<(RecordBatch, ExecutionStats)> {
    let (out, stats, _) = run_keeping_powers(catalog, sql, knobs, oracle)?;
    Ok((out, stats))
}

/// [`run`], also returning every power the query's key-update sets still
/// hold when it ends (`UdfSites::remembered_powers`).
fn run_keeping_powers(
    catalog: &Catalog,
    sql: &str,
    knobs: Knobs,
    oracle: Option<Arc<dyn SdbOracle>>,
) -> sdb_engine::Result<(RecordBatch, ExecutionStats, Vec<BigUint>)> {
    let Statement::Query(query) = parse_sql(sql).unwrap() else {
        panic!("not a query: {sql}");
    };
    let registry = UdfRegistry::with_sdb_udfs();
    let budget = knobs
        .budget
        .map_or_else(MemoryBudget::unlimited, MemoryBudget::bytes);
    let ctx = Arc::new(ExecContext::new(
        catalog,
        &registry,
        oracle,
        ExecConfig {
            memory_budget: budget,
            parallelism: knobs.parallelism,
            batch_size: knobs.batch_size,
            ..ExecConfig::default()
        },
        None,
        None,
    ));
    let out = execute_plan(&ctx, &PlanBuilder::build(&query).unwrap())?;
    Ok((out, ctx.stats(), ctx.udf_sites().remembered_powers()))
}

/// Encrypted `SUM`: the integer sum of the non-NULL residues, NULL if none.
fn sum(values: impl IntoIterator<Item = Option<BigUint>>) -> Value {
    let present: Vec<BigUint> = values.into_iter().flatten().collect();
    if present.is_empty() {
        return Value::Null;
    }
    Value::Encrypted(present.iter().fold(BigUint::from(0u32), |acc, v| acc + v))
}

fn rows_of(batch: &RecordBatch) -> Vec<Vec<Value>> {
    batch.rows().collect()
}

const PROFILES: [(KeyConfig, usize); 3] = [
    // Enough rows for a parallel aggregate to fan out (128 a morsel).
    (KeyConfig::TEST, 300),
    (KeyConfig::BALANCED, 37),
    (KeyConfig::PAPER, 5),
];

/// Rewritten Q1 in miniature: eight updates of `t.sdb_s` per row over seven
/// exponents in three families — one of them nested inside the argument of
/// another — grouped and summed.
#[test]
fn q1_shaped_aggregate_equals_the_textbook_per_row() {
    for (config, rows) in PROFILES {
        let f = fixture(config, rows);
        let one = BigUint::from(1u32);
        let [p0, p1, p2] = &f.p;
        let (p1_up, p0_down, p0_down2) = (p1 + &one, p0 - &one, p0 - &one - &one);
        let inner = f.ku("a", "sdb_s", &p1_up, &f.q[1]);
        let product = format!(
            "SDB_MULTIPLY(b, SDB_ADD_PLAIN({inner}, 1, 2, sdb_s, '{n}'), '{n}')",
            n = f.n
        );
        let sql = format!(
            "SELECT g, SUM({}) AS s0, SUM({}) AS s1, SUM({}) AS s2, SUM({}) AS s3, \
             SUM({}) AS s4, SUM({}) AS s5, SUM({}) AS s6, COUNT(*) AS c \
             FROM t GROUP BY g ORDER BY g",
            f.ku("a", "sdb_s", p0, &f.q[0]),
            f.ku("b", "sdb_s", p2, &f.q[1]),
            f.ku(&product, "sdb_s", &p0_down, &f.q[2]),
            f.ku(&product, "sdb_s", &p0_down2, &f.q[3]),
            f.ku("a", "sdb_s", p0, &f.q[3]),
            f.ku("a", "sdb_s", p1, &f.q[0]),
            f.ku("b", "sdb_s", &p1_up, &f.q[2]),
        );

        // `b` is never NULL but `sdb_s` is on the absent rows: the function
        // reports a share that is not one, with the set in front of it as
        // without.
        let refused = run(&f.catalog, &sql, knob_matrix(false)[0], None).unwrap_err();
        let refused = refused.to_string();
        assert!(refused.contains("expected an encrypted share"), "{refused}");

        // Without the absent rows every configuration gives the sums of the
        // per-row textbook values.
        let sql = sql.replace("FROM t GROUP BY", "FROM t WHERE id % 7 <> 3 GROUP BY");
        let mut expected = Vec::new();
        for g in 0..3i64 {
            let members: Vec<&Row> = f
                .rows
                .iter()
                .filter(|r| r.g == g && r.s.is_some())
                .collect();
            let column = |value: &dyn Fn(&BigUint, &BigUint, &BigUint) -> BigUint| {
                sum(members
                    .iter()
                    .map(|r| Some(value(r.a.as_ref().unwrap(), &r.b, r.s.as_ref().unwrap()))))
            };
            let product = |a: &BigUint, b: &BigUint, s: &BigUint| {
                let inner = f.textbook(a, s, &p1_up, &f.q[1]);
                b * ((inner + BigUint::from(100u32) * s) % &f.n) % &f.n
            };
            expected.push(vec![
                Value::Int(g),
                column(&|a, _, s| f.textbook(a, s, p0, &f.q[0])),
                column(&|_, b, s| f.textbook(b, s, p2, &f.q[1])),
                column(&|a, b, s| f.textbook(&product(a, b, s), s, &p0_down, &f.q[2])),
                column(&|a, b, s| f.textbook(&product(a, b, s), s, &p0_down2, &f.q[3])),
                column(&|a, _, s| f.textbook(a, s, p0, &f.q[3])),
                column(&|a, _, s| f.textbook(a, s, p1, &f.q[0])),
                column(&|_, b, s| f.textbook(b, s, &p1_up, &f.q[2])),
                Value::Int(members.len() as i64),
            ]);
        }
        let present = f.rows.iter().filter(|r| r.s.is_some()).count();
        for knobs in knob_matrix(config == KeyConfig::PAPER) {
            let (out, stats) = run(&f.catalog, &sql, knobs, None).unwrap();
            assert_eq!(rows_of(&out), expected, "{config:?} {knobs:?}");
            // Nine calls a row (the nested one is evaluated twice), served
            // by three heads and three derived powers.
            assert_eq!(stats.key_update_calls, 9 * present, "{knobs:?}");
            assert_eq!(stats.key_update_pows, 3 * present, "{knobs:?}");
            assert_eq!(stats.key_update_derived, 3 * present, "{knobs:?}");
        }
    }
}

/// Rewritten Q6's operator: oracle calls whose operands key-update one share
/// column, gathered call by call. The recording oracle sees the operands.
#[test]
fn q6_shaped_oracle_operands_equal_the_textbook_per_row() {
    for (config, rows) in PROFILES {
        let f = fixture(config, rows);
        let [p0, p1, _] = &f.p;
        let update = f.ku("a", "sdb_s", p0, &f.q[0]);
        let sql = format!(
            "SELECT id, SDB_GROUP_TAG({update}, rid, 'h0') AS t0, \
             SDB_GROUP_TAG(SDB_ADD_PLAIN({update}, 7, 0, sdb_s, '{n}'), rid, 'h1') AS t1, \
             SDB_GROUP_TAG({}, rid, 'h2') AS t2 FROM t WHERE k < 4 ORDER BY id",
            f.ku("b", "sdb_s", p1, &f.q[1]),
            n = f.n
        );
        // `h2` updates `b`, which is never NULL, over a NULL `sdb_s`.
        let oracle = Arc::new(RecordingOracle::default());
        let refused = run(&f.catalog, &sql, knob_matrix(false)[0], Some(oracle));
        assert!(refused.is_err(), "a NULL auxiliary share must be refused");

        let sql = sql.replace("WHERE k < 4", "WHERE k < 4 AND id % 7 <> 3");
        let kept: Vec<&Row> = f.rows.iter().filter(|r| r.k < 4 && r.s.is_some()).collect();
        let operand = |handle: &str, r: &Row| {
            let (a, s) = (r.a.as_ref().unwrap(), r.s.as_ref().unwrap());
            match handle {
                "h0" => f.textbook(a, s, p0, &f.q[0]),
                "h1" => (f.textbook(a, s, p0, &f.q[0]) + BigUint::from(7u32) * s) % &f.n,
                _ => f.textbook(&r.b, s, p1, &f.q[1]),
            }
        };
        for knobs in knob_matrix(config == KeyConfig::PAPER) {
            let oracle = Arc::new(RecordingOracle::default());
            let shared: Arc<dyn SdbOracle> = Arc::clone(&oracle) as _;
            let (out, stats) = run(&f.catalog, &sql, knobs, Some(shared)).unwrap();
            assert_eq!(out.num_rows(), kept.len());
            for handle in ["h0", "h1", "h2"] {
                let seen = oracle.seen.lock();
                let shares: Vec<&BigUint> = seen
                    .iter()
                    .filter(|(h, _)| h == handle)
                    .flat_map(|(_, shares)| shares)
                    .collect();
                let expected: Vec<BigUint> = kept.iter().map(|r| operand(handle, r)).collect();
                assert_eq!(
                    shares,
                    expected.iter().collect::<Vec<_>>(),
                    "{handle} {knobs:?}"
                );
            }
            // Three calls a row on two unrelated exponents: two heads.
            assert_eq!(stats.key_update_calls, 3 * kept.len(), "{knobs:?}");
            assert_eq!(stats.key_update_pows, 2 * kept.len(), "{knobs:?}");
            assert_eq!(stats.key_update_derived, 0);
        }
    }
}

/// Rewritten Q18 and Q22 in miniature: the same `p` raised twice per row above
/// a join, two tables' auxiliary columns in one aggregate, and a LEFT JOIN
/// whose padded rows have neither operand nor auxiliary share.
#[test]
fn joined_aggregates_equal_the_textbook_per_row() {
    for (config, rows) in PROFILES {
        let f = fixture(config, rows);
        let [p0, p1, _] = &f.p;
        let one = BigUint::from(1u32);
        let sql = format!(
            "SELECT u.id, SUM({}) AS s0, SUM({}) AS s1, SUM({}) AS s2, COUNT(*) AS c \
             FROM u LEFT JOIN t ON u.id = t.k GROUP BY u.id ORDER BY u.id",
            f.ku("t.a", "t.sdb_s", p0, &f.q[0]),
            f.ku("t.a", "t.sdb_s", p0, &f.q[1]),
            f.ku("u.c", "u.sdb_s", &(p1 + &one), &f.q[2]),
        );
        let mut expected = Vec::new();
        for (id, c, s_u) in &f.dims {
            let partners: Vec<&Row> = f.rows.iter().filter(|r| r.k == *id).collect();
            let of_t = |q: &BigUint| {
                sum(partners
                    .iter()
                    .map(|r| Some(f.textbook(r.a.as_ref()?, r.s.as_ref()?, p0, q))))
            };
            let copies = partners.len().max(1);
            let of_u = f.textbook(c, s_u, &(p1 + &one), &f.q[2]);
            expected.push(vec![
                Value::Int(*id),
                of_t(&f.q[0]),
                of_t(&f.q[1]),
                sum((0..copies).map(|_| Some(of_u.clone()))),
                Value::Int(copies as i64),
            ]);
        }
        for knobs in knob_matrix(config == KeyConfig::PAPER) {
            let (out, stats) = run(&f.catalog, &sql, knobs, None).unwrap();
            assert_eq!(rows_of(&out), expected, "{config:?} {knobs:?}");
            let joined: usize = expected
                .iter()
                .map(|r| r[4].as_i64().unwrap() as usize)
                .sum();
            assert_eq!(stats.key_update_calls, 3 * joined, "{knobs:?}");
            // One head per row with a `t` share (both updates share it) and
            // one per row for `u`'s.
            let with_share = f.rows.iter().filter(|r| r.s.is_some()).count();
            assert_eq!(stats.key_update_pows, with_share + joined, "{knobs:?}");
        }
    }
}

/// Self-join aliases raise two windows of one table's auxiliary column; a
/// `CASE` guards which update a row takes.
#[test]
fn self_joins_and_guarded_calls_equal_the_textbook_per_row() {
    for (config, rows) in PROFILES {
        let f = fixture(config, rows);
        let [p0, p1, p2] = &f.p;
        let sql = format!(
            "SELECT x.id AS xid, y.id AS yid, {} AS vx, {} AS vy, \
             CASE WHEN x.g = 0 THEN {} ELSE {} END AS guarded \
             FROM t x JOIN t y ON x.id = y.k WHERE x.id % 7 <> 3 AND y.id % 7 <> 3 \
             ORDER BY x.id, y.id",
            f.ku("x.b", "x.sdb_s", p0, &f.q[0]),
            f.ku("y.b", "y.sdb_s", p0, &f.q[0]),
            f.ku("x.a", "x.sdb_s", p1, &f.q[1]),
            f.ku("y.a", "x.sdb_s", p2, &f.q[2]),
        );
        let mut expected = Vec::new();
        for x in f.rows.iter().filter(|r| r.s.is_some()) {
            for y in f.rows.iter().filter(|r| r.s.is_some() && r.k == x.id) {
                let (sx, sy) = (x.s.as_ref().unwrap(), y.s.as_ref().unwrap());
                let guarded = if x.g == 0 {
                    f.textbook(x.a.as_ref().unwrap(), sx, p1, &f.q[1])
                } else {
                    f.textbook(y.a.as_ref().unwrap(), sx, p2, &f.q[2])
                };
                expected.push(vec![
                    Value::Int(x.id),
                    Value::Int(y.id),
                    Value::Encrypted(f.textbook(&x.b, sx, p0, &f.q[0])),
                    Value::Encrypted(f.textbook(&y.b, sy, p0, &f.q[0])),
                    Value::Encrypted(guarded),
                ]);
            }
        }
        assert!(!expected.is_empty());
        for knobs in knob_matrix(config == KeyConfig::PAPER) {
            let (out, _) = run(&f.catalog, &sql, knobs, None).unwrap();
            assert_eq!(rows_of(&out), expected, "{config:?} {knobs:?}");
        }
    }
}

/// A guarded update costs only the rows whose branch is taken: the powers of
/// a row are raised when a site first asks for them, not for the batch.
#[test]
fn a_guarded_call_raises_only_the_rows_it_evaluates() {
    let (config, rows) = PROFILES[0];
    let f = fixture(config, rows);
    let [p0, _, _] = &f.p;
    let next = p0 + BigUint::from(1u32);
    let sql = format!(
        "SELECT id, CASE WHEN g = 0 THEN {} END AS v, \
         CASE WHEN g = 0 AND k = 0 THEN {} END AS w FROM t ORDER BY id",
        f.ku("a", "sdb_s", p0, &f.q[0]),
        f.ku("a", "sdb_s", &next, &f.q[1]),
    );
    // `a` and `sdb_s` are NULL together, and a NULL `a` is a NULL update.
    let taken = |r: &Row| r.g == 0 && r.s.is_some();
    let expected: Vec<Vec<Value>> = (f.rows.iter())
        .map(|r| {
            let (a, s) = (r.a.as_ref(), r.s.as_ref());
            let v = taken(r).then(|| f.textbook(a.unwrap(), s.unwrap(), p0, &f.q[0]));
            let w =
                (taken(r) && r.k == 0).then(|| f.textbook(a.unwrap(), s.unwrap(), &next, &f.q[1]));
            let share = |v: Option<BigUint>| v.map_or(Value::Null, Value::Encrypted);
            vec![Value::Int(r.id), share(v), share(w)]
        })
        .collect();
    let v_rows = f.rows.iter().filter(|r| taken(r)).count();
    let w_rows = f.rows.iter().filter(|r| taken(r) && r.k == 0).count();
    assert!(0 < w_rows && w_rows < v_rows && v_rows < rows / 2);
    for knobs in knob_matrix(false) {
        let (out, stats) = run(&f.catalog, &sql, knobs, None).unwrap();
        assert_eq!(rows_of(&out), expected, "{knobs:?}");
        // Calls count the invocations on NULL rows too; those raise nothing.
        let calls = (f.rows.iter().filter(|r| r.g == 0))
            .map(|r| 1 + usize::from(r.k == 0))
            .sum::<usize>();
        assert_eq!(stats.key_update_calls, calls, "{knobs:?}");
        assert_eq!(stats.key_update_pows, v_rows, "{knobs:?}");
        assert_eq!(stats.key_update_derived, v_rows, "{knobs:?}");
    }
}

/// A call whose `p` is a column is no member of any set: the function serves
/// it row by row. With the same exponent in every row its results are those
/// of the literal call next to it, which the set serves; with an exponent of
/// its own per row they are the textbook's.
#[test]
fn non_literal_parameters_go_through_the_function_and_agree() {
    for (config, rows) in PROFILES {
        let f = fixture(config, rows);
        let p0 = &f.p[0];
        let column_call =
            |p: &str| format!("SDB_KEY_UPDATE(b, sdb_s, {p}, '{}', '{}')", f.q[0], f.n);
        let sql = format!(
            "SELECT id, {} AS literal, {} AS same, {} AS own FROM t WHERE id % 7 <> 3 ORDER BY id",
            f.ku("b", "sdb_s", p0, &f.q[0]),
            column_call("p_same"),
            column_call("p_own"),
        );
        let present: Vec<&Row> = f.rows.iter().filter(|r| r.s.is_some()).collect();
        for knobs in knob_matrix(config == KeyConfig::PAPER) {
            let (out, stats) = run(&f.catalog, &sql, knobs, None).unwrap();
            assert_eq!(out.num_rows(), present.len());
            for (r, row) in present.iter().zip(out.rows()) {
                let s = r.s.as_ref().unwrap();
                let literal = Value::Encrypted(f.textbook(&r.b, s, p0, &f.q[0]));
                assert_eq!(row[1], literal, "row {} {knobs:?}", r.id);
                assert_eq!(row[2], literal, "row {} {knobs:?}", r.id);
                let own = &f.p_own[r.id as usize];
                assert_eq!(row[3], Value::Encrypted(f.textbook(&r.b, s, own, &f.q[0])));
            }
            // Every call raised its own power, except none twice for the set.
            assert_eq!(stats.key_update_calls, 3 * present.len());
            assert_eq!(stats.key_update_pows, 3 * present.len());
        }
    }
}

/// Table `v(id, g, a, sdb_s)` of random residues below `f.n`: `a` is NULL on
/// every fourth row (a NULL operand over a share), and `a` and `sdb_s`
/// together on every seventh (a NULL auxiliary cell, whose update is NULL).
/// Returns each row's `(g, a, s)`.
fn gapped_table(f: &Fixture, seed: u64) -> Vec<(i64, Option<BigUint>, Option<BigUint>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let v = f
        .catalog
        .create_table(
            "v",
            Schema::new(vec![
                ColumnDef::public("id", DataType::Int),
                ColumnDef::public("g", DataType::Int),
                ColumnDef::sensitive("a", DataType::Encrypted),
                ColumnDef::sensitive("sdb_s", DataType::Encrypted),
            ]),
        )
        .unwrap();
    let mut rows = Vec::new();
    for i in 0..f.rows.len() as i64 {
        let s = (i % 7 != 3).then(|| rng.gen_biguint_below(&f.n));
        let a = (s.is_some() && i % 4 != 2).then(|| rng.gen_biguint_below(&f.n));
        let share = |v: &Option<BigUint>| v.clone().map_or(Value::Null, Value::Encrypted);
        v.write()
            .insert_row(vec![Value::Int(i), Value::Int(i % 3), share(&a), share(&s)])
            .unwrap();
        rows.push((i % 3, a, s));
    }
    rows
}

/// The rows of every lockstep block an unconditional site over `table` raises,
/// one window of `batch` rows at a time: each row with an operand and a share
/// that no block holds yet starts one with the next `block` rows of its
/// batch, raising every one that holds a share.
fn blocks(
    table: &[(i64, Option<BigUint>, Option<BigUint>)],
    batch: usize,
    block: usize,
) -> Vec<Vec<usize>> {
    let mut blocks: Vec<Vec<usize>> = Vec::new();
    let mut end = 0;
    for (row, (_, a, s)) in table.iter().enumerate() {
        if a.is_some() && s.is_some() && row >= end {
            end = (row + block)
                .min((row / batch + 1) * batch)
                .min(table.len());
            blocks.push((row..end).filter(|&r| table[r].2.is_some()).collect());
        }
    }
    blocks
}

/// An update every row evaluates raises the rows of a window in blocks, in
/// lockstep: a NULL auxiliary cell is left out of a block, a share under a
/// NULL operand is raised with it but never charged, a block ends with its
/// batch (batch size 2), a guarded member of the same group reads the
/// unconditional member's rows, and the rows a set holds at the end are
/// those of its last block — at most `BoundKeyUpdateSet::block_rows` of
/// them. Every power is charged once, to the first call that uses it.
#[test]
fn an_unconditional_update_raises_its_rows_in_blocks() {
    for (config, rows) in PROFILES {
        let f = fixture(config, rows);
        let table = gapped_table(&f, 0x61ed + config.prime_bits);
        let (p, next) = (&f.p[0], &f.p[0] + BigUint::from(1u32));
        // No ORDER BY: the projection sees the scan's batches, in table order.
        let sql = format!(
            "SELECT id, {} AS v, CASE WHEN g = 0 THEN {} END AS w FROM v",
            f.ku("a", "sdb_s", p, &f.q[0]),
            f.ku("a", "sdb_s", &next, &f.q[1]),
        );
        let update =
            |a: &Option<BigUint>, s: &Option<BigUint>, p: &BigUint, q: &BigUint| match (a, s) {
                (Some(a), Some(s)) => Value::Encrypted(f.textbook(a, s, p, q)),
                _ => Value::Null,
            };
        let expected: Vec<Vec<Value>> = (table.iter().enumerate())
            .map(|(id, (g, a, s))| {
                let w = match g {
                    0 => update(a, s, &next, &f.q[1]),
                    _ => Value::Null,
                };
                vec![Value::Int(id as i64), update(a, s, p, &f.q[0]), w]
            })
            .collect();
        let present: Vec<bool> = (table.iter())
            .map(|(_, a, s)| a.is_some() && s.is_some())
            .collect();
        let raised = present.iter().filter(|&&p| p).count();
        let params = KeyUpdateParams {
            p: p.clone(),
            q: f.q[0].clone(),
        };
        let block = BoundKeyUpdateSet::bind(&f.n, &[params])
            .unwrap()
            .block_rows();
        for knobs in knob_matrix(config == KeyConfig::PAPER) {
            let (out, stats, powers) = run_keeping_powers(&f.catalog, &sql, knobs, None).unwrap();
            assert_eq!(rows_of(&out), expected, "{config:?} {knobs:?}");
            let guarded = table.iter().filter(|(g, _, _)| *g == 0).count();
            assert_eq!(stats.key_update_calls, rows + guarded, "{knobs:?}");
            assert_eq!(stats.key_update_pows, raised, "{knobs:?}");
            assert_eq!(stats.key_update_derived, raised, "{knobs:?}");
            // A projection evaluates on one thread: one block, two powers a row.
            let raised_blocks = blocks(&table, knobs.batch_size, block);
            let held = raised_blocks.last().unwrap();
            let expected_powers: Vec<BigUint> = (held.iter())
                .flat_map(|&row| {
                    let s = table[row].2.as_ref().unwrap();
                    [s.modpow(p, &f.n), s.modpow(&next, &f.n)]
                })
                .collect();
            assert_eq!(powers, expected_powers, "{config:?} {knobs:?}");
            assert!(held.len() <= block);
        }
        if config == KeyConfig::TEST {
            // The counts above were exact over blocks that raised the share
            // of a NULL operand ahead and left out a NULL auxiliary cell.
            let raised_blocks = blocks(&table, DEFAULT_BATCH_SIZE, block);
            let null_operand = |held: &Vec<usize>| held.iter().any(|&row| table[row].1.is_none());
            let null_aux = |held: &Vec<usize>| {
                (held[0]..held[held.len() - 1]).any(|row| table[row].2.is_none())
            };
            assert!(raised_blocks.iter().any(null_operand));
            assert!(raised_blocks.iter().any(null_aux));
            // The last block, whose powers were checked, has several rows.
            assert!(raised_blocks.last().unwrap().len() > 1);

            // Without the unconditional member the guarded one raises one
            // row at a time: the set holds the last row whose branch ran.
            let guarded_only = format!(
                "SELECT id, CASE WHEN g = 0 THEN {} END AS w FROM v",
                f.ku("a", "sdb_s", &next, &f.q[1]),
            );
            let serial = Knobs {
                parallelism: 1,
                batch_size: DEFAULT_BATCH_SIZE,
                budget: None,
            };
            let (_, _, powers) =
                run_keeping_powers(&f.catalog, &guarded_only, serial, None).unwrap();
            let last = (0..rows)
                .rev()
                .find(|&row| present[row] && table[row].0 == 0);
            let s = table[last.unwrap()].2.as_ref().unwrap();
            assert_eq!(powers, [s.modpow(&next, &f.n)]);
        }
    }
}

/// Grouped and summed, the same update over `v` agrees with the textbook
/// sums at every knob — the parallel aggregate's morsels and the spilling
/// aggregate raise blocks of their own rows — and no worker's set holds more
/// than `BoundKeyUpdateSet::block_rows` rows at the end.
#[test]
fn blocks_of_rows_serve_every_aggregate_variant() {
    for (config, rows) in PROFILES {
        let f = fixture(config, rows);
        let table = gapped_table(&f, 0x61ee + config.prime_bits);
        let p = &f.p[1];
        let sql = format!(
            "SELECT g, SUM({}) AS s, COUNT(*) AS c FROM v GROUP BY g ORDER BY g",
            f.ku("a", "sdb_s", p, &f.q[2]),
        );
        let expected: Vec<Vec<Value>> = (0..3i64)
            .map(|g| {
                let members = table.iter().filter(|(group, _, _)| *group == g);
                let count = members.clone().count() as i64;
                let updates =
                    members.map(|(_, a, s)| Some(f.textbook(a.as_ref()?, s.as_ref()?, p, &f.q[2])));
                vec![Value::Int(g), sum(updates), Value::Int(count)]
            })
            .collect();
        let raised = table
            .iter()
            .filter(|(_, a, s)| a.is_some() && s.is_some())
            .count();
        let params = KeyUpdateParams {
            p: p.clone(),
            q: f.q[2].clone(),
        };
        let block = BoundKeyUpdateSet::bind(&f.n, &[params])
            .unwrap()
            .block_rows();
        for knobs in knob_matrix(config == KeyConfig::PAPER) {
            let (out, stats, powers) = run_keeping_powers(&f.catalog, &sql, knobs, None).unwrap();
            assert_eq!(rows_of(&out), expected, "{config:?} {knobs:?}");
            assert_eq!(stats.key_update_calls, rows, "{knobs:?}");
            assert_eq!(stats.key_update_pows, raised, "{knobs:?}");
            assert!(!powers.is_empty(), "{knobs:?}");
            assert!(powers.len() <= block * knobs.parallelism, "{knobs:?}");
        }
    }
}
