//! Statement shapes across the trust boundary.
//!
//! A proxy that has rewritten a statement twice keeps its shape and replays
//! it; an SP that has been sent a shape's template keeps it and reuses its
//! optimised plan. A statement is known by its tokens with the public keys
//! it looks up lifted into slots, so lookups on different keys are one
//! shape. Whatever the two caches hold, every statement must rewrite to the
//! server SQL a proxy without the shape produces for the same query
//! counter, and answer with the same counts; only the work of parsing,
//! rewriting and planning may go.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdb::wire::WireMessageKind;
use sdb::{MemoryAuditor, QueryResult, SdbClient, SdbConfig};
use sdb_engine::{EngineError, QueryOptions, SpEngine};
use sdb_proxy::ResultPlan;
use sdb_sql::{lift_literals, Lexer, Literal, Token};
use sdb_storage::{RecordBatch, Value};
use sdb_workload::{generate_all, generate_table, ScaleFactor, SensitivityProfile};

/// The statement shapes of the `serve_mixed` benchmark, one instance each.
const SERVING_SHAPES: [&str; 7] = [
    "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = 7",
    "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = 3",
    "SELECT l_linenumber, l_quantity, l_extendedprice FROM lineitem \
     WHERE l_orderkey = 7 ORDER BY l_linenumber",
    "SELECT SUM(o_totalprice) AS total FROM orders WHERE o_custkey = 3",
    "SELECT l.l_shipmode, COUNT(*) AS line_count FROM orders o \
     JOIN lineitem l ON o.o_orderkey = l.l_orderkey \
     WHERE l.l_shipmode IN ('MAIL', 'SHIP') \
     AND l.l_receiptdate >= DATE '1995-01-01' AND l.l_receiptdate < DATE '1996-01-01' \
     GROUP BY l.l_shipmode ORDER BY l.l_shipmode",
    "SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal > 2000.00 \
     ORDER BY c_custkey LIMIT 10",
    "SELECT o_orderkey, o_custkey, o_orderdate, o_orderpriority FROM orders \
     ORDER BY o_orderdate, o_orderkey",
];

const SEED: u64 = 0x1e4;

fn statements() -> Vec<(String, String)> {
    let mut statements: Vec<(String, String)> = sdb_workload::all_queries()
        .into_iter()
        .map(|q| (format!("Q{}", q.id), q.sql.to_string()))
        .collect();
    statements.extend(
        (SERVING_SHAPES.iter().enumerate())
            .map(|(i, sql)| (format!("serving shape {i}"), sql.to_string())),
    );
    statements
}

fn loaded(config: SdbConfig) -> SdbClient {
    let mut client = SdbClient::new(config).expect("client");
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, SEED) {
        client.stage_table(table).expect("stage");
    }
    client.upload_all().expect("upload");
    client
}

fn auditor() -> MemoryAuditor {
    let mut auditor = MemoryAuditor::new();
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, SEED) {
        auditor.register_table(&table);
    }
    auditor
}

/// One worker, so the key-update counts do not depend on scheduling.
fn serial() -> QueryOptions {
    QueryOptions::default().with_parallelism(1)
}

/// Everything about one execution that must not depend on the caches.
#[derive(Debug, PartialEq)]
struct Observed {
    server_sql: String,
    plan: ResultPlan,
    answer: String,
    udf_calls: usize,
    key_update: [usize; 4],
    oracle_rows: usize,
}

/// One execution and what it says about the caches.
struct Run {
    observed: Observed,
    shape_hit: bool,
    plan_cache_hits: usize,
    draws: Vec<String>,
    drawn: Vec<bool>,
}

fn run(client: &SdbClient, sql: &str) -> Run {
    let rewritten = client.rewrite_only(sql).expect("rewrite");
    let result =
        (client.run_rewritten_with(&rewritten, &serial())).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let stats = &result.server_stats;
    assert_eq!(result.do_shape_hits, usize::from(rewritten.shape_hit));
    assert_eq!(result.rewritten_sql, rewritten.server_sql);
    Run {
        observed: Observed {
            server_sql: rewritten.server_sql.clone(),
            plan: rewritten.plan.clone(),
            answer: serde_json::to_string(&result.batch).expect("answer"),
            udf_calls: stats.udf_calls,
            key_update: [
                stats.key_update_calls,
                stats.key_update_pows,
                stats.key_update_derived,
                stats.key_update_memo_hits,
            ],
            oracle_rows: rewritten.session.oracle_rows(),
        },
        shape_hit: rewritten.shape_hit,
        plan_cache_hits: stats.plan_cache_hits,
        draws: rewritten.draws().to_vec(),
        drawn: rewritten
            .shape()
            .map(|s| s.drawn_slots())
            .unwrap_or_default(),
    }
}

fn query(client: &SdbClient, sql: &str) -> QueryResult {
    (client.query_with(sql, &serial())).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// Runs `sql` until both caches serve it, returning the last result: the
/// proxy admits the text on its second run and replays it from the third,
/// when the SP is first sent the shape; the SP stores the plan on the
/// fourth and serves it on the fifth.
fn warm(client: &SdbClient, sql: &str) -> QueryResult {
    for _ in 0..4 {
        query(client, sql);
    }
    let result = query(client, sql);
    assert_eq!(
        (result.do_shape_hits, result.server_stats.plan_cache_hits),
        (1, 1),
        "{sql} is served by both caches"
    );
    result
}

fn answer(result: &QueryResult) -> String {
    serde_json::to_string(&result.batch).expect("answer")
}

/// `sql` (which starts with `SELECT`) with its first keyword in the `i`-th
/// of 63 letter casings: the same statement, but a lexed form no other `i`
/// gives.
fn recased(sql: &str, i: usize) -> String {
    let keyword: String = ("SELECT".chars().enumerate())
        .map(|(bit, c)| match (i + 1) >> bit & 1 {
            1 => c.to_ascii_lowercase(),
            _ => c,
        })
        .collect();
    format!("{keyword}{}", &sql["SELECT".len()..])
}

/// Every workload statement and serving shape, five times on one client
/// and once each, as a statement its proxy has never seen, on a twin
/// client: the twin writes the leading `SELECT` in a casing of its own
/// each run (spaces would not do: the proxy knows a statement by its
/// tokens), so it rewrites cold with the same query counter, sends the SQL
/// as text and runs the same SP work in the same order. Both profiles.
///
/// The server SQL, the result plan, the answer, `udf_calls`, the
/// `key_update_*` counts and the proxy's oracle rows are equal run by run.
/// Run 2 is the first replay at the proxy, run 4 also the first plan-cache
/// hit at the SP; between two replays, every slot that depends on a fresh
/// draw changes and every other slot stays.
#[test]
fn replayed_shapes_match_cold_rewrites_on_every_statement() {
    for config in [SdbConfig::test_profile(), SdbConfig::balanced_profile()] {
        let (warm, cold) = (loaded(config), loaded(config));
        let mut drawn_slots = 0;
        for (name, sql) in statements() {
            let mut runs = Vec::new();
            for i in 0..5 {
                let replayed = run(&warm, &sql);
                let reference = run(&cold, &recased(&sql, i));
                assert_eq!(replayed.observed, reference.observed, "{name} run {i}");
                assert!(!reference.shape_hit && reference.plan_cache_hits == 0);
                assert_eq!(replayed.shape_hit, i >= 2, "{name} run {i}: DO shape hit");
                assert_eq!(
                    replayed.plan_cache_hits,
                    usize::from(i == 4),
                    "{name} run {i}: SP plan hit"
                );
                runs.push(replayed);
            }
            let (before, after) = (&runs[3], &runs[4]);
            assert_eq!(after.drawn.len(), after.draws.len(), "{name}");
            for (slot, &drawn) in after.drawn.iter().enumerate() {
                let differs = before.draws[slot] != after.draws[slot];
                assert_eq!(differs, drawn, "{name}: slot {slot} (drawn: {drawn})");
                drawn_slots += usize::from(drawn);
            }
        }
        assert!(
            drawn_slots > 20,
            "the workload draws keys: {drawn_slots} slots"
        );
        assert_eq!(
            cold.proxy().statement_shapes(),
            0,
            "a text seen once is never admitted"
        );
        assert_eq!(cold.engine().statement_shapes(), 0);
        assert_eq!(warm.proxy().statement_shapes(), statements().len());
    }
}

/// What the caches hold is what the SP is sent anyway: no sensitive
/// plaintext in the proxy's templates, the SP's cached templates and plans,
/// or the statements a hit sends (draws only); and the templates stay out
/// of the key store's JSON.
#[test]
fn cached_statements_hold_no_sensitive_plaintext() {
    let client = loaded(SdbConfig::test_profile());
    let mut hit_payloads = Vec::new();
    for (_, sql) in statements() {
        for _ in 0..4 {
            query(&client, &sql);
        }
        let capture = client.wire().capture();
        let result = query(&client, &sql);
        assert_eq!(result.do_shape_hits, 1);
        let sent: Vec<String> = (capture.messages().into_iter())
            .filter(|m| m.kind == WireMessageKind::QueryToSp)
            .map(|m| m.payload)
            .collect();
        assert_eq!(sent.len(), 1, "{sql}");
        assert!(
            sent[0].contains("\"template\":null"),
            "a hit sends no text: {}",
            sent[0]
        );
        assert_eq!(result.bytes_to_sp, sent[0].len());
        hit_payloads.extend(sent);
    }
    let templates = client.proxy().statement_templates();
    let plans = client.engine().statement_shape_dump();
    assert_eq!(templates.len(), statements().len());
    assert!(plans.len() > templates.len(), "templates and their plans");
    let auditor = auditor();
    let report = auditor.audit([
        ("do-templates", templates.join("\n").as_str()),
        ("sp-plans", plans.join("\n").as_str()),
        ("hit-statements", hit_payloads.join("\n").as_str()),
    ]);
    assert!(report.is_clean(), "{report:?}");

    let keystore = serde_json::to_string(client.proxy().keystore()).expect("key store");
    for template in &templates {
        assert!(!keystore.contains(template.as_str()));
    }
    let debug = format!("{:?}", client.proxy());
    assert!(debug.contains("shapes: "), "{debug}");
}

/// Each trigger re-plans at the SP (`ANALYZE`, `CREATE TABLE`, a replaced
/// table) or rewrites at the proxy (an upload changes the key store), and
/// the answer stays the same.
#[test]
fn each_invalidation_trigger_replans_or_rewrites() {
    let mut client = loaded(SdbConfig::test_profile());
    let sql = sdb_workload::query_by_id(1).expect("Q1").sql;
    let expected = answer(&warm(&client, sql));

    for trigger in ["ANALYZE", "CREATE TABLE", "table replace"] {
        let catalog = client.engine().catalog();
        match trigger {
            "ANALYZE" => {
                client.analyze("lineitem").expect("analyze");
            }
            "CREATE TABLE" => {
                (client.engine())
                    .execute_sql("CREATE TABLE shapes_probe (a INT)")
                    .expect("create");
            }
            _ => {
                let table = catalog.table("lineitem").expect("lineitem").read().clone();
                catalog.register_or_replace(table);
            }
        }
        let result = query(&client, sql);
        assert_eq!(
            (result.do_shape_hits, result.server_stats.plan_cache_hits),
            (1, 0),
            "{trigger}: the DO replays, the SP re-plans"
        );
        assert_eq!(answer(&result), expected, "{trigger}");
        warm(&client, sql);
    }

    client
        .execute("CREATE TABLE shapes_extra (id INT, v INT SENSITIVE)")
        .expect("create");
    client
        .execute("INSERT INTO shapes_extra VALUES (1, 10), (2, 20)")
        .expect("insert");
    client.upload("shapes_extra").expect("upload");
    assert_eq!(
        client.proxy().statement_shapes(),
        0,
        "an upload drops every shape"
    );
    let result = query(&client, sql);
    assert_eq!(result.do_shape_hits, 0, "upload: the DO rewrites");
    assert_eq!(answer(&result), expected, "upload");
    warm(&client, sql);
}

/// Rows an `INSERT` adds after upload change neither the key store nor the
/// catalog's epoch: the statement stays a hit on both sides and its answer
/// counts the new rows.
#[test]
fn an_insert_after_upload_stays_a_hit_and_is_answered() {
    let mut client = SdbClient::new(SdbConfig::test_profile()).expect("client");
    client
        .execute("CREATE TABLE acct (id INT, bal INT SENSITIVE)")
        .expect("create");
    client
        .execute("INSERT INTO acct VALUES (1, 100), (2, 250), (3, 40)")
        .expect("insert");
    client.upload_all().expect("upload");
    let sql = "SELECT SUM(bal) AS total, COUNT(*) AS n FROM acct WHERE id < 100";
    let before = warm(&client, sql);
    assert_eq!(before.rows()[0][0].render(), "390");

    client
        .execute("INSERT INTO acct VALUES (50, 1000)")
        .expect("insert after upload");
    let after = query(&client, sql);
    assert_eq!(
        (after.do_shape_hits, after.server_stats.plan_cache_hits),
        (1, 1)
    );
    assert_eq!(after.rows()[0][0].render(), "1390");
    assert_eq!(after.rows()[0][1].render(), "4");
}

/// An SP that has dropped a shape answers `UnknownShape`; the client sends
/// the template again, and the wire log holds both messages as sent.
#[test]
fn an_unknown_shape_is_resent_with_its_template() {
    let client = loaded(SdbConfig::test_profile());
    let sql = sdb_workload::query_by_id(6).expect("Q6").sql;
    let expected = answer(&warm(&client, sql));

    client.engine().clear_statement_shapes();
    let capture = client.wire().capture();
    let result = query(&client, sql);
    assert_eq!(answer(&result), expected);
    let sent: Vec<String> = (capture.messages().into_iter())
        .filter(|m| m.kind == WireMessageKind::QueryToSp)
        .map(|m| m.payload)
        .collect();
    assert_eq!(sent.len(), 2, "the statement, then the resend");
    assert!(sent[0].contains("\"template\":null"));
    assert!(!sent[1].contains("\"template\":null") && sent[1].contains("SDB_KEY_UPDATE"));
    assert_eq!(result.bytes_to_sp, sent[0].len() + sent[1].len());

    client.wire().clear();
    query(&client, sql);
    assert_eq!(client.wire().count_of_kind(WireMessageKind::QueryToSp), 1);
    assert_eq!(client.engine().statement_shapes(), 1);
}

/// The sessions of one server share the proxy and the engine, so a shape
/// one session admitted serves the other, also while both run it at once.
#[test]
fn sessions_of_one_server_share_shapes() {
    let mut server =
        sdb_server::SdbServer::new(sdb_server::ServerConfig::test_profile()).expect("server");
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, SEED) {
        server.stage_table(table).expect("stage");
    }
    server.upload_all().expect("upload");
    let server = Arc::new(server);
    let (first, second) = (server.connect(), server.connect());
    let sql = sdb_workload::query_by_id(1).expect("Q1").sql;
    let expected = answer(&server.execute(first, sql).expect("first"));
    server.execute(first, sql).expect("admitted");
    let shared = server.execute(second, sql).expect("second session");
    assert_eq!(shared.do_shape_hits, 1, "the other session's shape");
    assert_eq!(answer(&shared), expected);

    let threads = [first, second].map(|session| {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            (0..4)
                .map(|_| answer(&server.execute(session, sql).expect("concurrent")))
                .collect::<Vec<_>>()
        })
    });
    for thread in threads {
        for got in thread.join().expect("session thread") {
            assert_eq!(got, expected);
        }
    }
    let hits: usize = [first, second]
        .iter()
        .map(|&s| server.session_stats(s).expect("stats").do_shape_hits)
        .sum();
    assert_eq!(hits, 9, "every execution after the second replays");
    let prometheus = server.metrics().render_prometheus();
    assert!(
        prometheus.contains("sdb_do_shape_hits_total 9"),
        "{prometheus}"
    );
    assert!(
        !prometheus.contains("sdb_plan_cache_hits_total 0\n"),
        "{prometheus}"
    );
}

/// A batch's rows as text, numbers at one scale, in order.
fn canonical(batch: &RecordBatch) -> Vec<Vec<String>> {
    batch
        .rows()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Int(_) | Value::Decimal { .. } => (v.as_scaled_i128(6))
                        .map(|x| x.to_string())
                        .unwrap_or_else(|_| v.render()),
                    other => other.render(),
                })
                .collect()
        })
        .collect()
}

/// The lower-case names of the workload's columns that are public in every
/// table under the `Financial` profile.
fn public_columns() -> HashSet<String> {
    let (mut public, mut sensitive) = (HashSet::new(), HashSet::new());
    for table in sdb_workload::table_names() {
        let schema = sdb_workload::table_schema(table, SensitivityProfile::Financial);
        for column in schema.columns() {
            match column.sensitivity.is_sensitive() {
                true => sensitive.insert(column.name.clone()),
                false => public.insert(column.name.clone()),
            };
        }
    }
    public.retain(|c| !sensitive.contains(c));
    public
}

/// The column a lifted slot at `at` of `key` is compared with.
fn slot_column(key: &[Token], at: usize) -> String {
    let name = match (key.get(at.wrapping_sub(1)), key.get(at + 1)) {
        (Some(Token::Eq), _) => &key[at - 2],
        (_, Some(Token::Eq)) => {
            &key[at + 2 + 2 * usize::from(key.get(at + 3) == Some(&Token::Dot))]
        }
        _ => panic!("slot {at} of {key:?} is not in an equality"),
    };
    match name {
        Token::Ident(name) => name.to_ascii_lowercase(),
        other => panic!("slot {at} is compared with {other}"),
    }
}

/// `key` rendered as SQL with `literals` in its slots; with `wrapped`, each
/// lifted conjunct in parentheses, which parses to the same query but
/// lifts nothing.
fn render(key: &[Token], literals: &[Literal], wrapped: bool) -> String {
    let mut words: Vec<String> = (key.iter())
        .map(|token| match token {
            Token::Slot(i, _) => literals[*i].to_string(),
            Token::Eof => String::new(),
            other => other.to_string(),
        })
        .collect();
    if wrapped {
        for (at, token) in key.iter().enumerate().rev() {
            let Token::Slot(..) = token else { continue };
            let (start, end) = match key[at - 1] {
                Token::Eq if key[at - 3] == Token::Dot => (at - 4, at),
                Token::Eq => (at - 2, at),
                _ if key.get(at + 3) == Some(&Token::Dot) => (at, at + 4),
                _ => (at, at + 2),
            };
            words[end] = format!("{} )", words[end]);
            words[start] = format!("( {}", words[start]);
        }
    }
    words.join(" ")
}

/// A literal of `value`'s class spelling it.
fn literal_of(value: &Value) -> Literal {
    match value {
        Value::Int(v) => Literal::Int(*v),
        Value::Decimal { units, scale } => Literal::Decimal {
            units: *units,
            scale: *scale,
        },
        Value::Str(s) => Literal::Str(s.clone()),
        Value::Date(d) => Literal::Date(*d),
        other => panic!("no slot takes {other:?}"),
    }
}

/// Every workload statement and serving shape, three rounds, with each
/// lifted literal drawn afresh from its column's values (one draw in eight
/// a value the column does not hold): the SDB answer equals the plaintext
/// engine's, and the server SQL equals that of a twin client, in lockstep
/// under the same generator, whose statement wraps each lifted conjunct in
/// parentheses — the same query, rewritten with its literals in place as a
/// proxy without lifting does.
#[test]
fn lifted_literals_drawn_from_their_columns_answer_as_plaintext_and_rewrite_as_written() {
    let (lifting, twin) = (
        loaded(SdbConfig::test_profile()),
        loaded(SdbConfig::test_profile()),
    );
    let plain = SpEngine::new();
    let mut values: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::None, SEED) {
        let rows = table.scan();
        for (i, column) in table.schema().columns().iter().enumerate() {
            let mut seen = BTreeSet::new();
            let distinct = (rows.column(i).iter()).filter(|value| seen.insert(value.render()));
            let distinct = distinct.map(|value| value.into_owned()).collect();
            values.insert(column.name.clone(), distinct);
        }
        plain.load_table(table).expect("load");
    }
    let public = public_columns();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut lifted_slots = 0;
    for round in 0..3 {
        for (name, sql) in statements() {
            let tokens = Lexer::new(&sql).tokenize().expect("lex");
            let (key, written) = lift_literals(tokens, |c| public.contains(c));
            let drawn: Vec<Literal> = (key.iter().enumerate())
                .filter(|(_, token)| matches!(token, Token::Slot(..)))
                .map(|(at, _)| {
                    let column = slot_column(&key, at);
                    let cells = &values[&column];
                    match (rng.gen_range(0..8), &cells[0]) {
                        (0, Value::Int(_)) => Literal::Int(1 << 40),
                        (0, Value::Str(_)) => Literal::Str("no such value".into()),
                        _ => literal_of(&cells[rng.gen_range(0..cells.len())]),
                    }
                })
                .collect();
            assert_eq!(drawn.len(), written.len(), "{name}");
            lifted_slots += drawn.len();
            let (sql, wrapped) = (render(&key, &drawn, false), render(&key, &drawn, true));

            let rewritten = lifting.rewrite_only(&sql).expect("rewrite");
            let expected: Vec<String> = drawn.iter().map(ToString::to_string).collect();
            assert_eq!(rewritten.lifted(), expected, "{name}: {sql}");
            let reference = twin.rewrite_only(&wrapped).expect("twin rewrite");
            assert!(reference.lifted().is_empty(), "{wrapped}");
            assert_eq!(
                rewritten.server_sql, reference.server_sql,
                "{name} round {round}: {sql}"
            );
            let got = lifting.run_rewritten(&rewritten).expect("lifted run");
            twin.run_rewritten(&reference).expect("twin run");
            let want = plain.execute_sql(&sql).expect("plaintext");
            assert_eq!(
                canonical(&got.batch),
                canonical(&want.batch),
                "{name} round {round}: {sql}"
            );
        }
    }
    assert!(lifted_slots >= 3 * 9, "{lifted_slots} lifted slots");
}

/// A table with a public column of each slot class, and a sensitive one.
fn classes_client() -> SdbClient {
    let mut client = SdbClient::new(SdbConfig::test_profile()).expect("client");
    client
        .execute(
            "CREATE TABLE slots (id INT, rate DECIMAL(6,2), day DATE, tag VARCHAR(8), \
             bal INT SENSITIVE)",
        )
        .expect("create");
    client
        .execute(
            "INSERT INTO slots VALUES \
             (1, 0.05, DATE '1995-03-15', 'a', 100), (2, 0.07, DATE '1995-03-16', 'b', 250), \
             (3, 0.05, DATE '1995-03-16', 'b', 40), (4, 0.10, DATE '1996-01-01', 'c', 75)",
        )
        .expect("insert");
    client.upload_all().expect("upload");
    client
}

/// The operator lines of an `EXPLAIN ANALYZE`, up to their timings.
fn operators(explained: &str) -> Vec<String> {
    (explained.lines())
        .filter(|line| line.starts_with("  "))
        .map(|line| line.split(" time=").next().unwrap_or(line).to_string())
        .collect()
}

/// An INT, DECIMAL, DATE and VARCHAR key each lifts into a slot of its
/// class, and a statement served from both caches binds it to the physical
/// plan, estimates and answer the same statement gets sent as text.
#[test]
fn each_lifted_literal_class_binds_to_the_plan_and_answer_of_its_text() {
    let (warm_client, cold) = (classes_client(), classes_client());
    for (class, sql, written) in [
        ("INT", "SELECT id, bal FROM slots WHERE id = 2", "2"),
        (
            "DECIMAL",
            "SELECT id, bal FROM slots WHERE rate = 0.05",
            "0.05",
        ),
        (
            "DATE",
            "SELECT id, bal FROM slots WHERE DATE '1995-03-16' = day",
            "DATE '1995-03-16'",
        ),
        (
            "VARCHAR",
            "SELECT id, bal FROM slots WHERE tag = 'b' AND bal > 50",
            "'b'",
        ),
    ] {
        assert_eq!(
            warm_client.rewrite_only(sql).expect("rewrite").lifted(),
            [written],
            "{class}"
        );
        let result = warm(&warm_client, sql);
        let reference = query(&cold, &recased(sql, 0));
        assert_eq!(answer(&result), answer(&reference), "{class}");
        assert!(result.batch.num_rows() > 0, "{class}: the key is held");

        let shaped = warm_client.explain_analyze(sql).expect("shaped");
        assert!(shaped.contains("plan cache hits 1"), "{class}: {shaped}");
        let text = cold.explain_analyze(&recased(sql, 1)).expect("text");
        assert!(text.contains("plan cache hits 0"), "{class}: {text}");
        assert_eq!(operators(&shaped), operators(&text), "{class}");
    }
    let lookup = warm_client
        .explain_analyze("SELECT id, bal FROM slots WHERE id = 3")
        .expect("another key");
    assert!(lookup.contains("IndexScan(slots.id)"), "{lookup}");
    assert_eq!(warm_client.proxy().statement_shapes(), 4);
}

/// A literal compared with a sensitive column, a range bound, an `IN` list,
/// a `LIMIT` and a literal under an `OR` stay in the statement: each value
/// is a shape of its own.
#[test]
fn sensitive_comparisons_and_range_bounds_never_lift() {
    let client = classes_client();
    let mut ids = HashSet::new();
    for template in [
        "SELECT id FROM slots WHERE bal = {}",
        "SELECT id FROM slots WHERE bal > {}",
        "SELECT id, bal FROM slots WHERE id >= {}",
        "SELECT id, bal FROM slots WHERE id BETWEEN 1 AND {}",
        "SELECT id, bal FROM slots WHERE id IN (1, {})",
        "SELECT id, bal FROM slots WHERE id > 0 ORDER BY id LIMIT {}",
        "SELECT id, bal FROM slots WHERE id = {} OR tag = 'c'",
    ] {
        for value in [2, 3] {
            let sql = template.replace("{}", &value.to_string());
            for _ in 0..3 {
                let rewritten = client.rewrite_only(&sql).expect("rewrite");
                assert!(rewritten.lifted().is_empty(), "{sql}");
                client.run_rewritten(&rewritten).expect("run");
            }
            let rewritten = client.rewrite_only(&sql).expect("rewrite");
            assert!(rewritten.shape_hit, "{sql} is a shape of its own");
            ids.insert(rewritten.shape().expect("admitted").id());
        }
    }
    assert_eq!(client.proxy().statement_shapes(), 14);
    assert_eq!(
        ids.len(),
        13,
        "the LIMIT runs at the DO: its two shapes send one template"
    );
}

/// What a shaped statement carries in its lifted slots must be exactly one
/// literal of the class the shape's template was sent with; anything else
/// is `InvalidLiteral`, and the statement does not run.
#[test]
fn a_lifted_value_that_is_not_one_literal_of_its_class_is_a_typed_error() {
    let client = classes_client();
    let sql = "SELECT id, bal FROM slots WHERE id = 2";
    warm(&client, sql);
    let rewritten = client.rewrite_only(sql).expect("replay");
    let statement = rewritten.statement(false).expect("a shaped statement");
    assert_eq!(statement.lifted, ["2"]);
    let opts = QueryOptions::default();
    let engine = client.engine();
    let mut good = statement.clone();
    good.lifted = vec!["3".into()];
    assert_eq!(
        engine
            .execute_shaped(&good, &opts)
            .expect("a key")
            .batch
            .num_rows(),
        1
    );
    for lifted in [
        vec!["2 OR 1 = 1"],
        vec!["'2'"],
        vec!["2.0"],
        vec!["DATE '1995-03-15'"],
        vec!["-2"],
        vec![""],
        vec!["id"],
        vec!["NULL"],
        vec!["$0"],
        vec!["2; DROP TABLE slots"],
        vec![],
        vec!["2", "3"],
    ] {
        let mut bad = statement.clone();
        bad.lifted = lifted.iter().map(|v| v.to_string()).collect();
        let failed = engine.execute_shaped(&bad, &opts);
        assert!(
            matches!(failed, Err(EngineError::InvalidLiteral { .. })),
            "{lifted:?}: {failed:?}"
        );
    }
    assert_eq!(
        engine
            .execute_shaped(&good, &opts)
            .expect("still served")
            .batch
            .num_rows(),
        1
    );
}

/// 200 orders lookups on distinct keys through one server session fold
/// into one shape: the DO replays from the third and the SP serves the plan
/// from the fifth (198 and 196 hits, the admission rules unchanged), and
/// every answer is the plaintext engine's.
#[test]
fn lookups_on_distinct_keys_share_one_shape_at_both_ends() {
    let scale = ScaleFactor(0.14);
    let mut server =
        sdb_server::SdbServer::new(sdb_server::ServerConfig::test_profile()).expect("server");
    let orders = generate_table("orders", scale, SensitivityProfile::Financial, SEED);
    assert!(orders.num_rows() >= 200, "{} orders", orders.num_rows());
    server.stage_table(orders).expect("stage");
    server.upload_all().expect("upload");
    let plain = SpEngine::new();
    (plain.load_table(generate_table(
        "orders",
        scale,
        SensitivityProfile::None,
        SEED,
    )))
    .expect("load");
    let session = server.connect();
    let mut plan_cache_hits = 0;
    for key in 1..=200 {
        let sql = format!(
            "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = {key}"
        );
        let result = server.execute(session, &sql).expect("lookup");
        let want = plain.execute_sql(&sql).expect("plaintext");
        assert_eq!(canonical(&result.batch), canonical(&want.batch), "{sql}");
        assert_eq!(result.batch.num_rows(), 1, "{sql}");
        plan_cache_hits += result.server_stats.plan_cache_hits;
    }
    let stats = server.session_stats(session).expect("stats");
    assert_eq!(stats.do_shape_hits, 198);
    assert_eq!(plan_cache_hits, 196);
    assert_eq!(server.client().proxy().statement_shapes(), 1);
    assert_eq!(server.client().engine().statement_shapes(), 1);
}
