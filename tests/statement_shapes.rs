//! Statement shapes across the trust boundary.
//!
//! A proxy that has rewritten an application SQL text twice keeps its shape
//! and replays it; an SP that has been sent a shape's template keeps it and
//! reuses its optimised plan. Whatever the two caches hold, every statement
//! must rewrite to the server SQL a proxy without the shape produces for the
//! same query counter, and answer with the same counts; only the work of
//! parsing, rewriting and planning may go.

use std::sync::Arc;

use sdb::wire::WireMessageKind;
use sdb::{MemoryAuditor, QueryResult, SdbClient, SdbConfig};
use sdb_engine::QueryOptions;
use sdb_proxy::ResultPlan;
use sdb_workload::{generate_all, ScaleFactor, SensitivityProfile};

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

/// Every workload statement and serving shape, five times on one client
/// and once each, as a text its proxy has never seen, on a twin client:
/// the twin appends `i + 1` spaces to the statement, so it rewrites cold
/// with the same query counter, sends the SQL as text and runs the same SP
/// work in the same order. Both profiles.
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
                let reference = run(&cold, &format!("{sql}{}", " ".repeat(i + 1)));
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
