//! Experiment E4 (demo step 3): the adversarial view of the service provider.
//!
//! The demo lets an attendee take a memory dump of the SP machine while queries run
//! and observe that sensitive data never appears in the clear. These tests automate
//! that check over the TPC-H workload and additionally exercise the paper's threat
//! discussion (§2.3): what an attacker with DB knowledge sees at rest, and what an
//! attacker with QR knowledge sees on the wire, during a full query workload.

use std::sync::Arc;

use num_bigint::BigUint;
use sdb::{MemoryAuditor, SdbClient, SdbConfig, WireCapture, WireMessageKind};
use sdb_crypto::wire;
use sdb_engine::operators::drain_operator;
use sdb_engine::{ExecConfig, ExecContext, PhysicalPlanner, SdbOracle, UdfRegistry};
use sdb_sql::PlanBuilder;
use sdb_storage::{Catalog, RecordBatch, Table, Value};
use sdb_workload::{generate_all, ScaleFactor, SensitivityProfile};

/// A number in both renderings a scan must search: its decimal digits (SQL
/// text, the SP's arithmetic state) and the quoted base64 text a share takes
/// on the wire (`sdb_crypto::wire`).
fn both_renderings(value: &BigUint) -> [String; 2] {
    [
        value.to_string(),
        format!("\"{}\"", wire::share::to_text(value)),
    ]
}

/// The DO's secrets: `φ(n)`, `g` and every stored key's `m` and `x`.
fn do_secrets(client: &SdbClient) -> Vec<BigUint> {
    let keystore = client.proxy().keystore();
    let system = keystore.system();
    let mut secrets = vec![system.phi().clone(), system.g().clone()];
    for table in keystore.table_names() {
        let keys = keystore.table_keys(&table).unwrap();
        for key in keys.columns.values().chain([&keys.aux]) {
            secrets.push(key.m().clone());
            secrets.push(key.x().clone());
        }
    }
    secrets
}

/// Asserts that no DO secret, in either rendering, crossed the client's
/// wire while `capture` was open.
fn wire_holds_no_do_secret(client: &SdbClient, capture: &WireCapture) {
    let wire = capture.concatenated_payloads();
    assert!(!wire.is_empty());
    for secret in do_secrets(client) {
        for text in both_renderings(&secret) {
            assert!(
                !wire.contains(text.as_str()),
                "a DO secret crossed the wire"
            );
        }
    }
}

/// A client with the tiny Financial workload uploaded, an auditor holding
/// the sensitive values it staged, and a capture of its wire from the
/// upload on.
struct Loaded {
    client: SdbClient,
    auditor: MemoryAuditor,
    capture: WireCapture,
}

fn loaded() -> Loaded {
    let mut client = SdbClient::new(SdbConfig::test_profile()).expect("client");
    let mut auditor = MemoryAuditor::new();
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, 0xa0d17) {
        auditor.register_table(&table);
        client.stage_table(table).expect("stage");
    }
    let capture = client.wire().capture();
    client.upload_all().expect("upload");
    Loaded {
        client,
        auditor,
        capture,
    }
}

/// An auditor holding `values` as sensitive needles.
fn auditor_of(values: &[Value]) -> MemoryAuditor {
    let mut auditor = MemoryAuditor::new();
    for value in values {
        auditor.register_value(value);
    }
    auditor
}

#[test]
fn sp_storage_and_wire_traffic_never_contain_sensitive_plaintext() {
    let Loaded {
        client,
        auditor,
        capture,
    } = loaded();

    // Run a representative mix of queries so intermediate results, oracle traffic
    // and rewritten SQL all cross the (recorded) wire.
    for id in AUDIT_MIX {
        let template = sdb_workload::query_by_id(id).expect("template");
        client
            .query(template.sql)
            .unwrap_or_else(|e| panic!("Q{id} failed: {e}"));
    }

    let report = auditor.audit_client(&client, &capture);
    assert!(
        report.needles_checked > 30,
        "expected many sensitive needles"
    );
    assert!(report.haystacks_scanned >= 2);
    assert!(
        report.is_clean(),
        "sensitive plaintext observed at the SP: {:?}",
        report.findings
    );
}

/// The query mix the storage/wire audit runs.
const AUDIT_MIX: [u8; 7] = [1, 3, 6, 10, 14, 18, 22];

/// A server with the tiny Financial workload uploaded, and an auditor
/// holding the sensitive values it staged.
fn loaded_server(config: sdb_server::ServerConfig) -> (sdb_server::SdbServer, MemoryAuditor) {
    let mut server = sdb_server::SdbServer::new(config).expect("server");
    let mut auditor = MemoryAuditor::new();
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, 0xa0d17) {
        auditor.register_table(&table);
        server.stage_table(table).expect("stage");
    }
    server.upload_all().expect("upload");
    (server, auditor)
}

/// Every DO secret of `client`, in both renderings.
fn rendered_secrets(client: &SdbClient) -> Vec<String> {
    (do_secrets(client).iter())
        .flat_map(both_renderings)
        .collect()
}

/// The first `l_extendedprice` the tiny Financial workload stages: a
/// sensitive figure its auditors hold as a needle.
fn a_sensitive_figure() -> Value {
    let tables = generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, 0xa0d17);
    let lineitem = tables
        .iter()
        .find(|t| t.name() == "lineitem")
        .expect("lineitem");
    let prices = lineitem.scan();
    let figure = prices.column_by_name("l_extendedprice").unwrap().value(0);
    figure.into_owned()
}

/// What `text` reveals: the sensitive needles and the DO-secret renderings
/// found in it.
fn findings_in(text: &str, auditor: &MemoryAuditor, secrets: &[String]) -> Vec<String> {
    let report = auditor.audit([("surface", text)]);
    let mut findings: Vec<String> = report.findings.into_iter().map(|f| f.needle).collect();
    for secret in secrets.iter().filter(|s| text.contains(s.as_str())) {
        findings.push(format!("a DO secret: {secret}"));
    }
    findings
}

/// What a slow-query record's `stats` and `trace` reveal.
fn slow_record_findings(
    record: &sdb_server::SlowQueryRecord,
    auditor: &MemoryAuditor,
    secrets: &[String],
) -> Vec<String> {
    let stats = serde_json::to_string(&record.stats).expect("stats");
    let trace = serde_json::to_string(&record.trace).expect("trace");
    findings_in(&format!("{stats}\n{trace}"), auditor, secrets)
}

#[test]
fn the_slow_query_ring_holds_no_sensitive_plaintext_or_do_secret() {
    // Every query of the audit mix lands in the ring (threshold 0) with its
    // full trace. A record's `sql` is left out of the scan: it is the
    // application's own text, submitted at the DO, where the ring lives.
    let config = sdb_server::ServerConfig::test_profile()
        .with_slow_query_ms(0)
        .with_tracing(true);
    let (server, auditor) = loaded_server(config);
    let session = server.connect();
    for id in AUDIT_MIX {
        let sql = sdb_workload::query_by_id(id).expect("template").sql;
        server
            .execute(session, sql)
            .unwrap_or_else(|e| panic!("Q{id} failed: {e}"));
    }
    let secrets = rendered_secrets(server.client());
    let records = server.slow_queries();
    assert_eq!(records.len(), AUDIT_MIX.len());
    for record in &records {
        assert!(record.trace.is_some(), "tracing was on");
        let findings = slow_record_findings(record, &auditor, &secrets);
        assert!(findings.is_empty(), "{}: {findings:?}", record.sql);
    }

    // Positive control: a sensitive figure and a DO secret planted in a
    // span's name are both found.
    let mut planted = records[0].clone();
    let figure = a_sensitive_figure().render();
    let trace = planted.trace.as_mut().expect("traced");
    trace.spans[0].name = format!("Filter({figure} {})", secrets[0]);
    let findings = slow_record_findings(&planted, &auditor, &secrets);
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn the_prometheus_text_and_the_sp_statement_shapes_hold_no_sensitive_plaintext_or_do_secret() {
    // Five rounds of the audit mix and of an orders lookup on a fresh key
    // each round: the DO replays each statement by shape from its third
    // rewrite, and the SP caches its plan from the fourth execution, so the
    // shape cache holds every template and plan. Q3's and Q10's public
    // equalities and the lookup's key are lifted out of their shapes.
    let (server, auditor) = loaded_server(sdb_server::ServerConfig::test_profile());
    let session = server.connect();
    for round in 0..5 {
        for id in AUDIT_MIX {
            let sql = sdb_workload::query_by_id(id).expect("template").sql;
            server
                .execute(session, sql)
                .unwrap_or_else(|e| panic!("Q{id} failed: {e}"));
        }
        let lookup = format!(
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey = {}",
            round + 1
        );
        server.execute(session, &lookup).expect("lookup");
    }
    let engine = server.client().engine();
    assert_eq!(engine.statement_shapes(), AUDIT_MIX.len() + 1);
    let shapes = engine.statement_shape_dump();
    assert!(shapes.len() > AUDIT_MIX.len(), "plans are cached too");
    let shapes = shapes.join("\n");
    let prometheus = server.metrics_snapshot().render_prometheus();
    let secrets = rendered_secrets(server.client());
    for (name, text) in [("prometheus", &prometheus), ("statement shapes", &shapes)] {
        let findings = findings_in(text, &auditor, &secrets);
        assert!(findings.is_empty(), "{name}: {findings:?}");
    }

    // Positive control for the exposition: a sensitive figure and a DO
    // secret planted in a help line are both found.
    let figure = a_sensitive_figure();
    let planted = format!(
        "{prometheus}# HELP sdb_planted {} {}\n",
        figure.render(),
        secrets[0]
    );
    let findings = findings_in(&planted, &auditor, &secrets);
    assert_eq!(findings.len(), 2, "{findings:?}");

    // Positive control for the shape cache: a public key bounded by a
    // literal that spells a sensitive figure's units reaches the SP as
    // written, and from its third run the template holds it (a range bound
    // is never lifted). The same literal as a lifted lookup key stays out of
    // the cache.
    let Value::Decimal { units, .. } = figure else {
        panic!("l_extendedprice is a decimal: {figure:?}");
    };
    let lifted = format!("SELECT o_orderkey FROM orders WHERE o_orderkey = {units}");
    for _ in 0..5 {
        server.execute(session, &lifted).expect("lifted probe");
    }
    let shapes = engine.statement_shape_dump().join("\n");
    assert!(
        findings_in(&shapes, &auditor, &secrets).is_empty(),
        "{shapes}"
    );
    let probe = format!("SELECT o_orderkey FROM orders WHERE o_orderkey >= {units}");
    for _ in 0..3 {
        server.execute(session, &probe).expect("probe");
    }
    let shapes = engine.statement_shape_dump().join("\n");
    let findings = findings_in(&shapes, &auditor, &secrets);
    assert_eq!(findings, [units.to_string()], "{shapes}");
    let planted = format!("{shapes}\n{}", secrets[0]);
    assert_eq!(findings_in(&planted, &auditor, &secrets).len(), 2);
}

/// A default server's wire log counts what its queries sent and received,
/// exactly, and keeps none of it: a capture opened afterwards is empty, and
/// the log's own state does not grow with its traffic.
#[test]
fn a_serving_wire_log_keeps_counts_not_payloads() {
    let (server, _) = loaded_server(sdb_server::ServerConfig::test_profile());
    let session = server.connect();
    let (mut to_sp, mut from_sp) = (0, 0);
    const QUERIES: usize = 210;
    for i in 0..QUERIES {
        let sql = match i % 3 {
            0 => format!("SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey = {i}"),
            1 => format!("SELECT SUM(o_totalprice) AS total FROM orders WHERE o_custkey = {i}"),
            _ => "SELECT c_custkey FROM customer WHERE c_acctbal > 1000.00 \
                  ORDER BY c_custkey LIMIT 5"
                .to_string(),
        };
        let result = server.execute(session, &sql).expect("query");
        to_sp += result.bytes_to_sp;
        from_sp += result.bytes_from_sp;
    }
    let wire = server.wire();
    assert_eq!(wire.count_of_kind(WireMessageKind::ResultToProxy), QUERIES);
    assert_eq!(wire.bytes_of_kind(WireMessageKind::QueryToSp), to_sp);
    assert_eq!(wire.bytes_of_kind(WireMessageKind::ResultToProxy), from_sp);
    assert!(wire.count_of_kind(WireMessageKind::OracleRequest) > 0);
    let capture = wire.capture();
    assert!(capture.messages().is_empty());
    let state = format!("{wire:?}");
    assert!(state.len() < 1024, "{state}");
}

#[test]
fn encrypted_values_are_not_deterministic_across_rows() {
    // DB-knowledge attacker: equal plaintexts in different rows must not produce
    // equal ciphertexts (row ids enter item-key derivation), so frequency analysis
    // over the stored shares yields nothing.
    let mut client = SdbClient::new(SdbConfig::test_profile()).expect("client");
    client
        .execute("CREATE TABLE balances (id INT, amount INT SENSITIVE)")
        .unwrap();
    client
        .execute("INSERT INTO balances VALUES (1, 777777), (2, 777777), (3, 777777)")
        .unwrap();
    client.upload_all().unwrap();

    let handle = client.engine().catalog().table("balances").unwrap();
    let table = handle.read();
    let batch = table.scan();
    let column = batch.column_by_name("amount").unwrap();
    let mut ciphertexts = std::collections::HashSet::new();
    for i in 0..3 {
        match &*column.value(i) {
            Value::Encrypted(e) => ciphertexts.insert(e.to_string()),
            other => panic!("expected encrypted share, found {other:?}"),
        };
    }
    assert_eq!(
        ciphertexts.len(),
        3,
        "equal plaintexts must encrypt differently"
    );
}

#[test]
fn cpa_style_insert_does_not_reveal_other_rows() {
    // CPA-knowledge attacker: she can insert chosen plaintexts (demo: open new bank
    // accounts) and observe the new ciphertexts. Because every row has a fresh
    // secret row id, knowing (plaintext, ciphertext) pairs for her rows does not
    // let her match or recover other rows' values — checked here by confirming that
    // her known ciphertexts never repeat among the pre-existing rows and that the
    // audit stays clean after her inserts flow through the normal path.
    let mut client = SdbClient::new(SdbConfig::test_profile()).expect("client");
    let auditor = auditor_of(&[Value::Int(123_456), Value::Int(654_321)]);
    let capture = client.wire().capture();
    client
        .execute("CREATE TABLE accounts (id INT, balance INT SENSITIVE)")
        .unwrap();
    client
        .execute("INSERT INTO accounts VALUES (1, 123456), (2, 654321)")
        .unwrap();
    client.upload_all().unwrap();

    // Attacker-chosen plaintext equal to an existing secret value.
    client
        .execute("INSERT INTO accounts VALUES (99, 123456)")
        .unwrap();

    let handle = client.engine().catalog().table("accounts").unwrap();
    let table = handle.read();
    let batch = table.scan();
    let column = batch.column_by_name("balance").unwrap();
    let attacker_row = batch
        .column_by_name("id")
        .unwrap()
        .iter()
        .position(|v| *v == Value::Int(99))
        .expect("attacker row present");
    let attacker_ct = column.value(attacker_row).as_encrypted().unwrap().clone();
    for i in 0..batch.num_rows() {
        if i != attacker_row {
            assert_ne!(
                column.value(i).as_encrypted().unwrap(),
                &attacker_ct,
                "an attacker-chosen plaintext must not reproduce another row's ciphertext"
            );
        }
    }
    assert!(auditor.audit_client(&client, &capture).is_clean());
}

#[test]
fn query_results_decrypt_only_at_the_proxy() {
    let Loaded {
        client, capture, ..
    } = loaded();
    let rewritten = client
        .rewrite_only("SELECT SUM(l_extendedprice) AS s FROM lineitem")
        .unwrap();
    let result = client.run_rewritten(&rewritten).unwrap();
    // What left the SP was encrypted: the recorded result payload contains the
    // share, not the decrypted sum.
    let decrypted_sum = match &result.rows()[0][0] {
        Value::Decimal { units, .. } => units.to_string(),
        other => other.render(),
    };
    let wire = capture.concatenated_payloads();
    assert!(
        !wire.contains(&decrypted_sum),
        "the plaintext aggregate leaked onto the wire"
    );
}

#[test]
fn a_plaintext_units_value_sent_as_a_share_is_found() {
    // Positive control for the wire scan: a sensitive figure that crosses
    // the wire where a share should — as its own bytes in an unencrypted
    // `Value::Encrypted` — is reported, although its decimal digits never
    // appear there.
    let mut client = SdbClient::new(SdbConfig::test_profile()).expect("client");
    let auditor = auditor_of(&[
        Value::Decimal {
            units: 432_109,
            scale: 2,
        },
        Value::Decimal {
            units: 9_999_999,
            scale: 2,
        },
    ]);
    let capture = client.wire().capture();
    client
        .execute("CREATE TABLE accounts (id INT, balance DECIMAL(12,2) SENSITIVE)")
        .unwrap();
    client
        .execute("INSERT INTO accounts VALUES (1, 4321.09), (2, 99999.99)")
        .unwrap();
    client.upload_all().unwrap();
    assert!(auditor.audit_client(&client, &capture).is_clean());

    let planted = vec![vec![
        Value::Int(1),
        Value::Encrypted(BigUint::from(432_109u32)),
    ]];
    let payload = serde_json::to_string(&planted).unwrap();
    assert!(!payload.contains("432109") && !payload.contains("4321.09"));
    client
        .wire()
        .record(WireMessageKind::ResultToProxy, payload);
    let report = auditor.audit_client(&client, &capture);
    let [_, quoted] = both_renderings(&BigUint::from(432_109u32));
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].location, "wire-traffic");
    assert_eq!(report.findings[0].needle, quoted);
}

/// A client with `accounts (id INT, balance INT SENSITIVE)` uploaded and
/// two rows inserted after the upload; the auditor holds the three balances
/// and the capture opens before the upload.
fn client_with_inserts() -> Loaded {
    let mut client = SdbClient::new(SdbConfig::test_profile()).expect("client");
    let auditor = auditor_of(&[
        Value::Int(123_456),
        Value::Int(654_321),
        Value::Int(777_777),
    ]);
    let capture = client.wire().capture();
    client
        .execute("CREATE TABLE accounts (id INT, balance INT SENSITIVE)")
        .unwrap();
    client
        .execute("INSERT INTO accounts VALUES (1, 123456)")
        .unwrap();
    client.upload_all().unwrap();
    client
        .execute("INSERT INTO accounts VALUES (2, 654321), (3, 777777)")
        .unwrap();
    Loaded {
        client,
        auditor,
        capture,
    }
}

#[test]
fn insert_rows_reach_the_wire_ledger_as_the_sp_appended_them() {
    let Loaded {
        client,
        auditor,
        capture,
    } = client_with_inserts();
    assert_eq!(client.wire().count_of_kind(WireMessageKind::Upload), 2);
    let uploads: Vec<String> = (capture.messages().into_iter())
        .filter(|m| m.kind == WireMessageKind::Upload)
        .map(|m| m.payload)
        .collect();
    assert_eq!(uploads.len(), 2, "the table upload, then the INSERT");
    let sent: RecordBatch = serde_json::from_str(&uploads[1]).unwrap();
    let handle = client.engine().catalog().table("accounts").unwrap();
    let stored = handle.read().scan();
    assert_eq!(sent, stored.slice(1, 2).unwrap());
    assert_eq!(
        client.wire().bytes_of_kind(WireMessageKind::Upload),
        uploads.iter().map(String::len).sum::<usize>()
    );
    assert!(auditor.audit_client(&client, &capture).is_clean());
}

#[test]
fn a_plaintext_planted_in_insert_rows_is_found() {
    // Positive control for the INSERT ledger: rows that carry a sensitive
    // figure in the clear are typed rows like any INSERT's, and the audit
    // renders and scans them.
    let Loaded {
        client,
        auditor,
        capture,
    } = client_with_inserts();
    let handle = client.engine().catalog().table("accounts").unwrap();
    let schema = handle.read().schema().clone();
    let mut planted: Vec<Value> = vec![Value::Null; schema.len()];
    planted[schema.index_of("balance").unwrap()] = Value::Int(654_321);
    let mut table = Table::new("accounts", schema.clone());
    let rows = RecordBatch::from_rows_unchecked(schema, [planted]);
    table.append_batch(&rows).unwrap();
    let table = Catalog::new().register_table(table).unwrap();
    client
        .wire()
        .record_rows(WireMessageKind::Upload, table, 0..1);
    let report = auditor.audit_client(&client, &capture);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].location, "wire-traffic");
    assert_eq!(report.findings[0].needle, "654321");
}

#[test]
fn sp_side_arithmetic_state_holds_only_constants_the_sp_was_sent() {
    // The SP binds each SDB_* call site's constants once per query and keeps
    // the derived arithmetic state (parsed numbers, the Montgomery context of
    // n, p's windows) while the query runs. Run the SP half of a query the way
    // the engine does, then look at what that state remembers: only n, p and
    // q, which crossed the wire in the clear inside the rewritten SQL.
    let Loaded {
        client,
        auditor,
        capture,
    } = loaded();
    let rewritten = client
        .rewrite_only(
            "SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS charge, \
             SUM(l_extendedprice + l_quantity) AS mixed FROM lineitem",
        )
        .unwrap();

    let registry = UdfRegistry::with_sdb_udfs();
    let oracle: Arc<dyn SdbOracle> = client.proxy().oracle(&rewritten);
    let ctx = Arc::new(ExecContext::new(
        client.engine().catalog(),
        &registry,
        Some(oracle),
        ExecConfig::default(),
        None,
        None,
    ));
    let plan = PlanBuilder::build(&rewritten.server_query()).unwrap();
    let mut root = PhysicalPlanner::new(Arc::clone(&ctx)).plan(&plan).unwrap();
    let sp_answer = drain_operator(root.as_mut()).unwrap();
    assert_eq!(sp_answer.num_rows(), 1);

    let remembered = ctx.udf_sites().remembered_constants();
    let system = client.proxy().keystore().system();
    assert!(
        remembered.contains(&system.n().to_string()),
        "the query multiplies shares, so some site bound n: {remembered:?}"
    );
    assert!(
        remembered.len() > 3,
        "key updates bind p and q as well: {remembered:?}"
    );
    for constant in &remembered {
        assert!(
            rewritten.server_sql.contains(constant.as_str()),
            "the SP remembers {constant}, which the rewritten SQL never sent it"
        );
    }

    // None of the DO's secrets is among them, nor on the wire.
    let secrets: Vec<String> = do_secrets(&client)
        .iter()
        .map(ToString::to_string)
        .collect();
    for secret in &secrets {
        assert!(
            !remembered.contains(secret),
            "a DO secret reached the SP-side arithmetic state"
        );
    }
    wire_holds_no_do_secret(&client, &capture);
    // And no sensitive plaintext: the same needles as the storage/wire audit.
    let haystack = remembered.join("\n");
    assert!(auditor
        .audit([("sp-arithmetic-state", haystack.as_str())])
        .is_clean());
}

#[test]
fn key_update_sets_remember_only_what_the_sp_was_sent_and_count_in_integers() {
    // A key-update set keeps the texts of `n`, `p` and `q` it bound and, per
    // worker, the powers `S_e^p` of the block of rows it raised last:
    // functions of stored shares and of constants the rewritten SQL carries
    // in the clear. Run the SP half of rewritten Q1 and look at all of it,
    // the powers as the canonical residues they stand for.
    let Loaded {
        client,
        auditor,
        capture,
    } = loaded();
    let q1 = sdb_workload::query_by_id(1).expect("template").sql;
    let rewritten = client.rewrite_only(q1).unwrap();
    let registry = UdfRegistry::with_sdb_udfs();
    let oracle: Arc<dyn SdbOracle> = client.proxy().oracle(&rewritten);
    let ctx = Arc::new(ExecContext::new(
        client.engine().catalog(),
        &registry,
        Some(oracle),
        ExecConfig::default(),
        None,
        None,
    ));
    let plan = PlanBuilder::build(&rewritten.server_query()).unwrap();
    let mut root = PhysicalPlanner::new(Arc::clone(&ctx)).plan(&plan).unwrap();
    drain_operator(root.as_mut()).unwrap();
    let stats = ctx.stats();
    assert!(stats.key_update_calls > 0 && stats.key_update_pows < stats.key_update_calls);

    let constants = ctx.udf_sites().remembered_constants();
    // The set binds `n` and the `p` and `q` of Q1's seven distinct key
    // updates; the interpreter's call sites and the share kernels may keep
    // copies of `n` (and the interpreter's of `p` and `q`) besides.
    assert!(
        constants.len() > 2 * 7,
        "n, and the p and q of seven updates"
    );
    for constant in &constants {
        assert!(
            rewritten.server_sql.contains(constant.as_str()),
            "a set remembers {constant}, which the rewritten SQL never sent"
        );
    }
    let powers: Vec<String> = (ctx.udf_sites().remembered_powers().iter())
        .map(ToString::to_string)
        .collect();
    // Q1's set has seven distinct exponents: more powers than that are the
    // rows of a lockstep block, every one of which is scanned below.
    assert!(powers.len() > 7, "the last block's rows are still held");

    let secrets: Vec<String> = do_secrets(&client)
        .iter()
        .map(ToString::to_string)
        .collect();
    for secret in &secrets {
        assert!(
            !constants.contains(secret) && !powers.contains(secret),
            "a DO secret reached a key-update set"
        );
    }
    let haystack = [constants.join("\n"), powers.join("\n")].join("\n");
    assert!(auditor
        .audit([("key-update-sets", haystack.as_str())])
        .is_clean());

    // What the sets add to EXPLAIN ANALYZE and the exported trace is four
    // integers per operator.
    let opts = sdb_engine::QueryOptions::default().with_tracing(true);
    let traced = client.query_with(q1, &opts).expect("traced query");
    let json = traced.trace.expect("tracing was on").to_json();
    for field in [
        "\"key_update_calls\": ",
        "\"key_update_pows\": ",
        "\"key_update_derived\": ",
        "\"key_update_memo_hits\": ",
    ] {
        let occurrences: Vec<&str> = json.split(field).skip(1).collect();
        assert!(!occurrences.is_empty(), "the trace exports {field}");
        for rest in occurrences {
            let value = rest.split([',', '\n']).next().unwrap_or("");
            assert!(value.trim().parse::<usize>().is_ok(), "{field}{value}");
        }
    }
    assert!(auditor.audit([("trace-json", json.as_str())]).is_clean());
    wire_holds_no_do_secret(&client, &capture);
}

#[test]
fn the_power_memo_holds_only_powers_of_stored_shares() {
    // The engine's power memo keeps, per admitted exponent `p` (sent in the
    // clear), stored shares and their `S_e^p`: run a query mix three times so
    // it fills and serves, then scan every residue it holds, as the
    // canonical value it stands for, for DO secrets and sensitive plaintext.
    let Loaded {
        client,
        auditor,
        capture,
    } = loaded();
    let mut served = 0;
    for _ in 0..3 {
        for id in [1u8, 3, 6, 10, 14, 18, 22] {
            let template = sdb_workload::query_by_id(id).expect("template");
            let result = client
                .query(template.sql)
                .unwrap_or_else(|e| panic!("Q{id} failed: {e}"));
            served += result.server_stats.key_update_memo_hits;
        }
    }
    assert!(served > 0, "the third round is served from the memo");
    let memo = client.engine().power_memo();
    assert!(memo.bytes() > 0 && memo.bytes() <= client.engine().catalog().approx_size_bytes());
    let residues: Vec<String> = memo.residues().iter().map(ToString::to_string).collect();
    assert!(!residues.is_empty());

    let secrets: Vec<String> = do_secrets(&client)
        .iter()
        .map(ToString::to_string)
        .collect();
    for secret in &secrets {
        assert!(
            !residues.contains(secret),
            "a DO secret reached the power memo"
        );
    }
    wire_holds_no_do_secret(&client, &capture);
    assert!(auditor
        .audit([("power-memo", residues.join("\n").as_str())])
        .is_clean());
    // Its Debug output is two counts.
    let debug = format!("{memo:?}");
    assert!(debug.starts_with("PowerMemo { exponents: "), "{debug}");
}

#[test]
fn keystore_json_holds_no_derived_tables_and_a_restored_store_rebuilds_them() {
    // The fixed-base table of g and the Montgomery context are DO-side derived
    // state: persisting them would multiply the key store's size by orders of
    // magnitude and write a second copy of a secret to disk.
    let client = loaded().client;
    let keystore = client.proxy().keystore();
    let json = serde_json::to_string(keystore).unwrap();
    assert_eq!(json.len(), keystore.approx_size_bytes());
    let system_json = serde_json::to_string(keystore.system()).unwrap();
    assert!(json.contains(&system_json));
    for field in [
        "\"rho1\":",
        "\"rho2\":",
        "\"n\":",
        "\"phi\":",
        "\"g\":",
        "\"config\":",
    ] {
        assert_eq!(system_json.matches(field).count(), 1, "{field}");
    }
    assert_eq!(
        system_json.matches("\":").count(),
        6 + 3,
        "six fields plus KeyConfig's three: {system_json}"
    );
    assert!(!format!("{:?}", keystore.system()).contains("table: ["));

    let restored: sdb_proxy::KeyStore = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string(&restored).unwrap(), json);
    let column_key = restored.column_key("lineitem", "l_extendedprice").unwrap();
    let row_id = num_bigint::BigUint::from(0x5eed_1234_u64);
    assert_eq!(
        sdb_crypto::gen_item_key(restored.system(), column_key, &row_id),
        sdb_crypto::gen_item_key(keystore.system(), column_key, &row_id)
    );
}

#[test]
fn the_key_store_holds_no_generator_seed() {
    // A fixture seed only keys the proxy's generator: the key store's JSON
    // holds the keys drawn from it and nothing to regenerate a stream with.
    let client = loaded().client;
    let json = serde_json::to_string(client.proxy().keystore()).unwrap();
    let serde::content::Content::Map(fields) = serde_json::content_from_str(&json).unwrap() else {
        panic!("the key store is a JSON object: {json}");
    };
    let mut names: Vec<String> = (fields.into_iter())
        .map(|(name, _)| match name {
            serde::content::Content::Str(name) => name,
            other => panic!("a field name: {other:?}"),
        })
        .collect();
    names.sort_unstable();
    assert_eq!(
        names,
        ["payload_prf", "row_id_prf", "system", "tables", "tag_key"]
    );
}

#[test]
fn scan_pruning_reports_column_counts_only() {
    // The pruning surface — `cols=read/total` on EXPLAIN ANALYZE scan lines,
    // `scan_columns_*` in the exported trace — carries two integers per scan:
    // no column name beyond what the rewritten SQL already shows, no value.
    let Loaded {
        client, auditor, ..
    } = loaded();
    for id in [1u8, 3, 6] {
        let template = sdb_workload::query_by_id(id).expect("template");
        let analyzed = client
            .explain_analyze(template.sql)
            .expect("explain analyze");
        let plan: Vec<&str> = analyzed.lines().skip(1).collect();
        let scans: Vec<&&str> = plan.iter().filter(|l| l.contains("TableScan")).collect();
        assert!(!scans.is_empty(), "Q{id} scans a table:\n{analyzed}");
        for line in scans {
            let cols = line.split("cols=").nth(1).expect("scan lines carry cols=");
            let cols = cols.split_whitespace().next().expect("a token follows");
            let (read, total) = cols.split_once('/').expect("read/total");
            let (read, total): (usize, usize) = (read.parse().unwrap(), total.parse().unwrap());
            assert!(0 < read && read <= total, "Q{id}: {line}");
        }
        assert!(
            auditor
                .audit([("explain-analyze", plan.join("\n").as_str())])
                .is_clean(),
            "Q{id}: sensitive plaintext in the analyzed plan"
        );

        let opts = sdb_engine::QueryOptions::default().with_tracing(true);
        let traced = client
            .query_with(template.sql, &opts)
            .expect("traced query");
        let json = traced.trace.expect("tracing was on").to_json();
        for field in ["\"scan_columns_read\": ", "\"scan_columns_total\": "] {
            let occurrences: Vec<&str> = json.split(field).skip(1).collect();
            assert!(!occurrences.is_empty(), "the trace exports {field}");
            for rest in occurrences {
                let value = rest.split([',', '\n']).next().unwrap_or("");
                assert!(value.trim().parse::<usize>().is_ok(), "{field}{value}");
            }
        }
        assert!(auditor.audit([("trace-json", json.as_str())]).is_clean());
    }
}

#[test]
fn indexes_cover_only_public_plaintext_columns() {
    // The SP indexes what it already holds in plaintext, and nothing else:
    // after a serving-style mix, every index the catalog keeps is over a
    // public column of a plaintext type, and an equality on a sensitive
    // column keeps its oracle or tag path.
    let mut client = loaded().client;
    client
        .execute("CREATE TABLE notes (id INT, body VARCHAR(16) SENSITIVE, amount INT SENSITIVE)")
        .unwrap();
    client
        .execute("INSERT INTO notes VALUES (1, 'alpha', 10), (2, 'beta', 20)")
        .unwrap();
    client.upload_all().unwrap();
    let mix = [
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
        "SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal > 1000.00 \
         ORDER BY c_custkey LIMIT 10",
        "SELECT o_orderkey FROM orders WHERE o_totalprice = 1000.00",
        "SELECT c_custkey FROM customer WHERE c_acctbal = 1000.00 AND c_custkey = 3",
        "SELECT id FROM notes WHERE body = 'alpha'",
        "SELECT id FROM notes WHERE amount = 10",
    ];
    for sql in mix {
        client
            .query(sql)
            .unwrap_or_else(|e| panic!("{sql} failed: {e}"));
    }

    let catalog = client.engine().catalog();
    let indexed = catalog.indexed_columns();
    for (table, column) in &indexed {
        let handle = catalog.table(table).unwrap();
        let def = handle.read().schema().column_at(*column).clone();
        assert!(
            sdb_storage::indexable(&def)
                && def.sensitivity == sdb_storage::Sensitivity::Public
                && !def.data_type.is_encrypted(),
            "{table}.{} is indexed: {def:?}",
            def.name
        );
    }
    let names: Vec<String> = (indexed.iter())
        .map(|(table, column)| {
            let handle = catalog.table(table).unwrap();
            let name = handle.read().schema().column_at(*column).name.clone();
            format!("{table}.{name}")
        })
        .collect();
    for expected in [
        "orders.o_orderkey",
        "customer.c_custkey",
        "lineitem.l_orderkey",
        "orders.o_custkey",
        "lineitem.l_shipmode",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "{expected} in {names:?}"
        );
    }

    for sensitive in [
        "SELECT o_orderkey FROM orders WHERE o_totalprice = 1000.00",
        "SELECT id FROM notes WHERE body = 'alpha'",
        "SELECT id FROM notes WHERE amount = 10",
    ] {
        let plan = client.explain(sensitive).unwrap();
        assert!(!plan.contains("IndexScan"), "{sensitive}:\n{plan}");
    }
    let plan = client
        .explain("SELECT c_custkey FROM customer WHERE c_acctbal = 1000.00 AND c_custkey = 3")
        .unwrap();
    assert!(plan.contains("IndexScan(customer.c_custkey)"), "{plan}");
}

#[test]
fn the_item_key_memo_stays_in_do_memory() {
    // The proxy's item-key memo holds `G = g^(r·x mod φ(n))` (in Montgomery
    // form) per stored key's `x` and row id `r`; a hit yields `m·G`. Serve a
    // query mix three times so it fills and serves, then scan every
    // haystack that leaves the DO — the wire log, exported traces, the
    // Prometheus text and the key store's JSON — for every such `G`, its
    // Montgomery form and every stored key's item key of every stored row.
    let config = sdb_server::ServerConfig::test_profile();
    let mut server = sdb_server::SdbServer::new(config).expect("server");
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, 0xa0d17) {
        server.stage_table(table).expect("stage");
    }
    let capture = server.wire().capture();
    server.upload_all().expect("upload");
    let session = server.connect();
    let queries = [
        sdb_workload::query_by_id(6).expect("Q6").sql,
        sdb_workload::query_by_id(18).expect("Q18").sql,
        "SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal > 2000.00 \
         ORDER BY c_custkey LIMIT 10",
        "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = 7",
    ];
    let mut hits = 0;
    let mut traces = Vec::new();
    for _ in 0..3 {
        for sql in queries {
            hits += server
                .execute(session, sql)
                .expect("query")
                .item_key_memo_hits;
            let opts = sdb_engine::QueryOptions::default().with_tracing(true);
            let traced = server.client().query_with(sql, &opts).expect("traced");
            traces.push(traced.trace.expect("tracing was on").to_json());
        }
    }
    let client = server.client();
    let memo = client.proxy().item_key_memo();
    assert!(hits > 0 && memo.stats().entries > 0, "{memo:?}");

    let keystore = client.proxy().keystore();
    let system = keystore.system();
    let n = system.n();
    let limbs = n.bits().div_ceil(64);
    let r_mont = (num_bigint::BigUint::from(1u32) << (64 * limbs)) % n;
    let row_ids = keystore.row_id_generator();
    let mut needles = Vec::new();
    for name in keystore.table_names() {
        let keys = keystore.table_keys(&name).unwrap();
        let handle = client.engine().catalog().table(&name).unwrap();
        let table = handle.read();
        for cell in table.column("row_id").unwrap().iter() {
            let r = row_ids
                .decrypt(cell.as_encrypted_row_id().unwrap())
                .unwrap()
                .0;
            for key in keys.columns.values().chain([&keys.aux]) {
                let g_power = system.g().modpow(&((&r * key.x()) % system.phi()), n);
                needles.extend(both_renderings(&((key.m() * &g_power) % n)));
                needles.extend(both_renderings(&((&g_power * &r_mont) % n)));
                needles.extend(both_renderings(&g_power));
            }
        }
    }
    assert!(needles.len() > 100);

    let wire = capture.concatenated_payloads();
    let prometheus = server.metrics().render_prometheus();
    let keystore_json = serde_json::to_string(keystore).unwrap();
    let proxy_debug = format!("{:?}", client.proxy());
    let mut haystacks = vec![
        ("wire", wire.as_str()),
        ("prometheus", prometheus.as_str()),
        ("key store", keystore_json.as_str()),
        ("proxy debug", proxy_debug.as_str()),
    ];
    haystacks.extend(traces.iter().map(|t| ("trace", t.as_str())));
    assert!(!wire.is_empty());
    for (name, haystack) in haystacks {
        for needle in &needles {
            assert!(
                !haystack.contains(needle.as_str()),
                "item-key material in the {name}"
            );
        }
    }

    // Debug output shows table names and counts: no number longer than a
    // counter's.
    let debug = format!("{memo:?}");
    assert!(debug.starts_with("ItemKeyMemo { tables: "), "{debug}");
    assert!(
        proxy_debug.starts_with("SdbProxy { tables: ["),
        "{proxy_debug}"
    );
    for debug in [debug, proxy_debug] {
        let longest = (debug.split(|c: char| !c.is_ascii_digit()))
            .map(str::len)
            .max();
        assert!(longest <= Some(20), "{debug}");
    }
}

#[test]
fn the_share_kernel_clock_reports_integers_only() {
    // What the share kernels add to `EXPLAIN ANALYZE` (`share[rows= time=]`),
    // to the exported trace (`share_kernel_rows`, `share_kernel_time`) and
    // to the Prometheus text (`sdb_share_kernel_*_total`) is a row count and
    // a duration: no residue, no plaintext.
    let (server, auditor) = loaded_server(sdb_server::ServerConfig::test_profile());
    let session = server.connect();
    let q1 = sdb_workload::query_by_id(1).expect("Q1").sql;
    for id in [1u8, 6] {
        let sql = sdb_workload::query_by_id(id).expect("template").sql;
        server.execute(session, sql).expect("query");
    }
    // No number in these surfaces is as long as a residue.
    let short_numbers = |text: &str| {
        (text.split(|c: char| !c.is_ascii_digit()))
            .map(str::len)
            .max()
            .unwrap_or(0)
            <= 20
    };

    let analyzed = server
        .client()
        .explain_analyze(q1)
        .expect("explain analyze");
    let aggregate = (analyzed.lines())
        .find(|line| line.contains("HashAggregate"))
        .expect("Q1 aggregates");
    let share = aggregate.split("share[rows=").nth(1).expect("share[...]");
    let rows = share.split_whitespace().next().unwrap();
    assert!(rows.parse::<usize>().unwrap() > 0, "{aggregate}");
    assert!(
        share.split(']').next().unwrap().contains(" time="),
        "{aggregate}"
    );
    let plan: Vec<&str> = analyzed.lines().skip(1).collect();
    let plan = plan.join("\n");
    assert!(short_numbers(&plan), "{plan}");
    assert!(auditor
        .audit([("explain-analyze", plan.as_str())])
        .is_clean());

    let opts = sdb_engine::QueryOptions::default().with_tracing(true);
    let traced = server.client().query_with(q1, &opts).expect("traced");
    let json = traced.trace.expect("tracing was on").to_json();
    for field in ["\"share_kernel_rows\": ", "\"share_kernel_time\": "] {
        let occurrences: Vec<&str> = json.split(field).skip(1).collect();
        assert!(!occurrences.is_empty(), "the trace exports {field}");
        for rest in occurrences {
            let value = rest.split([',', '\n']).next().unwrap_or("");
            assert!(value.trim().parse::<u64>().is_ok(), "{field}{value}");
        }
    }
    assert!(auditor.audit([("trace-json", json.as_str())]).is_clean());

    let prometheus = server.metrics().render_prometheus();
    let value_of = |name: &str| -> u64 {
        let line = (prometheus.lines())
            .find(|line| line.starts_with(name))
            .unwrap_or_else(|| panic!("{name} missing from\n{prometheus}"));
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    };
    assert!(value_of("sdb_share_kernel_rows_total") > 0);
    value_of("sdb_share_kernel_micros_total");
    let lines: Vec<&str> = (prometheus.lines())
        .filter(|line| line.contains("share_kernel"))
        .collect();
    assert!(short_numbers(&lines.join("\n")), "{lines:?}");
    assert!(auditor
        .audit([("prometheus", prometheus.as_str())])
        .is_clean());
}

#[test]
fn the_planning_clock_and_shape_counters_report_integers_only() {
    // What statement shapes and the expression seam's clock add to the SP's
    // statistics (`plan_time`, `plan_cache_hits`, `eval_time`), to a
    // session's (`do_shape_hits`), to `EXPLAIN ANALYZE` (`DO shape hits`,
    // the SP header's `planning` and `plan cache hits`, each operator's
    // `eval=`), to the trace and to the Prometheus text (`sdb_plan_*`,
    // `sdb_do_shape_hits_total`, `sdb_statement_shape_bytes`) is a duration
    // or a count: no residue, no plaintext.
    let (server, auditor) = loaded_server(sdb_server::ServerConfig::test_profile());
    let session = server.connect();
    let q1 = sdb_workload::query_by_id(1).expect("Q1").sql;
    let mut last = None;
    for id in [1u8, 6] {
        let sql = sdb_workload::query_by_id(id).expect("template").sql;
        for _ in 0..5 {
            last = Some(server.execute(session, sql).expect("query"));
        }
    }
    let last = last.expect("ran");
    assert_eq!(last.do_shape_hits, 1);
    assert_eq!(last.server_stats.plan_cache_hits, 1);

    let integer_fields = |json: &str, fields: &[&str]| {
        for field in fields {
            let occurrences: Vec<&str> = json.split(field).skip(1).collect();
            assert!(!occurrences.is_empty(), "{field} in {json}");
            for rest in occurrences {
                let value = rest.split([',', '}', '\n']).next().unwrap_or("");
                assert!(value.trim().parse::<u64>().is_ok(), "{field}{value}");
            }
        }
    };
    let stats = serde_json::to_string(&last.server_stats).expect("stats");
    integer_fields(
        &stats,
        &["\"plan_time\":", "\"plan_cache_hits\":", "\"eval_time\":"],
    );
    let session_stats =
        serde_json::to_string(&server.session_stats(session).expect("session")).expect("json");
    integer_fields(&session_stats, &["\"do_shape_hits\":"]);

    let analyzed = server
        .client()
        .explain_analyze(q1)
        .expect("explain analyze");
    let do_line = analyzed.lines().nth(1).expect("DO line");
    assert_eq!(do_line, "DO shape hits 1", "{analyzed}");
    let header = analyzed.lines().nth(2).expect("header");
    let count = |label: &str| -> u64 {
        let value = header.split(label).nth(1).expect(label);
        value.split(',').next().unwrap().parse().expect(label)
    };
    assert!(count("plan cache hits ") <= 1, "{header}");
    let planning = header.split("planning ").nth(1).expect("planning");
    let planning = planning.split(',').next().unwrap();
    assert!(planning.ends_with('s'), "a duration: {header}");
    // Each operator's seam clock is one plain duration: digits, then a unit.
    let evals: Vec<&str> = (analyzed.split(" eval=").skip(1))
        .map(|rest| rest.split_whitespace().next().unwrap_or(""))
        .collect();
    assert!(!evals.is_empty(), "{analyzed}");
    for eval in &evals {
        let number = ["\u{b5}s", "ms", "s"]
            .iter()
            .find_map(|unit| eval.strip_suffix(unit))
            .unwrap_or_else(|| panic!("a duration: eval={eval}"));
        assert!(number.parse::<f64>().is_ok(), "eval={eval}");
        assert!(
            number.chars().all(|c| c.is_ascii_digit() || c == '.'),
            "eval={eval}"
        );
    }

    // The exported trace carries the same clock as one integer field.
    let opts = sdb_engine::QueryOptions::default().with_tracing(true);
    let traced = server.client().query_with(q1, &opts).expect("traced");
    let report = traced.trace.expect("tracing was on");
    let plan_us = traced.server_stats.plan_time.as_micros() as u64;
    assert_eq!(report.plan_us, plan_us);
    let trace_json = report.to_json();
    integer_fields(&trace_json, &["\"plan_us\":", "\"eval_time\":"]);
    assert_eq!(
        trace_json.matches("\"plan_us\":").count(),
        1,
        "not a span field"
    );

    let prometheus = server.metrics_snapshot().render_prometheus();
    let names = [
        "sdb_do_shape_hits_total",
        "sdb_plan_cache_hits_total",
        "sdb_plan_micros_total",
        "sdb_statement_shape_bytes",
    ];
    let lines: Vec<&str> = (prometheus.lines())
        .filter(|line| names.iter().any(|name| line.starts_with(name)))
        .collect();
    assert_eq!(lines.len(), names.len(), "{prometheus}");
    for line in &lines {
        let value = line.split_whitespace().nth(1).unwrap();
        assert!(value.parse::<u64>().unwrap() > 0, "{line}");
        assert!(value.len() <= 20, "{line}");
    }
    let surfaces = [
        stats,
        session_stats,
        header.to_string(),
        evals.join("\n"),
        lines.join("\n"),
        trace_json,
    ]
    .join("\n");
    assert!(auditor
        .audit([("planning-and-shapes", surfaces.as_str())])
        .is_clean());
}
