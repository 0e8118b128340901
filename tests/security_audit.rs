//! Experiment E4 (demo step 3): the adversarial view of the service provider.
//!
//! The demo lets an attendee take a memory dump of the SP machine while queries run
//! and observe that sensitive data never appears in the clear. These tests automate
//! that check over the TPC-H workload and additionally exercise the paper's threat
//! discussion (§2.3): what an attacker with DB knowledge sees at rest, and what an
//! attacker with QR knowledge sees on the wire, during a full query workload.

use std::sync::Arc;

use sdb::{SdbClient, SdbConfig};
use sdb_engine::operators::drain_operator;
use sdb_engine::{ExecConfig, ExecContext, PhysicalPlanner, SdbOracle, UdfRegistry};
use sdb_sql::PlanBuilder;
use sdb_storage::Value;
use sdb_workload::{generate_all, ScaleFactor, SensitivityProfile};

fn loaded_client() -> SdbClient {
    let mut client = SdbClient::new(SdbConfig::test_profile()).expect("client");
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, 0xa0d17) {
        client.stage_table(table).expect("stage");
    }
    client.upload_all().expect("upload");
    client
}

#[test]
fn sp_storage_and_wire_traffic_never_contain_sensitive_plaintext() {
    let client = loaded_client();

    // Run a representative mix of queries so intermediate results, oracle traffic
    // and rewritten SQL all cross the (recorded) wire.
    for id in [1u8, 3, 6, 10, 14, 18, 22] {
        let template = sdb_workload::query_by_id(id).expect("template");
        client
            .query(template.sql)
            .unwrap_or_else(|e| panic!("Q{id} failed: {e}"));
    }

    let report = client.audit();
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
        match column.get(i) {
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
        .values()
        .iter()
        .position(|v| v == &Value::Int(99))
        .expect("attacker row present");
    let attacker_ct = column.get(attacker_row).as_encrypted().unwrap();
    for i in 0..batch.num_rows() {
        if i != attacker_row {
            assert_ne!(
                column.get(i).as_encrypted().unwrap(),
                attacker_ct,
                "an attacker-chosen plaintext must not reproduce another row's ciphertext"
            );
        }
    }
    assert!(client.audit().is_clean());
}

#[test]
fn query_results_decrypt_only_at_the_proxy() {
    let client = loaded_client();
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
    let wire = client.wire().concatenated_payloads();
    assert!(
        !wire.contains(&decrypted_sum),
        "the plaintext aggregate leaked onto the wire"
    );
}

#[test]
fn sp_side_arithmetic_state_holds_only_constants_the_sp_was_sent() {
    // The SP binds each SDB_* call site's constants once per query and keeps
    // the derived arithmetic state (parsed numbers, the Montgomery context of
    // n, p's windows) while the query runs. Run the SP half of a query the way
    // the engine does, then look at what that state remembers: only n, p and
    // q, which crossed the wire in the clear inside the rewritten SQL.
    let client = loaded_client();
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
    let plan = PlanBuilder::build(&rewritten.server_query).unwrap();
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

    // None of the DO's secrets is among them.
    let mut secrets = vec![system.phi().to_string(), system.g().to_string()];
    let keystore = client.proxy().keystore();
    for table in keystore.table_names() {
        let keys = keystore.table_keys(&table).unwrap();
        for key in keys.columns.values().chain([&keys.aux]) {
            secrets.push(key.m().to_string());
            secrets.push(key.x().to_string());
        }
    }
    for secret in &secrets {
        assert!(
            !remembered.contains(secret),
            "a DO secret reached the SP-side arithmetic state"
        );
    }
    // And no sensitive plaintext: the same needles as the storage/wire audit.
    let mut auditor = sdb::MemoryAuditor::new();
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, 0xa0d17) {
        auditor.register_table(&table);
    }
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
    let client = loaded_client();
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
    let plan = PlanBuilder::build(&rewritten.server_query).unwrap();
    let mut root = PhysicalPlanner::new(Arc::clone(&ctx)).plan(&plan).unwrap();
    drain_operator(root.as_mut()).unwrap();
    let stats = ctx.stats();
    assert!(stats.key_update_calls > 0 && stats.key_update_pows < stats.key_update_calls);

    let constants = ctx.udf_sites().remembered_constants();
    assert!(constants.len() > 2 * 8, "n, and the p and q of eight sites");
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

    let system = client.proxy().keystore().system();
    let mut secrets = vec![system.phi().to_string(), system.g().to_string()];
    let keystore = client.proxy().keystore();
    for table in keystore.table_names() {
        let keys = keystore.table_keys(&table).unwrap();
        for key in keys.columns.values().chain([&keys.aux]) {
            secrets.push(key.m().to_string());
            secrets.push(key.x().to_string());
        }
    }
    for secret in &secrets {
        assert!(
            !constants.contains(secret) && !powers.contains(secret),
            "a DO secret reached a key-update set"
        );
    }
    let mut auditor = sdb::MemoryAuditor::new();
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, 0xa0d17) {
        auditor.register_table(&table);
    }
    let haystack = [constants.join("\n"), powers.join("\n")].join("\n");
    assert!(auditor
        .audit([("key-update-sets", haystack.as_str())])
        .is_clean());

    // What the sets add to EXPLAIN ANALYZE and the exported trace is three
    // integers per operator.
    let opts = sdb_engine::QueryOptions::default().with_tracing(true);
    let traced = client.query_with(q1, &opts).expect("traced query");
    let json = traced.trace.expect("tracing was on").to_json();
    for field in [
        "\"key_update_calls\": ",
        "\"key_update_pows\": ",
        "\"key_update_derived\": ",
    ] {
        let occurrences: Vec<&str> = json.split(field).skip(1).collect();
        assert!(!occurrences.is_empty(), "the trace exports {field}");
        for rest in occurrences {
            let value = rest.split([',', '\n']).next().unwrap_or("");
            assert!(value.trim().parse::<usize>().is_ok(), "{field}{value}");
        }
    }
    assert!(auditor.audit([("trace-json", json.as_str())]).is_clean());
}

#[test]
fn keystore_json_holds_no_derived_tables_and_a_restored_store_rebuilds_them() {
    // The fixed-base table of g and the Montgomery context are DO-side derived
    // state: persisting them would multiply the key store's size by orders of
    // magnitude and write a second copy of a secret to disk.
    let client = loaded_client();
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
fn scan_pruning_reports_column_counts_only() {
    // The pruning surface — `cols=read/total` on EXPLAIN ANALYZE scan lines,
    // `scan_columns_*` in the exported trace — carries two integers per scan:
    // no column name beyond what the rewritten SQL already shows, no value.
    let client = loaded_client();
    let mut auditor = sdb::MemoryAuditor::new();
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, 0xa0d17) {
        auditor.register_table(&table);
    }
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
