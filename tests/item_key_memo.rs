//! The DO's item-key memo against cold proxies.
//!
//! One proxy keeps the powers `g^(r·x mod φ(n))` of the rows its oracle
//! requests and result columns derived, per stored key's `x`
//! (`sdb_crypto::ItemKeyMemo`). Whatever it holds, every answer, every
//! oracle count and every deterministic wire byte must be what a cold proxy
//! produces; only whether an item key is derived or served may change.

use std::collections::BTreeSet;
use std::sync::Arc;

use num_bigint::BigUint;
use rand::SeedableRng;
use sdb::wire::WireMessageKind;
use sdb::{SdbClient, SdbConfig};
use sdb_crypto::share::{encrypt_value, gen_item_key};
use sdb_crypto::{Drbg, RowId, SignedCodec};
use sdb_engine::secure::{OracleRequest, OracleRequestKind, OracleResponse};
use sdb_engine::{QueryOptions, SdbOracle};
use sdb_proxy::meta::PlainType;
use sdb_proxy::session::HandleKey;
use sdb_proxy::ProxyError;
use sdb_storage::{ColumnDef, DataType, Schema, Table, Value};
use sdb_workload::{generate_all, ScaleFactor, SensitivityProfile};

fn loaded_client() -> SdbClient {
    let mut client = SdbClient::new(SdbConfig::test_profile()).expect("client");
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, 0x1e4) {
        client.stage_table(table).expect("stage");
    }
    client.upload_all().expect("upload");
    client
}

/// The statement shapes of the `serve_mixed` benchmark, one instance each:
/// the three point lookups, the two aggregates, the oracle comparison and
/// the full sort.
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

/// Everything about one run that must not depend on the memo. Oracle
/// *request* payloads carry the SP's fresh blinding factors, so only their
/// count is compared; every other wire direction is deterministic. What
/// goes to the SP depends on the statement-shape caches, not on the memo: a
/// warm SP that holds a statement's shape is sent its draws only, a cold one
/// the template as well. So the draws (the `p` and `q` of every key update)
/// are compared instead of the bytes sent.
#[derive(Debug, PartialEq)]
struct Observed {
    answer: String,
    oracle_requests: usize,
    oracle_rows: usize,
    oracle_round_trips: usize,
    requests_on_wire: usize,
    draw_bytes: usize,
    bytes_from_sp: usize,
    oracle_response_bytes: usize,
}

/// How the run's row-keyed item keys were obtained, and whether every
/// row-keyed handle it used was under a stored key's `x`.
struct ItemKeys {
    derived: usize,
    hits: usize,
    stored_x_only: bool,
}

/// The `x` of every key the client's key store holds.
fn stored_xs(client: &SdbClient) -> BTreeSet<BigUint> {
    let keystore = client.proxy().keystore();
    let mut xs = BTreeSet::new();
    for table in keystore.table_names() {
        let keys = keystore.table_keys(&table).expect("keys");
        xs.extend(
            keys.columns
                .values()
                .chain([&keys.aux])
                .map(|k| k.x().clone()),
        );
    }
    xs
}

fn run(client: &SdbClient, sql: &str) -> (Observed, ItemKeys) {
    let wire = client.wire();
    wire.clear();
    let rewritten = client.rewrite_only(sql).expect("rewrite");
    let result = client
        .run_rewritten(&rewritten)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    let session = &rewritten.session;
    let observed = Observed {
        answer: serde_json::to_string(&result.batch).expect("answer"),
        oracle_requests: session.oracle_requests(),
        oracle_rows: session.oracle_rows(),
        oracle_round_trips: result.server_stats.oracle_round_trips,
        requests_on_wire: wire.count_of_kind(WireMessageKind::OracleRequest),
        draw_bytes: rewritten.draws().iter().map(String::len).sum(),
        bytes_from_sp: wire.bytes_of_kind(WireMessageKind::ResultToProxy),
        oracle_response_bytes: wire.bytes_of_kind(WireMessageKind::OracleResponse),
    };
    let stored = stored_xs(client);
    let stored_x_only = (0..session.handle_count()).all(|i| {
        match session.handle(&format!("h{i}")).expect("handle") {
            HandleKey::RowKeyed { key, .. } => stored.contains(key.x()),
            HandleKey::RowIndependent { .. } => true,
        }
    });
    assert_eq!(
        (result.item_keys_derived, result.item_key_memo_hits),
        (session.item_keys_derived(), session.item_key_memo_hits())
    );
    let item_keys = ItemKeys {
        derived: result.item_keys_derived,
        hits: result.item_key_memo_hits,
        stored_x_only,
    };
    (observed, item_keys)
}

/// Every workload query and serving shape, three times on one proxy. Run
/// `i` is checked against a cold proxy that rewrote the statement `i − 1`
/// times without running it, so both draw the same rewrite randomness:
/// answers, oracle counts and deterministic wire bytes match exactly, and
/// both obtain the same number of item keys (a cold proxy may already serve
/// a row a second request of the same statement sends again). Runs 2 and 3 derive none for a
/// statement whose row-keyed handles are all under stored keys, and repeat
/// each other's counts.
#[test]
fn warm_runs_match_a_cold_proxy_and_derive_nothing_for_stored_keys() {
    let mut statements: Vec<(String, &str)> = sdb_workload::all_queries()
        .into_iter()
        .map(|q| (format!("Q{}", q.id), q.sql))
        .collect();
    statements.extend(
        (SERVING_SHAPES.iter().enumerate()).map(|(i, sql)| (format!("serving shape {i}"), *sql)),
    );
    let mut engaged = 0;
    for (name, sql) in statements {
        let warm = loaded_client();
        let mut runs = Vec::new();
        for i in 0..3 {
            let cold = loaded_client();
            for _ in 0..i {
                cold.rewrite_only(sql).expect("rewrite");
            }
            let (expected, cold_keys) = run(&cold, sql);
            let (observed, keys) = run(&warm, sql);
            assert_eq!(observed, expected, "{name} run {}", i + 1);
            assert_eq!(
                keys.derived + keys.hits,
                cold_keys.derived + cold_keys.hits,
                "{name} run {}",
                i + 1
            );
            runs.push(keys);
        }
        let (second, third) = (&runs[1], &runs[2]);
        assert_eq!(
            (second.derived, second.hits),
            (third.derived, third.hits),
            "{name}: warm runs repeat"
        );
        if second.stored_x_only {
            assert_eq!(second.derived, 0, "{name}: run 2 derives nothing");
        }
        engaged += usize::from(second.hits > 0);
    }
    assert!(engaged >= 5, "only {engaged} statements used the memo");
}

/// Sensitive columns of [`accounts`].
const COLUMNS: [&str; 2] = ["a", "b"];

/// `accounts(id, a, b)`: `rows` rows of small sensitive integers.
fn accounts(rows: i64) -> Table {
    let mut columns = vec![ColumnDef::public("id", DataType::Int)];
    columns.extend(COLUMNS.map(|name| ColumnDef::sensitive(name, DataType::Int)));
    let mut table = Table::new("accounts", Schema::new(columns));
    for id in 0..rows {
        let row = vec![
            Value::Int(id),
            Value::Int((id * 31 + 7) % 97 - 40),
            Value::Int((id * 17 + 3) % 89 - 30),
        ];
        table.insert_row(row).expect("row");
    }
    table
}

fn accounts_client(rows: i64) -> SdbClient {
    let mut client = SdbClient::new(SdbConfig::test_profile()).expect("client");
    client.stage_table(accounts(rows)).expect("stage");
    client.upload_all().expect("upload");
    client
}

fn query(client: &SdbClient, sql: &str) -> (Vec<Vec<Value>>, usize, usize) {
    let result = client.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    (
        result.rows(),
        result.item_keys_derived,
        result.item_key_memo_hits,
    )
}

/// An EE addition or subtraction re-keys both operands to a target drawn
/// afresh for every query: comparing two sensitive expressions, or
/// decrypting a sum, sends row-keyed rows under an `x` no stored key has.
/// Their item keys are derived on every run and never given a table.
#[test]
fn a_fresh_target_is_never_admitted() {
    let client = accounts_client(24);
    let memo = client.proxy().item_key_memo();
    assert_eq!(memo.stats().tables, COLUMNS.len() + 1, "the stored keys");
    for sql in [
        "SELECT id FROM accounts WHERE a + b > a ORDER BY id",
        "SELECT id FROM accounts WHERE a > b ORDER BY id",
        "SELECT id, a + b AS s FROM accounts WHERE id < 10 ORDER BY id",
    ] {
        let (answer, first, _) = query(&client, sql);
        assert!(first > 0, "{sql}: the rows' item keys are derived");
        for _ in 0..3 {
            let (again, derived, hits) = query(&client, sql);
            assert_eq!((&again, derived, hits), (&answer, first, 0), "{sql}");
        }
    }
    let stats = memo.stats();
    assert_eq!((stats.tables, stats.entries), (COLUMNS.len() + 1, 0));
}

/// Rows an `INSERT` adds after the memo is warm miss once — their item keys
/// are derived and stored — and are served from then on; the answers track
/// the inserts.
#[test]
fn inserted_rows_miss_then_hit() {
    let rows = 30;
    let mut client = accounts_client(rows);
    let sql = "SELECT id, a FROM accounts WHERE b > 0 ORDER BY id";
    query(&client, sql);
    let (before, derived, hits) = query(&client, sql);
    assert_eq!(derived, 0);
    assert!(hits > 0);
    client
        .execute("INSERT INTO accounts VALUES (100, 5, 9), (101, 6, 12)")
        .expect("insert");
    let (after, derived, _) = query(&client, sql);
    assert_eq!(after.len(), before.len() + 2);
    assert_eq!(after.last().unwrap(), &vec![Value::Int(101), Value::Int(6)]);
    // Each new row misses once per `x` it is derived under: the comparison
    // (the aux key's) and the decrypted column's.
    assert_eq!(derived, 4);
    let (again, derived, hits_after) = query(&client, sql);
    assert_eq!((again, derived), (after, 0));
    assert_eq!(hits_after, hits + 4);
}

/// Flips one byte of an encrypted row id's MAC-covered body.
fn tamper(value: &Value) -> Value {
    let Value::EncryptedRowId(row_id) = value else {
        panic!("expected a row id, found {value:?}");
    };
    let mut row_id = row_id.clone();
    row_id.0.body[0] ^= 1;
    Value::EncryptedRowId(row_id)
}

/// The MAC check runs on every row id, memoised or not: a tampered row id
/// of a row the memo holds fails decryption and the oracle with exactly the
/// error a cold proxy gives.
#[test]
fn a_tampered_row_id_of_a_memoised_row_still_fails() {
    let client = accounts_client(12);
    let sql = "SELECT id, a FROM accounts ORDER BY id";
    query(&client, sql);
    let (_, derived, _) = query(&client, sql);
    assert_eq!(derived, 0, "every row is memoised");

    let proxy = client.proxy();
    let rewritten = client.rewrite_only(sql).expect("rewrite");
    let opts = QueryOptions::default().with_oracle(proxy.oracle(&rewritten));
    let mut output = client
        .engine()
        .execute_sql_with(&rewritten.server_sql, &opts)
        .expect("execute");
    let rid_column = (0..output.batch.num_columns())
        .find(|&c| matches!(*output.batch.column(c).value(0), Value::EncryptedRowId(_)))
        .expect("a row id column");
    let mut rows: Vec<Vec<Value>> = output.batch.rows().collect();
    let tampered = tamper(&rows[3][rid_column]);
    rows[3][rid_column] = tampered.clone();
    output.batch =
        sdb_storage::RecordBatch::from_rows(output.batch.schema().clone(), rows).expect("batch");

    let Value::EncryptedRowId(tampered) = tampered else {
        unreachable!()
    };
    let cipher_error = proxy
        .keystore()
        .row_id_generator()
        .decrypt(&tampered)
        .expect_err("the MAC check fails");
    let expected = format!("row id decryption failed: {cipher_error}");
    assert_eq!(
        proxy.decrypt_result(&rewritten, &output.batch).err(),
        Some(ProxyError::Decryption {
            detail: expected.clone()
        })
    );

    // The oracle path: a sign request for the tampered row under `a`'s key.
    let key = proxy
        .keystore()
        .column_key("accounts", "a")
        .unwrap()
        .clone();
    let handle = rewritten.session.register_handle(HandleKey::RowKeyed {
        key,
        decode: PlainType::Int,
    });
    let request = OracleRequest {
        kind: OracleRequestKind::Sign,
        handle,
        rows: [(tampered, BigUint::from(1u32))].into_iter().collect(),
    };
    assert_eq!(proxy.oracle(&rewritten).resolve(request), Err(expected));
}

/// A tiny upload bounds the memo at a few entries. Oracle requests for rows
/// it never encrypted fill it past that bound, so it empties the least
/// recently used `x` whole; every sign stays right, the bound holds, and the
/// table's queries still answer exactly.
#[test]
fn a_tiny_upload_forces_whole_x_eviction_and_answers_stay_exact() {
    let rows = 4;
    let client = accounts_client(rows);
    let memo = client.proxy().item_key_memo();
    let bound = memo.stats().bound;
    assert_eq!(bound, rows as usize * (COLUMNS.len() + 1));
    let sql = "SELECT id, a, b FROM accounts WHERE a > 0 ORDER BY id";
    let (answer, _, _) = query(&client, sql);
    assert_eq!(memo.stats().evictions, 0);

    let proxy = client.proxy();
    let system = proxy.keystore().system().clone();
    let codec = SignedCodec::new(&system);
    let row_ids = proxy.keystore().row_id_generator();
    let key = proxy
        .keystore()
        .column_key("accounts", "b")
        .unwrap()
        .clone();
    let rewritten = client.rewrite_only(sql).expect("rewrite");
    let handle = rewritten.session.register_handle(HandleKey::RowKeyed {
        key: key.clone(),
        decode: PlainType::Int,
    });
    let mut rng = Drbg::seed_from_u64(9);
    let values: Vec<i64> = (0..3 * bound as i64).map(|v| v % 7 - 3).collect();
    let oracle_rows = (values.iter())
        .map(|&v| {
            let rid = RowId(system.gen_row_id(&mut rng));
            let item_key = gen_item_key(&system, &key, rid.value());
            let share = encrypt_value(&system, &codec.encode(i128::from(v)).unwrap(), &item_key);
            (row_ids.encrypt(&mut rng, &rid), share)
        })
        .collect();
    let response = proxy.oracle(&rewritten).resolve(OracleRequest {
        kind: OracleRequestKind::Sign,
        handle,
        rows: oracle_rows,
    });
    let signs = values.iter().map(|v| v.signum() as i8).collect();
    assert_eq!(response, Ok(OracleResponse::Signs(signs)));
    let stats = memo.stats();
    assert!(stats.evictions > 0, "{stats:?}");
    assert!(stats.entries <= bound, "{stats:?}");

    for _ in 0..2 {
        assert_eq!(query(&client, sql).0, answer);
        assert!(memo.stats().entries <= bound);
    }
}

/// Two sessions filling the same `x` at once store each row once.
#[test]
fn two_threads_filling_one_x_store_each_row_once() {
    let rows = 48;
    let client = Arc::new(accounts_client(rows));
    let sql = "SELECT id, a FROM accounts ORDER BY id";
    let answers: Vec<Vec<Vec<Value>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| query(&client, sql).0))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[0].len(), rows as usize);
    let stats = client.proxy().item_key_memo().stats();
    assert_eq!((stats.entries, stats.stored), (rows as usize, rows as u64));
    assert_eq!(query(&client, sql).1, 0);
}
