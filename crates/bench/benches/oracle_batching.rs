//! Cross-batch oracle batching on a latency-injected DO-proxy link: a
//! multi-predicate secure filter over 25 input batches pays one round trip
//! per *distinct call*, because operand rows coalesce across batches (one
//! trip per call per batch would be 50 here: ~500ms of pure link wait per
//! query at a 10ms RTT, against ~20ms). A budget-forced Grace join with
//! oracle-keyed sides rides the same accumulator: one trip per side, zero
//! re-resolution for spilled chunks.
//!
//! Besides the criterion timings, the target writes a deterministic
//! `BENCH_oracle_batching.json` snapshot (round-trip counts only, no
//! timings) at the repository root so the trip trajectory is tracked in
//! version control across PRs.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use num_bigint::BigUint;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sdb_engine::secure::OracleRequestKind;
use sdb_engine::{MemoryBudget, SpEngine};
use sdb_storage::{Catalog, ColumnDef, DataType, Schema, Value};

const FILTER_ROWS: u64 = 800;
const JOIN_BUILD_ROWS: u64 = 400;
const BATCH_SIZE: usize = 32;
const LINK_LATENCY_MS: u64 = 10;

/// Two distinct comparison predicates: each coalesces the whole scan (25
/// batches of 32 rows) into one round trip, 2 in total.
const FILTER_SQL: &str = "SELECT id FROM enc \
     WHERE SDB_CMP_GT(v, rid, 'h', '1000003') AND SDB_CMP_GT(v, rid, 'h2', '1000003')";

/// An oracle-keyed equi-join; under a tight budget the Grace path resolves
/// each side's key call in one coalesced trip before partitioning.
const JOIN_SQL: &str = "SELECT id, id2 FROM enc JOIN encr \
     ON SDB_GROUP_TAG(v, rid, 'hL') = SDB_GROUP_TAG(rv, rrid, 'hR')";

/// Deterministic pseudo-random stream (keeps the bench reproducible without
/// an RNG dependency in the data).
fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

/// A deterministic stand-in DO proxy: verdicts depend only on the stable
/// row-id ciphertexts — like the real proxy, whose answers are invariant
/// under the SP's blinding factors — so batched and unbatched runs agree
/// byte for byte regardless of request chunking.
struct ContentOracle;

impl sdb_engine::SdbOracle for ContentOracle {
    fn resolve(&self, request: sdb_engine::OracleRequest) -> sdb_engine::OracleResult {
        let body = |r: &sdb_engine::secure::OracleRow| -> u64 {
            r.row_id.0.body.iter().map(|&b| u64::from(b)).sum()
        };
        Ok(match request.kind {
            OracleRequestKind::Sign => sdb_engine::OracleResponse::Signs(
                request
                    .rows
                    .iter()
                    .map(|r| if body(r).is_multiple_of(2) { 1 } else { -1 })
                    .collect(),
            ),
            OracleRequestKind::GroupTag => sdb_engine::OracleResponse::Tags(
                request.rows.iter().map(|r| body(r) % 32).collect(),
            ),
            OracleRequestKind::Rank => {
                sdb_engine::OracleResponse::Ranks((0..request.rows.len() as u64).collect())
            }
        })
    }
}

/// `enc(id, v, rid)` (the probe/filter table) plus `encr(id2, rv, rrid)`
/// (the join build side), both under a seeded cipher.
fn shared_catalog() -> Arc<Catalog> {
    let catalog = Arc::new(Catalog::new());
    let mut rng = StdRng::seed_from_u64(7);
    let cipher = sdb_crypto::SiesCipher::from_master(&mut rng);
    let mut fill = |name: &str, cols: [&str; 3], rows: u64| {
        let table = catalog
            .create_table(
                name,
                Schema::new(vec![
                    ColumnDef::public(cols[0], DataType::Int),
                    ColumnDef::sensitive(cols[1], DataType::Encrypted),
                    ColumnDef::public(cols[2], DataType::EncryptedRowId),
                ]),
            )
            .expect("fresh catalog");
        let mut t = table.write();
        for i in 0..rows {
            let rid =
                sdb_crypto::EncryptedRowId(cipher.encrypt_biguint(&mut rng, &BigUint::from(i + 1)));
            t.insert_row(vec![
                Value::Int(i as i64),
                Value::Encrypted(BigUint::from(mix(i) % 1_000_003)),
                Value::EncryptedRowId(rid),
            ])
            .expect("schema matches");
        }
    };
    fill("enc", ["id", "v", "rid"], FILTER_ROWS);
    fill("encr", ["id2", "rv", "rrid"], JOIN_BUILD_ROWS);
    catalog
}

fn engine(catalog: &Arc<Catalog>, budget: Option<usize>) -> SpEngine {
    let mut engine = SpEngine::with_catalog(Arc::clone(catalog))
        .with_batch_size(BATCH_SIZE)
        .with_oracle_latency(Duration::from_millis(LINK_LATENCY_MS));
    if let Some(bytes) = budget {
        engine = engine.with_memory_budget(MemoryBudget::bytes(bytes));
    }
    engine.connect_oracle(Arc::new(ContentOracle));
    engine
}

/// Runs the query once and returns `(rows, oracle_round_trips)`.
fn trips(engine: &SpEngine, sql: &str) -> (usize, usize) {
    let out = engine.execute_sql(sql).expect("query");
    (out.batch.num_rows(), out.stats.oracle_round_trips)
}

/// Writes the deterministic trip-count snapshot checked in at the repo root.
fn write_snapshot(catalog: &Arc<Catalog>) {
    // Latency-free engines: trip counts are what the snapshot tracks.
    let no_latency = |budget: Option<usize>| {
        let mut engine = SpEngine::with_catalog(Arc::clone(catalog)).with_batch_size(BATCH_SIZE);
        if let Some(bytes) = budget {
            engine = engine.with_memory_budget(MemoryBudget::bytes(bytes));
        }
        engine.connect_oracle(Arc::new(ContentOracle));
        engine
    };
    let (_, filter_batched) = trips(&no_latency(None), FILTER_SQL);
    let join_out = no_latency(Some(4096)).execute_sql(JOIN_SQL).expect("join");
    assert!(
        join_out.stats.join_spilled_rows > 0,
        "a 4K budget must force the Grace partition path"
    );
    let snapshot = format!(
        "{{\n  \"bench\": \"oracle_batching\",\n  \"filter\": {{\n    \"rows\": {FILTER_ROWS},\n    \"batch_size\": {BATCH_SIZE},\n    \"distinct_calls\": 2,\n    \"round_trips_batched\": {filter_batched}\n  }},\n  \"grace_join\": {{\n    \"probe_rows\": {FILTER_ROWS},\n    \"build_rows\": {JOIN_BUILD_ROWS},\n    \"budget_bytes\": 4096,\n    \"round_trips_batched\": {},\n    \"spilled\": true\n  }}\n}}\n",
        join_out.stats.oracle_round_trips
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_oracle_batching.json"
    );
    std::fs::write(path, &snapshot).expect("snapshot write");
    println!("{snapshot}");
}

fn oracle_batching(c: &mut Criterion) {
    let catalog = shared_catalog();
    write_snapshot(&catalog);

    let batched = engine(&catalog, None);
    let batched_budgeted = engine(&catalog, Some(4096));

    let mut group = c.benchmark_group("oracle_batching_10ms_link");
    group.sample_size(10);
    group.bench_function("filter_coalesced_trips", |b| {
        b.iter(|| {
            let (rows, trips) = trips(&batched, FILTER_SQL);
            assert_eq!(trips, 2, "one coalesced trip per distinct call");
            black_box(rows)
        })
    });
    group.bench_function("grace_join_coalesced_trips", |b| {
        b.iter(|| {
            let out = batched_budgeted.execute_sql(JOIN_SQL).expect("join");
            assert!(out.stats.join_spilled_rows > 0, "budget must force Grace");
            assert_eq!(
                out.stats.oracle_round_trips, 2,
                "one trip per side, zero per spilled chunk"
            );
            black_box(out.batch.num_rows())
        })
    });
    group.finish();
}

criterion_group!(benches, oracle_batching);
criterion_main!(benches);
