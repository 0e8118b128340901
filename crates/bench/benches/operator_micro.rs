//! Experiment E6 (micro): per-operator cost of SDB's secure operators compared with
//! the plaintext operation and with the onion baseline's specialised schemes.
//!
//! Series reported (one Criterion group per operation class):
//! * encryption / decryption of one value (SDB secret sharing vs Paillier vs DET/OPE);
//! * EE multiplication (`SDB_MULTIPLY`) vs plaintext multiplication;
//! * key update + EE addition vs Paillier homomorphic addition;
//! * comparison protocol step (blind + decrypt sign) vs OPE comparison;
//! * `scan_pruning`: a scan + half-selective filter over a wide encrypted table
//!   by a query referencing 1 / 4 / all of its 16 columns, and `clone` + `slice`
//!   of one 4096-row batch of it (shared buffers: neither copies a cell);
//! * `query_setup`: the SP's fixed cost per query — building an `ExecContext`
//!   from a config, and a one-row `SELECT` through `SpEngine::execute_sql_with`
//!   at parallelism 1 (the serving path's per-request floor).

use criterion::{criterion_group, criterion_main, Criterion};
use num_bigint::BigUint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

use sdb_baseline::{DetCipher, OpeCipher, PaillierKey};
use sdb_crypto::prf::PrfKey;
use sdb_crypto::share::{
    decrypt_value, encrypt_value, gen_item_key, ColumnKeyAlgebra, KeyUpdateParams,
};
use sdb_crypto::{KeyConfig, SignedCodec, SystemKey};

fn micro(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let config = KeyConfig::BALANCED; // 512-bit modulus profile
    let key = SystemKey::generate(&mut rng, config).expect("key generation");
    let codec = SignedCodec::new(&key);
    let ck_a = key.gen_column_key(&mut rng);
    let ck_b = key.gen_column_key(&mut rng);
    let ck_s = key.gen_aux_column_key(&mut rng);
    let ck_t = key.gen_column_key(&mut rng);
    let row = key.gen_row_id(&mut rng);

    let a_plain: i64 = 123_456;
    let b_plain: i64 = 789;
    let ik_a = gen_item_key(&key, &ck_a, &row);
    let ik_b = gen_item_key(&key, &ck_b, &row);
    let ik_s = gen_item_key(&key, &ck_s, &row);
    let a_e = encrypt_value(&key, &codec.encode(a_plain.into()).unwrap(), &ik_a);
    let b_e = encrypt_value(&key, &codec.encode(b_plain.into()).unwrap(), &ik_b);
    let s_e = encrypt_value(&key, &BigUint::from(1u32), &ik_s);

    let paillier = PaillierKey::generate(&mut rng, KeyConfig::TEST).expect("paillier");
    let det = DetCipher::new(PrfKey::new(1, 2));
    let ope = OpeCipher::new(PrfKey::new(3, 4));

    // --- encryption ---------------------------------------------------------
    let mut group = c.benchmark_group("encrypt_one_value");
    group.bench_function("sdb_item_key_plus_encrypt", |bencher| {
        bencher.iter(|| {
            let ik = gen_item_key(&key, &ck_a, black_box(&row));
            black_box(encrypt_value(
                &key,
                &codec.encode(a_plain.into()).unwrap(),
                &ik,
            ))
        })
    });
    group.bench_function("paillier_encrypt", |bencher| {
        let mut local = StdRng::seed_from_u64(9);
        bencher.iter(|| black_box(paillier.encrypt(&mut local, &BigUint::from(a_plain as u64))))
    });
    group.bench_function("onion_det_encrypt", |bencher| {
        bencher.iter(|| black_box(det.encrypt_i128("col", black_box(a_plain as i128))))
    });
    group.bench_function("onion_ope_encrypt", |bencher| {
        bencher.iter(|| black_box(ope.encrypt(black_box(a_plain as i128))))
    });
    group.finish();

    // --- decryption ---------------------------------------------------------
    let mut group = c.benchmark_group("decrypt_one_value");
    group.bench_function("sdb_decrypt", |bencher| {
        bencher.iter(|| {
            let ik = gen_item_key(&key, &ck_a, &row);
            black_box(
                codec
                    .decode(&decrypt_value(&key, black_box(&a_e), &ik))
                    .unwrap(),
            )
        })
    });
    let paillier_ct = {
        let mut local = StdRng::seed_from_u64(10);
        paillier.encrypt(&mut local, &BigUint::from(a_plain as u64))
    };
    group.bench_function("paillier_decrypt", |bencher| {
        bencher.iter(|| black_box(paillier.decrypt(black_box(&paillier_ct))))
    });
    group.finish();

    // --- multiplication -----------------------------------------------------
    let mut group = c.benchmark_group("multiply");
    group.bench_function("sdb_multiply_server_side", |bencher| {
        bencher.iter(|| black_box((black_box(&a_e) * black_box(&b_e)) % key.n()))
    });
    group.bench_function("sdb_multiply_with_key_tracking", |bencher| {
        bencher.iter(|| {
            let c_e = (&a_e * &b_e) % key.n();
            let ck_c = ColumnKeyAlgebra::multiply(&key, &ck_a, &ck_b);
            black_box((c_e, ck_c))
        })
    });
    group.bench_function("plaintext_multiply", |bencher| {
        bencher.iter(|| black_box(black_box(a_plain) * black_box(b_plain)))
    });
    group.finish();

    // --- addition -----------------------------------------------------------
    let params_a = KeyUpdateParams::compute(&key, &ck_a, &ck_s, &ck_t).unwrap();
    let params_b = KeyUpdateParams::compute(&key, &ck_b, &ck_s, &ck_t).unwrap();
    let mut group = c.benchmark_group("add");
    group.bench_function("sdb_key_update_and_add", |bencher| {
        bencher.iter(|| {
            let a_t = params_a.apply(key.n(), &a_e, &s_e);
            let b_t = params_b.apply(key.n(), &b_e, &s_e);
            black_box((a_t + b_t) % key.n())
        })
    });
    let paillier_a = {
        let mut local = StdRng::seed_from_u64(11);
        paillier.encrypt(&mut local, &BigUint::from(a_plain as u64))
    };
    let paillier_b = {
        let mut local = StdRng::seed_from_u64(12);
        paillier.encrypt(&mut local, &BigUint::from(b_plain as u64))
    };
    group.bench_function("paillier_homomorphic_add", |bencher| {
        bencher.iter(|| black_box(paillier.add(&paillier_a, &paillier_b)))
    });
    group.bench_function("plaintext_add", |bencher| {
        bencher.iter(|| black_box(black_box(a_plain) + black_box(b_plain)))
    });
    group.finish();

    // --- comparison ---------------------------------------------------------
    let mut group = c.benchmark_group("compare");
    group.bench_function("sdb_blind_ship_and_sign", |bencher| {
        let mut local = StdRng::seed_from_u64(13);
        bencher.iter(|| {
            // SP side: blind the (already computed) difference share.
            let factor: u64 = local.gen_range(1..(1u64 << 30));
            let blinded = (&a_e * BigUint::from(factor)) % key.n();
            // DO side: derive the item key, decrypt, take the sign.
            let ik = gen_item_key(&key, &ck_a, &row);
            black_box(codec.sign(&decrypt_value(&key, &blinded, &ik)))
        })
    });
    let ope_a = ope.encrypt(a_plain as i128);
    let ope_b = ope.encrypt(b_plain as i128);
    group.bench_function("onion_ope_compare", |bencher| {
        bencher.iter(|| black_box(black_box(ope_a) > black_box(ope_b)))
    });
    group.bench_function("plaintext_compare", |bencher| {
        bencher.iter(|| black_box(black_box(a_plain) > black_box(b_plain)))
    });
    group.finish();
}

/// A 16-column table shaped like an uploaded one: four plain columns and
/// twelve 512-bit shares per row.
fn wide_encrypted_table(rows: i64) -> sdb_storage::Table {
    use sdb_storage::{ColumnDef, DataType, Schema, Table, Value};
    let mut defs = vec![ColumnDef::public("id", DataType::Int)];
    defs.extend((0..3).map(|i| ColumnDef::public(&format!("p{i}"), DataType::Int)));
    defs.extend((0..12).map(|i| ColumnDef::sensitive(&format!("e{i}"), DataType::Encrypted)));
    let mut table = Table::new("wide", Schema::new(defs));
    let mut rng = StdRng::seed_from_u64(13);
    for id in 0..rows {
        let mut row = vec![Value::Int(id); 4];
        row.extend((0..12).map(|_| {
            let bytes: Vec<u8> = (0..64).map(|_| rng.gen()).collect();
            Value::Encrypted(BigUint::from_bytes_le(&bytes))
        }));
        table.insert_row(row).expect("row matches the schema");
    }
    table
}

fn scan_pruning(c: &mut Criterion) {
    const ROWS: i64 = 16_384;
    let engine = sdb_engine::SpEngine::new().with_parallelism(1);
    engine
        .load_table(wide_encrypted_table(ROWS))
        .expect("load wide");
    let half = ROWS / 2;

    let mut group = c.benchmark_group("scan_pruning");
    for (name, select) in [
        ("query_references_1_of_16", "id"),
        ("query_references_4_of_16", "id, e0, e1, e2"),
        ("query_references_16_of_16", "*"),
    ] {
        let sql = format!("SELECT {select} FROM wide WHERE id < {half}");
        group.bench_function(name, |bencher| {
            bencher.iter(|| black_box(engine.execute_sql(black_box(&sql)).expect("query")))
        });
    }
    let batch = engine.catalog().table("wide").expect("loaded");
    let batch = batch.read().scan().limit(4096);
    group.bench_function("clone_4096_rows", |bencher| {
        bencher.iter(|| black_box(black_box(&batch).clone()))
    });
    group.bench_function("slice_4096_rows", |bencher| {
        bencher.iter(|| black_box(black_box(&batch).slice(1024, 2048).expect("in range")))
    });
    group.finish();
}

fn query_setup(c: &mut Criterion) {
    use sdb_engine::{ExecConfig, ExecContext, QueryOptions, SpEngine, UdfRegistry};
    let engine = SpEngine::new();
    engine
        .execute_sql("CREATE TABLE one (id INT, v INT)")
        .expect("create");
    engine
        .execute_sql("INSERT INTO one VALUES (1, 10)")
        .expect("insert");
    let registry = UdfRegistry::with_sdb_udfs();
    let config = ExecConfig::default();
    let serial = QueryOptions::default().with_parallelism(1);

    let mut group = c.benchmark_group("query_setup");
    group.bench_function("exec_context_from_config", |bencher| {
        bencher.iter(|| {
            black_box(ExecContext::new(
                engine.catalog(),
                &registry,
                None,
                config.clone(),
                None,
                None,
            ))
        })
    });
    group.bench_function("one_row_select_parallelism_1", |bencher| {
        bencher.iter(|| {
            black_box(
                engine
                    .execute_sql_with("SELECT v FROM one WHERE id = 1", &serial)
                    .expect("query"),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = micro, scan_pruning, query_setup
}
criterion_main!(benches);
