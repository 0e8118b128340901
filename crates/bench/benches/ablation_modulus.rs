//! Experiment E8 (ablation): how the modulus size affects the cost of the core
//! secure operators. The paper's prototype fixes 1024-bit primes (2048-bit n);
//! this sweep shows what that parameter buys and costs, and what the Montgomery
//! context of the modulus (`sdb_crypto::Modulus`) buys at each width against the
//! `BigUint` reference it replaced (`(a·b) % n`, binary `modpow`): n = 256,
//! 512, 1024 and 2048 run the monomorphised 4-, 8-, 16- and 32-limb kernels
//! (and the data owner's powers of `g` their 2-, 4-, 8- and 16-limb halves).
//!
//! The `key_update_set` group prices one row of a key-update set (1, 2, 4 and
//! 7 updates of one auxiliary share, the last with a `p, p−1, p−2` run as in
//! rewritten Q1) against the same updates bound and applied one by one.
//!
//! The `key_update_rows` group raises four rows of a set one, two or four at
//! a time in lockstep; the `item_keys` group derives a column of item keys row
//! by row and in lockstep. The `encrypt` group encrypts a column as uploads
//! and INSERTs do (`encrypt_column`: half-width powers to the complement
//! exponent, no inversion) next to item keys, their simultaneous inversion and
//! a product a cell.
//!
//! The `fresh_x` group prices the data owner's item-key memo
//! (`sdb_crypto::ItemKeyMemo`) on the same column: a cold memo that derives
//! and stores every row, a warm one that serves every row with one
//! multiplication, and a stream of requests each under an `x` the memo never
//! admitted — the bypass, which costs what `gen_item_keys` does.
//!
//! The `fresh_exponents` group runs a stream of key-update queries through
//! one `SpEngine`, each with an exponent no earlier query used: the workload
//! the engine's power memo never admits, so it prices the memo's bypass
//! (planning-time sightings only) against the powers themselves.
//!
//! The `inverse` group prices the data owner's two inversions of a key
//! update — `m_T⁻¹ mod n` (odd) and `x_S⁻¹ mod φ(n)` (even) — through the
//! fixed-width kernel behind `bigint::mod_inverse`, next to the `num-bigint`
//! extended Euclid it replaced (timed here only; the library keeps it as a
//! test reference).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use num_bigint::{BigInt, BigUint, Sign};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use sdb_crypto::bigint::{mod_inverse, mod_mul};
use sdb_crypto::share::{encrypt_value, gen_item_key, KeyUpdateParams};
use sdb_crypto::{
    encrypt_column, gen_item_keys, mod_inverse_batch, BoundKeyUpdateSet, ColumnKey, ItemKeyMemo,
    KeyConfig, SignedCodec, SystemKey,
};
use sdb_engine::{ExecConfig, SpEngine};
use sdb_storage::{Catalog, ColumnDef, DataType, Schema, Value};

/// prime_bits → modulus of ~2×prime_bits.
fn profiles() -> [(&'static str, KeyConfig); 4] {
    [
        (
            "n=256",
            KeyConfig {
                prime_bits: 128,
                domain_bits: 40,
                blind_bits: 20,
            },
        ),
        (
            "n=512",
            KeyConfig {
                prime_bits: 256,
                domain_bits: 62,
                blind_bits: 30,
            },
        ),
        (
            "n=1024",
            KeyConfig {
                prime_bits: 512,
                domain_bits: 62,
                blind_bits: 30,
            },
        ),
        ("n=2048", KeyConfig::PAPER),
    ]
}

fn modulus_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_modulus");
    for (label, config) in profiles() {
        let mut rng = StdRng::seed_from_u64(0xab1a);
        let key = SystemKey::generate(&mut rng, config).expect("key generation");
        let codec = SignedCodec::new(&key);
        let ck_a = key.gen_column_key(&mut rng);
        let ck_b = key.gen_column_key(&mut rng);
        let ck_s = key.gen_aux_column_key(&mut rng);
        let ck_t = key.gen_column_key(&mut rng);
        let row = key.gen_row_id(&mut rng);
        let ik_a = gen_item_key(&key, &ck_a, &row);
        let ik_b = gen_item_key(&key, &ck_b, &row);
        let ik_s = gen_item_key(&key, &ck_s, &row);
        let a_e = encrypt_value(&key, &codec.encode(123_456).unwrap(), &ik_a);
        let b_e = encrypt_value(&key, &codec.encode(789).unwrap(), &ik_b);
        let s_e = encrypt_value(&key, &BigUint::from(1u32), &ik_s);
        let params = KeyUpdateParams::compute(&key, &ck_a, &ck_s, &ck_t).unwrap();

        group.bench_with_input(
            BenchmarkId::new("item_key_generation", label),
            &key,
            |b, key| b.iter(|| black_box(gen_item_key(key, &ck_a, &row))),
        );
        group.bench_with_input(BenchmarkId::new("ee_multiply", label), &key, |b, key| {
            b.iter(|| black_box(mod_mul(&a_e, &b_e, key.n())))
        });
        group.bench_with_input(BenchmarkId::new("key_update", label), &key, |b, key| {
            b.iter(|| black_box(params.apply(key.n(), &a_e, &s_e)))
        });

        // The context itself, next to the reference it replaced.
        let context = key.modulus();
        let bound = params.bind(key.n());
        group.bench_with_input(BenchmarkId::new("reference_mul", label), &key, |b, key| {
            b.iter(|| black_box((&a_e * &b_e) % key.n()))
        });
        group.bench_with_input(BenchmarkId::new("context_pow", label), &key, |b, _| {
            b.iter(|| black_box(context.pow(&s_e, &params.p)))
        });
        group.bench_with_input(BenchmarkId::new("reference_pow", label), &key, |b, key| {
            b.iter(|| black_box(s_e.modpow(&params.p, key.n())))
        });
        group.bench_with_input(BenchmarkId::new("bound_key_update", label), &key, |b, _| {
            b.iter(|| black_box(bound.apply(&a_e, &s_e)))
        });
    }
    group.finish();
}

fn key_update_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("key_update_set");
    for (label, config) in profiles() {
        let mut rng = StdRng::seed_from_u64(0xab1b);
        let key = SystemKey::generate(&mut rng, config).expect("key generation");
        let ck_s = key.gen_aux_column_key(&mut rng);
        let row = key.gen_row_id(&mut rng);
        let one = BigUint::from(1u32);
        let s_e = encrypt_value(&key, &one, &gen_item_key(&key, &ck_s, &row));
        let a_e = encrypt_value(
            &key,
            &BigUint::from(42u32),
            &gen_item_key(&key, &key.gen_column_key(&mut rng), &row),
        );
        // Seven updates in four families: p0, p1, p2, p3 and the neighbours
        // p0−1, p0−2, p3−1.
        let mut updates: Vec<KeyUpdateParams> = (0..4)
            .map(|_| {
                let (source, target) = (key.gen_column_key(&mut rng), key.gen_column_key(&mut rng));
                KeyUpdateParams::compute(&key, &source, &ck_s, &target).unwrap()
            })
            .collect();
        for (family, below) in [(0, 1u32), (0, 2), (3, 1)] {
            updates.push(KeyUpdateParams {
                p: &updates[family].p - BigUint::from(below),
                q: updates[family].q.clone(),
            });
        }
        for members in [1, 2, 4, 7] {
            let updates = &updates[..members];
            let set = BoundKeyUpdateSet::bind(key.n(), updates).expect("odd modulus");
            let mut powers = vec![0u64; set.row_limbs()];
            let id = format!("{label}/k={members}");
            group.bench_function(BenchmarkId::new("set", &id), |b| {
                b.iter(|| {
                    set.fill_rows(&[&s_e], &mut powers);
                    for member in 0..members {
                        black_box(set.apply(member, &a_e, &powers));
                    }
                })
            });
            let bound: Vec<_> = updates.iter().map(|u| u.bind(key.n())).collect();
            group.bench_function(BenchmarkId::new("independent", &id), |b| {
                b.iter(|| {
                    for update in &bound {
                        black_box(update.apply(&a_e, &s_e));
                    }
                })
            });
        }
    }
    group.finish();
}

/// Four rows of a key-update set raised one, two or four at a time in
/// lockstep (`BoundKeyUpdateSet::fill_rows`), for sets of 1, 2 and 7 heads:
/// every id does the same work, so the times compare directly. What
/// `BoundKeyUpdateSet::block_rows` is set to at each width comes from here.
fn key_update_rows(c: &mut Criterion) {
    const ROWS: usize = 4;
    let mut group = c.benchmark_group("key_update_rows");
    for (label, config) in profiles() {
        let mut rng = StdRng::seed_from_u64(0xab1d);
        let key = SystemKey::generate(&mut rng, config).expect("key generation");
        let ck_s = key.gen_aux_column_key(&mut rng);
        let shares: Vec<BigUint> = (0..ROWS)
            .map(|_| {
                let item_key = gen_item_key(&key, &ck_s, &key.gen_row_id(&mut rng));
                encrypt_value(&key, &BigUint::from(1u32), &item_key)
            })
            .collect();
        let shares: Vec<&BigUint> = shares.iter().collect();
        let updates: Vec<KeyUpdateParams> = (0..7)
            .map(|_| {
                let (source, target) = (key.gen_column_key(&mut rng), key.gen_column_key(&mut rng));
                KeyUpdateParams::compute(&key, &source, &ck_s, &target).unwrap()
            })
            .collect();
        for heads in [1, 2, 7] {
            let set = BoundKeyUpdateSet::bind(key.n(), &updates[..heads]).expect("odd modulus");
            assert_eq!(set.heads(), heads);
            for block in [1, 2, 4] {
                let mut powers = vec![0u64; block * set.row_limbs()];
                let id = format!("{label}/heads={heads}/rows={block}");
                group.bench_function(BenchmarkId::new("fill_4_rows", &id), |b| {
                    b.iter(|| {
                        for rows in shares.chunks(block) {
                            set.fill_rows(rows, &mut powers);
                            black_box(&powers);
                        }
                    })
                });
            }
        }
    }
    group.finish();
}

/// A column of 64 item keys under one column key: `gen_item_key` row by row
/// against `gen_item_keys`, which runs the fixed-base tables of the two
/// primes' halves over several rows in lockstep.
fn item_keys(c: &mut Criterion) {
    let mut group = c.benchmark_group("item_keys");
    for (label, config) in profiles() {
        let mut rng = StdRng::seed_from_u64(0xab1e);
        let key = SystemKey::generate(&mut rng, config).expect("key generation");
        let ck = key.gen_column_key(&mut rng);
        let row_ids: Vec<BigUint> = (0..64).map(|_| key.gen_row_id(&mut rng)).collect();
        group.bench_function(BenchmarkId::new("per_row_64", label), |b| {
            b.iter(|| {
                for row in &row_ids {
                    black_box(gen_item_key(&key, &ck, row));
                }
            })
        });
        group.bench_function(BenchmarkId::new("lockstep_64", label), |b| {
            b.iter(|| black_box(gen_item_keys(&key, &ck, &row_ids)))
        });
    }
    group.finish();
}

/// A column of 64 cells under one column key, row ids reduced included:
/// `encrypt_column` against `gen_item_keys`, `mod_inverse_batch` and one
/// product a cell, the way a column was encrypted before it stopped
/// inverting item keys.
fn encrypt(c: &mut Criterion) {
    let mut group = c.benchmark_group("encrypt");
    for (label, config) in profiles() {
        let mut rng = StdRng::seed_from_u64(0xab1f);
        let key = SystemKey::generate(&mut rng, config).expect("key generation");
        let codec = SignedCodec::new(&key);
        let ck = key.gen_column_key(&mut rng);
        let cipher = key.column_cipher(&ck).expect("m is a unit");
        let row_ids: Vec<BigUint> = (0..64).map(|_| key.gen_row_id(&mut rng)).collect();
        let plain: Vec<BigUint> = (0..64i128)
            .map(|i| codec.encode(i * 7_919 - 200_000).unwrap())
            .collect();
        group.bench_function(BenchmarkId::new("encrypt_column_64", label), |b| {
            b.iter(|| {
                let rows = key.row_exponents(row_ids.iter());
                black_box(encrypt_column(&key, &cipher, &rows, 0..64, plain.iter()))
            })
        });
        group.bench_function(BenchmarkId::new("invert_item_keys_64", label), |b| {
            b.iter(|| {
                let item_keys = gen_item_keys(&key, &ck, &row_ids);
                let inverses = mod_inverse_batch(&item_keys, key.n()).unwrap();
                let cells: Vec<BigUint> = (plain.iter().zip(&inverses))
                    .map(|(v, inverse)| key.modulus().mul(v, inverse))
                    .collect();
                black_box(cells)
            })
        });
    }
    group.finish();
}

/// The same 64-row column through the item-key memo at 256, 512 and 2048
/// bits: cold (a fresh memo admitting the key), warm (every row a hit), and
/// a stream of keys with an `x` of their own (never admitted).
fn fresh_x(c: &mut Criterion) {
    let mut group = c.benchmark_group("fresh_x");
    let [small, mid, _, paper] = profiles();
    for (label, config) in [small, mid, paper] {
        let mut rng = StdRng::seed_from_u64(0xab1e);
        let key = SystemKey::generate(&mut rng, config).expect("key generation");
        let ck = key.gen_column_key(&mut rng);
        let row_ids: Vec<BigUint> = (0..64).map(|_| key.gen_row_id(&mut rng)).collect();
        let admitting = || {
            let memo = ItemKeyMemo::default();
            memo.admit(ck.x());
            memo.grow(row_ids.len());
            memo
        };
        group.bench_function(BenchmarkId::new("cold_64", label), |b| {
            b.iter(|| black_box(admitting().item_keys(&key, &ck, &row_ids)))
        });
        let warm = admitting();
        warm.item_keys(&key, &ck, &row_ids);
        group.bench_function(BenchmarkId::new("hit_64", label), |b| {
            b.iter(|| black_box(warm.item_keys(&key, &ck, &row_ids)))
        });
        let mut x = ck.x().clone();
        group.bench_function(BenchmarkId::new("fresh_x_64", label), |b| {
            b.iter(|| {
                x += BigUint::from(1u32);
                let fresh = ColumnKey::new(ck.m().clone(), x.clone());
                black_box(warm.item_keys(&key, &fresh, &row_ids))
            })
        });
    }
    group.finish();
}

/// 64 rows of random shares at 512 bits, each query re-keyed with an
/// exponent of its own: every run raises all 64 rows.
fn fresh_exponents(c: &mut Criterion) {
    let mut group = c.benchmark_group("fresh_exponents");
    let (_, config) = profiles()[1];
    let mut rng = StdRng::seed_from_u64(0xab1f);
    let key = SystemKey::generate(&mut rng, config).expect("key generation");
    let n = key.n();
    let catalog = Catalog::new();
    let table = catalog
        .create_table(
            "t",
            Schema::new(vec![
                ColumnDef::sensitive("a", DataType::Encrypted),
                ColumnDef::sensitive("sdb_s", DataType::Encrypted),
            ]),
        )
        .expect("table");
    for _ in 0..64 {
        let share = |rng: &mut StdRng| Value::Encrypted(key.gen_row_id(rng) % n);
        let row = vec![share(&mut rng), share(&mut rng)];
        table.write().insert_row(row).expect("row");
    }
    let engine = SpEngine::with_catalog(std::sync::Arc::new(catalog)).with_config(ExecConfig {
        parallelism: 1,
        ..ExecConfig::default()
    });
    let q = key.gen_row_id(&mut rng) % n;
    let mut p = key.gen_row_id(&mut rng);
    group.bench_function(BenchmarkId::new("query_64_rows", "n=512"), |b| {
        b.iter(|| {
            p += BigUint::from(1u64 << 20);
            let sql = format!("SELECT SDB_KEY_UPDATE(a, sdb_s, '{p}', '{q}', '{n}') FROM t");
            black_box(engine.execute_sql(&sql).expect("key update"))
        })
    });
    group.finish();
}

/// `a⁻¹ mod m` by the shim's extended Euclid, as `mod_inverse` ran before.
fn euclid_inverse(a: &BigUint, m: &BigUint) -> BigUint {
    let m = BigInt::from_biguint(Sign::Plus, m.clone());
    let ext = BigInt::from_biguint(Sign::Plus, a.clone()).extended_gcd(&m);
    assert!(ext.gcd == BigInt::one(), "not invertible");
    let mut x = ext.x % &m;
    if x.sign() == Sign::Minus {
        x += &m;
    }
    x.to_biguint().expect("normalised")
}

fn inverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("inverse");
    for (label, config) in profiles() {
        let mut rng = StdRng::seed_from_u64(0xab1c);
        let key = SystemKey::generate(&mut rng, config).expect("key generation");
        // What a key update inverts: a target's `m` modulo n, the auxiliary
        // column's `x` modulo φ(n).
        let m_t = key.gen_column_key(&mut rng).m().clone();
        let x_s = key.gen_aux_column_key(&mut rng).x().clone();
        for (name, a, m) in [("n", &m_t, key.n()), ("phi", &x_s, key.phi())] {
            let kernel = mod_inverse(a, m).expect("invertible");
            assert_eq!(kernel, euclid_inverse(a, m), "{name} at {label}");
            group.bench_function(BenchmarkId::new(format!("kernel_{name}"), label), |b| {
                b.iter(|| black_box(mod_inverse(a, m)))
            });
            group.bench_function(BenchmarkId::new(format!("reference_{name}"), label), |b| {
                b.iter(|| black_box(euclid_inverse(a, m)))
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = modulus_sweep, key_update_set, key_update_rows, item_keys, encrypt, fresh_x, fresh_exponents, inverse
}
criterion_main!(benches);
