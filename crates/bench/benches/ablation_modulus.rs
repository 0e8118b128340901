//! Experiment E8 (ablation): how the modulus size affects the cost of the core
//! secure operators. The paper's prototype fixes 1024-bit primes (2048-bit n);
//! this sweep shows what that parameter buys and costs, and what the Montgomery
//! context of the modulus (`sdb_crypto::Modulus`) buys at each width against the
//! `BigUint` reference it replaced (`(a·b) % n`, binary `modpow`): n = 256, 512
//! and 2048 run the monomorphised 4-, 8- and 32-limb kernels, n = 1024 the
//! slice path.
//!
//! The `key_update_set` group prices one row of a key-update set (1, 2, 4 and
//! 7 updates of one auxiliary share, the last with a `p, p−1, p−2` run as in
//! rewritten Q1) against the same updates bound and applied one by one.
//!
//! The `key_update_rows` group raises four rows of a set one, two or four at
//! a time in lockstep; the `item_keys` group derives a column of item keys row
//! by row and in lockstep.
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
use sdb_crypto::{gen_item_keys, BoundKeyUpdateSet, KeyConfig, SignedCodec, SystemKey};

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
/// against `gen_item_keys`, which runs the fixed-base table over several rows
/// in lockstep.
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
    targets = modulus_sweep, key_update_set, key_update_rows, item_keys, inverse
}
criterion_main!(benches);
