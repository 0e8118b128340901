//! Property-based tests for the secret-sharing scheme's algebraic invariants.
//!
//! These use a fixed TEST-profile system key (generated once per process) so each
//! case is cheap, while the *values*, row ids and column keys vary per case.

use num_bigint::BigUint;
use num_traits::One;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

use sdb_crypto::share::{
    decrypt_value, encrypt_value, gen_item_key, ColumnKeyAlgebra, KeyUpdateMemo, KeyUpdateParams,
};
use sdb_crypto::{mod_inverse_batch, ColumnKey, KeyConfig, SignedCodec, SystemKey};

fn system_key() -> &'static SystemKey {
    static KEY: OnceLock<SystemKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xabcdef);
        SystemKey::generate(&mut rng, KeyConfig::TEST).expect("key generation")
    })
}

/// Deterministically derives a column key / row id from a seed so proptest can
/// shrink over the seed.
fn column_key_from_seed(key: &SystemKey, seed: u64) -> ColumnKey {
    let mut rng = StdRng::seed_from_u64(seed);
    key.gen_column_key(&mut rng)
}

fn aux_key_from_seed(key: &SystemKey, seed: u64) -> ColumnKey {
    let mut rng = StdRng::seed_from_u64(seed);
    key.gen_aux_column_key(&mut rng)
}

fn row_id_from_seed(key: &SystemKey, seed: u64) -> BigUint {
    let mut rng = StdRng::seed_from_u64(seed);
    key.gen_row_id(&mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// D(E(v)) = v for arbitrary in-domain values, keys and row ids.
    #[test]
    fn encryption_roundtrip(v in 0u64..u64::MAX / 4, ck_seed in any::<u64>(), r_seed in any::<u64>()) {
        let key = system_key();
        let ck = column_key_from_seed(key, ck_seed);
        let r = row_id_from_seed(key, r_seed);
        let ik = gen_item_key(key, &ck, &r);
        let ve = encrypt_value(key, &BigUint::from(v), &ik);
        prop_assert_eq!(decrypt_value(key, &ve, &ik), BigUint::from(v));
    }

    /// The EE multiplication protocol is correct for arbitrary operand pairs.
    #[test]
    fn ee_multiplication_correct(a in 0u64..1 << 20, b in 0u64..1 << 20,
                                 ck_a_seed in any::<u64>(), ck_b_seed in any::<u64>(),
                                 r_seed in any::<u64>()) {
        let key = system_key();
        let ck_a = column_key_from_seed(key, ck_a_seed);
        let ck_b = column_key_from_seed(key, ck_b_seed.wrapping_add(1)); // avoid identical keys
        let r = row_id_from_seed(key, r_seed);

        let a_e = encrypt_value(key, &BigUint::from(a), &gen_item_key(key, &ck_a, &r));
        let b_e = encrypt_value(key, &BigUint::from(b), &gen_item_key(key, &ck_b, &r));
        let c_e = (&a_e * &b_e) % key.n();

        let ck_c = ColumnKeyAlgebra::multiply(key, &ck_a, &ck_b);
        let ik_c = gen_item_key(key, &ck_c, &r);
        prop_assert_eq!(decrypt_value(key, &c_e, &ik_c), BigUint::from(a) * BigUint::from(b));
    }

    /// Key update re-encrypts to the target key for arbitrary source/target keys.
    #[test]
    fn key_update_correct(v in 0u64..u64::MAX / 4,
                          src_seed in any::<u64>(), aux_seed in any::<u64>(),
                          tgt_seed in any::<u64>(), r_seed in any::<u64>()) {
        let key = system_key();
        let ck_src = column_key_from_seed(key, src_seed);
        let ck_aux = aux_key_from_seed(key, aux_seed);
        let ck_tgt = column_key_from_seed(key, tgt_seed.wrapping_mul(31).wrapping_add(7));
        let r = row_id_from_seed(key, r_seed);

        let params = KeyUpdateParams::compute(key, &ck_src, &ck_aux, &ck_tgt).unwrap();
        let v_e = encrypt_value(key, &BigUint::from(v), &gen_item_key(key, &ck_src, &r));
        let s_e = encrypt_value(key, &BigUint::one(), &gen_item_key(key, &ck_aux, &r));
        let v_e_new = params.apply(key.n(), &v_e, &s_e);
        let ik_tgt = gen_item_key(key, &ck_tgt, &r);
        prop_assert_eq!(decrypt_value(key, &v_e_new, &ik_tgt), BigUint::from(v));
    }

    /// The DO memo's `(p, q)` with the targets' `m_T⁻¹` inverted in one batch
    /// by the caller is `compute`'s pair, for a general target, a
    /// row-independent one and the auxiliary key itself; with an auxiliary
    /// `m_S` that has no inverse, exactly where `compute` fails.
    #[test]
    fn memo_params_with_batched_target_inverses_match_compute(
        src_seed in any::<u64>(), aux_seed in any::<u64>(), tgt_seed in any::<u64>(),
        odd_aux in any::<bool>(),
    ) {
        let key = system_key();
        let memo = KeyUpdateMemo::default();
        let source = column_key_from_seed(key, src_seed);
        let mut aux = aux_key_from_seed(key, aux_seed);
        if odd_aux {
            aux = ColumnKey::new(key.n().clone(), aux.x().clone());
        }
        let mut rng = StdRng::seed_from_u64(tgt_seed);
        let drawn = [
            key.gen_column_key(&mut rng),
            ColumnKeyAlgebra::row_independent_target(key, &mut rng),
        ];
        let ms: Vec<BigUint> = drawn.iter().map(|t| t.m().clone()).collect();
        let inverses = mod_inverse_batch(&ms, key.n()).unwrap();
        let targets = [
            (&drawn[0], Some(&inverses[0])),
            (&drawn[1], Some(&inverses[1])),
            (&aux, None),
        ];
        for _round in 0..2 {
            for (target, inverse) in targets {
                let memoised = memo.params(key, &source, &aux, target, inverse);
                let textbook = KeyUpdateParams::compute(key, &source, &aux, target);
                match (memoised, textbook) {
                    (Ok(m), Ok(t)) => prop_assert_eq!(m, t),
                    (Err(_), Err(_)) => prop_assert!(odd_aux && target == &aux),
                    (m, t) => prop_assert!(false, "memo {:?} vs compute {:?}", m.is_ok(), t.is_ok()),
                }
            }
        }
    }

    /// EE addition (after key unification) is correct including for signed operands.
    #[test]
    fn ee_signed_addition_correct(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000,
                                  seeds in any::<(u64, u64, u64, u64)>()) {
        let key = system_key();
        let codec = SignedCodec::new(key);
        let (sa, sb, saux, sr) = seeds;
        let ck_a = column_key_from_seed(key, sa);
        let ck_b = column_key_from_seed(key, sb.wrapping_add(13));
        let ck_aux = aux_key_from_seed(key, saux);
        let ck_t = column_key_from_seed(key, sr.wrapping_mul(7).wrapping_add(3));
        let r = row_id_from_seed(key, sr);

        let pa = KeyUpdateParams::compute(key, &ck_a, &ck_aux, &ck_t).unwrap();
        let pb = KeyUpdateParams::compute(key, &ck_b, &ck_aux, &ck_t).unwrap();

        let a_e = encrypt_value(key, &codec.encode(a as i128).unwrap(), &gen_item_key(key, &ck_a, &r));
        let b_e = encrypt_value(key, &codec.encode(b as i128).unwrap(), &gen_item_key(key, &ck_b, &r));
        let s_e = encrypt_value(key, &BigUint::one(), &gen_item_key(key, &ck_aux, &r));

        let sum_e = (pa.apply(key.n(), &a_e, &s_e) + pb.apply(key.n(), &b_e, &s_e)) % key.n();
        let ik_t = gen_item_key(key, &ck_t, &r);
        let decoded = codec.decode(&decrypt_value(key, &sum_e, &ik_t)).unwrap();
        prop_assert_eq!(decoded, (a + b) as i128);
    }

    /// Signed codec: encode/decode roundtrip and sign correctness.
    #[test]
    fn signed_codec_roundtrip(v in -(1i128 << 40)..(1i128 << 40)) {
        let key = system_key();
        let codec = SignedCodec::new(key);
        let enc = codec.encode(v).unwrap();
        prop_assert_eq!(codec.decode(&enc).unwrap(), v);
        prop_assert_eq!(codec.sign(&enc) as i128, v.signum());
    }

    /// Blinding by a positive factor preserves sign and zero-ness.
    #[test]
    fn blinding_preserves_sign(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000,
                               blind in 1u64..(1 << 20)) {
        let key = system_key();
        let codec = SignedCodec::new(key);
        let d = codec.encode((a - b) as i128).unwrap();
        let blinded = (&d * BigUint::from(blind)) % key.n();
        prop_assert_eq!(codec.sign(&blinded) as i32, (a - b).signum() as i32);
    }

    /// The row-id cipher roundtrips arbitrary byte strings and rejects tampering.
    #[test]
    fn sies_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256), key_seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(key_seed);
        let cipher = sdb_crypto::SiesCipher::from_master(&mut rng);
        let ct = cipher.encrypt_bytes(&mut rng, &data);
        prop_assert_eq!(cipher.decrypt_bytes(&ct).unwrap(), data.clone());
        if !data.is_empty() {
            let mut tampered = ct.clone();
            tampered.body[0] ^= 0xff;
            prop_assert!(cipher.decrypt_bytes(&tampered).is_err());
        }
    }
}

/// A modulus-sized odd value of exactly `bits` bits, drawn from `seed`.
fn modulus_of_bits(bits: u64, seed: u64) -> BigUint {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes: Vec<u8> = (0..bits.div_ceil(8)).map(|_| rng.gen()).collect();
    bytes[0] |= 1;
    let top = (bits - 1) % 8;
    let last = bytes.len() - 1;
    bytes[last] = (bytes[last] & ((1u16 << (top + 1)) - 1) as u8) | (1 << top);
    BigUint::from_bytes_le(&bytes)
}

/// A share field as payloads carry one.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Wired {
    #[serde(with = "sdb_crypto::wire::share")]
    share: BigUint,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shares survive the wire encoding at 64, 512 and 2048 bits: 0, 1,
    /// n − 1, a random residue and residues whose high bytes are zero; the
    /// text is minimal base64 and one zero byte more is refused.
    #[test]
    fn shares_round_trip_the_wire_encoding(seed in any::<u64>(), shift in 1u64..256) {
        use sdb_crypto::wire::share;
        for bits in [64u64, 512, 2048] {
            let n = modulus_of_bits(bits, seed ^ bits);
            let residue = modulus_of_bits(bits, seed.wrapping_add(bits)) % &n;
            let shares = [
                BigUint::from(0u32),
                BigUint::one(),
                &n - BigUint::one(),
                residue.clone(),
                &residue >> (shift * 8 % bits),
                &residue >> (bits - 8),
            ];
            for value in shares {
                let text = share::to_text(&value);
                prop_assert_eq!(text.len(), (value.bits().div_ceil(8) as usize).div_ceil(3) * 4);
                let mut padded = if value.bits() == 0 { Vec::new() } else { value.to_bytes_le() };
                padded.push(0);
                let padded = format!("{{\"share\":\"{}\"}}", sdb_crypto::wire::encode(&padded));
                prop_assert!(serde_json::from_str::<Wired>(&padded).is_err());
                let wired = Wired { share: value };
                let json = serde_json::to_string(&wired).unwrap();
                prop_assert_eq!(&json, &format!("{{\"share\":\"{text}\"}}"));
                prop_assert_eq!(serde_json::from_str::<Wired>(&json).unwrap(), wired);
            }
        }
    }

    /// Row-id ciphertexts survive serde as one base64 string of
    /// `nonce ‖ tag ‖ body`; cut or extended strings are refused, not a panic.
    #[test]
    fn row_id_ciphertexts_round_trip_the_wire_encoding(
        data in proptest::collection::vec(any::<u8>(), 0..300), key_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(key_seed);
        let cipher = sdb_crypto::SiesCipher::from_master(&mut rng);
        let ct = cipher.encrypt_bytes(&mut rng, &data);
        let json = serde_json::to_string(&ct).unwrap();
        prop_assert_eq!(json.len(), 2 + ct.size_bytes().div_ceil(3) * 4);
        let back: sdb_crypto::sies::SiesCiphertext = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &ct);
        prop_assert_eq!(cipher.decrypt_bytes(&back).unwrap(), data.clone());
        let text = &json[1..json.len() - 1];
        // One or two symbols short, or a whole group short of the header.
        for cut in [text.len() - 1, text.len() - 2, 20] {
            let cut = format!("\"{}\"", &text[..cut]);
            prop_assert!(serde_json::from_str::<sdb_crypto::sies::SiesCiphertext>(&cut).is_err());
        }
        let extended = format!("\"{text}A\"");
        prop_assert!(serde_json::from_str::<sdb_crypto::sies::SiesCiphertext>(&extended).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Blinding a column a lane at a time gives `share·factor mod n` on
    /// `BigUint` at 256, 512, 1024 and 2048 bits: random shares and
    /// factors plus the edges — shares 0, 1, n − 1 and n + 1 (unreduced),
    /// factors 1 and 2³⁰ − 1 — with the shares one limb wider than `n`.
    #[test]
    fn lane_blinding_matches_the_biguint_product(seed in any::<u64>(), factor in 1u64..(1 << 30)) {
        let mut rng = StdRng::seed_from_u64(seed);
        for bits in [256u64, 512, 1024, 2048] {
            let n = modulus_of_bits(bits, seed ^ bits);
            let k = n.iter_u64_digits().len();
            let shares = [
                BigUint::from(0u32),
                BigUint::one(),
                &n - BigUint::one(),
                &n + BigUint::one(),
                modulus_of_bits(bits, seed.wrapping_add(bits)) % &n,
                modulus_of_bits(bits - 60, seed.wrapping_mul(3) ^ bits),
            ];
            let factors: Vec<u64> = [1, (1 << 30) - 1, factor]
                .into_iter()
                .chain(std::iter::repeat_with(|| rng.gen_range(1..(1u64 << 30))))
                .take(shares.len() * 2)
                .collect();
            let width = k + 1;
            let mut words = Vec::new();
            for share in shares.iter().chain(&shares) {
                let start = words.len();
                words.extend(share.iter_u64_digits());
                words.resize(start + width, 0);
            }
            let blinded = sdb_crypto::blind_limbs(&n, width, &words, &factors);
            prop_assert_eq!(blinded.len(), factors.len() * k);
            for (row, (share, &factor)) in shares.iter().chain(&shares).zip(&factors).enumerate() {
                let mut limbs = blinded[row * k..(row + 1) * k].to_vec();
                while limbs.last() == Some(&0) {
                    limbs.pop();
                }
                let expected: Vec<u64> = ((share * BigUint::from(factor)) % &n).iter_u64_digits().collect();
                prop_assert_eq!(limbs, expected, "{} bits, row {}", bits, row);
            }
        }
    }
}
