//! Column-at-a-time batched variants of the scalar share operations.
//!
//! The scalar [`crate::encrypt_value`] pays one extended-GCD modular
//! inversion of its item key. [`encrypt_column`] forms no item key at all: it
//! raises `g` to the complement of each row's exponent, from the column's
//! `m⁻¹` taken once per key ([`crate::SystemKey::column_cipher`]), so a
//! column costs no inversion. Inverses and powers modulo `n` are unique in
//! `[0, n)`, so every batched helper here is **byte-identical** to mapping its
//! scalar counterpart over the column — the equivalence tests pin that.
//!
//! [`mod_inverse_batch`] is Montgomery's simultaneous-inversion trick: it
//! replaces `N` inversions with `3(N − 1)` modular multiplications plus a
//! *single* inversion — build the prefix products `p_i = a_0 · … · a_i`,
//! invert only `p_{N−1}`, then peel per-element inverses off the running
//! inverse walking backwards. The proxy's key-update parameters invert their
//! column keys' `m` with it.
//!
//! These helpers back the proxy encryptor's table/row encryption and the
//! engine's oracle-flush blinding, where whole operand columns are
//! transformed at once.

use num_bigint::BigUint;

use crate::bigint::{mod_inverse, mod_mul, reduce};
use crate::keys::{ColumnCipher, ColumnKey, RowExponents, SystemKey};
use crate::modulus::{store, Modulus};
use crate::Result;

/// Inverts every element of `items` modulo `m` using Montgomery simultaneous
/// inversion: one extended-GCD inversion total instead of one per element.
///
/// Returns the same error as [`mod_inverse`] would if *any* element is not
/// invertible (a non-invertible factor makes the whole product
/// non-invertible). The happy path is the only fast path: item keys produced
/// by [`SystemKey::gen_column_key`] are always invertible.
pub fn mod_inverse_batch(items: &[BigUint], m: &BigUint) -> Result<Vec<BigUint>> {
    if items.is_empty() {
        return Ok(Vec::new());
    }
    // Prefix products p[i] = items[0] · … · items[i] mod m.
    let mut prefixes = Vec::with_capacity(items.len());
    let mut acc = reduce(&items[0], m).into_owned();
    prefixes.push(acc.clone());
    for item in &items[1..] {
        acc = mod_mul(&acc, item, m);
        prefixes.push(acc.clone());
    }
    // One inversion for the whole batch. If it fails, fall back to scalar
    // inversion so the error points at the offending element exactly as the
    // per-value path would report it.
    let mut running = match mod_inverse(&prefixes[items.len() - 1], m) {
        Ok(inv) => inv,
        Err(_) => {
            return items.iter().map(|item| mod_inverse(item, m)).collect();
        }
    };
    // Walk backwards: running holds (a_0 · … · a_i)⁻¹; multiplying by the
    // previous prefix isolates a_i⁻¹, multiplying by a_i steps down.
    let mut out = vec![BigUint::from(0u32); items.len()];
    for i in (1..items.len()).rev() {
        out[i] = mod_mul(&running, &prefixes[i - 1], m);
        running = mod_mul(&running, &items[i], m);
    }
    out[0] = running;
    Ok(out)
}

/// Batched [`crate::encrypt_value`] without the item keys: the `i`-th
/// plaintext of `plaintexts`, of the row of `rows` that `picked` yields `i`-th,
/// encrypted under the column whose cipher is `cipher`, `v·(m·g^e)⁻¹ mod n`
/// with `e = r·x mod φ(n)`.
///
/// Computed as `v·m⁻¹·g^(−e)`: the complement exponent is raised modulo each
/// prime from `m⁻¹·R`, and one Montgomery product with `v` finishes the cell.
/// No item key is formed or inverted. The result is the ciphertexts as
/// canonical limbs, `n`'s limb count a cell in `picked` order; a cell's value
/// is `encrypt_value(key, v, &gen_item_key(key, ck, r))`.
pub fn encrypt_column<'p>(
    key: &SystemKey,
    cipher: &ColumnCipher,
    rows: &RowExponents,
    picked: impl ExactSizeIterator<Item = usize> + Clone,
    plaintexts: impl ExactSizeIterator<Item = &'p BigUint>,
) -> Vec<u64> {
    assert_eq!(picked.len(), plaintexts.len(), "one row per plaintext");
    let (crt, modulus) = (key.crt(), key.modulus());
    let k = modulus.limb_count();
    let exponents = crt.cell_exponents(&cipher.x, &rows.0, picked, true);
    let mut powers = Vec::with_capacity(plaintexts.len() * k);
    crt.pow_times(&cipher.factor, &exponents, &mut powers);
    let mut values = vec![0; powers.len()];
    for (v, lane) in plaintexts.zip(values.chunks_exact_mut(k)) {
        if !modulus.load_lane(v, lane) {
            modulus.load_lane(&(v % key.n()), lane);
        }
    }
    // (m⁻¹·R·g^(−e))·v·R⁻¹ = v·m⁻¹·g^(−e).
    let mut out = vec![0; powers.len()];
    modulus.mul_lanes(&powers, &values, &mut out);
    out
}

/// Batched [`crate::gen_item_key`]: item keys for a column of row ids under
/// one column key, each a pair of half-width fixed-base powers of `g`
/// recombined modulo `n`, several rows in lockstep: `r` and `x` reduced
/// modulo each `ρᵢ − 1`, and `m` folded into the half powers.
pub fn gen_item_keys(key: &SystemKey, ck: &ColumnKey, row_ids: &[BigUint]) -> Vec<BigUint> {
    let crt = key.crt();
    let rows = crt.reduce(row_ids.iter());
    let x = crt.reduce(std::iter::once(ck.x()));
    let exponents = crt.cell_exponents(&x, &rows, 0..row_ids.len(), false);
    let k = key.modulus().limb_count();
    let mut keys = Vec::with_capacity(row_ids.len() * k);
    crt.pow_times(&crt.constant(ck.m()), &exponents, &mut keys);
    keys.chunks_exact(k).map(store).collect()
}

/// Blinds a column of shares in one pass: `share_r · factors[r] mod n` for
/// every row `r`. The shares are `width` little-endian limbs a row (any
/// values: one at or above `n` is reduced first), and so is the result, at
/// `n`'s limb count. For an odd `n` each row is a lane times one word; the
/// values are exactly what the `BigUint` formula gives. The oracle flush path
/// blinds a whole shipped column with it.
pub fn blind_limbs(n: &BigUint, width: usize, shares: &[u64], factors: &[u64]) -> Vec<u64> {
    let rows = factors.len();
    assert_eq!(shares.len(), rows * width, "one factor per share");
    if let Some(modulus) = Modulus::shared(n) {
        let lane = modulus.lane_of(rows, width, shares);
        let mut out = vec![0; lane.len()];
        modulus.mul_lanes_by_words(&lane, factors, &mut out);
        return out;
    }
    // No Montgomery context (an even `n`): the textbook formula a row.
    let k = n.iter_u64_digits().len();
    let mut out = Vec::with_capacity(rows * k);
    for (r, &factor) in factors.iter().enumerate() {
        let share = store(&shares[r * width..(r + 1) * width]);
        out.extend((share * BigUint::from(factor) % n).iter_u64_digits());
        out.resize((r + 1) * k, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::random_coprime;
    use crate::keys::KeyConfig;
    use crate::share::{encrypt_value, gen_item_key};
    use num_bigint::RandBigInt;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// [`encrypt_column`]'s cells as numbers.
    fn encrypted(
        key: &SystemKey,
        cipher: &ColumnCipher,
        rows: &RowExponents,
        picked: &[usize],
        plaintexts: &[BigUint],
    ) -> Vec<BigUint> {
        let limbs = encrypt_column(key, cipher, rows, picked.iter().copied(), plaintexts.iter());
        assert_eq!(limbs.len(), picked.len() * key.modulus().limb_count());
        (limbs.chunks_exact(key.modulus().limb_count()))
            .map(store)
            .collect()
    }

    #[test]
    fn batch_inverse_matches_scalar_inverse() {
        let mut rng = rng();
        let m = BigUint::from(1_000_000_007u64);
        for len in [0usize, 1, 2, 3, 17, 64] {
            let items: Vec<BigUint> = (0..len).map(|_| random_coprime(&mut rng, &m)).collect();
            let batched = mod_inverse_batch(&items, &m).unwrap();
            let scalar: Vec<BigUint> = items.iter().map(|a| mod_inverse(a, &m).unwrap()).collect();
            assert_eq!(batched, scalar, "len={len}");
        }
    }

    #[test]
    fn batch_inverse_rejects_non_invertible_elements() {
        let m = BigUint::from(35u32);
        let items = vec![BigUint::from(3u32), BigUint::from(5u32)]; // 5 | 35
        assert!(mod_inverse_batch(&items, &m).is_err());
        assert!(mod_inverse_batch(&[BigUint::from(0u32)], &m).is_err());
    }

    /// At a real `n` and at its even `φ(n)`, the batch gives the Euclid's
    /// inverses; with one element sharing a factor with the modulus, its
    /// per-element fallback reports the Euclid's error.
    #[test]
    fn batch_inverse_matches_the_reference_inverse() {
        use crate::bigint::reference;
        let mut rng = rng();
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        // n·3 ≡ 0 (mod n); φ(n)/2 shares every factor of φ(n) but one 2.
        let shared = [key.n() * BigUint::from(3u32), key.phi() >> 1u32];
        for (m, shared) in [key.n(), key.phi()].into_iter().zip(shared) {
            let mut items: Vec<BigUint> = (0..9).map(|_| random_coprime(&mut rng, m)).collect();
            items.push(m + BigUint::from(1u32));
            let expected: Result<Vec<BigUint>> =
                items.iter().map(|a| reference::mod_inverse(a, m)).collect();
            assert!(expected.is_ok());
            assert_eq!(mod_inverse_batch(&items, m), expected);

            items.insert(4, shared);
            assert!(reference::mod_inverse(&items[4], m).is_err());
            let expected: Result<Vec<BigUint>> =
                items.iter().map(|a| reference::mod_inverse(a, m)).collect();
            assert_eq!(mod_inverse_batch(&items, m), expected);
        }
    }

    #[test]
    fn batch_encrypt_matches_scalar_encrypt() {
        let mut rng = rng();
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        let ck = key.gen_column_key(&mut rng);
        let cipher = key.column_cipher(&ck).unwrap();
        let row_ids: Vec<BigUint> = (0..20).map(|_| key.gen_row_id(&mut rng)).collect();
        let plaintexts: Vec<BigUint> = (0..20)
            .map(|_| BigUint::from(rng.gen_range(0u64..1_000_000_000)))
            .collect();

        let item_keys = gen_item_keys(&key, &ck, &row_ids);
        let rows = key.row_exponents(row_ids.iter());
        // Every row, then every third row backwards.
        let all: Vec<usize> = (0..20).collect();
        let some: Vec<usize> = (0..20).rev().step_by(3).collect();
        let batched = encrypted(&key, &cipher, &rows, &all, &plaintexts);
        let picked: Vec<BigUint> = some.iter().map(|&i| plaintexts[i].clone()).collect();
        let sparse = encrypted(&key, &cipher, &rows, &some, &picked);
        for i in 0..20 {
            let scalar_ik = gen_item_key(&key, &ck, &row_ids[i]);
            assert_eq!(item_keys[i], scalar_ik);
            assert_eq!(batched[i], encrypt_value(&key, &plaintexts[i], &scalar_ik));
        }
        for (j, &i) in some.iter().enumerate() {
            assert_eq!(sparse[j], batched[i]);
        }
        assert!(encrypt_column(&key, &cipher, &rows, 0..0, [].iter()).is_empty());
    }

    /// A key at each width the reference test runs at: 128-, 256- and
    /// 512-bit `n` (2-, 4- and 8-limb halves); in an optimised build
    /// (`cargo test --release`) also 1024 and 2048 bits (16-limb halves),
    /// which the textbook `BigUint` formulas make too slow unoptimised.
    fn reference_keys() -> &'static [SystemKey] {
        static KEYS: std::sync::OnceLock<Vec<SystemKey>> = std::sync::OnceLock::new();
        KEYS.get_or_init(|| {
            let prime_bits: &[u64] = match cfg!(debug_assertions) {
                true => &[64, 128, 256],
                false => &[64, 128, 256, 512, 1024],
            };
            (prime_bits.iter())
                .map(|&prime_bits| {
                    let config = KeyConfig {
                        prime_bits,
                        domain_bits: 20,
                        blind_bits: 10,
                    };
                    let mut rng = StdRng::seed_from_u64(prime_bits);
                    SystemKey::generate(&mut rng, config).unwrap()
                })
                .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// Item keys, `g_powers` and encryption through the CRT halves equal
        /// the textbook formulas — `m·g^(r·x mod φ(n)) mod n` by
        /// `BigUint::modpow`, `v·v_k⁻¹ mod n` by Euclid's inverse — at every
        /// width: random keys, rows and values, and the edges: exponents 0
        /// (`r = φ(n)`), 1 and `φ(n) − 1` (`x` = 1 and `φ(n) − 1`, `r` = 1),
        /// the row id `n − 1`, rows and an `x` that are ≡ 0 modulo one
        /// prime's order `ρᵢ − 1`, and the plaintexts 0 and `n − 1`.
        #[test]
        fn crt_item_keys_and_encryption_match_the_textbook(
            seed in proptest::prelude::any::<u64>(),
            v in proptest::prelude::any::<u64>(),
        ) {
            use crate::bigint::reference;
            let one = BigUint::from(1u32);
            for key in reference_keys() {
                let mut rng = StdRng::seed_from_u64(seed);
                let (n, phi) = (key.n(), key.phi());
                let (rho1, rho2) = (&key.parts().rho1, &key.parts().rho2);
                let m = random_coprime(&mut rng, n);
                let column_keys = [
                    key.gen_column_key(&mut rng),
                    key.gen_aux_column_key(&mut rng),
                    ColumnKey::new(m.clone(), one.clone()),
                    ColumnKey::new(m.clone(), phi - &one),
                    ColumnKey::new(m, rho2 - &one),
                ];
                let mut row_ids: Vec<BigUint> = (0..3).map(|_| key.gen_row_id(&mut rng)).collect();
                row_ids.extend([phi.clone(), one.clone(), n - &one, rho1 - &one, rho2 - &one]);
                let plaintexts: Vec<BigUint> = (0..row_ids.len())
                    .map(|i| match i % 4 {
                        0 => BigUint::from(v),
                        1 => BigUint::from(0u32),
                        2 => n - &one,
                        _ => rng.gen_biguint_below(n),
                    })
                    .collect();
                let rows = key.row_exponents(row_ids.iter());
                let every_row: Vec<usize> = (0..row_ids.len()).collect();
                for ck in &column_keys {
                    let exponents: Vec<BigUint> = (row_ids.iter()).map(|r| r * ck.x() % phi).collect();
                    let powers: Vec<BigUint> = (exponents.iter()).map(|e| key.g().modpow(e, n)).collect();
                    let item_keys: Vec<BigUint> = (powers.iter()).map(|p| ck.m() * p % n).collect();
                    let textbook: Vec<BigUint> = (plaintexts.iter().zip(&item_keys))
                        .map(|(v, ik)| v * reference::mod_inverse(ik, n).unwrap() % n)
                        .collect();

                    proptest::prop_assert_eq!(&gen_item_keys(key, ck, &row_ids), &item_keys);
                    let mut mont = Vec::new();
                    key.g_powers(&exponents, &mut mont);
                    let k = key.modulus().limb_count();
                    let unloaded: Vec<BigUint> = (mont.chunks_exact(k))
                        .map(|power| key.modulus().out_of_mont(power))
                        .collect();
                    proptest::prop_assert_eq!(&unloaded, &powers);
                    let cipher = key.column_cipher(ck).unwrap();
                    let got = encrypted(key, &cipher, &rows, &every_row, &plaintexts);
                    proptest::prop_assert_eq!(&got, &textbook);
                }
            }
        }
    }

    /// The DO's powers of `g`, its ciphers and its encryption build the
    /// contexts of the primes themselves: `Modulus::shared`'s per-thread
    /// context stays the one of `n` it held before.
    #[test]
    fn the_primes_stay_out_of_the_shared_context() {
        let mut rng = rng();
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        let ck = key.gen_column_key(&mut rng);
        let row_ids: Vec<BigUint> = (0..9).map(|_| key.gen_row_id(&mut rng)).collect();
        mod_mul(&row_ids[0], &row_ids[1], key.n());
        assert_eq!(Modulus::shared_on_this_thread().as_ref(), Some(key.n()));

        gen_item_keys(&key, &ck, &row_ids);
        let mut powers = Vec::new();
        key.g_powers(&row_ids, &mut powers);
        let cipher = key.column_cipher(&ck).unwrap();
        let rows = key.row_exponents(row_ids.iter());
        encrypt_column(&key, &cipher, &rows, 0..row_ids.len(), row_ids.iter());
        assert_eq!(Modulus::shared_on_this_thread().as_ref(), Some(key.n()));
    }

    #[test]
    fn blind_limbs_matches_the_textbook_formula() {
        let mut rng = rng();
        // A one-limb odd `n` below some factors, a two-limb one, an even one.
        for n in [
            BigUint::from(1_000_003u64),
            BigUint::from(0xffff_fffb_u64) << 40u32 | BigUint::from(1u32),
            BigUint::from(0xffff_fffa_u64),
        ] {
            let k = n.iter_u64_digits().len();
            let shares: Vec<BigUint> = (0..50)
                .map(|_| BigUint::from(rng.gen_range(0u64..u64::MAX)))
                .chain([BigUint::from(0u32), n.clone(), &n - BigUint::from(1u32)])
                .collect();
            let width = 2;
            let mut words = Vec::new();
            for share in &shares {
                let start = words.len();
                words.extend(share.iter_u64_digits());
                words.resize(start + width, 0);
            }
            let factors: Vec<u64> = (0..shares.len())
                .map(|_| rng.gen_range(1..(1u64 << 30)))
                .collect();
            let blinded = blind_limbs(&n, width, &words, &factors);
            assert_eq!(blinded.len(), shares.len() * k);
            for (i, share) in shares.iter().enumerate() {
                assert_eq!(
                    store(&blinded[i * k..(i + 1) * k]),
                    (share * BigUint::from(factors[i])) % &n,
                    "n {n}, share {i}"
                );
            }
        }
    }
}
