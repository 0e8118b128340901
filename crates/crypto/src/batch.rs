//! Column-at-a-time batched variants of the scalar share operations.
//!
//! The scalar path pays one extended-GCD modular inversion per
//! [`crate::encrypt_value`] call. Montgomery's simultaneous-inversion trick
//! replaces `N` inversions with `3(N − 1)` modular multiplications plus a
//! *single* inversion: build the prefix products `p_i = a_0 · … · a_i`,
//! invert only `p_{N−1}`, then peel per-element inverses off the running
//! inverse walking backwards. Inverses modulo `n` are unique in `[0, n)`, so
//! every batched helper here is **byte-identical** to mapping its scalar
//! counterpart over the column — the equivalence tests pin that.
//!
//! These helpers back the proxy encryptor's table/row encryption and the
//! engine's oracle-flush blinding, where whole operand columns are
//! transformed at once.

use num_bigint::BigUint;

use crate::bigint::{mod_inverse, mod_mul, reduce};
use crate::keys::{ColumnKey, SystemKey};
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

/// Batched [`crate::encrypt_value`]: encrypts a column of plaintexts under a
/// column of item keys, paying one modular inversion for the whole column.
///
/// Byte-identical to `plaintexts.iter().zip(item_keys).map(encrypt_value)`.
///
/// Panics if any item key is not invertible modulo `n`, matching the scalar
/// function's contract.
pub fn encrypt_values(
    key: &SystemKey,
    plaintexts: &[BigUint],
    item_keys: &[BigUint],
) -> Vec<BigUint> {
    assert_eq!(
        plaintexts.len(),
        item_keys.len(),
        "one item key per plaintext"
    );
    let inverses =
        mod_inverse_batch(item_keys, key.n()).expect("item key must be invertible mod n");
    plaintexts
        .iter()
        .zip(&inverses)
        .map(|(v, inv)| key.modulus().mul(v, inv))
        .collect()
}

/// Batched [`crate::gen_item_key`]: item keys for a column of row ids under
/// one column key, through the key's fixed-base table of `g` with several
/// rows in lockstep.
pub fn gen_item_keys(key: &SystemKey, ck: &ColumnKey, row_ids: &[BigUint]) -> Vec<BigUint> {
    let exponents: Vec<BigUint> = (row_ids.iter()).map(|r| (r * ck.x()) % key.phi()).collect();
    key.g_pow_times(&exponents, ck.m())
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
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
        let row_ids: Vec<BigUint> = (0..20).map(|_| key.gen_row_id(&mut rng)).collect();
        let plaintexts: Vec<BigUint> = (0..20)
            .map(|_| BigUint::from(rng.gen_range(0u64..1_000_000_000)))
            .collect();

        let item_keys = gen_item_keys(&key, &ck, &row_ids);
        let batched = encrypt_values(&key, &plaintexts, &item_keys);
        for i in 0..20 {
            let scalar_ik = gen_item_key(&key, &ck, &row_ids[i]);
            assert_eq!(item_keys[i], scalar_ik);
            assert_eq!(batched[i], encrypt_value(&key, &plaintexts[i], &scalar_ik));
        }
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
