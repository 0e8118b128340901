//! The multiplicative secret-sharing operations: item-key generation, encryption,
//! decryption, the column-key algebra used by EE/EP operators, and the key-update
//! parameter computation that powers the `sdb_key_update` UDF.
//!
//! All formulas follow §2.1–2.2 of the demo paper; the key-update and addition
//! protocols are the reconstruction documented in ARCHITECTURE.md ("Modular
//! arithmetic"), as is the Montgomery context the arithmetic modulo `n` runs
//! through.

use std::sync::Arc;

use num_bigint::BigUint;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bigint::{mod_inverse, mod_mul, mod_pow, mod_sub};
use crate::keys::{ColumnKey, SystemKey};
use crate::modulus::{Modulus, Mont, Windows};
use crate::Result;

/// Item key generation (paper Definition 1 / Eq. 2):
///
/// `v_k = gen(r, ⟨m, x⟩) = m · g^{r·x mod φ(n)} mod n`
pub fn gen_item_key(key: &SystemKey, ck: &ColumnKey, row_id: &BigUint) -> BigUint {
    let exponent = (row_id * ck.x()) % key.phi();
    key.g_pow_times(&exponent, ck.m())
}

/// Encryption (paper Definition 2 / Eq. 3): `v_e = v · v_k⁻¹ mod n`.
///
/// Panics if the item key is not invertible modulo `n`; item keys generated through
/// [`SystemKey::gen_column_key`] are always invertible because `m` and `g` are
/// co-prime with `n`.
pub fn encrypt_value(key: &SystemKey, plaintext: &BigUint, item_key: &BigUint) -> BigUint {
    let inv = mod_inverse(item_key, key.n()).expect("item key must be invertible mod n");
    key.modulus().mul(plaintext, &inv)
}

/// Fallible variant of [`encrypt_value`] for callers that cannot guarantee the item
/// key is invertible (e.g. when replaying hostile inputs in tests).
pub fn try_encrypt_value(
    key: &SystemKey,
    plaintext: &BigUint,
    item_key: &BigUint,
) -> Result<BigUint> {
    let inv = mod_inverse(item_key, key.n())?;
    Ok(key.modulus().mul(plaintext, &inv))
}

/// Decryption (paper Eq. 4): `v = v_e · v_k mod n`.
pub fn decrypt_value(key: &SystemKey, encrypted: &BigUint, item_key: &BigUint) -> BigUint {
    key.modulus().mul(encrypted, item_key)
}

/// Parameters `(p, q)` the DO ships to the SP for a key update (ARCHITECTURE.md,
/// "Modular arithmetic").
///
/// Given a source column with key `⟨m_A, x_A⟩`, the auxiliary all-ones column `S`
/// with key `⟨m_S, x_S⟩` (where `x_S` is invertible modulo `φ(n)`), and a target key
/// `⟨m_T, x_T⟩`, the SP computes per row
///
/// `A'_e = A_e · S_e^p · q mod n`
///
/// which re-encrypts `A` under the target key without the SP ever seeing a plaintext.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyUpdateParams {
    /// Exponent applied to the auxiliary column's encrypted values.
    pub p: BigUint,
    /// Multiplicative correction factor.
    pub q: BigUint,
}

impl KeyUpdateParams {
    /// Computes the `(p, q)` pair at the DO.
    ///
    /// `p = (x_T − x_A) · x_S⁻¹ mod φ(n)`; `q = m_A · m_S^p · m_T⁻¹ mod n`.
    ///
    /// Returns an error if `x_S` is not invertible modulo `φ(n)` or `m_T` is not
    /// invertible modulo `n` (neither happens for keys produced by
    /// [`SystemKey::gen_aux_column_key`] / [`SystemKey::gen_column_key`]).
    pub fn compute(
        key: &SystemKey,
        source: &ColumnKey,
        aux: &ColumnKey,
        target: &ColumnKey,
    ) -> Result<Self> {
        let phi = key.phi();
        let modulus = key.modulus();
        // φ(n) is even: arithmetic modulo it stays on the `BigUint` path.
        let x_s_inv = mod_inverse(aux.x(), phi)?;
        let delta = mod_sub(target.x(), source.x(), phi);
        let p = mod_mul(&delta, &x_s_inv, phi);
        let m_t_inv = mod_inverse(target.m(), key.n())?;
        let m_s_pow = modulus.pow(aux.m(), &p);
        let q = modulus.mul(&modulus.mul(source.m(), &m_s_pow), &m_t_inv);
        Ok(KeyUpdateParams { p, q })
    }

    /// The SP-side application of a key update to one row:
    /// `A'_e = A_e · S_e^p · q mod n`.
    ///
    /// This is exactly what the `sdb_key_update` UDF computes; it uses only public
    /// information (`n`, the shipped `(p, q)`) and encrypted values.
    pub fn apply(&self, n: &BigUint, a_e: &BigUint, s_e: &BigUint) -> BigUint {
        self.bind(n).apply(a_e, s_e)
    }

    /// Binds the update to its modulus for a column of rows: `p` is recoded into
    /// windows and `q` converted once, not per row.
    pub fn bind(&self, n: &BigUint) -> BoundKeyUpdate {
        BoundKeyUpdate(match Modulus::shared(n) {
            Some(modulus) => Kernel::Montgomery {
                p: Windows::new(&self.p),
                q: modulus.to_mont(&self.q),
                modulus,
            },
            None => Kernel::Plain {
                params: self.clone(),
                n: n.clone(),
            },
        })
    }
}

/// A key update bound to its modulus: the SP-side state of one `SDB_KEY_UPDATE`
/// call site. Everything in it derives from `n`, `p` and `q`, which the SP is
/// sent in the clear.
pub struct BoundKeyUpdate(Kernel);

enum Kernel {
    /// The Montgomery context of `n`, `p` in windows, `q` in Montgomery form.
    Montgomery {
        modulus: Arc<Modulus>,
        p: Windows,
        q: Mont,
    },
    /// An even `n`, which no key produces but the SQL surface cannot rule out.
    Plain { params: KeyUpdateParams, n: BigUint },
}

impl BoundKeyUpdate {
    /// `A'_e = A_e · S_e^p · q mod n` for one row.
    pub fn apply(&self, a_e: &BigUint, s_e: &BigUint) -> BigUint {
        match &self.0 {
            Kernel::Montgomery { modulus, p, q } => modulus.mul_pow_mul(a_e, s_e, p, q),
            Kernel::Plain { params, n } => {
                let s_pow = mod_pow(s_e, &params.p, n);
                mod_mul(&mod_mul(a_e, &s_pow, n), &params.q, n)
            }
        }
    }
}

/// DO-side column-key algebra for the operators that need *no* SP interaction.
///
/// These are the "result column key" computations the proxy performs while
/// rewriting a query (paper §2.2 gives the multiplication case explicitly).
pub struct ColumnKeyAlgebra;

impl ColumnKeyAlgebra {
    /// Result column key of an EE multiplication `C = A × B`:
    /// `ck_C = ⟨m_A·m_B mod n, x_A + x_B mod φ(n)⟩` (paper §2.2).
    pub fn multiply(key: &SystemKey, a: &ColumnKey, b: &ColumnKey) -> ColumnKey {
        ColumnKey::new(key.modulus().mul(a.m(), b.m()), (a.x() + b.x()) % key.phi())
    }

    /// Result column key of an EP multiplication by a plaintext constant `c`:
    /// the encrypted values are untouched, only the key changes to
    /// `ck_C = ⟨c·m_A mod n, x_A⟩` so that decryption yields `c·a`.
    pub fn scale_by_constant(key: &SystemKey, a: &ColumnKey, c: &BigUint) -> ColumnKey {
        ColumnKey::new(key.modulus().mul(c, a.m()), a.x().clone())
    }

    /// Column key under which the auxiliary all-ones column `S` decrypts to the
    /// plaintext constant `c` (used to inject constants into EE addition):
    /// reinterpreting `S_e` with key `⟨c·m_S, x_S⟩` decrypts to `c·1 = c`.
    pub fn constant_column(key: &SystemKey, aux: &ColumnKey, c: &BigUint) -> ColumnKey {
        Self::scale_by_constant(key, aux, c)
    }

    /// A fresh *row-independent* target key `⟨m_T, 0⟩`.
    ///
    /// After a key update to such a key every row shares the same item key `m_T`,
    /// which is what makes server-side SUM folding possible (ARCHITECTURE.md,
    /// "Modular arithmetic").
    pub fn row_independent_target<R: Rng + ?Sized>(key: &SystemKey, rng: &mut R) -> ColumnKey {
        let base = key.gen_column_key(rng);
        ColumnKey::new(base.m().clone(), BigUint::from(0u32))
    }

    /// The item key of a row-independent column key (`x = 0`): simply `m`, because
    /// `g^{r·0} = 1` for every row.
    pub fn row_independent_item_key(ck: &ColumnKey) -> BigUint {
        debug_assert_eq!(*ck.x(), BigUint::from(0u32), "key is not row-independent");
        ck.m().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyConfig;
    use num_traits::One;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn test_key(rng: &mut StdRng) -> SystemKey {
        SystemKey::generate(rng, KeyConfig::TEST).unwrap()
    }

    /// Experiment E1: the worked example of Figure 1 in the paper
    /// (g = 2, n = 35, ck_A = ⟨2, 2⟩; rows 1, 2, 8 with values 2, 4, 3).
    #[test]
    fn figure1_worked_example() {
        let key = SystemKey::from_parts(5u32.into(), 7u32.into(), 2u32.into());
        let ck = ColumnKey::new(BigUint::from(2u32), BigUint::from(2u32));

        let cases: [(u32, u32, u32, u32); 3] = [
            // (row id, plaintext, expected item key, expected encrypted value)
            (1, 2, 8, 9),
            (2, 4, 32, 22),
            (8, 3, 32, 34),
        ];
        for (r, v, expected_ik, expected_ve) in cases {
            let ik = gen_item_key(&key, &ck, &BigUint::from(r));
            assert_eq!(ik, BigUint::from(expected_ik), "item key for row {r}");
            let ve = encrypt_value(&key, &BigUint::from(v), &ik);
            assert_eq!(
                ve,
                BigUint::from(expected_ve),
                "encrypted value for row {r}"
            );
            assert_eq!(decrypt_value(&key, &ve, &ik), BigUint::from(v));
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip_random() {
        let mut rng = rng();
        let key = test_key(&mut rng);
        let ck = key.gen_column_key(&mut rng);
        for _ in 0..50 {
            let r = key.gen_row_id(&mut rng);
            let v = BigUint::from(rng.gen_range(0u64..1_000_000_000));
            let ik = gen_item_key(&key, &ck, &r);
            let ve = encrypt_value(&key, &v, &ik);
            assert_eq!(decrypt_value(&key, &ve, &ik), v);
        }
    }

    #[test]
    fn encryption_is_row_dependent() {
        // The same plaintext in different rows must map to different ciphertexts
        // (with overwhelming probability) — this is what defeats frequency analysis.
        let mut rng = rng();
        let key = test_key(&mut rng);
        let ck = key.gen_column_key(&mut rng);
        let v = BigUint::from(12_345u32);
        let r1 = key.gen_row_id(&mut rng);
        let r2 = key.gen_row_id(&mut rng);
        let ve1 = encrypt_value(&key, &v, &gen_item_key(&key, &ck, &r1));
        let ve2 = encrypt_value(&key, &v, &gen_item_key(&key, &ck, &r2));
        assert_ne!(ve1, ve2);
    }

    #[test]
    fn ee_multiplication_matches_paper_protocol() {
        // sdb_multiply(A_e, B_e, n) = A_e·B_e mod n, with ck_C = ⟨m_A·m_B, x_A+x_B⟩.
        let mut rng = rng();
        let key = test_key(&mut rng);
        let ck_a = key.gen_column_key(&mut rng);
        let ck_b = key.gen_column_key(&mut rng);
        for _ in 0..20 {
            let r = key.gen_row_id(&mut rng);
            let a = BigUint::from(rng.gen_range(1u64..1_000_000));
            let b = BigUint::from(rng.gen_range(1u64..1_000_000));
            let a_e = encrypt_value(&key, &a, &gen_item_key(&key, &ck_a, &r));
            let b_e = encrypt_value(&key, &b, &gen_item_key(&key, &ck_b, &r));

            // SP side: multiply ciphertexts.
            let c_e = mod_mul(&a_e, &b_e, key.n());
            // DO side: result column key.
            let ck_c = ColumnKeyAlgebra::multiply(&key, &ck_a, &ck_b);
            let ik_c = gen_item_key(&key, &ck_c, &r);
            assert_eq!(decrypt_value(&key, &c_e, &ik_c), &a * &b);
        }
    }

    #[test]
    fn key_update_reencrypts_under_target_key() {
        let mut rng = rng();
        let key = test_key(&mut rng);
        let ck_a = key.gen_column_key(&mut rng);
        let ck_s = key.gen_aux_column_key(&mut rng);
        let ck_t = key.gen_column_key(&mut rng);
        let params = KeyUpdateParams::compute(&key, &ck_a, &ck_s, &ck_t).unwrap();

        for _ in 0..20 {
            let r = key.gen_row_id(&mut rng);
            let a = BigUint::from(rng.gen_range(0u64..1_000_000_000));
            let a_e = encrypt_value(&key, &a, &gen_item_key(&key, &ck_a, &r));
            let s_e = encrypt_value(&key, &BigUint::one(), &gen_item_key(&key, &ck_s, &r));

            let a_e_new = params.apply(key.n(), &a_e, &s_e);
            let ik_t = gen_item_key(&key, &ck_t, &r);
            assert_eq!(decrypt_value(&key, &a_e_new, &ik_t), a);
        }
    }

    #[test]
    fn ee_addition_after_key_unification() {
        let mut rng = rng();
        let key = test_key(&mut rng);
        let ck_a = key.gen_column_key(&mut rng);
        let ck_b = key.gen_column_key(&mut rng);
        let ck_s = key.gen_aux_column_key(&mut rng);
        let ck_t = key.gen_column_key(&mut rng);

        let pa = KeyUpdateParams::compute(&key, &ck_a, &ck_s, &ck_t).unwrap();
        let pb = KeyUpdateParams::compute(&key, &ck_b, &ck_s, &ck_t).unwrap();

        for _ in 0..20 {
            let r = key.gen_row_id(&mut rng);
            let a = BigUint::from(rng.gen_range(0u64..1_000_000));
            let b = BigUint::from(rng.gen_range(0u64..1_000_000));
            let a_e = encrypt_value(&key, &a, &gen_item_key(&key, &ck_a, &r));
            let b_e = encrypt_value(&key, &b, &gen_item_key(&key, &ck_b, &r));
            let s_e = encrypt_value(&key, &BigUint::one(), &gen_item_key(&key, &ck_s, &r));

            // SP: key-update both operands to the common target key, then add.
            let a_t = pa.apply(key.n(), &a_e, &s_e);
            let b_t = pb.apply(key.n(), &b_e, &s_e);
            let c_e = (&a_t + &b_t) % key.n();

            let ik_t = gen_item_key(&key, &ck_t, &r);
            assert_eq!(decrypt_value(&key, &c_e, &ik_t), &a + &b);
        }
    }

    #[test]
    fn ep_scale_by_constant_only_changes_key() {
        let mut rng = rng();
        let key = test_key(&mut rng);
        let ck_a = key.gen_column_key(&mut rng);
        let c = BigUint::from(17u32);
        let ck_c = ColumnKeyAlgebra::scale_by_constant(&key, &ck_a, &c);

        let r = key.gen_row_id(&mut rng);
        let a = BigUint::from(1234u32);
        let a_e = encrypt_value(&key, &a, &gen_item_key(&key, &ck_a, &r));
        // Same ciphertext, new key ⇒ decrypts to c·a.
        let ik_c = gen_item_key(&key, &ck_c, &r);
        assert_eq!(decrypt_value(&key, &a_e, &ik_c), &a * &c);
    }

    #[test]
    fn constant_column_injects_constants() {
        let mut rng = rng();
        let key = test_key(&mut rng);
        let ck_s = key.gen_aux_column_key(&mut rng);
        let c = BigUint::from(999u32);
        let ck_const = ColumnKeyAlgebra::constant_column(&key, &ck_s, &c);

        let r = key.gen_row_id(&mut rng);
        let s_e = encrypt_value(&key, &BigUint::one(), &gen_item_key(&key, &ck_s, &r));
        let ik = gen_item_key(&key, &ck_const, &r);
        assert_eq!(decrypt_value(&key, &s_e, &ik), c);
    }

    #[test]
    fn row_independent_key_enables_sum_folding() {
        let mut rng = rng();
        let key = test_key(&mut rng);
        let ck_a = key.gen_column_key(&mut rng);
        let ck_s = key.gen_aux_column_key(&mut rng);
        let ck_sum = ColumnKeyAlgebra::row_independent_target(&key, &mut rng);
        let params = KeyUpdateParams::compute(&key, &ck_a, &ck_s, &ck_sum).unwrap();

        let mut folded = BigUint::from(0u32);
        let mut expected = BigUint::from(0u32);
        for _ in 0..25 {
            let r = key.gen_row_id(&mut rng);
            let a = BigUint::from(rng.gen_range(0u64..1_000_000));
            expected += &a;
            let a_e = encrypt_value(&key, &a, &gen_item_key(&key, &ck_a, &r));
            let s_e = encrypt_value(&key, &BigUint::one(), &gen_item_key(&key, &ck_s, &r));
            // SP folds with modular addition; no row ids needed afterwards.
            folded = (&folded + params.apply(key.n(), &a_e, &s_e)) % key.n();
        }
        let ik = ColumnKeyAlgebra::row_independent_item_key(&ck_sum);
        assert_eq!(decrypt_value(&key, &folded, &ik), expected);
    }

    #[test]
    fn try_encrypt_rejects_non_invertible_item_key() {
        let key = SystemKey::from_parts(5u32.into(), 7u32.into(), 2u32.into());
        // 5 divides 35, so it is not invertible.
        let err = try_encrypt_value(&key, &BigUint::from(3u32), &BigUint::from(5u32));
        assert!(err.is_err());
    }
}
