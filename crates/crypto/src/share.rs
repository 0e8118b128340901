//! The multiplicative secret-sharing operations: item-key generation, encryption,
//! decryption, the column-key algebra used by EE/EP operators, and the key-update
//! parameter computation that powers the `sdb_key_update` UDF.
//!
//! All formulas follow §2.1–2.2 of the demo paper; the key-update and addition
//! protocols are the reconstruction documented in ARCHITECTURE.md ("Modular
//! arithmetic"), as is the Montgomery context the arithmetic modulo `n` runs
//! through.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use num_bigint::BigUint;
use num_traits::{One, Zero};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bigint::{mod_inverse, mod_mul, mod_pow, mod_sub};
use crate::keys::{ColumnKey, SystemKey};
use crate::modulus::{lockstep_rows, ExponentSet, Modulus, Mont};
use crate::Result;

/// Item key generation (paper Definition 1 / Eq. 2):
///
/// `v_k = gen(r, ⟨m, x⟩) = m · g^{r·x mod φ(n)} mod n`
pub fn gen_item_key(key: &SystemKey, ck: &ColumnKey, row_id: &BigUint) -> BigUint {
    let mut item_keys = crate::gen_item_keys(key, ck, std::slice::from_ref(row_id));
    item_keys.pop().expect("one item key per row id")
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

/// [`decrypt_value`] of a share given as its little-endian limbs.
pub fn decrypt_limbs(key: &SystemKey, encrypted: &[u64], item_key: &BigUint) -> BigUint {
    key.modulus().mul_limbs(encrypted, item_key)
}

/// [`decrypt_value`] of a column of `rows` shares, `width` little-endian
/// limbs a row (any values), under item keys in Montgomery form (`v_k·R mod
/// n`, as [`crate::ItemKeyMemo::item_key_lanes`] or [`Modulus::mont_row`]
/// give them): a row each, or one row for every share. The residues come
/// back as a lane, `limbs(n)` limbs a row, one product a row.
pub fn decrypt_lanes(
    key: &SystemKey,
    rows: usize,
    width: usize,
    shares: &[u64],
    item_keys: &[u64],
) -> Vec<u64> {
    let modulus = key.modulus();
    let lane = modulus.lane_of(rows, width, shares);
    let mut out = vec![0; lane.len()];
    if item_keys.len() == lane.len() {
        modulus.mul_lanes(&lane, item_keys, &mut out);
    } else {
        assert_eq!(
            item_keys.len(),
            modulus.lane_limbs(),
            "an item key a row, or one"
        );
        modulus.mul_lanes_by(&lane, item_keys, &mut out);
    }
    out
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
        // φ(n) is even: its products stay on the `BigUint` path; the inverse
        // takes the kernel's even-modulus branch.
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
        BoundKeyUpdate(
            match BoundKeyUpdateSet::bind(n, std::slice::from_ref(self)) {
                Some(set) => Kernel::Montgomery(set),
                None => Kernel::Plain {
                    params: self.clone(),
                    n: n.clone(),
                },
            },
        )
    }
}

/// The DO's memo of the key-update terms that depend on the auxiliary key
/// alone, or on the (source, auxiliary) pair alone: `x_S⁻¹ mod φ(n)` per
/// auxiliary key, and per pair `p₀ = −x_A·x_S⁻¹ mod φ(n)` and
/// `b = m_A·m_S^{p₀} mod n`. The two fixed targets then cost no
/// exponentiation: `T = S` is `(p₀ + 1, b)`, and a row-independent target
/// `⟨m_T, 0⟩` is `(p₀, b·m_T⁻¹)`; any other target reuses the inverse.
/// [`Self::params`] returns exactly what [`KeyUpdateParams::compute`] does.
///
/// Everything in it is derived from key material, so it lives in the DO's
/// memory only: it is not serialisable, and its `Debug` output shows only how
/// many entries it holds. Each map holds at most 4 096 keys and starts over
/// when full, so source keys derived afresh per query cannot accumulate.
#[derive(Default)]
pub struct KeyUpdateMemo {
    /// Auxiliary key → `x_S⁻¹ mod φ(n)`, and whether `m_S` is invertible
    /// modulo `n` (the target `T = S` needs `m_S⁻¹`).
    inverses: Mutex<HashMap<ColumnKey, Arc<(BigUint, bool)>>>,
    /// (source, auxiliary) key → its terms.
    pairs: Mutex<HashMap<(ColumnKey, ColumnKey), Arc<PairTerms>>>,
}

/// What a key update with a fixed target needs of its (source, auxiliary)
/// pair.
struct PairTerms {
    /// `−x_A·x_S⁻¹ mod φ(n)`.
    p0: BigUint,
    /// `m_A·m_S^{p₀} mod n`.
    b: BigUint,
}

/// Keys a [`KeyUpdateMemo`] map holds before it starts over.
const MEMO_ENTRIES: usize = 4096;

impl KeyUpdateMemo {
    /// The `(p, q)` pair of [`KeyUpdateParams::compute`], from the memo where
    /// the target allows.
    ///
    /// `target_m_inv` is `m_T⁻¹ mod n` when the caller has it: a statement
    /// inverts each of its drawn targets once, in one batch
    /// ([`crate::mod_inverse_batch`]), and passes the inverse to every
    /// update onto that target. `None` inverts here. The target `T = S`
    /// needs no inverse.
    pub fn params(
        &self,
        key: &SystemKey,
        source: &ColumnKey,
        aux: &ColumnKey,
        target: &ColumnKey,
        target_m_inv: Option<&BigUint>,
    ) -> Result<KeyUpdateParams> {
        let (phi, modulus) = (key.phi(), key.modulus());
        let aux_terms = self.inverse(key, aux)?;
        let (x_s_inv, m_s_invertible) = &*aux_terms;
        if target == aux && !m_s_invertible {
            return KeyUpdateParams::compute(key, source, aux, target);
        }
        let m_t_inv = || match target_m_inv {
            Some(inverse) => Ok(std::borrow::Cow::Borrowed(inverse)),
            None => mod_inverse(target.m(), key.n()).map(std::borrow::Cow::Owned),
        };
        if target != aux && !target.x().is_zero() {
            let p = mod_mul(&mod_sub(target.x(), source.x(), phi), x_s_inv, phi);
            let m_s_pow = modulus.pow(aux.m(), &p);
            let q = modulus.mul(&modulus.mul(source.m(), &m_s_pow), m_t_inv()?.as_ref());
            return Ok(KeyUpdateParams { p, q });
        }
        let pair = self.pair(key, source, aux, x_s_inv);
        let PairTerms { p0, b } = &*pair;
        if target == aux {
            // q = m_A·m_S^{p₀+1}·m_S⁻¹ = b, as m_S is invertible.
            let p = (p0 + BigUint::one()) % phi;
            return Ok(KeyUpdateParams { p, q: b.clone() });
        }
        Ok(KeyUpdateParams {
            p: p0.clone(),
            q: modulus.mul(b, m_t_inv()?.as_ref()),
        })
    }

    /// `x_S⁻¹ mod φ(n)`, and whether `m_S` is invertible modulo `n`.
    fn inverse(&self, key: &SystemKey, aux: &ColumnKey) -> Result<Arc<(BigUint, bool)>> {
        if let Some(terms) = lock(&self.inverses).get(aux) {
            return Ok(Arc::clone(terms));
        }
        let x_s_inv = mod_inverse(aux.x(), key.phi())?;
        let terms = Arc::new((x_s_inv, mod_inverse(aux.m(), key.n()).is_ok()));
        remember(&self.inverses, aux.clone(), Arc::clone(&terms));
        Ok(terms)
    }

    fn pair(
        &self,
        key: &SystemKey,
        source: &ColumnKey,
        aux: &ColumnKey,
        x_s_inv: &BigUint,
    ) -> Arc<PairTerms> {
        let pair_key = (source.clone(), aux.clone());
        if let Some(pair) = lock(&self.pairs).get(&pair_key) {
            return Arc::clone(pair);
        }
        let phi = key.phi();
        let p0 = mod_mul(&mod_sub(&BigUint::zero(), source.x(), phi), x_s_inv, phi);
        let modulus = key.modulus();
        let b = modulus.mul(source.m(), &modulus.pow(aux.m(), &p0));
        let pair = Arc::new(PairTerms { p0, b });
        remember(&self.pairs, pair_key, Arc::clone(&pair));
        pair
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Inserts into a memo map, emptying it first when it is full.
fn remember<K: std::hash::Hash + Eq, V>(map: &Mutex<HashMap<K, V>>, key: K, value: V) {
    let mut map = lock(map);
    if map.len() >= MEMO_ENTRIES {
        map.clear();
    }
    map.insert(key, value);
}

impl std::fmt::Debug for KeyUpdateMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyUpdateMemo")
            .field("aux_keys", &lock(&self.inverses).len())
            .field("pairs", &lock(&self.pairs).len())
            .finish()
    }
}

/// A key update bound to its modulus: the SP-side state of one `SDB_KEY_UPDATE`
/// call site. Everything in it derives from `n`, `p` and `q`, which the SP is
/// sent in the clear.
pub struct BoundKeyUpdate(Kernel);

enum Kernel {
    /// A set of one: the same code that serves several updates of one share.
    Montgomery(BoundKeyUpdateSet),
    /// An even `n`, which no key produces but the SQL surface cannot rule out.
    Plain { params: KeyUpdateParams, n: BigUint },
}

impl BoundKeyUpdate {
    /// `A'_e = A_e · S_e^p · q mod n` for one row.
    pub fn apply(&self, a_e: &BigUint, s_e: &BigUint) -> BigUint {
        match &self.0 {
            Kernel::Montgomery(set) => {
                let mut powers = vec![0; set.row_limbs()];
                set.fill_rows(&[s_e], &mut powers);
                set.apply(0, a_e, &powers)
            }
            Kernel::Plain { params, n } => {
                let s_pow = mod_pow(s_e, &params.p, n);
                mod_mul(&mod_mul(a_e, &s_pow, n), &params.q, n)
            }
        }
    }
}

/// Several key updates that raise the same auxiliary share `S_e` under one odd
/// `n`, bound together so that every `S_e^p` is computed once per row: equal
/// exponents share a power, an exponent within 2¹⁶ of another is one
/// multiplication away from it, and the remaining *heads* share one squaring
/// ladder (see ARCHITECTURE.md, "Key-update sets").
///
/// [`Self::fill_rows`] writes the powers of several shares, raised in
/// lockstep, into caller-owned rows of limbs; [`Self::apply`] finishes one
/// update of one row from there with two multiplications.
/// Like [`BoundKeyUpdate`], the set and the rows it fills hold only
/// functions of `S_e`, `p`, `q` and `n`.
pub struct BoundKeyUpdateSet {
    modulus: Arc<Modulus>,
    exponents: ExponentSet,
    /// The distinct exponents, in slot order (ascending).
    slot_exponents: Vec<BigUint>,
    /// Per bound update, in binding order: where its `S_e^p` starts in a
    /// row of powers, and `q` in Montgomery form.
    members: Vec<(usize, Mont)>,
}

impl BoundKeyUpdateSet {
    /// Plans `updates` for rows modulo `n`. `None` for an even (or zero) `n`,
    /// which has no Montgomery context.
    pub fn bind(n: &BigUint, updates: &[KeyUpdateParams]) -> Option<BoundKeyUpdateSet> {
        let modulus = Modulus::shared(n)?;
        let exponents: Vec<&BigUint> = updates.iter().map(|update| &update.p).collect();
        let (exponents, slot_of) = ExponentSet::plan(&exponents);
        let mut slot_exponents: Vec<BigUint> =
            updates.iter().map(|update| update.p.clone()).collect();
        slot_exponents.sort_unstable();
        slot_exponents.dedup();
        let members = updates
            .iter()
            .zip(slot_of)
            .map(|(update, slot)| (slot * modulus.limb_count(), modulus.to_mont(&update.q)))
            .collect();
        Some(BoundKeyUpdateSet {
            modulus,
            exponents,
            slot_exponents,
            members,
        })
    }

    /// The distinct exponents of the set, in the order their residues take
    /// in a row of powers.
    pub fn slot_exponents(&self) -> &[BigUint] {
        &self.slot_exponents
    }

    /// Exponents raised directly per row.
    pub fn heads(&self) -> usize {
        self.exponents.heads()
    }

    /// Exponents derived from a neighbouring one per row.
    pub fn derived(&self) -> usize {
        self.exponents.derived()
    }

    /// Limbs (`u64`) of a row of powers: a residue per distinct exponent.
    pub fn row_limbs(&self) -> usize {
        self.exponents.slots() * self.modulus.limb_count()
    }

    /// How many shares [`Self::fill_rows`] is best handed at once at this
    /// modulus width: more rows in lockstep stop paying off beyond it.
    pub fn block_rows(&self) -> usize {
        lockstep_rows(self.modulus.limb_count())
    }

    /// Fills `rows` — [`Self::row_limbs`] per share, in the order of
    /// `shares` — with the powers of the auxiliary shares, in Montgomery
    /// form. The shares are raised in lockstep: the rows' dependent products
    /// overlap, so a few shares cost less than the same shares one by one.
    pub fn fill_rows(&self, shares: &[&BigUint], rows: &mut [u64]) {
        self.modulus.pow_set(&self.exponents, shares, rows);
    }

    /// `A'_e = A_e · S_e^p · q mod n` for the `member`-th bound update, from
    /// the row [`Self::fill_rows`] wrote for `S_e`.
    pub fn apply(&self, member: usize, a_e: &BigUint, row: &[u64]) -> BigUint {
        let (start, q) = &self.members[member];
        let power = &row[*start..*start + self.modulus.limb_count()];
        self.modulus.mul_mont_mul(a_e, power, q)
    }

    /// [`Self::apply`] for a lane of rows but for the factor `q`: `out[r] =
    /// a[r] · S_e^p` for the `member`-th update, `powers` holding a row of
    /// powers per row of `a` (see [`Modulus::mul_lanes`] for lanes) — one
    /// product a row. The key update is `out[r] · q`, with `q` from
    /// [`Self::factor`]: a caller that multiplies constants in later (or not
    /// at all) saves a product a row.
    pub fn apply_lanes(&self, member: usize, a: &[u64], powers: &[u64], out: &mut [u64]) {
        let layout = (self.row_limbs(), self.members[member].0);
        self.modulus.times_power_lanes(a, powers, layout, out);
    }

    /// The `q` of the `member`-th update.
    pub fn factor(&self, member: usize) -> BigUint {
        self.modulus.value_of(&self.members[member].1)
    }

    /// The modulus the set is bound to.
    pub fn modulus(&self) -> &Arc<Modulus> {
        &self.modulus
    }

    /// The residues `S_e^p` a filled `row` holds, one per distinct exponent,
    /// as canonical values: what a leakage audit of the row compares.
    pub fn powers(&self, row: &[u64]) -> Vec<BigUint> {
        row.chunks(self.modulus.limb_count())
            .map(|power| self.modulus.out_of_mont(power))
            .collect()
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
    use num_bigint::RandBigInt;
    use num_traits::One;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn test_key(rng: &mut StdRng) -> SystemKey {
        SystemKey::generate(rng, KeyConfig::TEST).unwrap()
    }

    /// A column of shares — narrow, padded, zero, at or above `n` —
    /// decrypts under a lane of item keys and under one key as
    /// [`decrypt_value`] does row by row.
    #[test]
    fn lanes_decrypt_as_decrypt_value() {
        let mut rng = rng();
        let key = test_key(&mut rng);
        let n = key.n();
        let modulus = key.modulus();
        let k = modulus.lane_limbs();
        let mut shares: Vec<BigUint> = (0..20).map(|_| rng.gen_biguint_below(n)).collect();
        let one = BigUint::one();
        shares.extend([
            BigUint::from(0u32),
            one.clone(),
            n - &one,
            n.clone(),
            n + &one,
        ]);
        let item_keys: Vec<BigUint> = shares.iter().map(|_| rng.gen_biguint_below(n)).collect();
        let width = k + 1;
        let mut words = Vec::new();
        for share in &shares {
            let start = words.len();
            words.extend(share.iter_u64_digits());
            words.resize(start + width, 0);
        }
        let per_row: Vec<u64> = item_keys
            .iter()
            .flat_map(|ik| modulus.mont_row(ik))
            .collect();
        let residues = decrypt_lanes(&key, shares.len(), width, &words, &per_row);
        let one = decrypt_lanes(
            &key,
            shares.len(),
            width,
            &words,
            &modulus.mont_row(&item_keys[0]),
        );
        for (i, share) in shares.iter().enumerate() {
            let row = |lane: &[u64]| modulus.store_lane(&lane[i * k..(i + 1) * k]);
            assert_eq!(
                row(&residues),
                decrypt_value(&key, share, &item_keys[i]),
                "{i}"
            );
            assert_eq!(row(&one), decrypt_value(&key, share, &item_keys[0]), "{i}");
        }
        assert!(decrypt_lanes(&key, 0, width, &[], &modulus.mont_row(&item_keys[0])).is_empty());
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

    /// A set of updates of one auxiliary share gives, member by member, what
    /// the textbook formula gives — duplicates and neighbours included — its
    /// row holds the distinct `S_e^p`, an empty set binds and fills nothing,
    /// and an even modulus has no set.
    #[test]
    fn a_bound_set_matches_the_textbook_member_by_member() {
        let mut rng = rng();
        let key = test_key(&mut rng);
        let ck_s = key.gen_aux_column_key(&mut rng);
        let mut updates: Vec<KeyUpdateParams> = (0..3)
            .map(|_| {
                let (source, target) = (key.gen_column_key(&mut rng), key.gen_column_key(&mut rng));
                KeyUpdateParams::compute(&key, &source, &ck_s, &target).unwrap()
            })
            .collect();
        updates.push(KeyUpdateParams {
            p: &updates[0].p + BigUint::from(2u32),
            q: updates[1].q.clone(),
        });
        updates.push(updates[2].clone());
        let set = BoundKeyUpdateSet::bind(key.n(), &updates).unwrap();
        assert_eq!((set.heads(), set.derived()), (3, 1));
        let n = key.n();
        let mut row = vec![0u64; set.row_limbs()];
        for _ in 0..4 {
            let share = rng.gen_biguint_below(n);
            set.fill_rows(&[&share], &mut row);
            let a_e = rng.gen_biguint_below(n);
            for (member, update) in updates.iter().enumerate() {
                let power = share.modpow(&update.p, n);
                assert_eq!(
                    set.apply(member, &a_e, &row),
                    &a_e * &power % n * &update.q % n
                );
                assert!(set.powers(&row).contains(&power));
            }
            assert_eq!(set.powers(&row).len(), 4);
        }
        let empty = BoundKeyUpdateSet::bind(n, &[]).unwrap();
        assert_eq!(
            (empty.heads(), empty.derived(), empty.row_limbs()),
            (0, 0, 0)
        );
        empty.fill_rows(&[&rng.gen_biguint_below(n)], &mut []);
        assert!(empty.powers(&[]).is_empty());
        assert!(BoundKeyUpdateSet::bind(&BigUint::from(1_000_000u32), &updates).is_none());
    }

    /// `(p, q)` at the `TEST` and `BALANCED` profiles is the textbook pair
    /// built with the Euclid's inverses and `BigUint::modpow`: the parameters
    /// the rewritten SQL carries do not depend on which inversion ran.
    #[test]
    fn key_update_params_match_the_textbook_with_the_reference_inverse() {
        use crate::bigint::reference;
        let mut rng = rng();
        for config in [KeyConfig::TEST, KeyConfig::BALANCED] {
            let key = SystemKey::generate(&mut rng, config).unwrap();
            let (n, phi) = (key.n(), key.phi());
            let aux = key.gen_aux_column_key(&mut rng);
            for _ in 0..6 {
                let (source, target) = (key.gen_column_key(&mut rng), key.gen_column_key(&mut rng));
                let x_s_inv = reference::mod_inverse(aux.x(), phi).unwrap();
                let delta = (target.x() + phi - source.x()) % phi;
                let p = delta * x_s_inv % phi;
                let m_t_inv = reference::mod_inverse(target.m(), n).unwrap();
                let q = source.m() * aux.m().modpow(&p, n) % n * m_t_inv % n;
                assert_eq!(
                    KeyUpdateParams::compute(&key, &source, &aux, &target).unwrap(),
                    KeyUpdateParams { p, q }
                );
            }
        }
    }

    /// The DO's memo returns `compute`'s pair byte for byte, cold and warm,
    /// for the auxiliary target, a row-independent target and a general one,
    /// and fails where `compute` fails.
    #[test]
    fn the_key_update_memo_matches_compute_cold_and_warm() {
        let mut rng = rng();
        for config in [KeyConfig::TEST, KeyConfig::BALANCED] {
            let key = SystemKey::generate(&mut rng, config).unwrap();
            let memo = KeyUpdateMemo::default();
            let aux = key.gen_aux_column_key(&mut rng);
            let sources: Vec<ColumnKey> = (0..3).map(|_| key.gen_column_key(&mut rng)).collect();
            for round in 0..2 {
                for source in &sources {
                    let targets = [
                        aux.clone(),
                        ColumnKeyAlgebra::row_independent_target(&key, &mut rng),
                        key.gen_column_key(&mut rng),
                        ColumnKey::new(BigUint::one(), BigUint::zero()),
                    ];
                    for target in &targets {
                        assert_eq!(
                            memo.params(&key, source, &aux, target, None).unwrap(),
                            KeyUpdateParams::compute(&key, source, &aux, target).unwrap(),
                            "round {round}"
                        );
                    }
                }
            }
            assert_eq!(
                format!("{memo:?}"),
                "KeyUpdateMemo { aux_keys: 1, pairs: 3 }"
            );
            let shared = ColumnKey::new(key.n().clone(), BigUint::zero());
            assert!(memo.params(&key, &sources[0], &aux, &shared, None).is_err());
            assert!(KeyUpdateParams::compute(&key, &sources[0], &aux, &shared).is_err());
            // An auxiliary `m` without an inverse fails only the target `T = S`.
            let odd_aux = ColumnKey::new(key.n().clone(), aux.x().clone());
            let target = key.gen_column_key(&mut rng);
            assert_eq!(
                memo.params(&key, &sources[0], &odd_aux, &target, None)
                    .unwrap(),
                KeyUpdateParams::compute(&key, &sources[0], &odd_aux, &target).unwrap()
            );
            assert!(memo
                .params(&key, &sources[0], &odd_aux, &odd_aux, None)
                .is_err());
            assert!(KeyUpdateParams::compute(&key, &sources[0], &odd_aux, &odd_aux).is_err());
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
