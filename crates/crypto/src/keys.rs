//! Key material for the SDB secret-sharing scheme.
//!
//! * [`SystemKey`] — the per-data-owner secrets: primes ρ₁, ρ₂, the public modulus
//!   `n`, the secret totient `φ(n)` and the secret generator `g` (paper §2.1).
//! * [`ColumnKey`] — the per-column pair `⟨m, x⟩` used to derive item keys.
//! * [`ColumnCipher`] — a column key made ready to encrypt under: its `m⁻¹`
//!   and its `x` modulo `ρ₁ − 1` and `ρ₂ − 1`.
//! * [`KeyConfig`] — parameter profile (modulus bit length, signed-domain bits).
//!
//! Every DO secret here prints its shape only under `Debug`: bit lengths and
//! the profile, never a number.

use std::fmt;
use std::sync::Arc;

use num_bigint::BigUint;
use num_traits::One;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bigint::{coprime, random_coprime, random_in_range};
use crate::modulus::crt::{Crt, CrtConstant, HalfExponents};
use crate::modulus::Modulus;
use crate::prime::generate_prime_pair;
use crate::{CryptoError, Result};

/// Parameter profile for key generation.
///
/// The paper's prototype uses 1024-bit primes (2048-bit `n`). Tests and benches use
/// smaller profiles so the suite stays fast; every profile is an honest instantiation
/// of the same scheme, just with a smaller modulus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyConfig {
    /// Bit length of each of the two primes ρ₁ and ρ₂ (so `n` has roughly twice this).
    pub prime_bits: u64,
    /// Number of bits of the signed application-value domain. Values must satisfy
    /// `|v| < 2^domain_bits`, and `2^(2·domain_bits + blind_bits + slack)` must stay
    /// well below `n` so that signs survive arithmetic (see [`crate::signed`]).
    pub domain_bits: u32,
    /// Bit length of the random positive blinding factors used by the comparison
    /// protocol.
    pub blind_bits: u32,
}

impl KeyConfig {
    /// The paper's parameters: 1024-bit primes, 2048-bit modulus.
    pub const PAPER: KeyConfig = KeyConfig {
        prime_bits: 1024,
        domain_bits: 62,
        blind_bits: 30,
    };

    /// A balanced profile for interactive use and integration tests (512-bit modulus).
    pub const BALANCED: KeyConfig = KeyConfig {
        prime_bits: 256,
        domain_bits: 62,
        blind_bits: 30,
    };

    /// A small profile for unit tests and quick benches (256-bit modulus). Still far
    /// larger than the combined signed-domain + blinding width, so all protocol
    /// invariants hold.
    pub const TEST: KeyConfig = KeyConfig {
        prime_bits: 128,
        domain_bits: 40,
        blind_bits: 20,
    };

    /// Validates that the profile is internally consistent: the modulus must leave
    /// head-room above products of two domain values plus a blinding factor.
    pub fn validate(&self) -> Result<()> {
        let modulus_bits = self.prime_bits * 2;
        let needed = 2 * u64::from(self.domain_bits) + u64::from(self.blind_bits) + 4;
        if modulus_bits <= needed {
            return Err(CryptoError::InvalidKey {
                detail: format!(
                    "modulus of ~{modulus_bits} bits too small for domain {} + blind {} bits",
                    self.domain_bits, self.blind_bits
                ),
            });
        }
        Ok(())
    }
}

impl Default for KeyConfig {
    fn default() -> Self {
        KeyConfig::PAPER
    }
}

/// The persisted part of a [`SystemKey`]: exactly the fields its JSON holds.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct SystemKeyParts {
    /// First secret prime.
    pub(crate) rho1: BigUint,
    /// Second secret prime.
    pub(crate) rho2: BigUint,
    /// Public modulus `n = ρ₁·ρ₂`.
    n: BigUint,
    /// Secret totient `φ(n) = (ρ₁−1)(ρ₂−1)`.
    phi: BigUint,
    /// Secret generator `g`, co-prime with `n`.
    g: BigUint,
    /// The parameter profile this key was generated under.
    config: KeyConfig,
}

/// The data owner's system-wide key material.
///
/// Only `n` is public. ρ₁, ρ₂, `φ(n)` and `g` never leave the DO; the service
/// provider sees `n` (it needs it to reduce UDF results) and nothing else.
///
/// The key also owns the deployment's arithmetic: the Montgomery context of `n`
/// and the DO's half-width contexts of `g` modulo ρ₁ and modulo ρ₂ (fixed-base
/// tables and Garner's constant, `modulus/crt.rs`) that every power of
/// `g` is taken through. They are built once per key (clones share them) and
/// none is serialised — a key read back from JSON rebuilds them, so the
/// tables, DO secrets, exist only in the DO's memory.
#[derive(Clone)]
pub struct SystemKey {
    parts: SystemKeyParts,
    modulus: Arc<Modulus>,
    crt: Arc<Crt>,
}

impl fmt::Debug for SystemKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemKey")
            .field("n_bits", &self.parts.n.bits())
            .field("config", &self.parts.config)
            .field("secrets", &"<redacted>")
            .finish()
    }
}

impl PartialEq for SystemKey {
    fn eq(&self, other: &Self) -> bool {
        self.parts == other.parts
    }
}

impl Eq for SystemKey {}

impl Serialize for SystemKey {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        self.parts.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for SystemKey {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        let parts = SystemKeyParts::deserialize(deserializer)?;
        SystemKey::assemble(parts).map_err(serde::de::Error::custom)
    }
}

impl SystemKey {
    /// Derives the arithmetic contexts from the key's numbers.
    fn assemble(parts: SystemKeyParts) -> Result<Self> {
        let modulus = Modulus::new(&parts.n).ok_or_else(|| CryptoError::InvalidKey {
            detail: "the modulus n must be odd".to_string(),
        })?;
        let crt = Crt::new(&parts.rho1, &parts.rho2, &parts.g, &modulus).ok_or_else(|| {
            CryptoError::InvalidKey {
                detail: "ρ₁ and ρ₂ must be distinct odd primes and g a unit modulo both"
                    .to_string(),
            }
        })?;
        Ok(SystemKey {
            parts,
            modulus: Arc::new(modulus),
            crt: Arc::new(crt),
        })
    }

    /// Generates fresh system key material under `config`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, config: KeyConfig) -> Result<Self> {
        config.validate()?;
        let (rho1, rho2) = generate_prime_pair(rng, config.prime_bits)?;
        let n = &rho1 * &rho2;
        let phi = (&rho1 - BigUint::one()) * (&rho2 - BigUint::one());
        let g = random_coprime(rng, &n);
        SystemKey::assemble(SystemKeyParts {
            rho1,
            rho2,
            n,
            phi,
            g,
            config,
        })
    }

    /// Builds a system key from explicit primes and generator. Used for the paper's
    /// Figure 1 worked example and for deterministic tests.
    ///
    /// The two must be distinct odd primes and `g` a unit modulo both: the
    /// DO's powers of `g` run modulo each prime (Fermat). Panics if the
    /// "primes" are equal or even, or `g` is a multiple of either.
    pub fn from_parts(rho1: BigUint, rho2: BigUint, g: BigUint) -> Self {
        let n = &rho1 * &rho2;
        let phi = (&rho1 - BigUint::one()) * (&rho2 - BigUint::one());
        let config = KeyConfig {
            prime_bits: rho1.bits().max(rho2.bits()),
            domain_bits: 2,
            blind_bits: 1,
        };
        SystemKey::assemble(SystemKeyParts {
            rho1,
            rho2,
            n,
            phi,
            g,
            config,
        })
        .expect("the primes of a system key are distinct and odd, and g a unit")
    }

    /// The key's numbers, for the tests that check its arithmetic against
    /// the primes.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> &SystemKeyParts {
        &self.parts
    }

    /// The public modulus `n`.
    pub fn n(&self) -> &BigUint {
        &self.parts.n
    }

    /// The Montgomery context of `n`, for arithmetic on shares.
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// Appends `g^e` in Montgomery form (`k` limbs) to `out` for every
    /// exponent `e` of `exponents`, each raised modulo ρ₁ and ρ₂.
    #[cfg(test)]
    pub(crate) fn g_powers(&self, exponents: &[BigUint], out: &mut Vec<u64>) {
        let reduced = self.crt.reduce(exponents.iter());
        self.crt.pow_times(self.crt.radix(), &reduced, out)
    }

    /// Appends `g^(r·x mod φ(n))` in Montgomery form (`k` limbs) to `out`
    /// for every row id `r` of `row_ids`: `r` and `x` are reduced modulo
    /// each ρᵢ − 1 and multiplied there, so the product modulo `φ(n)` is
    /// never formed.
    pub(crate) fn g_item_powers<'r>(
        &self,
        x: &BigUint,
        row_ids: impl ExactSizeIterator<Item = &'r BigUint>,
        out: &mut Vec<u64>,
    ) {
        let count = row_ids.len();
        let rows = self.crt.reduce(row_ids);
        let x = self.crt.reduce(std::iter::once(x));
        let exponents = self.crt.cell_exponents(&x, &rows, 0..count, false);
        self.crt.pow_times(self.crt.radix(), &exponents, out)
    }

    /// The DO's half-width arithmetic of `g` (see `modulus/crt.rs`).
    pub(crate) fn crt(&self) -> &Crt {
        &self.crt
    }

    /// Every row id of `row_ids` reduced modulo ρ₁ − 1 and ρ₂ − 1, once for
    /// all the cells of its row.
    pub fn row_exponents<'r>(
        &self,
        row_ids: impl ExactSizeIterator<Item = &'r BigUint>,
    ) -> RowExponents {
        RowExponents(self.crt.reduce(row_ids))
    }

    /// The cipher of a column key: `m⁻¹·R mod n` and `x` as residues modulo
    /// the primes and their orders, `m⁻¹` taken by Fermat modulo each prime.
    /// This is the only inversion encrypting under `ck` costs: take it once,
    /// when the key is made or loaded. Fails when `m` is not a unit modulo
    /// `n`.
    pub fn column_cipher(&self, ck: &ColumnKey) -> Result<ColumnCipher> {
        let factor = self.crt.inverse_times_radix(ck.m());
        let factor = factor.ok_or(CryptoError::NotInvertible {
            what: "column key m shares a factor with n",
        })?;
        Ok(ColumnCipher {
            factor,
            x: self.crt.reduce(std::iter::once(ck.x())),
        })
    }

    /// The secret totient `φ(n)`. Only the DO-side code may call this.
    pub fn phi(&self) -> &BigUint {
        &self.parts.phi
    }

    /// The secret generator `g`. Only the DO-side code may call this.
    pub fn g(&self) -> &BigUint {
        &self.parts.g
    }

    /// The parameter profile this key was generated under.
    pub fn config(&self) -> KeyConfig {
        self.parts.config
    }

    /// Generates a fresh random column key `⟨m, x⟩` with `0 < m, x < n`, `m` co-prime
    /// with `n` (so item keys are invertible).
    pub fn gen_column_key<R: Rng + ?Sized>(&self, rng: &mut R) -> ColumnKey {
        let m = random_coprime(rng, self.n());
        let x = random_in_range(rng, &BigUint::one(), self.phi());
        ColumnKey::new(m, x)
    }

    /// Generates a column key whose `x` component is invertible modulo `φ(n)`.
    ///
    /// The auxiliary all-ones column `S` needs this property: key-update parameters
    /// divide by `x_S` modulo `φ(n)` (see [`crate::share::KeyUpdateParams`]).
    pub fn gen_aux_column_key<R: Rng + ?Sized>(&self, rng: &mut R) -> ColumnKey {
        loop {
            let m = random_coprime(rng, self.n());
            let x = random_in_range(rng, &BigUint::one(), self.phi());
            if coprime(&x, self.phi()) {
                return ColumnKey::new(m, x);
            }
        }
    }

    /// Generates a random secret row id in `(0, n)`.
    pub fn gen_row_id<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        random_in_range(rng, &BigUint::one(), self.n())
    }
}

/// A per-column key `⟨m, x⟩` (paper §2.1, "column key ck_A").
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColumnKey {
    m: BigUint,
    x: BigUint,
}

impl fmt::Debug for ColumnKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColumnKey")
            .field("m_bits", &self.m.bits())
            .field("x_bits", &self.x.bits())
            .finish()
    }
}

impl ColumnKey {
    /// Creates a column key from its two components.
    pub fn new(m: BigUint, x: BigUint) -> Self {
        ColumnKey { m, x }
    }

    /// The multiplicative component `m`.
    pub fn m(&self) -> &BigUint {
        &self.m
    }

    /// The exponent component `x`.
    pub fn x(&self) -> &BigUint {
        &self.x
    }
}

/// A column key made ready to encrypt under ([`SystemKey::column_cipher`]):
/// `m⁻¹·R mod n` and `x` modulo ρ₁ − 1 and ρ₂ − 1, as residues of the two
/// primes. A DO secret like the key it is derived from: never serialised,
/// and `Debug` prints nothing of it.
#[derive(Clone)]
pub struct ColumnCipher {
    pub(crate) factor: CrtConstant,
    pub(crate) x: HalfExponents,
}

impl fmt::Debug for ColumnCipher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ColumnCipher(<redacted>)")
    }
}

/// Row ids reduced modulo ρ₁ − 1 and ρ₂ − 1 ([`SystemKey::row_exponents`]):
/// what every encrypted cell of a row shares. A DO secret.
pub struct RowExponents(pub(crate) HalfExponents);

impl fmt::Debug for RowExponents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RowExponents(<redacted>)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn figure1_parts() {
        let key = SystemKey::from_parts(5u32.into(), 7u32.into(), 2u32.into());
        assert_eq!(key.n(), &BigUint::from(35u32));
        assert_eq!(key.phi(), &BigUint::from(24u32));
        assert_eq!(key.g(), &BigUint::from(2u32));
    }

    #[test]
    fn generate_produces_consistent_material() {
        let mut rng = rng();
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        let (rho1, rho2) = (&key.parts.rho1, &key.parts.rho2);
        assert_eq!(key.n(), &(rho1 * rho2));
        assert_eq!(
            key.phi(),
            &((rho1 - BigUint::one()) * (rho2 - BigUint::one()))
        );
        assert!(coprime(key.g(), key.n()));
        // n should have roughly 2 * prime_bits bits.
        let bits = key.n().bits();
        assert!(bits >= 2 * KeyConfig::TEST.prime_bits - 1);
        assert!(bits <= 2 * KeyConfig::TEST.prime_bits);
    }

    #[test]
    fn column_keys_are_in_range_and_invertible() {
        let mut rng = rng();
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        for _ in 0..20 {
            let ck = key.gen_column_key(&mut rng);
            assert!(ck.m() < key.n());
            assert!(ck.x() < key.phi());
            assert!(coprime(ck.m(), key.n()));
        }
    }

    #[test]
    fn aux_column_key_x_invertible_mod_phi() {
        let mut rng = rng();
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        for _ in 0..10 {
            let ck = key.gen_aux_column_key(&mut rng);
            assert!(coprime(ck.x(), key.phi()));
        }
    }

    /// The key draws accept exactly the candidates a loop over the Euclid's
    /// gcd accepts, so a seeded generator yields the same keys and is left in
    /// the same state: `random_coprime` against `n`, `φ(n)` and a modulus
    /// with many small factors (frequent rejections), `gen_aux_column_key`
    /// against `φ(n)`.
    #[test]
    fn key_draws_match_a_reference_gcd_loop() {
        use crate::bigint::reference;
        use num_bigint::RandBigInt;
        let one = BigUint::one();
        let reference_coprime = |rng: &mut StdRng, m: &BigUint| loop {
            let candidate = rng.gen_biguint_range(&one, m);
            if reference::coprime(&candidate, m) {
                return candidate;
            }
        };
        let mut rng = rng();
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        let smooth = BigUint::from(2u64 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37);
        for seed in 0..16 {
            for m in [key.n(), key.phi(), &smooth] {
                let mut drawn = StdRng::seed_from_u64(seed);
                let mut expected = drawn.clone();
                assert_eq!(
                    random_coprime(&mut drawn, m),
                    reference_coprime(&mut expected, m)
                );
                assert_eq!(drawn.gen::<u64>(), expected.gen::<u64>());
            }

            let mut drawn = StdRng::seed_from_u64(seed);
            let mut expected = drawn.clone();
            let aux = key.gen_aux_column_key(&mut drawn);
            let reference_aux = loop {
                let m = reference_coprime(&mut expected, key.n());
                let x = random_in_range(&mut expected, &one, key.phi());
                if reference::coprime(&x, key.phi()) {
                    break ColumnKey::new(m, x);
                }
            };
            assert_eq!(aux, reference_aux);
            assert_eq!(drawn.gen::<u64>(), expected.gen::<u64>());
        }
    }

    #[test]
    fn config_validation_rejects_tiny_modulus() {
        let bad = KeyConfig {
            prime_bits: 32,
            domain_bits: 62,
            blind_bits: 30,
        };
        assert!(bad.validate().is_err());
        assert!(KeyConfig::TEST.validate().is_ok());
        assert!(KeyConfig::BALANCED.validate().is_ok());
        assert!(KeyConfig::PAPER.validate().is_ok());
    }

    #[test]
    fn keys_serialize_roundtrip() {
        let mut rng = rng();
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        let json = serde_json::to_string(&key).unwrap();
        let back: SystemKey = serde_json::from_str(&json).unwrap();
        assert_eq!(key, back);

        let ck = key.gen_column_key(&mut rng);
        let json = serde_json::to_string(&ck).unwrap();
        let back: ColumnKey = serde_json::from_str(&json).unwrap();
        assert_eq!(ck, back);
    }

    /// The JSON of a key is its six numbers: the Montgomery context and the `g`
    /// table are rebuilt on the way back in, never persisted.
    #[test]
    fn serialized_key_holds_no_derived_tables() {
        let mut rng = rng();
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        let json = serde_json::to_string(&key).unwrap();
        assert_eq!(json, serde_json::to_string(&key.parts).unwrap());
        assert!(
            !json.contains("table") && !json.contains("modulus"),
            "{json}"
        );

        let back: SystemKey = serde_json::from_str(&json).unwrap();
        let (ck, r) = (key.gen_column_key(&mut rng), key.gen_row_id(&mut rng));
        assert_eq!(
            crate::gen_item_key(&back, &ck, &r),
            crate::gen_item_key(&key, &ck, &r)
        );
        // The six fields: five numbers and the profile.
        let parts = &key.parts;
        let secrets = [&parts.rho1, &parts.rho2, &parts.phi, &parts.g];
        let numbers: Vec<&str> = (json.split(|c: char| !c.is_ascii_digit()))
            .filter(|run| run.len() >= 12)
            .collect();
        let expected: Vec<String> = [&parts.rho1, &parts.rho2, &parts.n, &parts.phi, &parts.g]
            .map(BigUint::to_string)
            .to_vec();
        assert_eq!(numbers, expected);
        assert!(json.ends_with(&format!(
            "\"config\":{}}}",
            serde_json::to_string(&parts.config).unwrap()
        )));

        // `Debug` prints shape only: no decimal of a DO secret, for the key,
        // a column key or its cipher.
        let debug = format!("{key:?}");
        assert!(debug.contains("<redacted>"), "{debug}");
        let cipher = key.column_cipher(&ck).unwrap();
        let m_inverse = crate::bigint::mod_inverse(ck.m(), key.n()).unwrap();
        let rendered = [debug, format!("{ck:?}"), format!("{cipher:?}")];
        for secret in secrets.into_iter().chain([ck.m(), ck.x(), &m_inverse]) {
            for text in &rendered {
                assert!(!text.contains(&secret.to_string()), "{text}");
            }
        }

        // A tampered store with an even modulus is refused, not mis-served.
        let even = json.replacen(&format!("\"n\":\"{}\"", key.n()), "\"n\":\"24\"", 1);
        assert_ne!(even, json);
        assert!(serde_json::from_str::<SystemKey>(&even).is_err());

        // So is one whose primes are equal, or whose g is a multiple of one.
        let rho1 = key.parts.rho1.to_string();
        let equal = json.replacen(&key.parts.rho2.to_string(), &rho1, 1);
        let g = json.replacen(
            &format!("\"g\":\"{}\"", key.g()),
            &format!("\"g\":\"{rho1}\""),
            1,
        );
        for tampered in [equal, g] {
            assert_ne!(tampered, json);
            assert!(serde_json::from_str::<SystemKey>(&tampered).is_err());
        }
    }

    #[test]
    fn row_ids_within_modulus() {
        let mut rng = rng();
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        for _ in 0..50 {
            let r = key.gen_row_id(&mut rng);
            assert!(r > BigUint::from(0u32) && r < *key.n());
        }
    }
}
