//! A small Paillier cryptosystem implementation.
//!
//! CryptDB and MONOMI use Paillier (the "HOM" onion) for additive aggregation at
//! the server: ciphertexts multiply to add plaintexts. The baseline needs a working
//! additive-homomorphic scheme so the E6 overhead comparison measures real work on
//! both sides; this is the textbook construction with `g = n + 1`.

use num_bigint::BigUint;
use num_integer::Integer;
use num_traits::One;
use rand::Rng;

use sdb_crypto::bigint::{coprime, mod_inverse, mod_mul, mod_pow};
use sdb_crypto::prime::generate_prime_pair;
use sdb_crypto::KeyConfig;

use crate::{BaselineError, Result};

/// A Paillier key pair.
#[derive(Debug, Clone)]
pub struct PaillierKey {
    n: BigUint,
    n_squared: BigUint,
    lambda: BigUint,
    mu: BigUint,
}

/// A Paillier ciphertext (an element of `Z_{n²}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierCiphertext(pub BigUint);

impl PaillierKey {
    /// Generates a key pair with primes of `config.prime_bits` bits.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, config: KeyConfig) -> Result<Self> {
        let (p, q) =
            generate_prime_pair(rng, config.prime_bits).map_err(|e| BaselineError::Internal {
                detail: e.to_string(),
            })?;
        let n = &p * &q;
        let n_squared = &n * &n;
        let lambda = (&p - BigUint::one()).lcm(&(&q - BigUint::one()));
        // With g = n + 1: L(g^λ mod n²) = λ mod n (up to the L function), and
        // μ = (L(g^λ mod n²))⁻¹ mod n.
        let g = &n + BigUint::one();
        let l = l_function(&mod_pow(&g, &lambda, &n_squared), &n);
        let mu = mod_inverse(&l, &n).map_err(|e| BaselineError::Internal {
            detail: format!("Paillier μ not invertible: {e}"),
        })?;
        Ok(PaillierKey {
            n,
            n_squared,
            lambda,
            mu,
        })
    }

    /// The public modulus `n`.
    pub fn n(&self) -> &BigUint {
        &self.n
    }

    /// `n²`, needed by the server to multiply ciphertexts.
    pub fn n_squared(&self) -> &BigUint {
        &self.n_squared
    }

    /// Encrypts a non-negative integer `m < n`.
    pub fn encrypt<R: Rng + ?Sized>(&self, rng: &mut R, m: &BigUint) -> PaillierCiphertext {
        // c = (1 + m·n) · r^n mod n², using g = n + 1.
        let r = loop {
            let candidate = sdb_crypto::bigint::random_in_range(rng, &BigUint::one(), &self.n);
            if coprime(&candidate, &self.n) {
                break candidate;
            }
        };
        let gm = (BigUint::one() + m * &self.n) % &self.n_squared;
        let rn = mod_pow(&r, &self.n, &self.n_squared);
        PaillierCiphertext(mod_mul(&gm, &rn, &self.n_squared))
    }

    /// Decrypts a ciphertext.
    pub fn decrypt(&self, ct: &PaillierCiphertext) -> BigUint {
        let l = l_function(&mod_pow(&ct.0, &self.lambda, &self.n_squared), &self.n);
        mod_mul(&l, &self.mu, &self.n)
    }

    /// Homomorphic addition: the server multiplies ciphertexts modulo `n²`.
    pub fn add(&self, a: &PaillierCiphertext, b: &PaillierCiphertext) -> PaillierCiphertext {
        PaillierCiphertext(mod_mul(&a.0, &b.0, &self.n_squared))
    }
}

fn l_function(x: &BigUint, n: &BigUint) -> BigUint {
    (x - BigUint::one()) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> (PaillierKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(0x9a111);
        let key = PaillierKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        (key, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (key, mut rng) = key();
        for m in [0u64, 1, 42, 1_000_000, u32::MAX as u64] {
            let ct = key.encrypt(&mut rng, &BigUint::from(m));
            assert_eq!(key.decrypt(&ct), BigUint::from(m), "m = {m}");
        }
    }

    #[test]
    fn encryption_is_probabilistic() {
        let (key, mut rng) = key();
        let a = key.encrypt(&mut rng, &BigUint::from(7u32));
        let b = key.encrypt(&mut rng, &BigUint::from(7u32));
        assert_ne!(a, b);
        assert_eq!(key.decrypt(&a), key.decrypt(&b));
    }

    #[test]
    fn homomorphic_addition() {
        let (key, mut rng) = key();
        let mut acc = key.encrypt(&mut rng, &BigUint::from(0u32));
        let mut expected = 0u64;
        for m in [5u64, 100, 12_345, 9] {
            let ct = key.encrypt(&mut rng, &BigUint::from(m));
            acc = key.add(&acc, &ct);
            expected += m;
        }
        assert_eq!(key.decrypt(&acc), BigUint::from(expected));
    }
}
