//! Probabilistic prime generation for the scheme's RSA-style modulus.
//!
//! The paper uses two 1024-bit primes ρ₁, ρ₂ so that `n = ρ₁·ρ₂` is 2048 bits.
//! [`KeyConfig`](crate::KeyConfig) makes the bit length configurable so tests and
//! benches can run with smaller (but still honest) parameters.

use num_bigint::{BigUint, RandBigInt};
use num_traits::{One, Zero};
use rand::Rng;

use crate::bigint::random_odd_with_bits;
use crate::modulus::Modulus;
use crate::{CryptoError, Result};

/// Number of Miller–Rabin rounds. 40 rounds gives an error probability below
/// 2⁻⁸⁰ for random candidates, far beyond what this reproduction needs.
const MILLER_RABIN_ROUNDS: usize = 40;

/// Maximum number of candidates examined before giving up on prime generation.
const MAX_ATTEMPTS: usize = 100_000;

/// Small primes used for fast trial-division filtering before Miller–Rabin.
const SMALL_PRIMES: [u32; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

/// Returns `true` if `n` is (very probably) prime.
///
/// Deterministically handles small values, filters with trial division by small
/// primes, then runs `MILLER_RABIN_ROUNDS` rounds of Miller–Rabin with random
/// bases drawn from `rng`.
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    let two = BigUint::from(2u32);
    let three = BigUint::from(3u32);
    if n < &two {
        return false;
    }
    if n == &two || n == &three {
        return true;
    }
    if !n.bit(0) {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let p = BigUint::from(p);
        if n == &p {
            return true;
        }
        if (n % &p).is_zero() {
            return false;
        }
    }

    // Write n - 1 = 2^s * d with d odd.
    let n_minus_1 = n - BigUint::one();
    let s = n_minus_1.trailing_zeros().unwrap_or(0);
    let d = &n_minus_1 >> s;

    let context = Modulus::new(n).expect("even candidates were rejected above");
    'witness: for _ in 0..MILLER_RABIN_ROUNDS {
        let a = rng.gen_biguint_range(&two, &(n - &two));
        let mut x = context.pow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s.saturating_sub(1) {
            x = context.mul(&x, &x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
pub fn generate_prime<R: Rng + ?Sized>(rng: &mut R, bits: u64) -> Result<BigUint> {
    if bits < 2 {
        return Err(CryptoError::PrimeGenerationFailed { bits });
    }
    for _ in 0..MAX_ATTEMPTS {
        let candidate = random_odd_with_bits(rng, bits);
        if is_probable_prime(&candidate, rng) {
            return Ok(candidate);
        }
    }
    Err(CryptoError::PrimeGenerationFailed { bits })
}

/// Generates two distinct probable primes of `bits` bits each.
pub fn generate_prime_pair<R: Rng + ?Sized>(rng: &mut R, bits: u64) -> Result<(BigUint, BigUint)> {
    let p = generate_prime(rng, bits)?;
    loop {
        let q = generate_prime(rng, bits)?;
        if q != p {
            return Ok((p, q));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xfeed_beef)
    }

    #[test]
    fn small_primes_recognised() {
        let mut rng = rng();
        for p in [2u32, 3, 5, 7, 11, 13, 97, 101, 211, 65_537] {
            assert!(
                is_probable_prime(&BigUint::from(p), &mut rng),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut rng = rng();
        for c in [
            0u32, 1, 4, 6, 9, 15, 21, 25, 35, 100, 561, 1105, 6601, 62_745,
        ] {
            assert!(
                !is_probable_prime(&BigUint::from(c), &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat tests but not Miller–Rabin.
        let mut rng = rng();
        for c in [
            561u64, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
        ] {
            assert!(!is_probable_prime(&BigUint::from(c), &mut rng));
        }
    }

    #[test]
    fn large_known_prime_recognised() {
        let mut rng = rng();
        // 2^127 - 1 is a Mersenne prime.
        let m127 = (BigUint::one() << 127u32) - BigUint::one();
        assert!(is_probable_prime(&m127, &mut rng));
        // 2^128 + 1 is composite (= 59649589127497217 × 5704689200685129054721).
        let f7 = (BigUint::one() << 128u32) + BigUint::one();
        assert!(!is_probable_prime(&f7, &mut rng));
    }

    #[test]
    fn generated_primes_have_requested_bits() {
        let mut rng = rng();
        for bits in [16u64, 32, 64, 128] {
            let p = generate_prime(&mut rng, bits).unwrap();
            assert_eq!(p.bits(), bits);
            assert!(is_probable_prime(&p, &mut rng));
        }
    }

    #[test]
    fn prime_pair_is_distinct() {
        let mut rng = rng();
        let (p, q) = generate_prime_pair(&mut rng, 64).unwrap();
        assert_ne!(p, q);
    }

    #[test]
    fn rejects_degenerate_bit_length() {
        let mut rng = rng();
        assert!(generate_prime(&mut rng, 0).is_err());
        assert!(generate_prime(&mut rng, 1).is_err());
    }
}
