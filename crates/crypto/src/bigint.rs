//! Small helpers over [`num_bigint`] used throughout the scheme: modular inverse
//! and co-primality (a fixed-width binary extended GCD, `crate::inverse`),
//! uniform random residues, co-primality sampling, and the modular operations
//! that take a bare modulus (served by the per-thread [`Modulus`] context).

use std::borrow::Cow;

use num_bigint::{BigUint, RandBigInt};
use num_traits::{One, Zero};
use rand::Rng;

use crate::inverse;
use crate::modulus::Modulus;
use crate::{CryptoError, Result};

/// Computes the modular multiplicative inverse of `a` modulo `m`, for odd and
/// even `m` alike; an `a ≥ m` is reduced first.
///
/// Returns an error if `gcd(a, m) != 1` (or `m` is zero).
pub fn mod_inverse(a: &BigUint, m: &BigUint) -> Result<BigUint> {
    inverse::mod_inverse(a, m).ok_or(CryptoError::NotInvertible {
        what: "gcd(a, m) != 1",
    })
}

/// Returns `true` if `a` and `b` are co-prime.
pub fn coprime(a: &BigUint, b: &BigUint) -> bool {
    inverse::coprime(a, b)
}

/// Samples a uniform random residue in `[low, high)`.
///
/// Panics if `low >= high` (caller bug).
pub fn random_in_range<R: Rng + ?Sized>(rng: &mut R, low: &BigUint, high: &BigUint) -> BigUint {
    assert!(low < high, "random_in_range called with empty range");
    rng.gen_biguint_range(low, high)
}

/// Samples a uniform random residue in `[1, modulus)` that is co-prime with `modulus`.
pub fn random_coprime<R: Rng + ?Sized>(rng: &mut R, modulus: &BigUint) -> BigUint {
    let one = BigUint::one();
    loop {
        let candidate = rng.gen_biguint_range(&one, modulus);
        if coprime(&candidate, modulus) {
            return candidate;
        }
    }
}

/// Samples a random `bits`-bit integer with the top bit forced to 1 (so the value
/// really has `bits` bits) and the bottom bit forced to 1 (odd).
pub fn random_odd_with_bits<R: Rng + ?Sized>(rng: &mut R, bits: u64) -> BigUint {
    assert!(bits >= 2, "need at least 2 bits");
    let mut candidate = rng.gen_biguint(bits);
    candidate.set_bit(bits - 1, true);
    candidate.set_bit(0, true);
    candidate
}

/// Computes `base^exp mod modulus`, treating an exponent of zero as producing one.
///
/// An odd modulus goes through this thread's [`Modulus`] context (windowed
/// Montgomery exponentiation); an even one — `φ(n)` is the only one the scheme
/// meets — through [`BigUint::modpow`].
pub fn mod_pow(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> BigUint {
    assert!(!modulus.is_zero(), "modulus must be non-zero");
    match Modulus::shared(modulus) {
        Some(context) => context.pow(base, exp),
        None => base.modpow(exp, modulus),
    }
}

/// Computes `(a * b) mod m`.
pub fn mod_mul(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    match Modulus::shared(m) {
        Some(context) => context.mul(a, b),
        None => (a * b) % m,
    }
}

/// Reduces a value that is almost always canonical already: compares first and
/// divides only when `x ≥ m`.
pub(crate) fn reduce<'a>(x: &'a BigUint, m: &BigUint) -> Cow<'a, BigUint> {
    if x < m {
        Cow::Borrowed(x)
    } else {
        Cow::Owned(x % m)
    }
}

/// Computes `(a + b) mod m`.
pub fn mod_add(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    let sum = a + b;
    if sum < *m {
        return sum;
    }
    // Two canonical operands overshoot by less than `m`.
    let sum = sum - m;
    if sum < *m {
        sum
    } else {
        sum % m
    }
}

/// Computes `(a - b) mod m`, wrapping into `[0, m)`.
pub fn mod_sub(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    let a = reduce(a, m);
    let b = reduce(b, m);
    if *a >= *b {
        &*a - &*b
    } else {
        m - (&*b - &*a)
    }
}

/// The `num-bigint` Euclid that [`mod_inverse`] and [`coprime`] ran before the
/// fixed-width kernel: the reference the tests compare the kernel against.
#[cfg(test)]
pub(crate) mod reference {
    use num_bigint::{BigInt, BigUint, Sign};
    use num_integer::Integer;
    use num_traits::One;

    use crate::{CryptoError, Result};

    /// `a⁻¹ mod m` by the extended Euclidean algorithm.
    pub(crate) fn mod_inverse(a: &BigUint, m: &BigUint) -> Result<BigUint> {
        let a = BigInt::from_biguint(Sign::Plus, a.clone());
        let m_int = BigInt::from_biguint(Sign::Plus, m.clone());
        let ext = a.extended_gcd(&m_int);
        if !ext.gcd.is_one() {
            return Err(CryptoError::NotInvertible {
                what: "gcd(a, m) != 1",
            });
        }
        // x may be negative; normalise into [0, m).
        let mut x = ext.x % &m_int;
        if x.sign() == Sign::Minus {
            x += &m_int;
        }
        Ok(x.to_biguint().expect("normalised to non-negative"))
    }

    /// `gcd(a, b) = 1` by Euclid's remainders.
    pub(crate) fn coprime(a: &BigUint, b: &BigUint) -> bool {
        Integer::gcd(a, b).is_one()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5db_c0de)
    }

    #[test]
    fn mod_inverse_small_cases() {
        // 3 * 12 = 36 ≡ 1 (mod 35)
        let inv = mod_inverse(&BigUint::from(3u32), &BigUint::from(35u32)).unwrap();
        assert_eq!(inv, BigUint::from(12u32));
        // 8 * 22 = 176 ≡ 1 (mod 35)
        let inv = mod_inverse(&BigUint::from(8u32), &BigUint::from(35u32)).unwrap();
        assert_eq!(inv, BigUint::from(22u32));
    }

    #[test]
    fn mod_inverse_rejects_non_coprime() {
        assert!(mod_inverse(&BigUint::from(5u32), &BigUint::from(35u32)).is_err());
        assert!(mod_inverse(&BigUint::from(0u32), &BigUint::from(35u32)).is_err());
    }

    #[test]
    fn mod_inverse_roundtrip_random() {
        let mut rng = rng();
        let m = BigUint::from(1_000_000_007u64);
        for _ in 0..50 {
            let a = random_coprime(&mut rng, &m);
            let inv = mod_inverse(&a, &m).unwrap();
            assert_eq!(mod_mul(&a, &inv, &m), BigUint::from(1u32));
        }
    }

    #[test]
    fn mod_sub_wraps() {
        let m = BigUint::from(35u32);
        assert_eq!(
            mod_sub(&BigUint::from(3u32), &BigUint::from(10u32), &m),
            BigUint::from(28u32)
        );
        assert_eq!(
            mod_sub(&BigUint::from(10u32), &BigUint::from(3u32), &m),
            BigUint::from(7u32)
        );
        assert_eq!(
            mod_sub(&BigUint::from(10u32), &BigUint::from(10u32), &m),
            BigUint::from(0u32)
        );
    }

    #[test]
    fn random_coprime_is_coprime() {
        let mut rng = rng();
        let m = BigUint::from(2u32 * 3 * 5 * 7 * 11 * 13);
        for _ in 0..100 {
            let c = random_coprime(&mut rng, &m);
            assert!(coprime(&c, &m));
            assert!(c < m);
            assert!(c >= BigUint::from(1u32));
        }
    }

    #[test]
    fn random_odd_with_bits_has_requested_size() {
        let mut rng = rng();
        for bits in [8u64, 16, 64, 128, 256] {
            let v = random_odd_with_bits(&mut rng, bits);
            assert_eq!(v.bits(), bits);
            assert!(v.bit(0), "must be odd");
        }
    }

    #[test]
    fn random_in_range_respects_bounds() {
        let mut rng = rng();
        let low = BigUint::from(100u32);
        let high = BigUint::from(200u32);
        for _ in 0..100 {
            let v = random_in_range(&mut rng, &low, &high);
            assert!(v >= low && v < high);
        }
    }

    #[test]
    fn mod_add_and_sub_reduce_unreduced_operands() {
        let m = BigUint::from(35u32);
        for a in [0u32, 1, 34, 35, 36, 70, 1000] {
            for b in [0u32, 1, 34, 35, 36, 70, 1000] {
                let (a, b) = (BigUint::from(a), BigUint::from(b));
                assert_eq!(mod_add(&a, &b, &m), (&a + &b) % &m, "{a} + {b}");
                let expected = (&a % &m + &m - &b % &m) % &m;
                assert_eq!(mod_sub(&a, &b, &m), expected, "{a} - {b}");
            }
        }
    }

    /// `φ(n)` is even, so everything the DO computes modulo it stays on the
    /// `BigUint` path; odd moduli go through the Montgomery context. Both must
    /// agree with the textbook definitions.
    #[test]
    fn even_moduli_are_served_by_the_fallback() {
        let mut rng = rng();
        for m in [24u64, 1 << 40, 1_000_000_006] {
            let m = BigUint::from(m);
            for _ in 0..20 {
                let a = random_in_range(&mut rng, &BigUint::zero(), &m);
                let b = random_in_range(&mut rng, &BigUint::zero(), &m);
                assert_eq!(mod_mul(&a, &b, &m), (&a * &b) % &m);
                assert_eq!(mod_pow(&a, &b, &m), a.modpow(&b, &m));
            }
        }
    }

    #[test]
    fn mod_pow_matches_naive() {
        let m = BigUint::from(35u32);
        // 2^8 mod 35 = 256 mod 35 = 11
        assert_eq!(
            mod_pow(&BigUint::from(2u32), &BigUint::from(8u32), &m),
            BigUint::from(11u32)
        );
        // anything^0 = 1
        assert_eq!(
            mod_pow(&BigUint::from(17u32), &BigUint::from(0u32), &m),
            BigUint::from(1u32)
        );
    }
}
