//! Modular inversion and co-primality on fixed-width limbs: the data owner's
//! `x⁻¹ mod n` and `x⁻¹ mod φ(n)`, and the co-primality checks of its key
//! draws.
//!
//! One kernel, a binary extended GCD against an odd modulus
//! ([`binary_gcd`]), serves both parities:
//!
//! * odd `m` (`n`, a Paillier `n`): `a⁻¹ mod m` directly;
//! * even `m` (`φ(n)`): an invertible `a` is odd, so the kernel inverts the
//!   other way round, `b = m⁻¹ mod a`, and `a⁻¹ mod m = (1 + m·(a − b)) / a`.
//!   That quotient is exact and below `m`, so it is read off modulo
//!   `2^(64·k)` by a bottom-up (Hensel) division.
//!
//! No step divides; the only division is the reduction of an operand `≥ m`
//! on entry.
//!
//! Inverses modulo `m` are unique in `[0, m)` and a gcd is a gcd, so every
//! answer is the one the extended Euclid it replaced gave (the tests keep that
//! Euclid as their reference). Like that Euclid, the kernel's running time
//! depends on its operands — it is not constant-time — and only the data owner
//! runs it, on its own key material.
//!
//! The kernel is monomorphised over the same limb storage as [`Modulus`]
//! (`[u64; N]` for 2, 4, 8, 16 and 32 limbs, `Vec<u64>` otherwise), at the limb count
//! of the modulus.
//!
//! [`Modulus`]: crate::modulus::Modulus

use std::cmp::Ordering;

use num_bigint::BigUint;
use num_traits::{One, Zero};

use crate::bigint::reduce;
use crate::modulus::{by_limbs, limbs_of, store, sub_assign, word_inverse, Limbs};

/// `a⁻¹ mod m`, or `None` when `gcd(a, m) ≠ 1` or `m = 0`. An operand `≥ m` is
/// reduced first; modulo one every value is zero, so zero is its inverse.
pub(crate) fn mod_inverse(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    if m.is_zero() {
        return None;
    }
    if m.is_one() {
        return Some(BigUint::zero());
    }
    let a = reduce(a, m);
    if a.is_zero() {
        return None;
    }
    if a.is_one() {
        return Some(BigUint::one());
    }
    let k = m.iter_u64_digits().len();
    let odd_m = m.bit(0);
    if !odd_m && !a.bit(0) {
        return None;
    }
    by_limbs!(k, L => {
        let (a, m) = (limbs_of::<L>(&a, k), limbs_of::<L>(m, k));
        let inverse = if odd_m {
            binary_gcd::<L, true>(a, &m)
        } else {
            invert_for_even(&a, &m)
        };
        inverse.map(|inverse| store(inverse.as_ref()))
    })
}

/// `gcd(a, b) = 1`, with `gcd(x, 0) = x`.
pub(crate) fn coprime(a: &BigUint, b: &BigUint) -> bool {
    if a.is_zero() || b.is_zero() {
        return a.is_one() || b.is_one();
    }
    if a.is_one() || b.is_one() {
        return true;
    }
    // The kernel wants its second operand odd; two even operands share 2.
    let (u, v) = match (a.bit(0), b.bit(0)) {
        (_, true) => (a, b),
        (true, false) => (b, a),
        (false, false) => return false,
    };
    let k = a.iter_u64_digits().len().max(b.iter_u64_digits().len());
    by_limbs!(k, L => binary_gcd::<L, false>(limbs_of(u, k), &limbs_of(v, k)).is_some())
}

/// Binary GCD of a non-zero `u` and an odd `v > 1` (`u` may exceed `v`).
/// `None` when `gcd(u, v) ≠ 1`. Otherwise, with `BEZOUT`, `u⁻¹ mod v`;
/// without, the cofactors are not tracked and the value is meaningless.
///
/// Invariant: `x_a·u ≡ a` and `x_b·u ≡ b (mod v)`, with `x_a, x_b` in
/// `[0, v)`. Each step strips the factors of two off `a` (or `b`) — `v` is
/// odd, so they are not part of the gcd — dividing its cofactor by the same
/// power of two modulo `v`, then subtracts the smaller of the two odd values
/// from the larger. The pair shrinks until one of them is 1 (co-prime: its
/// cofactor is the inverse) or they meet at the gcd.
fn binary_gcd<L: Limbs, const BEZOUT: bool>(mut a: L, v: &L) -> Option<L> {
    let mut b = v.clone();
    let v = v.as_ref();
    let k = v.len();
    let (mut x_a, mut x_b) = (L::zeroed(k), L::zeroed(k));
    if BEZOUT {
        x_a.as_mut()[0] = 1;
    }
    // −v⁻¹ mod 2⁶⁴: what clears the low bits of a cofactor before a shift.
    let v_neg_inv = word_inverse(v[0]).wrapping_neg();
    strip_twos::<BEZOUT>(a.as_mut(), x_a.as_mut(), v, v_neg_inv);
    if is_one(a.as_ref()) {
        return Some(x_a);
    }
    loop {
        let (larger, x_larger, x_smaller) = match cmp(a.as_ref(), b.as_ref()) {
            Ordering::Equal => return None,
            Ordering::Greater => {
                sub_assign(a.as_mut(), b.as_ref());
                (&mut a, &mut x_a, &x_b)
            }
            Ordering::Less => {
                sub_assign(b.as_mut(), a.as_ref());
                (&mut b, &mut x_b, &x_a)
            }
        };
        if BEZOUT && sub_assign(x_larger.as_mut(), x_smaller.as_ref()) {
            add_assign(x_larger.as_mut(), v);
        }
        strip_twos::<BEZOUT>(larger.as_mut(), x_larger.as_mut(), v, v_neg_inv);
        if is_one(larger.as_ref()) {
            return Some(x_larger.clone());
        }
    }
}

/// `a⁻¹ mod m` for an even `m` and an odd `a` in `(1, m)`.
///
/// With `b = m⁻¹ mod a` (in `[1, a)`), `1 + m·(a − b) ≡ 1 − m·b ≡ 0 (mod a)`,
/// so `y = (1 + m·(a − b)) / a` is an integer; `y·a ≡ 1 (mod m)` and
/// `0 < y < m`, so `y` is the inverse. Being below `2^(64·k)`, `y` equals the
/// numerator times `a⁻¹` modulo `2^(64·k)`: only the low halves of the
/// product and of the division are needed.
fn invert_for_even<L: Limbs>(a: &L, m: &L) -> Option<L> {
    let b = binary_gcd::<L, true>(m.clone(), a)?;
    let (a, m) = (a.as_ref(), m.as_ref());
    let k = m.len();
    let mut difference = L::zeroed(k);
    difference.as_mut().copy_from_slice(a);
    sub_assign(difference.as_mut(), b.as_ref());
    let mut numerator = L::zeroed(k);
    let num = numerator.as_mut();
    let d = difference.as_ref();
    for i in 0..k {
        let mut carry = 0u64;
        for j in 0..k - i {
            let t =
                u128::from(num[i + j]) + u128::from(m[i]) * u128::from(d[j]) + u128::from(carry);
            num[i + j] = t as u64;
            carry = (t >> 64) as u64;
        }
    }
    for limb in num.iter_mut() {
        let (sum, carry) = limb.overflowing_add(1);
        *limb = sum;
        if !carry {
            break;
        }
    }
    // Hensel division: quotient limb `i` clears numerator limb `i`.
    let a_inv = word_inverse(a[0]);
    let mut quotient = L::zeroed(k);
    for (i, q_i) in quotient.as_mut().iter_mut().enumerate() {
        let q = num[i].wrapping_mul(a_inv);
        *q_i = q;
        let mut carry = 0u64;
        for j in 0..k - i {
            let t = u128::from(q) * u128::from(a[j]) + u128::from(carry);
            let (difference, borrow) = num[i + j].overflowing_sub(t as u64);
            num[i + j] = difference;
            carry = (t >> 64) as u64 + u64::from(borrow);
        }
    }
    Some(quotient)
}

/// Shifts the trailing zero bits out of a non-zero `x`; with `BEZOUT`,
/// divides its cofactor `c` (in `[0, v)`) by the same power of two modulo `v`.
fn strip_twos<const BEZOUT: bool>(x: &mut [u64], c: &mut [u64], v: &[u64], v_neg_inv: u64) {
    let zero_limbs = x.iter().take_while(|&&limb| limb == 0).count();
    let mut zeros = 64 * zero_limbs as u32 + x[zero_limbs].trailing_zeros();
    while zeros > 0 {
        let shift = zeros.min(63);
        shift_right(x, shift, 0);
        if BEZOUT {
            halve_mod(c, shift, v, v_neg_inv);
        }
        zeros -= shift;
    }
}

/// `c · 2^(−shift) mod v` for `c` in `[0, v)` and `shift` in `1..64`: adds the
/// multiple `t·v` (`t < 2^shift`) that clears the low `shift` bits, then
/// shifts. The result `(c + t·v) / 2^shift` is below `v` again.
fn halve_mod(c: &mut [u64], shift: u32, v: &[u64], v_neg_inv: u64) {
    let t = c[0].wrapping_mul(v_neg_inv) & ((1u64 << shift) - 1);
    let mut carry = 0u64;
    for (c, &v) in c.iter_mut().zip(v) {
        let sum = u128::from(*c) + u128::from(t) * u128::from(v) + u128::from(carry);
        *c = sum as u64;
        carry = (sum >> 64) as u64;
    }
    shift_right(c, shift, carry);
}

/// `x = (x + top·2^(64·len)) >> shift` for `shift` in `1..64`.
fn shift_right(x: &mut [u64], shift: u32, top: u64) {
    let k = x.len();
    for i in 0..k - 1 {
        x[i] = (x[i] >> shift) | (x[i + 1] << (64 - shift));
    }
    x[k - 1] = (x[k - 1] >> shift) | (top << (64 - shift));
}

/// `a += b` modulo `2^(64·len)`.
fn add_assign(a: &mut [u64], b: &[u64]) {
    let mut carry = false;
    for (x, y) in a.iter_mut().zip(b) {
        let (s, c1) = x.overflowing_add(*y);
        let (s, c2) = s.overflowing_add(u64::from(carry));
        *x = s;
        carry = c1 | c2;
    }
}

fn cmp(a: &[u64], b: &[u64]) -> Ordering {
    a.iter().rev().cmp(b.iter().rev())
}

fn is_one(x: &[u64]) -> bool {
    x[0] == 1 && x[1..].iter().all(|&limb| limb == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::reference;
    use crate::keys::{KeyConfig, SystemKey};
    use crate::CryptoError;
    use num_bigint::RandBigInt;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The limb counts `modulus.rs` tests: the three monomorphised widths,
    /// their neighbours on the `Vec` path, and the smallest ones.
    const LIMB_COUNTS: [u64; 7] = [1, 2, 4, 8, 9, 32, 33];

    fn big(v: u32) -> BigUint {
        BigUint::from(v)
    }

    /// `bits` random bits with the top one set.
    fn exact_bits(rng: &mut StdRng, bits: u64) -> BigUint {
        let mut x = rng.gen_biguint(bits);
        x.set_bit(bits - 1, true);
        x
    }

    fn odd_exact_bits(rng: &mut StdRng, bits: u64) -> BigUint {
        let mut x = exact_bits(rng, bits);
        x.set_bit(0, true);
        x
    }

    /// The public entry points against the Euclid: the same inverse or the
    /// same error, and the same co-primality verdict either way round.
    fn check(a: &BigUint, m: &BigUint) {
        let inverse = crate::bigint::mod_inverse(a, m);
        assert_eq!(inverse, reference::mod_inverse(a, m), "{a}⁻¹ mod {m}");
        if let Ok(inverse) = &inverse {
            assert!(inverse < m, "{a}⁻¹ mod {m}");
        }
        let expected = reference::coprime(a, m);
        assert_eq!(coprime(a, m), expected, "gcd({a}, {m})");
        assert_eq!(coprime(m, a), expected, "gcd({m}, {a})");
    }

    /// Operands on the boundaries (0, 1, m − 1, m and above) and at random,
    /// plus `shared`, a multiple of a factor of `m`.
    fn operands(rng: &mut StdRng, m: &BigUint, shared: &BigUint) -> Vec<BigUint> {
        let one = BigUint::one();
        vec![
            BigUint::zero(),
            one.clone(),
            BigUint::from(2u32),
            m - &one,
            m.clone(),
            m + &one,
            rng.gen_biguint_below(m),
            rng.gen_biguint_below(m) | &one,
            rng.gen_biguint(m.bits() + 70),
            shared.clone(),
            shared * rng.gen_biguint(40) % m,
            shared + m,
        ]
    }

    /// Odd moduli `p·q` and even moduli `2^t·p·q'` of every width under test,
    /// with operands that share `p` among the random ones.
    #[test]
    fn inverse_matches_the_euclid_at_every_width() {
        let mut rng = StdRng::seed_from_u64(0x1a7e);
        for limbs in LIMB_COUNTS {
            let half = 32 * limbs;
            let p = odd_exact_bits(&mut rng, half);
            let odd = &p * odd_exact_bits(&mut rng, half);
            // Up to 80 factors of two: more than a limb of zeros to strip.
            let twos = rng.gen_range(1..=(half - 8).min(80));
            let even = (&p * odd_exact_bits(&mut rng, half - twos)) << twos;
            for m in [&odd, &even] {
                assert_eq!(m.iter_u64_digits().len() as u64, limbs, "{m}");
                for a in operands(&mut rng, m, &p) {
                    check(&a, m);
                }
            }
        }
    }

    /// Every operand up to twice every modulus up to 64: 1 (where every
    /// value, and so its inverse, is 0), 2, primes, powers of two and
    /// everything between.
    #[test]
    fn small_moduli_match_the_euclid_exhaustively() {
        for m in 1u32..=64 {
            for a in 0..=2 * m + 1 {
                check(&a.into(), &m.into());
            }
        }
    }

    /// The real `φ(n)` of the `TEST` and `BALANCED` keys (and their `n`),
    /// against operands drawn the way column keys draw `x`.
    #[test]
    fn inverse_modulo_phi_matches_the_euclid() {
        let mut rng = StdRng::seed_from_u64(0x1a7f);
        for config in [KeyConfig::TEST, KeyConfig::BALANCED] {
            let key = SystemKey::generate(&mut rng, config).unwrap();
            let phi = key.phi();
            let mut operands = operands(&mut rng, phi, &(phi >> 1u32));
            operands.extend((0..24).map(|_| key.gen_column_key(&mut rng).x().clone()));
            operands.push(key.gen_aux_column_key(&mut rng).x().clone());
            for a in &operands {
                check(a, phi);
                check(a, key.n());
            }
        }
    }

    /// Zero moduli and operands sharing a factor with the modulus are
    /// refused with `NotInvertible`, never a panic.
    #[test]
    fn non_invertible_operands_are_refused() {
        let refused = Err(CryptoError::NotInvertible {
            what: "gcd(a, m) != 1",
        });
        let mut rng = StdRng::seed_from_u64(0x1a80);
        let p = odd_exact_bits(&mut rng, 128);
        let q = odd_exact_bits(&mut rng, 128);
        let (odd, even) = (&p * &q, (&p * &q) << 3u32);
        for (a, m) in [
            (&p, &odd),
            (&(&q * big(5)), &odd),
            (&odd, &odd),
            (&BigUint::zero(), &odd),
            (&p, &even),
            (&BigUint::from(6u32), &even),
            (&(&even + big(2)), &even),
            (&BigUint::one(), &BigUint::zero()),
            (&p, &BigUint::zero()),
        ] {
            assert_eq!(crate::bigint::mod_inverse(a, m), refused, "{a} mod {m}");
        }
    }

    /// `coprime` is `Integer::gcd(..).is_one()`: zeros, ones, two even
    /// values, equal values, and pairs of unequal widths either way round.
    #[test]
    fn coprime_agrees_with_integer_gcd() {
        for a in 0u32..=40 {
            for b in 0u32..=40 {
                let (a, b) = (BigUint::from(a), BigUint::from(b));
                assert_eq!(coprime(&a, &b), reference::coprime(&a, &b), "gcd({a}, {b})");
            }
        }
        let mut rng = StdRng::seed_from_u64(0x1a81);
        for limbs in LIMB_COUNTS {
            let bits = 64 * limbs;
            let x = rng.gen_biguint(bits);
            let f = odd_exact_bits(&mut rng, 61);
            let narrow = rng.gen_biguint(50);
            let pairs = [
                (x.clone(), x.clone()),
                (x.clone(), &x + big(1)),
                (&x * big(2), &x * big(4) + big(2)),
                (&x * &f, &f * rng.gen_biguint(bits)),
                (narrow.clone(), rng.gen_biguint(bits)),
                (&narrow * &f, (&x | BigUint::one()) * &f),
                (exact_bits(&mut rng, bits), BigUint::one()),
                (exact_bits(&mut rng, bits), BigUint::zero()),
            ];
            for (a, b) in &pairs {
                let expected = reference::coprime(a, b);
                assert_eq!(coprime(a, b), expected, "gcd({a}, {b})");
                assert_eq!(coprime(b, a), expected, "gcd({b}, {a})");
            }
        }
    }
}
