//! Encoding of signed application values into `Z_n`.
//!
//! SDB operates on residues modulo `n`, but applications work with signed 64-bit
//! integers (and fixed-point decimals layered on top of them by `sdb-storage`).
//! The codec maps a signed value `v` with `|v| ≤ 2^domain_bits` to
//!
//! * `v`            if `v ≥ 0`
//! * `n − |v|`      if `v < 0`
//!
//! i.e. two's-complement style wrapping in `Z_n`. Because the modulus is vastly
//! larger than the domain (the [`KeyConfig`](crate::KeyConfig) validation enforces
//! head-room for a product of two domain values plus a blinding factor), sums,
//! differences and products of in-domain values decode correctly, and the *sign* of
//! a blinded difference survives the comparison protocol.

use num_bigint::BigUint;
use num_traits::Zero;

use crate::bigint::reduce;
use crate::keys::SystemKey;
use crate::{CryptoError, Result};

/// Encoder/decoder between `i128` application values and residues in `Z_n`.
#[derive(Debug, Clone)]
pub struct SignedCodec {
    n: BigUint,
    half_n: BigUint,
    /// Inclusive magnitude bound for *inputs* (outputs may grow up to the modulus
    /// head-room before decoding breaks; see [`KeyConfig::validate`](crate::KeyConfig::validate)).
    max_magnitude: u128,
}

impl SignedCodec {
    /// Builds a codec for the given system key, using the key's configured domain.
    pub fn new(key: &SystemKey) -> Self {
        let n = key.n().clone();
        let half_n = &n >> 1u32;
        let domain_bits = key.config().domain_bits.min(126);
        SignedCodec {
            n,
            half_n,
            max_magnitude: 1u128 << domain_bits,
        }
    }

    /// Builds a codec directly from a modulus with an explicit domain bound.
    /// Used by the SP-side audit tooling, which knows `n` but not the key.
    pub fn from_modulus(n: BigUint, domain_bits: u32) -> Self {
        let half_n = &n >> 1u32;
        SignedCodec {
            n,
            half_n,
            max_magnitude: 1u128 << domain_bits.min(126),
        }
    }

    /// The inclusive magnitude bound accepted by [`encode`](Self::encode).
    pub fn max_magnitude(&self) -> u128 {
        self.max_magnitude
    }

    /// Encodes a signed value into `Z_n`.
    pub fn encode(&self, v: i128) -> Result<BigUint> {
        let mag = v.unsigned_abs();
        if mag > self.max_magnitude {
            return Err(CryptoError::DomainOverflow {
                detail: format!("|{v}| exceeds domain bound {}", self.max_magnitude),
            });
        }
        if v >= 0 {
            Ok(BigUint::from(mag))
        } else {
            Ok(&self.n - BigUint::from(mag))
        }
    }

    /// Decodes a residue back into a signed value.
    ///
    /// Residues in `[0, n/2]` decode as non-negative, residues in `(n/2, n)` decode
    /// as negative. Returns an error if the magnitude does not fit in an `i128`.
    pub fn decode(&self, residue: &BigUint) -> Result<i128> {
        let residue = reduce(residue, &self.n);
        let (neg, mag) = if *residue > self.half_n {
            (true, &self.n - &*residue)
        } else {
            (false, residue.into_owned())
        };
        let mag_u128: u128 = mag.try_into().map_err(|_| CryptoError::DomainOverflow {
            detail: "decoded magnitude exceeds 128 bits".to_string(),
        })?;
        if mag_u128 > i128::MAX as u128 {
            return Err(CryptoError::DomainOverflow {
                detail: "decoded magnitude exceeds i128::MAX".to_string(),
            });
        }
        Ok(if neg {
            -(mag_u128 as i128)
        } else {
            mag_u128 as i128
        })
    }

    /// Returns the sign of a residue: `-1`, `0` or `1`.
    ///
    /// This is all the comparison protocol needs from a blinded difference, so the
    /// proxy can avoid materialising magnitudes it does not need.
    pub fn sign(&self, residue: &BigUint) -> i8 {
        let residue = reduce(residue, &self.n);
        if residue.is_zero() {
            0
        } else if *residue > self.half_n {
            -1
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyConfig;
    use crate::share::{decrypt_value, encrypt_value, gen_item_key};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (SystemKey, SignedCodec, StdRng) {
        let mut rng = StdRng::seed_from_u64(99);
        let key = SystemKey::generate(&mut rng, KeyConfig::TEST).unwrap();
        let codec = SignedCodec::new(&key);
        (key, codec, rng)
    }

    #[test]
    fn roundtrip_positive_negative_zero() {
        let (_, codec, _) = setup();
        for v in [0i128, 1, -1, 42, -42, 1 << 39, -(1 << 39)] {
            let enc = codec.encode(v).unwrap();
            assert_eq!(codec.decode(&enc).unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn rejects_out_of_domain() {
        let (_, codec, _) = setup();
        let too_big = (codec.max_magnitude() + 1) as i128;
        assert!(codec.encode(too_big).is_err());
        assert!(codec.encode(-too_big).is_err());
        // The bound itself is accepted (inclusive).
        assert!(codec.encode(codec.max_magnitude() as i128).is_ok());
    }

    #[test]
    fn sign_detection() {
        let (_, codec, _) = setup();
        assert_eq!(codec.sign(&codec.encode(5).unwrap()), 1);
        assert_eq!(codec.sign(&codec.encode(-5).unwrap()), -1);
        assert_eq!(codec.sign(&codec.encode(0).unwrap()), 0);
    }

    #[test]
    fn arithmetic_on_encodings_matches_integers() {
        let (key, codec, mut rng) = setup();
        let n = key.n();
        for _ in 0..100 {
            let a: i64 = rng.gen_range(-1_000_000..1_000_000);
            let b: i64 = rng.gen_range(-1_000_000..1_000_000);
            let ea = codec.encode(a as i128).unwrap();
            let eb = codec.encode(b as i128).unwrap();
            let sum = (&ea + &eb) % n;
            let diff = (&ea + (n - &eb % n)) % n;
            let prod = (&ea * &eb) % n;
            assert_eq!(codec.decode(&sum).unwrap(), (a + b) as i128);
            assert_eq!(codec.decode(&diff).unwrap(), (a - b) as i128);
            assert_eq!(codec.decode(&prod).unwrap(), (a as i128) * (b as i128));
        }
    }

    #[test]
    fn signed_values_survive_encryption() {
        let (key, codec, mut rng) = setup();
        let ck = key.gen_column_key(&mut rng);
        for v in [-1_000_000i128, -1, 0, 1, 999_999_999] {
            let r = key.gen_row_id(&mut rng);
            let ik = gen_item_key(&key, &ck, &r);
            let ve = encrypt_value(&key, &codec.encode(v).unwrap(), &ik);
            let back = codec.decode(&decrypt_value(&key, &ve, &ik)).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn blinded_difference_preserves_sign() {
        // The comparison protocol multiplies the encoded difference by a random
        // positive factor; the sign (and zero-ness) must survive.
        let (key, codec, mut rng) = setup();
        let n = key.n();
        for _ in 0..100 {
            let a: i64 = rng.gen_range(-1_000_000..1_000_000);
            let b: i64 = rng.gen_range(-1_000_000..1_000_000);
            let blind: u64 = rng.gen_range(1..(1 << 20));
            let d = codec.encode((a - b) as i128).unwrap();
            let blinded = (&d * BigUint::from(blind)) % n;
            let expected = (a - b).signum() as i8;
            assert_eq!(codec.sign(&blinded), expected, "a={a} b={b} blind={blind}");
        }
    }

    #[test]
    fn unreduced_residues_decode_like_reduced_ones() {
        let (key, codec, _) = setup();
        let n = key.n();
        for v in [-5i128, 0, 7] {
            let wide = codec.encode(v).unwrap() + n * BigUint::from(3u32);
            assert_eq!(codec.decode(&wide).unwrap(), v);
            assert_eq!(codec.sign(&wide), v.signum() as i8);
        }
    }

    #[test]
    fn from_modulus_matches_key_codec() {
        let (key, codec, _) = setup();
        let other = SignedCodec::from_modulus(key.n().clone(), key.config().domain_bits);
        for v in [-77i128, 0, 123456] {
            assert_eq!(
                codec.encode(v).unwrap(),
                other.encode(v).unwrap(),
                "value {v}"
            );
        }
    }
}
