//! Row-id cipher — the reproduction's stand-in for SIES.
//!
//! The paper encrypts row ids with SIES (Papadopoulos et al., ICDE 2011) because row
//! ids are never operated on by the secure operators; any conventional symmetric
//! scheme with non-deterministic ciphertexts suffices (paper §2.1: "a simpler
//! encryption method suffices"). This module provides such a scheme built from the
//! SipHash-based PRF in [`crate::prf`]: a per-ciphertext random 64-bit nonce selects
//! a keystream which is XOR-combined with the serialised plaintext, and a keyed tag
//! authenticates the result.
//!
//! The substitution is recorded in ARCHITECTURE.md (crate map: `sdb-crypto`).

use num_bigint::BigUint;
use rand::Rng;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

use crate::prf::{Prf, PrfKey};
use crate::{wire, CryptoError, Result};

/// A ciphertext produced by [`SiesCipher::encrypt_bytes`] (or its
/// [`SiesCipher::encrypt_biguint`] wrapper). It serialises as one base64
/// string of `nonce ‖ tag ‖ body` (see [`crate::wire`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SiesCiphertext {
    /// Random per-encryption nonce.
    pub nonce: u64,
    /// Keystream-masked plaintext bytes.
    pub body: Vec<u8>,
    /// Authentication tag over nonce and body.
    pub tag: u64,
}

impl SiesCiphertext {
    /// Total serialised size in bytes (for storage accounting).
    pub fn size_bytes(&self) -> usize {
        8 + self.body.len() + 8
    }
}

impl Serialize for SiesCiphertext {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        serializer.serialize_str(&wire::encode(&wire::sies_to_bytes(self)))
    }
}

impl<'de> Deserialize<'de> for SiesCiphertext {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        let text = String::deserialize(deserializer)?;
        wire::decode(&text)
            .and_then(|bytes| wire::sies_from_bytes(&bytes))
            .map_err(serde::de::Error::custom)
    }
}

/// Symmetric cipher for row ids.
#[derive(Debug, Clone)]
pub struct SiesCipher {
    enc: Prf,
    mac: Prf,
}

impl SiesCipher {
    /// Creates a cipher from two independent PRF keys (encryption and MAC).
    pub fn new(enc_key: PrfKey, mac_key: PrfKey) -> Self {
        SiesCipher {
            enc: Prf::new(enc_key),
            mac: Prf::new(mac_key),
        }
    }

    /// Derives a cipher from a single master key using domain separation.
    pub fn from_master<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::new(PrfKey::random(rng), PrfKey::random(rng))
    }

    fn mac_tag(&self, nonce: u64, body: &[u8]) -> u64 {
        let mut buf = Vec::with_capacity(8 + body.len());
        buf.extend_from_slice(&nonce.to_le_bytes());
        buf.extend_from_slice(body);
        self.mac.eval(&buf)
    }

    /// Encrypts an arbitrary byte string under a fresh random nonce.
    pub fn encrypt_bytes<R: Rng + ?Sized>(&self, rng: &mut R, plaintext: &[u8]) -> SiesCiphertext {
        let nonce: u64 = rng.gen();
        let keystream = self.enc.keystream(nonce, plaintext.len());
        let body: Vec<u8> = plaintext
            .iter()
            .zip(keystream.iter())
            .map(|(p, k)| p ^ k)
            .collect();
        let tag = self.mac_tag(nonce, &body);
        SiesCiphertext { nonce, body, tag }
    }

    /// Decrypts a ciphertext, verifying its tag.
    pub fn decrypt_bytes(&self, ct: &SiesCiphertext) -> Result<Vec<u8>> {
        let expected = self.mac_tag(ct.nonce, &ct.body);
        if expected != ct.tag {
            return Err(CryptoError::MalformedCiphertext {
                detail: "authentication tag mismatch".to_string(),
            });
        }
        let keystream = self.enc.keystream(ct.nonce, ct.body.len());
        Ok(ct
            .body
            .iter()
            .zip(keystream.iter())
            .map(|(c, k)| c ^ k)
            .collect())
    }

    /// Encrypts a big-integer row id.
    pub fn encrypt_biguint<R: Rng + ?Sized>(&self, rng: &mut R, value: &BigUint) -> SiesCiphertext {
        self.encrypt_bytes(rng, &value.to_bytes_le())
    }

    /// Decrypts a big-integer row id.
    pub fn decrypt_biguint(&self, ct: &SiesCiphertext) -> Result<BigUint> {
        Ok(BigUint::from_bytes_le(&self.decrypt_bytes(ct)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cipher_and_rng() -> (SiesCipher, StdRng) {
        let mut rng = StdRng::seed_from_u64(0x51e5);
        let cipher = SiesCipher::from_master(&mut rng);
        (cipher, rng)
    }

    #[test]
    fn roundtrip_bytes() {
        let (cipher, mut rng) = cipher_and_rng();
        for len in [0usize, 1, 8, 17, 100] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let ct = cipher.encrypt_bytes(&mut rng, &pt);
            assert_eq!(cipher.decrypt_bytes(&ct).unwrap(), pt);
        }
    }

    #[test]
    fn ciphertexts_are_nondeterministic() {
        let (cipher, mut rng) = cipher_and_rng();
        let pt = b"same row id";
        let c1 = cipher.encrypt_bytes(&mut rng, pt);
        let c2 = cipher.encrypt_bytes(&mut rng, pt);
        assert_ne!(c1, c2, "two encryptions of the same plaintext must differ");
    }

    #[test]
    fn tampering_is_detected() {
        let (cipher, mut rng) = cipher_and_rng();
        let mut ct = cipher.encrypt_bytes(&mut rng, b"row 42");
        ct.body[0] ^= 1;
        assert!(cipher.decrypt_bytes(&ct).is_err());
        let mut ct2 = cipher.encrypt_bytes(&mut rng, b"row 42");
        ct2.nonce ^= 1;
        assert!(cipher.decrypt_bytes(&ct2).is_err());
    }

    #[test]
    fn wrong_key_fails() {
        let (cipher, mut rng) = cipher_and_rng();
        let other = SiesCipher::from_master(&mut rng);
        let ct = cipher.encrypt_bytes(&mut rng, b"secret");
        assert!(other.decrypt_bytes(&ct).is_err());
    }

    #[test]
    fn biguint_roundtrip() {
        let (cipher, mut rng) = cipher_and_rng();
        for v in [0u64, 1, 255, 256, u64::MAX] {
            let value = BigUint::from(v);
            let ct = cipher.encrypt_biguint(&mut rng, &value);
            assert_eq!(cipher.decrypt_biguint(&ct).unwrap(), value);
        }
        // A genuinely big value too.
        let big = BigUint::parse_bytes(b"123456789012345678901234567890123456789", 10).unwrap();
        let ct = cipher.encrypt_biguint(&mut rng, &big);
        assert_eq!(cipher.decrypt_biguint(&ct).unwrap(), big);
    }

    #[test]
    fn ciphertext_serde_roundtrip() {
        let (cipher, mut rng) = cipher_and_rng();
        let ct = cipher.encrypt_bytes(&mut rng, b"serialize me");
        let json = serde_json::to_string(&ct).unwrap();
        let back: SiesCiphertext = serde_json::from_str(&json).unwrap();
        assert_eq!(ct, back);
        assert_eq!(cipher.decrypt_bytes(&back).unwrap(), b"serialize me");
    }
}
