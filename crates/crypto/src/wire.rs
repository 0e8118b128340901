//! The byte encoding of ciphertext on the DO ↔ SP wire.
//!
//! Every share and every row-id ciphertext that crosses the boundary inside a
//! JSON payload travels as one string of standard, padded base64 (RFC 4648
//! §4) over its bytes:
//!
//! * a **share** is its minimal little-endian bytes — no zero high byte, and
//!   no bytes at all for zero. The length already varies with the share's
//!   magnitude in the decimal text this replaced, so it tells the SP nothing
//!   new;
//! * a **row-id ciphertext** ([`SiesCiphertext`]) is `nonce ‖ tag ‖ body`,
//!   the nonce and tag as 8 little-endian bytes each — the bytes its
//!   [`size_bytes`](SiesCiphertext::size_bytes) counts.
//!
//! The encoding is this module's own, not the big-integer library's, so the
//! wire bytes do not depend on which `num-bigint` is linked. Decoding is
//! strict: a length that is not a multiple of four, a character outside the
//! alphabet, misplaced padding, non-zero padding bits, a share with a zero
//! high byte or a ciphertext shorter than its header is an error — a serde
//! error inside a payload — never a panic and never a second spelling of the
//! same value.

use num_bigint::BigUint;

use crate::sies::SiesCiphertext;
use crate::{CryptoError, Result};

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes `bytes` as standard padded base64.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let group = u32::from(chunk[0]) << 16
            | u32::from(chunk.get(1).copied().unwrap_or(0)) << 8
            | u32::from(chunk.get(2).copied().unwrap_or(0));
        for symbol in 0..4 {
            out.push(if symbol <= chunk.len() {
                ALPHABET[((group >> (18 - 6 * symbol)) & 63) as usize]
            } else {
                b'='
            });
        }
    }
    String::from_utf8(out).expect("base64 is ASCII")
}

/// Decodes standard padded base64, rejecting every non-canonical spelling.
pub fn decode(text: &str) -> Result<Vec<u8>> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return Err(malformed(format!(
            "base64 length {} is not a multiple of 4",
            text.len()
        )));
    }
    let groups = text.len() / 4;
    let mut out = Vec::with_capacity(groups * 3);
    for (index, quad) in text.chunks_exact(4).enumerate() {
        let padding = if index + 1 == groups {
            quad.iter().rev().take_while(|&&c| c == b'=').count()
        } else {
            0
        };
        if padding > 2 {
            return Err(malformed("more than two base64 padding characters".into()));
        }
        let mut group = 0u32;
        for &symbol in &quad[..4 - padding] {
            group = group << 6 | sextet(symbol)?;
        }
        group <<= 6 * padding;
        if group & ((1 << (8 * padding)) - 1) != 0 {
            return Err(malformed("non-zero base64 padding bits".into()));
        }
        out.extend_from_slice(&group.to_be_bytes()[1..4 - padding]);
    }
    Ok(out)
}

fn sextet(symbol: u8) -> Result<u32> {
    let value = match symbol {
        b'A'..=b'Z' => symbol - b'A',
        b'a'..=b'z' => symbol - b'a' + 26,
        b'0'..=b'9' => symbol - b'0' + 52,
        b'+' => 62,
        b'/' => 63,
        other => {
            return Err(malformed(format!(
                "byte {other:#04x} is not a base64 symbol here"
            )))
        }
    };
    Ok(u32::from(value))
}

fn malformed(detail: String) -> CryptoError {
    CryptoError::MalformedCiphertext { detail }
}

/// Shares as wire text; also a `#[serde(with = "sdb_crypto::wire::share")]`
/// module for `BigUint` fields.
pub mod share {
    use super::*;
    use serde::{Deserialize, Deserializer, Serializer};

    /// The wire text of a share: base64 of its minimal little-endian bytes
    /// (the empty string for zero).
    pub fn to_text(value: &BigUint) -> String {
        if value.bits() == 0 {
            return String::new();
        }
        encode(&value.to_bytes_le())
    }

    /// Parses [`to_text`]'s output; a zero high byte is an error.
    pub fn from_text(text: &str) -> Result<BigUint> {
        let bytes = decode(text)?;
        if bytes.last() == Some(&0) {
            return Err(malformed("share bytes are not minimal".into()));
        }
        Ok(BigUint::from_bytes_le(&bytes))
    }

    /// Serialises a share as its wire text.
    pub fn serialize<S: Serializer>(
        value: &BigUint,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        serializer.serialize_str(&to_text(value))
    }

    /// Deserialises a share from its wire text.
    pub fn deserialize<'de, D: Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<BigUint, D::Error> {
        let text = String::deserialize(deserializer)?;
        from_text(&text).map_err(serde::de::Error::custom)
    }
}

/// The wire bytes of a row-id ciphertext: `nonce ‖ tag ‖ body`.
pub(crate) fn sies_to_bytes(ct: &SiesCiphertext) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(ct.size_bytes());
    bytes.extend_from_slice(&ct.nonce.to_le_bytes());
    bytes.extend_from_slice(&ct.tag.to_le_bytes());
    bytes.extend_from_slice(&ct.body);
    bytes
}

/// Parses [`sies_to_bytes`]'s output.
pub(crate) fn sies_from_bytes(bytes: &[u8]) -> Result<SiesCiphertext> {
    if bytes.len() < 16 {
        return Err(malformed(format!(
            "a row-id ciphertext needs 16 header bytes, has {}",
            bytes.len()
        )));
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    Ok(SiesCiphertext {
        nonce: word(0),
        tag: word(8),
        body: bytes[16..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_the_rfc_4648_vectors() {
        let vectors = [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ];
        for (plain, text) in vectors {
            assert_eq!(encode(plain.as_bytes()), text);
            assert_eq!(decode(text).unwrap(), plain.as_bytes());
        }
        let every_byte: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&every_byte)).unwrap(), every_byte);
        assert!(encode(&[0xfb, 0xff]).contains('+') && encode(&[0xff, 0xff]).contains('/'));
    }

    #[test]
    fn rejects_every_non_canonical_spelling() {
        for bad in [
            "Zg=", "Zg", "Zm9vY", // length not a multiple of 4
            "Zm9v!A==", "Zm 9", "Zm9-", "Zm9_", "Zm\u{e9}", // outside the alphabet
            "Z===", "====", "Zg==Zm9v", "Z=g=", "=Zm9", // misplaced or excess padding
            "Zh==", "Zm9=", "Zm+=", // non-zero padding bits
        ] {
            assert!(decode(bad).is_err(), "{bad:?} decoded");
        }
    }

    #[test]
    fn shares_are_minimal_bytes() {
        assert_eq!(share::to_text(&BigUint::from(0u32)), "");
        assert_eq!(share::to_text(&BigUint::from(1u32)), "AQ==");
        assert_eq!(share::to_text(&BigUint::from(0x0100u32)), "AAE=");
        assert_eq!(share::from_text("").unwrap(), BigUint::from(0u32));
        assert_eq!(share::from_text("AAE=").unwrap(), BigUint::from(256u32));
        // A zero high byte is a second spelling of the same value.
        assert!(share::from_text("AQA=").is_err());
        assert!(share::from_text("AA==").is_err());
    }

    #[test]
    fn row_id_ciphertexts_need_their_header() {
        let ct = SiesCiphertext {
            nonce: 0x0102_0304_0506_0708,
            body: vec![9, 10, 11],
            tag: u64::MAX,
        };
        let bytes = sies_to_bytes(&ct);
        assert_eq!(bytes.len(), ct.size_bytes());
        assert_eq!(&bytes[..8], &ct.nonce.to_le_bytes());
        assert_eq!(sies_from_bytes(&bytes).unwrap(), ct);
        assert!(sies_from_bytes(&bytes[..15]).is_err());
        assert_eq!(
            sies_from_bytes(&bytes[..16]).unwrap().body,
            Vec::<u8>::new()
        );
    }
}
