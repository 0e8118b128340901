//! A keyed pseudo-random function built on SipHash-2-4.
//!
//! The PRF serves two purposes in the reproduction:
//!
//! 1. **Keystream generation** for the row-id cipher ([`crate::sies`]), our stand-in
//!    for the SIES scheme the paper cites for row ids.
//! 2. **Equality tags**: `tag = PRF_k(domain || plaintext)`, stored beside every
//!    sensitive VARCHAR (equality is the only operation those support) and
//!    answered by the DO oracle for `SDB_GROUP_TAG`.
//!
//! SipHash-2-4 is implemented from the published specification (Aumasson &
//! Bernstein, 2012). It is a 64-bit keyed PRF designed for exactly this kind of
//! short-input message authentication. We deliberately avoid pulling in an external
//! hash crate: the pre-approved dependency set does not include one, and a
//! self-contained implementation keeps the trust story of the crate simple.

use serde::{Deserialize, Serialize};

/// A 128-bit PRF key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrfKey {
    /// Low 64 bits of the key.
    pub k0: u64,
    /// High 64 bits of the key.
    pub k1: u64,
}

impl PrfKey {
    /// Creates a key from two 64-bit halves.
    pub fn new(k0: u64, k1: u64) -> Self {
        PrfKey { k0, k1 }
    }

    /// Derives a fresh key from random material.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        PrfKey {
            k0: rng.gen(),
            k1: rng.gen(),
        }
    }
}

/// SipHash-2-4 keyed PRF.
#[derive(Debug, Clone, Copy)]
pub struct Prf {
    key: PrfKey,
}

#[inline]
fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// One SipHash round of two independent states, step by step in lockstep.
#[inline]
fn sip_rounds(v: &mut [[u64; 4]; 2]) {
    for s in v.iter_mut() {
        s[0] = s[0].wrapping_add(s[1]);
        s[2] = s[2].wrapping_add(s[3]);
    }
    for s in v.iter_mut() {
        s[1] = s[1].rotate_left(13) ^ s[0];
        s[3] = s[3].rotate_left(16) ^ s[2];
        s[0] = s[0].rotate_left(32);
    }
    for s in v.iter_mut() {
        s[2] = s[2].wrapping_add(s[1]);
        s[0] = s[0].wrapping_add(s[3]);
    }
    for s in v.iter_mut() {
        s[1] = s[1].rotate_left(17) ^ s[2];
        s[3] = s[3].rotate_left(21) ^ s[0];
        s[2] = s[2].rotate_left(32);
    }
}

/// Absorbs one 8-byte message block: two compression rounds.
#[inline]
fn compress(v: &mut [u64; 4], m: u64) {
    v[3] ^= m;
    sip_round(v);
    sip_round(v);
    v[0] ^= m;
}

/// The four finalisation rounds and the output word.
#[inline]
fn finalize(mut v: [u64; 4]) -> u64 {
    v[2] ^= 0xff;
    for _ in 0..4 {
        sip_round(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

impl Prf {
    /// Creates a PRF instance under `key`.
    pub fn new(key: PrfKey) -> Self {
        Prf { key }
    }

    /// The SipHash-2-4 state after its key is loaded.
    #[inline]
    fn initial_state(&self) -> [u64; 4] {
        [
            self.key.k0 ^ 0x736f_6d65_7073_6575,
            self.key.k1 ^ 0x646f_7261_6e64_6f6d,
            self.key.k0 ^ 0x6c79_6765_6e65_7261,
            self.key.k1 ^ 0x7465_6462_7974_6573,
        ]
    }

    /// Evaluates SipHash-2-4 over `data`, returning a 64-bit output.
    pub fn eval(&self, data: &[u8]) -> u64 {
        let mut v = self.initial_state();
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            compress(
                &mut v,
                u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
            );
        }

        // Final block: remaining bytes plus the length in the top byte.
        let rem = chunks.remainder();
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        last[7] = (data.len() & 0xff) as u8;
        compress(&mut v, u64::from_le_bytes(last));
        finalize(v)
    }

    /// Evaluates the PRF with a 64-bit counter as a tweak, producing independent
    /// 64-bit keystream words for counter-mode style usage: SipHash-2-4 of the
    /// 16 bytes `nonce ‖ counter` (little-endian), run on the two words
    /// directly.
    #[inline]
    pub fn eval_counter(&self, nonce: u64, counter: u64) -> u64 {
        let mut v = self.initial_state();
        compress(&mut v, nonce);
        compress(&mut v, counter);
        // The final block of a 16-byte message: no bytes left, length 16.
        compress(&mut v, 16 << 56);
        finalize(v)
    }

    /// `self.eval_counter(nonces[0], counter) ^ other.eval_counter(nonces[1],
    /// counter)`, the two SipHash states run side by side: each round step is
    /// taken for both before the next, so the two dependency chains overlap.
    #[inline]
    pub fn xor_of_counters(&self, other: &Prf, nonces: [u64; 2], counter: u64) -> u64 {
        let mut v = [self.initial_state(), other.initial_state()];
        for m in [nonces, [counter; 2], [16 << 56; 2]] {
            v[0][3] ^= m[0];
            v[1][3] ^= m[1];
            sip_rounds(&mut v);
            sip_rounds(&mut v);
            v[0][0] ^= m[0];
            v[1][0] ^= m[1];
        }
        v[0][2] ^= 0xff;
        v[1][2] ^= 0xff;
        for _ in 0..4 {
            sip_rounds(&mut v);
        }
        let [a, b] = v;
        a[0] ^ a[1] ^ a[2] ^ a[3] ^ b[0] ^ b[1] ^ b[2] ^ b[3]
    }

    /// Produces `len` bytes of keystream for the given nonce.
    pub fn keystream(&self, nonce: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut counter = 0u64;
        while out.len() < len {
            out.extend_from_slice(&self.eval_counter(nonce, counter).to_le_bytes());
            counter += 1;
        }
        out.truncate(len);
        out
    }
}

/// Deterministic equality tagger: the upload-time tags of sensitive VARCHAR
/// columns and the DO oracle's group tags. Tags are
/// `PRF_k(domain_separator || payload)`.
#[derive(Debug, Clone)]
pub struct EqualityTagger {
    prf: Prf,
}

impl EqualityTagger {
    /// Creates a tagger under `key`.
    pub fn new(key: PrfKey) -> Self {
        EqualityTagger { prf: Prf::new(key) }
    }

    /// Tags an arbitrary byte payload within a named domain (typically the fully
    /// qualified column name, so equal values in *different* columns get different
    /// tags).
    pub fn tag_bytes(&self, domain: &str, payload: &[u8]) -> u64 {
        let mut buf = Vec::with_capacity(domain.len() + 1 + payload.len());
        buf.extend_from_slice(domain.as_bytes());
        buf.push(0);
        buf.extend_from_slice(payload);
        self.prf.eval(&buf)
    }

    /// Tags a signed integer value.
    pub fn tag_i128(&self, domain: &str, value: i128) -> u64 {
        self.tag_bytes(domain, &value.to_le_bytes())
    }

    /// Tags a string value.
    pub fn tag_str(&self, domain: &str, value: &str) -> u64 {
        self.tag_bytes(domain, value.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn side_by_side_counters_are_the_xor_of_two_evaluations() {
        let a = Prf::new(PrfKey::new(1, 2));
        let b = Prf::new(PrfKey::new(0x0123_4567_89ab_cdef, u64::MAX));
        for (nonces, counter) in [([0, 0], 0), ([7, 9], 1), ([u64::MAX, 3], u64::MAX)] {
            assert_eq!(
                a.xor_of_counters(&b, nonces, counter),
                a.eval_counter(nonces[0], counter) ^ b.eval_counter(nonces[1], counter)
            );
        }
        // One key on both sides, one nonce: the halves cancel.
        assert_eq!(a.xor_of_counters(&a, [5, 5], 11), 0);
    }

    /// Official SipHash-2-4 test vector from the reference implementation
    /// (key 000102...0f, messages of increasing length 0..=7).
    #[test]
    fn siphash_reference_vectors() {
        let key = PrfKey::new(
            u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]),
            u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]),
        );
        let prf = Prf::new(key);
        let msg: Vec<u8> = (0u8..64).collect();
        // First 8 expected outputs of the reference vector table (little-endian u64).
        let expected: [u64; 8] = [
            0x726fdb47dd0e0e31,
            0x74f839c593dc67fd,
            0x0d6c8009d9a94f5a,
            0x85676696d7fb7e2d,
            0xcf2794e0277187b7,
            0x18765564cd99a68d,
            0xcbc9466e58fee3ce,
            0xab0200f58b01d137,
        ];
        for (len, want) in expected.iter().enumerate() {
            assert_eq!(prf.eval(&msg[..len]), *want, "length {len}");
        }
    }

    #[test]
    fn deterministic_and_key_dependent() {
        let a = Prf::new(PrfKey::new(1, 2));
        let b = Prf::new(PrfKey::new(1, 3));
        assert_eq!(a.eval(b"hello"), a.eval(b"hello"));
        assert_ne!(a.eval(b"hello"), b.eval(b"hello"));
        assert_ne!(a.eval(b"hello"), a.eval(b"hellp"));
    }

    #[test]
    fn keystream_has_requested_length_and_varies_by_nonce() {
        let prf = Prf::new(PrfKey::new(7, 9));
        for len in [0usize, 1, 7, 8, 9, 31, 64, 100] {
            assert_eq!(prf.keystream(1, len).len(), len);
        }
        assert_ne!(prf.keystream(1, 32), prf.keystream(2, 32));
    }

    #[test]
    fn equality_tags_separate_domains() {
        let tagger = EqualityTagger::new(PrfKey::new(11, 22));
        assert_eq!(tagger.tag_i128("t.a", 5), tagger.tag_i128("t.a", 5));
        assert_ne!(tagger.tag_i128("t.a", 5), tagger.tag_i128("t.b", 5));
        assert_ne!(tagger.tag_i128("t.a", 5), tagger.tag_i128("t.a", 6));
        assert_ne!(tagger.tag_str("t.a", "x"), tagger.tag_str("t.a", "y"));
    }

    /// The word-level counter evaluation is SipHash-2-4 of the 16 bytes
    /// `nonce ‖ counter`, as the byte path computes it.
    #[test]
    fn counter_words_match_the_byte_path() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..1_000 {
            let prf = Prf::new(PrfKey::random(&mut rng));
            let (nonce, counter): (u64, u64) = (rng.gen(), rng.gen());
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&nonce.to_le_bytes());
            block[8..].copy_from_slice(&counter.to_le_bytes());
            assert_eq!(prf.eval_counter(nonce, counter), prf.eval(&block));
        }
    }

    #[test]
    fn random_keys_differ() {
        let mut rng = StdRng::seed_from_u64(5);
        let k1 = PrfKey::random(&mut rng);
        let k2 = PrfKey::random(&mut rng);
        assert_ne!(k1, k2);
    }
}
