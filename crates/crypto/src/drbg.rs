//! The data owner's randomness: a counter-mode DRBG over the SipHash-2-4 PRF
//! ([`crate::prf`]). Every DO draw — primes, column keys, row ids, SIES
//! nonces, each query's key-update targets — comes from one.
//!
//! [`Drbg::from_os`] keys the generator with 32 bytes of `/dev/urandom` and
//! fails with [`CryptoError::Entropy`] when it cannot read them; it never
//! falls back to the clock. A fixture (tests, benchmarks, the stock
//! profiles) is [`rand::SeedableRng::seed_from_u64`]: the seed expanded to
//! the 32-byte key by SplitMix64, so anyone who knows the seed regenerates
//! every key drawn from it.
//!
//! **Construction.** The 32-byte key is two 128-bit SipHash keys `a` and
//! `b`. Output word `i` is `PRF_a(tag_a ‖ i) ⊕ PRF_b(tag_b ‖ i)` over
//! 16-byte blocks; the XOR of two independently keyed PRFs is a PRF as long
//! as either key stays secret, and the two tags keep equal halves of a key
//! from cancelling. [`Drbg::fork`] keys a child
//! generator with 32 bytes of its parent's stream, so each query's draws
//! come from a stream of its own.

use std::fmt;
use std::io::Read;

use rand::{RngCore, SeedableRng};

use crate::prf::{Prf, PrfKey};
use crate::{CryptoError, Result};

/// Domain tags of the two PRFs' blocks (the "nonce" half of each block).
const TAGS: [u64; 2] = [0x5db_d7b6_0000_000a, 0x5db_d7b6_0000_000b];

/// A counter-mode DRBG over SipHash-2-4 (see the [module docs](self)). Its
/// `Debug` output hides the key.
#[derive(Clone)]
pub struct Drbg {
    a: Prf,
    b: Prf,
    counter: u64,
}

impl SeedableRng for Drbg {
    type Seed = [u8; 32];

    /// A generator keyed with `key`: a fixed key gives a fixed stream.
    fn from_seed(key: [u8; 32]) -> Drbg {
        let word = |at: usize| u64::from_le_bytes(key[at..at + 8].try_into().expect("8 bytes"));
        Drbg {
            a: Prf::new(PrfKey::new(word(0), word(8))),
            b: Prf::new(PrfKey::new(word(16), word(24))),
            counter: 0,
        }
    }
}

impl Drbg {
    /// A generator keyed with 32 bytes of the operating system's entropy
    /// (`/dev/urandom`); [`CryptoError::Entropy`] when they cannot be read.
    pub fn from_os() -> Result<Drbg> {
        let entropy = |e: std::io::Error| CryptoError::Entropy {
            detail: format!("/dev/urandom: {e}"),
        };
        let mut key = [0u8; 32];
        std::fs::File::open("/dev/urandom")
            .and_then(|mut source| source.read_exact(&mut key))
            .map_err(entropy)?;
        Ok(Drbg::from_seed(key))
    }

    /// A child generator keyed with the next 32 bytes of this stream.
    pub fn fork(&mut self) -> Drbg {
        let mut key = [0u8; 32];
        self.fill_bytes(&mut key);
        Drbg::from_seed(key)
    }
}

impl RngCore for Drbg {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn next_u64(&mut self) -> u64 {
        let i = self.counter;
        self.counter = i.checked_add(1).expect("a DRBG stream of 2⁶⁴ words");
        self.a.xor_of_counters(&self.b, TAGS, i)
    }
}

impl fmt::Debug for Drbg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Drbg")
            .field("counter", &self.counter)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The stream of a fixed key, pinned: a change to the construction (the
    /// key split, the block layout, the tags, the XOR) moves these words.
    #[test]
    fn the_stream_of_a_fixed_key_is_pinned() {
        let key: [u8; 32] = std::array::from_fn(|i| i as u8);
        let mut drbg = Drbg::from_seed(key);
        let words: Vec<u64> = (0..4).map(|_| drbg.next_u64()).collect();
        assert_eq!(words, PINNED);
        // Each word is the XOR of the two SipHash instances at its counter.
        let a = Prf::new(PrfKey::new(0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908));
        let b = Prf::new(PrfKey::new(0x1716_1514_1312_1110, 0x1f1e_1d1c_1b1a_1918));
        for (i, word) in words.iter().enumerate() {
            let block = a.eval_counter(TAGS[0], i as u64) ^ b.eval_counter(TAGS[1], i as u64);
            assert_eq!(*word, block, "word {i}");
        }
        // `next_u32` is a word's low half.
        let mut halves = Drbg::from_seed(key);
        assert_eq!(halves.next_u32(), PINNED[0] as u32);
        assert_eq!(halves.next_u64(), PINNED[1]);
    }

    const PINNED: [u64; 4] = [
        0x2191_6a96_3e6d_5c3b,
        0xa7fb_f1dc_4bac_32b4,
        0x2bf3_1943_3476_958f,
        0x8dea_010f_ddc0_5e3a,
    ];

    /// A fixture seed sets only the key: `seed_from_u64` is the shim's
    /// SplitMix64 expansion into `from_seed`, and the stock profiles' seed
    /// gives this stream. A change to either moves every fixture key.
    #[test]
    fn the_stock_seeds_stream_is_pinned() {
        let mut drbg = Drbg::seed_from_u64(0x5db);
        assert_eq!(format!("{drbg:?}"), "Drbg { counter: 0, .. }");
        assert_eq!(
            [drbg.next_u64(), drbg.next_u64()],
            [0x1a16_474f_0f1a_730d, 0x9046_3d48_e916_e7c4]
        );
    }

    #[test]
    fn keys_and_forks_give_distinct_streams() {
        let mut parent = Drbg::from_seed([7; 32]);
        let mut child = parent.clone().fork();
        let mut other = Drbg::from_seed([8; 32]);
        let first: Vec<u64> = (0..8).map(|_| parent.gen()).collect();
        assert_ne!(first, (0..8).map(|_| child.gen()).collect::<Vec<u64>>());
        assert_ne!(first, (0..8).map(|_| other.gen()).collect::<Vec<u64>>());
        // A fork consumes 32 bytes of its parent's stream.
        let mut forked = Drbg::from_seed([7; 32]);
        forked.fork();
        assert_eq!(forked.next_u64(), first[4]);
        // Equal key halves do not cancel.
        assert!(first.iter().all(|&word| word != 0));
    }

    #[test]
    fn os_keyed_generators_differ_and_hide_their_key() {
        let (mut a, mut b) = (Drbg::from_os().unwrap(), Drbg::from_os().unwrap());
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
        assert_eq!(format!("{a:?}"), "Drbg { counter: 4, .. }");
    }
}
