//! Validity / selection bitmaps: one bit per row, packed into `u64` words.
//!
//! The columnar layer pairs every [`crate::columnar::ColumnVector`] with a
//! validity bitmap (bit set = value present, clear = NULL), and the engine's
//! selection kernels evaluate predicates into selection bitmaps of the same
//! shape. Counting set bits is a word-wise popcount, and the logical
//! operations (`and`/`or`/`and_not`) work a word at a time, so a 4096-row
//! batch costs 64 word operations instead of 4096 branch tests.
//!
//! Bits past `len` inside the last word are kept **zero** at all times — every
//! mutating operation re-masks the tail — so `count_set` and the word-wise
//! combinators never see garbage at word boundaries (rows % 64 ∈ {0, 1, 63}
//! are exercised explicitly in the tests).

use serde::{Deserialize, Serialize};

/// A fixed-length bitmap over row indices `0..len`, packed into `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all clear.
    pub fn new_clear(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A bitmap of `len` bits, all set.
    pub fn new_set(len: usize) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.mask_tail();
        b
    }

    /// Builds a bitmap from a boolean slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut b = Bitmap::new_clear(bits.len());
        for (i, &set) in bits.iter().enumerate() {
            if set {
                b.words[i / 64] |= 1u64 << (i % 64);
            }
        }
        b
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bit at `idx`.
    pub fn get(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Sets or clears the bit at `idx`.
    pub fn set(&mut self, idx: usize, value: bool) {
        debug_assert!(idx < self.len);
        let mask = 1u64 << (idx % 64);
        if value {
            self.words[idx / 64] |= mask;
        } else {
            self.words[idx / 64] &= !mask;
        }
    }

    /// Appends one bit.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        self.set(self.len - 1, value);
    }

    /// The `len` bits from `start` on, as a bitmap of their own (a word at a
    /// time). Panics when out of range.
    pub fn range(&self, start: usize, len: usize) -> Bitmap {
        assert!(start + len <= self.len, "bitmap range out of bounds");
        let (first, shift) = (start / 64, start % 64);
        let words = (0..len.div_ceil(64))
            .map(|i| {
                let low = self.words[first + i] >> shift;
                let high = match shift {
                    0 => 0,
                    _ => self
                        .words
                        .get(first + i + 1)
                        .map_or(0, |w| w << (64 - shift)),
                };
                low | high
            })
            .collect();
        let mut out = Bitmap { words, len };
        out.mask_tail();
        out
    }

    /// Number of set bits (word-wise popcount).
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear bits — for a validity bitmap, the NULL count.
    pub fn count_clear(&self) -> usize {
        self.len - self.count_set()
    }

    /// True when every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_set() == self.len
    }

    /// True when no bit is set.
    pub fn none_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Word-wise `self & other`. Panics if the lengths differ.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Word-wise `self | other`. Panics if the lengths differ.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Word-wise `self & !other`. Panics if the lengths differ.
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & !b)
                .collect(),
            len: self.len,
        }
    }

    /// Word-wise complement (tail bits stay zero).
    pub fn not(&self) -> Bitmap {
        let mut out = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// Iterates the indices of the set bits in ascending order.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// Copies the bitmap out as a boolean vector (scalar-path interop).
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// The raw words (serialisation; tail bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap from raw words produced by [`Bitmap::words`].
    /// Returns `None` if the word count does not match `len`.
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<Self> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        let mut b = Bitmap { words, len };
        b.mask_tail();
        Some(b)
    }

    /// Clears the unused bits of the last word so popcounts stay exact.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The word-boundary lengths the acceptance criteria call out, plus the
    /// surrounding edge cases.
    const EDGE_LENS: [usize; 7] = [0, 1, 63, 64, 65, 127, 128];

    #[test]
    fn set_get_count_roundtrip_at_word_boundaries() {
        for len in EDGE_LENS {
            let mut b = Bitmap::new_clear(len);
            assert_eq!(b.count_set(), 0);
            for i in 0..len {
                if i % 3 == 0 {
                    b.set(i, true);
                }
            }
            let expected = (0..len).filter(|i| i % 3 == 0).count();
            assert_eq!(b.count_set(), expected, "len={len}");
            assert_eq!(b.count_clear(), len - expected, "len={len}");
            for i in 0..len {
                assert_eq!(b.get(i), i % 3 == 0, "len={len} i={i}");
            }
        }
    }

    #[test]
    fn new_set_masks_the_tail_word() {
        for len in EDGE_LENS {
            let b = Bitmap::new_set(len);
            assert_eq!(b.count_set(), len, "len={len}");
            assert!(b.all_set() || len == 0);
            // The complement must be all-clear: tail bits leaked into the
            // last word would show up here.
            assert_eq!(b.not().count_set(), 0, "len={len}");
        }
    }

    #[test]
    fn logical_ops_match_boolean_reference() {
        for len in EDGE_LENS {
            let a_bits: Vec<bool> = (0..len).map(|i| i % 2 == 0).collect();
            let b_bits: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let a = Bitmap::from_bools(&a_bits);
            let b = Bitmap::from_bools(&b_bits);
            for i in 0..len {
                assert_eq!(a.and(&b).get(i), a_bits[i] && b_bits[i]);
                assert_eq!(a.or(&b).get(i), a_bits[i] || b_bits[i]);
                assert_eq!(a.and_not(&b).get(i), a_bits[i] && !b_bits[i]);
                assert_eq!(a.not().get(i), !a_bits[i]);
            }
            assert_eq!(a.not().count_set(), len - a.count_set());
        }
    }

    #[test]
    fn iter_set_yields_ascending_indices() {
        let bits: Vec<bool> = (0..130).map(|i| i % 7 == 0).collect();
        let b = Bitmap::from_bools(&bits);
        let set: Vec<usize> = b.iter_set().collect();
        let expected: Vec<usize> = (0..130).filter(|i| i % 7 == 0).collect();
        assert_eq!(set, expected);
        assert_eq!(b.to_bools(), bits);
    }

    #[test]
    fn push_and_range_match_the_bits() {
        let bits: Vec<bool> = (0..200).map(|i| i % 3 != 1 && i % 7 != 0).collect();
        let mut pushed = Bitmap::new_clear(0);
        for &bit in &bits {
            pushed.push(bit);
        }
        assert_eq!(pushed, Bitmap::from_bools(&bits));
        for (start, len) in [
            (0, 0),
            (0, 200),
            (1, 63),
            (63, 65),
            (64, 64),
            (70, 130),
            (199, 1),
        ] {
            let range = pushed.range(start, len);
            assert_eq!(range.to_bools(), bits[start..start + len], "{start}+{len}");
            assert_eq!(
                range.count_set(),
                bits[start..start + len].iter().filter(|b| **b).count()
            );
        }
    }

    #[test]
    fn words_roundtrip() {
        for len in EDGE_LENS {
            let bits: Vec<bool> = (0..len).map(|i| i % 5 != 1).collect();
            let b = Bitmap::from_bools(&bits);
            let back = Bitmap::from_words(b.words().to_vec(), len).unwrap();
            assert_eq!(b, back);
        }
        assert!(Bitmap::from_words(vec![0; 3], 64).is_none());
    }
}
