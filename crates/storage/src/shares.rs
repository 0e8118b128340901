//! Columns of secret shares as fixed-width limb buffers.
//!
//! A [`ShareColumn`] holds the shares of a column as `width` little-endian
//! `u64` limbs per row, row after row, in one shared buffer, with a validity
//! [`Bitmap`] beside them (bit set = a share, clear = NULL, whose limbs are
//! zero). `width` is the widest share the column holds — `limbs(n)` in
//! practice, since every share is below `n` — and a narrower share is padded
//! with zero limbs. Shares rest in canonical form, not Montgomery form.
//!
//! Like [`crate::Column`] the column is the window `[offset, offset + len)`
//! of its buffer: `clone` and [`ShareColumn::slice`] share it, a gather or an
//! append copies `width` words per row and allocates nothing per cell, and
//! mutation is copy-on-write. [`ShareColumn::value`] is the one-row view, a
//! [`Value::Encrypted`] of the row's share.

use std::sync::Arc;

use num_bigint::BigUint;

use crate::{Bitmap, Value};

/// The storage behind one or more [`ShareColumn`] windows.
#[derive(Debug, Clone)]
struct Buffer {
    width: usize,
    limbs: Vec<u64>,
    validity: Bitmap,
}

/// The shares of a column: `width` limbs a row in one shared buffer plus a
/// validity bitmap (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct ShareColumn {
    buffer: Arc<Buffer>,
    offset: usize,
    len: usize,
}

impl Default for ShareColumn {
    fn default() -> Self {
        ShareColumn::with_capacity(0, 0)
    }
}

/// `limbs` without its zero high limbs: the share's significant limbs.
pub(crate) fn trimmed(limbs: &[u64]) -> &[u64] {
    let significant = limbs
        .iter()
        .rposition(|&limb| limb != 0)
        .map_or(0, |i| i + 1);
    &limbs[..significant]
}

/// The number of bits of the value of `limbs` (zero has none).
fn bits(limbs: &[u64]) -> usize {
    match trimmed(limbs) {
        [] => 0,
        limbs => limbs.len() * 64 - limbs[limbs.len() - 1].leading_zeros() as usize,
    }
}

/// The value of little-endian `limbs`.
pub fn biguint_of(limbs: &[u64]) -> BigUint {
    /// Limbs written on the stack: a 512-bit share, the balanced profile's.
    const STACK_LIMBS: usize = 8;
    let limbs = trimmed(limbs);
    let mut stack = [0u8; 8 * STACK_LIMBS];
    let mut heap = Vec::new();
    let bytes = if limbs.len() <= STACK_LIMBS {
        &mut stack[..8 * limbs.len()]
    } else {
        heap.resize(8 * limbs.len(), 0);
        &mut heap[..]
    };
    for (chunk, limb) in bytes.chunks_exact_mut(8).zip(limbs) {
        chunk.copy_from_slice(&limb.to_le_bytes());
    }
    BigUint::from_bytes_le(bytes)
}

impl ShareColumn {
    /// An empty column of `width` limbs a row, with room for `rows` rows.
    fn with_capacity(width: usize, rows: usize) -> ShareColumn {
        ShareColumn {
            buffer: Arc::new(Buffer {
                width,
                limbs: Vec::with_capacity(width * rows),
                validity: Bitmap::new_clear(0),
            }),
            offset: 0,
            len: 0,
        }
    }

    /// A column from `limbs`, `width` a row, and which rows hold a share. A
    /// NULL row's limbs must be zero. Panics when the lengths disagree.
    pub fn from_parts(width: usize, limbs: Vec<u64>, validity: Bitmap) -> ShareColumn {
        assert_eq!(limbs.len(), width * validity.len(), "limbs for every row");
        ShareColumn {
            len: validity.len(),
            buffer: Arc::new(Buffer {
                width,
                limbs,
                validity,
            }),
            offset: 0,
        }
    }

    /// Packs `values` when every one is NULL or a share; `None` otherwise.
    pub fn from_values(values: &[Value]) -> Option<ShareColumn> {
        let mut width = 0;
        for value in values {
            match value {
                Value::Encrypted(share) => width = width.max(share.iter_u64_digits().len()),
                Value::Null => {}
                _ => return None,
            }
        }
        let mut column = ShareColumn::with_capacity(width, values.len());
        let buffer = Arc::get_mut(&mut column.buffer).expect("just built");
        for value in values {
            let start = buffer.limbs.len();
            if let Value::Encrypted(share) = value {
                buffer.limbs.extend(share.iter_u64_digits());
            }
            buffer.limbs.resize(start + width, 0);
            buffer.validity.push(!value.is_null());
        }
        column.len = values.len();
        Some(column)
    }

    /// Limbs a row.
    pub fn width(&self) -> usize {
        self.buffer.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `row` holds a share (not NULL).
    pub fn is_valid(&self, row: usize) -> bool {
        debug_assert!(row < self.len);
        self.buffer.validity.get(self.offset + row)
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        (0..self.len).filter(|&row| !self.is_valid(row)).count()
    }

    /// The `width` limbs of `row` (zero for a NULL).
    pub fn row(&self, row: usize) -> &[u64] {
        debug_assert!(row < self.len);
        let width = self.buffer.width;
        &self.buffer.limbs[(self.offset + row) * width..][..width]
    }

    /// Every row's limbs, row after row.
    pub fn words(&self) -> &[u64] {
        let width = self.buffer.width;
        &self.buffer.limbs[self.offset * width..(self.offset + self.len) * width]
    }

    /// The validity of the window's rows.
    pub fn validity(&self) -> Bitmap {
        self.buffer.validity.range(self.offset, self.len)
    }

    /// The share in `row`, `None` for a NULL.
    pub fn share(&self, row: usize) -> Option<BigUint> {
        self.is_valid(row).then(|| biguint_of(self.row(row)))
    }

    /// The one-row view: `row` as a [`Value`].
    pub fn value(&self, row: usize) -> Value {
        self.share(row).map_or(Value::Null, Value::Encrypted)
    }

    /// Bytes of `row`'s share written minimally (0 for zero).
    pub fn byte_len(&self, row: usize) -> usize {
        bits(self.row(row)).div_ceil(8)
    }

    /// Appends `row`'s share as its minimal little-endian bytes (none for
    /// zero).
    pub fn write_bytes_le(&self, row: usize, out: &mut Vec<u8>) {
        let len = self.byte_len(row);
        let start = out.len();
        for limb in trimmed(self.row(row)) {
            out.extend_from_slice(&limb.to_le_bytes());
        }
        out.truncate(start + len);
    }

    /// Whether `row` holds the same cell as `other_row` of `other` (NULL
    /// equals NULL).
    pub fn row_eq(&self, row: usize, other: &ShareColumn, other_row: usize) -> bool {
        self.is_valid(row) == other.is_valid(other_row)
            && trimmed(self.row(row)) == trimmed(other.row(other_row))
    }

    /// Compares the shares of rows `a` and `b` as numbers.
    pub fn cmp_rows(&self, a: usize, b: usize) -> std::cmp::Ordering {
        let (a, b) = (trimmed(self.row(a)), trimmed(self.row(b)));
        a.len()
            .cmp(&b.len())
            .then_with(|| a.iter().rev().cmp(b.iter().rev()))
    }

    /// [`Value::approx_size`] of `row`'s view.
    pub fn approx_size(&self, row: usize) -> usize {
        match self.is_valid(row) {
            true => self.byte_len(row) + 4,
            false => 1,
        }
    }

    /// Rough serialised size in bytes: [`Self::approx_size`] of every row.
    pub fn approx_size_bytes(&self) -> usize {
        (0..self.len).map(|row| self.approx_size(row)).sum()
    }

    /// The sub-window of `len` rows starting at `offset`, sharing the
    /// buffer. Panics when out of range.
    pub fn slice(&self, offset: usize, len: usize) -> ShareColumn {
        assert!(offset + len <= self.len, "share column slice out of range");
        ShareColumn {
            buffer: Arc::clone(&self.buffer),
            offset: self.offset + offset,
            len,
        }
    }

    /// True when both are windows onto the same buffer.
    pub fn shares_buffer(&self, other: &ShareColumn) -> bool {
        Arc::ptr_eq(&self.buffer, &other.buffer)
    }

    /// Where the window starts in its buffer.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Copies the rows at `rows` (any order, repeats allowed): `width` words
    /// a row.
    pub fn gather(&self, rows: &[usize]) -> ShareColumn {
        let width = self.buffer.width;
        let mut limbs = Vec::with_capacity(rows.len() * width);
        let mut validity = Bitmap::new_clear(rows.len());
        for (at, &row) in rows.iter().enumerate() {
            limbs.extend_from_slice(self.row(row));
            validity.set(at, self.is_valid(row));
        }
        ShareColumn::from_parts(width, limbs, validity)
    }

    /// [`Self::gather`] with gaps: `None` becomes a NULL.
    pub fn gather_or_null(&self, rows: &[Option<usize>]) -> ShareColumn {
        let width = self.buffer.width;
        let mut limbs = Vec::with_capacity(rows.len() * width);
        let mut validity = Bitmap::new_clear(rows.len());
        for (at, row) in rows.iter().enumerate() {
            match *row {
                Some(row) => {
                    limbs.extend_from_slice(self.row(row));
                    validity.set(at, self.is_valid(row));
                }
                None => limbs.resize(limbs.len() + width, 0),
            }
        }
        ShareColumn::from_parts(width, limbs, validity)
    }

    /// The buffer as a uniquely owned, exactly windowed one to append to
    /// (callers add what they appended to `self.len`).
    fn buffer_mut(&mut self) -> &mut Buffer {
        let width = self.buffer.width;
        if self.offset != 0 || self.len != self.buffer.validity.len() {
            self.buffer = Arc::new(Buffer {
                width,
                limbs: self.words().to_vec(),
                validity: self.validity(),
            });
            self.offset = 0;
        }
        Arc::make_mut(&mut self.buffer)
    }

    /// Makes the rows at least `width` limbs wide.
    fn widen(&mut self, width: usize) {
        if width <= self.buffer.width {
            return;
        }
        let buffer = self.buffer_mut();
        let mut limbs = Vec::with_capacity(width * buffer.validity.len());
        for row in buffer.limbs.chunks_exact(buffer.width.max(1)) {
            limbs.extend_from_slice(row);
            limbs.resize(limbs.len() + width - row.len(), 0);
        }
        if buffer.width == 0 {
            limbs.resize(width * buffer.validity.len(), 0);
        }
        buffer.limbs = limbs;
        buffer.width = width;
    }

    /// Appends a share.
    pub fn push(&mut self, share: &BigUint) {
        let digits = share.iter_u64_digits();
        self.widen(digits.len());
        let buffer = self.buffer_mut();
        let start = buffer.limbs.len();
        buffer.limbs.extend(digits);
        buffer.limbs.resize(start + buffer.width, 0);
        buffer.validity.push(true);
        self.len += 1;
    }

    /// Appends a NULL.
    pub fn push_null(&mut self) {
        let buffer = self.buffer_mut();
        buffer.limbs.resize(buffer.limbs.len() + buffer.width, 0);
        buffer.validity.push(false);
        self.len += 1;
    }

    /// Appends `other`'s rows: one copy of its words when the widths agree.
    pub fn extend(&mut self, other: &ShareColumn) {
        if other.is_empty() {
            return;
        }
        self.widen(other.width());
        let buffer = self.buffer_mut();
        if other.width() == buffer.width {
            buffer.limbs.extend_from_slice(other.words());
        } else {
            for row in 0..other.len {
                let start = buffer.limbs.len();
                buffer.limbs.extend_from_slice(other.row(row));
                buffer.limbs.resize(start + buffer.width, 0);
            }
        }
        for row in 0..other.len {
            buffer.validity.push(other.is_valid(row));
        }
        self.len += other.len;
    }
}

impl PartialEq for ShareColumn {
    /// Row by row, by value: the widths may differ.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && (0..self.len).all(|row| self.row_eq(row, other, row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(limbs: &[u64]) -> Value {
        Value::Encrypted(biguint_of(limbs))
    }

    #[test]
    fn narrow_shares_pad_and_wide_ones_widen() {
        let mut column = ShareColumn::default();
        column.push_null();
        column.push(&BigUint::from(7u32));
        column.push(&biguint_of(&[1, 2, 3, 0]));
        assert_eq!(column.width(), 3);
        assert_eq!(column.row(1), &[7, 0, 0]);
        assert_eq!(column.value(0), Value::Null);
        assert_eq!(column.value(2), share(&[1, 2, 3]));
        assert_eq!(column.byte_len(1), 1);
        assert_eq!(column.approx_size_bytes(), 1 + 5 + (17 + 4));
    }

    #[test]
    fn zero_is_a_share_not_a_null() {
        let column = ShareColumn::from_values(&[share(&[]), Value::Null]).unwrap();
        assert_eq!(column.width(), 0);
        assert_eq!(column.value(0), share(&[]));
        assert_eq!(column.value(1), Value::Null);
        let mut bytes = Vec::new();
        column.write_bytes_le(0, &mut bytes);
        assert!(bytes.is_empty());
    }

    #[test]
    fn windows_share_the_buffer_until_written() {
        let column = ShareColumn::from_values(&[share(&[1]), share(&[2]), share(&[3])]).unwrap();
        let mut window = column.slice(1, 2);
        assert!(window.shares_buffer(&column));
        window.push(&BigUint::from(9u32));
        assert!(!window.shares_buffer(&column));
        assert_eq!(window.words(), &[2, 3, 9]);
        assert_eq!(column.words(), &[1, 2, 3]);
    }
}
