//! A single column of values: a window onto a shared buffer, copy-on-write.

use std::borrow::Cow;
use std::sync::Arc;

use serde::ser::{SerializeSeq, SerializeStruct};
use serde::{Deserialize, Serialize};

use crate::{DataType, Result, ShareColumn, Value};

/// A typed column of values: the window `[offset, offset + len)` of a shared
/// buffer.
///
/// The buffer follows the cells, not only the declared type: a column whose
/// cells are all shares or NULL (with at least one share, or declared
/// `ENCRYPTED`) holds a [`ShareColumn`] of limbs, any other a buffer of
/// [`Value`]s. Spill pages declare placeholder types, so a column of shares
/// packs them whatever it declares; a column that mixes other values in keeps
/// the value buffer. [`Column::value`] is the one-row view either way, and
/// [`Column::shares`] the typed view hot paths read.
///
/// `clone` and [`Column::slice`] share the buffer and never copy a cell.
/// Mutation is copy-on-write: a column that alone owns its whole buffer
/// appends in place; any other first copies its window out, so no other
/// holder of the buffer ever observes a change. Equality, size accounting
/// and the serialised form (`{data_type, values}`) see only the window, and
/// only the cells: the two buffers of the same cells are equal.
#[derive(Debug, Clone)]
pub struct Column {
    data_type: DataType,
    cells: Cells,
}

/// What holds a column's cells.
#[derive(Debug, Clone)]
enum Cells {
    Values {
        buffer: Arc<Vec<Value>>,
        offset: usize,
        len: usize,
    },
    Shares(ShareColumn),
}

/// A borrowed view of a column's cells as its buffer holds them.
#[derive(Debug, Clone, Copy)]
pub enum ColumnCells<'c> {
    /// A value buffer's window.
    Values(&'c [Value]),
    /// Shares as limbs.
    Shares(&'c ShareColumn),
}

impl Column {
    /// Creates an empty column of the given type.
    pub fn new(data_type: DataType) -> Self {
        Column::from_values_unchecked(data_type, Vec::new())
    }

    /// Creates a column from existing values, checking each against the type.
    pub fn from_values(data_type: DataType, values: Vec<Value>) -> Result<Self> {
        for v in &values {
            v.check_type(data_type)?;
        }
        Ok(Column::from_values_unchecked(data_type, values))
    }

    /// Creates a column from existing values without type-checking (used by
    /// trusted internal paths). Shares are packed into limbs.
    pub fn from_values_unchecked(data_type: DataType, values: Vec<Value>) -> Self {
        let packs = data_type == DataType::Encrypted
            || values.iter().any(|v| matches!(v, Value::Encrypted(_)));
        match packs.then(|| ShareColumn::from_values(&values)).flatten() {
            Some(shares) => Column::from_shares(data_type, shares),
            None => Column::value_buffer(data_type, values),
        }
    }

    /// The columns of `data_types`, `rows` values each, from one buffer
    /// that holds them column after column: column `i`'s values are
    /// `values[i * rows..(i + 1) * rows]`, and each must have its column's
    /// type. Each column is a window onto the one buffer, so a batch of a
    /// few rows allocates it once for all its columns. Shares are packed per
    /// column instead.
    pub fn split_column_major(
        data_types: &[DataType],
        rows: usize,
        values: Vec<Value>,
    ) -> Result<Vec<Column>> {
        assert_eq!(
            values.len(),
            data_types.len() * rows,
            "rows of every column"
        );
        for (i, &data_type) in data_types.iter().enumerate() {
            for value in &values[i * rows..(i + 1) * rows] {
                value.check_type(data_type)?;
            }
        }
        let packs = data_types.contains(&DataType::Encrypted)
            || values.iter().any(|v| matches!(v, Value::Encrypted(_)));
        if packs {
            let columns = (data_types.iter().enumerate()).map(|(i, &data_type)| {
                let values = values[i * rows..(i + 1) * rows].to_vec();
                Column::from_values_unchecked(data_type, values)
            });
            return Ok(columns.collect());
        }
        let buffer = Arc::new(values);
        let window = |(i, &data_type): (usize, &DataType)| Column {
            data_type,
            cells: Cells::Values {
                buffer: Arc::clone(&buffer),
                offset: i * rows,
                len: rows,
            },
        };
        Ok(data_types.iter().enumerate().map(window).collect())
    }

    /// A column holding `values` in a value buffer, as they are.
    fn value_buffer(data_type: DataType, values: Vec<Value>) -> Self {
        Column {
            data_type,
            cells: Cells::Values {
                len: values.len(),
                buffer: Arc::new(values),
                offset: 0,
            },
        }
    }

    /// A column of shares declared `data_type`.
    pub fn from_shares(data_type: DataType, shares: ShareColumn) -> Self {
        Column {
            data_type,
            cells: Cells::Shares(shares),
        }
    }

    /// The column's declared type.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match &self.cells {
            Cells::Values { len, .. } => *len,
            Cells::Shares(shares) => shares.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cells as the buffer holds them.
    pub fn cells(&self) -> ColumnCells<'_> {
        match &self.cells {
            Cells::Values {
                buffer,
                offset,
                len,
            } => ColumnCells::Values(&buffer[*offset..*offset + *len]),
            Cells::Shares(shares) => ColumnCells::Shares(shares),
        }
    }

    /// The shares, when the column holds its cells as limbs.
    pub fn shares(&self) -> Option<&ShareColumn> {
        match self.cells() {
            ColumnCells::Shares(shares) => Some(shares),
            ColumnCells::Values(_) => None,
        }
    }

    /// The values, when the column holds its cells as [`Value`]s (`None` for
    /// a column of shares: see [`Self::value`] and [`Self::shares`]).
    pub fn as_values(&self) -> Option<&[Value]> {
        match self.cells() {
            ColumnCells::Values(values) => Some(values),
            ColumnCells::Shares(_) => None,
        }
    }

    /// The value at `idx`: borrowed from a value buffer, materialised from a
    /// share's limbs.
    pub fn value(&self, idx: usize) -> Cow<'_, Value> {
        self.cells().value(idx)
    }

    /// Whether the value at `idx` is NULL.
    pub fn is_null(&self, idx: usize) -> bool {
        self.cells().is_null(idx)
    }

    /// Every value, owned: a copy of the column for cold paths.
    pub fn to_values(&self) -> Vec<Value> {
        match self.cells() {
            ColumnCells::Values(values) => values.to_vec(),
            ColumnCells::Shares(shares) => (0..shares.len()).map(|row| shares.value(row)).collect(),
        }
    }

    /// Every value in order (see [`Self::value`]).
    pub fn iter(&self) -> impl Iterator<Item = Cow<'_, Value>> + '_ {
        let cells = self.cells();
        (0..self.len()).map(move |idx| cells.value(idx))
    }

    /// The cells as a value buffer this column alone holds, to append
    /// `extra` values to. A buffer another column shares, a window, or a
    /// column of shares (a non-share is being appended; every cell is
    /// materialised) is copied once into a buffer with room for `extra`
    /// values or as many again as it holds, whichever is more — the room
    /// `Vec` would grow to — so the append that forced the copy does not
    /// move the column a second time.
    fn values_mut(&mut self, extra: usize) -> &mut Vec<Value> {
        let owned = match &self.cells {
            Cells::Values {
                buffer,
                offset,
                len,
            } => {
                let unique = Arc::strong_count(buffer) == 1 && Arc::weak_count(buffer) == 0;
                *offset == 0 && *len == buffer.len() && unique
            }
            Cells::Shares(_) => false,
        };
        if !owned {
            let len = self.len();
            let mut values = Vec::with_capacity(len + extra.max(len));
            match self.cells() {
                ColumnCells::Values(cells) => values.extend_from_slice(cells),
                ColumnCells::Shares(shares) => values.extend((0..len).map(|row| shares.value(row))),
            }
            *self = Column::value_buffer(self.data_type, values);
        }
        match &mut self.cells {
            Cells::Values { buffer, .. } => Arc::make_mut(buffer),
            Cells::Shares(_) => unreachable!("converted above"),
        }
    }

    fn grow(&mut self, added: usize) {
        if let Cells::Values { len, .. } = &mut self.cells {
            *len += added;
        }
    }

    /// Appends a value after type-checking it.
    pub fn push(&mut self, value: Value) -> Result<()> {
        value.check_type(self.data_type)?;
        self.push_unchecked(value);
        Ok(())
    }

    /// Appends a value without type-checking (used by trusted internal
    /// paths). A share pushed onto an empty column packs it.
    pub fn push_unchecked(&mut self, value: Value) {
        match (&mut self.cells, &value) {
            (Cells::Shares(shares), Value::Encrypted(share)) => return shares.push(share),
            (Cells::Shares(shares), Value::Null) => return shares.push_null(),
            (Cells::Values { len: 0, .. }, Value::Encrypted(share)) => {
                let mut shares = ShareColumn::default();
                shares.push(share);
                self.cells = Cells::Shares(shares);
                return;
            }
            _ => {}
        }
        self.values_mut(1).push(value);
        self.grow(1);
    }

    /// Appends `other`'s cells without type-checking: an empty column takes
    /// a window onto `other`'s buffer, limbs onto limbs copy words, and a
    /// column of shares extended by other values falls back to the value
    /// buffer.
    pub fn extend(&mut self, other: &Column) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.cells = other.cells.clone();
            return;
        }
        if let (Cells::Shares(shares), Some(more)) = (&mut self.cells, other.shares()) {
            return shares.extend(more);
        }
        let packable = |v: &Value| matches!(v, Value::Null | Value::Encrypted(_));
        if self.shares().is_some() && other.iter().all(|v| packable(&v)) {
            for value in other.iter() {
                self.push_unchecked(value.into_owned());
            }
            return;
        }
        let values = self.values_mut(other.len());
        match other.as_values() {
            Some(more) => values.extend_from_slice(more),
            None => values.extend(other.iter().map(Cow::into_owned)),
        }
        self.grow(other.len());
    }

    /// The sub-window of `len` values starting at `offset`, sharing this
    /// column's buffer. Panics when out of range.
    pub fn slice(&self, offset: usize, len: usize) -> Column {
        assert!(offset + len <= self.len(), "column slice out of range");
        let cells = match &self.cells {
            Cells::Values {
                buffer,
                offset: start,
                ..
            } => Cells::Values {
                buffer: Arc::clone(buffer),
                offset: start + offset,
                len,
            },
            Cells::Shares(shares) => Cells::Shares(shares.slice(offset, len)),
        };
        Column {
            data_type: self.data_type,
            cells,
        }
    }

    /// Copies the values at `rows` (any order, repeats allowed) into a new
    /// column: shares copy their limbs, no allocation per cell.
    pub fn gather(&self, rows: &[usize]) -> Column {
        match self.cells() {
            ColumnCells::Shares(shares) => Column::from_shares(self.data_type, shares.gather(rows)),
            ColumnCells::Values(values) => {
                let gathered = rows.iter().map(|&i| values[i].clone()).collect();
                Column::value_buffer(self.data_type, gathered)
            }
        }
    }

    /// [`Self::gather`] with gaps: `None` becomes a NULL (the unmatched side
    /// of an outer join).
    pub fn gather_or_null(&self, rows: &[Option<usize>]) -> Column {
        match self.cells() {
            ColumnCells::Shares(shares) => {
                Column::from_shares(self.data_type, shares.gather_or_null(rows))
            }
            ColumnCells::Values(values) => {
                let gathered = rows
                    .iter()
                    .map(|row| row.map_or(Value::Null, |i| values[i].clone()))
                    .collect();
                Column::value_buffer(self.data_type, gathered)
            }
        }
    }

    /// True when both columns are windows onto the same buffer (no cell was
    /// copied between them).
    pub fn shares_buffer(&self, other: &Column) -> bool {
        match (&self.cells, &other.cells) {
            (Cells::Values { buffer: a, .. }, Cells::Values { buffer: b, .. }) => Arc::ptr_eq(a, b),
            (Cells::Shares(a), Cells::Shares(b)) => a.shares_buffer(b),
            _ => false,
        }
    }

    /// Where this column's window starts in its buffer: with
    /// [`Column::shares_buffer`], what tells which cells two windows have in
    /// common.
    pub fn offset(&self) -> usize {
        match &self.cells {
            Cells::Values { offset, .. } => *offset,
            Cells::Shares(shares) => shares.offset(),
        }
    }

    /// Rough serialised size in bytes, used for key-store / storage accounting
    /// (experiment E2).
    pub fn approx_size_bytes(&self) -> usize {
        match self.cells() {
            ColumnCells::Shares(shares) => shares.approx_size_bytes(),
            ColumnCells::Values(values) => values.iter().map(Value::approx_size).sum(),
        }
    }
}

impl<'c> ColumnCells<'c> {
    /// The value at `idx`: borrowed from a value buffer, materialised from a
    /// share's limbs.
    pub fn value(self, idx: usize) -> Cow<'c, Value> {
        match self {
            ColumnCells::Values(values) => Cow::Borrowed(&values[idx]),
            ColumnCells::Shares(shares) => Cow::Owned(shares.value(idx)),
        }
    }

    /// Whether the value at `idx` is NULL.
    pub fn is_null(self, idx: usize) -> bool {
        match self {
            ColumnCells::Values(values) => values[idx].is_null(),
            ColumnCells::Shares(shares) => !shares.is_valid(idx),
        }
    }

    /// [`Value::cmp_total`] of the values at `a` and `b`; two shares compare
    /// their limbs.
    pub fn cmp_total(self, a: usize, b: usize) -> std::cmp::Ordering {
        match self {
            ColumnCells::Values(values) => values[a].cmp_total(&values[b]),
            ColumnCells::Shares(shares) => match (shares.is_valid(a), shares.is_valid(b)) {
                (true, true) => shares.cmp_rows(a, b),
                (a, b) => a.cmp(&b),
            },
        }
    }

    /// [`Value::approx_size`] of the value at `idx`.
    pub fn approx_size(self, idx: usize) -> usize {
        match self {
            ColumnCells::Values(values) => values[idx].approx_size(),
            ColumnCells::Shares(shares) => shares.approx_size(idx),
        }
    }
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        if self.data_type != other.data_type || self.len() != other.len() {
            return false;
        }
        match (self.cells(), other.cells()) {
            (ColumnCells::Values(a), ColumnCells::Values(b)) => a == b,
            (ColumnCells::Shares(a), ColumnCells::Shares(b)) => a == b,
            _ => self.iter().zip(other.iter()).all(|(a, b)| a == b),
        }
    }
}

/// A column's cells in order, serialised as the sequence of their values.
struct SerializedCells<'c>(&'c Column);

impl Serialize for SerializedCells<'_> {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        let shares = match self.0.cells() {
            ColumnCells::Values(values) => return values.serialize(serializer),
            ColumnCells::Shares(shares) => shares,
        };
        let mut seq = serializer.serialize_seq(Some(shares.len()))?;
        for row in 0..shares.len() {
            match shares.is_valid(row) {
                true => seq.serialize_element(&SerializedShare(shares, row))?,
                false => seq.serialize_element(&Value::Null)?,
            }
        }
        seq.end()
    }
}

/// One share of a column serialised as its [`Value::Encrypted`] view is —
/// the base64 of its minimal bytes (see [`sdb_crypto::wire::share`]) —
/// written from the limbs.
struct SerializedShare<'c>(&'c ShareColumn, usize);

impl Serialize for SerializedShare<'_> {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        let mut bytes = Vec::with_capacity(self.0.byte_len(self.1));
        self.0.write_bytes_le(self.1, &mut bytes);
        let text = sdb_crypto::wire::encode(&bytes);
        serializer.serialize_newtype_variant("Value", 6, "Encrypted", &text)
    }
}

impl Serialize for Column {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Column", 2)?;
        s.serialize_field("data_type", &self.data_type)?;
        s.serialize_field("values", &SerializedCells(self))?;
        s.end()
    }
}

impl<'de> Deserialize<'de> for Column {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        /// The serialised form of a column.
        #[derive(Deserialize)]
        struct Stored {
            data_type: DataType,
            values: Vec<Value>,
        }
        let stored = Stored::deserialize(deserializer)?;
        Ok(Column::from_values_unchecked(
            stored.data_type,
            stored.values,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_bigint::BigUint;

    #[test]
    fn push_type_checks() {
        let mut c = Column::new(DataType::Int);
        assert!(c.push(Value::Int(1)).is_ok());
        assert!(c.push(Value::Null).is_ok());
        assert!(c.push(Value::Str("no".into())).is_err());
        assert_eq!(c.len(), 2);
    }

    /// A column-major buffer splits into windows onto it, one per type,
    /// after every value is checked; shares are packed per column instead.
    #[test]
    fn column_major_buffers_split_into_windows() {
        let values = vec![
            Value::Int(1),
            Value::Null,
            Value::Str("a".into()),
            Value::Str("b".into()),
        ];
        let types = [DataType::Int, DataType::Varchar];
        let columns = Column::split_column_major(&types, 2, values.clone()).unwrap();
        assert_eq!(columns.len(), 2);
        assert!(columns[0].shares_buffer(&columns[1]));
        assert_eq!(
            (columns[1].data_type(), columns[1].offset()),
            (DataType::Varchar, 2)
        );
        assert_eq!(columns[0].to_values(), values[..2]);
        assert_eq!(columns[1].to_values(), values[2..]);
        assert!(
            Column::split_column_major(&[DataType::Varchar, DataType::Int], 2, values).is_err()
        );

        let share = Value::Encrypted(BigUint::from(5u8));
        let types = [DataType::Int, DataType::Encrypted];
        let packed = Column::split_column_major(&types, 1, vec![Value::Int(3), share]).unwrap();
        assert!(packed[1].shares().is_some());
        assert!(!packed[0].shares_buffer(&packed[1]));
        assert!(Column::split_column_major(&[], 3, Vec::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn from_values_validates() {
        assert!(Column::from_values(DataType::Int, vec![Value::Int(1), Value::Int(2)]).is_ok());
        assert!(Column::from_values(DataType::Int, vec![Value::Bool(true)]).is_err());
    }

    #[test]
    fn size_accounting_counts_encrypted_values_larger() {
        let plain = Column::from_values(DataType::Int, vec![Value::Int(7); 10]).unwrap();
        let enc = Column::from_values(
            DataType::Encrypted,
            vec![Value::Encrypted(BigUint::from(1u8) << 255u32); 10],
        )
        .unwrap();
        assert!(enc.approx_size_bytes() > plain.approx_size_bytes());
    }

    #[test]
    fn gathers_copy_the_named_rows_and_pad_gaps_with_null() {
        let c = Column::from_values(DataType::Int, (1..=4).map(Value::Int).collect()).unwrap();
        let window = c.slice(1, 3);
        assert_eq!(
            window.gather(&[2, 0, 0]).as_values().unwrap(),
            &[Value::Int(4), Value::Int(2), Value::Int(2)]
        );
        let padded = window.gather_or_null(&[Some(1), None, Some(1)]);
        assert_eq!(
            padded.as_values().unwrap(),
            &[Value::Int(3), Value::Null, Value::Int(3)]
        );
        assert_eq!(padded.data_type(), DataType::Int);
        assert!(window.gather_or_null(&[]).is_empty());
    }

    #[test]
    fn unique_owner_appends_in_place_and_sharers_copy_on_write() {
        let mut owner = Column::from_values(DataType::Int, vec![Value::Int(1)]).unwrap();
        owner.values_mut(0).reserve(8);
        let reserved = owner.as_values().unwrap().as_ptr();
        owner.push(Value::Int(2)).unwrap();
        assert_eq!(
            owner.as_values().unwrap().as_ptr(),
            reserved,
            "no copy when unique"
        );

        let snapshot = owner.clone();
        assert!(snapshot.shares_buffer(&owner));
        owner.push(Value::Int(3)).unwrap();
        assert!(!snapshot.shares_buffer(&owner), "the writer moved away");
        assert_eq!(
            snapshot.as_values().unwrap(),
            &[Value::Int(1), Value::Int(2)]
        );
        assert_eq!(owner.len(), 3);

        // A window copies only itself out before growing.
        let mut window = owner.slice(1, 2);
        window.push_unchecked(Value::Int(9));
        assert_eq!(
            window.as_values().unwrap(),
            &[Value::Int(2), Value::Int(3), Value::Int(9)]
        );
        assert_eq!(owner.len(), 3);
    }
}
