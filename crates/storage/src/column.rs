//! A single column of values: a window onto a shared buffer, copy-on-write.

use std::sync::Arc;

use serde::ser::SerializeStruct;
use serde::{Deserialize, Serialize};

use crate::{DataType, Result, Value};

/// A typed column of values: the window `[offset, offset + len)` of a shared
/// buffer.
///
/// `clone` and [`Column::slice`] share the buffer and never copy a cell.
/// Mutation is copy-on-write: a column that alone owns its whole buffer
/// appends in place; any other first copies its window out, so no other
/// holder of the buffer ever observes a change. Equality, size accounting
/// and the serialised form (`{data_type, values}`) see only the window.
#[derive(Debug, Clone)]
pub struct Column {
    data_type: DataType,
    buffer: Arc<Vec<Value>>,
    offset: usize,
    len: usize,
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
    /// trusted internal paths).
    pub fn from_values_unchecked(data_type: DataType, values: Vec<Value>) -> Self {
        Column {
            data_type,
            len: values.len(),
            buffer: Arc::new(values),
            offset: 0,
        }
    }

    /// The column's declared type.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The buffer as a uniquely-owned, exactly-windowed `Vec` to append to
    /// (callers add what they appended to `self.len`).
    fn buffer_mut(&mut self) -> &mut Vec<Value> {
        if self.offset != 0 || self.len != self.buffer.len() {
            self.buffer = Arc::new(self.values().to_vec());
            self.offset = 0;
        }
        Arc::make_mut(&mut self.buffer)
    }

    /// Appends a value after type-checking it.
    pub fn push(&mut self, value: Value) -> Result<()> {
        value.check_type(self.data_type)?;
        self.push_unchecked(value);
        Ok(())
    }

    /// Appends a value without type-checking (used by trusted internal paths).
    pub fn push_unchecked(&mut self, value: Value) {
        self.buffer_mut().push(value);
        self.len += 1;
    }

    /// Appends clones of `values` without type-checking.
    pub fn extend_from_slice(&mut self, values: &[Value]) {
        self.buffer_mut().extend_from_slice(values);
        self.len += values.len();
    }

    /// The value at `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values()[idx]
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.buffer[self.offset..self.offset + self.len]
    }

    /// The sub-window of `len` values starting at `offset`, sharing this
    /// column's buffer. Panics when out of range.
    pub fn slice(&self, offset: usize, len: usize) -> Column {
        assert!(offset + len <= self.len, "column slice out of range");
        Column {
            data_type: self.data_type,
            buffer: Arc::clone(&self.buffer),
            offset: self.offset + offset,
            len,
        }
    }

    /// Copies the values at `rows` (any order, repeats allowed) into a new
    /// column.
    pub fn gather(&self, rows: &[usize]) -> Column {
        let values = self.values();
        let gathered = rows.iter().map(|&i| values[i].clone()).collect();
        Column::from_values_unchecked(self.data_type, gathered)
    }

    /// [`Self::gather`] with gaps: `None` becomes a NULL (the unmatched side
    /// of an outer join).
    pub fn gather_or_null(&self, rows: &[Option<usize>]) -> Column {
        let values = self.values();
        let gathered = rows
            .iter()
            .map(|row| row.map_or(Value::Null, |i| values[i].clone()))
            .collect();
        Column::from_values_unchecked(self.data_type, gathered)
    }

    /// True when both columns are windows onto the same buffer (no cell was
    /// copied between them).
    pub fn shares_buffer(&self, other: &Column) -> bool {
        Arc::ptr_eq(&self.buffer, &other.buffer)
    }

    /// Where this column's window starts in its buffer: with
    /// [`Column::shares_buffer`], what tells which cells two windows have in
    /// common.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Rough serialised size in bytes, used for key-store / storage accounting
    /// (experiment E2).
    pub fn approx_size_bytes(&self) -> usize {
        self.values().iter().map(Value::approx_size).sum()
    }
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        self.data_type == other.data_type && self.values() == other.values()
    }
}

impl Serialize for Column {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Column", 2)?;
        s.serialize_field("data_type", &self.data_type)?;
        s.serialize_field("values", self.values())?;
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
            window.gather(&[2, 0, 0]).values(),
            &[Value::Int(4), Value::Int(2), Value::Int(2)]
        );
        let padded = window.gather_or_null(&[Some(1), None, Some(1)]);
        assert_eq!(
            padded.values(),
            &[Value::Int(3), Value::Null, Value::Int(3)]
        );
        assert_eq!(padded.data_type(), DataType::Int);
        assert!(window.gather_or_null(&[]).is_empty());
    }

    #[test]
    fn unique_owner_appends_in_place_and_sharers_copy_on_write() {
        let mut owner = Column::from_values(DataType::Int, vec![Value::Int(1)]).unwrap();
        owner.buffer_mut().reserve(8);
        let reserved = owner.values().as_ptr();
        owner.push(Value::Int(2)).unwrap();
        assert_eq!(owner.values().as_ptr(), reserved, "no copy when unique");

        let snapshot = owner.clone();
        assert!(snapshot.shares_buffer(&owner));
        owner.push(Value::Int(3)).unwrap();
        assert!(!snapshot.shares_buffer(&owner), "the writer moved away");
        assert_eq!(snapshot.values(), &[Value::Int(1), Value::Int(2)]);
        assert_eq!(owner.len(), 3);

        // A window copies only itself out before growing.
        let mut window = owner.slice(1, 2);
        window.push_unchecked(Value::Int(9));
        assert_eq!(
            window.values(),
            &[Value::Int(2), Value::Int(3), Value::Int(9)]
        );
        assert_eq!(owner.len(), 3);
    }
}
