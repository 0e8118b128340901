//! Record batches: the unit of data exchanged between physical operators and
//! shipped over the (simulated) wire between SP and proxy.

use serde::{Deserialize, Serialize};

use crate::{Column, Result, Schema, StorageError, Value};

/// A batch of rows in columnar layout with an attached schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordBatch {
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
}

impl RecordBatch {
    /// Creates a batch from a schema and matching columns.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(StorageError::ArityMismatch {
                expected: schema.len(),
                found: columns.len(),
            });
        }
        let num_rows = columns.first().map(|c| c.len()).unwrap_or(0);
        for (def, col) in schema.columns().iter().zip(columns.iter()) {
            if col.len() != num_rows {
                return Err(StorageError::Invalid {
                    detail: format!(
                        "column {} has {} rows, expected {num_rows}",
                        def.name,
                        col.len()
                    ),
                });
            }
        }
        Ok(RecordBatch {
            schema,
            columns,
            num_rows,
        })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Schema) -> Self {
        RecordBatch::from_rows_unchecked(schema, [])
    }

    /// Builds a batch from row-major values (convenient in tests and loaders).
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Result<Self> {
        for row in &rows {
            if row.len() != schema.len() {
                return Err(StorageError::ArityMismatch {
                    expected: schema.len(),
                    found: row.len(),
                });
            }
            for (def, value) in schema.columns().iter().zip(row) {
                value.check_type(def.data_type)?;
            }
        }
        Ok(RecordBatch::from_rows_unchecked(schema, rows))
    }

    /// [`Self::from_rows`] for trusted rows of the schema's arity: no checks.
    pub fn from_rows_unchecked(schema: Schema, rows: impl IntoIterator<Item = Vec<Value>>) -> Self {
        let rows = rows.into_iter();
        let mut columns: Vec<Vec<Value>> = (0..schema.len())
            .map(|_| Vec::with_capacity(rows.size_hint().0))
            .collect();
        for row in rows {
            for (column, value) in columns.iter_mut().zip(row) {
                column.push(value);
            }
        }
        let columns: Vec<Column> = (schema.columns().iter().zip(columns))
            .map(|(def, values)| Column::from_values_unchecked(def.data_type, values))
            .collect();
        RecordBatch {
            num_rows: columns.first().map_or(0, Column::len),
            schema,
            columns,
        }
    }

    /// The batch's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column by position.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// One row as a vector of values (cloned).
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(idx).clone()).collect()
    }

    /// Iterates rows as value vectors.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.num_rows).map(move |i| self.row(i))
    }

    /// Fails unless a per-row argument has one entry per row.
    fn check_rows(&self, what: &str, len: usize) -> Result<()> {
        if len == self.num_rows {
            return Ok(());
        }
        Err(StorageError::Invalid {
            detail: format!("{what} has {len} entries for {} rows", self.num_rows),
        })
    }

    /// Copies the rows at `rows` (any order) into a new batch: the one place
    /// cells are copied, reached only when rows are dropped or reordered.
    fn gather(&self, rows: &[usize]) -> RecordBatch {
        RecordBatch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather(rows)).collect(),
            num_rows: rows.len(),
        }
    }

    /// [`Self::gather`] for an ascending selection of `kept` rows: keeping
    /// every row shares the buffers, keeping none visits no row.
    fn select(&self, kept: usize, rows: impl Iterator<Item = usize>) -> RecordBatch {
        match kept {
            0 => RecordBatch::empty(self.schema.clone()),
            n if n == self.num_rows => self.clone(),
            _ => self.gather(&rows.collect::<Vec<_>>()),
        }
    }

    /// Keeps only the rows where `mask[i]` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<RecordBatch> {
        self.check_rows("filter mask", mask.len())?;
        let kept = mask.iter().filter(|keep| **keep).count();
        let rows = mask.iter().enumerate().filter(|(_, keep)| **keep);
        Ok(self.select(kept, rows.map(|(i, _)| i)))
    }

    /// Keeps only the rows whose bit is set in `selection`. Word-wise
    /// iteration over the bitmap skips cleared regions 64 rows at a time,
    /// so sparse selections never touch the dropped rows.
    pub fn filter_bitmap(&self, selection: &crate::Bitmap) -> Result<RecordBatch> {
        self.check_rows("selection bitmap", selection.len())?;
        Ok(self.select(selection.count_set(), selection.iter_set()))
    }

    /// Selects a subset of columns by index, in the given order.
    pub fn project(&self, indices: &[usize]) -> RecordBatch {
        let schema = self.schema.project(indices);
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        RecordBatch {
            schema,
            columns,
            num_rows: self.num_rows,
        }
    }

    /// Reorders rows according to `perm` (a permutation of row indices).
    pub fn reorder(&self, perm: &[usize]) -> Result<RecordBatch> {
        self.check_rows("permutation", perm.len())?;
        Ok(self.gather(perm))
    }

    /// Takes the first `n` rows.
    pub fn limit(&self, n: usize) -> RecordBatch {
        self.slice(0, n.min(self.num_rows))
            .expect("a prefix is in range")
    }

    /// The window of `len` rows starting at `offset`, sharing this batch's
    /// buffers (the chunking primitive behind batched scans).
    pub fn slice(&self, offset: usize, len: usize) -> Result<RecordBatch> {
        if offset + len > self.num_rows {
            return Err(StorageError::Invalid {
                detail: format!(
                    "slice [{offset}, {}) out of range for {} rows",
                    offset + len,
                    self.num_rows
                ),
            });
        }
        Ok(RecordBatch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.slice(offset, len)).collect(),
            num_rows: len,
        })
    }

    /// Appends another batch with an identical schema.
    pub fn concat(&self, other: &RecordBatch) -> Result<RecordBatch> {
        let mut out = self.clone();
        out.append(other)?;
        Ok(out)
    }

    /// Appends another batch's rows (identical schemas required): in place
    /// when this batch alone owns its buffers, after copying its own rows out
    /// otherwise. This is the O(rows-appended) primitive batch accumulation
    /// builds on.
    pub fn append(&mut self, other: &RecordBatch) -> Result<()> {
        if self.schema != other.schema {
            return Err(StorageError::Invalid {
                detail: "cannot concat batches with different schemas".into(),
            });
        }
        for (col, src) in self.columns.iter_mut().zip(other.columns.iter()) {
            col.extend_from_slice(src.values());
        }
        self.num_rows += other.num_rows;
        Ok(())
    }

    /// Rough serialised size in bytes (wire/cost accounting).
    pub fn approx_size_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_size_bytes()).sum()
    }

    /// Splits the batch into at most `parts` contiguous, near-equal morsels
    /// covering every row in order (the unit of work for partition-parallel
    /// operators). Fewer than `parts` morsels come back when there are fewer
    /// rows than partitions; an empty batch yields no morsels.
    ///
    /// Panics if `parts` is zero.
    pub fn partition(&self, parts: usize) -> Vec<RecordBatch> {
        partition_ranges(self.num_rows, parts)
            .into_iter()
            .map(|r| {
                self.slice(r.start, r.end - r.start)
                    .expect("partition ranges are in bounds")
            })
            .collect()
    }
}

/// Splits `num_rows` rows into at most `parts` contiguous, near-equal ranges
/// covering `0..num_rows` in order. Returns fewer (possibly zero) ranges when
/// there are fewer rows than partitions — no range is ever empty.
///
/// Panics if `parts` is zero.
pub fn partition_ranges(num_rows: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts > 0, "cannot partition into zero parts");
    let parts = parts.min(num_rows);
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        // Distribute the remainder over the leading ranges.
        let len = num_rows / parts + usize::from(i < num_rows % parts);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnDef, DataType};

    fn sample() -> RecordBatch {
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::public("name", DataType::Varchar),
        ]);
        RecordBatch::from_rows(
            schema,
            vec![
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Int(2), Value::Str("b".into())],
                vec![Value::Int(3), Value::Str("c".into())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let b = sample();
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.num_columns(), 2);
        assert_eq!(b.row(1), vec![Value::Int(2), Value::Str("b".into())]);
        assert_eq!(
            b.column_by_name("name").unwrap().get(2),
            &Value::Str("c".into())
        );
    }

    #[test]
    fn arity_checked() {
        let schema = Schema::new(vec![ColumnDef::public("id", DataType::Int)]);
        assert!(RecordBatch::from_rows(schema, vec![vec![Value::Int(1), Value::Int(2)]]).is_err());
    }

    #[test]
    fn mismatched_column_lengths_rejected() {
        let schema = Schema::new(vec![
            ColumnDef::public("a", DataType::Int),
            ColumnDef::public("b", DataType::Int),
        ]);
        let c1 = Column::from_values(DataType::Int, vec![Value::Int(1)]).unwrap();
        let c2 = Column::from_values(DataType::Int, vec![Value::Int(1), Value::Int(2)]).unwrap();
        assert!(RecordBatch::new(schema, vec![c1, c2]).is_err());
    }

    #[test]
    fn filter_project_limit() {
        let b = sample();
        let f = b.filter(&[true, false, true]).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.row(1)[0], Value::Int(3));

        let p = b.project(&[1]);
        assert_eq!(p.num_columns(), 1);
        assert_eq!(p.schema().column_at(0).name, "name");

        let l = b.limit(2);
        assert_eq!(l.num_rows(), 2);
        assert_eq!(b.limit(99).num_rows(), 3);
    }

    #[test]
    fn filter_bitmap_matches_bool_filter() {
        let b = sample();
        for mask in [
            vec![true, false, true],
            vec![false, false, false],
            vec![true, true, true],
        ] {
            let bm = crate::Bitmap::from_bools(&mask);
            assert_eq!(b.filter_bitmap(&bm).unwrap(), b.filter(&mask).unwrap());
        }
        assert!(b.filter_bitmap(&crate::Bitmap::new_set(2)).is_err());
    }

    #[test]
    fn reorder_and_concat() {
        let b = sample();
        let r = b.reorder(&[2, 0, 1]).unwrap();
        assert_eq!(r.row(0)[0], Value::Int(3));
        let c = b.concat(&r).unwrap();
        assert_eq!(c.num_rows(), 6);
        assert!(b.reorder(&[0]).is_err());
    }

    #[test]
    fn slice_bounds_and_content() {
        let b = sample();
        let s = b.slice(1, 2).unwrap();
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.row(0)[0], Value::Int(2));
        assert_eq!(b.slice(0, 0).unwrap().num_rows(), 0);
        assert_eq!(b.slice(3, 0).unwrap().num_rows(), 0);
        assert!(b.slice(2, 2).is_err());
    }

    #[test]
    fn empty_batch() {
        let schema = Schema::new(vec![ColumnDef::public("x", DataType::Int)]);
        let b = RecordBatch::empty(schema);
        assert_eq!(b.num_rows(), 0);
        assert_eq!(b.rows().count(), 0);
    }

    #[test]
    fn partition_ranges_cover_all_rows_in_order() {
        for (rows, parts) in [(0, 3), (1, 4), (5, 2), (7, 3), (8, 4), (100, 7)] {
            let ranges = partition_ranges(rows, parts);
            assert!(ranges.len() <= parts);
            assert!(ranges.iter().all(|r| !r.is_empty()) || rows == 0);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "ranges must be contiguous");
                next = r.end;
            }
            assert_eq!(next, rows, "ranges must cover every row");
            if !ranges.is_empty() {
                let min = ranges.iter().map(|r| r.len()).min().unwrap();
                let max = ranges.iter().map(|r| r.len()).max().unwrap();
                assert!(max - min <= 1, "ranges must be near-equal");
            }
        }
    }

    #[test]
    fn partition_reassembles_to_original() {
        let b = sample();
        let parts = b.partition(2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].num_rows(), 2);
        assert_eq!(parts[1].num_rows(), 1);
        let mut acc = parts[0].clone();
        acc.append(&parts[1]).unwrap();
        assert_eq!(acc, b);

        // More parts than rows: one single-row morsel per row.
        assert_eq!(b.partition(10).len(), 3);
        // Empty batches partition into nothing.
        let empty = RecordBatch::empty(b.schema().clone());
        assert!(empty.partition(4).is_empty());
    }

    #[test]
    fn batch_serde_roundtrip() {
        let b = sample();
        let json = serde_json::to_string(&b).unwrap();
        let back: RecordBatch = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }
}
