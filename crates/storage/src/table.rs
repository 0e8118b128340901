//! Tables: named, schema'd collections of rows stored column-major.

use serde::{Deserialize, Serialize};

use crate::{Column, RecordBatch, Result, Schema, StorageError, Value};

/// A stored table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: &str, schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| Column::new(c.data_type))
            .collect();
        Table {
            name: name.to_ascii_lowercase(),
            schema,
            columns,
            num_rows: 0,
        }
    }

    /// The table name (lower-cased).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Inserts one row (values in schema order).
    pub fn insert_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        for (col, value) in self.columns.iter_mut().zip(row) {
            col.push(value)?;
        }
        self.num_rows += 1;
        Ok(())
    }

    /// Inserts many rows.
    pub fn insert_rows(&mut self, rows: Vec<Vec<Value>>) -> Result<()> {
        for row in rows {
            self.insert_row(row)?;
        }
        Ok(())
    }

    /// Appends a whole record batch whose schema matches this table's.
    pub fn append_batch(&mut self, batch: &RecordBatch) -> Result<()> {
        if batch.schema() != &self.schema {
            return Err(StorageError::Invalid {
                detail: format!("batch schema does not match table {}", self.name),
            });
        }
        for (col, src) in self.columns.iter_mut().zip(batch.columns().iter()) {
            col.extend_from_slice(src.values());
        }
        self.num_rows += batch.num_rows();
        Ok(())
    }

    /// The whole table as a record batch sharing the table's buffers: O(columns),
    /// no cell is copied, and later inserts never show through (copy-on-write).
    pub fn scan(&self) -> RecordBatch {
        RecordBatch::new(self.schema.clone(), self.columns.clone())
            .expect("table columns are consistent by construction")
    }

    /// [`Self::scan`] restricted to the columns at `indices`, in that order.
    pub fn scan_columns(&self, indices: &[usize]) -> RecordBatch {
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        RecordBatch::new(self.schema.project(indices), columns)
            .expect("table columns are consistent by construction")
    }

    /// A column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Rough storage footprint in bytes.
    pub fn approx_size_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnDef, DataType};

    fn employee_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::sensitive("salary", DataType::Int),
            ColumnDef::public("dept", DataType::Varchar),
        ]);
        Table::new("Employees", schema)
    }

    #[test]
    fn insert_and_scan() {
        let mut t = employee_table();
        assert_eq!(t.name(), "employees");
        t.insert_row(vec![
            Value::Int(1),
            Value::Int(100),
            Value::Str("eng".into()),
        ])
        .unwrap();
        t.insert_row(vec![
            Value::Int(2),
            Value::Int(200),
            Value::Str("ops".into()),
        ])
        .unwrap();
        assert_eq!(t.num_rows(), 2);
        let b = t.scan();
        assert_eq!(b.num_rows(), 2);
        assert_eq!(
            b.column_by_name("dept").unwrap().get(1),
            &Value::Str("ops".into())
        );
    }

    #[test]
    fn arity_and_type_enforced() {
        let mut t = employee_table();
        assert!(t.insert_row(vec![Value::Int(1)]).is_err());
        assert!(t
            .insert_row(vec![
                Value::Str("x".into()),
                Value::Int(1),
                Value::Str("y".into())
            ])
            .is_err());
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn append_batch_requires_same_schema() {
        let mut t = employee_table();
        let other_schema = Schema::new(vec![ColumnDef::public("id", DataType::Int)]);
        let batch = RecordBatch::from_rows(other_schema, vec![vec![Value::Int(1)]]).unwrap();
        assert!(t.append_batch(&batch).is_err());

        let good = RecordBatch::from_rows(
            t.schema().clone(),
            vec![vec![
                Value::Int(3),
                Value::Int(300),
                Value::Str("hr".into()),
            ]],
        )
        .unwrap();
        t.append_batch(&good).unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn size_grows_with_rows() {
        let mut t = employee_table();
        let before = t.approx_size_bytes();
        t.insert_row(vec![
            Value::Int(1),
            Value::Int(100),
            Value::Str("eng".into()),
        ])
        .unwrap();
        assert!(t.approx_size_bytes() > before);
    }
}
