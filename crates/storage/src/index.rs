//! Hash indexes over public columns: the access path of point lookups.
//!
//! The SP holds public columns in plaintext, so it may give them ordinary
//! database machinery. A [`KeyIndex`] maps a column's values to the rows
//! holding them, through the same hash and [`ChainIndex`] the engine's joins
//! and grouping use ([`crate::keys`]); it adds no second hash function and
//! stores no value, only a hash and a chain link per row.
//!
//! **Which columns.** Only a column that [`indexable`] accepts: marked
//! [`Sensitivity::Public`] and of a plaintext type (`INT`, `DECIMAL`,
//! `DATE`, `BOOL`, `VARCHAR`). Shares, encrypted row ids, tags and every
//! auxiliary column are sensitive or of an encrypted type, so no index is
//! ever built over them; the [`Catalog`](crate::Catalog) refuses to.
//!
//! **Versions.** Tables are append-only — a row keeps its position for as
//! long as its table exists — so an index that covers rows `[0, n)` stays
//! valid whatever is inserted after it. It is extended, not rebuilt: the
//! lookup that first sees a snapshot longer than the index hashes the new
//! rows from that snapshot. A lookup returns only rows below its own
//! snapshot's length, so a snapshot taken before an `INSERT` never sees the
//! new row, however far another lookup has extended the index.
//!
//! **Answers.** A lookup returns a superset of the rows whose value equals a
//! key: every row whose 64-bit hash matches one. The caller decides each row
//! with the query's own predicate, which settles hash collisions and the key
//! equality's scale-4 numeric class alike.

use std::sync::{Arc, Weak};

use parking_lot::RwLock;

use crate::catalog::TableHandle;
use crate::keys::{hash_key, ChainIndex};
use crate::{Column, ColumnDef, DataType, Sensitivity, Table, Value};

/// Whether the catalog may index the column `def`: public, and of a
/// plaintext type.
pub fn indexable(def: &ColumnDef) -> bool {
    def.sensitivity == Sensitivity::Public
        && matches!(
            def.data_type,
            DataType::Int
                | DataType::Decimal { .. }
                | DataType::Date
                | DataType::Bool
                | DataType::Varchar
        )
}

/// A hash index over one column of one table version: entry `i` of its
/// chains is row `i`.
pub struct KeyIndex {
    /// The table handle the index was built from: identity only, so a
    /// replaced table is never probed with its predecessor's positions.
    table: Weak<RwLock<Table>>,
    /// Chains over rows `[0, entries)`, extended as snapshots grow.
    chains: RwLock<ChainIndex>,
}

impl KeyIndex {
    /// An empty index over a column of `table`.
    pub(crate) fn new(table: &TableHandle) -> KeyIndex {
        KeyIndex {
            table: Arc::downgrade(table),
            chains: RwLock::new(ChainIndex::default()),
        }
    }

    /// Whether the index belongs to exactly this table handle.
    pub(crate) fn indexes(&self, table: &TableHandle) -> bool {
        std::ptr::eq(self.table.as_ptr(), Arc::as_ptr(table))
    }

    /// How many rows the index covers so far.
    pub fn rows(&self) -> usize {
        self.chains.read().entries()
    }

    /// The rows of `snapshot` — the indexed column as one snapshot of the
    /// table holds it — whose value may equal one of `keys`, ascending and
    /// each once. NULL keys equal nothing and find nothing. Extends the
    /// index over the rows `snapshot` holds beyond it.
    pub fn lookup(&self, snapshot: &Column, keys: &[Value]) -> Vec<usize> {
        let rows = snapshot.len();
        if self.rows() < rows {
            let mut chains = self.chains.write();
            let covered = chains.entries().min(rows);
            for row in covered..rows {
                chains.insert(hash_key([snapshot.value(row)]));
            }
        }
        let chains = self.chains.read();
        let mut found: Vec<usize> = keys
            .iter()
            .filter(|key| !key.is_null())
            .flat_map(|key| chains.matches(hash_key([key])))
            .filter(|&row| row < rows)
            .collect();
        found.sort_unstable();
        found.dedup();
        found
    }
}

impl std::fmt::Debug for KeyIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyIndex")
            .field("rows", &self.rows())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    fn table(values: &[Value]) -> TableHandle {
        let schema = Schema::new(vec![ColumnDef::public("k", DataType::Int)]);
        let mut table = Table::new("t", schema);
        for value in values {
            table.insert_row(vec![value.clone()]).unwrap();
        }
        Arc::new(RwLock::new(table))
    }

    fn column(handle: &TableHandle) -> Column {
        handle.read().scan().column(0).clone()
    }

    #[test]
    fn lookups_find_every_equal_row_in_order_and_grow_with_the_table() {
        let values: Vec<Value> = [3, 1, 3, 2, 3].map(Value::Int).to_vec();
        let handle = table(&values);
        let index = KeyIndex::new(&handle);
        let before = column(&handle);
        assert_eq!(index.lookup(&before, &[Value::Int(3)]), vec![0, 2, 4]);
        assert_eq!(index.rows(), 5);
        // IN lists merge, duplicates and equal keys of the numeric class
        // collapse, NULL finds nothing.
        let keys = [
            Value::Int(2),
            Value::Decimal {
                units: 10,
                scale: 1,
            },
            Value::Int(2),
            Value::Null,
        ];
        assert_eq!(index.lookup(&before, &keys), vec![1, 3]);
        assert!(index.lookup(&before, &[Value::Int(9)]).is_empty());

        handle.write().insert_row(vec![Value::Int(3)]).unwrap();
        let after = column(&handle);
        assert_eq!(index.lookup(&after, &[Value::Int(3)]), vec![0, 2, 4, 5]);
        assert_eq!(index.rows(), 6);
        // The older snapshot still sees only its own rows.
        assert_eq!(index.lookup(&before, &[Value::Int(3)]), vec![0, 2, 4]);
    }

    #[test]
    fn only_public_plaintext_columns_are_indexable() {
        for data_type in [
            DataType::Int,
            DataType::Decimal { scale: 2 },
            DataType::Date,
            DataType::Bool,
            DataType::Varchar,
        ] {
            assert!(indexable(&ColumnDef::public("c", data_type)));
            assert!(!indexable(&ColumnDef::sensitive("c", data_type)));
        }
        for data_type in [DataType::Encrypted, DataType::EncryptedRowId, DataType::Tag] {
            assert!(!indexable(&ColumnDef::public("c", data_type)));
        }
    }
}
