//! The catalog: a thread-safe registry of tables, shared between the storage layer
//! and the execution engine.
//!
//! Alongside the tables themselves the catalog stores their optimizer
//! statistics ([`TableStats`]) — populated by the `ANALYZE` path (the client
//! upload path analyzes automatically), dropped with the table, and read by
//! the engine's cost-based planner — and their hash indexes ([`KeyIndex`]),
//! built on the first lookup that wants one and dropped with the table too.
//! Neither counts towards [`Catalog::approx_size_bytes`].
//!
//! Every change a query plan can depend on — a table created, registered,
//! replaced or dropped, statistics collected, stored or discarded — advances
//! the catalog's [`Catalog::epoch`], so a plan cached under one epoch is
//! never reused under another. Row inserts do not: plans read statistics,
//! and indexes are versioned below the plan.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::index::{indexable, KeyIndex};
use crate::stats::{analyze_table, TableStats};
use crate::{Result, Schema, StorageError, Table};

/// A shared handle to a stored table.
pub type TableHandle = Arc<RwLock<Table>>;

/// Thread-safe table registry.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<BTreeMap<String, TableHandle>>,
    /// Optimizer statistics per table, keyed like `tables`.
    stats: RwLock<BTreeMap<String, Arc<TableStats>>>,
    /// Hash indexes per (table, column position), each tied to the handle
    /// it was built from.
    indexes: RwLock<BTreeMap<(String, usize), Arc<KeyIndex>>>,
    /// Advanced by every schema or statistics change.
    epoch: AtomicU64,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The catalog's epoch: it advances whenever a table is created,
    /// registered, replaced or dropped and whenever statistics change.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Called after the change it marks: the release pairs with
    /// [`Self::epoch`]'s acquire, so whoever reads the new epoch sees the
    /// change.
    fn advance_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Creates a new empty table, failing if the name is taken.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<TableHandle> {
        let key = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(StorageError::TableAlreadyExists { name: key });
        }
        let handle = Arc::new(RwLock::new(Table::new(&key, schema)));
        tables.insert(key, handle.clone());
        self.advance_epoch();
        Ok(handle)
    }

    /// Registers an already-populated table, failing if the name is taken.
    pub fn register_table(&self, table: Table) -> Result<TableHandle> {
        let key = table.name().to_string();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(StorageError::TableAlreadyExists { name: key });
        }
        let handle = Arc::new(RwLock::new(table));
        tables.insert(key, handle.clone());
        self.advance_epoch();
        Ok(handle)
    }

    /// Replaces (or inserts) a table unconditionally. Any statistics and
    /// indexes of the old table are discarded.
    pub fn register_or_replace(&self, table: Table) -> TableHandle {
        let key = table.name().to_string();
        let handle = Arc::new(RwLock::new(table));
        self.stats.write().remove(&key);
        self.tables.write().insert(key.clone(), handle.clone());
        self.drop_indexes(&key);
        self.advance_epoch();
        handle
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Result<TableHandle> {
        let key = name.to_ascii_lowercase();
        self.tables
            .read()
            .get(&key)
            .cloned()
            .ok_or(StorageError::TableNotFound { name: key })
    }

    /// Drops a table (and its statistics and indexes).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.write().remove(&key).is_none() {
            return Err(StorageError::TableNotFound { name: key });
        }
        self.stats.write().remove(&key);
        self.drop_indexes(&key);
        self.advance_epoch();
        Ok(())
    }

    /// The hash index over column position `column` of table `name` as
    /// `handle` holds it (the handle a snapshot was taken from), created
    /// empty on first use. `None` when the column may not be indexed: only
    /// public plaintext columns may ([`indexable`]). Must not be called
    /// while holding `handle`'s lock.
    ///
    /// An index kept for an earlier handle of the name — the table was
    /// replaced — is never returned for this one. An index for a handle
    /// that is no longer registered serves its caller but is not kept.
    pub fn key_index(
        &self,
        name: &str,
        handle: &TableHandle,
        column: usize,
    ) -> Option<Arc<KeyIndex>> {
        let key = (name.to_ascii_lowercase(), column);
        if let Some(index) = self.indexes.read().get(&key) {
            if index.indexes(handle) {
                return Some(Arc::clone(index));
            }
        }
        if !indexable(handle.read().schema().columns().get(column)?) {
            return None;
        }
        let registered = self.tables.read().get(&key.0).cloned();
        if !registered.is_some_and(|current| Arc::ptr_eq(&current, handle)) {
            return Some(Arc::new(KeyIndex::new(handle)));
        }
        let mut indexes = self.indexes.write();
        let index = indexes
            .entry(key)
            .and_modify(|index| {
                if !index.indexes(handle) {
                    *index = Arc::new(KeyIndex::new(handle));
                }
            })
            .or_insert_with(|| Arc::new(KeyIndex::new(handle)));
        Some(Arc::clone(index))
    }

    /// The (table, column position) of every index the catalog keeps.
    pub fn indexed_columns(&self) -> Vec<(String, usize)> {
        self.indexes.read().keys().cloned().collect()
    }

    fn drop_indexes(&self, table: &str) {
        self.indexes.write().retain(|(name, _), _| name != table);
    }

    /// Analyzes one table and stores its statistics, returning them.
    pub fn analyze(&self, name: &str) -> Result<Arc<TableStats>> {
        let handle = self.table(name)?;
        let stats = Arc::new(analyze_table(&handle.read()));
        self.stats
            .write()
            .insert(stats.table.clone(), Arc::clone(&stats));
        self.advance_epoch();
        Ok(stats)
    }

    /// Analyzes every registered table, returning the statistics in table
    /// name order.
    pub fn analyze_all(&self) -> Result<Vec<Arc<TableStats>>> {
        self.table_names()
            .into_iter()
            .map(|name| self.analyze(&name))
            .collect()
    }

    /// The stored statistics for a table, if it has been analyzed.
    pub fn table_stats(&self, name: &str) -> Option<Arc<TableStats>> {
        self.stats.read().get(&name.to_ascii_lowercase()).cloned()
    }

    /// Stores externally-computed statistics (tests, replication).
    pub fn put_stats(&self, stats: TableStats) {
        self.stats
            .write()
            .insert(stats.table.clone(), Arc::new(stats));
        self.advance_epoch();
    }

    /// Discards a table's statistics without touching the table.
    pub fn clear_stats(&self, name: &str) {
        self.stats.write().remove(&name.to_ascii_lowercase());
        self.advance_epoch();
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.read().len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.read().is_empty()
    }

    /// Total approximate storage footprint across all tables.
    pub fn approx_size_bytes(&self) -> usize {
        self.tables
            .read()
            .values()
            .map(|t| t.read().approx_size_bytes())
            .sum()
    }

    /// Snapshot of all tables (cloned), used by persistence.
    pub fn snapshot(&self) -> Vec<Table> {
        self.tables
            .read()
            .values()
            .map(|t| t.read().clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnDef, DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![ColumnDef::public("id", DataType::Int)])
    }

    #[test]
    fn create_lookup_drop() {
        let cat = Catalog::new();
        cat.create_table("t1", schema()).unwrap();
        assert!(cat.table("T1").is_ok());
        assert_eq!(cat.table_names(), vec!["t1"]);
        assert!(cat.create_table("t1", schema()).is_err());
        cat.drop_table("t1").unwrap();
        assert!(cat.table("t1").is_err());
        assert!(cat.drop_table("t1").is_err());
    }

    #[test]
    fn register_and_mutate_through_handle() {
        let cat = Catalog::new();
        let handle = cat.create_table("t", schema()).unwrap();
        handle.write().insert_row(vec![Value::Int(7)]).unwrap();
        assert_eq!(cat.table("t").unwrap().read().num_rows(), 1);
    }

    #[test]
    fn register_or_replace_overwrites() {
        let cat = Catalog::new();
        cat.create_table("t", schema()).unwrap();
        let mut replacement = Table::new("t", schema());
        replacement.insert_row(vec![Value::Int(1)]).unwrap();
        cat.register_or_replace(replacement);
        assert_eq!(cat.table("t").unwrap().read().num_rows(), 1);
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn concurrent_access() {
        use std::thread;
        let cat = Arc::new(Catalog::new());
        let handle = cat.create_table("shared", schema()).unwrap();
        let mut joins = vec![];
        for i in 0..8 {
            let h = handle.clone();
            joins.push(thread::spawn(move || {
                for j in 0..100 {
                    h.write().insert_row(vec![Value::Int(i * 100 + j)]).unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(handle.read().num_rows(), 800);
    }

    #[test]
    fn analyze_stores_and_invalidation_clears_stats() {
        let cat = Catalog::new();
        let handle = cat.create_table("t", schema()).unwrap();
        for i in 0..10 {
            handle.write().insert_row(vec![Value::Int(i)]).unwrap();
        }
        assert!(cat.table_stats("t").is_none(), "no stats before ANALYZE");
        let stats = cat.analyze("t").unwrap();
        assert_eq!(stats.row_count, 10);
        assert_eq!(cat.table_stats("T").unwrap().row_count, 10);

        // Replacing the table discards the stale statistics.
        cat.register_or_replace(Table::new("t", schema()));
        assert!(cat.table_stats("t").is_none());

        // Dropping does too.
        cat.analyze("t").unwrap();
        cat.drop_table("t").unwrap();
        assert!(cat.table_stats("t").is_none());
        assert!(cat.analyze("t").is_err(), "missing tables fail to analyze");
    }

    #[test]
    fn indexes_go_with_their_table_and_never_serve_a_replacement() {
        let cat = Catalog::new();
        let handle = cat.create_table("t", schema()).unwrap();
        for i in 0..10 {
            handle.write().insert_row(vec![Value::Int(i)]).unwrap();
        }
        let key = [Value::Int(7)];
        let snapshot = handle.read().scan().column(0).clone();
        let index = cat.key_index("T", &handle, 0).expect("a public INT column");
        assert_eq!(index.lookup(&snapshot, &key), vec![7]);
        assert!(Arc::ptr_eq(
            &index,
            &cat.key_index("t", &handle, 0).unwrap()
        ));
        assert_eq!(cat.indexed_columns(), vec![("t".to_string(), 0)]);

        // The replacement holds 7 at row 0: its lookups never see row 7.
        let mut replacement = Table::new("t", schema());
        replacement.insert_row(vec![Value::Int(7)]).unwrap();
        let replaced = cat.register_or_replace(replacement);
        assert!(cat.indexed_columns().is_empty());
        let fresh = cat.key_index("t", &replaced, 0).unwrap();
        assert!(!Arc::ptr_eq(&index, &fresh));
        assert_eq!(
            fresh.lookup(&replaced.read().scan().column(0).clone(), &key),
            vec![0]
        );
        // A lookup through the old handle is served, but not kept.
        let stale = cat.key_index("t", &handle, 0).unwrap();
        assert_eq!(stale.lookup(&snapshot, &key), vec![7]);
        assert!(Arc::ptr_eq(
            &fresh,
            &cat.key_index("t", &replaced, 0).unwrap()
        ));

        cat.drop_table("t").unwrap();
        assert!(cat.indexed_columns().is_empty());

        let sensitive = Schema::new(vec![ColumnDef::sensitive("v", DataType::Encrypted)]);
        let handle = cat.create_table("s", sensitive).unwrap();
        assert!(cat.key_index("s", &handle, 0).is_none());
        assert!(cat.key_index("s", &handle, 1).is_none(), "no such column");
        assert!(cat.indexed_columns().is_empty());
    }

    #[test]
    fn the_epoch_advances_on_schema_and_statistics_changes_only() {
        let cat = Catalog::new();
        let mut last = cat.epoch();
        let mut advanced = |cat: &Catalog, what: &str| {
            assert!(cat.epoch() > last, "{what} advances the epoch");
            last = cat.epoch();
        };
        let handle = cat.create_table("t", schema()).unwrap();
        advanced(&cat, "create");
        handle.write().insert_row(vec![Value::Int(1)]).unwrap();
        cat.analyze("t").unwrap();
        advanced(&cat, "analyze");
        cat.clear_stats("t");
        advanced(&cat, "clear_stats");
        cat.register_or_replace(Table::new("t", schema()));
        advanced(&cat, "replace");
        cat.register_table(Table::new("u", schema())).unwrap();
        advanced(&cat, "register");
        cat.drop_table("u").unwrap();
        advanced(&cat, "drop");
        let epoch = cat.epoch();
        let handle = cat.table("t").unwrap();
        handle.write().insert_row(vec![Value::Int(2)]).unwrap();
        assert_eq!(cat.epoch(), epoch, "an insert leaves the epoch alone");
    }

    #[test]
    fn analyze_all_covers_every_table() {
        let cat = Catalog::new();
        cat.create_table("a", schema()).unwrap();
        cat.create_table("b", schema()).unwrap();
        let all = cat.analyze_all().unwrap();
        assert_eq!(all.len(), 2);
        assert!(cat.table_stats("a").is_some() && cat.table_stats("b").is_some());
    }

    #[test]
    fn snapshot_is_deep() {
        let cat = Catalog::new();
        let handle = cat.create_table("t", schema()).unwrap();
        handle.write().insert_row(vec![Value::Int(1)]).unwrap();
        let snap = cat.snapshot();
        handle.write().insert_row(vec![Value::Int(2)]).unwrap();
        assert_eq!(snap[0].num_rows(), 1);
    }
}
