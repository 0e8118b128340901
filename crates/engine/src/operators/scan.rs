//! Base-table scan: windows onto the table's shared column buffers, reading
//! only the columns the plan references — or, as an `IndexScan`, only the
//! rows a key lookup on a public column finds.

use std::sync::Arc;

use sdb_storage::{ColumnDef, RecordBatch, Schema, Value};

use super::{ExecContext, PhysicalOperator};
use crate::Result;

/// Scans a catalog table, emitting batches of at most `ctx.config().batch_size` rows.
///
/// `open()` takes the snapshot under the table's read guard: one shared
/// handle per column read, no cell copied, and the guard is gone before the
/// first batch. A concurrent `INSERT` copies on write, so the rows a scan
/// emits are exactly the rows the table held at `open()`. Batches are
/// windows onto that snapshot.
///
/// With a [`KeyLookup`] the scan is an `IndexScan`: after the same snapshot
/// it probes the catalog's [`sdb_storage::KeyIndex`] on the lookup's column
/// and emits, in ascending row order, only the snapshot's rows the index
/// finds — a superset of the rows equal to a key, which the filter above
/// decides. `rows_scanned` counts the rows emitted either way.
pub struct TableScan<'a> {
    ctx: Arc<ExecContext<'a>>,
    table: String,
    alias: Option<String>,
    /// The column names the plan above references (`None`: every column).
    referenced: Option<Vec<String>>,
    /// The key lookup of an index scan.
    lookup: Option<KeyLookup>,
    /// The table snapshot, taken at `open()`.
    source: Option<RecordBatch>,
    /// The snapshot rows an index scan emits, ascending (`None`: every row).
    rows: Option<Vec<usize>>,
    /// Next position in the rows to emit.
    offset: usize,
    /// True until the first batch is emitted (an empty table still yields one
    /// empty batch so downstream operators learn the schema).
    emitted: bool,
}

impl<'a> TableScan<'a> {
    /// Creates a scan of every column of `table` (visible under `alias` if
    /// given).
    pub fn new(ctx: Arc<ExecContext<'a>>, table: &str, alias: Option<&str>) -> Self {
        TableScan {
            ctx,
            table: table.to_string(),
            alias: alias.map(str::to_string),
            referenced: None,
            lookup: None,
            source: None,
            rows: None,
            offset: 0,
            emitted: false,
        }
    }

    /// Restricts the scan to the columns some name in `referenced` can
    /// resolve to (`None` keeps every column). When no name does (`COUNT(*)`)
    /// one column stays, a numeric one if there is one, for the row count.
    pub fn reading(mut self, referenced: Option<Vec<String>>) -> Self {
        self.referenced = referenced;
        self
    }

    /// Makes the scan an index scan emitting only the rows `lookup` finds.
    pub fn looking_up(mut self, lookup: KeyLookup) -> Self {
        self.lookup = Some(lookup);
        self
    }

    fn visible(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }

    /// Whether a reference anywhere above can resolve to column `name` of
    /// this scan: spelled bare, or qualified with the scan's visible name.
    fn reads(&self, visible: &str, name: &str) -> bool {
        let Some(referenced) = &self.referenced else {
            return true;
        };
        referenced.iter().any(|r| {
            let bare = match r.rsplit_once('.') {
                Some((qualifier, bare)) if qualifier.eq_ignore_ascii_case(visible) => bare,
                Some(_) => return false,
                None => r,
            };
            bare.eq_ignore_ascii_case(name)
        })
    }

    /// The snapshot: the read columns, named `visible.column` so joins and
    /// qualified references resolve (bare references still work through the
    /// schema's suffix matching); for an index scan, also the rows to emit.
    fn snapshot(&self) -> Result<(RecordBatch, Option<Vec<usize>>)> {
        let visible = self.visible();
        let catalog = self.ctx.catalog();
        let handle = catalog.table(&self.table)?;
        let (snapshot, total, key) = {
            let table = handle.read();
            let defs = table.schema().columns();
            let mut read: Vec<usize> = (0..defs.len())
                .filter(|&i| self.reads(visible, &defs[i].name))
                .collect();
            if read.is_empty() && !defs.is_empty() {
                let heapless = |d: &ColumnDef| d.data_type.is_numeric();
                read.push(defs.iter().position(heapless).unwrap_or(0));
            }
            let key = match &self.lookup {
                Some(lookup) => Some((
                    table.schema().index_of(&lookup.column)?,
                    table.column(&lookup.column)?.clone(),
                )),
                None => None,
            };
            (table.scan_columns(&read), defs.len(), key)
        };
        let mut stats = self.ctx.stats_mut();
        stats.scan_columns_read += snapshot.num_columns();
        stats.scan_columns_total += total;
        drop(stats);
        // A column the catalog will not index (the table was replaced by one
        // where it is sensitive) leaves every row to the filter.
        let rows = self
            .lookup
            .as_ref()
            .zip(key)
            .and_then(|(lookup, (at, column))| {
                let index = catalog.key_index(&self.table, &handle, at)?;
                Some(index.lookup(&column, &lookup.keys))
            });
        let schema = qualified(visible, snapshot.schema());
        Ok((RecordBatch::new(schema, snapshot.columns().to_vec())?, rows))
    }
}

/// The lookup of an index scan: the rows whose `column` may equal one of
/// `keys`.
#[derive(Debug, Clone)]
pub struct KeyLookup {
    /// The column, named as in its table.
    pub column: String,
    /// The keys (one for `=`, the list of an `IN`).
    pub keys: Vec<Value>,
}

/// `schema` with every column named `visible.column`, the way a scan emits it.
pub(crate) fn qualified(visible: &str, schema: &Schema) -> Schema {
    let qualify = |c: &ColumnDef| ColumnDef {
        name: format!("{visible}.{}", c.name),
        data_type: c.data_type,
        sensitivity: c.sensitivity,
    };
    Schema::new(schema.columns().iter().map(qualify).collect())
}

impl PhysicalOperator for TableScan<'_> {
    fn name(&self) -> &'static str {
        match self.lookup {
            Some(_) => "IndexScan",
            None => "TableScan",
        }
    }

    fn describe(&self) -> String {
        match &self.lookup {
            Some(lookup) => format!("IndexScan({}.{})", self.visible(), lookup.column),
            None => self.name().to_string(),
        }
    }

    fn open(&mut self) -> Result<()> {
        let (source, rows) = self.snapshot()?;
        self.source = Some(source);
        self.rows = rows;
        self.offset = 0;
        self.emitted = false;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        self.ctx.check_cancelled()?;
        let Some(source) = &self.source else {
            return Ok(None);
        };
        let emitting = self.rows.as_ref().map_or(source.num_rows(), Vec::len);
        let take = self.ctx.config().batch_size.min(emitting - self.offset);
        // An empty table still emits one empty batch carrying the schema.
        if take == 0 && self.emitted {
            return Ok(None);
        }
        let batch = match &self.rows {
            Some(rows) => source.gather(&rows[self.offset..self.offset + take]),
            None => source.slice(self.offset, take)?,
        };
        self.offset += take;
        self.emitted = true;
        self.ctx.stats_mut().rows_scanned += take;
        Ok(Some(batch))
    }

    fn close(&mut self) -> Result<()> {
        self.source = None;
        self.rows = None;
        Ok(())
    }
}
