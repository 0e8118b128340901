//! Base-table scan: windows onto the table's shared column buffers, reading
//! only the columns the plan references.

use std::sync::Arc;

use sdb_storage::{ColumnDef, RecordBatch, Schema};

use super::{ExecContext, PhysicalOperator};
use crate::Result;

/// Scans a catalog table, emitting batches of at most `ctx.batch_size()` rows.
///
/// `open()` takes the snapshot under the table's read guard: one shared
/// handle per column read, no cell copied, and the guard is gone before the
/// first batch. A concurrent `INSERT` copies on write, so the rows a scan
/// emits are exactly the rows the table held at `open()`. Batches are
/// windows onto that snapshot.
pub struct TableScan<'a> {
    ctx: Arc<ExecContext<'a>>,
    table: String,
    alias: Option<String>,
    /// The column names the plan above references (`None`: every column).
    referenced: Option<Vec<String>>,
    /// The table snapshot, taken at `open()`.
    source: Option<RecordBatch>,
    /// Next row offset into the snapshot.
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
            source: None,
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
    /// schema's suffix matching).
    fn snapshot(&self) -> Result<RecordBatch> {
        let visible = self.alias.as_deref().unwrap_or(&self.table);
        let handle = self.ctx.catalog().table(&self.table)?;
        let (snapshot, total) = {
            let table = handle.read();
            let defs = table.schema().columns();
            let mut read: Vec<usize> = (0..defs.len())
                .filter(|&i| self.reads(visible, &defs[i].name))
                .collect();
            if read.is_empty() && !defs.is_empty() {
                let heapless = |d: &ColumnDef| d.data_type.is_numeric();
                read.push(defs.iter().position(heapless).unwrap_or(0));
            }
            (table.scan_columns(&read), defs.len())
        };
        let mut stats = self.ctx.stats_mut();
        stats.scan_columns_read += snapshot.num_columns();
        stats.scan_columns_total += total;
        drop(stats);
        let schema = qualified(visible, snapshot.schema());
        Ok(RecordBatch::new(schema, snapshot.columns().to_vec())?)
    }
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
        "TableScan"
    }

    fn open(&mut self) -> Result<()> {
        self.source = Some(self.snapshot()?);
        self.offset = 0;
        self.emitted = false;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        self.ctx.check_cancelled()?;
        let Some(source) = &self.source else {
            return Ok(None);
        };
        let take = self.ctx.batch_size().min(source.num_rows() - self.offset);
        // An empty table still emits one empty batch carrying the schema.
        if take == 0 && self.emitted {
            return Ok(None);
        }
        let batch = source.slice(self.offset, take)?;
        self.offset += take;
        self.emitted = true;
        self.ctx.stats_mut().rows_scanned += take;
        Ok(Some(batch))
    }

    fn close(&mut self) -> Result<()> {
        self.source = None;
        Ok(())
    }
}
