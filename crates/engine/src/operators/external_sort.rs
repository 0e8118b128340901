//! The sort's overflow path: external merge sort through the pager.
//!
//! [`Sort`] holds its input in memory while it fits the
//! [`MemoryBudget`](sdb_storage::MemoryBudget). On the first overflow it
//! replays the held batches, then the rest of its input, into the classic
//! two-phase design, morsel-parallel where it pays:
//!
//! 1. **Run generation** — input batches accumulate (with their computed
//!    sort keys appended as extra columns) until the budget is reached;
//!    the accumulated run is then sorted (`sort::sorted_order`) by its key
//!    columns, a key that is a column reference being that column, and
//!    parked in the pager as a sequence of `batch_size`-row pages.
//!    Under budget pressure the pager transparently spills those pages to
//!    disk.
//! 2. **K-way merge on drain** — one cursor per run pins its frontier page
//!    (pages are faulted back in on demand and freed as soon as they are
//!    consumed) and a binary heap pops the globally smallest row, emitting
//!    output batches of `batch_size` rows.
//!
//! Ties break by run index and then by position within the run. Runs are
//! contiguous chunks of the input in arrival order and each run is sorted
//! with a position tie-break, so the merged output is **byte-identical** to
//! the in-memory stable sort, at any parallelism and any batch size.
//!
//! Spilled key columns ride along with the data instead of being
//! re-evaluated after a page faults back in: re-evaluation could re-trigger
//! subquery resolution and would double-count UDF statistics.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

use sdb_sql::ast::Expr;
use sdb_storage::{
    Column, ColumnDef, DataType, PageId, Pager, PinnedPage, RecordBatch, Schema, Value,
};

use super::expr::input_column;
use super::sort::{key_columns, sorted_order, Sort};
use super::{append_rows, ExecContext, Replay};
use crate::Result;

impl Sort<'_> {
    /// The overflow path: drains the held batches and the rest of the input
    /// into sorted runs parked in the pager, ready to merge.
    pub(super) fn spill(&mut self, mut held: Replay) -> Result<Merge> {
        let desc = self.desc();
        let limit =
            (self.ctx.config().memory_budget.limit()).expect("only a limited budget overflows");
        let output_schema = held.schema().clone();
        let mut computed = Vec::new();
        let positions: Vec<usize> = (self.bind_keys(&output_schema).into_iter())
            .map(|key| match input_column(&key, &output_schema) {
                Some(idx) => idx,
                None => {
                    computed.push(key);
                    output_schema.len() + computed.len() - 1
                }
            })
            .collect();
        let mut runs: Vec<RunCursor> = Vec::new();
        let mut run_buf: Option<RecordBatch> = None;
        let mut run_bytes = 0usize;
        while let Some(batch) = held.next_batch(self.input.as_mut())? {
            let combined = attach_keys(&self.ctx, &batch, &computed)?;
            run_bytes += combined.approx_size_bytes();
            match &mut run_buf {
                None => run_buf = Some(combined),
                Some(acc) => acc.append(&combined)?,
            }
            if run_bytes >= limit {
                if let Some(run) = run_buf.take() {
                    runs.push(seal_run(&self.ctx, run, &positions, &desc)?);
                }
                run_bytes = 0;
            }
        }
        if let Some(run) = run_buf.take() {
            if run.num_rows() > 0 {
                runs.push(seal_run(&self.ctx, run, &positions, &desc)?);
            }
        }

        let mut cursors = Vec::with_capacity(runs.len());
        let mut heap = BinaryHeap::with_capacity(runs.len());
        for (i, mut cursor) in runs.into_iter().enumerate() {
            cursor.advance_page()?;
            if let Some(key) = cursor.frontier_key(&positions) {
                heap.push(MergeEntry {
                    key,
                    run: i,
                    desc: Arc::clone(&desc),
                });
            }
            cursors.push(cursor);
        }
        Ok(Merge {
            output_schema,
            cursors,
            heap,
            positions,
            desc,
        })
    }
}

/// Appends the computed keys as extra columns, named `__sortkey*` so they
/// can never shadow data columns downstream (they are never emitted). Each
/// is declared INT whatever its values, so every batch of a run has one
/// schema: a computed key's values may change type from batch to batch
/// (all NULL in one, DECIMAL in the next).
fn attach_keys(
    ctx: &ExecContext<'_>,
    batch: &RecordBatch,
    computed: &[Expr],
) -> Result<RecordBatch> {
    if computed.is_empty() {
        return Ok(batch.clone());
    }
    let mut defs = batch.schema().columns().to_vec();
    let mut columns = batch.columns().to_vec();
    for (i, key) in key_columns(ctx, batch, computed)?.iter().enumerate() {
        defs.push(ColumnDef::public(&format!("__sortkey{i}"), DataType::Int));
        columns.push(Column::new(DataType::Int));
        columns.last_mut().expect("pushed").extend(key);
    }
    Ok(RecordBatch::new(Schema::new(defs), columns)?)
}

/// Sorts one run (morsel-parallel) and parks it in the pager as
/// `batch_size`-row pages, behind a cursor that frees them when dropped.
fn seal_run(
    ctx: &ExecContext<'_>,
    run: RecordBatch,
    positions: &[usize],
    desc: &[bool],
) -> Result<RunCursor> {
    let keys: Vec<Column> = (positions.iter()).map(|&p| run.column(p).clone()).collect();
    let order = sorted_order(ctx, run.num_rows(), &keys, desc)?;
    let sorted = run.reorder(&order)?;
    let batch_size = ctx.config().batch_size;
    let mut cursor = RunCursor {
        pager: Arc::clone(ctx.pager()),
        pages: Vec::with_capacity(sorted.num_rows().div_ceil(batch_size).max(1)),
        next_page: 0,
        row: 0,
        current: None,
    };
    let mut offset = 0;
    while offset < sorted.num_rows() {
        let take = batch_size.min(sorted.num_rows() - offset);
        (cursor.pages).push(ctx.pager().append_page(sorted.slice(offset, take)?)?);
        offset += take;
    }
    Ok(cursor)
}

/// An overflowed sort's runs and the heap merging them.
pub(super) struct Merge {
    /// The schema of emitted batches (the input schema, keys stripped).
    output_schema: Schema,
    cursors: Vec<RunCursor>,
    heap: BinaryHeap<MergeEntry>,
    /// Each key's column in a run's pages.
    positions: Vec<usize>,
    desc: Arc<Vec<bool>>,
}

impl Merge {
    /// The next merged batch of up to `batch_size` rows, `None` once every
    /// run is drained (an overflowed input has rows).
    pub(super) fn next_batch(&mut self, batch_size: usize) -> Result<Option<RecordBatch>> {
        if self.heap.is_empty() {
            return Ok(None);
        }
        // Consecutive rows of one run's page are one run of rows, copied as
        // a whole before the run's cursor leaves the page.
        let mut columns: Vec<Column> = (self.output_schema.columns().iter())
            .map(|c| Column::new(c.data_type))
            .collect();
        let mut open: Option<(usize, Range<usize>)> = None;
        let mut rows = 0;
        while rows < batch_size {
            let Some(entry) = self.heap.pop() else {
                break;
            };
            let cursor = &self.cursors[entry.run];
            let page = cursor.current.as_ref().expect("frontier implies a page");
            match &mut open {
                Some((run, range)) if *run == entry.run && range.end == cursor.row => {
                    range.end += 1;
                }
                _ => {
                    if let Some(done) = open.replace((entry.run, cursor.row..cursor.row + 1)) {
                        self.append_run(done, &mut columns);
                    }
                }
            }
            if cursor.row + 1 == page.num_rows() {
                let done = open.take().expect("opened above");
                self.append_run(done, &mut columns);
            }
            let cursor = &mut self.cursors[entry.run];
            rows += 1;
            cursor.advance_row()?;
            if let Some(key) = cursor.frontier_key(&self.positions) {
                self.heap.push(MergeEntry {
                    key,
                    run: entry.run,
                    desc: Arc::clone(&self.desc),
                });
            }
        }
        if let Some(done) = open {
            self.append_run(done, &mut columns);
        }
        Ok(Some(RecordBatch::new(self.output_schema.clone(), columns)?))
    }

    /// Copies the rows `rows` of run `run`'s current page, its payload
    /// columns, onto `columns`.
    fn append_run(&self, (run, rows): (usize, Range<usize>), columns: &mut [Column]) {
        let page = (self.cursors[run].current.as_ref()).expect("a run's page is current");
        append_rows(columns, page, 0, rows);
    }
}

/// A cursor over one sorted run's pages. Dropping it frees the pages it
/// still holds, so an unwound or early-closed sort leaves none behind.
struct RunCursor {
    pager: Arc<Pager>,
    pages: Vec<PageId>,
    next_page: usize,
    row: usize,
    current: Option<PinnedPage>,
}

impl RunCursor {
    /// Pins the next page, freeing the exhausted one (its spill slot and
    /// frame are no longer needed once consumed).
    fn advance_page(&mut self) -> Result<()> {
        if let Some(done) = self.current.take() {
            let id = done.id();
            drop(done);
            self.pager.free_page(id)?;
        }
        self.row = 0;
        while self.next_page < self.pages.len() {
            let page = self.pager.pin(self.pages[self.next_page])?;
            self.next_page += 1;
            if page.num_rows() > 0 {
                self.current = Some(page);
                return Ok(());
            }
            let id = page.id();
            drop(page);
            self.pager.free_page(id)?;
        }
        Ok(())
    }

    /// Moves past the current frontier row.
    fn advance_row(&mut self) -> Result<()> {
        self.row += 1;
        let exhausted = self
            .current
            .as_ref()
            .is_some_and(|page| self.row >= page.num_rows());
        if exhausted {
            self.advance_page()?;
        }
        Ok(())
    }

    /// The current row's key values, or `None` when the run is exhausted.
    fn frontier_key(&self, positions: &[usize]) -> Option<Vec<Value>> {
        let page = self.current.as_ref()?;
        Some(
            (positions.iter())
                .map(|&p| page.column(p).value(self.row).into_owned())
                .collect(),
        )
    }
}

impl Drop for RunCursor {
    /// Unpins and frees every page still held.
    fn drop(&mut self) {
        if let Some(page) = self.current.take() {
            let id = page.id();
            drop(page);
            let _ = self.pager.free_page(id);
        }
        for &id in &self.pages[self.next_page..] {
            let _ = self.pager.free_page(id);
        }
    }
}

/// One run's frontier in the merge heap. The heap is a max-heap, so `Ord` is
/// reversed: popping yields the row that sorts *first*.
struct MergeEntry {
    key: Vec<Value>,
    run: usize,
    desc: Arc<Vec<bool>>,
}

impl MergeEntry {
    /// Forward sort order: key columns with their desc flags, then the run
    /// index (runs are input-order chunks, so this preserves stability).
    fn forward_cmp(&self, other: &Self) -> Ordering {
        for (i, desc) in self.desc.iter().enumerate() {
            let ord = self.key[i].cmp_total(&other.key[i]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        self.run.cmp(&other.run)
    }
}

impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.forward_cmp(self)
    }
}

impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for MergeEntry {}
