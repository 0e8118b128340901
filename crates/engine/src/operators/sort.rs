//! The order-shaping operators: sort, limit and distinct.

use std::cmp::Ordering;
use std::sync::Arc;

use sdb_sql::ast::Expr;
use sdb_sql::plan::SortKey;
use sdb_storage::{partition_ranges, Column, ColumnCells, RecordBatch, Schema};

use super::expr::{bind_to_existing_columns, evaluate_exprs};
use super::external_sort::Merge;
use super::parallel::{effective_workers, scoped_workers};
use super::{hold_input, BoxedOperator, ExecContext, Held, PhysicalOperator};
use crate::Result;
use sdb_storage::keys::{BatchKeys, KeySet};

/// Sorts its input by the given keys (stable, NULLs ordered by the storage
/// layer's total order).
///
/// The input is held in memory while it fits the memory budget and then
/// sorted as one run — morsel-parallel, see `sorted_order` — and emitted
/// as one batch. Once it overflows, the held batches and the rest of the
/// input become sorted runs in the pager, merged on drain
/// ([`super::external_sort`]); the output is byte-identical.
///
/// Oracle-backed sort keys (e.g. `SDB_RANK` surrogates) are materialised by an
/// [`super::oracle::OracleResolve`] child inserted by the planner.
pub struct Sort<'a> {
    pub(super) ctx: Arc<ExecContext<'a>>,
    pub(super) input: BoxedOperator<'a>,
    pub(super) keys: Vec<SortKey>,
    state: Option<State>,
}

/// What is left to emit once the input has been read.
enum State {
    /// The in-memory sort emitted everything.
    Done,
    /// The input overflowed: its sorted runs drain through a merge.
    Merge(Merge),
}

impl<'a> Sort<'a> {
    /// Creates a sort over `input`.
    pub fn new(ctx: Arc<ExecContext<'a>>, input: BoxedOperator<'a>, keys: Vec<SortKey>) -> Self {
        Sort {
            ctx,
            input,
            keys,
            state: None,
        }
    }

    /// The sort keys bound to the input schema.
    pub(super) fn bind_keys(&self, schema: &Schema) -> Vec<Expr> {
        (self.keys.iter())
            .map(|k| bind_to_existing_columns(&k.expr, schema))
            .collect()
    }

    /// Each key's descending flag.
    pub(super) fn desc(&self) -> Arc<Vec<bool>> {
        Arc::new(self.keys.iter().map(|k| k.desc).collect())
    }
}

impl PhysicalOperator for Sort<'_> {
    fn name(&self) -> &'static str {
        "Sort"
    }

    fn describe(&self) -> String {
        format!("{}({})", self.name(), self.input.describe())
    }

    fn open(&mut self) -> Result<()> {
        self.state = None;
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        let batch_size = self.ctx.config().batch_size;
        match &mut self.state {
            Some(State::Done) => return Ok(None),
            Some(State::Merge(merge)) => return merge.next_batch(batch_size),
            None => {}
        }
        let batch = match hold_input(&self.ctx, self.input.as_mut())? {
            Held::Fit(batch) => batch,
            Held::Overflow(held) => {
                let mut merge = self.spill(held)?;
                let first = merge.next_batch(batch_size);
                self.state = Some(State::Merge(merge));
                return first;
            }
        };
        self.state = Some(State::Done);
        let keys = key_columns(&self.ctx, &batch, &self.bind_keys(batch.schema()))?;
        let order = sorted_order(&self.ctx, batch.num_rows(), &keys, &self.desc())?;
        batch.reorder(&order).map(Some).map_err(Into::into)
    }

    fn close(&mut self) -> Result<()> {
        // Dropping a merge's run cursors frees their pages.
        self.state = None;
        self.input.close()
    }
}

/// Evaluates the bound sort keys over `batch`, one column each, through the
/// seam's value entry: a key that is a column reference is that column,
/// shared.
pub(super) fn key_columns(
    ctx: &ExecContext<'_>,
    batch: &RecordBatch,
    bound: &[Expr],
) -> Result<Vec<Column>> {
    let exprs: Vec<&Expr> = bound.iter().collect();
    let columns = evaluate_exprs(ctx, None, &exprs, batch, false)?;
    Ok(columns
        .into_iter()
        .map(|key| key.into_column(batch))
        .collect())
}

/// Compares two rows by their key values (with desc flags), then by
/// position — a total order whose sort equals a stable sort by keys alone.
fn compare_rows(keys: &[ColumnCells<'_>], desc: &[bool], a: usize, b: usize) -> Ordering {
    for (key, d) in keys.iter().zip(desc) {
        let ord = key.cmp_total(a, b);
        let ord = if *d { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.cmp(&b)
}

/// The serial sort order of `rows`, given every row's key cells: ascending
/// by [`ColumnCells::cmp_total`] per key (reversed where `desc`), ties by
/// position. The one comparator of the engine's sorts and the DO's
/// post-`ORDER BY`.
pub fn serial_order(
    keys: &[ColumnCells<'_>],
    desc: &[bool],
    rows: impl Iterator<Item = usize>,
) -> Vec<usize> {
    let mut order: Vec<usize> = rows.collect();
    order.sort_unstable_by(|&a, &b| compare_rows(keys, desc, a, b));
    order
}

/// The sorted order of `rows` rows given their key columns. With more
/// than one worker, per-worker morsels sort on scoped threads and merge
/// afterwards — a parallel merge sort whose result is identical to the
/// serial sort because the comparator carries the position tie-break.
pub(super) fn sorted_order(
    ctx: &ExecContext<'_>,
    rows: usize,
    keys: &[Column],
    desc: &[bool],
) -> Result<Vec<usize>> {
    let keys: Vec<ColumnCells<'_>> = keys.iter().map(Column::cells).collect();
    let keys = &keys[..];
    let workers = effective_workers(ctx.config().parallelism, rows);
    if workers <= 1 {
        return Ok(serial_order(keys, desc, 0..rows));
    }
    let ranges = partition_ranges(rows, workers);
    let parts: Vec<Vec<usize>> = scoped_workers(ranges.len(), |i| {
        Ok(serial_order(keys, desc, ranges[i].clone()))
    })?;
    // Merge the sorted morsels (frontier scan: worker counts are small).
    let mut heads = vec![0usize; parts.len()];
    let mut order = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut best: Option<(usize, usize)> = None; // (part, row index)
        for (p, part) in parts.iter().enumerate() {
            let Some(&candidate) = part.get(heads[p]) else {
                continue;
            };
            best = match best {
                None => Some((p, candidate)),
                Some((_, current))
                    if compare_rows(keys, desc, candidate, current) == Ordering::Less =>
                {
                    Some((p, candidate))
                }
                keep => keep,
            };
        }
        let (p, row) = best.expect("total counts match");
        heads[p] += 1;
        order.push(row);
    }
    Ok(order)
}

/// Truncates the stream after `n` rows (streaming: stops pulling from its
/// child once satisfied).
pub struct Limit<'a> {
    input: BoxedOperator<'a>,
    n: usize,
    remaining: usize,
    emitted: bool,
}

impl<'a> Limit<'a> {
    /// Creates a limit of `n` rows over `input`.
    pub fn new(input: BoxedOperator<'a>, n: usize) -> Self {
        Limit {
            input,
            n,
            remaining: n,
            emitted: false,
        }
    }
}

impl PhysicalOperator for Limit<'_> {
    fn name(&self) -> &'static str {
        "Limit"
    }

    fn describe(&self) -> String {
        format!("{}({})", self.name(), self.input.describe())
    }

    fn open(&mut self) -> Result<()> {
        self.remaining = self.n;
        self.emitted = false;
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        if self.remaining == 0 && self.emitted {
            return Ok(None);
        }
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        self.emitted = true;
        let take = self.remaining.min(batch.num_rows());
        self.remaining -= take;
        if take == batch.num_rows() {
            Ok(Some(batch))
        } else {
            Ok(Some(batch.limit(take)))
        }
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}

/// Removes duplicate rows (first occurrence wins), streaming batch by batch
/// with a running set of the rows emitted so far: the whole row is the key
/// (see [`sdb_storage::keys`]; NULLs equal each other).
pub struct Distinct<'a> {
    input: BoxedOperator<'a>,
    seen: KeySet,
}

impl<'a> Distinct<'a> {
    /// Creates a distinct over `input`.
    pub fn new(input: BoxedOperator<'a>) -> Self {
        Distinct {
            input,
            seen: KeySet::default(),
        }
    }
}

impl PhysicalOperator for Distinct<'_> {
    fn name(&self) -> &'static str {
        "Distinct"
    }

    fn describe(&self) -> String {
        format!("{}({})", self.name(), self.input.describe())
    }

    fn open(&mut self) -> Result<()> {
        self.seen = KeySet::default();
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        let keys = BatchKeys::new(batch.columns().to_vec(), batch.num_rows());
        let mask = self.seen.insert_rows(&keys);
        batch.filter(&mask).map(Some).map_err(Into::into)
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}
