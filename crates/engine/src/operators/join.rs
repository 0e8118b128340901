//! Joins: hash equi-join (streaming probe side, build-side key evaluation
//! fanned out over morsels) and the nested-loop fallback for non-equi or
//! missing ON conditions. Both hold their right side in memory while it fits
//! the memory budget; the hash join's overflow path is [`super::grace_join`].

use std::sync::Arc;

use sdb_sql::ast::{Expr, JoinKind};
use sdb_storage::{Column, ColumnCells, PageStream, PageStreamWriter, RecordBatch};

use super::expr::{evaluate_exprs, input_column, select};
use super::grace_join::Spilled;
use super::oracle::resolve_for_exprs;
use super::parallel::{effective_workers, scoped_workers};
use super::{hold_input, BoxedOperator, ExecContext, Held, PhysicalOperator, Replay};
use crate::Result;
use sdb_storage::keys::{cells_key_eq, BatchKeys, ChainIndex};

/// Hash equi-join: indexes the right (build) side by key during `open()`,
/// then streams left batches against it. Keys are columns plus a hash per
/// row (see [`sdb_storage::keys`]); a probe row's matches come back as
/// `(probe row, build row)` index pairs and the output batch is one gather
/// per column.
///
/// Output order is probe rows in arrival order, each row's matches in
/// ascending build-row order (one NULL-padded row for an unmatched LEFT JOIN
/// probe row) — at any parallelism, since only key *evaluation* fans out and
/// the index is always filled in row order.
///
/// The build side is held in memory while it fits the memory budget. Once
/// it overflows, both sides are partitioned through the pager instead (the
/// Grace plan of [`super::grace_join`]), with byte-identical output.
///
/// Oracle-backed calls in the keys (e.g. `SDB_GROUP_TAG` equality surrogates)
/// are resolved inline per side *before* evaluation (oracle round trips stay
/// serial and batched); the virtual columns feed only the keys and never
/// appear in the join output.
pub struct HashJoin<'a> {
    pub(super) ctx: Arc<ExecContext<'a>>,
    pub(super) left: BoxedOperator<'a>,
    pub(super) right: BoxedOperator<'a>,
    pub(super) kind: JoinKind,
    pub(super) left_keys: Vec<Expr>,
    pub(super) right_keys: Vec<Expr>,
    state: Option<State>,
}

/// What the build phase decided.
enum State {
    /// The build side fit in the budget: the probe side streams against it.
    InMemory(BuildSide),
    /// The build side overflowed: every partition pair has been joined and
    /// the output drains through a sequence-number merge.
    Spilled(Spilled),
}

/// A fully-built hash-join build side: the materialised right rows (original
/// columns only), their key columns and the index from key hash to rows.
/// The overflow path builds one per leaf partition.
pub(super) struct BuildSide {
    pub(super) rows: RecordBatch,
    keys: Vec<Column>,
    index: ChainIndex,
}

impl BuildSide {
    /// Indexes `rows` (the build side's output columns) by `keys`, one key
    /// per row. Rows with a NULL key component are left out: they can match
    /// nothing.
    pub(super) fn new(rows: RecordBatch, keys: BatchKeys) -> BuildSide {
        BuildSide {
            rows,
            index: ChainIndex::build(keys.hashes, &keys.nulls),
            keys: keys.columns,
        }
    }

    /// Resolves and evaluates `keys` over the materialised build side and
    /// indexes it.
    fn index(ctx: &ExecContext<'_>, rows: RecordBatch, keys: &[Expr]) -> Result<Self> {
        let mut keys = keys.to_vec();
        let working = resolve_for_exprs(ctx, rows.clone(), &mut keys)?;
        let keys = keys_of_batch(ctx, &keys, &working)?;
        Ok(BuildSide::new(rows, keys))
    }

    /// Matches every probe row against the index: `(probe row, build row)`
    /// pairs, probe rows in order and each one's matches ascending by build
    /// row; with `pad_unmatched` a probe row without a match appears once,
    /// with no build row. A candidate the index hands back is a match only
    /// once every key component compares equal.
    pub(super) fn matches(
        &self,
        probe: &BatchKeys,
        pad_unmatched: bool,
    ) -> (Vec<usize>, Vec<Option<usize>>) {
        let build_keys: Vec<ColumnCells<'_>> = self.keys.iter().map(Column::cells).collect();
        let probe_keys: Vec<ColumnCells<'_>> = probe.columns.iter().map(Column::cells).collect();
        let mut probe_rows = Vec::with_capacity(probe.hashes.len());
        let mut build_rows = Vec::with_capacity(probe.hashes.len());
        for (lrow, &hash) in probe.hashes.iter().enumerate() {
            let before = probe_rows.len();
            if !probe.nulls[lrow] {
                for rrow in self.index.matches(hash) {
                    let same = |(probe, build): (&ColumnCells<'_>, &ColumnCells<'_>)| {
                        cells_key_eq(*probe, lrow, *build, rrow)
                    };
                    if probe_keys.iter().zip(&build_keys).all(same) {
                        probe_rows.push(lrow);
                        build_rows.push(Some(rrow));
                    }
                }
            }
            if pad_unmatched && probe_rows.len() == before {
                probe_rows.push(lrow);
                build_rows.push(None);
            }
        }
        (probe_rows, build_rows)
    }
}

impl<'a> HashJoin<'a> {
    /// Creates a hash join on the given oriented key pairs.
    pub fn new(
        ctx: Arc<ExecContext<'a>>,
        left: BoxedOperator<'a>,
        right: BoxedOperator<'a>,
        kind: JoinKind,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
    ) -> Self {
        assert!(
            !left_keys.is_empty(),
            "hash join requires at least one key pair"
        );
        HashJoin {
            ctx,
            left,
            right,
            kind,
            left_keys,
            right_keys,
            state: None,
        }
    }
}

/// Evaluates the (resolved and bound) key expressions over a batch and hashes
/// them. A key that is a column reference is that column, shared; anything
/// else is interpreted once per row, stopping at a row's first NULL component
/// (the row already matches nothing). Interpretation fans out over contiguous
/// morsels, one seam call per worker, concatenated in morsel order.
pub(super) fn keys_of_batch(
    ctx: &ExecContext<'_>,
    keys: &[Expr],
    working: &RecordBatch,
) -> Result<BatchKeys> {
    let rows = working.num_rows();
    let interpreted = (keys.iter()).any(|key| input_column(key, working.schema()).is_none());
    let keys: Vec<&Expr> = keys.iter().collect();
    let evaluate = |morsel: &RecordBatch| {
        let columns = evaluate_exprs(ctx, None, &keys, morsel, true)?.into_iter();
        Ok(columns
            .map(|key| key.into_column(morsel))
            .collect::<Vec<Column>>())
    };
    let workers = match interpreted {
        true => effective_workers(ctx.config().parallelism, rows),
        false => 1,
    };
    if workers <= 1 {
        return Ok(BatchKeys::new(evaluate(working)?, rows));
    }
    let morsels = working.partition(workers);
    let mut parts = scoped_workers(morsels.len(), |i| evaluate(&morsels[i]))?.into_iter();
    let mut columns = parts.next().expect("one part per morsel");
    for part in parts {
        for (column, more) in columns.iter_mut().zip(part) {
            column.extend(&more);
        }
    }
    Ok(BatchKeys::new(columns, rows))
}

/// Probes one left batch against a built right side, producing the joined
/// output batch (LEFT JOIN rows null-pad when unmatched). Resolves
/// oracle-backed calls in `left_keys` against a working copy of the batch;
/// the output gathers the original columns. When every probe row matched
/// exactly once (a foreign key against its primary key) the probe columns
/// are shared with the input, not copied.
fn probe_batch(
    ctx: &ExecContext<'_>,
    build: &BuildSide,
    kind: JoinKind,
    left_keys: &[Expr],
    batch: RecordBatch,
) -> Result<RecordBatch> {
    let mut keys = left_keys.to_vec();
    let working = resolve_for_exprs(ctx, batch.clone(), &mut keys)?;
    let probe = keys_of_batch(ctx, &keys, &working)?;
    let (probe_rows, build_rows) = build.matches(&probe, kind == JoinKind::Left);

    let identity = probe_rows.len() == batch.num_rows()
        && probe_rows.iter().enumerate().all(|(i, &row)| i == row);
    let mut columns = Vec::with_capacity(batch.num_columns() + build.rows.num_columns());
    columns.extend(batch.columns().iter().map(|column| match identity {
        true => column.clone(),
        false => column.gather(&probe_rows),
    }));
    let build_columns = build.rows.columns().iter();
    columns.extend(build_columns.map(|column| column.gather_or_null(&build_rows)));
    RecordBatch::new(batch.schema().join(build.rows.schema()), columns).map_err(Into::into)
}

impl PhysicalOperator for HashJoin<'_> {
    fn name(&self) -> &'static str {
        "HashJoin"
    }

    fn describe(&self) -> String {
        format!(
            "{}({}, {})",
            self.name(),
            self.left.describe(),
            self.right.describe()
        )
    }

    fn open(&mut self) -> Result<()> {
        self.state = None;
        self.left.open()?;
        self.right.open()?;

        // Build phase: hold the right side and index it by key (oracle
        // calls in the keys resolve against a working copy; the output rows
        // come from the original, unaugmented columns), or partition both
        // sides once it overflows.
        self.state = Some(match hold_input(&self.ctx, self.right.as_mut())? {
            Held::Fit(rows) => {
                State::InMemory(BuildSide::index(&self.ctx, rows, &self.right_keys)?)
            }
            Held::Overflow(build) => State::Spilled(self.spill(build)?),
        });
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        match self.state.as_mut().expect("join opened") {
            State::InMemory(build) => {
                let Some(batch) = self.left.next_batch()? else {
                    return Ok(None);
                };
                probe_batch(&self.ctx, build, self.kind, &self.left_keys, batch).map(Some)
            }
            State::Spilled(spilled) => spilled.next_batch(self.ctx.config().batch_size),
        }
    }

    fn close(&mut self) -> Result<()> {
        // Dropping a spilled join's cursors frees their unread pages.
        self.state = None;
        self.left.close()?;
        self.right.close()
    }
}

/// Nested-loop join: the fallback when no hashable equality conjunct exists.
///
/// The rewriter never emits oracle calls inside non-equi ON conditions, so the
/// predicate is evaluated directly (it may still use plain UDFs and
/// subqueries).
///
/// The right side is held in memory while it fits the
/// [`MemoryBudget`](sdb_storage::MemoryBudget). Once it overflows it is
/// parked in a pager [`PageStream`] instead (a *block-nested-loop*): each
/// left batch runs one non-consuming pass over the right side's pages
/// ([`PageStream::scan`]), holding one page in memory at a time — the pass
/// costs IO per left batch, the classic block-nested-loop trade. Either way
/// a left batch is matched page by page (an in-memory right side is one
/// page) into per-left-row match lists, so the emitted row order is
/// left-major, right rows in arrival order.
pub struct NestedLoopJoin<'a> {
    ctx: Arc<ExecContext<'a>>,
    left: BoxedOperator<'a>,
    right: BoxedOperator<'a>,
    kind: JoinKind,
    on: Option<Expr>,
    right_side: Option<RightSide>,
}

/// Where the right side was held at `open()`.
enum RightSide {
    /// It fit the budget: the whole input in RAM.
    InMemory(RecordBatch),
    /// It overflowed: parked in the pager, scanned per left batch.
    Paged(PageStream),
}

impl<'a> NestedLoopJoin<'a> {
    /// Creates a nested-loop join.
    pub fn new(
        ctx: Arc<ExecContext<'a>>,
        left: BoxedOperator<'a>,
        right: BoxedOperator<'a>,
        kind: JoinKind,
        on: Option<Expr>,
    ) -> Self {
        NestedLoopJoin {
            ctx,
            left,
            right,
            kind,
            on,
            right_side: None,
        }
    }

    /// Streams the overflowed right input into a pager page stream.
    fn park_right(&mut self, mut held: Replay) -> Result<PageStream> {
        let limit =
            (self.ctx.config().memory_budget.limit()).expect("only a limited budget overflows");
        let mut writer = PageStreamWriter::new(
            self.ctx.pager(),
            held.schema().clone(),
            (limit / 4).max(1),
            self.ctx.config().batch_size,
        );
        while let Some(batch) = held.next_batch(self.right.as_mut())? {
            for row in 0..batch.num_rows() {
                writer.push_row(batch.row(row))?;
            }
        }
        Ok(writer.finish()?)
    }

    /// One left batch against the right side: a single pass over its pages.
    /// The right rows some left row keeps are gathered as the pass reaches
    /// their page, and per-left-row buckets of them restore the left-major
    /// output order; the output is one gather per column.
    fn probe(&self, batch: &RecordBatch, right: &RightSide) -> Result<RecordBatch> {
        let right_schema = match right {
            RightSide::InMemory(rows) => rows.schema(),
            RightSide::Paged(stream) => stream.schema(),
        };
        let mut kept = RecordBatch::empty(right_schema.clone());
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); batch.num_rows()];
        let mut match_page = |page: &RecordBatch| -> Result<()> {
            let mut rows = Vec::new();
            for (lrow, bucket) in buckets.iter_mut().enumerate() {
                let first = kept.num_rows() + rows.len();
                rows.extend(self.matches(batch, lrow, page)?);
                bucket.extend(first..kept.num_rows() + rows.len());
            }
            Ok(kept.append(&page.gather(&rows))?)
        };
        match right {
            RightSide::InMemory(rows) => match_page(rows)?,
            RightSide::Paged(stream) => {
                let mut scan = stream.scan();
                while let Some(page) = scan.next_batch()? {
                    match_page(&page)?;
                }
            }
        }

        let (mut left_rows, mut right_rows) = (Vec::new(), Vec::new());
        for (lrow, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() && self.kind == JoinKind::Left {
                left_rows.push(lrow);
                right_rows.push(None);
            }
            left_rows.extend(std::iter::repeat_n(lrow, bucket.len()));
            right_rows.extend(bucket.into_iter().map(Some));
        }
        let left = batch.columns().iter().map(|c| c.gather(&left_rows));
        let right = kept.columns().iter().map(|c| c.gather_or_null(&right_rows));
        let schema = batch.schema().join(right_schema);
        RecordBatch::new(schema, left.chain(right).collect()).map_err(Into::into)
    }

    /// The rows of `page` left row `lrow` keeps, in page order: all of them
    /// for a cross join, else one call of the seam's predicate entry over
    /// the left row repeated beside the page.
    fn matches(&self, batch: &RecordBatch, lrow: usize, page: &RecordBatch) -> Result<Vec<usize>> {
        let Some(on) = &self.on else {
            return Ok((0..page.num_rows()).collect());
        };
        let repeated = vec![lrow; page.num_rows()];
        let left = batch.columns().iter().map(|c| c.gather(&repeated));
        let columns = left.chain(page.columns().iter().cloned()).collect();
        let pairs = RecordBatch::new(batch.schema().join(page.schema()), columns)?;
        Ok(select(&self.ctx, on, &pairs)?.iter_set().collect())
    }
}

impl PhysicalOperator for NestedLoopJoin<'_> {
    fn name(&self) -> &'static str {
        "NestedLoopJoin"
    }

    fn describe(&self) -> String {
        format!(
            "{}({}, {})",
            self.name(),
            self.left.describe(),
            self.right.describe()
        )
    }

    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()?;
        self.right_side = Some(match hold_input(&self.ctx, self.right.as_mut())? {
            Held::Fit(rows) => RightSide::InMemory(rows),
            Held::Overflow(held) => RightSide::Paged(self.park_right(held)?),
        });
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        let Some(batch) = self.left.next_batch()? else {
            return Ok(None);
        };
        self.probe(&batch, self.right_side.as_ref().expect("join opened"))
            .map(Some)
    }

    fn close(&mut self) -> Result<()> {
        // A paged right side frees its pages as it drops.
        self.right_side = None;
        self.left.close()?;
        self.right.close()
    }
}
