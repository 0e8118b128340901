//! Joins: hash equi-join (streaming probe side, build-side key evaluation
//! fanned out over morsels) and the nested-loop fallback for non-equi or
//! missing ON conditions.

use std::sync::Arc;

use sdb_sql::ast::{Expr, JoinKind};
use sdb_storage::{Column, PageStream, PageStreamWriter, RecordBatch, Schema, Value};

use super::expr::{evaluate_exprs, input_column};
use super::oracle::resolve_for_exprs;
use super::parallel::{effective_workers, scoped_workers};
use super::{materialize_input, BoxedOperator, ExecContext, PhysicalOperator};
use crate::kernels::keys::{keys_eq, BatchKeys, ChainIndex};
use crate::Result;

/// Hash equi-join: indexes the materialised right side by key during
/// `open()`, then streams left batches against it. Keys are columns plus a
/// hash per row (see [`crate::kernels::keys`]); a probe row's matches come
/// back as `(probe row, build row)` index pairs and the output batch is one
/// gather per column.
///
/// Output order is probe rows in arrival order, each row's matches in
/// ascending build-row order (one NULL-padded row for an unmatched LEFT JOIN
/// probe row) — at any parallelism, since only key *evaluation* fans out and
/// the index is always filled in row order.
///
/// Oracle-backed calls in the keys (e.g. `SDB_GROUP_TAG` equality surrogates)
/// are resolved inline per side *before* evaluation (oracle round trips stay
/// serial and batched); the virtual columns feed only the keys and never
/// appear in the join output.
pub struct HashJoin<'a> {
    ctx: Arc<ExecContext<'a>>,
    left: BoxedOperator<'a>,
    right: BoxedOperator<'a>,
    kind: JoinKind,
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    build: Option<BuildSide>,
}

/// A fully-built hash-join build side: the materialised right rows (original
/// columns only), their key columns and the index from key hash to rows.
/// Shared with the spilling [`super::grace_join::GraceHashJoin`], both for
/// its in-memory mode and for each leaf partition.
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
    pub(super) fn index(ctx: &ExecContext<'_>, rows: RecordBatch, keys: &[Expr]) -> Result<Self> {
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
        let build_keys: Vec<&[Value]> = self.keys.iter().map(Column::values).collect();
        let probe_keys: Vec<&[Value]> = probe.columns.iter().map(Column::values).collect();
        let mut probe_rows = Vec::with_capacity(probe.hashes.len());
        let mut build_rows = Vec::with_capacity(probe.hashes.len());
        for (lrow, &hash) in probe.hashes.iter().enumerate() {
            let before = probe_rows.len();
            if !probe.nulls[lrow] {
                for rrow in self.index.matches(hash) {
                    let build_key = build_keys.iter().map(|column| &column[rrow]);
                    if keys_eq(probe_keys.iter().map(|column| &column[lrow]), build_key) {
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
            build: None,
        }
    }
}

/// Evaluates the (resolved and bound) key expressions over a batch and hashes
/// them. A key that is a column reference is that column, shared; anything
/// else is interpreted once per row, stopping at a row's first NULL component
/// (the row already matches nothing). Interpretation fans out over contiguous
/// morsels, one evaluator per worker, concatenated in morsel order.
pub(super) fn keys_of_batch(
    ctx: &ExecContext<'_>,
    keys: &[Expr],
    working: &RecordBatch,
) -> Result<BatchKeys> {
    let rows = working.num_rows();
    let interpreted = (keys.iter()).any(|key| input_column(key, working.schema()).is_none());
    ctx.record_key_batch(interpreted);
    let keys: Vec<&Expr> = keys.iter().collect();
    let evaluate = |morsel: &RecordBatch| {
        let evaluator = ctx.evaluator();
        let evaluated = evaluate_exprs(&evaluator, &keys, morsel, true);
        ctx.record_udf_calls(&evaluator);
        let columns = evaluated?.into_iter().map(|key| key.into_column(morsel));
        Ok(columns.collect::<Vec<Column>>())
    };
    let workers = match interpreted {
        true => effective_workers(ctx.parallelism(), rows),
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
            column.extend_from_slice(more.values());
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
pub(super) fn probe_batch(
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
        self.left.open()?;
        self.right.open()?;

        // Build phase: materialise the right side and index it by key (oracle
        // calls in the keys resolve against a working copy; the output rows
        // come from the original, unaugmented columns).
        let right_rows = materialize_input(self.right.as_mut())?
            .unwrap_or_else(|| RecordBatch::empty(Schema::empty()));
        self.build = Some(BuildSide::index(&self.ctx, right_rows, &self.right_keys)?);
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        let build = self.build.as_ref().expect("join opened");
        let Some(batch) = self.left.next_batch()? else {
            return Ok(None);
        };
        probe_batch(&self.ctx, build, self.kind, &self.left_keys, batch).map(Some)
    }

    fn close(&mut self) -> Result<()> {
        self.build = None;
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
/// With an unlimited [`MemoryBudget`](sdb_storage::MemoryBudget) the right
/// side materialises in RAM as before. Under a limited budget it streams
/// into a pager [`PageStream`] instead (a *block-nested-loop*): each left
/// batch runs one non-consuming pass over the right side's pages
/// ([`PageStream::scan`]), holding one page in memory at a time, and
/// per-left-row match lists are accumulated so the emitted row order is
/// byte-identical to the in-memory loop (left-major, right rows in arrival
/// order). The pass costs IO per left batch — the classic block-nested-loop
/// trade — but the right side no longer occupies unbounded memory, closing
/// the engine's last unbounded materialisation.
pub struct NestedLoopJoin<'a> {
    ctx: Arc<ExecContext<'a>>,
    left: BoxedOperator<'a>,
    right: BoxedOperator<'a>,
    kind: JoinKind,
    on: Option<Expr>,
    right_side: Option<RightSide>,
}

/// How the right side was materialised at `open()`.
enum RightSide {
    /// Unlimited budget: the whole input in RAM.
    InMemory(RecordBatch),
    /// Limited budget: parked in the pager, scanned per left batch.
    Paged { schema: Schema, stream: PageStream },
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

    /// Evaluates the ON condition for one combined row (`None` = cross join
    /// keeps everything).
    fn keep_row<'e>(
        &'e self,
        evaluator: &crate::eval::Evaluator<'e>,
        combined_schema: &Schema,
        row: &[Value],
    ) -> Result<bool> {
        match &self.on {
            None => Ok(true),
            Some(pred) => {
                let probe = RecordBatch::from_rows(combined_schema.clone(), vec![row.to_vec()])?;
                evaluator.evaluate_predicate(pred, &probe, 0)
            }
        }
    }

    /// Streams the right input into a pager page stream (budgeted path).
    fn park_right(&mut self) -> Result<RightSide> {
        let limit = self
            .ctx
            .memory_budget()
            .limit()
            .expect("paged path requires a limited budget");
        let flush_bytes = (limit / 4).max(1);
        let mut schema = Schema::empty();
        let mut writer: Option<PageStreamWriter> = None;
        while let Some(batch) = self.right.next_batch()? {
            let writer = writer.get_or_insert_with(|| {
                schema = batch.schema().clone();
                PageStreamWriter::new(batch.schema().clone(), flush_bytes, self.ctx.batch_size())
            });
            for row in 0..batch.num_rows() {
                writer.push_row(self.ctx.pager(), batch.row(row))?;
            }
        }
        let stream = match writer {
            Some(writer) => writer.finish(self.ctx.pager())?,
            None => PageStreamWriter::new(Schema::empty(), 1, 1).finish(self.ctx.pager())?,
        };
        Ok(RightSide::Paged { schema, stream })
    }

    /// One left batch against the paged right side: a single pass over the
    /// right pages, with per-left-row buckets restoring the in-memory
    /// (left-major) output order.
    fn probe_paged(
        &self,
        batch: &RecordBatch,
        schema: &Schema,
        stream: &PageStream,
    ) -> Result<RecordBatch> {
        let combined_schema = batch.schema().join(schema);
        let right_width = schema.len();
        let evaluator = self.ctx.evaluator();

        let mut buckets: Vec<Vec<Vec<Value>>> = vec![Vec::new(); batch.num_rows()];
        let mut scan = stream.scan();
        while let Some(page) = scan.next_batch(self.ctx.pager())? {
            for (lrow, bucket) in buckets.iter_mut().enumerate() {
                for rrow in 0..page.num_rows() {
                    let mut row = batch.row(lrow);
                    row.extend(page.row(rrow));
                    if self.keep_row(&evaluator, &combined_schema, &row)? {
                        bucket.push(row);
                    }
                }
            }
        }
        self.ctx.record_udf_calls(&evaluator);

        let mut rows = Vec::new();
        for (lrow, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() && self.kind == JoinKind::Left {
                let mut row = batch.row(lrow);
                row.extend(std::iter::repeat_n(Value::Null, right_width));
                rows.push(row);
            } else {
                rows.extend(bucket);
            }
        }
        RecordBatch::from_rows(combined_schema, rows).map_err(Into::into)
    }

    /// One left batch against the in-memory right side (unlimited budget).
    fn probe_in_memory(&self, batch: &RecordBatch, right: &RecordBatch) -> Result<RecordBatch> {
        let combined_schema = batch.schema().join(right.schema());
        let right_width = right.num_columns();
        let evaluator = self.ctx.evaluator();

        let mut rows = Vec::new();
        for lrow in 0..batch.num_rows() {
            let mut matched = false;
            for rrow in 0..right.num_rows() {
                let mut row = batch.row(lrow);
                row.extend(right.row(rrow));
                if self.keep_row(&evaluator, &combined_schema, &row)? {
                    rows.push(row);
                    matched = true;
                }
            }
            if !matched && self.kind == JoinKind::Left {
                let mut row = batch.row(lrow);
                row.extend(std::iter::repeat_n(Value::Null, right_width));
                rows.push(row);
            }
        }
        self.ctx.record_udf_calls(&evaluator);
        RecordBatch::from_rows(combined_schema, rows).map_err(Into::into)
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
        self.right_side = Some(if self.ctx.memory_budget().is_limited() {
            self.park_right()?
        } else {
            let right = materialize_input(self.right.as_mut())?
                .unwrap_or_else(|| RecordBatch::empty(Schema::empty()));
            RightSide::InMemory(right)
        });
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        let Some(batch) = self.left.next_batch()? else {
            return Ok(None);
        };
        match self.right_side.as_ref().expect("join opened") {
            RightSide::InMemory(right) => self.probe_in_memory(&batch, right).map(Some),
            RightSide::Paged { schema, stream } => {
                self.probe_paged(&batch, schema, stream).map(Some)
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        if let Some(RightSide::Paged { stream, .. }) = self.right_side.take() {
            stream.free(self.ctx.pager())?;
        }
        self.right_side = None;
        self.left.close()?;
        self.right.close()
    }
}
