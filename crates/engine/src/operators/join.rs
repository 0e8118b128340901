//! Joins: hash equi-join (with streaming probe side and a morsel-parallel
//! build side) and the nested-loop fallback for non-equi or missing ON
//! conditions.

use std::collections::HashMap;
use std::sync::Arc;

use sdb_sql::ast::{Expr, JoinKind};
use sdb_storage::{partition_ranges, PageStream, PageStreamWriter, RecordBatch, Schema, Value};

use super::expr::join_key_component;
use super::oracle::resolve_for_exprs;
use super::parallel::{effective_workers, scoped_workers};
use super::{materialize_input, BoxedOperator, ExecContext, PhysicalOperator};
use crate::kernels::KeyColumns;
use crate::Result;

/// Hash equi-join: builds a hash table over the materialised right side during
/// `open()`, then streams left batches, probing per row.
///
/// When `ctx.parallelism() > 1` the build side is indexed in parallel: the
/// materialised (and oracle-resolved) right rows are split into contiguous
/// per-worker morsels via [`partition_ranges`], each worker builds a partial
/// key index over its morsel, and the partials are merged in morsel order —
/// so every key's match list stays in ascending row order and the join output
/// is byte-identical to the serial build.
///
/// Oracle-backed calls in the keys (e.g. `SDB_GROUP_TAG` equality surrogates)
/// are resolved inline per side *before* partitioning (oracle round trips stay
/// serial and batched); the virtual columns feed only the key evaluation and
/// never appear in the join output.
pub struct HashJoin<'a> {
    ctx: Arc<ExecContext<'a>>,
    left: BoxedOperator<'a>,
    right: BoxedOperator<'a>,
    kind: JoinKind,
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    /// Build state: right rows (original columns only) and the key index.
    build: Option<BuildSide>,
}

/// A fully-built hash-join build side: the materialised right rows (original
/// columns only) plus the key index. Shared with the spilling
/// [`super::grace_join::GraceHashJoin`], whose in-memory mode is exactly this
/// operator's build/probe path.
pub(super) struct BuildSide {
    pub(super) right_schema: Schema,
    pub(super) right_rows: RecordBatch,
    pub(super) index: HashMap<String, Vec<usize>>,
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

/// Evaluates the (resolved and bound) key expressions for one row; `None`
/// when any component is NULL (NULL join keys never match).
pub(super) fn key_of(
    ctx: &ExecContext<'_>,
    exprs: &[Expr],
    batch: &RecordBatch,
    row: usize,
) -> Result<Option<String>> {
    let evaluator = ctx.evaluator();
    let mut parts = Vec::with_capacity(exprs.len());
    for e in exprs {
        let v = evaluator.evaluate(e, batch, row)?;
        if v.is_null() {
            ctx.record_udf_calls(&evaluator);
            return Ok(None);
        }
        parts.push(join_key_component(&v));
    }
    ctx.record_udf_calls(&evaluator);
    Ok(Some(parts.join("\u{1f}")))
}

/// Kernel fast path for key rendering: when vectorised execution is on and
/// every key expression is a plain column reference over typed columns, the
/// whole batch's keys render through [`KeyColumns`] with no per-row
/// interpretation. Plain column keys never touch UDFs or the oracle, so the
/// fast path changes no observable. `None` → scalar path.
fn kernel_join_keys(
    ctx: &ExecContext<'_>,
    keys: &[Expr],
    working: &RecordBatch,
) -> Option<Vec<Option<String>>> {
    if !ctx.vectorised() {
        return None;
    }
    KeyColumns::compile(keys, working.schema())?.join_keys(working)
}

/// Evaluates the rendered join key for every row of a batch. With more than
/// one worker each contiguous morsel evaluates on its own scoped thread and
/// the per-morsel results are concatenated in morsel order, so the output
/// vector is in row order regardless of parallelism.
pub(super) fn keys_of_batch(
    ctx: &ExecContext<'_>,
    keys: &[Expr],
    working: &RecordBatch,
) -> Result<Vec<Option<String>>> {
    if let Some(rendered) = kernel_join_keys(ctx, keys, working) {
        ctx.stats_mut().vectorised_batches += 1;
        return Ok(rendered);
    }
    ctx.stats_mut().scalar_fallback_batches += 1;
    let workers = effective_workers(ctx.parallelism(), working.num_rows());
    let ranges = partition_ranges(working.num_rows(), workers.max(1));
    let parts: Vec<Vec<Option<String>>> = scoped_workers(workers.max(1), |i| {
        let mut out = Vec::new();
        if let Some(range) = ranges.get(i) {
            out.reserve(range.len());
            for row in range.clone() {
                out.push(key_of(ctx, keys, working, row)?);
            }
        }
        Ok(out)
    })?;
    Ok(parts.into_iter().flatten().collect())
}

/// Indexes the build side by key. With more than one worker, each worker
/// indexes one contiguous morsel of rows (global row numbers) and the
/// partial indexes are merged in morsel order.
pub(super) fn build_index(
    ctx: &ExecContext<'_>,
    keys: &[Expr],
    working: &RecordBatch,
) -> Result<HashMap<String, Vec<usize>>> {
    // Kernel path: rendered keys come from one vectorised pass; the serial
    // index insertion visits rows in ascending order, exactly the order the
    // morsel-merge below reconstructs.
    if let Some(rendered) = kernel_join_keys(ctx, keys, working) {
        ctx.stats_mut().vectorised_batches += 1;
        let mut index: HashMap<String, Vec<usize>> = HashMap::new();
        for (row, key) in rendered.into_iter().enumerate() {
            if let Some(key) = key {
                index.entry(key).or_default().push(row);
            }
        }
        return Ok(index);
    }
    ctx.stats_mut().scalar_fallback_batches += 1;
    let workers = effective_workers(ctx.parallelism(), working.num_rows());
    let ranges = partition_ranges(working.num_rows(), workers.max(1));
    let partials: Vec<HashMap<String, Vec<usize>>> = scoped_workers(workers, |i| {
        let mut index: HashMap<String, Vec<usize>> = HashMap::new();
        if let Some(range) = ranges.get(i) {
            for row in range.clone() {
                if let Some(key) = key_of(ctx, keys, working, row)? {
                    index.entry(key).or_default().push(row);
                }
            }
        }
        Ok(index)
    })?;
    let mut merged: HashMap<String, Vec<usize>> = HashMap::new();
    // Morsel order: each key's row list stays in ascending global order.
    for partial in partials {
        if merged.is_empty() {
            merged = partial;
            continue;
        }
        for (key, rows) in partial {
            merged.entry(key).or_default().extend(rows);
        }
    }
    Ok(merged)
}

/// Probes one left batch against a built right side, producing the joined
/// output batch (LEFT JOIN rows null-pad when unmatched). Resolves
/// oracle-backed calls in `left_keys` against a working copy of the batch;
/// output rows come from the original columns.
pub(super) fn probe_batch(
    ctx: &ExecContext<'_>,
    build: &BuildSide,
    kind: JoinKind,
    left_keys: &[Expr],
    batch: RecordBatch,
) -> Result<RecordBatch> {
    let combined_schema = batch.schema().join(&build.right_schema);
    let right_width = build.right_schema.len();

    let mut keys = left_keys.to_vec();
    let working = resolve_for_exprs(ctx, batch.clone(), &mut keys)?;
    let rendered = kernel_join_keys(ctx, &keys, &working);
    match &rendered {
        Some(_) => ctx.stats_mut().vectorised_batches += 1,
        None => ctx.stats_mut().scalar_fallback_batches += 1,
    }

    let mut rows = Vec::new();
    for lrow in 0..working.num_rows() {
        let mut matched = false;
        let key = match &rendered {
            Some(rendered) => rendered[lrow].clone(),
            None => key_of(ctx, &keys, &working, lrow)?,
        };
        if let Some(key) = key {
            if let Some(matches) = build.index.get(&key) {
                for &rrow in matches {
                    let mut row = batch.row(lrow);
                    row.extend(build.right_rows.row(rrow));
                    rows.push(row);
                    matched = true;
                }
            }
        }
        if !matched && kind == JoinKind::Left {
            let mut row = batch.row(lrow);
            row.extend(std::iter::repeat_n(Value::Null, right_width));
            rows.push(row);
        }
    }
    RecordBatch::from_rows(combined_schema, rows).map_err(Into::into)
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

        // Build phase: materialise the right side and index it by key.
        let right_rows = materialize_input(self.right.as_mut())?
            .unwrap_or_else(|| RecordBatch::empty(Schema::empty()));
        let right_schema = right_rows.schema().clone();

        // Resolve oracle calls in the right keys against a working copy; the
        // output rows come from the original (unaugmented) columns.
        let mut right_keys = self.right_keys.clone();
        let working = resolve_for_exprs(&self.ctx, right_rows.clone(), &mut right_keys)?;
        let index = build_index(&self.ctx, &right_keys, &working)?;
        self.build = Some(BuildSide {
            right_schema,
            right_rows,
            index,
        });
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
