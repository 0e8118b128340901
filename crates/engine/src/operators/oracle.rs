//! The SDB oracle-call operator: resolves the interactive protocol steps
//! (secure comparisons, group tags, rank surrogates) the rewriter leaves in the
//! plan as pseudo-function calls.
//!
//! Round trips to the DO proxy are the unit cost the protocol prices highest,
//! so resolution is *amortized*: instead of one round trip per registered
//! call per input batch, [`OracleResolve`] parks raw input batches in the
//! pager (spilling past the memory budget like any other parked stream, a
//! batch at a time) while buffering each call's operands. At a byte/row
//! threshold ([`ORACLE_FLUSH_BYTES`] / [`ORACLE_FLUSH_ROWS`]) or end-of-input
//! it flushes *one coalesced request per call*, then streams the parked
//! batches back out with the answers attached. A multi-predicate filter over
//! dozens of batches thus costs one trip per distinct call, not one per call
//! per batch, under any `MemoryBudget`.
//!
//! A call's operands stay columns from the gather to the proxy: the present
//! positions, the row-id ciphertexts and the shares as limbs (a
//! [`ShareColumn`] copied from the share kernels' output or the stored
//! column), which a comparison blinds a lane at a time and ships as
//! [`OracleRows`]. Every buffered row ships: answers are not remembered
//! across requests (`oracle_memo_hits` stays 0).
//!
//! For each distinct call the answers come back as a *virtual column* named by
//! the call's rendered text. Downstream expressions pick the column up through
//! [`expr::bind_to_existing_columns`], so the operators above never see the
//! call itself.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use num_bigint::BigUint;
use rand::Rng;

use sdb_crypto::EncryptedRowId;
use sdb_sql::ast::Expr;
use sdb_storage::{
    Bitmap, ColumnCells, ColumnDef, DataType, PageStreamReader, PageStreamWriter, RecordBatch,
    Schema, ShareColumn, Value,
};

use super::expr::{self, append_virtual_column, literal_string};
use super::{BoxedOperator, ExecContext, PhysicalOperator};
use crate::kernels::ShareKernels;
use crate::secure::{
    oracle_fns, parse_biguint_arg, CmpOp, OracleRequest, OracleRequestKind, OracleResponse,
    OracleRows,
};
use crate::{EngineError, Result};

/// Accumulated operand bytes (across all registered calls) that force a
/// mid-stream flush of the cross-batch accumulator. Deliberately independent
/// of the `MemoryBudget`: parked input batches spill through the pager, so a
/// tiny budget must not reintroduce per-batch round trips.
pub const ORACLE_FLUSH_BYTES: usize = 4 << 20;

/// Accumulated input rows that force a mid-stream flush of the cross-batch
/// accumulator.
pub const ORACLE_FLUSH_ROWS: usize = 1 << 20;

/// One registered oracle call, parsed once per operator (not once per batch):
/// the operand expressions, key handle, request kind and — for comparisons —
/// the comparison and the public modulus used for blinding.
struct PreparedCall {
    /// The call's rendered text: the virtual column's name.
    rendered: String,
    kind: OracleRequestKind,
    handle: String,
    /// The comparison asked of the sign and the blinding modulus
    /// (comparison calls only).
    comparison: Option<(CmpOp, BigUint)>,
    /// The share operand expression (`args[0]`).
    share_expr: Expr,
    /// The row-id operand expression (`args[1]`).
    row_id_expr: Expr,
}

impl PreparedCall {
    fn parse(call: &Expr) -> Result<PreparedCall> {
        let (name, args) = match call {
            Expr::Function { name, args, .. } => (name.to_ascii_uppercase(), args),
            _ => unreachable!("collect_oracle_calls only returns function nodes"),
        };
        let cmp = CmpOp::parse(&name);
        let expected_arity = if cmp.is_some() { 4 } else { 3 };
        if args.len() != expected_arity {
            return Err(EngineError::UdfInvocation {
                name: name.clone(),
                detail: format!("expected {expected_arity} arguments, found {}", args.len()),
            });
        }
        let handle = literal_string(&args[2]).ok_or_else(|| EngineError::UdfInvocation {
            name: name.clone(),
            detail: "third argument must be a string key handle".into(),
        })?;
        let comparison = match cmp {
            Some(cmp) => {
                let n = literal_string(&args[3]).ok_or_else(|| EngineError::UdfInvocation {
                    name: name.clone(),
                    detail: "fourth argument must be the public modulus as a string".into(),
                })?;
                Some((cmp, parse_biguint_arg(&name, &n)?))
            }
            None => None,
        };
        let kind = if comparison.is_some() {
            OracleRequestKind::Sign
        } else if name == oracle_fns::GROUP_TAG {
            OracleRequestKind::GroupTag
        } else {
            OracleRequestKind::Rank
        };
        Ok(PreparedCall {
            rendered: call.to_string(),
            kind,
            handle,
            comparison,
            share_expr: args[0].clone(),
            row_id_expr: args[1].clone(),
        })
    }

    /// The virtual column's type, known before any answer arrives (needed to
    /// emit schema-correct columns when every row was NULL).
    fn data_type(&self) -> DataType {
        match self.kind {
            OracleRequestKind::Sign => DataType::Bool,
            OracleRequestKind::GroupTag => DataType::Tag,
            OracleRequestKind::Rank => DataType::Int,
        }
    }
}

/// One call's operands accumulated so far, a column each. Shares are kept
/// **pre-blinding**; the fresh blinding factors are applied when they ship.
#[derive(Default)]
struct CallBuffer {
    /// Position of each operand row in the accumulated input (epoch-global).
    present: Vec<usize>,
    row_ids: Vec<EncryptedRowId>,
    shares: ShareColumn,
}

/// Evaluates every call's operand expressions over `batch`
/// ([`expr::evaluate_exprs`]: rows outermost, so calls over one auxiliary
/// column share that row's powers, see [`crate::udf::KeyUpdateSets`]),
/// appending the rows where neither operand is NULL to the call's buffer at
/// positions offset by `base`: a share column's limbs are gathered, a row
/// id cloned once. Returns the operand bytes added (for the flush
/// threshold).
fn gather_operands(
    ctx: &ExecContext<'_>,
    shares: &ShareKernels,
    calls: &[PreparedCall],
    batch: &RecordBatch,
    base: usize,
    buffers: &mut [CallBuffer],
) -> Result<usize> {
    let exprs: Vec<&Expr> = (calls.iter())
        .flat_map(|call| [&call.share_expr, &call.row_id_expr])
        .collect();
    let columns = expr::evaluate_exprs(ctx, Some(shares), &exprs, batch, false)?;
    let mut bytes = 0usize;
    for (operands, buffer) in columns.chunks_exact(2).zip(buffers.iter_mut()) {
        let (share_cells, row_id_cells) = (operands[0].cells(batch), operands[1].cells(batch));
        let start = buffer.row_ids.len();
        let mut kept = Vec::new();
        for row in 0..batch.num_rows() {
            if share_cells.is_null(row) || row_id_cells.is_null(row) {
                continue;
            }
            if let ColumnCells::Values(values) = share_cells {
                buffer.shares.push(values[row].as_encrypted()?);
            }
            let row_id = row_id_cells.value(row);
            buffer.row_ids.push(row_id.as_encrypted_row_id()?.clone());
            buffer.present.push(base + row);
            kept.push(row);
        }
        if let ColumnCells::Shares(column) = share_cells {
            buffer.shares.extend(&column.gather(&kept));
        }
        bytes += (buffer.row_ids[start..].iter())
            .map(EncryptedRowId::size_bytes)
            .sum::<usize>();
        bytes += (start..buffer.row_ids.len())
            .map(|row| buffer.shares.byte_len(row))
            .sum::<usize>();
    }
    Ok(bytes)
}

/// Resolves one call's buffered operands into a full-length value column
/// (NULL where the operands were NULL) in a single round trip; zero buffered
/// rows cost zero trips. A comparison's shares are blinded first.
fn resolve_call(
    ctx: &ExecContext<'_>,
    call: &PreparedCall,
    total_rows: usize,
    buffer: CallBuffer,
    coalesced: bool,
) -> Result<Vec<Value>> {
    let CallBuffer {
        present,
        row_ids,
        shares,
    } = buffer;
    if coalesced {
        ctx.stats_mut().oracle_rows_coalesced += present.len();
    }
    let mut values = vec![Value::Null; total_rows];
    if present.is_empty() {
        return Ok(values); // nothing to ship: no round trip at all
    }

    // A cancelled query must not start another round trip (the flush path
    // resolves one call per iteration, so this bounds post-cancel work to
    // the request already in flight).
    ctx.check_cancelled()?;

    let oracle = ctx
        .oracle()
        .cloned()
        .ok_or_else(|| EngineError::OracleUnavailable {
            operation: call.rendered.clone(),
        })?;

    // Blind comparison shares with a fresh positive factor per shipped row so
    // the DO proxy (and anything watching the channel) learns only signs.
    // Factors are drawn first, in row order, then the whole share column is
    // blinded a lane at a time.
    let shares = match &call.comparison {
        Some((_, n)) => {
            let factors: Vec<u64> = {
                let mut rng = ctx.rng_mut();
                (0..present.len())
                    .map(|_| rng.gen_range(1..(1u64 << 30)))
                    .collect()
            };
            let limbs = sdb_crypto::batch::blind_limbs(n, shares.width(), shares.words(), &factors);
            let width = n.iter_u64_digits().len();
            ShareColumn::from_parts(width, limbs, Bitmap::new_set(factors.len()))
        }
        None => shares,
    };
    let request = OracleRequest {
        kind: call.kind,
        handle: call.handle.clone(),
        rows: OracleRows::new(row_ids, shares),
    };
    let trip_bytes = request.approx_size_bytes();
    let trip_rows = request.rows.len();
    {
        let mut stats = ctx.stats_mut();
        stats.oracle_round_trips += 1;
        stats.oracle_rows_shipped += trip_rows;
        stats.oracle_bytes_shipped += trip_bytes;
    }
    if let Some(trace) = ctx.trace() {
        trace.event("oracle_trip_start", trip_bytes, trip_rows);
    }
    let start = Instant::now();
    let response = oracle
        .resolve(request)
        .map_err(|e| EngineError::OracleProtocol { detail: e })?;
    ctx.stats_mut().oracle_time += start.elapsed();
    if let Some(trace) = ctx.trace() {
        trace.event("oracle_trip_end", trip_bytes, trip_rows);
    }

    if response.len() != present.len() {
        return Err(EngineError::OracleProtocol {
            detail: format!(
                "oracle returned {} answers for {} rows",
                response.len(),
                present.len()
            ),
        });
    }

    // Scatter the answers.
    match response {
        OracleResponse::Signs(signs) => {
            let Some((cmp, _)) = call.comparison else {
                return Err(EngineError::OracleProtocol {
                    detail: format!("signs answered a {} request", call.kind),
                });
            };
            for (pos, sign) in present.into_iter().zip(signs) {
                values[pos] = Value::Bool(cmp.holds(sign));
            }
        }
        OracleResponse::Tags(tags) => {
            for (pos, tag) in present.into_iter().zip(tags) {
                values[pos] = Value::Tag(tag);
            }
        }
        OracleResponse::Ranks(ranks) => {
            for (pos, rank) in present.into_iter().zip(ranks) {
                values[pos] = Value::Int(rank as i64);
            }
        }
    }
    Ok(values)
}

/// The cross-batch accumulator: parks raw input batches in a pager stream
/// (spilling past the memory budget) while buffering each registered call's
/// prepared operand rows, so one coalesced request per call can resolve an
/// entire run of batches. Also reused by the Grace hash join to resolve
/// key calls once per side instead of once per spilled chunk.
pub(crate) struct OracleAccumulator {
    input_schema: Schema,
    writer: PageStreamWriter,
    total_rows: usize,
    active: Vec<PreparedCall>,
    shares: Arc<ShareKernels>,
    buffers: Vec<CallBuffer>,
    operand_bytes: usize,
}

impl OracleAccumulator {
    /// Prepares the calls not already materialised as columns of `schema`.
    /// `shares` is the share arithmetic planned from `calls` by the operator
    /// that owns them (empty: the interpreter and the functions serve it).
    pub(crate) fn new(
        ctx: &ExecContext<'_>,
        calls: &[Expr],
        shares: Arc<ShareKernels>,
        schema: &Schema,
    ) -> Result<OracleAccumulator> {
        let mut active = Vec::new();
        for call in calls {
            if schema.index_of(&call.to_string()).is_ok() {
                continue; // already materialised by an operator below
            }
            active.push(PreparedCall::parse(call)?);
        }
        if !active.is_empty() && ctx.oracle().is_none() {
            return Err(EngineError::OracleUnavailable {
                operation: active[0].rendered.clone(),
            });
        }
        let flush_bytes = (ctx.config().memory_budget.limit())
            .map(|limit| (limit / 4).max(1))
            .unwrap_or(1 << 20);
        let buffers = active.iter().map(|_| CallBuffer::default()).collect();
        Ok(OracleAccumulator {
            shares,
            input_schema: schema.clone(),
            writer: PageStreamWriter::new(
                ctx.pager(),
                schema.clone(),
                flush_bytes,
                ctx.config().batch_size,
            ),
            total_rows: 0,
            active,
            buffers,
            operand_bytes: 0,
        })
    }

    /// True when there is nothing to resolve (no registered call, or all of
    /// them already materialised below) — callers should stream the input
    /// through instead of parking it.
    pub(crate) fn is_passthrough(&self) -> bool {
        self.active.is_empty()
    }

    /// Parks one input batch and buffers its operand rows.
    pub(crate) fn push(&mut self, ctx: &ExecContext<'_>, batch: &RecordBatch) -> Result<()> {
        self.operand_bytes += gather_operands(
            ctx,
            &self.shares,
            &self.active,
            batch,
            self.total_rows,
            &mut self.buffers,
        )?;
        self.writer.push_batch(batch)?;
        self.total_rows += batch.num_rows();
        Ok(())
    }

    /// Whether accumulated operands crossed the flush threshold.
    pub(crate) fn over_threshold(&self) -> bool {
        self.operand_bytes >= ORACLE_FLUSH_BYTES || self.total_rows >= ORACLE_FLUSH_ROWS
    }

    /// Resolves every buffered call — one coalesced round trip per call with
    /// rows — and returns the epoch ready to stream the parked batches back
    /// out with their virtual columns attached.
    pub(crate) fn flush(self, ctx: &ExecContext<'_>) -> Result<Epoch> {
        let OracleAccumulator {
            input_schema,
            writer,
            total_rows,
            active,
            buffers,
            ..
        } = self;
        let stream = writer.finish()?;
        let mut answers = Vec::with_capacity(active.len());
        for (call, buffer) in active.iter().zip(buffers) {
            answers.push(resolve_call(ctx, call, total_rows, buffer, true)?);
        }
        let columns = active
            .iter()
            .map(|call| ColumnDef::public(&call.rendered, call.data_type()))
            .collect();
        Ok(Epoch {
            reader: stream.reader(),
            input_schema,
            columns,
            answers,
            offset: 0,
            emitted: false,
        })
    }
}

/// One resolved run of parked batches: streams pages back out of the pager
/// (freeing them as it goes) with each call's answer slice attached as a
/// virtual column.
pub(crate) struct Epoch {
    reader: PageStreamReader,
    input_schema: Schema,
    columns: Vec<ColumnDef>,
    /// Epoch-length answer columns, parallel to `columns`.
    answers: Vec<Vec<Value>>,
    offset: usize,
    emitted: bool,
}

impl Epoch {
    /// The next parked batch with its virtual columns attached; emits one
    /// empty schema-carrying batch if the whole epoch held zero rows (so an
    /// empty input still yields the resolved schema downstream).
    pub(crate) fn next_resolved(&mut self) -> Result<Option<RecordBatch>> {
        match self.reader.next_batch()? {
            Some(page) => {
                let mut batch = (*page).clone();
                let rows = batch.num_rows();
                for (def, answers) in self.columns.iter().zip(&self.answers) {
                    let values = answers[self.offset..self.offset + rows].to_vec();
                    batch = append_virtual_column(&batch, def.clone(), values)?;
                }
                self.offset += rows;
                self.emitted = true;
                Ok(Some(batch))
            }
            None if !self.emitted => {
                self.emitted = true;
                let mut batch = RecordBatch::empty(self.input_schema.clone());
                for def in &self.columns {
                    batch = append_virtual_column(&batch, def.clone(), Vec::new())?;
                }
                Ok(Some(batch))
            }
            None => Ok(None),
        }
    }
}

/// Physical operator materialising oracle-backed calls as virtual columns.
///
/// Input batches are parked in the pager while operand rows accumulate, and
/// each registered call resolves in one coalesced round trip per
/// [`ORACLE_FLUSH_BYTES`]/[`ORACLE_FLUSH_ROWS`] window — for typical inputs,
/// one trip per distinct call total. An input that already carries every
/// call as a column streams through.
///
/// Rank surrogates are only comparable *within one request* (the proxy
/// reserves a fresh rank block per request), so when any registered call is a
/// rank call this operator turns blocking and resolves the whole input in a
/// single round trip — exactly the guarantee ORDER BY and MIN/MAX over
/// sensitive columns need. A zero-row input short-circuits without any trip.
pub struct OracleResolve<'a> {
    ctx: Arc<ExecContext<'a>>,
    input: BoxedOperator<'a>,
    calls: Vec<Expr>,
    /// The share arithmetic of the calls' operands: calls over one auxiliary
    /// column share its powers, whichever call gathers a batch first.
    shares: Arc<ShareKernels>,
    /// True when any call demands whole-input resolution (rank surrogates).
    blocking: bool,
    /// Runtime mode: every call was found already materialised below, so
    /// input batches pass through.
    streaming: bool,
    done: bool,
    epoch: Option<Epoch>,
}

impl<'a> OracleResolve<'a> {
    /// Creates the operator for the given (deduplicated) oracle calls.
    pub fn new(ctx: Arc<ExecContext<'a>>, input: BoxedOperator<'a>, calls: Vec<Expr>) -> Self {
        let blocking = calls.iter().any(|call| match call {
            Expr::Function { name, .. } => name.eq_ignore_ascii_case(oracle_fns::RANK),
            _ => false,
        });
        OracleResolve {
            shares: ctx.share_kernels(&calls),
            ctx,
            input,
            calls,
            blocking,
            streaming: false,
            done: false,
            epoch: None,
        }
    }

    /// Accumulates the next run of input batches (all of them when blocking)
    /// and resolves it. `Ok(None)` means the input is exhausted; a
    /// pass-through input flips the operator to streaming and returns the
    /// already-pulled batch.
    fn next_epoch(&mut self) -> Result<Option<RecordBatch>> {
        let Some(first) = self.input.next_batch()? else {
            self.done = true;
            return Ok(None);
        };
        let mut acc = OracleAccumulator::new(
            &self.ctx,
            &self.calls,
            Arc::clone(&self.shares),
            first.schema(),
        )?;
        if acc.is_passthrough() {
            // Every call is already a column of the input (or none were
            // registered): nothing to coalesce, stream the input through.
            self.streaming = true;
            return Ok(Some(first));
        }
        acc.push(&self.ctx, &first)?;
        while self.blocking || !acc.over_threshold() {
            match self.input.next_batch()? {
                Some(batch) => acc.push(&self.ctx, &batch)?,
                None => {
                    self.done = true;
                    break;
                }
            }
        }
        self.epoch = Some(acc.flush(&self.ctx)?);
        self.next_resolved()
    }

    fn next_resolved(&mut self) -> Result<Option<RecordBatch>> {
        if let Some(epoch) = &mut self.epoch {
            if let Some(batch) = epoch.next_resolved()? {
                return Ok(Some(batch));
            }
            self.epoch = None;
        }
        Ok(None)
    }
}

impl PhysicalOperator for OracleResolve<'_> {
    fn name(&self) -> &'static str {
        "OracleResolve"
    }

    fn describe(&self) -> String {
        format!("{}({})", self.name(), self.input.describe())
    }

    fn open(&mut self) -> Result<()> {
        self.done = false;
        self.streaming = false;
        // Dropping an epoch frees the pages it has not streamed back.
        self.epoch = None;
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        self.ctx.check_cancelled()?;
        if self.streaming {
            return self.input.next_batch();
        }
        if let Some(batch) = self.next_resolved()? {
            return Ok(Some(batch));
        }
        if self.done {
            return Ok(None);
        }
        self.next_epoch()
    }

    fn close(&mut self) -> Result<()> {
        // Dropping an epoch frees the pages it has not streamed back.
        self.epoch = None;
        self.input.close()
    }
}

fn collect_into(expr: &Expr, out: &mut Vec<Expr>, seen: &mut HashSet<String>) {
    if let Expr::Function { name, .. } = expr {
        if oracle_fns::is_oracle_fn(name) {
            if seen.insert(expr.to_string()) {
                out.push(expr.clone());
            }
            return; // arguments are evaluated by the resolution pass itself
        }
    }
    match expr {
        Expr::Unary { expr, .. } => collect_into(expr, out, seen),
        Expr::Binary { left, right, .. } => {
            collect_into(left, out, seen);
            collect_into(right, out, seen);
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_into(a, out, seen);
            }
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            if let Some(o) = operand {
                collect_into(o, out, seen);
            }
            for (w, t) in branches {
                collect_into(w, out, seen);
                collect_into(t, out, seen);
            }
            if let Some(e) = else_expr {
                collect_into(e, out, seen);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_into(expr, out, seen);
            collect_into(low, out, seen);
            collect_into(high, out, seen);
        }
        Expr::InList { expr, list, .. } => {
            collect_into(expr, out, seen);
            for e in list {
                collect_into(e, out, seen);
            }
        }
        _ => {}
    }
}

/// Collects the distinct oracle-backed calls appearing in `expr` into `out`
/// (deduplicated against calls already present in `out`).
pub fn collect_oracle_calls(expr: &Expr, out: &mut Vec<Expr>) {
    // Seed the dedup set from what the caller already collected, then dedup
    // via hashing instead of rendering every collected expr per candidate.
    let mut seen: HashSet<String> = out.iter().map(|e| e.to_string()).collect();
    collect_into(expr, out, &mut seen);
}

/// Collects the distinct oracle calls across several expressions.
pub fn collect_oracle_calls_all(exprs: &[Expr]) -> Vec<Expr> {
    let mut calls = Vec::new();
    let mut seen = HashSet::new();
    for e in exprs {
        collect_into(e, &mut calls, &mut seen);
    }
    calls
}

/// Resolves each oracle call against `batch` — one round trip per call with
/// rows (a zero-row batch costs no trip) — appending the per-row answers as virtual columns. Calls
/// whose rendered name already exists as a column (materialised by an
/// operator below) are skipped.
pub fn resolve_oracle_calls(
    ctx: &ExecContext<'_>,
    batch: RecordBatch,
    calls: &[Expr],
) -> Result<RecordBatch> {
    if calls.is_empty() {
        return Ok(batch);
    }
    if ctx.oracle().is_none() {
        return Err(EngineError::OracleUnavailable {
            operation: calls[0].to_string(),
        });
    }
    let mut active: Vec<PreparedCall> = Vec::new();
    for call in calls {
        let rendered = call.to_string();
        if batch.schema().index_of(&rendered).is_ok()
            || active.iter().any(|earlier| earlier.rendered == rendered)
        {
            continue; // already materialised by an earlier operator or call
        }
        active.push(PreparedCall::parse(call)?);
    }
    let mut buffers: Vec<CallBuffer> = active.iter().map(|_| CallBuffer::default()).collect();
    gather_operands(
        ctx,
        &ShareKernels::default(),
        &active,
        &batch,
        0,
        &mut buffers,
    )?;
    let mut batch = batch;
    for (call, buffer) in active.iter().zip(buffers) {
        let values = resolve_call(ctx, call, batch.num_rows(), buffer, false)?;
        batch = append_virtual_column(
            &batch,
            ColumnDef::public(&call.rendered, call.data_type()),
            values,
        )?;
    }
    Ok(batch)
}

/// Convenience: resolves the oracle calls found in `exprs` (if any) against a
/// materialised batch, then binds the expressions to the resulting schema so
/// resolved calls become column references. Used by operators that resolve
/// inline (hash-join keys) rather than through an [`OracleResolve`] child.
pub fn resolve_for_exprs(
    ctx: &ExecContext<'_>,
    batch: RecordBatch,
    exprs: &mut [Expr],
) -> Result<RecordBatch> {
    let calls = collect_oracle_calls_all(exprs);
    let batch = resolve_oracle_calls(ctx, batch, &calls)?;
    for e in exprs.iter_mut() {
        *e = expr::bind_to_existing_columns(e, batch.schema());
    }
    Ok(batch)
}
