//! The SDB oracle-call operator: resolves the interactive protocol steps
//! (secure comparisons, group tags, rank surrogates) the rewriter leaves in the
//! plan as pseudo-function calls.
//!
//! Round trips to the DO proxy are the unit cost the protocol prices highest,
//! so resolution is *amortized and memoized*:
//!
//! * **Cross-batch accumulation** — instead of one round trip per registered
//!   call per input batch, [`OracleResolve`] parks raw input batches in the
//!   pager (spilling past the memory budget like any other parked stream)
//!   while buffering each call's prepared operand rows. At a byte/row
//!   threshold ([`ORACLE_FLUSH_BYTES`] / [`ORACLE_FLUSH_ROWS`]) or
//!   end-of-input it flushes *one coalesced request per call*, then streams
//!   the parked batches back out with the answers attached. A multi-predicate
//!   filter over dozens of batches thus costs one trip per distinct call, not
//!   one per call per batch, under any `MemoryBudget`.
//! * **Encrypted-value memoization** — sign and group-tag answers are
//!   deterministic in the operand ciphertexts (the proxy decrypts with the
//!   row-id-derived item key; tags are a keyed PRF of the plaintext), so
//!   resolved answers are remembered in a per-query `OracleMemo` keyed by
//!   `(request kind, key handle, row-id ciphertext, pre-blinding share)`.
//!   Hot operands — join keys probed per spilled chunk, correlated subquery
//!   operands — never re-travel the link; hits are counted in
//!   `oracle_memo_hits`. Rank surrogates are *never* memoized: the proxy
//!   allocates a fresh rank block per request, so surrogates are only
//!   comparable within one request.
//!
//! For each distinct call the answers come back as a *virtual column* named by
//! the call's rendered text. Downstream expressions pick the column up through
//! [`expr::bind_to_existing_columns`], so the operators above never see the
//! call itself.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use num_bigint::BigUint;
use parking_lot::Mutex;
use rand::Rng;

use sdb_crypto::EncryptedRowId;
use sdb_sql::ast::Expr;
use sdb_storage::{
    ColumnDef, DataType, PageStreamReader, PageStreamWriter, RecordBatch, Schema, Value,
};

use super::expr::{self, append_virtual_column, literal_string};
use super::{BoxedOperator, ExecContext, PhysicalOperator};
use crate::secure::{
    oracle_fns, parse_biguint_arg, sign_to_bool, OracleRequest, OracleRequestKind, OracleResponse,
    OracleRow,
};
use crate::udf::KeyUpdateSets;
use crate::{EngineError, Result};

/// Accumulated operand bytes (across all registered calls) that force a
/// mid-stream flush of the cross-batch accumulator. Deliberately independent
/// of the `MemoryBudget`: parked input batches spill through the pager, so a
/// tiny budget must not reintroduce per-batch round trips.
pub const ORACLE_FLUSH_BYTES: usize = 4 << 20;

/// Accumulated input rows that force a mid-stream flush of the cross-batch
/// accumulator.
pub const ORACLE_FLUSH_ROWS: usize = 1 << 20;

/// Key of one memoized oracle answer: request-kind discriminant, proxy key
/// handle, row-id ciphertext and the **pre-blinding** share (the blinding
/// factor is fresh per shipped row, so only the unblinded share is stable).
type MemoKey = (u8, String, EncryptedRowId, BigUint);

/// A memoized oracle answer. Rank surrogates are never memoized — they are
/// only comparable within the single request that allocated them.
#[derive(Clone, Copy)]
enum MemoAnswer {
    /// The sign verdict of a comparison request.
    Sign(i8),
    /// The opaque group tag of a group-tag request.
    Tag(u64),
}

/// The per-query encrypted-value memo: answers of past sign/group-tag
/// requests, shared across operators and subquery contexts (`Mutex`-guarded
/// like the subquery cache) so hot operands never re-travel the oracle link.
#[derive(Default)]
pub(crate) struct OracleMemo {
    entries: Mutex<HashMap<MemoKey, MemoAnswer>>,
}

fn kind_tag(kind: OracleRequestKind) -> u8 {
    match kind {
        OracleRequestKind::Sign => 0,
        OracleRequestKind::GroupTag => 1,
        OracleRequestKind::Rank => 2,
    }
}

/// One registered oracle call, parsed once per operator (not once per batch):
/// the operand expressions, key handle, request kind and — for comparisons —
/// the public modulus used for blinding.
struct PreparedCall {
    /// Upper-cased function name (decides the sign→bool mapping).
    name: String,
    /// The call's rendered text: the virtual column's name.
    rendered: String,
    kind: OracleRequestKind,
    handle: String,
    /// Blinding modulus (comparison calls only).
    modulus: Option<BigUint>,
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
        let is_cmp = oracle_fns::is_cmp_fn(&name);
        let expected_arity = if is_cmp { 4 } else { 3 };
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
        let modulus = if is_cmp {
            Some(parse_biguint_arg(
                &name,
                &literal_string(&args[3]).ok_or_else(|| EngineError::UdfInvocation {
                    name: name.clone(),
                    detail: "fourth argument must be the public modulus as a string".into(),
                })?,
            )?)
        } else {
            None
        };
        let kind = if is_cmp {
            OracleRequestKind::Sign
        } else if name == oracle_fns::GROUP_TAG {
            OracleRequestKind::GroupTag
        } else {
            OracleRequestKind::Rank
        };
        Ok(PreparedCall {
            rendered: call.to_string(),
            name,
            kind,
            handle,
            modulus,
            share_expr: args[0].clone(),
            row_id_expr: args[1].clone(),
        })
    }

    /// The virtual column's type, known before any answer arrives (needed to
    /// emit schema-correct columns when every row was NULL or memoized).
    fn data_type(&self) -> DataType {
        match self.kind {
            OracleRequestKind::Sign => DataType::Bool,
            OracleRequestKind::GroupTag => DataType::Tag,
            OracleRequestKind::Rank => DataType::Int,
        }
    }

    fn memo_key(&self, row: &OracleRow) -> MemoKey {
        (
            kind_tag(self.kind),
            self.handle.clone(),
            row.row_id.clone(),
            row.share.clone(),
        )
    }

    fn memo_value(&self, answer: MemoAnswer) -> Result<Value> {
        match answer {
            MemoAnswer::Sign(sign) => Ok(Value::Bool(sign_to_bool(&self.name, sign)?)),
            MemoAnswer::Tag(tag) => Ok(Value::Tag(tag)),
        }
    }
}

/// One call's operand rows accumulated so far. Shares are kept
/// **pre-blinding** so the memo key stays stable across requests; the fresh
/// blinding factor is applied only to rows that actually ship.
#[derive(Default)]
struct CallBuffer {
    /// Position of each operand row in the accumulated input (epoch-global).
    present: Vec<usize>,
    rows: Vec<OracleRow>,
}

/// Evaluates every call's operand expressions over `batch`, appending the
/// non-NULL rows to the call's buffer at positions offset by `base`. Rows go
/// outermost, so calls over one auxiliary column share that row's powers
/// (see [`KeyUpdateSets`]). Returns the approximate operand bytes added (for
/// the flush threshold).
fn gather_operands(
    ctx: &ExecContext<'_>,
    key_updates: &KeyUpdateSets,
    calls: &[PreparedCall],
    batch: &RecordBatch,
    base: usize,
    buffers: &mut [CallBuffer],
) -> Result<usize> {
    let evaluator = ctx.evaluator().with_key_updates(key_updates);
    let mut bytes = 0usize;
    for row in 0..batch.num_rows() {
        for (call, buffer) in calls.iter().zip(buffers.iter_mut()) {
            let share = evaluator.evaluate(&call.share_expr, batch, row)?;
            let row_id = evaluator.evaluate(&call.row_id_expr, batch, row)?;
            if share.is_null() || row_id.is_null() {
                continue;
            }
            let share = share.as_encrypted()?.clone();
            let row_id = row_id.as_encrypted_row_id()?.clone();
            bytes += row_id.size_bytes() + (share.bits() as usize).div_ceil(8);
            buffer.present.push(base + row);
            buffer.rows.push(OracleRow { row_id, share });
        }
    }
    ctx.record_udf_calls(&evaluator);
    Ok(bytes)
}

/// Resolves one call's buffered operands into a full-length value column
/// (NULL where the operands were NULL): memo lookups first, then — only if
/// any rows miss — a single round trip for the misses, whose answers are
/// scattered back and memoized. Zero buffered rows (or an all-hit buffer)
/// cost zero trips.
fn resolve_call(
    ctx: &ExecContext<'_>,
    call: &PreparedCall,
    total_rows: usize,
    buffer: CallBuffer,
    coalesced: bool,
) -> Result<Vec<Value>> {
    let CallBuffer { present, rows } = buffer;
    if coalesced {
        ctx.stats_mut().oracle_rows_coalesced += rows.len();
    }
    let mut values = vec![Value::Null; total_rows];

    // Memo lookups (sign/tag answers are deterministic in the operands; rank
    // surrogates are per-request and always ship).
    let mut miss_present: Vec<usize> = Vec::new();
    let mut miss_rows: Vec<OracleRow> = Vec::new();
    if call.kind == OracleRequestKind::Rank {
        miss_present = present;
        miss_rows = rows;
    } else {
        let buffered = present.len();
        let memo = ctx.oracle_memo().entries.lock();
        for (pos, row) in present.into_iter().zip(rows) {
            match memo.get(&call.memo_key(&row)) {
                Some(answer) => values[pos] = call.memo_value(*answer)?,
                None => {
                    miss_present.push(pos);
                    miss_rows.push(row);
                }
            }
        }
        drop(memo);
        ctx.stats_mut().oracle_memo_hits += buffered - miss_present.len();
    }

    if miss_rows.is_empty() {
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
    // Factors are drawn first, in row order (same RNG stream as the old
    // per-row loop), then the whole share column is blinded in one pass.
    let shipped: Vec<OracleRow> = match &call.modulus {
        Some(n) => {
            let factors: Vec<u64> = miss_rows
                .iter()
                .map(|_| ctx.rng_mut().gen_range(1..(1u64 << 30)))
                .collect();
            let shares: Vec<BigUint> = miss_rows.iter().map(|row| row.share.clone()).collect();
            let blinded = sdb_crypto::batch::blind_shares(n, &shares, &factors);
            miss_rows
                .iter()
                .zip(blinded)
                .map(|(row, share)| OracleRow {
                    row_id: row.row_id.clone(),
                    share,
                })
                .collect()
        }
        None => miss_rows.clone(),
    };
    let request = OracleRequest {
        kind: call.kind,
        handle: call.handle.clone(),
        rows: shipped,
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

    if response.len() != miss_present.len() {
        return Err(EngineError::OracleProtocol {
            detail: format!(
                "oracle returned {} answers for {} rows",
                response.len(),
                miss_present.len()
            ),
        });
    }

    // Scatter the answers and remember them (rank excluded).
    match &response {
        OracleResponse::Signs(signs) => {
            let mut memo = ctx.oracle_memo().entries.lock();
            for ((pos, row), sign) in miss_present.iter().zip(&miss_rows).zip(signs) {
                values[*pos] = Value::Bool(sign_to_bool(&call.name, *sign)?);
                if call.kind == OracleRequestKind::Sign {
                    memo.insert(call.memo_key(row), MemoAnswer::Sign(*sign));
                }
            }
        }
        OracleResponse::Tags(tags) => {
            let mut memo = ctx.oracle_memo().entries.lock();
            for ((pos, row), tag) in miss_present.iter().zip(&miss_rows).zip(tags) {
                values[*pos] = Value::Tag(*tag);
                if call.kind == OracleRequestKind::GroupTag {
                    memo.insert(call.memo_key(row), MemoAnswer::Tag(*tag));
                }
            }
        }
        OracleResponse::Ranks(ranks) => {
            for (pos, rank) in miss_present.iter().zip(ranks) {
                values[*pos] = Value::Int(*rank as i64);
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
    key_updates: Arc<KeyUpdateSets>,
    buffers: Vec<CallBuffer>,
    operand_bytes: usize,
}

impl OracleAccumulator {
    /// Prepares the calls not already materialised as columns of `schema`.
    /// `key_updates` are the sets planned from `calls` by the operator that
    /// owns them (empty: every key update is served by the function).
    pub(crate) fn new(
        ctx: &ExecContext<'_>,
        calls: &[Expr],
        key_updates: Arc<KeyUpdateSets>,
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
        let flush_bytes = ctx
            .memory_budget()
            .limit()
            .map(|limit| (limit / 4).max(1))
            .unwrap_or(1 << 20);
        let buffers = active.iter().map(|_| CallBuffer::default()).collect();
        Ok(OracleAccumulator {
            key_updates,
            input_schema: schema.clone(),
            writer: PageStreamWriter::new(schema.clone(), flush_bytes, ctx.batch_size()),
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
            &self.key_updates,
            &self.active,
            batch,
            self.total_rows,
            &mut self.buffers,
        )?;
        for row in 0..batch.num_rows() {
            self.writer.push_row(ctx.pager(), batch.row(row))?;
        }
        self.total_rows += batch.num_rows();
        Ok(())
    }

    /// Whether accumulated operands crossed the flush threshold.
    pub(crate) fn over_threshold(&self) -> bool {
        self.operand_bytes >= ORACLE_FLUSH_BYTES || self.total_rows >= ORACLE_FLUSH_ROWS
    }

    /// Resolves every buffered call — one coalesced round trip per call with
    /// misses — and returns the epoch ready to stream the parked batches back
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
        let stream = writer.finish(ctx.pager())?;
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
    pub(crate) fn next_resolved(&mut self, ctx: &ExecContext<'_>) -> Result<Option<RecordBatch>> {
        match self.reader.next_batch(ctx.pager())? {
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

    /// Frees any parked pages not yet streamed back (early close).
    pub(crate) fn release(&mut self, ctx: &ExecContext<'_>) {
        self.reader.release(ctx.pager());
    }
}

/// Physical operator materialising oracle-backed calls as virtual columns.
///
/// With cross-batch batching on (the default), input batches are parked in
/// the pager while operand rows accumulate, and each registered call resolves
/// in one coalesced round trip per [`ORACLE_FLUSH_BYTES`]/[`ORACLE_FLUSH_ROWS`]
/// window — for typical inputs, one trip per distinct call total. With
/// batching off ([`crate::ExecConfig::oracle_batching`]), sign and group-tag
/// calls resolve per input batch as before; either way the encrypted-value
/// memo answers repeated operands locally.
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
    /// The key-update sets of the calls' operands: calls over one auxiliary
    /// column share its powers, whichever call gathers a batch first.
    key_updates: Arc<KeyUpdateSets>,
    /// True when any call demands whole-input resolution (rank surrogates).
    blocking: bool,
    /// Cross-batch accumulation configured on the context.
    batched: bool,
    /// Runtime mode: resolve per input batch (batching off, or every call
    /// found already materialised below).
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
        let batched = ctx.oracle_batching();
        OracleResolve {
            key_updates: ctx.key_update_sets(&calls),
            ctx,
            input,
            calls,
            blocking,
            batched,
            streaming: !batched,
            done: false,
            epoch: None,
        }
    }

    /// The pre-batching path: blocking rank resolution materialises the whole
    /// input; everything else resolves batch by batch.
    fn next_streaming(&mut self) -> Result<Option<RecordBatch>> {
        if self.blocking {
            if self.done {
                return Ok(None);
            }
            self.done = true;
            let batch = super::materialize_input(self.input.as_mut())?
                .unwrap_or_else(|| RecordBatch::empty(Schema::empty()));
            return resolve_calls(&self.ctx, &self.key_updates, batch, &self.calls).map(Some);
        }
        match self.input.next_batch()? {
            None => Ok(None),
            Some(batch) => {
                resolve_calls(&self.ctx, &self.key_updates, batch, &self.calls).map(Some)
            }
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
            Arc::clone(&self.key_updates),
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
            if let Some(batch) = epoch.next_resolved(&self.ctx)? {
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
        self.streaming = !self.batched;
        if let Some(epoch) = &mut self.epoch {
            epoch.release(&self.ctx);
        }
        self.epoch = None;
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        self.ctx.check_cancelled()?;
        if self.streaming {
            return self.next_streaming();
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
        if let Some(epoch) = &mut self.epoch {
            epoch.release(&self.ctx);
        }
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

/// Resolves each oracle call against `batch` — memo hits answered locally,
/// misses in one round trip per call (zero-row batches and all-hit batches
/// cost no trip) — appending the per-row answers as virtual columns. Calls
/// whose rendered name already exists as a column (materialised by an
/// operator below) are skipped.
pub fn resolve_oracle_calls(
    ctx: &ExecContext<'_>,
    batch: RecordBatch,
    calls: &[Expr],
) -> Result<RecordBatch> {
    resolve_calls(ctx, &KeyUpdateSets::default(), batch, calls)
}

/// [`resolve_oracle_calls`] with the key-update sets of the operator the calls
/// belong to.
fn resolve_calls(
    ctx: &ExecContext<'_>,
    key_updates: &KeyUpdateSets,
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
    gather_operands(ctx, key_updates, &active, &batch, 0, &mut buffers)?;
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
