//! The aggregation's overflow path: partition-and-spill with recursive
//! re-aggregation.
//!
//! [`HashAggregate`] holds its input in memory while it fits the
//! [`MemoryBudget`](sdb_storage::MemoryBudget). On the first overflow it
//! replays the held batches, then the rest of its input, through this path:
//! each row is evaluated into a *prepared row* — a global arrival sequence
//! number, the grouping-key values and every aggregate's argument value.
//! Prepared rows accumulate in memory until they exceed the budget, at
//! which point they are hash-partitioned by grouping key into `FANOUT`
//! spill streams parked in the pager (same-key rows always land in the same
//! partition: a row is routed by the hash of its key values,
//! [`sdb_storage::keys`], which is not spilled — a reloaded row re-hashes
//! the values it carries). At the end each partition is re-aggregated
//! independently; a partition still larger than the budget is recursively
//! re-partitioned with a different hash level, up to `MAX_LEVELS` (beyond
//! that it is aggregated in memory — a single pathological group cannot be
//! split by key).
//!
//! **Byte-identity with the in-memory path:** that path emits groups in
//! global first-occurrence order with each group's argument values in
//! global row order. Spilled rows keep their arrival order within every
//! partition (writes happen in arrival order, reads in page order), so
//! per-partition aggregation preserves row order; the final groups are then
//! sorted by their minimum sequence number, which *is* the global
//! first-occurrence order. If the prepared rows never exceed the budget,
//! nothing spills and they aggregate directly — the same code path minus
//! the partitioning.

use sdb_sql::ast::Expr;
use sdb_storage::{ColumnDef, DataType, PageStream, PageStreamWriter, RecordBatch, Schema, Value};

use super::aggregate::{bind_aggregate_exprs, finalize_groups, GroupState, Groups, HashAggregate};
use super::expr::evaluate_exprs;
use super::{ExecContext, Replay};
use crate::Result;
use sdb_storage::keys::{hash_key, partition_of};

/// Number of spill partitions per level (shared with the hash join's
/// overflow path, which partitions the same way).
pub(super) const FANOUT: usize = 8;

/// Maximum re-partitioning depth before giving up on splitting further.
pub(super) const MAX_LEVELS: u32 = 3;

/// One input row, evaluated and ready to group or spill.
struct PreparedRow {
    /// Global arrival index (drives first-occurrence ordering).
    seq: u64,
    /// [`hash_key`] of the key values: routes the row to its partition and
    /// to its group. Never spilled — a reloaded row re-hashes its values.
    hash: u64,
    key_values: Vec<Value>,
    args: Vec<Value>,
}

impl PreparedRow {
    fn approx_size(&self) -> usize {
        16 + self
            .key_values
            .iter()
            .chain(self.args.iter())
            .map(Value::approx_size)
            .sum::<usize>()
    }

    /// The page layout of a prepared row: sequence number, key values, then
    /// argument values ([`decode_rows`] inverts this).
    fn into_values(self) -> Vec<Value> {
        let mut out = Vec::with_capacity(1 + self.key_values.len() + self.args.len());
        out.push(Value::Int(self.seq as i64));
        out.extend(self.key_values);
        out.extend(self.args);
        out
    }
}

impl HashAggregate<'_> {
    /// The page schema for spilled prepared rows: sequence number, then the
    /// key values, then the aggregate argument values. The declared types are
    /// placeholders — the page codec tags every value individually.
    fn page_schema(&self) -> Schema {
        let mut defs = vec![ColumnDef::public("__seq", DataType::Int)];
        defs.extend(
            (0..self.group_by.len()).map(|i| ColumnDef::public(&format!("__k{i}"), DataType::Int)),
        );
        defs.extend(
            (0..self.aggregates.len())
                .map(|j| ColumnDef::public(&format!("__a{j}"), DataType::Int)),
        );
        Schema::new(defs)
    }

    /// Evaluates one input batch into prepared rows ([`evaluate_exprs`]:
    /// every key, then every argument, of a row before the next row's).
    fn prepare_batch(
        &self,
        batch: &RecordBatch,
        group_exprs: &[Expr],
        agg_args: &[Expr],
        next_seq: &mut u64,
        out: &mut Vec<PreparedRow>,
        out_bytes: &mut usize,
    ) -> Result<()> {
        let exprs: Vec<&Expr> = group_exprs.iter().chain(agg_args).collect();
        let mut columns = evaluate_exprs(&self.ctx, Some(&self.shares), &exprs, batch, false)?;
        for row in 0..batch.num_rows() {
            let (keys, args) = columns.split_at_mut(group_exprs.len());
            let key_values: Vec<Value> = keys.iter_mut().map(|k| k.take(batch, row)).collect();
            let args = args.iter_mut().map(|a| a.take(batch, row)).collect();
            let prepared = PreparedRow {
                seq: *next_seq,
                hash: hash_key(&key_values),
                key_values,
                args,
            };
            *next_seq += 1;
            *out_bytes += prepared.approx_size();
            out.push(prepared);
        }
        Ok(())
    }

    /// The overflow path: evaluates the held batches and the rest of the
    /// input into prepared rows, spilling them by key whenever they exceed
    /// the budget, and aggregates them into groups in global
    /// first-occurrence order.
    pub(super) fn spill(&mut self, mut held: Replay) -> Result<RecordBatch> {
        let limit =
            (self.ctx.config().memory_budget.limit()).expect("only a limited budget overflows");
        let page_schema = self.page_schema();
        let input_schema = held.schema().clone();
        let (group_exprs, agg_args) =
            bind_aggregate_exprs(&self.group_by, &self.aggregates, &input_schema);
        let mut pending: Vec<PreparedRow> = Vec::new();
        let mut pending_bytes = 0usize;
        let mut partitions: Option<Vec<PageStreamWriter>> = None;
        let mut next_seq = 0u64;

        while let Some(batch) = held.next_batch(self.input.as_mut())? {
            self.prepare_batch(
                &batch,
                &group_exprs,
                &agg_args,
                &mut next_seq,
                &mut pending,
                &mut pending_bytes,
            )?;
            if pending_bytes > limit {
                let writers =
                    partitions.get_or_insert_with(|| partition_writers(&self.ctx, &page_schema));
                spill_rows(writers, pending.drain(..), 0)?;
                pending_bytes = 0;
            }
        }

        let groups = match partitions {
            // The prepared rows fit: aggregate them directly. They are in
            // arrival order, so the groups come out exactly as the in-memory
            // path would produce them.
            None => {
                let mut groups = Groups::default();
                group_rows_into(pending, &mut Vec::new(), &mut groups);
                groups.states
            }
            Some(mut writers) => {
                spill_rows(&mut writers, pending.drain(..), 0)?;
                let mut collected: Vec<(u64, GroupState)> = Vec::new();
                for writer in writers {
                    let run = writer.finish()?;
                    self.aggregate_partition(run, 1, &page_schema, &mut collected)?;
                }
                // Minimum sequence number == global first occurrence.
                collected.sort_by_key(|(min_seq, _)| *min_seq);
                collected.into_iter().map(|(_, state)| state).collect()
            }
        };
        finalize_groups(
            &self.group_by,
            &self.aggregates,
            &group_exprs,
            groups,
            &input_schema,
        )
    }

    /// Re-aggregates one spilled partition, recursively re-partitioning at
    /// the next hash level while it exceeds the budget (and further levels
    /// remain).
    fn aggregate_partition(
        &self,
        run: PageStream,
        level: u32,
        page_schema: &Schema,
        out: &mut Vec<(u64, GroupState)>,
    ) -> Result<()> {
        let limit = (self.ctx.config().memory_budget.limit()).unwrap_or(usize::MAX);
        if run.bytes() > limit && level <= MAX_LEVELS {
            // Still too big: split by a different hash of the same keys.
            let mut writers = partition_writers(&self.ctx, page_schema);
            let mut reader = run.reader();
            while let Some(batch) = reader.next_batch()? {
                let rows = decode_rows(&batch, self.group_by.len(), self.aggregates.len())?;
                spill_rows(&mut writers, rows.into_iter(), level)?;
            }
            for writer in writers {
                let sub = writer.finish()?;
                if !sub.is_empty() {
                    self.aggregate_partition(sub, level + 1, page_schema, out)?;
                }
            }
            return Ok(());
        }
        // Small enough (or unsplittable): fold the partition's rows into
        // group states page by page, keeping only one page resident (the
        // reader frees each page as it is consumed).
        let mut groups = Groups::default();
        let mut min_seqs: Vec<u64> = Vec::new();
        let mut reader = run.reader();
        while let Some(batch) = reader.next_batch()? {
            let rows = decode_rows(&batch, self.group_by.len(), self.aggregates.len())?;
            group_rows_into(rows, &mut min_seqs, &mut groups);
        }
        out.extend(min_seqs.into_iter().zip(groups.states));
        Ok(())
    }
}

/// A partition writer's flush threshold: a small fraction of the budget, so
/// `FANOUT` writers cannot hoard it.
pub(super) fn flush_bytes(ctx: &ExecContext<'_>) -> usize {
    let limit = ctx.config().memory_budget.limit().unwrap_or(usize::MAX);
    (limit / (2 * FANOUT)).max(1)
}

/// One partition writer per fanout slot.
pub(super) fn partition_writers(ctx: &ExecContext<'_>, schema: &Schema) -> Vec<PageStreamWriter> {
    let (flush_bytes, batch_size) = (flush_bytes(ctx), ctx.config().batch_size);
    (0..FANOUT)
        .map(|_| PageStreamWriter::new(ctx.pager(), schema.clone(), flush_bytes, batch_size))
        .collect()
}

/// Routes prepared rows (in arrival order) to their partitions' writers.
fn spill_rows(
    writers: &mut [PageStreamWriter],
    rows: impl Iterator<Item = PreparedRow>,
    level: u32,
) -> Result<()> {
    for row in rows {
        let p = partition_of(row.hash, level, FANOUT);
        writers[p].push_row(row.into_values())?;
    }
    Ok(())
}

/// Folds prepared rows (already in arrival order) into group states,
/// continuing an existing set of groups across calls (one call per partition
/// page). `min_seqs[i]` is group `i`'s first arrival.
fn group_rows_into(rows: Vec<PreparedRow>, min_seqs: &mut Vec<u64>, groups: &mut Groups) {
    for row in rows {
        let group = groups.find_or_insert(row.hash, row.key_values.iter(), row.args.len());
        if group == min_seqs.len() {
            min_seqs.push(row.seq);
        }
        let state: &mut GroupState = &mut groups.states[group];
        state.rows += 1;
        for (acc, value) in state.arg_values.iter_mut().zip(row.args) {
            acc.push(value);
        }
    }
}

/// Unpacks a page batch back into prepared rows (re-hashing the key values —
/// the same derivation that produced the hash).
fn decode_rows(batch: &RecordBatch, num_keys: usize, num_args: usize) -> Result<Vec<PreparedRow>> {
    let mut rows = Vec::with_capacity(batch.num_rows());
    for r in 0..batch.num_rows() {
        let seq = batch.column(0).value(r).as_i64()? as u64;
        let key_values: Vec<Value> = (0..num_keys)
            .map(|i| batch.column(1 + i).value(r).into_owned())
            .collect();
        let args: Vec<Value> = (0..num_args)
            .map(|j| batch.column(1 + num_keys + j).value(r).into_owned())
            .collect();
        rows.push(PreparedRow {
            seq,
            hash: hash_key(&key_values),
            key_values,
            args,
        });
    }
    Ok(rows)
}
