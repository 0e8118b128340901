//! Bounded-memory hash aggregation: partition-and-spill with recursive
//! re-aggregation.
//!
//! The operator streams its input and evaluates each row into a *prepared
//! row* — a global arrival sequence number, the grouping-key values and every
//! aggregate's argument value. Prepared rows accumulate in memory until the
//! [`MemoryBudget`](sdb_storage::MemoryBudget) is exceeded, at which point
//! they are hash-partitioned by grouping key into `FANOUT` spill streams
//! parked in the pager (same-key rows always land in the same partition: a
//! row is routed by the hash of its key values, [`crate::kernels::keys`],
//! which is not spilled — a reloaded row re-hashes the values it carries).
//! At the end each partition is re-aggregated independently; a partition
//! still larger than the budget is recursively re-partitioned with a
//! different hash level, up to `MAX_LEVELS` (beyond that it is aggregated
//! in memory — a single pathological group cannot be split by key).
//!
//! **Byte-identity with [`super::aggregate::HashAggregate`]:** the in-memory
//! operator emits groups in global first-occurrence order with each group's
//! argument values in global row order. Spilled rows keep their arrival
//! order within every partition (writes happen in arrival order, reads in
//! page order), so per-partition aggregation preserves row order; the final
//! groups are then sorted by their minimum sequence number, which *is* the
//! global first-occurrence order. If the input never exceeds the budget,
//! nothing spills and the pending rows aggregate directly — the same code
//! path minus the partitioning.

use std::sync::Arc;

use sdb_sql::ast::Expr;
use sdb_sql::plan::AggregateExpr;
use sdb_storage::{ColumnDef, DataType, PageStream, PageStreamWriter, RecordBatch, Schema, Value};

use super::aggregate::{
    aggregate_key_updates, bind_aggregate_exprs, finalize_groups, GroupState, Groups,
};
use super::{BoxedOperator, ExecContext, PhysicalOperator};
use crate::kernels::keys::{hash_key, partition_of};
use crate::Result;

/// Number of spill partitions per level (shared with
/// [`super::grace_join::GraceHashJoin`], which partitions the same way).
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

/// Hash aggregation that spills prepared rows through the pager when group
/// state would exceed the memory budget. Output is byte-identical to
/// [`super::aggregate::HashAggregate`].
pub struct SpillingHashAggregate<'a> {
    ctx: Arc<ExecContext<'a>>,
    input: BoxedOperator<'a>,
    group_by: Vec<(Expr, String)>,
    aggregates: Vec<AggregateExpr>,
    key_updates: Arc<crate::udf::KeyUpdateSets>,
    done: bool,
}

impl<'a> SpillingHashAggregate<'a> {
    /// Creates a spilling aggregation over `input`.
    pub fn new(
        ctx: Arc<ExecContext<'a>>,
        input: BoxedOperator<'a>,
        group_by: Vec<(Expr, String)>,
        aggregates: Vec<AggregateExpr>,
    ) -> Self {
        SpillingHashAggregate {
            key_updates: aggregate_key_updates(&ctx, &group_by, &aggregates),
            ctx,
            input,
            group_by,
            aggregates,
            done: false,
        }
    }

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

    /// Evaluates one input batch into prepared rows.
    fn prepare_batch(
        &self,
        batch: &RecordBatch,
        group_exprs: &[Expr],
        agg_args: &[Expr],
        next_seq: &mut u64,
        out: &mut Vec<PreparedRow>,
        out_bytes: &mut usize,
    ) -> Result<()> {
        let evaluator = self.ctx.evaluator().with_key_updates(&self.key_updates);
        for row in 0..batch.num_rows() {
            let mut key_values = Vec::with_capacity(group_exprs.len());
            for e in group_exprs {
                key_values.push(evaluator.evaluate(e, batch, row)?);
            }
            let mut args = Vec::with_capacity(agg_args.len());
            for a in agg_args {
                args.push(evaluator.evaluate(a, batch, row)?);
            }
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
        self.ctx.record_udf_calls(&evaluator);
        Ok(())
    }

    /// One partition writer per fanout slot, flushing at a small fraction of
    /// the budget so `FANOUT` writers cannot hoard it.
    fn partition_writers(&self, page_schema: &Schema) -> Vec<PageStreamWriter> {
        let limit = self.ctx.memory_budget().limit().unwrap_or(usize::MAX);
        let flush_bytes = (limit / (2 * FANOUT)).max(1);
        (0..FANOUT)
            .map(|_| PageStreamWriter::new(page_schema.clone(), flush_bytes, self.ctx.batch_size()))
            .collect()
    }

    /// Streams the input, spilling on overflow, and produces the final
    /// groups in global first-occurrence order.
    fn aggregate_input(&mut self) -> Result<(Vec<GroupState>, Vec<Expr>, Schema)> {
        let limit = self.ctx.memory_budget().limit().unwrap_or(usize::MAX);
        let page_schema = self.page_schema();
        let mut input_schema = Schema::empty();
        let mut bound: Option<(Vec<Expr>, Vec<Expr>)> = None;
        let mut pending: Vec<PreparedRow> = Vec::new();
        let mut pending_bytes = 0usize;
        let mut partitions: Option<Vec<PageStreamWriter>> = None;
        let mut next_seq = 0u64;

        while let Some(batch) = self.input.next_batch()? {
            if bound.is_none() {
                input_schema = batch.schema().clone();
                bound = Some(bind_aggregate_exprs(
                    &self.group_by,
                    &self.aggregates,
                    batch.schema(),
                ));
            }
            let (group_exprs, agg_args) = bound.as_ref().expect("bound above");
            self.prepare_batch(
                &batch,
                group_exprs,
                agg_args,
                &mut next_seq,
                &mut pending,
                &mut pending_bytes,
            )?;
            if pending_bytes > limit {
                if partitions.is_none() {
                    partitions = Some(self.partition_writers(&page_schema));
                }
                let writers = partitions.as_mut().expect("created above");
                spill_rows(&self.ctx, writers, pending.drain(..), 0)?;
                pending_bytes = 0;
            }
        }
        let (group_exprs, _) = bound.unwrap_or_else(|| {
            bind_aggregate_exprs(&self.group_by, &self.aggregates, &Schema::empty())
        });

        let groups = match partitions {
            // Everything fit: aggregate the pending rows directly. They are
            // in arrival order, so the groups come out exactly as the
            // in-memory operator would produce them.
            None => {
                let mut groups = Groups::default();
                group_rows_into(pending, &mut Vec::new(), &mut groups);
                groups.states
            }
            Some(mut writers) => {
                spill_rows(&self.ctx, &mut writers, pending.drain(..), 0)?;
                let mut collected: Vec<(u64, GroupState)> = Vec::new();
                for writer in writers {
                    let run = writer.finish(self.ctx.pager())?;
                    self.aggregate_partition(run, 1, &page_schema, &mut collected)?;
                }
                // Minimum sequence number == global first occurrence.
                collected.sort_by_key(|(min_seq, _)| *min_seq);
                collected.into_iter().map(|(_, state)| state).collect()
            }
        };
        Ok((groups, group_exprs, input_schema))
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
        let limit = self.ctx.memory_budget().limit().unwrap_or(usize::MAX);
        if run.bytes() > limit && level <= MAX_LEVELS {
            // Still too big: split by a different hash of the same keys.
            let mut writers = self.partition_writers(page_schema);
            let mut reader = run.reader();
            while let Some(batch) = reader.next_batch(self.ctx.pager())? {
                let rows = decode_rows(&batch, self.group_by.len(), self.aggregates.len())?;
                spill_rows(&self.ctx, &mut writers, rows.into_iter(), level)?;
            }
            for writer in writers {
                let sub = writer.finish(self.ctx.pager())?;
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
        while let Some(batch) = reader.next_batch(self.ctx.pager())? {
            let rows = decode_rows(&batch, self.group_by.len(), self.aggregates.len())?;
            group_rows_into(rows, &mut min_seqs, &mut groups);
        }
        out.extend(min_seqs.into_iter().zip(groups.states));
        Ok(())
    }
}

impl PhysicalOperator for SpillingHashAggregate<'_> {
    fn name(&self) -> &'static str {
        "SpillingHashAggregate"
    }

    fn describe(&self) -> String {
        format!("{}({})", self.name(), self.input.describe())
    }

    fn open(&mut self) -> Result<()> {
        self.done = false;
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let (groups, group_exprs, input_schema) = self.aggregate_input()?;
        finalize_groups(
            &self.group_by,
            &self.aggregates,
            &group_exprs,
            groups,
            &input_schema,
        )
        .map(Some)
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}

/// Routes prepared rows (in arrival order) to their partitions' writers.
fn spill_rows(
    ctx: &ExecContext<'_>,
    writers: &mut [PageStreamWriter],
    rows: impl Iterator<Item = PreparedRow>,
    level: u32,
) -> Result<()> {
    for row in rows {
        let p = partition_of(row.hash, level, FANOUT);
        writers[p].push_row(ctx.pager(), row.into_values())?;
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
        let seq = batch.column(0).get(r).as_i64()? as u64;
        let key_values: Vec<Value> = (0..num_keys)
            .map(|i| batch.column(1 + i).get(r).clone())
            .collect();
        let args: Vec<Value> = (0..num_args)
            .map(|j| batch.column(1 + num_keys + j).get(r).clone())
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
