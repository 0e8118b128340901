//! Hash aggregation with grouping, morsel-parallel.
//!
//! The building blocks keep the output byte-identical at any parallelism
//! and on the overflow path ([`super::spill_aggregate`]): `group_morsel`
//! folds a contiguous run of rows into per-group states (group-key values
//! plus the evaluated argument values of every aggregate, in row order),
//! `merge_group_states` combines per-morsel states in morsel order
//! (preserving global first-occurrence group order and global row order
//! within each group), and `finalize_groups` computes the aggregate values
//! and infers the output schema.

use std::borrow::Borrow;
use std::sync::Arc;

use num_bigint::BigUint;
use sdb_sql::ast::Expr;
use sdb_sql::plan::{AggFunc, AggregateExpr};
use sdb_storage::{ColumnDef, DataType, RecordBatch, Schema, Value};

use super::expr::{evaluate_exprs, infer_column_def, sensitivity_of};
use super::parallel::{effective_workers, scoped_workers};
use super::{hold_input, BoxedOperator, ExecContext, Held, PhysicalOperator};
use crate::kernels::GlobalAggKernel;
use crate::kernels::ShareKernels;
use crate::{EngineError, Result};
use sdb_storage::keys::{hash_key, key_eq, keys_eq, BatchKeys, ChainIndex};

/// Per-group accumulation state: the group-key values (which *are* the key),
/// the number of rows seen and each aggregate's argument values in row order.
pub(super) struct GroupState {
    pub(super) key_values: Vec<Value>,
    pub(super) rows: usize,
    pub(super) arg_values: Vec<Vec<Value>>,
}

/// Group states in first-occurrence order, found by key through an index from
/// key hash to candidate states (see [`sdb_storage::keys`]; NULLs form one
/// group). The overflow path rebuilds states from spilled partition rows.
#[derive(Default)]
pub(super) struct Groups {
    pub(super) states: Vec<GroupState>,
    index: ChainIndex,
}

impl Groups {
    /// The position of the group whose key is `key` (hashing to `hash`),
    /// appended — with the key cloned and `aggregates` empty argument lists —
    /// if this is its first occurrence.
    pub(super) fn find_or_insert<V: Borrow<Value>>(
        &mut self,
        hash: u64,
        key: impl Iterator<Item = V> + Clone,
        aggregates: usize,
    ) -> usize {
        let states = &self.states;
        let found = (self.index.matches(hash))
            .find(|&group| keys_eq(&states[group].key_values, key.clone()));
        found.unwrap_or_else(|| {
            self.states.push(GroupState {
                key_values: key.map(|value| value.borrow().clone()).collect(),
                rows: 0,
                arg_values: vec![Vec::new(); aggregates],
            });
            self.index.insert(hash)
        })
    }
}

/// Binds the grouping expressions and aggregate arguments to the input schema
/// (this picks up oracle virtual columns and pre-computed expression columns
/// by their rendered names). Argument-less aggregates (`COUNT(*)`) get a
/// literal `1` placeholder.
pub(super) fn bind_aggregate_exprs(
    group_by: &[(Expr, String)],
    aggregates: &[AggregateExpr],
    schema: &Schema,
) -> (Vec<Expr>, Vec<Expr>) {
    let bind = |e: &Expr| super::expr::bind_to_existing_columns(e, schema);
    let group_exprs = group_by.iter().map(|(e, _)| bind(e)).collect();
    let agg_args = aggregates
        .iter()
        .map(|agg| {
            agg.arg
                .as_ref()
                .map(&bind)
                .unwrap_or(Expr::Literal(sdb_sql::ast::Literal::Int(1)))
        })
        .collect();
    (group_exprs, agg_args)
}

/// Groups one contiguous morsel of rows. The grouping expressions and every
/// aggregate argument become one column each ([`evaluate_exprs`]: shared
/// when the expression is a column reference, computed by a share kernel or
/// interpreted row by row, keys then arguments, otherwise) — the key columns
/// are hashed, and the row loop is a group lookup plus argument clones. Groups come back in first-occurrence order; each
/// group's argument values are in row order.
fn group_morsel(
    ctx: &ExecContext<'_>,
    shares: &ShareKernels,
    batch: &RecordBatch,
    group_exprs: &[Expr],
    agg_args: &[Expr],
) -> Result<Vec<GroupState>> {
    let exprs: Vec<&Expr> = group_exprs.iter().chain(agg_args).collect();
    let mut evaluated = evaluate_exprs(ctx, Some(shares), &exprs, batch, false)?;
    let mut args = evaluated.split_off(group_exprs.len());
    let keys = evaluated.into_iter().map(|key| key.into_column(batch));
    let keys = BatchKeys::new(keys.collect(), batch.num_rows());

    let mut groups = Groups::default();
    for (row, &hash) in keys.hashes.iter().enumerate() {
        let group = groups.find_or_insert(hash, keys.row(row), args.len());
        let state = &mut groups.states[group];
        state.rows += 1;
        for (acc, arg) in state.arg_values.iter_mut().zip(&mut args) {
            acc.push(arg.take(batch, row));
        }
    }
    Ok(groups.states)
}

/// Merges per-morsel group states in morsel order. Because morsels are
/// contiguous and processed in order, the merged groups are in global
/// first-occurrence order and each group's argument values stay in global row
/// order — exactly what a single [`group_morsel`] over the whole input
/// produces.
fn merge_group_states(parts: Vec<Vec<GroupState>>) -> Vec<GroupState> {
    let mut merged = Groups::default();
    for state in parts.into_iter().flatten() {
        let hash = hash_key(&state.key_values);
        let group = merged.find_or_insert(hash, state.key_values.iter(), state.arg_values.len());
        let target = &mut merged.states[group];
        target.rows += state.rows;
        for (acc, values) in target.arg_values.iter_mut().zip(state.arg_values) {
            acc.extend(values);
        }
    }
    merged.states
}

/// Computes the aggregate values for every group and assembles the output
/// batch (group columns then aggregate columns, types inferred from the
/// produced values). A global aggregate (no GROUP BY) over an empty input
/// still produces one row.
pub(super) fn finalize_groups(
    group_by: &[(Expr, String)],
    aggregates: &[AggregateExpr],
    group_exprs: &[Expr],
    mut groups: Vec<GroupState>,
    input_schema: &Schema,
) -> Result<RecordBatch> {
    if groups.is_empty() && group_exprs.is_empty() {
        groups.push(GroupState {
            key_values: vec![],
            rows: 0,
            arg_values: vec![Vec::new(); aggregates.len()],
        });
    }

    let mut out_rows: Vec<Vec<Value>> = Vec::with_capacity(groups.len());
    for state in groups {
        let mut out = state.key_values;
        for (agg, values) in aggregates.iter().zip(state.arg_values) {
            out.push(compute_aggregate(agg, state.rows, values)?);
        }
        out_rows.push(out);
    }

    // Output schema: group columns then aggregate columns.
    let mut defs = Vec::new();
    for (i, (_, name)) in group_by.iter().enumerate() {
        let values: Vec<Value> = out_rows.iter().map(|r| r[i].clone()).collect();
        defs.push(infer_column_def(
            name,
            &group_exprs[i],
            &values,
            input_schema,
        ));
    }
    for (j, agg) in aggregates.iter().enumerate() {
        let i = group_by.len() + j;
        let values: Vec<Value> = out_rows.iter().map(|r| r[i].clone()).collect();
        // Aggregate outputs take their type from the produced values (SUM
        // over INT is INT, AVG is DECIMAL(4), encrypted SUM is ENCRYPTED, …).
        let data_type = values
            .iter()
            .find_map(|v| v.data_type())
            .unwrap_or(DataType::Int);
        defs.push(ColumnDef {
            name: agg.name.clone(),
            data_type,
            sensitivity: sensitivity_of(data_type),
        });
    }
    RecordBatch::from_rows(Schema::new(defs), out_rows).map_err(Into::into)
}

/// Groups the input by the grouping expressions and evaluates one aggregate
/// per output column. A global aggregate (no GROUP BY) over an empty input
/// still produces one row.
///
/// The input is held in memory while it fits the memory budget, then split
/// into per-worker morsels via [`RecordBatch::partition`]: per-worker group
/// states accumulate on scoped threads (the expensive part — per-row
/// evaluation of grouping expressions and aggregate arguments) and merge in
/// morsel order at drain. Once the input overflows, its rows are evaluated
/// batch by batch and partitioned through the pager instead
/// ([`super::spill_aggregate`]). Either way the output is byte-identical to
/// one serial pass over the whole input.
///
/// Oracle-backed grouping expressions or aggregate arguments (e.g.
/// `SDB_GROUP_TAG` keys, encrypted `SDB_SUM` arguments) are materialised by an
/// [`super::oracle::OracleResolve`] child the planner inserts beneath this
/// operator, before any fan-out; the runtime binding pass turns them into
/// column references.
pub struct HashAggregate<'a> {
    pub(super) ctx: Arc<ExecContext<'a>>,
    pub(super) input: BoxedOperator<'a>,
    pub(super) group_by: Vec<(Expr, String)>,
    pub(super) aggregates: Vec<AggregateExpr>,
    pub(super) shares: Arc<ShareKernels>,
    done: bool,
}

impl<'a> HashAggregate<'a> {
    /// Creates an aggregation over `input`.
    pub fn new(
        ctx: Arc<ExecContext<'a>>,
        input: BoxedOperator<'a>,
        group_by: Vec<(Expr, String)>,
        aggregates: Vec<AggregateExpr>,
    ) -> Self {
        // The share arithmetic: grouping expressions and aggregate arguments.
        let keys = group_by.iter().map(|(expr, _)| expr);
        let args = aggregates.iter().filter_map(|agg| agg.arg.as_ref());
        HashAggregate {
            shares: ctx.share_kernels(keys.chain(args)),
            ctx,
            input,
            group_by,
            aggregates,
            done: false,
        }
    }

    /// Aggregates an input that fit the budget, fanning its morsels out.
    fn aggregate(&self, batch: RecordBatch) -> Result<RecordBatch> {
        let (group_exprs, agg_args) =
            bind_aggregate_exprs(&self.group_by, &self.aggregates, batch.schema());
        if let Some(out) =
            try_global_kernel(&self.ctx, &group_exprs, &self.aggregates, &agg_args, &batch)
        {
            return Ok(out);
        }
        let workers = effective_workers(self.ctx.config().parallelism, batch.num_rows());
        let groups = if workers <= 1 {
            group_morsel(&self.ctx, &self.shares, &batch, &group_exprs, &agg_args)?
        } else {
            let morsels = batch.partition(workers);
            let (ctx, shares) = (&self.ctx, &self.shares);
            let parts = scoped_workers(morsels.len(), |i| {
                group_morsel(ctx, shares, &morsels[i], &group_exprs, &agg_args)
            })?;
            merge_group_states(parts)
        };
        finalize_groups(
            &self.group_by,
            &self.aggregates,
            &group_exprs,
            groups,
            batch.schema(),
        )
    }
}

impl PhysicalOperator for HashAggregate<'_> {
    fn name(&self) -> &'static str {
        "HashAggregate"
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
        match hold_input(&self.ctx, self.input.as_mut())? {
            Held::Fit(batch) => self.aggregate(batch).map(Some),
            Held::Overflow(held) => self.spill(held).map(Some),
        }
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}

/// Global-aggregate kernel fast path of [`HashAggregate`]'s in-memory path:
/// with no GROUP BY and every aggregate in the [`GlobalAggKernel`] subset
/// (plain typed column arguments, no DISTINCT on SUM/AVG/COUNT), the whole
/// result computes as columnar folds — validity popcounts for COUNT, scaled
/// `i128` accumulation for SUM/AVG, index-tracked MIN/MAX. The emitted batch is byte-identical to
/// [`finalize_groups`]'s single-row output, including the empty-input row.
/// `None` → scalar path (which also owns every error surface).
fn try_global_kernel(
    ctx: &ExecContext<'_>,
    group_exprs: &[Expr],
    aggregates: &[AggregateExpr],
    agg_args: &[Expr],
    batch: &RecordBatch,
) -> Option<RecordBatch> {
    if !group_exprs.is_empty() {
        return None;
    }
    let out =
        GlobalAggKernel::compile(aggregates, agg_args, batch.schema())?.execute(aggregates, batch);
    if out.is_some() {
        // A kernel miss falls through to `group_morsel`, which counts the
        // scalar fallback itself — only the hit is recorded here.
        ctx.stats_mut().vectorised_batches += 1;
    }
    out
}

/// Computes one aggregate over the values of one group.
pub fn compute_aggregate(
    agg: &AggregateExpr,
    group_size: usize,
    values: Vec<Value>,
) -> Result<Value> {
    let non_null: Vec<Value> = values.into_iter().filter(|v| !v.is_null()).collect();
    let distinct_filter = |vals: Vec<Value>| -> Vec<Value> {
        if !agg.distinct {
            return vals;
        }
        let mut index = ChainIndex::default();
        let mut kept: Vec<Value> = Vec::new();
        for v in vals {
            let hash = hash_key([&v]);
            if !index.matches(hash).any(|seen| key_eq(&kept[seen], &v)) {
                index.insert(hash);
                kept.push(v);
            }
        }
        kept
    };

    match agg.func {
        AggFunc::Count => {
            if agg.arg.is_none() {
                Ok(Value::Int(group_size as i64))
            } else {
                Ok(Value::Int(distinct_filter(non_null).len() as i64))
            }
        }
        AggFunc::Sum => {
            let vals = distinct_filter(non_null);
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            if vals.iter().any(|v| matches!(v, Value::Encrypted(_))) {
                // Encrypted SUM: fold with plain big-integer addition. Each
                // share is a canonical residue, so the integer sum is congruent
                // to the modular sum; the proxy reduces modulo n on decryption.
                let mut acc = BigUint::from(0u32);
                for v in &vals {
                    acc += v.as_encrypted()?;
                }
                return Ok(Value::Encrypted(acc));
            }
            let scale = vals
                .iter()
                .map(|v| match v {
                    Value::Decimal { scale, .. } => *scale,
                    _ => 0,
                })
                .max()
                .unwrap_or(0);
            let mut acc: i128 = 0;
            for v in &vals {
                acc += v.as_scaled_i128(scale).map_err(EngineError::Storage)?;
            }
            if scale == 0 {
                Ok(Value::Int(acc as i64))
            } else {
                Ok(Value::Decimal {
                    units: acc as i64,
                    scale,
                })
            }
        }
        AggFunc::Avg => {
            let vals = distinct_filter(non_null);
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let mut acc: i128 = 0;
            for v in &vals {
                acc += v.as_scaled_i128(4).map_err(EngineError::Storage)?;
            }
            Ok(Value::Decimal {
                units: (acc / vals.len() as i128) as i64,
                scale: 4,
            })
        }
        AggFunc::Min => Ok(non_null
            .into_iter()
            .min_by(|a, b| a.cmp_total(b))
            .unwrap_or(Value::Null)),
        AggFunc::Max => Ok(non_null
            .into_iter()
            .max_by(|a, b| a.cmp_total(b))
            .unwrap_or(Value::Null)),
    }
}
