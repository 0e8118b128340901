//! Hash aggregation with grouping: the serial operator and its partitioned
//! parallel variant.
//!
//! Both operators share the same building blocks so their output is
//! byte-identical: `group_morsel` folds a contiguous run of rows into
//! per-group states (group-key values plus the evaluated argument values of
//! every aggregate, in row order), `merge_group_states` combines per-morsel
//! states in morsel order (preserving global first-occurrence group order and
//! global row order within each group), and `finalize_groups` computes the
//! aggregate values and infers the output schema.

use std::sync::Arc;

use num_bigint::BigUint;
use sdb_sql::ast::Expr;
use sdb_sql::plan::{AggFunc, AggregateExpr};
use sdb_storage::{ColumnDef, DataType, RecordBatch, Schema, Value};

use super::expr::{evaluate_exprs, infer_column_def, input_column, sensitivity_of, ExprColumn};
use super::parallel::{effective_workers, scoped_workers};
use super::{materialize_input, BoxedOperator, ExecContext, PhysicalOperator};
use crate::kernels::GlobalAggKernel;
use crate::udf::KeyUpdateSets;
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
/// group). Shared with [`super::spill_aggregate::SpillingHashAggregate`],
/// which rebuilds states from spilled partition rows.
#[derive(Default)]
pub(super) struct Groups {
    pub(super) states: Vec<GroupState>,
    index: ChainIndex,
}

impl Groups {
    /// The position of the group whose key is `key` (hashing to `hash`),
    /// appended — with the key cloned and `aggregates` empty argument lists —
    /// if this is its first occurrence.
    pub(super) fn find_or_insert<'v>(
        &mut self,
        hash: u64,
        key: impl Iterator<Item = &'v Value> + Clone,
        aggregates: usize,
    ) -> usize {
        let states = &self.states;
        let found = (self.index.matches(hash))
            .find(|&group| keys_eq(&states[group].key_values, key.clone()));
        found.unwrap_or_else(|| {
            self.states.push(GroupState {
                key_values: key.cloned().collect(),
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

/// The key-update sets of an aggregation: every `SDB_KEY_UPDATE` among its
/// grouping expressions and aggregate arguments.
pub(super) fn aggregate_key_updates(
    ctx: &ExecContext<'_>,
    group_by: &[(Expr, String)],
    aggregates: &[AggregateExpr],
) -> Arc<KeyUpdateSets> {
    let keys = group_by.iter().map(|(expr, _)| expr);
    ctx.key_update_sets(keys.chain(aggregates.iter().filter_map(|agg| agg.arg.as_ref())))
}

/// Groups one contiguous morsel of rows. The grouping expressions and every
/// aggregate argument become one column each — shared when the expression is
/// a column reference, interpreted row by row (keys, then arguments)
/// otherwise — the key columns are hashed, and the row loop is a group lookup
/// plus argument clones. Groups come back in first-occurrence order; each
/// group's argument values are in row order.
fn group_morsel(
    ctx: &ExecContext<'_>,
    key_updates: &KeyUpdateSets,
    batch: &RecordBatch,
    group_exprs: &[Expr],
    agg_args: &[Expr],
) -> Result<Vec<GroupState>> {
    let exprs: Vec<&Expr> = group_exprs.iter().chain(agg_args).collect();
    let interpreted = (exprs.iter())
        .any(|e| !matches!(e, Expr::Literal(_)) && input_column(e, batch.schema()).is_none());
    ctx.record_key_batch(interpreted);
    let evaluator = ctx.evaluator().with_key_updates(key_updates);
    let mut evaluated = evaluate_exprs(&evaluator, &exprs, batch, false)?;
    ctx.record_udf_calls(&evaluator);
    let mut args = evaluated.split_off(group_exprs.len());
    let keys = evaluated.into_iter().map(|key| key.into_column(batch));
    let keys = BatchKeys::new(keys.collect(), batch.num_rows());

    let mut groups = Groups::default();
    for (row, &hash) in keys.hashes.iter().enumerate() {
        let group = groups.find_or_insert(hash, keys.row(row), args.len());
        let state = &mut groups.states[group];
        state.rows += 1;
        for (acc, arg) in state.arg_values.iter_mut().zip(&mut args) {
            acc.push(match arg {
                ExprColumn::Input(idx) => batch.column(*idx).get(row).clone(),
                // Computed for this row alone (often a share): moved, not cloned.
                ExprColumn::Values(values) => std::mem::replace(&mut values[row], Value::Null),
            });
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

/// Groups the materialised input by the grouping expressions and evaluates one
/// aggregate per output column. A global aggregate (no GROUP BY) over an empty
/// input still produces one row.
///
/// Oracle-backed grouping expressions or aggregate arguments (e.g.
/// `SDB_GROUP_TAG` keys, encrypted `SDB_SUM` arguments) are materialised by an
/// [`super::oracle::OracleResolve`] child the planner inserts beneath this
/// operator; the runtime binding pass turns them into column references.
pub struct HashAggregate<'a> {
    ctx: Arc<ExecContext<'a>>,
    input: BoxedOperator<'a>,
    group_by: Vec<(Expr, String)>,
    aggregates: Vec<AggregateExpr>,
    key_updates: Arc<KeyUpdateSets>,
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
        HashAggregate {
            key_updates: aggregate_key_updates(&ctx, &group_by, &aggregates),
            ctx,
            input,
            group_by,
            aggregates,
            done: false,
        }
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

        let batch = materialize_input(self.input.as_mut())?
            .unwrap_or_else(|| RecordBatch::empty(Schema::empty()));
        let (group_exprs, agg_args) =
            bind_aggregate_exprs(&self.group_by, &self.aggregates, batch.schema());
        if let Some(out) =
            try_global_kernel(&self.ctx, &group_exprs, &self.aggregates, &agg_args, &batch)
        {
            return Ok(Some(out));
        }
        let groups = group_morsel(
            &self.ctx,
            &self.key_updates,
            &batch,
            &group_exprs,
            &agg_args,
        )?;
        finalize_groups(
            &self.group_by,
            &self.aggregates,
            &group_exprs,
            groups,
            batch.schema(),
        )
        .map(Some)
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}

/// Partitioned parallel hash aggregation: splits the materialised input into
/// per-worker morsels via [`RecordBatch::partition`], accumulates per-worker
/// group states on scoped threads (the expensive part — per-row evaluation of
/// grouping expressions and aggregate arguments), and merges the states in
/// morsel order at drain. Output is byte-identical to [`HashAggregate`].
///
/// Oracle round trips stay serial: the [`super::oracle::OracleResolve`] child
/// the planner inserts beneath this operator resolves while the input is
/// being materialised, before any fan-out.
pub struct ParallelHashAggregate<'a> {
    ctx: Arc<ExecContext<'a>>,
    input: BoxedOperator<'a>,
    group_by: Vec<(Expr, String)>,
    aggregates: Vec<AggregateExpr>,
    key_updates: Arc<KeyUpdateSets>,
    done: bool,
}

impl<'a> ParallelHashAggregate<'a> {
    /// Creates a parallel aggregation over `input`.
    pub fn new(
        ctx: Arc<ExecContext<'a>>,
        input: BoxedOperator<'a>,
        group_by: Vec<(Expr, String)>,
        aggregates: Vec<AggregateExpr>,
    ) -> Self {
        ParallelHashAggregate {
            key_updates: aggregate_key_updates(&ctx, &group_by, &aggregates),
            ctx,
            input,
            group_by,
            aggregates,
            done: false,
        }
    }
}

impl PhysicalOperator for ParallelHashAggregate<'_> {
    fn name(&self) -> &'static str {
        "ParallelHashAggregate"
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

        let batch = materialize_input(self.input.as_mut())?
            .unwrap_or_else(|| RecordBatch::empty(Schema::empty()));
        let (group_exprs, agg_args) =
            bind_aggregate_exprs(&self.group_by, &self.aggregates, batch.schema());
        if let Some(out) =
            try_global_kernel(&self.ctx, &group_exprs, &self.aggregates, &agg_args, &batch)
        {
            return Ok(Some(out));
        }

        let workers = effective_workers(self.ctx.parallelism(), batch.num_rows());
        let groups = if workers <= 1 {
            group_morsel(
                &self.ctx,
                &self.key_updates,
                &batch,
                &group_exprs,
                &agg_args,
            )?
        } else {
            let morsels = batch.partition(workers);
            let ctx = &self.ctx;
            let key_updates = &self.key_updates;
            let group_exprs = &group_exprs;
            let agg_args = &agg_args;
            let parts = scoped_workers(morsels.len(), |i| {
                group_morsel(ctx, key_updates, &morsels[i], group_exprs, agg_args)
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
        .map(Some)
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}

/// Global-aggregate kernel fast path shared by [`HashAggregate`] and
/// [`ParallelHashAggregate`]: with no GROUP BY and every aggregate in the
/// [`GlobalAggKernel`] subset (plain typed column arguments, no DISTINCT on
/// SUM/AVG/COUNT), the whole result computes as columnar folds — validity
/// popcounts for COUNT, scaled `i128` accumulation for SUM/AVG, index-tracked
/// MIN/MAX. The emitted batch is byte-identical to
/// [`finalize_groups`]'s single-row output, including the empty-input row.
/// `None` → scalar path (which also owns every error surface).
fn try_global_kernel(
    ctx: &ExecContext<'_>,
    group_exprs: &[Expr],
    aggregates: &[AggregateExpr],
    agg_args: &[Expr],
    batch: &RecordBatch,
) -> Option<RecordBatch> {
    if !ctx.vectorised() || !group_exprs.is_empty() {
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
