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

use std::collections::HashMap;
use std::sync::Arc;

use num_bigint::BigUint;
use sdb_sql::ast::Expr;
use sdb_sql::plan::{AggFunc, AggregateExpr};
use sdb_storage::{ColumnDef, DataType, RecordBatch, Schema, Value};

use super::expr::{infer_column_def, join_key_component, sensitivity_of};
use super::parallel::{effective_workers, scoped_workers};
use super::{materialize_input, BoxedOperator, ExecContext, PhysicalOperator};
use crate::eval::literal_to_value;
use crate::kernels::{GlobalAggKernel, KeyColumns};
use crate::udf::KeyUpdateSets;
use crate::{EngineError, Result};

/// Per-group accumulation state: the rendered key, the group-key values, the
/// number of rows seen and each aggregate's argument values in row order.
/// Shared with [`super::spill_aggregate::SpillingHashAggregate`], which
/// rebuilds these states from spilled partition rows.
pub(super) struct GroupState {
    pub(super) key: String,
    pub(super) key_values: Vec<Value>,
    pub(super) rows: usize,
    pub(super) arg_values: Vec<Vec<Value>>,
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

/// Groups one contiguous morsel of rows, evaluating the grouping expressions
/// and every aggregate argument per row. Groups come back in first-occurrence
/// order; each group's argument values are in row order.
fn group_morsel(
    ctx: &ExecContext<'_>,
    key_updates: &KeyUpdateSets,
    batch: &RecordBatch,
    group_exprs: &[Expr],
    agg_args: &[Expr],
) -> Result<Vec<GroupState>> {
    if ctx.vectorised() {
        if let Some(groups) = group_morsel_vectorised(batch, group_exprs, agg_args) {
            ctx.stats_mut().vectorised_batches += 1;
            return Ok(groups);
        }
    }
    ctx.stats_mut().scalar_fallback_batches += 1;
    let evaluator = ctx.evaluator().with_key_updates(key_updates);
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut groups: Vec<GroupState> = Vec::new();
    for row in 0..batch.num_rows() {
        let mut key_values = Vec::with_capacity(group_exprs.len());
        for e in group_exprs {
            key_values.push(evaluator.evaluate(e, batch, row)?);
        }
        let key: String = key_values
            .iter()
            .map(join_key_component)
            .collect::<Vec<_>>()
            .join("\u{1f}");
        let g = match index.get(&key) {
            Some(&g) => g,
            None => {
                index.insert(key.clone(), groups.len());
                groups.push(GroupState {
                    key,
                    key_values,
                    rows: 0,
                    arg_values: vec![Vec::new(); agg_args.len()],
                });
                groups.len() - 1
            }
        };
        groups[g].rows += 1;
        for (j, arg) in agg_args.iter().enumerate() {
            groups[g].arg_values[j].push(evaluator.evaluate(arg, batch, row)?);
        }
    }
    ctx.record_udf_calls(&evaluator);
    Ok(groups)
}

/// One aggregate-argument source in the vectorised grouping path.
enum ArgSource {
    Col(usize),
    Lit(Value),
}

/// Kernel fast path for [`group_morsel`]: when every grouping expression is a
/// plain column over typed vectors and every aggregate argument is a plain
/// column or literal, the group keys render in one vectorised pass
/// ([`KeyColumns::group_keys`]) and the per-row loop reduces to group lookup
/// plus argument clones — no interpreter dispatch. Group order (global
/// first-occurrence), per-group argument row order and rendered keys are
/// byte-identical to the scalar loop; plain columns and literals never touch
/// UDFs, so the skipped `record_udf_calls` would have recorded zero. `None`
/// (out-of-subset expression or untyped column) → scalar loop.
fn group_morsel_vectorised(
    batch: &RecordBatch,
    group_exprs: &[Expr],
    agg_args: &[Expr],
) -> Option<Vec<GroupState>> {
    let key_columns = KeyColumns::compile(group_exprs, batch.schema())?;
    let keys = key_columns.group_keys(batch)?;
    let mut args = Vec::with_capacity(agg_args.len());
    for arg in agg_args {
        args.push(match arg {
            Expr::Column(name) => ArgSource::Col(batch.schema().index_of(name).ok()?),
            Expr::Literal(lit) => ArgSource::Lit(literal_to_value(lit)),
            _ => return None,
        });
    }

    let mut index: HashMap<String, usize> = HashMap::new();
    let mut groups: Vec<GroupState> = Vec::new();
    for (row, key) in keys.into_iter().enumerate() {
        let g = match index.get(&key) {
            Some(&g) => g,
            None => {
                let key_values = key_columns
                    .indices()
                    .iter()
                    .map(|&c| batch.column(c).get(row).clone())
                    .collect();
                index.insert(key.clone(), groups.len());
                groups.push(GroupState {
                    key,
                    key_values,
                    rows: 0,
                    arg_values: vec![Vec::new(); agg_args.len()],
                });
                groups.len() - 1
            }
        };
        groups[g].rows += 1;
        for (j, arg) in args.iter().enumerate() {
            groups[g].arg_values[j].push(match arg {
                ArgSource::Col(c) => batch.column(*c).get(row).clone(),
                ArgSource::Lit(v) => v.clone(),
            });
        }
    }
    Some(groups)
}

/// Merges per-morsel group states in morsel order. Because morsels are
/// contiguous and processed in order, the merged groups are in global
/// first-occurrence order and each group's argument values stay in global row
/// order — exactly what a single [`group_morsel`] over the whole input
/// produces.
fn merge_group_states(parts: Vec<Vec<GroupState>>) -> Vec<GroupState> {
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut merged: Vec<GroupState> = Vec::new();
    for part in parts {
        for state in part {
            match index.get(&state.key) {
                Some(&g) => {
                    let target = &mut merged[g];
                    target.rows += state.rows;
                    for (acc, values) in target.arg_values.iter_mut().zip(state.arg_values) {
                        acc.extend(values);
                    }
                }
                None => {
                    index.insert(state.key.clone(), merged.len());
                    merged.push(state);
                }
            }
        }
    }
    merged
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
            key: String::new(),
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
        let mut seen = std::collections::HashSet::new();
        vals.into_iter()
            .filter(|v| seen.insert(join_key_component(v)))
            .collect()
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
