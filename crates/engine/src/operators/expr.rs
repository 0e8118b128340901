//! Expression-tree helpers shared by the physical operators — schema
//! binding, conjunct splitting, output-type inference — and the expression
//! seam: the one way anything evaluates expressions over a batch. Its two
//! entries, expressions to columns (`evaluate_exprs`) and a predicate to a
//! selection [`Bitmap`] (`select`), serve every operator, and the DO as
//! [`UdfRegistry::evaluate_columns`] / [`UdfRegistry::select_rows`]; each
//! call runs the kernels where they take the work, the interpreter
//! ([`crate::eval`]) otherwise, and is counted and clocked.

use std::time::Instant;

use sdb_sql::ast::{BinaryOp, Expr};
use sdb_storage::{
    Bitmap, Column, ColumnCells, ColumnDef, DataType, RecordBatch, Schema, Sensitivity, Value,
};

use super::ExecContext;
use crate::eval::{literal_to_value, Evaluator};
use crate::kernels::{CompiledPredicate, KernelWork, ShareKernels};
use crate::udf::UdfRegistry;
use crate::Result;

/// Replaces every subexpression whose rendered text names an existing input
/// column with a reference to that column.
///
/// This is how projections and sort keys above an aggregate re-use the
/// aggregate's group-expression outputs (whose column names are the rendered
/// expressions, e.g. `YEAR(o.o_orderdate)` or an `SDB_GROUP_TAG(…)` call), and
/// how expressions pick up the virtual columns materialised by the oracle
/// operator, instead of being re-evaluated against a schema that no longer
/// carries the original inputs.
pub fn bind_to_existing_columns(expr: &Expr, schema: &Schema) -> Expr {
    if !matches!(expr, Expr::Column(_) | Expr::Literal(_))
        && schema.index_of(&expr.to_string()).is_ok()
    {
        return Expr::Column(expr.to_string());
    }
    match expr {
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(bind_to_existing_columns(expr, schema)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(bind_to_existing_columns(left, schema)),
            op: *op,
            right: Box::new(bind_to_existing_columns(right, schema)),
        },
        Expr::Function {
            name,
            args,
            distinct,
            wildcard,
        } => Expr::Function {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| bind_to_existing_columns(a, schema))
                .collect(),
            distinct: *distinct,
            wildcard: *wildcard,
        },
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => Expr::Case {
            operand: operand
                .as_ref()
                .map(|o| Box::new(bind_to_existing_columns(o, schema))),
            branches: branches
                .iter()
                .map(|(w, t)| {
                    (
                        bind_to_existing_columns(w, schema),
                        bind_to_existing_columns(t, schema),
                    )
                })
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|e| Box::new(bind_to_existing_columns(e, schema))),
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(bind_to_existing_columns(expr, schema)),
            low: Box::new(bind_to_existing_columns(low, schema)),
            high: Box::new(bind_to_existing_columns(high, schema)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(bind_to_existing_columns(expr, schema)),
            list: list
                .iter()
                .map(|e| bind_to_existing_columns(e, schema))
                .collect(),
            negated: *negated,
        },
        other => other.clone(),
    }
}

/// Splits an AND-tree into its conjuncts.
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// Re-joins conjuncts into an AND-tree (inverse of [`split_conjuncts`]).
/// Returns `None` for an empty list.
pub fn conjoin(conjuncts: Vec<Expr>) -> Option<Expr> {
    conjuncts
        .into_iter()
        .reduce(|a, b| Expr::binary(a, BinaryOp::And, b))
}

/// If `conjunct` is `left_side_expr = right_side_expr` (in either order),
/// returns the pair oriented as (left-side key, right-side key). `left` and
/// `right` are name-resolution schemas of the two join inputs.
pub fn classify_equi_conjunct(
    conjunct: &Expr,
    left: &Schema,
    right: &Schema,
) -> Option<(Expr, Expr)> {
    let Expr::Binary {
        left: a,
        op: BinaryOp::Eq,
        right: b,
    } = conjunct
    else {
        return None;
    };
    let side = |e: &Expr| -> Option<bool> {
        // true = resolves entirely against the left schema, false = right.
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        if cols.is_empty() {
            return None;
        }
        if cols.iter().all(|c| left.index_of(c).is_ok()) {
            Some(true)
        } else if cols.iter().all(|c| right.index_of(c).is_ok()) {
            Some(false)
        } else {
            None
        }
    };
    match (side(a), side(b)) {
        (Some(true), Some(false)) => Some((a.as_ref().clone(), b.as_ref().clone())),
        (Some(false), Some(true)) => Some((b.as_ref().clone(), a.as_ref().clone())),
        _ => None,
    }
}

/// The values of one expression over a whole batch.
pub(super) enum ExprColumn {
    /// The expression is a reference to this input column: shared, not
    /// copied.
    Input(usize),
    /// One value per row.
    Values(Vec<Value>),
    /// A computed column: the share kernels' output.
    Computed(Column),
}

impl ExprColumn {
    /// The values as a column: the input's own (an `Arc` bump), the
    /// kernels', or the computed values under the type of the first non-NULL
    /// one.
    pub(super) fn into_column(self, batch: &RecordBatch) -> Column {
        match self {
            ExprColumn::Input(idx) => batch.column(idx).clone(),
            ExprColumn::Computed(column) => column,
            ExprColumn::Values(values) => {
                let data_type = values.iter().find_map(Value::data_type);
                Column::from_values_unchecked(data_type.unwrap_or(DataType::Int), values)
            }
        }
    }

    /// The cells, borrowed: the input's, the computed values or the
    /// kernels' limbs.
    pub(super) fn cells<'c>(&'c self, batch: &'c RecordBatch) -> ColumnCells<'c> {
        match self {
            ExprColumn::Input(idx) => batch.column(*idx).cells(),
            ExprColumn::Values(values) => ColumnCells::Values(values),
            ExprColumn::Computed(column) => column.cells(),
        }
    }

    /// The value in row `row`: the input's, cloned, or the computed one —
    /// for this row alone, often a share — moved out (read each row once).
    pub(super) fn take(&mut self, batch: &RecordBatch, row: usize) -> Value {
        match self {
            ExprColumn::Input(idx) => batch.column(*idx).value(row).into_owned(),
            ExprColumn::Values(values) => std::mem::replace(&mut values[row], Value::Null),
            ExprColumn::Computed(column) => column.value(row).into_owned(),
        }
    }
}

/// The input column `expr` refers to, when it is a resolvable reference.
pub(super) fn input_column(expr: &Expr, schema: &Schema) -> Option<usize> {
    match expr {
        Expr::Column(name) => schema.index_of(name).ok(),
        _ => None,
    }
}

/// A seam call's output, whether a row went through the interpreter, and
/// the share kernels' work.
type Served<T> = (T, bool, KernelWork);

/// One call of the seam: builds its evaluator (the query's subqueries and
/// call sites, the operator's key-update sets) and runs `body` with it; for
/// a query, then records the call's counts, a vectorised batch or a scalar
/// fallback, and its wall time.
#[allow(clippy::disallowed_methods)]
fn seam<'e, T>(
    registry: &'e UdfRegistry,
    ctx: Option<&'e ExecContext<'_>>,
    shares: Option<&'e ShareKernels>,
    body: impl FnOnce(&Evaluator<'e>) -> Result<Served<T>>,
) -> Result<T> {
    let started = Instant::now();
    let mut evaluator = Evaluator::new(registry);
    if let Some(ctx) = ctx {
        evaluator = (evaluator.with_subqueries(ctx)).with_query_sites(ctx.udf_sites());
    }
    if let Some(shares) = shares {
        evaluator = evaluator.with_key_updates(shares.key_updates());
    }
    let (value, interpreted, kernel) = body(&evaluator)?;
    if let Some(ctx) = ctx {
        ctx.record_seam(&evaluator, interpreted, &kernel, started.elapsed());
    }
    Ok(value)
}

/// The value entry: evaluates `exprs` over every row of `batch`, one
/// [`ExprColumn`] each — how every operator evaluates expressions. A column
/// reference costs nothing per row and a literal one clone; an expression of
/// share arithmetic goes to the operator's share kernels (`shares`) when
/// they take it and the batch; everything else goes through the interpreter
/// row by row — every expression of a row before the next row's, which is
/// what key-update sets require — so errors and UDF counts are those of
/// evaluating each row in turn. The kernels decline any batch whose cells
/// would make the interpreter fail, so their share of the work cannot fail:
/// the first error is the interpreter's.
///
/// With `null_ends_row` (join keys, where a NULL component already decides
/// that the row matches nothing) the expressions after a row's first NULL
/// are not evaluated and read NULL.
pub(super) fn evaluate_exprs<'e>(
    ctx: &'e ExecContext<'_>,
    shares: Option<&'e ShareKernels>,
    exprs: &[&'e Expr],
    batch: &RecordBatch,
    null_ends_row: bool,
) -> Result<Vec<ExprColumn>> {
    seam(ctx.registry(), Some(ctx), shares, |evaluator| {
        columns(evaluator, shares, exprs, batch, null_ends_row)
    })
}

/// The predicate entry: the rows of `batch` for which `predicate` is true
/// (NULL drops the row) — how every operator filters. A predicate the
/// selection kernel compiles (infallible and UDF-free) and whose columns it
/// reads skips the interpreter; any other is interpreted row by row.
pub(super) fn select<'e>(
    ctx: &'e ExecContext<'_>,
    predicate: &'e Expr,
    batch: &RecordBatch,
) -> Result<Bitmap> {
    seam(ctx.registry(), Some(ctx), None, |evaluator| {
        selection(evaluator, predicate, batch)
    })
}

/// The seam outside a query (the DO's post-processing): nothing recorded.
impl UdfRegistry {
    /// The value entry: `exprs` over `batch`, one column each (a computed
    /// one typed by its first non-NULL value, else INT).
    pub fn evaluate_columns(&self, exprs: &[&Expr], batch: &RecordBatch) -> Result<Vec<Column>> {
        let columns = seam(self, None, None, |evaluator| {
            columns(evaluator, None, exprs, batch, false)
        })?;
        Ok(columns.into_iter().map(|c| c.into_column(batch)).collect())
    }

    /// The predicate entry: the rows of `batch` `predicate` keeps.
    pub fn select_rows(&self, predicate: &Expr, batch: &RecordBatch) -> Result<Bitmap> {
        seam(self, None, None, |evaluator| {
            selection(evaluator, predicate, batch)
        })
    }
}

/// The value entry's work (what is not interpreted is a column reference, a
/// literal or a share kernel's).
fn columns<'e>(
    evaluator: &Evaluator<'e>,
    shares: Option<&ShareKernels>,
    exprs: &[&'e Expr],
    batch: &RecordBatch,
    null_ends_row: bool,
) -> Result<Served<Vec<ExprColumn>>> {
    let rows = batch.num_rows();
    let mut interpreted = Vec::with_capacity(exprs.len());
    let mut out = Vec::with_capacity(exprs.len());
    for expr in exprs {
        let ready = match expr {
            Expr::Literal(literal) => {
                Some(ExprColumn::Values(vec![literal_to_value(literal); rows]))
            }
            expr => input_column(expr, batch.schema()).map(ExprColumn::Input),
        };
        interpreted.push(ready.is_none());
        out.push(ready.unwrap_or_else(|| ExprColumn::Values(Vec::with_capacity(rows))));
    }
    let kernel = match (shares, interpreted.contains(&true) && !null_ends_row) {
        (Some(shares), true) => shares.batch(evaluator.registry(), exprs, &interpreted, batch),
        _ => None,
    };
    if let Some(kernel) = &kernel {
        for (i, interpreted) in interpreted.iter_mut().enumerate() {
            *interpreted &= !kernel.serves(i);
        }
    }
    let any_interpreted = interpreted.contains(&true);
    if any_interpreted {
        interpret(
            evaluator,
            exprs,
            batch,
            null_ends_row,
            &interpreted,
            &mut out,
        )?;
    }
    let mut work = KernelWork::default();
    if let Some(kernel) = kernel {
        let (computed, done) = kernel.run();
        for (i, shares) in computed {
            out[i] = ExprColumn::Computed(Column::from_shares(DataType::Encrypted, shares));
        }
        work = done;
    }
    Ok((out, any_interpreted, work))
}

/// The row-by-row part of [`columns`]: fills the `interpreted`
/// expressions' columns of `out`.
fn interpret<'e>(
    evaluator: &Evaluator<'e>,
    exprs: &[&'e Expr],
    batch: &RecordBatch,
    null_ends_row: bool,
    interpreted: &[bool],
    out: &mut [ExprColumn],
) -> Result<()> {
    for row in 0..batch.num_rows() {
        let mut ended = false;
        for (i, expr) in exprs.iter().enumerate() {
            let null = match &mut out[i] {
                ExprColumn::Values(values) if interpreted[i] => {
                    let value = match ended {
                        true => Value::Null,
                        false => evaluator.evaluate(expr, batch, row)?,
                    };
                    values.push(value);
                    values[row].is_null()
                }
                _ if !null_ends_row => continue,
                ExprColumn::Values(values) => values[row].is_null(),
                ExprColumn::Input(idx) => batch.column(*idx).is_null(row),
                ExprColumn::Computed(column) => column.is_null(row),
            };
            ended |= null_ends_row && null;
        }
    }
    Ok(())
}

/// The predicate entry's work.
fn selection<'e>(
    evaluator: &Evaluator<'e>,
    predicate: &'e Expr,
    batch: &RecordBatch,
) -> Result<Served<Bitmap>> {
    let compiled = CompiledPredicate::compile(predicate, batch.schema());
    if let Some(selection) = compiled.and_then(|compiled| compiled.selection(batch)) {
        return Ok((selection, false, KernelWork::default()));
    }
    let mut mask = Vec::with_capacity(batch.num_rows());
    for row in 0..batch.num_rows() {
        mask.push(evaluator.evaluate_predicate(predicate, batch, row)?);
    }
    Ok((Bitmap::from_bools(&mask), true, KernelWork::default()))
}

/// The string payload of a literal expression, if it is one.
pub fn literal_string(expr: &Expr) -> Option<String> {
    match expr {
        Expr::Literal(sdb_sql::ast::Literal::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Appends a virtual column (e.g. a resolved oracle call) to a batch.
pub fn append_virtual_column(
    batch: &RecordBatch,
    def: ColumnDef,
    values: Vec<Value>,
) -> Result<RecordBatch> {
    let mut defs = batch.schema().columns().to_vec();
    defs.push(def.clone());
    let mut columns = batch.columns().to_vec();
    // Virtual columns may mix NULLs with typed values; unchecked since the
    // values come from the oracle response mapping.
    columns.push(Column::from_values_unchecked(def.data_type, values));
    RecordBatch::new(Schema::new(defs), columns).map_err(Into::into)
}

/// Infers the output column definition for a computed column from its
/// expression and produced values.
pub fn infer_column_def(name: &str, expr: &Expr, values: &[Value], input: &Schema) -> ColumnDef {
    // A bare column reference keeps its input definition (type and sensitivity).
    if let Expr::Column(col) = expr {
        if let Ok(idx) = input.index_of(col) {
            let def = input.column_at(idx);
            return ColumnDef {
                name: name.to_string(),
                data_type: def.data_type,
                sensitivity: def.sensitivity,
            };
        }
    }
    let data_type = values
        .iter()
        .find_map(|v| v.data_type())
        .unwrap_or(DataType::Int);
    ColumnDef {
        name: name.to_string(),
        data_type,
        sensitivity: sensitivity_of(data_type),
    }
}

/// Sensitivity classification for a produced column of the given type.
pub fn sensitivity_of(data_type: DataType) -> Sensitivity {
    if data_type.is_encrypted() && data_type != DataType::Tag {
        Sensitivity::Sensitive
    } else {
        Sensitivity::Public
    }
}
