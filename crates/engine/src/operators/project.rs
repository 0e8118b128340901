//! Projection: expression evaluation into named output columns.

use std::collections::VecDeque;
use std::sync::Arc;

use sdb_sql::ast::Expr;
use sdb_sql::plan::ProjectionItem;
use sdb_storage::{Column, ColumnDef, RecordBatch, Schema};

use super::expr::{
    bind_to_existing_columns, evaluate_exprs, infer_column_def, sensitivity_of, ExprColumn,
};
use super::{BoxedOperator, ExecContext, PhysicalOperator};
use crate::kernels::ShareKernels;
use crate::Result;

/// One processed-but-not-yet-emitted batch: every output column as
/// evaluated — the raw values of a real expression are typed only at
/// emission time.
struct StagedBatch {
    /// The batch the items were evaluated over: an output column that is
    /// one of its columns shares that column at emission.
    input: RecordBatch,
    /// The output columns in order: a wildcard's input columns and each
    /// named item.
    columns: Vec<ExprColumn>,
}

/// Evaluates projection items against each input batch. A wildcard's
/// columns, and an item that binds to an input column, share that column's
/// buffer under the input's type and sensitivity; real expressions go
/// through `evaluate_exprs` (share kernels, else the interpreter row by
/// row).
///
/// Computed-column types are inferred from produced values. To keep the
/// output schema stable across batches, the first *concrete* inference per
/// column (a non-NULL value, or an input column) is locked and reused;
/// batches whose computed values are still all-NULL are staged until a
/// concrete type arrives (or the input ends), so an all-NULL leading batch
/// can no longer disagree with a typed later batch.
///
/// `virtual_columns` names the oracle virtual columns materialised by an
/// [`super::oracle::OracleResolve`] child; wildcard expansion skips them so
/// `SELECT *` output matches the logical input schema.
pub struct Project<'a> {
    ctx: Arc<ExecContext<'a>>,
    input: BoxedOperator<'a>,
    items: Vec<ProjectionItem>,
    virtual_columns: Vec<String>,
    /// The share arithmetic of the computed items.
    shares: Arc<ShareKernels>,
    /// Concrete defs locked in for each output column, once known.
    locked: Vec<Option<ColumnDef>>,
    /// The output column names (refreshed per batch; stable because the
    /// input schema is).
    names: Vec<String>,
    /// Batches staged while some computed column is still type-ambiguous.
    staged: VecDeque<StagedBatch>,
    /// Fully-typed batches ready for emission.
    ready: VecDeque<RecordBatch>,
    input_done: bool,
}

impl<'a> Project<'a> {
    /// Creates a projection over `input`.
    pub fn new(
        ctx: Arc<ExecContext<'a>>,
        input: BoxedOperator<'a>,
        items: Vec<ProjectionItem>,
        virtual_columns: Vec<String>,
    ) -> Self {
        let shares = ctx.share_kernels(items.iter().filter_map(|item| match item {
            ProjectionItem::Named { expr, .. } => Some(expr),
            ProjectionItem::Wildcard => None,
        }));
        Project {
            ctx,
            input,
            shares,
            items,
            virtual_columns,
            locked: Vec::new(),
            names: Vec::new(),
            staged: VecDeque::new(),
            ready: VecDeque::new(),
            input_done: false,
        }
    }

    /// Evaluates the projection over one input batch and stages the result.
    fn stage_batch(&mut self, batch: RecordBatch) -> Result<()> {
        let schema = batch.schema();
        // Expressions that literally name an input column (e.g. the
        // projection of a GROUP BY expression such as `YEAR(d)` above an
        // aggregate whose output column is named "YEAR(d)", or a resolved
        // oracle call) bind to that column instead of being re-evaluated.
        let exprs: Vec<Expr> = (self.items.iter())
            .filter_map(|item| match item {
                ProjectionItem::Named { expr, .. } => Some(bind_to_existing_columns(expr, schema)),
                ProjectionItem::Wildcard => None,
            })
            .collect();
        let exprs_ref: Vec<&Expr> = exprs.iter().collect();
        let computed = evaluate_exprs(&self.ctx, Some(&self.shares), &exprs_ref, &batch, false)?;

        // The output columns in order, each with the expression it came
        // from (`None`: a wildcard's input column).
        let mut computed = computed.into_iter().zip(&exprs);
        let mut columns = Vec::new();
        self.names.clear();
        for item in &self.items {
            match item {
                ProjectionItem::Wildcard => {
                    for (i, def) in schema.columns().iter().enumerate() {
                        let is_virtual = (self.virtual_columns.iter())
                            .any(|v| v.eq_ignore_ascii_case(&def.name));
                        if !is_virtual {
                            self.names.push(def.name.clone());
                            columns.push((ExprColumn::Input(i), None));
                        }
                    }
                }
                ProjectionItem::Named { name, .. } => {
                    let (column, expr) = computed.next().expect("one column per named item");
                    self.names.push(name.clone());
                    columns.push((column, Some(expr)));
                }
            }
        }

        // Lock in concrete defs: an input column is concrete even with no
        // rows; otherwise the first non-NULL value decides.
        self.locked.resize(columns.len(), None);
        for (i, (column, expr)) in columns.iter().enumerate() {
            let name = &self.names[i];
            self.locked[i] = match (self.locked[i].take(), column) {
                (Some(locked), _) => Some(locked),
                (None, ExprColumn::Input(idx)) => Some(ColumnDef {
                    name: name.clone(),
                    ..schema.column_at(*idx).clone()
                }),
                (None, ExprColumn::Values(values)) => (values.iter().any(|v| !v.is_null()))
                    .then(|| infer_column_def(name, expr.expect("computed"), values, schema)),
                (None, ExprColumn::Computed(column)) => (0..column.len())
                    .any(|row| !column.is_null(row))
                    .then(|| ColumnDef {
                        name: name.clone(),
                        data_type: column.data_type(),
                        sensitivity: sensitivity_of(column.data_type()),
                    }),
            };
        }

        let columns = columns.into_iter().map(|(column, _)| column).collect();
        self.staged.push_back(StagedBatch {
            input: batch,
            columns,
        });
        Ok(())
    }

    /// True when every output column has a locked (concrete) type.
    fn types_settled(&self) -> bool {
        self.locked.iter().all(Option::is_some)
    }

    /// Converts all staged batches into ready record batches, typing weak
    /// (never-concrete) columns with the historical Int default.
    fn flush_staged(&mut self) -> Result<()> {
        while let Some(staged) = self.staged.pop_front() {
            let mut defs = Vec::new();
            let mut columns = Vec::new();
            for (i, evaluated) in staged.columns.into_iter().enumerate() {
                let def = match &self.locked[i] {
                    Some(locked) => locked.clone(),
                    // Never saw a concrete value anywhere: fall back to the
                    // historical all-NULL default.
                    None => ColumnDef::public(&self.names[i], sdb_storage::DataType::Int),
                };
                columns.push(match evaluated {
                    ExprColumn::Input(idx) => staged.input.column(idx).clone(),
                    ExprColumn::Values(values) => Column::from_values(def.data_type, values)?,
                    ExprColumn::Computed(column) if column.data_type() == def.data_type => column,
                    ExprColumn::Computed(column) => {
                        Column::from_values(def.data_type, column.to_values())?
                    }
                });
                defs.push(def);
            }
            self.ready
                .push_back(RecordBatch::new(Schema::new(defs), columns)?);
        }
        Ok(())
    }
}

impl PhysicalOperator for Project<'_> {
    fn name(&self) -> &'static str {
        "Project"
    }

    fn describe(&self) -> String {
        format!("{}({})", self.name(), self.input.describe())
    }

    fn open(&mut self) -> Result<()> {
        self.locked.clear();
        self.staged.clear();
        self.ready.clear();
        self.input_done = false;
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        loop {
            if let Some(batch) = self.ready.pop_front() {
                return Ok(Some(batch));
            }
            if self.input_done {
                return Ok(None);
            }
            match self.input.next_batch()? {
                None => {
                    self.input_done = true;
                    self.flush_staged()?;
                }
                Some(batch) => {
                    self.stage_batch(batch)?;
                    if self.types_settled() {
                        self.flush_staged()?;
                    }
                }
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}
