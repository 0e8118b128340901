//! Projection: expression evaluation into named output columns.

use std::collections::VecDeque;
use std::sync::Arc;

use sdb_sql::ast::Expr;
use sdb_sql::plan::ProjectionItem;
use sdb_storage::{Column, ColumnDef, RecordBatch, Schema};

use super::expr::{bind_to_existing_columns, evaluate_exprs, infer_column_def, ExprColumn};
use super::{BoxedOperator, ExecContext, PhysicalOperator};
use crate::kernels::ShareKernels;
use crate::Result;

enum Output {
    /// Pass an input column through unchanged (wildcard expansion).
    Passthrough(usize),
    /// Evaluate expression `index` under the given output name.
    Computed { index: usize, name: String },
}

/// One processed-but-not-yet-emitted batch: passthrough columns plus each
/// named item as evaluated — the raw values of a real expression are typed
/// only at emission time.
struct StagedBatch {
    passthrough: Vec<(ColumnDef, Column)>,
    /// The batch the items were evaluated over: an item that is a reference
    /// to one of its columns shares that column at emission.
    input: RecordBatch,
    computed: Vec<ExprColumn>,
}

/// Evaluates projection items against each input batch. An item that binds
/// to an input column shares that column's buffer, under the input's type
/// and sensitivity; real expressions go through `evaluate_exprs` (share
/// kernels, else the interpreter row by row).
///
/// Computed-column types are inferred from produced values. To keep the
/// output schema stable across batches, the first *concrete* inference per
/// column (a non-NULL value, or a direct column reference) is locked and
/// reused; batches whose computed values are still all-NULL are staged until
/// a concrete type arrives (or the input ends), so an all-NULL leading batch
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
    /// Concrete defs locked in for each computed expression, once known.
    locked: Vec<Option<ColumnDef>>,
    /// Batches staged while some computed column is still type-ambiguous.
    staged: VecDeque<StagedBatch>,
    /// Fully-typed batches ready for emission.
    ready: VecDeque<RecordBatch>,
    /// The interleaving of passthrough and computed outputs (stable across
    /// batches because the input schema is stable; refreshed per batch).
    output_order: Vec<Output>,
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
        let computed_count = items
            .iter()
            .filter(|item| matches!(item, ProjectionItem::Named { .. }))
            .count();
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
            locked: vec![None; computed_count],
            staged: VecDeque::new(),
            ready: VecDeque::new(),
            output_order: Vec::new(),
            input_done: false,
        }
    }

    /// Evaluates the projection over one input batch and stages the result.
    fn stage_batch(&mut self, batch: RecordBatch) -> Result<()> {
        let mut outputs = Vec::new();
        let mut exprs = Vec::new();
        for item in &self.items {
            match item {
                ProjectionItem::Wildcard => {
                    for (i, def) in batch.schema().columns().iter().enumerate() {
                        if self
                            .virtual_columns
                            .iter()
                            .any(|v| v.eq_ignore_ascii_case(&def.name))
                        {
                            continue;
                        }
                        outputs.push(Output::Passthrough(i));
                    }
                }
                ProjectionItem::Named { expr, name } => {
                    outputs.push(Output::Computed {
                        index: exprs.len(),
                        name: name.clone(),
                    });
                    // Expressions that literally name an input column (e.g. the
                    // projection of a GROUP BY expression such as `YEAR(d)` above
                    // an aggregate whose output column is named "YEAR(d)", or a
                    // resolved oracle call) bind to that column instead of being
                    // re-evaluated.
                    exprs.push(bind_to_existing_columns(expr, batch.schema()));
                }
            }
        }

        let evaluator = self
            .ctx
            .evaluator()
            .with_key_updates(self.shares.key_updates());
        let exprs_ref: Vec<&Expr> = exprs.iter().collect();
        let computed = evaluate_exprs(&evaluator, Some(&self.shares), &exprs_ref, &batch, false)?;
        let computed = computed.columns;
        self.ctx.record_udf_calls(&evaluator);

        // Lock in concrete defs: a direct column reference is concrete even
        // with no rows; otherwise the first non-NULL value decides.
        let mut computed_names = vec![String::new(); exprs.len()];
        for output in &outputs {
            if let Output::Computed { index, name } = output {
                computed_names[*index] = name.clone();
            }
        }
        for (i, expr) in exprs.iter().enumerate() {
            if self.locked[i].is_some() {
                continue;
            }
            let values = match &computed[i] {
                ExprColumn::Input(_) => &[][..],
                ExprColumn::Values(values) => values,
            };
            let is_concrete =
                matches!(computed[i], ExprColumn::Input(_)) || values.iter().any(|v| !v.is_null());
            if is_concrete {
                let def = infer_column_def(&computed_names[i], expr, values, batch.schema());
                self.locked[i] = Some(def);
            }
        }

        let mut passthrough = Vec::new();
        for output in &outputs {
            if let Output::Passthrough(i) = output {
                passthrough.push((
                    batch.schema().column_at(*i).clone(),
                    batch.column(*i).clone(),
                ));
            }
        }
        self.staged.push_back(StagedBatch {
            passthrough,
            input: batch,
            computed,
        });
        self.output_order = outputs;
        Ok(())
    }

    /// True when every computed column has a locked (concrete) type.
    fn types_settled(&self) -> bool {
        self.locked.iter().all(Option::is_some)
    }

    /// Converts all staged batches into ready record batches, typing weak
    /// (never-concrete) columns with the historical Int default.
    fn flush_staged(&mut self) -> Result<()> {
        while let Some(staged) = self.staged.pop_front() {
            let mut defs = Vec::new();
            let mut columns = Vec::new();
            let mut passthrough = staged.passthrough.into_iter();
            let mut computed: Vec<Option<ExprColumn>> =
                staged.computed.into_iter().map(Some).collect();
            for output in &self.output_order {
                match output {
                    Output::Passthrough(_) => {
                        let (def, column) = passthrough.next().expect("passthrough count fixed");
                        defs.push(def);
                        columns.push(column);
                    }
                    Output::Computed { index, name } => {
                        let evaluated = computed[*index].take().expect("each computed used once");
                        let def = match &self.locked[*index] {
                            Some(locked) => locked.clone(),
                            // Never saw a concrete value anywhere: fall back to
                            // the historical all-NULL default.
                            None => ColumnDef::public(name, sdb_storage::DataType::Int),
                        };
                        columns.push(match evaluated {
                            ExprColumn::Input(idx) => staged.input.column(idx).clone(),
                            ExprColumn::Values(values) => {
                                Column::from_values(def.data_type, values)?
                            }
                        });
                        defs.push(def);
                    }
                }
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
        self.locked = vec![None; self.locked.len()];
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
