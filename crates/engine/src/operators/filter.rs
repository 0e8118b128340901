//! Row filtering.

use std::sync::Arc;

use sdb_sql::ast::Expr;
use sdb_storage::RecordBatch;

use super::expr::{bind_to_existing_columns, select};
use super::{BoxedOperator, ExecContext, PhysicalOperator};
use crate::Result;

/// Keeps the rows for which `predicate` evaluates to true (NULL drops the
/// row, per SQL semantics): one call of the seam's predicate entry per
/// batch.
///
/// Oracle-backed calls inside the predicate are materialised by an
/// [`super::oracle::OracleResolve`] child the planner inserts beneath this
/// operator; the runtime binding pass then turns those calls into references
/// to the virtual columns. The virtual columns stay in the output batch (they
/// are stripped by the projection above, exactly as in the monolithic
/// executor this pipeline replaced).
pub struct Filter<'a> {
    ctx: Arc<ExecContext<'a>>,
    input: BoxedOperator<'a>,
    predicate: Expr,
}

impl<'a> Filter<'a> {
    /// Creates a filter over `input`.
    pub fn new(ctx: Arc<ExecContext<'a>>, input: BoxedOperator<'a>, predicate: Expr) -> Self {
        Filter {
            ctx,
            input,
            predicate,
        }
    }
}

impl PhysicalOperator for Filter<'_> {
    fn name(&self) -> &'static str {
        "Filter"
    }

    fn describe(&self) -> String {
        format!("{}({})", self.name(), self.input.describe())
    }

    fn open(&mut self) -> Result<()> {
        self.input.open()
    }

    fn next_batch(&mut self) -> Result<Option<RecordBatch>> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        let bound = bind_to_existing_columns(&self.predicate, batch.schema());
        let selection = select(&self.ctx, &bound, &batch)?;
        batch
            .filter_bitmap(&selection)
            .map(Some)
            .map_err(Into::into)
    }

    fn close(&mut self) -> Result<()> {
        self.input.close()
    }
}
