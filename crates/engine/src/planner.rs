//! Lowers [`LogicalPlan`]s into physical-operator trees.
//!
//! The planner is deliberately thin: operator selection (hash vs nested-loop
//! join, serial vs parallel variants), oracle-call placement ([`OracleResolve`]
//! children under the operators whose expressions need interactive protocol
//! steps), name-resolution schemas for join-key classification and the
//! columns each scan reads. Runtime concerns — expression binding, type
//! inference, the actual oracle round trips — live in the operators
//! themselves.
//!
//! When the context's `parallelism` knob is above one, aggregations lower to
//! [`ParallelHashAggregate`] (a morsel-parallel variant with byte-identical
//! output); [`HashJoin`] parallelises its build side internally under the
//! same knob. A scan is the one [`TableScan`] at every parallelism.
//!
//! Three further rules:
//!
//! * **Plain conjuncts first** — a filter whose predicate mixes oracle-free
//!   and oracle-backed conjuncts lowers to `Filter → OracleResolve → Filter`:
//!   the oracle-free conjuncts run below the [`OracleResolve`], so only the
//!   rows they keep are key-updated, blinded and shipped to the proxy.
//! * **Bounded memory** — with a limited
//!   [`MemoryBudget`](sdb_storage::MemoryBudget) on the context, `Sort`
//!   lowers to [`ExternalSort`], `Aggregate` to [`SpillingHashAggregate`]
//!   and hash equi-joins to [`GraceHashJoin`], which spill through the pager
//!   instead of materialising; their output is byte-identical to the
//!   in-memory operators. (LEFT JOINs with residual ON conjuncts still take
//!   the nested-loop path under a budget — residuals decide matching there,
//!   and both plans must agree.)
//! * **Column pruning** — lowering carries down the column names referenced
//!   above each node; a projection without a wildcard and an aggregate start
//!   the list afresh (everything above them names *their* output), every
//!   other node adds its own expressions. A scan reads the columns a listed
//!   name can resolve to. With a wildcard, or nothing but the plan root,
//!   above it, a scan reads every column.

use std::sync::Arc;

use sdb_sql::ast::{Expr, JoinKind};
use sdb_sql::plan::{LogicalPlan, ProjectionItem};
use sdb_storage::{ColumnDef, DataType, RecordBatch, Schema};

use crate::operators::aggregate::{HashAggregate, ParallelHashAggregate};
use crate::operators::expr::{classify_equi_conjunct, conjoin, split_conjuncts};
use crate::operators::external_sort::ExternalSort;
use crate::operators::filter::Filter;
use crate::operators::grace_join::GraceHashJoin;
use crate::operators::join::{HashJoin, NestedLoopJoin};
use crate::operators::oracle::{collect_oracle_calls_all, OracleResolve};
use crate::operators::project::Project;
use crate::operators::scan::{qualified, TableScan};
use crate::operators::sort::{Distinct, Limit, Sort};
use crate::operators::spill_aggregate::SpillingHashAggregate;
use crate::operators::{BoxedOperator, ExecContext};
use crate::Result;

/// Plans physical execution for one query against a shared [`ExecContext`].
pub struct PhysicalPlanner<'a> {
    ctx: Arc<ExecContext<'a>>,
    /// Trace spans of lowered-but-not-yet-consumed operators, in lowering
    /// order. `lower` works bottom-up and left-to-right, so when an operator
    /// is created its direct inputs' spans are exactly the stack's tail —
    /// [`Self::instrument`] pops them as the new span's children. Unused
    /// (and empty) when tracing is off. `RefCell`: planning is
    /// single-threaded.
    pending_spans: std::cell::RefCell<Vec<crate::trace::SpanId>>,
    /// Whether scans read only referenced columns: always, except in the
    /// all-columns reference plans this module's tests build.
    prune: bool,
}

impl<'a> PhysicalPlanner<'a> {
    /// Creates a planner over the given context.
    pub fn new(ctx: Arc<ExecContext<'a>>) -> Self {
        PhysicalPlanner {
            ctx,
            pending_spans: std::cell::RefCell::new(Vec::new()),
            prune: true,
        }
    }

    /// When tracing is on, registers a span for `op` (adopting the last
    /// `arity` pending spans as its children) and wraps `op` in an
    /// [`crate::trace::InstrumentedOperator`]. A no-op returning `op`
    /// unchanged when tracing is off — untraced plans carry zero
    /// instrumentation.
    fn instrument(
        &self,
        op: BoxedOperator<'a>,
        arity: usize,
        est_rows: Option<f64>,
    ) -> BoxedOperator<'a> {
        let Some(trace) = self.ctx.trace() else {
            return op;
        };
        let children = {
            let mut pending = self.pending_spans.borrow_mut();
            let split = pending.len() - arity;
            pending.split_off(split)
        };
        let span = trace.begin_span(op.name(), children, est_rows);
        self.pending_spans.borrow_mut().push(span);
        Box::new(crate::trace::InstrumentedOperator::new(
            op,
            Arc::clone(&self.ctx),
            Arc::clone(trace),
            span,
        ))
    }

    /// The optimizer's cardinality estimate for `plan`, for
    /// estimate-vs-actual annotation of the node's span. Only computed when
    /// tracing is on; `None` when no statistics exist (`ANALYZE` not run).
    fn estimate(&self, plan: &LogicalPlan) -> Option<f64> {
        self.ctx.trace()?;
        crate::optimizer::cardinality::Estimator::new(self.ctx.catalog()).rows(plan)
    }

    /// Lowers a logical plan into an executable operator tree.
    pub fn plan(&self, plan: &LogicalPlan) -> Result<BoxedOperator<'a>> {
        self.lower(plan, &None).map(|(op, _)| op)
    }

    /// Recursive lowering; returns the operator plus a *name-resolution
    /// schema* (column names with placeholder types) used to classify join
    /// keys by side. Oracle virtual columns are not part of these schemas —
    /// raw plans reference oracle steps as function calls, never by their
    /// materialised column names.
    ///
    /// `referenced` lists the column names the nodes above reference in
    /// this node's output (`None`: all of it is wanted); the scans below
    /// read only what a listed name can resolve to.
    fn lower(
        &self,
        plan: &LogicalPlan,
        referenced: &Referenced,
    ) -> Result<(BoxedOperator<'a>, Schema)> {
        match plan {
            LogicalPlan::Scan { table, alias } => {
                // Resolve the table at plan time: missing tables fail before
                // execution starts, and the scan's qualified names feed join
                // classification above.
                let handle = self.ctx.catalog().table(table)?;
                let visible = alias.as_deref().unwrap_or(table);
                let names = qualified(visible, handle.read().schema());
                let scan = TableScan::new(Arc::clone(&self.ctx), table, alias.as_deref())
                    .reading(referenced.clone().filter(|_| self.prune));
                Ok((
                    self.instrument(Box::new(scan), 0, self.estimate(plan)),
                    names,
                ))
            }

            LogicalPlan::Filter { input, predicate } => {
                let below = also_referencing(referenced, [predicate]);
                let (child, schema) = self.lower(input, &below)?;
                Ok((self.filter(child, predicate, self.estimate(plan)), schema))
            }

            LogicalPlan::Project { input, items } => {
                let computed: Vec<Expr> = items
                    .iter()
                    .filter_map(|item| match item {
                        ProjectionItem::Named { expr, .. } => Some(expr.clone()),
                        ProjectionItem::Wildcard => None,
                    })
                    .collect();
                let below = if computed.len() == items.len() {
                    also_referencing(&Some(Vec::new()), &computed)
                } else {
                    None
                };
                let (child, schema) = self.lower(input, &below)?;
                let calls = collect_oracle_calls_all(&computed);
                let virtual_columns: Vec<String> = calls
                    .iter()
                    .map(|c| c.to_string().to_ascii_lowercase())
                    .collect();
                let child = self.wrap_calls(child, calls);

                let mut names = Vec::new();
                for item in items {
                    match item {
                        ProjectionItem::Wildcard => {
                            names.extend(schema.columns().iter().cloned());
                        }
                        ProjectionItem::Named { name, .. } => {
                            names.push(placeholder_column(name));
                        }
                    }
                }
                let project =
                    Project::new(Arc::clone(&self.ctx), child, items.clone(), virtual_columns);
                Ok((
                    self.instrument(Box::new(project), 1, self.estimate(plan)),
                    Schema::new(names),
                ))
            }

            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
            } => {
                let below = also_referencing(referenced, on);
                let (left_op, left_schema) = self.lower(left, &below)?;
                let (right_op, right_schema) = self.lower(right, &below)?;
                let combined = left_schema.join(&right_schema);

                // Split the ON condition into hash-joinable equality pairs and
                // a residual predicate applied above the join.
                let mut left_keys: Vec<Expr> = Vec::new();
                let mut right_keys: Vec<Expr> = Vec::new();
                let mut residual: Vec<Expr> = Vec::new();
                if let Some(on) = on {
                    for conjunct in split_conjuncts(on) {
                        match classify_equi_conjunct(&conjunct, &left_schema, &right_schema) {
                            Some((l, r)) => {
                                left_keys.push(l);
                                right_keys.push(r);
                            }
                            None => residual.push(conjunct),
                        }
                    }
                }

                // A LEFT JOIN's residual ON conjuncts decide *matching*, not
                // post-join filtering: a filter above the join would drop the
                // null-padded rows it is supposed to keep. The nested-loop
                // operator evaluates the full ON inside the match loop and
                // pads correctly, so LEFT JOINs with residuals take that path.
                let est = self.estimate(plan);
                let residual_left_join = *kind == JoinKind::Left && !residual.is_empty();
                if left_keys.is_empty() || residual_left_join {
                    let join = NestedLoopJoin::new(
                        Arc::clone(&self.ctx),
                        left_op,
                        right_op,
                        *kind,
                        on.clone(),
                    );
                    return Ok((self.instrument(Box::new(join), 2, est), combined));
                }

                // With a limited budget the build side must not materialise
                // unboundedly: the Grace-style spilling join partitions both
                // sides through the pager on overflow, byte-identical output.
                let join: BoxedOperator<'a> = if self.ctx.memory_budget().is_limited() {
                    Box::new(GraceHashJoin::new(
                        Arc::clone(&self.ctx),
                        left_op,
                        right_op,
                        *kind,
                        left_keys,
                        right_keys,
                    ))
                } else {
                    Box::new(HashJoin::new(
                        Arc::clone(&self.ctx),
                        left_op,
                        right_op,
                        *kind,
                        left_keys,
                        right_keys,
                    ))
                };
                // Residual conjuncts become an ordinary filter above the join
                // (oracle-backed residuals resolve there like any predicate).
                // The plan node's estimate annotates the arm's topmost
                // operator — the residual filter's output is the node's
                // output when one exists.
                let residual_pred = conjoin(residual);
                let join =
                    self.instrument(join, 2, if residual_pred.is_some() { None } else { est });
                let op = match residual_pred {
                    Some(predicate) => self.filter(join, &predicate, est),
                    None => join,
                };
                Ok((op, combined))
            }

            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let mut exprs: Vec<Expr> = group_by.iter().map(|(e, _)| e.clone()).collect();
                exprs.extend(aggregates.iter().filter_map(|a| a.arg.clone()));
                let (child, _) = self.lower(input, &also_referencing(&Some(Vec::new()), &exprs))?;
                let child = self.with_oracle_resolve(child, &exprs);

                let mut names: Vec<ColumnDef> = group_by
                    .iter()
                    .map(|(_, name)| placeholder_column(name))
                    .collect();
                names.extend(aggregates.iter().map(|a| placeholder_column(&a.name)));
                let budgeted = self.ctx.memory_budget().is_limited();
                let aggregate: BoxedOperator<'a> = if budgeted {
                    Box::new(SpillingHashAggregate::new(
                        Arc::clone(&self.ctx),
                        child,
                        group_by.clone(),
                        aggregates.clone(),
                    ))
                } else if self.ctx.parallelism() > 1 {
                    Box::new(ParallelHashAggregate::new(
                        Arc::clone(&self.ctx),
                        child,
                        group_by.clone(),
                        aggregates.clone(),
                    ))
                } else {
                    Box::new(HashAggregate::new(
                        Arc::clone(&self.ctx),
                        child,
                        group_by.clone(),
                        aggregates.clone(),
                    ))
                };
                Ok((
                    self.instrument(aggregate, 1, self.estimate(plan)),
                    Schema::new(names),
                ))
            }

            LogicalPlan::Sort { input, keys } => {
                let exprs: Vec<Expr> = keys.iter().map(|k| k.expr.clone()).collect();
                let (child, schema) = self.lower(input, &also_referencing(referenced, &exprs))?;
                let child = self.with_oracle_resolve(child, &exprs);
                let sort: BoxedOperator<'a> = if self.ctx.memory_budget().is_limited() {
                    Box::new(ExternalSort::new(
                        Arc::clone(&self.ctx),
                        child,
                        keys.clone(),
                    ))
                } else {
                    Box::new(Sort::new(Arc::clone(&self.ctx), child, keys.clone()))
                };
                Ok((self.instrument(sort, 1, self.estimate(plan)), schema))
            }

            LogicalPlan::Distinct { input } => {
                let (child, schema) = self.lower(input, referenced)?;
                Ok((
                    self.instrument(Box::new(Distinct::new(child)), 1, self.estimate(plan)),
                    schema,
                ))
            }

            LogicalPlan::Limit { input, n } => {
                let (child, schema) = self.lower(input, referenced)?;
                Ok((
                    self.instrument(
                        Box::new(Limit::new(child, *n as usize)),
                        1,
                        self.estimate(plan),
                    ),
                    schema,
                ))
            }
        }
    }

    /// Filters `child` by `predicate`; `est_rows` annotates the result. A
    /// conjunction of oracle-free and oracle-backed conjuncts becomes
    /// `Filter → OracleResolve → Filter`: the oracle-free ones run first, so
    /// only the rows they keep are key-updated, blinded and shipped. The same
    /// rows come out — a conjunction is true iff every conjunct is.
    fn filter(
        &self,
        mut child: BoxedOperator<'a>,
        predicate: &Expr,
        est_rows: Option<f64>,
    ) -> BoxedOperator<'a> {
        let mut predicate = predicate.clone();
        let calls = collect_oracle_calls_all(std::slice::from_ref(&predicate));
        if !calls.is_empty() {
            let (plain, oracle_backed): (Vec<Expr>, Vec<Expr>) = split_conjuncts(&predicate)
                .into_iter()
                .partition(|c| collect_oracle_calls_all(std::slice::from_ref(c)).is_empty());
            if let Some(first) = conjoin(plain) {
                let first = Filter::new(Arc::clone(&self.ctx), child, first);
                child = self.instrument(Box::new(first), 1, None);
                predicate = conjoin(oracle_backed).expect("some conjunct holds the calls");
            }
        }
        let child = self.wrap_calls(child, calls);
        let filter = Filter::new(Arc::clone(&self.ctx), child, predicate);
        self.instrument(Box::new(filter), 1, est_rows)
    }

    /// Wraps `child` in an [`OracleResolve`] operator when `exprs` contain
    /// oracle-backed calls.
    fn with_oracle_resolve(&self, child: BoxedOperator<'a>, exprs: &[Expr]) -> BoxedOperator<'a> {
        self.wrap_calls(child, collect_oracle_calls_all(exprs))
    }

    fn wrap_calls(&self, child: BoxedOperator<'a>, calls: Vec<Expr>) -> BoxedOperator<'a> {
        if calls.is_empty() {
            child
        } else {
            self.instrument(
                Box::new(OracleResolve::new(Arc::clone(&self.ctx), child, calls)),
                1,
                None,
            )
        }
    }
}

/// The column names referenced above a plan node, as written (`None`: the
/// node's whole output is wanted).
type Referenced = Option<Vec<String>>;

/// `referenced` plus every column `exprs` name.
fn also_referencing<'e>(
    referenced: &Referenced,
    exprs: impl IntoIterator<Item = &'e Expr>,
) -> Referenced {
    let mut names = referenced.clone()?;
    for expr in exprs {
        expr.referenced_columns(&mut names);
    }
    Some(names)
}

/// A name-only column entry for the planner's resolution schemas.
fn placeholder_column(name: &str) -> ColumnDef {
    ColumnDef::public(name, DataType::Int)
}

/// Plans and executes a logical plan to completion, concatenating all output
/// batches and recording `rows_returned`. When the context's optimizer is on,
/// the logical plan passes through the cost-based optimizer first.
pub fn execute_plan<'a>(ctx: &Arc<ExecContext<'a>>, plan: &LogicalPlan) -> Result<RecordBatch> {
    let optimized;
    let plan = if ctx.optimizer_enabled() {
        optimized = ctx.optimizer().optimize(plan);
        &optimized
    } else {
        plan
    };
    let mut root = PhysicalPlanner::new(Arc::clone(ctx)).plan(plan)?;
    let batch = crate::operators::drain_operator(root.as_mut())?;
    ctx.stats_mut().rows_returned = batch.num_rows();
    Ok(batch)
}

#[cfg(test)]
mod tests {
    //! End-to-end pipeline tests: SQL → logical plan → physical operators.
    //! (Carried over from the monolithic executor this pipeline replaced.)

    use super::*;
    use crate::secure::OracleRef;
    use crate::udf::UdfRegistry;
    use crate::{EngineError, ExecConfig};
    use sdb_sql::plan::PlanBuilder;
    use sdb_sql::{parse_sql, Statement};
    use sdb_storage::{Catalog, Value};

    /// A context under `config` on a private pool.
    pub(super) fn context<'a>(
        catalog: &'a Catalog,
        registry: &'a UdfRegistry,
        oracle: Option<OracleRef>,
        config: ExecConfig,
    ) -> Arc<ExecContext<'a>> {
        Arc::new(ExecContext::new(
            catalog, registry, oracle, config, None, None,
        ))
    }

    pub(super) fn setup_catalog() -> Catalog {
        let catalog = Catalog::new();
        let emp_schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::public("name", DataType::Varchar),
            ColumnDef::public("dept_id", DataType::Int),
            ColumnDef::public("salary", DataType::Int),
        ]);
        let emp = catalog.create_table("emp", emp_schema).unwrap();
        {
            let mut t = emp.write();
            for (id, name, dept, salary) in [
                (1, "ann", 10, 100),
                (2, "bob", 10, 200),
                (3, "cat", 20, 300),
                (4, "dan", 20, 400),
                (5, "eve", 30, 500),
            ] {
                t.insert_row(vec![
                    Value::Int(id),
                    Value::Str(name.into()),
                    Value::Int(dept),
                    Value::Int(salary),
                ])
                .unwrap();
            }
        }
        let dept_schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::public("dept_name", DataType::Varchar),
        ]);
        let dept = catalog.create_table("dept", dept_schema).unwrap();
        {
            let mut t = dept.write();
            for (id, name) in [(10, "eng"), (20, "ops"), (40, "hr")] {
                t.insert_row(vec![Value::Int(id), Value::Str(name.into())])
                    .unwrap();
            }
        }
        catalog
    }

    pub(super) fn parse_query(sql: &str) -> sdb_sql::ast::Query {
        match parse_sql(sql).unwrap() {
            Statement::Query(q) => q,
            other => panic!("expected query, got {other:?}"),
        }
    }

    /// Runs `sql` under the given batch size so the multi-batch paths get
    /// exercised alongside the single-batch default.
    fn run_batched(catalog: &Catalog, sql: &str, batch_size: usize) -> RecordBatch {
        let registry = UdfRegistry::with_sdb_udfs();
        let ctx = context(
            catalog,
            &registry,
            None,
            ExecConfig {
                batch_size,
                ..ExecConfig::default()
            },
        );
        let plan = PlanBuilder::build(&parse_query(sql)).unwrap();
        execute_plan(&ctx, &plan).unwrap_or_else(|e| panic!("query failed: {sql}: {e}"))
    }

    fn run(catalog: &Catalog, sql: &str) -> RecordBatch {
        let single = run_batched(catalog, sql, crate::operators::DEFAULT_BATCH_SIZE);
        // The same query chunked into 2-row batches must agree (ORDER BY
        // queries are deterministic; others in this suite are order-stable
        // because every operator preserves input order).
        let chunked = run_batched(catalog, sql, 2);
        assert_eq!(
            single, chunked,
            "batched execution diverged from single-batch for: {sql}"
        );
        single
    }

    #[test]
    fn scan_and_project() {
        let catalog = setup_catalog();
        let batch = run(&catalog, "SELECT name, salary * 2 AS double_pay FROM emp");
        assert_eq!(batch.num_rows(), 5);
        assert_eq!(batch.schema().column_at(1).name, "double_pay");
        assert_eq!(batch.column(1).get(0), &Value::Int(200));
    }

    #[test]
    fn filter_rows() {
        let catalog = setup_catalog();
        let batch = run(
            &catalog,
            "SELECT name FROM emp WHERE salary > 250 AND dept_id = 20",
        );
        assert_eq!(batch.num_rows(), 2);
        let names: Vec<String> = batch
            .column(0)
            .values()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["cat", "dan"]);
    }

    #[test]
    fn wildcard_select() {
        let catalog = setup_catalog();
        let batch = run(&catalog, "SELECT * FROM emp WHERE id = 1");
        assert_eq!(batch.num_rows(), 1);
        assert_eq!(batch.num_columns(), 4);
        assert_eq!(batch.schema().column_at(0).name, "emp.id");
    }

    #[test]
    fn inner_join() {
        let catalog = setup_catalog();
        let batch = run(
            &catalog,
            "SELECT e.name, d.dept_name FROM emp e JOIN dept d ON e.dept_id = d.id ORDER BY e.name",
        );
        assert_eq!(batch.num_rows(), 4); // eve's dept 30 has no match
        assert_eq!(batch.column(1).get(0).as_str().unwrap(), "eng");
    }

    #[test]
    fn left_join_pads_nulls() {
        let catalog = setup_catalog();
        let batch = run(
            &catalog,
            "SELECT e.name, d.dept_name FROM emp e LEFT JOIN dept d ON e.dept_id = d.id ORDER BY e.id",
        );
        assert_eq!(batch.num_rows(), 5);
        assert!(batch.column(1).get(4).is_null());
    }

    #[test]
    fn implicit_join_with_where() {
        let catalog = setup_catalog();
        let batch = run(
            &catalog,
            "SELECT e.name FROM emp e, dept d WHERE e.dept_id = d.id AND d.dept_name = 'ops' ORDER BY e.name",
        );
        assert_eq!(batch.num_rows(), 2);
    }

    #[test]
    fn group_by_aggregates() {
        let catalog = setup_catalog();
        let batch = run(
            &catalog,
            "SELECT dept_id, COUNT(*) AS c, SUM(salary) AS total, AVG(salary) AS mean, MIN(salary) AS lo, MAX(salary) AS hi FROM emp GROUP BY dept_id ORDER BY dept_id",
        );
        assert_eq!(batch.num_rows(), 3);
        // dept 10: count 2, sum 300, avg 150, min 100, max 200
        assert_eq!(batch.column(1).get(0), &Value::Int(2));
        assert_eq!(batch.column(2).get(0), &Value::Int(300));
        assert_eq!(
            batch.column(3).get(0),
            &Value::Decimal {
                units: 1_500_000,
                scale: 4
            }
        );
        assert_eq!(batch.column(4).get(0), &Value::Int(100));
        assert_eq!(batch.column(5).get(0), &Value::Int(200));
    }

    #[test]
    fn global_aggregate_and_having() {
        let catalog = setup_catalog();
        let batch = run(&catalog, "SELECT COUNT(*) AS n, SUM(salary) AS s FROM emp");
        assert_eq!(batch.num_rows(), 1);
        assert_eq!(batch.column(0).get(0), &Value::Int(5));
        assert_eq!(batch.column(1).get(0), &Value::Int(1500));

        let batch = run(
            &catalog,
            "SELECT dept_id, SUM(salary) AS s FROM emp GROUP BY dept_id HAVING SUM(salary) > 400 ORDER BY s DESC",
        );
        assert_eq!(batch.num_rows(), 2);
        assert_eq!(batch.column(1).get(0), &Value::Int(700));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let catalog = setup_catalog();
        let batch = run(
            &catalog,
            "SELECT COUNT(*) AS n, SUM(salary) AS s FROM emp WHERE id > 99",
        );
        assert_eq!(batch.num_rows(), 1);
        assert_eq!(batch.column(0).get(0), &Value::Int(0));
        assert!(batch.column(1).get(0).is_null());
    }

    #[test]
    fn order_limit_distinct() {
        let catalog = setup_catalog();
        let batch = run(
            &catalog,
            "SELECT salary FROM emp ORDER BY salary DESC LIMIT 2",
        );
        assert_eq!(batch.num_rows(), 2);
        assert_eq!(batch.column(0).get(0), &Value::Int(500));

        let batch = run(
            &catalog,
            "SELECT DISTINCT dept_id FROM emp ORDER BY dept_id",
        );
        assert_eq!(batch.num_rows(), 3);
    }

    #[test]
    fn count_distinct() {
        let catalog = setup_catalog();
        let batch = run(&catalog, "SELECT COUNT(DISTINCT dept_id) AS d FROM emp");
        assert_eq!(batch.column(0).get(0), &Value::Int(3));
    }

    #[test]
    fn in_subquery_and_scalar_subquery() {
        let catalog = setup_catalog();
        let batch = run(
            &catalog,
            "SELECT name FROM emp WHERE dept_id IN (SELECT id FROM dept WHERE dept_name = 'eng')",
        );
        assert_eq!(batch.num_rows(), 2);

        let batch = run(
            &catalog,
            "SELECT name FROM emp WHERE salary > (SELECT AVG(salary) FROM emp) ORDER BY name",
        );
        assert_eq!(batch.num_rows(), 2); // 400 and 500 above the mean of 300
    }

    #[test]
    fn exists_subquery() {
        let catalog = setup_catalog();
        let batch = run(
            &catalog,
            "SELECT dept_name FROM dept WHERE EXISTS (SELECT 1 FROM emp WHERE salary > 1000)",
        );
        assert_eq!(batch.num_rows(), 0);
        let batch = run(
            &catalog,
            "SELECT dept_name FROM dept WHERE EXISTS (SELECT 1 FROM emp WHERE salary > 400)",
        );
        assert_eq!(batch.num_rows(), 3);
    }

    #[test]
    fn case_in_aggregation() {
        let catalog = setup_catalog();
        let batch = run(
            &catalog,
            "SELECT SUM(CASE WHEN dept_id = 10 THEN salary ELSE 0 END) AS eng_total FROM emp",
        );
        assert_eq!(batch.column(0).get(0), &Value::Int(300));
    }

    #[test]
    fn stats_track_scans_and_rows() {
        let catalog = setup_catalog();
        let registry = UdfRegistry::with_sdb_udfs();
        let ctx = context(&catalog, &registry, None, ExecConfig::default());
        let plan =
            PlanBuilder::build(&parse_query("SELECT * FROM emp WHERE salary > 250")).unwrap();
        let batch = execute_plan(&ctx, &plan).unwrap();
        let stats = ctx.stats();
        assert_eq!(stats.rows_scanned, 5);
        assert_eq!(stats.rows_returned, batch.num_rows());
        assert_eq!(stats.oracle_round_trips, 0);
    }

    #[test]
    fn missing_table_and_column_errors() {
        let catalog = setup_catalog();
        let registry = UdfRegistry::with_sdb_udfs();
        let ctx = context(&catalog, &registry, None, ExecConfig::default());
        let plan = PlanBuilder::build(&parse_query("SELECT * FROM nope")).unwrap();
        assert!(execute_plan(&ctx, &plan).is_err());

        let plan = PlanBuilder::build(&parse_query("SELECT ghost FROM emp")).unwrap();
        assert!(execute_plan(&ctx, &plan).is_err());
    }

    #[test]
    fn oracle_required_for_secure_comparison() {
        let catalog = setup_catalog();
        // A filter that calls an oracle function must fail without an oracle
        // connected.
        let registry = UdfRegistry::with_sdb_udfs();
        let ctx = context(&catalog, &registry, None, ExecConfig::default());
        let plan = PlanBuilder::build(&parse_query(
            "SELECT name FROM emp WHERE SDB_CMP_GT(salary, id, 'h', '35')",
        ))
        .unwrap();
        let err = execute_plan(&ctx, &plan);
        assert!(matches!(err, Err(EngineError::OracleUnavailable { .. })));
    }

    #[test]
    fn plain_conjuncts_filter_below_the_oracle_backed_ones() {
        let catalog = setup_catalog();
        let registry = UdfRegistry::with_sdb_udfs();
        let ctx = context(&catalog, &registry, None, ExecConfig::default());
        let planner = PhysicalPlanner::new(Arc::clone(&ctx));
        let tree = |sql: &str| {
            let plan = PlanBuilder::build(&parse_query(sql)).unwrap();
            planner.plan(&plan).unwrap().describe()
        };
        let oracle = "SDB_CMP_GT(salary, id, 'h', '35')";
        assert_eq!(
            tree(&format!(
                "SELECT name FROM emp WHERE dept_id = 10 AND {oracle} AND id < 4"
            )),
            "Project(Filter(OracleResolve(Filter(TableScan))))"
        );
        // Nothing to put first, or nothing to resolve: one filter as before.
        assert_eq!(
            tree(&format!("SELECT name FROM emp WHERE {oracle}")),
            "Project(Filter(OracleResolve(TableScan)))"
        );
        assert_eq!(
            tree("SELECT name FROM emp WHERE dept_id = 10 AND id < 4"),
            "Project(Filter(TableScan))"
        );
        // An OR over both kinds is one conjunct, and oracle-backed.
        assert_eq!(
            tree(&format!(
                "SELECT name FROM emp WHERE dept_id = 10 OR {oracle}"
            )),
            "Project(Filter(OracleResolve(TableScan)))"
        );
    }

    #[test]
    fn left_join_residual_on_keeps_padded_rows() {
        let catalog = setup_catalog();
        // The residual conjunct (d.dept_name <> 'eng') is part of MATCHING for
        // a LEFT JOIN: ann and bob (dept 10 = eng) must still appear,
        // null-padded, rather than being filtered out above the join.
        let batch = run(
            &catalog,
            "SELECT e.name, d.dept_name FROM emp e \
             LEFT JOIN dept d ON e.dept_id = d.id AND d.dept_name <> 'eng' \
             ORDER BY e.id",
        );
        assert_eq!(
            batch.num_rows(),
            5,
            "every left row must survive a LEFT JOIN"
        );
        assert!(
            batch.column(1).get(0).is_null(),
            "ann's only match fails the residual"
        );
        assert!(
            batch.column(1).get(1).is_null(),
            "bob's only match fails the residual"
        );
        assert_eq!(batch.column(1).get(2).as_str().unwrap(), "ops");
        assert!(batch.column(1).get(4).is_null(), "eve has no dept at all");
    }

    #[test]
    fn scans_lower_to_the_one_table_scan_at_any_parallelism() {
        let catalog = setup_catalog();
        let registry = UdfRegistry::with_sdb_udfs();
        let plan_of = |sql: &str| PlanBuilder::build(&parse_query(sql)).unwrap();
        for parallelism in [1, 4] {
            let ctx = context(
                &catalog,
                &registry,
                None,
                ExecConfig {
                    parallelism,
                    ..ExecConfig::default()
                },
            );
            let planner = PhysicalPlanner::new(Arc::clone(&ctx));
            let op = planner
                .plan(&plan_of("SELECT name FROM emp WHERE salary > 0 LIMIT 2"))
                .unwrap();
            assert_eq!(op.describe(), "Limit(Project(Filter(TableScan)))");
            let op = planner.plan(&plan_of("SELECT name FROM emp")).unwrap();
            assert_eq!(op.describe(), "Project(TableScan)");
        }
    }

    #[test]
    fn memory_budget_selects_spilling_variants() {
        let catalog = setup_catalog();
        let registry = UdfRegistry::with_sdb_udfs();
        let sql = "SELECT dept_id, COUNT(*) AS c FROM emp GROUP BY dept_id ORDER BY dept_id";
        let plan = PlanBuilder::build(&parse_query(sql)).unwrap();

        let budgeted = context(
            &catalog,
            &registry,
            None,
            ExecConfig {
                memory_budget: sdb_storage::MemoryBudget::bytes(1024),
                parallelism: 1,
                ..ExecConfig::default()
            },
        );
        let tree = PhysicalPlanner::new(budgeted)
            .plan(&plan)
            .unwrap()
            .describe();
        assert!(tree.contains("ExternalSort"), "{tree}");
        assert!(tree.contains("SpillingHashAggregate"), "{tree}");

        // An explicit unlimited budget keeps the in-memory operators (set
        // explicitly so a CI-level SDB_TEST_MEM_BUDGET cannot leak in).
        let unbudgeted = context(
            &catalog,
            &registry,
            None,
            ExecConfig {
                memory_budget: sdb_storage::MemoryBudget::unlimited(),
                parallelism: 1,
                ..ExecConfig::default()
            },
        );
        let tree = PhysicalPlanner::new(unbudgeted)
            .plan(&plan)
            .unwrap()
            .describe();
        assert!(tree.starts_with("Sort("), "{tree}");
        assert!(!tree.contains("ExternalSort"), "{tree}");
        assert!(!tree.contains("Spilling"), "{tree}");
    }

    #[test]
    fn projection_types_stay_stable_across_null_leading_batches() {
        // ROADMAP regression ("Projection type stability across batches"):
        // at batch_size=2 the first batch's CASE values are all NULL (salaries
        // 100 and 200 fail the predicate); the later typed rows must still
        // concat cleanly, with the first concrete type (VARCHAR) winning for
        // the whole column.
        let catalog = setup_catalog();
        let batch = run(
            &catalog,
            "SELECT CASE WHEN salary > 250 THEN name END AS c FROM emp",
        );
        assert_eq!(batch.num_rows(), 5);
        assert_eq!(batch.schema().column_at(0).data_type, DataType::Varchar);
        assert!(
            batch.column(0).get(0).is_null(),
            "salary 100 fails the CASE"
        );
        assert_eq!(batch.column(0).get(4), &Value::Str("eve".into()));
    }

    #[test]
    fn memory_budget_selects_grace_join() {
        let catalog = setup_catalog();
        let registry = UdfRegistry::with_sdb_udfs();
        let equi = "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id";
        let residual_left =
            "SELECT e.name FROM emp e LEFT JOIN dept d ON e.dept_id = d.id AND d.dept_name <> 'x'";

        let budgeted = context(
            &catalog,
            &registry,
            None,
            ExecConfig {
                memory_budget: sdb_storage::MemoryBudget::bytes(1024),
                parallelism: 1,
                ..ExecConfig::default()
            },
        );
        let planner = PhysicalPlanner::new(budgeted);
        let tree = planner
            .plan(&PlanBuilder::build(&parse_query(equi)).unwrap())
            .unwrap()
            .describe();
        assert!(tree.contains("GraceHashJoin"), "{tree}");

        // Residual LEFT JOINs keep the nested-loop plan even under a budget:
        // residuals decide matching there, and both plans must agree.
        let tree = planner
            .plan(&PlanBuilder::build(&parse_query(residual_left)).unwrap())
            .unwrap()
            .describe();
        assert!(tree.contains("NestedLoopJoin"), "{tree}");

        // An explicit unlimited budget keeps the in-memory hash join.
        let unbudgeted = context(
            &catalog,
            &registry,
            None,
            ExecConfig {
                memory_budget: sdb_storage::MemoryBudget::unlimited(),
                parallelism: 1,
                ..ExecConfig::default()
            },
        );
        let tree = PhysicalPlanner::new(unbudgeted)
            .plan(&PlanBuilder::build(&parse_query(equi)).unwrap())
            .unwrap()
            .describe();
        assert!(
            tree.contains("HashJoin") && !tree.contains("Grace"),
            "{tree}"
        );
    }

    #[test]
    fn planner_selects_join_operators() {
        let catalog = setup_catalog();
        let registry = UdfRegistry::with_sdb_udfs();
        let ctx = context(&catalog, &registry, None, ExecConfig::default());
        let planner = PhysicalPlanner::new(Arc::clone(&ctx));

        // Equi-join lowers to a hash join (under the projection).
        let plan = PlanBuilder::build(&parse_query(
            "SELECT e.name FROM emp e JOIN dept d ON e.dept_id = d.id",
        ))
        .unwrap();
        assert!(planner.plan(&plan).is_ok());

        // Non-equi ON lowers to a nested-loop join and still runs.
        let batch = run(
            &setup_catalog(),
            "SELECT e.name FROM emp e JOIN dept d ON e.dept_id > d.id ORDER BY e.name",
        );
        assert!(batch.num_rows() > 0);
    }
}

#[cfg(test)]
mod pruning_tests {
    //! Scan column pruning: a plan whose scans read only referenced columns
    //! returns bytes identical to the same plan reading every column.

    use super::tests::{context, parse_query, setup_catalog};
    use super::*;
    use crate::secure::{
        OracleRef, OracleRequest, OracleRequestKind, OracleResponse, OracleResult,
    };
    use crate::udf::UdfRegistry;
    use crate::ExecConfig;
    use num_bigint::BigUint;
    use sdb_sql::plan::PlanBuilder;
    use sdb_storage::{Catalog, Value};

    /// Runs `sql` with pruned scans and with all-column scans, asserts the
    /// outputs are byte-identical, and returns the pruned output with each
    /// scan's `(columns read, columns in the table)` in lowering order.
    fn run_both(
        catalog: &Catalog,
        sql: &str,
        oracle: Option<OracleRef>,
    ) -> (RecordBatch, Vec<(usize, usize)>) {
        let registry = UdfRegistry::with_sdb_udfs();
        let run = |prune: bool| {
            let config = ExecConfig {
                rng_seed: Some(11),
                batch_size: 3,
                tracing: true,
                ..ExecConfig::default()
            };
            let ctx = context(catalog, &registry, oracle.clone(), config);
            let plan = ctx
                .optimizer()
                .optimize(&PlanBuilder::build(&parse_query(sql)).unwrap());
            let planner = PhysicalPlanner::new(Arc::clone(&ctx));
            let planner = PhysicalPlanner { prune, ..planner };
            let mut root = planner.plan(&plan).unwrap();
            let out = crate::operators::drain_operator(root.as_mut())
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            let report = ctx.trace().expect("tracing is on").report();
            let scans = (report.spans.iter())
                .filter(|s| s.name == "TableScan")
                .map(|s| {
                    (
                        s.exclusive.scan_columns_read,
                        s.exclusive.scan_columns_total,
                    )
                })
                .collect::<Vec<_>>();
            (out, scans)
        };
        let (pruned, scans) = run(true);
        let (reference, all) = run(false);
        assert!(all.iter().all(|(read, total)| read == total), "{all:?}");
        assert_eq!(
            serde_json::to_string(&pruned).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "pruned scans changed the answer of: {sql}"
        );
        (pruned, scans)
    }

    #[test]
    fn wildcards_read_every_column() {
        let catalog = setup_catalog();
        let (out, scans) = run_both(&catalog, "SELECT * FROM emp WHERE id > 1", None);
        assert_eq!((out.num_rows(), out.num_columns()), (4, 4));
        assert_eq!(scans, vec![(4, 4)]);
        // A wildcard beside named items reads everything too.
        let (_, scans) = run_both(&catalog, "SELECT salary + 1 AS s, * FROM emp", None);
        assert_eq!(scans, vec![(4, 4)]);
    }

    #[test]
    fn count_star_keeps_one_column_for_the_row_count() {
        let catalog = setup_catalog();
        let (out, scans) = run_both(&catalog, "SELECT COUNT(*) AS n FROM emp", None);
        assert_eq!(out.column(0).get(0), &Value::Int(5));
        assert_eq!(scans, vec![(1, 4)]);
    }

    #[test]
    fn sort_keys_and_having_arguments_are_read() {
        let catalog = setup_catalog();
        // ORDER BY a column the select list does not name.
        let (out, scans) = run_both(&catalog, "SELECT name FROM emp ORDER BY salary DESC", None);
        assert_eq!(out.column(0).get(0), &Value::Str("eve".into()));
        assert_eq!(scans, vec![(2, 4)]);
        // HAVING over an aggregate the select list does not name.
        let (out, scans) = run_both(
            &catalog,
            "SELECT dept_id FROM emp GROUP BY dept_id HAVING SUM(salary) > 400 ORDER BY dept_id",
            None,
        );
        assert_eq!(out.num_rows(), 2);
        assert_eq!(scans, vec![(2, 4)]);
    }

    #[test]
    fn each_scan_of_a_self_join_reads_its_own_columns() {
        let catalog = setup_catalog();
        let (out, scans) = run_both(
            &catalog,
            "SELECT a.name, b.name, b.salary FROM emp a JOIN emp b ON a.id = b.dept_id / 10 \
             ORDER BY a.id, b.id",
            None,
        );
        assert_eq!(out.num_rows(), 5);
        // a: name, id.  b: name, salary, dept_id, id.
        assert_eq!(scans, vec![(2, 4), (4, 4)]);
    }

    #[test]
    fn left_joins_pad_the_pruned_right_side() {
        let catalog = setup_catalog();
        let (out, scans) = run_both(
            &catalog,
            "SELECT e.name, d.dept_name FROM emp e LEFT JOIN dept d ON e.dept_id = d.id \
             ORDER BY e.id",
            None,
        );
        assert_eq!(out.num_rows(), 5);
        assert!(out.column(1).get(4).is_null());
        assert_eq!(scans, vec![(3, 4), (2, 2)]);
        // With a residual ON conjunct (the nested-loop path).
        let (out, _) = run_both(
            &catalog,
            "SELECT e.name, d.dept_name FROM emp e \
             LEFT JOIN dept d ON e.dept_id = d.id AND d.dept_name <> 'eng' ORDER BY e.id",
            None,
        );
        assert!(out.column(1).get(0).is_null());
    }

    /// Sign answers that depend only on the row-id ciphertext, as the
    /// proxy's do.
    struct RowIdOracle;

    impl crate::secure::SdbOracle for RowIdOracle {
        fn resolve(&self, request: OracleRequest) -> OracleResult {
            assert_eq!(request.kind, OracleRequestKind::Sign);
            let sign = |r: &crate::secure::OracleRow| {
                let sum: u64 = r.row_id.0.body.iter().map(|&b| u64::from(b)).sum();
                if sum.is_multiple_of(2) {
                    1
                } else {
                    -1
                }
            };
            Ok(OracleResponse::Signs(
                request.rows.iter().map(sign).collect(),
            ))
        }
    }

    #[test]
    fn oracle_call_arguments_are_read_and_virtual_columns_still_resolve() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let cipher = sdb_crypto::SiesCipher::from_master(&mut rng);
        let catalog = Catalog::new();
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::sensitive("v", DataType::Encrypted),
            ColumnDef::sensitive("w", DataType::Encrypted),
            ColumnDef::public("rid", DataType::EncryptedRowId),
            ColumnDef::public("note", DataType::Varchar),
        ]);
        let table = catalog.create_table("enc", schema).unwrap();
        for i in 0..10u64 {
            let rid = cipher.encrypt_biguint(&mut rng, &BigUint::from(i + 1));
            table
                .write()
                .insert_row(vec![
                    Value::Int(i as i64),
                    Value::Encrypted(BigUint::from(i + 3)),
                    Value::Encrypted(BigUint::from(i + 5)),
                    Value::EncryptedRowId(sdb_crypto::EncryptedRowId(rid)),
                    Value::Str(format!("note {i}")),
                ])
                .unwrap();
        }
        let (out, scans) = run_both(
            &catalog,
            "SELECT id FROM enc WHERE SDB_CMP_GT(v, rid, 'h', '1000003') ORDER BY id",
            Some(Arc::new(RowIdOracle)),
        );
        assert!(0 < out.num_rows() && out.num_rows() < 10, "{out:?}");
        assert_eq!(scans, vec![(3, 5)], "id, v and rid; not w or note");
    }
}
