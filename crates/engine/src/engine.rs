//! The SP engine facade: catalog + UDF registry + (optional) DO-proxy oracle,
//! executing SQL text end to end. This is the component that plays the role of
//! "Spark SQL with the SDB UDFs loaded" in the paper's architecture (Figure 2).

use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use sdb_sql::{parse_sql, Literal, LogicalPlan, PlanBuilder, Statement};
use sdb_storage::{
    CancelToken, Catalog, ColumnDef, DataType, MemoryBudget, Pager, RecordBatch, Schema, Table,
    Value,
};

use crate::config::ExecConfig;
use crate::eval::literal_to_value;
use crate::operators::ExecContext;
use crate::planner;
use crate::power_memo::PowerMemo;
use crate::secure::OracleRef;
use crate::statement::{PlanCache, PlanKey, ServerStatement};
use crate::stats::ExecutionStats;
use crate::udf::UdfRegistry;
use crate::{EngineError, Result};

/// The result of executing one statement at the SP.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The result rows (empty schema/zero rows for DDL/DML statements).
    pub batch: RecordBatch,
    /// Execution statistics (the server-side half of the demo's cost breakdown).
    pub stats: ExecutionStats,
    /// The per-operator execution trace, when tracing was on for this query
    /// ([`ExecConfig::tracing`] / `SDB_TRACE=1` / `EXPLAIN ANALYZE`).
    pub trace: Option<crate::trace::TraceReport>,
}

/// Per-query overrides applied on top of an engine's [`ExecConfig`] for a
/// single [`SpEngine::execute_sql_with`] call. `None` fields inherit the
/// engine's settings.
///
/// This is the serving layer's hook: one long-lived engine can run many
/// concurrent queries, each with its own budget share, pager lease on the
/// global buffer pool, and cancellation token.
#[derive(Clone, Default)]
pub struct QueryOptions {
    /// Memory budget the query's blocking operators hold their input
    /// under; an input that overflows it spills through the pager.
    pub memory_budget: Option<MemoryBudget>,
    /// Pager lease to execute against (typically [`Pager::shared`] on a
    /// global [`sdb_storage::BufferPool`]). Without one, the query gets a
    /// fresh private pool under its budget.
    pub pager: Option<Arc<Pager>>,
    /// Cooperative cancellation token polled by the query's operators,
    /// oracle flushes and pager.
    pub cancel: Option<CancelToken>,
    /// Workers for this query's parallel operators.
    pub parallelism: Option<usize>,
    /// Per-operator tracing for this query.
    pub tracing: Option<bool>,
    /// Oracle for this query only, taking precedence over the engine-wide
    /// slot installed by [`SpEngine::connect_oracle`]. Concurrent serving
    /// sessions each carry their own oracle here, so one session's
    /// connect/disconnect can never swap another's mid-query.
    pub oracle: Option<OracleRef>,
}

impl std::fmt::Debug for QueryOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryOptions")
            .field("memory_budget", &self.memory_budget)
            .field("pager", &self.pager.as_ref().map(|_| ".."))
            .field("cancel", &self.cancel)
            .field("parallelism", &self.parallelism)
            .field("tracing", &self.tracing)
            .field("oracle", &self.oracle.as_ref().map(|_| ".."))
            .finish()
    }
}

impl QueryOptions {
    /// Sets the plan's memory budget.
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.memory_budget = Some(budget);
        self
    }

    /// Sets the pager lease to execute against.
    pub fn with_pager(mut self, pager: Arc<Pager>) -> Self {
        self.pager = Some(pager);
        self
    }

    /// Sets the cancellation token.
    pub fn with_cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Sets the worker count.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Enables or disables tracing for this query.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = Some(tracing);
        self
    }

    /// Sets this query's oracle (overrides the engine-wide slot).
    pub fn with_oracle(mut self, oracle: OracleRef) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// The settings a query with these options runs under: `config` with
    /// the overrides applied. Fails with [`EngineError::InvalidConfig`] on
    /// a zero worker count or batch size.
    pub fn apply(&self, config: &ExecConfig) -> Result<ExecConfig> {
        let mut config = config.clone();
        if let Some(budget) = &self.memory_budget {
            config.memory_budget = budget.clone();
        }
        if let Some(parallelism) = self.parallelism {
            config.parallelism = parallelism;
        }
        if let Some(tracing) = self.tracing {
            config.tracing = tracing;
        }
        config.validate()?;
        Ok(config)
    }
}

/// The service-provider engine.
///
/// The README quickstart, runnable (this example executes under
/// `cargo test` as a doc-test):
///
/// ```
/// use sdb_engine::{ExecConfig, MemoryBudget, SpEngine};
///
/// let engine = SpEngine::new().with_config(ExecConfig {
///     parallelism: 2,                              // workers per query
///     batch_size: 4096,                            // rows per batch
///     memory_budget: MemoryBudget::bytes(64 << 20), // spill past 64 MiB
///     ..ExecConfig::default()
/// });
///
/// engine.execute_sql("CREATE TABLE accounts (id INT, owner VARCHAR(20), balance INT)")?;
/// engine.execute_sql("INSERT INTO accounts VALUES (1, 'ann', 10), (2, 'bob', 20)")?;
///
/// let out = engine.execute_sql("SELECT owner FROM accounts WHERE balance > 15")?;
/// assert_eq!(out.batch.num_rows(), 1);
/// assert_eq!(out.batch.column(0).value(0).as_str()?, "bob");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SpEngine {
    catalog: Arc<Catalog>,
    registry: UdfRegistry,
    oracle: RwLock<Option<OracleRef>>,
    /// The settings every query starts from; [`QueryOptions`] override a
    /// copy per query, and `EXPLAIN ANALYZE` forces tracing on for its own.
    config: ExecConfig,
    /// The key-update powers earlier queries raised, bounded by the catalog.
    power_memo: Arc<PowerMemo>,
    /// The statement shapes the DO sent, with their optimised plans.
    plan_cache: PlanCache,
}

impl SpEngine {
    /// Creates an engine with an empty catalog, the standard SDB UDF set and
    /// the process's default [`ExecConfig`].
    pub fn new() -> Self {
        SpEngine::with_catalog(Arc::new(Catalog::new()))
    }

    /// Creates an engine around an existing catalog.
    pub fn with_catalog(catalog: Arc<Catalog>) -> Self {
        SpEngine {
            power_memo: Arc::new(PowerMemo::new(Arc::clone(&catalog))),
            catalog,
            registry: UdfRegistry::with_sdb_udfs(),
            oracle: RwLock::new(None),
            config: ExecConfig::default(),
            plan_cache: PlanCache::default(),
        }
    }

    /// Replaces the settings every query this engine runs starts from
    /// (builder style; see [`ExecConfig`]'s fields for what each does). A
    /// zero worker count or batch size fails each query with
    /// [`EngineError::InvalidConfig`].
    pub fn with_config(mut self, config: ExecConfig) -> Self {
        self.config = config;
        self
    }

    /// The settings every query this engine runs starts from.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Collects optimizer statistics for one table (the `ANALYZE <table>`
    /// statement does the same through SQL).
    pub fn analyze(&self, table: &str) -> Result<std::sync::Arc<sdb_storage::TableStats>> {
        Ok(self.catalog.analyze(table)?)
    }

    /// Collects optimizer statistics for every registered table.
    pub fn analyze_all(&self) -> Result<()> {
        self.catalog.analyze_all()?;
        Ok(())
    }

    /// Renders the `EXPLAIN` output for a query: the chosen physical
    /// operator tree followed by per-node row and cost estimates.
    pub fn explain_sql(&self, sql: &str) -> Result<Vec<String>> {
        match parse_sql(sql)? {
            Statement::Query(query)
            | Statement::Explain(query)
            | Statement::ExplainAnalyze(query) => self.explain_query(&query),
            other => Err(EngineError::Unsupported {
                detail: format!("EXPLAIN only applies to queries, found {other}"),
            }),
        }
    }

    fn explain_query(&self, query: &sdb_sql::ast::Query) -> Result<Vec<String>> {
        let plan = PlanBuilder::build(query)?;
        let ctx = Arc::new(self.query_context(None, &QueryOptions::default())?);
        let config = ctx.config();
        let optimized = if config.optimizer {
            ctx.optimizer().optimize(&plan)
        } else {
            plan.clone()
        };
        let physical = crate::planner::PhysicalPlanner::new(Arc::clone(&ctx)).plan(&optimized)?;

        let mut lines = Vec::new();
        lines.push(format!(
            "physical plan (optimizer {}, parallelism {}, budget {}):",
            if config.optimizer { "on" } else { "off" },
            config.parallelism,
            match config.memory_budget.limit() {
                Some(limit) => format!("{limit}B"),
                None => "unlimited".to_string(),
            }
        ));
        for line in crate::optimizer::render_physical_tree(&physical.describe()) {
            lines.push(format!("  {line}"));
        }
        lines.push("estimates (logical nodes):".to_string());
        for line in ctx.optimizer().annotate(&optimized) {
            lines.push(format!("  {line}"));
        }
        Ok(lines)
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The key-update power memo every query of this engine reads and fills.
    pub fn power_memo(&self) -> &PowerMemo {
        &self.power_memo
    }

    /// Statement shapes this engine holds (see [`Self::execute_shaped`]).
    pub fn statement_shapes(&self) -> usize {
        self.plan_cache.len()
    }

    /// Approximate bytes the statement shapes and their cached plans hold.
    pub fn statement_shape_bytes(&self) -> usize {
        self.plan_cache.approx_bytes()
    }

    /// Every statement template this engine holds, as rendered, and every
    /// cached plan in full (for leakage scans: nothing in them was not sent
    /// by the DO).
    pub fn statement_shape_dump(&self) -> Vec<String> {
        self.plan_cache.dump()
    }

    /// Drops every statement shape; the DO's next statement of each shape
    /// meets [`EngineError::UnknownShape`] and resends the template.
    pub fn clear_statement_shapes(&self) {
        self.plan_cache.clear();
    }

    /// The UDF registry (e.g. to register extra plain UDFs).
    pub fn registry_mut(&mut self) -> &mut UdfRegistry {
        &mut self.registry
    }

    /// Connects the DO proxy's oracle for interactive protocol steps.
    pub fn connect_oracle(&self, oracle: OracleRef) {
        *self.oracle.write() = Some(oracle);
    }

    /// Disconnects the oracle (plaintext-only operation).
    pub fn disconnect_oracle(&self) {
        *self.oracle.write() = None;
    }

    /// Registers a fully-built table (the upload path used by the proxy)
    /// and collects its optimizer statistics, so uploaded tables are
    /// immediately eligible for cost-based planning.
    pub fn load_table(&self, table: Table) -> Result<()> {
        let name = table.name().to_string();
        self.catalog.register_table(table)?;
        self.catalog.analyze(&name)?;
        Ok(())
    }

    /// Executes a single SQL statement (SELECT, CREATE TABLE or INSERT).
    pub fn execute_sql(&self, sql: &str) -> Result<QueryOutput> {
        self.execute_sql_with(sql, &QueryOptions::default())
    }

    /// Executes a single SQL statement with per-query overrides — the
    /// serving layer's entry point. Options only affect SELECT execution;
    /// DDL/DML statements ignore them (they don't plan or spill).
    ///
    /// ```
    /// use sdb_engine::{QueryOptions, SpEngine};
    /// use sdb_storage::CancelToken;
    ///
    /// let engine = SpEngine::new();
    /// engine.execute_sql("CREATE TABLE t (a INT)")?;
    /// engine.execute_sql("INSERT INTO t VALUES (1), (2), (3)")?;
    ///
    /// let cancel = CancelToken::new();
    /// let opts = QueryOptions::default()
    ///     .with_parallelism(1)
    ///     .with_cancel_token(cancel.clone());
    /// let out = engine.execute_sql_with("SELECT a FROM t ORDER BY a", &opts)?;
    /// assert_eq!(out.batch.num_rows(), 3);
    ///
    /// cancel.cancel();
    /// assert!(engine.execute_sql_with("SELECT a FROM t", &opts).is_err());
    /// # Ok::<(), sdb_engine::EngineError>(())
    /// ```
    pub fn execute_sql_with(&self, sql: &str, opts: &QueryOptions) -> Result<QueryOutput> {
        let started = Instant::now();
        let statement = parse_sql(sql)?;
        let mut output = self.guarded(|| self.run_statement(&statement, opts, started))?;
        output.stats.total_time = started.elapsed();
        Ok(output)
    }

    /// Executes a SELECT the DO sent by shape ([`ServerStatement`]): the
    /// template it carries (held from now on) or the one held under its
    /// shape id, with the statement's lifted literals and draws bound into
    /// the template's cached optimised plan. Answers, counts and the
    /// physical plan are those of the same statement sent as text.
    ///
    /// Fails with [`EngineError::UnknownShape`] when the statement carries
    /// no template and the engine holds none under its id, and with
    /// [`EngineError::InvalidLiteral`] when a lifted value is not exactly
    /// one literal of its slot's class.
    pub fn execute_shaped(
        &self,
        statement: &ServerStatement,
        opts: &QueryOptions,
    ) -> Result<QueryOutput> {
        self.guarded(|| self.run_shaped(statement, opts, false))
    }

    /// [`Self::execute_shaped`] as `EXPLAIN ANALYZE`: the shaped statement
    /// runs with tracing forced on and comes back as its annotated plan.
    pub fn explain_analyze_shaped(
        &self,
        statement: &ServerStatement,
        opts: &QueryOptions,
    ) -> Result<QueryOutput> {
        self.guarded(|| self.run_shaped(statement, opts, true))
    }

    fn run_shaped(
        &self,
        statement: &ServerStatement,
        opts: &QueryOptions,
        analyze: bool,
    ) -> Result<QueryOutput> {
        let started = Instant::now();
        let lifted = crate::statement::lifted_literals(statement)?;
        let shape = match &statement.template {
            Some(text) => self.plan_cache.insert(statement.shape, text, &lifted),
            None => (self.plan_cache.shape(statement.shape)).ok_or(EngineError::UnknownShape {
                shape: statement.shape,
            })?,
        };
        shape.check(&lifted)?;
        let traced;
        let opts = if analyze {
            traced = Self::traced(opts);
            &traced
        } else {
            opts
        };
        let ctx = Arc::new(self.query_context(self.oracle_for(opts), opts)?);
        let config = ctx.config();
        // Read before planning: a plan built while the catalog changed is
        // filed under the epoch it started from, which is already past.
        let key = PlanKey {
            epoch: self.catalog.epoch(),
            optimizer: config.optimizer,
            batch_size: config.batch_size,
            budget: config.memory_budget.limit(),
        };
        let cached = shape.plan(&key);
        let hit = cached.is_some();
        let plan = match cached {
            Some(plan) => plan,
            None => {
                let Statement::Query(query) = parse_sql(&shape.template)? else {
                    return Err(EngineError::Unsupported {
                        detail: "a statement shape must be a query".into(),
                    });
                };
                let built = PlanBuilder::build(&query)?;
                let plan = Arc::new(if config.optimizer {
                    ctx.optimizer().optimize(&built)
                } else {
                    built
                });
                shape.offer(key, &plan);
                plan
            }
        };
        if lifted.is_empty() && statement.draws.is_empty() {
            return self.run_query(ctx, &plan, true, hit, started, analyze);
        }
        let mut params = lifted;
        params.extend(statement.draws.iter().cloned().map(Literal::Str));
        let bound = plan.bind_params(&params)?;
        self.run_query(ctx, &bound, true, hit, started, analyze)
    }

    /// The oracle a query uses: its own, else the engine-wide slot.
    fn oracle_for(&self, opts: &QueryOptions) -> Option<OracleRef> {
        opts.oracle.clone().or_else(|| self.oracle.read().clone())
    }

    /// `opts` with tracing forced on, for `EXPLAIN ANALYZE`.
    fn traced(opts: &QueryOptions) -> QueryOptions {
        opts.clone().with_tracing(true)
    }

    /// Runs `plan` on `ctx` through [`planner::execute_planned`]. Planning
    /// began at `planning` (parsing included); with `analyze` the output is
    /// the `EXPLAIN ANALYZE` rendering of the run.
    fn run_query(
        &self,
        ctx: Arc<ExecContext<'_>>,
        plan: &LogicalPlan,
        optimized: bool,
        plan_cache_hit: bool,
        planning: Instant,
        analyze: bool,
    ) -> Result<QueryOutput> {
        ctx.stats_mut().plan_cache_hits = usize::from(plan_cache_hit);
        let batch = planner::execute_planned(&ctx, plan, optimized, planning)?;
        let mut stats = ctx.stats();
        stats.total_time = planning.elapsed();
        let Some(trace) = ctx.trace() else {
            return Ok(QueryOutput {
                stats,
                batch,
                trace: None,
            });
        };
        let mut report = trace.report();
        report.plan_us = stats.plan_time.as_micros() as u64;
        if !analyze {
            Self::maybe_export_trace(&report);
            return Ok(QueryOutput {
                stats,
                batch,
                trace: Some(report),
            });
        }
        report.total_time_us = stats.total_time.as_micros() as u64;
        Self::maybe_export_trace(&report);
        let mut lines = Vec::with_capacity(report.spans.len() + 1);
        lines.push(format!(
            "analyzed plan ({} rows in {}, planning {}, plan cache hits {}, parallelism {}, budget {}):",
            batch.num_rows(),
            crate::trace::fmt_us(report.total_time_us),
            crate::trace::fmt_us(report.plan_us),
            stats.plan_cache_hits,
            ctx.config().parallelism,
            match ctx.config().memory_budget.limit() {
                Some(limit) => format!("{limit}B"),
                None => "unlimited".to_string(),
            }
        ));
        for line in report.render() {
            lines.push(format!("  {line}"));
        }
        let schema = Schema::new(vec![ColumnDef::public("plan", DataType::Varchar)]);
        let rows = lines.into_iter().map(|l| vec![Value::Str(l)]).collect();
        Ok(QueryOutput {
            batch: RecordBatch::from_rows(schema, rows)?,
            stats,
            trace: Some(report),
        })
    }

    /// Executes an already-parsed statement.
    pub fn execute_statement(&self, statement: &Statement) -> Result<QueryOutput> {
        self.execute_statement_with(statement, &QueryOptions::default())
    }

    /// Builds the execution context for one query: the engine's config
    /// with `opts` applied, constructed once.
    fn query_context(
        &self,
        oracle: Option<OracleRef>,
        opts: &QueryOptions,
    ) -> Result<ExecContext<'_>> {
        Ok(ExecContext::new(
            &self.catalog,
            &self.registry,
            oracle,
            opts.apply(&self.config)?,
            opts.pager.clone(),
            opts.cancel.clone(),
        )
        .with_power_memo(&self.power_memo))
    }

    /// Executes an already-parsed statement with per-query overrides.
    ///
    /// A panic while the statement runs becomes [`EngineError::Panicked`].
    /// Unwinding drops the query's context and operators, so its pages and
    /// spill file go with them, as on any other error. What the engine
    /// shares between statements survives a panic intact: its locks never
    /// poison, a table grows by whole rows, and an index is extended by
    /// whole entries.
    pub fn execute_statement_with(
        &self,
        statement: &Statement,
        opts: &QueryOptions,
    ) -> Result<QueryOutput> {
        self.guarded(|| self.run_statement(statement, opts, Instant::now()))
    }

    /// Runs `run`, turning a panic into [`EngineError::Panicked`].
    fn guarded(&self, run: impl FnOnce() -> Result<QueryOutput>) -> Result<QueryOutput> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|panic| {
            let detail = (panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "a non-text payload".to_string());
            Err(EngineError::Panicked { detail })
        })
    }

    /// Runs one parsed statement; a query's planning began at `planning`.
    fn run_statement(
        &self,
        statement: &Statement,
        opts: &QueryOptions,
        planning: Instant,
    ) -> Result<QueryOutput> {
        match statement {
            Statement::Query(query) => {
                let plan = PlanBuilder::build(query)?;
                let ctx = Arc::new(self.query_context(self.oracle_for(opts), opts)?);
                self.run_query(ctx, &plan, false, false, planning, false)
            }
            Statement::ExplainAnalyze(query) => {
                let plan = PlanBuilder::build(query)?;
                let opts = Self::traced(opts);
                let ctx = Arc::new(self.query_context(self.oracle_for(&opts), &opts)?);
                self.run_query(ctx, &plan, false, false, planning, true)
            }
            Statement::Explain(query) => {
                let lines = self.explain_query(query)?;
                let schema = Schema::new(vec![ColumnDef::public("plan", DataType::Varchar)]);
                let rows = lines.into_iter().map(|l| vec![Value::Str(l)]).collect();
                Ok(QueryOutput {
                    batch: RecordBatch::from_rows(schema, rows)?,
                    stats: ExecutionStats::default(),
                    trace: None,
                })
            }
            Statement::Analyze { table } => {
                let analyzed = match table {
                    Some(table) => vec![self.catalog.analyze(table)?],
                    None => self.catalog.analyze_all()?,
                };
                let schema = Schema::new(vec![
                    ColumnDef::public("table", DataType::Varchar),
                    ColumnDef::public("rows", DataType::Int),
                ]);
                let rows = analyzed
                    .iter()
                    .map(|s| vec![Value::Str(s.table.clone()), Value::Int(s.row_count as i64)])
                    .collect();
                Ok(QueryOutput {
                    batch: RecordBatch::from_rows(schema, rows)?,
                    stats: ExecutionStats::default(),
                    trace: None,
                })
            }
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|c| ColumnDef {
                            name: c.name.clone(),
                            data_type: c.data_type,
                            sensitivity: if c.sensitive {
                                sdb_storage::Sensitivity::Sensitive
                            } else {
                                sdb_storage::Sensitivity::Public
                            },
                        })
                        .collect(),
                );
                self.catalog.create_table(name, schema)?;
                Ok(QueryOutput {
                    batch: RecordBatch::empty(Schema::empty()),
                    stats: ExecutionStats::default(),
                    trace: None,
                })
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let handle = self.catalog.table(table)?;
                let mut guard = handle.write();
                let schema = guard.schema().clone();
                for row in rows {
                    let values = self.insert_row_values(&schema, columns, row)?;
                    guard.insert_row(values)?;
                }
                Ok(QueryOutput {
                    batch: RecordBatch::empty(Schema::empty()),
                    stats: ExecutionStats::default(),
                    trace: None,
                })
            }
        }
    }

    /// Writes `report` as JSON under `SDB_TRACE_DIR` when that is set.
    /// Best-effort: export failures never fail the query.
    // Read per export, not resolved once: a test process sets and clears
    // the directory between queries.
    #[allow(clippy::disallowed_methods)]
    fn maybe_export_trace(report: &crate::trace::TraceReport) {
        if let Ok(dir) = std::env::var("SDB_TRACE_DIR") {
            if !dir.is_empty() {
                let _ = report.write_to_dir(std::path::Path::new(&dir));
            }
        }
    }

    /// Maps an INSERT row (possibly with an explicit column list) onto the table's
    /// schema order, filling unspecified columns with NULL.
    fn insert_row_values(
        &self,
        schema: &Schema,
        columns: &[String],
        row: &[sdb_sql::Expr],
    ) -> Result<Vec<Value>> {
        let literal_of = |e: &sdb_sql::Expr| -> Result<Value> {
            match e {
                sdb_sql::Expr::Literal(lit) => Ok(literal_to_value(lit)),
                sdb_sql::Expr::Unary {
                    op: sdb_sql::UnaryOp::Neg,
                    expr,
                } => match expr.as_ref() {
                    sdb_sql::Expr::Literal(lit) => match literal_to_value(lit) {
                        Value::Int(v) => Ok(Value::Int(-v)),
                        Value::Decimal { units, scale } => Ok(Value::Decimal {
                            units: -units,
                            scale,
                        }),
                        other => Err(EngineError::Expression {
                            detail: format!("cannot negate {other:?} in INSERT"),
                        }),
                    },
                    other => Err(EngineError::Expression {
                        detail: format!("INSERT values must be literals, found {other:?}"),
                    }),
                },
                other => Err(EngineError::Expression {
                    detail: format!("INSERT values must be literals, found {other:?}"),
                }),
            }
        };

        if columns.is_empty() {
            if row.len() != schema.len() {
                return Err(EngineError::Storage(
                    sdb_storage::StorageError::ArityMismatch {
                        expected: schema.len(),
                        found: row.len(),
                    },
                ));
            }
            return row.iter().map(literal_of).collect();
        }

        if columns.len() != row.len() {
            return Err(EngineError::Storage(
                sdb_storage::StorageError::ArityMismatch {
                    expected: columns.len(),
                    found: row.len(),
                },
            ));
        }
        let mut values = vec![Value::Null; schema.len()];
        for (col, expr) in columns.iter().zip(row.iter()) {
            let idx = schema.index_of(col)?;
            values[idx] = literal_of(expr)?;
        }
        Ok(values)
    }
}

impl Default for SpEngine {
    fn default() -> Self {
        SpEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddl_dml_query_roundtrip() {
        let engine = SpEngine::new();
        engine
            .execute_sql("CREATE TABLE accounts (id INT, owner VARCHAR(20), balance DECIMAL(10,2) SENSITIVE)")
            .unwrap();
        engine
            .execute_sql("INSERT INTO accounts VALUES (1, 'ann', 10.50), (2, 'bob', 20.00)")
            .unwrap();
        engine
            .execute_sql("INSERT INTO accounts (id, owner) VALUES (3, 'cat')")
            .unwrap();

        let out = engine
            .execute_sql("SELECT owner, balance FROM accounts WHERE id <= 2 ORDER BY id")
            .unwrap();
        assert_eq!(out.batch.num_rows(), 2);
        assert_eq!(*out.batch.column(0).value(0), Value::Str("ann".into()));
        assert!(out.stats.total_time.as_nanos() > 0);

        let out = engine
            .execute_sql("SELECT COUNT(*) AS n FROM accounts")
            .unwrap();
        assert_eq!(*out.batch.column(0).value(0), Value::Int(3));
    }

    #[test]
    fn sensitive_flag_is_recorded_in_schema() {
        let engine = SpEngine::new();
        engine
            .execute_sql("CREATE TABLE t (a INT, b INT SENSITIVE)")
            .unwrap();
        let handle = engine.catalog().table("t").unwrap();
        let table = handle.read();
        assert!(!table
            .schema()
            .column("a")
            .unwrap()
            .sensitivity
            .is_sensitive());
        assert!(table
            .schema()
            .column("b")
            .unwrap()
            .sensitivity
            .is_sensitive());
    }

    #[test]
    fn insert_arity_errors() {
        let engine = SpEngine::new();
        engine.execute_sql("CREATE TABLE t (a INT, b INT)").unwrap();
        assert!(engine.execute_sql("INSERT INTO t VALUES (1)").is_err());
        assert!(engine
            .execute_sql("INSERT INTO t (a) VALUES (1, 2)")
            .is_err());
        assert!(engine
            .execute_sql("INSERT INTO t (a) VALUES (a + 1)")
            .is_err());
        assert!(engine
            .execute_sql("INSERT INTO missing VALUES (1)")
            .is_err());
    }

    #[test]
    fn negative_literal_insert() {
        let engine = SpEngine::new();
        engine.execute_sql("CREATE TABLE t (a INT)").unwrap();
        engine.execute_sql("INSERT INTO t VALUES (-5)").unwrap();
        let out = engine.execute_sql("SELECT a FROM t").unwrap();
        assert_eq!(*out.batch.column(0).value(0), Value::Int(-5));
    }

    #[test]
    fn a_zero_worker_count_or_batch_size_is_a_typed_error() {
        let engine = SpEngine::new();
        engine.execute_sql("CREATE TABLE t (a INT, g INT)").unwrap();
        engine
            .execute_sql("INSERT INTO t VALUES (1, 1), (2, 2)")
            .unwrap();
        let sql = "SELECT g, SUM(a) AS s FROM t GROUP BY g";
        let invalid = |result: Result<QueryOutput>, setting: &str| match result {
            Err(EngineError::InvalidConfig { detail }) => {
                assert!(detail.contains(setting), "{detail}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        };

        let zero_workers = QueryOptions::default().with_parallelism(0);
        invalid(engine.execute_sql_with(sql, &zero_workers), "parallelism");
        let zero_batch =
            SpEngine::with_catalog(Arc::clone(engine.catalog())).with_config(ExecConfig {
                batch_size: 0,
                ..ExecConfig::default()
            });
        invalid(zero_batch.execute_sql(sql), "batch size");
        assert_eq!(engine.execute_sql(sql).unwrap().batch.num_rows(), 2);
    }

    #[test]
    fn duplicate_create_rejected() {
        let engine = SpEngine::new();
        engine.execute_sql("CREATE TABLE t (a INT)").unwrap();
        assert!(engine.execute_sql("CREATE TABLE t (a INT)").is_err());
    }
}
