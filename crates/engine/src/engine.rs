//! The SP engine facade: catalog + UDF registry + (optional) DO-proxy oracle,
//! executing SQL text end to end. This is the component that plays the role of
//! "Spark SQL with the SDB UDFs loaded" in the paper's architecture (Figure 2).

use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use sdb_sql::{parse_sql, PlanBuilder, Statement};
use sdb_storage::{
    CancelToken, Catalog, ColumnDef, DataType, MemoryBudget, Pager, RecordBatch, Schema, Table,
    Value,
};

use crate::config::ExecConfig;
use crate::eval::literal_to_value;
use crate::operators::ExecContext;
use crate::planner;
use crate::secure::OracleRef;
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
    /// ([`SpEngine::with_tracing`] / `SDB_TRACE=1` / `EXPLAIN ANALYZE`).
    pub trace: Option<crate::trace::TraceReport>,
}

/// Per-query overrides applied on top of an engine's configured knobs for a
/// single [`SpEngine::execute_sql_with`] call. `None` fields inherit the
/// engine's defaults.
///
/// This is the serving layer's hook: one long-lived engine can run many
/// concurrent queries, each with its own budget share, pager lease on the
/// global buffer pool, and cancellation token.
#[derive(Clone, Default)]
pub struct QueryOptions {
    /// Memory budget the *plan* should assume (drives the choice of
    /// spilling operator variants).
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
}

/// The service-provider engine.
///
/// The README quickstart, runnable (this example executes under
/// `cargo test` as a doc-test):
///
/// ```
/// use sdb_engine::{MemoryBudget, SpEngine};
///
/// let engine = SpEngine::new()
///     .with_parallelism(2)                              // workers per query
///     .with_batch_size(4096)                            // rows per batch
///     .with_memory_budget(MemoryBudget::bytes(64 << 20)); // spill past 64 MiB
///
/// engine.execute_sql("CREATE TABLE accounts (id INT, owner VARCHAR(20), balance INT)")?;
/// engine.execute_sql("INSERT INTO accounts VALUES (1, 'ann', 10), (2, 'bob', 20)")?;
///
/// let out = engine.execute_sql("SELECT owner FROM accounts WHERE balance > 15")?;
/// assert_eq!(out.batch.num_rows(), 1);
/// assert_eq!(out.batch.column(0).get(0).as_str()?, "bob");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SpEngine {
    catalog: Arc<Catalog>,
    registry: UdfRegistry,
    oracle: RwLock<Option<OracleRef>>,
    /// The settings every query starts from; [`QueryOptions`] override a
    /// copy per query, and `EXPLAIN ANALYZE` forces tracing on for its own.
    config: ExecConfig,
}

impl SpEngine {
    /// Creates an engine with an empty catalog, the standard SDB UDF set and
    /// the process's default [`ExecConfig`].
    pub fn new() -> Self {
        SpEngine {
            catalog: Arc::new(Catalog::new()),
            registry: UdfRegistry::with_sdb_udfs(),
            oracle: RwLock::new(None),
            config: ExecConfig::default(),
        }
    }

    /// Creates an engine around an existing catalog.
    pub fn with_catalog(catalog: Arc<Catalog>) -> Self {
        SpEngine {
            catalog,
            ..SpEngine::new()
        }
    }

    /// Overrides the rows-per-batch knob for every query this engine runs
    /// (builder style). Panics if `batch_size` is zero.
    ///
    /// Results are byte-identical at any batch size; the knob trades
    /// per-batch overhead against peak batch memory.
    ///
    /// ```
    /// use sdb_engine::SpEngine;
    ///
    /// let engine = SpEngine::new().with_batch_size(2);
    /// engine.execute_sql("CREATE TABLE t (a INT)")?;
    /// engine.execute_sql("INSERT INTO t VALUES (3), (1), (2), (5), (4)")?;
    ///
    /// // Five rows flow through the pipeline as three 2-row batches.
    /// let out = engine.execute_sql("SELECT a FROM t ORDER BY a")?;
    /// assert_eq!(out.batch.num_rows(), 5);
    /// assert_eq!(engine.batch_size(), 2);
    /// # Ok::<(), sdb_engine::EngineError>(())
    /// ```
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.config.batch_size = batch_size;
        self
    }

    /// Overrides the per-query worker count (builder style; `1` selects the
    /// serial plans). Panics if `parallelism` is zero.
    ///
    /// Defaults to the available cores. Parallel plans fan heavy operator
    /// phases out over contiguous row morsels and merge in morsel order, so
    /// results are byte-identical to serial execution.
    ///
    /// ```
    /// use sdb_engine::SpEngine;
    ///
    /// let engine = SpEngine::new().with_parallelism(4);
    /// engine.execute_sql("CREATE TABLE t (a INT, g INT)")?;
    /// engine.execute_sql("INSERT INTO t VALUES (10, 1), (20, 1), (30, 2)")?;
    ///
    /// let out = engine.execute_sql("SELECT g, SUM(a) AS s FROM t GROUP BY g ORDER BY g")?;
    /// assert_eq!(out.batch.num_rows(), 2);
    /// assert_eq!(engine.parallelism(), 4);
    /// # Ok::<(), sdb_engine::EngineError>(())
    /// ```
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        assert!(parallelism > 0, "parallelism must be positive");
        self.config.parallelism = parallelism;
        self
    }

    /// Bounds how much memory blocking operators (sort, aggregation, hash
    /// join build sides) may materialise per query before spilling to disk
    /// (builder style). With a limited budget the planner selects the
    /// spilling operator variants ([`ExternalSort`], [`SpillingHashAggregate`]
    /// and [`GraceHashJoin`]), whose results are byte-identical to the
    /// in-memory ones; spill activity is reported in [`ExecutionStats`].
    ///
    /// ```
    /// use sdb_engine::{MemoryBudget, SpEngine};
    ///
    /// let engine = SpEngine::new().with_memory_budget(MemoryBudget::bytes(4 << 10));
    /// engine.execute_sql("CREATE TABLE t (a INT, b INT)")?;
    /// for chunk in 0..20 {
    ///     let rows: Vec<String> = (0..50)
    ///         .map(|i| format!("({}, {})", chunk * 50 + i, (chunk * 50 + i) % 7))
    ///         .collect();
    ///     engine.execute_sql(&format!("INSERT INTO t VALUES {}", rows.join(", ")))?;
    /// }
    ///
    /// // 1000 rows cannot be sorted inside 4 KiB: runs spill through the
    /// // pager, and the result is still exactly the sorted table.
    /// let out = engine.execute_sql("SELECT a FROM t ORDER BY b, a")?;
    /// assert_eq!(out.batch.num_rows(), 1000);
    /// assert!(out.stats.pages_spilled > 0);
    /// # Ok::<(), sdb_engine::EngineError>(())
    /// ```
    ///
    /// [`ExternalSort`]: crate::operators::external_sort::ExternalSort
    /// [`SpillingHashAggregate`]: crate::operators::spill_aggregate::SpillingHashAggregate
    /// [`GraceHashJoin`]: crate::operators::grace_join::GraceHashJoin
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.config.memory_budget = budget;
        self
    }

    /// Enables or disables the cost-based optimizer (builder style;
    /// default on).
    ///
    /// With the optimizer on, queries over `ANALYZE`d tables get their
    /// inner-join regions reordered so the smallest estimated relation
    /// becomes the hash-join build side, priced by a cost model that counts
    /// oracle round trips first. The result *set* is always identical to the
    /// syntactic plan's; the row order of queries without a total `ORDER BY`
    /// is unspecified either way. Tables without statistics keep their
    /// syntactic plans, as do regions under a `LIMIT` with no `Sort` in
    /// between (there, production order decides the surviving rows).
    ///
    /// ```
    /// use sdb_engine::SpEngine;
    ///
    /// let engine = SpEngine::new();
    /// engine.execute_sql("CREATE TABLE t (a INT)")?;
    /// engine.execute_sql("INSERT INTO t VALUES (1), (2), (3)")?;
    /// engine.execute_sql("ANALYZE t")?;
    /// assert_eq!(engine.catalog().table_stats("t").unwrap().row_count, 3);
    ///
    /// // EXPLAIN renders the physical tree plus per-node estimates.
    /// let out = engine.execute_sql("EXPLAIN SELECT a FROM t WHERE a > 1")?;
    /// assert!(out.batch.num_rows() > 0);
    ///
    /// let syntactic = SpEngine::new().with_optimizer(false);
    /// assert!(!syntactic.optimizer_enabled());
    /// # Ok::<(), sdb_engine::EngineError>(())
    /// ```
    pub fn with_optimizer(mut self, optimizer: bool) -> Self {
        self.config.optimizer = optimizer;
        self
    }

    /// Whether the cost-based optimizer is enabled.
    pub fn optimizer_enabled(&self) -> bool {
        self.config.optimizer
    }

    /// Enables or disables cross-batch oracle batching (builder style;
    /// default on). With batching off, every registered oracle call pays one
    /// round trip per input batch and the Grace join re-resolves keys per
    /// spilled chunk — the pre-batching behavior, kept for byte-identity
    /// cross-checks and cost comparisons. Results are identical either way.
    ///
    /// ```
    /// # use sdb_engine::SpEngine;
    /// let engine = SpEngine::new().with_oracle_batching(false);
    /// assert!(!engine.oracle_batching());
    /// ```
    pub fn with_oracle_batching(mut self, batching: bool) -> Self {
        self.config.oracle_batching = batching;
        self
    }

    /// Whether cross-batch oracle batching is enabled.
    pub fn oracle_batching(&self) -> bool {
        self.config.oracle_batching
    }

    /// Enables or disables the vectorised columnar kernels (builder style;
    /// default on, `SDB_TEST_SCALAR_EVAL=1` flips the default). Kernels are
    /// byte-identical to the scalar row-at-a-time paths — the knob exists for
    /// equivalence cross-checks and scalar-baseline benchmarking.
    ///
    /// ```
    /// # use sdb_engine::SpEngine;
    /// let engine = SpEngine::new().with_vectorised(false);
    /// assert!(!engine.vectorised());
    /// ```
    pub fn with_vectorised(mut self, vectorised: bool) -> Self {
        self.config.vectorised = vectorised;
        self
    }

    /// Whether the vectorised columnar kernels are enabled.
    pub fn vectorised(&self) -> bool {
        self.config.vectorised
    }

    /// Enables or disables per-operator execution tracing for every query
    /// this engine runs (builder style; default off, `SDB_TRACE=1` flips the
    /// default). Traced queries return a [`crate::trace::TraceReport`] on
    /// [`QueryOutput::trace`] (exported as JSON under `SDB_TRACE_DIR` when
    /// that is set) and produce byte-identical results to untraced runs.
    ///
    /// ```
    /// # use sdb_engine::SpEngine;
    /// let engine = SpEngine::new().with_tracing(true);
    /// engine.execute_sql("CREATE TABLE t (a INT)")?;
    /// engine.execute_sql("INSERT INTO t VALUES (1), (2), (3)")?;
    ///
    /// let out = engine.execute_sql("SELECT a FROM t WHERE a > 1")?;
    /// let report = out.trace.expect("tracing was on");
    /// let root = &report.spans[report.root.unwrap()];
    /// assert_eq!(root.rows_out, out.batch.num_rows());
    /// # Ok::<(), sdb_engine::EngineError>(())
    /// ```
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.config.tracing = tracing;
        self
    }

    /// Whether per-operator execution tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.config.tracing
    }

    /// Injects a fixed per-request latency on the oracle link (builder
    /// style; tests and benches). Simulates the SP↔proxy WAN round trip the
    /// protocol is billed by; `SDB_TEST_ORACLE_LATENCY_MS` sets the same
    /// knob process-wide.
    ///
    /// ```
    /// # use sdb_engine::SpEngine;
    /// # use std::time::Duration;
    /// let engine = SpEngine::new().with_oracle_latency(Duration::from_millis(10));
    /// assert_eq!(engine.oracle_latency(), Some(Duration::from_millis(10)));
    /// ```
    pub fn with_oracle_latency(mut self, latency: std::time::Duration) -> Self {
        self.config.oracle_latency = Some(latency);
        self
    }

    /// The injected oracle latency, if any (the builder's, else
    /// `SDB_TEST_ORACLE_LATENCY_MS`).
    pub fn oracle_latency(&self) -> Option<std::time::Duration> {
        self.config.oracle_latency
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
        let ctx = Arc::new(self.query_context(None, &QueryOptions::default()));
        let optimized = if self.config.optimizer {
            ctx.optimizer().optimize(&plan)
        } else {
            plan.clone()
        };
        let physical = crate::planner::PhysicalPlanner::new(Arc::clone(&ctx)).plan(&optimized)?;

        let mut lines = Vec::new();
        lines.push(format!(
            "physical plan (optimizer {}, parallelism {}, budget {}):",
            if self.config.optimizer { "on" } else { "off" },
            self.config.parallelism,
            match self.config.memory_budget.limit() {
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

    /// Rows per batch used for query execution.
    pub fn batch_size(&self) -> usize {
        self.config.batch_size
    }

    /// The per-query memory budget for blocking operators.
    pub fn memory_budget(&self) -> &MemoryBudget {
        &self.config.memory_budget
    }

    /// Workers per query used by the parallel operators.
    pub fn parallelism(&self) -> usize {
        self.config.parallelism
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
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
        let mut output = self.execute_statement_with(&statement, opts)?;
        output.stats.total_time = started.elapsed();
        Ok(output)
    }

    /// Executes an already-parsed statement.
    pub fn execute_statement(&self, statement: &Statement) -> Result<QueryOutput> {
        self.execute_statement_with(statement, &QueryOptions::default())
    }

    /// Builds the execution context for one query: the engine's config
    /// with `opts` applied, constructed once.
    fn query_context(&self, oracle: Option<OracleRef>, opts: &QueryOptions) -> ExecContext<'_> {
        let mut config = self.config.clone();
        if let Some(budget) = &opts.memory_budget {
            config.memory_budget = budget.clone();
        }
        if let Some(parallelism) = opts.parallelism {
            config.parallelism = parallelism;
        }
        if let Some(tracing) = opts.tracing {
            config.tracing = tracing;
        }
        ExecContext::new(
            &self.catalog,
            &self.registry,
            oracle,
            config,
            opts.pager.clone(),
            opts.cancel.clone(),
        )
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
        let run = std::panic::AssertUnwindSafe(|| self.run_statement(statement, opts));
        std::panic::catch_unwind(run).unwrap_or_else(|panic| {
            let detail = (panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "a non-text payload".to_string());
            Err(EngineError::Panicked { detail })
        })
    }

    fn run_statement(&self, statement: &Statement, opts: &QueryOptions) -> Result<QueryOutput> {
        match statement {
            Statement::Query(query) => {
                let plan = PlanBuilder::build(query)?;
                let oracle = opts.oracle.clone().or_else(|| self.oracle.read().clone());
                let ctx = Arc::new(self.query_context(oracle, opts));
                let batch = planner::execute_plan(&ctx, &plan)?;
                let trace = ctx.trace().map(|t| t.report());
                if let Some(report) = &trace {
                    Self::maybe_export_trace(report);
                }
                Ok(QueryOutput {
                    stats: ctx.stats(),
                    batch,
                    trace,
                })
            }
            Statement::ExplainAnalyze(query) => self.explain_analyze_query(query),
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

    /// Executes `query` with tracing forced on and renders the annotated
    /// physical tree — per-operator actual rows, wall time,
    /// estimate-vs-actual deviation and oracle / spill / kernel attribution
    /// (the `EXPLAIN ANALYZE` statement). The full [`TraceReport`] rides
    /// along on [`QueryOutput::trace`].
    ///
    /// [`TraceReport`]: crate::trace::TraceReport
    fn explain_analyze_query(&self, query: &sdb_sql::ast::Query) -> Result<QueryOutput> {
        let started = Instant::now();
        let plan = PlanBuilder::build(query)?;
        let oracle = self.oracle.read().clone();
        let traced = QueryOptions::default().with_tracing(true);
        let ctx = Arc::new(self.query_context(oracle, &traced));
        let batch = planner::execute_plan(&ctx, &plan)?;
        let mut stats = ctx.stats();
        stats.total_time = started.elapsed();
        let mut report = ctx.trace().expect("tracing was forced on").report();
        report.total_time_us = stats.total_time.as_micros() as u64;
        Self::maybe_export_trace(&report);

        let mut lines = Vec::with_capacity(report.spans.len() + 1);
        lines.push(format!(
            "analyzed plan ({} rows in {}, parallelism {}, budget {}):",
            batch.num_rows(),
            crate::trace::fmt_us(report.total_time_us),
            self.config.parallelism,
            match self.config.memory_budget.limit() {
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

    /// Writes `report` as JSON under `SDB_TRACE_DIR` when that is set.
    /// Best-effort: export failures never fail the query.
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
        assert_eq!(out.batch.column(0).get(0), &Value::Str("ann".into()));
        assert!(out.stats.total_time.as_nanos() > 0);

        let out = engine
            .execute_sql("SELECT COUNT(*) AS n FROM accounts")
            .unwrap();
        assert_eq!(out.batch.column(0).get(0), &Value::Int(3));
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
        assert_eq!(out.batch.column(0).get(0), &Value::Int(-5));
    }

    #[test]
    fn duplicate_create_rejected() {
        let engine = SpEngine::new();
        engine.execute_sql("CREATE TABLE t (a INT)").unwrap();
        assert!(engine.execute_sql("CREATE TABLE t (a INT)").is_err());
    }
}
