//! [`ExecConfig`]: every setting a query executes under, in one value.
//!
//! The defaults are resolved once per process — the core count and the
//! `SDB_TEST_*` / `SDB_TRACE` variables are read on first use — so building
//! a query's [`crate::ExecContext`] makes no OS call. [`crate::SpEngine`]
//! holds one config ([`crate::SpEngine::with_config`]),
//! [`crate::QueryOptions`] override fields of a copy per query, and a
//! subquery runs under its parent's copy at parallelism 1.

use std::sync::OnceLock;

use sdb_storage::MemoryBudget;

use crate::operators::DEFAULT_BATCH_SIZE;
use crate::{EngineError, Result};

/// The execution settings of one query. Plain data: set fields with struct
/// update syntax over [`ExecConfig::default`].
///
/// ```
/// use sdb_engine::ExecConfig;
///
/// let serial = ExecConfig { parallelism: 1, ..ExecConfig::default() };
/// assert_eq!(serial.batch_size, sdb_engine::DEFAULT_BATCH_SIZE);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecConfig {
    /// Rows per batch flowing between operators (default
    /// [`DEFAULT_BATCH_SIZE`]). Results are byte-identical at any size; the
    /// setting trades per-batch overhead against peak batch memory.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use sdb_engine::{ExecConfig, SpEngine};
    ///
    /// let engine = SpEngine::new();
    /// engine.execute_sql("CREATE TABLE t (a INT)")?;
    /// engine.execute_sql("INSERT INTO t VALUES (3), (1), (2), (5), (4)")?;
    /// let small = SpEngine::with_catalog(Arc::clone(engine.catalog()))
    ///     .with_config(ExecConfig { batch_size: 2, ..ExecConfig::default() });
    ///
    /// // Five rows flow through the pipeline as three 2-row batches.
    /// let sql = "SELECT a FROM t ORDER BY a";
    /// let out = small.execute_sql(sql)?;
    /// assert_eq!(out.batch.num_rows(), 5);
    /// assert_eq!(out.batch, engine.execute_sql(sql)?.batch);
    /// # Ok::<(), sdb_engine::EngineError>(())
    /// ```
    pub batch_size: usize,
    /// Workers the morsel-parallel operators may fan out to; `1` runs them
    /// serially (default: the available cores). Parallel plans fan heavy
    /// operator phases out over contiguous row morsels and merge in morsel
    /// order, so results are byte-identical to serial execution.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use sdb_engine::{ExecConfig, SpEngine};
    ///
    /// let serial = SpEngine::new().with_config(ExecConfig { parallelism: 1, ..ExecConfig::default() });
    /// serial.execute_sql("CREATE TABLE t (a INT, g INT)")?;
    /// serial.execute_sql("INSERT INTO t VALUES (10, 1), (20, 1), (30, 2)")?;
    /// let parallel = SpEngine::with_catalog(Arc::clone(serial.catalog()))
    ///     .with_config(ExecConfig { parallelism: 4, ..ExecConfig::default() });
    ///
    /// let sql = "SELECT g, SUM(a) AS s FROM t GROUP BY g ORDER BY g";
    /// let out = parallel.execute_sql(sql)?;
    /// assert_eq!(out.batch.num_rows(), 2);
    /// assert_eq!(out.batch, serial.execute_sql(sql)?.batch);
    /// # Ok::<(), sdb_engine::EngineError>(())
    /// ```
    pub parallelism: usize,
    /// How much a blocking operator (sort, aggregation, hash and
    /// nested-loop join build sides) may hold in memory before it overflows
    /// and spills through the pager, with results byte-identical to the
    /// in-memory ones (default unlimited; `SDB_TEST_MEM_BUDGET` bytes).
    /// Spill activity is reported in [`crate::ExecutionStats`].
    ///
    /// ```
    /// use sdb_engine::{ExecConfig, MemoryBudget, SpEngine};
    ///
    /// let engine = SpEngine::new().with_config(ExecConfig {
    ///     memory_budget: MemoryBudget::bytes(4 << 10),
    ///     ..ExecConfig::default()
    /// });
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
    pub memory_budget: MemoryBudget,
    /// Whether the cost-based optimizer rewrites logical plans (default on).
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
    /// use std::sync::Arc;
    /// use sdb_engine::{ExecConfig, SpEngine};
    ///
    /// let engine = SpEngine::new();
    /// engine.execute_sql("CREATE TABLE t (a INT)")?;
    /// engine.execute_sql("INSERT INTO t VALUES (1), (2), (3)")?;
    /// engine.execute_sql("ANALYZE t")?;
    /// assert_eq!(engine.catalog().table_stats("t").unwrap().row_count, 3);
    ///
    /// // EXPLAIN renders the physical tree plus per-node estimates, under a
    /// // header naming the settings it was planned with.
    /// let sql = "EXPLAIN SELECT a FROM t WHERE a > 1";
    /// let header = |engine: &SpEngine| -> Result<String, sdb_engine::EngineError> {
    ///     Ok(engine.execute_sql(sql)?.batch.column(0).value(0).as_str()?.to_string())
    /// };
    /// assert!(header(&engine)?.contains("optimizer on"));
    ///
    /// let syntactic = SpEngine::with_catalog(Arc::clone(engine.catalog()))
    ///     .with_config(ExecConfig { optimizer: false, ..ExecConfig::default() });
    /// assert!(header(&syntactic)?.contains("optimizer off"));
    /// # Ok::<(), sdb_engine::EngineError>(())
    /// ```
    pub optimizer: bool,
    /// Per-operator execution tracing (default off; `SDB_TRACE=1`). Traced
    /// queries return a [`crate::trace::TraceReport`] on
    /// [`crate::QueryOutput::trace`] (exported as JSON under `SDB_TRACE_DIR`
    /// when that is set) and produce byte-identical results to untraced
    /// runs.
    ///
    /// ```
    /// use sdb_engine::{ExecConfig, SpEngine};
    ///
    /// let engine = SpEngine::new().with_config(ExecConfig { tracing: true, ..ExecConfig::default() });
    /// engine.execute_sql("CREATE TABLE t (a INT)")?;
    /// engine.execute_sql("INSERT INTO t VALUES (1), (2), (3)")?;
    ///
    /// let out = engine.execute_sql("SELECT a FROM t WHERE a > 1")?;
    /// let report = out.trace.expect("tracing was on");
    /// let root = &report.spans[report.root.unwrap()];
    /// assert_eq!(root.rows_out, out.batch.num_rows());
    /// # Ok::<(), sdb_engine::EngineError>(())
    /// ```
    pub tracing: bool,
    /// Analyze missing table statistics at plan time, so whole suites run
    /// reordered plans (default off; `SDB_TEST_ANALYZE=1`).
    pub auto_analyze: bool,
    /// Seed of the comparison-blinding RNGs: worker `i` draws from
    /// `seed + i`, so seeded runs repeat at any parallelism (tests only;
    /// default `None`, one OS entropy draw on the query's first blinding).
    pub rng_seed: Option<u64>,
}

impl Default for ExecConfig {
    /// The process defaults, resolved on first use and copied thereafter.
    fn default() -> Self {
        static DEFAULTS: OnceLock<ExecConfig> = OnceLock::new();
        DEFAULTS.get_or_init(ExecConfig::resolve).clone()
    }
}

impl ExecConfig {
    // The one place the core count and the settings' environment variables
    // are read: every query copies them from here.
    #[allow(clippy::disallowed_methods)]
    fn resolve() -> Self {
        let var = |name: &str| std::env::var(name).ok();
        let budget = var("SDB_TEST_MEM_BUDGET").and_then(|s| s.trim().parse::<usize>().ok());
        ExecConfig {
            batch_size: DEFAULT_BATCH_SIZE,
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            memory_budget: match budget {
                Some(limit) if limit > 0 => MemoryBudget::bytes(limit),
                _ => MemoryBudget::unlimited(),
            },
            optimizer: true,
            tracing: var("SDB_TRACE").as_deref() == Some("1"),
            auto_analyze: var("SDB_TEST_ANALYZE").as_deref() == Some("1"),
            rng_seed: None,
        }
    }

    /// Fails with [`EngineError::InvalidConfig`] on a setting no query can
    /// run under: a zero worker count or batch size.
    pub(crate) fn validate(&self) -> Result<()> {
        let zero = match (self.parallelism, self.batch_size) {
            (0, _) => "parallelism",
            (_, 0) => "batch size",
            _ => return Ok(()),
        };
        Err(EngineError::InvalidConfig {
            detail: format!("{zero} must be positive"),
        })
    }
}
