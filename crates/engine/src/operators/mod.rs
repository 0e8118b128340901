//! The physical operator pipeline.
//!
//! Every relational operator is a [`PhysicalOperator`]: a Volcano-style
//! iterator over [`RecordBatch`]es with an `open` / `next_batch` / `close`
//! lifecycle. [`crate::planner::PhysicalPlanner`] lowers a
//! [`sdb_sql::plan::LogicalPlan`] into a tree of boxed operators; the tree
//! shares one [`ExecContext`] carrying the catalog, the UDF registry, the
//! optional DO-proxy oracle and the run's statistics.
//!
//! One file per operator:
//!
//! * [`scan`] — base-table scan: windows onto the table's shared buffers,
//!   only the columns the plan references;
//! * [`filter`] — row filtering over a predicate;
//! * [`project`] — projection / expression evaluation;
//! * [`join`] — hash equi-join (index-vector probe, gathered output) and the
//!   nested-loop fallback;
//! * [`grace_join`] — bounded-memory Grace-style spilling hash join
//!   (selected when a [`MemoryBudget`] is set);
//! * [`aggregate`] — hash aggregation with grouping, with a partitioned
//!   parallel variant;
//! * [`sort`] — sort, limit and distinct (the order-shaping operators);
//! * [`external_sort`] — bounded-memory external merge sort through the
//!   pager (selected when a [`MemoryBudget`] is set);
//! * [`spill_aggregate`] — bounded-memory partition-and-spill aggregation
//!   (likewise budget-selected);
//! * [`oracle`] — the SDB oracle-call operator resolving interactive protocol
//!   steps (comparisons, group tags, ranks) with one batched round trip per
//!   call;
//! * [`parallel`] — the partition-parallel execution layer (worker identity,
//!   scoped-thread fan-out).
//!
//! ## Intra-query parallelism
//!
//! The context is `Send + Sync` ([`PhysicalOperator`] requires `Send`, so
//! whole plans can cross threads) and the blocking operators fan their heavy
//! phases out across `ctx.parallelism()` workers using `std::thread::scope`
//! (see [`parallel`]):
//!
//! * [`join::HashJoin`] partitions its materialised build side to evaluate
//!   interpreted key expressions per worker (concatenated in morsel order;
//!   the index itself is filled serially, in row order);
//! * [`aggregate::ParallelHashAggregate`] partitions its input via
//!   [`RecordBatch::partition`], accumulates per-worker group states and
//!   merges them at drain in global first-occurrence order.
//!
//! Partitioning is always by contiguous, in-order morsels and every merge
//! step preserves morsel order, so parallel execution is **byte-identical**
//! to serial execution for the same plan.
//!
//! ## Knobs
//!
//! * `parallelism` (default: available cores; `1` = the serial plans) decides
//!   whether [`crate::planner::PhysicalPlanner`] inserts the parallel
//!   variants and how many workers each fan-out uses.
//! * `batch_size` (default [`DEFAULT_BATCH_SIZE`]) is the number of rows per
//!   batch flowing between operators.
//! * `memory_budget` (default unlimited; `SDB_TEST_MEM_BUDGET` overrides the
//!   default in bytes) bounds what the blocking operators materialise — when
//!   limited, sort, aggregation and hash joins lower to their spilling
//!   variants, which park overflow in the context's [`Pager`] and produce
//!   byte-identical results.
//!
//! All are fields on [`ExecContext`] with builder-style setters, exposed
//! through [`crate::SpEngine::with_parallelism`],
//! [`crate::SpEngine::with_batch_size`] and
//! [`crate::SpEngine::with_memory_budget`].
//!
//! ## Statistics and RNG under parallelism
//!
//! Statistics are sharded per worker ([`crate::stats::ShardedStats`]): worker
//! `i` accumulates into shard `i` without contending with its siblings, and
//! [`ExecContext::stats`] merges all shards into one snapshot. The
//! comparison-blinding RNG is likewise per worker, with thread-indexed seeds
//! (`seed + worker`) so seeded runs stay deterministic at any parallelism.

pub mod aggregate;
pub mod expr;
pub mod external_sort;
pub mod filter;
pub mod grace_join;
pub mod join;
pub mod oracle;
pub mod parallel;
pub mod project;
pub mod scan;
pub mod sort;
pub mod spill_aggregate;

#[cfg(test)]
mod tests;

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sdb_sql::ast::Query;
use sdb_sql::plan::PlanBuilder;
use sdb_storage::{CancelToken, Catalog, MemoryBudget, Pager, RecordBatch, Schema, Value};

use crate::eval::{Evaluator, SubqueryResolver};
use crate::secure::OracleRef;
use crate::stats::{ExecutionStats, ShardedStats};
use crate::udf::UdfRegistry;
use crate::{EngineError, Result};

/// Default number of rows per batch flowing between operators.
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// A physical operator: a batched iterator over records.
///
/// Lifecycle: `open()` once, `next_batch()` until it returns `None`, then
/// `close()`. Operators own their children; blocking operators (hash join
/// build side, aggregation, sort) drain their input during `open()` or on the
/// first `next_batch()` call.
///
/// `Send` is a supertrait so whole plans can cross threads: a boxed operator
/// tree may be built on one thread and driven on another.
pub trait PhysicalOperator: Send {
    /// A short name for debugging and plan rendering (e.g. `"HashJoin"`).
    fn name(&self) -> &'static str;

    /// A compact one-line rendering of this operator subtree, e.g.
    /// `"Limit(Project(TableScan))"`. Leaves use their name; operators with
    /// children override this to include them.
    fn describe(&self) -> String {
        self.name().to_string()
    }

    /// Prepares the operator (and its children) for execution.
    fn open(&mut self) -> Result<()>;

    /// Produces the next batch, or `None` when exhausted.
    fn next_batch(&mut self) -> Result<Option<RecordBatch>>;

    /// Releases resources (and closes children).
    fn close(&mut self) -> Result<()>;
}

/// A boxed operator tied to the execution context's lifetime.
pub type BoxedOperator<'a> = Box<dyn PhysicalOperator + 'a>;

/// Shared execution state for one query: catalog and registry references, the
/// oracle connection, sharded statistics, the per-worker blinding RNGs and
/// the subquery cache.
///
/// The context is `Send + Sync` and shared as an `Arc` so parallel operators
/// can hand it to scoped worker threads. Worker-local state (the statistics
/// shard, the RNG) is selected by the thread's worker id (see [`parallel`]).
pub struct ExecContext<'a> {
    catalog: &'a Catalog,
    registry: &'a UdfRegistry,
    /// The oracle operators talk to — `oracle_raw`, possibly wrapped in a
    /// [`crate::secure::LatencyOracle`] when latency injection is configured.
    oracle: Option<OracleRef>,
    /// The oracle exactly as the caller provided it (subquery contexts and
    /// latency re-wrapping always start from here, so latency can never be
    /// applied twice).
    oracle_raw: Option<OracleRef>,
    /// Injected per-request oracle latency (`SDB_TEST_ORACLE_LATENCY_MS` or
    /// [`Self::with_oracle_latency`]); `None` = no injection.
    oracle_latency: Option<std::time::Duration>,
    /// The encrypted-value memo: answers of past sign/group-tag requests,
    /// keyed by call fingerprint + operand ciphertexts, shared with subquery
    /// contexts so hot answers never re-travel the link.
    oracle_memo: Arc<oracle::OracleMemo>,
    /// Whether [`oracle::OracleResolve`] (and the Grace join's key
    /// resolution) coalesce operand rows across input batches into one
    /// round trip per registered call (default on; `false` restores the
    /// one-trip-per-call-per-batch behavior).
    oracle_batching: bool,
    stats: ShardedStats,
    /// One blinding RNG per worker; seeded runs use thread-indexed seeds
    /// (`seed + worker`) so parallelism cannot change a seeded run's stream.
    rngs: Vec<Mutex<StdRng>>,
    rng_seed: Option<u64>,
    /// Results of uncorrelated subqueries: bucketed by the cheap SQL
    /// rendering, then matched by full structural equality on the query AST —
    /// so two parameterisations that happen to display the same SQL text
    /// cannot collide, and cache hits never rebuild a plan.
    subquery_cache: Mutex<HashMap<String, Vec<(Query, RecordBatch)>>>,
    /// The UDF instances of this query's call sites: each binds its constant
    /// arguments (`n`, `p`, `q`) once, however many batches and evaluators
    /// the query runs through.
    udf_sites: crate::udf::UdfSites,
    batch_size: usize,
    parallelism: usize,
    /// Whether the cost-based optimizer rewrites logical plans before
    /// physical planning (default on; reordering only happens where
    /// statistics exist).
    optimizer: bool,
    /// Test/CI mode (`SDB_TEST_ANALYZE`): analyze missing table statistics
    /// on demand at plan time, so whole suites exercise reordered plans.
    auto_analyze: bool,
    /// Whether operators may route eligible work through the vectorised
    /// columnar kernels (default on; `SDB_TEST_SCALAR_EVAL=1` forces the
    /// scalar row-at-a-time paths for byte-identity cross-checks).
    vectorised: bool,
    /// How much the blocking operators may materialise before spilling.
    budget: MemoryBudget,
    /// The query's buffer pool; spilling operators park runs and partitions
    /// here. Shared so subtrees on different worker threads account against
    /// one budget.
    pager: Arc<Pager>,
    /// The per-query execution trace, when tracing is on (default off).
    /// `Some` makes [`crate::planner::PhysicalPlanner`] wrap every operator
    /// in a [`crate::trace::InstrumentedOperator`] and hooks pager / oracle
    /// events into the owning span; `None` costs nothing.
    trace: Option<Arc<crate::trace::QueryTrace>>,
    /// Cooperative cancellation flag, polled at operator `next_batch` loops,
    /// oracle flushes and pager admissions. Defaults to a never-cancelled
    /// token; the serving layer installs a real one per query.
    cancel: CancelToken,
}

impl<'a> ExecContext<'a> {
    /// Creates a context. `oracle` is the connection back to the DO proxy for
    /// interactive protocol steps; pass `None` for plaintext-only workloads.
    ///
    /// Parallelism defaults to the number of available cores; batch size to
    /// [`DEFAULT_BATCH_SIZE`].
    pub fn new(catalog: &'a Catalog, registry: &'a UdfRegistry, oracle: Option<OracleRef>) -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // `SDB_TEST_MEM_BUDGET` (bytes) forces a default budget so whole test
        // suites can be re-run through the spill paths; an explicit
        // `with_memory_budget` still overrides it.
        let budget = MemoryBudget::from_env();
        // `SDB_TEST_ORACLE_LATENCY_MS` injects a per-request sleep on the
        // oracle link so whole suites (and the benches) can be re-run over a
        // simulated WAN; an explicit `with_oracle_latency` still overrides it.
        let oracle_latency = std::env::var("SDB_TEST_ORACLE_LATENCY_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|ms| *ms > 0)
            .map(std::time::Duration::from_millis);
        ExecContext {
            catalog,
            registry,
            oracle: Self::wrapped_oracle(&oracle, oracle_latency),
            oracle_raw: oracle,
            oracle_latency,
            oracle_memo: Arc::new(oracle::OracleMemo::default()),
            oracle_batching: true,
            stats: ShardedStats::new(parallelism),
            rngs: Self::entropy_rngs(parallelism),
            rng_seed: None,
            subquery_cache: Mutex::new(HashMap::new()),
            udf_sites: crate::udf::UdfSites::default(),
            batch_size: DEFAULT_BATCH_SIZE,
            parallelism,
            optimizer: true,
            auto_analyze: std::env::var("SDB_TEST_ANALYZE")
                .map(|v| v == "1")
                .unwrap_or(false),
            // `SDB_TEST_SCALAR_EVAL=1` re-runs whole suites through the
            // scalar row-at-a-time paths; an explicit `with_vectorised`
            // still overrides it.
            vectorised: std::env::var("SDB_TEST_SCALAR_EVAL")
                .map(|v| v != "1")
                .unwrap_or(true),
            pager: Arc::new(Pager::new(&budget)),
            budget,
            trace: None,
            cancel: CancelToken::new(),
        }
    }

    /// The oracle operators should actually call: the raw connection, wrapped
    /// in a [`crate::secure::LatencyOracle`] when latency injection is on.
    fn wrapped_oracle(
        raw: &Option<OracleRef>,
        latency: Option<std::time::Duration>,
    ) -> Option<OracleRef> {
        match (raw, latency) {
            (Some(oracle), Some(latency)) => Some(Arc::new(crate::secure::LatencyOracle::new(
                Arc::clone(oracle),
                latency,
            ))),
            (raw, _) => raw.clone(),
        }
    }

    fn entropy_rngs(workers: usize) -> Vec<Mutex<StdRng>> {
        // One OS entropy draw, then derived per-worker streams: seeding every
        // worker from the OS would cost one entropy read per core per query.
        let mut master = StdRng::from_entropy();
        (0..workers.max(1))
            .map(|_| Mutex::new(StdRng::seed_from_u64(master.gen())))
            .collect()
    }

    fn seeded_rngs(seed: u64, workers: usize) -> Vec<Mutex<StdRng>> {
        (0..workers.max(1) as u64)
            .map(|i| Mutex::new(StdRng::seed_from_u64(seed.wrapping_add(i))))
            .collect()
    }

    /// Uses fixed, thread-indexed RNG seeds for the comparison-blinding
    /// factors (worker `i` draws from `seed + i`; tests only).
    pub fn with_rng_seed(self, seed: u64) -> Self {
        ExecContext {
            rngs: Self::seeded_rngs(seed, self.parallelism),
            rng_seed: Some(seed),
            ..self
        }
    }

    /// Bounds how much memory the blocking operators (sort, aggregation) may
    /// materialise before spilling through the pager, and rebuilds the
    /// query's buffer pool under the new budget. With a limited budget the
    /// planner selects the spilling operator variants
    /// ([`crate::operators::external_sort::ExternalSort`],
    /// [`crate::operators::spill_aggregate::SpillingHashAggregate`]), whose
    /// output is byte-identical to the in-memory ones.
    pub fn with_memory_budget(self, budget: MemoryBudget) -> Self {
        let pager = Arc::new(Pager::new(&budget));
        // The budget rebuilds the buffer pool, so the trace's pager hook (if
        // tracing was enabled first) and the cancellation token must be
        // re-installed on the new lease.
        if let Some(trace) = &self.trace {
            crate::trace::install_pager_observer(&pager, trace);
        }
        pager.set_cancel_token(self.cancel.clone());
        ExecContext {
            pager,
            budget,
            ..self
        }
    }

    /// Replaces the query's pager lease — the serving layer's hook for
    /// running many queries against one shared, globally-budgeted
    /// [`sdb_storage::BufferPool`] (create the lease with
    /// [`Pager::shared`]). The trace's pager hook and the cancellation token
    /// are installed on the new lease, and the context's planning budget
    /// becomes the lease's resident-byte *quota* inside the shared pool —
    /// so a query bounded to a share of the global budget spills once its
    /// own pages exceed that share, exactly as it would in a private pool
    /// of that size. The planning budget itself is untouched, so set
    /// [`Self::with_memory_budget`] *first* to the budget the plan should
    /// assume.
    pub fn with_pager(self, pager: Arc<Pager>) -> Self {
        if let Some(trace) = &self.trace {
            crate::trace::install_pager_observer(&pager, trace);
        }
        pager.set_cancel_token(self.cancel.clone());
        pager.set_quota(self.budget.limit());
        ExecContext { pager, ..self }
    }

    /// Installs the cancellation token polled by this query's operators,
    /// oracle flushes and pager (replacing the default never-cancelled
    /// token). Cancelling the token makes the next poll fail with
    /// [`sdb_storage::StorageError::Cancelled`]; the query then unwinds
    /// through its normal error path, releasing its pager lease, spill
    /// files and pins.
    pub fn with_cancel_token(self, cancel: CancelToken) -> Self {
        self.pager.set_cancel_token(cancel.clone());
        ExecContext { cancel, ..self }
    }

    /// Overrides the batch size (power users / tests).
    ///
    /// Panics if `batch_size` is zero.
    pub fn with_batch_size(self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        ExecContext { batch_size, ..self }
    }

    /// Enables or disables the cost-based optimizer (default on; `false`
    /// keeps the purely syntactic plans).
    pub fn with_optimizer(self, optimizer: bool) -> Self {
        ExecContext { optimizer, ..self }
    }

    /// Enables or disables the vectorised columnar kernels (default on;
    /// `false` forces the scalar row-at-a-time paths everywhere). Kernel
    /// output is byte-identical to the scalar paths — this knob exists for
    /// the equivalence cross-checks and for benchmarking the scalar
    /// baseline.
    pub fn with_vectorised(self, vectorised: bool) -> Self {
        ExecContext { vectorised, ..self }
    }

    /// Enables or disables per-query execution tracing (default off; the
    /// `SDB_TRACE=1` env var flips [`crate::SpEngine`]'s default). With
    /// tracing on, the planner wraps every physical operator in a
    /// [`crate::trace::InstrumentedOperator`] recording per-span wall time,
    /// batch/row counts and attributed counter deltas, and pager spill /
    /// eviction events are attached to the owning span. Tracing never
    /// changes query output — instrumented plans are byte-identical.
    pub fn with_tracing(self, tracing: bool) -> Self {
        if !tracing {
            return ExecContext {
                trace: None,
                ..self
            };
        }
        let trace = Arc::new(crate::trace::QueryTrace::new());
        crate::trace::install_pager_observer(&self.pager, &trace);
        ExecContext {
            trace: Some(trace),
            ..self
        }
    }

    /// The active query trace, when tracing is on.
    pub fn trace(&self) -> Option<&Arc<crate::trace::QueryTrace>> {
        self.trace.as_ref()
    }

    /// Enables or disables cross-batch oracle batching (default on). With
    /// batching off, [`oracle::OracleResolve`] pays one round trip per
    /// registered call per input batch and the Grace hash join re-resolves
    /// key calls per spilled chunk — the pre-batching behavior, kept for the
    /// byte-identity cross-checks and for cost-model comparisons.
    pub fn with_oracle_batching(self, oracle_batching: bool) -> Self {
        ExecContext {
            oracle_batching,
            ..self
        }
    }

    /// Injects a fixed per-request latency on the oracle link (tests and
    /// benches; simulates the SP↔proxy WAN round trip). Always rebuilds the
    /// wrapper from the raw connection, so repeated calls never stack sleeps.
    pub fn with_oracle_latency(self, latency: std::time::Duration) -> Self {
        let latency = Some(latency);
        ExecContext {
            oracle: Self::wrapped_oracle(&self.oracle_raw, latency),
            oracle_latency: latency,
            ..self
        }
    }

    /// Overrides the number of workers parallel operators may use (`1`
    /// selects the serial plans). Resizes the statistics shards and the
    /// per-worker RNG pool, preserving any configured seed.
    ///
    /// Panics if `parallelism` is zero.
    pub fn with_parallelism(self, parallelism: usize) -> Self {
        assert!(parallelism > 0, "parallelism must be positive");
        if parallelism == self.parallelism {
            return self;
        }
        ExecContext {
            stats: ShardedStats::new(parallelism),
            rngs: match self.rng_seed {
                Some(seed) => Self::seeded_rngs(seed, parallelism),
                None => Self::entropy_rngs(parallelism),
            },
            parallelism,
            ..self
        }
    }

    /// The catalog queries run against.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// The scalar-UDF registry.
    pub fn registry(&self) -> &'a UdfRegistry {
        self.registry
    }

    /// The DO-proxy oracle, if connected (latency-wrapped when injection is
    /// configured).
    pub fn oracle(&self) -> Option<&OracleRef> {
        self.oracle.as_ref()
    }

    /// Whether cross-batch oracle batching is on.
    pub fn oracle_batching(&self) -> bool {
        self.oracle_batching
    }

    /// The shared encrypted-value memo for oracle answers.
    pub(crate) fn oracle_memo(&self) -> &oracle::OracleMemo {
        &self.oracle_memo
    }

    /// Rows per batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of workers parallel operators may fan out to (`1` = serial).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The memory budget for blocking operators.
    pub fn memory_budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Whether the cost-based optimizer runs before physical planning.
    pub fn optimizer_enabled(&self) -> bool {
        self.optimizer
    }

    /// Whether operators may route eligible work through the vectorised
    /// columnar kernels.
    pub fn vectorised(&self) -> bool {
        self.vectorised
    }

    /// A configured [`crate::optimizer::Optimizer`] for this context's
    /// catalog and knobs.
    pub fn optimizer(&self) -> crate::optimizer::Optimizer<'a> {
        crate::optimizer::Optimizer::new(self.catalog)
            .with_batch_size(self.batch_size)
            .with_budget(self.budget.limit())
            .with_auto_analyze(self.auto_analyze)
            .with_oracle_batching(self.oracle_batching)
    }

    /// The query's buffer pool lease.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// The query's cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Polls the cancellation token; operators call this at the top of their
    /// `next_batch` loops. Fails with [`EngineError::Storage`] wrapping
    /// [`sdb_storage::StorageError::Cancelled`] once cancelled.
    pub fn check_cancelled(&self) -> Result<()> {
        self.cancel.check()?;
        Ok(())
    }

    /// A snapshot of the statistics accumulated so far, merged across all
    /// worker shards, with the pager's spill counters folded in.
    pub fn stats(&self) -> ExecutionStats {
        let mut snapshot = self.stats.snapshot();
        snapshot.absorb_pager(&self.pager.stats());
        snapshot
    }

    /// Locks the current worker's statistics shard (operators record as they
    /// run; workers never contend with their siblings).
    pub(crate) fn stats_mut(&self) -> MutexGuard<'_, ExecutionStats> {
        self.stats.shard(parallel::current_worker())
    }

    /// Locks the current worker's blinding RNG.
    pub(crate) fn rng_mut(&self) -> MutexGuard<'_, StdRng> {
        self.rngs[parallel::current_worker() % self.rngs.len()].lock()
    }

    /// The UDF instances of the query's call sites, with the constants they
    /// bound: the arithmetic state the SP keeps while the query runs.
    pub fn udf_sites(&self) -> &crate::udf::UdfSites {
        &self.udf_sites
    }

    /// An expression evaluator wired to this context's registry and subquery
    /// resolution.
    pub(crate) fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::new(self.registry)
            .with_subqueries(self)
            .with_query_sites(&self.udf_sites)
    }

    /// Plans the key-update sets of one operator from the expressions it
    /// evaluates (see [`crate::udf::KeyUpdateSets`]); the operator hands them
    /// to its evaluators with [`Evaluator::with_key_updates`].
    pub(crate) fn key_update_sets<'e>(
        &self,
        exprs: impl IntoIterator<Item = &'e sdb_sql::ast::Expr>,
    ) -> Arc<crate::udf::KeyUpdateSets> {
        self.udf_sites.key_update_sets(exprs, self.parallelism)
    }

    /// Counts one batch of keyed work (join keys, a grouped morsel): a kernel
    /// hit when nothing in it needed the interpreter — every expression a
    /// column reference or literal — and a scalar fallback otherwise, or
    /// with the knob off. One code path either way; the counters keep
    /// `kernel_hit_share` comparable.
    pub(crate) fn record_key_batch(&self, interpreted: bool) {
        let mut stats = self.stats_mut();
        match interpreted || !self.vectorised {
            true => stats.scalar_fallback_batches += 1,
            false => stats.vectorised_batches += 1,
        }
    }

    /// Folds an evaluator's UDF counters into the statistics.
    pub(crate) fn record_udf_calls(&self, evaluator: &Evaluator<'_>) {
        let key_updates = evaluator.key_update_counts();
        let mut stats = self.stats_mut();
        stats.udf_calls += evaluator.udf_calls();
        stats.key_update_calls += key_updates.calls;
        stats.key_update_pows += key_updates.pows;
        stats.key_update_derived += key_updates.derived;
    }
}

impl SubqueryResolver for ExecContext<'_> {
    fn scalar(&self, query: &Query) -> Result<Value> {
        let batch = self.run_subquery(query)?;
        if batch.num_columns() != 1 {
            return Err(EngineError::Expression {
                detail: "scalar subquery must return exactly one column".into(),
            });
        }
        match batch.num_rows() {
            0 => Ok(Value::Null),
            1 => Ok(batch.column(0).get(0).clone()),
            n => Err(EngineError::Expression {
                detail: format!("scalar subquery returned {n} rows"),
            }),
        }
    }

    fn column(&self, query: &Query) -> Result<Vec<Value>> {
        let batch = self.run_subquery(query)?;
        if batch.num_columns() == 0 {
            return Ok(vec![]);
        }
        Ok(batch.column(0).values().to_vec())
    }
}

impl ExecContext<'_> {
    /// Plans and runs an uncorrelated subquery against the same catalog,
    /// registry and oracle, caching the result. Entries are bucketed by the
    /// SQL rendering and matched by structural equality on the query AST
    /// (literal types and every parameter value included), so distinct
    /// parameterisations that display the same SQL text get distinct cache
    /// entries. The subquery's statistics are merged into this context's
    /// totals.
    ///
    /// The whole lookup-or-execute runs under the cache lock: concurrent
    /// parallel workers needing the same subquery wait for the first
    /// execution instead of racing to duplicate it (and its oracle round
    /// trips and statistics). Subqueries themselves run serially — they may
    /// already be executing on a parallel worker, and nesting thread scopes
    /// per subquery would oversubscribe the machine for work that is cached
    /// after its first execution.
    fn run_subquery(&self, query: &Query) -> Result<RecordBatch> {
        let key = query.to_string();
        let mut cache = self.subquery_cache.lock();
        if let Some(entries) = cache.get(&key) {
            if let Some((_, batch)) = entries.iter().find(|(q, _)| q == query) {
                return Ok(batch.clone());
            }
        }
        let plan = PlanBuilder::build(query)?;
        // Start from the *raw* oracle so the latency wrapper is applied
        // exactly once, and share the parent's encrypted-value memo so
        // answers the parent already paid for never re-travel the link.
        let mut sub = ExecContext::new(self.catalog, self.registry, self.oracle_raw.clone())
            .with_batch_size(self.batch_size)
            .with_memory_budget(self.budget.clone())
            .with_optimizer(self.optimizer)
            .with_oracle_batching(self.oracle_batching)
            .with_vectorised(self.vectorised)
            .with_parallelism(1);
        sub.oracle = Self::wrapped_oracle(&sub.oracle_raw, self.oracle_latency);
        sub.oracle_latency = self.oracle_latency;
        sub.oracle_memo = Arc::clone(&self.oracle_memo);
        // Cancelling the parent must also stop a subquery in flight.
        sub = sub.with_cancel_token(self.cancel.clone());
        // Attribute the subquery's wall time to the parent: `total_time` is
        // only stamped at the top-level execute, so without this counter a
        // subquery-heavy parent under-reports where its time went. Cache
        // hits return above and cost (and record) nothing.
        let started = std::time::Instant::now();
        let batch = execute_plan(&Arc::new(sub), &plan, |sub_stats| {
            self.stats_mut().merge(sub_stats);
        })?;
        self.stats_mut().subquery_time += started.elapsed();
        cache
            .entry(key)
            .or_default()
            .push((query.clone(), batch.clone()));
        Ok(batch)
    }
}

/// Plans and drains a logical plan to completion, concatenating all produced
/// batches. `on_finish` receives the context's final statistics (used to merge
/// subquery stats into a parent). When the context's optimizer knob is on,
/// the logical plan passes through the cost-based optimizer first.
pub(crate) fn execute_plan<'a>(
    ctx: &Arc<ExecContext<'a>>,
    plan: &sdb_sql::plan::LogicalPlan,
    on_finish: impl FnOnce(&ExecutionStats),
) -> Result<RecordBatch> {
    let optimized;
    let plan = if ctx.optimizer_enabled() {
        optimized = ctx.optimizer().optimize(plan);
        &optimized
    } else {
        plan
    };
    let mut root = crate::planner::PhysicalPlanner::new(Arc::clone(ctx)).plan(plan)?;
    let batch = drain_operator(root.as_mut())?;
    ctx.stats_mut().rows_returned = batch.num_rows();
    on_finish(&ctx.stats());
    Ok(batch)
}

/// Runs one operator's full lifecycle, concatenating its output batches.
pub fn drain_operator(root: &mut dyn PhysicalOperator) -> Result<RecordBatch> {
    root.open()?;
    let result = materialize_input(root)?;
    root.close()?;
    Ok(result.unwrap_or_else(|| RecordBatch::empty(Schema::empty())))
}

/// Drains an operator into a single materialised batch, for blocking
/// consumers (join build sides, aggregation, sort). Returns `None` when the
/// input produced no batches at all. Accumulates with in-place appends, so
/// the total cost is linear in the rows produced.
pub(crate) fn materialize_input(input: &mut dyn PhysicalOperator) -> Result<Option<RecordBatch>> {
    let mut result: Option<RecordBatch> = None;
    while let Some(batch) = input.next_batch()? {
        match &mut result {
            None => result = Some(batch),
            Some(acc) => acc.append(&batch)?,
        }
    }
    Ok(result)
}
