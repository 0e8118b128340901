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
//! ## Settings
//!
//! A context runs under one [`ExecConfig`] (parallelism, batch size, memory
//! budget, …), fixed at construction: [`ExecContext::new`] builds the pager
//! (or takes the caller's lease), the statistics shards and the trace hooks
//! exactly once. With a limited budget, sort, aggregation and hash joins
//! lower to their spilling variants, which park overflow in the context's
//! [`Pager`] and produce byte-identical results.
//!
//! ## Statistics and RNG under parallelism
//!
//! Statistics are sharded per worker ([`crate::stats::ShardedStats`]): worker
//! `i` accumulates into shard `i` without contending with its siblings, and
//! [`ExecContext::stats`] merges all shards into one snapshot. The
//! comparison-blinding RNG is likewise per worker, with thread-indexed seeds
//! (`seed + worker`) so seeded runs stay deterministic at any parallelism.
//! The RNGs are seeded on the first blinding, so a query that blinds nothing
//! never reads OS entropy.

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
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sdb_sql::ast::Query;
use sdb_sql::plan::PlanBuilder;
use sdb_storage::{CancelToken, Catalog, MemoryBudget, Pager, RecordBatch, Schema, Value};

use crate::config::ExecConfig;
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
    /// The oracle operators talk to: the caller's, wrapped in a
    /// [`crate::secure::LatencyOracle`] when latency injection is configured.
    oracle: Option<OracleRef>,
    /// The encrypted-value memo: answers of past sign/group-tag requests,
    /// keyed by call fingerprint + operand ciphertexts, shared with subquery
    /// contexts so hot answers never re-travel the link.
    oracle_memo: Arc<oracle::OracleMemo>,
    config: ExecConfig,
    stats: ShardedStats,
    /// One blinding RNG per worker, seeded on first use (thread-indexed
    /// seeds `seed + worker` when the config has one, so parallelism cannot
    /// change a seeded run's stream).
    rngs: OnceLock<Vec<Mutex<StdRng>>>,
    /// Results of uncorrelated subqueries: bucketed by the cheap SQL
    /// rendering, then matched by full structural equality on the query AST —
    /// so two parameterisations that happen to display the same SQL text
    /// cannot collide, and cache hits never rebuild a plan.
    subquery_cache: Mutex<HashMap<String, Vec<(Query, RecordBatch)>>>,
    /// The UDF instances of this query's call sites: each binds its constant
    /// arguments (`n`, `p`, `q`) once, however many batches and evaluators
    /// the query runs through.
    udf_sites: crate::udf::UdfSites,
    /// The query's buffer pool; spilling operators park runs and partitions
    /// here. Shared so subtrees on different worker threads, and the
    /// query's subqueries, account against one budget.
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
    /// Creates a query's context in one pass. `oracle` is the connection
    /// back to the DO proxy for interactive protocol steps (`None` for
    /// plaintext-only workloads); `config` fixes every setting.
    ///
    /// Without a `lease`, the query gets a private pool under the config's
    /// budget. With one (the serving layer's [`Pager::shared`] lease on a
    /// global [`sdb_storage::BufferPool`]), the budget becomes the lease's
    /// resident-byte quota, so the query spills once its own pages exceed
    /// its share, exactly as it would in a private pool of that size. The
    /// trace hook and the cancellation token (`None`: never cancelled) are
    /// installed on whichever pager the query uses.
    ///
    /// Panics if the config's batch size or parallelism is zero.
    pub fn new(
        catalog: &'a Catalog,
        registry: &'a UdfRegistry,
        oracle: Option<OracleRef>,
        config: ExecConfig,
        lease: Option<Arc<Pager>>,
        cancel: Option<CancelToken>,
    ) -> Self {
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(config.parallelism > 0, "parallelism must be positive");
        let pager = match lease {
            Some(lease) => {
                lease.set_quota(config.memory_budget.limit());
                lease
            }
            None => Arc::new(Pager::new(&config.memory_budget)),
        };
        let cancel = cancel.unwrap_or_default();
        pager.set_cancel_token(cancel.clone());
        let trace = config.tracing.then(|| {
            let trace = Arc::new(crate::trace::QueryTrace::new());
            crate::trace::install_pager_observer(&pager, &trace);
            trace
        });
        let oracle = match (oracle, config.oracle_latency) {
            (Some(raw), Some(latency)) => {
                Some(Arc::new(crate::secure::LatencyOracle::new(raw, latency)) as OracleRef)
            }
            (oracle, _) => oracle,
        };
        ExecContext {
            catalog,
            registry,
            oracle,
            oracle_memo: Arc::default(),
            stats: ShardedStats::new(config.parallelism),
            rngs: OnceLock::new(),
            subquery_cache: Mutex::new(HashMap::new()),
            udf_sites: crate::udf::UdfSites::default(),
            config,
            pager,
            trace,
            cancel,
        }
    }

    /// The active query trace, when tracing is on.
    pub fn trace(&self) -> Option<&Arc<crate::trace::QueryTrace>> {
        self.trace.as_ref()
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
        self.config.oracle_batching
    }

    /// The shared encrypted-value memo for oracle answers.
    pub(crate) fn oracle_memo(&self) -> &oracle::OracleMemo {
        &self.oracle_memo
    }

    /// Rows per batch.
    pub fn batch_size(&self) -> usize {
        self.config.batch_size
    }

    /// Number of workers parallel operators may fan out to (`1` = serial).
    pub fn parallelism(&self) -> usize {
        self.config.parallelism
    }

    /// The memory budget for blocking operators.
    pub fn memory_budget(&self) -> &MemoryBudget {
        &self.config.memory_budget
    }

    /// Whether the cost-based optimizer runs before physical planning.
    pub fn optimizer_enabled(&self) -> bool {
        self.config.optimizer
    }

    /// Whether operators may route eligible work through the vectorised
    /// columnar kernels.
    pub fn vectorised(&self) -> bool {
        self.config.vectorised
    }

    /// A configured [`crate::optimizer::Optimizer`] for this context's
    /// catalog and knobs.
    pub fn optimizer(&self) -> crate::optimizer::Optimizer<'a> {
        crate::optimizer::Optimizer::new(self.catalog)
            .with_batch_size(self.config.batch_size)
            .with_budget(self.config.memory_budget.limit())
            .with_auto_analyze(self.config.auto_analyze)
            .with_oracle_batching(self.config.oracle_batching)
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

    /// Locks the current worker's blinding RNG, seeding the pool on first
    /// use: from the config's seed, else from one OS entropy draw that
    /// derives every worker's stream.
    #[allow(clippy::disallowed_methods)]
    pub(crate) fn rng_mut(&self) -> MutexGuard<'_, StdRng> {
        let rngs = self.rngs.get_or_init(|| {
            let workers = self.config.parallelism as u64;
            let seeds: Vec<u64> = match self.config.rng_seed {
                Some(seed) => (0..workers).map(|i| seed.wrapping_add(i)).collect(),
                None => {
                    let mut master = StdRng::from_entropy();
                    (0..workers).map(|_| master.gen()).collect()
                }
            };
            seeds
                .into_iter()
                .map(|seed| Mutex::new(StdRng::seed_from_u64(seed)))
                .collect()
        });
        rngs[parallel::current_worker() % rngs.len()].lock()
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
        self.udf_sites
            .key_update_sets(exprs, self.config.parallelism)
    }

    /// Counts one batch of keyed work (join keys, a grouped morsel): a kernel
    /// hit when nothing in it needed the interpreter — every expression a
    /// column reference or literal — and a scalar fallback otherwise, or
    /// with the knob off. One code path either way; the counters keep
    /// `kernel_hit_share` comparable.
    pub(crate) fn record_key_batch(&self, interpreted: bool) {
        let mut stats = self.stats_mut();
        match interpreted || !self.config.vectorised {
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
        // The parent's settings at parallelism 1, untraced (its pager events
        // still reach the parent's spans), on the parent's oracle as already
        // latency-wrapped; spill through the parent's lease, so the subquery
        // counts against the query's budget share; stop with the parent's
        // cancel token.
        let config = ExecConfig {
            parallelism: 1,
            tracing: false,
            oracle_latency: None,
            ..self.config.clone()
        };
        let mut sub = ExecContext::new(
            self.catalog,
            self.registry,
            self.oracle.clone(),
            config,
            Some(Arc::clone(&self.pager)),
            Some(self.cancel.clone()),
        );
        // Answers the parent already paid for never re-travel the link.
        sub.oracle_memo = Arc::clone(&self.oracle_memo);
        let sub = Arc::new(sub);
        // Attribute the subquery's wall time to the parent: `total_time` is
        // only stamped at the top-level execute, so without this counter a
        // subquery-heavy parent under-reports where its time went. Cache
        // hits return above and cost (and record) nothing.
        let started = std::time::Instant::now();
        let batch = crate::planner::execute_plan(&sub, &plan)?;
        // The shards only: the spill counters live on the shared lease, which
        // the parent's `stats()` already reads.
        let mut stats = self.stats_mut();
        stats.merge(&sub.stats.snapshot());
        stats.subquery_time += started.elapsed();
        cache
            .entry(key)
            .or_default()
            .push((query.clone(), batch.clone()));
        Ok(batch)
    }
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
