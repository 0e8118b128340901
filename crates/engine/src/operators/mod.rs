//! The physical operator pipeline.
//!
//! Every relational operator is a [`PhysicalOperator`]: a Volcano-style
//! iterator over [`RecordBatch`]es with an `open` / `next_batch` / `close`
//! lifecycle. [`crate::planner::PhysicalPlanner`] lowers a
//! [`sdb_sql::plan::LogicalPlan`] into a tree of boxed operators; the tree
//! shares one [`ExecContext`] carrying the catalog, the UDF registry, the
//! optional DO-proxy oracle and the run's statistics.
//!
//! One file per operator, plus the overflow paths of the blocking ones:
//!
//! * [`scan`] — base-table scan: windows onto the table's shared buffers,
//!   only the columns the plan references;
//! * [`filter`] — row filtering over a predicate;
//! * [`project`] — projection / expression evaluation;
//! * [`join`] — hash equi-join (index-vector probe, gathered output) and the
//!   nested-loop fallback;
//! * [`grace_join`] — the hash join's overflow path: Grace-style
//!   partitioning of both inputs through the pager;
//! * [`aggregate`] — hash aggregation with grouping, morsel-parallel;
//! * [`spill_aggregate`] — the aggregation's overflow path: partition and
//!   spill of evaluated rows;
//! * [`sort`] — sort, limit and distinct (the order-shaping operators);
//! * [`external_sort`] — the sort's overflow path: sorted runs through the
//!   pager and a k-way merge;
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
//! phases out across `ctx.config().parallelism` workers using `std::thread::scope`
//! (see [`parallel`]):
//!
//! * [`join::HashJoin`] partitions its materialised build side to evaluate
//!   interpreted key expressions per worker (concatenated in morsel order;
//!   the index itself is filled serially, in row order);
//! * [`aggregate::HashAggregate`] partitions its input via
//!   [`RecordBatch::partition`], accumulates per-worker group states and
//!   merges them at drain in global first-occurrence order.
//!
//! Partitioning is always by contiguous, in-order morsels and every merge
//! step preserves morsel order, so parallel execution is **byte-identical**
//! to serial execution for the same plan.
//!
//! ## Settings and memory
//!
//! A context runs under one [`ExecConfig`] (parallelism, batch size, memory
//! budget, …), fixed at construction: [`ExecContext::new`] builds the pager
//! (or takes the caller's lease), the statistics shards and the trace hooks
//! exactly once. Each blocking node (sort, aggregate, hash join, nested-loop
//! join) is one operator whatever the budget: it holds its input in memory
//! (`hold_input`) and runs in memory while the held bytes stay within the
//! budget's limit. On the first overflow it replays the held batches, then
//! the rest of its input, into its overflow path, which parks data in the
//! context's [`Pager`] and produces byte-identical results.
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

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sdb_sql::ast::Query;
use sdb_sql::plan::PlanBuilder;
use sdb_storage::{CancelToken, Catalog, Column, Pager, RecordBatch, Schema, Value};

use crate::config::ExecConfig;
use crate::eval::{Evaluator, SubqueryResolver};
use crate::kernels::{KernelWork, ShareKernels};
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
    /// The oracle operators talk to.
    oracle: Option<OracleRef>,
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
    /// The engine's key-update power memo, shared with subquery contexts
    /// (`None` for a context built outside an engine).
    power_memo: Option<crate::power_memo::QueryMemo>,
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
        ExecContext {
            catalog,
            registry,
            oracle,
            stats: ShardedStats::new(config.parallelism),
            rngs: OnceLock::new(),
            subquery_cache: Mutex::new(HashMap::new()),
            udf_sites: crate::udf::UdfSites::default(),
            power_memo: None,
            config,
            pager,
            trace,
            cancel,
        }
    }

    /// Runs the query's key-update sets under an engine's power memo.
    pub(crate) fn with_power_memo(mut self, memo: &Arc<crate::PowerMemo>) -> Self {
        self.power_memo = Some(crate::power_memo::QueryMemo::new(memo));
        self
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

    /// The DO-proxy oracle, if connected.
    pub fn oracle(&self) -> Option<&OracleRef> {
        self.oracle.as_ref()
    }

    /// The settings this query runs under.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// A configured [`crate::optimizer::Optimizer`] for this context's
    /// catalog and knobs.
    pub fn optimizer(&self) -> crate::optimizer::Optimizer<'a> {
        crate::optimizer::Optimizer::new(self.catalog)
            .with_batch_size(self.config.batch_size)
            .with_budget(self.config.memory_budget.limit())
            .with_auto_analyze(self.config.auto_analyze)
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

    /// Plans the share arithmetic of one operator from the expressions it
    /// evaluates: its share kernels and their key-update sets (see
    /// [`crate::udf::KeyUpdateSets`]), which it hands to the seam's value
    /// entry, [`expr::evaluate_exprs`].
    pub(crate) fn share_kernels<'e>(
        &self,
        exprs: impl IntoIterator<Item = &'e sdb_sql::ast::Expr>,
    ) -> Arc<ShareKernels> {
        let exprs: Vec<&sdb_sql::ast::Expr> = exprs.into_iter().collect();
        let workers = self.config.parallelism;
        let key_updates = (self.udf_sites).key_update_sets(
            exprs.iter().copied(),
            workers,
            self.power_memo.as_ref(),
        );
        let kernels = ShareKernels::plan(self.registry, key_updates, exprs, workers);
        (self.udf_sites).remember_share_moduli(kernels.moduli().map(str::to_string));
        Arc::new(kernels)
    }

    /// Folds one call of the expression seam ([`expr`]) into the current
    /// worker's statistics: its interpreter's and its share kernels' UDF
    /// calls and key updates, the kernels' rows and time, one vectorised
    /// batch when no row went through the interpreter and one scalar
    /// fallback otherwise, and its wall time.
    fn record_seam(
        &self,
        evaluator: &Evaluator<'_>,
        interpreted: bool,
        kernel: &KernelWork,
        elapsed: Duration,
    ) {
        let (interpreter, kernels) = (evaluator.key_update_counts(), &kernel.key_updates);
        let mut stats = self.stats_mut();
        stats.udf_calls += evaluator.udf_calls() + kernel.udf_calls;
        stats.key_update_calls += interpreter.calls + kernels.calls;
        stats.key_update_pows += interpreter.pows + kernels.pows;
        stats.key_update_derived += interpreter.derived + kernels.derived;
        stats.key_update_memo_hits += interpreter.memo + kernels.memo;
        stats.share_kernel_rows += kernel.rows;
        stats.share_kernel_time += kernel.time;
        match interpreted {
            true => stats.scalar_fallback_batches += 1,
            false => stats.vectorised_batches += 1,
        }
        stats.eval_time += elapsed;
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
            1 => Ok(batch.column(0).value(0).into_owned()),
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
        Ok(batch.column(0).iter().map(Cow::into_owned).collect())
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
        // still reach the parent's spans), on the parent's oracle; spill
        // through the parent's lease, so the subquery counts against the
        // query's budget share; stop with the parent's cancel token.
        let config = ExecConfig {
            parallelism: 1,
            tracing: false,
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
        // The subquery plans its exponents as part of the parent's query.
        sub.power_memo = self.power_memo.clone();
        let sub = Arc::new(sub);
        // Attribute the subquery's wall time to the parent: `total_time` is
        // only stamped at the top-level execute, so without this counter a
        // subquery-heavy parent under-reports where its time went. Cache
        // hits return above and cost (and record) nothing.
        let started = std::time::Instant::now();
        let batch = crate::planner::execute_plan(&sub, &plan)?;
        // The shards only: the spill counters live on the shared lease, which
        // the parent's `stats()` already reads. Nor the seam's clock: every
        // subquery runs inside one of the parent's seam calls, whose
        // `eval_time` already holds the subquery's.
        let mut sub_stats = sub.stats.snapshot();
        sub_stats.eval_time = Duration::ZERO;
        let mut stats = self.stats_mut();
        stats.merge(&sub_stats);
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
    let mut result: Option<RecordBatch> = None;
    while let Some(batch) = root.next_batch()? {
        match &mut result {
            None => result = Some(batch),
            Some(acc) => acc.append(&batch)?,
        }
    }
    root.close()?;
    Ok(result.unwrap_or_else(|| RecordBatch::empty(Schema::empty())))
}

/// A blocking operator's input as [`hold_input`] read it.
pub(crate) enum Held {
    /// The whole input fit the budget: its batches concatenated (a batch
    /// without columns when it produced none).
    Fit(RecordBatch),
    /// The held batches overflowed the budget; the rest of the input is
    /// still unread.
    Overflow(Replay),
}

/// An overflowed input, replayed batch by batch into an overflow path.
pub(crate) struct Replay(VecDeque<RecordBatch>);

impl Replay {
    /// The input's schema (an overflow holds at least one batch).
    pub(crate) fn schema(&self) -> &Schema {
        self.0.front().expect("an overflow holds a batch").schema()
    }

    /// The next input batch: the held ones first, in arrival order, then
    /// the rest of `input`.
    pub(crate) fn next_batch(
        &mut self,
        input: &mut dyn PhysicalOperator,
    ) -> Result<Option<RecordBatch>> {
        match self.0.pop_front() {
            Some(batch) => Ok(Some(batch)),
            None => input.next_batch(),
        }
    }
}

/// Copies rows `rows` of `page`'s columns from `first` on onto `columns`, a
/// column at a time: how the spill merges emit a run of consecutive rows of
/// one page (shares copy their limbs).
pub(crate) fn append_rows(
    columns: &mut [Column],
    page: &RecordBatch,
    first: usize,
    rows: Range<usize>,
) {
    for (column, source) in columns.iter_mut().zip(&page.columns()[first..]) {
        column.extend(&source.slice(rows.start, rows.len()));
    }
}

/// Reads a blocking operator's input, holding its batches in memory until
/// their bytes exceed the budget's limit. Without a limit nothing is
/// counted and the input is concatenated as it arrives; with one, the
/// batches are also kept apart so an overflow can replay them one at a
/// time. Concatenation appends in place, so the cost is linear in the rows.
pub(crate) fn hold_input(ctx: &ExecContext<'_>, input: &mut dyn PhysicalOperator) -> Result<Held> {
    let limit = ctx.config().memory_budget.limit();
    let mut held = VecDeque::new();
    let mut bytes = 0usize;
    let mut result: Option<RecordBatch> = None;
    while let Some(batch) = input.next_batch()? {
        if let Some(limit) = limit {
            bytes += batch.approx_size_bytes();
            held.push_back(batch.clone());
            if bytes > limit {
                return Ok(Held::Overflow(Replay(held)));
            }
        }
        match &mut result {
            None => result = Some(batch),
            Some(acc) => acc.append(&batch)?,
        }
    }
    Ok(Held::Fit(
        result.unwrap_or_else(|| RecordBatch::empty(Schema::empty())),
    ))
}
