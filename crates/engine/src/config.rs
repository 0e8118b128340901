//! [`ExecConfig`]: every setting a query executes under, in one value.
//!
//! The defaults are resolved once per process — the core count and the
//! `SDB_TEST_*` / `SDB_TRACE` variables are read on first use — so building
//! a query's [`crate::ExecContext`] makes no OS call. [`crate::SpEngine`]
//! holds one config, [`crate::QueryOptions`] overrides fields of a copy per
//! query, and a subquery runs under its parent's copy at parallelism 1.

use std::sync::OnceLock;

use sdb_storage::MemoryBudget;

use crate::operators::DEFAULT_BATCH_SIZE;

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
    /// [`DEFAULT_BATCH_SIZE`]). Results are byte-identical at any size.
    pub batch_size: usize,
    /// Workers the morsel-parallel operators may fan out to; `1` runs them
    /// serially (default: the available cores).
    pub parallelism: usize,
    /// How much a blocking operator may hold in memory before it overflows
    /// and spills through the pager (default unlimited;
    /// `SDB_TEST_MEM_BUDGET` bytes).
    pub memory_budget: MemoryBudget,
    /// Whether the cost-based optimizer rewrites logical plans (default on).
    pub optimizer: bool,
    /// Per-operator execution tracing (default off; `SDB_TRACE=1`).
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
    // The one place the core count is read: every query copies it from here.
    #[allow(clippy::disallowed_methods)]
    fn resolve() -> Self {
        let var = |name: &str| std::env::var(name).ok();
        ExecConfig {
            batch_size: DEFAULT_BATCH_SIZE,
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            memory_budget: MemoryBudget::from_env(),
            optimizer: true,
            tracing: var("SDB_TRACE").as_deref() == Some("1"),
            auto_analyze: var("SDB_TEST_ANALYZE").as_deref() == Some("1"),
            rng_seed: None,
        }
    }
}
