//! The process defaults honour the environment variables CI re-runs the
//! suites under. They are read once per process, on the first
//! `ExecConfig::default()`, so this binary holds a single test that sets
//! them before anything else can.

use std::time::Duration;

use sdb_engine::{ExecConfig, MemoryBudget, SpEngine};

#[test]
fn environment_sets_the_process_defaults_once() {
    for (name, value) in [
        ("SDB_TEST_MEM_BUDGET", "65536"),
        ("SDB_TEST_ANALYZE", "1"),
        ("SDB_TEST_SCALAR_EVAL", "1"),
        ("SDB_TEST_ORACLE_LATENCY_MS", "3"),
        ("SDB_TRACE", "1"),
    ] {
        std::env::set_var(name, value);
    }

    let config = ExecConfig::default();
    assert_eq!(config.memory_budget, MemoryBudget::bytes(65536));
    assert!(config.auto_analyze);
    assert!(!config.vectorised);
    assert_eq!(config.oracle_latency, Some(Duration::from_millis(3)));
    assert!(config.tracing);
    assert!(config.parallelism >= 1);
    assert_eq!(config.rng_seed, None);

    // Resolved once: a later change to the environment reaches nothing.
    std::env::set_var("SDB_TRACE", "0");
    assert_eq!(ExecConfig::default(), config);

    let engine = SpEngine::new();
    assert_eq!(engine.memory_budget(), &MemoryBudget::bytes(65536));
    assert!(!engine.vectorised());
    assert_eq!(engine.oracle_latency(), Some(Duration::from_millis(3)));
    assert!(engine.tracing());

    // Auto-analyze shows in what a query leaves behind: statistics for the
    // table it planned over, which nothing else collected.
    engine.execute_sql("CREATE TABLE t (a INT)").unwrap();
    engine.execute_sql("INSERT INTO t VALUES (1), (2)").unwrap();
    assert!(engine.catalog().table_stats("t").is_none());
    let out = engine.execute_sql("SELECT a FROM t WHERE a > 1").unwrap();
    assert_eq!(out.batch.num_rows(), 1);
    assert!(out.trace.is_some(), "SDB_TRACE=1 traces every query");
    assert!(engine.catalog().table_stats("t").is_some());
}
