//! The oracle traffic of the four `tpch_crypto` templates (Q1, Q6, Q18, Q22
//! at the balanced 512-bit profile and scale 0.03), pinned.
//!
//! For each query, unbudgeted and under a 64-byte memory budget (every
//! blocking operator and every parked oracle input spills), the test counts
//! the round trips, the rows and bytes `ExecutionStats` says were shipped,
//! and the bytes of the oracle requests on a wire log. The proxy's fixture
//! generator and the context's blinding seed (`ExecConfig::rng_seed`) fix every
//! share, so the counts repeat exactly; a change that ships one more row,
//! one more trip or one more byte fails here. The rewritten query runs on
//! the client's engine catalog through `execute_plan`, the proxy's oracle
//! wrapped in the wire log as the client wraps it.

use std::sync::Arc;

use sdb::wire::{RecordingOracle, WireLog, WireMessageKind};
use sdb::{SdbClient, SdbConfig};
use sdb_engine::planner::execute_plan;
use sdb_engine::{ExecConfig, ExecContext, UdfRegistry};
use sdb_sql::plan::PlanBuilder;
use sdb_sql::{parse_sql, Statement};
use sdb_storage::MemoryBudget;
use sdb_workload::{generate_all, query_by_id, ScaleFactor, SensitivityProfile};

/// Trips, rows shipped, bytes shipped (`ExecutionStats`), oracle-request
/// bytes on the wire log.
type Traffic = (usize, usize, usize, usize);

/// The counts of Q1, Q6, Q18 and Q22 in that order, unbudgeted: Q6's three
/// comparisons and Q18's one, 256 rows in all.
const UNBUDGETED: [Traffic; 4] = [
    (0, 0, 0, 0),
    (3, 75, 10_349, 16_073),
    (1, 181, 26_066, 40_043),
    (0, 0, 0, 0),
];

/// The same under a 64-byte budget: spilling moves none of it.
const BUDGETED: [Traffic; 4] = UNBUDGETED;

fn client() -> SdbClient {
    let mut client = SdbClient::new(SdbConfig::balanced_profile()).expect("client");
    let sf = ScaleFactor(0.03);
    // `perf_report`'s data seed (`sdb_bench::BENCH_SEED`).
    for table in generate_all(sf, SensitivityProfile::Financial, 0xbe7c_2015) {
        client.stage_table(table).expect("stage");
    }
    client.upload_all().expect("upload");
    client
}

fn traffic(client: &SdbClient, budget: MemoryBudget) -> Vec<Traffic> {
    let registry = UdfRegistry::with_sdb_udfs();
    [1, 6, 18, 22]
        .into_iter()
        .map(|id| {
            let sql = query_by_id(id).expect("template").sql;
            let rewritten = client.rewrite_only(sql).expect("rewrite");
            let Statement::Query(query) = parse_sql(&rewritten.server_sql).expect("parse") else {
                panic!("Q{id} rewrites to a query");
            };
            let plan = PlanBuilder::build(&query).expect("plan");
            let log = WireLog::new();
            let oracle = RecordingOracle::new(client.proxy().oracle(&rewritten), log.clone());
            let config = ExecConfig {
                parallelism: 1,
                memory_budget: budget.clone(),
                rng_seed: Some(11),
                ..ExecConfig::default()
            };
            let catalog = client.engine().catalog();
            let ctx = ExecContext::new(
                catalog,
                &registry,
                Some(Arc::new(oracle)),
                config,
                None,
                None,
            );
            let ctx = Arc::new(ctx);
            execute_plan(&ctx, &plan).expect("query");
            let stats = ctx.stats();
            (
                stats.oracle_round_trips,
                stats.oracle_rows_shipped,
                stats.oracle_bytes_shipped,
                log.bytes_of_kind(WireMessageKind::OracleRequest),
            )
        })
        .collect()
}

#[test]
fn tpch_crypto_oracle_traffic_is_pinned() {
    let client = client();
    let unbudgeted = traffic(&client, MemoryBudget::unlimited());
    let budgeted = traffic(&client, MemoryBudget::bytes(64));
    assert_eq!(
        (unbudgeted.as_slice(), budgeted.as_slice()),
        (&UNBUDGETED[..], &BUDGETED[..])
    );
}
