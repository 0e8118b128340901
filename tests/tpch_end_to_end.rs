//! Integration test: every TPC-H query template produces the same answer when run
//! through SDB (sensitive financial columns encrypted, rewritten queries, oracle
//! protocols, client-side post-processing) as when run on the plaintext engine.
//!
//! This is the repository's strongest end-to-end correctness check: it exercises
//! upload encryption, all SDB UDFs, the comparison / group-tag / rank protocols,
//! aggregate key updates, the decryptor and the client-side post-computation path
//! across joins, grouping, HAVING, ORDER BY and LIMIT — over random data seeds
//! and SP execution settings, and under the 512-bit key profile as well as the
//! test profile.

use proptest::prelude::*;
use sdb::{SdbClient, SdbConfig};
use sdb_engine::{ExecConfig, MemoryBudget, SpEngine};
use sdb_storage::{RecordBatch, Value};
use sdb_workload::{all_queries, generate_all, ScaleFactor, SensitivityProfile};

/// The data seed of the fixed deployment the single-case tests use.
const SEED: u64 = 0x7c9_2015;

/// Builds the encrypted (SDB) and plaintext deployments of the same tiny TPC-H
/// instance.
fn deployments() -> (SdbClient, SpEngine) {
    deployments_with(SdbConfig::test_profile(), SEED, ExecConfig::default())
}

/// [`deployments`] under a key profile, a data seed and the SP's execution
/// settings.
fn deployments_with(config: SdbConfig, seed: u64, exec: ExecConfig) -> (SdbClient, SpEngine) {
    let mut client = SdbClient::new(config)
        .expect("client")
        .with_exec_config(exec);
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, seed) {
        client.stage_table(table).expect("stage");
    }
    client.upload_all().expect("upload");

    let plain = SpEngine::new();
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::None, seed) {
        plain.load_table(table).expect("load");
    }
    (client, plain)
}

fn canonical_rows(batch: &RecordBatch) -> Vec<Vec<String>> {
    batch
        .rows()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Int(_) | Value::Decimal { .. } | Value::Bool(_) => v
                        .as_scaled_i128(6)
                        .map(|x| x.to_string())
                        .unwrap_or_else(|_| v.render()),
                    other => other.render(),
                })
                .collect()
        })
        .collect()
}

/// Every template's SDB answer against the plaintext engine's; the
/// mismatches and failures, one line each.
fn mismatches(client: &SdbClient, plain: &SpEngine) -> Vec<String> {
    let mut failures = Vec::new();
    for template in all_queries() {
        let secure = match client.query(template.sql) {
            Ok(result) => result,
            Err(e) => {
                failures.push(format!("Q{} failed under SDB: {e}", template.id));
                continue;
            }
        };
        let reference = match plain.execute_sql(template.sql) {
            Ok(output) => output,
            Err(e) => {
                failures.push(format!(
                    "Q{} failed on the plaintext engine: {e}",
                    template.id
                ));
                continue;
            }
        };
        let got = canonical_rows(&secure.batch);
        let want = canonical_rows(&reference.batch);
        if got != want {
            failures.push(format!(
                "Q{}: answers differ ({} vs {} rows)\nrewritten: {}",
                template.id,
                got.len(),
                want.len(),
                secure.rewritten_sql
            ));
        }
    }
    failures
}

#[test]
fn all_22_tpch_templates_match_plaintext_results() {
    let (client, plain) = deployments();
    let failures = mismatches(&client, &plain);
    assert!(
        failures.is_empty(),
        "TPC-H mismatches:\n{}",
        failures.join("\n")
    );
}

/// The memory budgets the property draws from: unlimited, and budgets that
/// make the blocking operators spill a little and a lot.
const BUDGETS: [Option<usize>; 4] = [None, Some(1 << 20), Some(64 << 10), Some(4 << 10)];

fn exec_config(batch_size: usize, parallelism: usize, budget: Option<usize>) -> ExecConfig {
    ExecConfig {
        batch_size,
        parallelism,
        memory_budget: budget.map_or_else(MemoryBudget::unlimited, MemoryBudget::bytes),
        ..ExecConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every template equals plaintext whatever the data (a fresh data seed
    /// each case, so fresh row ids, item keys and ciphertexts) and whatever
    /// the SP's batch size, worker count and memory budget.
    #[test]
    fn all_22_templates_match_plaintext_for_any_data_and_settings(
        seed in any::<u64>(),
        batch_size in 1usize..2048,
        parallelism in 1usize..=4,
        budget in 0usize..BUDGETS.len(),
    ) {
        let exec = exec_config(batch_size, parallelism, BUDGETS[budget]);
        let (client, plain) = deployments_with(SdbConfig::test_profile(), seed, exec);
        let failures = mismatches(&client, &plain);
        prop_assert!(failures.is_empty(), "TPC-H mismatches:\n{}", failures.join("\n"));
    }
}

/// The 512-bit profile, whose key's powers of `g` run on 4-limb halves,
/// answers every template as plaintext does, under a small batch, two
/// workers and a spilling budget.
#[test]
fn all_22_templates_match_plaintext_under_the_balanced_profile() {
    let exec = exec_config(7, 2, Some(64 << 10));
    let (client, plain) = deployments_with(SdbConfig::balanced_profile(), 0xba1a, exec);
    let failures = mismatches(&client, &plain);
    assert!(
        failures.is_empty(),
        "TPC-H mismatches:\n{}",
        failures.join("\n")
    );
}

#[test]
fn rewritten_queries_use_sdb_udfs_where_sensitive_data_is_involved() {
    let (client, _) = deployments();
    // Q1 and Q6 are the canonical "interoperable operators" queries: aggregates of
    // arithmetic over sensitive columns plus comparisons on sensitive columns.
    let q1 = client
        .rewrite_only(sdb_workload::query_by_id(1).unwrap().sql)
        .unwrap();
    assert!(q1.server_sql.contains("SDB_KEY_UPDATE"));
    assert!(q1.server_sql.contains("SDB_MULTIPLY") || q1.server_sql.contains("SDB_MUL_PLAIN"));

    // SUM(l_quantity) beside AVG(l_quantity), and likewise l_extendedprice,
    // are one server item each: 8 key updates, not 10.
    assert_eq!(
        q1.server_sql.matches("SDB_KEY_UPDATE").count(),
        8,
        "{}",
        q1.server_sql
    );

    let q6 = client
        .rewrite_only(sdb_workload::query_by_id(6).unwrap().sql)
        .unwrap();
    assert!(q6.server_sql.contains("SDB_CMP_"));
    assert!(q6.server_sql.contains("SUM(SDB_KEY_UPDATE"));
}

/// Q6's `WHERE` mixes plain date conjuncts with oracle-backed comparisons:
/// the plain ones filter first, so only the rows they keep are key-updated,
/// blinded and shipped. Q1's eight key updates a row are four exponentiations.
#[test]
fn plain_conjuncts_run_below_the_oracle_and_key_updates_share_their_powers() {
    let (client, _) = deployments();
    let q6 = sdb_workload::query_by_id(6).unwrap().sql;
    let explained = client.explain(q6).expect("explain");
    let operators: Vec<&str> = explained
        .lines()
        .skip_while(|line| !line.starts_with("physical plan"))
        .skip(1)
        .take_while(|line| line.starts_with(' '))
        .map(str::trim)
        .collect();
    assert_eq!(
        operators[2..],
        ["Filter", "OracleResolve", "Filter", "TableScan"],
        "{explained}"
    );

    let analyzed = client.explain_analyze(q6).expect("explain analyze");
    let rows_out = |operator: &str, nth: usize| -> usize {
        let line = analyzed
            .lines()
            .filter(|line| line.trim_start().starts_with(operator))
            .nth(nth)
            .unwrap_or_else(|| panic!("no {operator} #{nth} in\n{analyzed}"));
        let rows = line.split("rows=").nth(1).expect("rows=");
        rows.split_whitespace().next().unwrap().parse().unwrap()
    };
    let (scanned, plain_kept) = (rows_out("TableScan", 0), rows_out("Filter", 1));
    assert!(0 < plain_kept && plain_kept < scanned, "{analyzed}");
    let result = client.query(q6).unwrap();
    assert_eq!(
        result.server_stats.oracle_rows_shipped,
        3 * plain_kept,
        "three comparisons over the rows the date conjuncts keep"
    );

    let q1 = client
        .query(sdb_workload::query_by_id(1).unwrap().sql)
        .unwrap();
    let stats = &q1.server_stats;
    assert!(stats.key_update_calls > 0);
    assert_eq!(stats.key_update_calls % 8, 0);
    // Eight calls a row over four heads and three derived powers; a row the
    // engine's power memo serves raises none of them.
    assert_eq!(
        stats.key_update_pows + 4 * stats.key_update_memo_hits,
        stats.key_update_calls / 2
    );
    assert_eq!(
        stats.key_update_derived + 3 * stats.key_update_memo_hits,
        stats.key_update_calls / 8 * 3
    );
    let analyzed = client
        .explain_analyze(sdb_workload::query_by_id(1).unwrap().sql)
        .unwrap();
    let aggregate = analyzed
        .lines()
        .find(|line| line.contains("HashAggregate"))
        .expect("Q1 aggregates");
    // The second sighting of Q1's exponents: the memo admits them, stores
    // what this run raises and serves none of it yet.
    assert!(
        aggregate.contains(&format!(
            "keyupd[calls={} pows={} derived={} memo=0]",
            stats.key_update_calls,
            stats.key_update_calls / 2,
            stats.key_update_calls / 8 * 3
        )),
        "{aggregate}"
    );
    let warm = client
        .explain_analyze(sdb_workload::query_by_id(1).unwrap().sql)
        .unwrap();
    let aggregate = warm
        .lines()
        .find(|line| line.contains("HashAggregate"))
        .expect("Q1 aggregates");
    assert!(
        aggregate.contains(&format!(
            "keyupd[calls={} pows=0 derived=0 memo={}]",
            stats.key_update_calls,
            stats.key_update_calls / 8
        )),
        "{aggregate}"
    );
}

#[test]
fn oracle_round_trips_stay_batched() {
    let (client, _) = deployments();
    // Q6 has three sensitive predicates (discount between → 2, quantity < → 1); the
    // comparison protocol batches one round trip per predicate, not per row.
    let result = client
        .query(sdb_workload::query_by_id(6).unwrap().sql)
        .unwrap();
    assert!(result.server_stats.oracle_round_trips >= 3);
    assert!(
        result.server_stats.oracle_round_trips <= 8,
        "comparisons should batch per predicate, got {} round trips",
        result.server_stats.oracle_round_trips
    );
}

#[test]
fn rewritten_q6_and_q3_scans_read_exactly_the_referenced_columns() {
    use sdb_sql::ast::SelectItem;
    use std::collections::BTreeSet;

    let (client, _) = deployments();
    for id in [6u8, 3] {
        let template = sdb_workload::query_by_id(id).expect("template");
        let rewritten = client.rewrite_only(template.sql).expect("rewrite");
        let query = &rewritten.server_query();

        // Every column the rewritten SQL names, from the AST alone.
        let mut names = Vec::new();
        let mut exprs: Vec<&sdb_sql::ast::Expr> = Vec::new();
        for item in &query.projections {
            if let SelectItem::Expr { expr, .. } = item {
                exprs.push(expr);
            }
        }
        exprs.extend(&query.where_clause);
        exprs.extend(&query.group_by);
        exprs.extend(&query.having);
        exprs.extend(query.order_by.iter().map(|o| &o.expr));
        exprs.extend(query.joins.iter().map(|j| &j.on));
        for expr in exprs {
            expr.referenced_columns(&mut names);
        }
        // Qualified names belong to the table visible under the qualifier;
        // a bare name to whichever table has such a column (else it is a
        // select-list alias).
        let tables: Vec<_> = (query.from.iter())
            .chain(query.joins.iter().map(|j| &j.table))
            .collect();
        let mut expected: Vec<String> = tables
            .iter()
            .map(|t| {
                let handle = client.engine().catalog().table(&t.name).expect("uploaded");
                let table = handle.read();
                let read: BTreeSet<String> = names
                    .iter()
                    .filter_map(|name| match name.rsplit_once('.') {
                        Some((visible, column)) => visible
                            .eq_ignore_ascii_case(t.visible_name())
                            .then(|| column.to_ascii_lowercase()),
                        None => table
                            .schema()
                            .index_of(name)
                            .ok()
                            .map(|_| name.to_ascii_lowercase()),
                    })
                    .collect();
                format!("{}/{}", read.len(), table.schema().len())
            })
            .collect();
        expected.sort();

        let analyzed = client
            .explain_analyze(template.sql)
            .expect("explain analyze");
        let mut got: Vec<String> = analyzed
            .lines()
            .filter(|line| {
                let line = line.trim_start();
                line.starts_with("TableScan") || line.starts_with("IndexScan")
            })
            .map(|line| {
                let cols = line.split("cols=").nth(1).expect("scan lines carry cols=");
                cols.split_whitespace().next().unwrap_or("").to_string()
            })
            .collect();
        got.sort();
        assert_eq!(got, expected, "Q{id}: columns read / columns in table");
        assert!(
            got.iter().all(|cols| {
                let (read, total) = cols.split_once('/').unwrap();
                read.parse::<usize>().unwrap() < total.parse::<usize>().unwrap()
            }),
            "Q{id} references a strict subset of every table it scans: {got:?}"
        );
    }
}
