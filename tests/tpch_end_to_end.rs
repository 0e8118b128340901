//! Integration test: every TPC-H query template produces the same answer when run
//! through SDB (sensitive financial columns encrypted, rewritten queries, oracle
//! protocols, client-side post-processing) as when run on the plaintext engine.
//!
//! This is the repository's strongest end-to-end correctness check: it exercises
//! upload encryption, all SDB UDFs, the comparison / group-tag / rank protocols,
//! aggregate key updates, the decryptor and the client-side post-computation path
//! across joins, grouping, HAVING, ORDER BY and LIMIT.

use sdb::{SdbClient, SdbConfig};
use sdb_engine::SpEngine;
use sdb_storage::{RecordBatch, Value};
use sdb_workload::{all_queries, generate_all, ScaleFactor, SensitivityProfile};

/// Builds the encrypted (SDB) and plaintext deployments of the same tiny TPC-H
/// instance.
fn deployments() -> (SdbClient, SpEngine) {
    let seed = 0x7c9_2015;
    let mut client = SdbClient::new(SdbConfig::test_profile()).expect("client");
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

#[test]
fn all_22_tpch_templates_match_plaintext_results() {
    let (client, plain) = deployments();
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
    assert_eq!(stats.key_update_pows, stats.key_update_calls / 2);
    assert_eq!(stats.key_update_derived, stats.key_update_calls / 8 * 3);
    let analyzed = client
        .explain_analyze(sdb_workload::query_by_id(1).unwrap().sql)
        .unwrap();
    let aggregate = analyzed
        .lines()
        .find(|line| line.contains("HashAggregate"))
        .expect("Q1 aggregates");
    assert!(
        aggregate.contains(&format!(
            "keyupd[calls={} pows={} derived={}]",
            stats.key_update_calls, stats.key_update_pows, stats.key_update_derived
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
        let query = &rewritten.server_query;

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
            .filter(|line| line.trim_start().starts_with("TableScan"))
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
