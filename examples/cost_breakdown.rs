//! Demo step 2 (experiment E3): submit queries and break the execution time into
//! the client cost (parse + rewrite + decrypt at the proxy) and the server cost
//! (execution at the SP, including the oracle round trips), as the demo's query
//! view does. The paper's observation is that the client costs are subtle compared
//! with the total cost. The last two columns count the row-keyed item keys the
//! proxy derived by exponentiation and those its item-key memo served.
//!
//! Run with: `cargo run --release --example cost_breakdown`

use sdb::{SdbClient, SdbConfig};
use sdb_workload::{generate_all, query_by_id, ScaleFactor, SensitivityProfile};

fn main() -> sdb::Result<()> {
    println!("=== Demo step 2: query cost breakdown (client vs server) ===\n");

    let mut client = SdbClient::new(SdbConfig::test_profile().with_upload_threads(4))?;
    for table in generate_all(ScaleFactor::small(), SensitivityProfile::Financial, 7_2015) {
        client.stage_table(table)?;
    }
    client.upload_all()?;

    println!(
        "{:<28} {:>9} {:>11} {:>11} {:>11} {:>9} {:>8} {:>10} {:>8} {:>6}",
        "query",
        "rows",
        "parse",
        "rewrite",
        "decrypt",
        "server",
        "oracle",
        "client %",
        "derived",
        "memo"
    );
    for id in [1u8, 3, 5, 6, 10, 12, 14, 18, 19, 22] {
        let template = query_by_id(id).expect("template");
        let result = client.query(template.sql)?;
        let client_time = result.client_time();
        let server_time = result.server_stats.total_time;
        let total = client_time + server_time;
        println!(
            "{:<28} {:>9} {:>11?} {:>11?} {:>11?} {:>9?} {:>8} {:>9.1}% {:>8} {:>6}",
            format!("Q{id} {}", template.name),
            result.batch.num_rows(),
            result.client_cost.parse,
            result.client_cost.rewrite,
            result.client_cost.decrypt,
            server_time,
            result.server_stats.oracle_round_trips,
            100.0 * client_time.as_secs_f64() / total.as_secs_f64().max(f64::EPSILON),
            result.item_keys_derived,
            result.item_key_memo_hits,
        );
    }

    println!("\nWire traffic for the whole session:");
    println!(
        "  queries sent      : {} bytes",
        client
            .wire()
            .bytes_of_kind(sdb::wire::WireMessageKind::QueryToSp)
    );
    println!(
        "  results received  : {} bytes",
        client
            .wire()
            .bytes_of_kind(sdb::wire::WireMessageKind::ResultToProxy)
    );
    println!(
        "  oracle requests   : {} bytes",
        client
            .wire()
            .bytes_of_kind(sdb::wire::WireMessageKind::OracleRequest)
    );
    println!(
        "  oracle responses  : {} bytes",
        client
            .wire()
            .bytes_of_kind(sdb::wire::WireMessageKind::OracleResponse)
    );
    Ok(())
}
