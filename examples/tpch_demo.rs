//! TPC-H coverage demo (experiment E5): runs every one of the 22 query templates
//! through SDB and reports, side by side, whether a CryptDB-style onion system
//! could have executed it natively at the server.
//!
//! Run with: `cargo run --release --example tpch_demo`

use std::collections::BTreeMap;

use rand::SeedableRng;
use sdb::{SdbClient, SdbConfig};
use sdb_crypto::Drbg;
use sdb_proxy::meta::TableMeta;
use sdb_proxy::KeyStore;
use sdb_repro::analyze_query;
use sdb_sql::{parse_sql, Statement};
use sdb_workload::{
    all_queries, generate_all, table_names, table_schema, ScaleFactor, SensitivityProfile,
};

fn main() -> sdb::Result<()> {
    println!("=== TPC-H over SDB: coverage and execution ===\n");

    // Encrypted deployment.
    let mut client = SdbClient::new(SdbConfig::test_profile().with_upload_threads(4))?;
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, 2015) {
        client.stage_table(table)?;
    }
    client.upload_all()?;

    // Analyzer metadata (for the onion verdict).
    let mut rng = Drbg::seed_from_u64(1);
    let mut keystore = KeyStore::generate(sdb::KeyConfig::TEST, &mut rng).expect("keystore");
    let mut metas = BTreeMap::new();
    for table in table_names() {
        let schema = table_schema(table, SensitivityProfile::Financial);
        let meta = TableMeta::from_schema(table, &schema);
        let sensitive: Vec<String> = meta
            .columns
            .iter()
            .filter(|c| c.is_numeric_sensitive())
            .map(|c| c.name.clone())
            .collect();
        keystore
            .register_table(&mut rng, table, &sensitive)
            .expect("register");
        metas.insert(meta.name.clone(), meta);
    }

    println!(
        "{:<4} {:<30} {:>6} {:>12} {:>12} {:>14}",
        "id", "query", "rows", "SDB", "onion", "oracle trips"
    );
    let mut sdb_native = 0;
    let mut onion_native = 0;
    for template in all_queries() {
        let Statement::Query(parsed) = parse_sql(template.sql).expect("parses") else {
            unreachable!()
        };
        let coverage = analyze_query(&parsed, &keystore, &metas);
        let onion = if coverage.onion.is_native() {
            onion_native += 1;
            "native"
        } else {
            "client"
        };
        match client.query(template.sql) {
            Ok(result) => {
                sdb_native += 1;
                println!(
                    "{:<4} {:<30} {:>6} {:>12} {:>12} {:>14}",
                    format!("Q{}", template.id),
                    template.name,
                    result.batch.num_rows(),
                    "native",
                    onion,
                    result.server_stats.oracle_round_trips
                );
            }
            Err(e) => {
                println!(
                    "{:<4} {:<30} {:>6} {:>12} {:>12}   ({e})",
                    format!("Q{}", template.id),
                    template.name,
                    "-",
                    "client",
                    onion
                );
            }
        }
    }
    println!("\nnatively supported: SDB {sdb_native}/22, CryptDB-style onions {onion_native}/22");
    println!("(the paper reports 22/22 vs 4/22 on the official queries)");
    Ok(())
}
