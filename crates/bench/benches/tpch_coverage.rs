//! Experiment E5: the TPC-H coverage matrix (the paper's "all 22 vs 4 of 22"
//! comparison). The analysis itself is cheap; the value of this target is the
//! printed matrix (`examples/tpch_demo.rs` prints the same one, `ARCHITECTURE.md`
//! places the analyzer). The Criterion measurement covers
//! the analyzer + SDB rewriter cost per query (i.e. the proxy's rewrite overhead).

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sdb_baseline::analyze_query;
use sdb_proxy::meta::TableMeta;
use sdb_proxy::KeyStore;
use sdb_sql::{parse_sql, Statement};
use sdb_workload::{all_queries, table_names, table_schema, SensitivityProfile};

fn metadata() -> (KeyStore, BTreeMap<String, TableMeta>) {
    let mut keystore = KeyStore::generate(sdb::KeyConfig::TEST, 0xe5).expect("keystore");
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
        let mut rng = keystore.derived_rng(11);
        keystore
            .register_table(&mut rng, table, &sensitive)
            .expect("register");
        metas.insert(meta.name.clone(), meta);
    }
    (keystore, metas)
}

fn coverage(c: &mut Criterion) {
    let (keystore, metas) = metadata();
    let queries = all_queries();

    c.bench_function("analyze_and_rewrite_all_22_templates", |b| {
        b.iter(|| {
            for template in &queries {
                let Statement::Query(query) = parse_sql(template.sql).expect("parses") else {
                    unreachable!()
                };
                black_box(analyze_query(&query, &keystore, &metas));
            }
        })
    });

    // The matrix itself.
    println!("\n--- E5: TPC-H coverage matrix (financial sensitivity profile) ---");
    println!(
        "{:<4} {:<32} {:>8} {:>8}   required operations",
        "id", "query", "SDB", "onion"
    );
    let mut sdb_native = 0;
    let mut onion_native = 0;
    for template in &queries {
        let Statement::Query(query) = parse_sql(template.sql).expect("parses") else {
            unreachable!()
        };
        let report = analyze_query(&query, &keystore, &metas);
        if report.sdb.is_native() {
            sdb_native += 1;
        }
        if report.onion.is_native() {
            onion_native += 1;
        }
        println!(
            "{:<4} {:<32} {:>8} {:>8}   {:?}",
            format!("Q{}", template.id),
            template.name,
            if report.sdb.is_native() {
                "native"
            } else {
                "client"
            },
            if report.onion.is_native() {
                "native"
            } else {
                "client"
            },
            report.required
        );
    }
    println!("\nnatively supported: SDB {sdb_native}/22, CryptDB-style onions {onion_native}/22");
    println!("(paper, official queries: SDB 22/22, CryptDB 4/22)");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = coverage
}
criterion_main!(benches);
