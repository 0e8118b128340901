//! Bounded-memory execution benchmark: the sort/aggregate operators
//! unbudgeted vs overflowing a deliberately tight `MemoryBudget` over a
//! 200k-row table. The spilling legs pay codec +
//! spill-file I/O; the interesting number is how close they stay to the
//! unbudgeted path while holding residency to the budget.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sdb_engine::{MemoryBudget, SpEngine};
use sdb_storage::{Catalog, ColumnDef, DataType, Schema, Value};

const BIG_ROWS: usize = 200_000;

/// Spilling legs keep roughly this many bytes of sort/aggregation state
/// resident — small enough to force multi-run merges at 200k rows.
const BUDGET_BYTES: usize = 256 * 1024;

/// Deterministic pseudo-random stream (keeps the bench reproducible without
/// an RNG dependency).
fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

/// `big(id, grp, val)` with `grp` spread over 512 groups and `val` over a
/// heavily colliding domain (sort stability paths stay hot).
fn shared_catalog() -> Arc<Catalog> {
    let catalog = Arc::new(Catalog::new());
    let big = catalog
        .create_table(
            "big",
            Schema::new(vec![
                ColumnDef::public("id", DataType::Int),
                ColumnDef::public("grp", DataType::Int),
                ColumnDef::public("val", DataType::Int),
            ]),
        )
        .expect("fresh catalog");
    {
        let mut t = big.write();
        for i in 0..BIG_ROWS {
            let r = mix(i as u64);
            t.insert_row(vec![
                Value::Int(i as i64),
                Value::Int((r % 512) as i64),
                Value::Int((r % 10_000) as i64),
            ])
            .expect("schema matches");
        }
    }
    catalog
}

fn external_sort(c: &mut Criterion) {
    let catalog = shared_catalog();
    let in_memory = SpEngine::with_catalog(Arc::clone(&catalog));
    let spilling = SpEngine::with_catalog(Arc::clone(&catalog))
        .with_memory_budget(MemoryBudget::bytes(BUDGET_BYTES));

    let sort_sql = "SELECT id, val FROM big ORDER BY val, id";
    let mut group = c.benchmark_group("sort_200k");
    group.sample_size(10);
    group.bench_function("in_memory", |b| {
        b.iter(|| {
            black_box(
                in_memory
                    .execute_sql(sort_sql)
                    .expect("sort")
                    .batch
                    .num_rows(),
            )
        })
    });
    group.bench_function("external_256k_budget", |b| {
        b.iter(|| {
            let out = spilling.execute_sql(sort_sql).expect("sort");
            assert!(out.stats.pages_spilled > 0, "budget must force spilling");
            black_box(out.batch.num_rows())
        })
    });
    group.finish();

    let agg_sql = "SELECT grp, COUNT(*) AS n, SUM(val) AS s, MIN(val) AS lo FROM big GROUP BY grp";
    let mut group = c.benchmark_group("aggregate_200k");
    group.sample_size(10);
    group.bench_function("in_memory", |b| {
        b.iter(|| {
            black_box(
                in_memory
                    .execute_sql(agg_sql)
                    .expect("aggregate")
                    .batch
                    .num_rows(),
            )
        })
    });
    group.bench_function("spilling_256k_budget", |b| {
        b.iter(|| {
            let out = spilling.execute_sql(agg_sql).expect("aggregate");
            black_box(out.batch.num_rows())
        })
    });
    group.finish();
}

criterion_group!(benches, external_sort);
criterion_main!(benches);
