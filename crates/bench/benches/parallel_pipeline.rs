//! Morsel-parallel pipeline benchmark: serial vs parallel execution of the
//! two operators the partition-parallel layer accelerates most directly —
//! the base-table scan (per-worker morsel slicing) and the hash join's build
//! side (per-worker key indexing). Both engines share one catalog, so the
//! comparison isolates the `parallelism` knob.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sdb_engine::SpEngine;
use sdb_storage::{Catalog, ColumnDef, DataType, Schema, Value};

const BIG_ROWS: usize = 200_000;

/// Deterministic pseudo-random stream (keeps the bench reproducible without
/// an RNG dependency).
fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

/// `big(id, grp, val)` with `grp` spread over 1024 values, plus a 64-key
/// `dim(k, label)` — so the join's probe emits only ~1/16 of the big side and
/// the build phase dominates.
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
                Value::Int((r % 1024) as i64),
                Value::Int((r % 10_000) as i64),
            ])
            .expect("schema matches");
        }
    }
    let dim = catalog
        .create_table(
            "dim",
            Schema::new(vec![
                ColumnDef::public("k", DataType::Int),
                ColumnDef::public("label", DataType::Varchar),
            ]),
        )
        .expect("fresh catalog");
    {
        let mut t = dim.write();
        for k in 0..64i64 {
            t.insert_row(vec![Value::Int(k), Value::Str(format!("g{k}"))])
                .expect("schema matches");
        }
    }
    catalog
}

// Setup, once per bench run: the core count picks the parallel engine's width.
#[allow(clippy::disallowed_methods)]
fn parallel_pipeline(c: &mut Criterion) {
    let catalog = shared_catalog();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let serial = SpEngine::with_catalog(Arc::clone(&catalog)).with_parallelism(1);
    let parallel = SpEngine::with_catalog(Arc::clone(&catalog)).with_parallelism(cores);

    let scan_sql = "SELECT * FROM big";
    let mut group = c.benchmark_group("parallel_scan_200k");
    group.bench_function("serial", |b| {
        b.iter(|| black_box(serial.execute_sql(scan_sql).expect("scan").batch.num_rows()))
    });
    group.bench_function(format!("parallel_x{cores}"), |b| {
        b.iter(|| {
            black_box(
                parallel
                    .execute_sql(scan_sql)
                    .expect("scan")
                    .batch
                    .num_rows(),
            )
        })
    });
    group.finish();

    // dim ⋈ big puts the 200k side on the (parallel) build.
    let join_sql = "SELECT d.label, b.val FROM dim d JOIN big b ON d.k = b.grp";
    let mut group = c.benchmark_group("parallel_hash_join_200k_build");
    group.bench_function("serial", |b| {
        b.iter(|| black_box(serial.execute_sql(join_sql).expect("join").batch.num_rows()))
    });
    group.bench_function(format!("parallel_x{cores}"), |b| {
        b.iter(|| {
            black_box(
                parallel
                    .execute_sql(join_sql)
                    .expect("join")
                    .batch
                    .num_rows(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, parallel_pipeline);
criterion_main!(benches);
