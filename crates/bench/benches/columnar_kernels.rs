//! Kernel micro-benches over a 200k-row fact table, each query run through
//! the full engine so the numbers are production code paths, not synthetic
//! loops. Selection (predicate → selection bitmap → `filter_bitmap`) and
//! global aggregation (`GlobalAggKernel`'s columnar folds) have a scalar
//! twin and run twice — `with_vectorised(false)` vs `(true)`. The keyed
//! operators (hash-join probe on one and on two key columns, group-by) have
//! one key path (`sdb_storage::keys`) whatever the knob says, so
//! they are timed once.
//!
//! Besides the criterion timings, the target writes a
//! `BENCH_columnar.json` snapshot at the repository root: the workload is
//! fully seeded (deterministic data, queries and output cardinalities); the
//! recorded times come from a best-of-N wall-clock measurement at snapshot
//! time.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use sdb_engine::SpEngine;
use sdb_storage::{Catalog, ColumnDef, DataType, Schema, Value};

const ROWS: u64 = 200_000;

/// The micro-bench battery: name, query, and whether the query has a scalar
/// twin to compare against (the keyed operators do not).
const BENCHES: &[(&str, &str, bool)] = &[
    (
        "filter",
        "SELECT id FROM fact WHERE val > 0 AND d < 30.5 AND name LIKE 'g%'",
        true,
    ),
    (
        "hash_join_probe",
        "SELECT f.id, d.label FROM fact f JOIN dim d ON f.grp = d.k",
        false,
    ),
    // Two key columns, the shape of TPC-H Q5's top join.
    (
        "hash_join_probe_two_keys",
        "SELECT f.id, d.label FROM fact f JOIN dim2 d ON f.grp = d.k AND f.flag = d.f",
        false,
    ),
    (
        "group_keys",
        "SELECT grp, flag, COUNT(*) AS n, SUM(val) AS s FROM fact GROUP BY grp, flag",
        false,
    ),
    (
        "global_agg",
        "SELECT COUNT(val) AS c, SUM(val) AS s, AVG(val) AS a, \
         MIN(val) AS lo, MAX(val) AS hi, MIN(name) AS mn FROM fact",
        true,
    ),
];

/// Deterministic pseudo-random stream (keeps the bench reproducible without
/// an RNG dependency in the data).
fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

/// A `fact(id, val, d, name, grp, flag)` table (~6% NULLs per nullable
/// column) plus a 16-row `dim(k, label)` and a 32-row `dim2(k, f, label)`
/// dimension.
fn shared_catalog() -> Arc<Catalog> {
    let catalog = Arc::new(Catalog::new());
    let fact = catalog
        .create_table(
            "fact",
            Schema::new(vec![
                ColumnDef::public("id", DataType::Int),
                ColumnDef::public("val", DataType::Int),
                ColumnDef::public("d", DataType::Decimal { scale: 2 }),
                ColumnDef::public("name", DataType::Varchar),
                ColumnDef::public("grp", DataType::Int),
                ColumnDef::public("flag", DataType::Bool),
            ]),
        )
        .expect("fresh catalog");
    {
        let mut t = fact.write();
        for i in 0..ROWS {
            let r = mix(i);
            let keep = |bit: u64| r >> bit & 15 != 0; // ~6% NULLs
            let lift = |v: Option<Value>| v.unwrap_or(Value::Null);
            t.insert_row(vec![
                Value::Int(i as i64),
                lift(keep(0).then_some(Value::Int((r % 2_001) as i64 - 1_000))),
                lift(keep(4).then_some(Value::Decimal {
                    units: (r % 12_000) as i64 - 6_000,
                    scale: 2,
                })),
                lift(keep(8).then_some(Value::Str(format!("g{}", r % 64)))),
                lift(keep(12).then_some(Value::Int((r % 16) as i64))),
                lift(keep(16).then_some(Value::Bool(r & 32 != 0))),
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
    let dim2 = catalog
        .create_table(
            "dim2",
            Schema::new(vec![
                ColumnDef::public("k", DataType::Int),
                ColumnDef::public("f", DataType::Bool),
                ColumnDef::public("label", DataType::Varchar),
            ]),
        )
        .expect("fresh catalog");
    let (mut t, mut t2) = (dim.write(), dim2.write());
    for k in 0..16 {
        t.insert_row(vec![Value::Int(k), Value::Str(format!("dim{k}"))])
            .expect("schema matches");
        for f in [false, true] {
            let label = Value::Str(format!("dim{k}{f}"));
            t2.insert_row(vec![Value::Int(k), Value::Bool(f), label])
                .expect("schema matches");
        }
    }
    drop((t, t2));
    catalog
}

fn engine(catalog: &Arc<Catalog>, vectorised: bool) -> SpEngine {
    SpEngine::with_catalog(Arc::clone(catalog)).with_vectorised(vectorised)
}

fn rows_of(engine: &SpEngine, sql: &str) -> usize {
    engine.execute_sql(sql).expect("query").batch.num_rows()
}

/// Best-of-N wall-clock milliseconds for one query on one engine.
fn best_ms(engine: &SpEngine, sql: &str, n: u32) -> f64 {
    (0..n)
        .map(|_| {
            let start = Instant::now();
            black_box(rows_of(engine, sql));
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Writes the timing snapshot checked in at the repo root. Where two paths
/// are compared, output cardinalities are asserted identical first — a bench
/// that compares non-identical work would be meaningless.
fn write_snapshot(catalog: &Arc<Catalog>) {
    let scalar = engine(catalog, false);
    let vectorised = engine(catalog, true);
    let mut entries = Vec::new();
    for (name, sql, paired) in BENCHES {
        let rows = rows_of(&vectorised, sql);
        let vectorised_ms = best_ms(&vectorised, sql, 5);
        if !paired {
            entries.push(format!(
                "    \"{name}\": {{\n      \"output_rows\": {rows},\n      \
                 \"ms\": {vectorised_ms:.2}\n    }}"
            ));
            continue;
        }
        assert_eq!(rows, rows_of(&scalar, sql), "paths diverged: {sql}");
        let scalar_ms = best_ms(&scalar, sql, 5);
        entries.push(format!(
            "    \"{name}\": {{\n      \"output_rows\": {rows},\n      \
             \"scalar_ms\": {scalar_ms:.2},\n      \
             \"vectorised_ms\": {vectorised_ms:.2},\n      \
             \"speedup\": {:.2}\n    }}",
            scalar_ms / vectorised_ms
        ));
    }
    let snapshot = format!(
        "{{\n  \"bench\": \"columnar_kernels\",\n  \"rows\": {ROWS},\n  \
         \"kernels\": {{\n{}\n  }}\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_columnar.json");
    std::fs::write(path, &snapshot).expect("snapshot write");
    println!("{snapshot}");
}

fn columnar_kernels(c: &mut Criterion) {
    let catalog = shared_catalog();
    write_snapshot(&catalog);

    let scalar = engine(&catalog, false);
    let vectorised = engine(&catalog, true);

    let mut group = c.benchmark_group("columnar_kernels_200k");
    group.sample_size(10);
    for (name, sql, paired) in BENCHES {
        if !paired {
            group.bench_function(*name, |b| b.iter(|| black_box(rows_of(&vectorised, sql))));
            continue;
        }
        group.bench_function(format!("{name}_scalar"), |b| {
            b.iter(|| black_box(rows_of(&scalar, sql)))
        });
        group.bench_function(format!("{name}_vectorised"), |b| {
            b.iter(|| black_box(rows_of(&vectorised, sql)))
        });
    }
    group.finish();
}

criterion_group!(benches, columnar_kernels);
criterion_main!(benches);
