//! Property tests for shared, windowed column buffers: every `RecordBatch`
//! operation, applied in random chains, is checked against a deep-copy row
//! model — a `Vec` of rows rebuilt into fresh buffers after every step.

use num_bigint::BigUint;
use proptest::collection::vec;
use proptest::prelude::*;

use sdb_storage::pager::{decode_batch, encode_batch};
use sdb_storage::{Bitmap, ColumnDef, ColumnarColumn, DataType, RecordBatch, Schema, Table, Value};

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::public("id", DataType::Int),
        ColumnDef::public("name", DataType::Varchar),
        ColumnDef::sensitive("share", DataType::Encrypted),
        ColumnDef::public("day", DataType::Date),
    ])
}

fn row(i: u64) -> Vec<Value> {
    vec![
        Value::Int(i as i64),
        if i.is_multiple_of(5) {
            Value::Null
        } else {
            Value::Str(format!("name-{}", i % 7))
        },
        Value::Encrypted((BigUint::from(i) << 70u32) + BigUint::from(i * 31 + 1)),
        Value::Date((i % 400) as i32),
    ]
}

/// The deep-copy model: the surviving column positions of [`schema`] and the
/// rows, row-major.
#[derive(Clone)]
struct Model {
    columns: Vec<usize>,
    rows: Vec<Vec<Value>>,
}

impl Model {
    /// The model as a batch over buffers nothing else holds.
    fn deep_copy(&self) -> RecordBatch {
        RecordBatch::from_rows(schema().project(&self.columns), self.rows.clone()).unwrap()
    }
}

fn keeps(salt: u64, i: usize) -> bool {
    (salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (i % 61)) & 1 == 1
}

/// Applies one operation to both sides; `a` and `b` parameterise it.
fn step(batch: &RecordBatch, model: &Model, op: u8, a: u64, b: u64) -> (RecordBatch, Model) {
    let n = model.rows.len();
    let mut next = model.clone();
    let out = match op % 9 {
        0 => {
            let offset = a as usize % (n + 1);
            let len = b as usize % (n - offset + 1);
            next.rows = model.rows[offset..offset + len].to_vec();
            batch.slice(offset, len).unwrap()
        }
        1 => {
            let keep = a as usize % (n + 2);
            next.rows.truncate(keep);
            batch.limit(keep)
        }
        2 => {
            let width = model.columns.len();
            let mut picked: Vec<usize> = (0..width).filter(|&c| keeps(a, c)).collect();
            if picked.is_empty() {
                picked.push(b as usize % width);
            }
            next.columns = picked.iter().map(|&c| model.columns[c]).collect();
            next.rows = (model.rows.iter())
                .map(|r| picked.iter().map(|&c| r[c].clone()).collect())
                .collect();
            batch.project(&picked)
        }
        3 | 4 => {
            // Salts 0 and 1 exercise the none-kept and all-kept paths.
            let mask: Vec<bool> = (0..n)
                .map(|i| match a % 4 {
                    0 => false,
                    1 => true,
                    _ => keeps(a, i),
                })
                .collect();
            next.rows = (model.rows.iter().zip(&mask))
                .filter(|(_, keep)| **keep)
                .map(|(r, _)| r.clone())
                .collect();
            if op % 9 == 3 {
                batch.filter(&mask).unwrap()
            } else {
                batch.filter_bitmap(&Bitmap::from_bools(&mask)).unwrap()
            }
        }
        5 => {
            let mut perm: Vec<usize> = (0..n).collect();
            perm.rotate_left(if n == 0 { 0 } else { a as usize % n });
            if b % 2 == 1 {
                perm.reverse();
            }
            next.rows = perm.iter().map(|&i| model.rows[i].clone()).collect();
            batch.reorder(&perm).unwrap()
        }
        6 => {
            // Morsels cover the batch in order; appending them back onto the
            // first (a window) must rebuild it.
            let mut parts = batch.partition(a as usize % 4 + 1).into_iter();
            let mut whole = parts
                .next()
                .unwrap_or_else(|| RecordBatch::empty(batch.schema().clone()));
            for part in parts {
                whole.append(&part).unwrap();
            }
            whole
        }
        7 => {
            // Appending while `holder` shares the buffers must leave it intact.
            let holder = batch.clone();
            let extra = Model {
                columns: model.columns.clone(),
                rows: (0..a % 5)
                    .map(|i| {
                        let full = row(1000 + b % 100 + i);
                        model.columns.iter().map(|&c| full[c].clone()).collect()
                    })
                    .collect(),
            };
            next.rows.extend(extra.rows.iter().cloned());
            let mut grown = batch.clone();
            grown.append(&extra.deep_copy()).unwrap();
            assert_eq!(holder, model.deep_copy(), "append disturbed another holder");
            grown
        }
        _ => {
            let tail = a as usize % (n + 1);
            next.rows.extend(model.rows[tail..].iter().cloned());
            batch.concat(&batch.slice(tail, n - tail).unwrap()).unwrap()
        }
    };
    (out, next)
}

/// Everything that must see exactly the window, never the buffer behind it.
fn assert_window_only(batch: &RecordBatch, model: &Model) {
    let deep = model.deep_copy();
    assert_eq!(batch, &deep);
    assert_eq!(batch.num_rows(), model.rows.len());
    assert_eq!(
        serde_json::to_string(batch).unwrap(),
        serde_json::to_string(&deep).unwrap()
    );
    assert_eq!(batch.approx_size_bytes(), deep.approx_size_bytes());
    let encoded = encode_batch(batch);
    assert_eq!(encoded, encode_batch(&deep));
    assert_eq!(decode_batch(&encoded).unwrap(), deep);
    for column in batch.columns() {
        let pivoted = ColumnarColumn::from_column(column);
        assert_eq!(&pivoted.to_column(column.data_type()), column);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_operation_chains_match_the_deep_copy_model(
        rows in 0u64..90,
        ops in vec(any::<(u8, u64, u64)>(), 0..10),
    ) {
        let mut model = Model {
            columns: (0..schema().len()).collect(),
            rows: (0..rows).map(row).collect(),
        };
        let mut batch = model.deep_copy();
        assert_window_only(&batch, &model);
        for (op, a, b) in ops {
            let (next_batch, next_model) = step(&batch, &model, op, a, b);
            batch = next_batch;
            model = next_model;
            assert_window_only(&batch, &model);
        }
    }

    #[test]
    fn windows_compose_and_share_one_buffer(
        rows in 1u64..200,
        cuts in any::<(u64, u64, u64, u64)>(),
    ) {
        let batch = RecordBatch::from_rows(schema(), (0..rows).map(row).collect()).unwrap();
        let n = rows as usize;
        let outer_offset = cuts.0 as usize % n;
        let outer_len = cuts.1 as usize % (n - outer_offset) + 1;
        let inner_offset = cuts.2 as usize % outer_len;
        let inner_len = cuts.3 as usize % (outer_len - inner_offset + 1);
        let nested = batch
            .slice(outer_offset, outer_len)
            .unwrap()
            .slice(inner_offset, inner_len)
            .unwrap();
        let direct = batch.slice(outer_offset + inner_offset, inner_len).unwrap();
        prop_assert_eq!(&nested, &direct);
        // No operation above copied a cell: column for column, one buffer.
        let derived = [
            (nested, vec![0, 1, 2, 3]),
            (batch.clone(), vec![0, 1, 2, 3]),
            (batch.limit(n / 2), vec![0, 1, 2, 3]),
            (batch.project(&[2, 0]), vec![2, 0]),
        ];
        for (other, sources) in &derived {
            for (column, &source) in other.columns().iter().zip(sources) {
                prop_assert!(column.shares_buffer(batch.column(source)));
            }
        }
    }
}

#[test]
fn a_table_scan_shares_buffers_and_inserts_copy_on_write() {
    let mut table = Table::new("t", schema());
    table.insert_rows((0..10).map(row).collect()).unwrap();
    let snapshot = table.scan();
    let pruned = table.scan_columns(&[2]);
    assert!(snapshot
        .column(2)
        .shares_buffer(table.column("share").unwrap()));
    assert!(pruned
        .column(0)
        .shares_buffer(table.column("share").unwrap()));

    // The writer moves to its own buffers; the readers keep the ten rows.
    table.insert_row(row(10)).unwrap();
    assert_eq!(table.num_rows(), 11);
    assert_eq!(snapshot.num_rows(), 10);
    assert_eq!(
        snapshot,
        RecordBatch::from_rows(schema(), (0..10).map(row).collect()).unwrap()
    );
    assert!(!snapshot
        .column(2)
        .shares_buffer(table.column("share").unwrap()));

    // The next reader shares the writer's new buffers.
    drop((snapshot, pruned));
    table.insert_row(row(11)).unwrap();
    let next = table.scan();
    assert_eq!(next.num_rows(), 12);
    assert!(next.column(0).shares_buffer(table.column("id").unwrap()));
}
