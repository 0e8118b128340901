//! Property tests for columns of shares held as limbs: every column
//! operation must equal the same operation on a plain `Vec<Value>`
//! reference, value for value, and every rendering of the result — JSON,
//! page bytes, `approx_size_bytes` — must be byte for byte the reference's.
//! Shares are 1, 4, 8 and 32 limbs wide, with NULLs, zeros and shares
//! narrower than the column; one column mixes other values in.

use num_bigint::BigUint;
use proptest::prelude::*;
use serde::Serialize;

use sdb_storage::pager::{decode_batch, encode_batch};
use sdb_storage::{
    Bitmap, Column, ColumnDef, ColumnVector, ColumnarColumn, DataType, RecordBatch, Schema, Value,
};

const WIDTHS: [usize; 4] = [1, 4, 8, 32];

/// A deterministic stream of words.
struct Words(u64);

impl Words {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The share with little-endian `limbs`.
fn share(limbs: &[u64]) -> Value {
    let bytes: Vec<u8> = limbs.iter().flat_map(|limb| limb.to_le_bytes()).collect();
    Value::Encrypted(BigUint::from_bytes_le(&bytes))
}

/// `len` cells of shares up to `width` limbs: NULLs, zeros, one-limb shares
/// and full-width ones (top limb set).
fn cells(width: usize, seed: u64, len: usize) -> Vec<Value> {
    let mut words = Words(seed | 1);
    (0..len)
        .map(|i| match words.next() % 6 {
            0 => Value::Null,
            1 => share(&[]),
            2 => share(&[words.next()]),
            _ => {
                let mut limbs: Vec<u64> = (0..width).map(|_| words.next()).collect();
                limbs[width - 1] |= 1 << (i % 64);
                share(&limbs)
            }
        })
        .collect()
}

/// The serialised form a `Vec<Value>` column had.
#[derive(Serialize)]
struct ReferenceColumn {
    data_type: DataType,
    values: Vec<Value>,
}

/// One cell in the page codec's tagged layout, as the `Vec<Value>` column
/// wrote it (NULL, INT and shares: what these columns hold).
fn reference_cell(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(0),
        Value::Int(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Encrypted(e) => {
            out.push(7);
            let bytes = e.to_bytes_le();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        other => panic!("no reference encoding for {other:?}"),
    }
}

/// The page a one-column batch of `values` encodes to under the tagged
/// layout: the empty batch's page — its row count patched, its column's
/// layout byte (the last byte) set to tagged — then the cells.
fn reference_page(def: &ColumnDef, values: &[Value]) -> Vec<u8> {
    let mut page = encode_batch(&RecordBatch::empty(Schema::new(vec![def.clone()])));
    page[10..18].copy_from_slice(&(values.len() as u64).to_le_bytes());
    *page.last_mut().expect("a layout byte") = 0;
    for value in values {
        reference_cell(&mut page, value);
    }
    page
}

/// Checks `column` against the reference cells, rendering by rendering.
fn assert_matches(column: &Column, reference: &[Value], what: &str) {
    assert_eq!(column.len(), reference.len(), "{what}: length");
    assert_eq!(column.to_values(), reference, "{what}: values");
    for (row, value) in reference.iter().enumerate() {
        assert_eq!(*column.value(row), *value, "{what}: row {row}");
        assert_eq!(column.is_null(row), value.is_null(), "{what}: row {row}");
    }
    let data_type = column.data_type();
    assert_eq!(
        serde_json::to_string(column).unwrap(),
        serde_json::to_string(&ReferenceColumn {
            data_type,
            values: reference.to_vec()
        })
        .unwrap(),
        "{what}: JSON"
    );
    assert_eq!(
        column.approx_size_bytes(),
        reference.iter().map(Value::approx_size).sum::<usize>(),
        "{what}: approx_size_bytes"
    );
    let def = ColumnDef::sensitive("c", data_type);
    let batch = RecordBatch::new(Schema::new(vec![def.clone()]), vec![column.clone()]).unwrap();
    let page = encode_batch(&batch);
    if column.shares().is_some() {
        assert_eq!(page, reference_page(&def, reference), "{what}: page bytes");
    }
    let decoded = decode_batch(&page).unwrap();
    assert_eq!(decoded.column(0), column, "{what}: page round trip");
    let pivoted = ColumnarColumn::from_column(column);
    assert_eq!(&pivoted.to_column(data_type), column, "{what}: columnar");
    for (row, value) in reference.iter().enumerate() {
        assert_eq!(pivoted.value_at(row), *value, "{what}: columnar row {row}");
    }
    if column.shares().is_some() {
        assert!(matches!(pivoted.vector(), ColumnVector::Shares(_)));
    }
}

fn rows_of(words: &mut Words, len: usize, count: usize) -> Vec<usize> {
    (0..count).map(|_| words.next() as usize % len).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn share_column_operations_match_the_value_reference(
        seed in any::<u64>(),
        len in 1usize..70,
        cut in any::<(u64, u64)>(),
    ) {
        for width in WIDTHS {
            let reference = cells(width, seed ^ width as u64, len);
            let column = Column::from_values(DataType::Encrypted, reference.clone()).unwrap();
            prop_assert!(column.shares().is_some());
            prop_assert!(column.shares().unwrap().width() <= width);
            assert_matches(&column, &reference, "packed");

            let mut words = Words(cut.0 | 1);
            let rows = rows_of(&mut words, len, len + 3);
            let gathered: Vec<Value> = rows.iter().map(|&i| reference[i].clone()).collect();
            assert_matches(&column.gather(&rows), &gathered, "gather");

            let gaps: Vec<Option<usize>> = rows
                .iter()
                .map(|&i| (i % 3 != 0).then_some(i))
                .collect();
            let padded: Vec<Value> = gaps
                .iter()
                .map(|row| row.map_or(Value::Null, |i| reference[i].clone()))
                .collect();
            assert_matches(&column.gather_or_null(&gaps), &padded, "gather_or_null");

            let offset = cut.1 as usize % len;
            let take = (cut.1 >> 32) as usize % (len - offset + 1);
            let window = column.slice(offset, take);
            assert_matches(&window, &reference[offset..offset + take], "slice");

            // Extending by a narrower column, and a window by a wider one.
            let narrow = cells(1, seed.rotate_left(7), len / 2 + 1);
            let mut grown = column.clone();
            grown.extend(&Column::from_values(DataType::Encrypted, narrow.clone()).unwrap());
            let mut expected = reference.clone();
            expected.extend(narrow.iter().cloned());
            assert_matches(&grown, &expected, "extend narrower");
            assert_matches(&column, &reference, "extend left the source alone");

            let mut widened = Column::from_values(DataType::Encrypted, narrow.clone()).unwrap();
            widened.extend(&window);
            let mut expected = narrow.clone();
            expected.extend(reference[offset..offset + take].iter().cloned());
            assert_matches(&widened, &expected, "extend wider");

            // Pushing cell by cell, onto the declared type and onto a
            // placeholder type as spill pages declare.
            for data_type in [DataType::Encrypted, DataType::Int] {
                let mut pushed = Column::new(data_type);
                for value in &reference {
                    pushed.push_unchecked(value.clone());
                }
                assert_matches(&pushed, &reference, "push");
            }
            let mut checked = Column::new(DataType::Encrypted);
            for value in &reference {
                checked.push(value.clone()).unwrap();
            }
            prop_assert!(checked.push(Value::Int(1)).is_err());
            assert_matches(&checked, &reference, "checked push");
        }
    }

    #[test]
    fn batches_of_shares_filter_and_append_like_the_reference(
        seed in any::<u64>(),
        len in 0usize..90,
    ) {
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::sensitive("s4", DataType::Encrypted),
            ColumnDef::sensitive("s32", DataType::Encrypted),
        ]);
        let (narrow, wide) = (cells(4, seed, len), cells(32, !seed, len));
        let rows: Vec<Vec<Value>> = (0..len)
            .map(|i| vec![Value::Int(i as i64), narrow[i].clone(), wide[i].clone()])
            .collect();
        let batch = RecordBatch::from_rows(schema.clone(), rows.clone()).unwrap();
        let mut words = Words(seed | 1);
        let mask: Vec<bool> = (0..len).map(|_| !words.next().is_multiple_of(3)).collect();
        let kept = batch.filter_bitmap(&Bitmap::from_bools(&mask)).unwrap();
        let model: Vec<Vec<Value>> = (rows.iter().zip(&mask))
            .filter(|(_, keep)| **keep)
            .map(|(row, _)| row.clone())
            .collect();
        prop_assert_eq!(kept.rows().collect::<Vec<_>>(), model.clone());
        assert_matches(kept.column(1), &model.iter().map(|r| r[1].clone()).collect::<Vec<_>>(), "filter");

        let mut appended = kept.clone();
        appended.append(&batch).unwrap();
        let mut expected = model;
        expected.extend(rows);
        prop_assert_eq!(appended.rows().collect::<Vec<_>>(), expected.clone());
        for c in [1, 2] {
            let reference: Vec<Value> = expected.iter().map(|r| r[c].clone()).collect();
            assert_matches(appended.column(c), &reference, "append");
        }
        prop_assert_eq!(
            serde_json::to_string(&appended).unwrap(),
            serde_json::to_string(&RecordBatch::from_rows(schema, expected).unwrap()).unwrap()
        );
    }

    #[test]
    fn a_column_that_mixes_in_other_values_keeps_them(
        seed in any::<u64>(),
        len in 1usize..40,
    ) {
        let mut reference = cells(8, seed, len);
        reference.insert(len / 2, Value::Int(-7));
        let column = Column::from_values_unchecked(DataType::Int, reference.clone());
        prop_assert!(column.shares().is_none());
        assert_matches(&column, &reference, "mixed");
        let batch = RecordBatch::new(
            Schema::new(vec![ColumnDef::public("k", DataType::Int)]),
            vec![column.clone()],
        )
        .unwrap();
        let page = encode_batch(&batch);
        let mut cells_only = Vec::new();
        for value in &reference {
            reference_cell(&mut cells_only, value);
        }
        prop_assert!(page.ends_with(&cells_only));

        // A share column extended by the mixed one falls back to values.
        let mut shares = Column::from_values(DataType::Encrypted, cells(8, !seed, 3)).unwrap();
        shares.extend(&column);
        let mut expected = cells(8, !seed, 3);
        expected.extend(reference.iter().cloned());
        prop_assert!(shares.shares().is_none());
        assert_matches(&shares, &expected, "extend by mixed");
    }
}

#[test]
fn an_all_null_column_packs_only_when_declared_encrypted() {
    let nulls = vec![Value::Null; 3];
    let declared = Column::from_values_unchecked(DataType::Encrypted, nulls.clone());
    assert!(declared.shares().is_some());
    assert_matches(&declared, &nulls, "declared");
    let placeholder = Column::from_values_unchecked(DataType::Int, nulls.clone());
    assert!(placeholder.shares().is_none());
    assert_eq!(declared.to_values(), placeholder.to_values());

    // A window with no share of a column of shares under a placeholder type
    // encodes as that type's NULLs did, as a value buffer of them encodes.
    let mut packed = Column::new(DataType::Int);
    packed.push_unchecked(share(&[5, 6]));
    packed.push_unchecked(Value::Null);
    packed.push_unchecked(Value::Null);
    assert!(packed.shares().is_some());
    let window = packed.slice(1, 2);
    let schema = Schema::new(vec![ColumnDef::public("__key0", DataType::Int)]);
    let page =
        |column: Column| encode_batch(&RecordBatch::new(schema.clone(), vec![column]).unwrap());
    let expected = Column::from_values_unchecked(DataType::Int, vec![Value::Null; 2]);
    assert_eq!(page(window.clone()), page(expected.clone()));
    assert_eq!(
        ColumnarColumn::from_column(&window),
        ColumnarColumn::from_column(&expected)
    );
}
