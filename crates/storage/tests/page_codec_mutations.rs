//! Mutation tests for the page decoder, the spill path's untrusted input:
//! pages holding share and row-id columns are bit-flipped, truncated and
//! given rewritten length fields under fixed seeds. Every mutated page must
//! decode to a batch or fail with a typed `StorageError` — never panic — and
//! no decoded cell may claim more bytes than the page holds. The untouched
//! page decodes to exactly its input.

use std::panic::{catch_unwind, AssertUnwindSafe};

use num_bigint::BigUint;
use sdb_crypto::sies::SiesCiphertext;
use sdb_crypto::EncryptedRowId;
use sdb_storage::pager::{decode_batch, encode_batch};
use sdb_storage::{ColumnDef, DataType, RecordBatch, Schema, StorageError, Value};

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

/// A page of `rows` rows: an id, a share column (NULLs and zeros among
/// 512-bit shares), a row-id column and a share column under a placeholder
/// type, as spill pages declare it.
fn page(rows: usize, seed: u64) -> RecordBatch {
    let mut words = Words(seed | 1);
    let share = |words: &mut Words| {
        let bytes: Vec<u8> = (0..8).flat_map(|_| words.next().to_le_bytes()).collect();
        Value::Encrypted(BigUint::from_bytes_le(&bytes))
    };
    let schema = Schema::new(vec![
        ColumnDef::public("id", DataType::Int),
        ColumnDef::sensitive("s", DataType::Encrypted),
        ColumnDef::public("row_id", DataType::EncryptedRowId),
        ColumnDef::public("__key0", DataType::Int),
    ]);
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let cell = match i % 5 {
                0 => Value::Null,
                1 => Value::Encrypted(BigUint::from(0u32)),
                _ => share(&mut words),
            };
            let row_id = EncryptedRowId(SiesCiphertext {
                nonce: words.next(),
                body: (0..32).map(|b| (b as u8) ^ (i as u8)).collect(),
                tag: words.next(),
            });
            vec![
                Value::Int(i as i64),
                cell,
                Value::EncryptedRowId(row_id),
                share(&mut words),
            ]
        })
        .collect();
    RecordBatch::from_rows_unchecked(schema, rows)
}

/// Decodes a mutated page: it must not panic, a failure must be the
/// persistence error, and a batch must hold no cell longer than the page.
fn decode_mutated(bytes: &[u8], what: &str) {
    let decoded = catch_unwind(AssertUnwindSafe(|| decode_batch(bytes)))
        .unwrap_or_else(|_| panic!("{what}: the decoder panicked"));
    match decoded {
        Err(StorageError::Persistence { .. }) => {}
        Err(other) => panic!("{what}: unexpected error {other:?}"),
        Ok(batch) => {
            for column in batch.columns() {
                for row in 0..column.len() {
                    let claimed = match &*column.value(row) {
                        Value::Encrypted(share) => share.bits().div_ceil(8) as usize,
                        Value::EncryptedRowId(row_id) => row_id.0.body.len(),
                        Value::Str(s) => s.len(),
                        _ => 0,
                    };
                    assert!(
                        claimed <= bytes.len(),
                        "{what}: a cell claims {claimed} bytes of a {}-byte page",
                        bytes.len()
                    );
                }
            }
        }
    }
}

/// Where each tagged cell's `u32` length field sits: after tag 7 (a share)
/// or after tag 8 and its nonce (a row id).
fn length_fields(bytes: &[u8], batch: &RecordBatch) -> Vec<usize> {
    let mut fields = Vec::new();
    // The columns start where the empty batch's page ends, less the one
    // layout byte each of its empty columns wrote.
    let header = encode_batch(&RecordBatch::empty(batch.schema().clone())).len();
    let mut cursor = header - batch.num_columns();
    for column in batch.columns() {
        let layout = bytes[cursor];
        cursor += 1;
        if layout != 0 {
            // The INT column's columnar payload: validity words and values.
            cursor += column.len().div_ceil(64) * 8 + column.len() * 8;
            continue;
        }
        for row in 0..column.len() {
            match bytes[cursor] {
                0 => cursor += 1,
                7 => {
                    fields.push(cursor + 1);
                    let len = u32::from_le_bytes(bytes[cursor + 1..cursor + 5].try_into().unwrap());
                    cursor += 5 + len as usize;
                }
                8 => {
                    fields.push(cursor + 9);
                    let len =
                        u32::from_le_bytes(bytes[cursor + 9..cursor + 13].try_into().unwrap());
                    cursor += 13 + len as usize + 8;
                }
                tag => panic!("unexpected tag {tag} in row {row}"),
            }
        }
    }
    assert_eq!(cursor, bytes.len(), "the walk covers the page");
    fields
}

#[test]
fn the_untouched_page_decodes_to_its_input() {
    for rows in [0, 1, 7, 64, 65] {
        let batch = page(rows, 11 + rows as u64);
        let bytes = encode_batch(&batch);
        assert_eq!(decode_batch(&bytes).unwrap(), batch, "{rows} rows");
        assert!(decode_batch(&bytes).unwrap().column(1).shares().is_some());
    }
}

#[test]
fn seeded_bit_flips_never_panic() {
    for seed in 1..=6u64 {
        let batch = page(12, seed);
        let bytes = encode_batch(&batch);
        let mut words = Words(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        for trial in 0..400 {
            let mut mutated = bytes.clone();
            for _ in 0..1 + trial % 4 {
                let bit = words.next() as usize % (8 * mutated.len());
                mutated[bit / 8] ^= 1 << (bit % 8);
            }
            decode_mutated(&mutated, &format!("seed {seed} flip {trial}"));
        }
    }
}

#[test]
fn every_truncation_fails_cleanly() {
    let bytes = encode_batch(&page(9, 3));
    for len in 0..bytes.len() {
        let truncated = &bytes[..len];
        decode_mutated(truncated, &format!("truncated to {len}"));
        assert!(
            decode_batch(truncated).is_err(),
            "truncated to {len} decoded"
        );
    }
}

#[test]
fn rewritten_length_fields_never_panic() {
    let batch = page(10, 5);
    let bytes = encode_batch(&batch);
    let fields = length_fields(&bytes, &batch);
    assert!(fields.len() >= 20, "share and row-id cells found");
    let page_len = bytes.len() as u32;
    for &field in &fields {
        let original = u32::from_le_bytes(bytes[field..field + 4].try_into().unwrap());
        for len in [
            0,
            1,
            original.wrapping_sub(1),
            original + 1,
            original + 64,
            page_len,
            page_len - field as u32,
            u32::MAX / 2,
            u32::MAX,
        ] {
            let mut mutated = bytes.clone();
            mutated[field..field + 4].copy_from_slice(&len.to_le_bytes());
            decode_mutated(&mutated, &format!("length at {field} = {len}"));
        }
    }
}
