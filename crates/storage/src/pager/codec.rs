//! Compact binary codec for spilled [`RecordBatch`] pages.
//!
//! The JSON serde path (used for catalog persistence) is far too verbose for
//! spill traffic, so pages use a dense little-endian layout instead:
//!
//! ```text
//! magic "SDBP" · version u16 · ncols u32 · nrows u64
//! per column: name (u16 len + utf8) · type tag u8 [· decimal scale u8] · sensitivity u8
//! per column: layout u8 · payload
//! ```
//!
//! Version 2 encodes each column under one of two layouts, chosen per page:
//!
//! * **layout 1 (columnar)** — used when the column's runtime values all match
//!   its declared type (the overwhelmingly common case): a validity bitmap
//!   (`u64` words, bit set = present) followed by the typed vector — packed
//!   `i64`s for INT, `units`/`scales`/int-marker bitmap for DECIMAL,
//!   offsets + concatenated bytes for VARCHAR, packed `i32`s for DATE, a bit
//!   vector for BOOL, packed `u64`s for TAG. No per-value tag bytes at all.
//! * **layout 0 (tagged)** — the version-1 fallback of one tag byte per
//!   value. Used for heterogeneous columns (sort-key columns mix NULLs, INTs
//!   and DECIMALs freely) and for the variable-length ENCRYPTED /
//!   ENC_ROW_ID payloads, where tag bytes are noise next to the bigints.
//!
//! Both layouts round-trip byte-identically through [`crate::ColumnarColumn`].
//! Decoding validates the header and every length field and fails with
//! [`StorageError::Persistence`] rather than panicking on truncated or
//! corrupt input. Spill pages never outlive the process, so version 1 pages
//! are not decodable — there are none to decode.

use num_bigint::BigUint;
use sdb_crypto::sies::SiesCiphertext;
use sdb_crypto::EncryptedRowId;

use crate::{
    Bitmap, Column, ColumnDef, ColumnVector, ColumnarColumn, DataType, RecordBatch, Result, Schema,
    Sensitivity, ShareColumn, StorageError, Value,
};

const MAGIC: &[u8; 4] = b"SDBP";
const VERSION: u16 = 2;

/// Per-value tag bytes (the version-1 format).
const LAYOUT_TAGGED: u8 = 0;
/// Validity bitmap + typed vector.
const LAYOUT_COLUMNAR: u8 = 1;

fn corrupt(detail: impl Into<String>) -> StorageError {
    StorageError::Persistence {
        detail: format!("page codec: {}", detail.into()),
    }
}

/// Encodes a batch into the spill-page wire format.
pub fn encode_batch(batch: &RecordBatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + batch.approx_size_bytes());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(batch.num_columns() as u32).to_le_bytes());
    out.extend_from_slice(&(batch.num_rows() as u64).to_le_bytes());
    for def in batch.schema().columns() {
        encode_column_def(&mut out, def);
    }
    for column in batch.columns() {
        encode_column_values(&mut out, column);
    }
    out
}

fn encode_column_values(out: &mut Vec<u8>, column: &Column) {
    let pivoted = ColumnarColumn::from_column(column);
    match pivoted.vector() {
        // Mixed-type columns and the variable-length crypto payloads keep
        // the tagged layout: the former have no typed vector, the latter
        // gain nothing from dropping one tag byte per bigint.
        ColumnVector::Shares(shares) => {
            out.push(LAYOUT_TAGGED);
            for row in 0..shares.len() {
                encode_share(out, shares, row);
            }
        }
        ColumnVector::Values(_) | ColumnVector::EncryptedRowId(_) => {
            out.push(LAYOUT_TAGGED);
            for value in column.iter() {
                encode_value(out, &value);
            }
        }
        vector => {
            out.push(LAYOUT_COLUMNAR);
            encode_words(out, pivoted.validity().words());
            match vector {
                ColumnVector::Int(v) => {
                    for x in v {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
                ColumnVector::Decimal {
                    units,
                    scales,
                    ints,
                } => {
                    for u in units {
                        out.extend_from_slice(&u.to_le_bytes());
                    }
                    out.extend_from_slice(scales);
                    encode_words(out, ints.words());
                }
                ColumnVector::Str { offsets, bytes } => {
                    for o in offsets {
                        out.extend_from_slice(&o.to_le_bytes());
                    }
                    out.extend_from_slice(bytes);
                }
                ColumnVector::Date(v) => {
                    for d in v {
                        out.extend_from_slice(&d.to_le_bytes());
                    }
                }
                ColumnVector::Bool(bits) => encode_words(out, bits.words()),
                ColumnVector::Tag(v) => {
                    for t in v {
                        out.extend_from_slice(&t.to_le_bytes());
                    }
                }
                ColumnVector::Values(_)
                | ColumnVector::Shares(_)
                | ColumnVector::EncryptedRowId(_) => unreachable!("handled by the tagged arm"),
            }
        }
    }
}

/// One row of a share column in the tagged layout, byte for byte what
/// [`encode_value`] writes for the row's [`Value`].
fn encode_share(out: &mut Vec<u8>, shares: &ShareColumn, row: usize) {
    if !shares.is_valid(row) {
        out.push(0);
        return;
    }
    out.push(7);
    // `BigUint::to_bytes_le` writes zero as one byte.
    let len = shares.byte_len(row).max(1);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    let start = out.len();
    shares.write_bytes_le(row, out);
    out.resize(start + len, 0);
}

fn encode_words(out: &mut Vec<u8>, words: &[u64]) {
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Decodes a batch previously produced by [`encode_batch`].
pub fn decode_batch(bytes: &[u8]) -> Result<RecordBatch> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    let ncols = r.u32()? as usize;
    let nrows = r.u64()? as usize;
    // A page never holds more values than it has *bits* (every value costs at
    // least one validity bit under the columnar layout), and every column
    // definition occupies at least 4 bytes; reject absurd headers before
    // allocating (the ncols bound also covers the nrows == 0 case, where
    // the product check alone would pass).
    if ncols.saturating_mul(4) > bytes.len()
        || ncols.saturating_mul(nrows) > bytes.len().saturating_mul(64)
    {
        return Err(corrupt("header claims more values than the page holds"));
    }
    let mut defs = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        defs.push(decode_column_def(&mut r)?);
    }
    let mut columns = Vec::with_capacity(ncols);
    for def in &defs {
        columns.push(decode_column_values(&mut r, def.data_type, nrows)?);
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after the last value"));
    }
    RecordBatch::new(Schema::new(defs), columns)
}

fn encode_column_def(out: &mut Vec<u8>, def: &ColumnDef) {
    out.extend_from_slice(&(def.name.len() as u16).to_le_bytes());
    out.extend_from_slice(def.name.as_bytes());
    match def.data_type {
        DataType::Int => out.push(0),
        DataType::Decimal { scale } => {
            out.push(1);
            out.push(scale);
        }
        DataType::Varchar => out.push(2),
        DataType::Date => out.push(3),
        DataType::Bool => out.push(4),
        DataType::Encrypted => out.push(5),
        DataType::EncryptedRowId => out.push(6),
        DataType::Tag => out.push(7),
    }
    out.push(match def.sensitivity {
        Sensitivity::Public => 0,
        Sensitivity::Sensitive => 1,
    });
}

fn decode_column_def(r: &mut Reader<'_>) -> Result<ColumnDef> {
    let name_len = r.u16()? as usize;
    let name = String::from_utf8(r.take(name_len)?.to_vec())
        .map_err(|_| corrupt("column name is not UTF-8"))?;
    let data_type = match r.u8()? {
        0 => DataType::Int,
        1 => DataType::Decimal { scale: r.u8()? },
        2 => DataType::Varchar,
        3 => DataType::Date,
        4 => DataType::Bool,
        5 => DataType::Encrypted,
        6 => DataType::EncryptedRowId,
        7 => DataType::Tag,
        t => return Err(corrupt(format!("unknown type tag {t}"))),
    };
    let sensitivity = match r.u8()? {
        0 => Sensitivity::Public,
        1 => Sensitivity::Sensitive,
        s => return Err(corrupt(format!("unknown sensitivity tag {s}"))),
    };
    Ok(ColumnDef {
        name,
        data_type,
        sensitivity,
    })
}

fn decode_column_values(r: &mut Reader<'_>, data_type: DataType, nrows: usize) -> Result<Column> {
    let mut column = Vec::new();
    match r.u8()? {
        LAYOUT_TAGGED => {
            for _ in 0..nrows {
                column.push(decode_value(r)?);
            }
        }
        LAYOUT_COLUMNAR => {
            let validity = decode_bitmap(r, nrows)?;
            match data_type {
                DataType::Int => {
                    let v = r.i64_array(nrows)?;
                    for (i, x) in v.into_iter().enumerate() {
                        column.push(if validity.get(i) {
                            Value::Int(x)
                        } else {
                            Value::Null
                        });
                    }
                }
                DataType::Decimal { .. } => {
                    let units = r.i64_array(nrows)?;
                    let scales = r.take(nrows)?.to_vec();
                    let ints = decode_bitmap(r, nrows)?;
                    for (i, u) in units.into_iter().enumerate() {
                        column.push(if !validity.get(i) {
                            Value::Null
                        } else if ints.get(i) {
                            Value::Int(u)
                        } else {
                            Value::Decimal {
                                units: u,
                                scale: scales[i],
                            }
                        });
                    }
                }
                DataType::Varchar => {
                    let offsets = r.u32_array(nrows + 1)?;
                    let total = *offsets.last().expect("nrows + 1 >= 1") as usize;
                    let bytes = r.take(total)?;
                    for i in 0..nrows {
                        if !validity.get(i) {
                            column.push(Value::Null);
                            continue;
                        }
                        let (start, end) = (offsets[i] as usize, offsets[i + 1] as usize);
                        if start > end || end > total {
                            return Err(corrupt("string offsets out of order"));
                        }
                        let s = String::from_utf8(bytes[start..end].to_vec())
                            .map_err(|_| corrupt("string value is not UTF-8"))?;
                        column.push(Value::Str(s));
                    }
                }
                DataType::Date => {
                    let v = r.i32_array(nrows)?;
                    for (i, d) in v.into_iter().enumerate() {
                        column.push(if validity.get(i) {
                            Value::Date(d)
                        } else {
                            Value::Null
                        });
                    }
                }
                DataType::Bool => {
                    let bits = decode_bitmap(r, nrows)?;
                    for i in 0..nrows {
                        column.push(if validity.get(i) {
                            Value::Bool(bits.get(i))
                        } else {
                            Value::Null
                        });
                    }
                }
                DataType::Tag => {
                    let v = r.u64_array(nrows)?;
                    for (i, t) in v.into_iter().enumerate() {
                        column.push(if validity.get(i) {
                            Value::Tag(t)
                        } else {
                            Value::Null
                        });
                    }
                }
                DataType::Encrypted | DataType::EncryptedRowId => {
                    return Err(corrupt("crypto columns always use the tagged layout"));
                }
            }
        }
        l => return Err(corrupt(format!("unknown column layout {l}"))),
    }
    Ok(Column::from_values_unchecked(data_type, column))
}

fn decode_bitmap(r: &mut Reader<'_>, len: usize) -> Result<Bitmap> {
    let words = r.u64_array(len.div_ceil(64))?;
    Bitmap::from_words(words, len).ok_or_else(|| corrupt("bitmap word count mismatch"))
}

fn encode_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(0),
        Value::Int(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Decimal { units, scale } => {
            out.push(2);
            out.push(*scale);
            out.extend_from_slice(&units.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Date(d) => {
            out.push(4);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Bool(false) => out.push(5),
        Value::Bool(true) => out.push(6),
        Value::Encrypted(e) => {
            out.push(7);
            let bytes = e.to_bytes_le();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        Value::EncryptedRowId(rid) => {
            out.push(8);
            out.extend_from_slice(&rid.0.nonce.to_le_bytes());
            out.extend_from_slice(&(rid.0.body.len() as u32).to_le_bytes());
            out.extend_from_slice(&rid.0.body);
            out.extend_from_slice(&rid.0.tag.to_le_bytes());
        }
        Value::Tag(t) => {
            out.push(9);
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
}

fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int(r.i64()?),
        2 => Value::Decimal {
            scale: r.u8()?,
            units: r.i64()?,
        },
        3 => {
            let len = r.u32()? as usize;
            Value::Str(
                String::from_utf8(r.take(len)?.to_vec())
                    .map_err(|_| corrupt("string value is not UTF-8"))?,
            )
        }
        4 => Value::Date(r.i32()?),
        5 => Value::Bool(false),
        6 => Value::Bool(true),
        7 => {
            let len = r.u32()? as usize;
            Value::Encrypted(BigUint::from_bytes_le(r.take(len)?))
        }
        8 => {
            let nonce = r.u64()?;
            let len = r.u32()? as usize;
            let body = r.take(len)?.to_vec();
            let tag = r.u64()?;
            Value::EncryptedRowId(EncryptedRowId(SiesCiphertext { nonce, body, tag }))
        }
        9 => Value::Tag(r.u64()?),
        t => return Err(corrupt(format!("unknown value tag {t}"))),
    })
}

/// Bounds-checked little-endian cursor over the encoded page.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| corrupt("truncated page"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    // The array readers bounds-check the whole span via `take` *before*
    // allocating, so a corrupt length cannot trigger a huge allocation.

    fn u32_array(&mut self, n: usize) -> Result<Vec<u32>> {
        let total = n.checked_mul(4).ok_or_else(|| corrupt("length overflow"))?;
        Ok(self
            .take(total)?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn i32_array(&mut self, n: usize) -> Result<Vec<i32>> {
        let total = n.checked_mul(4).ok_or_else(|| corrupt("length overflow"))?;
        Ok(self
            .take(total)?
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn u64_array(&mut self, n: usize) -> Result<Vec<u64>> {
        let total = n.checked_mul(8).ok_or_else(|| corrupt("length overflow"))?;
        Ok(self
            .take(total)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn i64_array(&mut self, n: usize) -> Result<Vec<i64>> {
        let total = n.checked_mul(8).ok_or_else(|| corrupt("length overflow"))?;
        Ok(self
            .take(total)?
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_type_batch() -> RecordBatch {
        let schema = Schema::new(vec![
            ColumnDef::public("i", DataType::Int),
            ColumnDef::public("d", DataType::Decimal { scale: 2 }),
            ColumnDef::public("s", DataType::Varchar),
            ColumnDef::public("dt", DataType::Date),
            ColumnDef::public("b", DataType::Bool),
            ColumnDef::sensitive("e", DataType::Encrypted),
            ColumnDef::public("r", DataType::EncryptedRowId),
            ColumnDef::public("t", DataType::Tag),
        ]);
        let rid = EncryptedRowId(SiesCiphertext {
            nonce: 7,
            body: vec![1, 2, 3, 4],
            tag: 0xfeed,
        });
        RecordBatch::from_rows(
            schema,
            vec![
                vec![
                    Value::Int(-42),
                    Value::Decimal {
                        units: 1299,
                        scale: 2,
                    },
                    Value::Str("héllo \u{1f}".into()),
                    Value::Date(19_000),
                    Value::Bool(true),
                    Value::Encrypted(BigUint::from(1u8) << 200u32),
                    Value::EncryptedRowId(rid),
                    Value::Tag(u64::MAX),
                ],
                vec![
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_every_value_type() {
        let batch = every_type_batch();
        let bytes = encode_batch(&batch);
        let back = decode_batch(&bytes).unwrap();
        assert_eq!(batch, back);
    }

    #[test]
    fn roundtrip_empty_batch_keeps_schema() {
        let batch = RecordBatch::empty(Schema::new(vec![ColumnDef::sensitive(
            "x",
            DataType::Encrypted,
        )]));
        let back = decode_batch(&encode_batch(&batch)).unwrap();
        assert_eq!(batch, back);
        assert!(back.schema().column_at(0).sensitivity.is_sensitive());
    }

    #[test]
    fn heterogeneous_column_values_survive() {
        // Sort-key columns mix value types under one declared column type.
        let mut column = Column::new(DataType::Int);
        column.push_unchecked(Value::Int(1));
        column.push_unchecked(Value::Str("two".into()));
        column.push_unchecked(Value::Null);
        let batch = RecordBatch::new(
            Schema::new(vec![ColumnDef::public("k", DataType::Int)]),
            vec![column],
        )
        .unwrap();
        let back = decode_batch(&encode_batch(&batch)).unwrap();
        assert_eq!(batch, back);
    }

    #[test]
    fn corrupt_pages_error_instead_of_panicking() {
        let bytes = encode_batch(&every_type_batch());
        assert!(decode_batch(&[]).is_err());
        assert!(decode_batch(b"NOPE").is_err());
        assert!(
            decode_batch(&bytes[..bytes.len() - 3]).is_err(),
            "truncated"
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_batch(&trailing).is_err(), "trailing bytes");
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(decode_batch(&bad_version).is_err());
        // Absurd row count must not cause a huge allocation or a panic.
        let mut bad_rows = bytes.clone();
        bad_rows[10..18].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_batch(&bad_rows).is_err());
        // Nor an absurd column count — even with nrows = 0, where the
        // values-fit product check alone would be vacuously satisfied.
        let mut bad_cols = bytes;
        bad_cols[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        bad_cols[10..18].copy_from_slice(&0u64.to_le_bytes());
        assert!(decode_batch(&bad_cols).is_err());
    }

    #[test]
    fn columnar_layout_roundtrips_null_heavy_columns_at_word_boundaries() {
        for nrows in [1usize, 63, 64, 65, 128, 200] {
            let schema = Schema::new(vec![
                ColumnDef::public("i", DataType::Int),
                ColumnDef::public("d", DataType::Decimal { scale: 2 }),
                ColumnDef::public("s", DataType::Varchar),
                ColumnDef::public("b", DataType::Bool),
            ]);
            let rows: Vec<Vec<Value>> = (0..nrows)
                .map(|i| {
                    if i % 3 == 0 {
                        vec![Value::Null, Value::Null, Value::Null, Value::Null]
                    } else {
                        vec![
                            Value::Int(i as i64),
                            // Exercise the Int-in-Decimal marker bitmap too.
                            if i % 2 == 0 {
                                Value::Int(i as i64)
                            } else {
                                Value::Decimal {
                                    units: i as i64,
                                    scale: 2,
                                }
                            },
                            Value::Str(format!("row-{i}")),
                            Value::Bool(i % 5 == 0),
                        ]
                    }
                })
                .collect();
            let batch = RecordBatch::from_rows(schema, rows).unwrap();
            let back = decode_batch(&encode_batch(&batch)).unwrap();
            assert_eq!(batch, back, "nrows={nrows}");
        }
    }

    #[test]
    fn columnar_layout_is_denser_than_tagged_for_typed_columns() {
        let schema = Schema::new(vec![ColumnDef::public("i", DataType::Int)]);
        let rows: Vec<Vec<Value>> = (0..1000).map(|i| vec![Value::Int(i)]).collect();
        let batch = RecordBatch::from_rows(schema, rows).unwrap();
        let encoded = encode_batch(&batch).len();
        // Tagged layout costs 9 bytes per INT value; columnar costs
        // 8 bytes + 1 validity bit. The saving must actually show up.
        assert!(
            encoded < 1000 * 9,
            "columnar page ({encoded} bytes) should beat the tagged layout"
        );
    }

    #[test]
    fn encoding_is_compact_relative_to_json() {
        let batch = every_type_batch();
        let binary = encode_batch(&batch).len();
        let json = serde_json::to_string(&batch).unwrap().len();
        assert!(
            binary * 2 < json,
            "binary ({binary}) should be far smaller than JSON ({json})"
        );
    }
}
