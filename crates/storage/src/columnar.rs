//! Typed columnar vectors behind the [`Column`] codec boundary.
//!
//! [`Column`] stays the canonical row-exchange representation (a `Vec<Value>`
//! with `Value`-level accessors, so every operator keeps compiling), but hot
//! paths pivot a column into a [`ColumnVector`] — one contiguous typed vector
//! per data type, paired with a validity [`Bitmap`] — and run their loops over
//! the typed data with no enum dispatch per element:
//!
//! * `Vec<i64>` for INT, `Vec<i32>` for DATE, packed bits for BOOL,
//!   `Vec<u64>` for TAG;
//! * DECIMAL keeps per-element `units`/`scale` pairs plus an *int marker*
//!   bitmap, because a `DECIMAL(s)` column may legally store `Value::Int`
//!   (see [`Value::check_type`]) and the round trip back to [`Value`] must be
//!   byte-identical — `Value::Int(5)` and `Value::Decimal { units: 5, scale:
//!   0 }` compare equal numerically but are distinct variants;
//! * VARCHAR packs every string into one byte buffer with an offsets array;
//! * ENCRYPTED / ENC_ROW_ID get dedicated vectors of their payload types;
//! * columns whose *runtime* contents deviate from the declared type
//!   (sort-key columns built through `push_unchecked` mix types freely) fall
//!   back to [`ColumnVector::Values`], which kernels treat as "not columnar —
//!   use the scalar path".
//!
//! The contract is exact round-tripping: for every column,
//! `ColumnarColumn::from_column(c).to_column(c.data_type()) == c`.

use num_bigint::BigUint;
use sdb_crypto::EncryptedRowId;

use crate::bitmap::Bitmap;
use crate::{Column, DataType, Value};

/// The typed payload of a columnar column. NULL slots hold a zero/empty
/// placeholder in the typed vectors; the validity bitmap is authoritative.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVector {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// Fixed-point decimals: scaled units and per-element scales. `ints`
    /// marks elements that were stored as `Value::Int` (scale slot is 0
    /// there), so reconstruction restores the exact enum variant.
    Decimal {
        /// Scaled integer units per element.
        units: Vec<i64>,
        /// Digits after the decimal point, per element.
        scales: Vec<u8>,
        /// Elements that round-trip to `Value::Int` rather than
        /// `Value::Decimal`.
        ints: Bitmap,
    },
    /// Offset-packed UTF-8 strings: element `i` spans
    /// `bytes[offsets[i]..offsets[i + 1]]`.
    Str {
        /// `len + 1` byte offsets into `bytes`.
        offsets: Vec<u32>,
        /// The concatenated string payloads.
        bytes: Vec<u8>,
    },
    /// Days since the Unix epoch.
    Date(Vec<i32>),
    /// Booleans, packed one bit per element.
    Bool(Bitmap),
    /// Deterministic equality tags.
    Tag(Vec<u64>),
    /// SDB secret shares.
    Encrypted(Vec<BigUint>),
    /// Encrypted row ids / SIES payloads.
    EncryptedRowId(Vec<EncryptedRowId>),
    /// Fallback for columns whose runtime contents are not homogeneous:
    /// the raw values, signalling "no kernel for this column".
    Values(Vec<Value>),
}

/// A column pivoted into typed-vector form: payload plus validity bitmap.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarColumn {
    vector: ColumnVector,
    validity: Bitmap,
}

impl ColumnarColumn {
    /// Pivots a [`Column`] into typed-vector form in one pass. Columns whose
    /// runtime values deviate from the declared type fall back to
    /// [`ColumnVector::Values`].
    pub fn from_column(column: &Column) -> ColumnarColumn {
        let values = column.values();
        let n = values.len();
        let mut validity = Bitmap::new_set(n);
        for (i, v) in values.iter().enumerate() {
            if v.is_null() {
                validity.set(i, false);
            }
        }
        let vector = match column.data_type() {
            DataType::Int => extract_int(values),
            DataType::Decimal { .. } => extract_decimal(values),
            DataType::Varchar => extract_str(values),
            DataType::Date => extract_date(values),
            DataType::Bool => extract_bool(values),
            DataType::Tag => extract_tag(values),
            DataType::Encrypted => extract_encrypted(values),
            DataType::EncryptedRowId => extract_row_id(values),
        };
        match vector {
            Some(vector) => ColumnarColumn { vector, validity },
            None => ColumnarColumn {
                vector: ColumnVector::Values(values.to_vec()),
                validity,
            },
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.validity.len()
    }

    /// True when the column holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.validity.is_empty()
    }

    /// The validity bitmap (bit set = value present, clear = NULL).
    pub fn validity(&self) -> &Bitmap {
        &self.validity
    }

    /// Number of NULLs (popcount of the cleared validity bits).
    pub fn null_count(&self) -> usize {
        self.validity.count_clear()
    }

    /// The typed payload.
    pub fn vector(&self) -> &ColumnVector {
        &self.vector
    }

    /// True when the payload is typed (kernels can run); false for the
    /// [`ColumnVector::Values`] fallback.
    pub fn is_typed(&self) -> bool {
        !matches!(self.vector, ColumnVector::Values(_))
    }

    /// Reconstructs the exact [`Value`] at `idx` (byte-identical to the value
    /// the column was pivoted from).
    pub fn value_at(&self, idx: usize) -> Value {
        if !self.validity.get(idx) {
            if let ColumnVector::Values(values) = &self.vector {
                return values[idx].clone();
            }
            return Value::Null;
        }
        match &self.vector {
            ColumnVector::Int(v) => Value::Int(v[idx]),
            ColumnVector::Decimal {
                units,
                scales,
                ints,
            } => {
                if ints.get(idx) {
                    Value::Int(units[idx])
                } else {
                    Value::Decimal {
                        units: units[idx],
                        scale: scales[idx],
                    }
                }
            }
            ColumnVector::Str { offsets, bytes } => {
                let s = &bytes[offsets[idx] as usize..offsets[idx + 1] as usize];
                Value::Str(String::from_utf8(s.to_vec()).expect("packed from valid UTF-8"))
            }
            ColumnVector::Date(v) => Value::Date(v[idx]),
            ColumnVector::Bool(bits) => Value::Bool(bits.get(idx)),
            ColumnVector::Tag(v) => Value::Tag(v[idx]),
            ColumnVector::Encrypted(v) => Value::Encrypted(v[idx].clone()),
            ColumnVector::EncryptedRowId(v) => Value::EncryptedRowId(v[idx].clone()),
            ColumnVector::Values(values) => values[idx].clone(),
        }
    }

    /// The string at `idx` (only valid for [`ColumnVector::Str`] elements
    /// whose validity bit is set).
    pub fn str_at(&self, idx: usize) -> Option<&str> {
        match &self.vector {
            ColumnVector::Str { offsets, bytes } if self.validity.get(idx) => {
                let s = &bytes[offsets[idx] as usize..offsets[idx + 1] as usize];
                Some(std::str::from_utf8(s).expect("packed from valid UTF-8"))
            }
            _ => None,
        }
    }

    /// Pivots back to a row-exchange [`Column`] of the given declared type.
    /// Exact inverse of [`ColumnarColumn::from_column`].
    pub fn to_column(&self, data_type: DataType) -> Column {
        let values = (0..self.len()).map(|i| self.value_at(i)).collect();
        Column::from_values_unchecked(data_type, values)
    }
}

fn extract_int(values: &[Value]) -> Option<ColumnVector> {
    let mut out = Vec::with_capacity(values.len());
    for v in values {
        match v {
            Value::Int(i) => out.push(*i),
            Value::Null => out.push(0),
            _ => return None,
        }
    }
    Some(ColumnVector::Int(out))
}

fn extract_decimal(values: &[Value]) -> Option<ColumnVector> {
    let mut units = Vec::with_capacity(values.len());
    let mut scales = Vec::with_capacity(values.len());
    let mut ints = Bitmap::new_clear(values.len());
    for (i, v) in values.iter().enumerate() {
        match v {
            Value::Decimal { units: u, scale } => {
                units.push(*u);
                scales.push(*scale);
            }
            Value::Int(u) => {
                units.push(*u);
                scales.push(0);
                ints.set(i, true);
            }
            Value::Null => {
                units.push(0);
                scales.push(0);
            }
            _ => return None,
        }
    }
    Some(ColumnVector::Decimal {
        units,
        scales,
        ints,
    })
}

fn extract_str(values: &[Value]) -> Option<ColumnVector> {
    let mut offsets = Vec::with_capacity(values.len() + 1);
    let mut bytes = Vec::new();
    offsets.push(0u32);
    for v in values {
        match v {
            Value::Str(s) => bytes.extend_from_slice(s.as_bytes()),
            Value::Null => {}
            _ => return None,
        }
        offsets.push(u32::try_from(bytes.len()).ok()?);
    }
    Some(ColumnVector::Str { offsets, bytes })
}

fn extract_date(values: &[Value]) -> Option<ColumnVector> {
    let mut out = Vec::with_capacity(values.len());
    for v in values {
        match v {
            Value::Date(d) => out.push(*d),
            Value::Null => out.push(0),
            _ => return None,
        }
    }
    Some(ColumnVector::Date(out))
}

fn extract_bool(values: &[Value]) -> Option<ColumnVector> {
    let mut bits = Bitmap::new_clear(values.len());
    for (i, v) in values.iter().enumerate() {
        match v {
            Value::Bool(b) => bits.set(i, *b),
            Value::Null => {}
            _ => return None,
        }
    }
    Some(ColumnVector::Bool(bits))
}

fn extract_tag(values: &[Value]) -> Option<ColumnVector> {
    let mut out = Vec::with_capacity(values.len());
    for v in values {
        match v {
            Value::Tag(t) => out.push(*t),
            Value::Null => out.push(0),
            _ => return None,
        }
    }
    Some(ColumnVector::Tag(out))
}

fn extract_encrypted(values: &[Value]) -> Option<ColumnVector> {
    let mut out = Vec::with_capacity(values.len());
    for v in values {
        match v {
            Value::Encrypted(e) => out.push(e.clone()),
            Value::Null => out.push(BigUint::from(0u32)),
            _ => return None,
        }
    }
    Some(ColumnVector::Encrypted(out))
}

fn extract_row_id(values: &[Value]) -> Option<ColumnVector> {
    let mut out = Vec::with_capacity(values.len());
    for v in values {
        match v {
            Value::EncryptedRowId(r) => out.push(r.clone()),
            Value::Null => out.push(EncryptedRowId(sdb_crypto::sies::SiesCiphertext {
                nonce: 0,
                body: Vec::new(),
                tag: 0,
            })),
            _ => return None,
        }
    }
    Some(ColumnVector::EncryptedRowId(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data_type: DataType, values: Vec<Value>) {
        let mut column = Column::new(data_type);
        for v in values {
            column.push_unchecked(v);
        }
        let pivoted = ColumnarColumn::from_column(&column);
        assert_eq!(
            pivoted.to_column(data_type),
            column,
            "round trip must be byte-identical for {data_type:?}"
        );
        assert_eq!(
            pivoted.null_count(),
            column.values().iter().filter(|v| v.is_null()).count()
        );
    }

    #[test]
    fn int_column_roundtrip_with_nulls() {
        roundtrip(
            DataType::Int,
            vec![Value::Int(1), Value::Null, Value::Int(-7), Value::Int(0)],
        );
    }

    #[test]
    fn decimal_column_preserves_int_variants_and_mixed_scales() {
        roundtrip(
            DataType::Decimal { scale: 2 },
            vec![
                Value::Decimal {
                    units: 1299,
                    scale: 2,
                },
                Value::Int(5), // legal in a DECIMAL column; must come back as Int
                Value::Null,
                Value::Decimal { units: 7, scale: 0 }, // distinct from Int(7)
                Value::Decimal {
                    units: -31,
                    scale: 4,
                },
            ],
        );
    }

    #[test]
    fn str_column_packs_offsets() {
        roundtrip(
            DataType::Varchar,
            vec![
                Value::Str("alpha".into()),
                Value::Str(String::new()),
                Value::Null,
                Value::Str("héllo \u{1f}".into()),
            ],
        );
        let mut column = Column::new(DataType::Varchar);
        column.push_unchecked(Value::Str("ab".into()));
        column.push_unchecked(Value::Null);
        column.push_unchecked(Value::Str("cde".into()));
        let pivoted = ColumnarColumn::from_column(&column);
        assert_eq!(pivoted.str_at(0), Some("ab"));
        assert_eq!(pivoted.str_at(1), None);
        assert_eq!(pivoted.str_at(2), Some("cde"));
    }

    #[test]
    fn remaining_types_roundtrip() {
        roundtrip(DataType::Date, vec![Value::Date(19_000), Value::Null]);
        roundtrip(
            DataType::Bool,
            vec![Value::Bool(true), Value::Bool(false), Value::Null],
        );
        roundtrip(DataType::Tag, vec![Value::Tag(u64::MAX), Value::Null]);
        roundtrip(
            DataType::Encrypted,
            vec![Value::Encrypted(BigUint::from(1u8) << 200u32), Value::Null],
        );
        roundtrip(
            DataType::EncryptedRowId,
            vec![
                Value::EncryptedRowId(EncryptedRowId(sdb_crypto::sies::SiesCiphertext {
                    nonce: 7,
                    body: vec![1, 2, 3],
                    tag: 9,
                })),
                Value::Null,
            ],
        );
    }

    #[test]
    fn heterogeneous_column_falls_back_to_values() {
        let mut column = Column::new(DataType::Int);
        column.push_unchecked(Value::Int(1));
        column.push_unchecked(Value::Str("two".into()));
        column.push_unchecked(Value::Null);
        let pivoted = ColumnarColumn::from_column(&column);
        assert!(!pivoted.is_typed());
        assert_eq!(pivoted.to_column(DataType::Int), column);
    }

    #[test]
    fn empty_column_roundtrip() {
        roundtrip(DataType::Int, vec![]);
        roundtrip(DataType::Varchar, vec![]);
    }

    #[test]
    fn word_boundary_lengths_roundtrip() {
        for len in [64usize, 65, 63, 128] {
            let values: Vec<Value> = (0..len)
                .map(|i| {
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i as i64)
                    }
                })
                .collect();
            roundtrip(DataType::Int, values);
        }
    }
}
