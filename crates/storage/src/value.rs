//! Runtime values and their data types.
//!
//! Plain (insensitive) values use ordinary SQL types. Sensitive data appears in one
//! of three encrypted forms, mirroring what the SP stores in the paper:
//!
//! * [`Value::Encrypted`] — a secret share `v_e ∈ Z_n` (paper Eq. 3);
//! * [`Value::EncryptedRowId`] — a row id under the conventional row-id cipher;
//! * [`Value::Tag`] — a keyed deterministic equality tag (sensitive VARCHARs).

use std::cmp::Ordering;
use std::fmt;

use num_bigint::BigUint;
use sdb_crypto::EncryptedRowId;
use serde::{Deserialize, Serialize};

use crate::{Result, StorageError};

/// Logical data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// Fixed-point decimal stored as a scaled 64-bit integer; `scale` is the number
    /// of digits after the decimal point (TPC-H uses 2).
    Decimal {
        /// Digits after the decimal point.
        scale: u8,
    },
    /// UTF-8 string.
    Varchar,
    /// Date as days since 1970-01-01.
    Date,
    /// Boolean.
    Bool,
    /// An SDB secret share (residue modulo the public `n`).
    Encrypted,
    /// An encrypted row id.
    EncryptedRowId,
    /// A deterministic equality tag.
    Tag,
}

impl DataType {
    /// True for the three encrypted representations.
    pub fn is_encrypted(&self) -> bool {
        matches!(
            self,
            DataType::Encrypted | DataType::EncryptedRowId | DataType::Tag
        )
    }

    /// True for types the plaintext expression evaluator can do arithmetic on.
    pub fn is_numeric(&self) -> bool {
        matches!(self, DataType::Int | DataType::Decimal { .. })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Decimal { scale } => write!(f, "DECIMAL({scale})"),
            DataType::Varchar => write!(f, "VARCHAR"),
            DataType::Date => write!(f, "DATE"),
            DataType::Bool => write!(f, "BOOL"),
            DataType::Encrypted => write!(f, "ENCRYPTED"),
            DataType::EncryptedRowId => write!(f, "ENC_ROW_ID"),
            DataType::Tag => write!(f, "TAG"),
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Fixed-point decimal: the scaled integer representation. The scale lives in
    /// the column's [`DataType::Decimal`]; a standalone literal carries its scale.
    Decimal {
        /// Scaled integer units (e.g. cents for scale 2).
        units: i64,
        /// Digits after the decimal point.
        scale: u8,
    },
    /// UTF-8 string.
    Str(String),
    /// Days since the Unix epoch.
    Date(i32),
    /// Boolean.
    Bool(bool),
    /// SDB secret share (base64 bytes on the wire, see [`sdb_crypto::wire`]).
    Encrypted(#[serde(with = "sdb_crypto::wire::share")] BigUint),
    /// Encrypted row id.
    EncryptedRowId(EncryptedRowId),
    /// Deterministic equality tag.
    Tag(u64),
}

impl Value {
    /// The value's runtime data type, or `None` for NULL (which is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Decimal { scale, .. } => Some(DataType::Decimal { scale: *scale }),
            Value::Str(_) => Some(DataType::Varchar),
            Value::Date(_) => Some(DataType::Date),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Encrypted(_) => Some(DataType::Encrypted),
            Value::EncryptedRowId(_) => Some(DataType::EncryptedRowId),
            Value::Tag(_) => Some(DataType::Tag),
        }
    }

    /// True if the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True if the value is stored in one of the encrypted representations.
    pub fn is_encrypted(&self) -> bool {
        self.data_type().map(|t| t.is_encrypted()).unwrap_or(false)
    }

    /// Checks that the value may be stored in a column of type `expected`.
    /// NULL is storable in any column.
    pub fn check_type(&self, expected: DataType) -> Result<()> {
        match (self.data_type(), expected) {
            (None, _) => Ok(()),
            (Some(DataType::Int), DataType::Decimal { .. }) => Ok(()),
            (Some(actual), exp) if actual == exp => Ok(()),
            (Some(actual), exp) => Err(StorageError::TypeMismatch {
                expected: exp.to_string(),
                found: actual.to_string(),
            }),
        }
    }

    /// Extracts an `i64`, widening decimals to their scaled units.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Decimal { units, .. } => Ok(*units),
            Value::Date(d) => Ok(i64::from(*d)),
            Value::Bool(b) => Ok(i64::from(*b)),
            other => Err(StorageError::TypeMismatch {
                expected: "numeric".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Extracts the numeric value as an `i128` in *common units* for the given
    /// target scale: integers and decimals are rescaled so that arithmetic across
    /// `INT` and `DECIMAL(s)` is exact.
    pub fn as_scaled_i128(&self, target_scale: u8) -> Result<i128> {
        let (units, scale) = match self {
            Value::Int(v) => (i128::from(*v), 0u8),
            Value::Decimal { units, scale } => (i128::from(*units), *scale),
            Value::Date(d) => (i128::from(*d), 0u8),
            Value::Bool(b) => (i128::from(*b), 0u8),
            other => {
                return Err(StorageError::TypeMismatch {
                    expected: "numeric".into(),
                    found: format!("{other:?}"),
                })
            }
        };
        let diff = i32::from(target_scale) - i32::from(scale);
        Ok(match diff.cmp(&0) {
            Ordering::Equal => units,
            Ordering::Greater => units * 10i128.pow(diff as u32),
            Ordering::Less => units / 10i128.pow((-diff) as u32),
        })
    }

    /// Extracts a string reference.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(StorageError::TypeMismatch {
                expected: "VARCHAR".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(StorageError::TypeMismatch {
                expected: "BOOL".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Extracts an encrypted share.
    pub fn as_encrypted(&self) -> Result<&BigUint> {
        match self {
            Value::Encrypted(e) => Ok(e),
            other => Err(StorageError::TypeMismatch {
                expected: "ENCRYPTED".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Extracts an encrypted row id.
    pub fn as_encrypted_row_id(&self) -> Result<&EncryptedRowId> {
        match self {
            Value::EncryptedRowId(r) => Ok(r),
            other => Err(StorageError::TypeMismatch {
                expected: "ENC_ROW_ID".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Builds a decimal from a float-like pair (integer part, hundredths) — used by
    /// the workload generator. Prefer [`Value::decimal_from_units`] where exactness
    /// matters.
    pub fn decimal_from_units(units: i64, scale: u8) -> Value {
        Value::Decimal { units, scale }
    }

    /// Rough serialised size in bytes, used for storage accounting and the
    /// memory-budget bookkeeping of the spilling operators.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Decimal { .. } => 9,
            Value::Str(s) => s.len() + 4,
            Value::Date(_) => 4,
            Value::Bool(_) => 1,
            Value::Encrypted(e) => (e.bits() as usize).div_ceil(8) + 4,
            Value::EncryptedRowId(r) => r.size_bytes(),
            Value::Tag(_) => 8,
        }
    }

    /// Renders the value the way the CLI / examples print result rows.
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(v) => v.to_string(),
            Value::Decimal { units, scale } => {
                if *scale == 0 {
                    units.to_string()
                } else {
                    let divisor = 10i64.pow(u32::from(*scale));
                    let sign = if *units < 0 { "-" } else { "" };
                    let abs = units.unsigned_abs();
                    let int_part = abs / divisor.unsigned_abs();
                    let frac = abs % divisor.unsigned_abs();
                    format!(
                        "{sign}{int_part}.{frac:0width$}",
                        width = usize::from(*scale)
                    )
                }
            }
            Value::Str(s) => s.clone(),
            Value::Date(d) => format!("date#{d}"),
            Value::Bool(b) => b.to_string(),
            Value::Encrypted(e) => format!(
                "ENC[{}…]",
                e.to_string().chars().take(12).collect::<String>()
            ),
            Value::EncryptedRowId(_) => "ENC_ROW_ID[…]".to_string(),
            Value::Tag(t) => format!("TAG[{t:x}]"),
        }
    }

    /// Total-order comparison used by ORDER BY and MIN/MAX over *plaintext* values.
    /// NULLs sort first; cross-type comparisons fall back to a stable type ordering.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (
                Int(_) | Decimal { .. } | Date(_) | Bool(_),
                Int(_) | Decimal { .. } | Date(_) | Bool(_),
            ) => {
                let scale = self.numeric_scale().max(other.numeric_scale());
                let a = self.as_scaled_i128(scale).unwrap_or(i128::MIN);
                let b = other.as_scaled_i128(scale).unwrap_or(i128::MIN);
                a.cmp(&b)
            }
            (Str(a), Str(b)) => a.cmp(b),
            (Encrypted(a), Encrypted(b)) => a.cmp(b),
            (Tag(a), Tag(b)) => a.cmp(b),
            // Stable but arbitrary cross-type order.
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    fn numeric_scale(&self) -> u8 {
        match self {
            Value::Decimal { scale, .. } => *scale,
            _ => 0,
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Decimal { .. } => 3,
            Value::Date(_) => 4,
            Value::Str(_) => 5,
            Value::Tag(_) => 6,
            Value::Encrypted(_) => 7,
            Value::EncryptedRowId(_) => 8,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_types_classified() {
        assert!(DataType::Encrypted.is_encrypted());
        assert!(DataType::Tag.is_encrypted());
        assert!(!DataType::Int.is_encrypted());
        assert!(DataType::Int.is_numeric());
        assert!(DataType::Decimal { scale: 2 }.is_numeric());
        assert!(!DataType::Varchar.is_numeric());
    }

    #[test]
    fn check_type_accepts_null_and_int_into_decimal() {
        assert!(Value::Null.check_type(DataType::Varchar).is_ok());
        assert!(Value::Int(5)
            .check_type(DataType::Decimal { scale: 2 })
            .is_ok());
        assert!(Value::Int(5).check_type(DataType::Int).is_ok());
        assert!(Value::Str("x".into()).check_type(DataType::Int).is_err());
    }

    #[test]
    fn scaled_arithmetic_bridges_int_and_decimal() {
        let price = Value::Decimal {
            units: 1299,
            scale: 2,
        }; // 12.99
        let qty = Value::Int(3);
        assert_eq!(price.as_scaled_i128(2).unwrap(), 1299);
        assert_eq!(qty.as_scaled_i128(2).unwrap(), 300);
        assert_eq!(price.as_scaled_i128(0).unwrap(), 12);
    }

    #[test]
    fn render_decimal() {
        assert_eq!(
            Value::Decimal {
                units: 1299,
                scale: 2
            }
            .render(),
            "12.99"
        );
        assert_eq!(
            Value::Decimal {
                units: -1299,
                scale: 2
            }
            .render(),
            "-12.99"
        );
        assert_eq!(Value::Decimal { units: 5, scale: 2 }.render(), "0.05");
        assert_eq!(Value::Decimal { units: 7, scale: 0 }.render(), "7");
    }

    #[test]
    fn total_order_handles_nulls_and_mixed_numerics() {
        let mut vals = [
            Value::Int(3),
            Value::Null,
            Value::Decimal {
                units: 250,
                scale: 2,
            }, // 2.50
            Value::Int(-1),
        ];
        vals.sort_by(|a, b| a.cmp_total(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(-1));
        assert_eq!(
            vals[2],
            Value::Decimal {
                units: 250,
                scale: 2
            }
        );
        assert_eq!(vals[3], Value::Int(3));
    }

    #[test]
    fn string_ordering() {
        assert_eq!(
            Value::Str("apple".into()).cmp_total(&Value::Str("banana".into())),
            Ordering::Less
        );
    }

    #[test]
    fn encrypted_accessors() {
        let v = Value::Encrypted(BigUint::from(99u32));
        assert!(v.is_encrypted());
        assert_eq!(v.as_encrypted().unwrap(), &BigUint::from(99u32));
        assert!(Value::Int(1).as_encrypted().is_err());
    }

    #[test]
    fn value_serde_roundtrip() {
        let vals = vec![
            Value::Null,
            Value::Int(-7),
            Value::Decimal {
                units: 12345,
                scale: 2,
            },
            Value::Str("hello".into()),
            Value::Date(19000),
            Value::Bool(true),
            Value::Encrypted(BigUint::from(123456789u64)),
            Value::Tag(0xdeadbeef),
        ];
        let json = serde_json::to_string(&vals).unwrap();
        let back: Vec<Value> = serde_json::from_str(&json).unwrap();
        assert_eq!(vals, back);
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
