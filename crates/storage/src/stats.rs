//! Table and column statistics: the raw material of cost-based optimization.
//!
//! `ANALYZE` (and the client upload path) walks a [`Table`] once and records,
//! per column: the row count, the NULL count, the minimum and maximum of the
//! plain comparable values, the average encoded width, and a distinct-count
//! estimate from a small HyperLogLog-style sketch ([`HllSketch`]). The
//! resulting [`TableStats`] live in the [`crate::Catalog`] next to the table
//! itself; the engine's optimizer reads them to estimate cardinalities and to
//! order joins.
//!
//! Statistics are a *snapshot*: inserts after an analyze do not update them
//! (the optimizer treats them as estimates, never as truth), and dropping or
//! replacing a table discards its stats. Encrypted columns are counted like
//! any other, but their min/max stay `None` (shares are not comparable) and
//! their distinct estimate approaches the row count: a share is hashed by its
//! limbs and a row-id ciphertext by its bytes, and randomised encryption
//! makes every one unique — honest answers for what the SP can actually see.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use crate::shares::trimmed;
use crate::{ColumnCells, ShareColumn, Table, Value};

/// Number of HyperLogLog registers (2^8). The standard error of the estimate
/// is ~`1.04 / sqrt(256)` ≈ 6.5%, plenty for join-ordering decisions at a
/// 256-byte footprint per column.
const HLL_REGISTERS: usize = 256;

/// Register-index bits (`log2(HLL_REGISTERS)`).
const HLL_INDEX_BITS: u32 = 8;

/// A small HyperLogLog sketch estimating the number of distinct values.
///
/// Values are fed as 64-bit hashes; the top `HLL_INDEX_BITS` select a
/// register and the register keeps the maximum leading-zero rank of the
/// remaining bits. Sketches of disjoint scans [`merge`](HllSketch::merge) by
/// taking the register-wise maximum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HllSketch {
    registers: Vec<u8>,
}

impl Default for HllSketch {
    fn default() -> Self {
        HllSketch::new()
    }
}

impl HllSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        HllSketch {
            registers: vec![0; HLL_REGISTERS],
        }
    }

    /// Feeds one pre-hashed value.
    pub fn insert_hash(&mut self, hash: u64) {
        let index = (hash >> (64 - HLL_INDEX_BITS)) as usize;
        // Rank = leading zeros of the remaining bits, 1-based, capped so it
        // fits a u8 register.
        let rest = hash << HLL_INDEX_BITS;
        let rank = (rest.leading_zeros() + 1).min(64 - HLL_INDEX_BITS + 1) as u8;
        if rank > self.registers[index] {
            self.registers[index] = rank;
        }
    }

    /// Feeds one runtime value (NULLs should be skipped by the caller).
    pub fn insert_value(&mut self, value: &Value) {
        let mut hasher = DefaultHasher::new();
        hash_value(value, &mut hasher);
        self.insert_hash(hasher.finish());
    }

    /// The estimated number of distinct values fed so far.
    pub fn estimate(&self) -> f64 {
        let m = HLL_REGISTERS as f64;
        // Bias-correction constant for m = 256.
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            // Small-range correction: linear counting is more accurate here.
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// Merges another sketch (register-wise maximum): the result estimates
    /// the distinct count of the union of both inputs.
    pub fn merge(&mut self, other: &HllSketch) {
        for (mine, theirs) in self.registers.iter_mut().zip(&other.registers) {
            *mine = (*mine).max(*theirs);
        }
    }
}

/// Hashes a value for distinct counting. Numerics are normalised to a common
/// scale first so `1`, `1.0` and `1.00` count as one distinct value (matching
/// the engine's join-key canonicalisation). A share hashes its significant
/// words ([`hash_share`]) and a row-id ciphertext its bytes, so two such
/// cells count as one exactly when they are equal.
fn hash_value(value: &Value, hasher: &mut DefaultHasher) {
    match value {
        Value::Null => 0u8.hash(hasher),
        Value::Int(_) | Value::Decimal { .. } | Value::Date(_) | Value::Bool(_) => {
            1u8.hash(hasher);
            match value.as_scaled_i128(4) {
                Ok(v) => v.hash(hasher),
                Err(_) => value.render().hash(hasher),
            }
        }
        Value::Str(s) => {
            2u8.hash(hasher);
            s.hash(hasher);
        }
        Value::Tag(t) => {
            3u8.hash(hasher);
            t.hash(hasher);
        }
        Value::Encrypted(share) => hash_share(share.iter_u64_digits(), hasher),
        Value::EncryptedRowId(id) => {
            5u8.hash(hasher);
            id.hash(hasher);
        }
    }
}

/// Hashes a share given by its significant little-endian words (no zero
/// high word): the same share hashes the same whether a [`ShareColumn`]
/// row of any width or a [`Value::Encrypted`] holds it.
fn hash_share(words: impl Iterator<Item = u64>, hasher: &mut DefaultHasher) {
    4u8.hash(hasher);
    for word in words {
        hasher.write_u64(word);
    }
}

/// Statistics for one column of an analyzed table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnStats {
    /// Column name (unqualified, as stored in the table schema).
    pub name: String,
    /// Number of NULL values.
    pub null_count: usize,
    /// Estimated number of distinct non-NULL values.
    pub distinct: f64,
    /// Minimum non-NULL value, for plain comparable types only.
    pub min: Option<Value>,
    /// Maximum non-NULL value, for plain comparable types only.
    pub max: Option<Value>,
    /// Average approximate width of a value in bytes.
    pub avg_width: f64,
}

impl ColumnStats {
    /// Fraction of rows that are NULL in this column.
    pub fn null_fraction(&self, row_count: usize) -> f64 {
        if row_count == 0 {
            0.0
        } else {
            self.null_count as f64 / row_count as f64
        }
    }
}

/// Statistics for one analyzed table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    /// Table name (lower-cased, as registered in the catalog).
    pub table: String,
    /// Number of rows at analyze time.
    pub row_count: usize,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Looks up a column's statistics by (unqualified, case-insensitive)
    /// name.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Estimated average row width in bytes.
    pub fn avg_row_width(&self) -> f64 {
        self.columns.iter().map(|c| c.avg_width).sum()
    }
}

/// True for the types whose values the planner may meaningfully compare (and
/// therefore record min/max for).
fn comparable(value: &Value) -> bool {
    matches!(
        value,
        Value::Int(_) | Value::Decimal { .. } | Value::Str(_) | Value::Date(_) | Value::Bool(_)
    )
}

/// Analyzes a table in one pass: row count plus per-column NULL counts,
/// min/max over plain comparable values, average widths and an
/// [`HllSketch`]-based distinct estimate. A column of shares is read from its
/// limbs: validity for the NULLs, [`ShareColumn::approx_size`] for the width
/// and a hash of each row's significant words for the sketch, the one its
/// [`Value::Encrypted`] gets.
pub fn analyze_table(table: &Table) -> TableStats {
    let rows = table.num_rows();
    let columns = table
        .schema()
        .columns()
        .iter()
        .map(|def| {
            let column = table
                .column(&def.name)
                .expect("schema columns exist by construction");
            let tally = match column.cells() {
                ColumnCells::Values(values) => Tally::of_values(values),
                ColumnCells::Shares(shares) => Tally::of_shares(shares),
            };
            tally.finish(&def.name, rows)
        })
        .collect();
    TableStats {
        table: table.name().to_string(),
        row_count: rows,
        columns,
    }
}

/// What one pass over a column's cells counts.
#[derive(Default)]
struct Tally {
    null_count: usize,
    width: usize,
    sketch: HllSketch,
    min: Option<Value>,
    max: Option<Value>,
}

impl Tally {
    fn of_values(values: &[Value]) -> Tally {
        let mut tally = Tally::default();
        for value in values {
            tally.width += value.approx_size();
            if value.is_null() {
                tally.null_count += 1;
                continue;
            }
            tally.sketch.insert_value(value);
            if comparable(value) {
                let smaller = (tally.min.as_ref())
                    .map(|m| value.cmp_total(m) == std::cmp::Ordering::Less)
                    .unwrap_or(true);
                if smaller {
                    tally.min = Some(value.clone());
                }
                let bigger = (tally.max.as_ref())
                    .map(|m| value.cmp_total(m) == std::cmp::Ordering::Greater)
                    .unwrap_or(true);
                if bigger {
                    tally.max = Some(value.clone());
                }
            }
        }
        tally
    }

    /// Shares have no min or max: they are not comparable.
    fn of_shares(shares: &ShareColumn) -> Tally {
        let mut tally = Tally::default();
        for row in 0..shares.len() {
            tally.width += shares.approx_size(row);
            if !shares.is_valid(row) {
                tally.null_count += 1;
                continue;
            }
            let mut hasher = DefaultHasher::new();
            hash_share(trimmed(shares.row(row)).iter().copied(), &mut hasher);
            tally.sketch.insert_hash(hasher.finish());
        }
        tally
    }

    /// The statistics of the column `name` of a table of `rows` rows.
    fn finish(self, name: &str, rows: usize) -> ColumnStats {
        let non_null = rows - self.null_count;
        ColumnStats {
            name: name.to_string(),
            null_count: self.null_count,
            // The sketch cannot report more distinct values than were fed.
            distinct: self.sketch.estimate().min(non_null as f64),
            min: self.min,
            max: self.max,
            avg_width: if rows == 0 {
                0.0
            } else {
                self.width as f64 / rows as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnDef, DataType, Schema};

    #[test]
    fn hll_is_exactish_for_small_cardinalities() {
        let mut sketch = HllSketch::new();
        for i in 0..50 {
            sketch.insert_value(&Value::Int(i));
            sketch.insert_value(&Value::Int(i)); // duplicates are free
        }
        let est = sketch.estimate();
        assert!(
            (est - 50.0).abs() / 50.0 < 0.10,
            "linear-counting range should be close, got {est}"
        );
    }

    #[test]
    fn hll_error_stays_within_bounds_at_larger_cardinalities() {
        // Standard error for 256 registers is ~6.5%; assert a generous 3-sigma
        // bound so the test is deterministic-hash-stable, not flaky.
        for &n in &[1_000usize, 10_000, 50_000] {
            let mut sketch = HllSketch::new();
            for i in 0..n {
                sketch.insert_value(&Value::Str(format!("value-{i}")));
            }
            let est = sketch.estimate();
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.20, "estimate {est} for {n} distinct (err {err:.3})");
        }
    }

    #[test]
    fn hll_merge_estimates_the_union() {
        let mut a = HllSketch::new();
        let mut b = HllSketch::new();
        for i in 0..2_000 {
            a.insert_value(&Value::Int(i));
            b.insert_value(&Value::Int(i + 1_000)); // half overlaps
        }
        a.merge(&b);
        let est = a.estimate();
        let err = (est - 3_000.0).abs() / 3_000.0;
        assert!(err < 0.20, "union estimate {est} (err {err:.3})");
    }

    #[test]
    fn numeric_normalisation_dedupes_across_scales() {
        let mut sketch = HllSketch::new();
        sketch.insert_value(&Value::Int(1));
        sketch.insert_value(&Value::Decimal {
            units: 100,
            scale: 2,
        });
        assert!(sketch.estimate() < 1.5, "1 and 1.00 are one distinct value");
    }

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::public("grp", DataType::Int),
            ColumnDef::public("name", DataType::Varchar),
        ]);
        let mut t = Table::new("s", schema);
        for i in 0..100i64 {
            let name = if i % 10 == 0 {
                Value::Null
            } else {
                Value::Str(format!("n{}", i % 7))
            };
            t.insert_row(vec![Value::Int(i), Value::Int(i % 4), name])
                .unwrap();
        }
        t
    }

    #[test]
    fn analyze_collects_counts_bounds_and_distincts() {
        let stats = analyze_table(&sample_table());
        assert_eq!(stats.row_count, 100);
        assert_eq!(stats.columns.len(), 3);

        let id = stats.column("id").unwrap();
        assert_eq!(id.null_count, 0);
        assert_eq!(id.min, Some(Value::Int(0)));
        assert_eq!(id.max, Some(Value::Int(99)));
        assert!((id.distinct - 100.0).abs() < 10.0, "{}", id.distinct);

        let grp = stats.column("grp").unwrap();
        assert!((grp.distinct - 4.0).abs() < 1.0, "{}", grp.distinct);

        let name = stats.column("name").unwrap();
        assert_eq!(name.null_count, 10);
        assert!((name.null_fraction(100) - 0.1).abs() < 1e-9);
        assert!((name.distinct - 7.0).abs() < 1.5, "{}", name.distinct);
        assert!(name.avg_width > 0.0);
        assert!(stats.avg_row_width() > 0.0);
    }

    #[test]
    fn analyze_of_empty_table_is_all_zeroes() {
        let schema = Schema::new(vec![ColumnDef::public("a", DataType::Int)]);
        let stats = analyze_table(&Table::new("e", schema));
        assert_eq!(stats.row_count, 0);
        let a = stats.column("a").unwrap();
        assert_eq!(a.null_count, 0);
        assert_eq!(a.distinct, 0.0);
        assert!(a.min.is_none() && a.max.is_none());
    }

    #[test]
    fn distinct_estimate_never_exceeds_fed_rows() {
        let schema = Schema::new(vec![ColumnDef::public("a", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for i in 0..3 {
            t.insert_row(vec![Value::Int(i)]).unwrap();
        }
        let stats = analyze_table(&t);
        assert!(stats.column("a").unwrap().distinct <= 3.0);
    }

    /// `limbs` as the share they are.
    fn share(limbs: &[u64]) -> Value {
        Value::Encrypted(crate::shares::biguint_of(limbs))
    }

    /// The hash a cell feeds the sketch.
    fn hash_of(value: &Value) -> u64 {
        let mut hasher = DefaultHasher::new();
        hash_value(value, &mut hasher);
        hasher.finish()
    }

    /// A column of shares counts as the same cells held as values: NULLs,
    /// width and distinct estimate (with repeats) agree, and neither has a
    /// min or max.
    #[test]
    fn share_columns_count_as_their_values() {
        let values: Vec<Value> = (0..300u64)
            .map(|i| match i % 7 {
                0 => Value::Null,
                _ => {
                    let k = i % 50;
                    share(&[k * 0x9e37_79b9, k % 3, (k % 5 == 1) as u64, 0])
                }
            })
            .chain([share(&[]), Value::Null])
            .collect();
        let shares = ShareColumn::from_values(&values).unwrap();
        assert_eq!(shares.width(), 3);
        let from_limbs = Tally::of_shares(&shares).finish("s", values.len());
        let from_values = Tally::of_values(&values).finish("s", values.len());
        assert_eq!(from_limbs, from_values);
        assert_eq!(from_limbs.null_count, 44);
        assert!(from_limbs.min.is_none() && from_limbs.max.is_none());
        // 50 shares repeated six times (some NULLed) and the zero share.
        let err = (from_limbs.distinct - 51.0).abs() / 51.0;
        assert!(err < 0.10, "distinct {}", from_limbs.distinct);

        let table_stats = analyze_table(&{
            let schema = Schema::new(vec![ColumnDef::sensitive("s", DataType::Encrypted)]);
            let mut table = Table::new("t", schema);
            for value in &values {
                table.insert_row(vec![value.clone()]).unwrap();
            }
            assert!(table.column("s").unwrap().shares().is_some());
            table
        });
        assert_eq!(table_stats.columns[0], from_values);
    }

    /// Row-id ciphertexts hash their bytes: distinct ones count apart.
    #[test]
    fn row_id_ciphertexts_count_apart() {
        use sdb_crypto::sies::SiesCiphertext;
        use sdb_crypto::EncryptedRowId;
        let values: Vec<Value> = (0..1_000u64)
            .map(|i| {
                Value::EncryptedRowId(EncryptedRowId(SiesCiphertext {
                    nonce: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    body: vec![i as u8; 9],
                    tag: i,
                }))
            })
            .collect();
        let stats = Tally::of_values(&values).finish("row_id", values.len());
        let err = (stats.distinct - 1_000.0).abs() / 1_000.0;
        assert!(err < 0.20, "estimate {} (err {err:.3})", stats.distinct);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A share hashes its significant words: the same at any stored limb
        /// width, and the same as its `Value::Encrypted`.
        #[test]
        fn a_share_hashes_the_same_at_any_width(
            limbs in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..9),
            padding in 0usize..4,
        ) {
            let expected = hash_of(&share(&limbs));
            let width = limbs.len() + padding;
            let mut words = limbs.clone();
            words.resize(width, 0);
            let column = ShareColumn::from_parts(width, words, crate::Bitmap::new_set(1));
            let mut hasher = DefaultHasher::new();
            hash_share(trimmed(column.row(0)).iter().copied(), &mut hasher);
            proptest::prop_assert_eq!(hasher.finish(), expected);
            let tally = Tally::of_shares(&column);
            let mut sketch = HllSketch::new();
            sketch.insert_hash(expected);
            proptest::prop_assert_eq!(tally.sketch, sketch);
        }
    }

    #[test]
    fn stats_serde_roundtrip() {
        let stats = analyze_table(&sample_table());
        let json = serde_json::to_string(&stats).unwrap();
        let back: TableStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }
}
