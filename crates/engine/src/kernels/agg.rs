//! Columnar aggregation kernels for global (no `GROUP BY`) aggregates.
//!
//! The scalar path materialises every aggregate argument as a per-row
//! [`Value`] inside a group state, then folds the vector in
//! `compute_aggregate`. For a global aggregate whose arguments are plain
//! column references, [`GlobalAggKernel`] skips both steps: it pivots each
//! argument column once and folds the typed vector directly — COUNT is a
//! validity popcount, SUM/AVG accumulate scaled `i128` units, MIN/MAX track a
//! best *index* so the reconstructed value is the exact [`Value`] variant the
//! scalar fold would keep (including its tie-breaking: `min_by` keeps the
//! first minimum, `max_by` the last maximum — visible when numerically equal
//! decimals differ in representation).
//!
//! Every fold mirrors `compute_aggregate` bit for bit, including the wrapping
//! `as i64` narrowing of SUM/AVG accumulators.

use num_bigint::BigUint;
use sdb_sql::ast::Expr;
use sdb_sql::plan::{AggFunc, AggregateExpr};
use sdb_storage::{ColumnDef, ColumnVector, ColumnarColumn, DataType, RecordBatch, Schema, Value};

use crate::operators::expr::sensitivity_of;

/// One compiled aggregate: the function plus its argument column (`None` for
/// `COUNT(*)`).
#[derive(Debug, Clone)]
enum AggPlan {
    CountStar,
    Count { col: usize },
    Sum { col: usize },
    Avg { col: usize },
    Min { col: usize },
    Max { col: usize },
}

/// A full global-aggregate plan compiled against an input schema.
#[derive(Debug, Clone)]
pub struct GlobalAggKernel {
    plans: Vec<AggPlan>,
}

impl GlobalAggKernel {
    /// Compiles a global aggregation; `agg_args[i]` is the *bound* argument
    /// expression for `aggregates[i]`. Returns `None` when any aggregate
    /// falls outside the kernel subset: a non-column argument, a `DISTINCT`
    /// qualifier on SUM/AVG/COUNT (MIN/MAX ignore it, matching the scalar
    /// fold), or an argument type the scalar fold would reject.
    pub fn compile(
        aggregates: &[AggregateExpr],
        agg_args: &[Expr],
        schema: &Schema,
    ) -> Option<GlobalAggKernel> {
        let mut plans = Vec::with_capacity(aggregates.len());
        for (agg, arg) in aggregates.iter().zip(agg_args) {
            if agg.func == AggFunc::Count && agg.arg.is_none() {
                plans.push(AggPlan::CountStar);
                continue;
            }
            if agg.distinct && !matches!(agg.func, AggFunc::Min | AggFunc::Max) {
                return None;
            }
            let Expr::Column(name) = arg else {
                return None;
            };
            let col = schema.index_of(name).ok()?;
            let data_type = schema.column_at(col).data_type;
            let numeric = matches!(
                data_type,
                DataType::Int | DataType::Decimal { .. } | DataType::Date | DataType::Bool
            );
            plans.push(match agg.func {
                AggFunc::Count => AggPlan::Count { col },
                // SUM over VARCHAR/TAG/ENC_ROW_ID errors in the scalar fold;
                // those stay scalar so the error surface is identical.
                AggFunc::Sum if numeric || data_type == DataType::Encrypted => AggPlan::Sum { col },
                AggFunc::Avg if numeric => AggPlan::Avg { col },
                // MIN/MAX use the total order, defined for every type.
                AggFunc::Min => AggPlan::Min { col },
                AggFunc::Max => AggPlan::Max { col },
                _ => return None,
            });
        }
        Some(GlobalAggKernel { plans })
    }

    /// Computes the single output row over `batch`, assembling the same
    /// schema `finalize_groups` infers (aggregate value types, `Int` for
    /// all-NULL columns). Returns `None` when any argument column's runtime
    /// contents are not typed — the per-batch scalar fallback.
    pub fn execute(
        &self,
        aggregates: &[AggregateExpr],
        batch: &RecordBatch,
    ) -> Option<RecordBatch> {
        let mut pivots: Vec<Option<ColumnarColumn>> = vec![None; batch.num_columns()];
        for plan in &self.plans {
            if let Some(col) = plan_column(plan) {
                if pivots[col].is_none() {
                    let pivot = ColumnarColumn::from_column(batch.column(col));
                    if !pivot.is_typed() {
                        return None;
                    }
                    pivots[col] = Some(pivot);
                }
            }
        }

        let n = batch.num_rows();
        let mut row = Vec::with_capacity(self.plans.len());
        for plan in &self.plans {
            row.push(match plan {
                AggPlan::CountStar => Value::Int(n as i64),
                AggPlan::Count { col } => {
                    let pivot = pivots[*col].as_ref()?;
                    Value::Int(pivot.validity().count_set() as i64)
                }
                AggPlan::Sum { col } => sum_column(pivots[*col].as_ref()?)?,
                AggPlan::Avg { col } => avg_column(pivots[*col].as_ref()?)?,
                AggPlan::Min { col } => min_max_column(pivots[*col].as_ref()?, false)?,
                AggPlan::Max { col } => min_max_column(pivots[*col].as_ref()?, true)?,
            });
        }

        let defs: Vec<ColumnDef> = aggregates
            .iter()
            .zip(&row)
            .map(|(agg, value)| {
                let data_type = value.data_type().unwrap_or(DataType::Int);
                ColumnDef {
                    name: agg.name.clone(),
                    data_type,
                    sensitivity: sensitivity_of(data_type),
                }
            })
            .collect();
        RecordBatch::from_rows(Schema::new(defs), vec![row]).ok()
    }
}

fn plan_column(plan: &AggPlan) -> Option<usize> {
    match plan {
        AggPlan::CountStar => None,
        AggPlan::Count { col }
        | AggPlan::Sum { col }
        | AggPlan::Avg { col }
        | AggPlan::Min { col }
        | AggPlan::Max { col } => Some(*col),
    }
}

/// `(units, scale)` of element `i`, as `Value::as_scaled_i128` sees it.
#[inline]
fn numeric_at(col: &ColumnarColumn, i: usize) -> Option<(i128, u8)> {
    match col.vector() {
        ColumnVector::Int(v) => Some((i128::from(v[i]), 0)),
        ColumnVector::Date(v) => Some((i128::from(v[i]), 0)),
        ColumnVector::Bool(bits) => Some((i128::from(bits.get(i)), 0)),
        ColumnVector::Decimal { units, scales, .. } => Some((i128::from(units[i]), scales[i])),
        _ => None,
    }
}

/// Rescales `units` from `scale` to `target`, the mirror of
/// `Value::as_scaled_i128` (truncating division when scaling down).
#[inline]
fn rescale(units: i128, scale: u8, target: u8) -> i128 {
    match scale.cmp(&target) {
        std::cmp::Ordering::Equal => units,
        std::cmp::Ordering::Less => units * 10i128.pow(u32::from(target - scale)),
        std::cmp::Ordering::Greater => units / 10i128.pow(u32::from(scale - target)),
    }
}

/// SUM over one typed column, mirroring the scalar fold: NULL for an all-NULL
/// column, big-integer share addition for ENCRYPTED, otherwise scaled `i128`
/// accumulation at the maximum element scale with a wrapping `as i64` narrow.
fn sum_column(col: &ColumnarColumn) -> Option<Value> {
    let validity = col.validity();
    if validity.count_set() == 0 {
        return Some(Value::Null);
    }
    if let ColumnVector::Shares(shares) = col.vector() {
        // A running sum of limbs, one carry limb above the widest share.
        let mut acc = vec![0u64; shares.width() + 1];
        for i in validity.iter_set() {
            let mut carry = false;
            for (sum, &limb) in acc.iter_mut().zip(shares.row(i)) {
                let (s, c1) = sum.overflowing_add(limb);
                let (s, c2) = s.overflowing_add(u64::from(carry));
                *sum = s;
                carry = c1 | c2;
            }
            for sum in &mut acc[shares.width()..] {
                let (s, c) = sum.overflowing_add(u64::from(carry));
                *sum = s;
                carry = c;
            }
            if carry {
                acc.push(1);
            }
        }
        let bytes: Vec<u8> = acc.iter().flat_map(|limb| limb.to_le_bytes()).collect();
        return Some(Value::Encrypted(BigUint::from_bytes_le(&bytes)));
    }
    let scale = match col.vector() {
        ColumnVector::Decimal { scales, .. } => {
            validity.iter_set().map(|i| scales[i]).max().unwrap_or(0)
        }
        _ => 0,
    };
    let mut acc: i128 = 0;
    for i in validity.iter_set() {
        let (units, s) = numeric_at(col, i)?;
        acc += rescale(units, s, scale);
    }
    Some(if scale == 0 {
        Value::Int(acc as i64)
    } else {
        Value::Decimal {
            units: acc as i64,
            scale,
        }
    })
}

/// AVG over one typed numeric column: scale-4 accumulation, truncating mean.
fn avg_column(col: &ColumnarColumn) -> Option<Value> {
    let validity = col.validity();
    let count = validity.count_set();
    if count == 0 {
        return Some(Value::Null);
    }
    let mut acc: i128 = 0;
    for i in validity.iter_set() {
        let (units, s) = numeric_at(col, i)?;
        acc += rescale(units, s, 4);
    }
    Some(Value::Decimal {
        units: (acc / count as i128) as i64,
        scale: 4,
    })
}

/// MIN/MAX over one typed column via index tracking, mirroring
/// `Value::cmp_total` and the scalar fold's tie rules: MIN keeps the *first*
/// minimal element, MAX keeps the *last* maximal one.
fn min_max_column(col: &ColumnarColumn, max: bool) -> Option<Value> {
    let mut best: Option<usize> = None;
    for i in col.validity().iter_set() {
        best = Some(match best {
            None => i,
            Some(b) => {
                let ord = cmp_elements(col, i, b)?;
                let replace = if max {
                    // `max_by` keeps the last of equals.
                    ord != std::cmp::Ordering::Less
                } else {
                    // `min_by` keeps the first of equals.
                    ord == std::cmp::Ordering::Less
                };
                if replace {
                    i
                } else {
                    b
                }
            }
        });
    }
    Some(match best {
        Some(i) => col.value_at(i),
        None => Value::Null,
    })
}

/// `Value::cmp_total` over two elements of one typed column (same type class
/// by construction, so the cross-type rank fallback reduces to `Equal` for
/// encrypted row ids and never otherwise applies).
fn cmp_elements(col: &ColumnarColumn, a: usize, b: usize) -> Option<std::cmp::Ordering> {
    use std::cmp::Ordering;
    Some(match col.vector() {
        ColumnVector::Int(v) => v[a].cmp(&v[b]),
        ColumnVector::Date(v) => v[a].cmp(&v[b]),
        ColumnVector::Bool(bits) => bits.get(a).cmp(&bits.get(b)),
        ColumnVector::Decimal { units, scales, .. } => {
            let target = scales[a].max(scales[b]);
            rescale(i128::from(units[a]), scales[a], target).cmp(&rescale(
                i128::from(units[b]),
                scales[b],
                target,
            ))
        }
        ColumnVector::Str { .. } => col
            .str_at(a)
            .expect("validity-checked string element")
            .cmp(col.str_at(b).expect("validity-checked string element")),
        ColumnVector::Tag(v) => v[a].cmp(&v[b]),
        ColumnVector::Shares(shares) => shares.cmp_rows(a, b),
        // cmp_total ranks all encrypted row ids equally.
        ColumnVector::EncryptedRowId(_) => Ordering::Equal,
        ColumnVector::Values(_) => return None,
    })
}
