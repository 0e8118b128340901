//! Expression-tree helpers shared by the physical operators: schema binding,
//! conjunct splitting, join-key canonicalisation and output-type inference.

use sdb_sql::ast::{BinaryOp, Expr};
use sdb_storage::{Column, ColumnDef, DataType, RecordBatch, Schema, Sensitivity, Value};

use crate::Result;

/// Replaces every subexpression whose rendered text names an existing input
/// column with a reference to that column.
///
/// This is how projections and sort keys above an aggregate re-use the
/// aggregate's group-expression outputs (whose column names are the rendered
/// expressions, e.g. `YEAR(o.o_orderdate)` or an `SDB_GROUP_TAG(…)` call), and
/// how expressions pick up the virtual columns materialised by the oracle
/// operator, instead of being re-evaluated against a schema that no longer
/// carries the original inputs.
pub fn bind_to_existing_columns(expr: &Expr, schema: &Schema) -> Expr {
    if !matches!(expr, Expr::Column(_) | Expr::Literal(_))
        && schema.index_of(&expr.to_string()).is_ok()
    {
        return Expr::Column(expr.to_string());
    }
    match expr {
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(bind_to_existing_columns(expr, schema)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(bind_to_existing_columns(left, schema)),
            op: *op,
            right: Box::new(bind_to_existing_columns(right, schema)),
        },
        Expr::Function {
            name,
            args,
            distinct,
            wildcard,
        } => Expr::Function {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| bind_to_existing_columns(a, schema))
                .collect(),
            distinct: *distinct,
            wildcard: *wildcard,
        },
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => Expr::Case {
            operand: operand
                .as_ref()
                .map(|o| Box::new(bind_to_existing_columns(o, schema))),
            branches: branches
                .iter()
                .map(|(w, t)| {
                    (
                        bind_to_existing_columns(w, schema),
                        bind_to_existing_columns(t, schema),
                    )
                })
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|e| Box::new(bind_to_existing_columns(e, schema))),
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(bind_to_existing_columns(expr, schema)),
            low: Box::new(bind_to_existing_columns(low, schema)),
            high: Box::new(bind_to_existing_columns(high, schema)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(bind_to_existing_columns(expr, schema)),
            list: list
                .iter()
                .map(|e| bind_to_existing_columns(e, schema))
                .collect(),
            negated: *negated,
        },
        other => other.clone(),
    }
}

/// Splits an AND-tree into its conjuncts.
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// Re-joins conjuncts into an AND-tree (inverse of [`split_conjuncts`]).
/// Returns `None` for an empty list.
pub fn conjoin(conjuncts: Vec<Expr>) -> Option<Expr> {
    conjuncts
        .into_iter()
        .reduce(|a, b| Expr::binary(a, BinaryOp::And, b))
}

/// If `conjunct` is `left_side_expr = right_side_expr` (in either order),
/// returns the pair oriented as (left-side key, right-side key). `left` and
/// `right` are name-resolution schemas of the two join inputs.
pub fn classify_equi_conjunct(
    conjunct: &Expr,
    left: &Schema,
    right: &Schema,
) -> Option<(Expr, Expr)> {
    let Expr::Binary {
        left: a,
        op: BinaryOp::Eq,
        right: b,
    } = conjunct
    else {
        return None;
    };
    let side = |e: &Expr| -> Option<bool> {
        // true = resolves entirely against the left schema, false = right.
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        if cols.is_empty() {
            return None;
        }
        if cols.iter().all(|c| left.index_of(c).is_ok()) {
            Some(true)
        } else if cols.iter().all(|c| right.index_of(c).is_ok()) {
            Some(false)
        } else {
            None
        }
    };
    match (side(a), side(b)) {
        (Some(true), Some(false)) => Some((a.as_ref().clone(), b.as_ref().clone())),
        (Some(false), Some(true)) => Some((b.as_ref().clone(), a.as_ref().clone())),
        _ => None,
    }
}

/// Canonical string form of a value used as a join / grouping / distinct key.
/// Numerics are normalised so `1`, `1.0` and `1.00` agree.
pub fn join_key_component(v: &Value) -> String {
    match v {
        Value::Null => "\u{0}NULL".to_string(),
        Value::Int(_) | Value::Decimal { .. } | Value::Date(_) | Value::Bool(_) => v
            .as_scaled_i128(4)
            .map(|x| format!("n{x}"))
            .unwrap_or_else(|_| v.render()),
        Value::Str(s) => format!("s{s}"),
        Value::Tag(t) => format!("t{t}"),
        Value::Encrypted(e) => format!("e{e}"),
        Value::EncryptedRowId(_) => format!("r{:?}", v),
    }
}

/// The string payload of a literal expression, if it is one.
pub fn literal_string(expr: &Expr) -> Option<String> {
    match expr {
        Expr::Literal(sdb_sql::ast::Literal::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Appends a virtual column (e.g. a resolved oracle call) to a batch.
pub fn append_virtual_column(
    batch: &RecordBatch,
    def: ColumnDef,
    values: Vec<Value>,
) -> Result<RecordBatch> {
    let mut defs = batch.schema().columns().to_vec();
    defs.push(def.clone());
    let mut columns = batch.columns().to_vec();
    // Virtual columns may mix NULLs with typed values; unchecked since the
    // values come from the oracle response mapping.
    columns.push(Column::from_values_unchecked(def.data_type, values));
    RecordBatch::new(Schema::new(defs), columns).map_err(Into::into)
}

/// Infers the output column definition for a computed column from its
/// expression and produced values.
pub fn infer_column_def(name: &str, expr: &Expr, values: &[Value], input: &Schema) -> ColumnDef {
    // A bare column reference keeps its input definition (type and sensitivity).
    if let Expr::Column(col) = expr {
        if let Ok(idx) = input.index_of(col) {
            let def = input.column_at(idx);
            return ColumnDef {
                name: name.to_string(),
                data_type: def.data_type,
                sensitivity: def.sensitivity,
            };
        }
    }
    let data_type = values
        .iter()
        .find_map(|v| v.data_type())
        .unwrap_or(DataType::Int);
    ColumnDef {
        name: name.to_string(),
        data_type,
        sensitivity: sensitivity_of(data_type),
    }
}

/// Sensitivity classification for a produced column of the given type.
pub fn sensitivity_of(data_type: DataType) -> Sensitivity {
    if data_type.is_encrypted() && data_type != DataType::Tag {
        Sensitivity::Sensitive
    } else {
        Sensitivity::Public
    }
}
