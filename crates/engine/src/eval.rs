//! Row-wise expression evaluation over record batches.
//!
//! The evaluator is shared by every physical operator (filter, project, join,
//! aggregate argument evaluation, sort keys). It is deliberately interpretive —
//! the paper's SP engine is an off-the-shelf system, and nothing in the evaluation
//! claims depends on vectorisation — but it implements proper SQL semantics for the
//! supported dialect: three-valued logic, NULL propagation, mixed INT/DECIMAL
//! arithmetic, date arithmetic, LIKE, CASE, IN and (uncorrelated) subqueries.

use std::cell::{Cell, RefCell};
use std::fmt::Write;
use std::rc::Rc;
use std::sync::Arc;

use sdb_sql::ast::{BinaryOp, Expr, Literal, Query, UnaryOp};
use sdb_storage::{Column, RecordBatch, Schema, Value};

use crate::udf::{
    KeyUpdateCounts, KeyUpdateMember, KeyUpdateSets, ScalarUdf, UdfRegistry, UdfSites, KEY_UPDATE,
};
use crate::{EngineError, Result};

/// Resolves uncorrelated subqueries on behalf of the evaluator.
///
/// Implemented by the executor (which plans and runs the subquery against the same
/// catalog); kept as a trait so the evaluator stays independent of the executor.
pub trait SubqueryResolver {
    /// Runs the subquery and returns its single scalar result (one row, one column).
    fn scalar(&self, query: &Query) -> Result<Value>;
    /// Runs the subquery and returns its first column as a list of values.
    fn column(&self, query: &Query) -> Result<Vec<Value>>;
}

/// One function call of an expression, resolved on its first row: the UDF
/// instance serving it and an argument buffer whose literal slots are filled
/// once — only the `dynamic` slots are evaluated per row.
struct CallSite<'a> {
    call: &'a Expr,
    udf: Arc<dyn ScalarUdf>,
    args: RefCell<Vec<Value>>,
    dynamic: Vec<usize>,
    /// Whether the function is `SDB_KEY_UPDATE`.
    is_key_update: bool,
    /// For a member of the operator's key-update sets: the auxiliary column
    /// it raises (read from the batch directly, so not among `dynamic`) and
    /// its place in the sets.
    key_update: Option<(&'a str, KeyUpdateMember)>,
}

/// Expression evaluator bound to a batch schema.
///
/// Expressions must outlive the evaluator (`'a`): a function call is resolved
/// once and found again by the address of its node, which is only sound while
/// that node cannot be dropped or replaced.
pub struct Evaluator<'a> {
    registry: &'a UdfRegistry,
    subqueries: Option<&'a dyn SubqueryResolver>,
    /// The per-query call-site instances (`None`: a stand-alone evaluator,
    /// whose sites live and die with it).
    query_sites: Option<&'a UdfSites>,
    /// The key-update sets of the operator this evaluator works for.
    key_updates: Option<&'a KeyUpdateSets>,
    sites: RefCell<Vec<Rc<CallSite<'a>>>>,
    columns: RefCell<ResolvedColumns<'a>>,
    udf_calls: Cell<usize>,
    key_update_counts: Cell<KeyUpdateCounts>,
}

/// The column references resolved against the schema last evaluated over:
/// a name is looked up once per schema, not once per row. A reference is
/// found again by the address of its name (names live in `'a` expressions,
/// see [`Evaluator`]); holding a clone of the schema keeps its identity from
/// being reused while the indices are.
#[derive(Default)]
struct ResolvedColumns<'a> {
    schema: Option<Schema>,
    indices: Vec<(&'a str, usize)>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator using `registry` for function calls.
    pub fn new(registry: &'a UdfRegistry) -> Self {
        Evaluator {
            registry,
            subqueries: None,
            query_sites: None,
            key_updates: None,
            sites: RefCell::new(Vec::new()),
            columns: RefCell::default(),
            udf_calls: Cell::new(0),
            key_update_counts: Cell::default(),
        }
    }

    /// Attaches a subquery resolver.
    pub fn with_subqueries(mut self, resolver: &'a dyn SubqueryResolver) -> Self {
        self.subqueries = Some(resolver);
        self
    }

    /// Shares the query's call-site instances, so a site's constants are bound
    /// once per query rather than once per evaluator.
    pub(crate) fn with_query_sites(mut self, sites: &'a UdfSites) -> Self {
        self.query_sites = Some(sites);
        self
    }

    /// Serves the `SDB_KEY_UPDATE` sites `sets` was planned from out of the
    /// powers it raises once per row instead of one exponentiation per call.
    /// The caller evaluates row by row: every expression of a row before the
    /// next row's.
    pub(crate) fn with_key_updates(mut self, sets: &'a KeyUpdateSets) -> Self {
        self.key_updates = Some(sets);
        self
    }

    /// Resolves the function call at node `call`, once per evaluator.
    fn call_site(&self, call: &'a Expr, name: &str, args: &'a [Expr]) -> Result<Rc<CallSite<'a>>> {
        if let Some(site) = self
            .sites
            .borrow()
            .iter()
            .find(|site| std::ptr::eq(site.call, call))
        {
            return Ok(Rc::clone(site));
        }
        if sdb_sql::ast::is_aggregate_name(name) {
            return Err(EngineError::Expression {
                detail: format!("aggregate {name} outside of GROUP BY context"),
            });
        }
        let key_update = self.key_updates.and_then(|sets| sets.member(name, args));
        let mut values = vec![Value::Null; args.len()];
        let mut dynamic = Vec::new();
        // What tells this site from the query's others: name and literals.
        let mut signature = String::from(name);
        for (i, arg) in args.iter().enumerate() {
            match arg {
                Expr::Literal(literal) => {
                    values[i] = literal_to_value(literal);
                    let _ = write!(signature, "\u{1f}{i}={literal}");
                }
                _ if i == 1 && key_update.is_some() => {}
                _ => dynamic.push(i),
            }
        }
        let udf = match self.query_sites {
            Some(sites) => sites.resolve(self.registry, name, signature)?,
            None => self.registry.site(name)?,
        };
        let site = Rc::new(CallSite {
            call,
            udf,
            args: RefCell::new(values),
            dynamic,
            is_key_update: name.eq_ignore_ascii_case(KEY_UPDATE),
            key_update,
        });
        self.sites.borrow_mut().push(Rc::clone(&site));
        Ok(site)
    }

    /// The column of `batch` that `name` refers to. A failed resolution is
    /// not remembered: it fails the same way on every row it is asked for.
    fn column<'b>(&self, name: &'a str, batch: &'b RecordBatch) -> Result<&'b Column> {
        let mut resolved = self.columns.borrow_mut();
        if !(resolved.schema.as_ref()).is_some_and(|schema| schema.ptr_eq(batch.schema())) {
            resolved.schema = Some(batch.schema().clone());
            resolved.indices.clear();
        }
        let known = (resolved.indices.iter()).find(|(known, _)| std::ptr::eq(*known, name));
        let idx = match known {
            Some(&(_, idx)) => idx,
            None => {
                let idx = batch.schema().index_of(name)?;
                resolved.indices.push((name, idx));
                idx
            }
        };
        Ok(batch.column(idx))
    }

    /// Number of scalar UDF invocations made so far.
    pub fn udf_calls(&self) -> usize {
        self.udf_calls.get()
    }

    /// What the `SDB_KEY_UPDATE` invocations among them cost.
    pub(crate) fn key_update_counts(&self) -> KeyUpdateCounts {
        self.key_update_counts.get()
    }

    /// The registry function calls resolve against.
    pub(crate) fn registry(&self) -> &'a UdfRegistry {
        self.registry
    }

    /// One `SDB_KEY_UPDATE` call: from its set's powers of the row where the
    /// site is a member and both operands are shares, through the function
    /// otherwise — which also owns every NULL and error case.
    fn key_update(&self, site: &CallSite<'a>, batch: &RecordBatch, row: usize) -> Result<Value> {
        let mut counts = self.key_update_counts.get();
        counts.calls += 1;
        let mut served = None;
        if let (Some((aux, member)), Some(sets)) = (site.key_update, self.key_updates) {
            let aux = self.column(aux, batch)?;
            if let Value::Encrypted(a) = &site.args.borrow()[0] {
                served = sets.apply(member, aux, row, a, &mut counts);
            }
            if served.is_none() {
                site.args.borrow_mut()[1] = aux.value(row).into_owned();
            }
        }
        let result = match served {
            Some(updated) => Ok(Value::Encrypted(updated)),
            None => {
                let result = site.udf.invoke(&site.args.borrow());
                counts.pows += usize::from(matches!(result, Ok(Value::Encrypted(_))));
                result
            }
        };
        self.key_update_counts.set(counts);
        result
    }

    /// Evaluates `expr` against row `row` of `batch`.
    pub fn evaluate(&self, expr: &'a Expr, batch: &RecordBatch, row: usize) -> Result<Value> {
        match expr {
            Expr::Column(name) => Ok(self.column(name, batch)?.value(row).into_owned()),
            Expr::Literal(lit) => Ok(literal_to_value(lit)),
            Expr::Param(i) => Err(EngineError::Expression {
                detail: format!("parameter ${i} is not bound"),
            }),
            Expr::Unary { op, expr } => {
                let v = self.evaluate(expr, batch, row)?;
                self.eval_unary(*op, v)
            }
            Expr::Binary { left, op, right } => {
                // Short-circuit logical operators to get 3-valued logic right.
                if *op == BinaryOp::And || *op == BinaryOp::Or {
                    let l = self.evaluate(left, batch, row)?;
                    return self.eval_logical(*op, l, || self.evaluate(right, batch, row));
                }
                let l = self.evaluate(left, batch, row)?;
                let r = self.evaluate(right, batch, row)?;
                self.eval_binary(*op, l, r)
            }
            Expr::Function { name, args, .. } => {
                let site = self.call_site(expr, name, args)?;
                for &i in &site.dynamic {
                    // The nested evaluation may reach other sites, never this
                    // one: the buffer is only borrowed for the assignment.
                    let value = self.evaluate(&args[i], batch, row)?;
                    site.args.borrow_mut()[i] = value;
                }
                self.udf_calls.set(self.udf_calls.get() + 1);
                if site.is_key_update {
                    return self.key_update(&site, batch, row);
                }
                let result = site.udf.invoke(&site.args.borrow());
                result
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                for (when, then) in branches {
                    let matches = match operand {
                        Some(op) => {
                            let lhs = self.evaluate(op, batch, row)?;
                            let rhs = self.evaluate(when, batch, row)?;
                            matches!(self.eval_binary(BinaryOp::Eq, lhs, rhs)?, Value::Bool(true))
                        }
                        None => {
                            matches!(self.evaluate(when, batch, row)?, Value::Bool(true))
                        }
                    };
                    if matches {
                        return self.evaluate(then, batch, row);
                    }
                }
                match else_expr {
                    Some(e) => self.evaluate(e, batch, row),
                    None => Ok(Value::Null),
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = self.evaluate(expr, batch, row)?;
                let lo = self.evaluate(low, batch, row)?;
                let hi = self.evaluate(high, batch, row)?;
                let ge = self.eval_binary(BinaryOp::GtEq, v.clone(), lo)?;
                let le = self.eval_binary(BinaryOp::LtEq, v, hi)?;
                let both = self.eval_logical(BinaryOp::And, ge, || Ok(le))?;
                self.maybe_negate(both, *negated)
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.evaluate(expr, batch, row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for candidate in list {
                    let c = self.evaluate(candidate, batch, row)?;
                    if c.is_null() {
                        saw_null = true;
                        continue;
                    }
                    if values_equal(&v, &c) {
                        return self.maybe_negate(Value::Bool(true), *negated);
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    self.maybe_negate(Value::Bool(false), *negated)
                }
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let resolver = self.subqueries.ok_or_else(|| EngineError::Unsupported {
                    detail: "subquery evaluation requires an executor context".into(),
                })?;
                let v = self.evaluate(expr, batch, row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let candidates = resolver.column(query)?;
                let found = candidates.iter().any(|c| values_equal(&v, c));
                self.maybe_negate(Value::Bool(found), *negated)
            }
            Expr::ScalarSubquery(query) => {
                let resolver = self.subqueries.ok_or_else(|| EngineError::Unsupported {
                    detail: "subquery evaluation requires an executor context".into(),
                })?;
                resolver.scalar(query)
            }
            Expr::Exists { query, negated } => {
                let resolver = self.subqueries.ok_or_else(|| EngineError::Unsupported {
                    detail: "subquery evaluation requires an executor context".into(),
                })?;
                let rows = resolver.column(query)?;
                self.maybe_negate(Value::Bool(!rows.is_empty()), *negated)
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.evaluate(expr, batch, row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => {
                        self.maybe_negate(Value::Bool(like_match(pattern, &s)), *negated)
                    }
                    other => Err(EngineError::Expression {
                        detail: format!("LIKE applied to non-string value {other:?}"),
                    }),
                }
            }
            Expr::IsNull { expr, negated } => {
                let v = self.evaluate(expr, batch, row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
        }
    }

    /// Evaluates a predicate for filtering: NULL counts as "do not keep".
    pub fn evaluate_predicate(
        &self,
        expr: &'a Expr,
        batch: &RecordBatch,
        row: usize,
    ) -> Result<bool> {
        match self.evaluate(expr, batch, row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(EngineError::Expression {
                detail: format!("predicate evaluated to non-boolean {other:?}"),
            }),
        }
    }

    fn maybe_negate(&self, v: Value, negated: bool) -> Result<Value> {
        if !negated {
            return Ok(v);
        }
        match v {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::Null => Ok(Value::Null),
            other => Err(EngineError::Expression {
                detail: format!("cannot negate non-boolean {other:?}"),
            }),
        }
    }

    fn eval_unary(&self, op: UnaryOp, v: Value) -> Result<Value> {
        match (op, v) {
            (_, Value::Null) => Ok(Value::Null),
            (UnaryOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
            (UnaryOp::Neg, Value::Decimal { units, scale }) => Ok(Value::Decimal {
                units: -units,
                scale,
            }),
            (UnaryOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
            (op, v) => Err(EngineError::Expression {
                detail: format!("cannot apply {op:?} to {v:?}"),
            }),
        }
    }

    fn eval_logical<F>(&self, op: BinaryOp, left: Value, right: F) -> Result<Value>
    where
        F: FnOnce() -> Result<Value>,
    {
        let as_tri = |v: &Value| -> Result<Option<bool>> {
            match v {
                Value::Bool(b) => Ok(Some(*b)),
                Value::Null => Ok(None),
                other => Err(EngineError::Expression {
                    detail: format!("logical operator applied to {other:?}"),
                }),
            }
        };
        let l = as_tri(&left)?;
        match op {
            BinaryOp::And => match l {
                Some(false) => Ok(Value::Bool(false)),
                _ => {
                    let r = as_tri(&right()?)?;
                    Ok(match (l, r) {
                        (_, Some(false)) => Value::Bool(false),
                        (Some(true), Some(true)) => Value::Bool(true),
                        _ => Value::Null,
                    })
                }
            },
            BinaryOp::Or => match l {
                Some(true) => Ok(Value::Bool(true)),
                _ => {
                    let r = as_tri(&right()?)?;
                    Ok(match (l, r) {
                        (_, Some(true)) => Value::Bool(true),
                        (Some(false), Some(false)) => Value::Bool(false),
                        _ => Value::Null,
                    })
                }
            },
            other => Err(EngineError::Expression {
                detail: format!("{other:?} is not a logical operator"),
            }),
        }
    }

    fn eval_binary(&self, op: BinaryOp, left: Value, right: Value) -> Result<Value> {
        if left.is_null() || right.is_null() {
            return Ok(Value::Null);
        }
        if op.is_comparison() {
            return compare_values(op, &left, &right);
        }
        if op.is_arithmetic() {
            return arithmetic(op, &left, &right);
        }
        Err(EngineError::Expression {
            detail: format!("unexpected binary operator {op:?}"),
        })
    }
}

/// Converts an AST literal into a runtime value.
pub fn literal_to_value(lit: &Literal) -> Value {
    match lit {
        Literal::Null => Value::Null,
        Literal::Int(v) => Value::Int(*v),
        Literal::Decimal { units, scale } => Value::Decimal {
            units: *units,
            scale: *scale,
        },
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Date(d) => Value::Date(*d),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

/// SQL equality between two non-null values (strings compare textually, numerics
/// numerically across INT/DECIMAL/DATE).
pub fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Encrypted(x), Value::Encrypted(y)) => x == y,
        (Value::Tag(x), Value::Tag(y)) => x == y,
        _ => numeric_pair(a, b).map(|(x, y)| x == y).unwrap_or(false),
    }
}

fn numeric_pair(a: &Value, b: &Value) -> Option<(i128, i128)> {
    let scale = numeric_scale(a).max(numeric_scale(b));
    match (a.as_scaled_i128(scale), b.as_scaled_i128(scale)) {
        (Ok(x), Ok(y)) => Some((x, y)),
        _ => None,
    }
}

fn numeric_scale(v: &Value) -> u8 {
    match v {
        Value::Decimal { scale, .. } => *scale,
        _ => 0,
    }
}

fn compare_values(op: BinaryOp, left: &Value, right: &Value) -> Result<Value> {
    use std::cmp::Ordering;
    let ordering = match (left, right) {
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
        (Value::Tag(a), Value::Tag(b)) => a.cmp(b),
        _ => match numeric_pair(left, right) {
            Some((a, b)) => a.cmp(&b),
            None => {
                return Err(EngineError::Expression {
                    detail: format!("cannot compare {left:?} with {right:?}"),
                })
            }
        },
    };
    let result = match op {
        BinaryOp::Eq => ordering == Ordering::Equal,
        BinaryOp::NotEq => ordering != Ordering::Equal,
        BinaryOp::Lt => ordering == Ordering::Less,
        BinaryOp::LtEq => ordering != Ordering::Greater,
        BinaryOp::Gt => ordering == Ordering::Greater,
        BinaryOp::GtEq => ordering != Ordering::Less,
        _ => unreachable!("checked by caller"),
    };
    Ok(Value::Bool(result))
}

fn arithmetic(op: BinaryOp, left: &Value, right: &Value) -> Result<Value> {
    // Date arithmetic: DATE ± INT days, DATE − DATE.
    if let (Value::Date(d), Value::Int(i)) = (left, right) {
        return match op {
            BinaryOp::Add => Ok(Value::Date(d + *i as i32)),
            BinaryOp::Sub => Ok(Value::Date(d - *i as i32)),
            _ => Err(EngineError::Expression {
                detail: "only + and - are defined between DATE and INT".into(),
            }),
        };
    }
    if let (Value::Date(a), Value::Date(b)) = (left, right) {
        if op == BinaryOp::Sub {
            return Ok(Value::Int(i64::from(a - b)));
        }
        return Err(EngineError::Expression {
            detail: "only - is defined between two DATEs".into(),
        });
    }

    let ls = numeric_scale(left);
    let rs = numeric_scale(right);
    let (a, b) = numeric_pair(left, right).ok_or_else(|| EngineError::Expression {
        detail: format!("cannot apply {op:?} to {left:?} and {right:?}"),
    })?;
    let common = ls.max(rs);

    let (units, scale): (i128, u8) = match op {
        BinaryOp::Add => (a + b, common),
        BinaryOp::Sub => (a - b, common),
        BinaryOp::Mul => {
            // a and b are both at `common` scale; the raw product is at 2·common.
            (a * b, common.saturating_mul(2))
        }
        BinaryOp::Div => {
            if b == 0 {
                return Err(EngineError::Expression {
                    detail: "division by zero".into(),
                });
            }
            if common == 0 {
                // Pure integer division.
                return Ok(Value::Int((a / b) as i64));
            }
            // Produce a scale-4 decimal: (a / b) at scale 4.
            ((a * 10_000) / b, 4)
        }
        BinaryOp::Mod => {
            if b == 0 {
                return Err(EngineError::Expression {
                    detail: "modulo by zero".into(),
                });
            }
            (a % b, common)
        }
        _ => unreachable!("checked by caller"),
    };

    // Normalise: integers stay integers, decimals stay at their scale but clamp
    // the scale back down to at most 6 digits to keep magnitudes inside i64 range
    // (TPC-H's deepest product — price × discount × tax — has exactly 6 decimals,
    // so the common workloads stay exact).
    if scale == 0 {
        let v = i64::try_from(units).map_err(|_| EngineError::Expression {
            detail: "integer overflow in arithmetic".into(),
        })?;
        return Ok(Value::Int(v));
    }
    let (units, scale) = if scale > 6 {
        (units / 10i128.pow(u32::from(scale - 6)), 6)
    } else {
        (units, scale)
    };
    let units = i64::try_from(units).map_err(|_| EngineError::Expression {
        detail: "decimal overflow in arithmetic".into(),
    })?;
    Ok(Value::Decimal { units, scale })
}

/// SQL LIKE matching with `%` (any run) and `_` (any single character).
pub fn like_match(pattern: &str, text: &str) -> bool {
    fn inner(p: &[u8], t: &[u8]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some(b'%') => {
                // Match zero or more characters.
                (0..=t.len()).any(|k| inner(&p[1..], &t[k..]))
            }
            Some(b'_') => !t.is_empty() && inner(&p[1..], &t[1..]),
            Some(c) => t.first() == Some(c) && inner(&p[1..], &t[1..]),
        }
    }
    inner(pattern.as_bytes(), text.as_bytes())
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the interpreter under test, built directly
mod tests {
    use super::*;
    use sdb_sql::parse_sql;
    use sdb_sql::Statement;
    use sdb_storage::{ColumnDef, DataType, Schema};

    fn sample_batch() -> RecordBatch {
        let schema = Schema::new(vec![
            ColumnDef::public("a", DataType::Int),
            ColumnDef::public("b", DataType::Int),
            ColumnDef::public("price", DataType::Decimal { scale: 2 }),
            ColumnDef::public("name", DataType::Varchar),
            ColumnDef::public("d", DataType::Date),
        ]);
        RecordBatch::from_rows(
            schema,
            vec![
                vec![
                    Value::Int(1),
                    Value::Int(10),
                    Value::Decimal {
                        units: 1050,
                        scale: 2,
                    },
                    Value::Str("alpha".into()),
                    Value::Date(100),
                ],
                vec![
                    Value::Int(2),
                    Value::Null,
                    Value::Decimal {
                        units: 250,
                        scale: 2,
                    },
                    Value::Str("beta".into()),
                    Value::Date(200),
                ],
            ],
        )
        .unwrap()
    }

    /// Parses the expression of `SELECT <expr> FROM t` for concise test setup.
    fn expr(text: &str) -> Expr {
        let sql = format!("SELECT {text} FROM t");
        match parse_sql(&sql).unwrap() {
            Statement::Query(q) => match q.projections.into_iter().next().unwrap() {
                sdb_sql::SelectItem::Expr { expr, .. } => expr,
                other => panic!("unexpected {other:?}"),
            },
            _ => unreachable!(),
        }
    }

    /// A name is resolved once per schema: a batch with another schema gets
    /// its own resolution, and a failed one fails again on every row.
    #[test]
    fn column_references_resolve_per_schema() {
        let registry = UdfRegistry::with_sdb_udfs();
        let evaluator = Evaluator::new(&registry);
        let reference = expr("b");
        let first = sample_batch();
        let swapped = first.project(&[1, 0]);
        for _ in 0..2 {
            let got = evaluator.evaluate(&reference, &first, 0).unwrap();
            assert_eq!(got, Value::Int(10));
            let got = evaluator.evaluate(&reference, &swapped, 0).unwrap();
            assert_eq!(got, Value::Int(10));
            let sliced = first.slice(1, 1).unwrap();
            assert!(evaluator
                .evaluate(&reference, &sliced, 0)
                .unwrap()
                .is_null());
        }

        let qualified = Schema::new(vec![
            ColumnDef::public("l.k", DataType::Int),
            ColumnDef::public("r.k", DataType::Int),
        ]);
        let row = vec![Value::Int(1), Value::Int(2)];
        let batch = RecordBatch::from_rows(qualified, vec![row.clone(), row]).unwrap();
        let (ambiguous, missing) = (expr("k"), expr("nope"));
        for row in [0, 1, 0] {
            let err = evaluator.evaluate(&ambiguous, &batch, row).unwrap_err();
            assert!(err.to_string().contains("ambiguous"), "{err}");
            let err = evaluator.evaluate(&missing, &batch, row).unwrap_err();
            assert!(err.to_string().contains("nope"), "{err}");
        }
        assert_eq!(
            evaluator.evaluate(&expr("r.k"), &batch, 1).unwrap(),
            Value::Int(2)
        );
    }

    fn eval(text: &str, row: usize) -> Value {
        let registry = UdfRegistry::with_sdb_udfs();
        let evaluator = Evaluator::new(&registry);
        evaluator
            .evaluate(&expr(text), &sample_batch(), row)
            .unwrap()
    }

    #[test]
    fn column_and_literal() {
        assert_eq!(eval("a", 0), Value::Int(1));
        assert_eq!(eval("42", 0), Value::Int(42));
        assert_eq!(eval("'hi'", 0), Value::Str("hi".into()));
    }

    #[test]
    fn arithmetic_mixed_types() {
        assert_eq!(eval("a + b", 0), Value::Int(11));
        assert_eq!(
            eval("price * 2", 0),
            Value::Decimal {
                units: 210_000,
                scale: 4
            }
        );
        assert_eq!(
            eval("price + 1", 0),
            Value::Decimal {
                units: 1150,
                scale: 2
            }
        );
        assert_eq!(eval("b / a", 0), Value::Int(10));
        assert_eq!(eval("7 / 2", 0), Value::Int(3));
        assert_eq!(
            eval("price / 2", 0),
            Value::Decimal {
                units: 52500,
                scale: 4
            }
        );
        assert_eq!(eval("b % 3", 0), Value::Int(1));
        assert_eq!(eval("-a", 0), Value::Int(-1));
    }

    #[test]
    fn decimal_multiplication_rescales() {
        // 10.50 * 0.10 = 1.05 → at scale 4: 1.0500
        assert_eq!(
            eval("price * 0.10", 0),
            Value::Decimal {
                units: 10500,
                scale: 4
            }
        );
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval("b + 1", 1), Value::Null);
        assert_eq!(eval("b > 1", 1), Value::Null);
        assert_eq!(eval("-b", 1), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        // b is NULL on row 1.
        assert_eq!(eval("b > 1 AND a = 2", 1), Value::Null);
        assert_eq!(eval("b > 1 AND a = 99", 1), Value::Bool(false));
        assert_eq!(eval("b > 1 OR a = 2", 1), Value::Bool(true));
        assert_eq!(eval("b > 1 OR a = 99", 1), Value::Null);
        assert_eq!(eval("NOT (a = 2)", 1), Value::Bool(false));
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval("a < b", 0), Value::Bool(true));
        assert_eq!(eval("price >= 10.5", 0), Value::Bool(true));
        assert_eq!(eval("price >= 10.51", 0), Value::Bool(false));
        assert_eq!(eval("name = 'alpha'", 0), Value::Bool(true));
        assert_eq!(eval("name <> 'alpha'", 0), Value::Bool(false));
        assert_eq!(eval("d > DATE '1970-01-01'", 0), Value::Bool(true));
    }

    #[test]
    fn date_arithmetic() {
        assert_eq!(eval("d + 5", 0), Value::Date(105));
        assert_eq!(eval("d - 5", 0), Value::Date(95));
        assert_eq!(eval("d - DATE '1970-01-01'", 0), Value::Int(100));
    }

    #[test]
    fn predicates() {
        assert_eq!(eval("a BETWEEN 1 AND 5", 0), Value::Bool(true));
        assert_eq!(eval("a NOT BETWEEN 1 AND 5", 0), Value::Bool(false));
        assert_eq!(eval("a IN (3, 2, 1)", 0), Value::Bool(true));
        assert_eq!(eval("a NOT IN (3, 2)", 0), Value::Bool(true));
        assert_eq!(eval("name LIKE 'al%'", 0), Value::Bool(true));
        assert_eq!(eval("name LIKE '%et%'", 1), Value::Bool(true));
        assert_eq!(eval("name LIKE 'a_pha'", 0), Value::Bool(true));
        assert_eq!(eval("name NOT LIKE 'b%'", 0), Value::Bool(true));
        assert_eq!(eval("b IS NULL", 1), Value::Bool(true));
        assert_eq!(eval("b IS NOT NULL", 1), Value::Bool(false));
    }

    #[test]
    fn case_expression() {
        assert_eq!(
            eval(
                "CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END",
                0
            ),
            Value::Str("one".into())
        );
        assert_eq!(
            eval("CASE WHEN a = 1 THEN 'one' ELSE 'other' END", 1),
            Value::Str("other".into())
        );
        assert_eq!(eval("CASE WHEN a = 99 THEN 1 END", 0), Value::Null);
        assert_eq!(
            eval("CASE a WHEN 2 THEN 'two' ELSE 'no' END", 1),
            Value::Str("two".into())
        );
    }

    #[test]
    fn udf_calls_through_registry() {
        assert_eq!(eval("ABS(0 - a)", 0), Value::Int(1));
        let registry = UdfRegistry::with_sdb_udfs();
        let call = expr("ABS(a)");
        let evaluator = Evaluator::new(&registry);
        evaluator.evaluate(&call, &sample_batch(), 0).unwrap();
        assert_eq!(evaluator.udf_calls(), 1);
        // The call site is resolved once; every row still counts as a call.
        evaluator.evaluate(&call, &sample_batch(), 1).unwrap();
        assert_eq!(evaluator.udf_calls(), 2);
        assert_eq!(evaluator.sites.borrow().len(), 1);
    }

    /// Two call sites of one function with different constants keep their own
    /// instances (no eviction between them), and literal arguments are placed
    /// in the argument buffer once, not per row.
    #[test]
    fn call_sites_bind_their_constants_separately() {
        use num_bigint::BigUint;
        let schema = Schema::new(vec![
            ColumnDef::sensitive("x", DataType::Encrypted),
            ColumnDef::sensitive("y", DataType::Encrypted),
        ]);
        let enc = |v: u32| Value::Encrypted(BigUint::from(v));
        let batch =
            RecordBatch::from_rows(schema, vec![vec![enc(10), enc(11)], vec![enc(20), enc(30)]])
                .unwrap();
        let both = expr("SDB_ADD(SDB_MULTIPLY(x, y, '35'), SDB_MULTIPLY(x, y, '33'), '1000')");
        let registry = UdfRegistry::with_sdb_udfs();
        let sites = UdfSites::default();
        let evaluator = Evaluator::new(&registry).with_query_sites(&sites);
        // 110 mod 35 + 110 mod 33 = 5 + 11; 600 mod 35 + 600 mod 33 = 5 + 6.
        assert_eq!(evaluator.evaluate(&both, &batch, 0).unwrap(), enc(16));
        assert_eq!(evaluator.evaluate(&both, &batch, 1).unwrap(), enc(11));
        assert_eq!(evaluator.udf_calls(), 6);
        let mut remembered = sites.remembered_constants();
        remembered.sort();
        assert_eq!(remembered, ["1000", "33", "35"]);

        // A second evaluator of the same query (the next batch) finds the
        // instances already bound.
        let next = Evaluator::new(&registry).with_query_sites(&sites);
        assert_eq!(next.evaluate(&both, &batch, 0).unwrap(), enc(16));
        assert_eq!(sites.remembered_constants().len(), 3);
    }

    /// A call site whose modulus is not a literal sees a different text on
    /// every row; each row is reduced modulo its own `n`.
    #[test]
    fn per_row_constants_are_rebound_per_row() {
        use num_bigint::BigUint;
        let schema = Schema::new(vec![
            ColumnDef::sensitive("x", DataType::Encrypted),
            ColumnDef::public("m", DataType::Varchar),
        ]);
        let row = |m: &str| {
            vec![
                Value::Encrypted(BigUint::from(100u32)),
                Value::Str(m.into()),
            ]
        };
        let batch = RecordBatch::from_rows(schema, vec![row("35"), row("33"), row("35"), row("7")])
            .unwrap();
        let call = expr("SDB_MULTIPLY(x, x, m)");
        let registry = UdfRegistry::with_sdb_udfs();
        let evaluator = Evaluator::new(&registry);
        for (i, expected) in [10_000 % 35, 10_000 % 33, 10_000 % 35, 10_000 % 7u32]
            .into_iter()
            .enumerate()
        {
            assert_eq!(
                evaluator.evaluate(&call, &batch, i).unwrap(),
                Value::Encrypted(BigUint::from(expected)),
                "row {i}"
            );
        }
    }

    #[test]
    fn unknown_function_and_aggregate_errors() {
        let registry = UdfRegistry::with_sdb_udfs();
        let (unknown, aggregate) = (expr("NO_SUCH_FN(a)"), expr("SUM(a)"));
        let evaluator = Evaluator::new(&registry);
        assert!(matches!(
            evaluator.evaluate(&unknown, &sample_batch(), 0),
            Err(EngineError::UnknownFunction { .. })
        ));
        assert!(evaluator.evaluate(&aggregate, &sample_batch(), 0).is_err());
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let registry = UdfRegistry::with_sdb_udfs();
        let (quotient, remainder) = (expr("a / 0"), expr("a % 0"));
        let evaluator = Evaluator::new(&registry);
        assert!(evaluator.evaluate(&quotient, &sample_batch(), 0).is_err());
        assert!(evaluator.evaluate(&remainder, &sample_batch(), 0).is_err());
    }

    #[test]
    fn like_matcher_edge_cases() {
        assert!(like_match("%", ""));
        assert!(like_match("%", "anything"));
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
        assert!(like_match("a%b%c", "aXXbYYc"));
        assert!(!like_match("a%b%c", "aXXbYY"));
        assert!(like_match("_%", "x"));
        assert!(!like_match("_", ""));
    }

    #[test]
    fn predicate_helper_treats_null_as_false() {
        let registry = UdfRegistry::with_sdb_udfs();
        let (null, yes, not_boolean) = (expr("b > 1"), expr("a = 2"), expr("a"));
        let evaluator = Evaluator::new(&registry);
        let batch = sample_batch();
        assert!(!evaluator.evaluate_predicate(&null, &batch, 1).unwrap());
        assert!(evaluator.evaluate_predicate(&yes, &batch, 1).unwrap());
        assert!(evaluator
            .evaluate_predicate(&not_boolean, &batch, 1)
            .is_err());
    }
}
