//! Cardinality and selectivity estimation over logical plans.
//!
//! Estimates are derived from the [`TableStats`] the catalog collected at
//! `ANALYZE` time: scans report the analyzed row count, filters scale by the
//! predicate's estimated selectivity, equi-joins divide by the larger
//! distinct count of the key pair (the classic containment assumption), and
//! aggregates cap the product of their group-key distinct counts at the
//! input size.
//!
//! Range predicates over analyzed plaintext columns interpolate against the
//! column's min/max: `id < lit` estimates `(lit − min) / (max − min)`,
//! clamped to `[0, 1]`. Columns without usable bounds — including every
//! encrypted column, whose `ANALYZE` pass records no plaintext min/max —
//! fall back to [`DEFAULT_RANGE_SELECTIVITY`], as do the oracle-rewritten
//! `SDB_CMP_*` forms (the estimator never sees through the encryption).
//!
//! [`Estimator::rows`] returns `None` whenever a base table has no
//! statistics: the optimizer then leaves the syntactic plan untouched rather
//! than reordering on guesses.

use std::sync::Arc;

use sdb_sql::ast::{BinaryOp, Expr, Literal};
use sdb_sql::plan::LogicalPlan;
use sdb_storage::{Catalog, TableStats, Value};

use crate::secure::oracle_fns;

/// Default selectivity of an equality predicate whose distinct count is
/// unknown.
pub const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;

/// Default selectivity of a range comparison (`<`, `>`, `<=`, `>=` and their
/// oracle-rewritten `SDB_CMP_*` forms).
pub const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;

/// Default selectivity of any predicate the estimator cannot classify.
pub const DEFAULT_SELECTIVITY: f64 = 0.25;

/// Floor applied to every selectivity so conjunctions never collapse to zero.
const MIN_SELECTIVITY: f64 = 1e-4;

/// Statistics for one column visible in a plan scope.
#[derive(Debug, Clone)]
pub struct ScopeColumn {
    /// Qualified name (`visible_table.column`).
    pub name: String,
    /// Estimated distinct count.
    pub distinct: f64,
    /// Fraction of NULL values.
    pub null_fraction: f64,
    /// Minimum non-NULL value as a scale-4 numeric, when the column is a
    /// plain numeric type with collected bounds.
    pub min: Option<f64>,
    /// Maximum non-NULL value, same encoding as `min`.
    pub max: Option<f64>,
}

/// The columns (with statistics) visible at some point of a plan, used to
/// resolve predicate references during selectivity estimation.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    columns: Vec<ScopeColumn>,
}

impl Scope {
    /// An empty scope (every lookup falls back to defaults).
    pub fn empty() -> Self {
        Scope::default()
    }

    /// Concatenates two scopes (join output).
    pub fn join(mut self, other: Scope) -> Scope {
        self.columns.extend(other.columns);
        self
    }

    fn push(&mut self, column: ScopeColumn) {
        self.columns.push(column);
    }

    /// Resolves a (possibly qualified) column reference with the engine's
    /// shared name-resolution rules ([`sdb_storage::resolve_name`] — the
    /// same the executor applies); `None` when missing or ambiguous.
    pub fn resolve(&self, name: &str) -> Option<&ScopeColumn> {
        match sdb_storage::resolve_name(self.columns.iter().map(|c| c.name.as_str()), name) {
            sdb_storage::NameResolution::One(idx) => Some(&self.columns[idx]),
            _ => None,
        }
    }
}

/// Cardinality estimator over a catalog's statistics.
pub struct Estimator<'a> {
    catalog: &'a Catalog,
}

impl<'a> Estimator<'a> {
    /// Creates an estimator reading the given catalog's statistics.
    pub fn new(catalog: &'a Catalog) -> Self {
        Estimator { catalog }
    }

    fn table_stats(&self, table: &str) -> Option<Arc<TableStats>> {
        self.catalog.table_stats(table)
    }

    /// The scope (columns with statistics) produced by a plan. Projections
    /// and aggregates rename columns, so estimation above them falls back to
    /// defaults (joins never sit above them in this engine's plans).
    pub fn scope(&self, plan: &LogicalPlan) -> Scope {
        match plan {
            LogicalPlan::Scan { table, alias } => {
                let mut scope = Scope::empty();
                if let Some(stats) = self.table_stats(table) {
                    let visible = alias.as_deref().unwrap_or(table);
                    for column in &stats.columns {
                        scope.push(ScopeColumn {
                            name: format!("{visible}.{}", column.name).to_ascii_lowercase(),
                            distinct: column.distinct.max(1.0),
                            null_fraction: column.null_fraction(stats.row_count),
                            min: numeric_bound(column.min.as_ref()),
                            max: numeric_bound(column.max.as_ref()),
                        });
                    }
                }
                scope
            }
            LogicalPlan::Join { left, right, .. } => self.scope(left).join(self.scope(right)),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. } => self.scope(input),
            LogicalPlan::Project { .. } | LogicalPlan::Aggregate { .. } => Scope::empty(),
        }
    }

    /// Estimated output rows of a plan, or `None` when any base table it
    /// scans has not been analyzed.
    pub fn rows(&self, plan: &LogicalPlan) -> Option<f64> {
        match plan {
            LogicalPlan::Scan { table, .. } => self.table_stats(table).map(|s| s.row_count as f64),
            LogicalPlan::Filter { input, predicate } => {
                let rows = self.rows(input)?;
                let scope = self.scope(input);
                Some(rows * self.selectivity(predicate, &scope))
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
            } => {
                let l = self.rows(left)?;
                let r = self.rows(right)?;
                let mut rows = l * r;
                if let Some(on) = on {
                    let scope = self.scope(left).join(self.scope(right));
                    rows *= self.selectivity(on, &scope);
                }
                // A LEFT JOIN emits every probe row at least once.
                if *kind == sdb_sql::ast::JoinKind::Left {
                    rows = rows.max(l);
                }
                Some(rows)
            }
            LogicalPlan::Project { input, .. } | LogicalPlan::Sort { input, .. } => {
                self.rows(input)
            }
            LogicalPlan::Aggregate {
                input, group_by, ..
            } => {
                let rows = self.rows(input)?;
                if group_by.is_empty() {
                    return Some(1.0);
                }
                let scope = self.scope(input);
                let mut groups = 1.0f64;
                for (expr, _) in group_by {
                    groups *= self.expr_distinct(expr, &scope, rows);
                }
                Some(groups.min(rows).max(1.0))
            }
            LogicalPlan::Distinct { input } => self.rows(input),
            LogicalPlan::Limit { input, n } => Some(self.rows(input)?.min(*n as f64)),
        }
    }

    /// Estimated average row width in bytes of a plan's output (always
    /// returns something; unanalyzed inputs fall back to a flat guess).
    pub fn row_width(&self, plan: &LogicalPlan) -> f64 {
        const DEFAULT_COLUMN_WIDTH: f64 = 24.0;
        match plan {
            LogicalPlan::Scan { table, .. } => self
                .table_stats(table)
                .map(|s| s.avg_row_width())
                .unwrap_or(4.0 * DEFAULT_COLUMN_WIDTH),
            LogicalPlan::Join { left, right, .. } => self.row_width(left) + self.row_width(right),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. } => self.row_width(input),
            LogicalPlan::Project { items, .. } => DEFAULT_COLUMN_WIDTH * items.len() as f64,
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                ..
            } => DEFAULT_COLUMN_WIDTH * (group_by.len() + aggregates.len()) as f64,
        }
    }

    /// Estimated distinct values an expression takes over `rows` input rows.
    fn expr_distinct(&self, expr: &Expr, scope: &Scope, rows: f64) -> f64 {
        match expr {
            Expr::Column(name) => scope
                .resolve(name)
                .map(|c| c.distinct)
                .unwrap_or_else(|| rows.sqrt().max(1.0)),
            Expr::Literal(_) | Expr::Param(_) => 1.0,
            // Anything computed: assume it collapses some duplicates.
            _ => rows.sqrt().max(1.0),
        }
    }

    /// Estimated selectivity of a predicate against the given scope, clamped
    /// to `[MIN_SELECTIVITY, 1]`.
    pub fn selectivity(&self, predicate: &Expr, scope: &Scope) -> f64 {
        self.raw_selectivity(predicate, scope)
            .clamp(MIN_SELECTIVITY, 1.0)
    }

    fn eq_selectivity(&self, a: &Expr, b: &Expr, scope: &Scope) -> f64 {
        let distinct_of = |e: &Expr| match e {
            Expr::Column(name) => scope.resolve(name).map(|c| c.distinct),
            _ => None,
        };
        match (distinct_of(a), distinct_of(b)) {
            // col = col: containment assumption.
            (Some(da), Some(db)) => 1.0 / da.max(db).max(1.0),
            // col = literal/computed.
            (Some(d), None) | (None, Some(d)) => 1.0 / d.max(1.0),
            (None, None) => DEFAULT_EQ_SELECTIVITY,
        }
    }

    /// Min/max interpolation for a column-vs-literal range comparison.
    /// `None` (→ the fixed default) unless one side is a column with
    /// collected numeric bounds and the other a numeric literal. The
    /// estimate for `col < lit` is the linear fraction
    /// `(lit − min) / (max − min)`, clamped to `[0, 1]`; `>` takes the
    /// complement, and `<=`/`>=` price like their strict forms (the boundary
    /// mass is below this model's resolution).
    fn range_selectivity(
        &self,
        left: &Expr,
        op: BinaryOp,
        right: &Expr,
        scope: &Scope,
    ) -> Option<f64> {
        // Orient as column-op-literal, flipping the operator when the
        // literal is on the left (`10 < id` ≡ `id > 10`).
        let (name, op, lit) = match (left, right) {
            (Expr::Column(name), Expr::Literal(lit)) => (name, op, lit),
            (Expr::Literal(lit), Expr::Column(name)) => {
                let flipped = match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::LtEq => BinaryOp::GtEq,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::GtEq => BinaryOp::LtEq,
                    _ => return None,
                };
                (name, flipped, lit)
            }
            _ => return None,
        };
        let lit = literal_numeric(lit)?;
        let column = scope.resolve(name)?;
        let (min, max) = (column.min?, column.max?);
        let below = if max > min {
            ((lit - min) / (max - min)).clamp(0.0, 1.0)
        } else {
            // Single-point column: everything is on one side of the literal.
            if lit < min {
                0.0
            } else {
                1.0
            }
        };
        Some(match op {
            BinaryOp::Lt | BinaryOp::LtEq => below,
            BinaryOp::Gt | BinaryOp::GtEq => 1.0 - below,
            _ => unreachable!("range operators only"),
        })
    }

    fn raw_selectivity(&self, predicate: &Expr, scope: &Scope) -> f64 {
        match predicate {
            Expr::Binary { left, op, right } => match op {
                BinaryOp::And => self.selectivity(left, scope) * self.selectivity(right, scope),
                BinaryOp::Or => {
                    let a = self.selectivity(left, scope);
                    let b = self.selectivity(right, scope);
                    a + b - a * b
                }
                BinaryOp::Eq => self.eq_selectivity(left, right, scope),
                BinaryOp::NotEq => 1.0 - self.eq_selectivity(left, right, scope),
                BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => self
                    .range_selectivity(left, *op, right, scope)
                    .unwrap_or(DEFAULT_RANGE_SELECTIVITY),
                _ => DEFAULT_SELECTIVITY,
            },
            Expr::Unary {
                op: sdb_sql::ast::UnaryOp::Not,
                expr,
            } => 1.0 - self.selectivity(expr, scope),
            Expr::Between { negated, .. } => {
                let s = DEFAULT_SELECTIVITY;
                if *negated {
                    1.0 - s
                } else {
                    s
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let each = match expr.as_ref() {
                    Expr::Column(name) => scope
                        .resolve(name)
                        .map(|c| 1.0 / c.distinct.max(1.0))
                        .unwrap_or(DEFAULT_EQ_SELECTIVITY),
                    _ => DEFAULT_EQ_SELECTIVITY,
                };
                let s = (each * list.len() as f64).min(1.0);
                if *negated {
                    1.0 - s
                } else {
                    s
                }
            }
            Expr::IsNull { expr, negated } => {
                let nf = match expr.as_ref() {
                    Expr::Column(name) => scope
                        .resolve(name)
                        .map(|c| c.null_fraction)
                        .unwrap_or(DEFAULT_EQ_SELECTIVITY),
                    _ => DEFAULT_EQ_SELECTIVITY,
                };
                if *negated {
                    1.0 - nf
                } else {
                    nf
                }
            }
            Expr::Like { negated, .. } => {
                if *negated {
                    1.0 - DEFAULT_SELECTIVITY
                } else {
                    DEFAULT_SELECTIVITY
                }
            }
            // Membership in an uncorrelated subquery: no usable signal
            // either way.
            Expr::InSubquery { .. } | Expr::Exists { .. } => 0.5,
            Expr::Literal(sdb_sql::ast::Literal::Bool(b)) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            // Oracle-rewritten comparisons price like their plaintext forms.
            Expr::Function { name, .. } => {
                let upper = name.to_ascii_uppercase();
                match upper.as_str() {
                    oracle_fns::CMP_GT
                    | oracle_fns::CMP_GE
                    | oracle_fns::CMP_LT
                    | oracle_fns::CMP_LE => DEFAULT_RANGE_SELECTIVITY,
                    oracle_fns::CMP_EQ => DEFAULT_EQ_SELECTIVITY,
                    oracle_fns::CMP_NE => 1.0 - DEFAULT_EQ_SELECTIVITY,
                    _ => DEFAULT_SELECTIVITY,
                }
            }
            // A bare boolean column (or anything else) as a predicate.
            _ => DEFAULT_SELECTIVITY,
        }
    }
}

/// Projects an `ANALYZE`-collected bound onto the scale-4 numeric line used
/// for interpolation; `None` for non-numeric (or missing) bounds.
fn numeric_bound(bound: Option<&Value>) -> Option<f64> {
    bound
        .and_then(|v| v.as_scaled_i128(4).ok())
        .map(|units| units as f64 / 1e4)
}

/// A literal's position on the same scale-4 numeric line.
fn literal_numeric(lit: &Literal) -> Option<f64> {
    match lit {
        Literal::Int(v) => Some(*v as f64),
        Literal::Decimal { units, scale } => Some(*units as f64 / 10f64.powi(i32::from(*scale))),
        Literal::Date(d) => Some(f64::from(*d)),
        Literal::Bool(b) => Some(f64::from(u8::from(*b))),
        Literal::Null | Literal::Str(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_sql::plan::PlanBuilder;
    use sdb_sql::{parse_sql, Statement};
    use sdb_storage::{ColumnDef, DataType, Schema, Value};

    fn catalog() -> Catalog {
        let catalog = Catalog::new();
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::public("grp", DataType::Int),
        ]);
        let t = catalog.create_table("t", schema).unwrap();
        {
            let mut guard = t.write();
            for i in 0..1000i64 {
                guard
                    .insert_row(vec![Value::Int(i), Value::Int(i % 10)])
                    .unwrap();
            }
        }
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::public("name", DataType::Varchar),
        ]);
        let s = catalog.create_table("s", schema).unwrap();
        {
            let mut guard = s.write();
            for i in 0..10i64 {
                guard
                    .insert_row(vec![Value::Int(i), Value::Str(format!("n{i}"))])
                    .unwrap();
            }
        }
        catalog.analyze_all().unwrap();
        catalog
    }

    fn plan_of(sql: &str) -> LogicalPlan {
        match parse_sql(sql).unwrap() {
            Statement::Query(q) => PlanBuilder::build(&q).unwrap(),
            _ => panic!("not a query"),
        }
    }

    #[test]
    fn scan_rows_come_from_stats() {
        let catalog = catalog();
        let est = Estimator::new(&catalog);
        assert_eq!(est.rows(&plan_of("SELECT id FROM t")), Some(1000.0));
        // Unanalyzed table: no estimate.
        catalog.clear_stats("t");
        assert_eq!(est.rows(&plan_of("SELECT id FROM t")), None);
    }

    #[test]
    fn equality_filter_uses_distinct_counts() {
        let catalog = catalog();
        let est = Estimator::new(&catalog);
        let rows = est
            .rows(&plan_of("SELECT id FROM t WHERE grp = 3"))
            .unwrap();
        // grp has ~10 distinct values over 1000 rows → ~100 rows.
        assert!((50.0..200.0).contains(&rows), "{rows}");
    }

    #[test]
    fn equi_join_divides_by_larger_distinct_count() {
        let catalog = catalog();
        let est = Estimator::new(&catalog);
        let rows = est
            .rows(&plan_of("SELECT t.id FROM t JOIN s ON t.grp = s.id"))
            .unwrap();
        // 1000 × 10 / max(ndv≈10, ndv=10) ≈ 1000.
        assert!((500.0..2000.0).contains(&rows), "{rows}");
    }

    #[test]
    fn aggregate_caps_groups_at_input() {
        let catalog = catalog();
        let est = Estimator::new(&catalog);
        let rows = est
            .rows(&plan_of("SELECT grp, COUNT(*) AS n FROM t GROUP BY grp"))
            .unwrap();
        assert!((5.0..20.0).contains(&rows), "{rows}");
        let one = est.rows(&plan_of("SELECT COUNT(*) AS n FROM t")).unwrap();
        assert_eq!(one, 1.0);
    }

    #[test]
    fn scope_resolution_handles_aliases_and_ambiguity() {
        let catalog = catalog();
        let est = Estimator::new(&catalog);
        // `SELECT *` keeps the join as the plan root (a projection would
        // reset the scope, as renamed columns no longer map to base tables).
        let scope = est.scope(&plan_of("SELECT * FROM t a JOIN s b ON a.id = b.id"));
        assert!(scope.resolve("a.grp").is_some());
        assert!(scope.resolve("b.name").is_some());
        assert!(scope.resolve("name").is_some(), "unique bare name resolves");
        assert!(
            scope.resolve("id").is_none(),
            "ambiguous bare name does not"
        );
        assert!(scope.resolve("a.nope").is_none());
    }

    #[test]
    fn range_filters_interpolate_against_min_max() {
        let catalog = catalog();
        let est = Estimator::new(&catalog);
        // t.id spans 0..=999 over 1000 rows: min = 0, max = 999.
        // id < 250 → (250 − 0) / (999 − 0) of 1000 rows = 250.25025…
        let rows = est
            .rows(&plan_of("SELECT id FROM t WHERE id < 250"))
            .unwrap();
        assert!((rows - 1000.0 * 250.0 / 999.0).abs() < 1e-6, "{rows}");
        // id > 899 → 1 − 899/999 of 1000 rows = 100.1001…
        let rows = est
            .rows(&plan_of("SELECT id FROM t WHERE id > 899"))
            .unwrap();
        assert!((rows - 1000.0 * 100.0 / 999.0).abs() < 1e-6, "{rows}");
        // A flipped literal prices like its oriented form: 250 > id ≡ id < 250.
        let rows = est
            .rows(&plan_of("SELECT id FROM t WHERE 250 > id"))
            .unwrap();
        assert!((rows - 1000.0 * 250.0 / 999.0).abs() < 1e-6, "{rows}");
    }

    #[test]
    fn out_of_range_literals_clamp() {
        let catalog = catalog();
        let est = Estimator::new(&catalog);
        // Literal below min: fraction clamps to 0, then the global
        // MIN_SELECTIVITY floor (1e-4) applies → 0.1 rows.
        let rows = est
            .rows(&plan_of("SELECT id FROM t WHERE id < -5"))
            .unwrap();
        assert!((rows - 1000.0 * 1e-4).abs() < 1e-9, "{rows}");
        // Literal above max: everything qualifies.
        let rows = est
            .rows(&plan_of("SELECT id FROM t WHERE id < 5000"))
            .unwrap();
        assert!((rows - 1000.0).abs() < 1e-9, "{rows}");
    }

    #[test]
    fn range_without_usable_bounds_uses_the_default() {
        let catalog = catalog();
        let est = Estimator::new(&catalog);
        // s.name is VARCHAR: ANALYZE records no numeric bounds, so a range
        // over it prices at the fixed default (10 × 1/3).
        let rows = est
            .rows(&plan_of("SELECT id FROM s WHERE name > 'n5'"))
            .unwrap();
        assert!((rows - 10.0 / 3.0).abs() < 1e-9, "{rows}");
    }

    #[test]
    fn limit_caps_rows() {
        let catalog = catalog();
        let est = Estimator::new(&catalog);
        assert_eq!(est.rows(&plan_of("SELECT id FROM t LIMIT 7")), Some(7.0));
    }
}
