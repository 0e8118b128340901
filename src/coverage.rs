//! The query-coverage analyzer behind experiment E5.
//!
//! The paper's headline comparison is that CryptDB-style systems support only a
//! handful of TPC-H queries natively (4 of 22 "without significantly involving the
//! DO or extensive precomputation"), while SDB's interoperable operators support
//! all of them. This module reproduces that comparison mechanically:
//!
//! * the **required operations** over sensitive columns are extracted from the
//!   query AST (equality, range, arithmetic, aggregate-over-arithmetic, …);
//! * **onion support** is decided by the classic onion rules (each operation class
//!   needs its own encryption, and outputs of one onion cannot feed another);
//! * **SDB support** is decided by actually running the SDB rewriter from
//!   `sdb-proxy` and seeing whether it produces a server query.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

use rand::SeedableRng;

use sdb_crypto::Drbg;
use sdb_proxy::meta::TableMeta;
use sdb_proxy::rewriter::Rewriter;
use sdb_proxy::{KeyStore, QuerySession};
use sdb_sql::ast::{BinaryOp, Expr, Query, SelectItem};

/// An operation over sensitive data that a query requires the server to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RequiredOperation {
    /// Equality predicate / equi-join / GROUP BY key.
    Equality,
    /// Order comparison (range predicate, ORDER BY, MIN/MAX).
    Order,
    /// Additive aggregation of a bare column (SUM/AVG of a column).
    AdditiveAggregate,
    /// Arithmetic between columns (or column and constant) *before* any aggregate:
    /// `a * b`, `a + 1`, `price * (1 - discount)` …
    Arithmetic,
    /// Aggregation of an arithmetic expression (SUM of a product, …) — requires the
    /// output of one operator to feed another.
    AggregateOfArithmetic,
    /// Comparison of an arithmetic result (e.g. `a - b > 5`).
    ComparisonOfArithmetic,
    /// String pattern matching (LIKE) over a sensitive column.
    Like,
    /// Subquery over sensitive data.
    Subquery,
}

/// Whether a system can run the query natively (all sensitive-data operations
/// executed at the server, no extra client post-processing beyond final decryption).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemSupport {
    /// Fully supported at the server.
    Native,
    /// Needs the DO to take over part of the computation.
    RequiresClient {
        /// Why.
        reason: String,
    },
}

impl SystemSupport {
    /// True for [`SystemSupport::Native`].
    pub fn is_native(&self) -> bool {
        matches!(self, SystemSupport::Native)
    }
}

/// The analyzer's verdict for one query.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Operations over sensitive columns the query requires.
    pub required: BTreeSet<RequiredOperation>,
    /// Whether the onion (CryptDB-style) baseline can run it natively.
    pub onion: SystemSupport,
    /// Whether SDB can run it natively (decided by the real rewriter).
    pub sdb: SystemSupport,
}

/// Analyzes one query against a set of table metadata.
pub fn analyze_query(
    query: &Query,
    keystore: &KeyStore,
    metas: &BTreeMap<String, TableMeta>,
) -> CoverageReport {
    let required = required_operations(query, metas);
    let onion = onion_support(&required);
    let sdb = sdb_support(query, keystore, metas);
    CoverageReport {
        required,
        onion,
        sdb,
    }
}

/// Decides onion support from the required-operation set: every operation class
/// must be served by a single onion, and no operator output may feed another.
fn onion_support(required: &BTreeSet<RequiredOperation>) -> SystemSupport {
    for op in required {
        match op {
            RequiredOperation::Equality
            | RequiredOperation::Order
            | RequiredOperation::AdditiveAggregate => {}
            RequiredOperation::Arithmetic => {
                return SystemSupport::RequiresClient {
                    reason: "arithmetic over encrypted columns has no onion".into(),
                }
            }
            RequiredOperation::AggregateOfArithmetic => {
                return SystemSupport::RequiresClient {
                    reason: "aggregate of an arithmetic expression needs interoperable operators"
                        .into(),
                }
            }
            RequiredOperation::ComparisonOfArithmetic => {
                return SystemSupport::RequiresClient {
                    reason: "comparison of a computed value needs interoperable operators".into(),
                }
            }
            RequiredOperation::Like => {
                return SystemSupport::RequiresClient {
                    reason: "LIKE over encrypted strings".into(),
                }
            }
            RequiredOperation::Subquery => {
                return SystemSupport::RequiresClient {
                    reason: "subquery over sensitive data".into(),
                }
            }
        }
    }
    SystemSupport::Native
}

/// Decides SDB support by running the actual rewriter.
fn sdb_support(
    query: &Query,
    keystore: &KeyStore,
    metas: &BTreeMap<String, TableMeta>,
) -> SystemSupport {
    let session = Arc::new(QuerySession::new());
    let key_updates = sdb_crypto::KeyUpdateMemo::default();
    let n_text = keystore.system().n().to_string();
    let rewriter = Rewriter::new(
        keystore,
        metas,
        &key_updates,
        &n_text,
        session,
        Drbg::seed_from_u64(7),
    );
    match rewriter.rewrite_query(query) {
        Ok(_) => SystemSupport::Native,
        Err(e) => SystemSupport::RequiresClient {
            reason: e.to_string(),
        },
    }
}

/// Extracts the operations over sensitive columns a query requires.
pub fn required_operations(
    query: &Query,
    metas: &BTreeMap<String, TableMeta>,
) -> BTreeSet<RequiredOperation> {
    let mut out = BTreeSet::new();
    let sensitive = |expr: &Expr| -> bool { expr_is_sensitive(expr, query, metas) };

    // Projections.
    for item in &query.projections {
        if let SelectItem::Expr { expr, .. } = item {
            collect_from_projection(expr, &sensitive, &mut out);
        }
    }
    // WHERE and JOIN conditions.
    let mut predicates: Vec<&Expr> = query.where_clause.iter().collect();
    predicates.extend(query.joins.iter().map(|j| &j.on));
    for predicate in predicates {
        collect_from_predicate(predicate, &sensitive, &mut out);
    }
    // GROUP BY keys.
    for key in &query.group_by {
        if sensitive(key) {
            out.insert(RequiredOperation::Equality);
            if !matches!(key, Expr::Column(_)) {
                out.insert(RequiredOperation::Arithmetic);
            }
        }
    }
    // HAVING behaves like a predicate over aggregates.
    if let Some(having) = &query.having {
        collect_from_predicate(having, &sensitive, &mut out);
    }
    // ORDER BY keys need order.
    for key in &query.order_by {
        if sensitive(&key.expr) {
            out.insert(RequiredOperation::Order);
        }
    }
    out
}

fn collect_from_projection(
    expr: &Expr,
    sensitive: &dyn Fn(&Expr) -> bool,
    out: &mut BTreeSet<RequiredOperation>,
) {
    match expr {
        Expr::Function { name, args, .. } if sdb_sql::ast::is_aggregate_name(name) => {
            if let Some(arg) = args.first() {
                if sensitive(arg) {
                    match name.to_ascii_uppercase().as_str() {
                        "MIN" | "MAX" => {
                            out.insert(RequiredOperation::Order);
                        }
                        _ => {
                            out.insert(RequiredOperation::AdditiveAggregate);
                        }
                    }
                    if !matches!(arg, Expr::Column(_)) {
                        out.insert(RequiredOperation::AggregateOfArithmetic);
                    }
                }
            }
        }
        Expr::Binary { left, op, right } if op.is_arithmetic() => {
            if sensitive(expr) {
                out.insert(RequiredOperation::Arithmetic);
            }
            collect_from_projection(left, sensitive, out);
            collect_from_projection(right, sensitive, out);
        }
        Expr::Binary { left, right, .. } => {
            collect_from_projection(left, sensitive, out);
            collect_from_projection(right, sensitive, out);
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            if let Some(operand) = operand {
                collect_from_projection(operand, sensitive, out);
            }
            for (when, then) in branches {
                collect_from_predicate(when, sensitive, out);
                collect_from_projection(then, sensitive, out);
            }
            if let Some(else_expr) = else_expr {
                collect_from_projection(else_expr, sensitive, out);
            }
        }
        Expr::Unary { expr, .. } => collect_from_projection(expr, sensitive, out),
        Expr::Function { args, .. } => {
            for arg in args {
                collect_from_projection(arg, sensitive, out);
            }
        }
        _ => {}
    }
}

fn collect_from_predicate(
    expr: &Expr,
    sensitive: &dyn Fn(&Expr) -> bool,
    out: &mut BTreeSet<RequiredOperation>,
) {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And | BinaryOp::Or,
            right,
        } => {
            collect_from_predicate(left, sensitive, out);
            collect_from_predicate(right, sensitive, out);
        }
        Expr::Unary { expr, .. } => collect_from_predicate(expr, sensitive, out),
        Expr::Binary { left, op, right } if op.is_comparison() => {
            let involved = sensitive(left) || sensitive(right);
            if involved {
                if matches!(op, BinaryOp::Eq | BinaryOp::NotEq) {
                    out.insert(RequiredOperation::Equality);
                } else {
                    out.insert(RequiredOperation::Order);
                }
                let computed = !matches!(left.as_ref(), Expr::Column(_) | Expr::Literal(_))
                    || !matches!(right.as_ref(), Expr::Column(_) | Expr::Literal(_));
                if computed {
                    out.insert(RequiredOperation::ComparisonOfArithmetic);
                }
                // Aggregates inside HAVING-style predicates.
                if left.contains_aggregate() || right.contains_aggregate() {
                    out.insert(RequiredOperation::AdditiveAggregate);
                }
            }
        }
        Expr::Between {
            expr: tested,
            low,
            high,
            ..
        } if (sensitive(tested) || sensitive(low) || sensitive(high)) => {
            out.insert(RequiredOperation::Order);
            if !matches!(tested.as_ref(), Expr::Column(_)) {
                out.insert(RequiredOperation::ComparisonOfArithmetic);
            }
        }
        Expr::InList { expr: tested, .. } if sensitive(tested) => {
            out.insert(RequiredOperation::Equality);
        }
        Expr::Like { expr: tested, .. } if sensitive(tested) => {
            out.insert(RequiredOperation::Like);
        }
        Expr::InSubquery {
            expr: tested,
            query,
            ..
        } if (sensitive(tested) || query_has_sensitive(query)) => {
            out.insert(RequiredOperation::Subquery);
        }
        Expr::Exists { query, .. } if query_has_sensitive(query) => {
            out.insert(RequiredOperation::Subquery);
        }
        Expr::ScalarSubquery(query) if query_has_sensitive(query) => {
            out.insert(RequiredOperation::Subquery);
        }
        _ => {}
    }
}

/// Conservative "does this subquery reference sensitive data" check used by the
/// analyzer (the rewriter applies the precise version).
fn query_has_sensitive(_query: &Query) -> bool {
    // The analyzer is table-metadata agnostic inside subqueries; the outer
    // `expr_is_sensitive` closure cannot see the subquery's own FROM list, so we
    // treat subqueries as sensitive only when the surrounding comparison is. The
    // precise decision is made by the SDB rewriter (which *does* resolve them).
    false
}

fn expr_is_sensitive(expr: &Expr, query: &Query, metas: &BTreeMap<String, TableMeta>) -> bool {
    let mut columns = Vec::new();
    expr.referenced_columns(&mut columns);
    // Resolve against the FROM/JOIN tables (by alias or table name).
    let bindings: Vec<(String, &TableMeta)> = query
        .from
        .iter()
        .chain(query.joins.iter().map(|j| &j.table))
        .filter_map(|t| {
            metas.get(&t.name.to_ascii_lowercase()).map(|m| {
                (
                    t.alias
                        .clone()
                        .unwrap_or_else(|| t.name.to_ascii_lowercase()),
                    m,
                )
            })
        })
        .collect();
    columns.iter().any(|column| {
        let lower = column.to_ascii_lowercase();
        let (qualifier, bare) = match lower.split_once('.') {
            Some((q, b)) => (Some(q.to_string()), b.to_string()),
            None => (None, lower.clone()),
        };
        bindings.iter().any(|(visible, meta)| {
            if let Some(q) = &qualifier {
                if q != visible {
                    return false;
                }
            }
            meta.column(&bare).map(|c| c.sensitive).unwrap_or(false)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_crypto::KeyConfig;
    use sdb_sql::{parse_sql, Statement};
    use sdb_storage::{ColumnDef, DataType, Schema};

    struct Fixture {
        keystore: KeyStore,
        metas: BTreeMap<String, TableMeta>,
    }

    fn fixture() -> Fixture {
        let mut rng = Drbg::seed_from_u64(3);
        let mut keystore = KeyStore::generate(KeyConfig::TEST, &mut rng).unwrap();
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::sensitive("price", DataType::Decimal { scale: 2 }),
            ColumnDef::sensitive("qty", DataType::Int),
            ColumnDef::public("flag", DataType::Varchar),
        ]);
        let meta = TableMeta::from_schema("items", &schema);
        keystore
            .register_table(&mut rng, "items", &["price".into(), "qty".into()])
            .unwrap();
        let mut metas = BTreeMap::new();
        metas.insert("items".into(), meta);
        Fixture { keystore, metas }
    }

    fn analyze(f: &Fixture, sql: &str) -> CoverageReport {
        let Statement::Query(q) = parse_sql(sql).unwrap() else {
            panic!("expected query")
        };
        analyze_query(&q, &f.keystore, &f.metas)
    }

    #[test]
    fn simple_equality_and_range_supported_by_both() {
        let f = fixture();
        let report = analyze(&f, "SELECT id FROM items WHERE qty = 5");
        assert!(report.required.contains(&RequiredOperation::Equality));
        assert!(report.onion.is_native());
        assert!(report.sdb.is_native());

        let report = analyze(&f, "SELECT id FROM items WHERE price > 10.00");
        assert!(report.required.contains(&RequiredOperation::Order));
        assert!(report.onion.is_native());
        assert!(report.sdb.is_native());
    }

    #[test]
    fn plain_sum_supported_by_both() {
        let f = fixture();
        let report = analyze(&f, "SELECT SUM(price) FROM items");
        assert!(report
            .required
            .contains(&RequiredOperation::AdditiveAggregate));
        assert!(report.onion.is_native());
        assert!(report.sdb.is_native());
    }

    #[test]
    fn interoperability_separates_the_systems() {
        let f = fixture();
        // The canonical TPC-H Q1 / Q6 shape: aggregate of a product with a range
        // filter — needs multiplication *and* addition *and* comparison on the same
        // data, which is exactly where onions stop and SDB continues.
        let report = analyze(
            &f,
            "SELECT SUM(price * qty) AS revenue FROM items WHERE price BETWEEN 1 AND 100",
        );
        assert!(report
            .required
            .contains(&RequiredOperation::AggregateOfArithmetic));
        assert!(!report.onion.is_native());
        assert!(report.sdb.is_native(), "SDB verdict: {:?}", report.sdb);

        let report = analyze(&f, "SELECT id FROM items WHERE price - qty > 100");
        assert!(report
            .required
            .contains(&RequiredOperation::ComparisonOfArithmetic));
        assert!(!report.onion.is_native());
        assert!(report.sdb.is_native());

        let report = analyze(&f, "SELECT price * qty AS total FROM items");
        assert!(report.required.contains(&RequiredOperation::Arithmetic));
        assert!(!report.onion.is_native());
        assert!(report.sdb.is_native());
    }

    #[test]
    fn neither_supports_like_over_sensitive() {
        let mut f = fixture();
        // Add a sensitive string column.
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::sensitive("comment", DataType::Varchar),
        ]);
        f.metas
            .insert("notes".into(), TableMeta::from_schema("notes", &schema));
        let mut rng = Drbg::seed_from_u64(2);
        f.keystore.register_table(&mut rng, "notes", &[]).unwrap();

        let report = analyze(&f, "SELECT id FROM notes WHERE comment LIKE '%secret%'");
        assert!(report.required.contains(&RequiredOperation::Like));
        assert!(!report.onion.is_native());
        assert!(!report.sdb.is_native());
    }

    #[test]
    fn insensitive_queries_are_native_everywhere() {
        let f = fixture();
        let report = analyze(&f, "SELECT id, flag FROM items WHERE id < 10");
        assert!(report.required.is_empty());
        assert!(report.onion.is_native());
        assert!(report.sdb.is_native());
    }

    #[test]
    fn group_by_and_order_by_sensitive() {
        let f = fixture();
        let report = analyze(
            &f,
            "SELECT qty, COUNT(*) FROM items GROUP BY qty ORDER BY qty",
        );
        assert!(report.required.contains(&RequiredOperation::Equality));
        assert!(report.required.contains(&RequiredOperation::Order));
        assert!(report.onion.is_native());
        assert!(report.sdb.is_native());
    }
}
