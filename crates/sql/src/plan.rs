//! Logical plans and the AST → plan lowering.
//!
//! The plan is deliberately simple — the SP engine of the paper is an off-the-shelf
//! relational engine, so the reproduction only needs the classical operators:
//! scan, filter, join, project, aggregate, sort, distinct and limit. Subqueries stay
//! embedded in expressions and are planned recursively by the executor.

use serde::{Deserialize, Serialize};

use crate::ast::{is_aggregate_name, Expr, JoinKind, Literal, Query, SelectItem};
use crate::{Result, SqlError};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFunc {
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `COUNT(expr)` / `COUNT(*)`
    Count,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

impl AggFunc {
    /// Parses an aggregate function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "COUNT" => Some(AggFunc::Count),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

/// One aggregate computation within an [`LogicalPlan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// The argument (None for `COUNT(*)`).
    pub arg: Option<Expr>,
    /// `DISTINCT` qualifier.
    pub distinct: bool,
    /// Output column name (the rendered call text, e.g. `SUM((a * b))`).
    pub name: String,
}

/// One sort key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SortKey {
    /// Sort expression (usually a column reference after projection).
    pub expr: Expr,
    /// Descending order.
    pub desc: bool,
}

/// A projection item: either a wildcard (expanded by the executor against the input
/// schema) or a named expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProjectionItem {
    /// `*`
    Wildcard,
    /// A named expression.
    Named {
        /// The expression to evaluate.
        expr: Expr,
        /// The output column name.
        name: String,
    },
}

/// A logical query plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogicalPlan {
    /// Scan a base table.
    Scan {
        /// Table name.
        table: String,
        /// Optional alias under which columns are qualified.
        alias: Option<String>,
    },
    /// Filter rows by a predicate.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate expression.
        predicate: Expr,
    },
    /// Join two inputs.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join kind.
        kind: JoinKind,
        /// ON condition (`None` = cross join; implicit-join predicates stay in the
        /// WHERE filter above).
        on: Option<Expr>,
    },
    /// Compute output expressions.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Projection items.
        items: Vec<ProjectionItem>,
    },
    /// Group and aggregate.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping expressions with their output names.
        group_by: Vec<(Expr, String)>,
        /// Aggregate computations.
        aggregates: Vec<AggregateExpr>,
    },
    /// Sort rows.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys, most significant first.
        keys: Vec<SortKey>,
    },
    /// Remove duplicate rows.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row count.
        n: u64,
    },
}

impl LogicalPlan {
    /// The plan with every [`Expr::Param`] bound to its literal (see
    /// [`Expr::bind_params`]). Names derived from expressions, such as an
    /// aggregate's output name, keep the `$i` text they were built with, so
    /// every reference to them still resolves.
    pub fn bind_params(&self, params: &[Literal]) -> Result<LogicalPlan> {
        let bind = |e: &Expr| e.bind_params(params);
        let input = |plan: &LogicalPlan| plan.bind_params(params).map(Box::new);
        Ok(match self {
            LogicalPlan::Scan { .. } => self.clone(),
            LogicalPlan::Filter {
                input: inner,
                predicate,
            } => LogicalPlan::Filter {
                input: input(inner)?,
                predicate: bind(predicate)?,
            },
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
            } => LogicalPlan::Join {
                left: input(left)?,
                right: input(right)?,
                kind: *kind,
                on: on.as_ref().map(bind).transpose()?,
            },
            LogicalPlan::Project {
                input: inner,
                items,
            } => LogicalPlan::Project {
                input: input(inner)?,
                items: (items.iter())
                    .map(|item| {
                        Ok(match item {
                            ProjectionItem::Wildcard => ProjectionItem::Wildcard,
                            ProjectionItem::Named { expr, name } => ProjectionItem::Named {
                                expr: bind(expr)?,
                                name: name.clone(),
                            },
                        })
                    })
                    .collect::<Result<_>>()?,
            },
            LogicalPlan::Aggregate {
                input: inner,
                group_by,
                aggregates,
            } => LogicalPlan::Aggregate {
                input: input(inner)?,
                group_by: (group_by.iter())
                    .map(|(expr, name)| Ok((bind(expr)?, name.clone())))
                    .collect::<Result<_>>()?,
                aggregates: (aggregates.iter())
                    .map(|agg| {
                        Ok(AggregateExpr {
                            func: agg.func,
                            arg: agg.arg.as_ref().map(bind).transpose()?,
                            distinct: agg.distinct,
                            name: agg.name.clone(),
                        })
                    })
                    .collect::<Result<_>>()?,
            },
            LogicalPlan::Sort { input: inner, keys } => LogicalPlan::Sort {
                input: input(inner)?,
                keys: (keys.iter())
                    .map(|key| {
                        Ok(SortKey {
                            expr: bind(&key.expr)?,
                            desc: key.desc,
                        })
                    })
                    .collect::<Result<_>>()?,
            },
            LogicalPlan::Distinct { input: inner } => LogicalPlan::Distinct {
                input: input(inner)?,
            },
            LogicalPlan::Limit { input: inner, n } => LogicalPlan::Limit {
                input: input(inner)?,
                n: *n,
            },
        })
    }

    /// A compact single-line description of the plan tree (for logs and tests).
    pub fn describe(&self) -> String {
        match self {
            LogicalPlan::Scan { table, alias } => match alias {
                Some(a) => format!("Scan({table} AS {a})"),
                None => format!("Scan({table})"),
            },
            LogicalPlan::Filter { input, .. } => format!("Filter -> {}", input.describe()),
            LogicalPlan::Join {
                left, right, kind, ..
            } => {
                format!("Join[{kind:?}]({}, {})", left.describe(), right.describe())
            }
            LogicalPlan::Project { input, items } => {
                format!("Project[{}] -> {}", items.len(), input.describe())
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => format!(
                "Aggregate[groups={}, aggs={}] -> {}",
                group_by.len(),
                aggregates.len(),
                input.describe()
            ),
            LogicalPlan::Sort { input, keys } => {
                format!("Sort[{}] -> {}", keys.len(), input.describe())
            }
            LogicalPlan::Distinct { input } => format!("Distinct -> {}", input.describe()),
            LogicalPlan::Limit { input, n } => format!("Limit[{n}] -> {}", input.describe()),
        }
    }
}

/// Lowers parsed queries into logical plans.
pub struct PlanBuilder;

impl PlanBuilder {
    /// Builds a logical plan for a SELECT query.
    pub fn build(query: &Query) -> Result<LogicalPlan> {
        if query.projections.is_empty() {
            return Err(SqlError::Plan {
                detail: "SELECT list is empty".into(),
            });
        }
        if query.from.is_empty() {
            // SELECT without FROM: model as a projection over a single-row scan of
            // nothing — unsupported for now, the workload never needs it.
            return Err(SqlError::Unsupported {
                feature: "SELECT without FROM".into(),
            });
        }

        // FROM: cross-join the comma-separated tables, then apply explicit JOINs.
        let mut plan = LogicalPlan::Scan {
            table: query.from[0].name.clone(),
            alias: query.from[0].alias.clone(),
        };
        for table in &query.from[1..] {
            plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(LogicalPlan::Scan {
                    table: table.name.clone(),
                    alias: table.alias.clone(),
                }),
                kind: JoinKind::Inner,
                on: None,
            };
        }
        for join in &query.joins {
            plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(LogicalPlan::Scan {
                    table: join.table.name.clone(),
                    alias: join.table.alias.clone(),
                }),
                kind: join.kind,
                on: Some(join.on.clone()),
            };
        }

        // WHERE.
        if let Some(pred) = &query.where_clause {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: pred.clone(),
            };
        }

        // Aggregation.
        let has_aggregates = query
            .projections
            .iter()
            .any(|p| matches!(p, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
            || query
                .having
                .as_ref()
                .map(|h| h.contains_aggregate())
                .unwrap_or(false)
            || !query.group_by.is_empty();

        let mut projection_items: Vec<ProjectionItem> = Vec::new();

        if has_aggregates {
            // Collect every distinct aggregate call appearing in the projections,
            // HAVING and ORDER BY.
            let mut aggregates: Vec<AggregateExpr> = Vec::new();
            for item in &query.projections {
                if let SelectItem::Expr { expr, .. } = item {
                    collect_aggregates(expr, &mut aggregates)?;
                }
            }
            if let Some(h) = &query.having {
                collect_aggregates(h, &mut aggregates)?;
            }
            for o in &query.order_by {
                collect_aggregates(&o.expr, &mut aggregates)?;
            }

            let group_by: Vec<(Expr, String)> = query
                .group_by
                .iter()
                .map(|e| (e.clone(), group_output_name(e)))
                .collect();

            plan = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_by: group_by.clone(),
                aggregates: aggregates.clone(),
            };

            // HAVING → filter above the aggregate, with aggregate calls replaced by
            // references to the aggregate output columns.
            if let Some(h) = &query.having {
                let rewritten = replace_aggregates(h, &aggregates);
                plan = LogicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: rewritten,
                };
            }

            // Projections reference aggregate output columns.
            for item in &query.projections {
                match item {
                    SelectItem::Wildcard => {
                        return Err(SqlError::Plan {
                            detail: "SELECT * cannot be combined with GROUP BY/aggregates".into(),
                        })
                    }
                    SelectItem::Expr { expr, alias } => {
                        let rewritten = replace_aggregates(expr, &aggregates);
                        let name = alias.clone().unwrap_or_else(|| output_name(expr));
                        projection_items.push(ProjectionItem::Named {
                            expr: rewritten,
                            name,
                        });
                    }
                }
            }

            plan = LogicalPlan::Project {
                input: Box::new(plan),
                items: projection_items,
            };

            // ORDER BY after projection; aggregate calls become column references,
            // aliases already resolve against the projection output.
            if !query.order_by.is_empty() {
                let keys = query
                    .order_by
                    .iter()
                    .map(|o| SortKey {
                        expr: replace_aggregates(&o.expr, &aggregates),
                        desc: o.desc,
                    })
                    .collect();
                plan = LogicalPlan::Sort {
                    input: Box::new(plan),
                    keys,
                };
            }
        } else {
            // No aggregation. ORDER BY runs *below* the projection (so it can sort
            // on columns that are not projected), with alias references substituted
            // by their defining expressions so `ORDER BY revenue` still works when
            // `revenue` is a projection alias.
            if !query.order_by.is_empty() {
                let aliases: Vec<(String, Expr)> = query
                    .projections
                    .iter()
                    .filter_map(|p| match p {
                        SelectItem::Expr {
                            expr,
                            alias: Some(alias),
                        } => Some((alias.to_ascii_lowercase(), expr.clone())),
                        _ => None,
                    })
                    .collect();
                let keys = query
                    .order_by
                    .iter()
                    .map(|o| SortKey {
                        expr: substitute_aliases(&o.expr, &aliases),
                        desc: o.desc,
                    })
                    .collect();
                plan = LogicalPlan::Sort {
                    input: Box::new(plan),
                    keys,
                };
            }

            let only_wildcard = query.projections.len() == 1
                && matches!(query.projections[0], SelectItem::Wildcard);
            if !only_wildcard {
                for item in &query.projections {
                    match item {
                        SelectItem::Wildcard => projection_items.push(ProjectionItem::Wildcard),
                        SelectItem::Expr { expr, alias } => {
                            let name = alias.clone().unwrap_or_else(|| output_name(expr));
                            projection_items.push(ProjectionItem::Named {
                                expr: expr.clone(),
                                name,
                            });
                        }
                    }
                }
                plan = LogicalPlan::Project {
                    input: Box::new(plan),
                    items: projection_items,
                };
            }
        }

        if query.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }
        if let Some(n) = query.limit {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(plan)
    }
}

/// Replaces references to projection aliases with the aliased expressions (used to
/// push ORDER BY below the projection in non-aggregate queries).
fn substitute_aliases(expr: &Expr, aliases: &[(String, Expr)]) -> Expr {
    if let Expr::Column(name) = expr {
        if let Some((_, replacement)) = aliases
            .iter()
            .find(|(alias, _)| alias.eq_ignore_ascii_case(name))
        {
            return replacement.clone();
        }
    }
    match expr {
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(substitute_aliases(expr, aliases)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(substitute_aliases(left, aliases)),
            op: *op,
            right: Box::new(substitute_aliases(right, aliases)),
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
                .map(|a| substitute_aliases(a, aliases))
                .collect(),
            distinct: *distinct,
            wildcard: *wildcard,
        },
        other => other.clone(),
    }
}

/// The output column name for an un-aliased projection expression: bare column
/// references keep their (unqualified) name, everything else uses the rendered text.
fn output_name(expr: &Expr) -> String {
    match expr {
        Expr::Column(name) => name.rsplit('.').next().unwrap_or(name).to_string(),
        other => other.to_string(),
    }
}

/// Output name for a grouping expression: keep the full (possibly qualified) name so
/// projection references like `c.name` still resolve.
fn group_output_name(expr: &Expr) -> String {
    match expr {
        Expr::Column(name) => name.clone(),
        other => other.to_string(),
    }
}

/// Recursively collects aggregate calls (deduplicated by rendered text).
fn collect_aggregates(expr: &Expr, out: &mut Vec<AggregateExpr>) -> Result<()> {
    match expr {
        Expr::Function {
            name,
            args,
            distinct,
            wildcard,
        } if is_aggregate_name(name) => {
            let func = AggFunc::from_name(name).expect("checked by is_aggregate_name");
            if args.iter().any(|a| a.contains_aggregate()) {
                return Err(SqlError::Plan {
                    detail: format!("nested aggregate in {expr}"),
                });
            }
            let rendered = expr.to_string();
            if !out.iter().any(|a| a.name == rendered) {
                out.push(AggregateExpr {
                    func,
                    arg: if *wildcard {
                        None
                    } else {
                        args.first().cloned()
                    },
                    distinct: *distinct,
                    name: rendered,
                });
            }
            Ok(())
        }
        Expr::Unary { expr, .. } => collect_aggregates(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out)?;
            collect_aggregates(right, out)
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_aggregates(a, out)?;
            }
            Ok(())
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            if let Some(o) = operand {
                collect_aggregates(o, out)?;
            }
            for (w, t) in branches {
                collect_aggregates(w, out)?;
                collect_aggregates(t, out)?;
            }
            if let Some(e) = else_expr {
                collect_aggregates(e, out)?;
            }
            Ok(())
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_aggregates(expr, out)?;
            collect_aggregates(low, out)?;
            collect_aggregates(high, out)
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out)?;
            for e in list {
                collect_aggregates(e, out)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Replaces aggregate calls with references to the aggregate output columns.
fn replace_aggregates(expr: &Expr, aggregates: &[AggregateExpr]) -> Expr {
    let rendered = expr.to_string();
    if let Some(agg) = aggregates.iter().find(|a| a.name == rendered) {
        return Expr::Column(agg.name.clone());
    }
    match expr {
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(replace_aggregates(expr, aggregates)),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(replace_aggregates(left, aggregates)),
            op: *op,
            right: Box::new(replace_aggregates(right, aggregates)),
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
                .map(|a| replace_aggregates(a, aggregates))
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
                .map(|o| Box::new(replace_aggregates(o, aggregates))),
            branches: branches
                .iter()
                .map(|(w, t)| {
                    (
                        replace_aggregates(w, aggregates),
                        replace_aggregates(t, aggregates),
                    )
                })
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|e| Box::new(replace_aggregates(e, aggregates))),
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(replace_aggregates(expr, aggregates)),
            low: Box::new(replace_aggregates(low, aggregates)),
            high: Box::new(replace_aggregates(high, aggregates)),
            negated: *negated,
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_sql;
    use crate::Statement;

    fn plan(sql: &str) -> LogicalPlan {
        match parse_sql(sql).unwrap() {
            Statement::Query(q) => PlanBuilder::build(&q).unwrap(),
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn simple_scan_project() {
        let p = plan("SELECT a, b FROM t");
        assert_eq!(p.describe(), "Project[2] -> Scan(t)");
    }

    #[test]
    fn wildcard_only_skips_projection() {
        let p = plan("SELECT * FROM t WHERE a > 1");
        assert_eq!(p.describe(), "Filter -> Scan(t)");
    }

    #[test]
    fn join_filter_sort_limit() {
        let p = plan("SELECT a FROM t JOIN s ON t.id = s.id WHERE b > 1 ORDER BY a LIMIT 5");
        let d = p.describe();
        assert!(
            d.starts_with("Limit[5] -> Project[1] -> Sort[1] -> Filter -> Join[Inner]"),
            "unexpected plan: {d}"
        );
    }

    #[test]
    fn implicit_cross_join() {
        let p = plan("SELECT a FROM t, s WHERE t.id = s.id");
        assert!(p.describe().contains("Join[Inner](Scan(t), Scan(s))"));
    }

    #[test]
    fn aggregation_plan() {
        let p = plan(
            "SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept HAVING SUM(salary) > 100 ORDER BY total DESC",
        );
        let d = p.describe();
        assert!(
            d.contains("Sort[1] -> Project[2] -> Filter -> Aggregate[groups=1, aggs=1]"),
            "unexpected plan: {d}"
        );
    }

    #[test]
    fn aggregates_deduplicated() {
        match plan("SELECT SUM(x), SUM(x) + 1, AVG(y) FROM t") {
            LogicalPlan::Project { input, items } => {
                assert_eq!(items.len(), 3);
                match *input {
                    LogicalPlan::Aggregate { aggregates, .. } => {
                        assert_eq!(aggregates.len(), 2); // SUM(x) and AVG(y)
                    }
                    other => panic!("expected aggregate, got {}", other.describe()),
                }
            }
            other => panic!("expected project, got {}", other.describe()),
        }
    }

    #[test]
    fn count_star_has_no_arg() {
        match plan("SELECT COUNT(*) FROM t") {
            LogicalPlan::Project { input, .. } => match *input {
                LogicalPlan::Aggregate { aggregates, .. } => {
                    assert_eq!(aggregates[0].func, AggFunc::Count);
                    assert!(aggregates[0].arg.is_none());
                }
                other => panic!("{}", other.describe()),
            },
            other => panic!("{}", other.describe()),
        }
    }

    #[test]
    fn distinct_plan() {
        let p = plan("SELECT DISTINCT a FROM t");
        assert_eq!(p.describe(), "Distinct -> Project[1] -> Scan(t)");
    }

    #[test]
    fn group_by_without_explicit_aggregate_in_projection() {
        let p = plan("SELECT dept FROM emp GROUP BY dept");
        assert!(p.describe().contains("Aggregate[groups=1, aggs=0]"));
    }

    #[test]
    fn wildcard_with_group_by_rejected() {
        let parsed = parse_sql("SELECT * FROM t GROUP BY a").unwrap();
        match parsed {
            Statement::Query(q) => assert!(PlanBuilder::build(&q).is_err()),
            _ => panic!(),
        }
    }

    #[test]
    fn nested_aggregates_rejected() {
        let parsed = parse_sql("SELECT SUM(AVG(x)) FROM t").unwrap();
        match parsed {
            Statement::Query(q) => assert!(PlanBuilder::build(&q).is_err()),
            _ => panic!(),
        }
    }

    #[test]
    fn projection_names() {
        match plan("SELECT t.a, a * 2 AS doubled, b FROM t") {
            LogicalPlan::Project { items, .. } => {
                let names: Vec<&str> = items
                    .iter()
                    .map(|i| match i {
                        ProjectionItem::Named { name, .. } => name.as_str(),
                        ProjectionItem::Wildcard => "*",
                    })
                    .collect();
                assert_eq!(names, vec!["a", "doubled", "b"]);
            }
            other => panic!("{}", other.describe()),
        }
    }
}
