//! The cost-based query optimizer.
//!
//! Sits between the logical planner ([`sdb_sql::plan::PlanBuilder`]) and the
//! physical planner ([`crate::planner::PhysicalPlanner`]): it rewrites a
//! logical plan using the catalog's `ANALYZE` statistics
//! ([`sdb_storage::TableStats`]) before operators are selected. Three
//! sub-modules:
//!
//! * [`cardinality`] — selectivity and row-count estimation;
//! * [`cost`] — the cost model, pricing oracle round trips first, wire
//!   bytes second, spill IO third and CPU last;
//! * [`join_order`] — dynamic-programming join ordering (greedy beyond
//!   [`join_order::MAX_DP_RELATIONS`] relations), always orienting the
//!   smaller estimated side as the hash-join build.
//!
//! ## What the optimizer will and will not do
//!
//! Join regions are only reordered when **every** relation involved has
//! statistics (no guessing) and the region's column order is *insulated* —
//! some wildcard-free projection or an aggregate sits above it, so reordered
//! join output columns can never leak into the result schema. Inside a
//! reordered region, single-table WHERE conjuncts push down below the joins
//! as selections on their leaf (legal in an all-inner region), so every join
//! builds and probes the post-selection cardinality the cost model priced;
//! column-free conjuncts stay in a filter above the region. Outside a
//! reordered region the syntactic plan runs untouched.
//!
//! **Row order.** Reordering preserves the result *set* byte for byte, but
//! the row order of a query without a total `ORDER BY` is unspecified (as in
//! SQL) and may differ between optimizer settings — ordered queries are
//! byte-identical. Because a `LIMIT` turns production order into a result
//! *set*, a region under a `LIMIT` with no `Sort` in between never reorders;
//! with a `Sort` in between it does, and only the membership of rows tied on
//! the full sort key at the cutoff is implementation-defined (exactly SQL's
//! top-k-with-ties latitude). `crates/engine/tests/optimizer_consistency.rs`
//! pins all of this with an optimizer-on/off × budget × parallelism matrix.
//!
//! The optimizer is on by default; [`crate::SpEngine::with_optimizer`] turns
//! it off (today's purely syntactic plans). `EXPLAIN <query>` renders the
//! chosen physical tree together with per-node row and cost estimates.

pub mod cardinality;
pub mod cost;
pub mod join_order;

use sdb_sql::ast::{Expr, JoinKind};
use sdb_sql::plan::{LogicalPlan, ProjectionItem};
use sdb_storage::Catalog;

use crate::operators::expr::{conjoin, split_conjuncts};
use crate::operators::oracle::collect_oracle_calls_all;
use cardinality::Estimator;
use cost::{Cost, CostModel};
use join_order::{eq_sides, expr_leaf_mask, flatten_inner_joins, order, to_plan, Conjunct, Leaf};

/// The cost-based optimizer. Holds a catalog reference (for statistics) and
/// the execution knobs the cost model prices against.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    model: CostModel,
    auto_analyze: bool,
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer over the catalog with default knobs.
    pub fn new(catalog: &'a Catalog) -> Self {
        Optimizer {
            catalog,
            model: CostModel {
                batch_size: crate::operators::DEFAULT_BATCH_SIZE,
                budget: None,
                oracle_batching: true,
            },
            auto_analyze: false,
        }
    }

    /// Sets the batch size the cost model assumes (with cross-batch
    /// batching off, oracle calls pay one round trip per batch).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.model.batch_size = batch_size.max(1);
        self
    }

    /// Sets whether the cost model assumes cross-batch oracle batching
    /// (default on, matching the engine): non-rank calls then price at one
    /// coalesced trip per flush window instead of one per batch.
    pub fn with_oracle_batching(mut self, batching: bool) -> Self {
        self.model.oracle_batching = batching;
        self
    }

    /// Sets the memory budget limit the cost model prices spills against.
    pub fn with_budget(mut self, budget: Option<usize>) -> Self {
        self.model.budget = budget;
        self
    }

    /// When enabled, tables without statistics are analyzed on first use
    /// during [`Optimizer::optimize`] (the `SDB_TEST_ANALYZE` CI mode).
    pub fn with_auto_analyze(mut self, auto: bool) -> Self {
        self.auto_analyze = auto;
        self
    }

    /// Optimizes a logical plan. With missing statistics (and
    /// auto-analyze off) the plan comes back unchanged.
    pub fn optimize(&self, plan: &LogicalPlan) -> LogicalPlan {
        if self.auto_analyze {
            let mut tables = Vec::new();
            scan_tables(plan, &mut tables);
            for table in tables {
                if self.catalog.table_stats(&table).is_none() {
                    // Missing tables fail later with a proper planning error.
                    let _ = self.catalog.analyze(&table);
                }
            }
        }
        self.rewrite(plan, false, false)
    }

    /// Recursive rewrite. `insulated` is true when a wildcard-free
    /// projection or an aggregate sits between this node and the plan root,
    /// so a join region's column order below here cannot reach the result
    /// schema. `bare_limit` is true when a `Limit` sits above with no `Sort`
    /// in between: the limit then keeps a prefix of the *production* order,
    /// so reordering below would change which rows survive the cutoff (a
    /// different result set, not just a different row order) — a `Sort`
    /// clears the hazard by pinning the order the limit cuts on.
    fn rewrite(&self, plan: &LogicalPlan, insulated: bool, bare_limit: bool) -> LogicalPlan {
        match plan {
            LogicalPlan::Scan { .. } => plan.clone(),
            LogicalPlan::Project { input, items } => {
                let shields = items
                    .iter()
                    .all(|item| matches!(item, ProjectionItem::Named { .. }));
                LogicalPlan::Project {
                    input: Box::new(self.rewrite(input, shields, bare_limit)),
                    items: items.clone(),
                }
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => LogicalPlan::Aggregate {
                // A bare limit above an aggregate cuts on group order, which
                // reordering below would change: the hazard persists.
                input: Box::new(self.rewrite(input, true, bare_limit)),
                group_by: group_by.clone(),
                aggregates: aggregates.clone(),
            },
            LogicalPlan::Filter { input, predicate } => {
                if insulated && !bare_limit && is_inner_join(input) {
                    if let Some(reordered) = self.try_reorder(Some(predicate), input) {
                        return reordered;
                    }
                }
                LogicalPlan::Filter {
                    input: Box::new(self.rewrite(input, insulated, bare_limit)),
                    predicate: predicate.clone(),
                }
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
            } => {
                if insulated && !bare_limit && *kind == JoinKind::Inner {
                    if let Some(reordered) = self.try_reorder(None, plan) {
                        return reordered;
                    }
                }
                LogicalPlan::Join {
                    left: Box::new(self.rewrite(left, insulated, bare_limit)),
                    right: Box::new(self.rewrite(right, insulated, bare_limit)),
                    kind: *kind,
                    on: on.clone(),
                }
            }
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                // The sort pins the order any limit above cuts on.
                input: Box::new(self.rewrite(input, insulated, false)),
                keys: keys.clone(),
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: Box::new(self.rewrite(input, insulated, bare_limit)),
            },
            LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
                input: Box::new(self.rewrite(input, insulated, true)),
                n: *n,
            },
        }
    }

    /// Attempts to reorder the inner-join region rooted at `join` (with the
    /// WHERE conjuncts of an optional filter directly above it). Returns
    /// `None` — leave the syntactic plan alone — when any relation lacks
    /// statistics or a predicate does not resolve cleanly.
    fn try_reorder(&self, filter: Option<&Expr>, join: &LogicalPlan) -> Option<LogicalPlan> {
        let mut leaf_plans = Vec::new();
        let mut pool: Vec<Expr> = Vec::new();
        flatten_inner_joins(join, &mut leaf_plans, &mut pool);
        let n = leaf_plans.len();
        if !(2..=32).contains(&n) {
            return None;
        }
        if let Some(filter) = filter {
            pool.extend(split_conjuncts(filter));
        }

        let estimator = Estimator::new(self.catalog);
        // The region-wide scope for selectivity estimation (covers every
        // base-table column below the join).
        let scope = estimator.scope(join);

        let mut leaves = Vec::with_capacity(n);
        for plan in &leaf_plans {
            let rows = estimator.rows(plan)?; // no stats → no reorder
            let columns = self.output_columns(plan)?;
            let width = estimator.row_width(plan);
            // Sub-regions inside a leaf (e.g. below a LEFT join) still
            // optimize on their own.
            let plan = self.rewrite(plan, true, false);
            leaves.push(Leaf {
                plan,
                columns,
                rows,
                width,
            });
        }

        // Split the pool: conjuncts spanning ≥2 leaves drive the join
        // graph; single-leaf conjuncts push down below the joins as a
        // selection on their leaf (shrinking the estimated rows every join
        // above prices); column-free conjuncts stay in a filter above the
        // region. A conjunct whose references do not resolve against the
        // *whole region* aborts the reorder: a bare name can be unique
        // inside its original ON scope yet ambiguous region-wide, and
        // hoisting it would turn a valid query into a runtime error.
        let mut conjuncts: Vec<Conjunct> = Vec::new();
        let mut leftovers: Vec<Expr> = Vec::new();
        let mut pushed: Vec<Vec<Expr>> = vec![Vec::new(); leaves.len()];
        for expr in pool {
            match expr_leaf_mask(&leaves, &expr) {
                None => return None,
                Some(mask) if mask.count_ones() >= 2 => {
                    let sel = estimator.selectivity(&expr, &scope);
                    let oracle_calls = collect_oracle_calls_all(std::slice::from_ref(&expr)).len();
                    let eq = eq_sides(&leaves, &expr);
                    conjuncts.push(Conjunct {
                        expr,
                        mask,
                        sel,
                        oracle_calls,
                        eq_sides: eq,
                    });
                }
                Some(mask) if mask.count_ones() == 1 => {
                    let leaf = mask.trailing_zeros() as usize;
                    pushed[leaf].push(expr);
                }
                _ => leftovers.push(expr),
            }
        }

        // Selection pushdown: each single-leaf conjunct filters its leaf
        // before any join consumes it (an inner-join region makes this a
        // pure result-set-preserving move), and the leaf's estimated rows
        // shrink by the conjunct's selectivity so the join order prices the
        // post-selection cardinality.
        for (leaf, exprs) in leaves.iter_mut().zip(pushed) {
            if exprs.is_empty() {
                continue;
            }
            for expr in &exprs {
                leaf.rows *= estimator.selectivity(expr, &scope);
            }
            let predicate = conjoin(exprs).expect("non-empty conjunct list");
            leaf.plan = LogicalPlan::Filter {
                input: Box::new(std::mem::replace(
                    &mut leaf.plan,
                    LogicalPlan::Scan {
                        table: String::new(),
                        alias: None,
                    },
                )),
                predicate,
            };
        }

        let tree = order(&leaves, &conjuncts, &self.model);
        let mut plans: Vec<Option<LogicalPlan>> =
            leaves.into_iter().map(|leaf| Some(leaf.plan)).collect();
        let mut used = vec![false; conjuncts.len()];
        let mut plan = to_plan(&tree, &mut plans, &conjuncts, &mut used);
        debug_assert!(used.iter().all(|u| *u), "every join conjunct attaches");
        if let Some(predicate) = conjoin(leftovers) {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }
        Some(plan)
    }

    /// The qualified output column names of a plan (lower-cased), mirroring
    /// the physical planner's name resolution. `None` when a scanned table
    /// does not exist.
    fn output_columns(&self, plan: &LogicalPlan) -> Option<Vec<String>> {
        match plan {
            LogicalPlan::Scan { table, alias } => {
                let handle = self.catalog.table(table).ok()?;
                let visible = alias.as_deref().unwrap_or(table);
                let columns = handle
                    .read()
                    .schema()
                    .columns()
                    .iter()
                    .map(|c| format!("{visible}.{}", c.name).to_ascii_lowercase())
                    .collect();
                Some(columns)
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. } => self.output_columns(input),
            LogicalPlan::Project { input, items } => {
                let mut out = Vec::new();
                for item in items {
                    match item {
                        ProjectionItem::Wildcard => out.extend(self.output_columns(input)?),
                        ProjectionItem::Named { name, .. } => out.push(name.to_ascii_lowercase()),
                    }
                }
                Some(out)
            }
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                ..
            } => Some(
                group_by
                    .iter()
                    .map(|(_, name)| name.to_ascii_lowercase())
                    .chain(aggregates.iter().map(|a| a.name.to_ascii_lowercase()))
                    .collect(),
            ),
            LogicalPlan::Join { left, right, .. } => {
                let mut out = self.output_columns(left)?;
                out.extend(self.output_columns(right)?);
                Some(out)
            }
        }
    }

    // ------------------------------------------------------------------
    // EXPLAIN
    // ------------------------------------------------------------------

    /// Annotates an (optimized) logical plan with per-node row and cost
    /// estimates, one line per node, indented by depth. Nodes whose base
    /// tables lack statistics show `rows=?`.
    pub fn annotate(&self, plan: &LogicalPlan) -> Vec<String> {
        let estimator = Estimator::new(self.catalog);
        let mut lines = Vec::new();
        let mut total = Cost::zero();
        self.annotate_node(&estimator, plan, 0, &mut lines, &mut total);
        lines.push(format!(
            "total cost≈{:.0} ({})",
            total.total(),
            total.render()
        ));
        lines
    }

    fn annotate_node(
        &self,
        estimator: &Estimator<'_>,
        plan: &LogicalPlan,
        depth: usize,
        lines: &mut Vec<String>,
        total: &mut Cost,
    ) {
        let rows = estimator.rows(plan);
        let cost = self.node_cost(estimator, plan);
        let label = node_label(plan);
        let rendered_rows = match rows {
            Some(r) => format!("rows≈{r:.0}"),
            None => "rows=? (run ANALYZE)".to_string(),
        };
        let pad = "  ".repeat(depth);
        match &cost {
            Some(cost) => {
                *total = total.add(cost);
                lines.push(format!("{pad}{label}  {rendered_rows}  {}", cost.render()));
            }
            None => lines.push(format!("{pad}{label}  {rendered_rows}")),
        }
        for child in children(plan) {
            self.annotate_node(estimator, child, depth + 1, lines, total);
        }
    }

    /// This node's own cost contribution (children excluded); `None` when
    /// input cardinalities are unknown.
    fn node_cost(&self, estimator: &Estimator<'_>, plan: &LogicalPlan) -> Option<Cost> {
        let model = &self.model;
        match plan {
            LogicalPlan::Scan { .. } => Some(Cost {
                cpu_rows: estimator.rows(plan)?,
                ..Cost::default()
            }),
            LogicalPlan::Filter { input, predicate } => {
                let rows_in = estimator.rows(input)?;
                let mut cost = model.oracle_cost(std::slice::from_ref(predicate), rows_in);
                cost.cpu_rows += rows_in;
                Some(cost)
            }
            LogicalPlan::Project { input, items } => {
                let rows_in = estimator.rows(input)?;
                let exprs: Vec<Expr> = items
                    .iter()
                    .filter_map(|item| match item {
                        ProjectionItem::Named { expr, .. } => Some(expr.clone()),
                        ProjectionItem::Wildcard => None,
                    })
                    .collect();
                let mut cost = model.oracle_cost(&exprs, rows_in);
                cost.cpu_rows += rows_in;
                Some(cost)
            }
            LogicalPlan::Join {
                left, right, on, ..
            } => {
                let probe = estimator.rows(left)?;
                let build = estimator.rows(right)?;
                let out = estimator.rows(plan)?;
                let (calls, hashable) = match on {
                    Some(on) => {
                        let conjuncts = split_conjuncts(on);
                        let calls = collect_oracle_calls_all(&conjuncts).len();
                        let hashable = conjuncts.iter().any(|c| {
                            matches!(
                                c,
                                Expr::Binary {
                                    op: sdb_sql::ast::BinaryOp::Eq,
                                    ..
                                }
                            )
                        });
                        (calls, hashable)
                    }
                    None => (0, false),
                };
                Some(model.join_cost(
                    probe,
                    estimator.row_width(left),
                    build,
                    estimator.row_width(right),
                    out,
                    calls as f64,
                    hashable,
                ))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let rows_in = estimator.rows(input)?;
                let mut exprs: Vec<Expr> = group_by.iter().map(|(e, _)| e.clone()).collect();
                exprs.extend(aggregates.iter().filter_map(|a| a.arg.clone()));
                let mut cost = model.oracle_cost(&exprs, rows_in);
                cost = cost.add(&model.aggregate_cost(rows_in, estimator.row_width(input)));
                Some(cost)
            }
            LogicalPlan::Sort { input, keys } => {
                let rows_in = estimator.rows(input)?;
                let exprs: Vec<Expr> = keys.iter().map(|k| k.expr.clone()).collect();
                let mut cost = model.oracle_cost(&exprs, rows_in);
                cost = cost.add(&model.sort_cost(rows_in, estimator.row_width(input)));
                Some(cost)
            }
            LogicalPlan::Distinct { input } => Some(Cost {
                cpu_rows: estimator.rows(input)?,
                ..Cost::default()
            }),
            LogicalPlan::Limit { .. } => Some(Cost::zero()),
        }
    }
}

/// True for an INNER join node.
fn is_inner_join(plan: &LogicalPlan) -> bool {
    matches!(
        plan,
        LogicalPlan::Join {
            kind: JoinKind::Inner,
            ..
        }
    )
}

/// Collects every base table a plan scans.
fn scan_tables(plan: &LogicalPlan, out: &mut Vec<String>) {
    match plan {
        LogicalPlan::Scan { table, .. } => out.push(table.clone()),
        LogicalPlan::Join { left, right, .. } => {
            scan_tables(left, out);
            scan_tables(right, out);
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Limit { input, .. } => scan_tables(input, out),
    }
}

/// The immediate children of a plan node.
fn children(plan: &LogicalPlan) -> Vec<&LogicalPlan> {
    match plan {
        LogicalPlan::Scan { .. } => vec![],
        LogicalPlan::Join { left, right, .. } => vec![left, right],
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Limit { input, .. } => vec![input],
    }
}

/// Short label for one logical node in `EXPLAIN` output.
fn node_label(plan: &LogicalPlan) -> String {
    match plan {
        LogicalPlan::Scan { table, alias } => match alias {
            Some(a) => format!("Scan({table} AS {a})"),
            None => format!("Scan({table})"),
        },
        LogicalPlan::Filter { .. } => "Filter".to_string(),
        LogicalPlan::Join { kind, .. } => format!("Join[{kind:?}] (build = right child)"),
        LogicalPlan::Project { items, .. } => format!("Project[{}]", items.len()),
        LogicalPlan::Aggregate {
            group_by,
            aggregates,
            ..
        } => format!(
            "Aggregate[groups={}, aggs={}]",
            group_by.len(),
            aggregates.len()
        ),
        LogicalPlan::Sort { keys, .. } => format!("Sort[{}]", keys.len()),
        LogicalPlan::Distinct { .. } => "Distinct".to_string(),
        LogicalPlan::Limit { n, .. } => format!("Limit[{n}]"),
    }
}

/// Pretty-prints a [`crate::PhysicalOperator::describe`] string (e.g.
/// `Limit(Project(HashJoin(TableScan, IndexScan(d.id))))`) as an indented
/// tree, one operator per line. Operator names are capitalised; a
/// parenthesised part that starts in lower case is a leaf's argument (the
/// column of an index scan) and stays on the leaf's line.
pub fn render_physical_tree(describe: &str) -> Vec<String> {
    let mut lines = Vec::new();
    render_describe(describe.trim(), 0, &mut lines);
    lines
}

fn render_describe(node: &str, depth: usize, lines: &mut Vec<String>) {
    let node = node.trim();
    let argument = |open: usize| node[open + 1..].starts_with(|c: char| c.is_ascii_lowercase());
    let (name, rest) = match node.find('(') {
        // `describe` strings always balance their parens; tolerate anything
        // else by printing the node verbatim.
        Some(open) if node.ends_with(')') && !argument(open) => {
            (&node[..open], &node[open + 1..node.len() - 1])
        }
        _ => (node, ""),
    };
    lines.push(format!("{}{}", "  ".repeat(depth), name));
    if rest.is_empty() {
        return;
    }
    // Split children on top-level commas.
    let mut level = 0usize;
    let mut start = 0usize;
    for (i, ch) in rest.char_indices() {
        match ch {
            '(' => level += 1,
            ')' => level = level.saturating_sub(1),
            ',' if level == 0 => {
                render_describe(&rest[start..i], depth + 1, lines);
                start = i + 1;
            }
            _ => {}
        }
    }
    render_describe(&rest[start..], depth + 1, lines);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_sql::plan::PlanBuilder;
    use sdb_sql::{parse_sql, Statement};
    use sdb_storage::{ColumnDef, DataType, Schema, Value};

    fn catalog() -> Catalog {
        let catalog = Catalog::new();
        for (name, rows) in [("big", 2000i64), ("mid", 200), ("small", 8)] {
            let schema = Schema::new(vec![
                ColumnDef::public("k", DataType::Int),
                ColumnDef::public("j", DataType::Int),
                ColumnDef::public("v", DataType::Int),
            ]);
            let t = catalog.create_table(name, schema).unwrap();
            let mut guard = t.write();
            for i in 0..rows {
                guard
                    .insert_row(vec![Value::Int(i), Value::Int(i % 8), Value::Int(i % 13)])
                    .unwrap();
            }
        }
        catalog
    }

    fn plan_of(sql: &str) -> LogicalPlan {
        match parse_sql(sql).unwrap() {
            Statement::Query(q) => PlanBuilder::build(&q).unwrap(),
            _ => panic!("not a query"),
        }
    }

    const THREE_WAY: &str = "SELECT b.v, m.v, s.v FROM big b \
         JOIN mid m ON b.j = m.j JOIN small s ON m.k = s.k";

    #[test]
    fn without_stats_the_plan_is_untouched() {
        let catalog = catalog();
        let optimizer = Optimizer::new(&catalog);
        let plan = plan_of(THREE_WAY);
        assert_eq!(optimizer.optimize(&plan).describe(), plan.describe());
    }

    #[test]
    fn with_stats_the_smallest_relation_becomes_a_build_side() {
        let catalog = catalog();
        catalog.analyze_all().unwrap();
        let optimizer = Optimizer::new(&catalog);
        let plan = plan_of(THREE_WAY);
        let optimized = optimizer.optimize(&plan);
        let rendered = optimized.describe();
        assert_ne!(rendered, plan.describe(), "reordering happened");
        // `small` (8 rows) must be the right (build) child of its join.
        fn small_is_build(plan: &LogicalPlan) -> bool {
            match plan {
                LogicalPlan::Join { left, right, .. } => {
                    matches!(right.as_ref(), LogicalPlan::Scan { table, .. } if table == "small")
                        || small_is_build(left)
                        || small_is_build(right)
                }
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. }
                | LogicalPlan::Distinct { input }
                | LogicalPlan::Aggregate { input, .. } => small_is_build(input),
                _ => false,
            }
        }
        assert!(small_is_build(&optimized), "{rendered}");
    }

    #[test]
    fn wildcard_projections_disable_reordering() {
        let catalog = catalog();
        catalog.analyze_all().unwrap();
        let optimizer = Optimizer::new(&catalog);
        // SELECT * exposes the join column order: never reorder.
        let plan = plan_of("SELECT * FROM big b JOIN mid m ON b.j = m.j JOIN small s ON m.k = s.k");
        assert_eq!(optimizer.optimize(&plan).describe(), plan.describe());
    }

    #[test]
    fn implicit_joins_reorder_through_the_where_clause() {
        let catalog = catalog();
        catalog.analyze_all().unwrap();
        let optimizer = Optimizer::new(&catalog);
        let plan = plan_of(
            "SELECT b.v, s.v FROM big b, mid m, small s \
             WHERE b.j = m.j AND m.k = s.k AND b.v > 3",
        );
        let optimized = optimizer.optimize(&plan);
        assert_ne!(optimized.describe(), plan.describe());
        // The single-table conjunct `b.v > 3` pushes down below the joins,
        // landing as a filter directly over the `big` scan.
        fn filter_over_scan(plan: &LogicalPlan) -> bool {
            match plan {
                LogicalPlan::Filter { input, .. } if matches!(input.as_ref(), LogicalPlan::Scan { table, .. } if table == "big") => {
                    true
                }
                LogicalPlan::Join { left, right, .. } => {
                    filter_over_scan(left) || filter_over_scan(right)
                }
                LogicalPlan::Filter { input, .. }
                | LogicalPlan::Project { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. }
                | LogicalPlan::Distinct { input }
                | LogicalPlan::Aggregate { input, .. } => filter_over_scan(input),
                LogicalPlan::Scan { .. } => false,
            }
        }
        assert!(filter_over_scan(&optimized), "{}", optimized.describe());
    }

    #[test]
    fn left_joins_are_never_flattened() {
        let catalog = catalog();
        catalog.analyze_all().unwrap();
        let optimizer = Optimizer::new(&catalog);
        let plan = plan_of("SELECT b.v, m.v FROM big b LEFT JOIN mid m ON b.j = m.j");
        assert_eq!(optimizer.optimize(&plan).describe(), plan.describe());
    }

    #[test]
    fn auto_analyze_collects_missing_stats() {
        let catalog = catalog();
        assert!(catalog.table_stats("big").is_none());
        let optimizer = Optimizer::new(&catalog).with_auto_analyze(true);
        let plan = plan_of(THREE_WAY);
        let optimized = optimizer.optimize(&plan);
        assert!(catalog.table_stats("big").is_some(), "analyzed on demand");
        assert_ne!(optimized.describe(), plan.describe());
    }

    #[test]
    fn annotation_reports_rows_and_costs() {
        let catalog = catalog();
        catalog.analyze_all().unwrap();
        let optimizer = Optimizer::new(&catalog);
        let plan = optimizer.optimize(&plan_of(THREE_WAY));
        let lines = optimizer.annotate(&plan);
        assert!(lines.iter().any(|l| l.contains("rows≈")), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("trips=")), "{lines:?}");
        assert!(lines.last().unwrap().contains("total cost≈"));

        // Without stats the annotation degrades gracefully.
        catalog.clear_stats("big");
        let lines = optimizer.annotate(&plan_of(THREE_WAY));
        assert!(
            lines.iter().any(|l| l.contains("rows=? (run ANALYZE)")),
            "{lines:?}"
        );
    }

    #[test]
    fn physical_tree_renders_indented() {
        let lines = render_physical_tree(
            "Limit(Project(HashJoin(TableScan, ExternalSort(Filter(IndexScan(d.id))))))",
        );
        assert_eq!(
            lines,
            vec![
                "Limit",
                "  Project",
                "    HashJoin",
                "      TableScan",
                "      ExternalSort",
                "        Filter",
                "          IndexScan(d.id)",
            ]
        );
    }
}
