//! Join ordering: dynamic programming over inner-join regions, with a
//! greedy fallback for very wide regions.
//!
//! A *region* is a maximal tree of INNER joins: `flatten_inner_joins`
//! collects its relations (the region's *leaves* — base-table scans, or
//! whole subtrees such as LEFT joins that act as opaque relations) plus
//! every ON conjunct; the caller adds the WHERE conjuncts sitting directly
//! above the region (legal for inner joins). Each conjunct is mapped to the
//! set of leaves it references, forming the join graph.
//!
//! `order` then searches for the cheapest join tree under the
//! [`CostModel`]:
//!
//! * **≤ [`MAX_DP_RELATIONS`] leaves** — exact dynamic programming over
//!   subsets (bushy trees allowed). Cross joins are only considered for a
//!   subset with no connected split.
//! * **more** — greedy: repeatedly join the connected pair with the
//!   cheapest resulting subtree.
//!
//! Either way, every join is oriented so the **smaller estimated side is the
//! right child** — the build side of the engine's hash joins — with ties
//! keeping the syntactically earlier side on the left. The search is fully
//! deterministic for a given catalog state.
//!
//! `to_plan` reassembles the chosen `Tree` into a `LogicalPlan`: each
//! conjunct attaches as the ON condition of the lowest join covering all its
//! leaves; conjuncts confined to a single leaf (or referencing none) are
//! returned to the caller for a filter above the region — exactly where the
//! engine executes single-table WHERE conjuncts today.

use sdb_sql::ast::{BinaryOp, Expr, JoinKind};
use sdb_sql::plan::LogicalPlan;

use super::cost::{Cost, CostModel};

/// Largest region ordered by exact dynamic programming; larger regions use
/// the greedy pairing fallback.
pub const MAX_DP_RELATIONS: usize = 8;

/// One relation of a join region.
#[derive(Debug, Clone)]
pub(crate) struct Leaf {
    /// The (already recursively optimized) sub-plan.
    pub plan: LogicalPlan,
    /// Qualified output column names (lower-cased).
    pub columns: Vec<String>,
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated row width in bytes.
    pub width: f64,
}

/// One conjunct of the region's predicate pool.
#[derive(Debug, Clone)]
pub(crate) struct Conjunct {
    /// The predicate expression.
    pub expr: Expr,
    /// Bitmask of the leaves it references.
    pub mask: u32,
    /// Estimated selectivity (against the whole-region scope).
    pub sel: f64,
    /// Number of oracle-backed calls inside it.
    pub oracle_calls: usize,
    /// For `a = b` conjuncts: the leaf masks of the two operands (a join
    /// split placing them on opposite sides can hash on this conjunct).
    pub eq_sides: Option<(u32, u32)>,
}

impl Conjunct {
    /// True when this conjunct can serve as a hash key for a join whose
    /// sides cover `m1` and `m2`.
    fn hashable_across(&self, m1: u32, m2: u32) -> bool {
        match self.eq_sides {
            Some((a, b)) => (a & !m1 == 0 && b & !m2 == 0) || (a & !m2 == 0 && b & !m1 == 0),
            None => false,
        }
    }
}

/// Flattens a tree of INNER joins into its leaves and ON conjuncts. Any
/// other node (scans, LEFT joins, …) becomes a leaf.
pub(crate) fn flatten_inner_joins(
    plan: &LogicalPlan,
    leaves: &mut Vec<LogicalPlan>,
    conjuncts: &mut Vec<Expr>,
) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            on,
        } => {
            flatten_inner_joins(left, leaves, conjuncts);
            flatten_inner_joins(right, leaves, conjuncts);
            if let Some(on) = on {
                conjuncts.extend(crate::operators::expr::split_conjuncts(on));
            }
        }
        other => leaves.push(other.clone()),
    }
}

/// Resolves a column reference to the single leaf producing it, by running
/// [`sdb_storage::resolve_name`] — the *same* resolution rules the executor
/// applies — over the concatenation of every leaf's columns (which is
/// exactly the combined schema the join region produces at runtime).
/// `None` when the name is missing or ambiguous.
pub(crate) fn column_leaf(leaves: &[Leaf], name: &str) -> Option<usize> {
    let names = leaves
        .iter()
        .flat_map(|leaf| leaf.columns.iter().map(String::as_str));
    match sdb_storage::resolve_name(names, name) {
        sdb_storage::NameResolution::One(global) => {
            // Map the global column position back to its owning leaf.
            let mut offset = 0usize;
            for (i, leaf) in leaves.iter().enumerate() {
                if global < offset + leaf.columns.len() {
                    return Some(i);
                }
                offset += leaf.columns.len();
            }
            unreachable!("resolved index lies within the concatenation")
        }
        _ => None,
    }
}

/// The mask of leaves referenced by an expression; `None` when any
/// reference is unresolvable or ambiguous.
pub(crate) fn expr_leaf_mask(leaves: &[Leaf], expr: &Expr) -> Option<u32> {
    let mut columns = Vec::new();
    expr.referenced_columns(&mut columns);
    let mut mask = 0u32;
    for column in columns {
        mask |= 1u32 << column_leaf(leaves, &column)?;
    }
    Some(mask)
}

/// The equality-operand leaf masks of an `a = b` conjunct, if both sides
/// resolve cleanly to disjoint leaf sets.
pub(crate) fn eq_sides(leaves: &[Leaf], expr: &Expr) -> Option<(u32, u32)> {
    let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = expr
    else {
        return None;
    };
    let a = expr_leaf_mask(leaves, left)?;
    let b = expr_leaf_mask(leaves, right)?;
    if a != 0 && b != 0 && a & b == 0 {
        Some((a, b))
    } else {
        None
    }
}

/// A join tree over leaf indices.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tree {
    /// One region leaf.
    Leaf(usize),
    /// A binary join; the right child is the hash-join build side.
    Join(Box<Tree>, Box<Tree>),
}

impl Tree {
    /// The leaf bitmask covered by this subtree.
    pub fn mask(&self) -> u32 {
        match self {
            Tree::Leaf(i) => 1 << i,
            Tree::Join(l, r) => l.mask() | r.mask(),
        }
    }

    /// A canonical rendering (`((0 1) 2)`) for comparisons and tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn canon(&self) -> String {
        match self {
            Tree::Leaf(i) => i.to_string(),
            Tree::Join(l, r) => format!("({} {})", l.canon(), r.canon()),
        }
    }

    /// The lowest leaf index in this subtree (tie-breaking: syntactically
    /// earlier sides stay on the probe side).
    fn min_leaf(&self) -> usize {
        self.mask().trailing_zeros() as usize
    }
}

#[derive(Clone)]
struct Entry {
    tree: Tree,
    rows: f64,
    width: f64,
    cost: Cost,
}

/// Conjuncts newly applicable when joining `m1` with `m2`.
fn applicable(conjuncts: &[Conjunct], m1: u32, m2: u32) -> impl Iterator<Item = &Conjunct> {
    let m = m1 | m2;
    conjuncts
        .iter()
        .filter(move |c| c.mask & !m == 0 && c.mask & m1 != 0 && c.mask & m2 != 0)
}

/// Joins two DP entries, orienting the smaller estimated side as the build
/// (right) child.
fn join_entries(model: &CostModel, conjuncts: &[Conjunct], e1: Entry, e2: Entry) -> Entry {
    let (m1, m2) = (e1.tree.mask(), e2.tree.mask());
    let mut sel = 1.0f64;
    let mut oracle_calls = 0usize;
    let mut hashable = false;
    for conjunct in applicable(conjuncts, m1, m2) {
        sel *= conjunct.sel;
        oracle_calls += conjunct.oracle_calls;
        hashable |= conjunct.hashable_across(m1, m2) || conjunct.hashable_across(m2, m1);
    }
    let rows = (e1.rows * e2.rows * sel).max(1.0);

    // Orientation: build (right child) = smaller side; ties keep the
    // syntactically earlier side as the probe.
    let build_second =
        e2.rows < e1.rows || (e2.rows == e1.rows && e1.tree.min_leaf() < e2.tree.min_leaf());
    let (probe, build) = if build_second { (e1, e2) } else { (e2, e1) };

    let join_cost = model.join_cost(
        probe.rows,
        probe.width,
        build.rows,
        build.width,
        rows,
        oracle_calls as f64,
        hashable,
    );
    Entry {
        rows,
        width: probe.width + build.width,
        cost: probe.cost.add(&build.cost).add(&join_cost),
        tree: Tree::Join(Box::new(probe.tree), Box::new(build.tree)),
    }
}

/// True when some conjunct connects the two sides.
fn connected(conjuncts: &[Conjunct], m1: u32, m2: u32) -> bool {
    applicable(conjuncts, m1, m2).next().is_some()
}

/// Finds the cheapest join tree over the region. `leaves.len()` must be at
/// least 2 (and at most 32).
pub(crate) fn order(leaves: &[Leaf], conjuncts: &[Conjunct], model: &CostModel) -> Tree {
    debug_assert!((2..=32).contains(&leaves.len()));
    if leaves.len() <= MAX_DP_RELATIONS {
        order_dp(leaves, conjuncts, model)
    } else {
        order_greedy(leaves, conjuncts, model)
    }
}

fn leaf_entry(i: usize, leaf: &Leaf) -> Entry {
    Entry {
        tree: Tree::Leaf(i),
        rows: leaf.rows.max(1.0),
        width: leaf.width,
        cost: Cost {
            cpu_rows: leaf.rows.max(1.0),
            ..Cost::default()
        },
    }
}

fn order_dp(leaves: &[Leaf], conjuncts: &[Conjunct], model: &CostModel) -> Tree {
    let n = leaves.len();
    let full = (1u32 << n) - 1;
    let mut best: Vec<Option<Entry>> = vec![None; 1 << n];
    for (i, leaf) in leaves.iter().enumerate() {
        best[1 << i] = Some(leaf_entry(i, leaf));
    }

    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        // Pass 1: connected splits only; pass 2 (cross joins) only if pass 1
        // found nothing.
        for allow_cross in [false, true] {
            let low = mask & mask.wrapping_neg();
            let mut sub = (mask - 1) & mask;
            while sub > 0 {
                // Canonical halving: the submask keeps the lowest leaf.
                if sub & low != 0 {
                    let other = mask ^ sub;
                    if let (Some(e1), Some(e2)) = (&best[sub as usize], &best[other as usize]) {
                        if allow_cross || connected(conjuncts, sub, other) {
                            let candidate = join_entries(model, conjuncts, e1.clone(), e2.clone());
                            let better = best[mask as usize]
                                .as_ref()
                                .map(|cur| candidate.cost.total() < cur.cost.total())
                                .unwrap_or(true);
                            if better {
                                best[mask as usize] = Some(candidate);
                            }
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
            if best[mask as usize].is_some() {
                break;
            }
        }
    }
    best[full as usize]
        .take()
        .expect("every subset has at least a cross-join plan")
        .tree
}

fn order_greedy(leaves: &[Leaf], conjuncts: &[Conjunct], model: &CostModel) -> Tree {
    let mut entries: Vec<Entry> = leaves
        .iter()
        .enumerate()
        .map(|(i, leaf)| leaf_entry(i, leaf))
        .collect();
    while entries.len() > 1 {
        let mut pick: Option<(usize, usize, Entry)> = None;
        for allow_cross in [false, true] {
            for i in 0..entries.len() {
                for j in (i + 1)..entries.len() {
                    let (m1, m2) = (entries[i].tree.mask(), entries[j].tree.mask());
                    if !allow_cross && !connected(conjuncts, m1, m2) {
                        continue;
                    }
                    let candidate =
                        join_entries(model, conjuncts, entries[i].clone(), entries[j].clone());
                    let better = pick
                        .as_ref()
                        .map(|(_, _, cur)| candidate.cost.total() < cur.cost.total())
                        .unwrap_or(true);
                    if better {
                        pick = Some((i, j, candidate));
                    }
                }
            }
            if pick.is_some() {
                break;
            }
        }
        let (i, j, joined) = pick.expect("two entries always join");
        entries.remove(j);
        entries.remove(i);
        entries.push(joined);
    }
    entries.pop().expect("one tree remains").tree
}

/// Reassembles the chosen tree into a `LogicalPlan`. Conjuncts covering both
/// sides of a join attach as that join's ON condition (in original order);
/// the indices of conjuncts that found no join (single-leaf or column-free
/// predicates) are returned for the caller's filter above the region.
pub(crate) fn to_plan(
    tree: &Tree,
    leaves: &mut [Option<LogicalPlan>],
    conjuncts: &[Conjunct],
    used: &mut Vec<bool>,
) -> LogicalPlan {
    match tree {
        Tree::Leaf(i) => leaves[*i].take().expect("each leaf is consumed once"),
        Tree::Join(l, r) => {
            let (m1, m2) = (l.mask(), r.mask());
            let left = to_plan(l, leaves, conjuncts, used);
            let right = to_plan(r, leaves, conjuncts, used);
            let m = m1 | m2;
            let mut on: Vec<Expr> = Vec::new();
            for (idx, conjunct) in conjuncts.iter().enumerate() {
                if !used[idx]
                    && conjunct.mask & !m == 0
                    && conjunct.mask & m1 != 0
                    && conjunct.mask & m2 != 0
                {
                    used[idx] = true;
                    on.push(conjunct.expr.clone());
                }
            }
            LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind: JoinKind::Inner,
                on: crate::operators::expr::conjoin(on),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &str, columns: &[&str], rows: f64) -> Leaf {
        Leaf {
            plan: LogicalPlan::Scan {
                table: name.to_string(),
                alias: None,
            },
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows,
            width: 16.0,
        }
    }

    fn eq(a: &str, b: &str) -> Expr {
        Expr::binary(Expr::col(a), BinaryOp::Eq, Expr::col(b))
    }

    fn conjunct(leaves: &[Leaf], expr: Expr, sel: f64) -> Conjunct {
        let mask = expr_leaf_mask(leaves, &expr).expect("resolvable");
        let eq = eq_sides(leaves, &expr);
        Conjunct {
            expr,
            mask,
            sel,
            oracle_calls: 0,
            eq_sides: eq,
        }
    }

    fn model() -> CostModel {
        CostModel {
            batch_size: 4096,
            budget: None,
        }
    }

    #[test]
    fn column_resolution_follows_schema_rules() {
        let leaves = vec![
            leaf("big", &["b.id", "b.x"], 1000.0),
            leaf("small", &["s.id", "s.y"], 10.0),
        ];
        assert_eq!(column_leaf(&leaves, "b.x"), Some(0));
        assert_eq!(column_leaf(&leaves, "y"), Some(1), "unique bare suffix");
        assert_eq!(column_leaf(&leaves, "id"), None, "ambiguous across leaves");
        assert_eq!(column_leaf(&leaves, "nope"), None);
    }

    /// Hand-computed 2-relation case: the only choice is orientation, and the
    /// smaller relation must become the build (right) side.
    #[test]
    fn two_relations_orient_smaller_as_build() {
        let leaves = vec![
            leaf("small", &["s.id"], 10.0),
            leaf("big", &["b.id"], 1000.0),
        ];
        let conjuncts = vec![conjunct(&leaves, eq("s.id", "b.id"), 0.1)];
        let tree = order(&leaves, &conjuncts, &model());
        // Leaf 0 (small, 10 rows) is the build side even though it is
        // syntactically first.
        assert_eq!(tree.canon(), "(1 0)");
    }

    /// Hand-computed 3-relation chain big—mid—small: joining mid with small
    /// first (cheap, small build) then probing with big beats the syntactic
    /// left-deep order which builds over mid and the big intermediate.
    #[test]
    fn three_relation_chain_joins_cheap_pair_first() {
        let leaves = vec![
            leaf("big", &["b.k"], 100_000.0),
            leaf("mid", &["m.k", "m.j"], 1_000.0),
            leaf("small", &["s.j"], 10.0),
        ];
        // big⋈mid on k (sel 1/1000), mid⋈small on j (sel 1/10 — every mid
        // row keeps ~1 small match, so mid⋈small stays at 1000 rows).
        let conjuncts = vec![
            conjunct(&leaves, eq("b.k", "m.k"), 1.0 / 1_000.0),
            conjunct(&leaves, eq("m.j", "s.j"), 1.0 / 10.0),
        ];
        let tree = order(&leaves, &conjuncts, &model());
        // Expected: (big ⋈ (mid ⋈ small)) with small as the inner build:
        // cost ≈ 100k + 1k + 10 + (1k+10+1k) + (100k+1k+100k) vs the
        // syntactic ((big ⋈ mid) ⋈ small) which pays the same big probe but
        // builds over mid AND carries the 100k-row intermediate into a
        // second join.
        assert_eq!(tree.canon(), "(0 (1 2))");
    }

    /// Cross joins are only taken when no connected split exists.
    #[test]
    fn disconnected_regions_fall_back_to_cross_joins() {
        let leaves = vec![leaf("a", &["a.x"], 10.0), leaf("b", &["b.y"], 20.0)];
        let tree = order(&leaves, &[], &model());
        assert_eq!(tree.canon(), "(1 0)", "smaller side still builds");
    }

    /// A star query: the fact table stays the probe side of every join.
    /// (Dimensions are sized so a dim×dim cross join is clearly more
    /// expensive than probing them one at a time.)
    #[test]
    fn star_schema_keeps_fact_as_probe() {
        let leaves = vec![
            leaf("fact", &["f.d1", "f.d2"], 50_000.0),
            leaf("dim1", &["d1.id"], 1_000.0),
            leaf("dim2", &["d2.id"], 500.0),
        ];
        let conjuncts = vec![
            conjunct(&leaves, eq("f.d1", "d1.id"), 1.0 / 1_000.0),
            conjunct(&leaves, eq("f.d2", "d2.id"), 1.0 / 500.0),
        ];
        let tree = order(&leaves, &conjuncts, &model());
        // Both dimensions are builds; the fact side is always the probe.
        match &tree {
            Tree::Join(probe, build) => {
                assert!(probe.mask() & 1 != 0, "fact stays on the probe side");
                assert_eq!(
                    build.mask().count_ones(),
                    1,
                    "dimensions join one at a time"
                );
            }
            other => panic!("unexpected tree {}", other.canon()),
        }
    }

    #[test]
    fn greedy_handles_wide_regions_deterministically() {
        // 10 relations in a chain — beyond the DP limit.
        let mut leaves = Vec::new();
        for i in 0..10 {
            let prev = format!("t{i}.p");
            let next = format!("t{i}.n");
            leaves.push(Leaf {
                plan: LogicalPlan::Scan {
                    table: format!("t{i}"),
                    alias: None,
                },
                columns: vec![prev, next],
                rows: 100.0 * (i as f64 + 1.0),
                width: 16.0,
            });
        }
        let mut conjuncts = Vec::new();
        for i in 0..9 {
            let expr = eq(&format!("t{i}.n"), &format!("t{}.p", i + 1));
            conjuncts.push(conjunct(&leaves, expr, 0.01));
        }
        let a = order(&leaves, &conjuncts, &model());
        let b = order(&leaves, &conjuncts, &model());
        assert_eq!(a.canon(), b.canon(), "greedy ordering is deterministic");
        assert_eq!(a.mask(), (1 << 10) - 1, "all relations joined");
    }

    #[test]
    fn reassembly_places_conjuncts_at_their_lowest_join() {
        let leaves = vec![
            leaf("a", &["a.x"], 100.0),
            leaf("b", &["b.x", "b.y"], 50.0),
            leaf("c", &["c.y"], 10.0),
        ];
        let conjuncts = vec![
            conjunct(&leaves, eq("a.x", "b.x"), 0.1),
            conjunct(&leaves, eq("b.y", "c.y"), 0.1),
        ];
        let tree = order(&leaves, &conjuncts, &model());
        let mut plans: Vec<Option<LogicalPlan>> =
            leaves.iter().map(|l| Some(l.plan.clone())).collect();
        let mut used = vec![false; conjuncts.len()];
        let plan = to_plan(&tree, &mut plans, &conjuncts, &mut used);
        assert!(used.iter().all(|u| *u), "every join conjunct is attached");
        // Both joins carry exactly one ON conjunct.
        fn count_ons(plan: &LogicalPlan) -> usize {
            match plan {
                LogicalPlan::Join {
                    left, right, on, ..
                } => (on.is_some() as usize) + count_ons(left) + count_ons(right),
                _ => 0,
            }
        }
        assert_eq!(count_ons(&plan), 2);
    }
}
