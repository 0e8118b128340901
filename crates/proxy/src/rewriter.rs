//! The query rewriter (paper §2.2, Figure 3): turns application SQL into a query
//! the SP can execute over encrypted columns, plus a [`ResultPlan`] describing how
//! the proxy decrypts and post-processes the answer.
//!
//! The rewrite follows the paper's pattern exactly for the operators it spells out
//! (`SELECT A × B AS C FROM T` becomes `SELECT row-id, SDB_MULTIPLY(A_e, B_e, n) AS
//! C_e FROM T` with the proxy recording `ck_C = ⟨m_A·m_B, x_A+x_B⟩`), and extends it
//! to the full operator set reconstructed in ARCHITECTURE.md ("Modular
//! arithmetic", the share protocols):
//!
//! * EE / EP arithmetic → `SDB_MULTIPLY`, `SDB_ADD`, `SDB_KEY_UPDATE`,
//!   `SDB_MUL_PLAIN`, `SDB_ADD_PLAIN`;
//! * comparisons on sensitive data → an encrypted difference column plus an
//!   `SDB_CMP_*` oracle call;
//! * GROUP BY / join equality on sensitive data → `SDB_GROUP_TAG` oracle calls (or
//!   upload-time tags for sensitive VARCHAR);
//! * SUM → key update to a row-independent key + server-side folding;
//!   AVG → SUM + COUNT with the division done client-side;
//!   MIN/MAX → `SDB_RANK` surrogates mapped back by the proxy;
//! * anything the SP cannot compute over shares (divisions, ratios of aggregates)
//!   is decomposed into encrypted *ingredients* computed at the SP and a final
//!   client-side expression evaluated after decryption.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use num_bigint::BigUint;
use num_traits::One;

use sdb_crypto::{ColumnKey, Drbg, KeyUpdateMemo};
use sdb_engine::secure::oracle_fns;
use sdb_sql::ast::{
    is_aggregate_name, BinaryOp, Expr, JoinClause, Literal, OrderItem, Query, SelectItem, UnaryOp,
};

use crate::encryptor::{domain_of, AUX_COLUMN, ROW_ID_COLUMN, SIES_SUFFIX, TAG_SUFFIX};
use crate::keystore::KeyStore;
use crate::meta::{ColumnMeta, PlainType, TableMeta};
use crate::plan::{Ingredient, OutputColumn, OutputSource, PostSortKey, ResultPlan};
use crate::session::QuerySession;
use crate::shape::{Tape, TapeRecorder};
use crate::{ProxyError, Result};

/// The product of rewriting one query.
#[derive(Debug, Clone)]
pub struct RewriteOutput {
    /// The query to submit to the SP, with a numbered parameter `$i` in
    /// place of each per-execution constant (the `p` and `q` of every key
    /// update).
    pub server_query: Query,
    /// The decryption / post-processing plan.
    pub plan: ResultPlan,
    /// The value of each parameter of [`Self::server_query`].
    pub draws: Vec<String>,
    /// The key algebra the rewrite ran, for replaying it.
    pub(crate) tape: Tape,
}

/// One table visible in the query's FROM clause.
#[derive(Debug, Clone)]
struct Binding {
    /// Name the table is visible under (alias or table name).
    visible: String,
    /// The underlying table name (key-store lookups use this).
    table: String,
    /// Logical metadata.
    meta: TableMeta,
}

/// A rewritten encrypted expression: the server-side expression producing shares,
/// together with the proxy-side key (the tape step that makes it), fixed-point
/// scale and source table.
#[derive(Debug, Clone)]
struct EncExpr {
    expr: Expr,
    key: usize,
    scale: u8,
    decode: PlainType,
    /// Visible name of the table whose row ids / auxiliary column apply.
    table: String,
}

/// One column of the rewritten (server) SELECT list.
#[derive(Debug, Clone)]
struct ServerItem {
    expr: Expr,
    alias: String,
    ingredient: Ingredient,
}

/// The query rewriter. One instance per query.
pub struct Rewriter<'a> {
    keystore: &'a KeyStore,
    metas: &'a BTreeMap<String, TableMeta>,
    key_updates: &'a KeyUpdateMemo,
    session: Arc<QuerySession>,
    rng: RefCell<Drbg>,
    n_str: &'a str,
    /// Every key the rewrite uses is made through the tape.
    tape: RefCell<TapeRecorder>,
}

/// Mutable rewrite state for one query.
struct Ctx {
    bindings: Vec<Binding>,
    grouped: bool,
    /// rendered original group expr → rewritten server group expr.
    group_map: HashMap<String, Expr>,
    server_items: Vec<ServerItem>,
    /// rendered argument of a pushed encrypted `SUM` → alias of its server
    /// item. Every push draws a fresh target key, so repeats (`SUM(x)` beside
    /// `AVG(x)`, or in the select list and in `HAVING`) would otherwise miss
    /// the identical-expression dedup and be computed and shipped again.
    encrypted_sums: HashMap<String, String>,
    /// visible table → server alias of its projected row-id column.
    rowid_items: HashMap<String, String>,
    used_aliases: HashSet<String>,
    outputs: Vec<OutputColumn>,
}

impl<'a> Rewriter<'a> {
    /// Creates a rewriter bound to the key store, the uploaded-table metadata,
    /// the DO's key-update memo, `n` in decimal and a fresh query session.
    pub fn new(
        keystore: &'a KeyStore,
        metas: &'a BTreeMap<String, TableMeta>,
        key_updates: &'a KeyUpdateMemo,
        n_str: &'a str,
        session: Arc<QuerySession>,
        rng: Drbg,
    ) -> Self {
        Rewriter {
            keystore,
            metas,
            key_updates,
            session,
            rng: RefCell::new(rng),
            n_str,
            tape: RefCell::new(TapeRecorder::default()),
        }
    }

    /// Whether every slot `$0 … $(slots − 1)` of `query` (the lifted
    /// literals of its lexed form, `sdb_sql::lift`) stands alone on one side
    /// of a `=` conjunct at the top level of its `WHERE`, with a public
    /// column of its tables alone on the other: a place the rewrite copies
    /// as written. If so, the rewrite numbers its key updates' slots after
    /// them; if not, the caller binds the literals back before rewriting.
    pub fn lift(&self, query: &Query, slots: usize) -> bool {
        let (Ok(bindings), Some(predicate)) = (self.resolve_bindings(query), &query.where_clause)
        else {
            return false;
        };
        let mut conjuncts = vec![predicate];
        let mut placed = vec![false; slots];
        while let Some(conjunct) = conjuncts.pop() {
            let Expr::Binary { left, op, right } = conjunct else {
                continue;
            };
            let (column, slot) = match (op, left.as_ref(), right.as_ref()) {
                (BinaryOp::And, _, _) => {
                    conjuncts.extend([left.as_ref(), right.as_ref()]);
                    continue;
                }
                (BinaryOp::Eq, Expr::Column(column), Expr::Param(slot))
                | (BinaryOp::Eq, Expr::Param(slot), Expr::Column(column)) => (column, *slot),
                _ => continue,
            };
            let public =
                (self.resolve_column(column, &bindings)).is_some_and(|(_, c)| !c.sensitive);
            if let Some(placed) = placed.get_mut(slot).filter(|_| public) {
                *placed = true;
            }
        }
        let lifted = placed.iter().all(|&placed| placed);
        if lifted {
            self.tape.borrow_mut().lift(slots);
        }
        lifted
    }

    /// Rewrites a SELECT query.
    pub fn rewrite_query(&self, query: &Query) -> Result<RewriteOutput> {
        let bindings = self.resolve_bindings(query)?;

        // Fast path: nothing sensitive is referenced anywhere — pass the query
        // through untouched (empty plan = passthrough).
        if !self.query_touches_sensitive(query, &bindings)? {
            return Ok(RewriteOutput {
                server_query: query.clone(),
                plan: ResultPlan::default(),
                draws: Vec::new(),
                tape: Tape::default(),
            });
        }

        let mut ctx = Ctx {
            bindings,
            grouped: !query.group_by.is_empty()
                || query.projections.iter().any(|p| match p {
                    SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                    SelectItem::Wildcard => false,
                })
                || query
                    .having
                    .as_ref()
                    .map(|h| h.contains_aggregate())
                    .unwrap_or(false),
            group_map: HashMap::new(),
            server_items: Vec::new(),
            encrypted_sums: HashMap::new(),
            rowid_items: HashMap::new(),
            used_aliases: HashSet::new(),
            outputs: Vec::new(),
        };

        // GROUP BY.
        let mut server_group_by = Vec::new();
        for group_expr in &query.group_by {
            let rewritten = if self.is_sensitive_expr(group_expr, &ctx.bindings) {
                self.rewrite_group_key(group_expr, &ctx)?
            } else {
                group_expr.clone()
            };
            ctx.group_map
                .insert(group_expr.to_string(), rewritten.clone());
            server_group_by.push(rewritten);
        }

        // WHERE.
        let server_where = match &query.where_clause {
            Some(predicate) => Some(self.rewrite_predicate(predicate, &ctx)?),
            None => None,
        };

        // JOIN ... ON.
        let mut server_joins = Vec::new();
        for join in &query.joins {
            server_joins.push(JoinClause {
                kind: join.kind,
                table: join.table.clone(),
                on: self.rewrite_predicate(&join.on, &ctx)?,
            });
        }

        // Projections.
        for item in &query.projections {
            match item {
                SelectItem::Wildcard => self.rewrite_wildcard(&mut ctx)?,
                SelectItem::Expr { expr, alias } => {
                    let output_name = alias.clone().unwrap_or_else(|| default_output_name(expr));
                    self.rewrite_projection(expr, &output_name, false, &mut ctx)?;
                }
            }
        }

        // HAVING.
        let mut post_having = None;
        let mut server_having = None;
        if let Some(having) = &query.having {
            if self.is_sensitive_expr(having, &ctx.bindings) {
                let client = self.decompose(having, &mut ctx)?;
                // Every ingredient referenced by the client HAVING must be visible
                // as an output column; add hidden outputs for any that are not.
                self.ensure_outputs_for(&client, &mut ctx);
                post_having = Some(client);
            } else {
                server_having = Some(having.clone());
            }
        }

        // ORDER BY / DISTINCT / LIMIT move client-side for rewritten queries.
        let mut post_sort = Vec::new();
        for (i, order) in query.order_by.iter().enumerate() {
            let column = self.resolve_order_key(order, i, &mut ctx)?;
            post_sort.push(PostSortKey {
                column,
                desc: order.desc,
            });
        }

        // Row-id projections for row-keyed ingredients.
        let rowid_aliases: Vec<(String, String)> = ctx
            .rowid_items
            .iter()
            .map(|(t, a)| (t.clone(), a.clone()))
            .collect();
        for (table, alias) in rowid_aliases {
            if ctx.grouped {
                return Err(ProxyError::UnsupportedSensitiveOperation {
                    detail: "cannot return row-level sensitive values from a grouped query".into(),
                });
            }
            ctx.server_items.push(ServerItem {
                expr: Expr::Column(format!("{table}.{ROW_ID_COLUMN}")),
                alias,
                ingredient: Ingredient::RowId,
            });
        }

        let server_query = Query {
            distinct: false,
            projections: ctx
                .server_items
                .iter()
                .map(|item| SelectItem::Expr {
                    expr: item.expr.clone(),
                    alias: Some(item.alias.clone()),
                })
                .collect(),
            from: query.from.clone(),
            joins: server_joins,
            where_clause: server_where,
            group_by: server_group_by,
            having: server_having,
            order_by: Vec::new(),
            limit: None,
        };

        let plan = ResultPlan {
            ingredients: ctx
                .server_items
                .iter()
                .map(|item| (item.alias.clone(), item.ingredient.clone()))
                .collect(),
            outputs: ctx.outputs,
            post_having,
            post_sort,
            post_distinct: query.distinct,
            post_limit: query.limit,
        };

        let (tape, keys) = self.tape.take().finish();
        let draws = tape.draws(&keys, self.keystore.system(), self.key_updates)?;
        Ok(RewriteOutput {
            server_query,
            plan,
            draws,
            tape,
        })
    }

    // ------------------------------------------------------------------
    // Bindings and sensitivity analysis
    // ------------------------------------------------------------------

    fn resolve_bindings(&self, query: &Query) -> Result<Vec<Binding>> {
        let mut bindings = Vec::new();
        let mut add = |name: &str, alias: &Option<String>| -> Result<()> {
            let meta = self.metas.get(&name.to_ascii_lowercase()).ok_or_else(|| {
                ProxyError::UnknownTable {
                    name: name.to_string(),
                }
            })?;
            bindings.push(Binding {
                visible: alias.clone().unwrap_or_else(|| name.to_ascii_lowercase()),
                table: name.to_ascii_lowercase(),
                meta: meta.clone(),
            });
            Ok(())
        };
        for table in &query.from {
            add(&table.name, &table.alias)?;
        }
        for join in &query.joins {
            add(&join.table.name, &join.table.alias)?;
        }
        Ok(bindings)
    }

    fn resolve_column<'c>(
        &self,
        name: &str,
        bindings: &'c [Binding],
    ) -> Option<(&'c Binding, &'c ColumnMeta)> {
        let lower = name.to_ascii_lowercase();
        if let Some((qualifier, bare)) = lower.split_once('.') {
            let binding = bindings.iter().find(|b| b.visible == qualifier)?;
            return binding.meta.column(bare).map(|c| (binding, c));
        }
        let mut found = None;
        for binding in bindings {
            if let Some(column) = binding.meta.column(&lower) {
                if found.is_some() {
                    return None; // ambiguous
                }
                found = Some((binding, column));
            }
        }
        found
    }

    fn is_sensitive_expr(&self, expr: &Expr, bindings: &[Binding]) -> bool {
        let mut columns = Vec::new();
        expr.referenced_columns(&mut columns);
        columns.iter().any(|c| {
            self.resolve_column(c, bindings)
                .map(|(_, meta)| meta.sensitive)
                .unwrap_or(false)
        })
    }

    fn query_touches_sensitive(&self, query: &Query, bindings: &[Binding]) -> Result<bool> {
        let mut exprs: Vec<&Expr> = Vec::new();
        for item in &query.projections {
            if let SelectItem::Expr { expr, .. } = item {
                exprs.push(expr);
            } else {
                // Wildcard: sensitive if any bound table has sensitive columns.
                if bindings.iter().any(|b| b.meta.has_sensitive()) {
                    return Ok(true);
                }
            }
        }
        if let Some(w) = &query.where_clause {
            exprs.push(w);
        }
        for join in &query.joins {
            exprs.push(&join.on);
        }
        for g in &query.group_by {
            exprs.push(g);
        }
        if let Some(h) = &query.having {
            exprs.push(h);
        }
        for o in &query.order_by {
            exprs.push(&o.expr);
        }
        for expr in &exprs {
            if self.is_sensitive_expr(expr, bindings) {
                return Ok(true);
            }
            self.check_subqueries(expr)?;
        }
        Ok(false)
    }

    /// Subqueries over tables with sensitive columns are outside the supported
    /// rewrite surface — report them explicitly (this is the coverage boundary
    /// the TPC-H coverage analyzer records).
    fn check_subqueries(&self, expr: &Expr) -> Result<()> {
        let check_query = |q: &Query| -> Result<()> {
            for table in &q.from {
                if let Some(meta) = self.metas.get(&table.name.to_ascii_lowercase()) {
                    if meta.has_sensitive() {
                        // Only an error if the subquery actually touches them.
                        let bindings = self.resolve_bindings(q)?;
                        if self.query_touches_sensitive(q, &bindings)? {
                            return Err(ProxyError::UnsupportedSensitiveOperation {
                                detail: "subquery over sensitive columns".into(),
                            });
                        }
                    }
                }
            }
            Ok(())
        };
        match expr {
            Expr::InSubquery { query, .. }
            | Expr::ScalarSubquery(query)
            | Expr::Exists { query, .. } => check_query(query),
            Expr::Unary { expr, .. } => self.check_subqueries(expr),
            Expr::Binary { left, right, .. } => {
                self.check_subqueries(left)?;
                self.check_subqueries(right)
            }
            _ => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Encrypted arithmetic
    // ------------------------------------------------------------------

    /// Rewrites a numeric expression over sensitive (and plain) operands into a
    /// server-side expression producing shares, tracking the result column key.
    fn rewrite_enc_expr(&self, expr: &Expr, ctx: &Ctx) -> Result<EncExpr> {
        match expr {
            Expr::Column(name) => {
                let (binding, column) = self
                    .resolve_column(name, &ctx.bindings)
                    .ok_or_else(|| ProxyError::UnknownColumn { name: name.clone() })?;
                if !column.is_numeric_sensitive() {
                    return Err(ProxyError::UnsupportedSensitiveOperation {
                        detail: format!("{name} is not a sensitive numeric column"),
                    });
                }
                let key = self.stored_key(self.keystore.column_key(&binding.table, &column.name)?);
                let decode = column.plain_type()?;
                Ok(EncExpr {
                    expr: Expr::Column(format!("{}.{}", binding.visible, column.name)),
                    key,
                    scale: decode.scale(),
                    decode,
                    table: binding.visible.clone(),
                })
            }
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => {
                let inner = self.rewrite_enc_expr(expr, ctx)?;
                Ok(self.scale_enc(inner, &(self.keystore.system().n() - BigUint::one()), 0))
            }
            Expr::Binary { left, op, right } => self.rewrite_enc_binary(left, *op, right, ctx),
            // `CASE WHEN <plain condition> THEN <sensitive expr> ELSE <sensitive or 0> END`
            // (the TPC-H Q8/Q14 pattern) is computable over shares by multiplying
            // with a plain 0/1 indicator: `then·I + else·(1 − I)`.
            Expr::Case {
                operand: None,
                branches,
                else_expr,
            } if branches.len() == 1 => {
                let (condition, then_branch) = &branches[0];
                if self.is_sensitive_expr(condition, &ctx.bindings) {
                    return Err(ProxyError::UnsupportedSensitiveOperation {
                        detail: "CASE with a sensitive condition".into(),
                    });
                }
                let indicator = |flip: bool| -> Expr {
                    Expr::Case {
                        operand: None,
                        branches: vec![(
                            condition.clone(),
                            Expr::Literal(Literal::Int(if flip { 0 } else { 1 })),
                        )],
                        else_expr: Some(Box::new(Expr::Literal(Literal::Int(if flip {
                            1
                        } else {
                            0
                        })))),
                    }
                };
                let then_enc = self.rewrite_enc_expr(then_branch, ctx)?;
                let masked_then =
                    self.ep_combine(then_enc, &indicator(false), BinaryOp::Mul, false, ctx)?;
                let else_is_zero = matches!(
                    else_expr.as_deref(),
                    None | Some(Expr::Literal(Literal::Int(0)))
                        | Some(Expr::Literal(Literal::Decimal { units: 0, .. }))
                );
                if else_is_zero {
                    return Ok(masked_then);
                }
                let else_expr = else_expr.as_deref().expect("checked above");
                let else_enc = self.rewrite_enc_expr(else_expr, ctx)?;
                let masked_else =
                    self.ep_combine(else_enc, &indicator(true), BinaryOp::Mul, false, ctx)?;
                self.ee_add(masked_then, masked_else, false, ctx)
            }
            other => Err(ProxyError::UnsupportedSensitiveOperation {
                detail: format!("expression not computable over shares: {other}"),
            }),
        }
    }

    fn rewrite_enc_binary(
        &self,
        left: &Expr,
        op: BinaryOp,
        right: &Expr,
        ctx: &Ctx,
    ) -> Result<EncExpr> {
        if !matches!(op, BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul) {
            return Err(ProxyError::UnsupportedSensitiveOperation {
                detail: format!("operator {op} is not supported over shares"),
            });
        }
        let left_sensitive = self.is_sensitive_expr(left, &ctx.bindings);
        let right_sensitive = self.is_sensitive_expr(right, &ctx.bindings);

        match (left_sensitive, right_sensitive) {
            (true, true) => {
                let l = self.rewrite_enc_expr(left, ctx)?;
                let r = self.rewrite_enc_expr(right, ctx)?;
                if l.table != r.table {
                    return Err(ProxyError::UnsupportedSensitiveOperation {
                        detail: format!(
                            "arithmetic between sensitive columns of different tables ({} vs {})",
                            l.table, r.table
                        ),
                    });
                }
                match op {
                    BinaryOp::Mul => Ok(self.ee_multiply(l, r)),
                    BinaryOp::Add => self.ee_add(l, r, false, ctx),
                    BinaryOp::Sub => self.ee_add(l, r, true, ctx),
                    _ => unreachable!(),
                }
            }
            (true, false) => self.ep_combine(
                self.rewrite_enc_expr(left, ctx)?,
                right,
                op,
                /* plain_on_left = */ false,
                ctx,
            ),
            (false, true) => self.ep_combine(
                self.rewrite_enc_expr(right, ctx)?,
                left,
                op,
                /* plain_on_left = */ true,
                ctx,
            ),
            (false, false) => Err(ProxyError::UnsupportedSensitiveOperation {
                detail: "neither operand is sensitive".into(),
            }),
        }
    }

    /// EE multiplication (paper §2.2).
    fn ee_multiply(&self, l: EncExpr, r: EncExpr) -> EncExpr {
        let key = self.tape.borrow_mut().multiply(
            l.key,
            r.key,
            self.keystore.system(),
            &mut self.rng.borrow_mut(),
        );
        let scale = l.scale + r.scale;
        EncExpr {
            expr: Expr::func("SDB_MULTIPLY", vec![l.expr, r.expr, Expr::str(self.n_str)]),
            key,
            scale,
            decode: scaled_plain_type(scale),
            table: l.table,
        }
    }

    /// EE addition/subtraction: rescale to a common scale (key-only change), negate
    /// the right operand for subtraction (key-only change), key-update both to a
    /// fresh target key, add at the SP.
    fn ee_add(&self, l: EncExpr, r: EncExpr, subtract: bool, ctx: &Ctx) -> Result<EncExpr> {
        let system = self.keystore.system();
        let common = l.scale.max(r.scale);
        let l = self.rescale_enc(l, common);
        let mut r = self.rescale_enc(r, common);
        if subtract {
            r = self.scale_enc(r, &(system.n() - BigUint::one()), 0);
        }
        let aux = self.aux_key_of(&l.table, ctx)?;
        let target = (self.tape.borrow_mut()).fresh(system, &mut self.rng.borrow_mut());
        let s_col = Expr::Column(format!("{}.{}", l.table, AUX_COLUMN));

        let l_expr = self.key_update_expr(&l, aux, target, &s_col);
        let r_expr = self.key_update_expr(&r, aux, target, &s_col);
        Ok(EncExpr {
            expr: Expr::func("SDB_ADD", vec![l_expr, r_expr, Expr::str(self.n_str)]),
            key: target,
            scale: common,
            decode: scaled_plain_type(common),
            table: l.table,
        })
    }

    /// EP combination of an encrypted operand with a plain expression.
    fn ep_combine(
        &self,
        enc: EncExpr,
        plain: &Expr,
        op: BinaryOp,
        plain_on_left: bool,
        ctx: &Ctx,
    ) -> Result<EncExpr> {
        self.check_subqueries(plain)?;
        let system = self.keystore.system();
        let plain_scale = self.plain_scale(plain, ctx);
        match op {
            BinaryOp::Mul => {
                let scale = enc.scale + plain_scale;
                Ok(EncExpr {
                    expr: Expr::func(
                        "SDB_MUL_PLAIN",
                        vec![
                            enc.expr,
                            plain.clone(),
                            Expr::int(i64::from(plain_scale)),
                            Expr::str(self.n_str),
                        ],
                    ),
                    key: enc.key,
                    scale,
                    decode: scaled_plain_type(scale),
                    table: enc.table,
                })
            }
            BinaryOp::Add | BinaryOp::Sub => {
                let common = enc.scale.max(plain_scale);
                let mut enc = self.rescale_enc(enc, common);
                // Subtraction never negates the *plain* operand (negation is not
                // defined for every plain type, e.g. DATE literals). Instead:
                //   plain − enc:  negate enc, add plain                → done.
                //   enc − plain:  negate enc, add plain, negate result → enc − plain.
                let negate_result = op == BinaryOp::Sub && !plain_on_left;
                if op == BinaryOp::Sub {
                    enc = self.scale_enc(enc, &(system.n() - BigUint::one()), 0);
                }
                let aux = self.aux_key_of(&enc.table, ctx)?;
                let s_col = Expr::Column(format!("{}.{}", enc.table, AUX_COLUMN));
                // Key-update the encrypted operand onto the auxiliary column's key so
                // the SP can blend in the plain operand through S_e.
                let updated = self.key_update_expr(&enc, aux, aux, &s_col);
                let mut result = EncExpr {
                    expr: Expr::func(
                        "SDB_ADD_PLAIN",
                        vec![
                            updated,
                            plain.clone(),
                            Expr::int(i64::from(common)),
                            s_col,
                            Expr::str(self.n_str),
                        ],
                    ),
                    key: aux,
                    scale: common,
                    decode: scaled_plain_type(common),
                    table: enc.table,
                };
                if negate_result {
                    result = self.scale_enc(result, &(system.n() - BigUint::one()), 0);
                }
                Ok(result)
            }
            _ => unreachable!("caller checked the operator"),
        }
    }

    /// Emits an `SDB_KEY_UPDATE` call re-encrypting `enc` under the key of
    /// tape step `target` through the auxiliary key of step `aux`. Its `p`
    /// and `q` are parameters: the rewrite computes them once it is done,
    /// inverting every drawn target in one batch.
    fn key_update_expr(&self, enc: &EncExpr, aux: usize, target: usize, s_col: &Expr) -> Expr {
        let (p, q) = self.tape.borrow_mut().key_update(enc.key, aux, target);
        Expr::func(
            "SDB_KEY_UPDATE",
            vec![
                enc.expr.clone(),
                s_col.clone(),
                Expr::Param(p),
                Expr::Param(q),
                Expr::str(self.n_str),
            ],
        )
    }

    /// A key read from the key store, recorded on the tape.
    fn stored_key(&self, key: &ColumnKey) -> usize {
        (self.tape.borrow_mut()).stored(
            key.clone(),
            self.keystore.system(),
            &mut self.rng.borrow_mut(),
        )
    }

    /// Registers a handle over the key of tape step `key` in the session.
    fn register_handle(&self, key: usize, decode: PlainType, row_independent: bool) -> String {
        (self.tape.borrow_mut()).register_handle(key, decode, row_independent, &self.session)
    }

    /// Multiplies the *decrypted* value of `enc` by a constant without touching the
    /// ciphertext (column-key change only), optionally bumping the recorded scale.
    fn scale_enc(&self, enc: EncExpr, constant: &BigUint, scale_bump: u8) -> EncExpr {
        let key = self.tape.borrow_mut().scale(
            enc.key,
            constant,
            self.keystore.system(),
            &mut self.rng.borrow_mut(),
        );
        let scale = enc.scale + scale_bump;
        EncExpr {
            expr: enc.expr,
            key,
            scale,
            decode: scaled_plain_type(scale),
            table: enc.table,
        }
    }

    /// Rescales an encrypted fixed-point operand up to `target_scale`.
    fn rescale_enc(&self, enc: EncExpr, target_scale: u8) -> EncExpr {
        if enc.scale >= target_scale {
            return enc;
        }
        let diff = target_scale - enc.scale;
        let factor = BigUint::from(10u32).pow(u32::from(diff));
        self.scale_enc(enc, &factor, diff)
    }

    /// The auxiliary key of a visible table, as a tape step.
    fn aux_key_of(&self, visible: &str, ctx: &Ctx) -> Result<usize> {
        let binding = ctx
            .bindings
            .iter()
            .find(|b| b.visible == visible)
            .ok_or_else(|| ProxyError::UnknownTable {
                name: visible.to_string(),
            })?;
        Ok(self.stored_key(&self.keystore.table_keys(&binding.table)?.aux))
    }

    /// Static fixed-point scale of a plain (insensitive) expression.
    fn plain_scale(&self, expr: &Expr, ctx: &Ctx) -> u8 {
        match expr {
            Expr::Literal(Literal::Decimal { scale, .. }) => *scale,
            Expr::Literal(_) => 0,
            Expr::Column(name) => self
                .resolve_column(name, &ctx.bindings)
                .map(|(_, c)| match c.data_type {
                    sdb_storage::DataType::Decimal { scale } => scale,
                    _ => 0,
                })
                .unwrap_or(0),
            Expr::Unary { expr, .. } => self.plain_scale(expr, ctx),
            Expr::Binary { left, op, right } => {
                let l = self.plain_scale(left, ctx);
                let r = self.plain_scale(right, ctx);
                match op {
                    BinaryOp::Mul => l + r,
                    BinaryOp::Div => 4,
                    _ => l.max(r),
                }
            }
            _ => 0,
        }
    }

    // ------------------------------------------------------------------
    // Predicates
    // ------------------------------------------------------------------

    /// Rewrites a predicate, turning comparisons over sensitive data into oracle
    /// calls and leaving insensitive sub-predicates untouched.
    fn rewrite_predicate(&self, expr: &Expr, ctx: &Ctx) -> Result<Expr> {
        if !self.is_sensitive_expr(expr, &ctx.bindings) {
            self.check_subqueries(expr)?;
            return Ok(expr.clone());
        }
        match expr {
            Expr::Binary {
                left,
                op: op @ (BinaryOp::And | BinaryOp::Or),
                right,
            } => Ok(Expr::binary(
                self.rewrite_predicate(left, ctx)?,
                *op,
                self.rewrite_predicate(right, ctx)?,
            )),
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(self.rewrite_predicate(expr, ctx)?),
            }),
            Expr::Binary { left, op, right } if op.is_comparison() => {
                self.rewrite_comparison(left, *op, right, ctx)
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let ge = self.rewrite_comparison(expr, BinaryOp::GtEq, low, ctx)?;
                let le = self.rewrite_comparison(expr, BinaryOp::LtEq, high, ctx)?;
                let both = Expr::binary(ge, BinaryOp::And, le);
                Ok(if *negated {
                    Expr::Unary {
                        op: UnaryOp::Not,
                        expr: Box::new(both),
                    }
                } else {
                    both
                })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let mut disjunction: Option<Expr> = None;
                for candidate in list {
                    let eq = self.rewrite_comparison(expr, BinaryOp::Eq, candidate, ctx)?;
                    disjunction = Some(match disjunction {
                        Some(acc) => Expr::binary(acc, BinaryOp::Or, eq),
                        None => eq,
                    });
                }
                let inner =
                    disjunction.ok_or_else(|| ProxyError::UnsupportedSensitiveOperation {
                        detail: "empty IN list".into(),
                    })?;
                Ok(if *negated {
                    Expr::Unary {
                        op: UnaryOp::Not,
                        expr: Box::new(inner),
                    }
                } else {
                    inner
                })
            }
            Expr::IsNull { expr, negated } => {
                // Encryption preserves NULL-ness, so IS NULL works directly on the
                // encrypted column; just qualify the reference.
                if let Expr::Column(name) = expr.as_ref() {
                    if let Some((binding, column)) = self.resolve_column(name, &ctx.bindings) {
                        let physical = if column.is_string_sensitive() {
                            format!("{}.{}{SIES_SUFFIX}", binding.visible, column.name)
                        } else {
                            format!("{}.{}", binding.visible, column.name)
                        };
                        return Ok(Expr::IsNull {
                            expr: Box::new(Expr::Column(physical)),
                            negated: *negated,
                        });
                    }
                }
                Err(ProxyError::UnsupportedSensitiveOperation {
                    detail: format!("IS NULL over sensitive expression {expr}"),
                })
            }
            other => Err(ProxyError::UnsupportedSensitiveOperation {
                detail: format!("predicate not supported over sensitive data: {other}"),
            }),
        }
    }

    fn rewrite_comparison(
        &self,
        left: &Expr,
        op: BinaryOp,
        right: &Expr,
        ctx: &Ctx,
    ) -> Result<Expr> {
        // Subqueries feeding a sensitive comparison are outside the rewrite surface
        // (their results would be encrypted aggregates the EP UDFs cannot consume).
        self.check_subqueries(left)?;
        self.check_subqueries(right)?;
        // Sensitive VARCHAR equality works through deterministic tags.
        if let Some(rewritten) = self.try_string_equality(left, op, right, ctx)? {
            return Ok(rewritten);
        }

        let left_sensitive = self.is_sensitive_expr(left, &ctx.bindings);
        let right_sensitive = self.is_sensitive_expr(right, &ctx.bindings);

        // Cross-table sensitive equality (join-style predicates) goes through group
        // tags; same-table comparisons go through the encrypted difference.
        let difference = Expr::Binary {
            left: Box::new(left.clone()),
            op: BinaryOp::Sub,
            right: Box::new(right.clone()),
        };
        match self.rewrite_enc_expr(&difference, ctx) {
            Ok(diff) => {
                let handle = self.register_handle(diff.key, scaled_plain_type(diff.scale), false);
                let cmp_fn = match op {
                    BinaryOp::Gt => oracle_fns::CMP_GT,
                    BinaryOp::GtEq => oracle_fns::CMP_GE,
                    BinaryOp::Lt => oracle_fns::CMP_LT,
                    BinaryOp::LtEq => oracle_fns::CMP_LE,
                    BinaryOp::Eq => oracle_fns::CMP_EQ,
                    BinaryOp::NotEq => oracle_fns::CMP_NE,
                    _ => unreachable!("caller checked comparison"),
                };
                Ok(Expr::func(
                    cmp_fn,
                    vec![
                        diff.expr,
                        Expr::Column(format!("{}.{ROW_ID_COLUMN}", diff.table)),
                        Expr::str(&handle),
                        Expr::str(self.n_str),
                    ],
                ))
            }
            Err(_)
                if left_sensitive
                    && right_sensitive
                    && matches!(op, BinaryOp::Eq | BinaryOp::NotEq) =>
            {
                // Equality across tables: compare group tags.
                let l = self.group_tag_call(left, ctx)?;
                let r = self.group_tag_call(right, ctx)?;
                let eq = Expr::binary(l, BinaryOp::Eq, r);
                Ok(if op == BinaryOp::NotEq {
                    Expr::Unary {
                        op: UnaryOp::Not,
                        expr: Box::new(eq),
                    }
                } else {
                    eq
                })
            }
            Err(e) => Err(e),
        }
    }

    fn try_string_equality(
        &self,
        left: &Expr,
        op: BinaryOp,
        right: &Expr,
        ctx: &Ctx,
    ) -> Result<Option<Expr>> {
        if !matches!(op, BinaryOp::Eq | BinaryOp::NotEq) {
            return Ok(None);
        }
        let string_column = |e: &Expr| -> Option<(String, ColumnMeta)> {
            if let Expr::Column(name) = e {
                if let Some((binding, column)) = self.resolve_column(name, &ctx.bindings) {
                    if column.is_string_sensitive() {
                        return Some((binding.visible.clone(), column.clone()));
                    }
                }
            }
            None
        };
        let tag_ref = |visible: &str, column: &ColumnMeta| {
            Expr::Column(format!("{visible}.{}{TAG_SUFFIX}", column.name))
        };

        let rewritten = match (string_column(left), string_column(right)) {
            (Some((lv, lc)), Some((rv, rc))) => Some(Expr::binary(
                tag_ref(&lv, &lc),
                BinaryOp::Eq,
                tag_ref(&rv, &rc),
            )),
            (Some((v, c)), None) | (None, Some((v, c))) => {
                let literal = match (left, right) {
                    (_, Expr::Literal(Literal::Str(s))) | (Expr::Literal(Literal::Str(s)), _) => s,
                    _ => {
                        return Err(ProxyError::UnsupportedSensitiveOperation {
                            detail: "sensitive string columns only support equality with string literals or other sensitive string columns".into(),
                        })
                    }
                };
                let tag = self.keystore.tagger().tag_str(&domain_of(&c), literal);
                Some(Expr::func(
                    "SDB_TAG_EQ",
                    vec![tag_ref(&v, &c), Expr::str(&tag.to_string())],
                ))
            }
            (None, None) => None,
        };
        Ok(rewritten.map(|expr| {
            if op == BinaryOp::NotEq {
                Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(expr),
                }
            } else {
                expr
            }
        }))
    }

    /// Builds an `SDB_GROUP_TAG` oracle call for a sensitive expression.
    fn group_tag_call(&self, expr: &Expr, ctx: &Ctx) -> Result<Expr> {
        // Sensitive VARCHAR columns already carry upload-time tags.
        if let Expr::Column(name) = expr {
            if let Some((binding, column)) = self.resolve_column(name, &ctx.bindings) {
                if column.is_string_sensitive() {
                    return Ok(Expr::Column(format!(
                        "{}.{}{TAG_SUFFIX}",
                        binding.visible, column.name
                    )));
                }
            }
        }
        let enc = self.rewrite_enc_expr(expr, ctx)?;
        let handle = self.register_handle(enc.key, enc.decode, false);
        Ok(Expr::func(
            oracle_fns::GROUP_TAG,
            vec![
                enc.expr,
                Expr::Column(format!("{}.{ROW_ID_COLUMN}", enc.table)),
                Expr::str(&handle),
            ],
        ))
    }

    // ------------------------------------------------------------------
    // GROUP BY keys
    // ------------------------------------------------------------------

    fn rewrite_group_key(&self, expr: &Expr, ctx: &Ctx) -> Result<Expr> {
        // Sensitive VARCHAR group keys use the upload-time tag column directly;
        // numeric ones go through the oracle so the proxy can recover the values.
        self.group_tag_call(expr, ctx)
    }

    // ------------------------------------------------------------------
    // Projections
    // ------------------------------------------------------------------

    fn rewrite_wildcard(&self, ctx: &mut Ctx) -> Result<()> {
        if ctx.grouped {
            return Err(ProxyError::UnsupportedSensitiveOperation {
                detail: "SELECT * cannot be combined with GROUP BY".into(),
            });
        }
        let bindings = ctx.bindings.clone();
        for binding in &bindings {
            for column in binding.meta.columns.clone() {
                let reference = Expr::Column(format!("{}.{}", binding.visible, column.name));
                self.rewrite_projection(&reference, &column.name, false, ctx)?;
            }
        }
        Ok(())
    }

    fn rewrite_projection(
        &self,
        expr: &Expr,
        output_name: &str,
        hidden: bool,
        ctx: &mut Ctx,
    ) -> Result<()> {
        if !self.is_sensitive_expr(expr, &ctx.bindings) {
            self.check_subqueries(expr)?;
            let alias = self.add_server_item(expr.clone(), Ingredient::Plain, ctx);
            ctx.outputs.push(OutputColumn {
                name: output_name.to_string(),
                source: OutputSource::Column(alias),
                hidden,
            });
            return Ok(());
        }

        let client = self.decompose(expr, ctx)?;
        let source = match &client {
            Expr::Column(name) => OutputSource::Column(name.clone()),
            other => OutputSource::Computed(other.clone()),
        };
        ctx.outputs.push(OutputColumn {
            name: output_name.to_string(),
            source,
            hidden,
        });
        Ok(())
    }

    /// Decomposes a sensitive projection expression into server-side ingredients
    /// plus a client-side expression over them. Returns the client-side expression
    /// (a bare `Column` when the whole thing was pushed to the server).
    fn decompose(&self, expr: &Expr, ctx: &mut Ctx) -> Result<Expr> {
        // Grouped query: a sensitive group key projects as its tag surrogate.
        if ctx.grouped {
            if let Some(rewritten) = ctx.group_map.get(&expr.to_string()).cloned() {
                let ingredient = if matches!(&rewritten, Expr::Column(c) if c.ends_with(TAG_SUFFIX))
                {
                    // Upload-time VARCHAR tag: project a representative SIES payload
                    // instead, which the proxy can actually decrypt.
                    if let Expr::Column(name) = expr {
                        if let Some((binding, column)) = self.resolve_column(name, &ctx.bindings) {
                            if column.is_string_sensitive() {
                                let payload = Expr::func(
                                    "MIN",
                                    vec![Expr::Column(format!(
                                        "{}.{}{SIES_SUFFIX}",
                                        binding.visible, column.name
                                    ))],
                                );
                                let alias =
                                    self.add_server_item(payload, Ingredient::SiesString, ctx);
                                return Ok(Expr::Column(alias));
                            }
                        }
                    }
                    Ingredient::SurrogateTag
                } else {
                    Ingredient::SurrogateTag
                };
                let alias = self.add_server_item(rewritten, ingredient, ctx);
                return Ok(Expr::Column(alias));
            }
        }

        // Aggregates over sensitive data.
        if let Expr::Function {
            name,
            args,
            distinct,
            wildcard,
        } = expr
        {
            if is_aggregate_name(name) {
                return self.decompose_aggregate(name, args, *distinct, *wildcard, ctx);
            }
        }

        // A whole arithmetic expression computable over shares (and not under
        // GROUP BY) is pushed to the server as one encrypted ingredient.
        if !ctx.grouped && !expr.contains_aggregate() {
            if let Ok(enc) = self.rewrite_enc_expr(expr, ctx) {
                let alias = self.push_row_keyed(enc, ctx);
                return Ok(Expr::Column(alias));
            }
            // Bare sensitive VARCHAR column: project the SIES payload.
            if let Expr::Column(name) = expr {
                if let Some((binding, column)) = self.resolve_column(name, &ctx.bindings) {
                    if column.is_string_sensitive() {
                        let payload = Expr::Column(format!(
                            "{}.{}{SIES_SUFFIX}",
                            binding.visible, column.name
                        ));
                        let alias = self.add_server_item(payload, Ingredient::SiesString, ctx);
                        return Ok(Expr::Column(alias));
                    }
                }
            }
        }

        // Otherwise recurse: children are decomposed and the outer expression is
        // evaluated client-side.
        match expr {
            Expr::Binary { left, op, right } => Ok(Expr::Binary {
                left: Box::new(self.decompose(left, ctx)?),
                op: *op,
                right: Box::new(self.decompose(right, ctx)?),
            }),
            Expr::Unary { op, expr } => Ok(Expr::Unary {
                op: *op,
                expr: Box::new(self.decompose(expr, ctx)?),
            }),
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                let operand = match operand {
                    Some(o) => Some(Box::new(self.decompose(o, ctx)?)),
                    None => None,
                };
                let mut new_branches = Vec::new();
                for (w, t) in branches {
                    new_branches.push((self.decompose(w, ctx)?, self.decompose(t, ctx)?));
                }
                let else_expr = match else_expr {
                    Some(e) => Some(Box::new(self.decompose(e, ctx)?)),
                    None => None,
                };
                Ok(Expr::Case {
                    operand,
                    branches: new_branches,
                    else_expr,
                })
            }
            Expr::Literal(_) => Ok(expr.clone()),
            Expr::Column(name) => {
                // A plain column referenced alongside sensitive ingredients: ship it
                // as a plain ingredient so the client expression can use it.
                if self.is_sensitive_expr(expr, &ctx.bindings) {
                    // Sensitive column in a context we could not push (e.g. under
                    // GROUP BY but not a group key).
                    return Err(ProxyError::UnsupportedSensitiveOperation {
                        detail: format!(
                            "sensitive column {name} used outside aggregates/group keys in a grouped query"
                        ),
                    });
                }
                let alias = self.add_server_item(expr.clone(), Ingredient::Plain, ctx);
                Ok(Expr::Column(alias))
            }
            other => Err(ProxyError::UnsupportedSensitiveOperation {
                detail: format!("cannot decompose expression over sensitive data: {other}"),
            }),
        }
    }

    fn decompose_aggregate(
        &self,
        name: &str,
        args: &[Expr],
        distinct: bool,
        wildcard: bool,
        ctx: &mut Ctx,
    ) -> Result<Expr> {
        let upper = name.to_ascii_uppercase();
        let arg = args.first();
        let arg_sensitive = arg
            .map(|a| self.is_sensitive_expr(a, &ctx.bindings))
            .unwrap_or(false);

        // Plain aggregates are pushed through untouched.
        if !arg_sensitive {
            let server_expr = Expr::Function {
                name: upper,
                args: args.to_vec(),
                distinct,
                wildcard,
            };
            let alias = self.add_server_item(server_expr, Ingredient::Plain, ctx);
            return Ok(Expr::Column(alias));
        }
        if distinct {
            return Err(ProxyError::UnsupportedSensitiveOperation {
                detail: format!("{upper}(DISTINCT …) over sensitive data"),
            });
        }
        let arg = arg.expect("sensitive aggregate has an argument");

        match upper.as_str() {
            "SUM" => {
                let alias = self.push_encrypted_sum(arg, ctx)?;
                Ok(Expr::Column(alias))
            }
            "COUNT" => {
                let enc = self.rewrite_enc_expr(arg, ctx)?;
                let server_expr = Expr::func("COUNT", vec![enc.expr]);
                let alias = self.add_server_item(server_expr, Ingredient::Plain, ctx);
                Ok(Expr::Column(alias))
            }
            "AVG" => {
                let sum_alias = self.push_encrypted_sum(arg, ctx)?;
                let enc = self.rewrite_enc_expr(arg, ctx)?;
                let count_expr = Expr::func("COUNT", vec![enc.expr]);
                let count_alias = self.add_server_item(count_expr, Ingredient::Plain, ctx);
                // Force decimal division semantics (SUM over an INT column decodes as
                // INT, and INT / INT would truncate to an integer instead of the
                // scale-4 decimal SQL AVG produces): multiply by 1.0 first.
                let decimal_sum = Expr::binary(
                    Expr::Column(sum_alias),
                    BinaryOp::Mul,
                    Expr::Literal(Literal::Decimal {
                        units: 10,
                        scale: 1,
                    }),
                );
                Ok(Expr::binary(
                    decimal_sum,
                    BinaryOp::Div,
                    Expr::Column(count_alias),
                ))
            }
            "MIN" | "MAX" => {
                let enc = self.rewrite_enc_expr(arg, ctx)?;
                let handle = self.register_handle(enc.key, enc.decode, false);
                let rank_call = Expr::func(
                    oracle_fns::RANK,
                    vec![
                        enc.expr,
                        Expr::Column(format!("{}.{ROW_ID_COLUMN}", enc.table)),
                        Expr::str(&handle),
                    ],
                );
                let server_expr = Expr::func(&upper, vec![rank_call]);
                let alias = self.add_server_item(server_expr, Ingredient::SurrogateRank, ctx);
                Ok(Expr::Column(alias))
            }
            other => Err(ProxyError::UnsupportedSensitiveOperation {
                detail: format!("aggregate {other} over sensitive data"),
            }),
        }
    }

    /// Pushes `SUM(<sensitive expr>)` to the server: key-update the rewritten
    /// expression to a fresh *row-independent* key, let the SP fold with modular
    /// addition, and decrypt the single result with the constant item key.
    fn push_encrypted_sum(&self, arg: &Expr, ctx: &mut Ctx) -> Result<String> {
        let source = arg.to_string();
        if let Some(alias) = ctx.encrypted_sums.get(&source) {
            return Ok(alias.clone());
        }
        let enc = self.rewrite_enc_expr(arg, ctx)?;
        let aux = self.aux_key_of(&enc.table, ctx)?;
        let target = (self.tape.borrow_mut())
            .fresh_row_independent(self.keystore.system(), &mut self.rng.borrow_mut());
        let s_col = Expr::Column(format!("{}.{}", enc.table, AUX_COLUMN));
        let updated = self.key_update_expr(&enc, aux, target, &s_col);
        let handle = self.register_handle(target, scaled_plain_type(enc.scale), true);
        let server_expr = Expr::func("SUM", vec![updated]);
        let alias = self.add_server_item(
            server_expr,
            Ingredient::EncryptedRowIndependent {
                handle,
                decode: scaled_plain_type(enc.scale),
            },
            ctx,
        );
        ctx.encrypted_sums.insert(source, alias.clone());
        Ok(alias)
    }

    /// Adds a row-keyed encrypted ingredient (plus the row-id projection its
    /// decryption needs) and returns its server alias.
    fn push_row_keyed(&self, enc: EncExpr, ctx: &mut Ctx) -> String {
        let rowid_alias = ctx
            .rowid_items
            .entry(enc.table.clone())
            .or_insert_with(|| format!("__rowid_{}", enc.table.replace('.', "_")))
            .clone();
        let handle = self.register_handle(enc.key, enc.decode, false);
        self.add_server_item(
            enc.expr,
            Ingredient::EncryptedRowKeyed {
                handle,
                decode: enc.decode,
                row_id_column: rowid_alias,
            },
            ctx,
        )
    }

    /// Registers a server SELECT item (deduplicating identical expressions) and
    /// returns its alias.
    fn add_server_item(&self, expr: Expr, ingredient: Ingredient, ctx: &mut Ctx) -> String {
        // Reuse an identical existing item.
        if let Some(existing) = ctx
            .server_items
            .iter()
            .find(|item| item.expr == expr && item.ingredient == ingredient)
        {
            return existing.alias.clone();
        }
        let alias = match &expr {
            Expr::Column(name) => {
                let bare = name.rsplit('.').next().unwrap_or(name).to_string();
                if ctx.used_aliases.contains(&bare) {
                    format!("__c{}", ctx.server_items.len())
                } else {
                    bare
                }
            }
            _ => format!("__c{}", ctx.server_items.len()),
        };
        ctx.used_aliases.insert(alias.clone());
        ctx.server_items.push(ServerItem {
            expr,
            alias: alias.clone(),
            ingredient,
        });
        alias
    }

    /// Makes sure every column referenced by a client-side expression is available
    /// as an output (adding hidden pass-through outputs where needed).
    fn ensure_outputs_for(&self, expr: &Expr, ctx: &mut Ctx) {
        let mut referenced = Vec::new();
        expr.referenced_columns(&mut referenced);
        for column in referenced {
            let already = ctx.outputs.iter().any(|o| o.name == column);
            if !already {
                ctx.outputs.push(OutputColumn {
                    name: column.clone(),
                    source: OutputSource::Column(column),
                    hidden: true,
                });
            }
        }
    }

    /// Resolves an ORDER BY key to a client-side output column, adding hidden
    /// outputs where necessary.
    fn resolve_order_key(&self, order: &OrderItem, index: usize, ctx: &mut Ctx) -> Result<String> {
        // Key matches an existing output by name (alias) or by original rendering.
        if let Expr::Column(name) = &order.expr {
            if ctx
                .outputs
                .iter()
                .any(|o| o.name.eq_ignore_ascii_case(name))
            {
                return Ok(name.clone());
            }
        }
        // Otherwise decompose the key expression and add it as a hidden output.
        let hidden_name = format!("__sort{index}");
        let rewritten_name = order.expr.to_string();
        if let Some(output) = ctx
            .outputs
            .iter()
            .find(|o| o.name.eq_ignore_ascii_case(&rewritten_name))
        {
            return Ok(output.name.clone());
        }
        self.rewrite_projection(&order.expr, &hidden_name, true, ctx)?;
        Ok(hidden_name)
    }
}

/// Output name for an un-aliased projection (bare columns keep their name,
/// everything else keeps its rendered text).
fn default_output_name(expr: &Expr) -> String {
    match expr {
        Expr::Column(name) => name.rsplit('.').next().unwrap_or(name).to_string(),
        other => other.to_string(),
    }
}

/// Plain type corresponding to a fixed-point scale.
fn scaled_plain_type(scale: u8) -> PlainType {
    if scale == 0 {
        PlainType::Int
    } else {
        PlainType::Decimal(scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sdb_crypto::KeyConfig;
    use sdb_sql::{parse_sql, Statement};
    use sdb_storage::{ColumnDef, DataType, Schema};

    struct Fixture {
        keystore: KeyStore,
        metas: BTreeMap<String, TableMeta>,
        key_updates: KeyUpdateMemo,
        n_text: String,
    }

    fn fixture() -> Fixture {
        let mut keystore =
            KeyStore::generate(KeyConfig::TEST, &mut Drbg::seed_from_u64(41)).unwrap();
        let emp = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::sensitive("salary", DataType::Decimal { scale: 2 }),
            ColumnDef::sensitive("bonus", DataType::Int),
            ColumnDef::sensitive("notes", DataType::Varchar),
            ColumnDef::public("dept", DataType::Varchar),
            ColumnDef::public("qty", DataType::Int),
        ]);
        let dept = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::sensitive("budget", DataType::Int),
            ColumnDef::public("name", DataType::Varchar),
        ]);
        let emp_meta = TableMeta::from_schema("emp", &emp);
        let dept_meta = TableMeta::from_schema("dept", &dept);
        let mut rng = Drbg::seed_from_u64(100);
        keystore
            .register_table(&mut rng, "emp", &["salary".into(), "bonus".into()])
            .unwrap();
        keystore
            .register_table(&mut rng, "dept", &["budget".into()])
            .unwrap();
        let mut metas = BTreeMap::new();
        metas.insert("emp".to_string(), emp_meta);
        metas.insert("dept".to_string(), dept_meta);
        let n_text = keystore.system().n().to_string();
        Fixture {
            keystore,
            metas,
            key_updates: KeyUpdateMemo::default(),
            n_text,
        }
    }

    fn rewriter(fixture: &Fixture, session: Arc<QuerySession>) -> Rewriter<'_> {
        Rewriter::new(
            &fixture.keystore,
            &fixture.metas,
            &fixture.key_updates,
            &fixture.n_text,
            session,
            Drbg::seed_from_u64(1),
        )
    }

    fn rewrite(fixture: &Fixture, sql: &str) -> (RewriteOutput, Arc<QuerySession>) {
        let session = Arc::new(QuerySession::new());
        let rewriter = rewriter(fixture, session.clone());
        let Statement::Query(query) = parse_sql(sql).unwrap() else {
            panic!("expected a query")
        };
        (rewriter.rewrite_query(&query).unwrap(), session)
    }

    fn rewrite_err(fixture: &Fixture, sql: &str) -> ProxyError {
        let rewriter = rewriter(fixture, Arc::new(QuerySession::new()));
        let Statement::Query(query) = parse_sql(sql).unwrap() else {
            panic!("expected a query")
        };
        rewriter.rewrite_query(&query).unwrap_err()
    }

    /// The DO's key-update memo changes no byte of the rewrite: under one
    /// RNG seed, the SQL from a cold memo, from the same memo warmed by that
    /// rewrite, and from a fresh memo agree; every key-update shape is among
    /// them (`SUM` targets, EP add/sub, comparisons, EE add).
    #[test]
    fn a_warm_key_update_memo_rewrites_byte_for_byte() {
        let f = fixture();
        let queries = [
            "SELECT SUM(salary), SUM(salary * (1 - bonus)) FROM emp GROUP BY dept",
            "SELECT id FROM emp WHERE salary + 3 > bonus",
            "SELECT salary + bonus, salary - 2 FROM emp WHERE salary > 10.50",
            "SELECT dept, AVG(bonus) FROM emp GROUP BY dept HAVING SUM(bonus) > 7",
        ];
        for sql in queries {
            let cold = rewrite(&f, sql).0.server_query.to_string();
            assert!(cold.contains("SDB_KEY_UPDATE"), "{sql}: {cold}");
            let warm = rewrite(&f, sql).0.server_query.to_string();
            assert_eq!(cold, warm, "{sql}");
            let fresh = Fixture {
                key_updates: KeyUpdateMemo::default(),
                ..fixture()
            };
            assert_eq!(rewrite(&fresh, sql).0.server_query.to_string(), cold);
        }
        // Its Debug output names no key material, only how much it holds.
        let debug = format!("{:?}", f.key_updates);
        assert_eq!(debug, "KeyUpdateMemo { aux_keys: 1, pairs: 5 }");
    }

    #[test]
    fn insensitive_query_passes_through() {
        let f = fixture();
        let (out, _) = rewrite(
            &f,
            "SELECT id, dept FROM emp WHERE id > 5 ORDER BY id LIMIT 3",
        );
        assert!(out.plan.is_passthrough() || out.plan.ingredients.is_empty());
        assert!(out.server_query.to_string().contains("ORDER BY"));
    }

    /// The paper's own rewriting example (§2.2): SELECT A × B AS C FROM T.
    #[test]
    fn paper_multiplication_example() {
        let f = fixture();
        let (out, session) = rewrite(&f, "SELECT salary * bonus AS c FROM emp");
        let sql = out.server_query.to_string();
        assert!(
            sql.contains("SDB_MULTIPLY(emp.salary, emp.bonus,"),
            "rewritten SQL: {sql}"
        );
        assert!(sql.contains("row_id"), "row-id must be added: {sql}");
        assert_eq!(out.plan.outputs.len(), 1);
        assert_eq!(out.plan.outputs[0].name, "c");
        // One encrypted ingredient plus the row id.
        assert_eq!(out.plan.encrypted_ingredient_count(), 1);
        assert_eq!(session.handle_count(), 1);
    }

    #[test]
    fn addition_uses_key_updates() {
        let f = fixture();
        let (out, _) = rewrite(&f, "SELECT salary + bonus AS total FROM emp");
        let sql = out.server_query.to_string();
        assert!(
            sql.contains("SDB_ADD(SDB_KEY_UPDATE(emp.salary, emp.sdb_s,"),
            "{sql}"
        );
        assert!(
            sql.contains("SDB_KEY_UPDATE(emp.bonus, emp.sdb_s,"),
            "{sql}"
        );
    }

    /// `SUM(x)` beside `AVG(x)`, and a `SUM` repeated in `HAVING`, push one
    /// server item per distinct argument: one key update, one result column.
    #[test]
    fn repeated_encrypted_sums_share_one_server_item() {
        let f = fixture();
        let (out, _) = rewrite(
            &f,
            "SELECT dept, SUM(salary) AS total, AVG(salary) AS mean, SUM(bonus) AS extra \
             FROM emp GROUP BY dept HAVING SUM(salary) > 100",
        );
        let sql = out.server_query.to_string();
        assert_eq!(
            sql.matches("SUM(SDB_KEY_UPDATE(emp.salary,").count(),
            1,
            "{sql}"
        );
        assert_eq!(
            sql.matches("SUM(SDB_KEY_UPDATE(emp.bonus,").count(),
            1,
            "{sql}"
        );
        assert_eq!(sql.matches("SDB_KEY_UPDATE").count(), 2, "{sql}");
        assert_eq!(out.plan.encrypted_ingredient_count(), 2);
    }

    #[test]
    fn mixed_plain_operand_uses_ep_udfs() {
        let f = fixture();
        let (out, _) = rewrite(
            &f,
            "SELECT salary * qty AS weighted, salary + 10 AS bumped FROM emp",
        );
        let sql = out.server_query.to_string();
        assert!(sql.contains("SDB_MUL_PLAIN(emp.salary, qty"), "{sql}");
        assert!(sql.contains("SDB_ADD_PLAIN("), "{sql}");
    }

    #[test]
    fn comparison_produces_oracle_call_and_handle() {
        let f = fixture();
        let (out, session) = rewrite(&f, "SELECT id FROM emp WHERE salary > 5000");
        let sql = out.server_query.to_string();
        assert!(sql.contains("SDB_CMP_GT("), "{sql}");
        assert!(sql.contains("emp.row_id"), "{sql}");
        assert_eq!(session.handle_count(), 1);
        // The projected id is plain; no encrypted ingredients.
        assert_eq!(out.plan.encrypted_ingredient_count(), 0);
    }

    #[test]
    fn between_and_in_expand_to_comparisons() {
        let f = fixture();
        let (out, session) = rewrite(
            &f,
            "SELECT id FROM emp WHERE salary BETWEEN 100 AND 200 AND bonus IN (1, 2)",
        );
        let sql = out.server_query.to_string();
        assert!(sql.matches("SDB_CMP_GE").count() == 1, "{sql}");
        assert!(sql.matches("SDB_CMP_LE").count() == 1, "{sql}");
        assert!(sql.matches("SDB_CMP_EQ").count() == 2, "{sql}");
        assert!(session.handle_count() >= 4);
    }

    #[test]
    fn aggregates_rewrite_to_sum_count_rank() {
        let f = fixture();
        let (out, _) = rewrite(
            &f,
            "SELECT dept, SUM(salary) AS total, AVG(salary) AS mean, COUNT(*) AS n, MAX(bonus) AS top FROM emp GROUP BY dept",
        );
        let sql = out.server_query.to_string();
        assert!(sql.contains("SUM(SDB_KEY_UPDATE(emp.salary"), "{sql}");
        assert!(sql.contains("COUNT(*)"), "{sql}");
        assert!(sql.contains("MAX(SDB_RANK(emp.bonus"), "{sql}");
        // AVG is computed client side as SUM / COUNT.
        let avg_output = out
            .plan
            .outputs
            .iter()
            .find(|o| o.name == "mean")
            .expect("mean output");
        assert!(matches!(avg_output.source, OutputSource::Computed(_)));
        // SUM ingredient is row independent.
        assert!(out
            .plan
            .ingredients
            .iter()
            .any(|(_, i)| matches!(i, Ingredient::EncryptedRowIndependent { .. })));
        assert!(out
            .plan
            .ingredients
            .iter()
            .any(|(_, i)| matches!(i, Ingredient::SurrogateRank)));
    }

    #[test]
    fn group_by_sensitive_numeric_uses_group_tags() {
        let f = fixture();
        let (out, _) = rewrite(&f, "SELECT bonus, COUNT(*) AS n FROM emp GROUP BY bonus");
        let sql = out.server_query.to_string();
        assert!(
            sql.contains("GROUP BY SDB_GROUP_TAG(emp.bonus, emp.row_id"),
            "{sql}"
        );
        assert!(out
            .plan
            .ingredients
            .iter()
            .any(|(_, i)| matches!(i, Ingredient::SurrogateTag)));
    }

    #[test]
    fn group_by_sensitive_string_uses_upload_tags_and_payload() {
        let f = fixture();
        let (out, _) = rewrite(&f, "SELECT notes, COUNT(*) AS n FROM emp GROUP BY notes");
        let sql = out.server_query.to_string();
        assert!(sql.contains("GROUP BY emp.notes_tag"), "{sql}");
        assert!(sql.contains("MIN(emp.notes_sies)"), "{sql}");
        assert!(out
            .plan
            .ingredients
            .iter()
            .any(|(_, i)| matches!(i, Ingredient::SiesString)));
    }

    #[test]
    fn string_equality_uses_tags() {
        let f = fixture();
        let (out, _) = rewrite(&f, "SELECT id FROM emp WHERE notes = 'secret'");
        let sql = out.server_query.to_string();
        assert!(sql.contains("SDB_TAG_EQ(emp.notes_tag, '"), "{sql}");
    }

    #[test]
    fn cross_table_equality_uses_group_tags() {
        let f = fixture();
        let (out, _) = rewrite(
            &f,
            "SELECT emp.id FROM emp, dept WHERE emp.bonus = dept.budget",
        );
        let sql = out.server_query.to_string();
        assert!(sql.matches("SDB_GROUP_TAG").count() == 2, "{sql}");
    }

    #[test]
    fn order_by_and_limit_move_client_side() {
        let f = fixture();
        let (out, _) = rewrite(&f, "SELECT salary FROM emp ORDER BY salary DESC LIMIT 5");
        assert!(out.server_query.order_by.is_empty());
        assert!(out.server_query.limit.is_none());
        assert_eq!(out.plan.post_sort.len(), 1);
        assert!(out.plan.post_sort[0].desc);
        assert_eq!(out.plan.post_limit, Some(5));
    }

    #[test]
    fn having_on_sensitive_moves_client_side() {
        let f = fixture();
        let (out, _) = rewrite(
            &f,
            "SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept HAVING SUM(salary) > 1000",
        );
        assert!(out.server_query.having.is_none());
        assert!(out.plan.post_having.is_some());
    }

    #[test]
    fn unsupported_operations_are_reported() {
        let f = fixture();
        assert!(matches!(
            rewrite_err(&f, "SELECT id FROM emp WHERE notes LIKE 'a%'"),
            ProxyError::UnsupportedSensitiveOperation { .. }
        ));
        // Cross-table sensitive arithmetic *inside an aggregate* cannot be pushed
        // nor decomposed (a per-row client-side fallback would defeat the
        // aggregation), so it is reported as unsupported.
        assert!(matches!(
            rewrite_err(&f, "SELECT SUM(emp.salary * dept.budget) FROM emp, dept"),
            ProxyError::UnsupportedSensitiveOperation { .. }
        ));
        // Plain cross-table sensitive arithmetic, by contrast, falls back to
        // client-side evaluation over two decrypted ingredients.
        let (out, _) = rewrite(
            &f,
            "SELECT emp.salary + dept.budget AS combined FROM emp, dept",
        );
        assert!(matches!(
            out.plan.outputs[0].source,
            OutputSource::Computed(_)
        ));
        assert!(matches!(
            rewrite_err(
                &f,
                "SELECT id FROM emp WHERE salary > (SELECT SUM(budget) FROM dept)"
            ),
            ProxyError::UnsupportedSensitiveOperation { .. }
        ));
    }

    #[test]
    fn division_of_sums_is_computed_client_side() {
        let f = fixture();
        let (out, _) = rewrite(&f, "SELECT SUM(salary) / SUM(bonus) AS ratio FROM emp");
        let ratio = &out.plan.outputs[0];
        assert!(matches!(ratio.source, OutputSource::Computed(_)));
        // Two encrypted SUM ingredients pushed to the server.
        assert_eq!(
            out.plan
                .ingredients
                .iter()
                .filter(|(_, i)| matches!(i, Ingredient::EncryptedRowIndependent { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn wildcard_expands_with_sies_payloads_and_rowid() {
        let f = fixture();
        let (out, _) = rewrite(&f, "SELECT * FROM emp");
        let sql = out.server_query.to_string();
        assert!(sql.contains("emp.notes_sies"), "{sql}");
        assert!(sql.contains("emp.row_id"), "{sql}");
        assert_eq!(out.plan.outputs.len(), 6);
        assert!(out.plan.outputs.iter().all(|o| !o.hidden));
    }
}
