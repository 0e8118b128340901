//! Abstract syntax tree for the supported SQL dialect, plus SQL rendering.
//!
//! The proxy rewrites queries *at the AST level* and then re-emits SQL text for the
//! SP (mirroring the paper's Figure 3, which shows the rewritten query sent to the
//! server), so every node implements [`std::fmt::Display`] producing parseable SQL.

use std::fmt;

use sdb_storage::DataType;
use serde::{Deserialize, Serialize};

use crate::dates::format_date;

/// A literal value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Literal {
    /// SQL NULL.
    Null,
    /// Integer literal.
    Int(i64),
    /// Decimal literal as scaled units (`12.34` → units 1234, scale 2).
    Decimal {
        /// Scaled integer units.
        units: i64,
        /// Digits after the decimal point.
        scale: u8,
    },
    /// String literal.
    Str(String),
    /// Date literal (days since epoch), written `DATE '1995-03-15'`.
    Date(i32),
    /// Boolean literal.
    Bool(bool),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Null => write!(f, "NULL"),
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Decimal { units, scale } => {
                if *scale == 0 {
                    write!(f, "{units}")
                } else {
                    let div = 10i64.pow(u32::from(*scale));
                    let sign = if *units < 0 { "-" } else { "" };
                    let abs = units.unsigned_abs();
                    write!(
                        f,
                        "{sign}{}.{:0width$}",
                        abs / div.unsigned_abs(),
                        abs % div.unsigned_abs(),
                        width = *scale as usize
                    )
                }
            }
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Date(d) => write!(f, "DATE '{}'", format_date(*d)),
            Literal::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

/// The class of a literal a statement slot takes: a lifted literal
/// (see [`crate::lift`]) keeps its class, so two statements whose literals
/// differ only in value share a slot, and two that differ in class do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LiteralClass {
    /// An integer literal.
    Int,
    /// A decimal literal.
    Decimal,
    /// A string literal.
    Str,
    /// A `DATE '…'` literal.
    Date,
}

impl Literal {
    /// The slot class of the literal; `None` for `NULL` and the booleans,
    /// which never fill a slot.
    pub fn class(&self) -> Option<LiteralClass> {
        match self {
            Literal::Int(_) => Some(LiteralClass::Int),
            Literal::Decimal { .. } => Some(LiteralClass::Decimal),
            Literal::Str(_) => Some(LiteralClass::Str),
            Literal::Date(_) => Some(LiteralClass::Date),
            Literal::Null | Literal::Bool(_) => None,
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinaryOp {
    /// True for the six comparison operators.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// True for `+ - * / %`.
    pub fn is_arithmetic(&self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod
        )
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Column reference, possibly qualified (`lineitem.l_price`).
    Column(String),
    /// Literal.
    Literal(Literal),
    /// A numbered statement parameter (`$i`): a string literal supplied per
    /// execution, bound by [`Expr::bind_params`] before evaluation.
    Param(usize),
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Function call — scalar functions, aggregates (`SUM`, `AVG`, `COUNT`, `MIN`,
    /// `MAX`) and SDB UDFs (`SDB_MULTIPLY`, `SDB_ADD`, …) all use this node.
    Function {
        /// Upper-cased function name.
        name: String,
        /// Arguments (empty for `COUNT(*)`, which sets `wildcard`).
        args: Vec<Expr>,
        /// `DISTINCT` qualifier inside an aggregate call.
        distinct: bool,
        /// True for `COUNT(*)`.
        wildcard: bool,
    },
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        /// Optional operand for the simple CASE form.
        operand: Option<Box<Expr>>,
        /// `(WHEN, THEN)` pairs.
        branches: Vec<(Expr, Expr)>,
        /// Optional ELSE branch.
        else_expr: Option<Box<Expr>>,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT …)` — uncorrelated subquery.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The subquery.
        query: Box<Query>,
        /// Negation flag.
        negated: bool,
    },
    /// `(SELECT …)` used as a scalar value — uncorrelated subquery.
    ScalarSubquery(Box<Query>),
    /// `[NOT] EXISTS (SELECT …)`.
    Exists {
        /// The subquery.
        query: Box<Query>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'` (`%` and `_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern.
        pattern: String,
        /// Negation flag.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// Negation flag (IS NOT NULL).
        negated: bool,
    },
}

impl Expr {
    /// Convenience constructor for a column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Column(name.to_string())
    }

    /// Convenience constructor for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }

    /// Convenience constructor for a string literal.
    pub fn str(v: &str) -> Expr {
        Expr::Literal(Literal::Str(v.to_string()))
    }

    /// Convenience constructor for a function call.
    pub fn func(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Function {
            name: name.to_ascii_uppercase(),
            args,
            distinct: false,
            wildcard: false,
        }
    }

    /// Convenience constructor for a binary expression.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// Calls `visit` on this expression and on every subexpression, parents
    /// first. Subquery bodies are skipped: they reference their own scope.
    pub fn walk<'e, F: FnMut(&'e Expr)>(&'e self, visit: &mut F) {
        visit(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Unary { expr, .. } => expr.walk(visit),
            Expr::Binary { left, right, .. } => {
                left.walk(visit);
                right.walk(visit);
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(visit);
                }
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                if let Some(op) = operand {
                    op.walk(visit);
                }
                for (w, t) in branches {
                    w.walk(visit);
                    t.walk(visit);
                }
                if let Some(e) = else_expr {
                    e.walk(visit);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(visit);
                low.walk(visit);
                high.walk(visit);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(visit);
                for e in list {
                    e.walk(visit);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(visit),
            Expr::ScalarSubquery(_) | Expr::Exists { .. } => {}
            Expr::Like { expr, .. } => expr.walk(visit),
            Expr::IsNull { expr, .. } => expr.walk(visit),
        }
    }

    /// Collects every column name referenced anywhere in the expression
    /// (including inside subqueries' outer references — subquery bodies are skipped
    /// because they reference their own scope).
    pub fn referenced_columns(&self, out: &mut Vec<String>) {
        self.walk(&mut |expr| {
            if let Expr::Column(name) = expr {
                out.push(name.clone());
            }
        });
    }

    /// The expression with every [`Expr::Param`] `$i` replaced by the
    /// literal `params[i]`, subquery bodies included. Fails on a parameter
    /// number `params` does not cover.
    pub fn bind_params(&self, params: &[Literal]) -> Result<Expr, crate::SqlError> {
        let bind = |e: &Expr| e.bind_params(params);
        let boxed = |e: &Expr| bind(e).map(Box::new);
        Ok(match self {
            Expr::Param(i) => match params.get(*i) {
                Some(value) => Expr::Literal(value.clone()),
                None => {
                    return Err(crate::SqlError::Plan {
                        detail: format!("parameter ${i} is not bound"),
                    })
                }
            },
            Expr::Column(_) | Expr::Literal(_) => self.clone(),
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: boxed(expr)?,
            },
            Expr::Binary { left, op, right } => Expr::Binary {
                left: boxed(left)?,
                op: *op,
                right: boxed(right)?,
            },
            Expr::Function {
                name,
                args,
                distinct,
                wildcard,
            } => Expr::Function {
                name: name.clone(),
                args: args.iter().map(bind).collect::<Result<_, _>>()?,
                distinct: *distinct,
                wildcard: *wildcard,
            },
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => Expr::Case {
                operand: operand.as_deref().map(boxed).transpose()?,
                branches: (branches.iter())
                    .map(|(w, t)| Ok((bind(w)?, bind(t)?)))
                    .collect::<Result<_, crate::SqlError>>()?,
                else_expr: else_expr.as_deref().map(boxed).transpose()?,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: boxed(expr)?,
                low: boxed(low)?,
                high: boxed(high)?,
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: boxed(expr)?,
                list: list.iter().map(bind).collect::<Result<_, _>>()?,
                negated: *negated,
            },
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => Expr::InSubquery {
                expr: boxed(expr)?,
                query: Box::new(query.bind_params(params)?),
                negated: *negated,
            },
            Expr::ScalarSubquery(query) => {
                Expr::ScalarSubquery(Box::new(query.bind_params(params)?))
            }
            Expr::Exists { query, negated } => Expr::Exists {
                query: Box::new(query.bind_params(params)?),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: boxed(expr)?,
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: boxed(expr)?,
                negated: *negated,
            },
        })
    }

    /// True if the expression contains any aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { name, args, .. } => {
                is_aggregate_name(name) || args.iter().any(|a| a.contains_aggregate())
            }
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                operand
                    .as_ref()
                    .map(|o| o.contains_aggregate())
                    .unwrap_or(false)
                    || branches
                        .iter()
                        .any(|(w, t)| w.contains_aggregate() || t.contains_aggregate())
                    || else_expr
                        .as_ref()
                        .map(|e| e.contains_aggregate())
                        .unwrap_or(false)
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(|e| e.contains_aggregate())
            }
            _ => false,
        }
    }
}

/// True for the five supported aggregate function names.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "SUM" | "AVG" | "COUNT" | "MIN" | "MAX"
    )
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(name) => write!(f, "{name}"),
            Expr::Literal(lit) => write!(f, "{lit}"),
            Expr::Param(i) => write!(f, "${i}"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => write!(f, "(-{expr})"),
                UnaryOp::Not => write!(f, "(NOT {expr})"),
            },
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Function {
                name,
                args,
                distinct,
                wildcard,
            } => {
                if *wildcard {
                    return write!(f, "{name}(*)");
                }
                let rendered: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                write!(
                    f,
                    "{name}({}{})",
                    if *distinct { "DISTINCT " } else { "" },
                    rendered.join(", ")
                )
            }
            Expr::Case {
                operand,
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                if let Some(op) = operand {
                    write!(f, " {op}")?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let rendered: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(
                    f,
                    "({expr} {}IN ({}))",
                    if *negated { "NOT " } else { "" },
                    rendered.join(", ")
                )
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => write!(
                f,
                "({expr} {}IN ({query}))",
                if *negated { "NOT " } else { "" }
            ),
            Expr::ScalarSubquery(q) => write!(f, "({q})"),
            Expr::Exists { query, negated } => write!(
                f,
                "({}EXISTS ({query}))",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE '{}')",
                if *negated { "NOT " } else { "" },
                pattern.replace('\'', "''")
            ),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
        }
    }
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// An expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional `AS` alias.
        alias: Option<String>,
    },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => write!(f, "{expr} AS {a}"),
                None => write!(f, "{expr}"),
            },
        }
    }
}

/// A table reference in FROM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableRef {
    /// Table name.
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name the table is visible under in the query (alias if present).
    pub fn visible_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} AS {a}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Join kinds supported by the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinKind {
    /// INNER JOIN.
    Inner,
    /// LEFT OUTER JOIN.
    Left,
}

/// An explicit JOIN clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinClause {
    /// Join kind.
    pub kind: JoinKind,
    /// The joined table.
    pub table: TableRef,
    /// The ON condition.
    pub on: Expr,
}

impl fmt::Display for JoinClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kw = match self.kind {
            JoinKind::Inner => "JOIN",
            JoinKind::Left => "LEFT JOIN",
        };
        write!(f, "{kw} {} ON {}", self.table, self.on)
    }
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderItem {
    /// The sort expression.
    pub expr: Expr,
    /// Descending order.
    pub desc: bool,
}

impl fmt::Display for OrderItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.expr, if self.desc { " DESC" } else { "" })
    }
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// The SELECT list.
    pub projections: Vec<SelectItem>,
    /// FROM tables (comma-separated references; cross/implicit joins).
    pub from: Vec<TableRef>,
    /// Explicit JOIN clauses applied after `from`.
    pub joins: Vec<JoinClause>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderItem>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

impl Query {
    /// The query with every [`Expr::Param`] bound (see [`Expr::bind_params`]).
    pub fn bind_params(&self, params: &[Literal]) -> Result<Query, crate::SqlError> {
        let bind = |e: &Expr| e.bind_params(params);
        Ok(Query {
            distinct: self.distinct,
            projections: (self.projections.iter())
                .map(|item| {
                    Ok(match item {
                        SelectItem::Wildcard => SelectItem::Wildcard,
                        SelectItem::Expr { expr, alias } => SelectItem::Expr {
                            expr: bind(expr)?,
                            alias: alias.clone(),
                        },
                    })
                })
                .collect::<Result<_, crate::SqlError>>()?,
            from: self.from.clone(),
            joins: (self.joins.iter())
                .map(|join| {
                    Ok(JoinClause {
                        kind: join.kind,
                        table: join.table.clone(),
                        on: bind(&join.on)?,
                    })
                })
                .collect::<Result<_, crate::SqlError>>()?,
            where_clause: self.where_clause.as_ref().map(bind).transpose()?,
            group_by: self.group_by.iter().map(bind).collect::<Result<_, _>>()?,
            having: self.having.as_ref().map(bind).transpose()?,
            order_by: (self.order_by.iter())
                .map(|order| {
                    Ok(OrderItem {
                        expr: bind(&order.expr)?,
                        desc: order.desc,
                    })
                })
                .collect::<Result<_, crate::SqlError>>()?,
            limit: self.limit,
        })
    }

    /// An empty SELECT skeleton, useful for programmatic construction.
    pub fn empty() -> Query {
        Query {
            distinct: false,
            projections: vec![],
            from: vec![],
            joins: vec![],
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        let proj: Vec<String> = self.projections.iter().map(|p| p.to_string()).collect();
        write!(f, "{}", proj.join(", "))?;
        if !self.from.is_empty() {
            let from: Vec<String> = self.from.iter().map(|t| t.to_string()).collect();
            write!(f, " FROM {}", from.join(", "))?;
        }
        for join in &self.joins {
            write!(f, " {join}")?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            let g: Vec<String> = self.group_by.iter().map(|e| e.to_string()).collect();
            write!(f, " GROUP BY {}", g.join(", "))?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            let o: Vec<String> = self.order_by.iter().map(|e| e.to_string()).collect();
            write!(f, " ORDER BY {}", o.join(", "))?;
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

/// Column definition inside CREATE TABLE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnDefAst {
    /// Column name.
    pub name: String,
    /// Data type.
    pub data_type: DataType,
    /// Marked `SENSITIVE` (an SDB dialect extension used by the examples and the
    /// upload flow; standard SQL engines simply reject or ignore it).
    pub sensitive: bool,
}

impl fmt::Display for ColumnDefAst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ty = match self.data_type {
            DataType::Int => "INT".to_string(),
            DataType::Decimal { scale } => format!("DECIMAL(18, {scale})"),
            DataType::Varchar => "VARCHAR".to_string(),
            DataType::Date => "DATE".to_string(),
            DataType::Bool => "BOOLEAN".to_string(),
            DataType::Encrypted => "ENCRYPTED".to_string(),
            DataType::EncryptedRowId => "ENC_ROW_ID".to_string(),
            DataType::Tag => "TAG".to_string(),
        };
        write!(
            f,
            "{} {ty}{}",
            self.name,
            if self.sensitive { " SENSITIVE" } else { "" }
        )
    }
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Statement {
    /// A SELECT query.
    Query(Query),
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDefAst>,
    },
    /// INSERT INTO … VALUES ….
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Vec<String>,
        /// Rows of value expressions.
        rows: Vec<Vec<Expr>>,
    },
    /// ANALYZE \[table\] — collect optimizer statistics (all tables when no
    /// table is named).
    Analyze {
        /// The table to analyze; `None` analyzes every table.
        table: Option<String>,
    },
    /// EXPLAIN query — show the optimized physical plan with cardinality and
    /// cost estimates instead of executing.
    Explain(Query),
    /// EXPLAIN ANALYZE query — execute the query with tracing on and show
    /// the physical plan annotated with actual rows, wall time and
    /// per-operator cost attribution.
    ExplainAnalyze(Query),
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Query(q) => write!(f, "{q}"),
            Statement::CreateTable { name, columns } => {
                let cols: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
                write!(f, "CREATE TABLE {name} ({})", cols.join(", "))
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                write!(f, "INSERT INTO {table}")?;
                if !columns.is_empty() {
                    write!(f, " ({})", columns.join(", "))?;
                }
                let rendered: Vec<String> = rows
                    .iter()
                    .map(|row| {
                        let vals: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                        format!("({})", vals.join(", "))
                    })
                    .collect();
                write!(f, " VALUES {}", rendered.join(", "))
            }
            Statement::Analyze { table } => match table {
                Some(t) => write!(f, "ANALYZE {t}"),
                None => write!(f, "ANALYZE"),
            },
            Statement::Explain(q) => write!(f, "EXPLAIN {q}"),
            Statement::ExplainAnalyze(q) => write!(f, "EXPLAIN ANALYZE {q}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_rendering() {
        assert_eq!(Literal::Int(5).to_string(), "5");
        assert_eq!(
            Literal::Decimal {
                units: 1234,
                scale: 2
            }
            .to_string(),
            "12.34"
        );
        assert_eq!(
            Literal::Decimal {
                units: -5,
                scale: 2
            }
            .to_string(),
            "-0.05"
        );
        assert_eq!(Literal::Str("o'neil".into()).to_string(), "'o''neil'");
        assert_eq!(Literal::Null.to_string(), "NULL");
        assert_eq!(Literal::Date(0).to_string(), "DATE '1970-01-01'");
    }

    #[test]
    fn expr_rendering() {
        let e = Expr::binary(Expr::col("a"), BinaryOp::Mul, Expr::col("b"));
        assert_eq!(e.to_string(), "(a * b)");
        let f = Expr::func("sdb_multiply", vec![Expr::col("a_e"), Expr::col("b_e")]);
        assert_eq!(f.to_string(), "SDB_MULTIPLY(a_e, b_e)");
    }

    #[test]
    fn referenced_columns_collected() {
        let e = Expr::binary(
            Expr::func("SUM", vec![Expr::col("l_price")]),
            BinaryOp::Gt,
            Expr::col("threshold"),
        );
        let mut cols = vec![];
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec!["l_price", "threshold"]);
    }

    #[test]
    fn aggregate_detection() {
        assert!(Expr::func("SUM", vec![Expr::col("x")]).contains_aggregate());
        assert!(Expr::binary(
            Expr::func("COUNT", vec![Expr::col("x")]),
            BinaryOp::Gt,
            Expr::int(1)
        )
        .contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
        assert!(is_aggregate_name("avg"));
        assert!(!is_aggregate_name("sdb_multiply"));
    }

    #[test]
    fn query_rendering_roundtrips_structure() {
        let q = Query {
            distinct: false,
            projections: vec![
                SelectItem::Expr {
                    expr: Expr::col("a"),
                    alias: Some("x".into()),
                },
                SelectItem::Wildcard,
            ],
            from: vec![TableRef {
                name: "t".into(),
                alias: None,
            }],
            joins: vec![JoinClause {
                kind: JoinKind::Inner,
                table: TableRef {
                    name: "s".into(),
                    alias: Some("s1".into()),
                },
                on: Expr::binary(Expr::col("t.id"), BinaryOp::Eq, Expr::col("s1.id")),
            }],
            where_clause: Some(Expr::binary(Expr::col("a"), BinaryOp::Gt, Expr::int(5))),
            group_by: vec![Expr::col("a")],
            having: Some(Expr::binary(
                Expr::func("COUNT", vec![Expr::col("a")]),
                BinaryOp::Gt,
                Expr::int(1),
            )),
            order_by: vec![OrderItem {
                expr: Expr::col("a"),
                desc: true,
            }],
            limit: Some(10),
        };
        let sql = q.to_string();
        assert!(sql.starts_with("SELECT a AS x, *"));
        assert!(sql.contains("JOIN s AS s1 ON"));
        assert!(sql.contains("GROUP BY a"));
        assert!(sql.contains("ORDER BY a DESC"));
        assert!(sql.contains("LIMIT 10"));
    }

    #[test]
    fn statement_rendering() {
        let st = Statement::CreateTable {
            name: "emp".into(),
            columns: vec![
                ColumnDefAst {
                    name: "id".into(),
                    data_type: DataType::Int,
                    sensitive: false,
                },
                ColumnDefAst {
                    name: "salary".into(),
                    data_type: DataType::Int,
                    sensitive: true,
                },
            ],
        };
        assert_eq!(
            st.to_string(),
            "CREATE TABLE emp (id INT, salary INT SENSITIVE)"
        );

        let ins = Statement::Insert {
            table: "emp".into(),
            columns: vec!["id".into(), "salary".into()],
            rows: vec![vec![Expr::int(1), Expr::int(100)]],
        };
        assert_eq!(
            ins.to_string(),
            "INSERT INTO emp (id, salary) VALUES (1, 100)"
        );
    }
}
