//! # sdb-sql
//!
//! The SQL front end of the SDB reproduction: a lexer, a recursive-descent parser
//! producing an [`ast`] the proxy can rewrite, and a [`plan`]ner that lowers the AST
//! into a logical plan the execution engine consumes.
//!
//! In the paper the SP runs Spark SQL, which supplies parsing and planning for free;
//! the DO-side proxy additionally parses every application query so it can rewrite
//! sensitive operators into SDB UDF calls (paper §2.2). Both sides of this
//! reproduction therefore share this crate: the proxy parses, rewrites and
//! re-emits SQL text; the engine parses rewritten SQL text into a plan and runs it.
//!
//! The supported dialect covers what the TPC-H-style workload needs: SELECT with
//! expressions, aliases, `CASE WHEN`, scalar functions and aggregate functions,
//! multi-table FROM with `JOIN ... ON`, WHERE with AND/OR/NOT, comparison,
//! `BETWEEN`, `IN` (value lists and uncorrelated subqueries), `LIKE`, `IS NULL`,
//! GROUP BY, HAVING, ORDER BY, LIMIT, plus CREATE TABLE and INSERT for loading.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod dates;
pub mod error;
pub mod lexer;
pub mod lift;
pub mod parser;
pub mod plan;

pub use ast::{
    BinaryOp, ColumnDefAst, Expr, JoinClause, JoinKind, Literal, LiteralClass, OrderItem, Query,
    SelectItem, Statement, TableRef, UnaryOp,
};
pub use error::SqlError;
pub use lexer::{Lexer, Token};
pub use lift::{lift_literals, parse_literal};
pub use parser::parse_statements;
pub use parser::{parse_sql, parse_tokens, Parser, MAX_NESTING};
pub use plan::{AggFunc, AggregateExpr, LogicalPlan, PlanBuilder, ProjectionItem, SortKey};

/// Library result alias.
pub type Result<T> = std::result::Result<T, SqlError>;
