//! Recursive-descent parser for the supported SQL dialect.

use sdb_storage::DataType;

use crate::ast::{
    BinaryOp, ColumnDefAst, Expr, JoinClause, JoinKind, Literal, OrderItem, Query, SelectItem,
    Statement, TableRef, UnaryOp,
};
use crate::dates::parse_date;
use crate::lexer::{Lexer, Token};
use crate::{Result, SqlError};

/// Parses a SQL string into a single statement.
pub fn parse_sql(sql: &str) -> Result<Statement> {
    parse_tokens(Lexer::new(sql).tokenize()?)
}

/// Parses a lexed statement (ending with [`Token::Eof`]) into a single
/// statement.
pub fn parse_tokens(tokens: Vec<Token>) -> Result<Statement> {
    let mut parser = Parser::new(tokens);
    let stmt = parser.parse_statement()?;
    parser.expect_end()?;
    Ok(stmt)
}

/// Parses a SQL string containing one or more `;`-separated statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    let tokens = Lexer::new(sql).tokenize()?;
    let mut parser = Parser::new(tokens);
    let mut out = Vec::new();
    loop {
        parser.skip_semicolons();
        if parser.at_eof() {
            return Ok(out);
        }
        out.push(parser.parse_statement()?);
    }
}

/// The deepest nesting the parser accepts. Every subquery, parenthesis,
/// argument list, `CASE` part and prefix `NOT`/`-` is one level, and an
/// operator adds as many levels as the tree under it is tall (`a + b + c`
/// parses left-deep, two levels). Deeper input is a parse error, so neither
/// the parser nor what walks its trees afterwards (rewriter, planner,
/// evaluator, drop) can run a thread out of stack on it. The workload and
/// its rewritten statements nest at most 11 levels; at 64, the deepest
/// accepted input parses on a 2 MiB thread in a debug build.
pub const MAX_NESTING: usize = 64;

/// Token-stream parser.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels entered (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    /// Creates a parser over a token stream (must end with [`Token::Eof`]).
    pub fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Runs `parse` one nesting level deeper, or fails past [`MAX_NESTING`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.depth += 1;
        let parsed = if self.depth > MAX_NESTING {
            Err(too_deep())
        } else {
            parse(self)
        };
        self.depth -= 1;
        parsed
    }

    /// `left op right` as the next operator of a left-deep chain whose tree is
    /// `height` levels tall so far (`None` before its first operator).
    fn chain(
        &self,
        left: Expr,
        op: BinaryOp,
        right: Expr,
        height: &mut Option<usize>,
    ) -> Result<Expr> {
        let below = height.unwrap_or_else(|| expr_height(&left));
        let tall = below.max(expr_height(&right)) + 1;
        if self.depth + tall > MAX_NESTING {
            return Err(too_deep());
        }
        *height = Some(tall);
        Ok(Expr::binary(left, op, right))
    }

    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&Token::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Token::Eof)
    }

    fn skip_semicolons(&mut self) {
        while matches!(self.peek(), Token::Semicolon) {
            self.pos += 1;
        }
    }

    /// True if the next token is the given keyword (case-insensitive).
    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Consumes the keyword if present, returning whether it was consumed.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse {
                detail: format!("expected {kw}, found {}", self.peek()),
            })
        }
    }

    fn eat_token(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, t: &Token) -> Result<()> {
        if self.eat_token(t) {
            Ok(())
        } else {
            Err(SqlError::Parse {
                detail: format!("expected {t}, found {}", self.peek()),
            })
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => Err(SqlError::Parse {
                detail: format!("expected identifier, found {other}"),
            }),
        }
    }

    fn expect_end(&mut self) -> Result<()> {
        self.skip_semicolons();
        if self.at_eof() {
            Ok(())
        } else {
            Err(SqlError::Parse {
                detail: format!("unexpected trailing input: {}", self.peek()),
            })
        }
    }

    /// Parses one statement.
    pub fn parse_statement(&mut self) -> Result<Statement> {
        if self.peek_keyword("SELECT") {
            Ok(Statement::Query(self.parse_query()?))
        } else if self.peek_keyword("CREATE") {
            self.parse_create_table()
        } else if self.peek_keyword("INSERT") {
            self.parse_insert()
        } else if self.eat_keyword("EXPLAIN") {
            if self.eat_keyword("ANALYZE") {
                Ok(Statement::ExplainAnalyze(self.parse_query()?))
            } else {
                Ok(Statement::Explain(self.parse_query()?))
            }
        } else if self.eat_keyword("ANALYZE") {
            // ANALYZE [table]
            let table = match self.peek() {
                Token::Ident(name) => {
                    let table = name.to_ascii_lowercase();
                    self.bump();
                    Some(table)
                }
                _ => None,
            };
            Ok(Statement::Analyze { table })
        } else {
            Err(SqlError::Parse {
                detail: format!(
                    "expected SELECT, CREATE, INSERT, ANALYZE or EXPLAIN, found {}",
                    self.peek()
                ),
            })
        }
    }

    /// Parses a SELECT query (without a trailing semicolon).
    pub fn parse_query(&mut self) -> Result<Query> {
        self.nested(Self::parse_query_body)
    }

    fn parse_query_body(&mut self) -> Result<Query> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let projections = self.parse_select_list()?;

        let mut from = Vec::new();
        let mut joins = Vec::new();
        if self.eat_keyword("FROM") {
            from.push(self.parse_table_ref()?);
            loop {
                if self.eat_token(&Token::Comma) {
                    from.push(self.parse_table_ref()?);
                } else if self.peek_keyword("JOIN") || self.peek_keyword("INNER") {
                    self.eat_keyword("INNER");
                    self.expect_keyword("JOIN")?;
                    let table = self.parse_table_ref()?;
                    self.expect_keyword("ON")?;
                    let on = self.parse_expr()?;
                    joins.push(JoinClause {
                        kind: JoinKind::Inner,
                        table,
                        on,
                    });
                } else if self.peek_keyword("LEFT") {
                    self.eat_keyword("LEFT");
                    self.eat_keyword("OUTER");
                    self.expect_keyword("JOIN")?;
                    let table = self.parse_table_ref()?;
                    self.expect_keyword("ON")?;
                    let on = self.parse_expr()?;
                    joins.push(JoinClause {
                        kind: JoinKind::Left,
                        table,
                        on,
                    });
                } else {
                    break;
                }
            }
        }

        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_keyword("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword("LIMIT") {
            match self.bump() {
                Token::Int(v) if v >= 0 => Some(v as u64),
                other => {
                    return Err(SqlError::Parse {
                        detail: format!("expected non-negative integer after LIMIT, found {other}"),
                    })
                }
            }
        } else {
            None
        };

        Ok(Query {
            distinct,
            projections,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn parse_select_list(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            if self.eat_token(&Token::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.eat_keyword("AS") {
                    Some(self.expect_ident()?)
                } else if let Token::Ident(s) = self.peek() {
                    // Implicit alias, unless the identifier is a clause keyword.
                    if is_clause_keyword(s) {
                        None
                    } else {
                        Some(self.expect_ident()?)
                    }
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_token(&Token::Comma) {
                return Ok(items);
            }
        }
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let name = self.expect_ident()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.expect_ident()?)
        } else if let Token::Ident(s) = self.peek() {
            if is_clause_keyword(s) || is_join_keyword(s) {
                None
            } else {
                Some(self.expect_ident()?)
            }
        } else {
            None
        };
        Ok(TableRef {
            name: name.to_ascii_lowercase(),
            alias: alias.map(|a| a.to_ascii_lowercase()),
        })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing):
    //   OR < AND < NOT < comparison/BETWEEN/IN/LIKE/IS < add/sub < mul/div/mod < unary < primary
    // ------------------------------------------------------------------

    /// Parses a full expression.
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        let mut height = None;
        while self.eat_keyword("OR") {
            let right = self.parse_and()?;
            left = self.chain(left, BinaryOp::Or, right, &mut height)?;
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        let mut height = None;
        while self.eat_keyword("AND") {
            let right = self.parse_not()?;
            left = self.chain(left, BinaryOp::And, right, &mut height)?;
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_keyword("NOT") {
            let inner = self.nested(Self::parse_not)?;
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            })
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;

        // Postfix predicates: BETWEEN / IN / LIKE / IS NULL, optionally NOT-prefixed.
        let negated = self.eat_keyword("NOT");

        if self.eat_keyword("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_keyword("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword("IN") {
            self.expect_token(&Token::LParen)?;
            if self.peek_keyword("SELECT") {
                let query = self.parse_query()?;
                self.expect_token(&Token::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(query),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_keyword("LIKE") {
            let pattern = match self.bump() {
                Token::Str(s) => s,
                other => {
                    return Err(SqlError::Parse {
                        detail: format!("expected string pattern after LIKE, found {other}"),
                    })
                }
            };
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern,
                negated,
            });
        }
        if self.eat_keyword("IS") {
            let is_not = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated: is_not ^ negated,
            });
        }
        if negated {
            return Err(SqlError::Parse {
                detail: "expected BETWEEN, IN, LIKE or IS after NOT".into(),
            });
        }

        let op = match self.peek() {
            Token::Eq => Some(BinaryOp::Eq),
            Token::NotEq => Some(BinaryOp::NotEq),
            Token::Lt => Some(BinaryOp::Lt),
            Token::LtEq => Some(BinaryOp::LtEq),
            Token::Gt => Some(BinaryOp::Gt),
            Token::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_additive()?;
            return self.chain(left, op, right, &mut None);
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        let mut height = None;
        loop {
            let op = match self.peek() {
                Token::Plus => BinaryOp::Add,
                Token::Minus => BinaryOp::Sub,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.parse_multiplicative()?;
            left = self.chain(left, op, right, &mut height)?;
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        let mut height = None;
        loop {
            let op = match self.peek() {
                Token::Star => BinaryOp::Mul,
                Token::Slash => BinaryOp::Div,
                Token::Percent => BinaryOp::Mod,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.parse_unary()?;
            left = self.chain(left, op, right, &mut height)?;
        }
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_token(&Token::Minus) {
            let inner = self.nested(Self::parse_unary)?;
            // Fold negation into literals so `-5` is a literal, not an expression.
            if let Expr::Literal(Literal::Int(v)) = inner {
                return Ok(Expr::Literal(Literal::Int(-v)));
            }
            if let Expr::Literal(Literal::Decimal { units, scale }) = inner {
                return Ok(Expr::Literal(Literal::Decimal {
                    units: -units,
                    scale,
                }));
            }
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        if self.eat_token(&Token::Plus) {
            return self.nested(Self::parse_unary);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Token::Int(v) => Ok(Expr::Literal(Literal::Int(v))),
            Token::Decimal(units, scale) => Ok(Expr::Literal(Literal::Decimal { units, scale })),
            Token::Str(s) => Ok(Expr::Literal(Literal::Str(s))),
            Token::Param(i) | Token::Slot(i, _) => Ok(Expr::Param(i)),
            Token::LParen => {
                // Parenthesised expression or scalar subquery.
                if self.peek_keyword("SELECT") {
                    let q = self.parse_query()?;
                    self.expect_token(&Token::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(q)));
                }
                let e = self.parse_expr()?;
                self.expect_token(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => self.parse_ident_expr(name),
            other => Err(SqlError::Parse {
                detail: format!("unexpected token {other} in expression"),
            }),
        }
    }

    fn parse_ident_expr(&mut self, name: String) -> Result<Expr> {
        let upper = name.to_ascii_uppercase();
        // Reserved clause keywords can never start a primary expression; rejecting
        // them here gives much better error messages for queries like `SELECT FROM t`.
        if is_clause_keyword(&upper)
            && !matches!(
                upper.as_str(),
                "WHEN" | "THEN" | "ELSE" | "END" | "IS" | "IN" | "LIKE" | "BETWEEN"
            )
        {
            return Err(SqlError::Parse {
                detail: format!("unexpected keyword {upper} in expression"),
            });
        }
        match upper.as_str() {
            "NULL" => return Ok(Expr::Literal(Literal::Null)),
            "TRUE" => return Ok(Expr::Literal(Literal::Bool(true))),
            "FALSE" => return Ok(Expr::Literal(Literal::Bool(false))),
            "DATE" => {
                // DATE 'YYYY-MM-DD'
                if let Token::Str(s) = self.peek().clone() {
                    self.bump();
                    return Ok(Expr::Literal(Literal::Date(parse_date(&s)?)));
                }
                // fall through: a column actually named "date"
            }
            "CASE" => return self.parse_case(),
            "EXISTS" => {
                self.expect_token(&Token::LParen)?;
                let q = self.parse_query()?;
                self.expect_token(&Token::RParen)?;
                return Ok(Expr::Exists {
                    query: Box::new(q),
                    negated: false,
                });
            }
            "INTERVAL" => {
                return Err(SqlError::Unsupported {
                    feature: "INTERVAL literals (expand date arithmetic before submitting)".into(),
                })
            }
            _ => {}
        }

        // Function call?
        if self.peek() == &Token::LParen {
            self.bump();
            // COUNT(*)
            if self.eat_token(&Token::Star) {
                self.expect_token(&Token::RParen)?;
                return Ok(Expr::Function {
                    name: upper,
                    args: vec![],
                    distinct: false,
                    wildcard: true,
                });
            }
            let distinct = self.eat_keyword("DISTINCT");
            let mut args = Vec::new();
            if self.peek() != &Token::RParen {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.eat_token(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect_token(&Token::RParen)?;
            return Ok(Expr::Function {
                name: upper,
                args,
                distinct,
                wildcard: false,
            });
        }

        // Qualified column reference?
        if self.eat_token(&Token::Dot) {
            if self.eat_token(&Token::Star) {
                // t.* — represented as a column whose name ends in ".*"; only the
                // SELECT list expansion cares about it and it is rare in the
                // workload, so reject it for clarity.
                return Err(SqlError::Unsupported {
                    feature: "qualified wildcard (t.*)".into(),
                });
            }
            let col = self.expect_ident()?;
            return Ok(Expr::Column(format!(
                "{}.{}",
                name.to_ascii_lowercase(),
                col.to_ascii_lowercase()
            )));
        }

        Ok(Expr::Column(name.to_ascii_lowercase()))
    }

    fn parse_case(&mut self) -> Result<Expr> {
        let operand = if self.peek_keyword("WHEN") {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_keyword("WHEN") {
            let when = self.parse_expr()?;
            self.expect_keyword("THEN")?;
            let then = self.parse_expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(SqlError::Parse {
                detail: "CASE requires at least one WHEN branch".into(),
            });
        }
        let else_expr = if self.eat_keyword("ELSE") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword("END")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_expr,
        })
    }

    // ------------------------------------------------------------------
    // DDL / DML
    // ------------------------------------------------------------------

    fn parse_create_table(&mut self) -> Result<Statement> {
        self.expect_keyword("CREATE")?;
        self.expect_keyword("TABLE")?;
        let name = self.expect_ident()?.to_ascii_lowercase();
        self.expect_token(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.expect_ident()?.to_ascii_lowercase();
            let data_type = self.parse_data_type()?;
            let mut sensitive = false;
            // Optional column attributes we accept: SENSITIVE, NOT NULL, PRIMARY KEY.
            loop {
                if self.eat_keyword("SENSITIVE") {
                    sensitive = true;
                } else if self.eat_keyword("NOT") {
                    self.expect_keyword("NULL")?;
                } else if self.eat_keyword("PRIMARY") {
                    self.expect_keyword("KEY")?;
                } else {
                    break;
                }
            }
            columns.push(ColumnDefAst {
                name: col_name,
                data_type,
                sensitive,
            });
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        self.expect_token(&Token::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn parse_data_type(&mut self) -> Result<DataType> {
        let name = self.expect_ident()?.to_ascii_uppercase();
        match name.as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => Ok(DataType::Int),
            "DECIMAL" | "NUMERIC" => {
                let mut scale = 2u8;
                if self.eat_token(&Token::LParen) {
                    // precision [, scale]
                    let _precision = match self.bump() {
                        Token::Int(p) => p,
                        other => {
                            return Err(SqlError::Parse {
                                detail: format!("expected precision, found {other}"),
                            })
                        }
                    };
                    if self.eat_token(&Token::Comma) {
                        scale = match self.bump() {
                            Token::Int(s) if (0..=18).contains(&s) => s as u8,
                            other => {
                                return Err(SqlError::Parse {
                                    detail: format!("expected scale 0..18, found {other}"),
                                })
                            }
                        };
                    } else {
                        scale = 0;
                    }
                    self.expect_token(&Token::RParen)?;
                }
                Ok(DataType::Decimal { scale })
            }
            "VARCHAR" | "CHAR" | "TEXT" | "STRING" => {
                if self.eat_token(&Token::LParen) {
                    self.bump(); // length, ignored
                    self.expect_token(&Token::RParen)?;
                }
                Ok(DataType::Varchar)
            }
            "DATE" => Ok(DataType::Date),
            "BOOLEAN" | "BOOL" => Ok(DataType::Bool),
            "ENCRYPTED" => Ok(DataType::Encrypted),
            "ENC_ROW_ID" => Ok(DataType::EncryptedRowId),
            "TAG" => Ok(DataType::Tag),
            other => Err(SqlError::Parse {
                detail: format!("unknown data type {other}"),
            }),
        }
    }

    fn parse_insert(&mut self) -> Result<Statement> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.expect_ident()?.to_ascii_lowercase();
        let mut columns = Vec::new();
        if self.eat_token(&Token::LParen) {
            loop {
                columns.push(self.expect_ident()?.to_ascii_lowercase());
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
        }
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_token(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.parse_expr()?);
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            rows.push(row);
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }
}

fn too_deep() -> SqlError {
    SqlError::Parse {
        detail: format!("expression or subquery nested deeper than {MAX_NESTING} levels"),
    }
}

/// Levels below `expr` in its tree, subquery bodies included.
fn expr_height(expr: &Expr) -> usize {
    let tallest = |children: &mut dyn Iterator<Item = &Expr>| {
        children.map(expr_height).max().map_or(0, |h| h + 1)
    };
    match expr {
        Expr::Column(_) | Expr::Literal(_) | Expr::Param(_) => 0,
        Expr::Unary { expr, .. } | Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => {
            expr_height(expr) + 1
        }
        Expr::Binary { left, right, .. } => expr_height(left).max(expr_height(right)) + 1,
        Expr::Function { args, .. } => tallest(&mut args.iter()),
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => tallest(
            &mut (operand.iter().chain(else_expr).map(|e| &**e))
                .chain(branches.iter().flat_map(|(when, then)| [when, then])),
        ),
        Expr::Between {
            expr, low, high, ..
        } => tallest(&mut [expr, low, high].into_iter().map(|e| &**e)),
        Expr::InList { expr, list, .. } => tallest(&mut std::iter::once(&**expr).chain(list)),
        Expr::InSubquery { expr, query, .. } => expr_height(expr).max(query_height(query)) + 1,
        Expr::ScalarSubquery(query) | Expr::Exists { query, .. } => query_height(query) + 1,
    }
}

/// Levels below `query`: the tallest of its expressions, plus one.
fn query_height(query: &Query) -> usize {
    let projections = query.projections.iter().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr),
        SelectItem::Wildcard => None,
    });
    projections
        .chain(query.joins.iter().map(|join| &join.on))
        .chain(&query.where_clause)
        .chain(&query.group_by)
        .chain(&query.having)
        .chain(query.order_by.iter().map(|item| &item.expr))
        .map(expr_height)
        .max()
        .map_or(0, |h| h + 1)
}

fn is_clause_keyword(ident: &str) -> bool {
    matches!(
        ident.to_ascii_uppercase().as_str(),
        "FROM"
            | "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "LIMIT"
            | "JOIN"
            | "INNER"
            | "LEFT"
            | "RIGHT"
            | "ON"
            | "AND"
            | "OR"
            | "NOT"
            | "AS"
            | "UNION"
            | "WHEN"
            | "THEN"
            | "ELSE"
            | "END"
            | "ASC"
            | "DESC"
            | "BETWEEN"
            | "IN"
            | "LIKE"
            | "IS"
            | "VALUES"
    )
}

fn is_join_keyword(ident: &str) -> bool {
    matches!(
        ident.to_ascii_uppercase().as_str(),
        "JOIN" | "INNER" | "LEFT" | "RIGHT" | "CROSS" | "OUTER"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(sql: &str) -> Statement {
        parse_sql(sql).unwrap_or_else(|e| panic!("failed to parse {sql:?}: {e}"))
    }

    fn query(sql: &str) -> Query {
        match parse_ok(sql) {
            Statement::Query(q) => q,
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let q = query("SELECT a, b FROM t");
        assert_eq!(q.projections.len(), 2);
        assert_eq!(q.from[0].name, "t");
        assert!(q.where_clause.is_none());
    }

    #[test]
    fn paper_example_query() {
        // The rewriting example of paper §2.2.
        let q = query("SELECT A * B AS C FROM T");
        assert_eq!(q.projections.len(), 1);
        match &q.projections[0] {
            SelectItem::Expr { expr, alias } => {
                assert_eq!(alias.as_deref(), Some("C"));
                assert_eq!(expr.to_string(), "(a * b)");
            }
            other => panic!("unexpected projection {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let q = query("SELECT a + b * c - d FROM t");
        match &q.projections[0] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr.to_string(), "((a + (b * c)) - d)");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn logical_precedence() {
        let q = query("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        let w = q.where_clause.unwrap();
        assert_eq!(w.to_string(), "((a = 1) OR ((b = 2) AND (c = 3)))");
    }

    #[test]
    fn where_with_predicates() {
        let q = query(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b IN (1,2,3) AND c LIKE 'ab%' AND d IS NOT NULL AND e NOT IN (5)",
        );
        let w = q.where_clause.unwrap().to_string();
        assert!(w.contains("BETWEEN 1 AND 10"));
        assert!(w.contains("IN (1, 2, 3)"));
        assert!(w.contains("LIKE 'ab%'"));
        assert!(w.contains("IS NOT NULL"));
        assert!(w.contains("NOT IN (5)"));
    }

    #[test]
    fn joins_and_aliases() {
        let q = query(
            "SELECT c.name, SUM(o.total) AS revenue FROM customers c JOIN orders o ON c.id = o.cust_id WHERE o.year = 1995 GROUP BY c.name ORDER BY revenue DESC LIMIT 10",
        );
        assert_eq!(q.from[0].alias.as_deref(), Some("c"));
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.joins[0].table.name, "orders");
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn left_join() {
        let q = query("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.x");
        assert_eq!(q.joins[0].kind, JoinKind::Left);
        let q = query("SELECT * FROM a LEFT JOIN b ON a.x = b.x");
        assert_eq!(q.joins[0].kind, JoinKind::Left);
    }

    #[test]
    fn aggregates_and_group_by() {
        let q = query(
            "SELECT dept, COUNT(*), AVG(salary), MIN(salary), MAX(salary) FROM emp GROUP BY dept HAVING COUNT(*) > 5",
        );
        assert_eq!(q.projections.len(), 5);
        assert!(q.having.is_some());
        match &q.projections[1] {
            SelectItem::Expr { expr, .. } => match expr {
                Expr::Function { wildcard, .. } => assert!(*wildcard),
                other => panic!("expected COUNT(*), got {other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn distinct_and_count_distinct() {
        let q = query("SELECT DISTINCT a, COUNT(DISTINCT b) FROM t");
        assert!(q.distinct);
        match &q.projections[1] {
            SelectItem::Expr {
                expr: Expr::Function { distinct, .. },
                ..
            } => assert!(*distinct),
            _ => panic!(),
        }
    }

    #[test]
    fn case_expression() {
        let q = query("SELECT SUM(CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0 END) FROM t");
        match &q.projections[0] {
            SelectItem::Expr { expr, .. } => {
                assert!(expr.to_string().contains("CASE WHEN"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn date_literals() {
        let q = query("SELECT * FROM orders WHERE o_date >= DATE '1995-01-01'");
        let w = q.where_clause.unwrap().to_string();
        assert!(w.contains("DATE '1995-01-01'"));
    }

    #[test]
    fn subqueries() {
        let q =
            query("SELECT * FROM t WHERE a IN (SELECT b FROM s) AND c > (SELECT AVG(d) FROM u)");
        let w = q.where_clause.unwrap();
        let s = w.to_string();
        assert!(s.contains("IN (SELECT"));
        assert!(s.contains("(SELECT AVG(d) FROM u)"));

        let q = query("SELECT * FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.x = 3)");
        assert!(q.where_clause.unwrap().to_string().contains("EXISTS"));
    }

    #[test]
    fn create_table_with_sensitivity() {
        let st = parse_ok(
            "CREATE TABLE emp (id INT PRIMARY KEY, salary DECIMAL(12,2) SENSITIVE, name VARCHAR(25) NOT NULL, hired DATE)",
        );
        match st {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "emp");
                assert_eq!(columns.len(), 4);
                assert!(!columns[0].sensitive);
                assert!(columns[1].sensitive);
                assert_eq!(columns[1].data_type, DataType::Decimal { scale: 2 });
                assert_eq!(columns[3].data_type, DataType::Date);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insert_statement() {
        let st = parse_ok("INSERT INTO emp (id, salary) VALUES (1, 100), (2, 200)");
        match st {
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "emp");
                assert_eq!(columns, vec!["id", "salary"]);
                assert_eq!(rows.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_literals_fold() {
        let q = query("SELECT -5, -2.50 FROM t");
        match &q.projections[0] {
            SelectItem::Expr { expr, .. } => assert_eq!(expr, &Expr::Literal(Literal::Int(-5))),
            _ => panic!(),
        }
        match &q.projections[1] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(
                    expr,
                    &Expr::Literal(Literal::Decimal {
                        units: -250,
                        scale: 2
                    })
                )
            }
            _ => panic!(),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_sql("SELECT FROM").is_err());
        assert!(parse_sql("SELECT * FROM t WHERE").is_err());
        assert!(parse_sql("SELECT * FROM t GROUP a").is_err());
        assert!(parse_sql("DROP TABLE t").is_err());
        assert!(parse_sql("SELECT * FROM t LIMIT x").is_err());
        assert!(parse_sql("SELECT a b c FROM t").is_err());
    }

    /// Shapes that nest: the text opening and closing one repetition, and
    /// the levels a repetition takes (a subquery is a query and its select
    /// item).
    const NESTING_SHAPES: [(&str, &str, usize); 6] = [
        ("(", ")", 1),
        ("ABS(", ")", 1),
        ("CASE WHEN ", " THEN 1 END", 1),
        ("NOT ", "", 1),
        ("- ", "", 1),
        ("(SELECT ", ")", 2),
    ];

    /// `SELECT` of `1` inside `n` repetitions of a shape, `FROM t`; the
    /// outer query and its select item take two levels.
    fn nest(open: &str, close: &str, n: usize) -> String {
        format!("SELECT {}1{} FROM t", open.repeat(n), close.repeat(n))
    }

    /// `SELECT 1 + 1 + …` with `terms` terms: a left-deep tree `terms - 1` tall.
    fn sum_of_ones(terms: usize) -> String {
        format!("SELECT {} FROM t", vec!["1"; terms].join(" + "))
    }

    fn is_too_deep(sql: &str) -> bool {
        matches!(parse_sql(sql), Err(SqlError::Parse { detail }) if detail.contains("nested deeper"))
    }

    #[test]
    fn nesting_is_bounded() {
        // At the bound, parsing and dropping the tree fit a 2 MiB thread,
        // unoptimised too.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                for (open, close, levels) in NESTING_SHAPES {
                    let sql = nest(open, close, (MAX_NESTING - 2) / levels);
                    assert!(parse_sql(&sql).is_ok(), "{open}…");
                }
                assert!(parse_sql(&sum_of_ones(MAX_NESTING - 1)).is_ok());
            })
            .unwrap()
            .join()
            .unwrap();
        for (open, close, levels) in NESTING_SHAPES {
            let past = (MAX_NESTING - 2) / levels + 1;
            assert!(is_too_deep(&nest(open, close, past)), "{open}…");
            assert!(is_too_deep(&nest(open, close, 100_000)), "{open}…");
        }
        assert!(is_too_deep(&sum_of_ones(MAX_NESTING)));
        assert!(is_too_deep(&sum_of_ones(100_000)));
        // A chain over a tall operand counts the operand's height.
        let half = vec!["1"; MAX_NESTING / 2 + 4].join(" + ");
        assert!(parse_sql(&format!("SELECT ({half}) FROM t")).is_ok());
        assert!(is_too_deep(&format!("SELECT ({half}) + {half} FROM t")));
    }

    #[test]
    fn analyze_and_explain_statements() {
        match parse_ok("ANALYZE emp") {
            Statement::Analyze { table } => assert_eq!(table.as_deref(), Some("emp")),
            other => panic!("unexpected {other:?}"),
        }
        match parse_ok("ANALYZE") {
            Statement::Analyze { table } => assert!(table.is_none()),
            other => panic!("unexpected {other:?}"),
        }
        match parse_ok("EXPLAIN SELECT a FROM t WHERE a > 1") {
            Statement::Explain(q) => assert_eq!(q.from[0].name, "t"),
            other => panic!("unexpected {other:?}"),
        }
        match parse_ok("EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1") {
            Statement::ExplainAnalyze(q) => assert_eq!(q.from[0].name, "t"),
            other => panic!("unexpected {other:?}"),
        }
        // Renderings re-parse.
        for sql in [
            "ANALYZE emp",
            "ANALYZE",
            "EXPLAIN SELECT a FROM t",
            "EXPLAIN ANALYZE SELECT a FROM t",
        ] {
            let st = parse_ok(sql);
            assert_eq!(parse_ok(&st.to_string()), st, "roundtrip failed for {sql}");
        }
        assert!(parse_sql("EXPLAIN INSERT INTO t VALUES (1)").is_err());
        assert!(parse_sql("EXPLAIN ANALYZE INSERT INTO t VALUES (1)").is_err());
        assert!(parse_sql("ANALYZE 5").is_err());
    }

    #[test]
    fn multi_statement_parsing() {
        let stmts =
            parse_statements("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn rendered_sql_reparses_identically() {
        let sqls = [
            "SELECT a * b AS c FROM t WHERE d > 5 GROUP BY a ORDER BY c DESC LIMIT 3",
            "SELECT SUM(x), COUNT(*) FROM t JOIN s ON t.id = s.id WHERE t.d BETWEEN 1 AND 2",
            "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t WHERE b IN (1, 2, 3)",
        ];
        for sql in sqls {
            let q1 = query(sql);
            let rendered = q1.to_string();
            let q2 = query(&rendered);
            assert_eq!(q1, q2, "roundtrip failed for {sql}");
        }
    }
}
