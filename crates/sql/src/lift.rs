//! Literal lifting: the lexed form under which statements that differ only
//! in the values they look a public column up by are one statement.
//!
//! A literal lifts when it stands alone on one side of a `=` conjunct at the
//! top level of the outermost `WHERE`, and a column the caller calls public
//! stands alone on the other side: `o_orderkey = 4231`,
//! `'BUILDING' = c.c_mktsegment`. Each lifted literal becomes a numbered
//! [`Token::Slot`] of its [`crate::LiteralClass`] in the token stream, which the
//! parser reads as the parameter `$i`, and is returned in slot order.
//!
//! Every other literal stays in place: range bounds, `LIMIT`, `IN` lists,
//! `CASE` and `HAVING` operands, a literal beside an `OR` at the top level
//! of the `WHERE`, and a literal compared with a column the caller does not
//! call public. The lift is syntactic; whoever reads the slots must check
//! that each one sits where this rule put it (the DO's rewriter does).

use std::borrow::Cow;

use crate::ast::Literal;
use crate::dates::parse_date;
use crate::lexer::{Lexer, Token};
use crate::{Result, SqlError};

/// Lifts every liftable literal of `tokens` (a lexed statement) into a
/// slot, where `public` decides a column by its lower-case name. Returns the
/// key-form tokens and the lifted literals, slot `i` at index `i`. With
/// nothing to lift, the tokens come back as they were.
pub fn lift_literals(
    tokens: Vec<Token>,
    public: impl Fn(&str) -> bool,
) -> (Vec<Token>, Vec<Literal>) {
    let Some(conjuncts) = where_conjuncts(&tokens) else {
        return (tokens, Vec::new());
    };
    // (start, end) of each lifted literal's tokens, and the literal.
    let mut lifts = Vec::new();
    for (start, end) in conjuncts {
        if let Some((at, len, literal)) = lift_of(&tokens[start..end], &public) {
            lifts.push((start + at, start + at + len, literal));
        }
    }
    if lifts.is_empty() {
        return (tokens, Vec::new());
    }
    let mut out = Vec::with_capacity(tokens.len());
    let mut literals = Vec::with_capacity(lifts.len());
    let mut next = lifts.into_iter().enumerate().peekable();
    for (i, token) in tokens.into_iter().enumerate() {
        match next.peek() {
            Some((_, (start, end, _))) if i >= *start => {
                if i + 1 == *end {
                    let (slot, (_, _, literal)) = next.next().expect("peeked");
                    let class = literal.class().expect("only classed literals lift");
                    out.push(Token::Slot(slot, class));
                    literals.push(literal);
                }
            }
            _ => out.push(token),
        }
    }
    (out, literals)
}

/// Parses `text` as exactly one literal of a class a slot takes (an
/// integer, a decimal, a string or a `DATE '…'`), as a lifted literal is
/// rendered; anything else, a sign, an expression or a second token
/// included, is a parse error.
pub fn parse_literal(text: &str) -> Result<Literal> {
    let tokens = Lexer::new(text).tokenize()?;
    let single = match tokens.split_last() {
        Some((Token::Eof, literal)) => literal_of(literal),
        _ => None,
    };
    single.ok_or_else(|| SqlError::Parse {
        detail: format!("a slot takes one literal, not {text:?}"),
    })
}

/// The `(start, end)` token range of each conjunct at the top level of the
/// outermost `WHERE`, or `None` when there is no `WHERE` or an `OR` joins
/// its top level. Parentheses and `CASE … END` nest; the `AND` of a
/// `BETWEEN` does not separate conjuncts.
fn where_conjuncts(tokens: &[Token]) -> Option<Vec<(usize, usize)>> {
    let mut depth = 0usize;
    let mut start = None;
    for (i, token) in tokens.iter().enumerate() {
        match token {
            Token::LParen => depth += 1,
            Token::RParen => depth = depth.saturating_sub(1),
            Token::Ident(word) if depth == 0 && word.eq_ignore_ascii_case("WHERE") => {
                start = Some(i + 1);
                break;
            }
            _ => {}
        }
    }
    let start = start?;
    let mut conjuncts = Vec::new();
    let (mut from, mut end, mut between) = (start, tokens.len(), false);
    for (i, token) in tokens.iter().enumerate().skip(start) {
        let word = match token {
            Token::LParen => {
                depth += 1;
                continue;
            }
            Token::RParen | Token::Semicolon | Token::Eof if depth == 0 => {
                end = i;
                break;
            }
            Token::RParen => {
                depth -= 1;
                continue;
            }
            Token::Ident(word) => word,
            _ => continue,
        };
        let is = |keyword: &str| word.eq_ignore_ascii_case(keyword);
        if is("CASE") {
            depth += 1;
        } else if is("END") {
            depth = depth.saturating_sub(1);
        } else if depth > 0 {
        } else if ["GROUP", "HAVING", "ORDER", "LIMIT", "UNION"]
            .into_iter()
            .any(is)
        {
            end = i;
            break;
        } else if is("OR") {
            return None;
        } else if is("BETWEEN") {
            between = true;
        } else if is("AND") && between {
            between = false;
        } else if is("AND") {
            conjuncts.push((from, i));
            from = i + 1;
        }
    }
    conjuncts.push((from, end));
    Some(conjuncts)
}

/// The literal of a conjunct `column = literal` or `literal = column` on a
/// public column: its offset and length in `conjunct`, and its value.
fn lift_of(conjunct: &[Token], public: &impl Fn(&str) -> bool) -> Option<(usize, usize, Literal)> {
    let eq = conjunct.iter().position(|t| *t == Token::Eq)?;
    let (left, right) = (&conjunct[..eq], &conjunct[eq + 1..]);
    let (column, at, literal) = match (column_of(left), column_of(right)) {
        (Some(column), None) => (column, eq + 1, right),
        (None, Some(column)) => (column, 0, left),
        _ => return None,
    };
    let column = match column.bytes().any(|b| b.is_ascii_uppercase()) {
        true => Cow::Owned(column.to_ascii_lowercase()),
        false => Cow::Borrowed(column),
    };
    if !public(&column) {
        return None;
    }
    Some((at, literal.len(), literal_of(literal)?))
}

/// The column name of a bare or qualified column reference.
fn column_of(tokens: &[Token]) -> Option<&str> {
    match tokens {
        [Token::Ident(name)] | [Token::Ident(_), Token::Dot, Token::Ident(name)] => Some(name),
        _ => None,
    }
}

/// The literal `tokens` spell, when they are exactly one of a slot's class.
fn literal_of(tokens: &[Token]) -> Option<Literal> {
    Some(match tokens {
        [Token::Int(v)] => Literal::Int(*v),
        [Token::Decimal(units, scale)] => Literal::Decimal {
            units: *units,
            scale: *scale,
        },
        [Token::Str(s)] => Literal::Str(s.clone()),
        [Token::Ident(date), Token::Str(s)] if date.eq_ignore_ascii_case("DATE") => {
            Literal::Date(parse_date(s).ok()?)
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::LiteralClass;
    use crate::{parse_sql, parse_tokens};

    fn public(column: &str) -> bool {
        !column.ends_with("price") && !column.ends_with("acctbal")
    }

    fn lift(sql: &str) -> (Vec<Token>, Vec<Literal>) {
        lift_literals(Lexer::new(sql).tokenize().unwrap(), public)
    }

    fn lifted(sql: &str) -> Vec<String> {
        lift(sql).1.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn equalities_on_public_columns_lift_in_order() {
        assert_eq!(
            lifted(
                "SELECT a FROM t WHERE o_orderkey = 4231 AND 'BUILDING' = c.C_MKTSEGMENT \
                 AND d = DATE '1995-03-15' AND e = 0.05 GROUP BY a"
            ),
            ["4231", "'BUILDING'", "DATE '1995-03-15'", "0.05"]
        );
        let (tokens, _) = lift("SELECT a FROM t WHERE k = 7 AND d = DATE '1995-03-15'");
        assert!(tokens.contains(&Token::Slot(0, LiteralClass::Int)));
        assert!(tokens.contains(&Token::Slot(1, LiteralClass::Date)));
        assert!(!tokens
            .iter()
            .any(|t| matches!(t, Token::Str(_) | Token::Int(_))));
    }

    #[test]
    fn statements_differing_in_lifted_values_share_a_key() {
        let (a, _) = lift("SELECT a FROM t WHERE k = 7 AND s = 'x'");
        let (b, _) = lift("select a from t where k = 4231 and s = 'it''s'");
        assert_ne!(a, b, "the raw keyword text stays in the key");
        let (c, _) = lift("SELECT a FROM t WHERE k = 4231 AND s = 'it''s'");
        assert_eq!(a, c);
        let (d, _) = lift("SELECT a FROM t WHERE k = '7' AND s = 'x'");
        assert_ne!(a, d, "a slot keeps its class");
    }

    #[test]
    fn other_literals_stay_in_place() {
        for sql in [
            "SELECT a FROM t",
            "SELECT a FROM t WHERE k > 7",
            "SELECT a FROM t WHERE k BETWEEN 1 AND 7",
            "SELECT a FROM t WHERE k IN (7, 8)",
            "SELECT a FROM t WHERE k = 7 OR k = 8",
            "SELECT a FROM t WHERE (k = 7)",
            "SELECT a FROM t WHERE k = -7",
            "SELECT a FROM t WHERE k + 0 = 7",
            "SELECT a FROM t WHERE o_totalprice = 7",
            "SELECT a FROM t WHERE k = j",
            "SELECT a FROM t WHERE k = NULL",
            "SELECT a FROM t WHERE k = DATE 'not a date'",
            "SELECT a FROM t WHERE CASE WHEN k = 1 AND j = 2 THEN 1 END = 1",
            "SELECT a FROM t WHERE k IN (SELECT k FROM u WHERE j = 7)",
            "SELECT a FROM t GROUP BY a HAVING a = 7",
            "SELECT a FROM t WHERE k > 0 LIMIT 7",
        ] {
            assert_eq!(lifted(sql), Vec::<String>::new(), "{sql}");
        }
        assert_eq!(
            lifted("SELECT a FROM t WHERE k BETWEEN 1 AND 7 AND j = 2 ORDER BY a LIMIT 3"),
            ["2"]
        );
    }

    #[test]
    fn the_key_form_parses_with_parameters_in_the_slots() {
        let sql = "SELECT a FROM t WHERE k = 7 AND s = 'x' AND d > 3";
        let (tokens, literals) = lift(sql);
        let slotted = parse_tokens(tokens).unwrap();
        assert_eq!(
            slotted.to_string(),
            parse_sql("SELECT a FROM t WHERE k = $0 AND s = $1 AND d > 3")
                .unwrap()
                .to_string()
        );
        let crate::ast::Statement::Query(query) = slotted else {
            panic!("a query")
        };
        let bound = query.bind_params(&literals).unwrap();
        assert_eq!(bound.to_string(), parse_sql(sql).unwrap().to_string());
    }

    #[test]
    fn a_slot_takes_exactly_one_literal() {
        assert_eq!(parse_literal("4231").unwrap(), Literal::Int(4231));
        assert_eq!(
            parse_literal(" 0.05 ").unwrap(),
            Literal::Decimal { units: 5, scale: 2 }
        );
        assert_eq!(
            parse_literal("'it''s'").unwrap(),
            Literal::Str("it's".into())
        );
        assert!(matches!(
            parse_literal("DATE '1995-03-15'").unwrap(),
            Literal::Date(_)
        ));
        for text in [
            "",
            "-5",
            "5 OR 1 = 1",
            "'a' 'b'",
            "o_orderkey",
            "NULL",
            "TRUE",
            "(5)",
            "DATE 'x'",
            "$0",
            "'unterminated",
        ] {
            assert!(
                matches!(
                    parse_literal(text),
                    Err(SqlError::Parse { .. } | SqlError::Lex { .. })
                ),
                "{text:?}"
            );
        }
    }
}
