//! Recursive-descent parser for the Themis SQL subset.

use crate::ast::{
    AggFunc, ColumnRef, Comparison, Literal, OrderBy, Predicate, Query, SelectItem, TableRef,
};
use crate::lexer::{tokenize, LexError, Token};
use std::fmt;

/// A parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.to_string(),
        }
    }
}

/// Parse one SQL statement.
pub fn parse(sql: &str) -> Result<Query, ParseError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.eat_optional(&Token::Semicolon);
    if p.pos != p.tokens.len() {
        return Err(p.err(format!("trailing tokens starting at {}", p.peek_desc())));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_desc(&self) -> String {
        self.peek()
            .map(|t| t.to_string())
            .unwrap_or_else(|| "end of input".into())
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, expected: &Token) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == expected => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected {expected}, found {}", self.peek_desc()))),
        }
    }

    fn eat_optional(&mut self, expected: &Token) -> bool {
        if self.peek() == Some(expected) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consume a keyword (case-insensitive identifier).
    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected {kw}, found {}", self.peek_desc()))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!(
                "expected identifier, found {}",
                other.map(|t| t.to_string()).unwrap_or_else(|| "end".into())
            ))),
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.keyword("SELECT")?;
        let mut select = vec![self.select_item()?];
        while self.eat_optional(&Token::Comma) {
            select.push(self.select_item()?);
        }

        self.keyword("FROM")?;
        let mut from = vec![self.table_ref()?];
        while self.eat_optional(&Token::Comma) {
            from.push(self.table_ref()?);
        }
        if from.len() > 2 {
            return Err(self.err("at most two tables (one self-join) are supported"));
        }

        let mut predicates = Vec::new();
        if self.peek_keyword("WHERE") {
            self.keyword("WHERE")?;
            predicates.push(self.predicate()?);
            while self.peek_keyword("AND") {
                self.keyword("AND")?;
                predicates.push(self.predicate()?);
            }
        }

        let mut group_by = Vec::new();
        if self.peek_keyword("GROUP") {
            self.keyword("GROUP")?;
            self.keyword("BY")?;
            group_by.push(self.column_ref()?);
            while self.eat_optional(&Token::Comma) {
                group_by.push(self.column_ref()?);
            }
        }

        let order_by = if self.peek_keyword("ORDER") {
            self.keyword("ORDER")?;
            self.keyword("BY")?;
            let column = self.order_key()?;
            let desc = if self.peek_keyword("DESC") {
                self.keyword("DESC")?;
                true
            } else {
                if self.peek_keyword("ASC") {
                    self.keyword("ASC")?;
                }
                false
            };
            Some(OrderBy { column, desc })
        } else {
            None
        };

        let limit = if self.peek_keyword("LIMIT") {
            self.keyword("LIMIT")?;
            match self.next() {
                Some(Token::Num(n)) if n >= 0.0 && n.fract() == 0.0 => Some(n as usize),
                other => {
                    return Err(self.err(format!(
                        "LIMIT expects a non-negative integer, found {}",
                        other.map(|t| t.to_string()).unwrap_or_else(|| "end".into())
                    )))
                }
            }
        } else {
            None
        };

        Ok(Query {
            select,
            from,
            predicates,
            group_by,
            order_by,
            limit,
        })
    }

    /// An ORDER BY key is an output-column name: a bare or qualified column
    /// (rendered like `t.DE`) or an aggregate spelling like `COUNT(*)`.
    fn order_key(&mut self) -> Result<String, ParseError> {
        // Aggregate spelling: IDENT '(' ... ')'.
        if let (Some(Token::Ident(name)), Some(Token::LParen)) =
            (self.peek().cloned(), self.tokens.get(self.pos + 1).cloned())
        {
            let upper = name.to_ascii_uppercase();
            if matches!(upper.as_str(), "COUNT" | "SUM" | "AVG" | "MIN" | "MAX") {
                self.pos += 2;
                let inner = if self.eat_optional(&Token::Star) {
                    "*".to_string()
                } else {
                    self.column_ref()?.to_string()
                };
                self.eat(&Token::RParen)?;
                return Ok(format!("{upper}({inner})"));
            }
        }
        Ok(self.column_ref()?.to_string())
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        // Aggregate functions look like IDENT '('.
        if let Some(Token::Ident(name)) = self.peek() {
            let func = match name.to_ascii_uppercase().as_str() {
                "COUNT" => Some(AggFunc::Count),
                "SUM" => Some(AggFunc::Sum),
                "AVG" => Some(AggFunc::Avg),
                "MIN" => Some(AggFunc::Min),
                "MAX" => Some(AggFunc::Max),
                _ => None,
            };
            if let Some(func) = func {
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    self.pos += 2; // consume name and '('
                    let arg = if self.eat_optional(&Token::Star) {
                        if func != AggFunc::Count {
                            return Err(self.err("'*' argument is only valid for COUNT"));
                        }
                        None
                    } else {
                        Some(self.column_ref()?)
                    };
                    self.eat(&Token::RParen)?;
                    let alias = if self.peek_keyword("AS") {
                        self.keyword("AS")?;
                        Some(self.ident()?)
                    } else {
                        None
                    };
                    return Ok(SelectItem::Aggregate { func, arg, alias });
                }
            }
        }
        Ok(SelectItem::Column(self.column_ref()?))
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let name = self.ident()?;
        // An alias is a following identifier that is not a clause keyword.
        let alias = match self.peek() {
            Some(Token::Ident(s))
                if !["WHERE", "GROUP", "AS", "ORDER", "LIMIT"]
                    .iter()
                    .any(|kw| s.eq_ignore_ascii_case(kw)) =>
            {
                Some(self.ident()?)
            }
            _ => None,
        };
        Ok(TableRef { name, alias })
    }

    fn column_ref(&mut self) -> Result<ColumnRef, ParseError> {
        let first = self.ident()?;
        if self.eat_optional(&Token::Dot) {
            let column = self.ident()?;
            Ok(ColumnRef {
                table: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
            })
        }
    }

    fn predicate(&mut self) -> Result<Predicate, ParseError> {
        let col = self.column_ref()?;
        if self.peek_keyword("IN") {
            self.keyword("IN")?;
            self.eat(&Token::LParen)?;
            let mut values = vec![self.literal()?];
            while self.eat_optional(&Token::Comma) {
                values.push(self.literal()?);
            }
            self.eat(&Token::RParen)?;
            return Ok(Predicate::In { col, values });
        }
        let op = match self.next() {
            Some(Token::Eq) => Comparison::Eq,
            Some(Token::Ne) => Comparison::Ne,
            Some(Token::Lt) => Comparison::Lt,
            Some(Token::Le) => Comparison::Le,
            Some(Token::Gt) => Comparison::Gt,
            Some(Token::Ge) => Comparison::Ge,
            other => {
                return Err(self.err(format!(
                    "expected comparison operator, found {}",
                    other.map(|t| t.to_string()).unwrap_or_else(|| "end".into())
                )))
            }
        };
        // Equality against another column is a join condition.
        if op == Comparison::Eq {
            if let Some(Token::Ident(_)) = self.peek() {
                let right = self.column_ref()?;
                return Ok(Predicate::JoinEq { left: col, right });
            }
        }
        let value = self.literal()?;
        Ok(Predicate::Compare { col, op, value })
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        match self.next() {
            Some(Token::Str(s)) => Ok(Literal::Str(s)),
            Some(Token::Num(n)) => Ok(Literal::Num(n)),
            other => Err(self.err(format!(
                "expected literal, found {}",
                other.map(|t| t.to_string()).unwrap_or_else(|| "end".into())
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_motivating_query() {
        // §2: SELECT SUM(weight) AS num_flights FROM flights
        //     WHERE flight_time <= 30 AND origin_state = '<state>';
        let q = parse(
            "SELECT SUM(weight) AS num_flights FROM flights \
             WHERE flight_time <= 30 AND origin_state = 'CA';",
        )
        .unwrap();
        assert_eq!(q.from.len(), 1);
        assert_eq!(q.from[0].name, "flights");
        assert_eq!(q.select.len(), 1);
        assert!(matches!(
            &q.select[0],
            SelectItem::Aggregate { func: AggFunc::Sum, arg: Some(c), alias: Some(a) }
                if c.column == "weight" && a == "num_flights"
        ));
        assert_eq!(q.predicates.len(), 2);
    }

    #[test]
    fn parses_group_by_count() {
        let q = parse("SELECT O, COUNT(*) FROM F WHERE E < 120 GROUP BY O").unwrap();
        assert_eq!(q.group_by, vec![ColumnRef::bare("O")]);
        assert!(matches!(
            &q.select[1],
            SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: None,
                alias: None
            }
        ));
    }

    #[test]
    fn parses_table_5_join_query() {
        // Q6 of Table 5 (with the paper's typos fixed).
        let q = parse(
            "SELECT t.O, s.DE, COUNT(*) FROM F t, F s \
             WHERE t.DE = s.O AND t.DE IN ('CO', 'WY') GROUP BY t.O, s.DE",
        )
        .unwrap();
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[0].binding(), "t");
        assert_eq!(q.from[1].binding(), "s");
        assert!(matches!(
            &q.predicates[0],
            Predicate::JoinEq { left, right }
                if left.to_string() == "t.DE" && right.to_string() == "s.O"
        ));
        assert!(matches!(
            &q.predicates[1],
            Predicate::In { col, values }
                if col.to_string() == "t.DE" && values.len() == 2
        ));
    }

    #[test]
    fn parses_avg_queries() {
        let q = parse("SELECT O, AVG(E) FROM F GROUP BY O").unwrap();
        assert!(matches!(
            &q.select[1],
            SelectItem::Aggregate { func: AggFunc::Avg, arg: Some(c), .. } if c.column == "E"
        ));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let a = parse("select O, count(*) from F group by O").unwrap();
        let b = parse("SELECT O, COUNT(*) FROM F GROUP BY O").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_three_way_joins() {
        let err = parse("SELECT COUNT(*) FROM a, b, c").unwrap_err();
        assert!(err.message.contains("two tables"));
    }

    #[test]
    fn rejects_star_outside_count() {
        let err = parse("SELECT AVG(*) FROM f").unwrap_err();
        assert!(err.message.contains("only valid for COUNT"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let err = parse("SELECT COUNT(*) FROM f GROUP BY x y z").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn order_by_and_limit_parse() {
        let q = parse("SELECT O, COUNT(*) AS n FROM F GROUP BY O ORDER BY n DESC LIMIT 5").unwrap();
        let ob = q.order_by.unwrap();
        assert_eq!(ob.column, "n");
        assert!(ob.desc);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn order_by_aggregate_spelling_parses() {
        let q = parse("SELECT O, COUNT(*) FROM F GROUP BY O ORDER BY COUNT(*)").unwrap();
        let ob = q.order_by.unwrap();
        assert_eq!(ob.column, "COUNT(*)");
        assert!(!ob.desc);
        let q = parse("SELECT O, AVG(E) FROM F GROUP BY O ORDER BY AVG(E) ASC").unwrap();
        assert_eq!(q.order_by.unwrap().column, "AVG(E)");
    }

    #[test]
    fn limit_requires_integer() {
        assert!(parse("SELECT COUNT(*) FROM F LIMIT 2.5").is_err());
        assert!(parse("SELECT COUNT(*) FROM F LIMIT x").is_err());
        assert_eq!(
            parse("SELECT COUNT(*) FROM F LIMIT 0").unwrap().limit,
            Some(0)
        );
    }

    #[test]
    fn numeric_comparisons_parse() {
        let q = parse("SELECT COUNT(*) FROM f WHERE a >= 2 AND b <> 3").unwrap();
        assert!(matches!(
            &q.predicates[0],
            Predicate::Compare { op: Comparison::Ge, value: Literal::Num(n), .. } if *n == 2.0
        ));
        assert!(matches!(
            &q.predicates[1],
            Predicate::Compare {
                op: Comparison::Ne,
                ..
            }
        ));
    }
}
