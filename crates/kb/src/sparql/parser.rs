//! Recursive-descent parser for the SPARQL subset.
//!
//! Prefixes declared in the prologue are resolved to absolute IRIs during
//! parsing, so the evaluator never sees prefixed names.

use super::ast::{BinOp, Expr, GroupPattern, PatternElement, Query, QueryTerm, SortKey};
use super::lexer::{Lexer, Token};
use super::SparqlError;
use crate::term::Term;
use std::collections::HashMap;

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// How deep `OPTIONAL` groups, parentheses, unary operators and operator
/// chains may nest. Deeper input is a parse error rather than a stack
/// overflow.
const MAX_DEPTH: usize = 64;

/// Parses a query string into a [`Query`].
pub fn parse_query(src: &str) -> Result<Query, SparqlError> {
    let tokens = Lexer::new(src).tokenize()?;
    Parser { tokens, pos: 0, prefixes: HashMap::new(), depth: 0 }.parse()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    prefixes: HashMap<String, String>,
    /// Current nesting depth, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&Token::Eof)
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        self.pos += 1;
        t
    }

    fn err(&self, msg: impl Into<String>) -> SparqlError {
        SparqlError::Parse(format!("{} (at token {:?})", msg.into(), self.peek()))
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SparqlError> {
        match self.bump() {
            Token::Keyword(k) if k == kw => Ok(()),
            other => Err(SparqlError::Parse(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn expect(&mut self, tok: Token) -> Result<(), SparqlError> {
        let got = self.bump();
        if got == tok {
            Ok(())
        } else {
            Err(SparqlError::Parse(format!("expected {tok:?}, found {got:?}")))
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Keyword(k) if k == kw)
    }

    /// Goes one nesting level deeper, refusing to go past [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), SparqlError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `parse` one nesting level deeper.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, SparqlError>,
    ) -> Result<T, SparqlError> {
        let entry = self.depth;
        self.descend()?;
        let parsed = parse(self);
        self.depth = entry;
        parsed
    }

    fn parse(mut self) -> Result<Query, SparqlError> {
        // Prologue.
        while self.at_keyword("PREFIX") {
            self.bump();
            let (name, local) = match self.bump() {
                Token::Prefixed(p, l) => (p, l),
                other => {
                    return Err(SparqlError::Parse(format!(
                        "expected prefix name after PREFIX, found {other:?}"
                    )))
                }
            };
            if !local.is_empty() {
                return Err(self.err("prefix declaration must end with ':'"));
            }
            let iri = match self.bump() {
                Token::Iri(i) => i,
                other => {
                    return Err(SparqlError::Parse(format!(
                        "expected <iri> in PREFIX declaration, found {other:?}"
                    )))
                }
            };
            self.prefixes.insert(name, iri);
        }

        self.expect_keyword("SELECT")?;
        let distinct = if self.at_keyword("DISTINCT") {
            self.bump();
            true
        } else {
            false
        };

        // Projection: '*' or one-or-more variables.
        let projection = if *self.peek() == Token::Star {
            self.bump();
            None
        } else {
            let mut vars = Vec::new();
            while let Token::Var(v) = self.peek() {
                vars.push(v.clone());
                self.bump();
            }
            if vars.is_empty() {
                return Err(self.err("SELECT needs '*' or at least one variable"));
            }
            Some(vars)
        };

        // Optional FROM <iri> — accepted and ignored (the store is the
        // only graph), mirroring the paper's `FROM <scan-wxing.owl>`.
        if self.at_keyword("FROM") {
            self.bump();
            match self.bump() {
                Token::Iri(_) => {}
                other => {
                    return Err(SparqlError::Parse(format!(
                        "expected <iri> after FROM, found {other:?}"
                    )))
                }
            }
        }

        self.expect_keyword("WHERE")?;
        let wher = self.parse_group()?;

        // Solution modifiers.
        let mut order_by = Vec::new();
        if self.at_keyword("ORDER") {
            self.bump();
            self.expect_keyword("BY")?;
            loop {
                match self.peek().clone() {
                    Token::Keyword(k) if k == "ASC" || k == "DESC" => {
                        self.bump();
                        self.expect(Token::LParen)?;
                        let expr = self.parse_expr()?;
                        self.expect(Token::RParen)?;
                        order_by.push(SortKey { expr, descending: k == "DESC" });
                    }
                    Token::Var(v) => {
                        self.bump();
                        order_by.push(SortKey { expr: Expr::Var(v), descending: false });
                    }
                    _ => break,
                }
            }
            if order_by.is_empty() {
                return Err(self.err("ORDER BY needs at least one key"));
            }
        }

        let mut limit = None;
        let mut offset = None;
        // LIMIT and OFFSET may appear in either order.
        for _ in 0..2 {
            if self.at_keyword("LIMIT") {
                self.bump();
                match self.bump() {
                    Token::Int(n) if n >= 0 => limit = Some(n as usize),
                    other => {
                        return Err(SparqlError::Parse(format!(
                            "expected non-negative integer after LIMIT, found {other:?}"
                        )))
                    }
                }
            } else if self.at_keyword("OFFSET") {
                self.bump();
                match self.bump() {
                    Token::Int(n) if n >= 0 => offset = Some(n as usize),
                    other => {
                        return Err(SparqlError::Parse(format!(
                            "expected non-negative integer after OFFSET, found {other:?}"
                        )))
                    }
                }
            }
        }

        if *self.peek() != Token::Eof {
            return Err(self.err("unexpected trailing input"));
        }

        Ok(Query { projection, distinct, wher, order_by, limit, offset })
    }

    fn parse_group(&mut self) -> Result<GroupPattern, SparqlError> {
        self.expect(Token::LBrace)?;
        let mut elements = Vec::new();
        loop {
            match self.peek().clone() {
                Token::RBrace => {
                    self.bump();
                    return Ok(GroupPattern { elements });
                }
                Token::Keyword(k) if k == "OPTIONAL" => {
                    self.bump();
                    let inner = self.nested(Self::parse_group)?;
                    elements.push(PatternElement::Optional(inner));
                }
                Token::Keyword(k) if k == "FILTER" => {
                    self.bump();
                    self.expect(Token::LParen)?;
                    let expr = self.parse_expr()?;
                    self.expect(Token::RParen)?;
                    elements.push(PatternElement::Filter(expr));
                }
                Token::Eof => return Err(self.err("unterminated group (missing '}')")),
                _ => {
                    let s = self.parse_query_term()?;
                    let p = self.parse_query_term()?;
                    let o = self.parse_query_term()?;
                    elements.push(PatternElement::Triple(s, p, o));
                    // Triple terminator: '.' is required unless '}' follows.
                    match self.peek() {
                        Token::Dot => {
                            self.bump();
                        }
                        Token::RBrace => {}
                        other => {
                            return Err(SparqlError::Parse(format!(
                                "expected '.' or '}}' after triple, found {other:?}"
                            )))
                        }
                    }
                }
            }
        }
    }

    fn resolve_prefixed(&self, prefix: &str, local: &str) -> Result<String, SparqlError> {
        match self.prefixes.get(prefix) {
            Some(base) => Ok(format!("{base}{local}")),
            None => Err(SparqlError::Parse(format!("unknown prefix '{prefix}:'"))),
        }
    }

    fn parse_query_term(&mut self) -> Result<QueryTerm, SparqlError> {
        match self.bump() {
            Token::Var(v) => Ok(QueryTerm::Var(v)),
            Token::Iri(i) => Ok(QueryTerm::Const(Term::Iri(i))),
            Token::Prefixed(p, l) => {
                Ok(QueryTerm::Const(Term::Iri(self.resolve_prefixed(&p, &l)?)))
            }
            Token::A => Ok(QueryTerm::Const(Term::iri(RDF_TYPE))),
            Token::Str(s) => Ok(QueryTerm::Const(Term::str(s))),
            Token::Int(i) => Ok(QueryTerm::Const(Term::int(i))),
            Token::Float(f) => Ok(QueryTerm::Const(Term::float(f))),
            Token::Bool(b) => Ok(QueryTerm::Const(Term::bool(b))),
            other => Err(SparqlError::Parse(format!("expected triple term, found {other:?}"))),
        }
    }

    // Precedence climbing: || < && < comparison < additive < multiplicative
    // < unary < primary.
    fn parse_expr(&mut self) -> Result<Expr, SparqlError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, SparqlError> {
        self.chain(|t| (*t == Token::OrOr).then_some(BinOp::Or), Self::parse_and)
    }

    fn parse_and(&mut self) -> Result<Expr, SparqlError> {
        self.chain(|t| (*t == Token::AndAnd).then_some(BinOp::And), Self::parse_cmp)
    }

    fn parse_cmp(&mut self) -> Result<Expr, SparqlError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Token::Eq => BinOp::Eq,
            Token::Ne => BinOp::Ne,
            Token::Lt => BinOp::Lt,
            Token::Le => BinOp::Le,
            Token::Gt => BinOp::Gt,
            Token::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_add()?;
        Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)))
    }

    fn parse_add(&mut self) -> Result<Expr, SparqlError> {
        let op = |t: &Token| match t {
            Token::Plus => Some(BinOp::Add),
            Token::Minus => Some(BinOp::Sub),
            _ => None,
        };
        self.chain(op, Self::parse_mul)
    }

    fn parse_mul(&mut self) -> Result<Expr, SparqlError> {
        let op = |t: &Token| match t {
            Token::Star => Some(BinOp::Mul),
            Token::Slash => Some(BinOp::Div),
            _ => None,
        };
        self.chain(op, Self::parse_unary)
    }

    /// Parses the left-associative chain `next (op next)*`, where `op`
    /// maps a token to its operator. Each link nests the tree one level
    /// deeper, so links count against [`MAX_DEPTH`] too.
    fn chain(
        &mut self,
        op: fn(&Token) -> Option<BinOp>,
        next: fn(&mut Self) -> Result<Expr, SparqlError>,
    ) -> Result<Expr, SparqlError> {
        let entry = self.depth;
        let mut lhs = next(self)?;
        while let Some(op) = op(self.peek()) {
            self.bump();
            self.descend()?;
            let rhs = next(self)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = entry;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, SparqlError> {
        match self.peek() {
            Token::Bang => {
                self.bump();
                Ok(Expr::Not(Box::new(self.nested(Self::parse_unary)?)))
            }
            Token::Minus => {
                self.bump();
                Ok(Expr::Neg(Box::new(self.nested(Self::parse_unary)?)))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, SparqlError> {
        match self.bump() {
            Token::LParen => {
                let e = self.nested(Self::parse_expr)?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Token::Keyword(k) if k == "BOUND" => {
                self.expect(Token::LParen)?;
                let v = match self.bump() {
                    Token::Var(v) => v,
                    other => {
                        return Err(SparqlError::Parse(format!(
                            "BOUND expects a variable, found {other:?}"
                        )))
                    }
                };
                self.expect(Token::RParen)?;
                Ok(Expr::Bound(v))
            }
            Token::Var(v) => Ok(Expr::Var(v)),
            Token::Int(i) => Ok(Expr::Const(Term::int(i))),
            Token::Float(f) => Ok(Expr::Const(Term::float(f))),
            Token::Str(s) => Ok(Expr::Const(Term::str(s))),
            Token::Bool(b) => Ok(Expr::Const(Term::bool(b))),
            Token::Iri(i) => Ok(Expr::Const(Term::Iri(i))),
            Token::Prefixed(p, l) => Ok(Expr::Const(Term::Iri(self.resolve_prefixed(&p, &l)?))),
            other => Err(SparqlError::Parse(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_query() {
        let q = parse_query("SELECT ?x WHERE { ?x ?p ?o . }").unwrap();
        assert_eq!(q.projection, Some(vec!["x".to_string()]));
        assert_eq!(q.wher.elements.len(), 1);
        assert!(!q.distinct);
    }

    #[test]
    fn prefixes_resolved_at_parse_time() {
        let q = parse_query("PREFIX scan: <http://x/scan#> SELECT ?a WHERE { ?a scan:eTime ?t . }")
            .unwrap();
        match &q.wher.elements[0] {
            PatternElement::Triple(_, QueryTerm::Const(Term::Iri(iri)), _) => {
                assert_eq!(iri, "http://x/scan#eTime");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_is_rdf_type() {
        let q = parse_query("SELECT ?x WHERE { ?x a <http://c/C> . }").unwrap();
        match &q.wher.elements[0] {
            PatternElement::Triple(_, QueryTerm::Const(Term::Iri(iri)), _) => {
                assert_eq!(iri, RDF_TYPE);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_modifier_stack() {
        let q = parse_query(
            "SELECT DISTINCT ?x ?y WHERE { ?x ?p ?y . } ORDER BY DESC(?y) ?x LIMIT 5 OFFSET 2",
        )
        .unwrap();
        assert!(q.distinct);
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].descending);
        assert!(!q.order_by[1].descending);
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.offset, Some(2));
    }

    #[test]
    fn filter_precedence() {
        let q = parse_query("SELECT ?x WHERE { FILTER (?a + 2 * ?b < 10 && !(?c = 1)) }").unwrap();
        let PatternElement::Filter(e) = &q.wher.elements[0] else { panic!() };
        // Top level must be And.
        assert!(matches!(e, Expr::Binary(BinOp::And, _, _)));
    }

    #[test]
    fn optional_nesting() {
        let q = parse_query(
            "SELECT ?x WHERE { ?x ?p ?y . OPTIONAL { ?y ?q ?z . OPTIONAL { ?z ?r ?w . } } }",
        )
        .unwrap();
        let PatternElement::Optional(inner) = &q.wher.elements[1] else { panic!() };
        assert!(matches!(inner.elements[1], PatternElement::Optional(_)));
    }

    #[test]
    fn from_clause_accepted() {
        let q = parse_query("SELECT ?x FROM <scan-wxing.owl> WHERE { ?x ?p ?o . }");
        assert!(q.is_ok());
    }

    #[test]
    fn last_triple_dot_optional() {
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o }").is_ok());
    }

    #[test]
    fn error_cases() {
        assert!(parse_query("SELECT ?x WHERE { ?x ?p . }").is_err());
        assert!(parse_query("SELECT WHERE { ?x ?p ?o . }").is_err());
        assert!(parse_query("SELECT ?x { ?x ?p ?o . }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x unknown:p ?o . }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o . } LIMIT -1").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o . } garbage").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?o . } ORDER BY").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let n = 100_000;
        let parens = format!("SELECT ?x WHERE {{ FILTER ({}?x{}) }}", "(".repeat(n), ")".repeat(n));
        let bangs = format!("SELECT ?x WHERE {{ FILTER ({}?x) }}", "!".repeat(n));
        let optionals =
            format!("SELECT ?x WHERE {{ {}?x ?p ?o{} }}", "OPTIONAL { ".repeat(n), " }".repeat(n));
        for query in [parens, bangs, optionals] {
            assert!(matches!(parse_query(&query), Err(SparqlError::Parse(_))));
        }
        // Up to the limit, nesting still parses.
        let ok = format!("SELECT ?x WHERE {{ FILTER ({}?x{}) }}", "(".repeat(60), ")".repeat(60));
        assert!(parse_query(&ok).is_ok());
    }

    #[test]
    fn long_operator_chains_are_errors_not_stack_overflows() {
        let filter =
            |n| format!("SELECT ?x WHERE {{ FILTER ({} > 0) }}", vec!["?x"; n].join(" + "));
        assert!(matches!(parse_query(&filter(100_000)), Err(SparqlError::Parse(_))));
        assert!(parse_query(&filter(60)).is_ok());
    }

    #[test]
    fn bound_function() {
        let q = parse_query("SELECT ?x WHERE { FILTER (BOUND(?x)) }").unwrap();
        let PatternElement::Filter(Expr::Bound(v)) = &q.wher.elements[0] else { panic!() };
        assert_eq!(v, "x");
    }
}
