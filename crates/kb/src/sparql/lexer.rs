//! Hand-rolled lexer for the SPARQL subset.

use super::SparqlError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword, upper-cased (`SELECT`, `WHERE`, `PREFIX`, …).
    Keyword(String),
    /// `?name` variable.
    Var(String),
    /// `<…>` absolute IRI.
    Iri(String),
    /// `prefix:local` name (prefix may be empty).
    Prefixed(String, String),
    /// The `a` shorthand for `rdf:type`.
    A,
    /// String literal (quotes stripped, escapes resolved).
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<` (in expression context; the lexer emits `Lt` only when the
    /// character cannot start an IRI)
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// End of input.
    Eof,
}

const KEYWORDS: &[&str] = &[
    "SELECT", "WHERE", "PREFIX", "FROM", "OPTIONAL", "FILTER", "ORDER", "BY", "ASC", "DESC",
    "LIMIT", "OFFSET", "DISTINCT", "BOUND",
];

/// Tokenises a query string.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer { src: src.as_bytes(), pos: 0 }
    }

    /// Tokenises the whole input (appends `Eof`).
    pub fn tokenize(mut self) -> Result<Vec<Token>, SparqlError> {
        let mut out = Vec::new();
        loop {
            let t = self.next_token()?;
            let done = t == Token::Eof;
            out.push(t);
            if done {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'#') => {
                    while let Some(c) = self.peek() {
                        self.pos += 1;
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn err(&self, msg: &str) -> SparqlError {
        SparqlError::Lex(msg.to_string(), self.pos)
    }

    fn next_token(&mut self) -> Result<Token, SparqlError> {
        self.skip_ws_and_comments();
        let Some(c) = self.peek() else {
            return Ok(Token::Eof);
        };
        match c {
            b'{' => {
                self.pos += 1;
                Ok(Token::LBrace)
            }
            b'}' => {
                self.pos += 1;
                Ok(Token::RBrace)
            }
            b'(' => {
                self.pos += 1;
                Ok(Token::LParen)
            }
            b')' => {
                self.pos += 1;
                Ok(Token::RParen)
            }
            b'.' => {
                self.pos += 1;
                Ok(Token::Dot)
            }
            b'*' => {
                self.pos += 1;
                Ok(Token::Star)
            }
            b'/' => {
                self.pos += 1;
                Ok(Token::Slash)
            }
            b'+' => {
                self.pos += 1;
                Ok(Token::Plus)
            }
            b'-' => {
                self.pos += 1;
                Ok(Token::Minus)
            }
            b'=' => {
                self.pos += 1;
                Ok(Token::Eq)
            }
            b'!' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    Ok(Token::Ne)
                } else {
                    Ok(Token::Bang)
                }
            }
            b'&' => {
                self.pos += 1;
                if self.bump() == Some(b'&') {
                    Ok(Token::AndAnd)
                } else {
                    Err(self.err("expected '&&'"))
                }
            }
            b'|' => {
                self.pos += 1;
                if self.bump() == Some(b'|') {
                    Ok(Token::OrOr)
                } else {
                    Err(self.err("expected '||'"))
                }
            }
            b'>' => {
                self.pos += 1;
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    Ok(Token::Ge)
                } else {
                    Ok(Token::Gt)
                }
            }
            b'<' => self.lex_lt_or_iri(),
            b'?' | b'$' => {
                self.pos += 1;
                let name = self.lex_name();
                if name.is_empty() {
                    Err(self.err("empty variable name"))
                } else {
                    Ok(Token::Var(name))
                }
            }
            b'"' | b'\'' => self.lex_string(c),
            c if c.is_ascii_digit() => self.lex_number(false),
            c if c.is_ascii_alphabetic() || c == b'_' => self.lex_word(),
            _ => Err(self.err(&format!("unexpected character '{}'", c as char))),
        }
    }

    /// `<` starts either an IRI (`<http://…>`) or the less-than operator.
    fn lex_lt_or_iri(&mut self) -> Result<Token, SparqlError> {
        // An IRI here has no whitespace before the closing '>'.
        let start = self.pos;
        self.pos += 1;
        if self.peek() == Some(b'=') {
            self.pos += 1;
            return Ok(Token::Le);
        }
        // Scan ahead: if we find '>' before whitespace, it's an IRI.
        let mut i = self.pos;
        while let Some(&c) = self.src.get(i) {
            if c == b'>' {
                let iri = std::str::from_utf8(&self.src[self.pos..i])
                    .map_err(|_| self.err("IRI is not valid UTF-8"))?
                    .to_string();
                self.pos = i + 1;
                return Ok(Token::Iri(iri));
            }
            if c.is_ascii_whitespace() {
                break;
            }
            i += 1;
        }
        self.pos = start + 1;
        Ok(Token::Lt)
    }

    fn lex_string(&mut self, quote: u8) -> Result<Token, SparqlError> {
        // Collect bytes and decode once at the end: the source is UTF-8,
        // and quotes and escapes are ASCII, so they never split a char.
        let mut out = Vec::new();
        self.pos += 1; // opening quote
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string literal")),
                Some(c) if c == quote => {
                    return Ok(Token::Str(String::from_utf8(out).expect("whole chars of a &str")));
                }
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(c) if c == quote => out.push(c),
                    _ => return Err(self.err("bad escape in string literal")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn lex_number(&mut self, negative: bool) -> Result<Token, SparqlError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("digits are UTF-8");
        let sign = if negative { -1.0 } else { 1.0 };
        if is_float {
            text.parse::<f64>()
                .map(|f| Token::Float(sign * f))
                .map_err(|_| self.err("bad float literal"))
        } else {
            text.parse::<i64>()
                .map(|i| Token::Int(if negative { -i } else { i }))
                .map_err(|_| self.err("bad integer literal"))
        }
    }

    fn lex_name(&mut self) -> String {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos]).expect("name bytes are ASCII").to_string()
    }

    fn lex_word(&mut self) -> Result<Token, SparqlError> {
        let word = self.lex_name();
        // Prefixed name?
        if self.peek() == Some(b':') {
            self.pos += 1;
            let local = self.lex_name();
            return Ok(Token::Prefixed(word, local));
        }
        let upper = word.to_ascii_uppercase();
        if word == "a" {
            return Ok(Token::A);
        }
        if upper == "TRUE" {
            return Ok(Token::Bool(true));
        }
        if upper == "FALSE" {
            return Ok(Token::Bool(false));
        }
        if KEYWORDS.contains(&upper.as_str()) {
            return Ok(Token::Keyword(upper));
        }
        Err(self.err(&format!("unknown word '{word}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(s: &str) -> Vec<Token> {
        Lexer::new(s).tokenize().unwrap()
    }

    #[test]
    fn keywords_and_vars() {
        let toks = lex("SELECT ?x WHERE");
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT".into()),
                Token::Var("x".into()),
                Token::Keyword("WHERE".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn iri_vs_less_than() {
        assert_eq!(lex("<http://x/a>")[0], Token::Iri("http://x/a".into()));
        assert_eq!(lex("< 5")[0], Token::Lt);
        assert_eq!(lex("<= 5")[0], Token::Le);
        // `?t < 250` — the classic ambiguity the two-token lookahead solves.
        let toks = lex("?t < 250");
        assert_eq!(toks, vec![Token::Var("t".into()), Token::Lt, Token::Int(250), Token::Eof]);
    }

    #[test]
    fn prefixed_names() {
        assert_eq!(lex("scan:GATK1")[0], Token::Prefixed("scan".into(), "GATK1".into()));
        assert_eq!(lex("scan:eTime")[0], Token::Prefixed("scan".into(), "eTime".into()));
    }

    #[test]
    fn numbers() {
        assert_eq!(lex("42")[0], Token::Int(42));
        assert_eq!(lex("2.5")[0], Token::Float(2.5));
        assert_eq!(lex("1e3")[0], Token::Float(1000.0));
        // A dot after digits that is NOT followed by a digit is a triple
        // terminator, not a decimal point.
        let toks = lex("42 .");
        assert_eq!(toks, vec![Token::Int(42), Token::Dot, Token::Eof]);
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(lex(r#""hello""#)[0], Token::Str("hello".into()));
        assert_eq!(lex(r#""a\nb""#)[0], Token::Str("a\nb".into()));
        assert_eq!(lex("'single'")[0], Token::Str("single".into()));
    }

    #[test]
    fn strings_decode_utf8() {
        assert_eq!(lex(r#""café""#)[0], Token::Str("café".into()));
        assert_eq!(lex("'Ω \\' 🧬'")[0], Token::Str("Ω ' 🧬".into()));
    }

    #[test]
    fn operators() {
        let toks = lex("&& || ! != = >= > <=");
        assert_eq!(
            toks,
            vec![
                Token::AndAnd,
                Token::OrOr,
                Token::Bang,
                Token::Ne,
                Token::Eq,
                Token::Ge,
                Token::Gt,
                Token::Le,
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = lex("SELECT # a comment\n ?x");
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn the_a_keyword() {
        assert_eq!(lex("a")[0], Token::A);
    }

    #[test]
    fn errors() {
        assert!(Lexer::new("\"unterminated").tokenize().is_err());
        assert!(Lexer::new("&x").tokenize().is_err());
        assert!(Lexer::new("@").tokenize().is_err());
        assert!(Lexer::new("wut").tokenize().is_err());
    }
}
