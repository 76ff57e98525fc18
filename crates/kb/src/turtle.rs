//! Turtle-style serialisation of the knowledge base.
//!
//! The paper's knowledge base lives in OWL/RDF files (`scan-wxing.owl`, the
//! RDF/XML snippets in §III-A.1). This module provides the persistence
//! layer: a compact Turtle writer and reader so an ontology built in one
//! session (profiling instances included) can be saved and reloaded —
//! "the knowledge-base is initially created by profiling … After that, the
//! knowledge base will be expanded" across runs.
//!
//! Supported subset (matching what the store holds):
//!
//! ```text
//! @prefix name: <iri> .
//! <subject> <predicate> object .
//! prefixed:subject prefixed:predicate "literal" .
//! ```
//!
//! Objects may be IRIs, prefixed names, plain/integer/float/boolean
//! literals, or blank nodes (`_:bN`). Predicate lists (`;`) and object
//! lists (`,`) are emitted for compactness and accepted on input.

use crate::store::{TriplePattern, TripleStore};
use crate::term::{Literal, Term};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Errors from Turtle parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurtleError {
    /// Human-readable message.
    pub message: String,
    /// 1-based line number.
    pub line: usize,
}

impl std::fmt::Display for TurtleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "turtle parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TurtleError {}

/// Serialises a store to Turtle, grouping triples by subject (`;`) and
/// predicate (`,`), with `@prefix` declarations for the given namespaces.
pub fn to_turtle(store: &TripleStore, prefixes: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (name, iri) in prefixes {
        writeln!(out, "@prefix {name}: <{iri}> .").expect("string write");
    }
    if !prefixes.is_empty() {
        out.push('\n');
    }

    // Group by subject, then predicate (BTreeMap for deterministic order).
    let mut by_subject: BTreeMap<String, BTreeMap<String, Vec<String>>> = BTreeMap::new();
    for (s, p, o) in store.matching(TriplePattern::any()) {
        let s = render_term(store.resolve(s), prefixes);
        let p = render_term(store.resolve(p), prefixes);
        let o = render_term(store.resolve(o), prefixes);
        by_subject.entry(s).or_default().entry(p).or_default().push(o);
    }

    for (subject, preds) in by_subject {
        write!(out, "{subject}").expect("string write");
        let n_preds = preds.len();
        for (pi, (pred, objects)) in preds.into_iter().enumerate() {
            if pi == 0 {
                write!(out, " {pred} ").expect("string write");
            } else {
                write!(out, " ;\n    {pred} ").expect("string write");
            }
            write!(out, "{}", objects.join(", ")).expect("string write");
            if pi + 1 == n_preds {
                out.push_str(" .\n");
            }
        }
    }
    out
}

fn render_term(term: &Term, prefixes: &[(&str, &str)]) -> String {
    match term {
        Term::Iri(iri) => {
            for (name, base) in prefixes {
                if let Some(local) = iri.strip_prefix(base) {
                    if !local.is_empty()
                        && local.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                    {
                        return format!("{name}:{local}");
                    }
                }
            }
            format!("<{iri}>")
        }
        Term::Literal(Literal::Str(s)) => {
            format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
        }
        Term::Literal(Literal::Int(i)) => i.to_string(),
        Term::Literal(Literal::Float(f)) => {
            // Ensure a decimal point so the reader types it as a float.
            let s = format!("{f}");
            if s.contains('.') || s.contains('e') || s.contains("inf") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Term::Literal(Literal::Bool(b)) => b.to_string(),
        Term::Blank(n) => format!("_:b{n}"),
    }
}

/// Parses Turtle text into a fresh store.
pub fn from_turtle(text: &str) -> Result<TripleStore, TurtleError> {
    let mut store = TripleStore::new();
    merge_turtle(&mut store, text)?;
    Ok(store)
}

/// Parses Turtle text, inserting its triples into an existing store.
pub fn merge_turtle(store: &mut TripleStore, text: &str) -> Result<(), TurtleError> {
    let mut parser = TurtleParser::new(text);
    parser.run(store)
}

struct TurtleParser<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    prefixes: BTreeMap<String, String>,
}

impl<'a> TurtleParser<'a> {
    fn new(src: &'a str) -> Self {
        TurtleParser { src, pos: 0, line: 1, prefixes: BTreeMap::new() }
    }

    fn err(&self, message: impl Into<String>) -> TurtleError {
        TurtleError { message: message.into(), line: self.line }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        loop {
            let rest = self.rest();
            let mut chars = rest.char_indices();
            match chars.next() {
                Some((_, c)) if c.is_whitespace() => {
                    if c == '\n' {
                        self.line += 1;
                    }
                    self.pos += c.len_utf8();
                }
                Some((_, '#')) => {
                    // Comment to end of line.
                    if let Some(nl) = rest.find('\n') {
                        self.pos += nl;
                    } else {
                        self.pos = self.src.len();
                    }
                }
                _ => return,
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn run(&mut self, store: &mut TripleStore) -> Result<(), TurtleError> {
        loop {
            self.skip_ws();
            if self.rest().is_empty() {
                return Ok(());
            }
            if self.eat("@prefix") {
                self.parse_prefix()?;
                continue;
            }
            self.parse_statement(store)?;
        }
    }

    fn parse_prefix(&mut self) -> Result<(), TurtleError> {
        self.skip_ws();
        let name_end =
            self.rest().find(':').ok_or_else(|| self.err("expected ':' in @prefix declaration"))?;
        let name = self.rest()[..name_end].trim().to_string();
        self.pos += name_end + 1;
        self.skip_ws();
        let iri = self.parse_iri_ref()?;
        self.skip_ws();
        if !self.eat(".") {
            return Err(self.err("expected '.' after @prefix declaration"));
        }
        self.prefixes.insert(name, iri);
        Ok(())
    }

    fn parse_iri_ref(&mut self) -> Result<String, TurtleError> {
        if !self.eat("<") {
            return Err(self.err("expected '<'"));
        }
        let end = self.rest().find('>').ok_or_else(|| self.err("unterminated IRI"))?;
        let iri = self.rest()[..end].to_string();
        self.pos += end + 1;
        Ok(iri)
    }

    fn parse_statement(&mut self, store: &mut TripleStore) -> Result<(), TurtleError> {
        let subject = self.parse_term()?;
        loop {
            self.skip_ws();
            let predicate = self.parse_term()?;
            loop {
                self.skip_ws();
                let object = self.parse_term()?;
                store.insert_terms(subject.clone(), predicate.clone(), object);
                self.skip_ws();
                if self.eat(",") {
                    continue;
                }
                break;
            }
            if self.eat(";") {
                continue;
            }
            if self.eat(".") {
                return Ok(());
            }
            return Err(self.err("expected ',', ';' or '.' after object"));
        }
    }

    fn parse_term(&mut self) -> Result<Term, TurtleError> {
        self.skip_ws();
        let rest = self.rest();
        let first = rest.chars().next().ok_or_else(|| self.err("unexpected end of input"))?;
        match first {
            '<' => Ok(Term::Iri(self.parse_iri_ref()?)),
            '"' => {
                self.pos += 1;
                let mut out = String::new();
                let mut chars = self.rest().char_indices();
                loop {
                    match chars.next() {
                        None => return Err(self.err("unterminated string literal")),
                        Some((i, '"')) => {
                            self.pos += i + 1;
                            return Ok(Term::str(out));
                        }
                        Some((_, '\\')) => match chars.next() {
                            Some((_, '"')) => out.push('"'),
                            Some((_, '\\')) => out.push('\\'),
                            Some((_, 'n')) => out.push('\n'),
                            _ => return Err(self.err("bad escape in string literal")),
                        },
                        Some((_, c)) => out.push(c),
                    }
                }
            }
            '_' => {
                if !self.eat("_:b") {
                    return Err(self.err("expected blank node of the form _:bN"));
                }
                let digits: String =
                    self.rest().chars().take_while(|c| c.is_ascii_digit()).collect();
                if digits.is_empty() {
                    return Err(self.err("blank node needs a number"));
                }
                let n = digits.parse().map_err(|_| self.err("blank node number out of range"))?;
                self.pos += digits.len();
                Ok(Term::Blank(n))
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' => {
                let number: String = rest
                    .chars()
                    .take_while(|&c| {
                        c.is_ascii_digit()
                            || c == '.'
                            || c == '-'
                            || c == '+'
                            || c == 'e'
                            || c == 'E'
                    })
                    .collect();
                self.pos += number.len();
                if number.contains('.') || number.contains('e') || number.contains('E') {
                    number
                        .parse::<f64>()
                        .map(Term::float)
                        .map_err(|_| self.err(format!("bad float literal '{number}'")))
                } else {
                    number
                        .parse::<i64>()
                        .map(Term::int)
                        .map_err(|_| self.err(format!("bad integer literal '{number}'")))
                }
            }
            _ => {
                // true/false, or a prefixed name.
                let word: String = rest
                    .chars()
                    .take_while(|&c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == ':')
                    .collect();
                if word.is_empty() {
                    return Err(self.err(format!("unexpected character '{first}'")));
                }
                self.pos += word.len();
                if word == "true" {
                    return Ok(Term::bool(true));
                }
                if word == "false" {
                    return Ok(Term::bool(false));
                }
                let (prefix, local) = word
                    .split_once(':')
                    .ok_or_else(|| self.err(format!("unknown bare word '{word}'")))?;
                let base = self
                    .prefixes
                    .get(prefix)
                    .ok_or_else(|| self.err(format!("undeclared prefix '{prefix}:'")))?;
                Ok(Term::Iri(format!("{base}{local}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::{iri, Ontology};
    use crate::profile::ProfileRecord;

    fn triple_set(store: &TripleStore) -> std::collections::BTreeSet<(String, String, String)> {
        store
            .matching(TriplePattern::any())
            .map(|(s, p, o)| {
                (
                    format!("{}", store.resolve(s)),
                    format!("{}", store.resolve(p)),
                    format!("{}", store.resolve(o)),
                )
            })
            .collect()
    }

    #[test]
    fn roundtrip_small_graph() {
        let mut store = TripleStore::new();
        store.insert_terms(Term::iri("http://x/a"), Term::iri("http://x/p"), Term::int(5));
        store.insert_terms(Term::iri("http://x/a"), Term::iri("http://x/p"), Term::float(2.5));
        store.insert_terms(Term::iri("http://x/a"), Term::iri("http://x/q"), Term::str("hi \"q\""));
        store.insert_terms(Term::iri("http://x/b"), Term::iri("http://x/p"), Term::bool(true));
        store.insert_terms(Term::iri("http://x/b"), Term::iri("http://x/p"), Term::Blank(3));
        let text = to_turtle(&store, &[("x", "http://x/")]);
        let back = from_turtle(&text).expect("parses");
        assert_eq!(triple_set(&store), triple_set(&back));
    }

    #[test]
    fn roundtrip_full_scan_ontology_with_profiles() {
        let mut o = Ontology::with_scan_schema();
        for (size, etime) in [(10.0, 180.0), (5.0, 200.0), (20.0, 280.0), (4.0, 80.0)] {
            o.ingest_profile(&ProfileRecord {
                application: "GATK".into(),
                stage: 1,
                input_gb: size,
                threads: 8,
                ram_gb: 4.0,
                e_time: etime,
            });
        }
        let text = to_turtle(
            o.store(),
            &[
                ("scan", iri::SCAN_NS),
                ("rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#"),
                ("rdfs", "http://www.w3.org/2000/01/rdf-schema#"),
                ("owl", "http://www.w3.org/2002/07/owl#"),
            ],
        );
        assert!(text.contains("scan:GATK1"), "prefixed names used:\n{text}");
        let back = from_turtle(&text).expect("parses");
        assert_eq!(back.len(), o.store().len(), "triple counts match");
        assert_eq!(triple_set(o.store()), triple_set(&back));
    }

    #[test]
    fn predicate_and_object_lists() {
        let text = r#"
            @prefix x: <http://x/> .
            x:a x:p 1, 2, 3 ;
                x:q "v" .
        "#;
        let store = from_turtle(text).expect("parses");
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn comments_and_blank_lines() {
        let text = "# header\n@prefix x: <http://x/> . # trailing\n\nx:a x:p 1 .\n";
        assert_eq!(from_turtle(text).expect("parses").len(), 1);
    }

    #[test]
    fn merge_into_existing_store() {
        let mut store = TripleStore::new();
        store.insert_terms(Term::iri("http://x/old"), Term::iri("http://x/p"), Term::int(1));
        merge_turtle(&mut store, "@prefix x: <http://x/> . x:new x:p 2 .").expect("parses");
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn error_reporting_carries_line_numbers() {
        let bad = "@prefix x: <http://x/> .\nx:a x:p ???\n";
        let err = from_turtle(bad).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(from_turtle("x:a x:p 1 .").is_err(), "undeclared prefix");
        assert!(from_turtle("<http://a> <http://p> \"unterminated .").is_err());
        assert!(from_turtle("<http://a> <http://p> 1 ,").is_err());
    }

    #[test]
    fn blank_node_numbers_past_u32_are_errors() {
        let err = from_turtle("_:b4294967296 <http://p> <http://o> .").unwrap_err();
        assert_eq!(err.message, "blank node number out of range");
        let max = from_turtle("_:b4294967295 <http://p> _:b0 .").expect("u32::MAX fits");
        assert_eq!(max.len(), 1);
    }

    #[test]
    fn floats_keep_their_type() {
        let mut store = TripleStore::new();
        store.insert_terms(Term::iri("http://x/a"), Term::iri("http://x/p"), Term::float(4.0));
        let text = to_turtle(&store, &[]);
        let back = from_turtle(&text).expect("parses");
        let s = back.nodes().lookup_iri("http://x/a").expect("subject");
        let p = back.nodes().lookup_iri("http://x/p").expect("predicate");
        let o = back.objects(s, p).next().expect("object");
        assert_eq!(back.resolve(o), &Term::float(4.0), "4.0 must not collapse to int 4");
    }
}
