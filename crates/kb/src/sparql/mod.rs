//! A SPARQL-subset query engine.
//!
//! The Data Broker issues `SELECT` queries with basic graph patterns,
//! `OPTIONAL` blocks, `FILTER` expressions, `ORDER BY` and `LIMIT`
//! (§III-A.1(ii) shows the prototype's GATK-instance query). This module
//! implements exactly that subset:
//!
//! ```text
//! query      := prologue SELECT [DISTINCT] (var+ | *) WHERE group modifiers
//! prologue   := (PREFIX name: <iri>)*
//! group      := '{' (triple '.' | OPTIONAL group | FILTER '(' expr ')')* '}'
//! triple     := term term term
//! term       := <iri> | prefixed:name | ?var | literal | 'a'
//! modifiers  := [ORDER BY (ASC|DESC)?(?var) ...] [LIMIT n] [OFFSET n]
//! ```
//!
//! Evaluation follows the SPARQL algebra: a basic graph pattern produces a
//! multiset of solution mappings via index nested-loop joins against the
//! [`TripleStore`](crate::store::TripleStore); `OPTIONAL` is a left outer
//! join; `FILTER` discards solutions whose expression is not
//! effective-boolean-true.

mod ast;
mod eval;
mod lexer;
mod parser;

pub use ast::{Expr, GroupPattern, PatternElement, Query, QueryTerm, SortKey};
pub use eval::{Binding, QueryResults};
pub use lexer::{Lexer, Token};
pub use parser::parse_query;

use std::fmt;

/// Errors from parsing or evaluating a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparqlError {
    /// Lexical error with byte offset.
    Lex(String, usize),
    /// Parse error.
    Parse(String),
    /// Evaluation error (e.g. unknown prefix).
    Eval(String),
}

impl fmt::Display for SparqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparqlError::Lex(m, at) => write!(f, "lexical error at byte {at}: {m}"),
            SparqlError::Parse(m) => write!(f, "parse error: {m}"),
            SparqlError::Eval(m) => write!(f, "evaluation error: {m}"),
        }
    }
}

impl std::error::Error for SparqlError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TripleStore;
    use crate::term::Term;

    const NS: &str = "http://www.semanticweb.org/wxing/ontologies/scan-ontology#";

    /// Builds the store from the paper's §III-A.1 knowledge-base expansion
    /// example: four GATK instances with CPU / RAM / eTime /
    /// inputFileSize / steps datatype properties.
    fn paper_store() -> TripleStore {
        let mut st = TripleStore::new();
        let rows: [(&str, i64, i64, i64, i64, i64); 4] = [
            ("GATK1", 10, 1, 4, 180, 8),
            ("GATK2", 5, 1, 4, 200, 8),
            ("GATK3", 20, 1, 4, 280, 8),
            ("GATK4", 4, 1, 4, 80, 8),
        ];
        for (name, size, steps, ram, etime, cpu) in rows {
            let subj = format!("{NS}{name}");
            st.insert_terms(
                Term::iri(subj.clone()),
                Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
                Term::iri(format!("{NS}Application")),
            );
            let mut prop = |p: &str, v: i64| {
                st.insert_terms(
                    Term::iri(subj.clone()),
                    Term::iri(format!("{NS}{p}")),
                    Term::int(v),
                );
            };
            prop("inputFileSize", size);
            prop("steps", steps);
            prop("RAM", ram);
            prop("eTime", etime);
            prop("CPU", cpu);
        }
        st
    }

    #[test]
    fn select_all_applications() {
        let st = paper_store();
        let q = parse_query(
            "PREFIX scan: <http://www.semanticweb.org/wxing/ontologies/scan-ontology#>
             SELECT ?app WHERE { ?app a scan:Application . }",
        )
        .unwrap();
        let res = q.execute(&st).unwrap();
        assert_eq!(res.len(), 4);
    }

    #[test]
    fn filter_and_order_by() {
        let st = paper_store();
        let q = parse_query(
            "PREFIX scan: <http://www.semanticweb.org/wxing/ontologies/scan-ontology#>
             SELECT ?app ?t WHERE {
                 ?app a scan:Application .
                 ?app scan:eTime ?t .
                 FILTER (?t < 250)
             } ORDER BY ?t",
        )
        .unwrap();
        let res = q.execute(&st).unwrap();
        let times: Vec<f64> =
            res.rows().iter().map(|r| r.get("t").unwrap().as_f64().unwrap()).collect();
        assert_eq!(times, vec![80.0, 180.0, 200.0]);
    }

    #[test]
    fn the_paper_ranking_query() {
        // The paper ranks GATK instances "according to the values of their
        // execution time and the size of input files" — i.e. per-GB time.
        let st = paper_store();
        let q = parse_query(
            "PREFIX scan: <http://www.semanticweb.org/wxing/ontologies/scan-ontology#>
             SELECT ?app ?size ?t WHERE {
                 ?app a scan:Application .
                 ?app scan:inputFileSize ?size .
                 ?app scan:eTime ?t .
             } ORDER BY ASC(?t) LIMIT 2",
        )
        .unwrap();
        let res = q.execute(&st).unwrap();
        assert_eq!(res.len(), 2);
        let first = res.rows()[0].get("app").unwrap().as_iri().unwrap().to_string();
        assert!(first.ends_with("GATK4"));
    }

    #[test]
    fn optional_is_left_join() {
        let mut st = paper_store();
        // Give only GATK1 a "performance" annotation (as in Figure 2).
        st.insert_terms(
            Term::iri(format!("{NS}GATK1")),
            Term::iri(format!("{NS}performance")),
            Term::str("good"),
        );
        let q = parse_query(
            "PREFIX scan: <http://www.semanticweb.org/wxing/ontologies/scan-ontology#>
             SELECT ?app ?perf WHERE {
                 ?app a scan:Application .
                 OPTIONAL { ?app scan:performance ?perf . }
             }",
        )
        .unwrap();
        let res = q.execute(&st).unwrap();
        assert_eq!(res.len(), 4, "optional must not drop unmatched rows");
        let bound = res.rows().iter().filter(|r| r.get("perf").is_some()).count();
        assert_eq!(bound, 1);
    }

    #[test]
    fn distinct_and_offset() {
        let st = paper_store();
        let q = parse_query(
            "PREFIX scan: <http://www.semanticweb.org/wxing/ontologies/scan-ontology#>
             SELECT DISTINCT ?ram WHERE { ?app scan:RAM ?ram . }",
        )
        .unwrap();
        assert_eq!(q.execute(&st).unwrap().len(), 1);

        let q = parse_query(
            "PREFIX scan: <http://www.semanticweb.org/wxing/ontologies/scan-ontology#>
             SELECT ?app WHERE { ?app a scan:Application . } ORDER BY ?app LIMIT 2 OFFSET 3",
        )
        .unwrap();
        assert_eq!(q.execute(&st).unwrap().len(), 1, "only one row after offset 3 of 4");
    }

    #[test]
    fn arithmetic_filter() {
        let st = paper_store();
        // Time-per-size ratio strictly under 20 → GATK1 (18) and GATK3
        // (14); GATK4 sits exactly at 20 and GATK2 at 40, both excluded.
        let q = parse_query(
            "PREFIX scan: <http://www.semanticweb.org/wxing/ontologies/scan-ontology#>
             SELECT ?app WHERE {
                 ?app scan:eTime ?t .
                 ?app scan:inputFileSize ?d .
                 FILTER (?t / ?d < 20 && ?d > 1)
             } ORDER BY ?app",
        )
        .unwrap();
        let res = q.execute(&st).unwrap();
        assert_eq!(res.len(), 2);
        assert!(res.rows()[0].get("app").unwrap().as_iri().unwrap().ends_with("GATK1"));
        assert!(res.rows()[1].get("app").unwrap().as_iri().unwrap().ends_with("GATK3"));
    }

    #[test]
    fn select_star_binds_all_vars() {
        let st = paper_store();
        let q = parse_query(
            "PREFIX scan: <http://www.semanticweb.org/wxing/ontologies/scan-ontology#>
             SELECT * WHERE { ?app scan:steps ?s . } LIMIT 1",
        )
        .unwrap();
        let res = q.execute(&st).unwrap();
        assert_eq!(res.variables(), &["app".to_string(), "s".to_string()]);
    }

    #[test]
    fn unknown_prefix_is_eval_error() {
        let q = parse_query("SELECT ?x WHERE { ?x nope:prop ?y . }");
        // Prefix resolution happens at parse time in this engine.
        assert!(matches!(q, Err(SparqlError::Parse(_))));
    }

    #[test]
    fn non_ascii_literals_match_turtle_loaded_ones() {
        let st = crate::turtle::from_turtle(r#"<http://x/a> <http://x/name> "café" ."#).unwrap();
        let q = parse_query(r#"SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER (?n = "café") }"#)
            .unwrap();
        let res = q.execute(&st).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res.rows()[0].get("s"), Some(&Term::iri("http://x/a")));
    }

    #[test]
    fn parse_error_reported() {
        assert!(parse_query("SELECT WHERE").is_err());
        assert!(parse_query("").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?y }").is_err(), "triple needs 3 terms");
    }
}
