//! RDF terms and the node interner.
//!
//! Every term that appears in a triple — IRI, literal or blank node — is
//! interned once and addressed by a dense [`NodeId`], so the store's
//! indexes are `BTreeSet<(u32, u32, u32)>` and pattern matching never
//! touches strings. Literals are normalised before interning (integers and
//! floats with equal value intern separately: RDF distinguishes
//! `"5"^^xsd:integer` from `"5.0"^^xsd:double`).

use std::collections::HashMap;
use std::fmt;

/// Dense identifier of an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A literal value: the leaves of the ontology.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// A plain string literal.
    Str(String),
    /// An `xsd:integer`-style literal.
    Int(i64),
    /// An `xsd:double`-style literal. NaN is rejected at interning.
    Float(f64),
    /// An `xsd:boolean` literal.
    Bool(bool),
}

impl Literal {
    /// Numeric view used by FILTER comparisons: integers and floats
    /// compare on the number line, other types return `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Literal::Int(i) => Some(*i as f64),
            Literal::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view (only `Str` literals).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Literal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Canonical key used for interning. Floats are keyed by bit pattern
    /// (NaN was rejected earlier, so equal values have equal bits except
    /// for ±0.0, which we normalise).
    fn intern_key(&self) -> LiteralKey {
        match self {
            Literal::Str(s) => LiteralKey::Str(s.clone()),
            Literal::Int(i) => LiteralKey::Int(*i),
            Literal::Float(f) => {
                let f = if *f == 0.0 { 0.0 } else { *f };
                LiteralKey::Float(f.to_bits())
            }
            Literal::Bool(b) => LiteralKey::Bool(*b),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum LiteralKey {
    Str(String),
    Int(i64),
    Float(u64),
    Bool(bool),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Str(s) => write!(f, "\"{s}\""),
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => write!(f, "{x}"),
            Literal::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A resolved RDF term.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A named resource, stored as its full IRI string.
    Iri(String),
    /// A literal value.
    Literal(Literal),
    /// An anonymous node (used for OWL restriction bookkeeping).
    Blank(u32),
}

impl Term {
    /// Convenience constructor for IRI terms.
    pub fn iri(s: impl Into<String>) -> Term {
        Term::Iri(s.into())
    }

    /// Convenience constructor for string literals.
    pub fn str(s: impl Into<String>) -> Term {
        Term::Literal(Literal::Str(s.into()))
    }

    /// Convenience constructor for integer literals.
    pub fn int(i: i64) -> Term {
        Term::Literal(Literal::Int(i))
    }

    /// Convenience constructor for float literals.
    pub fn float(f: f64) -> Term {
        Term::Literal(Literal::Float(f))
    }

    /// Convenience constructor for boolean literals.
    pub fn bool(b: bool) -> Term {
        Term::Literal(Literal::Bool(b))
    }

    /// The IRI string if this is an IRI term.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The literal if this is a literal term.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// Numeric view for literals.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_literal().and_then(Literal::as_f64)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(s) => write!(f, "<{s}>"),
            Term::Literal(l) => write!(f, "{l}"),
            Term::Blank(i) => write!(f, "_:b{i}"),
        }
    }
}

/// Interner mapping [`Term`]s to dense [`NodeId`]s and back.
#[derive(Debug, Default, Clone)]
pub struct NodeTable {
    terms: Vec<Term>,
    iris: HashMap<String, NodeId>,
    literals: HashMap<LiteralKey, NodeId>,
    blanks: HashMap<u32, NodeId>,
    /// One past the highest blank number seen; `u64` so that interning
    /// `_:b4294967295` cannot overflow it.
    next_blank: u64,
}

impl NodeTable {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `term`, returning its id (existing id if already interned).
    ///
    /// # Panics
    /// Panics on NaN float literals — they would break FILTER ordering.
    pub fn intern(&mut self, term: Term) -> NodeId {
        match &term {
            Term::Iri(s) => {
                if let Some(&id) = self.iris.get(s) {
                    return id;
                }
                let id = NodeId(self.terms.len() as u32);
                self.iris.insert(s.clone(), id);
                self.terms.push(term);
                id
            }
            Term::Literal(l) => {
                if let Literal::Float(f) = l {
                    assert!(!f.is_nan(), "NaN literals are not permitted in the knowledge base");
                }
                let key = l.intern_key();
                if let Some(&id) = self.literals.get(&key) {
                    return id;
                }
                let id = NodeId(self.terms.len() as u32);
                self.literals.insert(key, id);
                self.terms.push(term);
                id
            }
            Term::Blank(b) => {
                if let Some(&id) = self.blanks.get(b) {
                    return id;
                }
                let id = NodeId(self.terms.len() as u32);
                self.blanks.insert(*b, id);
                self.next_blank = self.next_blank.max(u64::from(*b) + 1);
                self.terms.push(term);
                id
            }
        }
    }

    /// Creates a fresh blank node.
    pub fn fresh_blank(&mut self) -> NodeId {
        let b = u32::try_from(self.next_blank).expect("every blank node number is taken");
        self.intern(Term::Blank(b))
    }

    /// Looks up an already-interned IRI without creating it.
    pub fn lookup_iri(&self, iri: &str) -> Option<NodeId> {
        self.iris.get(iri).copied()
    }

    /// Looks up an already-interned literal without creating it.
    pub fn lookup_literal(&self, lit: &Literal) -> Option<NodeId> {
        self.literals.get(&lit.intern_key()).copied()
    }

    /// Resolves an id back to its term.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this table.
    pub fn resolve(&self, id: NodeId) -> &Term {
        &self.terms[id.0 as usize]
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = NodeTable::new();
        let a = t.intern(Term::iri("http://x/a"));
        let b = t.intern(Term::iri("http://x/a"));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_terms_distinct_ids() {
        let mut t = NodeTable::new();
        let ids = [
            t.intern(Term::iri("http://x/a")),
            t.intern(Term::str("a")),
            t.intern(Term::int(5)),
            t.intern(Term::float(5.0)),
            t.intern(Term::bool(true)),
        ];
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                assert_ne!(ids[i], ids[j]);
            }
        }
    }

    #[test]
    fn resolve_round_trips() {
        let mut t = NodeTable::new();
        let id = t.intern(Term::float(2.5));
        assert_eq!(t.resolve(id), &Term::float(2.5));
    }

    #[test]
    fn negative_zero_normalised() {
        let mut t = NodeTable::new();
        let a = t.intern(Term::float(0.0));
        let b = t.intern(Term::float(-0.0));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let mut t = NodeTable::new();
        t.intern(Term::float(f64::NAN));
    }

    #[test]
    fn fresh_blanks_are_unique() {
        let mut t = NodeTable::new();
        let a = t.fresh_blank();
        let b = t.fresh_blank();
        assert_ne!(a, b);
        // And explicit blanks do not collide with fresh ones afterwards.
        let c = t.intern(Term::Blank(100));
        let d = t.fresh_blank();
        assert_ne!(c, d);
    }

    #[test]
    fn lookup_does_not_create() {
        let mut t = NodeTable::new();
        assert_eq!(t.lookup_iri("http://x/missing"), None);
        let id = t.intern(Term::iri("http://x/present"));
        assert_eq!(t.lookup_iri("http://x/present"), Some(id));
        assert_eq!(t.lookup_literal(&Literal::Int(9)), None);
        let lid = t.intern(Term::int(9));
        assert_eq!(t.lookup_literal(&Literal::Int(9)), Some(lid));
    }

    #[test]
    fn literal_numeric_views() {
        assert_eq!(Literal::Int(3).as_f64(), Some(3.0));
        assert_eq!(Literal::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Literal::Str("x".into()).as_f64(), None);
        assert_eq!(Literal::Bool(true).as_f64(), None);
        assert_eq!(Literal::Str("x".into()).as_str(), Some("x"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Term::iri("http://a").to_string(), "<http://a>");
        assert_eq!(Term::str("hi").to_string(), "\"hi\"");
        assert_eq!(Term::int(-2).to_string(), "-2");
        assert_eq!(Term::Blank(3).to_string(), "_:b3");
    }

    proptest! {
        #[test]
        fn prop_intern_resolve_roundtrip(strings in proptest::collection::vec("[a-z]{1,8}", 1..50)) {
            let mut t = NodeTable::new();
            let ids: Vec<NodeId> = strings.iter().map(|s| t.intern(Term::iri(format!("http://x/{s}")))).collect();
            for (s, id) in strings.iter().zip(&ids) {
                prop_assert_eq!(t.resolve(*id).as_iri().unwrap(), format!("http://x/{s}"));
            }
            // Interning the same strings again yields the same ids.
            for (s, id) in strings.iter().zip(&ids) {
                prop_assert_eq!(t.intern(Term::iri(format!("http://x/{s}"))), *id);
            }
        }
    }
}
