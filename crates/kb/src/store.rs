//! The indexed triple store.
//!
//! Triples are `(NodeId, NodeId, NodeId)` kept in three B-tree orderings —
//! SPO, POS and OSP — so any pattern with at least one bound position is a
//! contiguous range scan, and the fully-unbound pattern is a scan of SPO.
//! This is the classic "triple table with three covering indexes" layout
//! used by in-memory RDF engines, sufficient for the knowledge-base sizes
//! the SCAN platform handles (thousands of profiling individuals).

use crate::term::{Literal, NodeId, NodeTable, Term};
use std::collections::BTreeSet;
use std::ops::Bound;

/// One position of a triple pattern: bound to a node, or a wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternSlot {
    /// Matches only this node.
    Bound(NodeId),
    /// Matches anything.
    Any,
}

/// A subject/predicate/object pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject slot.
    pub s: PatternSlot,
    /// Predicate slot.
    pub p: PatternSlot,
    /// Object slot.
    pub o: PatternSlot,
}

impl TriplePattern {
    /// A pattern matching every triple.
    pub fn any() -> Self {
        TriplePattern { s: PatternSlot::Any, p: PatternSlot::Any, o: PatternSlot::Any }
    }
}

/// A stored triple.
pub type Triple = (NodeId, NodeId, NodeId);

/// The knowledge base's triple store: interner + three covering indexes.
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    nodes: NodeTable,
    spo: BTreeSet<(NodeId, NodeId, NodeId)>,
    pos: BTreeSet<(NodeId, NodeId, NodeId)>,
    osp: BTreeSet<(NodeId, NodeId, NodeId)>,
}

impl TripleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access to the node interner.
    pub fn nodes(&self) -> &NodeTable {
        &self.nodes
    }

    /// Interns a term (delegation convenience).
    pub fn intern(&mut self, term: Term) -> NodeId {
        self.nodes.intern(term)
    }

    /// Resolves a node id back to its term.
    pub fn resolve(&self, id: NodeId) -> &Term {
        self.nodes.resolve(id)
    }

    /// Inserts a triple of already-interned nodes. Returns `true` if the
    /// triple was new.
    pub fn insert(&mut self, s: NodeId, p: NodeId, o: NodeId) -> bool {
        if self.spo.insert((s, p, o)) {
            self.pos.insert((p, o, s));
            self.osp.insert((o, s, p));
            true
        } else {
            false
        }
    }

    /// Interns three terms and inserts the triple.
    pub fn insert_terms(&mut self, s: Term, p: Term, o: Term) -> bool {
        let s = self.nodes.intern(s);
        let p = self.nodes.intern(p);
        let o = self.nodes.intern(o);
        self.insert(s, p, o)
    }

    /// Removes a triple. Returns `true` if it was present.
    pub fn remove(&mut self, s: NodeId, p: NodeId, o: NodeId) -> bool {
        if self.spo.remove(&(s, p, o)) {
            self.pos.remove(&(p, o, s));
            self.osp.remove(&(o, s, p));
            true
        } else {
            false
        }
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Whether the exact triple is present.
    pub fn contains(&self, s: NodeId, p: NodeId, o: NodeId) -> bool {
        self.spo.contains(&(s, p, o))
    }

    /// Iterates over every triple matching `pattern`, in a deterministic
    /// order. Chooses the most selective index for the bound positions.
    pub fn matching<'a>(&'a self, pattern: TriplePattern) -> Box<dyn Iterator<Item = Triple> + 'a> {
        use PatternSlot::*;
        match (pattern.s, pattern.p, pattern.o) {
            (Bound(s), Bound(p), Bound(o)) => {
                let hit = self.spo.contains(&(s, p, o));
                Box::new(hit.then_some((s, p, o)).into_iter())
            }
            (Bound(s), Bound(p), Any) => {
                Box::new(range3(&self.spo, s, Some(p)).map(|&(s, p, o)| (s, p, o)))
            }
            (Bound(s), Any, Any) => {
                Box::new(range3(&self.spo, s, None).map(|&(s, p, o)| (s, p, o)))
            }
            (Bound(s), Any, Bound(o)) => {
                Box::new(range3(&self.osp, o, Some(s)).map(|&(o, s, p)| (s, p, o)))
            }
            (Any, Bound(p), Bound(o)) => {
                Box::new(range3(&self.pos, p, Some(o)).map(|&(p, o, s)| (s, p, o)))
            }
            (Any, Bound(p), Any) => {
                Box::new(range3(&self.pos, p, None).map(|&(p, o, s)| (s, p, o)))
            }
            (Any, Any, Bound(o)) => {
                Box::new(range3(&self.osp, o, None).map(|&(o, s, p)| (s, p, o)))
            }
            (Any, Any, Any) => Box::new(self.spo.iter().copied()),
        }
    }

    /// All objects for `(s, p, ?)`.
    pub fn objects(&self, s: NodeId, p: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.matching(TriplePattern {
            s: PatternSlot::Bound(s),
            p: PatternSlot::Bound(p),
            o: PatternSlot::Any,
        })
        .map(|(_, _, o)| o)
    }

    /// All subjects for `(?, p, o)`.
    pub fn subjects(&self, p: NodeId, o: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.matching(TriplePattern {
            s: PatternSlot::Any,
            p: PatternSlot::Bound(p),
            o: PatternSlot::Bound(o),
        })
        .map(|(s, _, _)| s)
    }

    /// The single object for `(s, p, ?)` if exactly one exists.
    pub fn object(&self, s: NodeId, p: NodeId) -> Option<NodeId> {
        let mut it = self.objects(s, p);
        let first = it.next()?;
        if it.next().is_some() {
            None
        } else {
            Some(first)
        }
    }

    /// Reads a numeric datatype property off a subject, following the
    /// paper's pattern of `<scan-ontology:eTime>180</...>` literals.
    pub fn number(&self, s: NodeId, p: NodeId) -> Option<f64> {
        self.objects(s, p).find_map(|o| self.resolve(o).as_f64())
    }

    /// Reads a string datatype property off a subject.
    pub fn string(&self, s: NodeId, p: NodeId) -> Option<&str> {
        self.objects(s, p).find_map(|o| match self.resolve(o) {
            Term::Literal(Literal::Str(s)) => Some(s.as_str()),
            _ => None,
        })
    }

    /// Replaces the value of a functional datatype property: removes all
    /// existing `(s, p, *)` triples and inserts `(s, p, value)`.
    pub fn set_property(&mut self, s: NodeId, p: NodeId, value: Term) {
        let olds: Vec<NodeId> = self.objects(s, p).collect();
        for o in olds {
            self.remove(s, p, o);
        }
        let o = self.nodes.intern(value);
        self.insert(s, p, o);
    }
}

/// Range-scan helper over an index ordered as `(k1, k2, k3)`: yields all
/// entries with first component `k1` (and second `k2` when given).
fn range3(
    index: &BTreeSet<(NodeId, NodeId, NodeId)>,
    k1: NodeId,
    k2: Option<NodeId>,
) -> impl Iterator<Item = &(NodeId, NodeId, NodeId)> {
    let (lo, hi) = match k2 {
        Some(k2) => {
            (Bound::Included((k1, k2, NodeId(0))), Bound::Included((k1, k2, NodeId(u32::MAX))))
        }
        None => (
            Bound::Included((k1, NodeId(0), NodeId(0))),
            Bound::Included((k1, NodeId(u32::MAX), NodeId(u32::MAX))),
        ),
    };
    index.range((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn store_with(n: usize) -> (TripleStore, Vec<NodeId>) {
        let mut st = TripleStore::new();
        let ids: Vec<NodeId> =
            (0..n).map(|i| st.intern(Term::iri(format!("http://x/{i}")))).collect();
        (st, ids)
    }

    #[test]
    fn insert_and_contains() {
        let (mut st, ids) = store_with(3);
        assert!(st.insert(ids[0], ids[1], ids[2]));
        assert!(!st.insert(ids[0], ids[1], ids[2]), "duplicate insert");
        assert!(st.contains(ids[0], ids[1], ids[2]));
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn remove_cleans_all_indexes() {
        let (mut st, ids) = store_with(3);
        st.insert(ids[0], ids[1], ids[2]);
        assert!(st.remove(ids[0], ids[1], ids[2]));
        assert!(!st.remove(ids[0], ids[1], ids[2]));
        assert!(st.is_empty());
        assert_eq!(st.matching(TriplePattern::any()).count(), 0);
    }

    #[test]
    fn all_eight_pattern_shapes() {
        let (mut st, ids) = store_with(4);
        // (0,1,2), (0,1,3), (3,1,2), (0,2,2)
        st.insert(ids[0], ids[1], ids[2]);
        st.insert(ids[0], ids[1], ids[3]);
        st.insert(ids[3], ids[1], ids[2]);
        st.insert(ids[0], ids[2], ids[2]);
        use PatternSlot::*;
        let count = |s, p, o| st.matching(TriplePattern { s, p, o }).count();
        assert_eq!(count(Any, Any, Any), 4);
        assert_eq!(count(Bound(ids[0]), Any, Any), 3);
        assert_eq!(count(Any, Bound(ids[1]), Any), 3);
        assert_eq!(count(Any, Any, Bound(ids[2])), 3);
        assert_eq!(count(Bound(ids[0]), Bound(ids[1]), Any), 2);
        assert_eq!(count(Bound(ids[0]), Any, Bound(ids[2])), 2);
        assert_eq!(count(Any, Bound(ids[1]), Bound(ids[2])), 2);
        assert_eq!(count(Bound(ids[0]), Bound(ids[1]), Bound(ids[2])), 1);
        assert_eq!(count(Bound(ids[1]), Bound(ids[0]), Bound(ids[2])), 0);
    }

    #[test]
    fn object_helpers() {
        let mut st = TripleStore::new();
        let s = st.intern(Term::iri("http://x/GATK1"));
        let p = st.intern(Term::iri("http://x/eTime"));
        let o = st.intern(Term::int(180));
        st.insert(s, p, o);
        assert_eq!(st.number(s, p), Some(180.0));
        assert_eq!(st.object(s, p), Some(o));
        // Two objects → `object` is None (non-functional).
        let o2 = st.intern(Term::int(200));
        st.insert(s, p, o2);
        assert_eq!(st.object(s, p), None);
    }

    #[test]
    fn set_property_replaces() {
        let mut st = TripleStore::new();
        let s = st.intern(Term::iri("http://x/GATK1"));
        let p = st.intern(Term::iri("http://x/eTime"));
        st.set_property(s, p, Term::int(180));
        st.set_property(s, p, Term::int(200));
        assert_eq!(st.number(s, p), Some(200.0));
        assert_eq!(st.objects(s, p).count(), 1);
    }

    #[test]
    fn string_property() {
        let mut st = TripleStore::new();
        let s = st.intern(Term::iri("http://x/GATK1"));
        let p = st.intern(Term::iri("http://x/performance"));
        st.insert_terms(
            Term::iri("http://x/GATK1"),
            Term::iri("http://x/performance"),
            Term::str("good"),
        );
        assert_eq!(st.string(s, p), Some("good"));
    }

    proptest! {
        /// Matching any pattern returns exactly the subset of inserted
        /// triples that agree with the bound slots.
        #[test]
        fn prop_pattern_matches_filter(
            triples in proptest::collection::vec((0u32..6, 0u32..6, 0u32..6), 0..60),
            qs in 0u32..7, qp in 0u32..7, qo in 0u32..7,
        ) {
            let (mut st, ids) = store_with(7);
            let mut set = std::collections::BTreeSet::new();
            for (s, p, o) in &triples {
                st.insert(ids[*s as usize], ids[*p as usize], ids[*o as usize]);
                set.insert((ids[*s as usize], ids[*p as usize], ids[*o as usize]));
            }
            // Slot value 6 means Any (ids has 7 entries; index 6 unused in data).
            let slot = |v: u32| if v == 6 { PatternSlot::Any } else { PatternSlot::Bound(ids[v as usize]) };
            let pat = TriplePattern { s: slot(qs), p: slot(qp), o: slot(qo) };
            let got: std::collections::BTreeSet<Triple> = st.matching(pat).collect();
            let want: std::collections::BTreeSet<Triple> = set.iter().copied().filter(|&(s, p, o)| {
                (matches!(pat.s, PatternSlot::Any) || pat.s == PatternSlot::Bound(s))
                    && (matches!(pat.p, PatternSlot::Any) || pat.p == PatternSlot::Bound(p))
                    && (matches!(pat.o, PatternSlot::Any) || pat.o == PatternSlot::Bound(o))
            }).collect();
            prop_assert_eq!(got, want);
        }

        /// Insert-then-remove leaves the store exactly as before.
        #[test]
        fn prop_remove_restores(
            base in proptest::collection::vec((0u32..5, 0u32..5, 0u32..5), 0..30),
            extra in proptest::collection::vec((0u32..5, 0u32..5, 0u32..5), 1..10),
        ) {
            let (mut st, ids) = store_with(5);
            for (s, p, o) in &base {
                st.insert(ids[*s as usize], ids[*p as usize], ids[*o as usize]);
            }
            let before: Vec<Triple> = st.matching(TriplePattern::any()).collect();
            let mut added = vec![];
            for (s, p, o) in &extra {
                let t = (ids[*s as usize], ids[*p as usize], ids[*o as usize]);
                if st.insert(t.0, t.1, t.2) {
                    added.push(t);
                }
            }
            for (s, p, o) in added {
                st.remove(s, p, o);
            }
            let after: Vec<Triple> = st.matching(TriplePattern::any()).collect();
            prop_assert_eq!(before, after);
        }
    }
}
