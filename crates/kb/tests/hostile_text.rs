//! Hostile input for the knowledge base's two text decoders. A valid
//! SPARQL query and a valid `to_turtle` document, truncated at any byte
//! or with any byte replaced (and re-decoded lossily to a `&str`), must
//! parse to `Ok` or `Err` — never panic — and the undamaged texts must
//! still round-trip.

use proptest::prelude::*;
use scan_kb::ontology::iri::SCAN_NS;
use scan_kb::{from_turtle, parse_query, to_turtle, Ontology, ProfileRecord, Term, TripleStore};
use std::sync::OnceLock;

/// Exercises the prologue, `DISTINCT`, `OPTIONAL`, nested `FILTER`
/// expressions with every operator class, a non-ASCII string literal and
/// the full modifier stack.
const QUERY: &str = r#"PREFIX scan: <http://www.semanticweb.org/wxing/ontologies/scan-ontology#>
SELECT DISTINCT ?app ?t ?n WHERE {
    ?app scan:eTime ?t .
    OPTIONAL { ?app scan:label ?n . FILTER (?n = "café" || ?n != 'x\'y') }
    FILTER ((?t < 250 && !(?t = 80)) || -?t * 2.5 >= -1e3 / 4 + 1)
} ORDER BY DESC(?t) ASC(?app) LIMIT 10 OFFSET 0"#;

/// A scan-schema ontology with profiles, plus a non-ASCII literal, an
/// escaped string, a blank node, a boolean and a negative integer.
fn knowledge_base() -> &'static TripleStore {
    static STORE: OnceLock<TripleStore> = OnceLock::new();
    STORE.get_or_init(|| {
        let mut o = Ontology::with_scan_schema();
        for (size, e_time) in [(10.0, 180.0), (5.0, 200.0), (20.0, 280.0), (4.0, 80.0)] {
            o.ingest_profile(&ProfileRecord {
                application: "GATK".into(),
                stage: 1,
                input_gb: size,
                threads: 8,
                ram_gb: 4.0,
                e_time,
            });
        }
        let mut store = o.store().clone();
        let gatk1 = Term::iri(format!("{SCAN_NS}GATK1"));
        let label = Term::iri(format!("{SCAN_NS}label"));
        store.insert_terms(gatk1.clone(), label.clone(), Term::str("café"));
        store.insert_terms(gatk1.clone(), label, Term::str("a \"quoted\" \\ path"));
        store.insert_terms(gatk1.clone(), Term::iri(format!("{SCAN_NS}owner")), Term::Blank(7));
        store.insert_terms(
            gatk1.clone(),
            Term::iri(format!("{SCAN_NS}verified")),
            Term::bool(true),
        );
        store.insert_terms(gatk1, Term::iri(format!("{SCAN_NS}offset")), Term::int(-3));
        store
    })
}

fn document() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let prefixes = [
            ("scan", SCAN_NS),
            ("rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#"),
            ("rdfs", "http://www.w3.org/2000/01/rdf-schema#"),
        ];
        to_turtle(knowledge_base(), &prefixes)
    })
}

/// The store's triples as rendered text, order-free.
fn triples(store: &TripleStore) -> Vec<String> {
    let mut all: Vec<String> = store
        .matching(scan_kb::TriplePattern::any())
        .map(|(s, p, o)| format!("{} {} {}", store.resolve(s), store.resolve(p), store.resolve(o)))
        .collect();
    all.sort();
    all
}

/// `text` cut at `cut` (a fraction of its length) and, separately, with
/// the byte at `at` replaced by `byte`; both re-decoded lossily, since a
/// byte-level edit can split a multi-byte character.
fn damaged(text: &str, cut: f64, at: f64, byte: u8) -> [String; 2] {
    let bytes = text.as_bytes();
    let cut = (cut * bytes.len() as f64) as usize;
    let mut replaced = bytes.to_vec();
    replaced[(at * bytes.len() as f64) as usize] = byte;
    [
        String::from_utf8_lossy(&bytes[..cut]).into_owned(),
        String::from_utf8_lossy(&replaced).into_owned(),
    ]
}

#[test]
fn valid_texts_round_trip() {
    let back = from_turtle(document()).expect("the writer's Turtle parses");
    assert_eq!(triples(&back), triples(knowledge_base()));

    let query = parse_query(QUERY).expect("the query parses");
    let on_original = query.execute(knowledge_base()).expect("the query runs");
    let on_reloaded = query.execute(&back).expect("the query runs");
    assert!(!on_original.is_empty());
    assert_eq!(on_original.rows(), on_reloaded.rows());
    let cafe = on_original.rows().iter().filter(|r| r.get("n") == Some(&Term::str("café")));
    assert_eq!(cafe.count(), 1, "the non-ASCII literal matches");
}

proptest! {
    /// A damaged Turtle document is refused, or loads into a store that
    /// the writer can serialise and the reader load back unchanged.
    #[test]
    fn damaged_turtle_is_refused_or_sound(
        cut in 0.0f64..1.0,
        at in 0.0f64..1.0,
        byte in 0u8..=255,
    ) {
        for text in damaged(document(), cut, at, byte) {
            if let Ok(store) = from_turtle(&text) {
                let again = from_turtle(&to_turtle(&store, &[])).map_err(|e| {
                    TestCaseError::fail(format!("re-serialised store does not parse: {e}"))
                })?;
                prop_assert_eq!(triples(&again), triples(&store));
            }
        }
    }

    /// A damaged query is refused, or parses into a query that runs.
    #[test]
    fn damaged_queries_are_refused_or_run(
        cut in 0.0f64..1.0,
        at in 0.0f64..1.0,
        byte in 0u8..=255,
    ) {
        for text in damaged(QUERY, cut, at, byte) {
            if let Ok(query) = parse_query(&text) {
                // Evaluation may refuse the query; it must not panic.
                let _ = query.execute(knowledge_base());
            }
        }
    }
}
