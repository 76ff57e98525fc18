//! # scan-kb — the SCAN knowledge base
//!
//! The paper's Data Broker decides how to shard genomic inputs by querying
//! an OWL/RDF ontology ("the SCAN knowledge-base") with SPARQL (§III-A.1).
//! The original prototype used Jena and Protégé; this crate implements the
//! required subset from scratch:
//!
//! * [`term`] — RDF terms (IRIs, literals, blank nodes) behind a node
//!   interner, so triples are three `u32`s in the hot path.
//! * [`store`] — an indexed triple store (SPO / POS / OSP orderings) with
//!   pattern matching over any combination of bound positions.
//! * [`sparql`] — a SPARQL-subset engine: lexer, recursive-descent parser
//!   and a solution-sequence evaluator supporting `SELECT [DISTINCT]`,
//!   basic graph patterns, `OPTIONAL`, `FILTER`, `ORDER BY`, `LIMIT` and
//!   `OFFSET` — exactly the operations the Data Broker issues.
//! * [`ontology`] — the SCAN semantic model of §II-C: a domain ontology
//!   (bio-applications, data formats), a cloud ontology (tiers, instance
//!   shapes) and the SCAN linker joining them, plus lightweight RDFS
//!   reasoning (transitive `rdfs:subClassOf`, type inheritance).
//! * [`profile`] — ingestion of task profiling logs as OWL-style named
//!   individuals (the paper's `GATK1`…`GATK4` instances).
//! * [`regression`] — least-squares fits recovering the per-stage linear
//!   coefficients `a_i, b_i` and the Amdahl fraction `c_i` from profiles.
//! * [`advice`] — the [`KnowledgeBase`] the Data Broker and Scheduler
//!   actually consume: chunk-size recommendations and learned stage
//!   models.
//! * [`turtle`] — Turtle-format persistence: save/reload the ontology and
//!   its profiling instances across sessions.
//!
//! The [`KnowledgeBase`]'s record of truth is its profile log, in ingest
//! order; stage models are fitted from the log directly. The ontology is
//! a view of that log, materialised on first use for SPARQL queries,
//! Turtle export and the examples, so a simulation that only learns stage
//! models never builds a triple store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advice;
pub mod ontology;
pub mod profile;
pub mod regression;
pub mod sparql;
pub mod store;
pub mod term;
pub mod turtle;

pub use advice::{ChunkAdvice, KnowledgeBase, StageFitter, StageModelEstimate};
pub use ontology::{Ontology, ScanVocabulary};
pub use profile::ProfileRecord;
pub use regression::{amdahl_fit, linear_fit, AmdahlFit, LinearFit};
pub use sparql::{parse_query, QueryResults, SparqlError};
pub use store::{TriplePattern, TripleStore};
pub use term::{Literal, NodeId, Term};
pub use turtle::{from_turtle, merge_turtle, to_turtle, TurtleError};
