//! # scan-tracestore — columnar in-process trace store
//!
//! The observability layer's database: an [`Observer`](scan_sim::Observer)
//! that ingests the simulator's [`TraceEvent`](scan_sim::TraceEvent)
//! stream into typed, dictionary-encoded columnar tables during the run
//! ([`TraceStore`]), an aggregation [`Query`] layer executed as staged
//! vector operators in the LocustDB style (filter → group/bucket →
//! gather → aggregate), and a compact `SCTS` export whose trailing
//! FNV-1a 64 digest is the fingerprint CI pins instead of hashing
//! megabytes of JSONL.
//!
//! The store restates no part of the event vocabulary: the kinds, their
//! tags and their field tables are declared once in `scan_sim::trace`
//! ([`EventKind`] and [`ALL_KINDS`] are re-exported from there), and
//! [`schema::columns`] derives each table's layout from them.
//!
//! Where the JSONL sink (`scan_sim::JsonlWriter`) serializes every event
//! to text for consumers to re-parse, the store keeps events queryable
//! in-process: tests and tools ask for "p95 queue wait per tier" as a
//! [`Query`] instead of scraping logs. Fleet runs shard one store per
//! tenant session over rayon, built by `|tenant|
//! TraceStore::for_tenant(tenant as u32)`, and merge in a fixed
//! `(repetition, tenant)` order, so merged stores — and their exports
//! and digests — are bit-identical across `RAYON_NUM_THREADS`.
//!
//! The full design — column layouts per event kind, dictionary encoding,
//! the query API, the export format, and the determinism guarantees —
//! is documented in `docs/TRACESTORE.md`, which the root
//! `tests/doc_contracts.rs` keeps in sync with [`schema`] in both
//! directions.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod column;
pub mod export;
pub mod query;
pub mod schema;
pub mod store;

pub use column::{Column, Interner};
pub use export::{fnv1a64, ExportError, MAGIC, VERSION};
pub use query::{Filter, Query, QueryError, Row, Scratchpad, VecOp};
pub use schema::{Agg, ColumnSpec, ColumnType, EventKind, ALL_KINDS};
pub use store::{tier_label, Table, TraceStore, UNKNOWN_TIER};
