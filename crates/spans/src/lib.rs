//! # scan-spans — causal job spans over the trace layer
//!
//! Turns the simulator's flat [`TraceEvent`](scan_sim::TraceEvent)
//! stream into *causal, per-job* observability: every completed job's
//! end-to-end latency decomposed into an exhaustive, non-overlapping
//! sequence of typed [`Segment`]s — admission deferral,
//! queue wait, boot wait, reshape penalty, anchor service, fan-in — that
//! tile `[submitted, completed]` with bit-exact adjacency, so the
//! segments' total equals the platform-reported `latency_tu` *bit for
//! bit* (the conservation invariant, [`JobSpans::conservation_ok`]).
//!
//! Two equivalent derivation paths share one state machine: the
//! incremental [`SpanObserver`] stitches spans live on the simulator's
//! observer bus (riding alongside a
//! [`TraceStore`](scan_tracestore::TraceStore) via [`Recorder`]), and
//! the batch [`derive`](derive::derive) pass replays a stored trace —
//! one session, a fleet, or merged repetitions — into that same
//! observer, producing an identical [`SpanSet`]. On top sit
//! deterministic fleet aggregates
//! ([`aggregate`](aggregate::aggregate): per-tenant / per-tier p50/p95
//! per segment) and a Chrome/Perfetto `trace_event` JSON exporter
//! ([`perfetto::export`]) that loads in `ui.perfetto.dev`.
//!
//! The segment taxonomy lives in [`schema`]; the root
//! `tests/doc_contracts.rs` keeps it, and the SLO metric families the
//! platform registers, in sync with `docs/SPANS.md` in both directions.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aggregate;
pub mod derive;
pub mod observer;
pub mod perfetto;
pub mod schema;
pub mod span;

pub use aggregate::{aggregate, render, render_slowest, GroupStats, SpanAggregates, Stats};
pub use derive::derive;
pub use observer::{Recorder, SpanObserver};
pub use perfetto::export;
pub use schema::{SegmentKind, ALL_SEGMENTS};
pub use span::{JobSpans, Segment, SpanSet, NO_TIER};
