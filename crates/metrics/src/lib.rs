//! # scan-metrics
//!
//! Zero-alloc-on-hot-path metrics for the SCAN platform: typed counters,
//! gauges, log2-bucket histograms, and sim-time-windowed series, with
//! JSONL and Prometheus text exporters written at session end.
//!
//! Design constraints, in order:
//!
//! 1. **Off the simulation path.** Nothing in the simulator records into a
//!    registry. One trace observer (`scan_platform::instrument::MetricsObserver`)
//!    builds every metric from the session's event stream, so a session
//!    without that observer does no metrics work at all, and one with it
//!    cannot be perturbed by it.
//! 2. **No allocation per event.** Ids are indices into dense vecs,
//!    histograms are fixed arrays, series append to a `Vec` only at window
//!    boundaries (amortised, a handful per session).
//! 3. **Deterministic.** Export bytes are a pure function of registry
//!    contents; registries merge in fixed repetition order, so snapshots
//!    are byte-identical across `RAYON_NUM_THREADS` — the same guarantee
//!    the trace/observer layer gives.
//!
//! The crate is dependency-free and knows nothing about the simulator:
//! time is raw `f64` TU, and the platform crate does the wiring.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod export;
pub mod hist;
pub mod registry;
pub mod series;

pub use export::{write_jsonl, write_prometheus};
pub use hist::{Log2Histogram, N_BUCKETS};
pub use registry::{CounterId, GaugeId, HistogramId, MetricMeta, Registry, SeriesId};
pub use series::{SeriesKind, WindowedSeries};
