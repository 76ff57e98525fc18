//! # scan-sim — discrete-event simulation kernel
//!
//! The SCAN paper's entire evaluation (§IV) is a simulation study, and the
//! reproduction bands forbid external simulation frameworks, so this crate
//! implements the discrete-event machinery from scratch:
//!
//! * [`time`] — the virtual clock: [`SimTime`] instants and [`SimDuration`]
//!   spans measured in the paper's abstract *time units* (TU).
//! * [`calendar`] — the pending-event set: a deterministic priority queue
//!   with stable FIFO tie-breaking for simultaneous events. The platform
//!   crate's one event loop pops it and routes each event to the tenant
//!   that scheduled it.
//! * [`rng`] — seeded, named random streams plus the distributions the paper
//!   needs (exponential inter-arrivals, truncated normal batch/job sizes),
//!   implemented from first principles so determinism is auditable.
//! * [`stats`] — Welford online mean/variance, time-weighted averages for
//!   utilisation-style metrics, and fixed-width histograms.
//! * [`trace`] — a typed event vocabulary ([`TraceEvent`]) and pluggable
//!   [`Observer`] sinks behind a [`Tracer`], so
//!   the platform's subsystems can narrate scheduling decisions, VM
//!   lifecycle and job progress to whoever is listening.
//! * [`prof`] — an opt-in wall-clock self-profiler: RAII spans in
//!   thread-local call trees, mergeable summaries, sorted self/total
//!   tables and flamegraph-compatible collapsed stacks.
//! * [`slots`] — a free-list [`SlotArena`] for records that come and go
//!   (hired workers, admitted jobs), sized by the most live at once.
//! * [`tenant`] — tenant identity for fleet simulations: [`TenantId`] tags
//!   calendar entries so N tenant platforms can share one deterministic
//!   calendar.
//!
//! Everything is allocation-light in the hot path (events are plain enums
//! moved through a `BinaryHeap`) and fully deterministic: two runs with the
//! same seed produce bit-identical event orders regardless of host machine.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod calendar;
pub mod prof;
pub mod rng;
pub mod slots;
pub mod stats;
pub mod tenant;
pub mod time;
pub mod trace;

pub use calendar::{Calendar, ScheduledEvent};
pub use rng::{RngHub, SimRng};
pub use slots::SlotArena;
pub use stats::{Histogram, OnlineStats, TimeWeighted};
pub use tenant::TenantId;
pub use time::{SimDuration, SimTime};
pub use trace::{
    JsonlWriter, Merge, NullObserver, Observer, ObserverHandle, RingBuffer, ScalingChoice,
    TraceEvent, Tracer,
};
