//! # scan-platform — the SCAN platform
//!
//! The integration crate: Data Broker + Scheduler + Workers (Fig. 2/3)
//! wired onto the discrete-event kernel, driving the simulated hybrid
//! cloud through full evaluation sessions.
//!
//! * [`config`] — Table III's fixed parameters, Table I's variable
//!   parameters, and the full parameter grid.
//! * [`broker`] — the Data Broker: knowledge-base bootstrap from profiling
//!   traces, learned pipeline models, and each subtask's staging delay
//!   priced from the shared store's transfer model (no per-job dataset
//!   registration).
//! * [`platform`] — the event-driven world: arrivals → admission →
//!   per-class queues → scaling decisions → worker execution → stage
//!   advancement → reward, exactly the loop of §III-A.2.
//! * [`metrics`] — per-session metrics (profit per run, reward-to-cost,
//!   latency, utilisation) and replicated mean ± σ aggregates.
//! * [`observers`] — domain-level trace observers: the [`DecisionStats`]
//!   counting observer folding scaling decisions, queue depths and tier
//!   settlements into per-cell statistics.
//! * [`session`] — one seeded simulation run; [`sweep`] — rayon-parallel
//!   replication and parameter grids, with one observer per session
//!   built inside the worker task by a `Sync` builder closure and merged
//!   in repetition order.
//! * [`fleet`] — multi-tenant fleets: M platforms on one shared provider
//!   pool (finite private capacity, contention-surged public pricing,
//!   fair-share admission), multiplexed deterministically over a single
//!   tenant-tagged calendar, with whole-fleet replications sharded
//!   across cores.
//! * [`instrument`] — the metrics observer, which builds a
//!   [`scan_metrics`] registry (histograms, counters, windowed series)
//!   from a session's event stream, plus an optional wall-clock
//!   self-profile; registries merge deterministically across parallel
//!   repetitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod config;
pub mod fleet;
pub mod instrument;
pub mod metrics;
pub mod observers;
pub mod platform;
pub mod session;
pub mod sweep;

pub use broker::DataBroker;
pub use config::{FixedParams, ParameterGrid, ScanConfig, VariableParams};
pub use fleet::{
    run_fleet, run_fleet_replicated, run_fleet_replicated_with, run_fleet_with, FleetConfig,
    FleetMetrics,
};
pub use metrics::{ReplicatedMetrics, SessionMetrics};
pub use observers::DecisionStats;
pub use platform::Platform;
pub use session::run_session;
pub use sweep::{run_replicated, sweep_grid_with, ObservedCell};
