//! The store's data model: one column set per trace-event kind.
//!
//! Every [`TraceEvent`] variant maps to one
//! [`EventKind`] table whose typed columns are declared here, in
//! [`EventKind::columns`]. The declaration is the single source of truth
//! for the whole crate: ingest pushes values in declaration order, the
//! query layer resolves column names against it, the export writes
//! columns in declaration order, and the root `tests/doc_contracts.rs`
//! checks it against `docs/TRACESTORE.md` in both directions (so a
//! column added or renamed here without its documentation row fails
//! `cargo test`, and vice versa).
//!
//! Two implicit columns precede every table's declared columns and are
//! therefore *not* listed in [`EventKind::columns`]:
//!
//! * `t` — the event's simulation time, stored as the `u64` bit pattern
//!   of the non-negative `f64` TU value (bit order equals numeric order,
//!   so the column is monotone and delta-encodes well);
//! * `tenant` — the owning tenant's id (0 for single-tenant sessions;
//!   the event's own `tenant` payload for the admission events).

use scan_sim::TraceEvent;

/// The physical type of one stored column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Plain `u32` values (ids, stages, core counts, depths).
    U32,
    /// Plain `u64` values (large counters).
    U64,
    /// `f64` values (times in TU, costs in CU, sizes).
    F64,
    /// Dictionary-encoded labels: a per-column string dictionary plus a
    /// `u32` code per row.
    Dict,
}

/// One declared column of an [`EventKind`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Column name; equals the `TraceEvent` field (and JSONL key) it
    /// stores, except for derived columns such as `tier` on
    /// `subtask_dispatched`.
    pub name: &'static str,
    /// Physical type of the column.
    pub ty: ColumnType,
}

/// Declares a `u32` column.
const fn u32c(name: &'static str) -> ColumnSpec {
    ColumnSpec { name, ty: ColumnType::U32 }
}

/// Declares a `u64` column.
const fn u64c(name: &'static str) -> ColumnSpec {
    ColumnSpec { name, ty: ColumnType::U64 }
}

/// Declares an `f64` column.
const fn f64c(name: &'static str) -> ColumnSpec {
    ColumnSpec { name, ty: ColumnType::F64 }
}

/// Declares a dictionary-encoded label column.
const fn dictc(name: &'static str) -> ColumnSpec {
    ColumnSpec { name, ty: ColumnType::Dict }
}

/// One table of the store: the event kinds of
/// [`TraceEvent`], in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// `job_arrived` rows.
    JobArrived,
    /// `job_stage_advanced` rows.
    JobStageAdvanced,
    /// `job_completed` rows.
    JobCompleted,
    /// `slo_violation` rows.
    SloViolation,
    /// `subtask_dispatched` rows.
    SubtaskDispatched,
    /// `subtask_done` rows.
    SubtaskDone,
    /// `vm_hired` rows.
    VmHired,
    /// `vm_booted` rows.
    VmBooted,
    /// `vm_reshaped` rows.
    VmReshaped,
    /// `vm_released` rows.
    VmReleased,
    /// `scaling_decision` rows.
    ScalingDecision,
    /// `queue_depth` rows.
    QueueDepth,
    /// `admission_deferred` rows.
    AdmissionDeferred,
    /// `admission_resumed` rows.
    AdmissionResumed,
    /// `tier_settled` rows.
    TierSettled,
    /// `run_ended` rows.
    RunEnded,
}

/// Every kind, in table order (the order tables appear in the export).
pub const ALL_KINDS: [EventKind; 16] = [
    EventKind::JobArrived,
    EventKind::JobStageAdvanced,
    EventKind::JobCompleted,
    EventKind::SloViolation,
    EventKind::SubtaskDispatched,
    EventKind::SubtaskDone,
    EventKind::VmHired,
    EventKind::VmBooted,
    EventKind::VmReshaped,
    EventKind::VmReleased,
    EventKind::ScalingDecision,
    EventKind::QueueDepth,
    EventKind::AdmissionDeferred,
    EventKind::AdmissionResumed,
    EventKind::TierSettled,
    EventKind::RunEnded,
];

impl EventKind {
    /// The kind an event is stored under.
    pub fn of(event: &TraceEvent) -> EventKind {
        match event {
            TraceEvent::JobArrived { .. } => Self::JobArrived,
            TraceEvent::JobStageAdvanced { .. } => Self::JobStageAdvanced,
            TraceEvent::JobCompleted { .. } => Self::JobCompleted,
            TraceEvent::SloViolation { .. } => Self::SloViolation,
            TraceEvent::SubtaskDispatched { .. } => Self::SubtaskDispatched,
            TraceEvent::SubtaskDone { .. } => Self::SubtaskDone,
            TraceEvent::VmHired { .. } => Self::VmHired,
            TraceEvent::VmBooted { .. } => Self::VmBooted,
            TraceEvent::VmReshaped { .. } => Self::VmReshaped,
            TraceEvent::VmReleased { .. } => Self::VmReleased,
            TraceEvent::ScalingDecision { .. } => Self::ScalingDecision,
            TraceEvent::QueueDepthSampled { .. } => Self::QueueDepth,
            TraceEvent::AdmissionDeferred { .. } => Self::AdmissionDeferred,
            TraceEvent::AdmissionResumed { .. } => Self::AdmissionResumed,
            TraceEvent::TierSettled { .. } => Self::TierSettled,
            TraceEvent::RunEnded { .. } => Self::RunEnded,
        }
    }

    /// Stable lowercase table tag; equals
    /// [`TraceEvent::kind`](scan_sim::TraceEvent::kind) for the stored
    /// variant.
    pub fn tag(self) -> &'static str {
        match self {
            Self::JobArrived => "job_arrived",
            Self::JobStageAdvanced => "job_stage_advanced",
            Self::JobCompleted => "job_completed",
            Self::SloViolation => "slo_violation",
            Self::SubtaskDispatched => "subtask_dispatched",
            Self::SubtaskDone => "subtask_done",
            Self::VmHired => "vm_hired",
            Self::VmBooted => "vm_booted",
            Self::VmReshaped => "vm_reshaped",
            Self::VmReleased => "vm_released",
            Self::ScalingDecision => "scaling_decision",
            Self::QueueDepth => "queue_depth",
            Self::AdmissionDeferred => "admission_deferred",
            Self::AdmissionResumed => "admission_resumed",
            Self::TierSettled => "tier_settled",
            Self::RunEnded => "run_ended",
        }
    }

    /// The declared columns of this kind's table, in storage order.
    ///
    /// Ids (`job`, `vm`) are stored as `u32`: upstream they are arena
    /// slot indices that the platform itself keeps in `u32`, so the
    /// narrowing is lossless in practice (values above `u32::MAX`
    /// saturate). `tier` is dictionary-encoded through
    /// [`tier_label`](crate::store::tier_label) rather than stored as a
    /// raw index; `subtask_dispatched.tier` is *derived* at ingest from
    /// the dispatching VM's hire/reshape history.
    pub fn columns(self) -> &'static [ColumnSpec] {
        // One `const` per kind: const-fn calls are not promoted to
        // `'static` behind a plain `&[...]`, but const items are.
        const JOB_ARRIVED: &[ColumnSpec] = &[u32c("job"), f64c("size_units"), f64c("submitted_tu")];
        const SLO_VIOLATION: &[ColumnSpec] = &[u32c("job"), f64c("latency_tu"), f64c("target_tu")];
        const JOB_STAGE_ADVANCED: &[ColumnSpec] =
            &[u32c("job"), u32c("stage"), u32c("shards"), u32c("cores")];
        const JOB_COMPLETED: &[ColumnSpec] =
            &[u32c("job"), f64c("latency_tu"), f64c("reward"), f64c("core_stages")];
        const SUBTASK_DISPATCHED: &[ColumnSpec] = &[
            u32c("job"),
            u32c("stage"),
            u32c("vm"),
            u32c("cores"),
            f64c("waited_tu"),
            f64c("busy_tu"),
            dictc("tier"),
        ];
        const SUBTASK_DONE: &[ColumnSpec] = &[u32c("job"), u32c("stage"), u32c("vm")];
        const VM_HIRED: &[ColumnSpec] = &[u32c("vm"), dictc("tier"), u32c("cores")];
        const VM_BOOTED: &[ColumnSpec] = &[u32c("vm"), u32c("cores")];
        const VM_RESHAPED: &[ColumnSpec] =
            &[u32c("vm"), dictc("tier"), u32c("cores_from"), u32c("cores_to")];
        const VM_RELEASED: &[ColumnSpec] = &[u32c("vm"), dictc("tier"), u32c("cores")];
        const SCALING_DECISION: &[ColumnSpec] = &[
            u32c("stage"),
            u32c("cores"),
            u32c("queued_jobs"),
            f64c("delay_cost"),
            f64c("hire_cost"),
            dictc("choice"),
        ];
        const QUEUE_DEPTH: &[ColumnSpec] = &[u32c("depth")];
        const ADMISSION: &[ColumnSpec] = &[u32c("jobs"), u32c("backlog")];
        const TIER_SETTLED: &[ColumnSpec] = &[dictc("tier"), f64c("cost"), f64c("core_tu")];
        const RUN_ENDED: &[ColumnSpec] = &[u64c("events_dispatched")];
        match self {
            Self::JobArrived => JOB_ARRIVED,
            Self::JobStageAdvanced => JOB_STAGE_ADVANCED,
            Self::JobCompleted => JOB_COMPLETED,
            Self::SloViolation => SLO_VIOLATION,
            Self::SubtaskDispatched => SUBTASK_DISPATCHED,
            Self::SubtaskDone => SUBTASK_DONE,
            Self::VmHired => VM_HIRED,
            Self::VmBooted => VM_BOOTED,
            Self::VmReshaped => VM_RESHAPED,
            Self::VmReleased => VM_RELEASED,
            Self::ScalingDecision => SCALING_DECISION,
            Self::QueueDepth => QUEUE_DEPTH,
            Self::AdmissionDeferred => ADMISSION,
            Self::AdmissionResumed => ADMISSION,
            Self::TierSettled => TIER_SETTLED,
            Self::RunEnded => RUN_ENDED,
        }
    }

    /// The position of a declared column by name.
    pub fn column_index(self, name: &str) -> Option<usize> {
        self.columns().iter().position(|c| c.name == name)
    }
}

/// The aggregation functions the query layer can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Row count of the selection (no value column needed).
    Count,
    /// Sum of the value column, accumulated in row order.
    Sum,
    /// Arithmetic mean of the value column (sum in row order / count).
    Mean,
    /// Median by the nearest-rank method over `total_cmp`-sorted values.
    P50,
    /// 95th percentile, nearest-rank over `total_cmp`-sorted values.
    P95,
    /// Maximum by `total_cmp` (NaNs sort above every number).
    Max,
}

impl Agg {
    /// Every aggregation, in declaration order.
    pub const ALL: [Agg; 6] = [Self::Count, Self::Sum, Self::Mean, Self::P50, Self::P95, Self::Max];

    /// Stable lowercase label (used in query results and the docs).
    pub fn name(self) -> &'static str {
        match self {
            Self::Count => "count",
            Self::Sum => "sum",
            Self::Mean => "mean",
            Self::P50 => "p50",
            Self::P95 => "p95",
            Self::Max => "max",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_order_matches_discriminants() {
        for (i, kind) in ALL_KINDS.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
    }

    #[test]
    fn column_names_are_unique_per_kind() {
        for kind in ALL_KINDS {
            let cols = kind.columns();
            for (i, a) in cols.iter().enumerate() {
                assert_ne!(a.name, "t", "t is implicit");
                assert_ne!(a.name, "tenant", "tenant is implicit");
                for b in &cols[i + 1..] {
                    assert_ne!(a.name, b.name, "duplicate column in {}", kind.tag());
                }
            }
            assert_eq!(kind.column_index(cols[0].name), Some(0));
            assert_eq!(kind.column_index("no_such_column"), None);
        }
    }

    #[test]
    fn agg_all_lists_every_variant_in_order() {
        use Agg::*;
        for (i, agg) in Agg::ALL.into_iter().enumerate() {
            // Exhaustive: a new variant stops this compiling until it is
            // given its position here.
            let position = match agg {
                Count => 0,
                Sum => 1,
                Mean => 2,
                P50 => 3,
                P95 => 4,
                Max => 5,
            };
            assert_eq!(position, i, "{agg:?} is listed out of order");
        }
    }
}
