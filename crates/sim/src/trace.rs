//! Typed simulation trace: a flat event vocabulary and pluggable
//! observers, so every layer of the platform can narrate what it does
//! without knowing who is listening.
//!
//! Design constraints, in order:
//!
//! 1. **Cheap when disabled.** [`Tracer::emit`] returns immediately
//!    when no sink is attached, and the [`Tracer::emit_with`] form defers
//!    even the event *construction* behind that check. A platform
//!    session attaches nothing of its own (it counts its metrics where
//!    the facts happen), so every session nobody observes takes that
//!    branch on every event, in the platform and in its provider alike.
//! 2. **Primitive payloads.** This crate sits below the domain crates, so
//!    [`TraceEvent`] carries raw `u64`/`u32`/`f64` fields (job numbers,
//!    VM numbers, tier indices) rather than domain newtypes. Everything
//!    is `Copy`; emitting never allocates.
//! 3. **Single-threaded sharing.** A session is one thread (parallelism
//!    lives *across* sessions), so sinks are `Rc<RefCell<…>>` — the
//!    platform and its cloud provider each hold a clone of one
//!    [`Tracer`] and feed the same observers.
//!
//! Three general-purpose observers live here: [`NullObserver`] (measures
//! the observer-dispatch floor), [`RingBuffer`] (keeps the last N events
//! for post-mortems), and [`JsonlWriter`] (streams events as JSON lines).
//! Domain-aware observers (e.g. the platform's decision statistics and
//! metrics registry) implement [`Observer`] in their own crates.
//!
//! # Parallel sessions: builders and [`Merge`]
//!
//! Constraint 3 makes a single sink unusable across threads — but it does
//! not need to be shared. The parallel drivers take a `Sync` builder
//! closure, `Fn(u64) -> O`, and call it *inside* each worker task with
//! the tenant number the session runs as (0 outside fleets). The
//! observer type must be `Send`; the session holds it in an
//! `Rc<RefCell<_>>` sink only while it runs, then the observer crosses
//! back to the coordinating thread, where observers implementing
//! [`Merge`] are folded in a fixed (repetition, tenant) order, so an
//! N-thread sweep reports bit-identical statistics to a 1-thread run.
//!
//! # Example: a custom observer
//!
//! Any `impl Observer` can be attached to a [`Tracer`] (or, through the
//! platform crate, to a whole session). A counter for VM hires:
//!
//! ```
//! use scan_sim::{Observer, SimTime, TraceEvent, Tracer};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! #[derive(Default)]
//! struct HireCounter {
//!     hires: u64,
//! }
//!
//! impl Observer for HireCounter {
//!     fn on_event(&mut self, _at: SimTime, event: &TraceEvent) {
//!         if matches!(event, TraceEvent::VmHired { .. }) {
//!             self.hires += 1;
//!         }
//!     }
//! }
//!
//! let counter = Rc::new(RefCell::new(HireCounter::default()));
//! let mut tracer = Tracer::disabled();
//! tracer.attach(counter.clone());
//! tracer.emit(SimTime::new(1.0), TraceEvent::VmHired { vm: 0, tier: 1, cores: 4 });
//! tracer.emit(SimTime::new(2.0), TraceEvent::QueueDepthSampled { depth: 3 });
//! assert_eq!(counter.borrow().hires, 1);
//! ```
//!
//! # One declaration of the vocabulary
//!
//! Each kind of event is declared once, here: [`EventKind`] (and
//! [`ALL_KINDS`]) names it, [`EventKind::tag`] gives its JSONL `kind`
//! and store table name, and [`EventKind::fields`] its field table of
//! `(name, type)`. [`TraceEvent::with_values`] reads an event's values
//! in table order and [`TraceEvent::from_values`] is the inverse. The
//! [`JsonlWriter`] and the `scan-tracestore` columnar store read this
//! declaration instead of restating it.
//!
//! The vocabulary's meaning — every variant, its fields and units, and
//! one worked JSONL example per variant — is documented in
//! `docs/TRACE_SCHEMA.md` at the repository root.

use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::rc::Rc;

/// What a scaling decision chose to do with a stalled task class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingChoice {
    /// Keep waiting for an existing worker to free up.
    Wait,
    /// Hire a new private-tier worker.
    HirePrivate,
    /// Hire a new public-tier worker.
    HirePublic,
    /// Reshape an idle worker of another shape instead of hiring.
    Reshape,
}

impl ScalingChoice {
    /// Every choice, in declaration order: `ALL[c.index()] == c`. Per-choice
    /// tallies (decision counts, the `scaling_choice_total` counters) are
    /// arrays in this order.
    pub const ALL: [ScalingChoice; 4] =
        [Self::Wait, Self::HirePrivate, Self::HirePublic, Self::Reshape];

    /// Position of this choice in [`ScalingChoice::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase label (used by the JSONL writer).
    pub fn name(self) -> &'static str {
        match self {
            Self::Wait => "wait",
            Self::HirePrivate => "hire_private",
            Self::HirePublic => "hire_public",
            Self::Reshape => "reshape",
        }
    }
}

/// One observation from the simulation. Variants mirror the platform's
/// event flow: jobs arrive and advance stage by stage, shard subtasks are
/// dispatched to workers, workers are hired / booted / reshaped /
/// released, and the scheduler takes scaling decisions with the Eq. 1
/// delay-cost-versus-hire-cost numbers attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A job was admitted to the platform.
    JobArrived {
        /// Job number.
        job: u64,
        /// Dataset size in abstract units.
        size_units: f64,
        /// When the job was originally submitted, in TU. Equal to the
        /// event time unless the fair-share admission gate deferred the
        /// job first — the gap is the admission-deferred span segment.
        submitted_tu: f64,
    },
    /// A job's next stage was enqueued (stage 0 = first).
    JobStageAdvanced {
        /// Job number.
        job: u64,
        /// Stage now queued.
        stage: u32,
        /// Shard subtasks enqueued for the stage.
        shards: u32,
        /// Cores (threads) each shard needs.
        cores: u32,
    },
    /// A job finished its last stage and earned its reward.
    JobCompleted {
        /// Job number.
        job: u64,
        /// End-to-end latency in TU.
        latency_tu: f64,
        /// Reward earned (CU).
        reward: f64,
        /// Σ shards·threads of the job's plan (Fig. 5's x-axis).
        core_stages: f64,
    },
    /// A completed job missed the configured latency SLO
    /// (`latency_tu > target_tu`). Emitted right after the job's
    /// `JobCompleted` event; only present when an SLO target is set.
    SloViolation {
        /// Job number.
        job: u64,
        /// End-to-end latency in TU.
        latency_tu: f64,
        /// The SLO latency target that was missed, in TU.
        target_tu: f64,
    },
    /// A queued shard subtask started on a worker.
    SubtaskDispatched {
        /// Owning job.
        job: u64,
        /// Stage the subtask belongs to.
        stage: u32,
        /// Worker VM number.
        vm: u64,
        /// Cores the subtask occupies.
        cores: u32,
        /// Time the subtask spent queued, in TU.
        waited_tu: f64,
        /// Execution + staging time it will occupy the worker for, in TU.
        busy_tu: f64,
    },
    /// A shard subtask finished and freed its worker.
    SubtaskDone {
        /// Owning job.
        job: u64,
        /// Stage the subtask belonged to.
        stage: u32,
        /// Worker VM number.
        vm: u64,
    },
    /// A VM was hired on a tier and began booting.
    VmHired {
        /// VM number.
        vm: u64,
        /// Tier index (0 = private, 1 = public).
        tier: u32,
        /// Cores of the instance shape.
        cores: u32,
    },
    /// A VM finished booting (or reshaping) and joined the idle pool.
    VmBooted {
        /// VM number.
        vm: u64,
        /// Cores of the instance shape.
        cores: u32,
    },
    /// An idle VM was converted to a different shape (30 s penalty).
    VmReshaped {
        /// VM number.
        vm: u64,
        /// Tier index.
        tier: u32,
        /// Shape before the reshape.
        cores_from: u32,
        /// Shape after the reshape.
        cores_to: u32,
    },
    /// A VM was released and its billing settled.
    VmReleased {
        /// VM number.
        vm: u64,
        /// Tier index.
        tier: u32,
        /// Cores of the instance shape.
        cores: u32,
    },
    /// A horizontal-scaling decision for a stalled task class, with the
    /// Eq. 1 comparison that justified it. `delay_cost`/`hire_cost` are
    /// NaN when the deciding policy did not price the decision (the
    /// always/never policies decide unconditionally).
    ScalingDecision {
        /// Pipeline stage of the stalled class.
        stage: u32,
        /// Cores per subtask of the stalled class.
        cores: u32,
        /// Distinct queued jobs considered in the Eq. 1 view.
        queued_jobs: u32,
        /// Eq. 1 delay cost of waiting out the projected delay (CU).
        delay_cost: f64,
        /// Cost of hiring capacity for boot + one task (CU).
        hire_cost: f64,
        /// What was decided.
        choice: ScalingChoice,
    },
    /// Total queued subtasks across all classes changed.
    QueueDepthSampled {
        /// Queued subtasks over all classes.
        depth: u32,
    },
    /// A fleet tenant's arrival batch was deferred by the fair-share
    /// admission gate: the shared private pool is exhausted and the
    /// tenant already holds at least its fair share of it.
    AdmissionDeferred {
        /// Tenant whose batch was deferred.
        tenant: u32,
        /// Jobs pushed onto the tenant's admission backlog.
        jobs: u32,
        /// Backlogged jobs after the deferral.
        backlog: u32,
    },
    /// Previously deferred jobs cleared the fair-share admission gate.
    AdmissionResumed {
        /// Tenant whose backlog drained.
        tenant: u32,
        /// Jobs admitted from the backlog.
        jobs: u32,
        /// Backlogged jobs remaining after the resume.
        backlog: u32,
    },
    /// End-of-run billing settlement for one tier.
    TierSettled {
        /// Tier index.
        tier: u32,
        /// Total cost charged against the tier (CU).
        cost: f64,
        /// Total core·TU provisioned on the tier.
        core_tu: f64,
    },
    /// The session's event loop ended.
    RunEnded {
        /// Events the event loop dispatched.
        events_dispatched: u64,
    },
}

impl TraceEvent {
    /// The kind of this event: its JSONL `kind` and its trace-store table.
    #[inline]
    pub fn kind(&self) -> EventKind {
        match self {
            Self::JobArrived { .. } => EventKind::JobArrived,
            Self::JobStageAdvanced { .. } => EventKind::JobStageAdvanced,
            Self::JobCompleted { .. } => EventKind::JobCompleted,
            Self::SloViolation { .. } => EventKind::SloViolation,
            Self::SubtaskDispatched { .. } => EventKind::SubtaskDispatched,
            Self::SubtaskDone { .. } => EventKind::SubtaskDone,
            Self::VmHired { .. } => EventKind::VmHired,
            Self::VmBooted { .. } => EventKind::VmBooted,
            Self::VmReshaped { .. } => EventKind::VmReshaped,
            Self::VmReleased { .. } => EventKind::VmReleased,
            Self::ScalingDecision { .. } => EventKind::ScalingDecision,
            Self::QueueDepthSampled { .. } => EventKind::QueueDepth,
            Self::AdmissionDeferred { .. } => EventKind::AdmissionDeferred,
            Self::AdmissionResumed { .. } => EventKind::AdmissionResumed,
            Self::TierSettled { .. } => EventKind::TierSettled,
            Self::RunEnded { .. } => EventKind::RunEnded,
        }
    }

    /// Calls `read` with the event's field values, in the order of its
    /// kind's [`fields`](EventKind::fields). [`TraceEvent::from_values`]
    /// is the inverse.
    #[inline]
    pub fn with_values<R>(&self, read: impl FnOnce(&[Value]) -> R) -> R {
        use Value::*;
        match *self {
            Self::JobArrived { job, size_units, submitted_tu } => {
                read(&[Id(job), F64(size_units), F64(submitted_tu)])
            }
            Self::JobStageAdvanced { job, stage, shards, cores } => {
                read(&[Id(job), U32(stage), U32(shards), U32(cores)])
            }
            Self::JobCompleted { job, latency_tu, reward, core_stages } => {
                read(&[Id(job), F64(latency_tu), F64(reward), F64(core_stages)])
            }
            Self::SloViolation { job, latency_tu, target_tu } => {
                read(&[Id(job), F64(latency_tu), F64(target_tu)])
            }
            Self::SubtaskDispatched { job, stage, vm, cores, waited_tu, busy_tu } => {
                read(&[Id(job), U32(stage), Id(vm), U32(cores), F64(waited_tu), F64(busy_tu)])
            }
            Self::SubtaskDone { job, stage, vm } => read(&[Id(job), U32(stage), Id(vm)]),
            Self::VmHired { vm, tier, cores } => read(&[Id(vm), Tier(tier), U32(cores)]),
            Self::VmBooted { vm, cores } => read(&[Id(vm), U32(cores)]),
            Self::VmReshaped { vm, tier, cores_from, cores_to } => {
                read(&[Id(vm), Tier(tier), U32(cores_from), U32(cores_to)])
            }
            Self::VmReleased { vm, tier, cores } => read(&[Id(vm), Tier(tier), U32(cores)]),
            Self::ScalingDecision { stage, cores, queued_jobs, delay_cost, hire_cost, choice } => {
                read(&[
                    U32(stage),
                    U32(cores),
                    U32(queued_jobs),
                    F64(delay_cost),
                    F64(hire_cost),
                    Choice(choice),
                ])
            }
            Self::QueueDepthSampled { depth } => read(&[U32(depth)]),
            Self::AdmissionDeferred { tenant, jobs, backlog }
            | Self::AdmissionResumed { tenant, jobs, backlog } => {
                read(&[Tenant(tenant), U32(jobs), U32(backlog)])
            }
            Self::TierSettled { tier, cost, core_tu } => {
                read(&[Tier(tier), F64(cost), F64(core_tu)])
            }
            Self::RunEnded { events_dispatched } => read(&[U64(events_dispatched)]),
        }
    }

    /// The event of `kind` whose [`with_values`](TraceEvent::with_values) are
    /// `values`, or `None` when they do not fit the kind's field table
    /// (a missing, extra or differently typed value).
    pub fn from_values(kind: EventKind, values: &[Value]) -> Option<TraceEvent> {
        use EventKind as K;
        use Value::*;
        Some(match (kind, values) {
            (K::JobArrived, &[Id(job), F64(size_units), F64(submitted_tu)]) => {
                Self::JobArrived { job, size_units, submitted_tu }
            }
            (K::JobStageAdvanced, &[Id(job), U32(stage), U32(shards), U32(cores)]) => {
                Self::JobStageAdvanced { job, stage, shards, cores }
            }
            (K::JobCompleted, &[Id(job), F64(latency_tu), F64(reward), F64(core_stages)]) => {
                Self::JobCompleted { job, latency_tu, reward, core_stages }
            }
            (K::SloViolation, &[Id(job), F64(latency_tu), F64(target_tu)]) => {
                Self::SloViolation { job, latency_tu, target_tu }
            }
            (
                K::SubtaskDispatched,
                &[Id(job), U32(stage), Id(vm), U32(cores), F64(waited_tu), F64(busy_tu)],
            ) => Self::SubtaskDispatched { job, stage, vm, cores, waited_tu, busy_tu },
            (K::SubtaskDone, &[Id(job), U32(stage), Id(vm)]) => {
                Self::SubtaskDone { job, stage, vm }
            }
            (K::VmHired, &[Id(vm), Tier(tier), U32(cores)]) => Self::VmHired { vm, tier, cores },
            (K::VmBooted, &[Id(vm), U32(cores)]) => Self::VmBooted { vm, cores },
            (K::VmReshaped, &[Id(vm), Tier(tier), U32(cores_from), U32(cores_to)]) => {
                Self::VmReshaped { vm, tier, cores_from, cores_to }
            }
            (K::VmReleased, &[Id(vm), Tier(tier), U32(cores)]) => {
                Self::VmReleased { vm, tier, cores }
            }
            (
                K::ScalingDecision,
                &[U32(stage), U32(cores), U32(queued_jobs), F64(delay_cost), F64(hire_cost), Choice(choice)],
            ) => Self::ScalingDecision { stage, cores, queued_jobs, delay_cost, hire_cost, choice },
            (K::QueueDepth, &[U32(depth)]) => Self::QueueDepthSampled { depth },
            (K::AdmissionDeferred, &[Tenant(tenant), U32(jobs), U32(backlog)]) => {
                Self::AdmissionDeferred { tenant, jobs, backlog }
            }
            (K::AdmissionResumed, &[Tenant(tenant), U32(jobs), U32(backlog)]) => {
                Self::AdmissionResumed { tenant, jobs, backlog }
            }
            (K::TierSettled, &[Tier(tier), F64(cost), F64(core_tu)]) => {
                Self::TierSettled { tier, cost, core_tu }
            }
            (K::RunEnded, &[U64(events_dispatched)]) => Self::RunEnded { events_dispatched },
            _ => return None,
        })
    }
}

/// One kind of [`TraceEvent`], in variant order: the JSONL `kind` and
/// the trace store's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// [`TraceEvent::JobArrived`].
    JobArrived,
    /// [`TraceEvent::JobStageAdvanced`].
    JobStageAdvanced,
    /// [`TraceEvent::JobCompleted`].
    JobCompleted,
    /// [`TraceEvent::SloViolation`].
    SloViolation,
    /// [`TraceEvent::SubtaskDispatched`].
    SubtaskDispatched,
    /// [`TraceEvent::SubtaskDone`].
    SubtaskDone,
    /// [`TraceEvent::VmHired`].
    VmHired,
    /// [`TraceEvent::VmBooted`].
    VmBooted,
    /// [`TraceEvent::VmReshaped`].
    VmReshaped,
    /// [`TraceEvent::VmReleased`].
    VmReleased,
    /// [`TraceEvent::ScalingDecision`].
    ScalingDecision,
    /// [`TraceEvent::QueueDepthSampled`].
    QueueDepth,
    /// [`TraceEvent::AdmissionDeferred`].
    AdmissionDeferred,
    /// [`TraceEvent::AdmissionResumed`].
    AdmissionResumed,
    /// [`TraceEvent::TierSettled`].
    TierSettled,
    /// [`TraceEvent::RunEnded`].
    RunEnded,
}

/// Every kind, in variant order: `ALL_KINDS[k as usize] == k`, and the
/// order the trace store's tables appear in its export.
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

/// What an event field holds, which fixes how each consumer renders it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// A job or VM number, carried as `u64`.
    Id,
    /// A `u32` stage, count or core shape.
    U32,
    /// A `u64` counter.
    U64,
    /// An `f64` time (TU), cost (CU) or size; NaN where a cost was not
    /// priced.
    F64,
    /// A tier index (`u32`; 0 = private, 1 = public).
    Tier,
    /// A [`ScalingChoice`], rendered by its [`name`](ScalingChoice::name).
    Choice,
    /// The fleet tenant an admission event is about (`u32`).
    Tenant,
}

/// One declared field of an event kind: its JSONL key (which is also
/// the `TraceEvent` field name) and what it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// The field's name.
    pub name: &'static str,
    /// What the field holds.
    pub ty: FieldType,
}

impl Field {
    /// The tier field of the VM and settlement kinds; the trace store
    /// names its derived `subtask_dispatched` tier column after it.
    pub const TIER: Field = Field { name: "tier", ty: FieldType::Tier };

    /// The tenant field of the admission kinds; the trace store keeps it
    /// as the row stamp every table carries under this name.
    pub const TENANT: Field = Field { name: "tenant", ty: FieldType::Tenant };
}

// Every field name, declared once; the kind tables below list them.
const JOB: Field = Field { name: "job", ty: FieldType::Id };
const VM: Field = Field { name: "vm", ty: FieldType::Id };
const STAGE: Field = Field { name: "stage", ty: FieldType::U32 };
const SHARDS: Field = Field { name: "shards", ty: FieldType::U32 };
const CORES: Field = Field { name: "cores", ty: FieldType::U32 };
const CORES_FROM: Field = Field { name: "cores_from", ty: FieldType::U32 };
const CORES_TO: Field = Field { name: "cores_to", ty: FieldType::U32 };
const QUEUED_JOBS: Field = Field { name: "queued_jobs", ty: FieldType::U32 };
const DEPTH: Field = Field { name: "depth", ty: FieldType::U32 };
const JOBS: Field = Field { name: "jobs", ty: FieldType::U32 };
const BACKLOG: Field = Field { name: "backlog", ty: FieldType::U32 };
const EVENTS_DISPATCHED: Field = Field { name: "events_dispatched", ty: FieldType::U64 };
const SIZE_UNITS: Field = Field { name: "size_units", ty: FieldType::F64 };
const SUBMITTED_TU: Field = Field { name: "submitted_tu", ty: FieldType::F64 };
const LATENCY_TU: Field = Field { name: "latency_tu", ty: FieldType::F64 };
const REWARD: Field = Field { name: "reward", ty: FieldType::F64 };
const CORE_STAGES: Field = Field { name: "core_stages", ty: FieldType::F64 };
const TARGET_TU: Field = Field { name: "target_tu", ty: FieldType::F64 };
const WAITED_TU: Field = Field { name: "waited_tu", ty: FieldType::F64 };
const BUSY_TU: Field = Field { name: "busy_tu", ty: FieldType::F64 };
const DELAY_COST: Field = Field { name: "delay_cost", ty: FieldType::F64 };
const HIRE_COST: Field = Field { name: "hire_cost", ty: FieldType::F64 };
const COST: Field = Field { name: "cost", ty: FieldType::F64 };
const CORE_TU: Field = Field { name: "core_tu", ty: FieldType::F64 };
const CHOICE: Field = Field { name: "choice", ty: FieldType::Choice };
const TIER: Field = Field::TIER;
const TENANT: Field = Field::TENANT;

/// Per kind, in [`ALL_KINDS`] order: its tag and its fields in
/// `TraceEvent` declaration order.
static KINDS: [(&str, &[Field]); 16] = [
    ("job_arrived", &[JOB, SIZE_UNITS, SUBMITTED_TU]),
    ("job_stage_advanced", &[JOB, STAGE, SHARDS, CORES]),
    ("job_completed", &[JOB, LATENCY_TU, REWARD, CORE_STAGES]),
    ("slo_violation", &[JOB, LATENCY_TU, TARGET_TU]),
    ("subtask_dispatched", &[JOB, STAGE, VM, CORES, WAITED_TU, BUSY_TU]),
    ("subtask_done", &[JOB, STAGE, VM]),
    ("vm_hired", &[VM, TIER, CORES]),
    ("vm_booted", &[VM, CORES]),
    ("vm_reshaped", &[VM, TIER, CORES_FROM, CORES_TO]),
    ("vm_released", &[VM, TIER, CORES]),
    ("scaling_decision", &[STAGE, CORES, QUEUED_JOBS, DELAY_COST, HIRE_COST, CHOICE]),
    ("queue_depth", &[DEPTH]),
    ("admission_deferred", &[TENANT, JOBS, BACKLOG]),
    ("admission_resumed", &[TENANT, JOBS, BACKLOG]),
    ("tier_settled", &[TIER, COST, CORE_TU]),
    ("run_ended", &[EVENTS_DISPATCHED]),
];

impl EventKind {
    /// The kind `event` is; the same as [`TraceEvent::kind`].
    #[inline]
    pub fn of(event: &TraceEvent) -> EventKind {
        event.kind()
    }

    /// Stable lowercase tag: the JSONL `kind` and the store table's name.
    #[inline]
    pub fn tag(self) -> &'static str {
        KINDS[self as usize].0
    }

    /// The kind's fields, in the order [`TraceEvent::with_values`] reads
    /// them.
    #[inline]
    pub fn fields(self) -> &'static [Field] {
        KINDS[self as usize].1
    }
}

/// One field value, typed as its [`FieldType`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A [`FieldType::Id`] value.
    Id(u64),
    /// A [`FieldType::U32`] value.
    U32(u32),
    /// A [`FieldType::U64`] value.
    U64(u64),
    /// A [`FieldType::F64`] value.
    F64(f64),
    /// A [`FieldType::Tier`] value.
    Tier(u32),
    /// A [`FieldType::Choice`] value.
    Choice(ScalingChoice),
    /// A [`FieldType::Tenant`] value.
    Tenant(u32),
}

/// The most fields a kind declares: room to gather any event's values
/// for [`TraceEvent::from_values`].
pub const MAX_FIELDS: usize = 6;

/// A consumer of trace events. Observers are driven synchronously from
/// the emitting call site, in attachment order.
pub trait Observer {
    /// Receives one event stamped with the simulation time it occurred.
    fn on_event(&mut self, at: SimTime, event: &TraceEvent);
}

/// Shared handle to an attached observer.
pub type ObserverHandle = Rc<RefCell<dyn Observer>>;

/// An observer that can absorb another observer of the same session
/// batch.
///
/// Merging must be commutative over *disjoint event streams* in the
/// counts it keeps, but callers are still required to merge in a
/// deterministic order (repetition, then tenant), so floating-point sums
/// stay bit-identical regardless of worker-thread count.
pub trait Merge {
    /// Absorbs `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// Fan-out point for trace events. Cloning a `Tracer` clones the sink
/// list (cheap `Rc` bumps) — clones feed the same observers, which is how
/// the provider and scheduler share the platform's sinks.
#[derive(Clone, Default)]
pub struct Tracer {
    sinks: Vec<ObserverHandle>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("sinks", &self.sinks.len()).finish()
    }
}

impl Tracer {
    /// A tracer with no sinks: emitting is a no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Attaches an observer; events emitted from now on reach it.
    pub fn attach(&mut self, sink: ObserverHandle) {
        self.sinks.push(sink);
    }

    /// Whether any observer is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Emits one event to every sink. With no sinks attached this is one
    /// empty-`Vec` branch.
    #[inline]
    pub fn emit(&self, at: SimTime, event: TraceEvent) {
        if self.sinks.is_empty() {
            return;
        }
        for sink in &self.sinks {
            sink.borrow_mut().on_event(at, &event);
        }
    }

    /// Emits the event produced by `build`, constructing it only when a
    /// sink is attached. Use this when assembling the event itself costs
    /// something (string formatting, extra queries).
    #[inline]
    pub fn emit_with(&self, at: SimTime, build: impl FnOnce() -> TraceEvent) {
        if self.sinks.is_empty() {
            return;
        }
        self.emit(at, build());
    }
}

/// Discards every event. Exists to measure the dispatch floor and to
/// satisfy "an observer must be attached" plumbing in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&mut self, _at: SimTime, _event: &TraceEvent) {}
}

impl Merge for NullObserver {
    fn merge(&mut self, _other: NullObserver) {}
}

/// Keeps the most recent `capacity` events for post-mortem inspection.
#[derive(Debug)]
pub struct RingBuffer {
    capacity: usize,
    buf: VecDeque<(SimTime, TraceEvent)>,
}

impl RingBuffer {
    /// A ring holding at most `capacity` events (capacity 0 keeps none).
    pub fn new(capacity: usize) -> Self {
        Self { capacity, buf: VecDeque::with_capacity(capacity.min(4096)) }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(SimTime, TraceEvent)> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Observer for RingBuffer {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back((at, *event));
    }
}

/// Streams events as JSON lines (`{"t":…,"kind":…,…}`) to any writer.
///
/// The JSON is hand-assembled: every field is a number, a fixed label, or
/// a pre-escaped tag, so no general serializer is needed (and the offline
/// build has none).
pub struct JsonlWriter<W: io::Write> {
    out: W,
    line: String,
    errored: bool,
    tenant: Option<u32>,
}

impl<W: io::Write> JsonlWriter<W> {
    /// Wraps a writer. I/O errors are latched: the first failure stops
    /// further writes rather than panicking mid-simulation.
    pub fn new(out: W) -> Self {
        Self { out, line: String::with_capacity(160), errored: false, tenant: None }
    }

    /// Wraps a writer that stamps every line with a `"tenant":N` field
    /// (directly after `"t"`), for fleet runs where one file per tenant
    /// would be unwieldy. [`JsonlWriter::new`] output is unchanged.
    pub fn with_tenant(out: W, tenant: u32) -> Self {
        Self { out, line: String::with_capacity(160), errored: false, tenant: Some(tenant) }
    }

    /// Whether a write error occurred (output is truncated).
    pub fn errored(&self) -> bool {
        self.errored
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

/// Writes an f64 as JSON: finite values verbatim, NaN/inf as null.
fn push_json_f64(line: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(line, "{value}");
    } else {
        line.push_str("null");
    }
}

impl<W: io::Write> Observer for JsonlWriter<W> {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        if self.errored {
            return;
        }
        let line = &mut self.line;
        line.clear();
        let _ = write!(line, "{{\"t\":");
        push_json_f64(line, at.as_tu());
        if let Some(tenant) = self.tenant {
            let _ = write!(line, ",\"{}\":{tenant}", Field::TENANT.name);
        }
        let kind = event.kind();
        line.push_str(",\"kind\":\"");
        line.push_str(kind.tag());
        line.push('"');
        event.with_values(|values| {
            for (field, value) in kind.fields().iter().zip(values) {
                line.push_str(",\"");
                line.push_str(field.name);
                line.push_str("\":");
                match *value {
                    Value::Id(v) | Value::U64(v) => {
                        let _ = write!(line, "{v}");
                    }
                    Value::U32(v) | Value::Tier(v) | Value::Tenant(v) => {
                        let _ = write!(line, "{v}");
                    }
                    Value::F64(v) => push_json_f64(line, v),
                    Value::Choice(choice) => {
                        line.push('"');
                        line.push_str(choice.name());
                        line.push('"');
                    }
                }
            }
        });
        line.push('}');
        line.push('\n');
        if self.out.write_all(line.as_bytes()).is_err() {
            self.errored = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev() -> TraceEvent {
        TraceEvent::JobArrived { job: 7, size_units: 5.25, submitted_tu: 1.5 }
    }

    #[test]
    fn disabled_tracer_is_inert_and_emit_with_is_lazy() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.emit(SimTime::new(1.0), ev());
        tracer.emit_with(SimTime::new(2.0), || panic!("must not be built"));
    }

    #[test]
    fn fanout_reaches_all_sinks_in_order() {
        let a = Rc::new(RefCell::new(RingBuffer::new(8)));
        let b = Rc::new(RefCell::new(RingBuffer::new(8)));
        let mut tracer = Tracer::disabled();
        tracer.attach(a.clone());
        tracer.attach(b.clone());
        assert!(tracer.is_enabled());

        // A clone shares the same sinks.
        let clone = tracer.clone();
        clone.emit(SimTime::new(3.0), ev());
        tracer.emit(SimTime::new(4.0), TraceEvent::QueueDepthSampled { depth: 9 });

        for ring in [&a, &b] {
            let ring = ring.borrow();
            assert_eq!(ring.len(), 2);
            let kinds: Vec<&str> = ring.events().map(|(_, e)| e.kind().tag()).collect();
            assert_eq!(kinds, ["job_arrived", "queue_depth"]);
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut ring = RingBuffer::new(2);
        for depth in 0..5u32 {
            ring.on_event(SimTime::new(depth as f64), &TraceEvent::QueueDepthSampled { depth });
        }
        let depths: Vec<u32> = ring
            .events()
            .map(|(_, e)| match e {
                TraceEvent::QueueDepthSampled { depth } => *depth,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(depths, [3, 4]);
    }

    #[test]
    fn jsonl_lines_are_wellformed() {
        let mut w = JsonlWriter::new(Vec::new());
        w.on_event(SimTime::new(1.5), &ev());
        w.on_event(
            SimTime::new(2.0),
            &TraceEvent::ScalingDecision {
                stage: 2,
                cores: 4,
                queued_jobs: 3,
                delay_cost: 10.5,
                hire_cost: f64::NAN,
                choice: ScalingChoice::HirePublic,
            },
        );
        let out = String::from_utf8(w.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t\":1.5,\"kind\":\"job_arrived\",\"job\":7,\"size_units\":5.25,\"submitted_tu\":1.5}"
        );
        assert!(lines[1].contains("\"hire_cost\":null"));
        assert!(lines[1].contains("\"choice\":\"hire_public\""));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            // Balanced quotes: crude but catches missed escapes/commas.
            assert_eq!(l.matches('"').count() % 2, 0);
        }
    }

    #[test]
    fn scaling_choice_index_is_its_position_in_all() {
        for (i, choice) in ScalingChoice::ALL.into_iter().enumerate() {
            assert_eq!(choice.index(), i, "{choice:?}");
        }
    }

    /// One event of every kind, in [`ALL_KINDS`] order, with a distinct
    /// value in every numeric field and both scaling costs unpriced.
    fn every_kind() -> [TraceEvent; 16] {
        [
            TraceEvent::JobArrived { job: 1, size_units: 2.5, submitted_tu: 0.25 },
            TraceEvent::JobStageAdvanced { job: 1, stage: 2, shards: 4, cores: 8 },
            TraceEvent::JobCompleted { job: 1, latency_tu: 3.0, reward: 4.5, core_stages: 8.0 },
            TraceEvent::SloViolation { job: 1, latency_tu: 30.0, target_tu: 26.0 },
            TraceEvent::SubtaskDispatched {
                job: 1 << 33,
                stage: 3,
                vm: 2,
                cores: 4,
                waited_tu: 0.5,
                busy_tu: 1.5,
            },
            TraceEvent::SubtaskDone { job: 1, stage: 0, vm: 2 },
            TraceEvent::VmHired { vm: 2, tier: 1, cores: 16 },
            TraceEvent::VmBooted { vm: 2, cores: 16 },
            TraceEvent::VmReshaped { vm: 2, tier: 0, cores_from: 2, cores_to: 4 },
            TraceEvent::VmReleased { vm: 2, tier: 3, cores: 1 },
            TraceEvent::ScalingDecision {
                stage: 1,
                cores: 2,
                queued_jobs: 5,
                delay_cost: f64::NAN,
                hire_cost: -f64::NAN,
                choice: ScalingChoice::HirePrivate,
            },
            TraceEvent::QueueDepthSampled { depth: 11 },
            TraceEvent::AdmissionDeferred { tenant: 3, jobs: 2, backlog: 7 },
            TraceEvent::AdmissionResumed { tenant: 4, jobs: 2, backlog: 0 },
            TraceEvent::TierSettled { tier: 0, cost: 100.0, core_tu: 20.0 },
            TraceEvent::RunEnded { events_dispatched: 1 << 40 },
        ]
    }

    /// A value's bits: NaN payloads and signs included.
    fn bits(value: &Value) -> (FieldType, u64) {
        match *value {
            Value::Id(v) => (FieldType::Id, v),
            Value::U32(v) => (FieldType::U32, u64::from(v)),
            Value::U64(v) => (FieldType::U64, v),
            Value::F64(v) => (FieldType::F64, v.to_bits()),
            Value::Tier(v) => (FieldType::Tier, u64::from(v)),
            Value::Choice(c) => (FieldType::Choice, c.index() as u64),
            Value::Tenant(v) => (FieldType::Tenant, u64::from(v)),
        }
    }

    #[test]
    fn every_kind_round_trips_through_its_field_table() {
        for (event, kind) in every_kind().iter().zip(ALL_KINDS) {
            assert_eq!(event.kind(), kind);
            assert_eq!(EventKind::of(event), kind);
            let values = event.with_values(<[Value]>::to_vec);
            assert!(values.len() <= MAX_FIELDS);
            let types: Vec<FieldType> = values.iter().map(|v| bits(v).0).collect();
            let declared: Vec<FieldType> = kind.fields().iter().map(|f| f.ty).collect();
            assert_eq!(types, declared, "values of {event:?} against the {} table", kind.tag());

            let rebuilt = TraceEvent::from_values(kind, &values).expect("its own values fit");
            assert_eq!(
                rebuilt.with_values(|again| again.iter().map(bits).collect::<Vec<_>>()),
                values.iter().map(bits).collect::<Vec<_>>(),
                "{event:?} rebuilt bit for bit"
            );
            assert_eq!(format!("{rebuilt:?}"), format!("{event:?}"));

            // A value short, or another kind's values, do not fit.
            assert_eq!(TraceEvent::from_values(kind, &values[1..]), None);
            let other = ALL_KINDS[(kind as usize + 1) % ALL_KINDS.len()];
            if other.fields() != kind.fields() {
                assert_eq!(TraceEvent::from_values(other, &values), None, "{kind:?}");
            }

            // One JSONL line: its kind is the tag, its keys are the field
            // names in table order, and each number is the value read out
            // at that position.
            let mut writer = JsonlWriter::new(Vec::new());
            writer.on_event(SimTime::new(1.0), event);
            let line = String::from_utf8(writer.into_inner()).expect("JSONL is UTF-8");
            assert_eq!(line.lines().count(), 1, "{line}");
            let pairs: Vec<(&str, &str)> = line
                .trim_end()
                .trim_matches(['{', '}'])
                .split(',')
                .map(|kv| kv.split_once(':').expect("key:value"))
                .collect();
            let tag = format!("\"{}\"", kind.tag());
            assert_eq!(pairs[..2], [("\"t\"", "1"), ("\"kind\"", tag.as_str())], "{line}");
            let pairs = &pairs[2..];
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.trim_matches('"')).collect();
            let names: Vec<&str> = kind.fields().iter().map(|f| f.name).collect();
            assert_eq!(keys, names, "{line}");
            for ((_, text), value) in pairs.iter().zip(values.iter()) {
                let expected = match *value {
                    Value::Id(v) | Value::U64(v) => v.to_string(),
                    Value::U32(v) | Value::Tier(v) | Value::Tenant(v) => v.to_string(),
                    Value::F64(v) if v.is_nan() => "null".to_string(),
                    Value::F64(v) => v.to_string(),
                    Value::Choice(c) => format!("\"{}\"", c.name()),
                };
                assert_eq!(*text, expected, "{line}");
            }

            // Each key holds the value of the Rust field of that name: the
            // read-out is in declaration order, not just self-consistent.
            let debug = format!("{event:?}");
            let body = debug.split_once(" { ").expect("struct variant").1.trim_end_matches(" }");
            for (field, (key, text)) in body.split(", ").zip(pairs) {
                let (name, rendered) = field.split_once(": ").expect("name: value");
                assert_eq!(key.trim_matches('"'), name, "{line}");
                let json = match ScalingChoice::ALL.iter().find(|c| format!("{c:?}") == rendered) {
                    Some(choice) => format!("\"{}\"", choice.name()),
                    None if rendered == "NaN" => "null".to_string(),
                    None => rendered.parse::<f64>().expect("a number").to_string(),
                };
                assert_eq!(*text, json, "{name} of {debug}");
            }
        }
    }

    #[test]
    fn kind_order_matches_discriminants() {
        for (i, kind) in ALL_KINDS.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
        }
    }

    #[test]
    fn tenant_stamped_writer_injects_field_after_t() {
        let mut w = JsonlWriter::with_tenant(Vec::new(), 42);
        w.on_event(SimTime::new(1.5), &ev());
        let out = String::from_utf8(w.into_inner()).unwrap();
        assert_eq!(
            out.trim_end(),
            "{\"t\":1.5,\"tenant\":42,\"kind\":\"job_arrived\",\"job\":7,\"size_units\":5.25,\
             \"submitted_tu\":1.5}"
        );
    }

    #[test]
    fn jsonl_latches_write_errors() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = JsonlWriter::new(Failing);
        w.on_event(SimTime::new(0.0), &ev());
        assert!(w.errored());
        w.on_event(SimTime::new(1.0), &ev());
    }
}
