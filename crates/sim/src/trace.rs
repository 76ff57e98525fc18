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
//! The event vocabulary itself — every variant, its fields and units, and
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
    /// Private hire was justified by the policy but vetoed by the Eq. 1
    /// delay-cost throttle.
    ThrottledPrivate,
    /// Hire a new public-tier worker.
    HirePublic,
    /// Reshape an idle worker of another shape instead of hiring.
    Reshape,
}

impl ScalingChoice {
    /// Every choice, in declaration order: `ALL[c.index()] == c`. Per-choice
    /// tallies (decision counts, the `scaling_choice_total` counters) are
    /// arrays in this order.
    pub const ALL: [ScalingChoice; 5] =
        [Self::Wait, Self::HirePrivate, Self::ThrottledPrivate, Self::HirePublic, Self::Reshape];

    /// Position of this choice in [`ScalingChoice::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase label (used by the JSONL writer).
    pub fn name(self) -> &'static str {
        match self {
            Self::Wait => "wait",
            Self::HirePrivate => "hire_private",
            Self::ThrottledPrivate => "throttled_private",
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
    /// Stable lowercase kind tag (used by the JSONL writer and filters).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::JobArrived { .. } => "job_arrived",
            Self::JobStageAdvanced { .. } => "job_stage_advanced",
            Self::JobCompleted { .. } => "job_completed",
            Self::SloViolation { .. } => "slo_violation",
            Self::SubtaskDispatched { .. } => "subtask_dispatched",
            Self::SubtaskDone { .. } => "subtask_done",
            Self::VmHired { .. } => "vm_hired",
            Self::VmBooted { .. } => "vm_booted",
            Self::VmReshaped { .. } => "vm_reshaped",
            Self::VmReleased { .. } => "vm_released",
            Self::ScalingDecision { .. } => "scaling_decision",
            Self::QueueDepthSampled { .. } => "queue_depth",
            Self::AdmissionDeferred { .. } => "admission_deferred",
            Self::AdmissionResumed { .. } => "admission_resumed",
            Self::TierSettled { .. } => "tier_settled",
            Self::RunEnded { .. } => "run_ended",
        }
    }
}

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
            let _ = write!(line, ",\"tenant\":{tenant}");
        }
        let _ = write!(line, ",\"kind\":\"{}\"", event.kind());
        match *event {
            TraceEvent::JobArrived { job, size_units, submitted_tu } => {
                let _ = write!(line, ",\"job\":{job},\"size_units\":");
                push_json_f64(line, size_units);
                let _ = write!(line, ",\"submitted_tu\":");
                push_json_f64(line, submitted_tu);
            }
            TraceEvent::JobStageAdvanced { job, stage, shards, cores } => {
                let _ = write!(
                    line,
                    ",\"job\":{job},\"stage\":{stage},\"shards\":{shards},\"cores\":{cores}"
                );
            }
            TraceEvent::JobCompleted { job, latency_tu, reward, core_stages } => {
                let _ = write!(line, ",\"job\":{job},\"latency_tu\":");
                push_json_f64(line, latency_tu);
                let _ = write!(line, ",\"reward\":");
                push_json_f64(line, reward);
                let _ = write!(line, ",\"core_stages\":");
                push_json_f64(line, core_stages);
            }
            TraceEvent::SloViolation { job, latency_tu, target_tu } => {
                let _ = write!(line, ",\"job\":{job},\"latency_tu\":");
                push_json_f64(line, latency_tu);
                let _ = write!(line, ",\"target_tu\":");
                push_json_f64(line, target_tu);
            }
            TraceEvent::SubtaskDispatched { job, stage, vm, cores, waited_tu, busy_tu } => {
                let _ =
                    write!(line, ",\"job\":{job},\"stage\":{stage},\"vm\":{vm},\"cores\":{cores}");
                let _ = write!(line, ",\"waited_tu\":");
                push_json_f64(line, waited_tu);
                let _ = write!(line, ",\"busy_tu\":");
                push_json_f64(line, busy_tu);
            }
            TraceEvent::SubtaskDone { job, stage, vm } => {
                let _ = write!(line, ",\"job\":{job},\"stage\":{stage},\"vm\":{vm}");
            }
            TraceEvent::VmHired { vm, tier, cores } => {
                let _ = write!(line, ",\"vm\":{vm},\"tier\":{tier},\"cores\":{cores}");
            }
            TraceEvent::VmBooted { vm, cores } => {
                let _ = write!(line, ",\"vm\":{vm},\"cores\":{cores}");
            }
            TraceEvent::VmReshaped { vm, tier, cores_from, cores_to } => {
                let _ = write!(
                    line,
                    ",\"vm\":{vm},\"tier\":{tier},\"cores_from\":{cores_from},\"cores_to\":{cores_to}"
                );
            }
            TraceEvent::VmReleased { vm, tier, cores } => {
                let _ = write!(line, ",\"vm\":{vm},\"tier\":{tier},\"cores\":{cores}");
            }
            TraceEvent::ScalingDecision {
                stage,
                cores,
                queued_jobs,
                delay_cost,
                hire_cost,
                choice,
            } => {
                let _ = write!(
                    line,
                    ",\"stage\":{stage},\"cores\":{cores},\"queued_jobs\":{queued_jobs}"
                );
                let _ = write!(line, ",\"delay_cost\":");
                push_json_f64(line, delay_cost);
                let _ = write!(line, ",\"hire_cost\":");
                push_json_f64(line, hire_cost);
                let _ = write!(line, ",\"choice\":\"{}\"", choice.name());
            }
            TraceEvent::QueueDepthSampled { depth } => {
                let _ = write!(line, ",\"depth\":{depth}");
            }
            TraceEvent::AdmissionDeferred { tenant, jobs, backlog }
            | TraceEvent::AdmissionResumed { tenant, jobs, backlog } => {
                let _ = write!(line, ",\"tenant\":{tenant},\"jobs\":{jobs},\"backlog\":{backlog}");
            }
            TraceEvent::TierSettled { tier, cost, core_tu } => {
                let _ = write!(line, ",\"tier\":{tier},\"cost\":");
                push_json_f64(line, cost);
                let _ = write!(line, ",\"core_tu\":");
                push_json_f64(line, core_tu);
            }
            TraceEvent::RunEnded { events_dispatched } => {
                let _ = write!(line, ",\"events_dispatched\":{events_dispatched}");
            }
        }
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
            let kinds: Vec<&str> = ring.events().map(|(_, e)| e.kind()).collect();
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

    #[test]
    fn every_variant_serialises() {
        let events = [
            TraceEvent::JobArrived { job: 1, size_units: 2.0, submitted_tu: 0.0 },
            TraceEvent::JobStageAdvanced { job: 1, stage: 0, shards: 4, cores: 2 },
            TraceEvent::JobCompleted { job: 1, latency_tu: 3.0, reward: 4.0, core_stages: 8.0 },
            TraceEvent::SloViolation { job: 1, latency_tu: 30.0, target_tu: 26.0 },
            TraceEvent::SubtaskDispatched {
                job: 1,
                stage: 0,
                vm: 2,
                cores: 2,
                waited_tu: 0.5,
                busy_tu: 1.5,
            },
            TraceEvent::SubtaskDone { job: 1, stage: 0, vm: 2 },
            TraceEvent::VmHired { vm: 2, tier: 1, cores: 2 },
            TraceEvent::VmBooted { vm: 2, cores: 2 },
            TraceEvent::VmReshaped { vm: 2, tier: 0, cores_from: 2, cores_to: 4 },
            TraceEvent::VmReleased { vm: 2, tier: 1, cores: 2 },
            TraceEvent::ScalingDecision {
                stage: 1,
                cores: 2,
                queued_jobs: 5,
                delay_cost: 1.0,
                hire_cost: 2.0,
                choice: ScalingChoice::Wait,
            },
            TraceEvent::QueueDepthSampled { depth: 11 },
            TraceEvent::AdmissionDeferred { tenant: 3, jobs: 2, backlog: 2 },
            TraceEvent::AdmissionResumed { tenant: 3, jobs: 2, backlog: 0 },
            TraceEvent::TierSettled { tier: 0, cost: 100.0, core_tu: 20.0 },
            TraceEvent::RunEnded { events_dispatched: 12345 },
        ];
        let mut w = JsonlWriter::new(Vec::new());
        for e in &events {
            w.on_event(SimTime::new(0.0), e);
        }
        let out = String::from_utf8(w.into_inner()).unwrap();
        assert_eq!(out.lines().count(), events.len());
        for (line, e) in out.lines().zip(&events) {
            assert!(line.contains(&format!("\"kind\":\"{}\"", e.kind())), "{line}");
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
