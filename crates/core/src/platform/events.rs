//! The simulation event vocabulary and per-job live state.

use scan_cloud::vm::VmKey;
use scan_sched::plan::ExecutionPlan;
use scan_sim::{Calendar, SimTime, TenantId};
use scan_workload::job::Job;
use std::sync::Arc;

/// Where the platform's subsystems schedule follow-up events.
///
/// A solo session passes the engine's own [`Calendar<Event>`] straight
/// through; a fleet run passes an adapter that tags each event with its
/// tenant and multiplexes many platforms onto one shared calendar. The
/// subsystems are generic over this trait and cannot tell the
/// difference, which is what keeps single-tenant event ordering (and the
/// golden traces) bit-identical to the pre-fleet code.
pub(crate) trait EventSink {
    /// Schedules `event` at `at`.
    fn schedule(&mut self, at: SimTime, event: Event);

    /// Sets the tenant's one pending [`Event::IdleSweep`] to `at`, moving
    /// the one it had; `None` cancels it. The sweep fires after every
    /// other event of the tenant at its instant.
    fn set_sweep(&mut self, at: Option<SimTime>);
}

impl EventSink for Calendar<Event> {
    fn schedule(&mut self, at: SimTime, event: Event) {
        // The inherent method, which tags `TenantId::SOLO`.
        Calendar::schedule(self, at, event);
    }

    fn set_sweep(&mut self, at: Option<SimTime>) {
        match at {
            Some(at) => self.wake(at, TenantId::SOLO, Event::IdleSweep),
            None => self.cancel_wake(TenantId::SOLO),
        }
    }
}

/// Simulation events.
///
/// Kept at or under 16 bytes (an 8-byte VM key, a u32 job slot, a u16
/// stage and the discriminant) so the calendar's heap entries stay two
/// words of payload — heap sift moves are the simulator's hottest memory
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// The next job batch arrives.
    Arrival,
    /// A VM finished booting or reshaping.
    VmReady(VmKey),
    /// One shard subtask of a job's current stage finished.
    SubtaskDone {
        /// Owning job's slot in the job table. A job holds its slot
        /// until its last subtask is done, so the slot still names it.
        job: u32,
        /// Stage the subtask belonged to (consistency check).
        stage: u16,
        /// The worker that ran it.
        vm: VmKey,
    },
    /// The tenant's wakeup: release workers past their idle timeout,
    /// re-admit deferred jobs, re-price waits whose inputs changed, tear
    /// a drained tenant down. Fires only at grid instants `1.0 + 0.5k`
    /// that have such work.
    IdleSweep,
    /// Periodic re-planning / model-refresh tick.
    Replan,
}

// Layout audit: growing `Event` past 16 bytes fattens every calendar
// heap entry; fail the build instead of silently regressing.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);

/// Live state of one admitted job: a record of the platform's job
/// table, which holds it from admission to completion.
#[derive(Debug, Clone)]
pub(super) struct JobRun {
    pub(super) job: Job,
    /// Shared with the allocator's cache, the bandit's arm or the forced
    /// plan, so admitting a job copies no plan.
    pub(super) plan: Arc<ExecutionPlan>,
    pub(super) stage: usize,
    /// Shard subtasks of the current stage still queued or running.
    pub(super) outstanding: u32,
}
