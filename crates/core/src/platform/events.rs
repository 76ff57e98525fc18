//! The simulation event vocabulary, a tenant's handle on the calendar
//! it schedules them on, and per-job live state.

use scan_cloud::vm::VmKey;
use scan_sched::plan::ExecutionPlan;
use scan_sim::{Calendar, SimTime, TenantId};
use scan_workload::job::Job;
use std::sync::Arc;

/// One tenant's handle on the session calendar: where the platform's
/// subsystems schedule follow-up events.
///
/// Everything scheduled through it is tagged with its tenant, which
/// both orders simultaneous events tenant-major and routes each popped
/// event back to its platform ([`run_tenants`](super::run_tenants)). A
/// solo session is the one tenant [`TenantId::SOLO`], so its calendar
/// keys are exactly those of untagged scheduling.
pub(super) struct TenantCal<'a> {
    pub(super) cal: &'a mut Calendar<Event>,
    pub(super) tenant: TenantId,
}

impl TenantCal<'_> {
    /// Schedules `event` at `at`.
    pub(super) fn schedule(&mut self, at: SimTime, event: Event) {
        self.cal.schedule_for(at, self.tenant, event);
    }

    /// Sets the tenant's one pending [`Event::IdleSweep`] to `at`, moving
    /// the one it had; `None` cancels it. The sweep fires after every
    /// other event of the tenant at its instant.
    pub(super) fn set_sweep(&mut self, at: Option<SimTime>) {
        match at {
            Some(at) => self.cal.wake(at, self.tenant, Event::IdleSweep),
            None => self.cal.cancel_wake(self.tenant),
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
