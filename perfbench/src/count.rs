//! A counting observer: exact per-kind trace counts plus the work counts
//! the layer probes are sized from. Counts repeat exactly for a given
//! seed, so they are the only figures a later claim may rest on as counts.

use scan_sim::{Merge, Observer, SimTime, TraceEvent};
use scan_tracestore::{EventKind, ALL_KINDS};

/// Tier index of the private tier in every SCAN catalogue.
const PRIVATE_TIER: u32 = 0;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Trace events per kind, in [`ALL_KINDS`] order.
    pub by_kind: [u64; ALL_KINDS.len()],
    /// Peak subtasks running at once (dispatched, not yet done).
    pub peak_in_flight: u64,
    /// Peak VMs hired and not yet released.
    pub peak_live_vms: u64,
    /// Peak private cores hired and not yet released.
    pub peak_private_cores: u64,
    /// Peak total queue depth sampled.
    pub peak_queue: u64,
    /// Sessions folded in.
    pub sessions: u64,
    /// Events the engines dispatched (from `run_ended`).
    pub events_dispatched: u64,
    in_flight: u64,
    live_vms: u64,
    private_cores: u64,
}

impl Counts {
    pub fn of(&self, kind: EventKind) -> u64 {
        self.by_kind[kind as usize]
    }

    pub fn trace_events(&self) -> u64 {
        self.by_kind.iter().sum()
    }
}

fn raise(peak: &mut u64, now: u64) {
    *peak = (*peak).max(now);
}

impl Observer for Counts {
    fn on_event(&mut self, _at: SimTime, event: &TraceEvent) {
        self.by_kind[EventKind::of(event) as usize] += 1;
        match *event {
            TraceEvent::SubtaskDispatched { .. } => {
                self.in_flight += 1;
                raise(&mut self.peak_in_flight, self.in_flight);
            }
            TraceEvent::SubtaskDone { .. } => self.in_flight = self.in_flight.saturating_sub(1),
            TraceEvent::VmHired { tier, cores, .. } => {
                self.live_vms += 1;
                raise(&mut self.peak_live_vms, self.live_vms);
                if tier == PRIVATE_TIER {
                    self.private_cores += u64::from(cores);
                    raise(&mut self.peak_private_cores, self.private_cores);
                }
            }
            TraceEvent::VmReleased { tier, cores, .. } => {
                self.live_vms = self.live_vms.saturating_sub(1);
                if tier == PRIVATE_TIER {
                    self.private_cores = self.private_cores.saturating_sub(u64::from(cores));
                }
            }
            TraceEvent::QueueDepthSampled { depth } => raise(&mut self.peak_queue, depth.into()),
            TraceEvent::RunEnded { events_dispatched } => {
                self.sessions += 1;
                self.events_dispatched += events_dispatched;
            }
            _ => {}
        }
    }
}

impl Merge for Counts {
    /// Sums counts; peaks add too, which bounds a fleet's concurrent
    /// demand from above (tenants need not peak together).
    fn merge(&mut self, other: Counts) {
        for (a, b) in self.by_kind.iter_mut().zip(other.by_kind) {
            *a += b;
        }
        self.peak_in_flight += other.peak_in_flight;
        self.peak_live_vms += other.peak_live_vms;
        self.peak_private_cores += other.peak_private_cores;
        self.peak_queue += other.peak_queue;
        self.sessions += other.sessions;
        self.events_dispatched += other.events_dispatched;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::solo_cfg;
    use scan_platform::session::run_session_with;
    use scan_sched::alloc::AllocationPolicy;

    #[test]
    fn kind_discriminants_index_all_kinds() {
        for (i, kind) in ALL_KINDS.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
    }

    #[test]
    fn counts_match_the_session_and_repeat_exactly() {
        let cfg = solo_cfg(2, AllocationPolicy::BestConstant, 80.0);
        let (m, a) = run_session_with(&cfg, 0, Counts::default());
        let (_, b) = run_session_with(&cfg, 0, Counts::default());
        assert_eq!(a, b);
        assert_eq!(a.of(EventKind::JobCompleted), m.jobs_completed);
        assert_eq!(a.of(EventKind::VmHired), m.vms_hired);
        assert_eq!(a.events_dispatched, m.events);
        assert_eq!(a.sessions, 1);
        assert!(a.peak_in_flight > 0 && a.peak_live_vms > 0);
    }
}
