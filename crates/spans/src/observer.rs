//! Incremental span derivation: an [`Observer`] that stitches the live
//! event stream into [`JobSpans`] as jobs complete, plus the
//! [`Recorder`] that carries a [`TraceStore`] alongside it.
//!
//! The observer keeps O(in-flight jobs + workers) state and touches only
//! seven low-volume event kinds (arrivals, stage advances, dispatches,
//! completions and the three worker lifecycle events); the high-volume
//! kinds (`subtask_done`, `queue_depth`, `scaling_decision`) return
//! immediately, which is what keeps the ingest-path overhead small
//! (perfbench's `spans.stitch_ns_per_event`).

use crate::schema::SegmentKind;
use crate::span::{JobSpans, Segment, SpanSet, NO_TIER};
use scan_sim::{Observer, SimTime, TraceEvent};
use scan_tracestore::TraceStore;

/// A worker's current tier and most recent boot (hire or reshape) window.
#[derive(Debug, Clone, Copy)]
struct VmRec {
    tier: u32,
    boot_start: f64,
    boot_end: f64,
    reshape: bool,
    booted: bool,
}

/// The boot window snapshotted when a dispatch becomes a stage's anchor.
#[derive(Debug, Clone, Copy)]
struct BootSnap {
    start: f64,
    end: f64,
    reshape: bool,
}

/// The stage's critical subtask: the dispatch with the longest busy span
/// (earliest dispatch wins ties, in stream order).
#[derive(Debug, Clone, Copy)]
struct Anchor {
    dispatch_t: f64,
    busy_tu: f64,
    tier: u32,
    boot: Option<BootSnap>,
}

/// One enqueued stage of an in-flight job.
#[derive(Debug, Clone, Copy)]
struct StageRec {
    enq_t: f64,
    anchor: Option<Anchor>,
}

/// One in-flight job.
#[derive(Debug, Clone)]
struct JobRec {
    submitted_tu: f64,
    arrived_t: f64,
    stages: Vec<StageRec>,
}

/// Derives [`JobSpans`] incrementally from the live trace stream of one
/// session (equivalently: one fleet tenant). The batch pass in
/// [`derive`](crate::derive()) replays a stored trace into the same
/// observer and produces identical output.
#[derive(Debug, Clone)]
pub struct SpanObserver {
    tenant: u32,
    vms: Vec<Option<VmRec>>,
    jobs: Vec<Option<JobRec>>,
    out: SpanSet,
}

impl Default for SpanObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanObserver {
    /// An observer for a solo session (tenant 0).
    pub fn new() -> SpanObserver {
        Self::for_tenant(0)
    }

    /// An observer stamping every derived job with `tenant`.
    pub fn for_tenant(tenant: u32) -> SpanObserver {
        SpanObserver { tenant, vms: Vec::new(), jobs: Vec::new(), out: SpanSet::default() }
    }

    /// Completed jobs so far.
    pub fn completed(&self) -> usize {
        self.out.jobs.len()
    }

    /// Finishes the observer: jobs still in flight are counted, the
    /// completed jobs' spans are returned.
    pub fn into_spans(mut self) -> SpanSet {
        self.out.in_flight += self.jobs.iter().filter(|j| j.is_some()).count() as u64;
        self.out
    }

    fn vm_slot(&mut self, vm: u64) -> &mut Option<VmRec> {
        let idx = vm as usize;
        if idx >= self.vms.len() {
            self.vms.resize(idx + 1, None);
        }
        &mut self.vms[idx]
    }
}

/// Decomposes one completed job into its segment tiling (see
/// [`JobSpans`] for the invariant this construction guarantees).
fn build_job_spans(
    tenant: u32,
    job: u32,
    rec: &JobRec,
    completed_tu: f64,
    latency_tu: f64,
    reward: f64,
) -> JobSpans {
    let mut segments: Vec<Segment> = Vec::with_capacity(rec.stages.len() * 4 + 1);
    let mut push = |kind: SegmentKind, tier: u32, start: f64, end: f64| {
        if start.to_bits() != end.to_bits() {
            segments.push(Segment { kind, tier, start_tu: start, end_tu: end });
        }
    };
    // Deferred admission: the gap between submission and the (possibly
    // later) admission, when the fair-share gate held the job back.
    push(SegmentKind::AdmissionDeferred, NO_TIER, rec.submitted_tu, rec.arrived_t);
    for (i, stage) in rec.stages.iter().enumerate() {
        let stage_end = match rec.stages.get(i + 1) {
            Some(next) => next.enq_t,
            None => completed_tu,
        };
        let Some(anchor) = stage.anchor else {
            // Defensive: a stage with no recorded dispatch (cannot happen
            // for a completed job) degrades to pure queue wait.
            push(SegmentKind::QueueWait, NO_TIER, stage.enq_t, stage_end);
            continue;
        };
        let t_d = anchor.dispatch_t;
        // Wait window [enq, dispatch]: split out the anchor worker's boot
        // window when it overlaps (the job was waiting *for the boot*).
        match anchor.boot {
            Some(b) if b.end > stage.enq_t && b.end <= t_d => {
                let boot_from = if b.start > stage.enq_t { b.start } else { stage.enq_t };
                let kind =
                    if b.reshape { SegmentKind::ReshapePenalty } else { SegmentKind::BootWait };
                push(SegmentKind::QueueWait, NO_TIER, stage.enq_t, boot_from);
                push(kind, anchor.tier, boot_from, b.end);
                push(SegmentKind::QueueWait, NO_TIER, b.end, t_d);
            }
            _ => push(SegmentKind::QueueWait, NO_TIER, stage.enq_t, t_d),
        }
        // The anchor's finish is bit-reconstructible: the engine
        // scheduled its completion at exactly `dispatch_t + busy_tu`.
        let fin = t_d + anchor.busy_tu;
        push(SegmentKind::Service, anchor.tier, t_d, fin);
        push(SegmentKind::FanIn, anchor.tier, fin, stage_end);
    }
    if segments.is_empty() {
        // Zero-latency degenerate case: keep the tiling non-empty so the
        // endpoint checks still hold.
        segments.push(Segment {
            kind: SegmentKind::Service,
            tier: NO_TIER,
            start_tu: rec.submitted_tu,
            end_tu: completed_tu,
        });
    }
    JobSpans {
        tenant,
        job,
        submitted_tu: rec.submitted_tu,
        completed_tu,
        latency_tu,
        reward,
        stages: rec.stages.len() as u32,
        segments,
    }
}

impl Observer for SpanObserver {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        let at = at.as_tu();
        match *event {
            TraceEvent::VmHired { vm, tier, .. } | TraceEvent::VmReshaped { vm, tier, .. } => {
                let reshape = matches!(event, TraceEvent::VmReshaped { .. });
                *self.vm_slot(vm) =
                    Some(VmRec { tier, boot_start: at, boot_end: at, reshape, booted: false });
            }
            TraceEvent::VmBooted { vm, .. } => {
                if let Some(rec) = self.vm_slot(vm) {
                    rec.boot_end = at;
                    rec.booted = true;
                }
            }
            TraceEvent::JobArrived { job, submitted_tu, .. } => {
                let idx = job as usize;
                if idx >= self.jobs.len() {
                    self.jobs.resize(idx + 1, None);
                }
                self.jobs[idx] =
                    Some(JobRec { submitted_tu, arrived_t: at, stages: Vec::with_capacity(7) });
            }
            TraceEvent::JobStageAdvanced { job, .. } => {
                if let Some(Some(rec)) = self.jobs.get_mut(job as usize) {
                    rec.stages.push(StageRec { enq_t: at, anchor: None });
                }
            }
            TraceEvent::SubtaskDispatched { job, stage, vm, busy_tu, .. } => {
                let (tier, boot) = match self.vms.get(vm as usize).copied().flatten() {
                    Some(rec) if rec.booted => (
                        rec.tier,
                        Some(BootSnap {
                            start: rec.boot_start,
                            end: rec.boot_end,
                            reshape: rec.reshape,
                        }),
                    ),
                    Some(rec) => (rec.tier, None),
                    None => (NO_TIER, None),
                };
                let Some(Some(rec)) = self.jobs.get_mut(job as usize) else {
                    return;
                };
                let Some(srec) = rec.stages.get_mut(stage as usize) else {
                    return;
                };
                // Strictly-greater keeps the earliest dispatch on busy ties
                // (stream order is deterministic, so so is the anchor).
                if srec.anchor.is_none_or(|a| busy_tu > a.busy_tu) {
                    srec.anchor = Some(Anchor { dispatch_t: at, busy_tu, tier, boot });
                }
            }
            TraceEvent::JobCompleted { job, latency_tu, reward, .. } => {
                let Some(rec) = self.jobs.get_mut(job as usize).and_then(Option::take) else {
                    return;
                };
                let spans = build_job_spans(self.tenant, job as u32, &rec, at, latency_tu, reward);
                debug_assert!(spans.conservation_ok(), "segment tiling broken for job {job}");
                self.out.jobs.push(spans);
            }
            _ => {}
        }
    }
}

/// A [`TraceStore`] and a [`SpanObserver`] fed from the same stream, for
/// callers that want the live spans beside the recording (the Perfetto
/// export needs both); [`derive`](crate::derive()) gives the same spans
/// from the store alone.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    /// The columnar store ingesting every event.
    pub store: TraceStore,
    /// The span deriver riding along.
    pub spans: SpanObserver,
}

impl Recorder {
    /// A recorder for one tenant's stream.
    pub fn for_tenant(tenant: u32) -> Recorder {
        Recorder { store: TraceStore::for_tenant(tenant), spans: SpanObserver::for_tenant(tenant) }
    }
}

impl Observer for Recorder {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        self.store.ingest(at, event);
        self.spans.on_event(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SegmentKind;

    fn feed(obs: &mut SpanObserver, t: f64, e: TraceEvent) {
        obs.on_event(SimTime::new(t), &e);
    }

    /// A hand-built two-stage job on a freshly hired worker: the wait
    /// window must split into queue wait + boot wait, and the tiling
    /// must conserve.
    #[test]
    fn stitches_boot_and_service_segments() {
        let mut obs = SpanObserver::new();
        feed(&mut obs, 1.0, TraceEvent::JobArrived { job: 0, size_units: 5.0, submitted_tu: 1.0 });
        feed(&mut obs, 1.0, TraceEvent::JobStageAdvanced { job: 0, stage: 0, shards: 2, cores: 1 });
        feed(&mut obs, 1.2, TraceEvent::VmHired { vm: 0, tier: 0, cores: 2 });
        feed(&mut obs, 1.7, TraceEvent::VmBooted { vm: 0, cores: 2 });
        feed(
            &mut obs,
            1.7,
            TraceEvent::SubtaskDispatched {
                job: 0,
                stage: 0,
                vm: 0,
                cores: 1,
                waited_tu: 0.7,
                busy_tu: 2.0,
            },
        );
        feed(
            &mut obs,
            1.7,
            TraceEvent::SubtaskDispatched {
                job: 0,
                stage: 0,
                vm: 0,
                cores: 1,
                waited_tu: 0.7,
                busy_tu: 1.0,
            },
        );
        let stage_end = 1.7 + 2.0;
        feed(
            &mut obs,
            stage_end,
            TraceEvent::JobStageAdvanced { job: 0, stage: 1, shards: 1, cores: 1 },
        );
        feed(
            &mut obs,
            stage_end,
            TraceEvent::SubtaskDispatched {
                job: 0,
                stage: 1,
                vm: 0,
                cores: 1,
                waited_tu: 0.0,
                busy_tu: 0.5,
            },
        );
        let done = stage_end + 0.5;
        feed(
            &mut obs,
            done,
            TraceEvent::JobCompleted {
                job: 0,
                latency_tu: done - 1.0,
                reward: 10.0,
                core_stages: 3.0,
            },
        );
        let set = obs.into_spans();
        assert_eq!(set.jobs.len(), 1);
        assert_eq!(set.in_flight, 0);
        let j = &set.jobs[0];
        assert!(j.conservation_ok(), "{j:#?}");
        let kinds: Vec<SegmentKind> = j.segments.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                SegmentKind::QueueWait,
                SegmentKind::BootWait,
                SegmentKind::Service,
                SegmentKind::Service,
            ],
            "{j:#?}"
        );
        // The boot window [1.2, 1.7] clipped to the wait window [1.0, 1.7].
        assert_eq!(j.segments[1].start_tu, 1.2);
        assert_eq!(j.segments[1].end_tu, 1.7);
        // Anchor is the busy=2.0 dispatch, not the busy=1.0 one.
        assert_eq!(j.segments[2].duration_tu(), 2.0);
    }

    /// A deferred job shows the admission gap, and an in-flight job at
    /// the end of the run is counted but not emitted.
    #[test]
    fn deferral_and_in_flight_accounting() {
        let mut obs = SpanObserver::for_tenant(3);
        // Submitted at 2.0, admitted at 5.0.
        feed(&mut obs, 5.0, TraceEvent::JobArrived { job: 0, size_units: 5.0, submitted_tu: 2.0 });
        feed(&mut obs, 5.0, TraceEvent::JobStageAdvanced { job: 0, stage: 0, shards: 1, cores: 1 });
        feed(&mut obs, 5.0, TraceEvent::VmHired { vm: 1, tier: 1, cores: 2 });
        feed(&mut obs, 5.5, TraceEvent::VmBooted { vm: 1, cores: 2 });
        feed(
            &mut obs,
            5.5,
            TraceEvent::SubtaskDispatched {
                job: 0,
                stage: 0,
                vm: 1,
                cores: 1,
                waited_tu: 0.5,
                busy_tu: 1.0,
            },
        );
        feed(
            &mut obs,
            6.5,
            TraceEvent::JobCompleted { job: 0, latency_tu: 4.5, reward: 1.0, core_stages: 1.0 },
        );
        // A second job that never completes.
        feed(&mut obs, 7.0, TraceEvent::JobArrived { job: 1, size_units: 5.0, submitted_tu: 7.0 });
        let set = obs.into_spans();
        assert_eq!(set.jobs.len(), 1);
        assert_eq!(set.in_flight, 1);
        let j = &set.jobs[0];
        assert_eq!(j.tenant, 3);
        assert!(j.conservation_ok(), "{j:#?}");
        assert_eq!(j.segments[0].kind, SegmentKind::AdmissionDeferred);
        assert_eq!(j.segments[0].duration_tu(), 3.0);
        // Boot (5.0→5.5) happened entirely inside the wait window, on a
        // public-tier worker.
        assert_eq!(j.segments[1].kind, SegmentKind::BootWait);
        assert_eq!(j.segments[1].tier, 1);
    }
}
