//! Batch span derivation: replays a [`TraceStore`] through the same
//! [`SpanObserver`] the live path runs, producing an identical
//! [`SpanSet`].
//!
//! [`TraceStore::replay`] yields the events in the order the store saw
//! them, so the observer needs no reordering. A store may hold many
//! sessions — a fleet's tenants, or merged repetitions that reuse job
//! and worker ids — and each session's stream ends with `run_ended`, so
//! a fresh observer starts after every one.

use crate::observer::SpanObserver;
use crate::span::SpanSet;
use scan_sim::{Merge, Observer, TraceEvent};
use scan_tracestore::TraceStore;

/// Derives every completed job's spans from a store. The result is
/// element-for-element identical to running a [`SpanObserver`] per
/// session on the live stream and merging in the order the store's
/// sessions were merged.
pub fn derive(store: &TraceStore) -> SpanSet {
    let mut out = SpanSet::default();
    let mut session: Option<SpanObserver> = None;
    for (tenant, at, event) in store.replay() {
        session.get_or_insert_with(|| SpanObserver::for_tenant(tenant)).on_event(at, &event);
        if matches!(event, TraceEvent::RunEnded { .. }) {
            if let Some(ended) = session.take() {
                out.merge(ended.into_spans());
            }
        }
    }
    if let Some(unfinished) = session {
        out.merge(unfinished.into_spans());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_sim::SimTime;

    /// Ingest a small hand-built stream into a store, then check the
    /// batch pass reproduces the incremental observer bit-for-bit.
    #[test]
    fn derive_matches_observer_on_a_hand_built_stream() {
        let events: Vec<(f64, TraceEvent)> = vec![
            (0.5, TraceEvent::VmHired { vm: 0, tier: 1, cores: 2 }),
            (1.0, TraceEvent::JobArrived { job: 0, size_units: 4.0, submitted_tu: 0.25 }),
            (1.0, TraceEvent::JobStageAdvanced { job: 0, stage: 0, shards: 2, cores: 1 }),
            (1.5, TraceEvent::VmBooted { vm: 0, cores: 2 }),
            // Boot and dispatch at the same instant: replay keeps the
            // boot first, as emitted.
            (
                1.5,
                TraceEvent::SubtaskDispatched {
                    job: 0,
                    stage: 0,
                    vm: 0,
                    cores: 1,
                    waited_tu: 0.5,
                    busy_tu: 2.0,
                },
            ),
            (
                1.5,
                TraceEvent::SubtaskDispatched {
                    job: 0,
                    stage: 0,
                    vm: 0,
                    cores: 1,
                    waited_tu: 0.5,
                    busy_tu: 2.0,
                },
            ),
            (
                3.5,
                TraceEvent::JobCompleted {
                    job: 0,
                    latency_tu: 3.25,
                    reward: 8.0,
                    core_stages: 2.0,
                },
            ),
        ];
        let mut store = TraceStore::new();
        let mut obs = SpanObserver::new();
        for (t, e) in &events {
            store.ingest(SimTime::new(*t), e);
            obs.on_event(SimTime::new(*t), e);
        }
        let incremental = obs.into_spans();
        let batch = derive(&store);
        assert_eq!(batch, incremental);
        assert_eq!(batch.jobs.len(), 1);
        assert!(batch.jobs[0].conservation_ok(), "{:#?}", batch.jobs[0]);
    }
}
