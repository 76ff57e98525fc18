//! Property tests: the columnar store must answer aggregation queries
//! exactly like a naive Vec-of-events oracle that never left row-major
//! land.
//!
//! The oracle replays the same event stream into a plain `Vec`, tracks
//! vm→tier itself, and folds with the same row-order sums and
//! `total_cmp` nearest-rank percentiles the query layer documents — so
//! every comparison is exact (`==` on f64), not approximate. Any drift
//! between the staged vector operators and the obvious scalar loop is a
//! bug in the store.

use proptest::prelude::*;
use scan_sim::{SimTime, TraceEvent};
use scan_tracestore::{tier_label, Agg, EventKind, Filter, Query, TraceStore, UNKNOWN_TIER};

/// One generated step: a time increment plus an event selector with its
/// payload knobs.
type Step = (u8, u32, u32, f64);

/// Decodes a generated step into an event, mirroring the small vocabulary
/// the aggregation tests care about (dispatches with waits, hires that
/// move vm tiers, queue-depth samples, completions, admissions).
fn event_of(selector: u8, a: u32, b: u32, x: f64) -> TraceEvent {
    match selector % 6 {
        0 => TraceEvent::QueueDepthSampled { depth: a % 100 },
        1 => TraceEvent::SubtaskDispatched {
            job: u64::from(a % 50),
            stage: b % 4,
            vm: u64::from(b % 8),
            cores: 1 + a % 4,
            waited_tu: x,
            busy_tu: x * 0.5,
        },
        2 => TraceEvent::VmHired { vm: u64::from(b % 8), tier: a % 3, cores: 2 + b % 6 },
        3 => TraceEvent::JobCompleted {
            job: u64::from(a % 50),
            latency_tu: x * 2.0,
            reward: x - 1.0,
            core_stages: f64::from(b % 30),
        },
        4 => TraceEvent::AdmissionDeferred { tenant: a % 4, jobs: 1 + b % 3, backlog: b % 9 },
        _ => TraceEvent::VmReleased { vm: u64::from(b % 8), tier: a % 3, cores: 2 },
    }
}

/// The oracle: a flat event log plus the same ingest-time enrichments
/// the store performs, computed the obvious scalar way.
#[derive(Default)]
struct Oracle {
    rows: Vec<(f64, u32, TraceEvent, &'static str)>,
    vm_tier: Vec<Option<u32>>,
}

impl Oracle {
    fn push(&mut self, t: f64, tenant: u32, event: TraceEvent) {
        if let TraceEvent::VmHired { vm, tier, .. } = event {
            let idx = vm as usize;
            if idx >= self.vm_tier.len() {
                self.vm_tier.resize(idx + 1, None);
            }
            self.vm_tier[idx] = Some(tier);
        }
        let tier = match event {
            TraceEvent::SubtaskDispatched { vm, .. } => self
                .vm_tier
                .get(vm as usize)
                .copied()
                .flatten()
                .map(tier_label)
                .unwrap_or(UNKNOWN_TIER),
            _ => "",
        };
        let tenant = match event {
            TraceEvent::AdmissionDeferred { tenant, .. } => tenant,
            _ => tenant,
        };
        self.rows.push((t, tenant, event, tier));
    }

    fn nearest_rank(mut values: Vec<f64>, q: f64) -> f64 {
        values.sort_by(f64::total_cmp);
        let rank = ((q * values.len() as f64).ceil() as usize).max(1);
        values[rank - 1]
    }
}

/// Builds the store and the oracle from one generated stream. Times are
/// cumulative non-negative deltas, so the monotone-time ingest contract
/// holds by construction.
fn build(steps: &[Step]) -> (TraceStore, Oracle) {
    let mut store = TraceStore::new();
    let mut oracle = Oracle::default();
    let mut t = 0.0f64;
    for &(selector, a, b, x) in steps {
        t += x * 0.25;
        let event = event_of(selector, a, b, x);
        store.ingest(SimTime::new(t), &event);
        oracle.push(t, 0, event);
    }
    (store, oracle)
}

proptest! {
    #[test]
    fn counts_match_the_oracle(
        steps in proptest::collection::vec((0u8..12, 0u32..1000, 0u32..1000, 0.0f64..8.0), 0..300),
        window in (0.0f64..100.0, 1.0f64..200.0),
    ) {
        let (store, oracle) = build(&steps);
        let (lo, span) = window;
        let hi = lo + span;
        for kind in [EventKind::QueueDepth, EventKind::SubtaskDispatched, EventKind::VmHired] {
            let rows = Query::over(kind)
                .between_tu(lo, hi)
                .count()
                .run(&store)
                .unwrap();
            let expected = oracle
                .rows
                .iter()
                .filter(|(t, _, e, _)| EventKind::of(e) == kind && lo <= *t && *t < hi)
                .count();
            let got = rows.first().map(|r| r.value).unwrap_or(0.0);
            prop_assert_eq!(got, expected as f64);
        }
    }

    #[test]
    fn sums_and_means_match_the_oracle(
        steps in proptest::collection::vec((0u8..12, 0u32..1000, 0u32..1000, 0.0f64..8.0), 1..300),
    ) {
        let (store, oracle) = build(&steps);
        let waits: Vec<f64> = oracle
            .rows
            .iter()
            .filter_map(|(_, _, e, _)| match e {
                TraceEvent::SubtaskDispatched { waited_tu, .. } => Some(*waited_tu),
                _ => None,
            })
            .collect();
        let rows = Query::over(EventKind::SubtaskDispatched)
            .aggregate(Agg::Sum, "waited_tu")
            .run(&store)
            .unwrap();
        if waits.is_empty() {
            prop_assert!(rows.is_empty());
        } else {
            // Row-order sums on both sides: exact equality, not approx.
            prop_assert_eq!(rows[0].value, waits.iter().sum::<f64>());
            let mean = Query::over(EventKind::SubtaskDispatched)
                .aggregate(Agg::Mean, "waited_tu")
                .run(&store)
                .unwrap();
            prop_assert_eq!(mean[0].value, waits.iter().sum::<f64>() / waits.len() as f64);
        }
    }

    #[test]
    fn percentiles_per_tier_match_the_oracle(
        steps in proptest::collection::vec((0u8..12, 0u32..1000, 0u32..1000, 0.0f64..8.0), 1..300),
    ) {
        let (store, oracle) = build(&steps);
        for (agg, q) in [(Agg::P50, 0.50), (Agg::P95, 0.95)] {
            let rows = Query::over(EventKind::SubtaskDispatched)
                .group_by("tier")
                .aggregate(agg, "waited_tu")
                .run(&store)
                .unwrap();
            let mut tiers: Vec<&str> = oracle
                .rows
                .iter()
                .filter(|(_, _, e, _)| matches!(e, TraceEvent::SubtaskDispatched { .. }))
                .map(|(_, _, _, tier)| *tier)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            tiers.sort();
            prop_assert_eq!(rows.len(), tiers.len());
            for (row, tier) in rows.iter().zip(&tiers) {
                prop_assert_eq!(row.group.as_deref(), Some(*tier));
                let values: Vec<f64> = oracle
                    .rows
                    .iter()
                    .filter_map(|(_, _, e, row_tier)| match e {
                        TraceEvent::SubtaskDispatched { waited_tu, .. } if row_tier == tier => {
                            Some(*waited_tu)
                        }
                        _ => None,
                    })
                    .collect();
                prop_assert_eq!(row.value, Oracle::nearest_rank(values, q));
            }
        }
    }

    #[test]
    fn max_and_filters_match_the_oracle(
        steps in proptest::collection::vec((0u8..12, 0u32..1000, 0u32..1000, 0.0f64..8.0), 1..300),
        depth_cap in 1u32..100,
    ) {
        let (store, oracle) = build(&steps);
        let depths: Vec<u32> = oracle
            .rows
            .iter()
            .filter_map(|(_, _, e, _)| match e {
                TraceEvent::QueueDepthSampled { depth } if *depth < depth_cap => Some(*depth),
                _ => None,
            })
            .collect();
        let rows = Query::over(EventKind::QueueDepth)
            .filter(Filter::RangeF64 { column: "depth".into(), lo: 0.0, hi: f64::from(depth_cap) })
            .aggregate(Agg::Max, "depth")
            .run(&store);
        // depth is u32, not f64 — RangeF64 must be rejected, not coerced.
        prop_assert!(rows.is_err());

        let rows = Query::over(EventKind::QueueDepth)
            .aggregate(Agg::Max, "depth")
            .run(&store)
            .unwrap();
        let all: Vec<u32> = oracle
            .rows
            .iter()
            .filter_map(|(_, _, e, _)| match e {
                TraceEvent::QueueDepthSampled { depth } => Some(*depth),
                _ => None,
            })
            .collect();
        if all.is_empty() {
            prop_assert!(rows.is_empty());
        } else {
            prop_assert_eq!(rows[0].value, f64::from(*all.iter().max().unwrap()));
        }
        prop_assert!(depths.len() <= all.len());
    }

    #[test]
    fn exports_round_trip_and_answer_identically(
        steps in proptest::collection::vec((0u8..12, 0u32..1000, 0u32..1000, 0.0f64..8.0), 0..200),
    ) {
        let (store, oracle) = build(&steps);
        let bytes = store.to_bytes();
        let decoded = TraceStore::from_bytes(&bytes).unwrap();
        prop_assert_eq!(decoded.to_bytes(), bytes);
        // Both stores replay the generated stream exactly: tiers are
        // `a % 3`, which the tier labels carry back unchanged.
        let stream: Vec<(u32, SimTime, TraceEvent)> =
            oracle.rows.iter().map(|&(t, tenant, e, _)| (tenant, SimTime::new(t), e)).collect();
        prop_assert_eq!(store.replay().collect::<Vec<_>>(), stream.clone());
        prop_assert_eq!(decoded.replay().collect::<Vec<_>>(), stream);
        let a = Query::over(EventKind::SubtaskDispatched)
            .group_by("tier")
            .aggregate(Agg::P95, "waited_tu")
            .run(&store)
            .unwrap();
        let b = Query::over(EventKind::SubtaskDispatched)
            .group_by("tier")
            .aggregate(Agg::P95, "waited_tu")
            .run(&decoded)
            .unwrap();
        prop_assert_eq!(a, b);
    }
}
