//! The derived artefacts: typed segments, per-job span trees, and the
//! mergeable [`SpanSet`] a whole session or fleet produces.

use crate::schema::{SegmentKind, ALL_SEGMENTS};
use scan_sim::Merge;

/// Tier tag for segments with no attributable worker (queue wait,
/// admission deferral).
pub const NO_TIER: u32 = u32::MAX;

/// One attributed slice of a job's end-to-end latency.
///
/// Segments are closed intervals over simulation time; within one job
/// consecutive segments share their endpoints bit-exactly, which is what
/// makes the decomposition a partition rather than an approximation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// What the time was spent on.
    pub kind: SegmentKind,
    /// Tier of the attributed worker ([`NO_TIER`] when no worker is
    /// responsible, e.g. queue wait).
    pub tier: u32,
    /// Segment start, TU.
    pub start_tu: f64,
    /// Segment end, TU.
    pub end_tu: f64,
}

impl Segment {
    /// The segment's extent in TU.
    pub fn duration_tu(&self) -> f64 {
        self.end_tu - self.start_tu
    }
}

/// One completed job's causal timeline: its latency decomposed into an
/// exhaustive, non-overlapping sequence of [`Segment`]s.
///
/// # Conservation invariant
///
/// The segments *tile* `[submitted_tu, completed_tu]`: the first starts
/// at the submission time, every next segment starts bit-exactly where
/// the previous one ended, and the last ends at the completion time.
/// Because the tiling telescopes, the segments' total extent is exactly
/// `completed_tu − submitted_tu` — the same single `f64` subtraction the
/// platform uses to compute `job_completed.latency_tu` — so the total
/// equals the reported latency *bit-exactly*, not merely approximately.
/// [`JobSpans::conservation_ok`] checks all of it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpans {
    /// Owning tenant (0 for solo sessions).
    pub tenant: u32,
    /// Job id (dense per tenant).
    pub job: u32,
    /// When the job was submitted, TU.
    pub submitted_tu: f64,
    /// When the job completed, TU.
    pub completed_tu: f64,
    /// The latency the platform reported in `job_completed`, TU.
    pub latency_tu: f64,
    /// Reward the job earned, CU.
    pub reward: f64,
    /// Pipeline stages the job ran.
    pub stages: u32,
    /// The decomposition, in time order.
    pub segments: Vec<Segment>,
}

impl JobSpans {
    /// The segments' total extent: `completed_tu − submitted_tu` via the
    /// telescoped tiling (bit-equal to `latency_tu` by construction —
    /// summing per-segment durations instead would reintroduce `f64`
    /// rounding, which is exactly what the tiling avoids).
    pub fn span_tu(&self) -> f64 {
        self.completed_tu - self.submitted_tu
    }

    /// Verifies the conservation invariant: non-empty tiling of
    /// `[submitted_tu, completed_tu]` with bit-exact adjacency, ordered
    /// endpoints, and a telescoped total bit-equal to `latency_tu`.
    pub fn conservation_ok(&self) -> bool {
        let Some(first) = self.segments.first() else {
            return false;
        };
        let Some(last) = self.segments.last() else {
            return false;
        };
        if first.start_tu.to_bits() != self.submitted_tu.to_bits()
            || last.end_tu.to_bits() != self.completed_tu.to_bits()
        {
            return false;
        }
        for w in self.segments.windows(2) {
            if w[0].end_tu.to_bits() != w[1].start_tu.to_bits() {
                return false;
            }
        }
        let well_formed = |s: &Segment| {
            matches!(
                s.end_tu.partial_cmp(&s.start_tu),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            )
        };
        if !self.segments.iter().all(well_formed) {
            return false;
        }
        self.span_tu().to_bits() == self.latency_tu.to_bits()
    }

    /// Per-kind duration totals, in [`ALL_SEGMENTS`] order (plain
    /// sequential sums — display/aggregation data, not the conservation
    /// check).
    pub fn breakdown(&self) -> [f64; ALL_SEGMENTS.len()] {
        let mut out = [0.0; ALL_SEGMENTS.len()];
        for s in &self.segments {
            out[s.kind.index()] += s.duration_tu();
        }
        out
    }
}

/// Every completed job's spans from one session — or, after merging, a
/// whole fleet replication sweep. Jobs appear in completion order within
/// a session; merged sets concatenate in the caller's merge order
/// (`(repetition, tenant)` order when driven through
/// `run_fleet_replicated_with`), which is what makes merged span sets
/// bit-identical for any `RAYON_NUM_THREADS`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanSet {
    /// Completed jobs, in completion (then merge) order.
    pub jobs: Vec<JobSpans>,
    /// Jobs admitted but still in flight when the run ended; their time
    /// is *not* in `jobs` (the conservation invariant only covers
    /// completed jobs).
    pub in_flight: u64,
}

impl SpanSet {
    /// Indices of the `n` slowest jobs, by latency (ties broken by
    /// tenant then job id — deterministic for any merge order).
    pub fn slowest(&self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.jobs.len()).collect();
        idx.sort_by(|&a, &b| {
            let (ja, jb) = (&self.jobs[a], &self.jobs[b]);
            jb.latency_tu
                .total_cmp(&ja.latency_tu)
                .then(ja.tenant.cmp(&jb.tenant))
                .then(ja.job.cmp(&jb.job))
        });
        idx.truncate(n);
        idx
    }
}

impl Merge for SpanSet {
    /// Appends `other`'s jobs after this set's own. Determinism
    /// contract: callers merge in `(repetition, tenant)` order.
    fn merge(&mut self, other: SpanSet) {
        self.jobs.extend(other.jobs);
        self.in_flight += other.in_flight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(kind: SegmentKind, start: f64, end: f64) -> Segment {
        Segment { kind, tier: NO_TIER, start_tu: start, end_tu: end }
    }

    fn job(segments: Vec<Segment>) -> JobSpans {
        let submitted = segments.first().map(|s| s.start_tu).unwrap_or(0.0);
        let completed = segments.last().map(|s| s.end_tu).unwrap_or(0.0);
        JobSpans {
            tenant: 0,
            job: 0,
            submitted_tu: submitted,
            completed_tu: completed,
            latency_tu: completed - submitted,
            reward: 0.0,
            stages: 1,
            segments,
        }
    }

    #[test]
    fn tiled_segments_conserve() {
        let j = job(vec![
            seg(SegmentKind::QueueWait, 1.0, 1.5),
            seg(SegmentKind::Service, 1.5, 3.25),
            seg(SegmentKind::FanIn, 3.25, 4.0),
        ]);
        assert!(j.conservation_ok());
        assert_eq!(j.span_tu(), 3.0);
        let b = j.breakdown();
        assert_eq!(b[SegmentKind::Service.index()], 1.75);
    }

    #[test]
    fn gaps_and_overlaps_fail_conservation() {
        let gap =
            job(vec![seg(SegmentKind::QueueWait, 1.0, 1.5), seg(SegmentKind::Service, 1.6, 3.0)]);
        assert!(!gap.conservation_ok());
        let mut wrong_latency = job(vec![seg(SegmentKind::Service, 1.0, 2.0)]);
        wrong_latency.latency_tu = 1.0000000001;
        assert!(!wrong_latency.conservation_ok());
        assert!(!job(Vec::new()).conservation_ok());
    }

    #[test]
    fn slowest_orders_by_latency_then_ids() {
        let mut set = SpanSet::default();
        for (jid, lat) in [(0u32, 2.0), (1, 5.0), (2, 5.0), (3, 1.0)] {
            let mut j = job(vec![seg(SegmentKind::Service, 0.0, lat)]);
            j.job = jid;
            set.jobs.push(j);
        }
        assert_eq!(set.slowest(3), vec![1, 2, 0]);
    }
}
