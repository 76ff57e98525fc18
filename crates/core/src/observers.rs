//! Domain-level trace observers: folds of a session's event stream into
//! statistics its [`SessionMetrics`](crate::metrics::SessionMetrics) do
//! not report.
//!
//! The workhorse here is [`DecisionStats`]: a counting/summary observer
//! that folds a session's [`TraceEvent`] stream into the per-cell
//! statistics the §IV-B sweep reports — scaling-decision counts per
//! [`ScalingChoice`], a queue-depth histogram, and per-tier settled
//! costs. It is deliberately integer-first (every count is a `u64`, the
//! depth mean is a ratio of integer accumulators) so that merging
//! repetition summaries is exact and order-insensitive; the only `f64`
//! accumulators are the per-tier settled costs, which the sweep merges in
//! repetition order to keep N-thread runs bit-identical to 1-thread runs.

use scan_sim::{Merge, Observer, ScalingChoice, SimTime, TraceEvent};
use std::fmt::Write as _;

/// Number of power-of-two queue-depth buckets kept by [`DecisionStats`]:
/// bucket 0 holds depth 0, bucket `i ≥ 1` holds depths in
/// `[2^(i-1), 2^i)`, and the last bucket absorbs everything deeper.
pub const DEPTH_BUCKETS: usize = 12;

/// End-of-run settlement totals for one tier, plus its hire count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierTotals {
    /// Total cost charged against the tier (CU), summed over sessions.
    pub cost: f64,
    /// Total core·TU provisioned on the tier, summed over sessions.
    pub core_tu: f64,
    /// VMs hired on the tier.
    pub hired: u64,
}

/// Counting/summary observer: folds one or more sessions' trace streams
/// into scaling-decision counts, a queue-depth histogram and per-tier
/// settled costs.
///
/// One instance observes one session (observers are single-threaded, see
/// the `scan_sim::trace` module docs); per-session instances from a
/// parallel sweep are then combined with [`Merge::merge`] in repetition
/// order. All counts are integers, so the merged result is independent of
/// how sessions were scheduled onto threads.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionStats {
    /// Scaling-decision counts, indexed by [`ScalingChoice::index`].
    decisions: [u64; ScalingChoice::ALL.len()],
    /// Power-of-two queue-depth histogram (see [`DEPTH_BUCKETS`]).
    depth_hist: [u64; DEPTH_BUCKETS],
    /// Sum of sampled depths (integer — exact under merge).
    depth_sum: u64,
    /// Number of depth samples.
    depth_samples: u64,
    /// Deepest sampled queue.
    peak_depth: u32,
    /// Per-tier settlement totals, indexed by tier number (0 = private,
    /// 1 = public; grown on demand).
    tiers: Vec<TierTotals>,
    /// Sessions folded in (1 for a freshly observed session; grows under
    /// [`Merge::merge`]).
    sessions: u64,
}

impl Default for DecisionStats {
    fn default() -> Self {
        Self::new()
    }
}

impl DecisionStats {
    /// An empty accumulator, ready to observe one session.
    pub fn new() -> Self {
        DecisionStats {
            decisions: [0; ScalingChoice::ALL.len()],
            depth_hist: [0; DEPTH_BUCKETS],
            depth_sum: 0,
            depth_samples: 0,
            peak_depth: 0,
            tiers: Vec::new(),
            sessions: 1,
        }
    }

    /// Histogram bucket for a sampled depth.
    fn bucket(depth: u32) -> usize {
        if depth == 0 {
            0
        } else {
            ((32 - depth.leading_zeros()) as usize).min(DEPTH_BUCKETS - 1)
        }
    }

    /// Times a given choice was decided.
    pub fn decided(&self, choice: ScalingChoice) -> u64 {
        self.decisions[choice.index()]
    }

    /// Total scaling decisions observed.
    pub fn total_decisions(&self) -> u64 {
        self.decisions.iter().sum()
    }

    /// Hire decisions (private + public + reshape — every decision that
    /// grew capacity for the stalled class).
    pub fn hire_decisions(&self) -> u64 {
        self.decided(ScalingChoice::HirePrivate)
            + self.decided(ScalingChoice::HirePublic)
            + self.decided(ScalingChoice::Reshape)
    }

    /// Wait decisions.
    pub fn wait_decisions(&self) -> u64 {
        self.decided(ScalingChoice::Wait)
    }

    /// Mean sampled queue depth (a per-sample mean, not the time-weighted
    /// mean `SessionMetrics` reports; samples are taken after every
    /// dispatch pass and stage enqueue).
    pub fn mean_depth(&self) -> f64 {
        if self.depth_samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.depth_samples as f64
        }
    }

    /// Deepest queue sampled.
    pub fn peak_depth(&self) -> u32 {
        self.peak_depth
    }

    /// Number of queue-depth samples folded in.
    pub fn depth_samples(&self) -> u64 {
        self.depth_samples
    }

    /// The power-of-two depth histogram (bucket 0 = empty queue, bucket
    /// `i ≥ 1` = depths in `[2^(i-1), 2^i)`, last bucket open-ended).
    pub fn depth_histogram(&self) -> &[u64; DEPTH_BUCKETS] {
        &self.depth_hist
    }

    /// Settlement totals for one tier (zeroes for a tier never settled).
    pub fn tier(&self, tier: u32) -> TierTotals {
        self.tiers.get(tier as usize).copied().unwrap_or_default()
    }

    /// Total settled cost across tiers (CU). Matches
    /// `SessionMetrics::total_cost` for a single session, summed over
    /// sessions once merged.
    pub fn total_cost(&self) -> f64 {
        self.tiers.iter().map(|t| t.cost).sum()
    }

    /// Total VMs hired across tiers.
    pub fn vms_hired(&self) -> u64 {
        self.tiers.iter().map(|t| t.hired).sum()
    }

    /// Sessions folded into this accumulator.
    pub fn sessions(&self) -> u64 {
        self.sessions
    }

    fn tier_mut(&mut self, tier: u32) -> &mut TierTotals {
        let idx = tier as usize;
        if self.tiers.len() <= idx {
            self.tiers.resize(idx + 1, TierTotals::default());
        }
        &mut self.tiers[idx]
    }

    /// Appends this accumulator as one hand-assembled JSON object (no
    /// trailing newline) — the payload of the sweep's `--cell-trace`
    /// JSONL lines. Keys and shape are documented in
    /// `docs/TRACE_SCHEMA.md`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"sessions\":");
        let _ = write!(out, "{}", self.sessions);
        out.push_str(",\"decisions\":{");
        for (i, choice) in ScalingChoice::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", choice.name(), self.decided(*choice));
        }
        out.push_str("},\"queue_depth\":{\"samples\":");
        let _ = write!(out, "{}", self.depth_samples);
        let _ = write!(out, ",\"mean\":{:.4},\"peak\":{}", self.mean_depth(), self.peak_depth);
        out.push_str(",\"hist\":[");
        for (i, n) in self.depth_hist.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{n}");
        }
        out.push_str("]},\"tiers\":[");
        for (i, t) in self.tiers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"tier\":{i},\"cost\":{:.4},\"core_tu\":{:.4},\"hired\":{}}}",
                t.cost, t.core_tu, t.hired
            );
        }
        out.push_str("]}");
    }
}

impl Observer for DecisionStats {
    fn on_event(&mut self, _at: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::ScalingDecision { choice, .. } => {
                self.decisions[choice.index()] += 1;
            }
            TraceEvent::QueueDepthSampled { depth } => {
                self.depth_hist[Self::bucket(depth)] += 1;
                self.depth_sum += depth as u64;
                self.depth_samples += 1;
                self.peak_depth = self.peak_depth.max(depth);
            }
            TraceEvent::VmHired { tier, .. } => self.tier_mut(tier).hired += 1,
            TraceEvent::TierSettled { tier, cost, core_tu } => {
                let t = self.tier_mut(tier);
                t.cost += cost;
                t.core_tu += core_tu;
            }
            _ => {}
        }
    }
}

impl Merge for DecisionStats {
    fn merge(&mut self, other: Self) {
        for (a, b) in self.decisions.iter_mut().zip(other.decisions) {
            *a += b;
        }
        for (a, b) in self.depth_hist.iter_mut().zip(other.depth_hist) {
            *a += b;
        }
        self.depth_sum += other.depth_sum;
        self.depth_samples += other.depth_samples;
        self.peak_depth = self.peak_depth.max(other.peak_depth);
        if self.tiers.len() < other.tiers.len() {
            self.tiers.resize(other.tiers.len(), TierTotals::default());
        }
        for (a, b) in self.tiers.iter_mut().zip(other.tiers) {
            a.cost += b.cost;
            a.core_tu += b.core_tu;
            a.hired += b.hired;
        }
        self.sessions += other.sessions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ScanConfig, VariableParams};
    use crate::session::run_session_with;
    use scan_sched::scaling::ScalingPolicy;

    fn decision(choice: ScalingChoice) -> TraceEvent {
        TraceEvent::ScalingDecision {
            stage: 0,
            cores: 4,
            queued_jobs: 3,
            delay_cost: 10.0,
            hire_cost: 5.0,
            choice,
        }
    }

    #[test]
    fn depth_buckets_cover_the_line() {
        assert_eq!(DecisionStats::bucket(0), 0);
        assert_eq!(DecisionStats::bucket(1), 1);
        assert_eq!(DecisionStats::bucket(2), 2);
        assert_eq!(DecisionStats::bucket(3), 2);
        assert_eq!(DecisionStats::bucket(4), 3);
        assert_eq!(DecisionStats::bucket(7), 3);
        assert_eq!(DecisionStats::bucket(8), 4);
        assert_eq!(DecisionStats::bucket(1 << 10), DEPTH_BUCKETS - 1);
        assert_eq!(DecisionStats::bucket(u32::MAX), DEPTH_BUCKETS - 1);
    }

    #[test]
    fn folds_decisions_depths_and_tiers() {
        let mut s = DecisionStats::new();
        let at = SimTime::new(1.0);
        s.on_event(at, &decision(ScalingChoice::HirePublic));
        s.on_event(at, &decision(ScalingChoice::Wait));
        s.on_event(at, &decision(ScalingChoice::Wait));
        s.on_event(at, &decision(ScalingChoice::HirePrivate));
        s.on_event(at, &decision(ScalingChoice::Reshape));
        for depth in [0u32, 3, 9] {
            s.on_event(at, &TraceEvent::QueueDepthSampled { depth });
        }
        s.on_event(at, &TraceEvent::VmHired { vm: 1, tier: 1, cores: 4 });
        s.on_event(at, &TraceEvent::VmHired { vm: 2, tier: 0, cores: 4 });
        s.on_event(at, &TraceEvent::TierSettled { tier: 0, cost: 100.0, core_tu: 20.0 });
        s.on_event(at, &TraceEvent::TierSettled { tier: 1, cost: 40.0, core_tu: 4.0 });

        assert_eq!(s.decided(ScalingChoice::Wait), 2);
        assert_eq!(s.decided(ScalingChoice::HirePublic), 1);
        assert_eq!(s.total_decisions(), 5);
        assert_eq!(s.hire_decisions(), 3); // private + public + reshape
        assert_eq!(s.wait_decisions(), 2);
        assert_eq!(s.depth_samples(), 3);
        assert_eq!(s.peak_depth(), 9);
        assert!((s.mean_depth() - 4.0).abs() < 1e-12);
        assert_eq!(s.depth_histogram()[0], 1); // depth 0
        assert_eq!(s.depth_histogram()[2], 1); // depth 3
        assert_eq!(s.depth_histogram()[4], 1); // depth 9
        assert_eq!(s.vms_hired(), 2);
        assert_eq!(s.tier(0).hired, 1);
        assert!((s.total_cost() - 140.0).abs() < 1e-12);
        assert!((s.tier(1).core_tu - 4.0).abs() < 1e-12);
        assert_eq!(s.tier(7), TierTotals::default());
    }

    #[test]
    fn merge_is_exact_and_counts_sessions() {
        let at = SimTime::ZERO;
        let mut a = DecisionStats::new();
        a.on_event(at, &decision(ScalingChoice::Wait));
        a.on_event(at, &TraceEvent::QueueDepthSampled { depth: 5 });
        a.on_event(at, &TraceEvent::TierSettled { tier: 0, cost: 1.5, core_tu: 2.0 });
        let mut b = DecisionStats::new();
        b.on_event(at, &decision(ScalingChoice::HirePrivate));
        b.on_event(at, &TraceEvent::QueueDepthSampled { depth: 7 });
        // b settles a tier a never saw: merge must grow the tier table.
        b.on_event(at, &TraceEvent::TierSettled { tier: 1, cost: 4.0, core_tu: 1.0 });

        let mut merged = a.clone();
        merged.merge(b.clone());
        assert_eq!(merged.sessions(), 2);
        assert_eq!(merged.total_decisions(), 2);
        assert_eq!(merged.depth_samples(), 2);
        assert_eq!(merged.peak_depth(), 7);
        assert!((merged.mean_depth() - 6.0).abs() < 1e-12);
        assert!((merged.total_cost() - 5.5).abs() < 1e-12);

        // Counts commute (the f64 tier sums are merged in a fixed order by
        // the sweep, but with disjoint tiers the other order is exact too).
        let mut swapped = b;
        swapped.merge(a);
        assert_eq!(swapped, merged);
    }

    #[test]
    fn json_payload_is_wellformed() {
        let mut s = DecisionStats::new();
        let at = SimTime::ZERO;
        s.on_event(at, &decision(ScalingChoice::HirePublic));
        s.on_event(at, &TraceEvent::QueueDepthSampled { depth: 2 });
        s.on_event(at, &TraceEvent::TierSettled { tier: 0, cost: 12.25, core_tu: 3.5 });
        let mut out = String::new();
        s.write_json(&mut out);
        assert!(out.starts_with('{') && out.ends_with('}'));
        assert_eq!(out.matches('"').count() % 2, 0);
        assert!(out.contains("\"hire_public\":1"));
        assert!(out.contains("\"samples\":1"));
        assert!(out.contains("\"cost\":12.2500"));
        assert!(!out.contains('\n'));
    }

    /// The summary observer's fold of a real session's event stream must
    /// agree with the session's own metrics wherever the two overlap.
    #[test]
    fn fold_matches_session_metrics_on_a_live_stream() {
        let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 0.9), 11);
        cfg.fixed.sim_time_tu = 200.0;
        let (metrics, stats) = run_session_with(&cfg, 0, DecisionStats::new());
        assert!(metrics.jobs_completed > 0, "session must do real work");
        assert_eq!(stats.vms_hired(), metrics.vms_hired);
        assert_eq!(stats.peak_depth() as usize, metrics.peak_queue_len);
        assert_eq!(
            stats.total_cost(),
            metrics.total_cost,
            "the tiers settle in one order, so the sums agree"
        );
        assert!(stats.total_decisions() > 0, "a loaded session takes scaling decisions");
        assert!(stats.depth_samples() > 0, "dispatch passes sample queue depth");
    }
}
