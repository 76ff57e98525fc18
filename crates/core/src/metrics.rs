//! Session metrics and replicated aggregates.

use scan_sim::stats::OnlineStats;

/// What one simulation session reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMetrics {
    /// Jobs submitted during the run.
    pub jobs_submitted: u64,
    /// Jobs the fair-share admission gate deferred at least once (fleet
    /// tenants under contention; always zero for solo sessions).
    pub jobs_deferred: u64,
    /// Pipeline runs completed before the horizon.
    pub jobs_completed: u64,
    /// Completed jobs whose latency missed the configured SLO target
    /// (always zero unless `ScanConfig::slo_target_tu` is set).
    pub jobs_slo_violated: u64,
    /// Total reward earned, CU.
    pub total_reward: f64,
    /// Total infrastructure cost, CU.
    pub total_cost: f64,
    /// Mean profit per completed pipeline run, CU (Fig. 4's y-axis).
    pub profit_per_run: f64,
    /// Reward-to-cost ratio (Fig. 5's y-axis).
    pub reward_to_cost: f64,
    /// Mean completed-job latency, TU.
    pub mean_latency: f64,
    /// 95th-percentile completed-job latency, TU.
    pub p95_latency: f64,
    /// Share of core·TU bought from the public tier.
    pub public_core_tu_share: f64,
    /// Mean busy-core utilisation of hired cores.
    pub worker_utilisation: f64,
    /// Time-averaged total queue length.
    pub mean_queue_len: f64,
    /// Peak total queue length.
    pub peak_queue_len: usize,
    /// Mean core-stages (Σ shards·threads) of completed jobs' plans.
    pub mean_core_stages: f64,
    /// VMs hired over the run.
    pub vms_hired: u64,
    /// Reshape operations performed.
    pub reshapes: u64,
    /// Events dispatched (simulator diagnostic).
    pub events: u64,
}

impl SessionMetrics {
    /// Profit (reward − cost) for the whole run.
    pub fn profit(&self) -> f64 {
        self.total_reward - self.total_cost
    }

    /// Fraction of submitted jobs that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.jobs_submitted == 0 {
            0.0
        } else {
            self.jobs_completed as f64 / self.jobs_submitted as f64
        }
    }
}

/// Mean ± σ over repetitions, per metric — the paper's error bars
/// ("All measurements were repeated 10 times, and all error bars represent
/// a single standard deviation either side of the mean").
#[derive(Debug, Clone, Default)]
pub struct ReplicatedMetrics {
    /// Profit per run.
    pub profit_per_run: OnlineStats,
    /// Reward-to-cost ratio.
    pub reward_to_cost: OnlineStats,
    /// Mean latency.
    pub mean_latency: OnlineStats,
    /// Completion rate.
    pub completion_rate: OnlineStats,
    /// Public core·TU share.
    pub public_share: OnlineStats,
    /// Worker utilisation.
    pub utilisation: OnlineStats,
    /// Mean core-stages per run.
    pub core_stages: OnlineStats,
    /// Raw per-repetition session metrics.
    pub sessions: Vec<SessionMetrics>,
}

impl ReplicatedMetrics {
    /// Folds one repetition in.
    pub fn push(&mut self, m: SessionMetrics) {
        self.profit_per_run.push(m.profit_per_run);
        self.reward_to_cost.push(m.reward_to_cost);
        self.mean_latency.push(m.mean_latency);
        self.completion_rate.push(m.completion_rate());
        self.public_share.push(m.public_core_tu_share);
        self.utilisation.push(m.worker_utilisation);
        self.core_stages.push(m.mean_core_stages);
        self.sessions.push(m);
    }

    /// Number of repetitions folded in.
    pub fn n(&self) -> usize {
        self.sessions.len()
    }

    /// Builds from a vector of sessions.
    pub fn from_sessions(sessions: Vec<SessionMetrics>) -> Self {
        let mut r = ReplicatedMetrics::default();
        for s in sessions {
            r.push(s);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(profit_per_run: f64) -> SessionMetrics {
        SessionMetrics {
            jobs_submitted: 100,
            jobs_deferred: 0,
            jobs_completed: 90,
            jobs_slo_violated: 0,
            total_reward: 10_000.0,
            total_cost: 4_000.0,
            profit_per_run,
            reward_to_cost: 2.5,
            mean_latency: 15.0,
            p95_latency: 25.0,
            public_core_tu_share: 0.1,
            worker_utilisation: 0.7,
            mean_queue_len: 3.0,
            peak_queue_len: 20,
            mean_core_stages: 14.0,
            vms_hired: 50,
            reshapes: 0,
            events: 12345,
        }
    }

    #[test]
    fn derived_quantities() {
        let m = metrics(66.0);
        assert!((m.profit() - 6000.0).abs() < 1e-12);
        assert!((m.completion_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn replication_aggregates() {
        let mut r = ReplicatedMetrics::default();
        r.push(metrics(10.0));
        r.push(metrics(20.0));
        r.push(metrics(30.0));
        assert_eq!(r.n(), 3);
        assert!((r.profit_per_run.mean() - 20.0).abs() < 1e-12);
        assert!((r.profit_per_run.stddev() - 10.0).abs() < 1e-12);
        assert_eq!(r.sessions.len(), 3);
    }

    #[test]
    fn zero_submitted_is_safe() {
        let mut m = metrics(0.0);
        m.jobs_submitted = 0;
        assert_eq!(m.completion_rate(), 0.0);
    }
}
