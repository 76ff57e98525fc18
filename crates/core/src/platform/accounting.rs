//! The reward/cost ledger: job completion, end-of-run settlement, and the
//! session's [`SessionMetrics`]. The platform counts each fact where it
//! happens (the site that also narrates it) and reads cost, core·TU and
//! hires from its provider at the end; observers only ever see the
//! narration.

use super::events::JobRun;
use super::Platform;
use crate::metrics::SessionMetrics;
use scan_cloud::tier::TierId;
use scan_sim::stats::{Histogram, OnlineStats, TimeWeighted};
use scan_sim::{SimTime, TraceEvent};

/// What the platform counts of its session; the provider holds the rest
/// of [`SessionMetrics`].
pub(super) struct Ledger {
    /// Jobs admitted (`job_arrived`).
    pub(super) submitted: u64,
    /// Jobs the fair-share gate deferred (`admission_deferred`).
    pub(super) deferred: u64,
    /// Jobs completed; the learned-epoch scoring reads it too.
    pub(super) completed: u64,
    slo_violated: u64,
    /// Reward earned, summed in completion order; the learned-epoch
    /// scoring reads it too.
    pub(super) total_reward: f64,
    latency_stats: OnlineStats,
    latency_hist: Histogram,
    core_stage_stats: OnlineStats,
    /// The total queue length, set at every `queue_depth` sample.
    pub(super) queue_len: TimeWeighted,
    /// Σ cores × busy time of every dispatched subtask.
    pub(super) busy_core_tu: f64,
    /// Reshapes the provider accepted.
    pub(super) reshapes: u64,
}

impl Ledger {
    pub(super) fn new() -> Ledger {
        Ledger {
            submitted: 0,
            deferred: 0,
            completed: 0,
            slo_violated: 0,
            total_reward: 0.0,
            latency_stats: OnlineStats::new(),
            latency_hist: Histogram::new(0.0, 400.0, 800),
            core_stage_stats: OnlineStats::new(),
            queue_len: TimeWeighted::new(0.0),
            busy_core_tu: 0.0,
            reshapes: 0,
        }
    }
}

impl Platform {
    pub(super) fn complete(&mut self, run: JobRun, now: SimTime) {
        let latency = run.job.latency(now);
        let reward = self.reward.reward(run.job.size_units, latency);
        let core_stages = run.plan.total_core_stages() as f64;
        let ledger = &mut self.ledger;
        ledger.completed += 1;
        ledger.total_reward += reward;
        ledger.latency_stats.push(latency);
        ledger.latency_hist.record(latency);
        ledger.core_stage_stats.push(core_stages);
        self.tracer.emit(
            now,
            TraceEvent::JobCompleted {
                job: run.job.id.0 as u64,
                latency_tu: latency,
                reward,
                core_stages,
            },
        );
        if let Some(target) = self.cfg.slo_target_tu {
            if latency > target {
                self.ledger.slo_violated += 1;
                self.tracer.emit(
                    now,
                    TraceEvent::SloViolation {
                        job: run.job.id.0 as u64,
                        latency_tu: latency,
                        target_tu: target,
                    },
                );
            }
        }
    }

    /// Settles billing, closes the trace stream, and closes the ledger
    /// into the session's metrics.
    pub(crate) fn finish(self, ended_at: SimTime, events: u64) -> SessionMetrics {
        // Summed private tier first, then public: the order the
        // `tier_settled` events narrate them in.
        let (mut total_cost, mut total_core_tu, mut public_core_tu) = (0.0, 0.0, 0.0);
        let totals = self.provider.tier_totals(ended_at);
        for tier in [TierId::PRIVATE, TierId::PUBLIC] {
            let (cost, core_tu) = totals[tier.0];
            total_cost += cost;
            total_core_tu += core_tu;
            if tier == TierId::PUBLIC {
                public_core_tu += core_tu;
            }
            self.tracer
                .emit(ended_at, TraceEvent::TierSettled { tier: tier.0 as u32, cost, core_tu });
        }
        self.tracer.emit(ended_at, TraceEvent::RunEnded { events_dispatched: events });

        let l = &self.ledger;
        let share = |part: f64| if total_core_tu > 0.0 { part / total_core_tu } else { 0.0 };
        SessionMetrics {
            jobs_submitted: l.submitted,
            jobs_deferred: l.deferred,
            jobs_completed: l.completed,
            jobs_slo_violated: l.slo_violated,
            total_reward: l.total_reward,
            total_cost,
            profit_per_run: if l.completed == 0 {
                0.0
            } else {
                (l.total_reward - total_cost) / l.completed as f64
            },
            reward_to_cost: if total_cost > 0.0 { l.total_reward / total_cost } else { 0.0 },
            mean_latency: l.latency_stats.mean(),
            p95_latency: l.latency_hist.quantile(0.95),
            public_core_tu_share: share(public_core_tu),
            worker_utilisation: share(l.busy_core_tu).min(1.0),
            mean_queue_len: l.queue_len.average_until(ended_at),
            peak_queue_len: l.queue_len.peak() as usize,
            mean_core_stages: l.core_stage_stats.mean(),
            vms_hired: self.provider.hired_total(),
            reshapes: l.reshapes,
            events,
        }
    }
}
