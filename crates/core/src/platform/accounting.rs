//! The reward/cost ledger: job completion, end-of-run settlement, and the
//! trace-consuming [`MetricsAggregator`] that turns the session's event
//! stream into [`SessionMetrics`].

use super::events::JobRun;
use super::Platform;
use crate::metrics::SessionMetrics;
use scan_sim::stats::{Histogram, OnlineStats, TimeWeighted};
use scan_sim::{Observer, SimTime, TraceEvent};

impl Platform {
    pub(super) fn complete(&mut self, run: JobRun, now: SimTime) {
        let latency = run.job.latency(now);
        let reward = self.reward.reward(run.job.size_units, latency);
        self.total_reward += reward;
        self.completed += 1;
        self.tracer.emit(
            now,
            TraceEvent::JobCompleted {
                job: run.job.id.0 as u64,
                latency_tu: latency,
                reward,
                core_stages: run.plan.total_core_stages() as f64,
            },
        );
        if let Some(target) = self.cfg.slo_target_tu {
            if latency > target {
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

    /// Settles billing, closes the trace stream, and reads the session's
    /// metrics out of the aggregator.
    pub(crate) fn finish(self, ended_at: SimTime, events: u64) -> SessionMetrics {
        for tier in [self.private_tier, self.public_tier] {
            self.tracer.emit(
                ended_at,
                TraceEvent::TierSettled {
                    tier: tier.0 as u32,
                    cost: self.provider.cost_on_tier(tier, ended_at),
                    core_tu: self.provider.core_tu_on_tier(tier, ended_at),
                },
            );
        }
        self.tracer.emit(ended_at, TraceEvent::RunEnded { events_dispatched: events });
        let metrics = self.aggregator.borrow().finalize();
        metrics
    }
}

/// Builds [`SessionMetrics`] from the trace stream alone: the platform
/// emits, this observer counts. Every session owns one (attached before
/// any other observer), and [`MetricsAggregator::finalize`] is read after
/// [`TraceEvent::RunEnded`] arrives.
#[derive(Debug)]
pub struct MetricsAggregator {
    submitted: u64,
    deferred: u64,
    completed: u64,
    slo_violated: u64,
    total_reward: f64,
    latency_stats: OnlineStats,
    latency_hist: Histogram,
    core_stage_stats: OnlineStats,
    queue_len_tw: TimeWeighted,
    busy_core_tu: f64,
    vms_hired: u64,
    reshapes: u64,
    total_cost: f64,
    total_core_tu: f64,
    public_core_tu: f64,
    ended_at: SimTime,
    events: u64,
}

impl Default for MetricsAggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsAggregator {
    /// An empty aggregator, ready to observe one session.
    pub fn new() -> Self {
        MetricsAggregator {
            submitted: 0,
            deferred: 0,
            completed: 0,
            slo_violated: 0,
            total_reward: 0.0,
            latency_stats: OnlineStats::new(),
            latency_hist: Histogram::new(0.0, 400.0, 800),
            core_stage_stats: OnlineStats::new(),
            queue_len_tw: TimeWeighted::new(0.0),
            busy_core_tu: 0.0,
            vms_hired: 0,
            reshapes: 0,
            total_cost: 0.0,
            total_core_tu: 0.0,
            public_core_tu: 0.0,
            ended_at: SimTime::ZERO,
            events: 0,
        }
    }

    /// The assembled session metrics. Valid once the run has ended (the
    /// settlement and run-end events carry the final cost figures).
    pub fn finalize(&self) -> SessionMetrics {
        let profit_per_run = if self.completed == 0 {
            0.0
        } else {
            (self.total_reward - self.total_cost) / self.completed as f64
        };
        SessionMetrics {
            jobs_submitted: self.submitted,
            jobs_deferred: self.deferred,
            jobs_completed: self.completed,
            jobs_slo_violated: self.slo_violated,
            total_reward: self.total_reward,
            total_cost: self.total_cost,
            profit_per_run,
            reward_to_cost: if self.total_cost > 0.0 {
                self.total_reward / self.total_cost
            } else {
                0.0
            },
            mean_latency: self.latency_stats.mean(),
            p95_latency: self.latency_hist.quantile(0.95),
            public_core_tu_share: if self.total_core_tu > 0.0 {
                self.public_core_tu / self.total_core_tu
            } else {
                0.0
            },
            worker_utilisation: if self.total_core_tu > 0.0 {
                (self.busy_core_tu / self.total_core_tu).min(1.0)
            } else {
                0.0
            },
            mean_queue_len: self.queue_len_tw.average_until(self.ended_at),
            peak_queue_len: self.queue_len_tw.peak() as usize,
            mean_core_stages: self.core_stage_stats.mean(),
            vms_hired: self.vms_hired,
            reshapes: self.reshapes,
            events: self.events,
        }
    }
}

impl Observer for MetricsAggregator {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::JobArrived { .. } => self.submitted += 1,
            TraceEvent::AdmissionDeferred { jobs, .. } => self.deferred += jobs as u64,
            TraceEvent::JobCompleted { latency_tu, reward, core_stages, .. } => {
                self.completed += 1;
                self.total_reward += reward;
                self.latency_stats.push(latency_tu);
                self.latency_hist.record(latency_tu);
                self.core_stage_stats.push(core_stages);
            }
            TraceEvent::SloViolation { .. } => self.slo_violated += 1,
            TraceEvent::SubtaskDispatched { cores, busy_tu, .. } => {
                self.busy_core_tu += cores as f64 * busy_tu;
            }
            TraceEvent::VmHired { .. } => self.vms_hired += 1,
            TraceEvent::VmReshaped { .. } => self.reshapes += 1,
            TraceEvent::QueueDepthSampled { depth } => {
                self.queue_len_tw.set(at, depth as f64);
            }
            TraceEvent::TierSettled { tier, cost, core_tu } => {
                self.total_cost += cost;
                self.total_core_tu += core_tu;
                if tier != 0 {
                    self.public_core_tu += core_tu;
                }
            }
            TraceEvent::RunEnded { events_dispatched } => {
                self.ended_at = at;
                self.events = events_dispatched;
            }
            _ => {}
        }
    }
}
