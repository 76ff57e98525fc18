//! Admission and planning: batch arrivals, plan selection per job, stage
//! enqueueing, and the periodic replan tick that refreshes models and
//! closes learned-policy epochs.

use super::events::{Event, JobRun, TenantCal};
use super::Platform;
use crate::config::REPLAN_PERIOD_TU;
use scan_cloud::tier::{TierId, PRIVATE_CORE_COST};
use scan_sched::alloc::{AllocationContext, AllocationPolicy};
use scan_sched::queue::TaskClass;
use scan_sim::{SimDuration, SimTime, TraceEvent};
use scan_workload::arrivals::MEAN_JOB_SIZE;
use scan_workload::gatk::PipelineModel;
use scan_workload::job::Job;
use std::sync::Arc;

impl Platform {
    pub(super) fn on_arrival(&mut self, now: SimTime, sink: &mut TenantCal<'_>) {
        // The batch buffer is the platform's, reused across arrivals; it
        // is taken out for the loop because admitting borrows `self`.
        let mut batch = std::mem::take(&mut self.arrival_batch);
        let at = self.arrivals.next_batch(&mut batch);
        debug_assert_eq!(at, now);

        // Online arrival-rate estimate (jobs/TU) for the adaptive policy.
        let gap = (now - self.last_arrival_at).as_tu().max(1e-6);
        let inst_rate = batch.len() as f64 / gap;
        self.observed_rate = 0.05 * inst_rate + 0.95 * self.observed_rate;
        self.last_arrival_at = now;

        let mut deferred = 0u32;
        for job in batch.drain(..) {
            if self.arrivals_exhausted() {
                // Capped tenant: the batch tail past the cap never enters
                // the system.
                break;
            }
            self.taken_jobs += 1;
            self.observed_size = 0.05 * job.size_units + 0.95 * self.observed_size;
            if self.should_defer() {
                self.backlog.push(job);
                deferred += 1;
            } else {
                self.admit(job, now);
            }
        }
        self.arrival_batch = batch;
        if deferred > 0 {
            self.ledger.deferred += u64::from(deferred);
            self.tracer.emit(
                now,
                TraceEvent::AdmissionDeferred {
                    tenant: self.tenant.0 as u32,
                    jobs: deferred,
                    backlog: self.backlog.len() as u32,
                },
            );
        }
        if !self.arrivals_exhausted() {
            sink.schedule(self.arrivals.next_arrival_at(), Event::Arrival);
        }
        self.dispatch(now, sink);
    }

    /// The fair-share admission gate (fleet tenants only): defer new
    /// jobs while the shared private pool is exhausted and this tenant
    /// already holds at least its fair share of it. The gate never
    /// closes on a tenant with nothing in flight — an idle tenant always
    /// makes progress (its jobs can still buy public cores), which is
    /// what keeps every deferred job's eventual admission live.
    pub(super) fn should_defer(&self) -> bool {
        if self.jobs.is_empty() {
            return false;
        }
        let Some(lease) = self.provider.shared() else {
            return false;
        };
        let pool = lease.borrow();
        pool.free_private() == 0 && pool.used_by(self.tenant) >= pool.fair_share()
    }

    /// Re-admits deferred jobs once the fair-share gate has cleared
    /// (called from the idle sweep, right after worker releases have
    /// returned cores to the shared pool).
    pub(super) fn drain_backlog(&mut self, now: SimTime, sink: &mut TenantCal<'_>) {
        if self.backlog.is_empty() {
            return;
        }
        let mut resumed = 0u32;
        while !self.backlog.is_empty() && !self.should_defer() {
            let job = self.backlog.pop().expect("backlog checked non-empty");
            self.admit(job, now);
            resumed += 1;
        }
        if resumed > 0 {
            self.tracer.emit(
                now,
                TraceEvent::AdmissionResumed {
                    tenant: self.tenant.0 as u32,
                    jobs: resumed,
                    backlog: self.backlog.len() as u32,
                },
            );
            self.dispatch(now, sink);
        }
    }

    fn admit(&mut self, job: Job, now: SimTime) {
        self.ledger.submitted += 1;
        self.tracer.emit(
            now,
            TraceEvent::JobArrived {
                job: job.id.0 as u64,
                size_units: job.size_units,
                submitted_tu: job.submitted_at.as_tu(),
            },
        );
        let plan = match (&self.forced_plan, &self.learned) {
            (Some(plan), _) => Arc::clone(plan),
            (None, Some(planner)) => {
                // Epoch discipline: reuse the epoch's arm.
                let idx = match self.learned_arm {
                    Some(idx) => idx,
                    None => {
                        let (idx, _) = planner.select(&mut self.learned_rng);
                        self.learned_arm = Some(idx);
                        idx
                    }
                };
                Arc::clone(planner.arm_plan(idx))
            }
            (None, None) => {
                // The context borrows only the `broker` field, so the
                // allocator (another field) can borrow mutably beside it.
                let ctx = self.allocation_context(self.broker.learned_model());
                self.allocator.plan_for(job.size_units, now, &ctx)
            }
        };
        let slot = self.jobs.insert(JobRun { job, plan, stage: 0, outstanding: 0 });
        self.enqueue_stage(slot, now);
    }

    pub(super) fn allocation_context<'a>(&self, model: &'a PipelineModel) -> AllocationContext<'a> {
        let adaptive = self.cfg.variable.allocation == AllocationPolicy::LongTermAdaptive;
        let (arrival_rate, mean_job_size, steady_overhead) = if adaptive {
            (self.observed_rate, self.observed_size, self.estimator.queue_times().eqt_tail(0))
        } else {
            (self.cfg.arrival_config().mean_job_rate(), MEAN_JOB_SIZE, 1.0)
        };
        // Plans are priced at overhead-inflated rates: a hired core·TU of
        // work costs more than the raw tier price once boot and idle time
        // are amortised in.
        let f = self.cfg.fixed.overhead_price_factor;
        AllocationContext {
            model,
            reward: self.reward,
            private_price: PRIVATE_CORE_COST * f,
            public_price: self.cfg.variable.public_core_cost * f,
            private_capacity: self.cfg.fixed.private_capacity_cores,
            private_free_now: self.provider.free_cores(TierId::PRIVATE) > 0,
            current_overhead_tu: self.estimator.queue_times().eqt_tail(0),
            arrival_rate,
            mean_job_size,
            steady_overhead_tu: steady_overhead,
        }
    }

    /// Queues the current stage of the job in `slot`.
    pub(super) fn enqueue_stage(&mut self, slot: u32, now: SimTime) {
        let run = self.jobs.get_mut(slot).expect("enqueue_stage for unknown job");
        let (shards, threads) = run.plan.stage(run.stage);
        run.outstanding = shards;
        let stage = run.stage;
        let (id, d, submitted) = (run.job.id, run.job.size_units, run.job.submitted_at);
        let class = TaskClass { stage, cores: threads };
        self.queues.push_batch(class, slot, shards, d, submitted, now);
        self.tracer.emit(
            now,
            TraceEvent::JobStageAdvanced {
                job: id.0 as u64,
                stage: stage as u32,
                shards,
                cores: threads,
            },
        );
        self.sample_queue_depth(now);
    }

    pub(super) fn on_replan(&mut self, now: SimTime, sink: &mut TenantCal<'_>) {
        // The refresh below and the pool resize may change what a wait
        // was decided on.
        self.replans += 1;
        if self.cfg.variable.allocation == AllocationPolicy::LongTermAdaptive {
            self.broker.refresh_model();
            self.estimator.set_model(self.broker.learned_model().clone());
        }
        // §VI learned policy: close the epoch — score the arm with the
        // epoch's realised profit per completed run, then pick the next
        // epoch's arm.
        if let Some(planner) = &mut self.learned {
            let cost_now = self.provider.total_cost(now);
            let (r0, c0, n0) = self.epoch_start;
            let completed = self.ledger.completed - n0;
            if let Some(arm) = self.learned_arm {
                if completed > 0 {
                    let profit = (self.ledger.total_reward - r0) - (cost_now - c0);
                    planner.update(arm, profit / completed as f64);
                }
            }
            self.epoch_start = (self.ledger.total_reward, cost_now, self.ledger.completed);
            let (idx, _) = planner.select(&mut self.learned_rng);
            self.learned_arm = Some(idx);
        }
        // `run_tenants` drops a drained tenant's tick, so the tenant
        // still has work and keeps ticking.
        debug_assert!(!self.finished(), "a drained tenant's replan fired");
        if self.arrivals_exhausted() {
            self.parked = self.parked_watch();
        }
        self.resize_standing_pools(now, sink);
        sink.schedule(now + SimDuration::new(REPLAN_PERIOD_TU), Event::Replan);
    }
}
