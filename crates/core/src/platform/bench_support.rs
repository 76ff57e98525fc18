//! Bench-only harness over the platform's dispatch and hiring hot paths.
//!
//! perfbench's traced run (`sched.assign_ns`, `sched.decide_ns`,
//! `sched.queue_maint_ns`) times `assign` (the dispatch inner loop), the
//! queue-priced scaling decision (the hiring path) and the class queue's
//! pop/re-queue round trip *in isolation*, on a platform frozen mid-run —
//! but those methods and the fields they touch are platform-internal by
//! design. This module is the narrow, `doc(hidden)` window it goes
//! through: it builds a mid-run state (idle pool, busy set, queued jobs)
//! and exposes one iterable operation per hot path, each of which
//! restores the state it perturbs so it can be called millions of times.
//!
//! Not a public API: shapes and semantics here follow the benchmark, not
//! the platform's contracts.

use super::events::{JobRun, TenantCal};
use super::Platform;
use crate::config::{ScanConfig, VariableParams};
use scan_cloud::instance::InstanceSize;
use scan_cloud::tier::TierId;
use scan_cloud::vm::boot_penalty;
use scan_sched::plan::ExecutionPlan;
use scan_sched::queue::TaskClass;
use scan_sched::scaling::{ScalingContext, ScalingPolicy};
use scan_sim::{Calendar, SimDuration, SimTime};
use scan_workload::job::{Job, JobId};
use std::sync::Arc;

/// Worker shape every harness task uses (a valid instance size).
const CORES: u32 = 4;

/// A platform frozen in a mid-run state, exposing one repeatable
/// operation per benched hot path.
pub struct PlatformHarness {
    platform: Platform,
    cal: Calendar<super::Event>,
    now: SimTime,
    class: TaskClass,
}

impl PlatformHarness {
    /// Builds a platform with `idle_workers` booted 4-core workers in the
    /// idle pool, `busy_workers` running tasks (populating the projected-
    /// wait scan), and `queued_jobs` distinct single-subtask jobs waiting
    /// in one task class.
    pub fn new(idle_workers: usize, busy_workers: usize, queued_jobs: usize) -> Self {
        let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), 42);
        cfg.fixed.sim_time_tu = 1.0;
        // Room for the harness workers on the private tier regardless of
        // the configured counts.
        cfg.fixed.private_capacity_cores =
            (CORES as usize * (idle_workers + busy_workers + 8)) as u32;
        let mut p = Platform::new(cfg, 0);
        let now = SimTime::new(1.0);
        let class = TaskClass { stage: 0, cores: CORES };
        let size = InstanceSize::new(CORES).expect("harness shape is an instance size");

        for _ in 0..idle_workers {
            let (vm, ready_at) = p
                .provider
                .hire_on(TierId::PRIVATE, size, SimTime::ZERO)
                .expect("private capacity sized above");
            p.provider.vm_mut(vm).expect("just hired").finish_boot(ready_at);
            p.idle.insert(CORES, vm, TierId::PRIVATE, ready_at);
        }
        for i in 0..busy_workers {
            let (vm, ready_at) =
                p.provider.hire_on(TierId::PRIVATE, size, SimTime::ZERO).expect("capacity");
            let worker = p.provider.vm_mut(vm).expect("just hired");
            worker.finish_boot(ready_at);
            worker.start_task(ready_at);
            // Staggered finish times so the projected-wait scan does real
            // comparisons instead of hitting one constant.
            p.busy.insert(vm, now + SimDuration::new(1.0 + 0.01 * i as f64), CORES);
        }
        // One 4-core shard per stage — shaped like `class` at stage 0 —
        // shared by every queued job, as the allocator shares its plans.
        let plan =
            Arc::new(ExecutionPlan::new(vec![(1, CORES); p.broker.learned_model().n_stages()]));
        for i in 0..queued_jobs {
            // Dense ids from zero, matching arrival numbering.
            let job = Job::new(JobId(i as u32), 5.0, SimTime::ZERO);
            let (d, submitted) = (job.size_units, job.submitted_at);
            let plan = Arc::clone(&plan);
            let slot = p.jobs.insert(JobRun { job, plan, stage: 0, outstanding: 1 });
            p.queues.push_batch(class, slot, 1, d, submitted, SimTime::ZERO);
        }

        PlatformHarness { platform: p, cal: Calendar::new(), now, class }
    }

    /// One full `assign`: pops the queue head onto an idle worker and
    /// schedules its completion, then restores the state (worker back to
    /// idle, subtask re-queued, calendar drained) so the next iteration
    /// sees the same picture. Returns the assigned VM number.
    pub fn assign_cycle(&mut self) -> u64 {
        let head = self.platform.queues.head(self.class).expect("harness keeps queued jobs");
        let vm = self.platform.take_idle(CORES).expect("idle worker");
        let tenant = self.platform.tenant;
        let sink = &mut TenantCal { cal: &mut self.cal, tenant };
        self.platform.assign(self.class, vm, self.now, sink);
        // Undo: the assign popped `head`, scheduled one SubtaskDone and
        // marked the worker busy. All harness jobs are identical, so
        // re-queueing the popped subtask at the tail restores an
        // equivalent state.
        self.cal.clear();
        self.platform.busy.remove(vm, CORES);
        let worker = self.platform.provider.vm_mut(vm).expect("assigned VM");
        worker.finish_task(self.now);
        self.platform.idle.insert(CORES, vm, TierId::PRIVATE, self.now);
        let run = self.platform.jobs.get(head).expect("queued job is live");
        let (d, submitted) = (run.job.size_units, run.job.submitted_at);
        self.platform.queues.push_batch(self.class, head, 1, d, submitted, self.now);
        vm.id.0 as u64
    }

    /// One hiring-path pricing pass: revalidates the Eq. 1 window if the
    /// reward needs ETTs, gathers the scalar inputs, builds the queue's
    /// pricer over the stalled class and runs the priced decision —
    /// exactly what `try_grow` pays per decision in a release build.
    /// Returns the number of jobs in the priced window (black-box fodder).
    pub fn price_decision(&mut self) -> usize {
        let p = &mut self.platform;
        if p.reward.depends_on_ett() {
            let Platform { queues, estimator, jobs, .. } = p;
            let revision = estimator.revision();
            queues.revalidate_window(self.class, 0, Platform::MAX_QUEUE_VIEW, revision, |job| {
                let run = jobs.get(job).expect("queued job is live");
                estimator.remaining(&run.job, run.stage, &run.plan.stages)
            });
        }
        let inputs = p.scaling_inputs(self.class, self.now);
        let eq1 = p.queues.pricer(self.class, 0, Platform::MAX_QUEUE_VIEW, self.now);
        let window = eq1.window_len();
        let ctx = ScalingContext {
            private_has_capacity: inputs.private_has_capacity,
            eq1,
            expected_wait_tu: inputs.expected_wait_tu,
            public_price_per_core_tu: p.cfg.variable.public_core_cost,
            cores_needed: self.class.cores,
            boot_penalty_tu: boot_penalty().as_tu(),
            expected_task_tu: inputs.expected_task_tu,
            reward: p.reward,
        };
        let (_decision, _costs) = p.cfg.variable.scaling.decide_priced(&ctx);
        window
    }

    /// One queue-maintenance round trip: pops the class head and
    /// re-queues it at the tail — the bookkeeping every real
    /// dequeue/enqueue pair pays, Eq. 1 terms included. Returns the
    /// queue length (black-box fodder).
    pub fn queue_maintenance_cycle(&mut self) -> usize {
        let p = &mut self.platform;
        let (job, _wait) = p.queues.pop(self.class, self.now).expect("harness keeps queued jobs");
        let run = p.jobs.get(job).expect("queued job is live");
        let (d, submitted) = (run.job.size_units, run.job.submitted_at);
        p.queues.push_batch(self.class, job, 1, d, submitted, self.now);
        p.queues.len(self.class)
    }
}
