//! Worker lifecycle: boot completion, the idle-release sweep, and the
//! standing per-shape worker pools topped up from the private tier.

use super::events::{Event, EventSink};
use super::Platform;
use scan_cloud::instance::InstanceSize;
use scan_cloud::vm::VmId;
use scan_sched::alloc::AllocationPolicy;
use scan_sched::plan::ExecutionPlan;
use scan_sched::queue::{shape_slot, N_SHAPES};
use scan_sim::{SimDuration, SimTime, TraceEvent};

impl Platform {
    pub(super) fn on_vm_ready(&mut self, now: SimTime, vm_id: VmId, sink: &mut impl EventSink) {
        if let Some(class) = self.vm_reserved_for.remove(vm_id.slot()) {
            self.pending.decrement_saturating(class.stage, class.cores);
        }
        let vm = self.provider.vm_mut(vm_id).expect("ready event for unknown VM");
        vm.finish_boot(now);
        let cores = vm.size.cores();
        self.booting.dec(cores);
        self.tracer.emit(now, TraceEvent::VmBooted { vm: vm_id.0 as u64, cores });
        if self.finished() {
            // The tenant drained while this worker was booting: return it
            // (and its shared cores) straight to the provider.
            self.provider.release(vm_id, now);
            return;
        }
        self.idle.insert(cores, vm_id);
        self.dispatch(now, sink);
    }

    pub(super) fn on_idle_sweep(&mut self, now: SimTime, sink: &mut impl EventSink) {
        let public_timeout = SimDuration::new(self.cfg.fixed.public_idle_timeout_tu);
        let private_timeout = SimDuration::new(self.cfg.fixed.idle_timeout_tu);
        let mut live = [0usize; N_SHAPES];
        for vm in self.provider.vms() {
            live[shape_slot(vm.size.cores())] += 1;
        }
        for vm_id in self.provider.idle_candidates(now, public_timeout.min(private_timeout)) {
            let vm = self.provider.vm(vm_id).expect("candidate exists");
            let timeout =
                if vm.tier == self.public_tier { public_timeout } else { private_timeout };
            if vm.idle_span(now) < timeout {
                continue;
            }
            let cores = vm.size.cores();
            // Private pools never shrink below their standing target;
            // public workers are always releasable.
            if vm.tier == self.private_tier {
                let floor = self.standing_target.floor_for(cores) as usize;
                let alive = &mut live[shape_slot(cores)];
                if *alive <= floor {
                    continue;
                }
                *alive -= 1;
            }
            self.idle.remove(cores, vm_id);
            self.provider.release(vm_id, now);
        }
        // Fleet tenants: releases above may have freed shared cores, so
        // the fair-share gate gets a chance to re-admit deferred jobs.
        self.drain_backlog(now, sink);
        if self.arrivals_exhausted() && !self.finished() {
            // Past the arrival cap there is no next arrival to re-trigger
            // dispatch, so a queue whose last scaling decision was "wait"
            // (e.g. while the surged public price was prohibitive) would
            // starve. Re-evaluate on the sweep cadence instead: as other
            // tenants drain and contention falls, waiting queues get
            // their hire.
            self.dispatch(now, sink);
        }
        if self.finished() {
            // Run-to-completion teardown: release every idle worker
            // (floors included) so billing stops and the shared pool gets
            // its cores back, and stop the periodic tick — a drained
            // tenant schedules nothing further.
            self.teardown(now);
        } else {
            sink.schedule(now + SimDuration::new(0.5), Event::IdleSweep);
        }
    }

    /// Releases every idle worker of a drained fleet tenant. Workers
    /// still booting release from `on_vm_ready`; nothing can be busy
    /// (`finished()` implies no live jobs).
    fn teardown(&mut self, now: SimTime) {
        for vm_id in self.provider.idle_candidates(now, SimDuration::new(0.0)) {
            let cores = self.provider.vm(vm_id).expect("candidate exists").size.cores();
            self.idle.remove(cores, vm_id);
            self.provider.release(vm_id, now);
        }
    }

    /// Sizes the per-shape standing pools from the representative plan and
    /// the load forecast: stage `i` keeps `headroom · λ · s_i · T_i`
    /// workers of its shape on standby, so the base flow is served without
    /// boot waits and idle churn. Tops pools up from the private tier
    /// (standing capacity is the owned cluster; the public tier stays
    /// reactive).
    pub(super) fn resize_standing_pools(&mut self, now: SimTime, sink: &mut impl EventSink) {
        if self.arrivals_exhausted() {
            // Capped fleet tenant past its last arrival: stop forecasting
            // standing demand so the floors drop and the idle sweep can
            // wind the pools down as the tail of jobs drains.
            self.standing_target.clear();
            return;
        }
        let plan = match (&self.cfg.forced_plan, &self.learned) {
            (Some(stages), _) => ExecutionPlan::new(stages.clone()),
            (None, Some(planner)) => planner.best_plan().clone(),
            (None, None) => {
                let model = self.broker.learned_model().clone();
                let ctx = self.allocation_context(&model);
                self.allocator.plan_for(self.cfg.fixed.mean_job_size, now, &ctx)
            }
        };
        let adaptive = self.cfg.variable.allocation == AllocationPolicy::LongTermAdaptive;
        let (rate, mean_size) = if adaptive {
            (self.observed_rate, self.observed_size)
        } else {
            (self.cfg.arrival_config().mean_job_rate(), self.cfg.fixed.mean_job_size)
        };
        let model = self.broker.learned_model().clone();
        let mut target = [0.0f64; N_SHAPES];
        for (i, &(s, t)) in plan.stages.iter().enumerate() {
            let d_gb = model.units_to_gb(mean_size) / s as f64;
            let task_tu =
                model.stage_latency(i, mean_size, s, t) + self.broker.staging_time(d_gb).as_tu();
            target[shape_slot(t)] += rate * s as f64 * task_tu;
        }
        self.standing_target.clear();
        for (slot, &busy_vms) in target.iter().enumerate() {
            if busy_vms > 0.0 {
                self.standing_target.set(
                    scan_sched::queue::SHAPE_CORES[slot],
                    (self.cfg.fixed.pool_headroom * busy_vms).ceil() as u32,
                );
            }
        }

        // Top pools up from the private tier (ascending shapes, the old
        // keyed iteration order).
        for (cores, want) in self.standing_target.iter().collect::<Vec<_>>() {
            if want == 0 {
                continue;
            }
            let live = self.live_count_by_size(cores);
            let size = InstanceSize::new(cores).expect("plan shapes are instance sizes");
            for _ in live..(want as usize) {
                match self.provider.hire_on(self.private_tier, size, now) {
                    Ok((vm_id, ready_at)) => {
                        self.booting.inc(cores);
                        sink.schedule(ready_at, Event::VmReady(vm_id));
                    }
                    Err(_) => break, // private tier full: pools stay short
                }
            }
        }
    }

    fn live_count_by_size(&self, cores: u32) -> usize {
        self.provider.vms().filter(|vm| vm.size.cores() == cores).count()
    }
}
