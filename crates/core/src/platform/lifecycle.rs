//! Worker lifecycle: boot completion, the idle-release sweep and the one
//! wakeup that schedules it, and the standing per-shape worker pools
//! topped up from the private tier.

use super::events::{Event, TenantCal};
use super::state::{idle_expired, idle_timeout, next_grid};
use super::Platform;
use crate::config::POOL_HEADROOM;
use scan_cloud::instance::InstanceSize;
use scan_cloud::shared::Watch;
use scan_cloud::tier::TierId;
use scan_cloud::vm::VmKey;
use scan_sched::alloc::AllocationPolicy;
use scan_sched::queue::{shape_slot, N_SHAPES, SHAPE_CORES};
use scan_sim::{SimTime, TraceEvent};
use scan_workload::arrivals::MEAN_JOB_SIZE;
use std::sync::Arc;

impl Platform {
    pub(super) fn on_vm_ready(&mut self, now: SimTime, vm_id: VmKey, sink: &mut TenantCal<'_>) {
        if let Some(class) = self.vm_reserved_for.remove(vm_id) {
            self.pending.decrement_saturating(class.stage, class.cores);
        }
        let vm = self.provider.vm_mut(vm_id).expect("ready event for unknown VM");
        vm.finish_boot(now);
        let (cores, tier) = (vm.size.cores(), vm.tier);
        self.booting.dec(cores);
        self.tracer.emit(now, TraceEvent::VmBooted { vm: vm_id.id.0 as u64, cores });
        if self.finished() {
            // The tenant drained while this worker was booting: return it
            // (and its shared cores) straight to the provider.
            self.provider.release(vm_id, now);
            return;
        }
        self.idle.insert(cores, vm_id, tier, now);
        self.dispatch(now, sink);
    }

    pub(super) fn on_idle_sweep(&mut self, now: SimTime, sink: &mut TenantCal<'_>) {
        self.release_expired(now);
        // Fleet tenants: releases (this tenant's or another's) may have
        // freed shared cores, so the fair-share gate gets a chance to
        // re-admit deferred jobs.
        self.drain_backlog(now, sink);
        if self.arrivals_exhausted() && !self.finished() {
            // Past the arrival cap there is no next arrival to re-trigger
            // dispatch, so a stalled class whose wait no longer holds
            // (a replan, freed private cores, a fallen surge price) is
            // re-priced here; classes whose waits still hold are skipped.
            self.parked = self.parked_watch();
            if self.parked.is_none() {
                self.dispatch(now, sink);
            } else if cfg!(debug_assertions) {
                self.check_parked_waits(now);
            }
        }
        if self.finished() {
            // Run-to-completion teardown: release every idle worker
            // (floors included) so billing stops and the shared pool gets
            // its cores back. A drained tenant schedules nothing further.
            self.teardown(now);
        }
    }

    /// Releases the idle workers past their tier's timeout, in ascending
    /// VM id (ids are unique, so sorting on the id alone is the derived
    /// key order). Each `(tier, shape)` release list is ordered by idle
    /// start, so the expired workers are a prefix of it, walked from its
    /// head. Private pools never shrink below their standing target: of a
    /// shape's expired private workers, only the lowest ids above the
    /// floor go.
    fn release_expired(&mut self, now: SimTime) {
        let mut expired = std::mem::take(&mut self.release_scratch);
        for tier in [TierId::PRIVATE, TierId::PUBLIC] {
            let timeout = idle_timeout(tier);
            for (slot, &cores) in SHAPE_CORES.iter().enumerate() {
                let start = expired.len();
                expired.extend(
                    self.idle
                        .by_idle_start(tier, slot)
                        .take_while(|&(since, _)| idle_expired(since, timeout, now))
                        .map(|(_, vm)| (vm, cores)),
                );
                let n = expired.len() - start;
                if n == 0 {
                    continue;
                }
                if tier == TierId::PRIVATE {
                    let room = self.releasable_private(cores);
                    if room < n {
                        expired[start..].sort_unstable_by_key(|&(vm, _)| vm.id);
                        expired.truncate(start + room);
                    }
                }
            }
        }
        expired.sort_unstable_by_key(|&(vm, _)| vm.id);
        for &(vm_id, cores) in &expired {
            self.idle.remove(cores, vm_id);
            self.provider.release(vm_id, now);
        }
        expired.clear();
        self.release_scratch = expired;
    }

    /// Private workers of `cores` the floor rule lets go: live workers of
    /// the shape (any tier, any state) above its standing target.
    fn releasable_private(&self, cores: u32) -> usize {
        let size = InstanceSize::new(cores).expect("shape slots are instance sizes");
        let floor = self.standing_target.floor_for(cores) as usize;
        self.provider.live_of_size(size).saturating_sub(floor)
    }

    /// Releases every idle worker of a drained fleet tenant, in ascending
    /// VM id. Workers still booting release from `on_vm_ready`; nothing
    /// can be busy (`finished()` implies no live jobs).
    fn teardown(&mut self, now: SimTime) {
        let mut idle = std::mem::take(&mut self.release_scratch);
        idle.extend(self.idle.all().map(|(cores, vm)| (vm, cores)));
        idle.sort_unstable_by_key(|&(vm, _)| vm.id);
        for &(vm_id, cores) in &idle {
            self.idle.remove(cores, vm_id);
            self.provider.release(vm_id, now);
        }
        idle.clear();
        self.release_scratch = idle;
    }

    /// Sets the tenant's one pending sweep to the first grid instant at
    /// or after `from` (strictly after it when `inclusive` is false) at
    /// which a sweep has work, or cancels it, and registers with the
    /// shared pool the changes that would bring it forward.
    ///
    /// A sweep has work when the tenant has drained with idle workers
    /// left (teardown), when its fair-share gate has reopened on a
    /// backlog, when past its arrival cap a stalled class's wait no
    /// longer holds, or when an idle worker times out above its floor.
    /// Everything else that can change those answers is an event of this
    /// tenant (which re-arms as it ends) or a shared-pool release (which
    /// wakes the tenant through its watch), so a sweep never fires
    /// without work and never misses an instant that has it.
    pub(super) fn rearm(&mut self, from: SimTime, inclusive: bool, sink: &mut TenantCal<'_>) {
        let first = next_grid(from, inclusive);
        let mut watch = Watch::default();
        let due = if self.finished() {
            (!self.idle.is_empty()).then_some(first)
        } else if !self.backlog.is_empty() && !self.should_defer() {
            Some(first)
        } else {
            let parked = if self.arrivals_exhausted() { self.parked } else { Some(watch) };
            match parked {
                None => Some(first),
                Some(parked) => {
                    watch = parked;
                    if !self.backlog.is_empty() {
                        // The gate is shut on an exhausted pool: the
                        // first freed core may reopen it.
                        watch.private_free_at_least = Some(1);
                    }
                    self.next_release(first)
                }
            }
        };
        if let Some(lease) = self.provider.shared() {
            lease.borrow_mut().watch(self.tenant, watch);
        }
        sink.set_sweep(due);
    }

    /// [`Platform::rearm`] after a shared-pool change this tenant's watch
    /// asked to hear about: its held waits are checked afresh first.
    pub(super) fn wake(&mut self, from: SimTime, inclusive: bool, sink: &mut TenantCal<'_>) {
        if self.arrivals_exhausted() {
            self.parked = self.parked_watch();
        }
        self.rearm(from, inclusive, sink);
    }

    /// The first grid instant at or after `first` at which an idle
    /// worker times out and the floor rule lets it go.
    ///
    /// The instant before `.max(first)` is memoised: it reads only the
    /// release-list heads, the live workers per shape and the standing
    /// targets, and each of those counts its changes, so while the sum
    /// of the three counts is unchanged the memo holds. Debug builds
    /// recompute it on every hit and assert the two agree.
    fn next_release(&mut self, first: SimTime) -> Option<SimTime> {
        let key = self.idle.head_changes() + self.provider.live_version() + self.standing_resets;
        let due = match self.release_memo {
            Some((at_key, due)) if at_key == key => {
                debug_assert_eq!(due, self.earliest_release(), "stale sweep instant memo");
                due
            }
            _ => {
                let due = self.earliest_release();
                self.release_memo = Some((key, due));
                due
            }
        };
        due.map(|at| at.max(first))
    }

    /// The first grid instant at which an idle worker times out and the
    /// floor rule lets it go, with no lower bound.
    fn earliest_release(&self) -> Option<SimTime> {
        let mut due: Option<SimTime> = None;
        for (tier, slot, at) in self.idle.expiries() {
            if due.is_some_and(|d| d <= at)
                || tier == TierId::PRIVATE && self.releasable_private(SHAPE_CORES[slot]) == 0
            {
                continue;
            }
            due = Some(at);
        }
        due
    }

    /// Sizes the per-shape standing pools from the representative plan and
    /// the load forecast: stage `i` keeps `headroom · λ · s_i · T_i`
    /// workers of its shape on standby, so the base flow is served without
    /// boot waits and idle churn. Tops pools up from the private tier
    /// (standing capacity is the owned cluster; the public tier stays
    /// reactive).
    pub(super) fn resize_standing_pools(&mut self, now: SimTime, sink: &mut TenantCal<'_>) {
        if self.arrivals_exhausted() {
            // Capped fleet tenant past its last arrival: stop forecasting
            // standing demand so the floors drop and the idle sweep can
            // wind the pools down as the tail of jobs drains.
            self.standing_target.clear();
            self.standing_resets += 1;
            return;
        }
        let plan = match (&self.forced_plan, &self.learned) {
            (Some(plan), _) => Arc::clone(plan),
            (None, Some(planner)) => Arc::clone(planner.best_plan()),
            (None, None) => {
                let ctx = self.allocation_context(self.broker.learned_model());
                self.allocator.plan_for(MEAN_JOB_SIZE, now, &ctx)
            }
        };
        let adaptive = self.cfg.variable.allocation == AllocationPolicy::LongTermAdaptive;
        let (rate, mean_size) = if adaptive {
            (self.observed_rate, self.observed_size)
        } else {
            (self.cfg.arrival_config().mean_job_rate(), MEAN_JOB_SIZE)
        };
        let model = self.broker.learned_model();
        let mut target = [0.0f64; N_SHAPES];
        for (i, &(s, t)) in plan.stages.iter().enumerate() {
            let d_gb = model.units_to_gb(mean_size) / s as f64;
            let task_tu =
                model.stage_latency(i, mean_size, s, t) + self.broker.staging_time(d_gb).as_tu();
            target[shape_slot(t)] += rate * s as f64 * task_tu;
        }
        self.standing_target.clear();
        self.standing_resets += 1;
        for (slot, &busy_vms) in target.iter().enumerate() {
            if busy_vms > 0.0 {
                self.standing_target.set(
                    scan_sched::queue::SHAPE_CORES[slot],
                    (POOL_HEADROOM * busy_vms).ceil() as u32,
                );
            }
        }

        // Top pools up from the private tier (ascending shapes, the old
        // keyed iteration order).
        for (cores, want) in self.standing_target.iter() {
            if want == 0 {
                continue;
            }
            let size = InstanceSize::new(cores).expect("plan shapes are instance sizes");
            let live = self.provider.live_of_size(size);
            for _ in live..(want as usize) {
                match self.provider.hire_on(TierId::PRIVATE, size, now) {
                    Ok((vm_id, ready_at)) => {
                        self.booting.inc(cores);
                        sink.schedule_in_order(ready_at, Event::VmReady(vm_id));
                    }
                    Err(_) => break, // private tier full: pools stay short
                }
            }
        }
    }
}
