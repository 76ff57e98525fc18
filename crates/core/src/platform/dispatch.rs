//! Dispatch: matching queued shard subtasks to idle same-shape workers
//! and advancing jobs as their subtasks finish.

use super::events::{Event, TenantCal};
use super::hiring::park;
use super::Platform;
use scan_cloud::shared::Watch;
use scan_cloud::vm::VmKey;
use scan_kb::ProfileRecord;
use scan_sched::alloc::AllocationPolicy;
use scan_sched::queue::{TaskClass, SHAPE_CORES};
use scan_sim::{prof, SimDuration, SimTime, TraceEvent};
use std::borrow::Cow;

impl Platform {
    pub(super) fn take_idle(&mut self, cores: u32) -> Option<VmKey> {
        self.idle.take_min(cores)
    }

    /// Matches queued subtasks to idle workers and takes scaling decisions
    /// for stalled classes.
    ///
    /// Walks the pending `(stage, shape)` classes — the same ascending
    /// `(stage, cores)` order the old keyed iteration had, without
    /// materialising a class list per pass. Nothing inside the loop
    /// enqueues new subtasks, so reading lengths live is equivalent to
    /// snapshotting them up front.
    pub(super) fn dispatch(&mut self, now: SimTime, sink: &mut TenantCal<'_>) {
        prof::scope!("dispatch");
        let mut parked = Some(Watch::default());
        for stage in 0..self.queues.n_stages() {
            // Only this stage's pending classes, in ascending shape
            // order. Nothing below pushes, so the mask taken up front
            // stays a superset of the classes still pending.
            let mut slots = self.queues.nonempty_slots(stage);
            while slots != 0 {
                let slot = slots.trailing_zeros() as usize;
                slots &= slots - 1;
                let cores = SHAPE_CORES[slot];
                let class = TaskClass { stage, cores };
                // Serve with idle same-shape workers.
                while self.queues.len(class) > 0 {
                    let Some(vm_id) = self.take_idle(class.cores) else {
                        break;
                    };
                    self.assign(class, vm_id, now, sink);
                }
                // Stalled: decide whether to grow.
                let queued = self.queues.len(class);
                if queued == 0 {
                    continue;
                }
                let pending = self.pending.get(class.stage, class.cores);
                let mut deficit = (queued as u32).saturating_sub(pending);
                if deficit == 0 {
                    continue;
                }
                if let Some(memo) = self.held_wait(class) {
                    // Nothing that could flip the class's last wait has
                    // changed: deciding again would wait again.
                    if cfg!(debug_assertions) {
                        self.check_held_wait(class, now);
                    }
                    park(&mut parked, Some(memo), cores);
                    continue;
                }
                while deficit > 0 {
                    if !self.try_grow(class, now, sink) {
                        // Still stalled, on the wait just memoised (if
                        // it could be).
                        park(&mut parked, self.wait_memos.get(class), cores);
                        break;
                    }
                    deficit -= 1;
                }
            }
        }
        self.parked = parked;
        self.tracer.emit_with(now, || TraceEvent::QueueDepthSampled {
            depth: self.queues.total_len() as u32,
        });
    }

    pub(super) fn on_subtask_done(
        &mut self,
        now: SimTime,
        job: u32,
        stage: usize,
        vm_id: VmKey,
        sink: &mut TenantCal<'_>,
    ) {
        let run = self.jobs.get_mut(job).expect("done event for unknown job");
        self.tracer.emit(
            now,
            TraceEvent::SubtaskDone {
                job: run.job.id.0 as u64,
                stage: stage as u32,
                vm: vm_id.id.0 as u64,
            },
        );
        debug_assert_eq!(run.stage, stage, "stage mismatch in completion event");
        // Free the worker.
        self.busy.remove(vm_id);
        let vm = self.provider.vm_mut(vm_id).expect("done event for unknown VM");
        vm.finish_task(now);
        let (cores, tier) = (vm.size.cores(), vm.tier);
        self.idle.insert(cores, vm_id, tier, now);

        // Advance the job.
        run.outstanding -= 1;
        if run.outstanding == 0 {
            // The broker gathers this stage's shards back into one dataset.
            run.stage += 1;
            if run.stage == run.plan.n_stages() {
                let run = self.jobs.remove(job).expect("just present");
                self.complete(run, now);
            } else {
                self.enqueue_stage(job, now);
            }
        }
        self.dispatch(now, sink);
    }

    pub(super) fn assign(
        &mut self,
        class: TaskClass,
        vm_id: VmKey,
        now: SimTime,
        sink: &mut TenantCal<'_>,
    ) {
        prof::scope!("assign");
        let (job, wait) = self.queues.pop(class, now).expect("assign called with non-empty queue");
        self.estimator.queue_times_mut().observe(class.stage, wait.as_tu());

        let run = self.jobs.get(job).expect("queued subtask has a live job");
        let id = run.job.id;
        let (shards, threads) = run.plan.stage(run.stage);
        debug_assert_eq!(threads, class.cores);
        let stage = run.stage;
        let d_gb = self.true_model.units_to_gb(run.job.size_units) / shards as f64;

        // Ground-truth execution time + staging + measurement noise.
        let exec = self.true_model.stages[stage].threaded_time(threads, d_gb);
        let noise = (1.0 + 0.02 * self.exec_noise.standard_normal()).max(0.05);
        let staging = self.broker.staging_time(d_gb);
        let duration = SimDuration::clamped(exec * noise) + staging;

        // Live task log for the knowledge base (sampled, adaptive only —
        // "the log information will be used to further populate the SCAN
        // knowledge-base").
        if self.cfg.variable.allocation == AllocationPolicy::LongTermAdaptive {
            self.adaptive_ingest_counter += 1;
            if self.adaptive_ingest_counter.is_multiple_of(32) {
                self.broker.ingest_log(&ProfileRecord {
                    application: Cow::Borrowed("GATK"),
                    stage: (stage + 1) as u32,
                    input_gb: d_gb,
                    threads,
                    ram_gb: 4.0,
                    e_time: exec * noise,
                });
            }
        }

        let vm = self.provider.vm_mut(vm_id).expect("idle VM exists");
        vm.start_task(now);
        let done_at = now + duration;
        self.busy.insert(vm_id, done_at, class.cores);
        self.tracer.emit(
            now,
            TraceEvent::SubtaskDispatched {
                job: id.0 as u64,
                stage: stage as u32,
                vm: vm_id.id.0 as u64,
                cores: class.cores,
                waited_tu: wait.as_tu(),
                busy_tu: duration.as_tu(),
            },
        );
        let stage = u16::try_from(stage).expect("plans have fewer than 2^16 stages");
        sink.schedule(done_at, Event::SubtaskDone { job, stage, vm: vm_id });
    }
}
