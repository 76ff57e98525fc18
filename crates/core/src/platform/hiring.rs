//! Capacity growth for stalled classes: the horizontal-scaling decision
//! (Table I) priced from the class queue's cached Eq. 1 terms, the held
//! waits that spare re-pricing a wait nothing could flip, and
//! reshape-instead-of-hire for heterogeneous configurations. The naive
//! full-walk queue view survives as the debug-build oracle: it expands
//! the class's batches entry by entry and prices each job afresh,
//! independent of the cached terms it checks.

use super::events::{Event, TenantCal};
use super::Platform;
use scan_cloud::instance::InstanceSize;
use scan_cloud::shared::Watch;
use scan_cloud::tier::TierId;
use scan_cloud::vm::{boot_penalty, VmKey};
use scan_sched::delay_cost::{delay_cost, QueuedJobView};
use scan_sched::queue::{shape_slot, TaskClass, N_SHAPES, SHAPE_CORES};
use scan_sched::scaling::{DecisionCosts, ScalingContext, ScalingDecision, ScalingPolicy};
use scan_sim::{prof, ScalingChoice, SimTime, TraceEvent};

/// A stalled class's last decision to wait, taken with the private tier
/// full, and the inputs that could flip it (see `memo_for`).
#[derive(Debug, Clone, Copy)]
pub(super) struct WaitMemo {
    /// The class queue's `ClassQueues::version`.
    queue: u64,
    /// Hires in flight for the class: the entries the window skips.
    pending: u32,
    /// The shape's busy removals plus finished boots.
    lengthened: u64,
    /// `Platform::replans`.
    replans: u64,
    /// A priced public wait: `(boot + expected task TU, delay cost)`.
    priced: Option<(f64, f64)>,
    /// Under a shared lease, the surge multiplier below which the priced
    /// wait may flip (0 otherwise).
    surge_floor: f64,
}

/// One optional [`WaitMemo`] per `(stage, shape)` class.
#[derive(Debug, Default)]
pub(super) struct WaitMemos {
    rows: Vec<[Option<WaitMemo>; N_SHAPES]>,
}

impl WaitMemos {
    pub(super) fn get(&self, class: TaskClass) -> Option<WaitMemo> {
        self.rows.get(class.stage)?[shape_slot(class.cores)]
    }

    fn set(&mut self, class: TaskClass, memo: Option<WaitMemo>) {
        if self.rows.len() <= class.stage {
            self.rows.resize(class.stage + 1, [None; N_SHAPES]);
        }
        self.rows[class.stage][shape_slot(class.cores)] = memo;
    }
}

/// The scalar inputs of one scaling decision (everything except the
/// Eq. 1 pricer, which borrows the platform's class queue).
#[derive(Debug, Clone, Copy)]
pub(super) struct ScalingInputs {
    pub(super) private_has_capacity: bool,
    pub(super) expected_wait_tu: f64,
    pub(super) expected_task_tu: f64,
}

impl Platform {
    /// Cap on the Eq. 1 queue view, in queue *entries*: past a few
    /// hundred the delay cost dwarfs any hire cost, so pricing a deeper
    /// window buys nothing. The queue's pricer and the debug oracle's
    /// full walk both honour the same entry window.
    pub(super) const MAX_QUEUE_VIEW: usize = 256;

    /// Attempts one capacity-growth action (reshape or hire) for a stalled
    /// class. Returns false when the policy says wait (or nothing can be
    /// done).
    pub(super) fn try_grow(
        &mut self,
        class: TaskClass,
        now: SimTime,
        sink: &mut TenantCal<'_>,
    ) -> bool {
        prof::scope!("try_grow");
        let size = InstanceSize::new(class.cores).expect("class cores are instance sizes");

        // Heterogeneous configuration: reshape an idle worker of another
        // shape instead of hiring, paying the 30 s penalty (§IV-B).
        if self.cfg.allow_reshape {
            if let Some(vm_id) = self.reshape_candidate(class.cores, now) {
                // The candidate's current shape, read from its VM record
                // *before* the reshape overwrites it — this is the pool it
                // must leave (the old code searched every pool for the id).
                let old_cores = self.provider.vm(vm_id).expect("candidate is live").size.cores();
                match self.provider.reshape(vm_id, size, now) {
                    Ok(ready_at) => {
                        self.ledger.reshapes += 1;
                        // The VM is booting again — pull it out of the
                        // idle pool so nothing assigns to it meanwhile.
                        let removed = self.idle.remove(old_cores, vm_id);
                        debug_assert!(removed, "reshaped VM was idle");
                        self.booting.inc(class.cores);
                        self.pending.increment(class.stage, class.cores);
                        self.vm_reserved_for.insert(vm_id, class);
                        // Narrate the decision after the action (whether a
                        // candidate can actually reshape is only known from
                        // the provider's answer).
                        self.tracer.emit_with(now, || TraceEvent::ScalingDecision {
                            stage: class.stage as u32,
                            cores: class.cores,
                            queued_jobs: self.queues.len(class) as u32,
                            delay_cost: f64::NAN,
                            hire_cost: f64::NAN,
                            choice: ScalingChoice::Reshape,
                        });
                        sink.schedule_in_order(ready_at, Event::VmReady(vm_id));
                        return true;
                    }
                    Err(_) => { /* fall through to hire */ }
                }
            }
        }

        let (choice, costs, inputs) = self.decide(class, now);
        // One event per decision taken: the final choice and the numbers
        // that decided it (NaN when nothing was priced). A wait whose
        // memo still holds is not decided again, so it is narrated once.
        // The depth is the class's true entry count; the Eq. 1 window
        // caps and dedups.
        self.tracer.emit(
            now,
            TraceEvent::ScalingDecision {
                stage: class.stage as u32,
                cores: class.cores,
                queued_jobs: self.queues.len(class) as u32,
                delay_cost: costs.delay_cost,
                hire_cost: costs.hire_cost,
                choice,
            },
        );
        let memo = self.memo_for(class, choice, &inputs, costs);
        self.wait_memos.set(class, memo);
        let tier = match choice {
            ScalingChoice::HirePrivate => TierId::PRIVATE,
            ScalingChoice::HirePublic => TierId::PUBLIC,
            _ => return false,
        };
        match self.provider.hire_on(tier, size, now) {
            Ok((vm_id, ready_at)) => {
                self.booting.inc(class.cores);
                self.pending.increment(class.stage, class.cores);
                self.vm_reserved_for.insert(vm_id, class);
                sink.schedule_in_order(ready_at, Event::VmReady(vm_id));
                true
            }
            Err(_) => false,
        }
    }

    /// Prices the horizontal-scaling decision for a stalled class: Eq. 1
    /// from the class queue's cached terms, then the policy's choice.
    /// Decides only; acts on nothing.
    fn decide(
        &mut self,
        class: TaskClass,
        now: SimTime,
    ) -> (ScalingChoice, DecisionCosts, ScalingInputs) {
        // The first `pending` queued items are already covered by hires
        // in flight; the marginal decision looks only at the remainder.
        let covered = self.pending.get(class.stage, class.cores) as usize;
        let inputs = self.scaling_inputs(class, now);
        if self.reward.depends_on_ett() {
            // Lazy revalidation: refresh the cached future-stage terms in
            // the priced window iff the estimator changed since they were
            // computed. Stage advances are structural (a new stage is a
            // new class, hence fresh terms), so only `observe` and
            // `set_model` can stale a term — between estimator changes
            // this loop matches revisions and touches nothing.
            let Platform { queues, estimator, jobs, .. } = self;
            let revision = estimator.revision();
            queues.revalidate_window(class, covered, Self::MAX_QUEUE_VIEW, revision, |job| {
                let run = jobs.get(job).expect("queued job is live");
                estimator.remaining(&run.job, run.stage, &run.plan.stages)
            });
        }
        if cfg!(debug_assertions) {
            self.check_eq1_oracle(class, covered, inputs.expected_wait_tu, now);
        }
        let ctx = ScalingContext {
            private_has_capacity: inputs.private_has_capacity,
            eq1: self.queues.pricer(class, covered, Self::MAX_QUEUE_VIEW, now),
            expected_wait_tu: inputs.expected_wait_tu,
            // The provider's live quote: the catalogue price solo, the
            // contention-surged on-demand price under a fleet lease — so
            // Eq. 1 prices public hires at what they would actually cost.
            public_price_per_core_tu: self.provider.quoted_price(TierId::PUBLIC),
            cores_needed: class.cores,
            boot_penalty_tu: boot_penalty().as_tu(),
            expected_task_tu: inputs.expected_task_tu,
            reward: self.reward,
        };
        let (decision, costs) = self.cfg.variable.scaling.decide_priced(&ctx);
        let choice = match decision {
            ScalingDecision::HirePrivate => ScalingChoice::HirePrivate,
            ScalingDecision::HirePublic => ScalingChoice::HirePublic,
            ScalingDecision::Wait => ScalingChoice::Wait,
        };
        (choice, costs, inputs)
    }

    /// The memo of a decision, when its choice is a wait that provably
    /// persists until one of the memo's inputs changes (DESIGN §7c).
    ///
    /// Eq. 1's time-based delay cost is `Σd · rpenalty · max(wait − boot,
    /// 0)`, and the projected wait cannot grow while the queue window,
    /// the in-flight hires and the shape's busy removals and finished
    /// boots stay put (`now` only shrinks it; a new busy or booting
    /// worker only shortens it). So the delay cost can only fall, and a
    /// wait holds while the private tier stays full and the public price
    /// stays put. `NeverScale` waits on capacity alone. Reshape candidacy
    /// depends on idle spans and an ETT-dependent reward on `now`, so
    /// those are never memoised.
    fn memo_for(
        &self,
        class: TaskClass,
        choice: ScalingChoice,
        inputs: &ScalingInputs,
        costs: DecisionCosts,
    ) -> Option<WaitMemo> {
        let policy = self.cfg.variable.scaling;
        let holds = choice == ScalingChoice::Wait
            && !self.cfg.allow_reshape
            && (!self.reward.depends_on_ett() || policy == ScalingPolicy::NeverScale);
        if !holds {
            return None;
        }
        let priced = (policy == ScalingPolicy::Predictive)
            .then(|| (boot_penalty().as_tu() + inputs.expected_task_tu, costs.delay_cost));
        // The surge multiplier the public quote must fall below to flip
        // the priced wait: `dc / (base · cores · s)`, widened by far more
        // than the rounding of either side of the comparison, so a wake
        // on crossing it can only come early (a harmless no-op).
        let surge_floor = match (priced, self.provider.shared()) {
            (Some((s, dc)), Some(_)) => {
                let base = self.provider.catalog().get(TierId::PUBLIC).cost_per_core_tu;
                dc / (base * class.cores as f64 * s) * (1.0 + 1e-9)
            }
            _ => 0.0,
        };
        Some(WaitMemo {
            queue: self.queues.version(class),
            pending: self.pending.get(class.stage, class.cores),
            lengthened: self.wait_lengthened(class.cores),
            replans: self.replans,
            priced,
            surge_floor,
        })
    }

    /// Changes that can lengthen the projected wait of a `cores` shape:
    /// busy workers freed and boots finished.
    fn wait_lengthened(&self, cores: u32) -> u64 {
        self.busy.removed(cores) + self.booting.finished(cores)
    }

    /// The class's memoised wait, if it still holds: every input it was
    /// decided on is unchanged, the private tier is still full, and a
    /// priced wait's hire is still at least its delay cost (the
    /// comparison `decide_priced` makes, at today's quote).
    pub(super) fn held_wait(&self, class: TaskClass) -> Option<WaitMemo> {
        let memo = self.wait_memos.get(class)?;
        let size = InstanceSize::new(class.cores).expect("class cores are instance sizes");
        let holds = memo.queue == self.queues.version(class)
            && memo.pending == self.pending.get(class.stage, class.cores)
            && memo.lengthened == self.wait_lengthened(class.cores)
            && memo.replans == self.replans
            && !self.provider.has_capacity(TierId::PRIVATE, size)
            && memo.priced.is_none_or(|(s, dc)| {
                self.provider.quoted_price(TierId::PUBLIC) * class.cores as f64 * s >= dc
            });
        holds.then_some(memo)
    }

    /// Debug-build oracle for a skipped decision: decides `class` afresh
    /// (running the Eq. 1 oracle too) and asserts it would still wait.
    pub(super) fn check_held_wait(&mut self, class: TaskClass, now: SimTime) {
        debug_assert!(self.held_wait(class).is_some(), "checked a held wait");
        let (choice, costs, _) = self.decide(class, now);
        debug_assert_eq!(
            choice,
            ScalingChoice::Wait,
            "a held wait for {class:?} flipped at {}: {costs:?}",
            now.as_tu()
        );
    }

    /// The shared-pool changes that could end the tenant's held waits —
    /// or `None` when some stalled class has no held wait, so a sweep
    /// past the arrival cap must re-dispatch. Dispatch keeps
    /// `Platform::parked` equal to this as a by-product; this full scan
    /// runs only where something else may have changed it.
    pub(super) fn parked_watch(&self) -> Option<Watch> {
        let mut watch = Some(Watch::default());
        for class in self.stalled_classes() {
            park(&mut watch, self.held_wait(class), class.cores);
        }
        watch
    }

    /// The classes with more queued entries than hires in flight, in
    /// dispatch order.
    fn stalled_classes(&self) -> impl Iterator<Item = TaskClass> + '_ {
        self.queues.nonempty().filter(move |&class| {
            let stalled =
                self.queues.len(class) as u32 > self.pending.get(class.stage, class.cores);
            debug_assert!(
                !stalled || self.idle.len_of_slot(shape_slot(class.cores)) == 0,
                "stalled beside idle workers"
            );
            stalled
        })
    }

    /// Debug-build oracle for a sweep that re-prices nothing: every
    /// stalled class's held wait is decided afresh and must still wait.
    pub(super) fn check_parked_waits(&mut self, now: SimTime) {
        let stalled: Vec<TaskClass> = self.stalled_classes().collect();
        for class in stalled {
            self.check_held_wait(class, now);
        }
    }

    /// Debug-build oracle: reprices Eq. 1 with the naive full-walk queue
    /// view and asserts the queue's pricer agrees — bit-for-bit for
    /// ETT-dependent rewards (same terms, same fold order), to 1e-9
    /// relative for the time-based closed form (`Σd · rpenalty · delay`
    /// sums `d` in a different order than the walk). Also cross-checks
    /// the window's job count. Called from [`Platform::try_grow`] under
    /// `cfg!(debug_assertions)` only, so release builds keep the
    /// O(log n) path alone.
    fn check_eq1_oracle(
        &mut self,
        class: TaskClass,
        covered: usize,
        expected_wait_tu: f64,
        now: SimTime,
    ) {
        self.fill_queue_view(class, covered, now);
        let pricer = self.queues.pricer(class, covered, Self::MAX_QUEUE_VIEW, now);
        debug_assert_eq!(
            pricer.window_len(),
            self.scaling_scratch.len(),
            "the priced window is the deduped queue view"
        );
        let avoided = (expected_wait_tu - boot_penalty().as_tu()).max(0.0);
        let walk = delay_cost(&self.reward, &self.scaling_scratch, avoided);
        let fast = pricer.delay_cost(&self.reward, avoided);
        if self.reward.depends_on_ett() {
            debug_assert!(
                fast.to_bits() == walk.to_bits(),
                "incremental Eq. 1 drifted from the walk: fast={fast:e} walk={walk:e}"
            );
        } else {
            debug_assert!(
                (fast - walk).abs() <= 1e-9 * walk.abs().max(1.0),
                "time-based Eq. 1 outside tolerance: fast={fast:e} walk={walk:e}"
            );
        }
    }

    /// Fills the scratch buffer with Eq. 1's queue view: distinct jobs
    /// waiting in `class`, less the first `skip` entries already covered
    /// by in-flight hires. Walks the class's batches expanded entry by
    /// entry and reads none of their cached terms. A job has at most one
    /// batch per class (`ClassQueues::push_batch` asserts it), so its
    /// entries are adjacent and the dedup compares with the last job.
    fn fill_queue_view(&mut self, class: TaskClass, skip: usize, now: SimTime) {
        prof::scope!("queue_view");
        self.scaling_scratch.clear();
        let entries = self
            .queues
            .pending_batches(class)
            .flat_map(|(job, pending)| std::iter::repeat_n(job, pending as usize));
        let mut last = None;
        for job in entries.skip(skip).take(Self::MAX_QUEUE_VIEW) {
            if last == Some(job) {
                continue;
            }
            last = Some(job);
            let run = self.jobs.get(job).expect("queued job is live");
            self.scaling_scratch.push(QueuedJobView {
                size_units: run.job.size_units,
                ett: self.estimator.ett(&run.job, run.stage, &run.plan.stages, now),
            });
        }
    }

    /// The scalar half of the scaling context for `class`.
    pub(super) fn scaling_inputs(&self, class: TaskClass, now: SimTime) -> ScalingInputs {
        // Projected wait: the soonest same-shape worker to free up or
        // finish booting; a long sentinel when none exists at all. The
        // busy table caches each worker's shape, so this is one linear
        // scan with no per-entry provider lookup.
        let mut expected_wait =
            self.busy.min_wait_for_cores(class.cores, now).unwrap_or(f64::INFINITY);
        if expected_wait.is_infinite() && self.booting.get(class.cores) > 0 {
            // A worker of this shape is already booting: the wait is one
            // boot penalty. The per-shape counter replaces what used to be
            // a scan over every live VM on each stalled decision.
            expected_wait = boot_penalty().as_tu();
        }
        if expected_wait.is_infinite() {
            expected_wait = 50.0; // nothing of this shape exists: waiting is hopeless
        }

        // Expected run time of the head task.
        let expected_task_tu = self
            .queues
            .head(class)
            .and_then(|job| self.jobs.get(job))
            .map(|run| {
                let (shards, threads) = run.plan.stage(run.stage);
                self.estimator.eet(run.stage, run.job.size_units, shards, threads)
            })
            .unwrap_or(1.0);

        ScalingInputs {
            private_has_capacity: self.provider.has_capacity(
                TierId::PRIVATE,
                InstanceSize::new(class.cores).expect("job classes declare nonzero cores"),
            ),
            expected_wait_tu: expected_wait,
            expected_task_tu,
        }
    }

    /// Picks an idle VM to reshape for a class needing `cores`: a worker
    /// of a shape with more idle machines than queued demand (cannibalise
    /// only surplus shapes), smallest shape first to conserve capacity.
    fn reshape_candidate(&self, cores: u32, now: SimTime) -> Option<VmKey> {
        for (slot, &size) in SHAPE_CORES.iter().enumerate() {
            if size == cores || self.idle.len_of_slot(slot) == 0 {
                continue;
            }
            let shape_demand = self.queues.shape_len(slot);
            if self.idle.len_of_slot(slot) > shape_demand {
                // Only cannibalise *stably* idle workers: a shape whose
                // pool just drained will be needed again within a batch
                // gap, and flip-flopping shapes pays the 30 s penalty both
                // ways while destroying pool warmth.
                return self.idle.iter_slot_asc(slot).find(|&vm| {
                    self.provider.vm(vm).map(|v| v.idle_span(now).as_tu() >= 1.0).unwrap_or(false)
                });
            }
        }
        None
    }
}

/// Adds a stalled `cores` class's held wait to `watch`: a wait ends when
/// enough private cores free up, a priced one also when the surge
/// multiplier falls below its floor. No held wait: `None`.
pub(super) fn park(watch: &mut Option<Watch>, memo: Option<WaitMemo>, cores: u32) {
    let (Some(w), Some(memo)) = (watch.as_mut(), memo) else {
        *watch = None;
        return;
    };
    w.private_free_at_least = Some(w.private_free_at_least.map_or(cores, |n| n.min(cores)));
    if memo.surge_floor > 0.0 {
        let floor = memo.surge_floor;
        w.surge_below = Some(w.surge_below.map_or(floor, |m| m.max(floor)));
    }
}
