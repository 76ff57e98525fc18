//! Per-class FIFO task queues, kept as one job-level term per stage
//! batch, and the Eq. 1 pricing those terms answer incrementally.
//!
//! §III-B: the scheduler "maintains an in-memory pool of available workers
//! and a FIFO queue of pending tasks per class". A *class* is the worker
//! shape a task needs (its thread count → instance size) plus the pipeline
//! stage (workers are stage-agnostic in software, but the estimators track
//! waits per stage).
//!
//! Every shard of one job's stage batch needs the same class and enters
//! it at the same instant, so a class queue holds one run-length term per
//! batch — the job, its shards still pending and its enqueue instant —
//! and a dispatch pops one shard off the front term. A job passes through
//! each class at most once at a time ([`ClassQueues::push_batch`] asserts
//! it in debug builds), so a class's terms are its distinct queued jobs
//! in FIFO order: exactly the jobs Eq. 1 prices.
//!
//! A scaling decision prices Eq. 1 over a *queue view*: the distinct jobs
//! among pending entries `[skip, skip + cap)` of the stalled class, where
//! `skip` counts the entries already covered by hires in flight. Each
//! term carries *cumulative* coordinates assigned at push time and never
//! mutated — `cum_entries` (shard entries ever pushed to the class,
//! through this batch) and `cum_d` (running Σ size). The entry window then
//! maps to a contiguous term range by two binary searches, and its Σd is
//! a two-point difference, which sidesteps the add/remove float drift of
//! a running accumulator: the windowed Σd is reproducible for any
//! interleaving of pushes and pops.
//!
//! Pricing splits by reward scheme:
//!
//! * **Time-based** — `delay_loss(d, t, delay) = d·rpenalty·delay` is
//!   independent of ETT, so the window's delay cost is
//!   `Σd · rpenalty · delay`: O(log n) per decision, within a documented
//!   ulp bound of the per-job walk (the factored sum reassociates the
//!   additions).
//! * **Throughput / deadline / plateau** — `delay_loss` bends with each
//!   job's ETT, so the pricer walks the window's *cached* terms: the same
//!   per-job operations in the same order as the walk (bit-exact), but
//!   reading a cached future-stage estimate instead of re-deriving it
//!   from the stage models. Cached futures revalidate lazily by revision:
//!   [`crate::estimate::EttEstimator::revision`] bumps when a queue-wait
//!   observation or a model refresh changes `future_from`, and
//!   [`ClassQueues::revalidate_window`] refreshes only the stale terms
//!   inside the priced window.
//!
//! The platform keeps an independent reference (`check_eq1_oracle` in
//! `platform::hiring`): in debug builds it expands the class's pending
//! terms entry by entry, prices each job of the window with a fresh ETT
//! and asserts the window and cost of this module on every decision.

use scan_sim::{SimDuration, SimTime};
use scan_workload::reward::RewardFn;
use std::collections::VecDeque;

/// Worker shapes (cores) a task class can ask for, ascending. Powers of
/// two: shape ↔ slot conversion is a `trailing_zeros`.
pub const SHAPE_CORES: [u32; 5] = [1, 2, 4, 8, 16];

/// Number of distinct worker shapes.
pub const N_SHAPES: usize = SHAPE_CORES.len();

/// Dense slot for a shape (1→0, 2→1, 4→2, 8→3, 16→4).
///
/// # Panics
/// Panics (in debug builds) when `cores` is not a valid shape.
#[inline]
pub fn shape_slot(cores: u32) -> usize {
    let slot = cores.trailing_zeros() as usize;
    debug_assert!(
        slot < N_SHAPES && SHAPE_CORES[slot] == cores,
        "invalid worker shape: {cores} cores"
    );
    slot
}

/// The queue key: pipeline stage × worker cores required.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskClass {
    /// 0-based pipeline stage.
    pub stage: usize,
    /// Cores a worker needs to serve this class.
    pub cores: u32,
}

/// One queued stage batch: a job's shards still pending in a class, and
/// the job's cached Eq. 1 term.
#[derive(Debug, Clone, Copy)]
struct JobBatch {
    /// Job arena slot (dense id).
    job: u32,
    /// Shards of the batch still queued (at least one).
    pending: u32,
    /// When the batch entered the queue: every shard's wait starts here.
    enqueued_at: SimTime,
    /// Job input size in units (the reward's `d`).
    d: f64,
    /// Submission instant; elapsed latency is `now − submitted_at` at
    /// pricing time, so it never goes stale.
    submitted_at: SimTime,
    /// Cached future-stage estimate `Σ (EQT_i + EET_i)` from the job's
    /// current stage. Valid while `revision` matches the estimator's.
    future: f64,
    /// Estimator revision `future` was computed at (0 = never computed).
    revision: u64,
    /// Shard entries ever pushed to this class, through this batch.
    cum_entries: u64,
    /// Running Σ size over all batches ever pushed, through this one.
    cum_d: f64,
}

/// One class's queue: its batches in FIFO order plus the push and pop
/// cursors in entry coordinates.
#[derive(Debug, Clone, Default)]
struct ClassQueue {
    batches: VecDeque<JobBatch>,
    /// Shard entries ever pushed.
    pushed: u64,
    /// Shard entries ever popped.
    popped: u64,
    /// Σ size over all batches ever pushed (`cum_d` of the newest).
    pushed_cum_d: f64,
    /// `cum_d` of the most recently emptied batch — the Σd baseline when
    /// the window starts at the front.
    base_cum_d: f64,
}

impl ClassQueue {
    #[inline]
    fn len(&self) -> usize {
        (self.pushed - self.popped) as usize
    }

    /// Maps the pending-entry window `[skip, skip + cap)` to the
    /// contiguous batch range `[s, e)` the deduped view covers: a job is
    /// visible iff any of its pending entries lies in the window. Both
    /// bounds are binary searches over monotone cumulative coordinates.
    #[inline]
    fn window(&self, skip: usize, cap: usize) -> (usize, usize) {
        let lo = self.popped + skip as u64;
        let hi = lo + cap as u64;
        // First batch with a pending entry at or past `lo`: the pending
        // entries of batch k end at cum_entries_k.
        let s = self.batches.partition_point(|b| b.cum_entries <= lo);
        // First batch whose pending entries start at or past `hi`: pops
        // are FIFO, so what remains of batch k starts at
        // cum_entries_k − pending_k.
        let e = self.batches.partition_point(|b| b.cum_entries - u64::from(b.pending) < hi);
        (s, e.max(s))
    }

    /// Windowed Σd over batches `[s, e)` as a two-point difference of the
    /// cumulative sums (exactly reproducible for any op interleaving).
    #[inline]
    fn window_d_sum(&self, s: usize, e: usize) -> f64 {
        if e == s {
            return 0.0;
        }
        let base = if s == 0 { self.base_cum_d } else { self.batches[s - 1].cum_d };
        self.batches[e - 1].cum_d - base
    }

    /// The deque's range `[s, e)` as (at most) two contiguous slices.
    #[inline]
    fn window_slices(&self, s: usize, e: usize) -> (&[JobBatch], &[JobBatch]) {
        let (a, b) = self.batches.as_slices();
        if e <= a.len() {
            (&a[s..e], &[])
        } else if s >= a.len() {
            (&[], &b[s - a.len()..e - a.len()])
        } else {
            (&a[s..], &b[..e - a.len()])
        }
    }
}

/// Stages a [`ClassMask`] word has room for: one bit per `(stage,
/// shape)` class. GATK plans have seven.
pub const MAX_STAGES: usize = u64::BITS as usize / N_SHAPES;

/// A set of `(stage, shape)` classes as one word: bit
/// `stage * N_SHAPES + slot` stands for the class of `stage` and shape
/// slot `slot`. Iterating it yields the classes in ascending bit order,
/// which is ascending `(stage, cores)` order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassMask(u64);

impl ClassMask {
    /// The bit of the class of `stage` and shape slot `slot`.
    #[inline]
    fn bit(stage: usize, slot: usize) -> u64 {
        1 << (stage * N_SHAPES + slot)
    }
}

impl Iterator for ClassMask {
    type Item = TaskClass;

    #[inline]
    fn next(&mut self) -> Option<TaskClass> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(TaskClass { stage: bit / N_SHAPES, cores: SHAPE_CORES[bit % N_SHAPES] })
    }
}

/// Every `(stage, shape)` class queue, stored densely.
///
/// Classes are `(stage, shape)` pairs where the shape axis is the fixed
/// five-slot [`SHAPE_CORES`] array, so the whole family is a
/// `Vec<[ClassQueue; 5]>` indexed by stage: every lookup is two array
/// indexes. Walks read one [`ClassMask`] of the non-empty classes, in
/// ascending `(stage, cores)` order. Lengths count shard entries, not
/// batches.
#[derive(Debug, Clone, Default)]
pub struct ClassQueues {
    stages: Vec<[ClassQueue; N_SHAPES]>,
    /// The classes with pending entries (kept incrementally), so walks
    /// skip the empty ones without a look.
    nonempty: ClassMask,
    /// Pending entries across all classes (kept incrementally).
    total: usize,
}

impl ClassQueues {
    /// No queued work.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn class(&self, class: TaskClass) -> Option<&ClassQueue> {
        Some(&self.stages.get(class.stage)?[shape_slot(class.cores)])
    }

    /// Queues one job's stage batch of `shards` entries in `class` at
    /// `now`: the job's size `d` and submission instant feed its Eq. 1
    /// term.
    ///
    /// # Panics
    /// Panics on a zero-shard batch or a stage at or past [`MAX_STAGES`]
    /// (its class has no bit in the mask), and in debug builds when the
    /// job still has a batch pending in `class`.
    #[inline]
    pub fn push_batch(
        &mut self,
        class: TaskClass,
        job: u32,
        shards: u32,
        d: f64,
        submitted_at: SimTime,
        now: SimTime,
    ) {
        assert!(shards > 0, "a stage batch has at least one shard");
        assert!(
            class.stage < MAX_STAGES,
            "stage {} is past the {MAX_STAGES} stages a class mask holds",
            class.stage
        );
        while self.stages.len() <= class.stage {
            self.stages.push(std::array::from_fn(|_| ClassQueue::default()));
        }
        let slot = shape_slot(class.cores);
        let q = &mut self.stages[class.stage][slot];
        debug_assert!(
            q.batches.iter().all(|b| b.job != job),
            "job {job} already has a batch pending in {class:?}"
        );
        q.pushed += u64::from(shards);
        q.pushed_cum_d += d;
        q.batches.push_back(JobBatch {
            job,
            pending: shards,
            enqueued_at: now,
            d,
            submitted_at,
            future: 0.0,
            revision: 0,
            cum_entries: q.pushed,
            cum_d: q.pushed_cum_d,
        });
        self.nonempty.0 |= ClassMask::bit(class.stage, slot);
        self.total += shards as usize;
    }

    /// Pops one shard of the class's oldest batch: its job and how long
    /// it waited.
    #[inline]
    pub fn pop(&mut self, class: TaskClass, now: SimTime) -> Option<(u32, SimDuration)> {
        let slot = shape_slot(class.cores);
        let q = &mut self.stages.get_mut(class.stage)?[slot];
        let front = q.batches.front_mut()?;
        let popped = (front.job, now - front.enqueued_at);
        front.pending -= 1;
        q.popped += 1;
        if front.pending == 0 {
            debug_assert_eq!(front.cum_entries, q.popped, "an emptied batch ends at the cursor");
            q.base_cum_d = front.cum_d;
            q.batches.pop_front();
            if q.batches.is_empty() {
                self.nonempty.0 &= !ClassMask::bit(class.stage, slot);
            }
        }
        self.total -= 1;
        Some(popped)
    }

    /// Pending entries of a class.
    #[inline]
    pub fn len(&self, class: TaskClass) -> usize {
        self.class(class).map_or(0, ClassQueue::len)
    }

    /// The job at the front of a class, if any.
    #[inline]
    pub fn head(&self, class: TaskClass) -> Option<u32> {
        Some(self.class(class)?.batches.front()?.job)
    }

    /// The class's batches oldest first, as `(job, pending shards)`.
    #[inline]
    pub fn pending_batches(&self, class: TaskClass) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.class(class).into_iter().flat_map(|q| q.batches.iter().map(|b| (b.job, b.pending)))
    }

    /// The classes with pending entries. The mask is a copy: it does not
    /// follow later pushes and pops.
    #[inline]
    pub fn nonempty(&self) -> ClassMask {
        self.nonempty
    }

    /// Pending entries across classes.
    #[inline]
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Pending entries for one shape slot across stages (demand on a
    /// worker shape regardless of stage).
    #[inline]
    pub fn shape_len(&self, slot: usize) -> usize {
        self.stages.iter().map(|row| row[slot].len()).sum()
    }

    /// A counter that changes whenever `class`'s queue does: entries
    /// ever pushed plus entries ever popped. Equal versions mean the
    /// same queue contents, so a decision priced at one version holds
    /// its Eq. 1 window at the other.
    #[inline]
    pub fn version(&self, class: TaskClass) -> u64 {
        self.class(class).map_or(0, |q| q.pushed + q.popped)
    }

    /// Refreshes stale cached future-stage estimates inside the Eq. 1
    /// window (`skip` covered entries, `cap` view entries) for an
    /// ETT-dependent reward scheme. `refresh` maps a job slot to its
    /// current future estimate; terms already at `revision` are skipped,
    /// so steady-state decisions between estimator changes touch nothing.
    pub fn revalidate_window(
        &mut self,
        class: TaskClass,
        skip: usize,
        cap: usize,
        revision: u64,
        mut refresh: impl FnMut(u32) -> f64,
    ) {
        let Some(row) = self.stages.get_mut(class.stage) else {
            return;
        };
        let q = &mut row[shape_slot(class.cores)];
        let (s, e) = q.window(skip, cap);
        for batch in q.batches.range_mut(s..e) {
            if batch.revision != revision {
                batch.future = refresh(batch.job);
                batch.revision = revision;
            }
        }
    }

    /// Borrows an Eq. 1 pricer over the class's current view window:
    /// the distinct jobs among pending entries `[skip, skip + cap)`.
    #[inline]
    pub fn pricer(&self, class: TaskClass, skip: usize, cap: usize, now: SimTime) -> Eq1Pricer<'_> {
        let Some(q) = self.class(class) else {
            return Eq1Pricer { head: &[], tail: &[], sum_d: 0.0, now };
        };
        let (s, e) = q.window(skip, cap);
        let (head, tail) = q.window_slices(s, e);
        Eq1Pricer { head, tail, sum_d: q.window_d_sum(s, e), now }
    }
}

/// A borrowed Eq. 1 pricing view over one class's queue window.
#[derive(Debug, Clone, Copy)]
pub struct Eq1Pricer<'a> {
    head: &'a [JobBatch],
    tail: &'a [JobBatch],
    sum_d: f64,
    now: SimTime,
}

impl Eq1Pricer<'_> {
    /// Eq. 1: total reward lost by delaying the window's jobs by `delay`.
    ///
    /// Time-based schemes price in O(1) from the windowed Σd (within
    /// ~1 ulp of the naive walk — the factored product reassociates the
    /// per-job sum); every ETT-dependent scheme walks the cached terms
    /// with bit-identical per-job operations to the naive walk.
    ///
    /// # Panics
    /// Panics on negative `delay`.
    #[inline]
    pub fn delay_cost(&self, reward: &RewardFn, delay: f64) -> f64 {
        assert!(delay >= 0.0, "delay must be non-negative");
        match *reward {
            RewardFn::TimeBased { rpenalty, .. } => self.sum_d * rpenalty * delay,
            _ => self
                .head
                .iter()
                .chain(self.tail)
                .map(|t| {
                    let ett = (self.now - t.submitted_at).as_tu() + t.future;
                    reward.delay_loss(t.d, ett.max(0.0), delay)
                })
                .sum(),
        }
    }

    /// Distinct jobs in the window (= the naive view's length).
    pub fn window_len(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// True when the window holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.window_len() == 0
    }

    /// Windowed Σ size (the time-based aggregate), for diagnostics.
    pub fn sum_d(&self) -> f64 {
        self.sum_d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay_cost::{delay_cost, QueuedJobView};
    use proptest::prelude::*;

    const CLASS: TaskClass = TaskClass { stage: 0, cores: 4 };

    fn t(x: f64) -> SimTime {
        SimTime::new(x)
    }

    fn reward_schemes() -> [RewardFn; 4] {
        [
            RewardFn::paper_time_based(),
            RewardFn::paper_throughput_based(),
            RewardFn::Deadline { rmax: 400.0, rpenalty: 15.0, deadline: 20.0 },
            RewardFn::Plateau { rmax: 400.0, rpenalty: 15.0, plateau: 10.0 },
        ]
    }

    /// Deterministic stand-in for the estimator's future-stage sum: a
    /// value that depends on the job and the current revision, so stale
    /// caches are visibly wrong.
    fn toy_future(job: u32, revision: u64) -> f64 {
        1.0 + (job as f64 * 1.37 + revision as f64 * 0.61).sin().abs() * 50.0
    }

    #[test]
    fn fifo_order_and_waits() {
        let mut q = ClassQueues::new();
        q.push_batch(CLASS, 7, 1, 1.0, t(0.0), t(0.0));
        q.push_batch(CLASS, 8, 1, 1.0, t(0.0), t(1.0));
        let (a, wa) = q.pop(CLASS, t(3.0)).unwrap();
        assert_eq!(a, 7);
        assert_eq!(wa, SimDuration::new(3.0));
        let (b, wb) = q.pop(CLASS, t(4.0)).unwrap();
        assert_eq!(b, 8);
        assert_eq!(wb, SimDuration::new(3.0));
        assert!(q.pop(CLASS, t(5.0)).is_none());
    }

    #[test]
    fn head_tracks_front() {
        let mut q = ClassQueues::new();
        assert!(q.head(CLASS).is_none());
        q.push_batch(CLASS, 1, 2, 1.0, t(0.0), t(2.0));
        q.push_batch(CLASS, 2, 1, 1.0, t(0.0), t(5.0));
        assert_eq!(q.head(CLASS), Some(1));
        assert_eq!(q.pop(CLASS, t(6.0)), Some((1, SimDuration::new(4.0))));
        assert_eq!(q.head(CLASS), Some(1), "one shard of the batch is still queued");
        assert_eq!(q.pop(CLASS, t(6.0)), Some((1, SimDuration::new(4.0))));
        assert_eq!(q.head(CLASS), Some(2));
    }

    #[test]
    fn queues_route_by_class() {
        let mut qs = ClassQueues::new();
        let c1 = TaskClass { stage: 0, cores: 4 };
        let c2 = TaskClass { stage: 0, cores: 8 };
        let c3 = TaskClass { stage: 3, cores: 4 };
        qs.push_batch(c1, 10, 1, 1.0, t(0.0), t(0.0));
        qs.push_batch(c2, 20, 1, 1.0, t(0.0), t(0.0));
        qs.push_batch(c3, 30, 1, 1.0, t(0.0), t(0.0));
        qs.push_batch(c1, 11, 1, 1.0, t(0.0), t(1.0));
        assert_eq!(qs.total_len(), 4);
        assert_eq!(qs.shape_len(shape_slot(4)), 3);
        assert_eq!(qs.shape_len(shape_slot(8)), 1);
        assert_eq!(qs.pop(c1, t(2.0)).unwrap().0, 10);
        assert_eq!(qs.len(c1), 1);
        // 4 cores are slot 2, 8 cores slot 3; stage 3 starts at bit 15.
        assert_eq!(qs.nonempty().0, 0b1100 | 0b100 << 15);
        assert_eq!(qs.nonempty().collect::<Vec<_>>(), vec![c1, c2, c3], "ascending (stage, cores)");
        qs.pop(c2, t(2.0));
        assert_eq!(qs.nonempty().0, 0b100 | 0b100 << 15, "an emptied class leaves the mask");
        assert!(qs.pop(TaskClass { stage: 9, cores: 1 }, t(2.0)).is_none());
    }

    #[test]
    fn the_mask_walks_every_class_in_stage_then_shape_order() {
        let mut qs = ClassQueues::new();
        let mut all = Vec::new();
        for stage in (0..MAX_STAGES).rev() {
            for &cores in SHAPE_CORES.iter().rev() {
                let class = TaskClass { stage, cores };
                qs.push_batch(class, all.len() as u32, 1, 1.0, SimTime::ZERO, SimTime::ZERO);
                all.push(class);
            }
        }
        all.sort_unstable();
        assert_eq!(qs.nonempty().collect::<Vec<_>>(), all);
        assert_eq!(qs.nonempty().0, u64::MAX >> (64 - MAX_STAGES * N_SHAPES));
    }

    #[test]
    #[should_panic(expected = "past the 12 stages a class mask holds")]
    fn a_stage_past_the_mask_is_refused() {
        let mut qs = ClassQueues::new();
        qs.push_batch(TaskClass { stage: MAX_STAGES, cores: 1 }, 0, 1, 1.0, t(0.0), t(0.0));
    }

    #[test]
    fn empty_and_unallocated_classes_price_to_zero() {
        let q = ClassQueues::new();
        let p = q.pricer(CLASS, 0, 256, t(5.0));
        assert!(p.is_empty());
        assert_eq!(p.delay_cost(&RewardFn::paper_time_based(), 3.0), 0.0);
        assert_eq!(p.delay_cost(&RewardFn::paper_throughput_based(), 3.0), 0.0);
    }

    #[test]
    fn version_moves_on_every_push_and_pop() {
        let mut q = ClassQueues::new();
        assert_eq!(q.version(CLASS), 0);
        q.push_batch(CLASS, 0, 2, 1.0, SimTime::ZERO, SimTime::ZERO);
        let pushed = q.version(CLASS);
        q.pop(CLASS, SimTime::ZERO);
        assert!(q.version(CLASS) > pushed);
        let other = TaskClass { stage: 1, cores: 4 };
        q.push_batch(other, 1, 1, 1.0, SimTime::ZERO, SimTime::ZERO);
        assert_eq!(q.version(CLASS), pushed + 1, "another class's queue leaves it alone");
    }

    #[test]
    fn time_based_window_sum_matches_walk() {
        let mut q = ClassQueues::new();
        for i in 0..5u32 {
            q.push_batch(CLASS, i, 1, 5.0, SimTime::ZERO, SimTime::ZERO);
        }
        let p = q.pricer(CLASS, 0, 256, t(1.0));
        assert_eq!(p.window_len(), 5);
        // 5 jobs × 5 units × rpenalty 15 × delay 2.
        assert!((p.delay_cost(&RewardFn::paper_time_based(), 2.0) - 750.0).abs() < 1e-9);
    }

    #[test]
    fn skip_and_cap_are_entry_windows_not_job_windows() {
        let mut q = ClassQueues::new();
        // Job 0: 3 shards, job 1: 2 shards, job 2: 1 shard.
        q.push_batch(CLASS, 0, 3, 1.0, SimTime::ZERO, SimTime::ZERO);
        q.push_batch(CLASS, 1, 2, 10.0, SimTime::ZERO, SimTime::ZERO);
        q.push_batch(CLASS, 2, 1, 100.0, SimTime::ZERO, SimTime::ZERO);
        let now = t(1.0);
        // Window [0, 3): job 0 only.
        assert_eq!(q.pricer(CLASS, 0, 3, now).sum_d(), 1.0);
        // Window [2, 4): tail of job 0 + head of job 1.
        assert_eq!(q.pricer(CLASS, 2, 2, now).sum_d(), 11.0);
        // Window [3, 9): jobs 1 and 2.
        assert_eq!(q.pricer(CLASS, 3, 6, now).sum_d(), 110.0);
        // Skip past everything: empty.
        assert!(q.pricer(CLASS, 6, 256, now).is_empty());
        // Pop two entries of job 0: the window shifts with the cursor.
        q.pop(CLASS, now);
        q.pop(CLASS, now);
        assert_eq!(q.len(CLASS), 4);
        assert_eq!(q.pricer(CLASS, 0, 1, now).sum_d(), 1.0);
        assert_eq!(q.pricer(CLASS, 1, 1, now).sum_d(), 10.0);
    }

    #[test]
    fn fully_popped_batches_leave_the_queue() {
        let mut q = ClassQueues::new();
        q.push_batch(CLASS, 0, 2, 2.0, SimTime::ZERO, SimTime::ZERO);
        q.push_batch(CLASS, 1, 1, 3.0, SimTime::ZERO, SimTime::ZERO);
        q.pop(CLASS, SimTime::ZERO);
        q.pop(CLASS, SimTime::ZERO);
        let p = q.pricer(CLASS, 0, 256, t(1.0));
        assert_eq!(p.window_len(), 1);
        assert_eq!(p.sum_d(), 3.0);
        assert_eq!(q.pending_batches(CLASS).collect::<Vec<_>>(), vec![(1, 1)]);
        q.pop(CLASS, SimTime::ZERO);
        assert_eq!(q.len(CLASS), 0);
        assert!(q.pricer(CLASS, 0, 256, t(1.0)).is_empty());
    }

    #[test]
    fn revalidation_refreshes_only_stale_window_terms() {
        let mut q = ClassQueues::new();
        for i in 0..4u32 {
            q.push_batch(CLASS, i, 1, 1.0, SimTime::ZERO, SimTime::ZERO);
        }
        let mut calls = Vec::new();
        q.revalidate_window(CLASS, 0, 2, 1, |job| {
            calls.push(job);
            toy_future(job, 1)
        });
        assert_eq!(calls, vec![0, 1], "only the window is refreshed");
        calls.clear();
        q.revalidate_window(CLASS, 0, 2, 1, |job| {
            calls.push(job);
            toy_future(job, 1)
        });
        assert!(calls.is_empty(), "fresh terms are skipped");
        q.revalidate_window(CLASS, 0, 4, 2, |job| {
            calls.push(job);
            toy_future(job, 2)
        });
        assert_eq!(calls, vec![0, 1, 2, 3], "a new revision refreshes everything in view");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already has a batch pending")]
    fn a_job_queues_once_per_class() {
        let mut q = ClassQueues::new();
        q.push_batch(CLASS, 3, 2, 1.0, SimTime::ZERO, SimTime::ZERO);
        q.pop(CLASS, SimTime::ZERO);
        q.push_batch(CLASS, 3, 1, 1.0, SimTime::ZERO, SimTime::ZERO);
    }

    /// Reference model: one entry per shard, `(job, enqueued_at)`, per
    /// class, plus per-job `(d, submitted_at)`.
    struct NaiveQueue {
        classes: [TaskClass; 2],
        entries: [VecDeque<(u32, SimTime)>; 2],
        jobs: Vec<(f64, SimTime)>,
    }

    impl NaiveQueue {
        fn new(classes: [TaskClass; 2]) -> Self {
            NaiveQueue { classes, entries: Default::default(), jobs: Vec::new() }
        }

        /// The distinct jobs among entries `[skip, skip + cap)` of class
        /// `c`, in queue order, each priced with a fresh future estimate.
        fn view(
            &self,
            c: usize,
            skip: usize,
            cap: usize,
            now: SimTime,
            revision: u64,
        ) -> Vec<QueuedJobView> {
            let mut seen = vec![false; self.jobs.len()];
            let mut out = Vec::new();
            for &(job, _) in self.entries[c].iter().skip(skip).take(cap) {
                if seen[job as usize] {
                    continue;
                }
                seen[job as usize] = true;
                let (d, submitted) = self.jobs[job as usize];
                out.push(QueuedJobView {
                    size_units: d,
                    ett: (now - submitted).as_tu() + toy_future(job, revision),
                });
            }
            out
        }

        /// Asserts every length, mask and head the queues report.
        fn check(&self, q: &ClassQueues) -> Result<(), TestCaseError> {
            let total: usize = self.entries.iter().map(VecDeque::len).sum();
            prop_assert_eq!(q.total_len(), total);
            for (class, entries) in self.classes.iter().zip(&self.entries) {
                prop_assert_eq!(q.len(*class), entries.len());
                prop_assert_eq!(q.head(*class), entries.front().map(|e| e.0));
            }
            for slot in 0..N_SHAPES {
                let naive: usize = self
                    .classes
                    .iter()
                    .zip(&self.entries)
                    .filter(|(c, _)| shape_slot(c.cores) == slot)
                    .map(|(_, e)| e.len())
                    .sum();
                prop_assert_eq!(q.shape_len(slot), naive);
            }
            let mut mask = 0u64;
            for (c, e) in self.classes.iter().zip(&self.entries) {
                if !e.is_empty() {
                    mask |= 1 << (c.stage * N_SHAPES + shape_slot(c.cores));
                }
            }
            prop_assert_eq!(q.nonempty().0, mask, "the mask is exactly the non-empty classes");
            Ok(())
        }
    }

    proptest! {
        /// The job-level queues equal a per-entry model over two classes
        /// across all four reward schemes and arbitrary push/pop/observe
        /// interleavings: every pop's job and wait bit for bit, every
        /// length, mask and head, a version that moves on every push and
        /// pop, and the Eq. 1 window — bit-for-bit for the ETT-dependent
        /// schemes, within the documented relative ulp bound for the
        /// factored time-based sum.
        ///
        /// Each op is a `(selector, class, d, shards, skip, delay)` tuple
        /// (the offline proptest stand-in has no strategy combinators):
        /// selector 0–2 pushes a batch (2 re-queues the class's last
        /// popped job when none of its shards is left there, like a job
        /// the bench harness re-queues), 3–5 pops one entry, 6 bumps the
        /// estimator revision, 7–8 prices and compares.
        #[test]
        fn prop_aggregate_matches_naive_walk(
            ops in proptest::collection::vec(
                (0u8..9, 0usize..2, 0.5f64..20.0, 1u32..4, 0usize..12, 0.0f64..10.0),
                1..60,
            ),
            small_cap in 0u8..2,
        ) {
            let cap = if small_cap == 0 { 4usize } else { 256 };
            // The second class holds the mask's highest bit.
            let classes = [CLASS, TaskClass { stage: MAX_STAGES - 1, cores: 16 }];
            for reward in reward_schemes() {
                let mut q = ClassQueues::new();
                let mut naive = NaiveQueue::new(classes);
                let mut last_popped: [Option<u32>; 2] = [None; 2];
                let mut revision = 1u64;
                let mut now = 0.0f64;
                for &(sel, c, d, shards, skip, delay) in &ops {
                    now += 0.25;
                    let at = t(now);
                    let class = classes[c];
                    let version = q.version(class);
                    let other = q.version(classes[1 - c]);
                    match sel {
                        0..=2 => {
                            let requeue = last_popped[c]
                                .filter(|&j| sel == 2 && naive.entries[c].iter().all(|e| e.0 != j));
                            let job = requeue.unwrap_or_else(|| {
                                naive.jobs.push((d, at));
                                naive.jobs.len() as u32 - 1
                            });
                            let (d, submitted) = naive.jobs[job as usize];
                            naive.entries[c].extend(std::iter::repeat_n((job, at), shards as usize));
                            q.push_batch(class, job, shards, d, submitted, at);
                            prop_assert!(q.version(class) > version, "a push moves the version");
                        }
                        3..=5 => {
                            let expected = naive.entries[c].pop_front();
                            let popped = q.pop(class, at);
                            prop_assert_eq!(
                                popped.map(|(j, w)| (j, w.as_tu().to_bits())),
                                expected.map(|(j, e)| (j, (at - e).as_tu().to_bits()))
                            );
                            if let Some((job, _)) = popped {
                                last_popped[c] = Some(job);
                                prop_assert!(q.version(class) > version, "a pop moves the version");
                            }
                        }
                        6 => revision += 1,
                        _ => {
                            if reward.depends_on_ett() {
                                q.revalidate_window(class, skip, cap, revision, |job| {
                                    toy_future(job, revision)
                                });
                            }
                            let view = naive.view(c, skip, cap, at, revision);
                            let walk = delay_cost(&reward, &view, delay);
                            let p = q.pricer(class, skip, cap, at);
                            prop_assert_eq!(p.window_len(), view.len());
                            let fast = p.delay_cost(&reward, delay);
                            if reward.depends_on_ett() {
                                prop_assert!(
                                    fast.to_bits() == walk.to_bits(),
                                    "{}: {} vs {}", reward.name(), fast, walk
                                );
                            } else {
                                prop_assert!(
                                    (fast - walk).abs() <= 1e-9 * walk.abs().max(1.0),
                                    "time-based drift: {} vs {}", fast, walk
                                );
                            }
                        }
                    }
                    prop_assert_eq!(q.version(classes[1 - c]), other, "only `class` moved");
                    naive.check(&q)?;
                }
            }
        }
    }
}
