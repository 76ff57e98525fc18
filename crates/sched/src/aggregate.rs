//! Incremental Eq. 1 — per-class delay-cost aggregates.
//!
//! The scaling decision prices Eq. 1 over a *queue view*: the distinct
//! jobs among the first `MAX_QUEUE_VIEW` pending entries of the stalled
//! class, less the entries already covered by hires in flight. Deriving
//! that view from scratch on every decision is O(queue) on the critical
//! path of every task-front event. This module maintains the same view
//! *incrementally*: a per-class FIFO mirror of distinct queued jobs with
//! cached per-job Eq. 1 terms, updated on enqueue/dequeue, so a decision
//! reads a few cached numbers instead of walking the queue.
//!
//! Two structural invariants of the platform make the mirror exact:
//!
//! 1. **Batch pushes** — all shard entries of one job enter a class
//!    queue consecutively (one `enqueue_stage` call), and a job passes
//!    through each `(stage, cores)` class at most once. The deduped view
//!    therefore sees each job exactly once, in push order.
//! 2. **FIFO pops** — entries only ever leave from the front, so the
//!    mirror's deque order *is* the view order, and the skip/cap entry
//!    window maps onto a contiguous job range.
//!
//! Each job term carries *cumulative* coordinates assigned at push time
//! and never mutated — `cum_entries` (total shard entries ever pushed
//! through this job) and `cum_d` (running Σ size). Window sums are then
//! two-point differences, which sidesteps the add/remove float-drift
//! problem of a running accumulator: the windowed Σd is reproducible for
//! any interleaving of operations.
//!
//! Pricing splits by reward scheme:
//!
//! * **Time-based** — `delay_loss(d, t, delay) = d·rpenalty·delay` is
//!   independent of ETT, so the window's delay cost is
//!   `Σd · rpenalty · delay`: O(log n) per decision (two binary searches
//!   for the window bounds), within a documented ulp bound of the naive
//!   per-job walk (the factored sum reassociates the additions).
//! * **Throughput / deadline / plateau** — `delay_loss` bends with each
//!   job's ETT, so the pricer walks the window's *cached* terms: same
//!   per-job operations in the same order as the naive walk (bit-exact),
//!   but reading a cached future-stage estimate instead of re-deriving
//!   it from the stage models. Cached futures revalidate lazily by
//!   revision: [`crate::estimate::EttEstimator::revision`] bumps when a
//!   queue-wait observation or a model refresh changes `future_from`,
//!   and [`QueueAggregates::revalidate_window`] refreshes only the stale
//!   terms inside the priced window.
//!
//! The platform keeps the original fused full walk as a debug-build
//! oracle (`check_eq1_oracle` in `platform::hiring`) asserting both
//! window shape and cost against this module on every decision.

use crate::queue::{shape_slot, TaskClass, N_SHAPES};
use scan_sim::SimTime;
use scan_workload::reward::RewardFn;
use std::collections::VecDeque;

/// Cached Eq. 1 term for one distinct queued job within a class.
#[derive(Debug, Clone, Copy)]
struct JobTerm {
    /// Job arena slot (dense id), for revalidation callbacks.
    job: u32,
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
    /// Shard entries of this job still pending in the class queue.
    entries: u32,
    /// Total shard entries ever pushed to this class, through this job.
    cum_entries: u64,
    /// Running Σ size over all jobs ever pushed, through this job.
    cum_d: f64,
}

/// One class's mirror: the distinct-job FIFO plus pop-side cursors.
#[derive(Debug, Clone, Default)]
struct ClassAgg {
    /// Distinct pending jobs in queue (= view) order.
    jobs: VecDeque<JobTerm>,
    /// Shard entries popped from this class so far.
    popped_entries: u64,
    /// `cum_d` of the most recently fully-popped job — the Σd baseline
    /// when the window starts at the deque front.
    base_cum_d: f64,
    /// Shard entries ever pushed to this class.
    pushed_entries: u64,
    /// Σ size over all jobs ever pushed (`cum_d` of the newest job).
    pushed_cum_d: f64,
}

impl ClassAgg {
    /// Maps an entry-coordinate window `[lo, hi)` (global, pop-cursor
    /// based) to the contiguous job range `[s, e)` the deduped view
    /// covers: a job is visible iff any of its pending entries lies in
    /// the window. Both bounds are binary searches over monotone
    /// cumulative coordinates.
    fn job_window(&self, lo: u64, hi: u64) -> (usize, usize) {
        // First job with a pending entry at or past `lo`: pending
        // entries of job k end at cum_entries_k.
        let s = self.jobs.partition_point(|t| t.cum_entries <= lo);
        // First job whose pending entries start at or past `hi`: the
        // pending span of job k starts at cum_entries_k − entries_k
        // (pops are FIFO, so what remains is the tail of its batch).
        let e = self.jobs.partition_point(|t| t.cum_entries - u64::from(t.entries) < hi);
        (s, e.max(s))
    }

    /// Windowed Σd over jobs `[s, e)` as a two-point difference of the
    /// cumulative sums (exactly reproducible for any op interleaving).
    fn window_d_sum(&self, s: usize, e: usize) -> f64 {
        if e == s {
            return 0.0;
        }
        let base = if s == 0 { self.base_cum_d } else { self.jobs[s - 1].cum_d };
        self.jobs[e - 1].cum_d - base
    }

    /// The deque's window `[s, e)` as (at most) two contiguous slices.
    fn window_slices(&self, s: usize, e: usize) -> (&[JobTerm], &[JobTerm]) {
        let (a, b) = self.jobs.as_slices();
        if e <= a.len() {
            (&a[s..e], &[])
        } else if s >= a.len() {
            (&[], &b[s - a.len()..e - a.len()])
        } else {
            (&a[s..], &b[..e - a.len()])
        }
    }
}

/// Per-class incremental Eq. 1 state for every `(stage, shape)` queue.
///
/// Mirrors the platform's `QueueSet`: the owner must call
/// [`QueueAggregates::on_enqueue`] for every job batch pushed and
/// [`QueueAggregates::on_pop`] for every entry popped, in the same
/// order. [`QueueAggregates::pricer`] then prices Eq. 1 for a class
/// without touching the queue itself.
#[derive(Debug, Clone, Default)]
pub struct QueueAggregates {
    stages: Vec<[ClassAgg; N_SHAPES]>,
}

impl QueueAggregates {
    /// An empty mirror.
    pub fn new() -> Self {
        Self::default()
    }

    fn class_mut(&mut self, class: TaskClass) -> &mut ClassAgg {
        while self.stages.len() <= class.stage {
            self.stages.push(std::array::from_fn(|_| ClassAgg::default()));
        }
        &mut self.stages[class.stage][shape_slot(class.cores)]
    }

    fn class(&self, class: TaskClass) -> Option<&ClassAgg> {
        Some(&self.stages.get(class.stage)?[shape_slot(class.cores)])
    }

    /// Records one job's `shards` entries entering `class`'s queue (they
    /// are pushed consecutively, so the mirror gains one term).
    ///
    /// # Panics
    /// Panics on a zero-shard batch.
    pub fn on_enqueue(
        &mut self,
        class: TaskClass,
        job: u32,
        d: f64,
        submitted_at: SimTime,
        shards: u32,
    ) {
        assert!(shards > 0, "a stage batch has at least one shard");
        let agg = self.class_mut(class);
        agg.pushed_entries += shards as u64;
        agg.pushed_cum_d += d;
        agg.jobs.push_back(JobTerm {
            job,
            d,
            submitted_at,
            future: 0.0,
            revision: 0,
            entries: shards,
            cum_entries: agg.pushed_entries,
            cum_d: agg.pushed_cum_d,
        });
    }

    /// Records one entry popped from the front of `class`'s queue.
    ///
    /// # Panics
    /// Panics when the mirror has no pending entries for the class.
    pub fn on_pop(&mut self, class: TaskClass) {
        let agg = self.class_mut(class);
        let front = agg.jobs.front_mut().expect("pop mirrored on an empty class aggregate");
        debug_assert!(front.entries > 0, "front term has pending entries");
        front.entries -= 1;
        agg.popped_entries += 1;
        if front.entries == 0 {
            debug_assert_eq!(
                front.cum_entries, agg.popped_entries,
                "fully-popped job closes exactly at the pop cursor"
            );
            agg.base_cum_d = front.cum_d;
            agg.jobs.pop_front();
        }
    }

    /// Pending entries mirrored for a class (must equal the queue's
    /// length — the platform's debug oracle asserts it).
    pub fn entries(&self, class: TaskClass) -> usize {
        self.class(class).map(|a| (a.pushed_entries - a.popped_entries) as usize).unwrap_or(0)
    }

    /// A counter that changes whenever `class`'s queue does: entries
    /// ever pushed plus entries ever popped. Equal versions mean the
    /// same queue contents, so a decision priced at one version holds
    /// its Eq. 1 window at the other.
    pub fn version(&self, class: TaskClass) -> u64 {
        self.class(class).map_or(0, |a| a.pushed_entries + a.popped_entries)
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
        let agg = self.class_mut(class);
        let lo = agg.popped_entries + skip as u64;
        let (s, e) = agg.job_window(lo, lo + cap as u64);
        for term in agg.jobs.range_mut(s..e) {
            if term.revision != revision {
                term.future = refresh(term.job);
                term.revision = revision;
            }
        }
    }

    /// Borrows an Eq. 1 pricer over the class's current view window:
    /// the distinct jobs among pending entries `[skip, skip + cap)`.
    pub fn pricer(&self, class: TaskClass, skip: usize, cap: usize, now: SimTime) -> Eq1Pricer<'_> {
        static EMPTY: &[JobTerm] = &[];
        let Some(agg) = self.class(class) else {
            return Eq1Pricer { head: EMPTY, tail: EMPTY, sum_d: 0.0, now };
        };
        let lo = agg.popped_entries + skip as u64;
        let (s, e) = agg.job_window(lo, lo + cap as u64);
        let (head, tail) = agg.window_slices(s, e);
        Eq1Pricer { head, tail, sum_d: agg.window_d_sum(s, e), now }
    }
}

/// A borrowed Eq. 1 pricing view over one class's aggregate window.
#[derive(Debug, Clone, Copy)]
pub struct Eq1Pricer<'a> {
    head: &'a [JobTerm],
    tail: &'a [JobTerm],
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

    /// Reference model of the platform queue + naive view fill: entries
    /// with their job ids, plus per-job (d, submitted_at).
    #[derive(Default)]
    struct NaiveQueue {
        entries: Vec<u32>,
        jobs: Vec<(f64, SimTime)>,
    }

    impl NaiveQueue {
        fn view(&self, skip: usize, cap: usize, now: SimTime, revision: u64) -> Vec<QueuedJobView> {
            let mut seen = vec![false; self.jobs.len()];
            let mut out = Vec::new();
            for &job in self.entries.iter().skip(skip).take(cap) {
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
    }

    #[test]
    fn empty_and_unallocated_classes_price_to_zero() {
        let agg = QueueAggregates::new();
        let p = agg.pricer(CLASS, 0, 256, SimTime::new(5.0));
        assert!(p.is_empty());
        assert_eq!(p.delay_cost(&RewardFn::paper_time_based(), 3.0), 0.0);
        assert_eq!(p.delay_cost(&RewardFn::paper_throughput_based(), 3.0), 0.0);
    }

    #[test]
    fn version_moves_on_every_push_and_pop() {
        let mut agg = QueueAggregates::new();
        assert_eq!(agg.version(CLASS), 0);
        agg.on_enqueue(CLASS, 0, 1.0, SimTime::ZERO, 2);
        let pushed = agg.version(CLASS);
        agg.on_pop(CLASS);
        assert!(agg.version(CLASS) > pushed);
        let other = TaskClass { stage: 1, cores: 4 };
        agg.on_enqueue(other, 1, 1.0, SimTime::ZERO, 1);
        assert_eq!(agg.version(CLASS), pushed + 1, "another class's queue leaves it alone");
    }

    #[test]
    fn time_based_window_sum_matches_walk() {
        let mut agg = QueueAggregates::new();
        for i in 0..5u32 {
            agg.on_enqueue(CLASS, i, 5.0, SimTime::ZERO, 1);
        }
        let p = agg.pricer(CLASS, 0, 256, SimTime::new(1.0));
        assert_eq!(p.window_len(), 5);
        // 5 jobs × 5 units × rpenalty 15 × delay 2.
        assert!((p.delay_cost(&RewardFn::paper_time_based(), 2.0) - 750.0).abs() < 1e-9);
    }

    #[test]
    fn skip_and_cap_are_entry_windows_not_job_windows() {
        let mut agg = QueueAggregates::new();
        // Job 0: 3 shards, job 1: 2 shards, job 2: 1 shard.
        agg.on_enqueue(CLASS, 0, 1.0, SimTime::ZERO, 3);
        agg.on_enqueue(CLASS, 1, 10.0, SimTime::ZERO, 2);
        agg.on_enqueue(CLASS, 2, 100.0, SimTime::ZERO, 1);
        let now = SimTime::new(1.0);
        // Window [0, 3): job 0 only.
        assert_eq!(agg.pricer(CLASS, 0, 3, now).sum_d(), 1.0);
        // Window [2, 4): tail of job 0 + head of job 1.
        assert_eq!(agg.pricer(CLASS, 2, 2, now).sum_d(), 11.0);
        // Window [3, 9): jobs 1 and 2.
        assert_eq!(agg.pricer(CLASS, 3, 6, now).sum_d(), 110.0);
        // Skip past everything: empty.
        assert!(agg.pricer(CLASS, 6, 256, now).is_empty());
        // Pop two entries of job 0: the window shifts with the cursor.
        agg.on_pop(CLASS);
        agg.on_pop(CLASS);
        assert_eq!(agg.entries(CLASS), 4);
        assert_eq!(agg.pricer(CLASS, 0, 1, now).sum_d(), 1.0);
        assert_eq!(agg.pricer(CLASS, 1, 1, now).sum_d(), 10.0);
    }

    #[test]
    fn fully_popped_jobs_leave_the_mirror() {
        let mut agg = QueueAggregates::new();
        agg.on_enqueue(CLASS, 0, 2.0, SimTime::ZERO, 2);
        agg.on_enqueue(CLASS, 1, 3.0, SimTime::ZERO, 1);
        agg.on_pop(CLASS);
        agg.on_pop(CLASS);
        let p = agg.pricer(CLASS, 0, 256, SimTime::new(1.0));
        assert_eq!(p.window_len(), 1);
        assert_eq!(p.sum_d(), 3.0);
        agg.on_pop(CLASS);
        assert_eq!(agg.entries(CLASS), 0);
        assert!(agg.pricer(CLASS, 0, 256, SimTime::new(1.0)).is_empty());
    }

    #[test]
    fn revalidation_refreshes_only_stale_window_terms() {
        let mut agg = QueueAggregates::new();
        for i in 0..4u32 {
            agg.on_enqueue(CLASS, i, 1.0, SimTime::ZERO, 1);
        }
        let mut calls = Vec::new();
        agg.revalidate_window(CLASS, 0, 2, 1, |job| {
            calls.push(job);
            toy_future(job, 1)
        });
        assert_eq!(calls, vec![0, 1], "only the window is refreshed");
        calls.clear();
        agg.revalidate_window(CLASS, 0, 2, 1, |job| {
            calls.push(job);
            toy_future(job, 1)
        });
        assert!(calls.is_empty(), "fresh terms are skipped");
        agg.revalidate_window(CLASS, 0, 4, 2, |job| {
            calls.push(job);
            toy_future(job, 2)
        });
        assert_eq!(calls, vec![0, 1, 2, 3], "a new revision refreshes everything in view");
    }

    proptest! {
        /// The incremental aggregate equals the naive skip/cap/dedup
        /// view walk across all four reward schemes and arbitrary
        /// enqueue/pop/observe interleavings: bit-for-bit for the
        /// ETT-dependent schemes, within the documented relative ulp
        /// bound for the factored time-based sum.
        ///
        /// Each op is a `(selector, d, shards, skip, delay)` tuple (the
        /// offline proptest stand-in has no strategy combinators):
        /// selector 0–2 enqueues a fresh job, 3–5 pops one entry, 6
        /// bumps the estimator revision, 7–8 prices and compares.
        #[test]
        fn prop_aggregate_matches_naive_walk(
            ops in proptest::collection::vec(
                (0u8..9, 0.5f64..20.0, 1u32..4, 0usize..12, 0.0f64..10.0),
                1..60,
            ),
            small_cap in 0u8..2,
        ) {
            let cap = if small_cap == 0 { 4usize } else { 256 };
            for reward in reward_schemes() {
                let mut agg = QueueAggregates::new();
                let mut naive = NaiveQueue::default();
                let mut revision = 1u64;
                let mut now = 0.0f64;
                for &(sel, d, shards, skip, delay) in &ops {
                    now += 0.25;
                    let t = SimTime::new(now);
                    match sel {
                        0..=2 => {
                            let job = naive.jobs.len() as u32;
                            naive.jobs.push((d, t));
                            naive.entries.extend(std::iter::repeat_n(job, shards as usize));
                            agg.on_enqueue(CLASS, job, d, t, shards);
                        }
                        3..=5 => {
                            if !naive.entries.is_empty() {
                                naive.entries.remove(0);
                                agg.on_pop(CLASS);
                            }
                        }
                        6 => revision += 1,
                        _ => {
                            prop_assert_eq!(agg.entries(CLASS), naive.entries.len());
                            if reward.depends_on_ett() {
                                agg.revalidate_window(CLASS, skip, cap, revision, |job| {
                                    toy_future(job, revision)
                                });
                            }
                            let view = naive.view(skip, cap, t, revision);
                            let walk = delay_cost(&reward, &view, delay);
                            let p = agg.pricer(CLASS, skip, cap, t);
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
                }
            }
        }
    }
}
