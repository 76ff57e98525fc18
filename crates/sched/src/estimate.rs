//! The Eq. 2 estimators.
//!
//! `ETT(j) = elapsed_j + Σ_{i = S_j} (EQT_i + EET_i(j))`
//!
//! * `EET_i(j)` — estimated execution time of stage `i` for job `j`: "a
//!   linear function of the number of job input records derived from
//!   profiling data". We evaluate the job's planned `(shards, threads)`
//!   against the (knowledge-base-learned) stage model.
//! * `EQT_i` — "the time we expect a general job to spend in the queue for
//!   stage `i`": an exponentially-weighted average of observed waits,
//!   which tracks load swings without storing history.

use scan_sim::SimTime;
use scan_workload::gatk::PipelineModel;
use scan_workload::job::Job;

/// Exponentially-weighted queue-wait tracker, one slot per stage.
#[derive(Debug, Clone)]
pub struct QueueTimeTracker {
    ewma: Vec<f64>,
    alpha: f64,
    observations: Vec<u64>,
    /// Bumped whenever the EWMA state changes, so cached future-stage
    /// estimates (the class queues' Eq. 1 terms) know when to
    /// revalidate. Starts at 1: revision 0 is the "never computed"
    /// sentinel on the cache side.
    revision: u64,
}

impl QueueTimeTracker {
    /// Creates a tracker for `n_stages` stages with smoothing factor
    /// `alpha` (weight of the newest observation).
    pub fn new(n_stages: usize, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha) && alpha > 0.0);
        QueueTimeTracker {
            ewma: vec![0.0; n_stages],
            alpha,
            observations: vec![0; n_stages],
            revision: 1,
        }
    }

    /// Records an observed queue wait for a stage.
    #[inline]
    pub fn observe(&mut self, stage: usize, wait_tu: f64) {
        assert!(wait_tu >= 0.0);
        let slot = &mut self.ewma[stage];
        if self.observations[stage] == 0 {
            *slot = wait_tu;
        } else {
            *slot = self.alpha * wait_tu + (1.0 - self.alpha) * *slot;
        }
        self.observations[stage] += 1;
        self.revision += 1;
    }

    /// Current `EQT_i` estimate (0 until first observation).
    #[inline]
    pub fn eqt(&self, stage: usize) -> f64 {
        self.ewma[stage]
    }

    /// Sum of `EQT_i` over stages `from..`.
    #[inline]
    pub fn eqt_tail(&self, from: usize) -> f64 {
        self.ewma[from..].iter().sum()
    }

    /// Observations recorded for a stage.
    pub fn observations(&self, stage: usize) -> u64 {
        self.observations[stage]
    }

    /// Current revision: changes iff a future-stage estimate computed
    /// from this tracker's EWMAs could have changed.
    #[inline]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    #[inline]
    fn bump_revision(&mut self) {
        self.revision += 1;
    }
}

/// The combined ETT estimator: stage models + queue tracker.
#[derive(Debug, Clone)]
pub struct EttEstimator {
    model: PipelineModel,
    queue_times: QueueTimeTracker,
}

impl EttEstimator {
    /// Builds an estimator over a (possibly learned) pipeline model.
    pub fn new(model: PipelineModel, alpha: f64) -> Self {
        let n = model.n_stages();
        EttEstimator { model, queue_times: QueueTimeTracker::new(n, alpha) }
    }

    /// The underlying model.
    pub fn model(&self) -> &PipelineModel {
        &self.model
    }

    /// Replaces the stage models (long-term-adaptive refreshes). Bumps
    /// the revision: cached future-stage estimates derived from the old
    /// models are stale.
    #[inline]
    pub fn set_model(&mut self, model: PipelineModel) {
        assert_eq!(model.n_stages(), self.model.n_stages());
        self.model = model;
        self.queue_times.bump_revision();
    }

    /// Mutable access to the queue tracker (the dispatcher feeds it).
    #[inline]
    pub fn queue_times_mut(&mut self) -> &mut QueueTimeTracker {
        &mut self.queue_times
    }

    /// Read access to the queue tracker.
    #[inline]
    pub fn queue_times(&self) -> &QueueTimeTracker {
        &self.queue_times
    }

    /// Revision of this estimator's inputs: [`EttEstimator::remaining`]
    /// for a fixed `(job, stage, plan)` returns bit-identical values
    /// between two calls at the same revision, so Eq. 1 caches keyed on
    /// it never go stale silently.
    #[inline]
    pub fn revision(&self) -> u64 {
        self.queue_times.revision()
    }

    /// `EET_i(j)`: execution-time estimate of stage `i` under the job's
    /// plan entry `(shards, threads)`.
    #[inline]
    pub fn eet(&self, stage: usize, size_units: f64, shards: u32, threads: u32) -> f64 {
        self.model.stage_latency(stage, size_units, shards, threads)
    }

    /// `Σ_{i ≥ current_stage} (EQT_i + EET_i)` — the shared future-stage
    /// loop of [`EttEstimator::ett`] and [`EttEstimator::remaining`].
    ///
    /// Fused on purpose: the Eq. 1 queue-view fill calls this once per
    /// queued job, so the per-stage arithmetic is inlined here with the
    /// `units_to_gb` conversion hoisted out of the loop (it does not
    /// depend on the stage). Bit-exact with the naive per-stage
    /// `eqt(i) + eet(i, …)` sum: identical operations in identical order,
    /// folded from 0 like `Iterator::sum` — `prop_future_matches_naive_sum`
    /// pins this.
    #[inline]
    fn future_from(&self, current_stage: usize, size_units: f64, plan: &[(u32, u32)]) -> f64 {
        assert!(plan.len() >= self.model.n_stages());
        let g = self.model.units_to_gb(size_units);
        let mut future = 0.0;
        for ((factors, &(shards, threads)), &eqt) in self.model.stages[current_stage..]
            .iter()
            .zip(&plan[current_stage..self.model.n_stages()])
            .zip(&self.queue_times.ewma[current_stage..])
        {
            debug_assert!(shards >= 1);
            let d = g / shards as f64;
            future += eqt + factors.threaded_time(threads, d);
        }
        future
    }

    /// Eq. 2: estimated total latency of `job`, which has completed stages
    /// `0..current_stage` and now sits at `current_stage`, under `plan`
    /// (per-stage `(shards, threads)`).
    #[inline]
    pub fn ett(&self, job: &Job, current_stage: usize, plan: &[(u32, u32)], now: SimTime) -> f64 {
        assert_eq!(plan.len(), self.model.n_stages());
        let elapsed = job.latency(now);
        elapsed + self.future_from(current_stage, job.size_units, plan)
    }

    /// Estimated *remaining* time (ETT minus elapsed).
    pub fn remaining(&self, job: &Job, current_stage: usize, plan: &[(u32, u32)]) -> f64 {
        self.future_from(current_stage, job.size_units, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_workload::job::JobId;

    #[test]
    fn ewma_tracks_observations() {
        let mut t = QueueTimeTracker::new(3, 0.5);
        assert_eq!(t.eqt(0), 0.0);
        t.observe(0, 4.0);
        assert_eq!(t.eqt(0), 4.0, "first observation seeds the average");
        t.observe(0, 8.0);
        assert_eq!(t.eqt(0), 6.0);
        t.observe(0, 6.0);
        assert_eq!(t.eqt(0), 6.0);
        assert_eq!(t.observations(0), 3);
        assert_eq!(t.eqt(1), 0.0);
    }

    #[test]
    fn eqt_tail_sums_future_stages() {
        let mut t = QueueTimeTracker::new(3, 1.0);
        t.observe(0, 1.0);
        t.observe(1, 2.0);
        t.observe(2, 4.0);
        assert_eq!(t.eqt_tail(0), 7.0);
        assert_eq!(t.eqt_tail(1), 6.0);
        assert_eq!(t.eqt_tail(2), 4.0);
    }

    #[test]
    fn ett_is_elapsed_plus_future() {
        let model = PipelineModel::paper();
        let mut est = EttEstimator::new(model.clone(), 0.3);
        // Seed EQTs: 1 TU for every stage.
        for i in 0..7 {
            est.queue_times_mut().observe(i, 1.0);
        }
        let job = Job::new(JobId(1), 5.0, SimTime::new(10.0));
        let plan = [(1u32, 1u32); 7];
        let now = SimTime::new(15.0); // elapsed = 5
        let ett = est.ett(&job, 0, &plan, now);
        let expect = 5.0 + 7.0 + model.serial_latency(5.0);
        assert!((ett - expect).abs() < 1e-9, "{ett} vs {expect}");
        // From stage 3 only stages 3..7 contribute.
        let ett3 = est.ett(&job, 3, &plan, now);
        let future: f64 = (3..7).map(|i| model.stage_latency(i, 5.0, 1, 1) + 1.0).sum();
        assert!((ett3 - (5.0 + future)).abs() < 1e-9);
        // remaining == ett − elapsed.
        assert!((est.remaining(&job, 3, &plan) - (ett3 - 5.0)).abs() < 1e-9);
    }

    #[test]
    fn plan_affects_eet() {
        let est = EttEstimator::new(PipelineModel::paper(), 0.3);
        // Threading stage 5 (c=0.91) cuts its EET.
        let slow = est.eet(4, 5.0, 1, 1);
        let fast = est.eet(4, 5.0, 1, 16);
        assert!(fast < slow / 4.0);
    }

    #[test]
    #[should_panic]
    fn wrong_plan_length_panics() {
        let est = EttEstimator::new(PipelineModel::paper(), 0.3);
        let job = Job::new(JobId(1), 5.0, SimTime::ZERO);
        est.ett(&job, 0, &[(1, 1); 3], SimTime::ZERO);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The fused future-stage loop must be *bit-exact* with the
            /// naive per-stage `eqt(i) + eet(i, …)` sum it replaced — the
            /// golden fixed-seed trace hash depends on every ETT bit.
            #[test]
            fn prop_future_matches_naive_sum(
                size in 0.5f64..20.0,
                current in 0usize..7,
                waits in proptest::collection::vec(0.0f64..30.0, 7..8),
                plan_raw in proptest::collection::vec((1u32..8, 1u32..16), 7..8),
            ) {
                let mut est = EttEstimator::new(PipelineModel::paper(), 0.3);
                for (i, &w) in waits.iter().enumerate() {
                    est.queue_times_mut().observe(i, w);
                }
                let plan: Vec<(u32, u32)> = plan_raw.clone();
                let job = Job::new(JobId(1), size, SimTime::ZERO);
                let naive: f64 = (current..7)
                    .map(|i| {
                        let (s, t) = plan[i];
                        est.queue_times().eqt(i) + est.eet(i, size, s, t)
                    })
                    .sum();
                let fused = est.remaining(&job, current, &plan);
                prop_assert_eq!(fused.to_bits(), naive.to_bits());
            }
        }
    }
}
