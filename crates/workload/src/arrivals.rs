//! The batch arrival process of Table III.
//!
//! Jobs arrive in bursts: arrival *events* are separated by exponential
//! intervals (mean 2.0–3.0 TU, the swept workload knob), each event brings
//! a normal number of jobs (mean 3, variance 2, at least 1), and each job
//! has a normal size (mean 5, variance 1, floored well above zero). The
//! paper chose these "to produce significant short-term workload
//! variation".

use crate::job::{Job, JobId};
use scan_sim::{SimDuration, SimRng, SimTime};

/// Mean job size, units (Table III: 5): the size the planners and the
/// standing pools forecast for a job they have not seen.
pub const MEAN_JOB_SIZE: f64 = 5.0;

/// Arrival-process parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalConfig {
    /// Mean inter-arrival interval between batch events, TU (Table I:
    /// 2.0, 2.1, …, 3.0).
    pub mean_interval: f64,
    /// Mean jobs per arrival event (Table III: 3).
    pub mean_batch: f64,
    /// Variance of jobs per event (Table III: 2).
    pub batch_variance: f64,
    /// Mean job size, units (Table III: 5).
    pub mean_size: f64,
    /// Variance of job size (Table III: 1).
    pub size_variance: f64,
}

impl ArrivalConfig {
    /// Table III defaults at a given mean interval.
    #[inline]
    pub fn paper(mean_interval: f64) -> Self {
        assert!(mean_interval > 0.0);
        ArrivalConfig {
            mean_interval,
            mean_batch: 3.0,
            batch_variance: 2.0,
            mean_size: MEAN_JOB_SIZE,
            size_variance: 1.0,
        }
    }

    /// Long-run average job arrival rate (jobs per TU).
    #[inline]
    pub fn mean_job_rate(&self) -> f64 {
        self.mean_batch / self.mean_interval
    }
}

/// One arrival event: a batch of jobs landing together.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalBatch {
    /// When the batch arrives.
    pub at: SimTime,
    /// The jobs (ids assigned sequentially by the process).
    pub jobs: Vec<Job>,
}

/// Generates the arrival stream deterministically from two named RNG
/// streams (one for timing, one for sizes — so a policy change that draws
/// differently elsewhere cannot perturb the workload).
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    config: ArrivalConfig,
    timing_rng: SimRng,
    size_rng: SimRng,
    next_job_id: u32,
    next_at: SimTime,
}

/// Smallest job size the generator will emit (units). Keeps sizes positive
/// and reward terms well-defined; ≈ 4σ below the paper's mean.
pub const MIN_JOB_SIZE: f64 = 1.0;

impl ArrivalProcess {
    /// Creates the process; the first batch arrives after one interval.
    pub fn new(config: ArrivalConfig, timing_rng: SimRng, size_rng: SimRng) -> Self {
        let mut p =
            ArrivalProcess { config, timing_rng, size_rng, next_job_id: 0, next_at: SimTime::ZERO };
        let gap = p.timing_rng.exponential(p.config.mean_interval);
        p.next_at = SimTime::ZERO + SimDuration::new(gap);
        p
    }

    /// When the next batch will arrive.
    #[inline]
    pub fn next_arrival_at(&self) -> SimTime {
        self.next_at
    }

    /// Produces the next batch into `jobs` (cleared first, so a caller
    /// reusing one buffer allocates only when a batch outgrows it),
    /// schedules the one after, and returns the batch's arrival instant.
    #[inline]
    pub fn next_batch(&mut self, jobs: &mut Vec<Job>) -> SimTime {
        let at = self.next_at;
        let n = self.size_rng.count_normal(self.config.mean_batch, self.config.batch_variance, 1);
        jobs.clear();
        jobs.extend((0..n).map(|_| {
            let size = self.size_rng.truncated_normal(
                self.config.mean_size,
                self.config.size_variance,
                MIN_JOB_SIZE,
            );
            let id = JobId(self.next_job_id);
            self.next_job_id += 1;
            Job::new(id, size, at)
        }));
        let gap = self.timing_rng.exponential(self.config.mean_interval);
        self.next_at = at + SimDuration::new(gap);
        at
    }

    /// Generates all batches up to a horizon (convenience for tests and
    /// open-loop analysis).
    pub fn batches_until(&mut self, horizon: SimTime) -> Vec<ArrivalBatch> {
        let mut out = Vec::new();
        while self.next_at <= horizon {
            let mut jobs = Vec::new();
            let at = self.next_batch(&mut jobs);
            out.push(ArrivalBatch { at, jobs });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_sim::RngHub;

    fn process(interval: f64, seed: u64) -> ArrivalProcess {
        let hub = RngHub::new(seed, 0);
        ArrivalProcess::new(
            ArrivalConfig::paper(interval),
            hub.stream("arrival-timing"),
            hub.stream("arrival-sizes"),
        )
    }

    #[test]
    fn batches_are_time_ordered_with_ids_sequential() {
        let mut p = process(2.0, 1);
        let batches = p.batches_until(SimTime::new(100.0));
        assert!(!batches.is_empty());
        let mut last = SimTime::ZERO;
        let mut expect_id = 0u32;
        for b in &batches {
            assert!(b.at >= last);
            last = b.at;
            assert!(!b.jobs.is_empty());
            for j in &b.jobs {
                assert_eq!(j.id.0, expect_id);
                expect_id += 1;
                assert_eq!(j.submitted_at, b.at);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<ArrivalBatch> = process(2.5, 7).batches_until(SimTime::new(50.0));
        let b: Vec<ArrivalBatch> = process(2.5, 7).batches_until(SimTime::new(50.0));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = process(2.5, 7).batches_until(SimTime::new(50.0));
        let b = process(2.5, 8).batches_until(SimTime::new(50.0));
        assert_ne!(a, b);
    }

    #[test]
    fn empirical_rates_match_table_iii() {
        let mut p = process(2.0, 42);
        let horizon = 20_000.0;
        let batches = p.batches_until(SimTime::new(horizon));
        let n_batches = batches.len() as f64;
        let n_jobs: usize = batches.iter().map(|b| b.jobs.len()).sum();
        // Inter-arrival mean ≈ 2.0.
        assert!((horizon / n_batches - 2.0).abs() < 0.1, "rate {}", horizon / n_batches);
        // Jobs per batch ≈ 3 (slightly above due to the ≥1 floor).
        let per_batch = n_jobs as f64 / n_batches;
        assert!((per_batch - 3.0).abs() < 0.15, "per-batch {per_batch}");
        // Mean size ≈ 5.
        let mean_size: f64 =
            batches.iter().flat_map(|b| b.jobs.iter().map(|j| j.size_units)).sum::<f64>()
                / n_jobs as f64;
        assert!((mean_size - 5.0).abs() < 0.05, "mean size {mean_size}");
    }

    #[test]
    fn sizes_respect_floor() {
        let mut p = process(2.0, 3);
        let batches = p.batches_until(SimTime::new(5000.0));
        assert!(batches.iter().flat_map(|b| &b.jobs).all(|j| j.size_units >= MIN_JOB_SIZE));
    }

    #[test]
    fn job_rate_helper() {
        assert!((ArrivalConfig::paper(2.0).mean_job_rate() - 1.5).abs() < 1e-12);
        assert!((ArrivalConfig::paper(3.0).mean_job_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn size_stream_independent_of_timing_stream() {
        // Same size seed, different timing seeds → same first-batch sizes
        // per job index is NOT guaranteed (batch boundaries move), but the
        // *job-size sequence* is identical because it comes from its own
        // stream.
        let hub1 = RngHub::new(5, 0);
        let hub2 = RngHub::new(5, 0);
        let mut p1 = ArrivalProcess::new(
            ArrivalConfig::paper(2.0),
            hub1.stream("timing-A"),
            hub1.stream("sizes"),
        );
        let mut p2 = ArrivalProcess::new(
            ArrivalConfig::paper(2.0),
            hub2.stream("timing-B"),
            hub2.stream("sizes"),
        );
        let sizes = |p: &mut ArrivalProcess| -> Vec<u64> {
            let (mut out, mut batch) = (Vec::new(), Vec::new());
            while out.len() < 50 {
                p.next_batch(&mut batch);
                out.extend(batch.iter().map(|j| (j.size_units * 1e6) as u64));
            }
            out.truncate(50);
            out
        };
        assert_eq!(sizes(&mut p1), sizes(&mut p2));
    }
}
