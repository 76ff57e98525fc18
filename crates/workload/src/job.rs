//! Jobs and stage tasks.
//!
//! A *job* is one user-submitted pipeline run with an input size. Each
//! pipeline stage of a job becomes a [`StageTask`]; the Data Broker may
//! split a stage task into shard-level subtasks (tracked by the platform's
//! scheduler as `(task, shard_index)` pairs).

use scan_sim::SimTime;

/// Identifies a job within a simulation run: its arrival ordinal.
///
/// Arrivals assign ids sequentially from zero and never reuse one within
/// a session; the trace reports them. The platform keeps a live job's
/// state in a reusable slot of its job table, not at `JobId.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

/// One submitted pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// Input size in abstract units (Table III: mean 5, variance 1).
    pub size_units: f64,
    /// "The number of records of input data supplied" — the reward
    /// function's record count; proportional to size in our model.
    pub records: u64,
    /// Submission instant ("latency measures the time from a task entering
    /// the queue for the first analysis stage").
    pub submitted_at: SimTime,
}

impl Job {
    /// Creates a job. Records are derived from size (1000 records/unit).
    pub fn new(id: JobId, size_units: f64, submitted_at: SimTime) -> Self {
        assert!(size_units > 0.0, "jobs must have positive size");
        Job { id, size_units, records: (size_units * 1000.0).round() as u64, submitted_at }
    }

    /// Latency from submission to `now`.
    pub fn latency(&self, now: SimTime) -> f64 {
        (now - self.submitted_at).as_tu()
    }
}

/// One stage of one job, as queued by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTask {
    /// Owning job.
    pub job: JobId,
    /// 0-based stage index.
    pub stage: usize,
    /// Number of shard subtasks this stage was split into.
    pub shards: u32,
    /// Threads each subtask will use.
    pub threads: u32,
    /// When this stage entered its queue.
    pub enqueued_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_records_scale_with_size() {
        let j = Job::new(JobId(1), 5.0, SimTime::ZERO);
        assert_eq!(j.records, 5000);
        assert_eq!(Job::new(JobId(2), 2.5, SimTime::ZERO).records, 2500);
    }

    #[test]
    fn latency_measured_from_submission() {
        let j = Job::new(JobId(1), 5.0, SimTime::new(10.0));
        assert!((j.latency(SimTime::new(35.5)) - 25.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive size")]
    fn zero_size_rejected() {
        Job::new(JobId(1), 0.0, SimTime::ZERO);
    }
}
