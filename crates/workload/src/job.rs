//! Jobs.
//!
//! A *job* is one user-submitted pipeline run with an input size. The
//! reward scales with that size (Table III's "units"); the platform's
//! scheduler splits each stage of a job into shard-level subtasks.

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
    /// Submission instant ("latency measures the time from a task entering
    /// the queue for the first analysis stage").
    pub submitted_at: SimTime,
}

impl Job {
    /// Creates a job.
    #[inline]
    pub fn new(id: JobId, size_units: f64, submitted_at: SimTime) -> Self {
        assert!(size_units > 0.0, "jobs must have positive size");
        Job { id, size_units, submitted_at }
    }

    /// Latency from submission to `now`.
    #[inline]
    pub fn latency(&self, now: SimTime) -> f64 {
        (now - self.submitted_at).as_tu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
