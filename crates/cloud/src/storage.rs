//! The shared store: the CIFS filesystem + Cassandra database stand-in.
//!
//! §III-B: the prototype used "CIFS for the shared filesystem and Apache
//! Cassandra for the database"; §I motivates SCAN partly by "blocked I/O
//! due to the volume of data that must be fetched". Storage only reaches
//! the evaluation through that staging delay, so the store is its
//! transfer model and nothing else: moving `size` GB to a worker costs
//! `latency + size / bandwidth` time units. No dataset registry is kept.
//! The broker's trick of staging data "just before they are needed"
//! shows up as overlapping this delay with queue time.

use scan_sim::SimDuration;

/// Transfer-performance model of the shared store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    /// Fixed per-transfer latency, TU.
    pub latency_tu: f64,
    /// Sustained bandwidth, GB per TU.
    pub bandwidth_gb_per_tu: f64,
}

impl Default for TransferModel {
    fn default() -> Self {
        // 1 TU = 1 minute: ~6 GB/min sustained (≈100 MB/s NAS), 0.02 TU
        // (~1 s) of protocol latency.
        TransferModel { latency_tu: 0.02, bandwidth_gb_per_tu: 6.0 }
    }
}

impl TransferModel {
    /// Time to stage `size_gb` to or from a worker.
    #[inline]
    pub fn transfer_time(&self, size_gb: f64) -> SimDuration {
        assert!(size_gb >= 0.0);
        SimDuration::new(self.latency_tu + size_gb / self.bandwidth_gb_per_tu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_formula() {
        let m = TransferModel { latency_tu: 0.1, bandwidth_gb_per_tu: 4.0 };
        assert!((m.transfer_time(2.0).as_tu() - 0.6).abs() < 1e-12);
        assert!((m.transfer_time(0.0).as_tu() - 0.1).abs() < 1e-12);
    }
}
