//! One seeded session run, with optional trace observers.

use crate::config::ScanConfig;
use crate::metrics::SessionMetrics;
use crate::platform::Platform;
use scan_sim::Observer;
use std::cell::RefCell;
use std::rc::Rc;

/// Runs one repetition of one configuration to completion.
pub fn run_session(cfg: &ScanConfig, repetition: u64) -> SessionMetrics {
    Platform::new(cfg.clone(), repetition).run()
}

/// Runs one repetition with a caller-built observer attached, returning
/// the observer alongside the metrics once the run is over.
///
/// This is the single-session half of the parallel-driver observer
/// story: the driver builds the observer *inside* the worker task, this
/// function threads it through the session's `Rc<RefCell<_>>` sink
/// plumbing, and hands back sole ownership afterwards so the observer
/// can cross back to the coordinating thread. Attach further observers
/// to one run with [`Platform::add_observer`].
pub fn run_session_with<O: Observer + 'static>(
    cfg: &ScanConfig,
    repetition: u64,
    observer: O,
) -> (SessionMetrics, O) {
    let sink = Rc::new(RefCell::new(observer));
    let mut platform = Platform::new(cfg.clone(), repetition);
    platform.add_observer(sink.clone());
    let metrics = platform.run();
    // The platform (and every tracer clone) is dropped once the run
    // returns, so the handle is unique again.
    let observer =
        Rc::try_unwrap(sink).ok().expect("observer uniquely owned after the run").into_inner();
    (metrics, observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariableParams;
    use scan_sched::scaling::ScalingPolicy;

    fn cfg() -> ScanConfig {
        let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.8), 5);
        cfg.fixed.sim_time_tu = 150.0;
        cfg
    }

    #[test]
    fn run_session_smoke() {
        let m = run_session(&cfg(), 3);
        assert!(m.jobs_submitted > 0);
    }
}
