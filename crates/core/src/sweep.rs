//! Replicated runs and parameter-grid sweeps, parallelised with rayon.
//!
//! Each `(cell, repetition)` pair is an independent, deterministic
//! simulation (its RNG streams derive from `(seed, repetition)`), so the
//! rayon fan-out provably returns the same results as a sequential loop —
//! the data-parallel contract the workspace's HPC guides are built on.
//!
//! # Observing parallel sessions
//!
//! Session observers are `Rc<RefCell<_>>` sinks and cannot cross the
//! rayon task boundary, so [`sweep_grid_with`] takes a `Sync` builder
//! closure instead and calls it inside each worker task with the tenant
//! number, which is always 0 here ([`TenantId::SOLO`]). Each session
//! owns its observer; the finished observers return and are merged with
//! [`Merge::merge`] strictly in repetition order — *not* in
//! task-completion order — so the statistics a sweep reports are
//! bit-identical whether rayon ran on one thread or N
//! (`RAYON_NUM_THREADS=1` reproduces the sequential fold exactly; the
//! determinism tests below assert this).

use crate::config::{ScanConfig, VariableParams};
use crate::metrics::ReplicatedMetrics;
use crate::session::{run_session, run_session_with};
use rayon::prelude::*;
use scan_sim::{Merge, NullObserver, Observer, TenantId};

/// Runs `repetitions` seeded repetitions of one configuration in parallel
/// and aggregates mean ± σ: the one-cell case of [`sweep_grid_with`],
/// with no observer attached to any session.
pub fn run_replicated(cfg: &ScanConfig, repetitions: u64) -> ReplicatedMetrics {
    let no_sink = None::<&fn(u64) -> NullObserver>;
    let mut cells = sweep_grid_observed(cfg, &[cfg.variable], repetitions, no_sink);
    cells.pop().expect("one cell").metrics
}

/// One sweep cell's outcome with its merged observer.
#[derive(Debug, Clone)]
pub struct ObservedCell<O> {
    /// The cell's variable parameters.
    pub params: VariableParams,
    /// Replicated metrics for the cell.
    pub metrics: ReplicatedMetrics,
    /// The cell's observers, merged in repetition order.
    pub stats: O,
}

/// Sweeps a list of cells, each replicated, with the whole
/// `(cell × repetition)` space scheduled onto one rayon pool.
///
/// Every session gets its own observer from `build(0)`, built inside the
/// rayon task; observers are merged per cell in repetition order, so the
/// per-cell statistics are independent of rayon's thread count and
/// scheduling.
pub fn sweep_grid_with<O: Observer + Merge + Send + 'static>(
    base: &ScanConfig,
    cells: &[VariableParams],
    repetitions: u64,
    build: &(impl Fn(u64) -> O + Sync),
) -> Vec<ObservedCell<O>> {
    sweep_grid_observed(base, cells, repetitions, Some(build))
        .into_iter()
        .map(|cell| ObservedCell {
            params: cell.params,
            metrics: cell.metrics,
            stats: cell.stats.expect("repetitions >= 1, each with an observer"),
        })
        .collect()
}

/// The sweep loop: [`sweep_grid_with`] when `build` is given, and with
/// no observer attached (and none merged) when it is `None`.
fn sweep_grid_observed<O: Observer + Merge + Send + 'static, F: Fn(u64) -> O + Sync>(
    base: &ScanConfig,
    cells: &[VariableParams],
    repetitions: u64,
    build: Option<&F>,
) -> Vec<ObservedCell<Option<O>>> {
    assert!(repetitions >= 1);
    // Flatten so rayon load-balances across the full space (cells differ
    // wildly in event counts: heavy-load never-scale cells are cheap,
    // always-scale cells are not).
    let flat: Vec<(VariableParams, u64)> =
        cells.iter().flat_map(|&cell| (0..repetitions).map(move |rep| (cell, rep))).collect();
    let observed: Vec<_> = flat
        .into_par_iter()
        .map(|(cell, rep)| {
            let mut cfg = base.clone();
            cfg.variable = cell;
            match build {
                Some(build) => {
                    let (metrics, observer) =
                        run_session_with(&cfg, rep, build(TenantId::SOLO.0.into()));
                    (metrics, Some(observer))
                }
                None => (run_session(&cfg, rep), None),
            }
        })
        .collect();
    // `collect` preserved cell-major, repetition-minor order, so each
    // cell's chunk merges in repetition order — the deterministic
    // aggregation step.
    let mut observed = observed.into_iter();
    cells
        .iter()
        .map(|&params| {
            let (sessions, observers): (Vec<_>, Vec<_>) =
                observed.by_ref().take(repetitions as usize).unzip();
            ObservedCell {
                params,
                metrics: ReplicatedMetrics::from_sessions(sessions),
                stats: observers.into_iter().flatten().reduce(|mut a, b| {
                    a.merge(b);
                    a
                }),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScanConfig;
    use crate::metrics::SessionMetrics;
    use crate::observers::DecisionStats;
    use scan_sched::scaling::ScalingPolicy;
    use scan_sim::{SimTime, TraceEvent};

    fn base() -> ScanConfig {
        let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), 17);
        cfg.fixed.sim_time_tu = 120.0;
        cfg
    }

    #[test]
    fn replicated_aggregates_n_runs() {
        let r = run_replicated(&base(), 4);
        assert_eq!(r.n(), 4);
        assert!(r.profit_per_run.stddev() >= 0.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let cfg = base();
        let par = run_replicated(&cfg, 3);
        let seq: Vec<SessionMetrics> = (0..3).map(|rep| run_session(&cfg, rep)).collect();
        assert_eq!(par.sessions, seq, "rayon must not change results");
    }

    /// A replicated run attaches no sink, and reads the same metrics, to
    /// the bit, as the same cell swept with a `NullObserver` per session.
    #[test]
    fn replicated_without_a_sink_matches_the_null_observed_sweep() {
        let cfg = base();
        let bare = run_replicated(&cfg, 3);
        let observed = sweep_grid_with(&cfg, &[cfg.variable], 3, &|_| NullObserver).pop().unwrap();
        assert_eq!(bare.sessions, observed.metrics.sessions);
        // `Debug` prints every `f64` round-trip exact, the aggregated
        // `OnlineStats` included, so equal text is equal bits.
        assert_eq!(format!("{bare:?}"), format!("{:?}", observed.metrics));
    }

    #[test]
    fn sweep_preserves_cell_order() {
        let cells: Vec<VariableParams> = [2.2, 2.8]
            .iter()
            .map(|&i| VariableParams::fig4(ScalingPolicy::AlwaysScale, i))
            .collect();
        let results = sweep_grid_with(&base(), &cells, 2, &|_| NullObserver);
        assert_eq!(results.len(), 2);
        assert!((results[0].params.mean_interval - 2.2).abs() < 1e-12);
        assert!((results[1].params.mean_interval - 2.8).abs() < 1e-12);
        assert_eq!(results[0].metrics.n(), 2);
    }

    /// The tentpole determinism guarantee: an observed parallel sweep
    /// reports per-cell statistics bit-identical to a purely sequential
    /// (one-thread) evaluation of the same `(cell × repetition)` space,
    /// for a fixed seed.
    #[test]
    fn observed_sweep_is_thread_count_invariant() {
        // Load the cells enough that real scaling decisions happen.
        let mut cfg = base();
        cfg.fixed.sim_time_tu = 150.0;
        let cells: Vec<VariableParams> = [0.9, 2.5]
            .iter()
            .map(|&i| VariableParams::fig4(ScalingPolicy::Predictive, i))
            .collect();
        let reps = 3;

        // Parallel run: rayon schedules the 6 sessions however it likes.
        let par = sweep_grid_with(&cfg, &cells, reps, &|_| DecisionStats::new());

        // Sequential reference: the same space on one thread, merged in
        // the same repetition order.
        let seq: Vec<(Vec<SessionMetrics>, DecisionStats)> = cells
            .iter()
            .map(|&cell| {
                let mut c = cfg.clone();
                c.variable = cell;
                let (sessions, stats): (Vec<_>, Vec<_>) =
                    (0..reps).map(|rep| run_session_with(&c, rep, DecisionStats::new())).unzip();
                let merged = stats.into_iter().reduce(|mut a, b| {
                    a.merge(b);
                    a
                });
                (sessions, merged.unwrap())
            })
            .collect();

        assert_eq!(par.len(), seq.len());
        let mut saw_decisions = false;
        for (cell, (seq_sessions, seq_stats)) in par.iter().zip(&seq) {
            assert_eq!(cell.metrics.sessions, *seq_sessions, "metrics must not depend on threads");
            assert_eq!(cell.stats, *seq_stats, "stats must not depend on threads");
            saw_decisions |= cell.stats.total_decisions() > 0;
        }
        assert!(saw_decisions, "the loaded cell must exercise the decision counters");
    }

    /// The builder arguments one session's observer was built with,
    /// concatenated in merge order.
    struct BuiltWith(Vec<u64>);

    impl Observer for BuiltWith {
        fn on_event(&mut self, _at: SimTime, _event: &TraceEvent) {}
    }

    impl Merge for BuiltWith {
        fn merge(&mut self, other: BuiltWith) {
            self.0.extend(other.0);
        }
    }

    #[test]
    fn sweep_builds_every_session_as_the_solo_tenant() {
        let cells = [VariableParams::fig4(ScalingPolicy::NeverScale, 2.8); 2];
        let results = sweep_grid_with(&base(), &cells, 3, &|tenant| BuiltWith(vec![tenant]));
        for cell in results {
            assert_eq!(cell.stats.0, [0; 3]);
        }
    }
}
