//! The four workloads: their configurations, one timed unit each, and the
//! untimed output checks that decide whether a unit failed.
//!
//! Every workload is defined here, not borrowed from `scan-bench`, so that
//! rewrites of the experiment harness cannot silently change what the
//! benchmark measures. The recorded workload is the one exception by
//! design: it calls the `scan_bench::dump_*` entry points, because those
//! are what the bins' artefact flags run.

use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::fleet::{run_fleet, FleetConfig, FleetMetrics};
use scan_platform::session::run_session;
use scan_platform::{Platform, SessionMetrics};
use scan_sched::alloc::AllocationPolicy;
use scan_sched::scaling::ScalingPolicy;
use scan_tracestore::{EventKind, TraceStore};
use std::path::{Path, PathBuf};

/// Repetitions the timed loop rotates through; each repetition is a
/// different seeded session of the same cell. Twenty, not the paper's ten,
/// so that a run's median unit depends less on the seed's sessions.
pub const REPETITIONS: u64 = 20;

/// Horizon of the session and adaptive units, TU.
pub const SESSION_HORIZON_TU: f64 = 2_000.0;
/// Horizon of the recorded unit, TU (kept short: Perfetto export grows
/// with the trace).
pub const RECORDED_HORIZON_TU: f64 = 500.0;
/// Mean inter-arrival interval of the solo cell, TU (Table I's heaviest).
pub const SESSION_INTERVAL_TU: f64 = 2.0;
/// Fleet shape: tenants on one shared pool, jobs per tenant.
pub const FLEET_TENANTS: u16 = 100;
pub const FLEET_JOBS_PER_TENANT: u64 = 4;
/// Per-tenant inter-arrival interval and horizon backstop of the fleet.
pub const FLEET_INTERVAL_TU: f64 = 2.5;
pub const FLEET_HORIZON_TU: f64 = 2_000.0;
/// How many top slowest jobs the spans artefact lists (the bins' default).
pub const SLOWEST_ROWS: usize = 10;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Session,
    Adaptive,
    Fleet,
    Recorded,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Session, Kind::Adaptive, Kind::Fleet, Kind::Recorded];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Session => "session",
            Kind::Adaptive => "adaptive",
            Kind::Fleet => "fleet",
            Kind::Recorded => "recorded",
        }
    }
}

/// The experiment seed a benchmark `--seed` maps to: distinct benchmark
/// seeds give unrelated arrival, size and noise streams.
pub fn experiment_seed(seed: u64) -> u64 {
    0x5CA4_2015 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The fig4 predictive cell at the heaviest load, with `allocation`.
pub fn solo_cfg(seed: u64, allocation: AllocationPolicy, horizon_tu: f64) -> ScanConfig {
    let mut variable = VariableParams::fig4(ScalingPolicy::Predictive, SESSION_INTERVAL_TU);
    variable.allocation = allocation;
    let mut cfg = ScanConfig::new(variable, experiment_seed(seed));
    cfg.fixed.sim_time_tu = horizon_tu;
    cfg
}

/// 100 tenants × 4 jobs on one shared pool: the fig4 predictive cell per
/// tenant, and a shared private pool of one solo tier or two cores per
/// tenant, whichever is larger.
pub fn fleet_cfg(seed: u64) -> FleetConfig {
    let mut base = ScanConfig::new(
        VariableParams::fig4(ScalingPolicy::Predictive, FLEET_INTERVAL_TU),
        experiment_seed(seed),
    );
    base.fixed.sim_time_tu = FLEET_HORIZON_TU;
    let mut cfg = FleetConfig::new(base, FLEET_TENANTS);
    cfg.jobs_per_tenant = FLEET_JOBS_PER_TENANT;
    cfg.shared_private_cores = cfg.shared_private_cores.max(u32::from(FLEET_TENANTS) * 2);
    cfg
}

/// The recorded unit's config for `repetition`. The `dump_*` calls
/// always record repetition 0 of the config they are given, so the
/// recorded workload rotates the experiment seed instead.
pub fn recorded_cfg(seed: u64, repetition: u64) -> ScanConfig {
    let mut cfg = solo_cfg(seed, AllocationPolicy::BestConstant, RECORDED_HORIZON_TU);
    cfg.seed = cfg.seed.wrapping_add(repetition);
    cfg
}

/// The recorded unit's SLO-armed variant, as `dump_spans` builds it: the
/// target defaults to the break-even latency.
pub fn slo_armed(cfg: &ScanConfig) -> ScanConfig {
    let mut cfg = cfg.clone();
    let target = cfg.breakeven_latency_tu();
    cfg.slo_target_tu.get_or_insert(target);
    cfg
}

/// The files one recorded unit writes, as the bins name them.
#[derive(Debug, Clone)]
pub struct ArtefactPaths {
    pub trace: PathBuf,
    pub store: PathBuf,
    pub spans: PathBuf,
    pub metrics: PathBuf,
}

impl ArtefactPaths {
    pub fn in_dir(dir: &Path) -> ArtefactPaths {
        ArtefactPaths {
            trace: dir.join("trace.jsonl"),
            store: dir.join("store.scts"),
            spans: dir.join("spans.json"),
            metrics: dir.join("metrics.jsonl"),
        }
    }
}

/// Runs the four `dump_*` calls the bins' `--trace/--store/--spans/
/// --metrics` flags run, returning each call's wall time in ms in that
/// order.
pub fn dump_all(cfg: &ScanConfig, paths: &ArtefactPaths) -> [f64; 4] {
    let mut ms = [0.0; 4];
    let mut timed = |i: usize, f: &dyn Fn()| {
        let t = std::time::Instant::now();
        f();
        ms[i] = t.elapsed().as_secs_f64() * 1e3;
    };
    timed(0, &|| scan_bench::dump_trace(cfg, &paths.trace));
    timed(1, &|| scan_bench::dump_store(cfg, &paths.store));
    timed(2, &|| scan_bench::dump_spans(cfg, &paths.spans, SLOWEST_ROWS));
    timed(3, &|| scan_bench::dump_instrumented(cfg, Some(&paths.metrics), None));
    ms
}

/// What one unit produced, as far as the checks need it.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    Session(SessionMetrics),
    Fleet(FleetMetrics),
    /// The recorded unit's results live in its artefact files.
    Recorded,
}

/// A workload instance: its configs and the per-repetition references
/// the output checks compare against.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    /// The session/adaptive cell (also the fleet's per-tenant base).
    pub solo: ScanConfig,
    pub fleet: FleetConfig,
    pub artefacts: ArtefactPaths,
    /// First result seen per repetition (session, adaptive, fleet) or
    /// the plain session each recorded repetition must reproduce.
    references: Vec<Option<Output>>,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64, artefact_dir: &Path) -> std::io::Result<Workload> {
        let solo = match kind {
            Kind::Adaptive => {
                solo_cfg(seed, AllocationPolicy::LongTermAdaptive, SESSION_HORIZON_TU)
            }
            Kind::Recorded => recorded_cfg(seed, 0),
            _ => solo_cfg(seed, AllocationPolicy::BestConstant, SESSION_HORIZON_TU),
        };
        let fleet = fleet_cfg(seed);
        std::fs::create_dir_all(artefact_dir)?;
        Ok(Workload {
            kind,
            seed,
            solo,
            fleet,
            artefacts: ArtefactPaths::in_dir(artefact_dir),
            references: vec![None; REPETITIONS as usize],
        })
    }

    /// Sessions one unit fully processes (fleet: one per tenant).
    pub fn sessions_per_unit(&self) -> u64 {
        match self.kind {
            Kind::Fleet => u64::from(self.fleet.tenants),
            _ => 1,
        }
    }

    /// The config one recorded unit runs for `repetition`.
    pub fn recorded_cfg(&self, repetition: u64) -> ScanConfig {
        recorded_cfg(self.seed, repetition)
    }

    /// Runs one timed unit.
    pub fn run_unit(&self, repetition: u64) -> Output {
        match self.kind {
            Kind::Session | Kind::Adaptive => {
                Output::Session(Platform::new(self.solo.clone(), repetition).run())
            }
            Kind::Fleet => Output::Fleet(run_fleet(&self.fleet, repetition)),
            Kind::Recorded => {
                dump_all(&self.recorded_cfg(repetition), &self.artefacts);
                Output::Recorded
            }
        }
    }

    /// Jobs the unit completed (recorded: the plain session's count).
    pub fn jobs_completed(&self, out: &Output, repetition: u64) -> u64 {
        match self.resolve(out, repetition) {
            Some(Output::Session(m)) => m.jobs_completed,
            Some(Output::Fleet(m)) => m.jobs_completed,
            _ => 0,
        }
    }

    /// Events the unit's engine dispatched (recorded: the plain session's).
    pub fn events(&self, out: &Output, repetition: u64) -> u64 {
        match self.resolve(out, repetition) {
            Some(Output::Session(m)) => m.events,
            Some(Output::Fleet(m)) => m.events,
            _ => 0,
        }
    }

    /// A recorded unit's results are its reference plain session's.
    fn resolve<'a>(&'a self, out: &'a Output, repetition: u64) -> Option<&'a Output> {
        match out {
            Output::Recorded => self.reference(repetition),
            _ => Some(out),
        }
    }

    fn reference(&self, repetition: u64) -> Option<&Output> {
        self.references[(repetition % REPETITIONS) as usize].as_ref()
    }

    /// The untimed output check of one unit. The first result of each
    /// repetition becomes its reference; later ones must equal it.
    pub fn check(&mut self, repetition: u64, out: &Output) -> Result<(), String> {
        let slot = (repetition % REPETITIONS) as usize;
        if self.references[slot].is_none() {
            let reference = match self.kind {
                Kind::Recorded => Output::Session(run_session(&self.recorded_cfg(repetition), 0)),
                _ => out.clone(),
            };
            self.references[slot] = Some(reference);
        }
        let reference = self.references[slot].as_ref().expect("set above");
        match (out, reference) {
            (Output::Session(m), Output::Session(r)) => {
                check_session(m)?;
                check_repeat(m, r)
            }
            (Output::Fleet(m), Output::Fleet(r)) => {
                check_fleet(m, &self.fleet)?;
                check_repeat(m, r)
            }
            (Output::Recorded, Output::Session(plain)) => check_recorded(&self.artefacts, plain),
            _ => Err("unit output does not match the workload".into()),
        }
    }
}

/// A session that did no work cannot be a valid unit.
pub fn check_session(m: &SessionMetrics) -> Result<(), String> {
    if m.jobs_completed == 0 || m.events == 0 {
        return Err(format!("empty session: {} jobs, {} events", m.jobs_completed, m.events));
    }
    Ok(())
}

/// The simulator is deterministic per `(seed, repetition)`: a repeat must
/// equal the repetition's first result exactly.
pub fn check_repeat<T: PartialEq + std::fmt::Debug>(got: &T, first: &T) -> Result<(), String> {
    if got != first {
        return Err(format!("result differs from the repetition's first result: {got:?}"));
    }
    Ok(())
}

/// Every fleet job is admitted and completed, and the shared pool is
/// never over-committed.
pub fn check_fleet(m: &FleetMetrics, cfg: &FleetConfig) -> Result<(), String> {
    let expected = u64::from(cfg.tenants) * cfg.jobs_per_tenant;
    if m.jobs_submitted != expected || m.jobs_completed != expected {
        return Err(format!(
            "fleet submitted {} and completed {} of {expected} jobs",
            m.jobs_submitted, m.jobs_completed
        ));
    }
    if m.peak_shared_cores > cfg.shared_private_cores {
        return Err(format!(
            "peak shared cores {} exceed the pool of {}",
            m.peak_shared_cores, cfg.shared_private_cores
        ));
    }
    Ok(())
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Checks one recorded unit's artefacts against the plain session of the
/// same config: the SCTS export decodes and re-encodes to the same bytes,
/// every derived job span conserves its latency, and the trace, store and
/// metrics all agree with the plain session's results.
pub fn check_recorded(paths: &ArtefactPaths, plain: &SessionMetrics) -> Result<(), String> {
    let bytes = read(&paths.store)?;
    let store = TraceStore::from_bytes(&bytes).map_err(|e| format!("store: {e}"))?;
    if store.to_bytes() != bytes {
        return Err("store: re-encoding does not reproduce the export".into());
    }
    let completed = store.table(EventKind::JobCompleted).rows() as u64;
    if completed != plain.jobs_completed {
        return Err(format!("store: {completed} completions, plain {}", plain.jobs_completed));
    }
    let spans = scan_spans::derive(&store);
    if spans.jobs.len() as u64 != plain.jobs_completed {
        return Err(format!("spans: {} jobs, plain {}", spans.jobs.len(), plain.jobs_completed));
    }
    if let Some(bad) = spans.jobs.iter().find(|j| !j.conservation_ok()) {
        return Err(format!("spans: job {} breaks conservation", bad.job));
    }

    let trace = String::from_utf8(read(&paths.trace)?).map_err(|e| format!("trace: {e}"))?;
    let lines = trace.lines().count() as u64;
    if lines != store.events() {
        return Err(format!("trace: {lines} lines, store {} events", store.events()));
    }
    let ended = format!("\"events_dispatched\":{}", plain.events);
    if !trace.lines().last().is_some_and(|l| l.contains("\"run_ended\"") && l.contains(&ended)) {
        return Err("trace: last line is not the plain session's run_ended".into());
    }

    let perfetto = read(&paths.spans)?;
    if !perfetto.starts_with(b"{") || !perfetto.ends_with(b"}") {
        return Err("spans: Perfetto export is not one JSON object".into());
    }

    let metrics = String::from_utf8(read(&paths.metrics)?).map_err(|e| format!("metrics: {e}"))?;
    let hired: u64 = metrics
        .lines()
        .filter(|l| l.starts_with("{\"metric\":\"vm_hired_total\""))
        .filter_map(|l| {
            l.rsplit_once("\"value\":")
                .and_then(|(_, v)| v.trim_end_matches('}').parse::<u64>().ok())
        })
        .sum();
    if hired != plain.vms_hired {
        return Err(format!("metrics: {hired} VMs hired, plain {}", plain.vms_hired));
    }
    Ok(())
}

/// Attempted and failed units.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one checked unit, reporting a failure on stderr.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: {what} failed its check: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn short(cfg: &mut ScanConfig) {
        cfg.fixed.sim_time_tu = 60.0;
    }

    #[test]
    fn perturbed_session_result_counts_as_failed() {
        let mut cfg = solo_cfg(3, AllocationPolicy::BestConstant, 60.0);
        short(&mut cfg);
        let first = Platform::new(cfg.clone(), 1).run();
        let mut tally = Tally::default();
        tally.record("repeat", check_session(&first).and(check_repeat(&first.clone(), &first)));
        let mut perturbed = first.clone();
        perturbed.total_cost += 1e-9;
        tally.record("perturbed", check_repeat(&perturbed, &first));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn corrupted_artefact_counts_as_failed() {
        let dir = scratch("corrupt");
        let paths = ArtefactPaths::in_dir(&dir);
        let mut cfg = recorded_cfg(5, 0);
        short(&mut cfg);
        dump_all(&cfg, &paths);
        let plain = run_session(&cfg, 0);
        let mut tally = Tally::default();
        tally.record("intact", check_recorded(&paths, &plain));

        let mut bytes = std::fs::read(&paths.store).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&paths.store, &bytes).unwrap();
        tally.record("corrupted store", check_recorded(&paths, &plain));

        let mut other = plain.clone();
        other.vms_hired += 1;
        dump_all(&cfg, &paths);
        tally.record("perturbed plain result", check_recorded(&paths, &other));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }

    #[test]
    fn fleet_check_rejects_lost_jobs() {
        let mut cfg = fleet_cfg(1);
        cfg.tenants = 3;
        let m = run_fleet(&cfg, 0);
        assert!(check_fleet(&m, &cfg).is_ok());
        let mut lost = m.clone();
        lost.jobs_completed -= 1;
        assert!(check_fleet(&lost, &cfg).is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
