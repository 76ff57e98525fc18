//! # scan-bench — the experiment harness
//!
//! One binary per evaluation artefact of the paper (run with
//! `cargo run --release -p scan-bench --bin <name>`):
//!
//! | binary   | reproduces                                                  |
//! |----------|-------------------------------------------------------------|
//! | `table1` | Table I — the variable-parameter grid (validated + smoke)   |
//! | `table2` | Table II — per-stage factors, published vs regression-learned |
//! | `table3` | Table III — fixed attributes as configured                  |
//! | `fig4`   | Fig. 4 — profit vs inter-arrival interval per scaling policy |
//! | `fig5`   | Fig. 5 — reward-to-cost ratio vs total core-stages          |
//! | `sweep`  | §IV-B — the full policy-permutation sweep                   |
//!
//! Criterion microbenches (`cargo bench -p scan-bench`) cover what
//! perfbench (the repo's benchmark, `perfbench/`) does not time: the RNG
//! and event-calendar kernels, SPARQL evaluation, sharding and alignment,
//! reduced-horizon versions of the figure experiments, and the ablation
//! suite called out in DESIGN.md §8. Sessions/s, fleet jobs/s and the
//! per-layer costs are perfbench's, ledgered by `scripts/bench.sh`.
//!
//! Output conventions: plain-text tables with `mean ± σ` entries, exactly
//! the series the paper plots.

#![forbid(unsafe_code)]

use scan_metrics::Registry;
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::fleet::{run_fleet_replicated_with, run_fleet_with, FleetConfig};
use scan_platform::instrument::{MetricsObserver, DEFAULT_WINDOW_TU};
use scan_platform::metrics::{ReplicatedMetrics, SessionMetrics};
use scan_platform::session::{run_session, run_session_with};
use scan_platform::sweep::run_replicated;
use scan_sched::scaling::ScalingPolicy;
use scan_sim::prof;
use scan_sim::{JsonlWriter, Merge, Observer};
use scan_spans::{derive, SpanSet};
use scan_tracestore::TraceStore;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default repetitions: the paper's "all measurements were repeated 10
/// times".
pub const PAPER_REPETITIONS: u64 = 10;

/// The workspace-wide base seed for published experiments.
pub const EXPERIMENT_SEED: u64 = 0x5CA4_2015;

/// Runs one Table I cell with paper repetitions.
pub fn run_cell(variable: VariableParams, sim_time: f64, reps: u64) -> ReplicatedMetrics {
    let mut cfg = ScanConfig::new(variable, EXPERIMENT_SEED);
    cfg.fixed.sim_time_tu = sim_time;
    run_replicated(&cfg, reps)
}

/// The standard benchmarked fleet shape at `tenants` tenants: fig4's
/// predictive cell as the per-tenant config, four jobs per tenant, and
/// [`FleetConfig::new`]'s shared pool, whose per-tenant contention stays
/// constant as the fleet grows — so every fleet drains well before the
/// backstop and jobs/sec is comparable across scales. Used by the `fleet`
/// bin (CI's 1-vs-8-thread check, and its stderr jobs/s at any
/// `SCAN_TENANTS`).
pub fn fleet_cfg(tenants: u16) -> FleetConfig {
    let mut base =
        ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), EXPERIMENT_SEED);
    // A backstop only: run-to-completion fleets drain long before this.
    base.fixed.sim_time_tu = 2_000.0;
    let mut cfg = FleetConfig::new(base, tenants);
    cfg.jobs_per_tenant = 4;
    cfg
}

/// Formats `mean ± σ` to two decimals.
pub fn pm(stats: &scan_sim::stats::OnlineStats) -> String {
    format!("{:9.2} ± {:7.2}", stats.mean(), stats.stddev())
}

/// The value of a `--<flag> <value>` (or `--<flag>=<value>`) option in
/// `args` (argv without the program name), or `None` when the flag is
/// absent. `flag` is given without the leading dashes. A flag with no
/// value, or followed by another `--` option instead of one, is an error.
pub fn flag_from_args(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let spaced = format!("--{flag}");
    let joined = format!("--{flag}=");
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let value = if *a == spaced {
            args.next().map(String::as_str)
        } else if let Some(v) = a.strip_prefix(&joined) {
            Some(v).filter(|v| !v.is_empty())
        } else {
            continue;
        };
        return match value {
            Some(v) if v.starts_with("--") => {
                Err(format!("`{spaced}` needs a value, not the option `{v}`"))
            }
            Some(v) => Ok(Some(v.to_owned())),
            None => Err(format!("`{spaced}` needs a value")),
        };
    }
    Ok(None)
}

/// argv without the program name.
pub fn argv() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Prints a command-line usage error and exits with status 2.
pub fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// The artefact flags the bench bins share, all recorded from one run of
/// the bin's representative session (repetition 0 of the config the bin
/// passes to [`Artefacts::record`]). That run is separate from the
/// measured repetitions, so the bins' tables are unaffected. The run
/// records one [`TraceStore`]; every other file is a replay of it.
///
/// * `--trace <path>` — the typed JSONL event trace (one object per line,
///   `run_ended` last; see `docs/TRACE_SCHEMA.md`).
/// * `--store <path>` — the columnar trace store's compact SCTS export,
///   with its digest on stdout (see `docs/TRACESTORE.md`).
/// * `--spans <path> [--slowest N]` — the causal job spans as a
///   Chrome/Perfetto timeline, plus the critical-path report with the
///   `N` slowest jobs (default 10) at `<path>.txt` and on stdout (see
///   `docs/SPANS.md`).
/// * `--metrics <path>` — the metrics registry as JSONL, plus Prometheus
///   text at `<path>.prom` (see `docs/METRICS.md`).
/// * `--profile <path>` — the run's wall-clock self-profile as collapsed
///   stacks; the self/total table goes to stdout. It covers the session
///   and, when any other artefact is requested, the store's ingest, but
///   not the replays that write the other files.
///
/// When `--spans` is given and the config sets no SLO target, the whole
/// run — and so every artefact of it — has the SLO monitor armed at the
/// break-even latency (`rmax / rpenalty`, where a time-based reward hits
/// zero), so `slo_violation` events and the burn-rate meters light up.
/// Without `--spans` the config runs as given.
#[derive(Debug, Clone, Default)]
pub struct Artefacts {
    pub trace: Option<PathBuf>,
    pub store: Option<PathBuf>,
    pub spans: Option<PathBuf>,
    pub slowest: usize,
    pub metrics: Option<PathBuf>,
    pub profile: Option<PathBuf>,
}

impl Artefacts {
    /// The artefact flags given in argv; a malformed one is a usage
    /// error (exit status 2).
    pub fn from_args() -> Artefacts {
        Artefacts::parse(&argv()).unwrap_or_else(|e| usage_error(&e))
    }

    /// The artefact flags given in `args` (argv without the program name).
    pub fn parse(args: &[String]) -> Result<Artefacts, String> {
        let path = |flag| flag_from_args(args, flag).map(|v| v.map(PathBuf::from));
        let slowest = match flag_from_args(args, "slowest")? {
            None => 10,
            Some(n) => {
                n.parse().map_err(|_| format!("`--slowest` needs a whole number, not `{n}`"))?
            }
        };
        Ok(Artefacts {
            trace: path("trace")?,
            store: path("store")?,
            spans: path("spans")?,
            slowest,
            metrics: path("metrics")?,
            profile: path("profile")?,
        })
    }

    /// The artefact flags a fleet records ([`Artefacts::record_fleet`]):
    /// [`Artefacts::parse`], and `--trace`, `--metrics` and `--profile`
    /// are usage errors.
    pub fn parse_fleet(args: &[String]) -> Result<Artefacts, String> {
        let artefacts = Artefacts::parse(args)?;
        let given = [
            ("trace", artefacts.trace.is_some()),
            ("metrics", artefacts.metrics.is_some()),
            ("profile", artefacts.profile.is_some()),
        ];
        if let Some((flag, _)) = given.into_iter().find(|&(_, given)| given) {
            return Err(format!(
                "`--{flag}` does not apply to fleets, which record only `--store` and `--spans`"
            ));
        }
        Ok(artefacts)
    }

    /// `cfg` with the SLO monitor armed at the break-even default when
    /// spans are requested and the config sets no target.
    fn session_cfg(&self, cfg: &ScanConfig) -> ScanConfig {
        let mut cfg = cfg.clone();
        if self.spans.is_some() && cfg.slo_target_tu.is_none() {
            cfg.slo_target_tu = Some(cfg.breakeven_latency_tu());
        }
        cfg
    }

    /// Runs repetition 0 of `cfg` once, recording its [`TraceStore`]
    /// when any file but the profile is requested, then writes every
    /// requested file from the store. Returns the session's metrics, or
    /// `None` (without running) when no artefact is requested. The
    /// profiler is left as it was found.
    pub fn record(&self, cfg: &ScanConfig) -> Option<SessionMetrics> {
        let replayed = [&self.trace, &self.store, &self.spans, &self.metrics];
        if replayed.iter().all(|p| p.is_none()) && self.profile.is_none() {
            return None;
        }
        let cfg = self.session_cfg(cfg);
        let recorded = replayed.iter().any(|p| p.is_some());
        let (profile, was_profiling) = (self.profile.is_some(), prof::is_enabled());
        if profile {
            prof::enable();
            prof::reset_thread();
        }
        let (session, store) = if recorded {
            run_session_with(&cfg, 0, TraceStore::new())
        } else {
            (run_session(&cfg, 0), TraceStore::new())
        };
        let summary = profile.then(|| {
            prof::mark_session();
            prof::take_summary()
        });
        if !was_profiling {
            prof::disable();
        }

        if let Some(path) = &self.trace {
            let written = write_file(path, |w| {
                if replay(&store, JsonlWriter::new(w)).errored() {
                    return Err(io::Error::other("trace write failed; output truncated"));
                }
                Ok(())
            });
            let (events, jobs) = (session.events, session.jobs_completed);
            let detail = format!("({events} events dispatched, {jobs} jobs completed)");
            report("trace", path, written, &detail);
        }
        if let Some(path) = &self.store {
            write_store(&store, "1 session", path);
        }
        if let Some(path) = &self.spans {
            let spans = derive(&store);
            write_spans((&store, &spans), &spans, "1 session", path, self.slowest);
        }
        if let Some(path) = &self.metrics {
            let metrics = replay(&store, MetricsObserver::new(&cfg, DEFAULT_WINDOW_TU));
            write_metrics(metrics.registry(), path);
        }
        if let (Some(path), Some(summary)) = (&self.profile, summary) {
            let written = write_file(path, |w| summary.write_collapsed(w));
            report("profile", path, written, "(collapsed stacks)");
            let mut table = Vec::new();
            if summary.write_table(&mut table).is_ok() {
                print!("{}", String::from_utf8_lossy(&table));
            }
        }
        Some(session)
    }

    /// Runs `repetitions` whole fleets with one [`TraceStore`] per tenant
    /// session and writes the requested `--store` and `--spans` files
    /// (fleet flags come from [`Artefacts::parse_fleet`]). The store and
    /// the span report cover every repetition, merged in `(repetition,
    /// tenant)` order, so both are bit-identical for any
    /// `RAYON_NUM_THREADS`; the report's spans are derived from the
    /// merged store. The Perfetto timeline re-runs repetition 0 alone,
    /// because job and VM ids restart every repetition and a merged
    /// timeline would stack unrelated slices. The SLO rule of
    /// [`Artefacts`] applies to every tenant.
    pub fn record_fleet(&self, cfg: &FleetConfig, repetitions: u64) {
        if self.store.is_none() && self.spans.is_none() {
            return;
        }
        let mut cfg = cfg.clone();
        cfg.base = Arc::new(self.session_cfg(&cfg.base));
        let build = |tenant| TraceStore::for_tenant(tenant as u32);
        let (_, merged) = run_fleet_replicated_with(&cfg, repetitions, &build);
        let label = format!("{repetitions} fleet reps");
        if let Some(path) = &self.store {
            write_store(&merged, &label, path);
        }
        if let Some(path) = &self.spans {
            let tenants = run_fleet_with(&cfg, 0, &build).1.into_iter();
            let first = tenants
                .reduce(|mut a, b| {
                    a.merge(b);
                    a
                })
                .expect("a fleet has tenants");
            let timeline = (&first, &derive(&first));
            write_spans(timeline, &derive(&merged), &label, path, self.slowest);
        }
    }
}

/// Feeds every event of `store`, in emission order, to `observer`.
fn replay<O: Observer>(store: &TraceStore, mut observer: O) -> O {
    for (_, at, event) in store.replay() {
        observer.on_event(at, &event);
    }
    observer
}

/// Records one representative session's JSONL trace to `path`
/// ([`Artefacts::record`] with `--trace` alone).
pub fn dump_trace(cfg: &ScanConfig, path: &Path) {
    Artefacts { trace: Some(path.into()), ..Artefacts::default() }.record(cfg);
}

/// Records one representative session's SCTS store export to `path`
/// ([`Artefacts::record`] with `--store` alone).
pub fn dump_store(cfg: &ScanConfig, path: &Path) {
    Artefacts { store: Some(path.into()), ..Artefacts::default() }.record(cfg);
}

/// Records one representative session's span artefacts at `path`
/// ([`Artefacts::record`] with `--spans` alone, so SLO-armed).
pub fn dump_spans(cfg: &ScanConfig, path: &Path, slowest: usize) {
    Artefacts { spans: Some(path.into()), slowest, ..Artefacts::default() }.record(cfg);
}

/// Records one representative session's metrics registry and/or
/// self-profile ([`Artefacts::record`] with `--metrics`/`--profile`).
pub fn dump_instrumented(cfg: &ScanConfig, metrics: Option<&Path>, profile: Option<&Path>) {
    let (metrics, profile) = (metrics.map(PathBuf::from), profile.map(PathBuf::from));
    Artefacts { metrics, profile, ..Artefacts::default() }.record(cfg);
}

/// `path` with `suffix` appended to its file name.
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

/// Creates `path` and fills it through a buffered writer.
fn write_file(
    path: &Path,
    body: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    body(&mut out)?;
    out.flush()
}

/// Prints `<what>: wrote <path> <detail>`, or the error that stopped the
/// write.
fn report(what: &str, path: &Path, written: io::Result<()>, detail: &str) {
    match written {
        Ok(()) => println!("{what}: wrote {} {detail}", path.display()),
        Err(e) => eprintln!("{what}: failed to write {}: {e}", path.display()),
    }
}

/// Writes a [`TraceStore`] as an SCTS export to `path`, reporting rows,
/// bytes, and the store digest (the CI fingerprint).
fn write_store(store: &TraceStore, label: &str, path: &Path) {
    let bytes = store.to_bytes();
    let (events, size, digest) = (store.events(), bytes.len(), store.digest());
    let detail = format!("({label}, {events} events, {size} bytes, digest {digest:016x})");
    report("store", path, std::fs::write(path, &bytes), &detail);
}

/// Writes the span artefacts: the Chrome/Perfetto trace-event JSON to
/// `path`, and the aggregate + slowest-jobs text report to `<path>.txt`
/// (also echoed on stdout). Every line of the report is deterministic —
/// byte-identical across `RAYON_NUM_THREADS` — which CI exploits by
/// comparing the report files of a 1-thread and an 8-thread fleet run.
/// `timeline` is the (store, spans) pair the Perfetto document renders —
/// always a single run, because job/VM ids restart per repetition —
/// while `report_spans` may cover many merged repetitions.
fn write_spans(
    timeline: (&TraceStore, &SpanSet),
    report_spans: &SpanSet,
    label: &str,
    path: &Path,
    slowest: usize,
) {
    let doc = scan_spans::perfetto::export(timeline.0, timeline.1);
    let mut text = scan_spans::render(&scan_spans::aggregate(report_spans));
    text.push_str(&scan_spans::render_slowest(report_spans, slowest));
    print!("{text}");
    let text_path = with_suffix(path, ".txt");
    let written = std::fs::write(path, &doc).and_then(|()| std::fs::write(&text_path, &text));
    let (size, jobs, in_flight) = (doc.len(), report_spans.jobs.len(), report_spans.in_flight);
    let detail = format!(
        "(perfetto, {size} bytes) and {} ({label}, {jobs} jobs, {in_flight} in flight)",
        text_path.display()
    );
    report("spans", path, written, &detail);
}

/// Writes a metrics registry as JSONL to `path` and as Prometheus text
/// to `<path>.prom`.
fn write_metrics(registry: &Registry, path: &Path) {
    let prom_path = with_suffix(path, ".prom");
    let written = write_file(path, |w| scan_metrics::write_jsonl(registry, w))
        .and_then(|()| write_file(&prom_path, |w| scan_metrics::write_prometheus(registry, w)));
    let detail = format!(
        "(+ {}): {} counters, {} histograms, {} series",
        prom_path.display(),
        registry.counters().len(),
        registry.histograms().len(),
        registry.series_entries().len()
    );
    report("metrics", path, written, &detail);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_take_spaced_or_joined_values() {
        let a = Artefacts::parse(&args("--quick --store s.scts --trace=t.jsonl --slowest 3"))
            .expect("well-formed flags parse");
        assert_eq!(a.store.as_deref(), Some(Path::new("s.scts")));
        assert_eq!(a.trace.as_deref(), Some(Path::new("t.jsonl")));
        assert_eq!((a.spans, a.metrics, a.profile, a.slowest), (None, None, None, 3));
        assert_eq!(Artefacts::parse(&args("--quick")).map(|a| a.slowest), Ok(10));
    }

    #[test]
    fn fleet_rejects_the_session_only_flags() {
        for flag in ["trace", "metrics", "profile"] {
            let line = format!("--quick --store s.scts --{flag} out");
            let error = format!(
                "`--{flag}` does not apply to fleets, which record only `--store` and `--spans`"
            );
            assert_eq!(Artefacts::parse_fleet(&args(&line)).err(), Some(error), "{line}");
        }
        let a = Artefacts::parse_fleet(&args("--store s.scts --spans p.json --slowest 2"))
            .expect("fleet flags parse");
        assert_eq!((a.store.is_some(), a.spans.is_some(), a.slowest), (true, true, 2));
        assert!(Artefacts::parse_fleet(&args("--spans")).is_err(), "malformed flags still fail");
    }

    #[test]
    fn malformed_flags_are_usage_errors() {
        for (line, error) in [
            ("--store --spans out.json", "`--store` needs a value, not the option `--spans`"),
            ("--quick --trace", "`--trace` needs a value"),
            ("--metrics=", "`--metrics` needs a value"),
            ("--slowest abc", "`--slowest` needs a whole number, not `abc`"),
        ] {
            assert_eq!(Artefacts::parse(&args(line)).err().as_deref(), Some(error), "{line}");
        }
        assert_eq!(
            flag_from_args(&args("--cell-trace=--x"), "cell-trace").err().as_deref(),
            Some("`--cell-trace` needs a value, not the option `--x`")
        );
    }
}
