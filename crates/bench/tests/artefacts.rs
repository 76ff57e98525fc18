//! One recorded run behind the bins' artefact flags: every artefact of a
//! multi-flag [`Artefacts::record`] comes from the same event stream, and
//! each single-flag `dump_*` writes what a plain run of its sink yields.

use scan_bench::{dump_store, Artefacts};
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::session::{run_session, run_session_with};
use scan_sched::scaling::ScalingPolicy;
use scan_sim::prof;
use scan_tracestore::{EventKind, TraceStore};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// `record` toggles the process-wide profiler flag, so the tests that
/// record take turns (the test harness runs them on parallel threads).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn cfg() -> ScanConfig {
    let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.0), 7);
    cfg.fixed.sim_time_tu = 150.0;
    cfg
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scan-artefacts-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Σ of a Prometheus family's samples, over all label sets.
fn prom_total(prom: &str, family: &str) -> u64 {
    prom.lines()
        .filter(|l| l.strip_prefix(family).is_some_and(|rest| rest.starts_with([' ', '{'])))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum()
}

#[test]
fn one_stream_feeds_every_artefact() {
    let _serial = serial();
    let dir = scratch("all");
    let mut cfg = cfg();
    // Tight enough that the SLO monitor fires in this short session.
    cfg.slo_target_tu = Some(5.0);
    let artefacts = Artefacts {
        trace: Some(dir.join("trace.jsonl")),
        store: Some(dir.join("store.scts")),
        spans: Some(dir.join("spans.json")),
        slowest: 5,
        metrics: Some(dir.join("metrics.jsonl")),
        profile: Some(dir.join("profile.txt")),
    };
    let session = artefacts.record(&cfg).expect("artefacts requested");
    assert_eq!(session, run_session(&cfg, 0), "recording must not perturb the session");
    assert!(!prof::is_enabled(), "record must leave the profiler as it found it");

    let store = TraceStore::from_bytes(&std::fs::read(dir.join("store.scts")).unwrap()).unwrap();
    let trace = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
    let lines: Vec<&str> = trace.lines().collect();
    assert_eq!(lines.len() as u64, store.events(), "one JSONL line per stored event");
    let last = lines.last().unwrap();
    assert!(last.contains("\"kind\":\"run_ended\""), "last line: {last}");
    assert!(last.ends_with(&format!("\"events_dispatched\":{}}}", session.events)));

    let derived = scan_spans::derive(&store);
    assert_eq!(derived.jobs.len() as u64, session.jobs_completed);
    assert!(derived.jobs.iter().all(|job| job.conservation_ok()));
    let timeline = std::fs::read_to_string(dir.join("spans.json")).unwrap();
    assert_eq!(timeline, scan_spans::perfetto::export(&store, &derived));
    let mut report = scan_spans::render(&scan_spans::aggregate(&derived));
    report.push_str(&scan_spans::render_slowest(&derived, 5));
    assert_eq!(std::fs::read_to_string(dir.join("spans.json.txt")).unwrap(), report);

    let prom = std::fs::read_to_string(dir.join("metrics.jsonl.prom")).unwrap();
    assert_eq!(prom_total(&prom, "vm_hired_total"), session.vms_hired);
    let violations = store.table(EventKind::SloViolation).rows() as u64;
    assert!(violations > 0, "the SLO monitor never fired");
    assert_eq!(prom_total(&prom, "slo_violations_total"), violations);
    assert!(!std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap().is_empty());
    assert!(!std::fs::read_to_string(dir.join("profile.txt")).unwrap().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_artefact_runs_no_session() {
    assert_eq!(Artefacts::default().record(&cfg()), None);
}

#[test]
fn single_store_matches_a_plain_store_run() {
    let _serial = serial();
    let dir = scratch("store");
    let path = dir.join("store.scts");
    dump_store(&cfg(), &path);
    let (_, store) = run_session_with(&cfg(), 0, TraceStore::new());
    assert_eq!(std::fs::read(&path).unwrap(), store.to_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_trace_leaves_the_session_unperturbed() {
    let _serial = serial();
    let dir = scratch("trace");
    let path = dir.join("trace.jsonl");
    let artefacts = Artefacts { trace: Some(path.clone()), ..Artefacts::default() };
    assert_eq!(artefacts.record(&cfg()), Some(run_session(&cfg(), 0)));
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 100, "trace has {} lines", lines.len());
    assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(lines.last().unwrap().contains("\"kind\":\"run_ended\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spans_arm_the_slo_monitor_at_break_even() {
    let _serial = serial();
    let dir = scratch("slo");
    // Arrivals every 0.5 TU queue jobs past the break-even latency.
    let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 0.5), 7);
    cfg.fixed.sim_time_tu = 100.0;
    let artefacts = Artefacts {
        store: Some(dir.join("store.scts")),
        spans: Some(dir.join("spans.json")),
        ..Artefacts::default()
    };
    let session = artefacts.record(&cfg).expect("artefacts requested");
    let mut armed = cfg.clone();
    armed.slo_target_tu = Some(cfg.breakeven_latency_tu());
    assert_eq!(session, run_session(&armed, 0));
    assert!(session.jobs_slo_violated > 0, "break-even never fired");
    assert_ne!(session, run_session(&cfg, 0), "the unarmed run must differ");
    // The rule covers the whole run, so the store beside the spans has
    // the violations too.
    let store = TraceStore::from_bytes(&std::fs::read(dir.join("store.scts")).unwrap()).unwrap();
    let violations = store.table(EventKind::SloViolation).rows() as u64;
    assert_eq!(violations, session.jobs_slo_violated);
    let _ = std::fs::remove_dir_all(&dir);
}
