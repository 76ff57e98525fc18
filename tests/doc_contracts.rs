//! Doc contracts: the four reference documents against the tables the
//! program holds at run time, in both directions.
//!
//! * docs/TRACE_SCHEMA.md — one sample per `TraceEvent` variant: its kind
//!   tag, variant name and field names (read back from its `Debug` and
//!   JSONL renderings) against the "Event catalogue" sections, plus every
//!   `ScalingChoice` label.
//! * docs/TRACESTORE.md — `EventKind::tag`/`columns` for every kind in
//!   `ALL_KINDS` against the "Column layouts" tables, and every `Agg`
//!   label against the "Aggregations" table.
//! * docs/SPANS.md — the `ALL_SEGMENTS` labels, and the SLO table against
//!   the `slo`-named families of the live registries.
//! * docs/METRICS.md — every family a session registry and the fleet
//!   projection register, per metric type, against the "Metric catalogue".
//!
//! `ScalingChoice::ALL` and the local `Agg` list sit next to an
//! exhaustive `match`, so a new variant fails to compile here until it is
//! listed.

use scan::platform::config::{ScanConfig, VariableParams};
use scan::platform::fleet::{run_fleet, FleetConfig};
use scan::platform::instrument::{run_session_instrumented, DEFAULT_WINDOW_TU};
use scan::sched::scaling::ScalingPolicy;
use scan::sim::{JsonlWriter, Observer, ScalingChoice, SimTime, TraceEvent};
use scan::tracestore::{Agg, EventKind, ALL_KINDS};
use scan_spans::ALL_SEGMENTS;
use std::collections::BTreeSet;

/// The tables of one `## {section}` of a reference doc: per `###`
/// heading (`""` before the first), the first backticked cell of every
/// table row, in document order. Fenced code blocks and headings without
/// rows are skipped.
fn tables(doc: &str, section: &str) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    let (mut inside, mut fenced) = (false, false);
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if let Some(heading) = line.strip_prefix("## ").filter(|_| !fenced) {
            inside = heading.trim() == section;
        }
        if fenced || !inside {
            continue;
        }
        if let Some(heading) = line.strip_prefix("### ") {
            out.push((heading.trim().to_string(), Vec::new()));
        } else if let Some((cell, _)) = line.strip_prefix("| `").and_then(|r| r.split_once('`')) {
            if out.is_empty() {
                out.push((String::new(), Vec::new()));
            }
            out.last_mut().expect("a table was opened above").1.push(cell.to_string());
        }
    }
    out.retain(|(_, rows)| !rows.is_empty());
    assert!(!out.is_empty(), "no `## {section}` tables found");
    out
}

fn read_doc(name: &str) -> String {
    let path = format!("{}/docs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn names<'a>(items: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    items.into_iter().map(str::to_string).collect()
}

/// One event of every `TraceEvent` variant, in `ALL_KINDS` order.
fn samples() -> [TraceEvent; 16] {
    [
        TraceEvent::JobArrived { job: 1, size_units: 2.0, submitted_tu: 0.0 },
        TraceEvent::JobStageAdvanced { job: 1, stage: 0, shards: 4, cores: 2 },
        TraceEvent::JobCompleted { job: 1, latency_tu: 3.0, reward: 4.0, core_stages: 8.0 },
        TraceEvent::SloViolation { job: 1, latency_tu: 30.0, target_tu: 26.0 },
        TraceEvent::SubtaskDispatched {
            job: 1,
            stage: 0,
            vm: 2,
            cores: 2,
            waited_tu: 0.5,
            busy_tu: 1.5,
        },
        TraceEvent::SubtaskDone { job: 1, stage: 0, vm: 2 },
        TraceEvent::VmHired { vm: 2, tier: 1, cores: 2 },
        TraceEvent::VmBooted { vm: 2, cores: 2 },
        TraceEvent::VmReshaped { vm: 2, tier: 0, cores_from: 2, cores_to: 4 },
        TraceEvent::VmReleased { vm: 2, tier: 1, cores: 2 },
        TraceEvent::ScalingDecision {
            stage: 1,
            cores: 2,
            queued_jobs: 5,
            delay_cost: 1.0,
            hire_cost: 2.0,
            choice: ScalingChoice::Wait,
        },
        TraceEvent::QueueDepthSampled { depth: 11 },
        TraceEvent::AdmissionDeferred { tenant: 3, jobs: 2, backlog: 2 },
        TraceEvent::AdmissionResumed { tenant: 3, jobs: 2, backlog: 0 },
        TraceEvent::TierSettled { tier: 0, cost: 100.0, core_tu: 20.0 },
        TraceEvent::RunEnded { events_dispatched: 12345 },
    ]
}

/// `ScalingChoice::ALL`, checked against the variants.
fn scaling_choices() -> [ScalingChoice; 5] {
    use ScalingChoice::*;
    // Exhaustive: a new variant stops this compiling until it is listed
    // here, and the array type until `ALL` lists it too.
    for (i, choice) in ScalingChoice::ALL.into_iter().enumerate() {
        let position = match choice {
            Wait => 0,
            HirePrivate => 1,
            ThrottledPrivate => 2,
            HirePublic => 3,
            Reshape => 4,
        };
        assert_eq!(position, i, "{choice:?} is listed out of order");
        assert_eq!(choice.index(), i, "{choice:?} indexes off its position");
    }
    ScalingChoice::ALL
}

/// Every `Agg`, in declaration order.
fn aggregations() -> [Agg; 6] {
    use Agg::*;
    let all = [Count, Sum, Mean, P50, P95, Max];
    // Exhaustive: a new variant stops this compiling until it is listed.
    for (i, agg) in all.into_iter().enumerate() {
        let position = match agg {
            Count => 0,
            Sum => 1,
            Mean => 2,
            P50 => 3,
            P95 => 4,
            Max => 5,
        };
        assert_eq!(position, i, "{agg:?} is listed out of order");
    }
    all
}

/// `(variant, fields)` of an event's `Debug` rendering,
/// `Variant { a: 1, b: 2.0 }`.
fn debug_shape(event: &TraceEvent) -> (String, Vec<String>) {
    let debug = format!("{event:?}");
    let (variant, body) = debug.split_once(" { ").expect("struct variants only");
    let fields = body.trim_end_matches(" }").split(", ").map(|kv| kv.split(':').next());
    (variant.to_string(), fields.flatten().map(str::to_string).collect())
}

/// `(kind, keys after "t" and "kind")` of an event's JSONL line.
fn jsonl_shape(event: &TraceEvent) -> (String, Vec<String>) {
    let mut writer = JsonlWriter::new(Vec::new());
    writer.on_event(SimTime::new(1.0), event);
    let line = String::from_utf8(writer.into_inner()).expect("JSONL is UTF-8");
    let pairs: Vec<(&str, &str)> = line
        .trim_end()
        .trim_matches(['{', '}'])
        .split(',')
        .map(|kv| kv.split_once(':').expect("key:value"))
        .collect();
    assert_eq!(pairs[0].0, "\"t\"", "{line}");
    assert_eq!(pairs[1].0, "\"kind\"", "{line}");
    let unquote = |s: &str| s.trim_matches('"').to_string();
    (unquote(pairs[1].1), pairs[2..].iter().map(|(k, _)| unquote(k)).collect())
}

#[test]
fn trace_schema_matches_trace_events() {
    let samples = samples();
    assert_eq!(samples.map(|e| EventKind::of(&e)), ALL_KINDS, "one sample per kind, in order");
    let mut expected = Vec::new();
    for (event, kind) in samples.iter().zip(ALL_KINDS) {
        let (variant, fields) = debug_shape(event);
        let (tag, keys) = jsonl_shape(event);
        assert_eq!(tag, event.kind(), "JSONL kind of {variant}");
        assert_eq!(tag, kind.tag(), "store table tag of {variant}");
        assert_eq!(keys, fields, "JSONL keys are the field names of {variant}");
        expected.push((format!("`{tag}` — `TraceEvent::{variant}`"), fields));
    }
    let doc = read_doc("TRACE_SCHEMA.md");
    assert_eq!(tables(&doc, "Event catalogue"), expected);
    for choice in scaling_choices() {
        assert!(doc.contains(&format!("`{}`", choice.name())), "{choice:?} is undocumented");
    }
}

#[test]
fn tracestore_doc_matches_schema() {
    let doc = read_doc("TRACESTORE.md");
    let layouts: Vec<_> = ALL_KINDS
        .iter()
        .map(|k| (format!("`{}`", k.tag()), names(k.columns().iter().map(|c| c.name))))
        .collect();
    assert_eq!(tables(&doc, "Column layouts"), layouts);
    let aggs = names(aggregations().map(Agg::name));
    assert_eq!(tables(&doc, "Aggregations"), [(String::new(), aggs)]);
}

/// A short fig4 session with the default (unset) SLO target.
fn session_cfg() -> ScanConfig {
    let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.0), 7);
    cfg.fixed.sim_time_tu = 60.0;
    assert_eq!(cfg.slo_target_tu, None);
    cfg
}

/// `(catalogue heading, families)` of a session's registry merged with
/// the fleet projection's, per metric type.
fn registered_families() -> Vec<(String, BTreeSet<String>)> {
    let (_, session, _) = run_session_instrumented(&session_cfg(), 0, DEFAULT_WINDOW_TU, false);
    let mut fleet_cfg = FleetConfig::new(session_cfg(), 1);
    fleet_cfg.jobs_per_tenant = 1;
    let fleet = run_fleet(&fleet_cfg, 0).registry();
    let both = [&session, &fleet];
    let counters = both.iter().flat_map(|r| r.counters().iter().map(|(m, _)| &m.family));
    let gauges = both.iter().flat_map(|r| r.gauges().iter().map(|(m, _)| &m.family));
    let histograms = both.iter().flat_map(|r| r.histograms().iter().map(|(m, _)| &m.family));
    let series = both.iter().flat_map(|r| r.series_entries().iter().map(|(m, _)| &m.family));
    vec![
        ("Counters".to_string(), counters.cloned().collect()),
        ("Gauges".to_string(), gauges.cloned().collect()),
        ("Histograms".to_string(), histograms.cloned().collect()),
        ("Series (sim-time-windowed)".to_string(), series.cloned().collect()),
    ]
}

#[test]
fn metrics_and_spans_docs_match_the_live_registries() {
    let registered = registered_families();
    let catalogue: Vec<(String, BTreeSet<String>)> =
        tables(&read_doc("METRICS.md"), "Metric catalogue")
            .into_iter()
            .map(|(heading, rows)| (heading, rows.into_iter().collect()))
            .collect();
    assert_eq!(catalogue, registered);

    let spans = read_doc("SPANS.md");
    let segments = names(ALL_SEGMENTS.map(|s| s.name()));
    assert_eq!(tables(&spans, "Segment taxonomy"), [(String::new(), segments)]);
    let slo: BTreeSet<String> =
        registered.into_iter().flat_map(|(_, f)| f).filter(|f| f.contains("slo")).collect();
    let documented: BTreeSet<String> =
        tables(&spans, "SLO metrics").into_iter().flat_map(|(_, rows)| rows).collect();
    assert_eq!(documented, slo);
}
