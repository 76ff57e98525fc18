//! Doc contracts, telemetry coverage and replay, all read from one
//! matrix of live runs.
//!
//! [`matrix`] runs six small configurations once per test binary: a fig4
//! session, a fig5-style forced-plan reshape, an `AlwaysScale` spill onto
//! the public tier, an SLO-armed session, a saturated session (a job every
//! 1.0 TU), and a contended, SLO-armed 3-tenant fleet. Every session
//! (each fleet tenant on its own) feeds one trace store and the live
//! observers of [`Observers`]; the matrix keeps each run's store and
//! what its observers made of the stream, the five session registries
//! (merged, which asserts they share one shape) and the fleet projection.
//!
//! * Coverage — every `ALL_KINDS` table gets rows, every `ScalingChoice`
//!   is decided, and every registered metric family records a non-zero
//!   value. Telemetry that is declared but never produced fails here.
//! * Replay — every run's store, and its decoded export, replays into
//!   fresh observers that produce exactly what the live ones did.
//! * docs/TRACE_SCHEMA.md — the first event of each kind: its kind tag,
//!   variant name and field names (read back from its `Debug` and JSONL
//!   renderings) against the "Event catalogue" sections, plus every
//!   `ScalingChoice` label.
//! * docs/TRACESTORE.md — `EventKind::tag` and the store layout
//!   (`schema::columns`) for every kind in `ALL_KINDS` against the
//!   "Column layouts" tables, and `Agg::ALL` against the "Aggregations"
//!   table.
//! * scripts/plot_traces.py — its `SCTS_SCHEMA` (the SCTS reader's
//!   column table) against `schema::columns` for every kind in
//!   `ALL_KINDS`, in table order: names and physical types.
//! * docs/SPANS.md — the `ALL_SEGMENTS` labels, and the SLO table against
//!   the `slo`-named families of the matrix registries.
//! * docs/METRICS.md — every family the matrix registries register, per
//!   metric type, against the "Metric catalogue".
//! * State identity — every run's [`StateDigest`] (and those of a
//!   100-tenant fleet, a contended 20-tenant fleet and, release-only, a
//!   1,000-tenant fleet) matches a constant computed before sweeps became
//!   wakeups, so a change that only drops repeated `wait` decisions,
//!   their queue-depth samples or engine events cannot move a hire, a
//!   release, a completion, the reward or the cost.
//! * Session metrics — one digest pins every field of every run's
//!   `SessionMetrics`, and each count and sum among them equals what the
//!   run's own event stream folds to.
//!
//! [`kind_position`] and [`scaling_choices`] are exhaustive `match`es, so
//! a new `TraceEvent` or `ScalingChoice` variant fails to compile here
//! until it is listed, and once listed the coverage test demands a run
//! that produces it.

use scan::platform::config::{RewardKind, ScanConfig, VariableParams};
use scan::platform::fleet::{run_fleet_with, FleetConfig, FleetMetrics};
use scan::platform::instrument::{MetricsObserver, DEFAULT_WINDOW_TU};
use scan::platform::session::run_session_with;
use scan::platform::{DecisionStats, SessionMetrics};
use scan::sched::alloc::AllocationPolicy;
use scan::sched::scaling::ScalingPolicy;
use scan::sim::{JsonlWriter, Observer, ScalingChoice, SimTime, TraceEvent};
use scan::tracestore::schema::columns;
use scan::tracestore::{Agg, ColumnType, TraceStore, ALL_KINDS};
use scan_metrics::Registry;
use scan_spans::{SpanObserver, SpanSet, ALL_SEGMENTS};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

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

/// The position of an event's kind in `ALL_KINDS`.
fn kind_position(event: &TraceEvent) -> usize {
    use TraceEvent::*;
    // Exhaustive: a new variant stops this compiling until it is listed
    // here, and then the coverage test until a run emits it.
    let position = match event {
        JobArrived { .. } => 0,
        JobStageAdvanced { .. } => 1,
        JobCompleted { .. } => 2,
        SloViolation { .. } => 3,
        SubtaskDispatched { .. } => 4,
        SubtaskDone { .. } => 5,
        VmHired { .. } => 6,
        VmBooted { .. } => 7,
        VmReshaped { .. } => 8,
        VmReleased { .. } => 9,
        ScalingDecision { .. } => 10,
        QueueDepthSampled { .. } => 11,
        AdmissionDeferred { .. } => 12,
        AdmissionResumed { .. } => 13,
        TierSettled { .. } => 14,
        RunEnded { .. } => 15,
    };
    assert_eq!(ALL_KINDS.get(position), Some(&event.kind()), "{event:?} is off position");
    position
}

/// `ScalingChoice::ALL`, checked against the variants.
fn scaling_choices() -> [ScalingChoice; 4] {
    use ScalingChoice::*;
    // Exhaustive: a new variant stops this compiling until it is listed
    // here, and the array type until `ALL` lists it too.
    for (i, choice) in ScalingChoice::ALL.into_iter().enumerate() {
        let position = match choice {
            Wait => 0,
            HirePrivate => 1,
            HirePublic => 2,
            Reshape => 3,
        };
        assert_eq!(position, i, "{choice:?} is listed out of order");
        assert_eq!(choice.index(), i, "{choice:?} indexes off its position");
    }
    ScalingChoice::ALL
}

/// The observers a run's stream feeds, live and again from its store.
struct Observers {
    jsonl: JsonlWriter<Vec<u8>>,
    spans: SpanObserver,
    metrics: MetricsObserver,
    decisions: DecisionStats,
}

/// What [`Observers`] made of one stream, in comparable form.
struct Outputs {
    jsonl: Vec<u8>,
    spans: SpanSet,
    /// The registry as JSONL and as Prometheus text.
    metrics: [Vec<u8>; 2],
    decisions: String,
}

impl Observers {
    fn new(cfg: &ScanConfig, tenant: u32) -> Observers {
        Observers {
            jsonl: JsonlWriter::new(Vec::new()),
            spans: SpanObserver::for_tenant(tenant),
            metrics: MetricsObserver::new(cfg, DEFAULT_WINDOW_TU),
            decisions: DecisionStats::new(),
        }
    }

    fn finish(self) -> Outputs {
        let registry = self.metrics.registry();
        let mut metrics = [Vec::new(), Vec::new()];
        scan_metrics::write_jsonl(registry, &mut metrics[0]).expect("writes to memory");
        scan_metrics::write_prometheus(registry, &mut metrics[1]).expect("writes to memory");
        let mut decisions = String::new();
        self.decisions.write_json(&mut decisions);
        Outputs {
            jsonl: self.jsonl.into_inner(),
            spans: self.spans.into_spans(),
            metrics,
            decisions,
        }
    }
}

impl Observer for Observers {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        self.jsonl.on_event(at, event);
        self.spans.on_event(at, event);
        self.metrics.on_event(at, event);
        self.decisions.on_event(at, event);
    }
}

/// One session's live view of its own event stream.
struct Probe {
    store: TraceStore,
    live: Observers,
}

impl Probe {
    fn new(cfg: &ScanConfig, tenant: u32) -> Probe {
        Probe { store: TraceStore::for_tenant(tenant), live: Observers::new(cfg, tenant) }
    }
}

impl Observer for Probe {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        self.store.ingest(at, event);
        self.live.on_event(at, event);
    }
}

/// One recorded session of the matrix.
struct Run {
    cfg: ScanConfig,
    tenant: u32,
    store: TraceStore,
    live: Outputs,
    /// What the session reported.
    metrics: SessionMetrics,
}

/// What the whole matrix produced.
struct Matrix {
    /// Every session, fleet tenants one by one.
    runs: Vec<Run>,
    /// Rows of each `ALL_KINDS` table, summed over every run.
    rows: [usize; ALL_KINDS.len()],
    /// The first event of each kind, in `ALL_KINDS` order.
    first: [Option<TraceEvent>; ALL_KINDS.len()],
    /// Decisions per `ScalingChoice::ALL` entry, summed over every run.
    decided: [u64; ScalingChoice::ALL.len()],
    /// Per catalogue heading, in catalogue order: every family the merged
    /// session registries and the fleet projection register, and whether
    /// any of its metrics holds a non-zero value.
    families: Vec<(String, BTreeMap<String, bool>)>,
}

impl Matrix {
    fn run() -> Matrix {
        let mut fig4 = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.0), 7);
        fig4.fixed.sim_time_tu = 100.0;
        let mut reshape = fig4.clone();
        reshape.variable = VariableParams {
            allocation: AllocationPolicy::BestConstant,
            scaling: ScalingPolicy::Predictive,
            mean_interval: 2.0,
            reward: RewardKind::ThroughputBased,
            public_core_cost: 50.0,
        };
        reshape.allow_reshape = true;
        reshape.forced_plan = Some(vec![(1, 2), (4, 1), (1, 2), (4, 1), (1, 8), (1, 1), (1, 1)]);
        let mut spill = fig4.clone();
        spill.variable.scaling = ScalingPolicy::AlwaysScale;
        spill.fixed.private_capacity_cores = 64;
        // Well under the 26.7 TU break-even, so a lightly loaded session
        // misses it too.
        let mut slo = fig4.clone();
        slo.slo_target_tu = Some(10.0);
        let mut saturated = fig4.clone();
        saturated.variable.mean_interval = 1.0;
        let mut fleet = FleetConfig::new(slo.clone(), 3);
        fleet.shared_private_cores = 8;
        fleet.jobs_per_tenant = 6;

        let mut runs = Vec::new();
        let mut sessions: Option<Registry> = None;
        for cfg in [fig4, reshape, spill, slo, saturated] {
            let (m, probe) = run_session_with(&cfg, 0, Probe::new(&cfg, 0));
            let registry = probe.live.metrics.registry();
            // The merge asserts one shape for every session, so no family
            // is registered only with an SLO target, say.
            match &mut sessions {
                None => sessions = Some(registry.clone()),
                Some(all) => all.merge(registry),
            }
            let live = probe.live.finish();
            runs.push(Run { cfg, tenant: 0, store: probe.store, live, metrics: m });
        }
        let tenant_cfg = ScanConfig::clone(&fleet.base);
        let (fleet, tenants) =
            run_fleet_with(&fleet, 0, &|tenant| Probe::new(&tenant_cfg, tenant as u32));
        for ((tenant, probe), m) in (0..).zip(tenants).zip(&fleet.tenants) {
            let (cfg, live, metrics) = (tenant_cfg.clone(), probe.live.finish(), m.clone());
            runs.push(Run { cfg, tenant, store: probe.store, live, metrics });
        }

        let registries = [sessions.expect("the matrix has sessions"), fleet.registry()];
        let mut matrix = Matrix {
            runs: Vec::new(),
            rows: [0; ALL_KINDS.len()],
            first: [None; ALL_KINDS.len()],
            decided: [0; ScalingChoice::ALL.len()],
            families: families(&registries),
        };
        for run in &runs {
            for (_, _, event) in run.store.replay() {
                let position = kind_position(&event);
                matrix.rows[position] += 1;
                matrix.first[position].get_or_insert(event);
                if let TraceEvent::ScalingDecision { choice, .. } = event {
                    matrix.decided[choice.index()] += 1;
                }
            }
        }
        matrix.runs = runs;
        matrix
    }
}

/// `(catalogue heading, family → any non-zero value)` over `registries`:
/// a counter above 0, a gauge other than 0, a histogram with a sample, a
/// series with a non-zero window accumulator.
fn families(registries: &[Registry]) -> Vec<(String, BTreeMap<String, bool>)> {
    let mut out: [BTreeMap<String, bool>; 4] = Default::default();
    for r in registries {
        let mut note = |table: usize, family: &str, fired: bool| {
            *out[table].entry(family.to_string()).or_default() |= fired;
        };
        r.counters().iter().for_each(|(m, n)| note(0, &m.family, *n > 0));
        r.gauges().iter().for_each(|(m, v)| note(1, &m.family, *v != 0.0));
        r.histograms().iter().for_each(|(m, h)| note(2, &m.family, h.count() > 0));
        for (m, s) in r.series_entries() {
            note(3, &m.family, s.accumulators().iter().any(|&(acc, _)| acc != 0.0));
        }
    }
    let headings = ["Counters", "Gauges", "Histograms", "Series (sim-time-windowed)"];
    headings.into_iter().map(str::to_string).zip(out).collect()
}

/// The matrix, run once per test binary.
fn matrix() -> &'static Matrix {
    static MATRIX: OnceLock<Matrix> = OnceLock::new();
    MATRIX.get_or_init(Matrix::run)
}

#[test]
fn every_run_replays_into_what_its_observers_saw_live() {
    for (i, run) in matrix().runs.iter().enumerate() {
        let decoded = TraceStore::from_bytes(&run.store.to_bytes()).expect("own export decodes");
        for (source, store) in [("store", &run.store), ("decoded export", &decoded)] {
            let mut replayed = Observers::new(&run.cfg, run.tenant);
            for (_, at, event) in store.replay() {
                replayed.on_event(at, &event);
            }
            let replayed = replayed.finish();
            let what = format!("run {i}, replayed from its {source}");
            assert!(replayed.jsonl == run.live.jsonl, "{what}: JSONL differs");
            assert_eq!(replayed.spans, run.live.spans, "{what}: spans differ");
            assert!(replayed.metrics == run.live.metrics, "{what}: registry exports differ");
            assert_eq!(replayed.decisions, run.live.decisions, "{what}: decision stats differ");
        }
    }
}

#[test]
fn every_trace_kind_scaling_choice_and_metric_family_fires() {
    let matrix = matrix();
    for (kind, rows) in ALL_KINDS.iter().zip(matrix.rows) {
        assert!(rows > 0, "no run of the matrix emits `{}`", kind.tag());
    }
    for choice in scaling_choices() {
        let decided = matrix.decided[choice.index()];
        assert!(decided > 0, "no run of the matrix decides `{}`", choice.name());
    }
    for (heading, families) in &matrix.families {
        for (family, fired) in families {
            assert!(fired, "{heading}: `{family}` is registered but stays 0 in every run");
        }
    }
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
    let mut expected = Vec::new();
    for (event, kind) in matrix().first.iter().zip(ALL_KINDS) {
        let event = event.unwrap_or_else(|| panic!("no run of the matrix emits `{}`", kind.tag()));
        let (variant, fields) = debug_shape(&event);
        let (tag, keys) = jsonl_shape(&event);
        assert_eq!(event.kind(), kind, "kind of {variant}");
        assert_eq!(tag, kind.tag(), "JSONL kind of {variant}");
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
        .map(|&k| (format!("`{}`", k.tag()), names(columns(k).map(|c| c.name))))
        .collect();
    assert_eq!(tables(&doc, "Column layouts"), layouts);
    let aggs = names(Agg::ALL.map(Agg::name));
    assert_eq!(tables(&doc, "Aggregations"), [(String::new(), aggs)]);
}

/// `SCTS_SCHEMA` of scripts/plot_traces.py: per table, its tag and its
/// `(column, type code)` pairs, in the order written. The literal is a
/// list of `("tag", [("column", "code"), …])` tuples, so a quoted string
/// one bracket deep is a tag and the strings two deep pair up as columns.
fn plot_traces_schema() -> Vec<(String, Vec<(String, String)>)> {
    let path = format!("{}/scripts/plot_traces.py", env!("CARGO_MANIFEST_DIR"));
    let script = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let start = script.find("\nSCTS_SCHEMA = [").expect("plot_traces.py declares SCTS_SCHEMA");
    let body = &script[start + "\nSCTS_SCHEMA = ".len()..];
    let mut tables: Vec<(String, Vec<(String, String)>)> = Vec::new();
    let mut strings = Vec::new();
    let mut depth = 0;
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            '"' => {
                let text: String = chars.by_ref().take_while(|&c| c != '"').collect();
                match depth {
                    1 => tables.push((text, Vec::new())),
                    2 => strings.push(text),
                    _ => panic!("SCTS_SCHEMA: a string {depth} brackets deep"),
                }
                if let [name, code] = &strings[..] {
                    let table = tables.last_mut().expect("columns follow their table's tag");
                    table.1.push((name.clone(), code.clone()));
                    strings.clear();
                }
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "SCTS_SCHEMA is not closed");
    assert!(strings.is_empty(), "SCTS_SCHEMA: a column without a type code");
    tables
}

/// The plot script's SCTS reader declares every table the store exports,
/// in table order, with every column in column order and type: the
/// reader decodes an export by this table alone, so a column it misses
/// (in a kind a fig4 export never emits, too) would misread every row
/// after it. Equality checks both directions: no table or column of
/// either side is missing from the other.
#[test]
fn plot_traces_scts_schema_matches_the_store_layout() {
    let code = |ty: ColumnType| match ty {
        ColumnType::U32 | ColumnType::U64 => "u",
        ColumnType::F64 => "f",
        ColumnType::Dict => "d",
    };
    let layouts: Vec<(String, Vec<(String, String)>)> = ALL_KINDS
        .iter()
        .map(|&k| {
            let cols = columns(k).map(|c| (c.name.to_string(), code(c.ty).to_string()));
            (k.tag().to_string(), cols.collect())
        })
        .collect();
    assert_eq!(plot_traces_schema(), layouts);
}

#[test]
fn metrics_and_spans_docs_match_the_live_registries() {
    let registered: Vec<(String, BTreeSet<String>)> = matrix()
        .families
        .iter()
        .map(|(heading, families)| (heading.clone(), families.keys().cloned().collect()))
        .collect();
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

/// FNV-1a over a session's *state* events: every event's instant bits and
/// `Debug` rendering, except the ones a run may repeat or drop without
/// changing what happened — `scaling_decision`s that chose `wait`,
/// `queue_depth` samples and `run_ended` (which carries the engine's
/// event count) — then the reward and cost bits.
struct StateDigest {
    hash: u64,
    text: String,
}

impl StateDigest {
    fn new() -> StateDigest {
        StateDigest { hash: 0xcbf2_9ce4_8422_2325, text: String::new() }
    }

    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest, closed with the session's reward and cost bits.
    fn finish(mut self, reward: f64, cost: f64) -> u64 {
        self.mix(&reward.to_bits().to_le_bytes());
        self.mix(&cost.to_bits().to_le_bytes());
        self.hash
    }
}

impl Observer for StateDigest {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        match event {
            TraceEvent::ScalingDecision { choice: ScalingChoice::Wait, .. }
            | TraceEvent::QueueDepthSampled { .. }
            | TraceEvent::RunEnded { .. } => return,
            _ => {}
        }
        use std::fmt::Write;
        self.text.clear();
        write!(self.text, "{event:?}").expect("writes to a String");
        let text = std::mem::take(&mut self.text);
        self.mix(&at.as_tu().to_bits().to_le_bytes());
        self.mix(text.as_bytes());
        self.text = text;
    }
}

/// The state digests of the matrix runs, in run order (fig4, reshape,
/// spill, SLO, saturated, fleet tenants 0–2).
const MATRIX_STATE_DIGESTS: [u64; 8] = [
    0x501a_8eb4_c532_133f,
    0xfae6_9485_0633_f6cf,
    0x8739_9a2b_c679_db1f,
    0x3300_8709_7393_185b,
    0x812b_4c07_6bb3_7bde,
    0x4179_9483_ca27_4dd7,
    0x45c9_1388_cf08_abe9,
    0x543a_a773_2554_da4f,
];

#[test]
fn matrix_state_digests_are_pinned() {
    let digests: Vec<u64> = matrix()
        .runs
        .iter()
        .map(|run| {
            let mut digest = StateDigest::new();
            for (_, at, event) in run.store.replay() {
                digest.on_event(at, &event);
            }
            digest.finish(run.metrics.total_reward, run.metrics.total_cost)
        })
        .collect();
    println!("matrix state digests: {digests:#018x?}");
    assert_eq!(digests, MATRIX_STATE_DIGESTS);
}

/// Every [`SessionMetrics`] field's bits, in declaration order. The
/// destructuring is exhaustive, so a new field stops this compiling
/// until it is pinned too.
fn metric_bits(m: &SessionMetrics) -> [u64; 18] {
    let SessionMetrics {
        jobs_submitted,
        jobs_deferred,
        jobs_completed,
        jobs_slo_violated,
        total_reward,
        total_cost,
        profit_per_run,
        reward_to_cost,
        mean_latency,
        p95_latency,
        public_core_tu_share,
        worker_utilisation,
        mean_queue_len,
        peak_queue_len,
        mean_core_stages,
        vms_hired,
        reshapes,
        events,
    } = *m;
    [
        jobs_submitted,
        jobs_deferred,
        jobs_completed,
        jobs_slo_violated,
        total_reward.to_bits(),
        total_cost.to_bits(),
        profit_per_run.to_bits(),
        reward_to_cost.to_bits(),
        mean_latency.to_bits(),
        p95_latency.to_bits(),
        public_core_tu_share.to_bits(),
        worker_utilisation.to_bits(),
        mean_queue_len.to_bits(),
        peak_queue_len as u64,
        mean_core_stages.to_bits(),
        vms_hired,
        reshapes,
        events,
    ]
}

/// FNV-1a over [`metric_bits`] of every matrix run, in run order.
const MATRIX_METRICS_DIGEST: u64 = 0x0358_aa6c_dc91_2263;

/// The golden metrics of `platform::tests` pin six fields of one
/// session; this pins every field of every matrix run, so a change in
/// how the platform counts cannot move a figure no golden names.
#[test]
fn every_session_metric_is_pinned() {
    let mut digest = StateDigest::new();
    for run in &matrix().runs {
        for bits in metric_bits(&run.metrics) {
            digest.mix(&bits.to_le_bytes());
        }
    }
    println!("matrix metrics digest: {:#018x}", digest.hash);
    assert_eq!(digest.hash, MATRIX_METRICS_DIGEST);
}

/// The count and sum facts of one run's event stream, each sum folded
/// in emission order.
#[derive(Default)]
struct StreamLedger {
    submitted: u64,
    deferred: u64,
    completed: u64,
    slo_violated: u64,
    reward: f64,
    busy_core_tu: f64,
    vms_hired: u64,
    reshapes: u64,
    cost: f64,
    core_tu: f64,
    public_core_tu: f64,
    events: u64,
}

impl StreamLedger {
    fn fold(store: &TraceStore) -> StreamLedger {
        let mut s = StreamLedger::default();
        for (_, _, event) in store.replay() {
            match event {
                TraceEvent::JobArrived { .. } => s.submitted += 1,
                TraceEvent::AdmissionDeferred { jobs, .. } => s.deferred += u64::from(jobs),
                TraceEvent::JobCompleted { reward, .. } => {
                    s.completed += 1;
                    s.reward += reward;
                }
                TraceEvent::SloViolation { .. } => s.slo_violated += 1,
                TraceEvent::SubtaskDispatched { cores, busy_tu, .. } => {
                    s.busy_core_tu += f64::from(cores) * busy_tu;
                }
                TraceEvent::VmHired { .. } => s.vms_hired += 1,
                TraceEvent::VmReshaped { .. } => s.reshapes += 1,
                TraceEvent::TierSettled { tier, cost, core_tu } => {
                    s.cost += cost;
                    s.core_tu += core_tu;
                    if tier != 0 {
                        s.public_core_tu += core_tu;
                    }
                }
                TraceEvent::RunEnded { events_dispatched } => s.events = events_dispatched,
                _ => {}
            }
        }
        s
    }
}

/// The platform counts its session metrics where each fact happens and
/// reads cost and core·TU from its provider; the stream narrates the
/// same facts. Folded from each run's store, the stream must give every
/// count of its [`SessionMetrics`] exactly and every sum bit for bit,
/// across the matrix's reshapes, SLO misses and fleet deferrals.
#[test]
fn session_metrics_match_the_event_stream() {
    let mut exercised = [0; 3];
    for (i, run) in matrix().runs.iter().enumerate() {
        let (m, s) = (&run.metrics, StreamLedger::fold(&run.store));
        assert_eq!(
            [
                m.jobs_submitted,
                m.jobs_deferred,
                m.jobs_completed,
                m.jobs_slo_violated,
                m.vms_hired,
                m.reshapes,
                m.events,
            ],
            [
                s.submitted,
                s.deferred,
                s.completed,
                s.slo_violated,
                s.vms_hired,
                s.reshapes,
                s.events
            ],
            "run {i}: counts"
        );
        assert!(s.core_tu > 0.0, "run {i} hired nothing");
        let sums = [m.total_reward, m.total_cost, m.public_core_tu_share, m.worker_utilisation];
        let folded =
            [s.reward, s.cost, s.public_core_tu / s.core_tu, (s.busy_core_tu / s.core_tu).min(1.0)];
        assert_eq!(sums.map(f64::to_bits), folded.map(f64::to_bits), "run {i}: sums");
        for (n, k) in exercised.iter_mut().zip([s.reshapes, s.slo_violated, s.deferred]) {
            *n += k;
        }
    }
    assert!(exercised.iter().all(|&n| n > 0), "reshapes, SLO misses, deferrals: {exercised:?}");
}

/// A fleet of `tenants` × 4 jobs on the benchmark's fleet cell at seed 1
/// (`perfbench`'s `fleet_cfg(1)`: the fig4 predictive cell at a 2.5 TU
/// interval, a 2,000 TU backstop, and a shared private pool of one solo
/// tier or two cores per tenant, unless `shared_cores` overrides it).
fn fleet_cell(tenants: u16, shared_cores: Option<u32>) -> FleetConfig {
    let seed = 0x5CA4_2015 ^ 1u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut base = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), seed);
    base.fixed.sim_time_tu = 2_000.0;
    let mut cfg = FleetConfig::new(base, tenants);
    cfg.jobs_per_tenant = 4;
    cfg.shared_private_cores = shared_cores.unwrap_or(cfg.shared_private_cores);
    cfg
}

/// [`fleet_cell`]'s run, digested per tenant and folded in tenant order.
fn fleet_state_digest(tenants: u16, shared_cores: Option<u32>) -> (u64, FleetMetrics) {
    let cfg = fleet_cell(tenants, shared_cores);
    let (metrics, digests) = run_fleet_with(&cfg, 0, &|_| StateDigest::new());
    let mut fold = StateDigest::new();
    for (digest, m) in digests.into_iter().zip(&metrics.tenants) {
        fold.mix(&digest.finish(m.total_reward, m.total_cost).to_le_bytes());
    }
    (fold.hash, metrics)
}

const FLEET_100_STATE_DIGEST: u64 = 0x3acc_ba27_fd37_9293;
const FLEET_CONTENDED_STATE_DIGEST: u64 = 0x8b59_6c6e_2102_2525;
const FLEET_1000_STATE_DIGEST: u64 = 0x9690_f5af_1e51_1902;

#[test]
fn fleet_100_state_digest_is_pinned() {
    let (digest, metrics) = fleet_state_digest(100, None);
    println!("fleet 100 state digest: {digest:#018x} ({} events)", metrics.events);
    assert_eq!(metrics.jobs_completed, 400);
    assert_eq!(digest, FLEET_100_STATE_DIGEST);
}

/// 20 tenants on 16 shared private cores: the pool runs dry, so the
/// fair-share gate defers, and parked tenants wait on other tenants'
/// releases — the run that needs the shared pool's private-core watch.
#[test]
fn fleet_contended_state_digest_is_pinned() {
    let (digest, metrics) = fleet_state_digest(20, Some(16));
    println!("fleet contended state digest: {digest:#018x} ({} events)", metrics.events);
    assert_eq!(metrics.jobs_completed, 80);
    assert!(metrics.jobs_deferred > 0, "the pool must run dry");
    assert_eq!(digest, FLEET_CONTENDED_STATE_DIGEST);
}

/// The instant of a tenant's last worker release.
#[derive(Default)]
struct LastRelease(f64);

impl Observer for LastRelease {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        if matches!(event, TraceEvent::VmReleased { .. }) {
            self.0 = self.0.max(at.as_tu());
        }
    }
}

/// A drained tenant's pending replan tick neither fires nor holds the
/// fleet's clock: the 100-tenant fleet cell ends at its last worker
/// release, before the second 50 TU replan tick.
#[test]
fn a_drained_fleet_ends_at_its_last_release() {
    let cfg = fleet_cell(100, None);
    let (metrics, tenants) = run_fleet_with(&cfg, 0, &|_| LastRelease::default());
    let last_release = tenants.iter().map(|t| t.0).fold(0.0, f64::max);
    assert!(metrics.ended_at_tu < 100.0, "the fleet ran on to {} TU", metrics.ended_at_tu);
    assert_eq!(metrics.ended_at_tu, last_release);
}

#[test]
#[ignore = "release only: cargo test --release --test doc_contracts -- --ignored"]
fn fleet_1000_state_digest_is_pinned() {
    let (digest, metrics) = fleet_state_digest(1_000, None);
    println!("fleet 1000 state digest: {digest:#018x} ({} events)", metrics.events);
    assert_eq!(metrics.jobs_completed, 4_000);
    assert_eq!(digest, FLEET_1000_STATE_DIGEST);
}
