//! The traced run: per-layer times measured from outside, by timing calls
//! into each layer's public functions, and a reconciliation table whose
//! rows sum to the traced unit's wall time.
//!
//! Every workload reports the same per-layer metrics. The unit rows
//! (`unit.*`, `platform.*`, `arm.*`, `kb.bootstrap_ms`, the counts) break
//! down the workload's own unit, repetition 0, measured several times.
//! The probe rows (the other `kb.*`, `sim.calendar_*`, `sched.*`,
//! `cloud.*`, observer, export and `artefact.*` rows) time one layer call
//! in isolation, sized from the unit's counts; observer and export probes
//! run on the recorded cell of the same seed.

use crate::count::Counts;
use crate::report::{median, Metrics};
use crate::workload::{dump_all, slo_armed, Kind, Output, Tally, Workload, SLOWEST_ROWS};
use scan_cloud::{CloudProvider, InstanceSize, TierCatalog, TierId};
use scan_kb::{KnowledgeBase, ProfileRecord};
use scan_platform::fleet::run_fleet_with;
use scan_platform::instrument::{run_session_instrumented, DEFAULT_WINDOW_TU};
use scan_platform::platform::bench_support::PlatformHarness;
use scan_platform::session::{run_session, run_session_with};
use scan_platform::{DataBroker, Platform, ScanConfig};
use scan_sim::{prof, Calendar, JsonlWriter, NullObserver, RngHub, SimDuration, SimTime};
use scan_spans::Recorder;
use scan_tracestore::{Agg, EventKind, Query, TraceStore, ALL_KINDS};
use scan_workload::profiletrace::generate_profile_trace;
use std::hint::black_box;
use std::time::Instant;

/// The platform's profiler arms, in report order.
const ARMS: [&str; 8] = [
    "arrival",
    "subtask_done",
    "dispatch",
    "assign",
    "try_grow",
    "vm_ready",
    "idle_sweep",
    "replan",
];

/// Calls `f` and returns its result with its wall time in ms.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Median wall time of `reps` calls of `f`, ms.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(|| black_box(f())).1).collect();
    median(&samples)
}

/// Median over `batches` of the mean ns per call of `f`, `iters` calls a
/// batch.
fn ns_per_call<T>(batches: usize, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Self time and entry count per profiler arm (leaf name), ms, summed
/// over every path the arm appears on; names outside [`ARMS`] fold into
/// the last slot.
#[derive(Debug, Clone, Default)]
struct Arms {
    self_ms: [f64; ARMS.len() + 1],
    count: [u64; ARMS.len() + 1],
}

impl Arms {
    fn from_summary(summary: &prof::ProfSummary) -> Arms {
        let mut arms = Arms::default();
        for f in &summary.frames {
            let children: u64 = summary
                .frames
                .iter()
                .filter(|c| c.path.len() == f.path.len() + 1 && c.path.starts_with(&f.path))
                .map(|c| c.total_ns)
                .sum();
            let leaf = f.path.last().copied().unwrap_or("");
            let slot = ARMS.iter().position(|a| *a == leaf).unwrap_or(ARMS.len());
            arms.self_ms[slot] += f.total_ns.saturating_sub(children) as f64 / 1e6;
            arms.count[slot] += f.count;
        }
        arms
    }

    fn total_ms(&self) -> f64 {
        self.self_ms.iter().sum()
    }
}

/// One profiled pass over the platform sessions of the unit's
/// repetition 0: the unit itself for the session, adaptive and fleet
/// workloads; for the recorded one, the four sessions its dump calls
/// simulate, run plain (the probes price the observers separately).
struct Profiled {
    output: Output,
    arms: Arms,
    wall_ms: f64,
    /// Σ `Platform::new` and Σ `Platform::run` timed inside the pass
    /// (zero for the fleet, which builds its tenants internally).
    new_ms: f64,
    run_ms: f64,
}

fn profiled_pass(wl: &Workload) -> Profiled {
    prof::reset_thread();
    let (mut new_ms, mut run_ms) = (0.0, 0.0);
    let mut session = |cfg: &ScanConfig| {
        let (platform, n) = timed(|| Platform::new(cfg.clone(), 0));
        let (m, r) = timed(|| platform.run());
        new_ms += n;
        run_ms += r;
        m
    };
    let t = Instant::now();
    let output = match wl.kind {
        Kind::Session | Kind::Adaptive => Output::Session(session(&wl.solo)),
        Kind::Fleet => Output::Fleet(scan_platform::run_fleet(&wl.fleet, 0)),
        Kind::Recorded => {
            let cfg = wl.recorded_cfg(0);
            let plain = session(&cfg);
            session(&cfg);
            session(&cfg);
            session(&slo_armed(&cfg));
            Output::Session(plain)
        }
    };
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    Profiled { output, arms: Arms::from_summary(&prof::take_summary()), wall_ms, new_ms, run_ms }
}

/// The unit's exact counts: per-kind trace events and work counts,
/// summed over every session the unit runs.
fn unit_counts(wl: &Workload) -> Counts {
    match wl.kind {
        Kind::Session | Kind::Adaptive => run_session_with(&wl.solo, 0, Counts::default()).1,
        Kind::Fleet => {
            let (_, tenants) = run_fleet_with(&wl.fleet, 0, &|_: u64| Counts::default());
            tenants.into_iter().fold(Counts::default(), |mut acc, c| {
                scan_sim::Merge::merge(&mut acc, c);
                acc
            })
        }
        Kind::Recorded => {
            // trace, store and metrics record the plain config; spans
            // records its SLO-armed variant.
            let cfg = wl.recorded_cfg(0);
            let plain = run_session_with(&cfg, 0, Counts::default()).1;
            let mut all = run_session_with(&slo_armed(&cfg), 0, Counts::default()).1;
            for _ in 0..3 {
                scan_sim::Merge::merge(&mut all, plain.clone());
            }
            all
        }
    }
}

/// Per-event observer costs and the instrumented overhead, from
/// interleaved rounds of one session with each observer attached.
struct ObserverProbe {
    plain_ms: f64,
    trace_events: u64,
    deliver_ns: f64,
    ingest_ns: f64,
    stitch_ns: f64,
    jsonl_ns: f64,
    metrics_overhead_pct: f64,
    recorder: Recorder,
    registry: scan_metrics::Registry,
}

fn observer_probe(cfg: &ScanConfig, rounds: usize) -> ObserverProbe {
    let trace_events = run_session_with(cfg, 0, Counts::default()).1.trace_events();
    // One round times every variant back to back; each cost is the
    // median over rounds of its paired difference, which cancels drift.
    let mut rounds_ms: Vec<[f64; 6]> = Vec::with_capacity(rounds);
    let mut recorder = Recorder::default();
    let mut registry = None;
    for _ in 0..rounds {
        let mut r = [0.0; 6];
        r[0] = timed(|| run_session(cfg, 0)).1;
        r[1] = timed(|| run_session_with(cfg, 0, NullObserver)).1;
        r[2] = timed(|| run_session_with(cfg, 0, TraceStore::new())).1;
        let ((_, rec), ms) = timed(|| run_session_with(cfg, 0, Recorder::default()));
        r[3] = ms;
        recorder = rec;
        let sink = JsonlWriter::new(std::io::sink());
        r[4] = timed(|| run_session_with(cfg, 0, sink)).1;
        let ((_, reg, _), ms) =
            timed(|| run_session_instrumented(cfg, 0, DEFAULT_WINDOW_TU, false));
        r[5] = ms;
        registry = Some(reg);
        rounds_ms.push(r);
    }
    let paired =
        |a: usize, b: usize| median(&rounds_ms.iter().map(|r| r[a] - r[b]).collect::<Vec<_>>());
    let per_event = |a: usize, b: usize| paired(a, b) * 1e6 / trace_events.max(1) as f64;
    let plain_ms = median(&rounds_ms.iter().map(|r| r[0]).collect::<Vec<_>>());
    ObserverProbe {
        plain_ms,
        trace_events,
        deliver_ns: per_event(1, 0),
        ingest_ns: per_event(2, 1),
        stitch_ns: per_event(3, 2),
        jsonl_ns: per_event(4, 1),
        metrics_overhead_pct: paired(5, 0) / plain_ms * 100.0,
        recorder,
        registry: registry.expect("at least one round"),
    }
}

/// Export and query costs over the probe session's recording.
struct ExportProbe {
    export_ms: f64,
    import_ms: f64,
    query_ms: f64,
    scts_bytes: f64,
    derive_ms: f64,
    perfetto_ms: f64,
    perfetto_bytes: f64,
    report_ms: f64,
    metrics_export_ms: f64,
}

fn export_probe(obs: &ObserverProbe, reps: usize) -> ExportProbe {
    let store = &obs.recorder.store;
    let spans = scan_spans::derive(store);
    let bytes = store.to_bytes();
    let doc = scan_spans::perfetto::export(store, &spans);
    ExportProbe {
        export_ms: median_ms(reps, || store.to_bytes()),
        import_ms: median_ms(reps, || TraceStore::from_bytes(&bytes).map(|s| s.events())),
        query_ms: median_ms(reps, || {
            Query::over(EventKind::SubtaskDispatched)
                .group_by("tier")
                .aggregate(Agg::P95, "waited_tu")
                .run(store)
                .map(|rows| rows.len())
        }),
        scts_bytes: bytes.len() as f64,
        derive_ms: median_ms(reps, || scan_spans::derive(store)),
        perfetto_ms: median_ms(reps, || scan_spans::perfetto::export(store, &spans)),
        perfetto_bytes: doc.len() as f64,
        report_ms: median_ms(reps, || {
            let mut report = scan_spans::render(&scan_spans::aggregate(&spans));
            report.push_str(&scan_spans::render_slowest(&spans, SLOWEST_ROWS));
            report
        }),
        metrics_export_ms: median_ms(reps, || {
            let mut out = Vec::new();
            let _ = scan_metrics::write_jsonl(&obs.registry, &mut out);
            let _ = scan_metrics::write_prometheus(&obs.registry, &mut out);
            out
        }),
    }
}

/// Knowledge-base costs: one bootstrap in its three parts, a re-fit after
/// `live_records` further live logs, and live-log ingest per record.
struct KbProbe {
    bootstrap_ms: f64,
    profile_gen_ms: f64,
    ingest_ms: f64,
    fit_ms: f64,
    refit_ms: f64,
    ingest_us_per_record: f64,
    bootstrap_records: u64,
}

fn kb_probe(cfg: &ScanConfig, live_records: u64, reps: usize) -> KbProbe {
    let model = cfg.true_model();
    let noise = cfg.fixed.profile_noise;
    let stream = || RngHub::new(cfg.seed, 0).stream("kb-bootstrap");
    let (mut gen, mut ingest, mut fit) = (Vec::new(), Vec::new(), Vec::new());
    let mut trace = Vec::new();
    for _ in 0..reps {
        let (t, ms) = timed(|| generate_profile_trace(&model, "GATK", 3, noise, &mut stream()));
        gen.push(ms);
        let (kb, ms) = timed(|| {
            let mut kb = KnowledgeBase::new();
            for rec in &t {
                kb.ingest(rec);
            }
            kb
        });
        ingest.push(ms);
        fit.push(
            timed(|| {
                (1..=model.n_stages() as u32)
                    .filter(|s| kb.stage_model("GATK", *s).is_some())
                    .count()
            })
            .1,
        );
        trace = t;
    }
    let bootstrap_ms = median_ms(reps, || DataBroker::bootstrap(&model, noise, &mut stream()));
    let bootstrap_records = trace.len() as u64;

    // Live logs look like profiling records; grow the KB to the unit's
    // end-of-run size, then time a full re-fit there.
    let live = |i: usize| -> ProfileRecord { trace[i % trace.len()].clone() };
    let mut broker = DataBroker::bootstrap(&model, noise, &mut stream());
    for i in 0..live_records as usize {
        broker.ingest_log(&live(i));
    }
    let refit_ms = median_ms(reps, || broker.refresh_model());

    const INGESTED: usize = 2_000;
    let mut fresh = DataBroker::bootstrap(&model, noise, &mut stream());
    let (_, ms) = timed(|| {
        for i in 0..INGESTED {
            fresh.ingest_log(&live(i));
        }
    });
    KbProbe {
        bootstrap_ms,
        profile_gen_ms: median(&gen),
        ingest_ms: median(&ingest),
        fit_ms: median(&fit),
        refit_ms,
        ingest_us_per_record: ms * 1e3 / INGESTED as f64,
        bootstrap_records,
    }
}

/// ns per `schedule` + pop (via `pop_batch`) at a standing backlog.
fn calendar_probe(backlog: usize) -> f64 {
    let mut cal: Calendar<u32> = Calendar::with_capacity(backlog);
    let mut lcg: u64 = 0x9E37_79B9;
    let mut delta = move || {
        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        SimDuration::new((lcg >> 11) as f64 / (1u64 << 53) as f64 * 2.0)
    };
    for i in 0..backlog {
        cal.schedule(SimTime::ZERO + delta(), i as u32);
    }
    let mut out = Vec::new();
    let ops_per_batch = 200_000;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut ops = 0;
            while ops < ops_per_batch {
                ops += cal.pop_batch(&mut out);
                for e in out.drain(..) {
                    cal.schedule(e.at + delta(), e.event);
                }
            }
            t.elapsed().as_secs_f64() * 1e9 / ops as f64
        })
        .collect();
    median(&samples)
}

/// ns per hire + boot + release of one 4-core private worker, and µs per
/// idle scan over `vms` idle workers.
fn cloud_probe(vms: usize) -> (f64, f64) {
    let size = InstanceSize::new(4).expect("4 cores is a catalogue size");
    let mut provider = CloudProvider::new(TierCatalog::paper_hybrid(50.0));
    let mut now = SimTime::ZERO;
    let hire_release = ns_per_call(5, 4_000, || {
        let (vm, ready) = provider.hire_on(TierId(0), size, now).expect("private capacity");
        provider.vm_mut(vm).expect("just hired").finish_boot(ready);
        provider.release(vm, ready);
        now = ready;
    });

    let mut provider = CloudProvider::new(TierCatalog::paper_hybrid(50.0));
    for _ in 0..vms {
        let (vm, ready) = provider.hire(size, SimTime::ZERO).expect("public tier is unbounded");
        provider.vm_mut(vm).expect("just hired").finish_boot(ready);
    }
    let later = SimTime::new(100.0);
    let scan_us =
        ns_per_call(5, 200, || provider.idle_candidates(later, SimDuration::new(1.0))) / 1e3;
    (hire_release, scan_us)
}

/// ns per scaling decision, per assign, and per queue-maintenance round
/// trip on a platform frozen at the unit's per-session peaks.
fn sched_probe(busy: usize, queued: usize) -> (f64, f64, f64) {
    let mut harness = PlatformHarness::new(8, busy, queued.max(1));
    let decide = ns_per_call(5, 4_000, || harness.price_decision());
    let assign = ns_per_call(5, 4_000, || harness.assign_cycle());
    let maint = ns_per_call(5, 4_000, || harness.queue_maintenance_cycle());
    (decide, assign, maint)
}

/// One reconciliation table: named rows that sum to the traced wall time.
struct Table {
    title: String,
    wall_ms: f64,
    rows: Vec<(String, f64)>,
}

impl Table {
    fn new(title: impl Into<String>, wall_ms: f64) -> Table {
        Table { title: title.into(), wall_ms, rows: Vec::new() }
    }

    fn row(&mut self, name: impl Into<String>, ms: f64) {
        self.rows.push((name.into(), ms));
    }

    /// Closes the table with the explicit `unattributed` residual row.
    fn close(&mut self) -> f64 {
        let attributed: f64 = self.rows.iter().map(|r| r.1).sum();
        let residual = self.wall_ms - attributed;
        self.row("unattributed", residual);
        residual
    }

    fn share(&self, prefixes: &[&str]) -> f64 {
        let ms: f64 = self
            .rows
            .iter()
            .filter(|(n, _)| prefixes.iter().any(|p| n.starts_with(p)))
            .map(|r| r.1)
            .sum();
        ms / self.wall_ms
    }

    fn print(&self) {
        println!("reconciliation: {}", self.title);
        for (name, ms) in &self.rows {
            println!("  {:<34} {:>12.3} ms {:>7.2}%", name, ms, ms / self.wall_ms * 100.0);
        }
        let sum: f64 = self.rows.iter().map(|r| r.1).sum();
        println!("  {:<34} {:>12.3} ms (traced wall {:.3} ms)", "sum of rows", sum, self.wall_ms);
    }
}

/// Unit repetitions for the traced and untraced passes, scaled so a
/// traced run takes about `seconds`.
fn unit_passes(kind: Kind, seconds: f64) -> usize {
    let per_10s = match kind {
        Kind::Session => 12,
        Kind::Adaptive | Kind::Fleet => 3,
        Kind::Recorded => 5,
    };
    ((per_10s as f64 * seconds / 10.0).round() as usize).max(2)
}

/// Means over the profiled passes.
#[derive(Default)]
struct PassMeans {
    arms: Arms,
    wall_ms: f64,
    new_ms: f64,
    run_ms: f64,
}

/// Σ `Platform::new` and Σ `DataBroker::bootstrap` over the fleet's
/// tenant ordinals, timed one call at a time outside the unit.
fn fleet_build_ms(wl: &Workload) -> (f64, f64) {
    let base = &wl.fleet.base;
    let model = base.true_model();
    let (mut new_ms, mut boot_ms) = (0.0, 0.0);
    for ordinal in 0..u64::from(wl.fleet.tenants) {
        new_ms += timed(|| Platform::new(base.clone(), ordinal)).1;
        let mut rng = RngHub::new(base.seed, ordinal).stream("kb-bootstrap");
        boot_ms += timed(|| DataBroker::bootstrap(&model, base.fixed.profile_noise, &mut rng)).1;
    }
    (new_ms, boot_ms)
}

/// The traced run: checks every unit it runs, prints the reconciliation
/// table(s) and the acceptance shares, and returns the per-layer metrics.
pub fn run(wl: &mut Workload, seconds: f64, tally: &mut Tally) -> Metrics {
    let passes = unit_passes(wl.kind, seconds);

    // Untraced baseline of the same unit; for the recorded workload also
    // the per-call times. All before the profiler is switched on.
    let mut untraced = Vec::new();
    for _ in 0..passes {
        let (out, ms) = timed(|| wl.run_unit(0));
        tally.record("untraced unit", wl.check(0, &out));
        untraced.push(ms);
    }
    let mut calls = [0.0; 4];
    let mut calls_wall = 0.0;
    if wl.kind == Kind::Recorded {
        for _ in 0..passes {
            let (ms, wall) = timed(|| dump_all(&wl.recorded_cfg(0), &wl.artefacts));
            tally.record("traced unit", wl.check(0, &Output::Recorded));
            for (c, m) in calls.iter_mut().zip(ms) {
                *c += m / passes as f64;
            }
            calls_wall += wall / passes as f64;
        }
    }

    let counts = unit_counts(wl);
    let sessions = counts.sessions.max(1);
    let per_session = |v: u64| (v / sessions) as usize;

    // Layer probes, sized from the unit's counts.
    let probe_cfg = wl.recorded_cfg(0);
    let obs = observer_probe(&probe_cfg, 15);
    let exports = export_probe(&obs, 5);
    let base_cfg: &ScanConfig = if wl.kind == Kind::Fleet { &wl.fleet.base } else { &wl.solo };
    // The adaptive policy logs one dispatch in 32 to the knowledge base.
    let live_records = match wl.kind {
        Kind::Adaptive => counts.of(EventKind::SubtaskDispatched) / 32,
        _ => 0,
    };
    let kb = kb_probe(base_cfg, live_records / sessions, 7);
    let kb_records = kb.bootstrap_records * sessions + live_records;
    let calendar_ns = calendar_probe((per_session(counts.peak_in_flight) + 3).max(16));
    let (decide_ns, assign_ns, maint_ns) = sched_probe(
        per_session(counts.peak_in_flight).min(4_096),
        per_session(counts.peak_queue).min(4_096),
    );
    let (hire_release_ns, idle_scan_us) = cloud_probe(per_session(counts.peak_live_vms).max(1));
    let artefact_ms = if wl.kind == Kind::Recorded {
        calls
    } else {
        let runs: Vec<[f64; 4]> = (0..3).map(|_| dump_all(&probe_cfg, &wl.artefacts)).collect();
        std::array::from_fn(|i| median(&runs.iter().map(|r| r[i]).collect::<Vec<_>>()))
    };
    let fleet_build = (wl.kind == Kind::Fleet).then(|| fleet_build_ms(wl));

    // Profiled passes: the profiler times the platform's event arms.
    prof::enable();
    let mut mean = PassMeans::default();
    let mut last_output = None;
    let w = 1.0 / passes as f64;
    for _ in 0..passes {
        let pass = profiled_pass(wl);
        tally.record("profiled pass", wl.check(0, &pass.output));
        last_output = Some(pass.output);
        for i in 0..mean.arms.self_ms.len() {
            mean.arms.self_ms[i] += pass.arms.self_ms[i] * w;
        }
        mean.arms.count = pass.arms.count;
        mean.wall_ms += pass.wall_ms * w;
        mean.new_ms += pass.new_ms * w;
        mean.run_ms += pass.run_ms * w;
    }
    let arms_ms = mean.arms.total_ms();
    let platforms = sessions as f64;
    let (wall, new_total, boot_total, run_ms) = match (wl.kind, fleet_build) {
        (Kind::Fleet, Some((new_ms, boot_ms))) => {
            (mean.wall_ms, new_ms, boot_ms, mean.wall_ms - new_ms)
        }
        (Kind::Recorded, _) => (calls_wall, mean.new_ms, kb.bootstrap_ms * platforms, mean.run_ms),
        _ => (mean.wall_ms, mean.new_ms, kb.bootstrap_ms, mean.run_ms),
    };
    let untraced_ms = median(&untraced);

    let mut tables = Vec::new();
    let check;
    if wl.kind == Kind::Recorded {
        let mut by_call = Table::new("recorded unit, by dump call", wall);
        for (name, ms) in ["artefact.trace", "artefact.store", "artefact.spans", "artefact.metrics"]
            .into_iter()
            .zip(calls)
        {
            by_call.row(name, ms);
        }
        by_call.close();
        tables.push(by_call);

        // Which observers each dump call attaches: trace → JSONL; store
        // → store; spans → store + spans; metrics → the registry. The
        // store dump encodes twice (write, then digest).
        let ev = obs.trace_events as f64 / 1e6;
        let mut by_layer = Table::new("recorded unit, by layer", wall);
        by_layer.row("platform.sessions (4 plain)", obs.plain_ms * platforms);
        by_layer.row("observer.trace.deliver (3 sessions)", 3.0 * obs.deliver_ns * ev);
        by_layer.row("observer.jsonl", obs.jsonl_ns * ev);
        by_layer.row("observer.tracestore.ingest (2 sessions)", 2.0 * obs.ingest_ns * ev);
        by_layer.row("observer.spans.stitch", obs.stitch_ns * ev);
        by_layer.row("observer.metrics", obs.metrics_overhead_pct / 100.0 * obs.plain_ms);
        by_layer.row("export.tracestore (2 encodes)", 2.0 * exports.export_ms);
        by_layer.row("export.spans.perfetto", exports.perfetto_ms);
        by_layer.row("export.spans.report", exports.report_ms);
        by_layer.row("export.metrics", exports.metrics_export_ms);
        by_layer.close();
        let share = 1.0 - by_layer.share(&["platform."]);
        check = (
            format!("observer, export and file rows = {:.1}% of the unit (>= 50%)", share * 100.0),
            share >= 0.5,
        );
        tables.push(by_layer);
    } else {
        let mut t = Table::new(format!("{} unit (repetition 0)", wl.kind.name()), wall);
        t.row("kb.bootstrap", boot_total);
        t.row("platform.new_other", new_total - boot_total);
        for (i, arm) in ARMS.iter().enumerate() {
            t.row(format!("arm.{arm}.self"), mean.arms.self_ms[i]);
        }
        t.row("arm.(other).self", mean.arms.self_ms[ARMS.len()]);
        if wl.kind != Kind::Fleet {
            // The fleet's loop time is what remains after its tenant
            // builds, so its residual row is the loop's own.
            t.row("platform.unattributed", run_ms - arms_ms);
        }
        t.close();
        check = match wl.kind {
            Kind::Fleet => {
                let share = new_total / wall;
                (
                    format!("Σ Platform::new = {:.1}% of the unit (>= 80%)", share * 100.0),
                    share >= 0.8,
                )
            }
            Kind::Adaptive => {
                let share = mean.arms.self_ms[ARMS.len() - 1] / run_ms;
                (
                    format!("arm.replan.self = {:.1}% of platform.run (>= 60%)", share * 100.0),
                    share >= 0.6,
                )
            }
            _ => {
                let share = boot_total / wall;
                (
                    format!("kb.bootstrap = {:.1}% of the unit (<= 15%)", share * 100.0),
                    share <= 0.15,
                )
            }
        };
        tables.push(t);
    }
    for t in &tables {
        t.print();
    }
    let unattributed_ms = tables.last().and_then(|t| t.rows.last()).map_or(0.0, |r| r.1);
    println!(
        "traced-run overhead: traced {wall:.3} ms vs untraced median {untraced_ms:.3} ms, {passes} units each"
    );
    println!("acceptance: {} {}", if check.1 { "PASS" } else { "FAIL" }, check.0);

    let replan_count = mean.arms.count[ARMS.len() - 1];
    let refits = if wl.kind == Kind::Adaptive { replan_count } else { 0 };
    // The fleet's ledger knows its true concurrent peak; summed tenant
    // peaks would overstate it.
    let peak_private = match &last_output {
        Some(Output::Fleet(f)) => u64::from(f.peak_shared_cores),
        _ => counts.peak_private_cores,
    };
    let sched_share = (decide_ns * counts.of(EventKind::ScalingDecision) as f64
        + (assign_ns + maint_ns) * counts.of(EventKind::SubtaskDispatched) as f64)
        / (run_ms * 1e6)
        * 100.0;

    let mut m = Metrics::default();
    m.push("unit.wall_ms", wall, "ms");
    m.push("unit.untraced_ms", untraced_ms, "ms");
    m.push("unit.trace_overhead_pct", (wall / untraced_ms - 1.0) * 100.0, "%");
    m.push("unit.unattributed_ms", unattributed_ms, "ms");
    m.push("kb.bootstrap_ms", boot_total, "ms");
    m.push("kb.profile_gen_ms", kb.profile_gen_ms, "ms");
    m.push("kb.ingest_ms", kb.ingest_ms, "ms");
    m.push("kb.fit_ms", kb.fit_ms, "ms");
    m.push("kb.refit_ms", kb.refit_ms, "ms");
    m.push("kb.ingest_us_per_record", kb.ingest_us_per_record, "us");
    m.push("kb.records", kb_records as f64, "count");
    m.push("kb.refits", refits as f64, "count");
    m.push("platform.new_ms", new_total, "ms");
    m.push("platform.new_other_ms", new_total - boot_total, "ms");
    m.push("platform.run_ms", run_ms, "ms");
    m.push("platform.ns_per_event", run_ms * 1e6 / counts.events_dispatched.max(1) as f64, "ns");
    m.push("platform.unattributed_ms", run_ms - arms_ms, "ms");
    for (i, arm) in ARMS.iter().enumerate() {
        m.push(format!("arm.{arm}.self_ms"), mean.arms.self_ms[i], "ms");
        m.push(format!("arm.{arm}.count"), mean.arms.count[i] as f64, "count");
    }
    m.push("sim.events", counts.events_dispatched as f64, "count");
    m.push("sim.trace_events", counts.trace_events() as f64, "count");
    m.push("sim.calendar_ns_per_op", calendar_ns, "ns");
    for kind in ALL_KINDS.into_iter().filter(|k| *k != EventKind::VmReshaped) {
        m.push(format!("count.{}", kind.tag()), counts.of(kind) as f64, "count");
    }
    m.push("sched.decide_ns", decide_ns, "ns");
    m.push("sched.assign_ns", assign_ns, "ns");
    m.push("sched.queue_maint_ns", maint_ns, "ns");
    m.push("sched.est_share_pct", sched_share, "%");
    m.push("sched.peak_queue", counts.peak_queue as f64, "count");
    m.push("cloud.hire_release_ns", hire_release_ns, "ns");
    m.push("cloud.idle_scan_us", idle_scan_us, "us");
    m.push("cloud.peak_vms", counts.peak_live_vms as f64, "count");
    m.push("cloud.peak_private_cores", peak_private as f64, "count");
    m.push("trace.deliver_ns_per_event", obs.deliver_ns, "ns");
    m.push("tracestore.ingest_ns_per_event", obs.ingest_ns, "ns");
    m.push("spans.stitch_ns_per_event", obs.stitch_ns, "ns");
    m.push("jsonl.ns_per_event", obs.jsonl_ns, "ns");
    m.push("metrics.overhead_pct", obs.metrics_overhead_pct, "%");
    m.push("tracestore.export_ms", exports.export_ms, "ms");
    m.push("tracestore.import_ms", exports.import_ms, "ms");
    m.push("tracestore.query_ms", exports.query_ms, "ms");
    m.push("tracestore.scts_bytes", exports.scts_bytes, "bytes");
    m.push("spans.derive_ms", exports.derive_ms, "ms");
    m.push("spans.perfetto_ms", exports.perfetto_ms, "ms");
    m.push("spans.perfetto_bytes", exports.perfetto_bytes, "bytes");
    m.push("spans.report_ms", exports.report_ms, "ms");
    m.push("metrics.export_ms", exports.metrics_export_ms, "ms");
    for (name, ms) in ["trace", "store", "spans", "metrics"].into_iter().zip(artefact_ms) {
        m.push(format!("artefact.{name}_ms"), ms, "ms");
    }
    m
}
