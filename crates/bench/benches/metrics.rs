//! Metrics-layer overhead: the cost of one registry update (counter,
//! histogram, series sample) for scale, and a whole session run with the
//! metrics observer attached vs plain. The session pair is the ledger
//! entry for what the observer adds to a run that asks for metrics; a
//! run that does not attach it does no metrics work at all.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scan_metrics::{Registry, SeriesKind};
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::instrument::run_session_instrumented;
use scan_platform::session::run_session;
use scan_sched::scaling::ScalingPolicy;

fn bench_registry(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");

    group.bench_function("counter_add", |b| {
        let mut r = Registry::new(5.0);
        let id = r.counter("bench_total", "", "", "1", "bench");
        b.iter(|| r.counter_add(black_box(id), 1))
    });

    group.bench_function("histogram_record", |b| {
        let mut r = Registry::new(5.0);
        let id = r.histogram("bench_tu", "", "", "tu", "bench");
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            r.record(black_box(id), (i % 1024) as f64 + 0.5);
        })
    });

    group.bench_function("series_sample", |b| {
        let mut r = Registry::new(5.0);
        let id = r.series(SeriesKind::TimeWeightedMean, "bench_util", "", "", "ratio", "bench");
        let mut t = 0.0f64;
        b.iter(|| {
            t += 0.25;
            r.sample(black_box(id), t, 0.5);
        })
    });

    group.finish();
}

fn short_config() -> ScanConfig {
    let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), 99);
    cfg.fixed.sim_time_tu = 150.0;
    cfg
}

fn bench_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_session");
    group.sample_size(10);

    group.bench_function("plain", |b| {
        let cfg = short_config();
        b.iter(|| black_box(run_session(&cfg, 0)))
    });

    group.bench_function("instrumented", |b| {
        let cfg = short_config();
        b.iter(|| black_box(run_session_instrumented(&cfg, 0, 5.0, false)))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_registry, bench_session
}
criterion_main!(benches);
