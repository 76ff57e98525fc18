//! Table II as a bench target: times the knowledge-base bootstrap that
//! re-derives the per-stage scalability factors (profiling-trace
//! generation → profile-log ingestion → regression), and asserts the
//! recovery is numerically faithful on every iteration.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scan_platform::broker::DataBroker;
use scan_sim::SimRng;
use scan_workload::gatk::{PipelineModel, PAPER_STAGE_FACTORS};

fn bench_table2_bootstrap(c: &mut Criterion) {
    let model = PipelineModel::paper();
    c.bench_function("table2/kb_bootstrap_and_regression", |b| {
        b.iter(|| {
            let mut rng = SimRng::from_seed_u64(77);
            let broker = DataBroker::bootstrap(&model, 0.0, &mut rng);
            // The point of Table II: the learned factors equal the
            // published ones.
            for (i, truth) in PAPER_STAGE_FACTORS.iter().enumerate() {
                let fit = broker.learned_model().stages[i];
                assert!((fit.a - truth.a).abs() < 1e-6);
                assert!((fit.c - truth.c).abs() < 1e-4);
            }
            black_box(broker.knowledge_base().map(|kb| kb.profile_count("GATK")))
        })
    });
}

fn bench_stage_model_queries(c: &mut Criterion) {
    let model = PipelineModel::paper();
    let mut rng = SimRng::from_seed_u64(78);
    let broker = DataBroker::bootstrap(&model, 0.02, &mut rng);
    let kb = broker.knowledge_base().expect("a bootstrapped broker keeps its log");
    c.bench_function("table2/stage_models_refresh", |b| {
        b.iter(|| black_box(kb.stage_models("GATK", 7).len()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_table2_bootstrap, bench_stage_model_queries
}
criterion_main!(benches);
