//! `platform::hiring` hot path: one priced scaling decision — building
//! the Eq. 1 pricer from the class queue's job terms (two window
//! lookups + a cached sum), gathering the scalar inputs (projected-wait scan over
//! the busy set), and running `ScalingPolicy::decide_priced`.
//!
//! The decision should now be flat in queue depth (the old full-walk
//! view was O(min(queue, 256))), so the backlog axis sweeps past the
//! window cap; the busy-set scan stays the O(busy) part. The queue
//! maintenance every enqueue/dequeue pair pays is benched separately
//! (under its historical `aggregate/` name, so ledgers stay comparable).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scan_platform::platform::bench_support::PlatformHarness;

fn bench_hiring(c: &mut Criterion) {
    let mut group = c.benchmark_group("hiring");

    // Backlog-depth sweep across the 256-entry window cap: with the
    // queue's cached Eq. 1 terms every point should price in near-constant
    // time (queued=512 within 1.2× of queued=4).
    for &queued in &[4usize, 64, 256, 512, 1024] {
        group.bench_function(format!("decide/queued={queued}"), |b| {
            let mut h = PlatformHarness::new(0, 32, queued);
            b.iter(|| black_box(h.price_decision()))
        });
    }

    // Projected-wait scan dominates: sweep the busy-worker count.
    for &busy in &[8usize, 128] {
        group.bench_function(format!("decide/busy={busy}"), |b| {
            let mut h = PlatformHarness::new(0, busy, 64);
            b.iter(|| black_box(h.price_decision()))
        });
    }

    // What keeping Eq. 1 incremental costs the dispatch path: one
    // pop + re-enqueue round trip on the class queue, Eq. 1 terms included.
    group.bench_function("aggregate/enqueue_dequeue", |b| {
        let mut h = PlatformHarness::new(0, 8, 256);
        b.iter(|| black_box(h.queue_maintenance_cycle()))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_hiring
}
criterion_main!(benches);
