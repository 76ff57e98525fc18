//! Allocation budgets of the simulation path.
//!
//! A counting global allocator tallies every `alloc`, `alloc_zeroed` and
//! `realloc` (and the bytes each asks for) in a const-initialised
//! thread-local, so tests running in parallel on other threads never
//! pollute one another's counts.
//!
//! * The perfbench `session` cell (fig4 predictive at 2.0 TU,
//!   `BestConstant`, benchmark seed 1) allocates fewer than 500 times
//!   over 2,000 TU (it measures 190 in debug and 188 in release builds),
//!   and an extra admitted job costs fewer than 0.25
//!   allocations: nothing on the per-job path touches the heap.
//! * Building a fleet tenant's `Platform` (knowledge-base bootstrap
//!   included) averages at most 32 allocations and 56 KiB (it measures
//!   21 and 41.3 KiB: one profile trace, one scan-and-fit of its log).

use scan::platform::config::{ScanConfig, VariableParams};
use scan::platform::fleet::FleetConfig;
use scan::platform::Platform;
use scan::sched::alloc::AllocationPolicy;
use scan::sched::scaling::ScalingPolicy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Passes every request to [`System`], counting it on the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // Const-initialised `Cell`s have no destructor, so these never fail;
    // `try_with` keeps the allocator panic-free regardless.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// plain thread-local integers and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded from our caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded from our caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded from our caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from our caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` this thread made while running `f`, and `f`'s
/// result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (ALLOCS.with(Cell::get) - a0, BYTES.with(Cell::get) - b0, out)
}

/// perfbench's experiment seed for benchmark seed `seed`.
fn experiment_seed(seed: u64) -> u64 {
    0x5CA4_2015 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// perfbench's `session` cell: fig4 predictive at a 2.0 TU mean
/// interval, best-constant allocation, run for `horizon_tu`.
fn session_cfg(horizon_tu: f64) -> ScanConfig {
    let mut variable = VariableParams::fig4(ScalingPolicy::Predictive, 2.0);
    variable.allocation = AllocationPolicy::BestConstant;
    let mut cfg = ScanConfig::new(variable, experiment_seed(1));
    cfg.fixed.sim_time_tu = horizon_tu;
    cfg
}

#[test]
fn session_unit_allocates_nothing_per_job() {
    let run = |horizon_tu: f64| {
        let cfg = session_cfg(horizon_tu);
        let (allocs, _, metrics) = counted(|| Platform::new(cfg, 0).run());
        (allocs, metrics.jobs_submitted - metrics.jobs_deferred)
    };
    let (short_allocs, short_jobs) = run(1_000.0);
    let (allocs, jobs) = run(2_000.0);
    assert!(jobs > short_jobs + 100, "the longer run admits more jobs: {short_jobs} vs {jobs}");
    assert!(allocs < 500, "2,000 TU session unit made {allocs} allocations (budget < 500)");
    let per_job = allocs.saturating_sub(short_allocs) as f64 / (jobs - short_jobs) as f64;
    assert!(
        per_job < 0.25,
        "{per_job:.3} allocations per extra admitted job ({short_allocs} over {short_jobs} jobs \
         at 1,000 TU, {allocs} over {jobs} at 2,000 TU; budget < 0.25)"
    );
}

#[test]
fn fleet_tenant_build_is_small() {
    const BUILDS: u64 = 100;
    let mut base =
        ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), experiment_seed(1));
    base.fixed.sim_time_tu = 2_000.0;
    let fleet = FleetConfig::new(base, BUILDS as u16);
    let (allocs, bytes, ()) = counted(|| {
        for t in 0..BUILDS {
            drop(Platform::new(Arc::clone(&fleet.base), t));
        }
    });
    let per_allocs = allocs as f64 / BUILDS as f64;
    let per_kib = bytes as f64 / 1024.0 / BUILDS as f64;
    assert!(per_allocs <= 32.0, "{per_allocs:.1} allocations per tenant build (budget <= 32)");
    assert!(per_kib <= 56.0, "{per_kib:.1} KiB allocated per tenant build (budget <= 56 KiB)");
}
