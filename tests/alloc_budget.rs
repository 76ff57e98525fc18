//! Allocation budgets of the simulation path.
//!
//! A counting global allocator tallies every `alloc`, `alloc_zeroed` and
//! `realloc` (and the bytes each asks for), and keeps the live bytes
//! (less every `dealloc`, and the old size of every `realloc`) and their
//! high-water mark, in const-initialised thread-locals, so tests running
//! in parallel on other threads never pollute one another's counts.
//!
//! * The perfbench `session` cell (fig4 predictive at 2.0 TU,
//!   `BestConstant`, benchmark seed 1) allocates fewer than 500 times
//!   over 2,000 TU (it measures 163 in debug and 161 in release builds),
//!   and an extra admitted job costs fewer than 0.25
//!   allocations: nothing on the per-job path touches the heap.
//! * Building a fleet tenant's `Platform` (knowledge-base bootstrap
//!   included) averages at most 32 allocations and 56 KiB (it measures
//!   18 and 34.7 KiB: one profile trace, one scan-and-fit of its log).
//! * A built tenant keeps at most 8 KiB of heap (it measures 0.7 KiB;
//!   36.2 KiB with the log kept and all 800 histogram bins made up
//!   front): a tenant whose policy
//!   never re-fits drops its profile log after the bootstrap fit, and
//!   the session ledger's latency histogram holds only the bins it has
//!   filled.
//! * The session cell's peak live heap does not grow with its horizon:
//!   at 4,000 TU it is at most 256 KiB above the 1,000 TU peak (it
//!   measures 116.0 against 114.9 KiB; 8,165 against 2,116 KiB when
//!   every hire and admission took a new slot for good), because
//!   VM and job records reuse the slots of released VMs and completed
//!   jobs.

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
    /// Bytes allocated and not yet freed by this thread. Signed: a
    /// thread may free what another allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts one request for `bytes` that replaces `freed` live bytes.
fn count(bytes: usize, freed: usize) {
    // Const-initialised `Cell`s have no destructor, so these never fail;
    // `try_with` keeps the allocator panic-free regardless.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    live_add(bytes as i64 - freed as i64);
}

fn live_add(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// plain thread-local integers and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: forwarded from our caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: forwarded from our caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        // SAFETY: forwarded from our caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(-(layout.size() as i64));
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

/// Bytes `f` left allocated on this thread, the most it had allocated
/// at once above the start, and `f`'s result.
fn live_and_peak<T>(f: impl FnOnce() -> T) -> (i64, i64, T) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (LIVE.with(Cell::get) - start, PEAK.with(Cell::get) - start, out)
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

/// The fleet workload's tenant configuration for `tenants` tenants.
fn fleet_cfg(tenants: u16) -> FleetConfig {
    let mut base =
        ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), experiment_seed(1));
    base.fixed.sim_time_tu = 2_000.0;
    FleetConfig::new(base, tenants)
}

#[test]
fn session_heap_is_flat_in_horizon() {
    let peak = |horizon_tu: f64| {
        let cfg = session_cfg(horizon_tu);
        let (_, peak, metrics) = live_and_peak(|| Platform::new(cfg, 0).run());
        (peak, metrics.jobs_completed)
    };
    let (short_peak, short_jobs) = peak(1_000.0);
    let (long_peak, long_jobs) = peak(4_000.0);
    assert!(long_jobs > 3 * short_jobs, "the longer run completes more jobs");
    assert!(
        long_peak <= short_peak + 256 * 1024,
        "peak live heap {:.0} KiB at 4,000 TU vs {:.0} KiB at 1,000 TU (budget: + 256 KiB)",
        long_peak as f64 / 1024.0,
        short_peak as f64 / 1024.0
    );
}

#[test]
fn fleet_tenant_retains_little() {
    const BUILDS: u64 = 100;
    let fleet = fleet_cfg(BUILDS as u16);
    let mut tenants = Vec::with_capacity(BUILDS as usize);
    let (retained, _, ()) = live_and_peak(|| {
        for t in 0..BUILDS {
            tenants.push(Platform::new(Arc::clone(&fleet.base), t));
        }
    });
    let per_kib = retained as f64 / 1024.0 / BUILDS as f64;
    assert!(per_kib <= 8.0, "a built tenant keeps {per_kib:.2} KiB of heap (budget <= 8 KiB)");
    drop(tenants);
}

#[test]
fn fleet_tenant_build_is_small() {
    const BUILDS: u64 = 100;
    let fleet = fleet_cfg(BUILDS as u16);
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
