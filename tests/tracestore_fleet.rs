//! Cross-crate contract tests for the columnar trace store: sessions and
//! fleets ingest through the platform's observer plumbing, merged fleet
//! stores are independent of how rayon sharded the replications, the
//! JSONL replayed from a store is the live JSONL byte for byte, and a
//! damaged export never panics the decoder.

use proptest::prelude::*;
use scan::platform::config::{ScanConfig, VariableParams};
use scan::platform::fleet::{run_fleet_replicated_with, run_fleet_with, FleetConfig};
use scan::platform::session::run_session_with;
use scan::sched::scaling::ScalingPolicy;
use scan::sim::{JsonlWriter, Merge, Observer};
use scan::tracestore::{fnv1a64, Agg, EventKind, Query, TraceStore};
use std::sync::OnceLock;

fn session_cfg() -> ScanConfig {
    let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.0), 7);
    cfg.fixed.sim_time_tu = 120.0;
    cfg
}

fn fleet_cfg(tenants: u16) -> FleetConfig {
    let mut cfg = FleetConfig::new(session_cfg(), tenants);
    cfg.jobs_per_tenant = 3;
    cfg
}

/// The merged fleet store must be bit-identical whether the replications
/// ran through rayon or a plain sequential loop — the in-process face of
/// the CI gate that diffs `RAYON_NUM_THREADS=1` vs `8` exports.
#[test]
fn merged_fleet_store_is_schedule_invariant() {
    let cfg = fleet_cfg(3);
    let reps = 3;
    let build = |tenant| TraceStore::for_tenant(tenant as u32);

    let (par_metrics, par_store) = run_fleet_replicated_with(&cfg, reps, &build);

    let (seq_metrics, seq_stores): (Vec<_>, Vec<_>) =
        (0..reps).map(|rep| run_fleet_with(&cfg, rep, &build)).unzip();
    let seq_store = seq_stores.into_iter().flatten().reduce(|mut a, b| {
        a.merge(b);
        a
    });
    let seq_store = seq_store.expect("at least one tenant session ran");

    assert_eq!(par_metrics, seq_metrics, "fleet metrics must not depend on threads");
    assert!(par_store.events() > 0, "the fleet must ingest events");
    assert_eq!(
        par_store.to_bytes(),
        seq_store.to_bytes(),
        "merged store exports must be byte-identical regardless of scheduling"
    );
    assert_eq!(par_store.digest(), seq_store.digest());
}

/// Tenant stamping survives the merge: every tenant of every repetition
/// contributes rows under its own tenant id, queryable after the fact.
#[test]
fn merged_fleet_store_stays_per_tenant_queryable() {
    let cfg = fleet_cfg(3);
    let build = |tenant| TraceStore::for_tenant(tenant as u32);
    let (_, store) = run_fleet_replicated_with(&cfg, 2, &build);

    let per_tenant = Query::over(EventKind::JobCompleted)
        .group_by("tenant")
        .count()
        .run(&store)
        .expect("tenant is an implicit column on every kind");
    assert_eq!(per_tenant.len(), 3, "all three tenants must complete jobs");
    for (i, row) in per_tenant.iter().enumerate() {
        assert_eq!(row.group.as_deref(), Some(i.to_string().as_str()));
        assert!(row.value > 0.0);
    }
}

/// The JSONL a store replays is the JSONL sink's live output, byte for
/// byte, and the store's aggregate answers match scalar math over those
/// lines.
#[test]
fn store_agrees_with_the_jsonl_sink() {
    let cfg = session_cfg();
    let (_, live) = run_session_with(&cfg, 0, JsonlWriter::new(Vec::new()));
    let live = live.into_inner();
    let (_, store) = run_session_with(&cfg, 0, TraceStore::new());
    let mut replayed = JsonlWriter::new(Vec::new());
    for (_, at, event) in store.replay() {
        replayed.on_event(at, &event);
    }
    assert!(live == replayed.into_inner(), "the replayed JSONL differs from the live sink's");

    let text = String::from_utf8(live).expect("JSONL is UTF-8");
    assert_eq!(store.events(), text.lines().count() as u64, "one JSONL line per stored event");
    let dispatched = text.matches("\"kind\":\"subtask_dispatched\"").count();
    let rows = Query::over(EventKind::SubtaskDispatched)
        .count()
        .run(&store)
        .expect("count needs no declared columns");
    assert_eq!(rows[0].value, dispatched as f64);

    // The export is dramatically smaller than the JSONL for the same
    // stream (the full ≥5x criterion is asserted on the recorded fig4
    // cell by crates/bench/tests/artefacts.rs; this is the sanity floor).
    let scts_len = store.to_bytes().len();
    assert!(
        scts_len * 3 < text.len(),
        "SCTS export ({scts_len} B) should be well under a third of the JSONL ({} B)",
        text.len()
    );
}

/// A queryable assertion that previously required log scraping: p95 queue
/// wait per tier, straight off a session's store.
#[test]
fn p95_queue_wait_per_tier_is_queryable_in_process() {
    let (_, store) = run_session_with(&session_cfg(), 0, TraceStore::new());
    let rows = Query::over(EventKind::SubtaskDispatched)
        .group_by("tier")
        .aggregate(Agg::P95, "waited_tu")
        .run(&store)
        .expect("tier and waited_tu are declared subtask_dispatched columns");
    assert!(!rows.is_empty(), "the session must dispatch subtasks");
    for row in &rows {
        let tier = row.group.as_deref().expect("grouped rows carry their tier label");
        assert!(
            ["private", "public", "tier2+"].contains(&tier),
            "dispatches attribute to a known hired tier, got {tier:?}"
        );
        assert!(row.value >= 0.0, "waits are non-negative");
    }
}

/// A short real session's export, built once per test binary.
fn session_export() -> &'static [u8] {
    static EXPORT: OnceLock<Vec<u8>> = OnceLock::new();
    EXPORT.get_or_init(|| {
        let mut cfg = session_cfg();
        cfg.fixed.sim_time_tu = 30.0;
        run_session_with(&cfg, 0, TraceStore::new()).1.to_bytes()
    })
}

/// Replaces the digest trailer of a (damaged) payload with its own
/// digest, so the decoder itself is exercised, not just the checksum.
fn sealed(mut payload: Vec<u8>) -> Vec<u8> {
    let digest = fnv1a64(&payload);
    payload.extend_from_slice(&digest.to_le_bytes());
    payload
}

/// What a decoder must do with any input: refuse it, or hand back a
/// consistent store whose replay walks to the end.
fn decodes_safely(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(store) = TraceStore::from_bytes(bytes) {
        prop_assert!(store.check_invariants());
        prop_assert_eq!(store.replay().count() as u64, store.events());
    }
    Ok(())
}

proptest! {
    /// Truncated or bit-flipped exports, each re-sealed with a valid
    /// digest, decode to an error or to a sound store — never a panic.
    #[test]
    fn damaged_exports_are_refused_or_sound(
        cut in 0.0f64..1.0,
        flip_at in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let export = session_export();
        let payload = &export[..export.len() - 8];
        let cut = (cut * payload.len() as f64) as usize;
        decodes_safely(&sealed(payload[..cut].to_vec()))?;
        let mut flipped = payload.to_vec();
        flipped[(flip_at * payload.len() as f64) as usize] ^= mask;
        decodes_safely(&sealed(flipped))?;
    }
}
