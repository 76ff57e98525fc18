//! The profile log is the knowledge base's record of truth; the ontology
//! is a view of it. These tests pin the two together: stage models fitted
//! from the log equal, bit for bit, the fits over the ontology's
//! `profiles_of` readback, and the view's Turtle does not depend on when
//! it was first built.

use proptest::prelude::*;
use scan_kb::{
    amdahl_fit, linear_fit, to_turtle, AmdahlFit, KnowledgeBase, Ontology, ProfileRecord,
    StageModelEstimate,
};

const APPS: [&str; 3] = ["GATK", "BWA", "NovelTool"];
const SIZES_GB: [f64; 6] = [1.0, 3.0, 5.0, 7.0, 9.0, 2.5];
const THREADS: [u32; 5] = [1, 2, 4, 8, 16];

/// The stage-model fit as it ran over the triple store: every individual
/// of `application`'s class, read back through `profiles_of`, in node
/// order.
fn fit_over_readback(o: &Ontology, application: &str, stage: u32) -> Option<StageModelEstimate> {
    let profiles: Vec<ProfileRecord> =
        o.profiles_of(application).into_iter().filter(|p| p.stage == stage).collect();
    if profiles.is_empty() {
        return None;
    }
    let single: Vec<(f64, f64)> =
        profiles.iter().filter(|p| p.threads == 1).map(|p| (p.input_gb, p.e_time)).collect();
    let lin = linear_fit(&single)?;
    let mut normalised: Vec<(u32, f64)> = Vec::new();
    for p in &profiles {
        let e = lin.predict(p.input_gb);
        if e > 1e-9 {
            normalised.push((p.threads, p.e_time / e));
        }
    }
    let c = amdahl_fit(&normalised).unwrap_or(AmdahlFit {
        c: 0.0,
        single_thread_time: 1.0,
        r_squared: 1.0,
        n: normalised.len(),
    });
    Some(StageModelEstimate {
        a: lin.slope,
        b: lin.intercept,
        c: c.c,
        r_squared_linear: lin.r_squared,
        r_squared_amdahl: c.r_squared,
        observations: profiles.len(),
    })
}

fn bits(m: &StageModelEstimate) -> [u64; 5] {
    [m.a, m.b, m.c, m.r_squared_linear, m.r_squared_amdahl].map(f64::to_bits)
}

/// Raw generated tuples → records. Stages whose bit is set in
/// `single_only` only ever run single-threaded. Sizes and times stay
/// positive: the store folds `-0.0` into `0.0`, the log does not.
fn records(raw: &[(usize, u32, usize, usize, f64)], single_only: u32) -> Vec<ProfileRecord> {
    raw.iter()
        .map(|&(app, stage, size, threads, e_time)| ProfileRecord {
            application: APPS[app].into(),
            stage,
            input_gb: SIZES_GB[size],
            threads: if single_only & (1 << stage) != 0 { 1 } else { THREADS[threads] },
            ram_gb: 4.0,
            e_time,
        })
        .collect()
}

proptest! {
    #[test]
    fn log_fits_match_the_ontology_readback_bit_for_bit(
        raw in proptest::collection::vec(
            (0usize..3, 1u32..8, 0usize..6, 0usize..5, 0.01f64..500.0),
            0..160,
        ),
        single_only in 0u32..256,
    ) {
        let mut kb = KnowledgeBase::new();
        let mut o = Ontology::with_scan_schema();
        for rec in records(&raw, single_only) {
            kb.ingest(&rec);
            o.ingest_profile(&rec);
        }
        for app in APPS {
            prop_assert_eq!(kb.profile_count(app), o.profiles_of(app).len());
            for stage in 0..=8 {
                let got = kb.stage_model(app, stage).map(|m| (bits(&m), m.observations));
                let want = fit_over_readback(&o, app, stage).map(|m| (bits(&m), m.observations));
                prop_assert_eq!(got, want);
            }
        }
    }
}

proptest! {
    /// `stage_models` fits every stage from one scan of an interleaved log;
    /// each fit must equal, bit for bit, the per-stage fit over the
    /// ontology's readback. `empty` is a stage with no records at all, and
    /// `single` (plus any stage in `single_only`) one that only ever ran
    /// single-threaded; stages 8 and 9 are never profiled.
    #[test]
    fn one_scan_fits_match_the_per_stage_readback_bit_for_bit(
        raw in proptest::collection::vec(
            (0usize..3, 1u32..8, 0usize..6, 0usize..5, 0.01f64..500.0),
            0..240,
        ),
        single_only in 0u32..256,
        single in 1u32..8,
        empty in 1u32..8,
    ) {
        let log: Vec<ProfileRecord> = records(&raw, single_only | (1 << single))
            .into_iter()
            .filter(|r| r.stage != empty)
            .collect();
        let mut o = Ontology::with_scan_schema();
        for rec in &log {
            o.ingest_profile(rec);
        }
        let kb = KnowledgeBase::from_log(log);
        for app in APPS {
            let got: Vec<(u32, [u64; 5], usize)> = kb
                .stage_models(app, 9)
                .iter()
                .map(|(&stage, m)| (stage, bits(m), m.observations))
                .collect();
            let want: Vec<(u32, [u64; 5], usize)> = (1..=9)
                .filter_map(|stage| {
                    fit_over_readback(&o, app, stage).map(|m| (stage, bits(&m), m.observations))
                })
                .collect();
            prop_assert!(got.iter().all(|&(stage, ..)| stage != empty));
            prop_assert_eq!(got, want);
        }
    }
}

fn three_app_log() -> Vec<ProfileRecord> {
    let mut out = Vec::new();
    for (i, app) in APPS.iter().enumerate() {
        for stage in 1..=3u32 {
            for (j, &d) in SIZES_GB.iter().enumerate() {
                for &t in &THREADS {
                    let e = (1.0 + i as f64) * d + stage as f64 + 0.01 * j as f64;
                    out.push(ProfileRecord {
                        application: (*app).into(),
                        stage,
                        input_gb: d,
                        threads: t,
                        ram_gb: 2.0 * t as f64,
                        e_time: 0.4 * e / t as f64 + 0.6 * e,
                    });
                }
            }
        }
    }
    out
}

fn turtle_of(kb: &KnowledgeBase) -> String {
    to_turtle(kb.ontology().store(), &[])
}

#[test]
fn ontology_view_is_the_same_whenever_it_is_built() {
    let log = three_app_log();
    let (head, tail) = log.split_at(log.len() / 3);

    let mut after = KnowledgeBase::new();
    for rec in &log {
        after.ingest(rec);
    }

    let mut before = KnowledgeBase::new();
    let _ = before.ontology();
    for rec in &log {
        before.ingest(rec);
    }

    let mut between = KnowledgeBase::new();
    for rec in head {
        between.ingest(rec);
    }
    let _ = between.ontology();
    for rec in tail {
        between.ingest(rec);
    }

    let want = turtle_of(&after);
    assert!(want.contains("GATK1") && want.contains("NovelTool"), "the view holds the log");
    assert_eq!(turtle_of(&before), want);
    assert_eq!(turtle_of(&between), want);
}

#[test]
fn a_cloned_knowledge_base_keeps_its_view_current() {
    let log = three_app_log();
    let mut kb = KnowledgeBase::new();
    let _ = kb.ontology();
    let mut copy = kb.clone();
    for rec in &log {
        kb.ingest(rec);
        copy.ingest(rec);
    }
    assert_eq!(turtle_of(&copy), turtle_of(&kb));
    assert_eq!(copy.ontology().profiles_of("BWA").len(), kb.profile_count("BWA"));
}

#[test]
#[should_panic(expected = "NaN")]
fn ingest_rejects_nan_fields() {
    let mut kb = KnowledgeBase::new();
    kb.ingest(&ProfileRecord { e_time: f64::NAN, ..ProfileRecord::gatk(1, 2.0, 1.0) });
}

#[test]
#[should_panic(expected = "NaN literals are not permitted in the knowledge base")]
fn a_log_taken_by_value_refuses_nan_like_ingest() {
    let mut log = three_app_log();
    log.insert(
        log.len() / 2,
        ProfileRecord { e_time: f64::NAN, ..ProfileRecord::gatk(1, 2.0, 1.0) },
    );
    KnowledgeBase::from_log(log);
}

#[test]
fn a_log_taken_by_value_is_the_log_ingested_record_by_record() {
    let log = three_app_log();
    let mut ingested = KnowledgeBase::new();
    for rec in &log {
        ingested.ingest(rec);
    }
    let taken = KnowledgeBase::from_log(log);
    for app in APPS {
        assert_eq!(taken.profile_count(app), ingested.profile_count(app));
        assert_eq!(taken.stage_models(app, 3), ingested.stage_models(app, 3));
    }
    assert_eq!(turtle_of(&taken), turtle_of(&ingested));
}
