//! Synthetic offline-profiling traces for knowledge-base bootstrap.
//!
//! §III-A.1: "we profiled GATK performance under different hardware
//! configurations and with different inputs. The datasets include genome
//! inputs of different sizes, ranging from 1GByte to 9GBytes." This module
//! replays that study against the analytic stage models (plus measurement
//! noise) and emits [`ProfileRecord`]s the knowledge base ingests — so the
//! scheduler's estimators run on *learned* coefficients, closing the loop
//! the paper describes.

use crate::gatk::{PipelineModel, StageFactors};
use scan_kb::ProfileRecord;
use scan_sim::SimRng;
use std::borrow::Cow;

/// The paper's profiling grid: input sizes 1–9 GB.
pub const PROFILE_SIZES_GB: [f64; 5] = [1.0, 3.0, 5.0, 7.0, 9.0];

/// Thread counts profiled (the instance catalogue).
pub const PROFILE_THREADS: [u32; 5] = [1, 2, 4, 8, 16];

/// Records one stage's profile holds per replicate: one per `(size,
/// threads)` cell.
pub const PROFILE_CELLS: usize = PROFILE_SIZES_GB.len() * PROFILE_THREADS.len();

/// Generates a profiling trace for every stage of `model`, stage by
/// stage ([`generate_stage_profile`]). Every record shares
/// `application`, so a static name is never copied per record, and the
/// trace is allocated once at its exact length.
pub fn generate_profile_trace(
    model: &PipelineModel,
    application: impl Into<Cow<'static, str>>,
    replicates: usize,
    noise: f64,
    rng: &mut SimRng,
) -> Vec<ProfileRecord> {
    let application = application.into();
    let mut out = Vec::with_capacity(model.stages.len() * PROFILE_CELLS * replicates);
    for (stage, factors) in (1..).zip(&model.stages) {
        generate_stage_profile(factors, stage, application.clone(), replicates, noise, rng, |r| {
            out.push(r)
        });
    }
    out
}

/// Generates the profile of 1-based pipeline `stage`, whose ground truth
/// is `factors`, handing each record to `emit` in trace order: each
/// (size, threads) cell is measured `replicates` times with
/// multiplicative Gaussian noise of relative σ `noise` around its
/// ground-truth time, which is computed once per cell.
///
/// # Panics
/// Panics on zero replicates or a noise outside `[0, 0.5)`.
pub fn generate_stage_profile(
    factors: &StageFactors,
    stage: u32,
    application: Cow<'static, str>,
    replicates: usize,
    noise: f64,
    rng: &mut SimRng,
    mut emit: impl FnMut(ProfileRecord),
) {
    assert!(replicates >= 1);
    assert!((0.0..0.5).contains(&noise), "relative noise must be in [0, 0.5)");
    for &size_gb in &PROFILE_SIZES_GB {
        for &threads in &PROFILE_THREADS {
            let truth = factors.threaded_time(threads, size_gb);
            for _ in 0..replicates {
                let factor = 1.0 + noise * rng.standard_normal();
                let e_time = (truth * factor.max(0.1)).max(1e-3);
                emit(ProfileRecord {
                    application: application.clone(),
                    stage,
                    input_gb: size_gb,
                    threads,
                    ram_gb: 4.0,
                    e_time,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gatk::PAPER_STAGE_FACTORS;
    use scan_kb::KnowledgeBase;

    #[test]
    fn trace_covers_the_grid() {
        let model = PipelineModel::paper();
        let mut rng = SimRng::from_seed_u64(1);
        let trace = generate_profile_trace(&model, "GATK", 2, 0.0, &mut rng);
        assert_eq!(trace.len(), 7 * 5 * 5 * 2);
        assert!(trace.iter().all(|r| r.application == "GATK"));
        assert!(trace.iter().any(|r| r.stage == 7));
        assert!(trace.iter().any(|r| r.threads == 16));
    }

    #[test]
    fn noiseless_trace_reproduces_table_ii_exactly() {
        let model = PipelineModel::paper();
        let mut rng = SimRng::from_seed_u64(2);
        let trace = generate_profile_trace(&model, "GATK", 1, 0.0, &mut rng);
        let mut kb = KnowledgeBase::new();
        for r in &trace {
            kb.ingest(r);
        }
        for (i, truth) in PAPER_STAGE_FACTORS.iter().enumerate() {
            let m = kb.stage_model("GATK", (i + 1) as u32).expect("model learned");
            assert!((m.a - truth.a).abs() < 1e-6, "stage {} a: {} vs {}", i + 1, m.a, truth.a);
            assert!((m.b - truth.b).abs() < 1e-6, "stage {} b: {} vs {}", i + 1, m.b, truth.b);
            assert!((m.c - truth.c).abs() < 1e-4, "stage {} c: {} vs {}", i + 1, m.c, truth.c);
        }
    }

    /// The broker's bootstrap hands the trace to the knowledge base by
    /// value; every fitted number must be bit-identical to ingesting the
    /// same trace one record at a time.
    #[test]
    fn a_trace_taken_by_value_fits_like_record_by_record_ingest() {
        let model = PipelineModel::paper();
        let trace = generate_profile_trace(&model, "GATK", 3, 0.02, &mut SimRng::from_seed_u64(42));
        assert_eq!(trace.capacity(), trace.len(), "allocated once at its exact length");
        let mut ingested = KnowledgeBase::new();
        for r in &trace {
            ingested.ingest(r);
        }
        let taken = KnowledgeBase::from_log(trace);
        for stage in 1..=model.n_stages() as u32 {
            let bits = |kb: &KnowledgeBase| {
                let m = kb.stage_model("GATK", stage).expect("model learned");
                let fit = [m.a, m.b, m.c, m.r_squared_linear, m.r_squared_amdahl];
                (fit.map(f64::to_bits), m.observations)
            };
            assert_eq!(bits(&taken), bits(&ingested), "stage {stage}");
        }
    }

    #[test]
    fn noisy_trace_recovers_table_ii_approximately() {
        let model = PipelineModel::paper();
        let mut rng = SimRng::from_seed_u64(3);
        let trace = generate_profile_trace(&model, "GATK", 5, 0.03, &mut rng);
        let mut kb = KnowledgeBase::new();
        for r in &trace {
            kb.ingest(r);
        }
        for (i, truth) in PAPER_STAGE_FACTORS.iter().enumerate() {
            let m = kb.stage_model("GATK", (i + 1) as u32).expect("model learned");
            assert!(
                (m.a - truth.a).abs() < 0.15 * truth.a.abs().max(0.2),
                "stage {} a: {} vs {}",
                i + 1,
                m.a,
                truth.a
            );
            assert!((m.c - truth.c).abs() < 0.1, "stage {} c: {} vs {}", i + 1, m.c, truth.c);
        }
    }

    #[test]
    fn etimes_are_positive() {
        let model = PipelineModel::paper();
        let mut rng = SimRng::from_seed_u64(4);
        let trace = generate_profile_trace(&model, "GATK", 3, 0.2, &mut rng);
        assert!(trace.iter().all(|r| r.e_time > 0.0));
    }

    #[test]
    #[should_panic(expected = "relative noise")]
    fn excessive_noise_rejected() {
        let model = PipelineModel::paper();
        let mut rng = SimRng::from_seed_u64(5);
        generate_profile_trace(&model, "GATK", 1, 0.9, &mut rng);
    }
}
