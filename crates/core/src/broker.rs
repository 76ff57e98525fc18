//! The Data Broker (Fig. 2): knowledge base + the shared store's
//! transfer model.
//!
//! At platform start the broker is bootstrapped with an offline profiling
//! trace (the §III-A.1 GATK study). It learns per-stage `(a, b, c)` models
//! by regression over the knowledge base and hands the *learned* pipeline
//! model to the scheduler — so scheduling genuinely runs on knowledge-base
//! output, not the ground-truth table. Storage only reaches the
//! evaluation through the staging delay each subtask pays, so there is no
//! per-job dataset registration: the broker prices staging straight from
//! the shared store's [`TransferModel`].
//!
//! Only the long-term-adaptive policy learns again after the bootstrap
//! (`refresh_model` on every replan, from the live logs `ingest_log`
//! adds), so only its platforms build the profile log
//! ([`DataBroker::bootstrap`]). [`Platform`](crate::Platform) builds
//! every other tenant's broker with [`DataBroker::learned_only`], which
//! draws the same trace one stage at a time into a stack buffer and fits
//! it there: the same learned model, with no log to build and drop.

use scan_cloud::storage::TransferModel;
use scan_kb::{KnowledgeBase, ProfileRecord, StageFitter, StageModelEstimate};
use scan_sim::{SimDuration, SimRng};
use scan_workload::gatk::{PipelineModel, StageFactors};
use scan_workload::profiletrace::{generate_profile_trace, generate_stage_profile, PROFILE_CELLS};
use std::borrow::Cow;

/// Measurements per profiling cell in the bootstrap trace.
const PROFILE_REPLICATES: usize = 3;

/// Records of one stage in the bootstrap trace.
const STAGE_RECORDS: usize = PROFILE_CELLS * PROFILE_REPLICATES;

/// The Data Broker.
#[derive(Debug, Clone)]
pub struct DataBroker {
    /// The knowledge base and the ground truth its fits fall back to;
    /// `None` for a [`DataBroker::learned_only`] broker.
    log: Option<(KnowledgeBase, PipelineModel)>,
    transfer: TransferModel,
    learned: PipelineModel,
}

impl DataBroker {
    /// Bootstraps the broker: generates the offline profiling trace from
    /// the ground-truth `model` (with `noise` relative measurement error),
    /// ingests it into the knowledge base, and learns the stage models the
    /// scheduler will use. The trace becomes the knowledge base's log as
    /// is, without a per-record copy.
    pub fn bootstrap(model: &PipelineModel, noise: f64, rng: &mut SimRng) -> Self {
        let trace = generate_profile_trace(model, "GATK", PROFILE_REPLICATES, noise, rng);
        let kb = KnowledgeBase::from_log(trace);
        let learned = Self::learn_model(&kb, model);
        DataBroker { log: Some((kb, model.clone())), transfer: TransferModel::default(), learned }
    }

    /// A broker with [`DataBroker::bootstrap`]'s learned model, drawn
    /// from `rng` exactly as it draws, but without a knowledge base: it
    /// prices staging as usual and can neither ingest nor re-fit. For
    /// platforms whose policy never re-fits.
    ///
    /// Each stage's profile is drawn into one stack buffer and fitted
    /// there, in the order the knowledge base would fit it.
    pub fn learned_only(model: &PipelineModel, noise: f64, rng: &mut SimRng) -> Self {
        let mut buf: [ProfileRecord; STAGE_RECORDS] =
            std::array::from_fn(|_| ProfileRecord::gatk(0, 0.0, 0.0));
        let mut fitter = StageFitter::with_capacity(STAGE_RECORDS);
        let stages = (1..)
            .zip(&model.stages)
            .map(|(stage, &truth)| {
                let mut n = 0;
                generate_stage_profile(
                    &truth,
                    stage,
                    Cow::Borrowed("GATK"),
                    PROFILE_REPLICATES,
                    noise,
                    rng,
                    |r| {
                        buf[n] = r;
                        n += 1;
                    },
                );
                learned_or(fitter.fit(buf[..n].iter()), truth)
            })
            .collect();
        DataBroker {
            log: None,
            transfer: TransferModel::default(),
            learned: PipelineModel::new(stages, model.gb_per_unit),
        }
    }

    /// Learns a full pipeline model from the knowledge base (every stage
    /// from one scan of its log), falling back to the ground-truth factors
    /// for any stage without enough data.
    fn learn_model(kb: &KnowledgeBase, truth: &PipelineModel) -> PipelineModel {
        let learned = kb.stage_models("GATK", truth.n_stages() as u32);
        let stages = (1..)
            .zip(&truth.stages)
            .map(|(stage, &fallback)| learned_or(learned.get(&stage).copied(), fallback))
            .collect();
        PipelineModel::new(stages, truth.gb_per_unit)
    }

    /// The knowledge-base-learned pipeline model.
    pub fn learned_model(&self) -> &PipelineModel {
        &self.learned
    }

    /// Read access to the knowledge base, if the broker keeps one.
    pub fn knowledge_base(&self) -> Option<&KnowledgeBase> {
        self.log.as_ref().map(|(kb, _)| kb)
    }

    /// Ingests a live task log ("the SCAN keeps the log information of
    /// each task scheduled to run in a cloud").
    ///
    /// # Panics
    /// Panics on a broker without a knowledge base.
    pub fn ingest_log(&mut self, record: &ProfileRecord) {
        let (kb, _) = self.log.as_mut().expect("ingest_log on a broker without a profile log");
        kb.ingest(record);
    }

    /// Re-learns the pipeline model from everything ingested so far
    /// (long-term-adaptive refresh).
    ///
    /// # Panics
    /// Panics on a broker without a knowledge base.
    pub fn refresh_model(&mut self) {
        let (kb, truth) =
            self.log.as_ref().expect("refresh_model on a broker without a profile log");
        self.learned = Self::learn_model(kb, truth);
    }

    /// Staging delay one subtask pays to pull `d_gb` from the shared
    /// store before computing.
    pub fn staging_time(&self, d_gb: f64) -> SimDuration {
        self.transfer.transfer_time(d_gb)
    }
}

/// A stage's learned factors, or the ground truth's without a fit.
fn learned_or(fit: Option<StageModelEstimate>, fallback: StageFactors) -> StageFactors {
    fit.map_or(fallback, |m| StageFactors { a: m.a, b: m.b, c: m.c })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_workload::gatk::PAPER_STAGE_FACTORS;

    fn broker(noise: f64) -> DataBroker {
        let model = PipelineModel::paper();
        let mut rng = SimRng::from_seed_u64(42);
        DataBroker::bootstrap(&model, noise, &mut rng)
    }

    #[test]
    fn bootstrap_learns_close_to_truth() {
        let b = broker(0.02);
        for (i, truth) in PAPER_STAGE_FACTORS.iter().enumerate() {
            let learned = b.learned_model().stages[i];
            assert!(
                (learned.a - truth.a).abs() < 0.1 * truth.a.abs().max(0.3),
                "stage {} a: {} vs {}",
                i + 1,
                learned.a,
                truth.a
            );
            assert!((learned.c - truth.c).abs() < 0.08, "stage {} c", i + 1);
        }
    }

    /// The learned model's exact bits at a fixed seed: how the knowledge
    /// base stores and fits profiles may change, the model may not.
    #[test]
    fn bootstrap_learned_bits_are_pinned() {
        const PINNED: [[u64; 3]; 7] = [
            [0x3fd5a35de079f900, 0x4015fd5f671e6303, 0x3fec86d53043d2a6],
            [0x4005b9df38aedec4, 0xbfe4a11ff69676f0, 0x3f970fa2b81cb1be],
            [0x3ffbeeb9156e8f66, 0x400f353ab8143154, 0x3fe61dba68deb03d],
            [0x400b01b8fb6d8295, 0x3fdd792b28c17e80, 0x3fe9572991225ca2],
            [0x3fef5ea26823258a, 0x4031cfafe5de3408, 0x3fed0602b72632dc],
            [0x3f9537714d910309, 0x3fd8b61f1dcaa070, 0x3fcfe8780011c2f0],
            [0x3f5b771d73562555, 0x40149fad9cf434f9, 0x3f958c30122f8383],
        ];
        let b = broker(0.02);
        let got: Vec<[u64; 3]> =
            b.learned_model().stages.iter().map(|s| [s.a, s.b, s.c].map(f64::to_bits)).collect();
        assert_eq!(got, PINNED);
        assert_eq!(b.knowledge_base().map(|kb| kb.profile_count("GATK")), Some(525));
    }

    #[test]
    fn the_learned_only_broker_equals_bootstrap_in_model_and_staging() {
        let kept = broker(0.02);
        let bare =
            DataBroker::learned_only(&PipelineModel::paper(), 0.02, &mut SimRng::from_seed_u64(42));
        assert!(bare.knowledge_base().is_none());
        assert_eq!(bare.learned_model(), kept.learned_model());
        assert_eq!(bare.staging_time(2.0), kept.staging_time(2.0));
    }

    #[test]
    #[should_panic(expected = "without a profile log")]
    fn the_learned_only_broker_refuses_to_refit() {
        let mut b =
            DataBroker::learned_only(&PipelineModel::paper(), 0.0, &mut SimRng::from_seed_u64(42));
        b.refresh_model();
    }

    /// Both constructors draw the same trace and fit it in the same
    /// order: bit-identical learned models, and the RNG left where the
    /// other leaves it, over seeds and noise levels.
    #[test]
    fn learned_only_matches_bootstrap_bit_for_bit() {
        let model = PipelineModel::paper();
        let bits = |b: &DataBroker| -> Vec<[u64; 3]> {
            b.learned_model().stages.iter().map(|s| [s.a, s.b, s.c].map(f64::to_bits)).collect()
        };
        for seed in [1, 7, 42, 2015, u64::MAX] {
            for noise in [0.0, 0.02, 0.3] {
                let (mut a, mut b) = (SimRng::from_seed_u64(seed), SimRng::from_seed_u64(seed));
                let full = DataBroker::bootstrap(&model, noise, &mut a);
                let bare = DataBroker::learned_only(&model, noise, &mut b);
                assert_eq!(bits(&bare), bits(&full), "seed {seed}, noise {noise}");
                assert_eq!(bare.learned_model(), full.learned_model());
                // A pending Box–Muller spare is state too: the first
                // normal draw reads it.
                let draws = |r: &mut SimRng| (r.standard_normal().to_bits(), r.next_u64());
                assert_eq!(draws(&mut a), draws(&mut b), "seed {seed}, noise {noise}: RNG state");
            }
        }
    }

    #[test]
    fn noiseless_bootstrap_is_exact() {
        let b = broker(0.0);
        for (i, truth) in PAPER_STAGE_FACTORS.iter().enumerate() {
            let learned = b.learned_model().stages[i];
            assert!((learned.a - truth.a).abs() < 1e-6);
            assert!((learned.b - truth.b).abs() < 1e-6);
            assert!((learned.c - truth.c).abs() < 1e-4);
        }
    }

    #[test]
    fn staging_time_is_the_transfer_model() {
        let b = broker(0.0);
        let model = TransferModel::default();
        for d_gb in [0.0, 0.4, 2.0, 9.5] {
            assert_eq!(b.staging_time(d_gb), model.transfer_time(d_gb), "{d_gb} GB");
        }
    }

    #[test]
    fn live_logs_refresh_the_model() {
        let mut b = broker(0.0);
        // Fabricate a world where stage 1 suddenly runs 2× slower and logs
        // say so; after refresh the learned model must track it.
        for d in [1.0, 3.0, 5.0, 7.0, 9.0] {
            for t in [1u32, 2, 4] {
                let f = StageFactors { a: 0.70, b: 10.76, c: 0.89 };
                for _ in 0..8 {
                    b.ingest_log(&ProfileRecord {
                        application: "GATK".into(),
                        stage: 1,
                        input_gb: d,
                        threads: t,
                        ram_gb: 4.0,
                        e_time: f.threaded_time(t, d),
                    });
                }
            }
        }
        b.refresh_model();
        let a = b.learned_model().stages[0].a;
        assert!(a > 0.45, "refreshed a should move toward 0.70, got {a}");
    }

    #[test]
    fn staging_time_scales_with_size() {
        let b = broker(0.0);
        assert!(b.staging_time(4.0) > b.staging_time(1.0));
        assert!(b.staging_time(0.0).as_tu() > 0.0, "latency floor");
    }
}
