//! The knowledge-base facade consumed by the Data Broker and Scheduler.
//!
//! The record of truth is the ingested profile log: a `Vec` of
//! [`ProfileRecord`]s in ingest order. Stage models are fitted straight
//! from it. The [`Ontology`] is a view of that log, built on first use
//! (by replaying the log into the SCAN schema) for SPARQL, Turtle and the
//! examples, and kept current by later ingests — so the simulation path
//! never touches the triple store.
//!
//! Two decisions come out of the knowledge base (§III-A.1(ii)):
//!
//! 1. **Chunk size** — "the Data Broker will query the SCAN knowledge-base
//!    to decide the suitable chunk size of input files of tasks". We rank
//!    ingested application instances by execution time per GB with a real
//!    SPARQL query (the engine in [`crate::sparql`]) over the ontology view
//!    and recommend the input size of the most efficient observation,
//!    clamped to a sane range. With no observations, the paper's default
//!    of 2 GB is used ("In our case, the inputs will be 2GB for each task").
//! 2. **Stage models** — the scheduler's ETT estimator needs per-stage
//!    `a, b, c` coefficients. These are *learned* from the ingested
//!    profiles by least squares ([`crate::regression`]), not read from the
//!    paper's table, so the platform genuinely runs on knowledge-base
//!    output.

use crate::ontology::{iri, Ontology};
use crate::profile::ProfileRecord;
use crate::regression::{linear_fit, AmdahlFit};
use crate::sparql::parse_query;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Sharding advice for one application's input data.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkAdvice {
    /// Recommended chunk size in GB.
    pub chunk_gb: f64,
    /// Number of shards for the given total input size.
    pub shards: u32,
    /// Suggested CPU cores per task, from the best-ranked instance.
    pub cpu: u32,
    /// Suggested RAM (GB) per task.
    pub ram_gb: f64,
    /// True when the advice came from ingested profiles rather than the
    /// built-in default.
    pub informed: bool,
}

/// A learned per-stage performance model: `E(d) = a·d + b`, threaded via
/// Amdahl fraction `c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageModelEstimate {
    /// Linear coefficient (time per GB).
    pub a: f64,
    /// Constant term.
    pub b: f64,
    /// Amdahl parallelisable fraction.
    pub c: f64,
    /// R² of the (d, time) fit.
    pub r_squared_linear: f64,
    /// R² of the threading fit.
    pub r_squared_amdahl: f64,
    /// Observations used.
    pub observations: usize,
}

impl StageModelEstimate {
    /// Single-threaded execution time at input size `d` GB.
    pub fn exec_time(&self, d_gb: f64) -> f64 {
        (self.a * d_gb + self.b).max(0.0)
    }

    /// Threaded execution time with `t` threads at input size `d` GB
    /// (the paper's `T_i(t, d) = c·E_i(d)/t + (1−c)·E_i(d)`).
    pub fn threaded_time(&self, threads: u32, d_gb: f64) -> f64 {
        assert!(threads >= 1);
        let e = self.exec_time(d_gb);
        self.c * e / threads as f64 + (1.0 - self.c) * e
    }
}

/// The paper's default chunk size, GB.
pub const DEFAULT_CHUNK_GB: f64 = 2.0;

/// Bounds on recommended chunk sizes (§II-A.3: GATK operates best around
/// 2 GB; whole-genome inputs of 100 GB+ must be sharded).
const MIN_CHUNK_GB: f64 = 0.25;
const MAX_CHUNK_GB: f64 = 16.0;

/// The SCAN knowledge base: the profile log, its lazily built
/// [`Ontology`] view, and the decision layer over both.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    log: Vec<ProfileRecord>,
    ontology: OnceLock<Ontology>,
}

impl KnowledgeBase {
    /// A knowledge base with no profiling instances; its ontology view
    /// starts as the SCAN schema (domain + cloud ontologies and linker).
    pub fn new() -> Self {
        Self::default()
    }

    /// The ontology view of the log, built on first use by replaying
    /// every ingested record into the SCAN schema.
    pub fn ontology(&self) -> &Ontology {
        self.ontology.get_or_init(|| {
            let mut o = Ontology::with_scan_schema();
            for rec in &self.log {
                o.ingest_profile(rec);
            }
            o
        })
    }

    /// A knowledge base whose log is `log`, taken as is: the same state
    /// as ingesting each record in order into [`KnowledgeBase::new`],
    /// without copying a record.
    ///
    /// # Panics
    /// Panics, as [`KnowledgeBase::ingest`] does, if a float field of any
    /// record is NaN.
    pub fn from_log(log: Vec<ProfileRecord>) -> Self {
        log.iter().for_each(refuse_nan);
        KnowledgeBase { log, ontology: OnceLock::new() }
    }

    /// Ingests a task log record ("the SCAN keeps the log information of
    /// each task scheduled to run in a cloud").
    ///
    /// # Panics
    /// Panics if a float field is NaN, which the ontology view could not
    /// hold as a literal.
    pub fn ingest(&mut self, record: &ProfileRecord) {
        refuse_nan(record);
        if let Some(o) = self.ontology.get_mut() {
            o.ingest_profile(record);
        }
        self.log.push(record.clone());
    }

    /// Ingested records of exactly `application` (no subclass reasoning).
    fn profiles<'a>(&'a self, application: &'a str) -> impl Iterator<Item = &'a ProfileRecord> {
        self.log.iter().filter(move |p| p.application == application)
    }

    /// Number of ingested profiles whose application is exactly
    /// `application`.
    pub fn profile_count(&self, application: &str) -> usize {
        self.profiles(application).count()
    }

    /// Chunk-size advice for splitting `total_gb` of input for
    /// `application`, via a SPARQL ranking query over the ingested
    /// instances.
    pub fn advise_chunk(&self, application: &str, total_gb: f64) -> ChunkAdvice {
        assert!(total_gb > 0.0, "advise_chunk requires a positive input size");

        // The Data Broker's query, ranked by time-per-GB ascending — the
        // paper's "selected GATK instances are ranked according to the
        // values of their execution time and the size of input files".
        let query_text = format!(
            "PREFIX scan: <{ns}>
             SELECT ?app ?size ?t ?cpu ?ram WHERE {{
                 ?app a scan:Application .
                 ?app scan:inputFileSize ?size .
                 ?app scan:eTime ?t .
                 ?app scan:CPU ?cpu .
                 OPTIONAL {{ ?app scan:RAM ?ram . }}
                 FILTER (?size > 0 && ?t > 0)
             }} ORDER BY ASC(?t / ?size) LIMIT 25",
            ns = iri::SCAN_NS
        );
        let query = parse_query(&query_text).expect("advise_chunk query is well-formed");
        let results = query.execute(self.ontology().store()).expect("query evaluates");

        // Keep only instances of the requested application class (the
        // SPARQL subset has no subclass inference in the pattern itself).
        let app_iri_stem = format!("{}{}", iri::SCAN_NS, application);
        let best = results.rows().iter().find(|row| {
            row.get("app")
                .and_then(|t| t.as_iri())
                .is_some_and(|iri| iri.starts_with(&app_iri_stem))
        });

        match best {
            Some(row) => {
                let chunk = row.get("size").and_then(|t| t.as_f64()).unwrap_or(DEFAULT_CHUNK_GB);
                let chunk = chunk.clamp(MIN_CHUNK_GB, MAX_CHUNK_GB);
                let cpu = row.get("cpu").and_then(|t| t.as_f64()).unwrap_or(1.0) as u32;
                let ram_gb = row.get("ram").and_then(|t| t.as_f64()).unwrap_or(4.0);
                ChunkAdvice {
                    chunk_gb: chunk,
                    shards: shards_for(total_gb, chunk),
                    cpu: cpu.max(1),
                    ram_gb,
                    informed: true,
                }
            }
            None => ChunkAdvice {
                chunk_gb: DEFAULT_CHUNK_GB,
                shards: shards_for(total_gb, DEFAULT_CHUNK_GB),
                cpu: 1,
                ram_gb: 4.0,
                informed: false,
            },
        }
    }

    /// Learns the `E(d) = a·d + b`, Amdahl-`c` model of one pipeline stage
    /// of `application` (matched exactly) from ingested profiles, in
    /// ingest order. Returns `None` until enough observations exist (≥ 2
    /// distinct single-thread sizes). The one-stage case of
    /// [`KnowledgeBase::stage_models`].
    pub fn stage_model(&self, application: &str, stage: u32) -> Option<StageModelEstimate> {
        let mut model = None;
        self.fit_stages(application, stage, stage, |_, m| model = Some(m));
        model
    }

    /// Learns models for stages `1..=n_stages`, keyed by stage index, from
    /// one scan of the log; a stage without enough observations has no
    /// entry.
    // scan-lint: allow(hot-inline) -- runs once per replan, and the per-stage fits outweigh the call
    pub fn stage_models(
        &self,
        application: &str,
        n_stages: u32,
    ) -> BTreeMap<u32, StageModelEstimate> {
        let mut models = BTreeMap::new();
        self.fit_stages(application, 1, n_stages, |stage, m| {
            models.insert(stage, m);
        });
        models
    }

    /// Fits every stage in `first..=last` of `application`, handing each
    /// learned model to `emit` in stage order.
    ///
    /// One scan of the log threads each stage's records into a chain in
    /// ingest order (`next[i]` is the log index of the record after record
    /// `i` in its stage), so a stage's fit walks only its own records.
    /// One [`StageFitter`], sized once to the largest stage, fits them all.
    fn fit_stages(
        &self,
        application: &str,
        first: u32,
        last: u32,
        mut emit: impl FnMut(u32, StageModelEstimate),
    ) {
        const END: u32 = u32::MAX;
        if first > last {
            return;
        }
        // Per stage: (first record, last record, record count).
        let mut chains = vec![(END, END, 0usize); (last - first) as usize + 1];
        let mut next = vec![END; self.log.len()];
        for (i, p) in self.log.iter().enumerate() {
            let Some(chain) = chains.get_mut(p.stage.wrapping_sub(first) as usize) else {
                continue;
            };
            if p.application.as_bytes() != application.as_bytes() {
                continue;
            }
            match chain.1 {
                END => chain.0 = i as u32,
                tail => next[tail as usize] = i as u32,
            }
            chain.1 = i as u32;
            chain.2 += 1;
        }

        let largest = chains.iter().map(|c| c.2).max().unwrap_or(0);
        let mut fitter = StageFitter::with_capacity(largest);
        for (stage, &(head, _, count)) in (first..=last).zip(&chains) {
            if count == 0 {
                continue;
            }
            let records = std::iter::successors(Some(head), |&i| {
                Some(next[i as usize]).filter(|&n| n != END)
            })
            .map(|i| &self.log[i as usize]);
            if let Some(model) = fitter.fit(records) {
                emit(stage, model);
            }
        }
    }
}

/// Fits one pipeline stage's model from that stage's records, in ingest
/// order. The fit inputs live in two scratch buffers the fitter keeps,
/// so fitting stage after stage allocates nothing once they are sized.
#[derive(Debug)]
pub struct StageFitter {
    single: Vec<(f64, f64)>,
    inverse: Vec<(f64, f64)>,
}

impl StageFitter {
    /// A fitter whose buffers already hold stages of up to `records`
    /// records.
    pub fn with_capacity(records: usize) -> Self {
        StageFitter { single: Vec::with_capacity(records), inverse: Vec::with_capacity(records) }
    }

    /// Learns the `E(d) = a·d + b`, Amdahl-`c` model of one stage from
    /// its records in ingest order: `None` without ≥ 2 distinct
    /// single-thread sizes. The records are walked twice, so they come as
    /// a cloneable iterator.
    pub fn fit<'a>(
        &mut self,
        records: impl Iterator<Item = &'a ProfileRecord> + Clone,
    ) -> Option<StageModelEstimate> {
        // (a, b) from single-threaded observations.
        self.single.clear();
        self.single
            .extend(records.clone().filter(|p| p.threads == 1).map(|p| (p.input_gb, p.e_time)));
        let lin = linear_fit(&self.single)?;

        // c from multi-threaded observations, normalised by predicted
        // E(d): T/E(d) = c/t + (1−c), linear in 1/t (`amdahl_fit` over
        // `(t, T/E(d))`, with `1/t` taken once per record).
        self.inverse.clear();
        let mut observations = 0;
        for p in records {
            observations += 1;
            let e = lin.predict(p.input_gb);
            if e > 1e-9 && p.threads >= 1 {
                self.inverse.push((1.0 / p.threads as f64, p.e_time / e));
            }
        }
        // All observations single-threaded → assume serial (c = 0).
        let c = linear_fit(&self.inverse).and_then(|fit| AmdahlFit::from_line(&fit)).unwrap_or(
            AmdahlFit { c: 0.0, single_thread_time: 1.0, r_squared: 1.0, n: self.inverse.len() },
        );
        Some(StageModelEstimate {
            a: lin.slope,
            b: lin.intercept,
            c: c.c,
            r_squared_linear: lin.r_squared,
            r_squared_amdahl: c.r_squared,
            observations,
        })
    }
}

/// The knowledge base's one admission check: the ontology view cannot
/// hold a NaN literal.
fn refuse_nan(record: &ProfileRecord) {
    assert!(
        ![record.input_gb, record.ram_gb, record.e_time].iter().any(|f| f.is_nan()),
        "NaN literals are not permitted in the knowledge base"
    );
}

/// Number of shards needed to cover `total_gb` at `chunk_gb` per shard.
pub fn shards_for(total_gb: f64, chunk_gb: f64) -> u32 {
    assert!(chunk_gb > 0.0);
    (total_gb / chunk_gb).ceil().max(1.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb_with_paper_instances() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        // §III-A.1's GATK1..GATK4, all at 8 threads, stage 1.
        for (size, etime) in [(10.0, 180.0), (5.0, 200.0), (20.0, 280.0), (4.0, 80.0)] {
            kb.ingest(&ProfileRecord {
                application: "GATK".into(),
                stage: 1,
                input_gb: size,
                threads: 8,
                ram_gb: 4.0,
                e_time: etime,
            });
        }
        kb
    }

    #[test]
    fn uninformed_advice_uses_paper_default() {
        let kb = KnowledgeBase::new();
        let advice = kb.advise_chunk("GATK", 100.0);
        assert!(!advice.informed);
        assert_eq!(advice.chunk_gb, 2.0);
        assert_eq!(advice.shards, 50);
    }

    #[test]
    fn informed_advice_picks_best_time_per_gb() {
        let kb = kb_with_paper_instances();
        let advice = kb.advise_chunk("GATK", 100.0);
        assert!(advice.informed);
        // Best t/size ratio among the four is GATK3 (280/20 = 14), but 20 GB
        // exceeds MAX_CHUNK_GB and is clamped to 16.
        assert_eq!(advice.chunk_gb, 16.0);
        assert_eq!(advice.cpu, 8);
        assert_eq!(advice.shards, shards_for(100.0, 16.0));
    }

    #[test]
    fn advice_is_per_application() {
        let mut kb = kb_with_paper_instances();
        kb.ingest(&ProfileRecord {
            application: "BWA".into(),
            stage: 1,
            input_gb: 1.0,
            threads: 4,
            ram_gb: 8.0,
            e_time: 5.0, // much better per-GB than any GATK row
        });
        let advice = kb.advise_chunk("BWA", 10.0);
        assert_eq!(advice.chunk_gb, 1.0);
        assert_eq!(advice.shards, 10);
        // GATK advice unchanged by the BWA row.
        let gatk = kb.advise_chunk("GATK", 100.0);
        assert_eq!(gatk.chunk_gb, 16.0);
    }

    #[test]
    fn paper_sharding_example() {
        // "divide a 100GB FASTQ file into 25 4GB files"
        let mut kb = KnowledgeBase::new();
        kb.ingest(&ProfileRecord {
            application: "BWA".into(),
            stage: 1,
            input_gb: 4.0,
            threads: 1,
            ram_gb: 8.0,
            e_time: 10.0,
        });
        let advice = kb.advise_chunk("BWA", 100.0);
        assert_eq!(advice.chunk_gb, 4.0);
        assert_eq!(advice.shards, 25);
    }

    #[test]
    fn stage_model_learned_from_profiles() {
        let mut kb = KnowledgeBase::new();
        // Ground truth: stage 3 of Table II (a=1.74, b=3.93, c=0.69).
        let (a, b, c) = (1.74, 3.93, 0.69);
        for d in [1.0, 2.0, 4.0, 6.0, 9.0] {
            let e = a * d + b;
            for t in [1u32, 2, 4, 8] {
                kb.ingest(&ProfileRecord {
                    application: "GATK".into(),
                    stage: 3,
                    input_gb: d,
                    threads: t,
                    ram_gb: 4.0,
                    e_time: c * e / t as f64 + (1.0 - c) * e,
                });
            }
        }
        let m = kb.stage_model("GATK", 3).expect("model learned");
        assert!((m.a - a).abs() < 1e-9, "a = {}", m.a);
        assert!((m.b - b).abs() < 1e-9, "b = {}", m.b);
        assert!((m.c - c).abs() < 1e-9, "c = {}", m.c);
        assert!(m.r_squared_linear > 0.999);
        // And the estimator matches the analytic model.
        assert!(
            (m.threaded_time(4, 5.0) - (c * (a * 5.0 + b) / 4.0 + (1.0 - c) * (a * 5.0 + b))).abs()
                < 1e-9
        );
    }

    #[test]
    fn stage_model_needs_single_thread_points() {
        let mut kb = KnowledgeBase::new();
        kb.ingest(&ProfileRecord {
            application: "GATK".into(),
            stage: 1,
            input_gb: 2.0,
            threads: 8,
            ram_gb: 4.0,
            e_time: 3.0,
        });
        assert!(kb.stage_model("GATK", 1).is_none());
    }

    #[test]
    fn stage_model_single_threaded_only_assumes_serial() {
        let mut kb = KnowledgeBase::new();
        for d in [1.0, 2.0, 3.0] {
            kb.ingest(&ProfileRecord {
                application: "GATK".into(),
                stage: 2,
                input_gb: d,
                threads: 1,
                ram_gb: 4.0,
                e_time: 2.7 * d - 0.53,
            });
        }
        let m = kb.stage_model("GATK", 2).unwrap();
        assert!((m.a - 2.7).abs() < 1e-9);
        assert_eq!(m.c, 0.0);
        // threaded_time degenerates to exec_time.
        assert_eq!(m.threaded_time(8, 2.0), m.exec_time(2.0));
    }

    #[test]
    fn stage_models_collects_only_learned() {
        let kb = kb_with_paper_instances(); // 8-thread rows only → no model
        assert!(kb.stage_models("GATK", 7).is_empty());
    }

    #[test]
    fn exec_time_clamps_negative_extrapolation() {
        // Stage 2 has b = −0.53; at tiny d the raw line is negative.
        let m = StageModelEstimate {
            a: 2.7,
            b: -0.53,
            c: 0.02,
            r_squared_linear: 1.0,
            r_squared_amdahl: 1.0,
            observations: 4,
        };
        assert_eq!(m.exec_time(0.1), 0.0);
        assert!(m.exec_time(1.0) > 0.0);
    }

    #[test]
    fn shards_for_rounds_up() {
        assert_eq!(shards_for(100.0, 4.0), 25);
        assert_eq!(shards_for(101.0, 4.0), 26);
        assert_eq!(shards_for(0.5, 2.0), 1);
    }

    #[test]
    #[should_panic(expected = "positive input size")]
    fn advise_chunk_rejects_zero_input() {
        KnowledgeBase::new().advise_chunk("GATK", 0.0);
    }
}
