//! The 7-stage GATK pipeline model with the paper's Table II constants.
//!
//! Two parallelisation levers exist per stage, mirroring §II-A.2's
//! "coarse-grained multi-process sharding and fine-grained \[threading\]":
//!
//! * **Sharding** into `s` pieces: each piece carries `d/s` of the data,
//!   so the *latency* of an a-dominated stage shrinks toward `b_i`, at the
//!   cost of paying `b_i` once per shard (`s` pieces × `E_i(d/s)` total
//!   work = `a_i·d + s·b_i`).
//! * **Threading** with `t` threads: latency scales per Amdahl with
//!   fraction `c_i`, at the cost of `t` cores held for the whole stage.
//!
//! High-`a`/low-`b` stages (stage 2: a=2.70, b=−0.53, c=0.02) want
//! sharding; high-`b`/high-`c` stages (stage 5: a=1.03, b=17.86, c=0.91)
//! want threading — exactly the heterogeneity the SCAN scheduler exploits.

/// Number of pipeline stages.
pub const N_STAGES: usize = 7;

/// Calibration: GB of stage-1 input per abstract "job size unit".
///
/// Table III gives job sizes in "arbitrary units" (mean 5 ± var 1) while
/// the stage models were regressed over 1–9 GB profiling inputs, and §IV-1
/// states the knowledge base makes "the inputs … 2GB for each task". A
/// factor of 0.4 GB/unit reconciles the three: a mean job of 5 units is
/// 2 GB of data — the recommended GATK input size. Recorded in
/// EXPERIMENTS.md as the one calibrated constant of this reproduction.
pub const GB_PER_SIZE_UNIT: f64 = 0.4;

/// Per-stage scalability factors (Table II's `a_i`, `b_i`, `c_i`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageFactors {
    /// Linear coefficient: TU per GB of stage-1 input.
    pub a: f64,
    /// Constant term, TU.
    pub b: f64,
    /// Amdahl parallelisable fraction in `[0, 1]`.
    pub c: f64,
}

impl StageFactors {
    /// Single-threaded execution time at stage-1 input size `d_gb`,
    /// clamped at zero (stage 2's `b = −0.53` extrapolates negative for
    /// tiny inputs).
    #[inline]
    pub fn exec_time(&self, d_gb: f64) -> f64 {
        (self.a * d_gb + self.b).max(0.0)
    }

    /// Threaded execution time: `T(t, d) = c·E(d)/t + (1 − c)·E(d)`.
    #[inline]
    pub fn threaded_time(&self, threads: u32, d_gb: f64) -> f64 {
        assert!(threads >= 1, "at least one thread");
        let e = self.exec_time(d_gb);
        self.c * e / threads as f64 + (1.0 - self.c) * e
    }

    /// Speedup of `t` threads over one.
    pub fn speedup(&self, threads: u32, d_gb: f64) -> f64 {
        let single = self.exec_time(d_gb);
        if single == 0.0 {
            return 1.0;
        }
        single / self.threaded_time(threads, d_gb)
    }

    /// Amdahl ceiling: `1 / (1 − c)`.
    pub fn max_speedup(&self) -> f64 {
        if self.c >= 1.0 {
            f64::INFINITY
        } else {
            1.0 / (1.0 - self.c)
        }
    }
}

/// Table II, verbatim.
pub const PAPER_STAGE_FACTORS: [StageFactors; N_STAGES] = [
    StageFactors { a: 0.35, b: 5.38, c: 0.89 },
    StageFactors { a: 2.70, b: -0.53, c: 0.02 },
    StageFactors { a: 1.74, b: 3.93, c: 0.69 },
    StageFactors { a: 3.35, b: 0.53, c: 0.79 },
    StageFactors { a: 1.03, b: 17.86, c: 0.91 },
    StageFactors { a: 0.02, b: 0.39, c: 0.25 },
    StageFactors { a: 0.01, b: 5.10, c: 0.02 },
];

/// Whether a stage's output can be sharded for the next stage. Stage 7 is
/// the `VariantsToVCF`-style gather and must see all shards, so sharding
/// is only meaningful for stages 1–6.
#[inline]
pub fn stage_shardable(stage_index: usize) -> bool {
    stage_index < N_STAGES - 1
}

/// The full pipeline model: per-stage factors plus the size calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineModel {
    /// Factors per stage, index 0 = stage 1.
    pub stages: Vec<StageFactors>,
    /// GB of stage-1 input per job size unit.
    pub gb_per_unit: f64,
}

impl Default for PipelineModel {
    fn default() -> Self {
        Self::paper()
    }
}

impl PipelineModel {
    /// The paper's model: Table II factors, 0.4 GB per size unit.
    pub fn paper() -> Self {
        PipelineModel { stages: PAPER_STAGE_FACTORS.to_vec(), gb_per_unit: GB_PER_SIZE_UNIT }
    }

    /// A model with custom factors (e.g. learned from the knowledge base).
    #[inline]
    pub fn new(stages: Vec<StageFactors>, gb_per_unit: f64) -> Self {
        assert!(!stages.is_empty());
        assert!(gb_per_unit > 0.0);
        PipelineModel { stages, gb_per_unit }
    }

    /// Number of stages.
    #[inline]
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Converts a job size in abstract units to GB.
    #[inline]
    pub fn units_to_gb(&self, size_units: f64) -> f64 {
        size_units * self.gb_per_unit
    }

    /// Latency of one stage for a job of `size_units`, split into `shards`
    /// pieces each run with `threads` threads (pieces run concurrently, so
    /// stage latency is one piece's threaded time).
    #[inline]
    pub fn stage_latency(&self, stage: usize, size_units: f64, shards: u32, threads: u32) -> f64 {
        assert!(shards >= 1);
        let d = self.units_to_gb(size_units) / shards as f64;
        self.stages[stage].threaded_time(threads, d)
    }

    /// Core·TU consumed by one stage under `(shards, threads)`: each shard
    /// holds `threads` cores for its threaded time.
    pub fn stage_core_tu(&self, stage: usize, size_units: f64, shards: u32, threads: u32) -> f64 {
        shards as f64 * threads as f64 * self.stage_latency(stage, size_units, shards, threads)
    }

    /// Total pipeline latency under a per-stage plan (no queueing).
    pub fn pipeline_latency(&self, size_units: f64, plan: &[(u32, u32)]) -> f64 {
        assert_eq!(plan.len(), self.n_stages(), "plan must cover every stage");
        plan.iter().enumerate().map(|(i, &(s, t))| self.stage_latency(i, size_units, s, t)).sum()
    }

    /// Total core·TU under a per-stage plan.
    pub fn pipeline_core_tu(&self, size_units: f64, plan: &[(u32, u32)]) -> f64 {
        assert_eq!(plan.len(), self.n_stages());
        plan.iter().enumerate().map(|(i, &(s, t))| self.stage_core_tu(i, size_units, s, t)).sum()
    }

    /// Single-threaded, unsharded pipeline latency — the baseline an
    /// unassisted run pays.
    pub fn serial_latency(&self, size_units: f64) -> f64 {
        let d = self.units_to_gb(size_units);
        self.stages.iter().map(|f| f.exec_time(d)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table_ii_verbatim() {
        // Spot-check against the paper.
        assert_eq!(PAPER_STAGE_FACTORS[0], StageFactors { a: 0.35, b: 5.38, c: 0.89 });
        assert_eq!(PAPER_STAGE_FACTORS[4], StageFactors { a: 1.03, b: 17.86, c: 0.91 });
        assert_eq!(PAPER_STAGE_FACTORS[6], StageFactors { a: 0.01, b: 5.10, c: 0.02 });
        assert_eq!(PAPER_STAGE_FACTORS.len(), 7);
    }

    #[test]
    fn exec_time_linear_and_clamped() {
        let s2 = PAPER_STAGE_FACTORS[1];
        assert!((s2.exec_time(5.0) - (2.70 * 5.0 - 0.53)).abs() < 1e-12);
        assert_eq!(s2.exec_time(0.1), 0.0, "negative extrapolation clamps");
    }

    #[test]
    fn threading_follows_amdahl() {
        let s5 = PAPER_STAGE_FACTORS[4];
        let e = s5.exec_time(5.0);
        let t16 = s5.threaded_time(16, 5.0);
        assert!((t16 - (0.91 * e / 16.0 + 0.09 * e)).abs() < 1e-12);
        // Speedup approaches but never exceeds the Amdahl ceiling.
        assert!(s5.speedup(16, 5.0) < s5.max_speedup());
        assert!((s5.max_speedup() - 1.0 / 0.09).abs() < 1e-9);
        // One thread is the identity.
        assert_eq!(s5.threaded_time(1, 5.0), e);
    }

    #[test]
    fn serial_stage_gains_nothing() {
        let s2 = PAPER_STAGE_FACTORS[1]; // c = 0.02
        assert!(s2.speedup(16, 5.0) < 1.02);
    }

    #[test]
    fn sharding_trades_latency_for_b_overhead() {
        let m = PipelineModel::paper();
        // Stage 2 (index 1): a-dominated, negative b → sharding is a
        // near-free latency win.
        let lat1 = m.stage_latency(1, 5.0, 1, 1);
        let lat4 = m.stage_latency(1, 5.0, 4, 1);
        assert!(lat4 < lat1 / 3.0, "sharding must slash stage-2 latency");
        let work1 = m.stage_core_tu(1, 5.0, 1, 1);
        let work4 = m.stage_core_tu(1, 5.0, 4, 1);
        assert!(work4 <= work1, "negative b: sharding does not inflate stage-2 work");

        // Stage 5 (index 4): b-dominated → sharding barely helps latency
        // and multiplies work.
        let lat1 = m.stage_latency(4, 5.0, 1, 1);
        let lat4 = m.stage_latency(4, 5.0, 4, 1);
        assert!(lat4 > 0.8 * lat1, "stage 5 latency is b-bound");
        assert!(m.stage_core_tu(4, 5.0, 4, 1) > 3.0 * m.stage_core_tu(4, 5.0, 1, 1));
    }

    #[test]
    fn pipeline_latency_sums_stages() {
        let m = PipelineModel::paper();
        let plan = [(1u32, 1u32); 7];
        let lat = m.pipeline_latency(5.0, &plan);
        assert!((lat - m.serial_latency(5.0)).abs() < 1e-9);
        // The paper's d=5-unit job = 2 GB: serial ≈ sum of E_i(2).
        let expect: f64 = PAPER_STAGE_FACTORS.iter().map(|f| f.exec_time(2.0)).sum();
        assert!((lat - expect).abs() < 1e-9);
    }

    #[test]
    fn calibration_makes_mean_job_2gb() {
        let m = PipelineModel::paper();
        assert!((m.units_to_gb(5.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_good_plan_beats_serial_latency_at_bounded_work() {
        // The economic premise of the whole paper: there exist plans that
        // cut latency by >3x while less than tripling core·TU.
        let m = PipelineModel::paper();
        let size = 5.0;
        // Shard the a-heavy stages (2, 4), thread the c-high ones (1,3,5).
        let plan = [(1, 4), (6, 1), (1, 4), (4, 2), (1, 8), (1, 1), (1, 1)];
        let lat = m.pipeline_latency(size, &plan);
        let serial = m.serial_latency(size);
        assert!(lat < serial / 3.0, "latency {lat} vs serial {serial}");
        let work = m.pipeline_core_tu(size, &plan);
        assert!(work < 3.0 * serial, "work {work} vs serial {serial}");
    }

    #[test]
    fn stage7_not_shardable() {
        assert!(stage_shardable(0));
        assert!(stage_shardable(5));
        assert!(!stage_shardable(6));
    }

    #[test]
    #[should_panic(expected = "cover every stage")]
    fn short_plan_rejected() {
        PipelineModel::paper().pipeline_latency(5.0, &[(1, 1); 3]);
    }

    proptest! {
        /// Threading never makes a stage slower, sharding never makes a
        /// stage's latency worse... (sharding CAN be neutral when b
        /// dominates; it must never increase latency).
        #[test]
        fn prop_levers_never_hurt_latency(
            stage in 0usize..7,
            size in 0.5f64..20.0,
            shards in 1u32..10,
            threads_exp in 0u32..5,
        ) {
            let m = PipelineModel::paper();
            let threads = 1u32 << threads_exp;
            let base = m.stage_latency(stage, size, 1, 1);
            let sharded = m.stage_latency(stage, size, shards, 1);
            let threaded = m.stage_latency(stage, size, 1, threads);
            prop_assert!(sharded <= base + 1e-9);
            prop_assert!(threaded <= base + 1e-9);
        }

        /// Total single-thread work is conserved by sharding up to the
        /// per-shard b overhead: `s·E(d/s) = a·d + s·b` (when no clamping).
        #[test]
        fn prop_shard_work_identity(size in 1.0f64..20.0, shards in 1u32..8, stage in 0usize..7) {
            let m = PipelineModel::paper();
            let f = m.stages[stage];
            let d = m.units_to_gb(size);
            // Skip cases where clamping engages (stage 2 tiny pieces).
            prop_assume!(f.a * d / shards as f64 + f.b > 0.0);
            let total = m.stage_core_tu(stage, size, shards, 1);
            let expect = f.a * d + shards as f64 * f.b;
            prop_assert!((total - expect).abs() < 1e-9);
        }
    }
}
