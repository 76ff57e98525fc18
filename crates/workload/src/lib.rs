//! # scan-workload — the paper's GATK workload model
//!
//! §IV-1 models GATK pipeline stages "with single-threaded execution time
//! that is a linear function of the size of the first stage's input data":
//! `E_i(d) = a_i·d + b_i`, threaded per Amdahl as
//! `T_i(t, d) = c_i·E_i(d)/t + (1 − c_i)·E_i(d)`, with the constants of
//! Table II. This crate implements that model plus everything around it:
//!
//! * [`gatk`] — stage factors (Table II), the pipeline model, and the
//!   calibration constant mapping the paper's abstract "job size units"
//!   to GB (see `GB_PER_SIZE_UNIT`).
//! * [`job`] — jobs: an arrival's id, size and submission instant.
//! * [`arrivals`] — the batch arrival process of Table III (exponential
//!   inter-arrival; normal batch size 3 ± var 2; normal job size 5 ± var 1).
//! * [`reward`] — §II-D's time-oriented and throughput-oriented reward
//!   schemes and the delay-cost building block of Eq. 1.
//! * [`profiletrace`] — synthetic offline-profiling traces (sizes 1–9 GB ×
//!   thread counts, like §III-A.1's GATK profiling) for knowledge-base
//!   bootstrap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod gatk;
pub mod job;
pub mod profiletrace;
pub mod reward;

pub use arrivals::{ArrivalBatch, ArrivalConfig, ArrivalProcess};
pub use gatk::{PipelineModel, StageFactors, GB_PER_SIZE_UNIT, N_STAGES, PAPER_STAGE_FACTORS};
pub use job::{Job, JobId};
pub use profiletrace::generate_profile_trace;
pub use reward::RewardFn;
