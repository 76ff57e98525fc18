//! # scan-cloud — the simulated hybrid cloud
//!
//! §IV-A: "we setup a hybrid cloud for our evaluation which consist of two
//! tiers: a private tier (624 CPU cores …) and a public tier. Using cores
//! at either tier has a constant cost per core per unit time, with private
//! cores being cheaper than public cores." The paper ran this under
//! (simulated) CELAR middleware; this crate is that substrate:
//!
//! * [`tier`] — resource tiers with per-core-per-TU pricing and optional
//!   capacity limits.
//! * [`instance`] — the instance catalogue (1/2/4/8/16 cores, Table III).
//! * [`vm`] — the VM state machine: booting → idle ⇄ busy → stopped, with
//!   the 30 s (0.5 TU) start/reshape penalty of §IV-B.
//! * [`provider`] — the provisioner: hire/release/reshape against tier
//!   capacity, tracking which cores are in use where.
//! * [`storage`] — the shared filesystem/database stand-in (CIFS +
//!   Cassandra in the prototype): the transfer model that prices staging.
//! * [`shared`] — multi-tenant fleet mode: one finite private pool
//!   arbitrated across N tenant providers, with contention-sensitive
//!   surge pricing on the public tier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instance;
pub mod provider;
pub mod shared;
pub mod storage;
pub mod tier;
pub mod vm;

pub use instance::{InstanceSize, INSTANCE_SIZES};
pub use provider::{CloudProvider, HireError};
pub use shared::{SharedCapacity, SharedLease, SurgePricing, Watch};
pub use storage::TransferModel;
pub use tier::{Tier, TierCatalog, TierId};
pub use vm::{boot_penalty, Vm, VmId, VmKey, VmState, BOOT_PENALTY_TU};
