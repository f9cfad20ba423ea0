//! # gals-uarch
//!
//! Microarchitecture building blocks for the GALS reproduction's superscalar
//! processor models: set-associative caches, a gshare branch predictor with
//! BTB and return-address stack, register renaming with branch checkpoints,
//! out-of-order issue queues, a reorder buffer, a store buffer and
//! functional-unit pools.
//!
//! Every component is *clock-agnostic*: it works in calls-per-local-cycle
//! terms so the same component serves both the fully synchronous baseline
//! and the five-domain GALS processor of the paper (`gals-core` decides
//! which clock edge drives which component). Components count their own
//! activity; the power model (`gals-power`) turns those counts into energy.
//!
//! Defaults reproduce the paper's Table 3 configuration — see
//! [`UarchConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bpred;
mod cache;
mod config;
mod func_units;
mod issue;
mod lsq;
pub mod rename;
mod rob;

pub use bpred::{BpredStats, BranchPredictor, Prediction};
pub use cache::{Cache, CacheStats};
pub use config::{BpredConfig, CacheGeometry, UarchConfig};
pub use func_units::FuPool;
pub use issue::{IqToken, IssueQueue, IssueQueueStats};
pub use lsq::{StoreBuffer, StoreBufferStats};
pub use rename::{PhysReg, RenameError, RenameUnit, RenamedDst};
pub use rob::Rob;
