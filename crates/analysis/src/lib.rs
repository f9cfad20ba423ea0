//! # gals-analysis
//!
//! Static verification for the GALS reproduction, in two passes:
//!
//! 1. **Config pre-flight** ([`checks`]): scalar checks over a processor
//!    config and its run limits — wedged producers (GA002), capacity/
//!    DVFS/sync/budget sanity (GA005–GA007, GA009) and parameter
//!    validation (GA010). `gals_core::analyze` runs them; `simulate()`
//!    refuses error-level findings up front and `sweep --check` vets
//!    whole matrices without simulating.
//!
//! 2. **Source-level determinism lint** ([`lint`], `gals-lint` binary):
//!    an offline line scan enforcing the repo's determinism contracts
//!    (GL101–GL105) with a justified-waiver allowlist.
//!
//! This crate has no dependencies, so the simulator, the sweep harness
//! and the lint binary can all use it without cycles. Finding codes are
//! stable: see `docs/ANALYSIS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod finding;
pub mod lint;

pub use finding::{codes, AnalysisReport, Finding, Severity};
