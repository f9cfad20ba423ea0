//! # gals-core
//!
//! The processor models of *"Power and Performance Evaluation of Globally
//! Asynchronous Locally Synchronous Processors"* (Iyer & Marculescu, ISCA
//! 2002): a 4-wide out-of-order superscalar pipeline that runs either
//!
//! * **synchronously** — one clock, pipeline latches, a global clock grid
//!   burning power every cycle;
//! * **GALS** — five locally synchronous domains (fetch / decode /
//!   integer / FP / memory) with independent clock periods *and* phases,
//!   mixed-clock FIFOs on every domain crossing, and no global grid; or
//! * **pausible** — the section-3.2 ablation: the same five local clocks,
//!   but every domain crossing stretches both participating clocks for an
//!   arbiter handshake instead of buffering through a FIFO, so measured
//!   effective frequencies are set by communication rates. Two transfer
//!   models ([`gals_clocks::PausibleModel`]): *latched* keeps full channel
//!   capacity (timing cost only), *rendezvous* strips every crossing to a
//!   single-entry port, so producers block until the consumer pops and the
//!   capacity cost of unbuffered handshakes is charged too (reported in
//!   [`SimReport::rendezvous_blocked`]).
//!
//! Both machines share all pipeline code; they differ only in channel
//! construction and clock wiring (see [`ProcessorConfig`]), mirroring how
//! the paper built both simulators on one SimpleScalar-derived model.
//!
//! ```
//! use gals_core::{simulate, ProcessorConfig, SimLimits};
//! use gals_workload::{generate, Benchmark};
//!
//! let program = generate(Benchmark::Gcc, 42);
//! let limits = SimLimits::insts(20_000);
//! let base = simulate(&program, ProcessorConfig::synchronous_1ghz(), limits).expect("baseline");
//! let gals = simulate(&program, ProcessorConfig::gals_equal_1ghz(1), limits).expect("gals");
//! // GALS is slower on the same work at the same frequencies (paper Fig 5).
//! assert!(gals.exec_time > base.exec_time);
//! ```

// The counting global allocator (`bench` feature) is the one place that
// needs `unsafe` (the `GlobalAlloc` trait contract); everything else stays
// forbidden either way.
#![cfg_attr(not(feature = "bench"), forbid(unsafe_code))]
#![cfg_attr(feature = "bench", deny(unsafe_code))]
#![warn(missing_docs)]

mod advisor;
#[cfg(feature = "bench")]
pub mod alloc_counter;
mod analysis;
mod config;
mod error;
pub mod inflight;
mod pipeline;
mod report;
mod sim;

pub use advisor::{AdvisorConfig, DomainUtilisation, DvfsAdvisor};
pub use analysis::{analyze, comm_graph};
#[cfg(feature = "chaos")]
pub use config::ChaosFaults;
pub use config::{Clocking, DvfsPlan, ProcessorConfig, SimLimits};
pub use error::{DeadlockReport, PortState, SimError};
pub use gals_analysis::{codes, AnalysisReport, Finding, Severity};
pub use inflight::{BranchInfo, InFlight, InFlightTable, InstrId, Redirect, SrcTags, Tag};
pub use pipeline::Pipeline;
pub use report::{DomainCycles, SimReport};
pub use sim::{simulate, simulate_with_engine};
