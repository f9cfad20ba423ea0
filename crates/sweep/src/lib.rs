//! # gals-sweep
//!
//! The parallel scenario-sweep harness: declare a cartesian experiment
//! matrix over the simulator's axes, fan the runs out across a
//! `std::thread` worker pool, and collect one machine-readable,
//! schema-versioned report — the shape in which the paper's core results
//! (and the retrospective ISCA reproducibility studies) present themselves:
//! many configurations, one results table.
//!
//! ## The matrix
//!
//! A [`SweepMatrix`] is the cartesian product of six axes:
//!
//! | axis | values |
//! |------|--------|
//! | workload | any subset of [`gals_workload::Workload`]: synthetic [`gals_workload::Benchmark`] profiles and/or `prog:`-prefixed `.gasm` kernels |
//! | clocking mode | [`ModePoint`]: synchronous, FIFO-GALS, or pausible — each optionally with the wakeup-filter / wakeup-coalescing features |
//! | handshake duration | carried inside pausible [`ModePoint`]s (one mode point per duration) |
//! | pausible transfer model | carried inside pausible [`ModePoint`]s: latched (full channel capacity) or rendezvous (single-entry ports, producers block) |
//! | DVFS point | [`DvfsPoint`]: per-domain slowdown factors with voltage tracking |
//! | phase seed | the GALS local-clock phase seed |
//!
//! One collapse rule keeps the product honest: a synchronous machine has a
//! single clock, so **non-uniform DVFS points are skipped on synchronous
//! mode points** (they would panic in `ProcessorConfig::with_dvfs`); every
//! other combination expands to exactly one [`RunSpec`].
//!
//! ## Determinism
//!
//! Each run is an independent, deterministic simulation (`simulate` is
//! bit-reproducible for a given program + configuration), and results are
//! stored by matrix index, not completion order. An N-worker sweep is
//! therefore **bit-identical to the serial sweep** — including the rendered
//! JSON — which `tests/sweep_determinism.rs` pins with a property test.
//!
//! All points of one request that run the same `(workload,
//! workload_seed)` share one program, built by the first of them to
//! simulate and dropped when the request returns. [`RunSpec::run`] builds
//! its own; `tests/sweep_matches_direct.rs` pins that both give the same
//! record.
//!
//! ## Failure isolation
//!
//! One bad matrix point must not cost the other hundred: each run executes
//! under `catch_unwind` on the worker that picked it up, and its outcome
//! is a [`RunStatus`] recorded *in* the report instead of an abort. A
//! panic becomes [`RunStatus::Panicked`] with the payload message; a
//! machine that stops making progress surfaces the simulator's structured
//! [`SimError::Deadlock`](gals_core::SimError) as [`RunStatus::Deadlocked`]
//! carrying the deterministic [`gals_core::DeadlockReport`]. Every failure
//! is a deterministic function of the spec, and every run ends in bounded
//! simulated time: the commit watchdog stops a run that commits nothing
//! for `watchdog_cycles` slow-domain periods. Failed records zero their
//! metrics, are excluded from the derived tables, and leave every
//! surviving run bit-identical to a failure-free sweep (pinned by
//! `tests/sweep_matches_direct.rs`, and by `tests/fault_tolerance.rs`
//! under the `chaos` feature).
//!
//! ## Deterministic fault injection (`chaos` feature)
//!
//! Built with `--features chaos`, a `FaultPlan` forces chosen matrix
//! points to panic or wedge (a withheld writeback deadlocks the pipeline,
//! exercising the real watchdog path), so the whole failure-handling layer
//! is testable end-to-end. With the feature compiled in but no faults
//! armed, output is bit-identical to a build without it.
//!
//! ## Report schema (`SWEEP_results.json`)
//!
//! Hand-rolled JSON (the workspace carries no serde), versioned by
//! [`SCHEMA_VERSION`]:
//!
//! ```text
//! {
//!   "schema_version": 6,
//!   "tool": "gals-sweep",
//!   "budget": <u64>,            // committed-instruction budget per run
//!   "workload_seed": <u64>,
//!   "run_count": <usize>,
//!   "failed_count": <usize>,    // runs whose status is not "ok"
//!   "runs": [                   // one object per RunSpec, in matrix order
//!     { "index", "benchmark", "clocking", "mode",
//!       "handshake_ps",         // null outside pausible modes
//!       "pausible_model",       // "latched"/"rendezvous"; null otherwise
//!       "wakeup_filter", "coalesce_wakeup", "dvfs", "phase_seed",
//!       "committed", "fetched", "wrong_path_fetched", "exec_time_fs",
//!       "insts_per_ns", "mean_slip_fs", "fifo_slip_fraction",
//!       "misspeculation_rate", "channel_ops", "total_stretches",
//!       "stretch_time_fs", "rendezvous_block_cycles",
//!       "min_effective_ghz", "total_energy",
//!       "average_power",
//!       "status",               // "ok"/"panicked"/"deadlocked"
//!       "panic_msg",            // panicked runs only
//!       "deadlock",             // deadlocked runs only: the structured
//!                               // DeadlockReport (detection time,
//!                               // channel occupancy, ROB/IQ heads, ...)
//!       "analysis" }, ...       // static findings; omitted when clean
//!   ],
//!   "tables": {                 // derived paper-figure tables
//!     "pausible_slowdown_vs_handshake": [
//!       { "handshake_ps", "benchmarks", "seeds",
//!         "geomean_slowdown_vs_gals" (+ "_min"/"_max"),
//!         "geomean_slowdown_vs_sync" (+ "_min"/"_max") }, ... ],
//!     "rendezvous_vs_latched": [
//!       { "handshake_ps", "benchmarks", "seeds",
//!         "geomean_slowdown_vs_latched" (+ "_min"/"_max") }, ... ],
//!     "energy_perf_vs_frequency": [
//!       { "dvfs", "benchmarks", "seeds",
//!         "geomean_relative_performance" (+ "_min"/"_max"),
//!         "geomean_relative_energy" (+ "_min"/"_max"),
//!         "geomean_relative_power" (+ "_min"/"_max") }, ... ],
//!     "wakeup_feature_ablation": [
//!       { "mode", "baseline_mode", "benchmarks", "seeds",
//!         "geomean_channel_ops_ratio" (+ "_min"/"_max"),
//!         "geomean_stretch_ratio" (+ "_min"/"_max"),
//!         "geomean_exec_time_ratio" (+ "_min"/"_max") }, ... ]
//!   }
//! }
//! ```
//!
//! The derived tables are computed from runs at the **nominal DVFS
//! point**, aggregated over the **phase-seed axis**: each metric is the
//! per-seed geomean over benchmarks, reported as the mean across seeds
//! with `_min`/`_max` spread fields (confidence intervals for the paper
//! figures; all three coincide for a single-seed matrix). Axes missing
//! from a matrix simply produce empty tables (an empty or singleton
//! matrix still renders a valid, schema-versioned report).
//!
//! Every string the report carries is escaped by
//! [`gals_analysis::finding::json_escape`], so a user-supplied DVFS label
//! or a panic message can never break the JSON.
//!
//! ## User-defined matrices
//!
//! `sweep --matrix FILE` loads a matrix from a JSON file instead of the
//! in-code builder — see [`SweepMatrix::from_json`] and the
//! `matrix_file` module docs for the format;
//! [`SweepMatrix::to_matrix_json`] renders the same format back
//! (round-trip pinned by a test).
//!
//! ## Entry point: requests and responses
//!
//! The one entry point is [`sweep`], taking a [`SweepRequest`] (*what* to
//! simulate: the matrix; *how* to execute: [`SweepOptions`]) and
//! returning a [`SweepResponse`] (the results plus how the answer was
//! produced: points actually simulated, cache hit/miss counters).
//!
//! ```
//! use gals_sweep::{sweep, SweepMatrix, SweepOptions, SweepRequest};
//!
//! let matrix = SweepMatrix::paper_default(500);
//! let serial = sweep(&SweepRequest::new(matrix.clone())).unwrap();
//! let request = SweepRequest::new(matrix).with_options(SweepOptions::new().threads(4));
//! let parallel = sweep(&request).unwrap();
//! assert_eq!(serial.results.to_json(), parallel.results.to_json());
//! ```
//!
//! ## Content-addressed result cache
//!
//! Every matrix point is a pure function of its spec, so each run has a
//! canonical identity — a [`RunKey`], the FNV-1a content hash of the
//! semantic run inputs (benchmark, mode point, DVFS, seeds, budget,
//! schema version, and the [`ProcessorConfig`] identity), explicitly
//! *excluding* execution policy (threads, cache settings). With
//! [`SweepOptions::cache`] set, completed runs are stored as
//! atomically-written JSON blobs keyed by their `RunKey` and looked up
//! before simulating: a 116-point matrix sharing 100 points with a
//! previous run simulates only 16. A corrupt or truncated blob is a
//! miss, never an error. The cache is also how a killed or failed sweep
//! resumes: rerun it with the same cache directory and only the points
//! without a blob simulate. See the [`cache`] module ([`ResultCache`])
//! and `docs/SWEEP_FORMAT.md` § "The `--cache DIR` result store".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod matrix_file;
pub mod stable_hash;

pub use cache::{CacheStats, ResultCache};

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use gals_analysis::checks;
use gals_analysis::finding::json_escape;
use gals_clocks::{Domain, PausibleModel};
use gals_core::{
    simulate, DeadlockReport, DvfsPlan, PortState, ProcessorConfig, SimError, SimLimits, SimReport,
};
use gals_events::Time;
use gals_isa::Program;
use gals_workload::{generate_workload, Benchmark, Workload};

pub use gals_analysis::{Finding, Severity};

/// Version of the `SWEEP_results.json` schema produced by
/// [`SweepResults::to_json`]. Bump on any field rename/removal or meaning
/// change; additions are backward-compatible and keep the version.
///
/// v2: derived tables aggregate across the phase-seed axis — each metric
/// reports the mean across seeds (identical to v1 for single-seed
/// matrices) plus `*_min`/`*_max` spread fields and a `seeds` count.
///
/// v3: the pausible transfer-capacity axis. Each run gains
/// `pausible_model` (`"latched"`/`"rendezvous"`, `null` outside pausible
/// modes) and `rendezvous_block_cycles`; the plain-pausible selection rule
/// of `pausible_slowdown_vs_handshake` now means *latched* plain points
/// (the v2 meaning, stated explicitly), and a new
/// `rendezvous_vs_latched` table derives the latched-to-rendezvous
/// slowdown per handshake duration. See `docs/SWEEP_FORMAT.md`.
///
/// v4: fault-tolerant execution. The top level gains `failed_count`;
/// each run gains `status` (`"ok"`/`"panicked"`/`"timed_out"`/
/// `"deadlocked"`), plus `panic_msg` on panicked runs and the structured
/// `deadlock` object (the simulator's [`DeadlockReport`]) on deadlocked
/// runs. Failed runs zero their metric fields and are excluded from the
/// derived tables; a failure-free v4 report differs from v3 only by the
/// two new always-present fields.
///
/// v5: static analysis. Each run gains an optional `analysis` array (the
/// pre-flight [`Finding`]s for that point — omitted when clean, which is
/// every paper-matrix point), the `deadlock` object gains
/// `static_finding` (the analyzer's verdict code when the wedge was
/// flagged at submit, else `null`), and configuration rejections carry
/// the stable `GA…` finding code in their `panic_msg`. See
/// `docs/ANALYSIS.md` for the code table and `sweep --check` for the
/// zero-simulation matrix vetting path.
///
/// v6: program-driven workloads. The benchmark axis becomes a workload
/// axis: alongside the synthetic profiles, matrix files may name
/// checked-in `.gasm` kernels as `"prog:<kernel>"` (the run's
/// `benchmark` field carries that prefixed name). Kernel run keys are
/// content-addressed — the key canon's benchmark component becomes
/// [`Workload::identity`], which for kernels appends an FNV-1a hash of
/// the kernel source, so editing a `.gasm` file invalidates exactly the
/// cached results built from it. Profile-only reports differ from v5
/// only by the version number. See `docs/PROGRAM_FORMAT.md`.
///
/// Still v6: `"timed_out"` no longer occurs. Runs are bounded in
/// simulated time by the commit watchdog, not by a wall-clock deadline,
/// so the status set shrank without any field changing. The version is
/// part of every [`RunKey`], so not bumping it keeps every cached result
/// valid.
pub const SCHEMA_VERSION: u32 = 6;

/// Default workload seed (matches the bench harness's "input set").
pub const WORKLOAD_SEED: u64 = 0x5EC9_5201;

/// Default phase seed for GALS/pausible local clocks (matches the bench
/// harness).
pub const PHASE_SEED: u64 = 2002;

/// One point on the matrix's clocking-mode axis. Pausible points carry the
/// handshake duration (the section-3.2 sweep variable) and the
/// wakeup-coalescing feature gate; GALS and pausible points carry the
/// producer-side wakeup-filter gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModePoint {
    /// The paper's synchronous base machine.
    Synchronous,
    /// The FIFO-GALS machine, optionally with the cross-cluster wakeup
    /// filter.
    Gals {
        /// Producer-side cross-cluster wakeup filter.
        wakeup_filter: bool,
    },
    /// The pausible-clock ablation machine.
    Pausible {
        /// Arbiter handshake duration in picoseconds.
        handshake_ps: u64,
        /// One wakeup handshake per cycle per link instead of one per tag.
        coalesce: bool,
        /// Producer-side cross-cluster wakeup filter.
        wakeup_filter: bool,
        /// Transfer-capacity model: `false` keeps full latch capacity on
        /// every crossing ([`gals_clocks::PausibleModel::Latched`]),
        /// `true` strips the crossings to single-entry rendezvous ports
        /// ([`gals_clocks::PausibleModel::Rendezvous`]) so producers
        /// block until the consumer pops.
        rendezvous: bool,
    },
}

impl ModePoint {
    /// The clocking family, for the report's `clocking` field.
    pub fn clocking(&self) -> &'static str {
        match self {
            ModePoint::Synchronous => "sync",
            ModePoint::Gals { .. } => "gals",
            ModePoint::Pausible { .. } => "pausible",
        }
    }

    /// A compact human-readable label, e.g. `pausible@300ps+coalesce`.
    pub fn label(&self) -> String {
        match *self {
            ModePoint::Synchronous => "sync".into(),
            ModePoint::Gals { wakeup_filter } => {
                format!("gals{}", if wakeup_filter { "+filter" } else { "" })
            }
            ModePoint::Pausible {
                handshake_ps,
                coalesce,
                wakeup_filter,
                rendezvous,
            } => format!(
                "pausible@{handshake_ps}ps{}{}{}",
                if rendezvous { "+rendezvous" } else { "" },
                if coalesce { "+coalesce" } else { "" },
                if wakeup_filter { "+filter" } else { "" }
            ),
        }
    }

    /// Handshake duration in picoseconds (pausible points only).
    pub fn handshake_ps(&self) -> Option<u64> {
        match self {
            ModePoint::Pausible { handshake_ps, .. } => Some(*handshake_ps),
            _ => None,
        }
    }

    fn wakeup_filter(&self) -> bool {
        match self {
            ModePoint::Synchronous => false,
            ModePoint::Gals { wakeup_filter } => *wakeup_filter,
            ModePoint::Pausible { wakeup_filter, .. } => *wakeup_filter,
        }
    }

    fn coalesce(&self) -> bool {
        matches!(self, ModePoint::Pausible { coalesce: true, .. })
    }

    /// The pausible transfer-capacity model (`"latched"`/`"rendezvous"`
    /// for pausible points, `None` otherwise) — the report's
    /// `pausible_model` field.
    pub fn pausible_model(&self) -> Option<&'static str> {
        match self {
            ModePoint::Pausible { rendezvous, .. } => {
                Some(if *rendezvous { "rendezvous" } else { "latched" })
            }
            _ => None,
        }
    }
}

/// One point on the matrix's DVFS axis: per-domain slowdown factors in
/// [`Domain::index`] order, with the supply voltage tracking the clock.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsPoint {
    /// Label used in the report (`nominal`, `uniform1.5x`, `fp2x`, ...).
    pub label: String,
    /// Per-domain slowdown factors (1.0 = nominal).
    pub slowdown: [f64; 5],
}

impl DvfsPoint {
    /// The unscaled machine.
    pub fn nominal() -> Self {
        DvfsPoint {
            label: "nominal".into(),
            slowdown: [1.0; 5],
        }
    }

    /// Every domain slowed by `factor` (valid on the synchronous machine
    /// too: a uniform plan is a single-clock frequency point).
    pub fn uniform(factor: f64) -> Self {
        DvfsPoint {
            label: format!("uniform{factor}x"),
            slowdown: [factor; 5],
        }
    }

    /// A labelled per-domain point.
    pub fn per_domain(label: impl Into<String>, slowdown: [f64; 5]) -> Self {
        DvfsPoint {
            label: label.into(),
            slowdown,
        }
    }

    /// True when every domain shares one factor (applicable to the
    /// synchronous machine).
    pub fn is_uniform(&self) -> bool {
        self.slowdown.iter().all(|&s| s == self.slowdown[0])
    }

    fn plan(&self) -> DvfsPlan {
        let mut plan = DvfsPlan::nominal();
        plan.slowdown = self.slowdown;
        plan
    }
}

/// A declarative cartesian experiment matrix. [`SweepMatrix::expand`]
/// produces the concrete [`RunSpec`] list; see the crate docs for the
/// collapse rule (non-uniform DVFS × synchronous is skipped).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepMatrix {
    /// Workload axis: synthetic benchmark profiles and/or checked-in
    /// `.gasm` program kernels.
    pub benchmarks: Vec<Workload>,
    /// Clocking-mode axis (handshake durations live inside pausible
    /// points).
    pub modes: Vec<ModePoint>,
    /// DVFS axis.
    pub dvfs: Vec<DvfsPoint>,
    /// GALS/pausible local-clock phase-seed axis (the synchronous machine
    /// has no phases, but the seed is still recorded per run).
    pub phase_seeds: Vec<u64>,
    /// Workload generation seed (shared by every run: all configurations
    /// execute identical "binaries", as in the paper).
    pub workload_seed: u64,
    /// Committed-instruction budget per run.
    pub budget: u64,
}

impl SweepMatrix {
    /// The default paper matrix: the four section-3.2 ablation benchmarks ×
    /// {sync, FIFO-GALS, FIFO-GALS+filter, pausible @ 100/300/600 ps in
    /// both transfer models (latched and rendezvous), pausible @ 300 ps +
    /// coalescing} × {nominal, uniform 1.5×, FP 2×} DVFS points × one
    /// phase seed — covering the handshake-duration sweep, the
    /// latched-vs-rendezvous capacity axis, the DVFS energy/performance
    /// trade-off and both wakeup-path features head-to-head.
    pub fn paper_default(budget: u64) -> Self {
        SweepMatrix {
            benchmarks: vec![
                Workload::Profile(Benchmark::Gcc),
                Workload::Profile(Benchmark::Fpppp),
                Workload::Profile(Benchmark::Ijpeg),
                Workload::Profile(Benchmark::Compress),
            ],
            modes: vec![
                ModePoint::Synchronous,
                ModePoint::Gals {
                    wakeup_filter: false,
                },
                ModePoint::Gals {
                    wakeup_filter: true,
                },
                ModePoint::Pausible {
                    handshake_ps: 100,
                    coalesce: false,
                    wakeup_filter: false,
                    rendezvous: false,
                },
                ModePoint::Pausible {
                    handshake_ps: 300,
                    coalesce: false,
                    wakeup_filter: false,
                    rendezvous: false,
                },
                ModePoint::Pausible {
                    handshake_ps: 600,
                    coalesce: false,
                    wakeup_filter: false,
                    rendezvous: false,
                },
                ModePoint::Pausible {
                    handshake_ps: 100,
                    coalesce: false,
                    wakeup_filter: false,
                    rendezvous: true,
                },
                ModePoint::Pausible {
                    handshake_ps: 300,
                    coalesce: false,
                    wakeup_filter: false,
                    rendezvous: true,
                },
                ModePoint::Pausible {
                    handshake_ps: 600,
                    coalesce: false,
                    wakeup_filter: false,
                    rendezvous: true,
                },
                ModePoint::Pausible {
                    handshake_ps: 300,
                    coalesce: true,
                    wakeup_filter: false,
                    rendezvous: false,
                },
            ],
            dvfs: vec![
                DvfsPoint::nominal(),
                DvfsPoint::uniform(1.5),
                DvfsPoint::per_domain("fp2x", [1.0, 1.0, 1.0, 2.0, 1.0]),
            ],
            phase_seeds: vec![PHASE_SEED],
            workload_seed: WORKLOAD_SEED,
            budget,
        }
    }

    /// Parses a user-defined matrix file (the `sweep --matrix FILE`
    /// format; see the `matrix_file` module source for the schema).
    /// `default_budget` fills in when the file carries no `budget`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the first problem (malformed JSON,
    /// an unknown key, benchmark, mode or dvfs point, a missing or empty
    /// axis).
    pub fn from_json(text: &str, default_budget: u64) -> Result<Self, String> {
        matrix_file::matrix_from_json(text, default_budget)
    }

    /// Renders the matrix in the `--matrix FILE` format;
    /// [`SweepMatrix::from_json`] parses it back to an equal matrix (the
    /// round-trip is pinned by a test). User-supplied DVFS labels are
    /// escaped; benchmark and mode names come from fixed ASCII sets.
    pub fn to_matrix_json(&self) -> String {
        let mut s = String::from("{\n");
        let quoted_list = |items: Vec<String>| -> String {
            items
                .into_iter()
                .map(|i| format!("\"{i}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(
            s,
            "  \"benchmarks\": [{}],",
            quoted_list(self.benchmarks.iter().map(|b| b.name()).collect())
        );
        let _ = writeln!(
            s,
            "  \"modes\": [{}],",
            quoted_list(self.modes.iter().map(|m| m.label()).collect())
        );
        s.push_str("  \"dvfs\": [\n");
        for (i, d) in self.dvfs.iter().enumerate() {
            let comma = if i + 1 == self.dvfs.len() { "" } else { "," };
            let slowdown = d
                .slowdown
                .iter()
                .map(|f| format!("{f}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                s,
                "    {{\"label\": \"{}\", \"slowdown\": [{slowdown}]}}{comma}",
                json_escape(&d.label)
            );
        }
        s.push_str("  ],\n");
        let _ = writeln!(
            s,
            "  \"phase_seeds\": [{}],",
            self.phase_seeds
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(s, "  \"workload_seed\": {},", self.workload_seed);
        let _ = writeln!(s, "  \"budget\": {}", self.budget);
        s.push_str("}\n");
        s
    }

    /// Expands the matrix into its concrete run list, in deterministic
    /// matrix order (benchmark-major, then mode, DVFS, seed).
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut specs = Vec::new();
        for &benchmark in &self.benchmarks {
            for mode in &self.modes {
                for dvfs in &self.dvfs {
                    if matches!(mode, ModePoint::Synchronous) && !dvfs.is_uniform() {
                        continue; // a single clock cannot split domains
                    }
                    for &phase_seed in &self.phase_seeds {
                        specs.push(RunSpec {
                            index: specs.len(),
                            benchmark,
                            mode: *mode,
                            dvfs: dvfs.clone(),
                            phase_seed,
                            workload_seed: self.workload_seed,
                            budget: self.budget,
                        });
                    }
                }
            }
        }
        specs
    }
}

/// One fully-specified simulation run of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Position in matrix order — the report's ordering key, independent of
    /// worker scheduling.
    pub index: usize,
    /// Workload (synthetic profile or program kernel).
    pub benchmark: Workload,
    /// Clocking/feature point.
    pub mode: ModePoint,
    /// DVFS point.
    pub dvfs: DvfsPoint,
    /// Local-clock phase seed.
    pub phase_seed: u64,
    /// Workload generation seed.
    pub workload_seed: u64,
    /// Committed-instruction budget.
    pub budget: u64,
}

impl RunSpec {
    /// The processor configuration this spec describes.
    pub fn config(&self) -> ProcessorConfig {
        let base = match self.mode {
            ModePoint::Synchronous => ProcessorConfig::synchronous_1ghz(),
            ModePoint::Gals { .. } => ProcessorConfig::gals_equal_1ghz(self.phase_seed),
            ModePoint::Pausible {
                handshake_ps,
                rendezvous,
                ..
            } => ProcessorConfig::pausible_equal_1ghz(self.phase_seed)
                .with_pausible_handshake(Time::from_ps(handshake_ps))
                .with_pausible_model(if rendezvous {
                    PausibleModel::Rendezvous
                } else {
                    PausibleModel::Latched
                }),
        };
        base.with_wakeup_filter(self.mode.wakeup_filter())
            .with_wakeup_coalescing(self.mode.coalesce())
            .with_dvfs(self.dvfs.plan())
    }

    /// Executes the run and summarises the report. A point that deadlocks
    /// (or fails static analysis) returns a failed record with the
    /// appropriate [`RunStatus`] instead of aborting; a panic propagates
    /// here, and [`sweep`] turns it into a record.
    ///
    /// Builds its own program; a sweep builds each program once per
    /// request and shares it, with records equal to this method's.
    pub fn run(&self) -> RunRecord {
        let program = generate_workload(self.benchmark, self.workload_seed);
        self.run_program(&program, SimLimits::insts(self.budget))
    }

    /// Static pre-flight findings for this point under its default run
    /// limits — a pure function of the spec (no simulation, no chaos
    /// arming), so it is recomputable from a cache blob and identical
    /// across worker schedules.
    pub fn static_findings(&self) -> Vec<Finding> {
        self.static_findings_with(&SimLimits::insts(self.budget))
    }

    /// Static pre-flight findings under explicit limits (the `--check`
    /// path passes the chaos-armed limits so a planned wedge shows up in
    /// the finding table). DVFS range errors are caught *before* the
    /// config is built — the clock constructors assert on factors below
    /// 1.0, and an analysis pass must out-run the assert.
    pub fn static_findings_with(&self, limits: &SimLimits) -> Vec<Finding> {
        let plan = self.dvfs.plan();
        let mut pre = checks::dvfs(&plan.slowdown);
        pre.extend(checks::dvfs_uniform_on_sync(
            matches!(self.mode, ModePoint::Synchronous),
            &plan.slowdown,
        ));
        if !pre.is_empty() {
            return pre;
        }
        gals_core::analyze(&self.config(), limits).findings
    }

    /// Simulates `program`, which must be this spec's workload at its
    /// workload seed, under `limits`.
    fn run_program(&self, program: &Program, limits: SimLimits) -> RunRecord {
        match simulate(program, self.config(), limits) {
            Ok(report) => RunRecord::new(self, &report),
            Err(SimError::Deadlock(report)) => {
                RunRecord::failed(self, RunStatus::Deadlocked { report })
            }
            Err(e @ SimError::InvalidConfig(_)) => {
                RunRecord::failed(self, RunStatus::Panicked { msg: e.to_string() })
            }
        }
    }

    /// The canonical content identity of this run — [`RunKey::of`].
    pub fn key(&self) -> RunKey {
        RunKey::of(self)
    }

    /// The [`ProcessorConfig::stable_identity`] contribution to the run
    /// key. Mirrors [`RunSpec::static_findings_with`]'s pre-check: an
    /// invalid DVFS point would assert inside the clock constructors,
    /// and a key must be computable for *every* spec (the sweep keys
    /// points that will fail at run time too), so a statically rejected
    /// config is keyed by its rejection code instead.
    fn config_identity(&self) -> String {
        let plan = self.dvfs.plan();
        let mut pre = checks::dvfs(&plan.slowdown);
        pre.extend(checks::dvfs_uniform_on_sync(
            matches!(self.mode, ModePoint::Synchronous),
            &plan.slowdown,
        ));
        match pre.first() {
            None => self.config().stable_identity(),
            Some(f) => format!("invalid:{}", f.code),
        }
    }
}

/// The canonical content identity of one matrix point: an FNV-1a hash
/// (see [`stable_hash`]) of everything that determines the run's
/// simulation output — schema version, workload identity
/// ([`Workload::identity`]: the plain benchmark name for profiles, a
/// content-addressed `prog:<kernel>#<hash>` for `.gasm` kernels, so
/// editing a kernel source changes its keys), mode point (clocking
/// family, handshake duration, transfer model, wakeup features), DVFS
/// label and per-domain slowdowns, phase seed, workload seed, budget, and
/// the [`ProcessorConfig::stable_identity`] of the configuration the spec
/// builds. Two specs with equal keys produce bit-identical records.
///
/// Execution policy — thread count, cache settings — is deliberately
/// **excluded**: it changes how fast the answer arrives, never what is
/// simulated. That split is what makes the key safe to use as a cache
/// address: the result cache ([`ResultCache`]) names its blobs by
/// `RunKey`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunKey(u64);

impl RunKey {
    /// Computes the content key of a run spec.
    pub fn of(spec: &RunSpec) -> RunKey {
        let canon = format!(
            "v{}|{}|{}|{}|{:?}|{}|{}|{}|{}",
            SCHEMA_VERSION,
            spec.benchmark.identity(),
            spec.mode.label(),
            spec.dvfs.label,
            spec.dvfs.slowdown,
            spec.phase_seed,
            spec.workload_seed,
            spec.budget,
            spec.config_identity(),
        );
        RunKey(stable_hash::fnv1a(canon.as_bytes()))
    }

    /// The raw 64-bit hash value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The canonical on-disk rendering: 16 lower-case hex digits
    /// ([`stable_hash::hex16`]) — a cache blob's `key` field and file
    /// stem.
    pub fn to_hex(self) -> String {
        stable_hash::hex16(self.0)
    }

    /// Parses the canonical 16-hex-digit rendering back; `None` for
    /// anything that is not exactly what [`RunKey::to_hex`] produces.
    pub fn from_hex(s: &str) -> Option<RunKey> {
        if s.len() != 16
            || !s
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(RunKey)
    }
}

/// How one matrix point ended — recorded per run in the report, so one
/// bad point cannot cost the rest of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    /// The run completed and its metrics are valid.
    Ok,
    /// The run panicked; the record's metrics are zeroed.
    Panicked {
        /// The panic payload (or the configuration error), verbatim.
        msg: String,
    },
    /// The simulated machine stopped making progress; the boxed report is
    /// the simulator's deterministic snapshot of the stuck state.
    Deadlocked {
        /// Structured diagnostics — deterministic for a given point, so
        /// the wedge is reproducible from the report alone.
        report: Box<DeadlockReport>,
    },
}

impl RunStatus {
    /// True for a completed run with valid metrics.
    pub fn is_ok(&self) -> bool {
        matches!(self, RunStatus::Ok)
    }

    /// The report's stable `status` label.
    pub fn label(&self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Panicked { .. } => "panicked",
            RunStatus::Deadlocked { .. } => "deadlocked",
        }
    }
}

/// The per-run summary recorded in the report — the [`SimReport`] fields
/// the paper's figures are computed from, flattened to plain numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The spec that produced this record.
    pub spec: RunSpec,
    /// How the run ended. Every metric below is zero unless this is
    /// [`RunStatus::Ok`].
    pub status: RunStatus,
    /// Static pre-flight findings for this point
    /// ([`RunSpec::static_findings`]) — empty for every clean config,
    /// which is the whole paper matrix. A pure function of the spec, so
    /// a cache hit recomputes it bit-identically.
    pub analysis: Vec<Finding>,
    /// Committed (architectural) instructions.
    pub committed: u64,
    /// Total fetched (correct + wrong path).
    pub fetched: u64,
    /// Wrong-path fetches.
    pub wrong_path_fetched: u64,
    /// Simulated wall-clock time in femtoseconds.
    pub exec_time_fs: u64,
    /// Committed instructions per simulated nanosecond.
    pub insts_per_ns: f64,
    /// Mean fetch-to-commit latency in femtoseconds.
    pub mean_slip_fs: u64,
    /// Fraction of slip spent in inter-domain channels.
    pub fifo_slip_fraction: f64,
    /// Wrong-path fraction of issued instructions.
    pub misspeculation_rate: f64,
    /// Total channel pushes + pops.
    pub channel_ops: u64,
    /// Total clock-stretch events (pausible only).
    pub total_stretches: u64,
    /// Total stretch time across domains in femtoseconds.
    pub stretch_time_fs: u64,
    /// Total producer cycles blocked on occupied rendezvous ports
    /// (rendezvous pausible points only; zero everywhere else).
    pub rendezvous_block_cycles: u64,
    /// Slowest measured per-domain effective frequency in GHz.
    pub min_effective_ghz: f64,
    /// Total energy in relative units.
    pub total_energy: f64,
    /// Average power (energy units per second).
    pub average_power: f64,
}

impl RunRecord {
    fn new(spec: &RunSpec, r: &SimReport) -> Self {
        RunRecord {
            spec: spec.clone(),
            status: RunStatus::Ok,
            analysis: spec.static_findings(),
            committed: r.committed,
            fetched: r.fetched,
            wrong_path_fetched: r.wrong_path_fetched,
            exec_time_fs: r.exec_time.as_fs(),
            insts_per_ns: r.insts_per_ns(),
            mean_slip_fs: r.mean_slip().as_fs(),
            fifo_slip_fraction: r.fifo_slip_fraction(),
            misspeculation_rate: r.misspeculation_rate(),
            channel_ops: r.channel_ops,
            total_stretches: r.total_stretches(),
            stretch_time_fs: r.stretch_time.iter().map(|t| t.as_fs()).sum(),
            rendezvous_block_cycles: r.total_rendezvous_blocked(),
            min_effective_ghz: Domain::ALL
                .iter()
                .map(|&d| r.effective_ghz(d))
                .fold(f64::INFINITY, f64::min)
                .min(f64::MAX), // empty-run guard: never serialise inf
            total_energy: r.total_energy(),
            average_power: r.average_power(),
        }
    }

    /// A failed run: the status carries the diagnostics, every metric is
    /// zeroed (failed records are excluded from the derived tables).
    fn failed(spec: &RunSpec, status: RunStatus) -> Self {
        RunRecord {
            spec: spec.clone(),
            status,
            analysis: spec.static_findings(),
            committed: 0,
            fetched: 0,
            wrong_path_fetched: 0,
            exec_time_fs: 0,
            insts_per_ns: 0.0,
            mean_slip_fs: 0,
            fifo_slip_fraction: 0.0,
            misspeculation_rate: 0.0,
            channel_ops: 0,
            total_stretches: 0,
            stretch_time_fs: 0,
            rendezvous_block_cycles: 0,
            min_effective_ghz: 0.0,
            total_energy: 0.0,
            average_power: 0.0,
        }
    }

    /// One run as a single-line JSON object — exactly the element the
    /// report's `runs` array contains (the report adds only indentation
    /// and commas). One rendering path means cached and fresh records are
    /// bit-identical by construction.
    pub fn to_json_object(&self) -> String {
        let mut s = String::new();
        let handshake = match self.spec.mode.handshake_ps() {
            Some(ps) => ps.to_string(),
            None => "null".into(),
        };
        let pausible_model = match self.spec.mode.pausible_model() {
            Some(m) => format!("\"{m}\""),
            None => "null".into(),
        };
        let _ = write!(
            s,
            "{{\"index\": {}, \"benchmark\": \"{}\", \"clocking\": \"{}\", \
             \"mode\": \"{}\", \"handshake_ps\": {}, \"pausible_model\": {}, \
             \"wakeup_filter\": {}, \
             \"coalesce_wakeup\": {}, \"dvfs\": \"{}\", \"phase_seed\": {}, \
             \"committed\": {}, \"fetched\": {}, \"wrong_path_fetched\": {}, \
             \"exec_time_fs\": {}, \"insts_per_ns\": {:.6}, \"mean_slip_fs\": {}, \
             \"fifo_slip_fraction\": {:.6}, \"misspeculation_rate\": {:.6}, \
             \"channel_ops\": {}, \"total_stretches\": {}, \"stretch_time_fs\": {}, \
             \"rendezvous_block_cycles\": {}, \
             \"min_effective_ghz\": {:.6}, \"total_energy\": {:.3}, \
             \"average_power\": {:.6}",
            self.spec.index,
            self.spec.benchmark.name(),
            self.spec.mode.clocking(),
            self.spec.mode.label(),
            handshake,
            pausible_model,
            self.spec.mode.wakeup_filter(),
            self.spec.mode.coalesce(),
            json_escape(&self.spec.dvfs.label),
            self.spec.phase_seed,
            self.committed,
            self.fetched,
            self.wrong_path_fetched,
            self.exec_time_fs,
            self.insts_per_ns,
            self.mean_slip_fs,
            self.fifo_slip_fraction,
            self.misspeculation_rate,
            self.channel_ops,
            self.total_stretches,
            self.stretch_time_fs,
            self.rendezvous_block_cycles,
            self.min_effective_ghz,
            self.total_energy,
            self.average_power,
        );
        let _ = write!(s, ", \"status\": \"{}\"", self.status.label());
        match &self.status {
            RunStatus::Panicked { msg } => {
                let _ = write!(s, ", \"panic_msg\": \"{}\"", json_escape(msg));
            }
            RunStatus::Deadlocked { report } => {
                let _ = write!(s, ", \"deadlock\": {}", deadlock_json(report));
            }
            RunStatus::Ok => {}
        }
        // v5: the static analyzer's pre-flight findings, omitted when
        // clean so a clean sweep's report shape matches v4 plus nothing.
        if !self.analysis.is_empty() {
            let list: Vec<String> = self.analysis.iter().map(|f| f.json()).collect();
            let _ = write!(s, ", \"analysis\": [{}]", list.join(", "));
        }
        s.push('}');
        s
    }
}

/// The complete result of one sweep: every run record in matrix order,
/// plus the matrix metadata the report echoes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResults {
    /// The matrix that was run.
    pub matrix: SweepMatrix,
    /// Run records, ordered by [`RunSpec::index`].
    pub runs: Vec<RunRecord>,
}

/// Execution policy for a sweep: worker count and the result cache. The
/// matrix stays purely declarative — these knobs change how a sweep
/// executes, never what it simulates (none of them reaches a [`RunKey`]).
///
/// `#[non_exhaustive]`: construct through the builder —
/// `SweepOptions::new().threads(8).cache(dir)` — so future policy fields
/// stop being breaking changes.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SweepOptions {
    /// Worker threads (0 or 1 = serial). The result is bit-identical for
    /// every value.
    pub threads: usize,
    /// Content-addressed result cache directory ([`ResultCache`]): looked
    /// up before simulating, written after every completed run. `None`
    /// disables caching. Rerunning a killed or failed sweep on the same
    /// directory simulates only the points that have no blob.
    pub cache: Option<PathBuf>,
    /// Deterministic fault injection (the `chaos` feature).
    #[cfg(feature = "chaos")]
    pub faults: FaultPlan,
}

impl SweepOptions {
    /// Default options: host-serial, no cache. The start of every builder
    /// chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the content-addressed result cache directory.
    #[must_use]
    pub fn cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache = Some(dir.into());
        self
    }

    /// Arms a deterministic fault-injection plan (the `chaos` feature).
    #[cfg(feature = "chaos")]
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Deterministic fault injection: which matrix points to sabotage, and
/// how. Only compiled under the `chaos` feature; an empty (default) plan
/// leaves the sweep bit-identical to a non-chaos build.
#[cfg(feature = "chaos")]
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Matrix indices that panic (message:
    /// `chaos: injected panic at matrix point <i>`).
    pub panic_at: Vec<usize>,
    /// Matrix indices whose pipeline wedges: the completion of one chosen
    /// instruction is withheld ([`gals_core::ChaosFaults`]), so the ROB
    /// head never retires and the real deadlock detectors fire.
    pub wedge_at: Vec<usize>,
    /// Sequence-number threshold past which a wedged run withholds every
    /// writeback ([`gals_core::ChaosFaults::withhold_writeback`]). Must be
    /// at or below the run budget — sequence numbers grow at least as
    /// fast as commits, so that guarantees a correct-path instruction
    /// trips the threshold and wedges commit before the budget is met;
    /// past the budget the fault may never arm (then a no-op).
    pub wedge_after_seq: u64,
    /// Watchdog window (slow-domain cycles) applied to wedged runs so the
    /// wedge is detected promptly even when a domain keeps ticking.
    pub wedge_watchdog_cycles: u64,
}

#[cfg(feature = "chaos")]
impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            panic_at: Vec::new(),
            wedge_at: Vec::new(),
            wedge_after_seq: 200,
            wedge_watchdog_cycles: 5_000,
        }
    }
}

#[cfg(feature = "chaos")]
impl FaultPlan {
    /// True when no fault is armed.
    pub fn is_empty(&self) -> bool {
        self.panic_at.is_empty() && self.wedge_at.is_empty()
    }

    /// A seeded plan choosing `panics` + `wedges` distinct victim indices
    /// out of `run_count` (splitmix64; deterministic for a given seed).
    pub fn seeded(seed: u64, run_count: usize, panics: usize, wedges: usize) -> Self {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut chosen: Vec<usize> = Vec::new();
        let want = (panics + wedges).min(run_count);
        while chosen.len() < want {
            let i = (next() % run_count.max(1) as u64) as usize;
            if !chosen.contains(&i) {
                chosen.push(i);
            }
        }
        let panic_at: Vec<usize> = chosen.iter().copied().take(panics).collect();
        let wedge_at: Vec<usize> = chosen.iter().copied().skip(panics).collect();
        FaultPlan {
            panic_at,
            wedge_at,
            ..FaultPlan::default()
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// A request's program for one `(workload, workload_seed)`, built by the
/// first point that simulates it and shared by the rest: the paper runs
/// identical binaries on every clocking and DVFS point.
type ProgramSlot = Arc<OnceLock<Program>>;

/// The program slot of each spec, in spec order: specs with equal
/// `(benchmark, workload_seed)` share one slot. Every slot starts empty.
fn program_slots(specs: &[RunSpec]) -> Vec<ProgramSlot> {
    let mut distinct: Vec<((Workload, u64), ProgramSlot)> = Vec::new();
    specs
        .iter()
        .map(|spec| {
            let id = (spec.benchmark, spec.workload_seed);
            if let Some((_, slot)) = distinct.iter().find(|(d, _)| *d == id) {
                return Arc::clone(slot);
            }
            let slot = ProgramSlot::default();
            distinct.push((id, Arc::clone(&slot)));
            slot
        })
        .collect()
}

/// The limits one matrix point actually runs under: the spec's budget,
/// with any armed chaos faults applied (chaos builds only). Shared by
/// the execution path ([`run_point`]) and the static path
/// ([`check_matrix`]), so `sweep --check` vets exactly the limits the
/// sweep would simulate with — a planned wedge shows up in the table.
fn armed_limits(spec: &RunSpec, opts: &SweepOptions) -> SimLimits {
    #[cfg_attr(not(feature = "chaos"), allow(unused_mut))]
    let mut limits = SimLimits::insts(spec.budget);
    #[cfg(not(feature = "chaos"))]
    let _ = opts;
    #[cfg(feature = "chaos")]
    if opts.faults.wedge_at.contains(&spec.index) {
        limits.chaos.withhold_writeback = Some(opts.faults.wedge_after_seq);
        limits.watchdog_cycles = opts.faults.wedge_watchdog_cycles;
    }
    limits
}

/// Statically vets every point of a matrix without simulating a cycle:
/// each spec is analyzed under the limits it would actually run with
/// (including any armed chaos faults) and its findings returned in
/// matrix order — milliseconds for the full paper matrix. Powers
/// `sweep --check` (exit code 4 on any warning-or-worse finding).
pub fn check_matrix(matrix: &SweepMatrix, opts: &SweepOptions) -> Vec<(RunSpec, Vec<Finding>)> {
    matrix
        .expand()
        .into_iter()
        .map(|spec| {
            let limits = armed_limits(&spec, opts);
            let findings = spec.static_findings_with(&limits);
            (spec, findings)
        })
        .collect()
}

/// One matrix point end to end, on the worker that picked it up: fault
/// arming (chaos builds), the point's shared program slot, and
/// `catch_unwind`, so a panic becomes this point's record. The slot is
/// filled inside the `catch_unwind`: a generation panic leaves it empty
/// for the next point that needs it.
fn run_point(spec: &RunSpec, program: &OnceLock<Program>, opts: &SweepOptions) -> RunRecord {
    let limits = armed_limits(spec, opts);
    #[cfg(feature = "chaos")]
    let inject_panic = opts.faults.panic_at.contains(&spec.index);
    #[cfg(not(feature = "chaos"))]
    let inject_panic = false;
    catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("chaos: injected panic at matrix point {}", spec.index);
        }
        let program = program.get_or_init(|| generate_workload(spec.benchmark, spec.workload_seed));
        spec.run_program(program, limits)
    }))
    .unwrap_or_else(|payload| {
        RunRecord::failed(
            spec,
            RunStatus::Panicked {
                msg: panic_message(payload.as_ref()),
            },
        )
    })
}

/// A complete sweep request: the declarative matrix (what to simulate)
/// plus the execution policy (how to run it), consumed by [`sweep`].
///
/// `#[non_exhaustive]`: construct with
/// `SweepRequest::new(matrix).with_options(...)`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SweepRequest {
    /// The matrix to run. Only this (plus the schema version) reaches a
    /// [`RunKey`] — two requests with equal matrices share cache entries
    /// regardless of policy.
    pub matrix: SweepMatrix,
    /// Execution policy: threads and cache.
    pub options: SweepOptions,
}

impl SweepRequest {
    /// A request for `matrix` under default [`SweepOptions`].
    pub fn new(matrix: SweepMatrix) -> Self {
        SweepRequest {
            matrix,
            options: SweepOptions::default(),
        }
    }

    /// Replaces the execution policy.
    #[must_use]
    pub fn with_options(mut self, options: SweepOptions) -> Self {
        self.options = options;
        self
    }
}

/// What a sweep produced, and how: the results themselves plus the
/// provenance split between freshly simulated points and cache traffic.
/// [`SweepResponse::results`] is bit-identical however the records were
/// obtained (fresh or cached, any thread count).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SweepResponse {
    /// Every run record in matrix order, plus the derived tables
    /// (rendered via [`SweepResults::to_json`]).
    pub results: SweepResults,
    /// Points actually simulated by this call (not served from cache).
    pub simulated: usize,
    /// The cache handle's traffic counters ([`ResultCache::stats`]);
    /// all-zero when no cache is configured.
    pub cache: CacheStats,
}

/// Executes a [`SweepRequest`] and returns the complete [`SweepResponse`].
///
/// With a cache configured, every point whose blob loads is a hit. The
/// misses run on `threads` scoped workers, which take matrix indices from
/// one atomic cursor and run each point under `catch_unwind`
/// ([`RunStatus`]). Points that run the same `(workload, workload_seed)`
/// share one program. `ok` records go to the cache, and records come back
/// by matrix index, so the response is bit-identical for every thread
/// count and every mix of hits and misses.
///
/// # Errors
///
/// Cache I/O problems: the directory cannot be created or a blob cannot
/// be written. Simulation failures are *not* errors — they are per-run
/// [`RunStatus`] records.
pub fn sweep(request: &SweepRequest) -> Result<SweepResponse, String> {
    let opts = &request.options;
    let specs = request.matrix.expand();
    let keys: Vec<RunKey> = specs.iter().map(RunKey::of).collect();
    let cache = match &opts.cache {
        Some(dir) => Some(ResultCache::open(dir)?),
        None => None,
    };
    let mut runs: Vec<Option<RunRecord>> = match &cache {
        Some(cache) => specs
            .iter()
            .zip(&keys)
            .map(|(spec, &key)| cache.load(key, spec))
            .collect(),
        None => vec![None; specs.len()],
    };
    let misses: Vec<usize> = (0..specs.len()).filter(|&i| runs[i].is_none()).collect();
    let programs = program_slots(&specs);
    let cursor = AtomicUsize::new(0);
    let work = || -> Result<Vec<RunRecord>, String> {
        let mut done = Vec::new();
        while let Some(&i) = misses.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let record = run_point(&specs[i], &programs[i], opts);
            if let Some(cache) = &cache {
                cache.store(&record, keys[i])?;
            }
            done.push(record);
        }
        Ok(done)
    };
    let workers = opts.threads.max(1).min(misses.len());
    let fresh: Vec<Result<Vec<RunRecord>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                std::thread::Builder::new()
                    .name(format!("sweep-worker-{w}"))
                    .spawn_scoped(scope, work)
                    .expect("cannot spawn a sweep worker")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a sweep worker catches every run's panic"))
            .collect()
    });
    for batch in fresh.into_iter().collect::<Result<Vec<_>, _>>()? {
        for record in batch {
            let index = record.spec.index;
            runs[index] = Some(record);
        }
    }
    Ok(SweepResponse {
        results: SweepResults {
            matrix: request.matrix.clone(),
            runs: runs
                .into_iter()
                .map(|r| r.expect("every point is a cache hit or was run"))
                .collect(),
        },
        simulated: misses.len(),
        cache: cache.map_or_else(CacheStats::default, |c| c.stats()),
    })
}

/// Renders a [`DeadlockReport`] as the report's structured `deadlock`
/// object. Channel/port occupancies use the simulator's compact
/// `len/capacity[r]` notation (`r` marks a rendezvous port).
fn deadlock_json(r: &DeadlockReport) -> String {
    fn nums<T: std::fmt::Display>(xs: &[T]) -> String {
        xs.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    }
    fn ports(ps: &[PortState]) -> String {
        ps.iter()
            .map(|p| format!("\"{p}\""))
            .collect::<Vec<_>>()
            .join(", ")
    }
    fn opt(o: Option<u64>) -> String {
        o.map_or_else(|| "null".into(), |v| v.to_string())
    }
    format!(
        "{{\"time_fs\": {}, \"last_commit_fs\": {}, \
         \"watchdog_cycles\": {}, \"committed\": {}, \
         \"rob_len\": {}, \"rob_head_seq\": {}, \"decode_buf_len\": {}, \
         \"iq_len\": [{}], \"writeback_pending_len\": [{}], \
         \"ch_fetch_decode\": \"{}\", \"ch_dispatch\": [{}], \
         \"ch_complete\": [{}], \"ch_redirect\": \"{}\", \
         \"ch_wakeup_total\": {}, \"rendezvous_blocked\": [{}], \
         \"pending_recovery\": {}, \"fetch_halted\": {}, \"wrong_path\": {}, \
         \"static_finding\": {}}}",
        r.now.as_fs(),
        r.last_commit_time.as_fs(),
        r.watchdog_cycles,
        r.committed,
        r.rob_len,
        opt(r.rob_head_seq),
        r.decode_buf_len,
        nums(&r.iq_len),
        nums(&r.writeback_pending_len),
        r.ch_fetch_decode,
        ports(&r.ch_dispatch),
        ports(&r.ch_complete),
        r.ch_redirect,
        r.ch_wakeup_total,
        nums(&r.rendezvous_blocked),
        opt(r.pending_recovery),
        r.fetch_halted,
        r.wrong_path,
        r.static_finding
            .as_ref()
            .map_or_else(|| "null".into(), |c| format!("\"{}\"", json_escape(c))),
    )
}

/// Geometric mean; `None` for an empty slice or non-positive values.
fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || x.is_nan()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Min/mean/max of a per-seed metric across the phase-seed axis (equal
/// values for a single-seed matrix).
#[derive(Debug, Clone, Copy, PartialEq)]
struct SeedSpread {
    min: f64,
    mean: f64,
    max: f64,
}

fn spread(values: &[f64]) -> Option<SeedSpread> {
    if values.is_empty() {
        return None;
    }
    Some(SeedSpread {
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        mean: values.iter().sum::<f64>() / values.len() as f64,
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    })
}

fn spread_fields(s: &mut String, name: &str, v: Option<SeedSpread>) {
    match v {
        Some(sp) => {
            let _ = write!(
                s,
                "\"{name}\": {:.6}, \"{name}_min\": {:.6}, \"{name}_max\": {:.6}",
                sp.mean, sp.min, sp.max
            );
        }
        None => {
            let _ = write!(
                s,
                "\"{name}\": null, \"{name}_min\": null, \"{name}_max\": null"
            );
        }
    }
}

impl SweepResults {
    /// The record of `(benchmark, mode, dvfs-label)` at one phase seed, if
    /// that matrix point ran *and succeeded* — failed runs carry zeroed
    /// metrics and must never contribute to a derived table.
    fn find(
        &self,
        benchmark: Workload,
        mode: ModePoint,
        dvfs_label: &str,
        seed: u64,
    ) -> Option<&RunRecord> {
        self.runs.iter().find(|r| {
            r.status.is_ok()
                && r.spec.benchmark == benchmark
                && r.spec.mode == mode
                && r.spec.dvfs.label == dvfs_label
                && r.spec.phase_seed == seed
        })
    }

    /// Number of runs that did not end [`RunStatus::Ok`] (the report's
    /// `failed_count`; the `sweep` binary exits non-zero when positive).
    pub fn failed_count(&self) -> usize {
        self.runs.iter().filter(|r| !r.status.is_ok()).count()
    }

    /// Geomean over benchmarks, at one phase seed, of a per-benchmark
    /// ratio between two modes at nominal DVFS:
    /// `metric(mode) / metric(baseline)`.
    fn mode_ratio_at(
        &self,
        seed: u64,
        mode: ModePoint,
        baseline: ModePoint,
        metric: &impl Fn(&RunRecord) -> f64,
    ) -> Option<(f64, usize)> {
        let ratios: Vec<f64> = self
            .matrix
            .benchmarks
            .iter()
            .filter_map(|&b| {
                let num = metric(self.find(b, mode, "nominal", seed)?);
                let den = metric(self.find(b, baseline, "nominal", seed)?);
                (den > 0.0).then_some(num / den)
            })
            .collect();
        geomean(&ratios).map(|g| (g, ratios.len()))
    }

    /// Min/mean/max across phase seeds of the per-seed
    /// [`SweepResults::mode_ratio_at`] geomean, with the benchmark count
    /// of the first contributing seed.
    fn mode_ratio(
        &self,
        mode: ModePoint,
        baseline: ModePoint,
        metric: impl Fn(&RunRecord) -> f64,
    ) -> Option<(SeedSpread, usize)> {
        let mut per_seed = Vec::new();
        let mut benchmarks = 0;
        for &seed in &self.matrix.phase_seeds {
            if let Some((g, n)) = self.mode_ratio_at(seed, mode, baseline, &metric) {
                per_seed.push(g);
                if benchmarks == 0 {
                    benchmarks = n;
                }
            }
        }
        spread(&per_seed).map(|sp| (sp, benchmarks))
    }

    /// Number of phase seeds in the matrix (echoed into the tables).
    fn seed_count(&self) -> usize {
        self.matrix.phase_seeds.len()
    }

    /// Renders the schema-versioned JSON report (see the crate docs for
    /// the schema).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"tool\": \"gals-sweep\",");
        let _ = writeln!(s, "  \"budget\": {},", self.matrix.budget);
        let _ = writeln!(s, "  \"workload_seed\": {},", self.matrix.workload_seed);
        let _ = writeln!(s, "  \"run_count\": {},", self.runs.len());
        let _ = writeln!(s, "  \"failed_count\": {},", self.failed_count());
        s.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let comma = if i + 1 == self.runs.len() { "" } else { "," };
            s.push_str("    ");
            s.push_str(&r.to_json_object());
            s.push_str(comma);
            s.push('\n');
        }
        s.push_str("  ],\n");
        s.push_str("  \"tables\": {\n");
        self.tables_body(&mut s);
        s.push_str("  }\n}\n");
        s
    }

    /// Writes the members of the report's `tables` object (indented
    /// multi-line form, no surrounding braces).
    fn tables_body(&self, s: &mut String) {
        self.write_handshake_table(s);
        self.write_rendezvous_table(s);
        self.write_dvfs_table(s);
        self.write_feature_table(s);
    }

    /// Figure: pausible slowdown vs handshake duration (nominal DVFS,
    /// plain *latched* pausible points), against both the FIFO-GALS and
    /// synchronous baselines; min/mean/max across phase seeds.
    fn write_handshake_table(&self, s: &mut String) {
        s.push_str("    \"pausible_slowdown_vs_handshake\": [\n");
        let mut rows = Vec::new();
        for mode in &self.matrix.modes {
            let ModePoint::Pausible {
                handshake_ps,
                coalesce: false,
                wakeup_filter: false,
                rendezvous: false,
            } = *mode
            else {
                continue;
            };
            let gals = ModePoint::Gals {
                wakeup_filter: false,
            };
            let exec = |r: &RunRecord| r.exec_time_fs as f64;
            let Some((vs_gals, n)) = self.mode_ratio(*mode, gals, exec) else {
                continue;
            };
            let vs_sync = self
                .mode_ratio(*mode, ModePoint::Synchronous, exec)
                .map(|(g, _)| g);
            let mut row = format!(
                "      {{\"handshake_ps\": {handshake_ps}, \"benchmarks\": {n}, \
                 \"seeds\": {}, ",
                self.seed_count()
            );
            spread_fields(&mut row, "geomean_slowdown_vs_gals", Some(vs_gals));
            row.push_str(", ");
            spread_fields(&mut row, "geomean_slowdown_vs_sync", vs_sync);
            row.push('}');
            rows.push(row);
        }
        s.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            s.push('\n');
        }
        s.push_str("    ],\n");
    }

    /// Table: the capacity cost of unbuffered pausible transfers — for
    /// each handshake duration with both plain transfer-model points in
    /// the matrix, the execution-time ratio of the rendezvous machine
    /// over the latched one (nominal DVFS, geomean over benchmarks,
    /// min/mean/max across phase seeds).
    fn write_rendezvous_table(&self, s: &mut String) {
        s.push_str("    \"rendezvous_vs_latched\": [\n");
        let mut rows = Vec::new();
        for mode in &self.matrix.modes {
            let ModePoint::Pausible {
                handshake_ps,
                coalesce: false,
                wakeup_filter: false,
                rendezvous: true,
            } = *mode
            else {
                continue;
            };
            let latched = ModePoint::Pausible {
                handshake_ps,
                coalesce: false,
                wakeup_filter: false,
                rendezvous: false,
            };
            if !self.matrix.modes.contains(&latched) {
                continue;
            }
            let Some((vs_latched, n)) = self.mode_ratio(*mode, latched, |r| r.exec_time_fs as f64)
            else {
                continue;
            };
            let mut row = format!(
                "      {{\"handshake_ps\": {handshake_ps}, \"benchmarks\": {n}, \
                 \"seeds\": {}, ",
                self.seed_count()
            );
            spread_fields(&mut row, "geomean_slowdown_vs_latched", Some(vs_latched));
            row.push('}');
            rows.push(row);
        }
        s.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            s.push('\n');
        }
        s.push_str("    ],\n");
    }

    /// Figure: energy/performance vs frequency point (the DVFS axis on the
    /// plain FIFO-GALS machine, relative to its nominal point); min/mean/
    /// max across phase seeds.
    fn write_dvfs_table(&self, s: &mut String) {
        s.push_str("    \"energy_perf_vs_frequency\": [\n");
        let gals = ModePoint::Gals {
            wakeup_filter: false,
        };
        let mut rows = Vec::new();
        for point in &self.matrix.dvfs {
            let mut perf_seeds = Vec::new();
            let mut energy_seeds = Vec::new();
            let mut power_seeds = Vec::new();
            let mut benchmarks = 0;
            for &seed in &self.matrix.phase_seeds {
                let mut perf = Vec::new();
                let mut energy = Vec::new();
                let mut power = Vec::new();
                for &b in &self.matrix.benchmarks {
                    let (Some(run), Some(nominal)) = (
                        self.find(b, gals, &point.label, seed),
                        self.find(b, gals, "nominal", seed),
                    ) else {
                        continue;
                    };
                    if run.exec_time_fs == 0 || nominal.exec_time_fs == 0 {
                        continue;
                    }
                    // Relative performance: nominal time over scaled time
                    // (1.0 = nominal speed, < 1 = slower).
                    perf.push(nominal.exec_time_fs as f64 / run.exec_time_fs as f64);
                    if nominal.total_energy > 0.0 {
                        energy.push(run.total_energy / nominal.total_energy);
                    }
                    if nominal.average_power > 0.0 {
                        power.push(run.average_power / nominal.average_power);
                    }
                }
                let (Some(p), Some(e), Some(w)) =
                    (geomean(&perf), geomean(&energy), geomean(&power))
                else {
                    continue;
                };
                perf_seeds.push(p);
                energy_seeds.push(e);
                power_seeds.push(w);
                if benchmarks == 0 {
                    benchmarks = perf.len();
                }
            }
            let (Some(p), Some(e), Some(w)) = (
                spread(&perf_seeds),
                spread(&energy_seeds),
                spread(&power_seeds),
            ) else {
                continue;
            };
            let mut row = format!(
                "      {{\"dvfs\": \"{}\", \"benchmarks\": {benchmarks}, \"seeds\": {}, ",
                json_escape(&point.label),
                self.seed_count()
            );
            spread_fields(&mut row, "geomean_relative_performance", Some(p));
            row.push_str(", ");
            spread_fields(&mut row, "geomean_relative_energy", Some(e));
            row.push_str(", ");
            spread_fields(&mut row, "geomean_relative_power", Some(w));
            row.push('}');
            rows.push(row);
        }
        s.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            s.push('\n');
        }
        s.push_str("    ],\n");
    }

    /// Table: the wakeup-path features (producer-side filter, handshake
    /// coalescing) against their featureless baseline mode; min/mean/max
    /// across phase seeds.
    fn write_feature_table(&self, s: &mut String) {
        s.push_str("    \"wakeup_feature_ablation\": [\n");
        let mut rows = Vec::new();
        for mode in &self.matrix.modes {
            let baseline = match *mode {
                ModePoint::Gals {
                    wakeup_filter: true,
                } => ModePoint::Gals {
                    wakeup_filter: false,
                },
                ModePoint::Pausible {
                    handshake_ps,
                    coalesce,
                    wakeup_filter,
                    rendezvous,
                } if coalesce || wakeup_filter => ModePoint::Pausible {
                    handshake_ps,
                    coalesce: false,
                    wakeup_filter: false,
                    rendezvous,
                },
                _ => continue,
            };
            if !self.matrix.modes.contains(&baseline) {
                continue;
            }
            let Some((ops, n)) = self.mode_ratio(*mode, baseline, |r| r.channel_ops as f64) else {
                continue;
            };
            let stretch = self
                .mode_ratio(*mode, baseline, |r| r.total_stretches as f64)
                .map(|(g, _)| g);
            let Some((exec, _)) = self.mode_ratio(*mode, baseline, |r| r.exec_time_fs as f64)
            else {
                continue;
            };
            let mut row = format!(
                "      {{\"mode\": \"{}\", \"baseline_mode\": \"{}\", \
                 \"benchmarks\": {n}, \"seeds\": {}, ",
                mode.label(),
                baseline.label(),
                self.seed_count()
            );
            spread_fields(&mut row, "geomean_channel_ops_ratio", Some(ops));
            row.push_str(", ");
            spread_fields(&mut row, "geomean_stretch_ratio", stretch);
            row.push_str(", ");
            spread_fields(&mut row, "geomean_exec_time_ratio", Some(exec));
            row.push('}');
            rows.push(row);
        }
        s.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            s.push('\n');
        }
        s.push_str("    ]\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix_file::{Json, Parser};

    fn tiny_matrix() -> SweepMatrix {
        SweepMatrix {
            benchmarks: vec![Workload::Profile(Benchmark::Adpcm)],
            modes: vec![
                ModePoint::Synchronous,
                ModePoint::Gals {
                    wakeup_filter: false,
                },
            ],
            dvfs: vec![
                DvfsPoint::nominal(),
                DvfsPoint::per_domain("fp2x", [1.0, 1.0, 1.0, 2.0, 1.0]),
            ],
            phase_seeds: vec![1],
            workload_seed: WORKLOAD_SEED,
            budget: 1_000,
        }
    }

    fn run(matrix: &SweepMatrix, threads: usize) -> SweepResults {
        let options = SweepOptions::new().threads(threads);
        sweep(&SweepRequest::new(matrix.clone()).with_options(options))
            .expect("a cache-less sweep has no fallible I/O")
            .results
    }

    #[test]
    fn specs_running_one_program_share_one_slot() {
        let mut matrix = tiny_matrix();
        matrix.benchmarks.push(Workload::Profile(Benchmark::Gcc));
        let specs = matrix.expand();
        let slots = program_slots(&specs);
        for (a, slot_a) in specs.iter().zip(&slots) {
            for (b, slot_b) in specs.iter().zip(&slots) {
                let same = a.benchmark == b.benchmark && a.workload_seed == b.workload_seed;
                assert_eq!(Arc::ptr_eq(slot_a, slot_b), same, "{a:?} / {b:?}");
            }
        }
        assert!(slots.iter().all(|s| s.get().is_none()), "slots start empty");
    }

    #[test]
    fn matrix_file_round_trips() {
        let mut matrix = SweepMatrix::paper_default(2_000);
        matrix.phase_seeds = vec![PHASE_SEED, 7, 99];
        matrix.dvfs.push(DvfsPoint::per_domain(
            "2\u{00d7} \"mem\"",
            [1.0, 1.0, 1.0, 1.0, 2.0],
        ));
        let rendered = matrix.to_matrix_json();
        let parsed = SweepMatrix::from_json(&rendered, 0).expect("rendered matrix parses");
        assert_eq!(parsed, matrix);
    }

    #[test]
    fn dvfs_labels_are_escaped_in_the_report_and_the_matrix_file() {
        let label = "fp \"2x\" \\ \r\u{1}";
        let mut matrix = tiny_matrix();
        matrix.dvfs[1].label = label.into();
        let json = run(&matrix, 1).to_json();
        let report = Parser::new(&json)
            .value()
            .expect("the report is valid JSON");
        let want = Some(&Json::Str(label.into()));
        let Some(Json::Arr(runs)) = report.get("runs") else {
            panic!("no runs array:\n{json}");
        };
        assert_eq!(runs[2].get("dvfs"), want, "{json}");
        let tables = report.get("tables").expect("tables");
        let Some(Json::Arr(rows)) = tables.get("energy_perf_vs_frequency") else {
            panic!("no DVFS table:\n{json}");
        };
        assert_eq!(rows[1].get("dvfs"), want, "{json}");

        let parsed = SweepMatrix::from_json(&matrix.to_matrix_json(), 0).expect("parses");
        assert_eq!(parsed, matrix);
    }

    #[test]
    fn matrix_file_defaults_and_overrides() {
        let text = r#"{
            "benchmarks": ["gcc"],
            "modes": ["gals"],
            "dvfs": ["uniform1.5x"],
            "phase_seeds": [3]
        }"#;
        let m = SweepMatrix::from_json(text, 4_321).expect("valid file");
        assert_eq!(m.budget, 4_321, "missing budget falls back to the default");
        assert_eq!(m.workload_seed, WORKLOAD_SEED);
        assert_eq!(m.dvfs[0], DvfsPoint::uniform(1.5));
        assert_eq!(
            m.modes[0],
            ModePoint::Gals {
                wakeup_filter: false
            }
        );
        assert!(SweepMatrix::from_json("not json", 1).is_err());
    }

    #[test]
    fn multi_seed_tables_report_min_mean_max() {
        let mut matrix = tiny_matrix();
        matrix.modes = vec![
            ModePoint::Synchronous,
            ModePoint::Gals {
                wakeup_filter: false,
            },
            ModePoint::Gals {
                wakeup_filter: true,
            },
        ];
        matrix.phase_seeds = vec![1, 2, 3];
        let results = run(&matrix, 2);
        let json = results.to_json();
        assert!(json.contains("\"seeds\": 3"), "{json}");
        assert!(json.contains("geomean_channel_ops_ratio_min"), "{json}");
        assert!(json.contains("geomean_channel_ops_ratio_max"), "{json}");
        // Spread fields must bracket the mean.
        let get = |key: &str| -> f64 {
            let needle = format!("\"{key}\": ");
            let at = json
                .find(&needle)
                .unwrap_or_else(|| panic!("{key} missing"))
                + needle.len();
            json[at..]
                .split([',', '}'])
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("{key} not a number"))
        };
        let (lo, mid, hi) = (
            get("geomean_channel_ops_ratio_min"),
            get("geomean_channel_ops_ratio"),
            get("geomean_channel_ops_ratio_max"),
        );
        assert!(
            lo <= mid && mid <= hi,
            "spread must bracket the mean: {lo} {mid} {hi}"
        );
        assert!(lo > 0.0);
    }

    #[test]
    fn expand_skips_nonuniform_dvfs_on_sync() {
        let specs = tiny_matrix().expand();
        // sync gets only the nominal point; gals gets both.
        assert_eq!(specs.len(), 3);
        assert!(specs
            .iter()
            .all(|s| !(s.mode == ModePoint::Synchronous && s.dvfs.label == "fp2x")));
        // Indices are dense and ordered.
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.index, i);
        }
    }

    #[test]
    fn paper_default_covers_the_acceptance_floor() {
        let specs = SweepMatrix::paper_default(2_000).expand();
        assert!(specs.len() >= 24, "matrix too small: {}", specs.len());
        // Every benchmark × clocking family appears.
        for kind in ["sync", "gals", "pausible"] {
            for b in [
                Benchmark::Gcc,
                Benchmark::Fpppp,
                Benchmark::Ijpeg,
                Benchmark::Compress,
            ] {
                assert!(
                    specs
                        .iter()
                        .any(|s| s.benchmark == Workload::Profile(b) && s.mode.clocking() == kind),
                    "missing {kind}/{b:?}"
                );
            }
        }
    }

    #[test]
    fn mode_labels_round_trip_the_feature_flags() {
        let m = ModePoint::Pausible {
            handshake_ps: 300,
            coalesce: true,
            wakeup_filter: false,
            rendezvous: false,
        };
        assert_eq!(m.label(), "pausible@300ps+coalesce");
        assert_eq!(m.clocking(), "pausible");
        assert_eq!(m.handshake_ps(), Some(300));
        assert_eq!(m.pausible_model(), Some("latched"));
        let rdv = ModePoint::Pausible {
            handshake_ps: 600,
            coalesce: false,
            wakeup_filter: false,
            rendezvous: true,
        };
        assert_eq!(rdv.label(), "pausible@600ps+rendezvous");
        assert_eq!(rdv.pausible_model(), Some("rendezvous"));
        assert_eq!(ModePoint::Synchronous.pausible_model(), None);
        assert_eq!(
            ModePoint::Gals {
                wakeup_filter: true
            }
            .label(),
            "gals+filter"
        );
        assert_eq!(ModePoint::Synchronous.label(), "sync");
    }

    #[test]
    fn sweep_fills_every_slot_in_matrix_order() {
        let results = run(&tiny_matrix(), 2);
        assert_eq!(results.runs.len(), 3);
        for (i, r) in results.runs.iter().enumerate() {
            assert_eq!(r.spec.index, i);
            assert_eq!(r.committed, 1_000);
            assert!(r.exec_time_fs > 0);
        }
    }

    #[test]
    fn json_is_schema_versioned_and_balanced() {
        let json = run(&tiny_matrix(), 1).to_json();
        assert!(json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(json.contains("\"runs\": ["));
        assert!(json.contains("\"tables\": {"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("NaN") && !json.contains("inf"));
        assert!(json.contains("\"failed_count\": 0"));
        assert!(json.contains("\"status\": \"ok\""));
    }

    #[test]
    fn failed_records_zero_metrics_and_render_with_status() {
        let specs = tiny_matrix().expand();
        let failed = RunRecord::failed(
            &specs[0],
            RunStatus::Panicked {
                msg: "boom with \"quotes\"".into(),
            },
        );
        assert_eq!(failed.committed, 0);
        assert!(!failed.status.is_ok());
        let mut results = run(&tiny_matrix(), 1);
        results.runs[0] = failed;
        let json = results.to_json();
        assert!(json.contains("\"failed_count\": 1"), "{json}");
        assert!(
            json.contains("\"status\": \"panicked\", \"panic_msg\": \"boom with \\\"quotes\\\"\""),
            "{json}"
        );
        // Balanced even with the escaped payload embedded.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
