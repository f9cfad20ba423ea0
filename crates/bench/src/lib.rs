//! # gals-bench
//!
//! The benchmark harness regenerating every table and figure of the paper.
//! Each `src/bin/*.rs` binary reproduces one table/figure (the mapping is
//! in `docs/ARCHITECTURE.md`); this library holds the shared runners, the
//! command-line parser ([`BenchCli`]) and table formatting.
//!
//! ## The scenario-sweep binary
//!
//! `cargo run --release --bin sweep -- [--budget N] [--threads N] [--out PATH]
//! [--matrix FILE | --check FILE] [--cache DIR]`
//! runs the default cartesian experiment matrix of the `gals-sweep` crate
//! — or, with `--matrix FILE`, a user-defined matrix loaded from JSON
//! (benchmark × clocking mode × pausible handshake duration × DVFS point ×
//! phase seed — see [`gals_sweep::SweepMatrix`] for the matrix format and
//! the `gals-sweep` crate docs for the full JSON schema) and writes the
//! schema-versioned report to `SWEEP_results.json`. The report is
//! bit-identical for every `--threads` value.
//!
//! Runs are fault-isolated: a matrix point that panics or deadlocks is
//! recorded with a structured `status` while every other point completes
//! normally; any failure turns the exit code into
//! [`exit_code::FAILED_RUNS`]. `--cache DIR` arms the content-addressed
//! result cache: points already simulated under the same `RunKey` are
//! served from disk, so rerunning a killed or failed sweep with the same
//! `--cache` simulates only what is missing. A `--features chaos` build
//! adds deterministic fault injection (`--chaos-panic`/`--chaos-wedge`)
//! for smoke-testing the whole failure path.
//!
//! ## Command lines
//!
//! Three binaries read their command line:
//!
//! * `sweep` takes the options above, parsed by [`BenchCli`];
//! * `ablation_pausible` takes `--budget N` (or a bare positional `N`) to
//!   override its committed-instruction budget, also through
//!   [`BenchCli`];
//! * `gasm` takes `[--seed N] [--fuel N] FILE...`.
//!
//! The other fifteen binaries ignore their arguments; those that simulate
//! always commit [`RUN_INSTS`] instructions per run. Exit codes are
//! uniform across binaries — the full contract lives on [`exit_code`].
//! JSON artifacts are written atomically ([`write_atomic`]): tmp file +
//! rename, never a torn report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use gals_clocks::Domain;
use gals_core::{simulate, DvfsPlan, ProcessorConfig, SimLimits, SimReport};
use gals_workload::{generate, Benchmark};

/// Committed-instruction budget per run. Large enough for steady-state
/// statistics, small enough that the full suite of experiments runs in
/// minutes.
pub const RUN_INSTS: u64 = 120_000;

/// Default workload seed (the "input set" of the synthetic benchmarks).
pub const WORKLOAD_SEED: u64 = 0x5EC9_5201;

/// Default phase seed for GALS local clocks.
pub const PHASE_SEED: u64 = 2002;

/// Runs one benchmark on the synchronous base machine.
pub fn run_base(bench: Benchmark, insts: u64) -> SimReport {
    let program = generate(bench, WORKLOAD_SEED);
    simulate(
        &program,
        ProcessorConfig::synchronous_1ghz(),
        SimLimits::insts(insts),
    )
    .expect("simulation failed")
}

/// Runs one benchmark on the GALS machine (equal 1 GHz clocks, random
/// phases).
pub fn run_gals(bench: Benchmark, insts: u64) -> SimReport {
    let program = generate(bench, WORKLOAD_SEED);
    simulate(
        &program,
        ProcessorConfig::gals_equal_1ghz(PHASE_SEED),
        SimLimits::insts(insts),
    )
    .expect("simulation failed")
}

/// Runs one benchmark on the pausible-clock ablation machine (equal 1 GHz
/// nominal clocks and the same phases as [`run_gals`], 300 ps handshake).
pub fn run_pausible(bench: Benchmark, insts: u64) -> SimReport {
    let program = generate(bench, WORKLOAD_SEED);
    simulate(
        &program,
        ProcessorConfig::pausible_equal_1ghz(PHASE_SEED),
        SimLimits::insts(insts),
    )
    .expect("simulation failed")
}

/// Runs one benchmark on the *rendezvous* pausible machine: the same
/// clocks, phases and handshake as [`run_pausible`], but every
/// inter-domain crossing is a single-entry rendezvous port (the capacity
/// cost of unbuffered handshakes is charged on top of the timing cost).
pub fn run_rendezvous(bench: Benchmark, insts: u64) -> SimReport {
    let program = generate(bench, WORKLOAD_SEED);
    simulate(
        &program,
        ProcessorConfig::pausible_rendezvous_1ghz(PHASE_SEED),
        SimLimits::insts(insts),
    )
    .expect("simulation failed")
}

/// Uniform process exit codes of the experiment binaries — the one place
/// the full 0/2/3/4 contract is defined (mirrored prose in
/// `docs/SWEEP_FORMAT.md`; 1 is unassigned):
///
/// | code | meaning |
/// |------|---------|
/// | 0    | success — everything ran and every gate passed |
/// | 2    | bad command line — usage printed to stderr |
/// | 3    | sweep finished but ≥1 matrix point failed at *runtime* |
/// | 4    | static analysis found a blocking issue — nothing was run |
///
/// 2 vs 4 matters: a usage error (2) means the invocation itself is
/// malformed (unknown flag, unreadable matrix file, unwritable report
/// path); an analysis failure (4) means the invocation was fine but
/// `--check` statically rejected the *configurations* — the per-point
/// finding table on stdout says why.
pub mod exit_code {
    /// Success.
    pub const OK: i32 = 0;
    /// Bad command line — printed usage to stderr.
    pub const USAGE: i32 = 2;
    /// The sweep completed but one or more matrix points failed (panicked
    /// or deadlocked); the report was still written and records every
    /// failure's status, so a rerun with the same `--cache` re-runs just
    /// those points.
    pub const FAILED_RUNS: i32 = 3;
    /// Static pre-flight analysis (`sweep --check FILE`) flagged at least
    /// one matrix point with a warning-or-worse finding; no simulation
    /// was performed. The finding table (one `GA…` code per line) was
    /// printed to stdout.
    pub const ANALYSIS: i32 = 4;
}

/// Writes `contents` to `path` atomically: the bytes land in a `.tmp`
/// sibling first and are `rename`d into place, so a crash (or a concurrent
/// reader) can never observe a half-written artifact. Every JSON artifact
/// the experiment binaries produce goes through here.
///
/// # Errors
///
/// Any I/O error from the write or the rename; the `.tmp` file is left
/// behind on a failed rename for post-mortem inspection.
pub fn write_atomic(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// The command line of the `sweep` and `ablation_pausible` binaries: an
/// instruction budget (`--budget N` or the historical bare positional
/// `N`), an output path, a worker-thread count, and the `sweep` binary's
/// options. Each binary uses the subset it documents and ignores the rest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchCli {
    /// Committed-instruction budget override (`--budget N` or bare `N`).
    pub budget: Option<u64>,
    /// Output file path (`--out PATH`).
    pub out: Option<PathBuf>,
    /// Worker-thread count (`--threads N`).
    pub threads: Option<usize>,
    /// User-defined sweep-matrix file (`--matrix PATH`; the `sweep`
    /// binary — see `gals_sweep::SweepMatrix::from_json` for the format).
    pub matrix: Option<PathBuf>,
    /// Statically analyze a matrix file instead of running it
    /// (`--check PATH`; the `sweep` binary). Exits with
    /// [`exit_code::ANALYSIS`] on any warning-or-worse finding.
    pub check: Option<PathBuf>,
    /// Matrix indices to panic by fault injection (`--chaos-panic N[,N..]`,
    /// repeatable; needs a `--features chaos` build).
    pub chaos_panic: Vec<usize>,
    /// Matrix indices to wedge into a deadlock (`--chaos-wedge N[,N..]`,
    /// repeatable; needs a `--features chaos` build).
    pub chaos_wedge: Vec<usize>,
    /// Content-addressed result-cache directory (`--cache DIR`; the
    /// `sweep` binary — see `gals_sweep::ResultCache`).
    pub cache: Option<PathBuf>,
}

impl BenchCli {
    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on an unknown flag, a missing
    /// value, or an unparseable number — the callers route it to stderr
    /// and exit with [`exit_code::USAGE`].
    pub fn parse_from<I>(args: I) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut cli = BenchCli::default();
        let mut it = args.into_iter().map(Into::into);
        while let Some(arg) = it.next() {
            let mut value_of =
                |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
            match arg.as_str() {
                "--budget" => {
                    let v = value_of("--budget")?;
                    cli.budget = Some(parse_num(&v, "--budget")?);
                }
                "--out" => cli.out = Some(PathBuf::from(value_of("--out")?)),
                "--threads" => {
                    let v = value_of("--threads")?;
                    let n: usize = parse_num(&v, "--threads")?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    cli.threads = Some(n);
                }
                "--matrix" => cli.matrix = Some(PathBuf::from(value_of("--matrix")?)),
                "--check" => cli.check = Some(PathBuf::from(value_of("--check")?)),
                "--cache" => cli.cache = Some(PathBuf::from(value_of("--cache")?)),
                "--chaos-panic" => {
                    let v = value_of("--chaos-panic")?;
                    parse_index_list(&v, "--chaos-panic", &mut cli.chaos_panic)?;
                }
                "--chaos-wedge" => {
                    let v = value_of("--chaos-wedge")?;
                    parse_index_list(&v, "--chaos-wedge", &mut cli.chaos_wedge)?;
                }
                other if !other.starts_with('-') && cli.budget.is_none() => {
                    cli.budget = Some(parse_num(other, "instruction budget")?);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(cli)
    }

    /// Parses the process arguments; on error prints the message and
    /// `usage` to stderr and exits with [`exit_code::USAGE`].
    pub fn parse_or_exit(usage: &str) -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("usage: {usage}");
                std::process::exit(exit_code::USAGE);
            }
        }
    }

    /// The instruction budget, falling back to a binary-specific default.
    pub fn budget_or(&self, default: u64) -> u64 {
        self.budget.unwrap_or(default)
    }

    /// The worker-thread count, falling back to the host parallelism.
    pub fn threads_or_available(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

fn parse_num<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("invalid {what} value {v:?}"))
}

/// Parses a comma-separated matrix-index list (the repeatable
/// `--chaos-panic`/`--chaos-wedge` value form) into `out`.
fn parse_index_list(v: &str, what: &str, out: &mut Vec<usize>) -> Result<(), String> {
    for part in v.split(',') {
        out.push(parse_num(part.trim(), what)?);
    }
    Ok(())
}

/// Runs one benchmark on a GALS machine with a DVFS plan applied.
pub fn run_gals_dvfs(bench: Benchmark, insts: u64, plan: DvfsPlan) -> SimReport {
    let program = generate(bench, WORKLOAD_SEED);
    let cfg = ProcessorConfig::gals_equal_1ghz(PHASE_SEED).with_dvfs(plan);
    simulate(&program, cfg, SimLimits::insts(insts)).expect("simulation failed")
}

/// Runs one benchmark on the base machine uniformly slowed (and voltage
/// scaled) by `factor` — the paper's "ideal" comparison column.
pub fn run_base_scaled(bench: Benchmark, insts: u64, factor: f64) -> SimReport {
    let program = generate(bench, WORKLOAD_SEED);
    let mut plan = DvfsPlan::nominal();
    plan.slowdown = [factor; 5];
    let cfg = ProcessorConfig::synchronous_1ghz().with_dvfs(plan);
    simulate(&program, cfg, SimLimits::insts(insts)).expect("simulation failed")
}

/// A DVFS plan from per-domain slowdown factors in paper order
/// (fetch, decode, int, fp, mem).
pub fn plan(slowdowns: [f64; 5]) -> DvfsPlan {
    let mut p = DvfsPlan::nominal();
    for d in Domain::ALL {
        p = p.with_slowdown(d, slowdowns[d.index()]);
    }
    p
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Formats a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Geometric mean of a slice.
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    assert!(xs.iter().all(|&x| x > 0.0), "geomean needs positive values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean of a slice.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn runners_execute_on_a_small_budget() {
        // Smoke-guard for every figure binary's plumbing.
        let base = run_base(Benchmark::Adpcm, 2_000);
        let gals = run_gals(Benchmark::Adpcm, 2_000);
        assert_eq!(base.committed, 2_000);
        assert_eq!(gals.committed, 2_000);
        let dvfs = run_gals_dvfs(Benchmark::Adpcm, 2_000, plan([1.0, 1.0, 1.0, 2.0, 1.0]));
        assert_eq!(dvfs.committed, 2_000);
        let ideal = run_base_scaled(Benchmark::Adpcm, 2_000, 1.2);
        assert!(
            (ideal.exec_time.as_fs() as f64 / base.exec_time.as_fs() as f64 - 1.2).abs() < 0.01
        );
    }

    #[test]
    fn cli_parses_flags_and_positional_budget() {
        let cli = BenchCli::parse_from(["--budget", "5000", "--threads", "4", "--out", "x.json"])
            .unwrap();
        assert_eq!(cli.budget, Some(5_000));
        assert_eq!(cli.threads, Some(4));
        assert_eq!(cli.out.as_deref(), Some(std::path::Path::new("x.json")));

        // Historical smoke form: a bare positional budget.
        let cli = BenchCli::parse_from(["2000"]).unwrap();
        assert_eq!(cli.budget_or(120_000), 2_000);
        assert_eq!(
            BenchCli::parse_from([] as [&str; 0]).unwrap().budget_or(7),
            7
        );

        let cli = BenchCli::parse_from(["--matrix", "m.json"]).unwrap();
        assert_eq!(cli.matrix.as_deref(), Some(std::path::Path::new("m.json")));
    }

    #[test]
    fn cli_parses_check_flag() {
        let cli = BenchCli::parse_from(["--check", "m.json"]).unwrap();
        assert_eq!(cli.check.as_deref(), Some(std::path::Path::new("m.json")));
        assert!(cli.matrix.is_none());
        assert!(BenchCli::parse_from(["--check"]).is_err());
        // --check and --matrix are distinct options at the parse layer;
        // the sweep binary rejects the combination (check is run-nothing).
        let cli = BenchCli::parse_from(["--check", "a.json", "--matrix", "b.json"]).unwrap();
        assert!(cli.check.is_some() && cli.matrix.is_some());
    }

    #[test]
    fn cli_parses_chaos_injection_flags() {
        // Repeatable and comma-separated forms combine.
        let cli = BenchCli::parse_from([
            "--chaos-panic",
            "3",
            "--chaos-panic",
            "7,9",
            "--chaos-wedge",
            "1",
        ])
        .unwrap();
        assert_eq!(cli.chaos_panic, vec![3, 7, 9]);
        assert_eq!(cli.chaos_wedge, vec![1]);
    }

    #[test]
    fn cli_parses_cache_flags() {
        let cli = BenchCli::parse_from(["--cache", "cachedir"]).unwrap();
        assert_eq!(cli.cache.as_deref(), Some(std::path::Path::new("cachedir")));

        // Default: no cache.
        let cli = BenchCli::parse_from([] as [&str; 0]).unwrap();
        assert!(cli.cache.is_none());

        assert!(BenchCli::parse_from(["--cache"]).is_err());
    }

    #[test]
    fn cli_rejects_malformed_fault_tolerance_flags() {
        assert!(BenchCli::parse_from(["--chaos-panic", "x"]).is_err());
        assert!(BenchCli::parse_from(["--chaos-wedge", "1,"]).is_err());
        assert!(BenchCli::parse_from(["--chaos-wedge"]).is_err());
    }

    #[test]
    fn cli_rejects_the_service_journal_and_deadline_flags() {
        // Resuming is a rerun with the same --cache; there is no service,
        // journal, retry, wall-clock deadline or cache bound to configure.
        for flag in [
            "--serve",
            "--submit",
            "--submit-retries",
            "--deadline-ms",
            "--max-clients",
            "--max-pending-runs",
            "--journal",
            "--resume",
            "--retries",
            "--run-timeout-ms",
            "--chaos-stall",
            "--chaos-drop-after",
            "--chaos-drop-times",
            "--baseline",
            "--tolerance",
            "--cache-cap",
        ] {
            let e = BenchCli::parse_from([flag, "1"]).unwrap_err();
            assert!(e.contains("unknown argument"), "{flag}: {e}");
        }
    }

    #[test]
    fn atomic_write_lands_the_full_contents() {
        let path =
            std::env::temp_dir().join(format!("gals-bench-atomic-{}.json", std::process::id()));
        write_atomic(&path, "{\"a\": 1}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\": 1}\n");
        // Overwrite through the same path: the tmp sibling must be gone.
        write_atomic(&path, "{\"a\": 2}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"a\": 2}\n");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cli_rejects_malformed_lines() {
        assert!(BenchCli::parse_from(["--budget"]).is_err());
        assert!(BenchCli::parse_from(["--budget", "abc"]).is_err());
        assert!(BenchCli::parse_from(["--threads", "0"]).is_err());
        assert!(BenchCli::parse_from(["--matrix"]).is_err());
        assert!(BenchCli::parse_from(["--frobnicate"]).is_err());
        assert!(BenchCli::parse_from(["12x"]).is_err());
        // A second positional is an unknown argument, not a silent override.
        assert!(BenchCli::parse_from(["100", "200"]).is_err());
    }

    #[test]
    fn plan_maps_paper_order() {
        let p = plan([1.1, 1.0, 1.0, 1.5, 1.2]);
        assert_eq!(p.slowdown[Domain::Fetch.index()], 1.1);
        assert_eq!(p.slowdown[Domain::FpCluster.index()], 1.5);
        assert_eq!(p.slowdown[Domain::MemCluster.index()], 1.2);
    }
}
