//! The parallel scenario-sweep driver: runs the default paper matrix of
//! the `gals-sweep` crate — benchmark × clocking mode × pausible handshake
//! duration × DVFS point × phase seed — across a worker pool and writes the
//! schema-versioned `SWEEP_results.json` report.
//!
//! ```text
//! cargo run --release --bin sweep -- [--budget N] [--threads N] [--out PATH]
//!     [--matrix FILE | --check FILE] [--cache DIR]
//! ```
//!
//! * `--budget N` — committed instructions per run (default 60 000; CI
//!   smokes with `--budget 2000`). With `--matrix`, overrides the file's
//!   `budget` field.
//! * `--matrix FILE` — load a user-defined matrix from a JSON file (see
//!   `gals_sweep::SweepMatrix::from_json` for the format) instead of the
//!   in-code default. An unreadable or invalid file prints the problem to
//!   stderr and exits with the uniform usage code (2).
//! * `--check FILE` — **run nothing**: expand the matrix file and run
//!   the static pre-flight analyzer (`gals-analysis`) over every point,
//!   printing a per-point finding table. Exits 4 (`exit_code::ANALYSIS`)
//!   on any warning-or-worse finding, 0 on a clean matrix; combining
//!   `--check` with `--matrix`, `--out`, `--cache` or `--threads`, which
//!   it would not read, is a usage error. The chaos flags compose:
//!   `--check M --chaos-wedge I` vets the *faulted* runs, so a wedge the
//!   runtime watchdog would deadlock on is flagged GA002 statically.
//! * `--threads N` — worker threads (default: host parallelism). The
//!   report is **bit-identical for every thread count** (pinned by
//!   `crates/sweep/tests/sweep_determinism.rs`).
//! * `--out PATH` — report path (default `SWEEP_results.json`), written
//!   atomically (tmp + rename). The report is gitignored, so runs at any
//!   budget are free to (re)write it — CI uploads its smoke report as a
//!   workflow artifact. A path that cannot be written (a missing parent
//!   directory, an existing directory) exits 2 after the sweep has run.
//!
//! ## Fault tolerance
//!
//! Every matrix point runs under `catch_unwind` on its worker, and the
//! simulator's commit watchdog ends a run that stops committing: a point
//! that panics or deadlocks is recorded with a structured `status`
//! (`panicked` / `deadlocked`) while the rest of the sweep completes
//! bit-identically. Any failed point turns the exit code into 3
//! (`exit_code::FAILED_RUNS`) after the report is written.
//!
//! * `--cache DIR` — content-addressed result cache: each successful run
//!   is stored under its `RunKey` (a stable content hash of everything
//!   that determines its output) and looked up before simulating, so a
//!   warm rerun of an unchanged matrix simulates nothing and a sweep
//!   sharing points with any previous one simulates only the novel ones.
//!   The report stays bit-identical either way. A `cache:` summary line
//!   reports hits/misses (CI pins it). Rerunning a killed or failed sweep
//!   with the same `--cache` resumes it: only the points without a blob
//!   simulate.
//! * `--chaos-panic I[,J..]` / `--chaos-wedge I[,J..]` — deterministic
//!   fault injection at the given matrix indices, for exercising the
//!   failure path end-to-end (the CI chaos smoke job). Only available
//!   when built with `--features chaos`; a plain build rejects them with
//!   a pointer to the feature.
//!
//! See the `gals-sweep` crate docs for the matrix format and the full JSON
//! schema, and `gals_sweep::SweepMatrix::paper_default` for what the
//! default matrix covers (the section-3.2 handshake sweep, the DVFS
//! energy/performance points, and the wakeup filter/coalescing ablations).

use std::time::Instant;

use gals_bench::{exit_code, write_atomic, BenchCli};
use gals_sweep::{sweep, RunStatus, Severity, SweepMatrix, SweepOptions, SweepRequest};

/// Default committed-instruction budget per run. Smaller than the figure
/// binaries' 120k: the default matrix runs 116 configurations (since the
/// latched-vs-rendezvous axis joined), and the derived tables converge
/// well before that.
const SWEEP_INSTS: u64 = 60_000;

const USAGE: &str = "sweep [--budget N | N] [--threads N] [--out PATH] \
     [--matrix FILE | --check FILE] [--cache DIR] \
     [--chaos-panic I] [--chaos-wedge I]";

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {USAGE}");
    std::process::exit(exit_code::USAGE);
}

/// Builds the harness options from the command line; the chaos flags only
/// arm a fault plan when the binary was built with the `chaos` feature.
fn sweep_options(cli: &BenchCli) -> SweepOptions {
    let chaos_armed = !(cli.chaos_panic.is_empty() && cli.chaos_wedge.is_empty());
    #[cfg(not(feature = "chaos"))]
    if chaos_armed {
        usage_exit(
            "the --chaos-* flags need a fault-injection build: \
             rebuild with --features chaos",
        );
    }
    #[cfg(feature = "chaos")]
    let faults = gals_sweep::FaultPlan {
        panic_at: cli.chaos_panic.clone(),
        wedge_at: cli.chaos_wedge.clone(),
        ..gals_sweep::FaultPlan::default()
    };
    let _ = chaos_armed;
    let mut opts = SweepOptions::new().threads(cli.threads_or_available());
    if let Some(dir) = &cli.cache {
        opts = opts.cache(dir.clone());
    }
    #[cfg(feature = "chaos")]
    {
        opts = opts.faults(faults);
    }
    opts
}

/// Loads a matrix file, routing problems through [`usage_exit`]; the
/// command line's `--budget` wins over the file's.
fn load_matrix(path: &std::path::Path, cli: &BenchCli) -> SweepMatrix {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        usage_exit(&format!("cannot read matrix file {}: {e}", path.display()))
    });
    let mut matrix = SweepMatrix::from_json(&text, SWEEP_INSTS).unwrap_or_else(|e| {
        usage_exit(&format!(
            "{} is not a valid matrix file: {e}",
            path.display()
        ))
    });
    if let Some(budget) = cli.budget {
        matrix.budget = budget;
    }
    matrix
}

/// The `--check FILE` mode: static pre-flight analysis of every matrix
/// point, zero simulation. Prints one line per finding and a summary;
/// exits with [`exit_code::ANALYSIS`] on any warning-or-worse finding.
fn check_exit(path: &std::path::Path, cli: &BenchCli) -> ! {
    let matrix = load_matrix(path, cli);
    let opts = sweep_options(cli);
    let start = Instant::now();
    let checked = gals_sweep::check_matrix(&matrix, &opts);
    let elapsed = start.elapsed();

    let mut blocking = 0usize;
    let mut total = 0usize;
    for (spec, findings) in &checked {
        for f in findings {
            total += 1;
            if f.severity >= Severity::Warning {
                blocking += 1;
            }
            println!(
                "point {:>3} ({} {} {}): {f}",
                spec.index,
                spec.benchmark.name(),
                spec.mode.label(),
                spec.dvfs.label,
            );
        }
    }
    println!(
        "check: {} points vetted in {:.0} ms — {total} finding{} ({blocking} blocking)",
        checked.len(),
        elapsed.as_secs_f64() * 1e3,
        if total == 1 { "" } else { "s" },
    );
    if blocking > 0 {
        std::process::exit(exit_code::ANALYSIS);
    }
    std::process::exit(exit_code::OK);
}

fn main() {
    let cli = BenchCli::parse_or_exit(USAGE);
    if let Some(check) = &cli.check {
        if cli.matrix.is_some() {
            usage_exit(
                "--check runs nothing; pass the matrix file to --check itself, not --matrix",
            );
        }
        cli.reject_unread_or_exit(
            &["--check", "--budget", "--chaos-panic", "--chaos-wedge"],
            "--check",
            USAGE,
        );
        check_exit(check, &cli);
    }
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("SWEEP_results.json"));

    let matrix = match &cli.matrix {
        Some(path) => load_matrix(path, &cli),
        None => SweepMatrix::paper_default(cli.budget_or(SWEEP_INSTS)),
    };
    let opts = sweep_options(&cli);
    let budget = matrix.budget;
    let specs = matrix.expand();
    println!(
        "sweep: {} runs ({} benchmarks x {} modes x {} DVFS points x {} seeds, \
         budget {budget}) on {} threads",
        specs.len(),
        matrix.benchmarks.len(),
        matrix.modes.len(),
        matrix.dvfs.len(),
        matrix.phase_seeds.len(),
        opts.threads,
    );

    let start = Instant::now();
    let cache_armed = opts.cache.is_some();
    let request = SweepRequest::new(matrix).with_options(opts);
    let response = sweep(&request).unwrap_or_else(|e| usage_exit(&e));
    let results = &response.results;
    let elapsed = start.elapsed();
    let insts: u64 = results.runs.iter().map(|r| r.committed).sum();
    println!(
        "sweep: {} runs ({insts} insts) in {:.2}s ({:.0} insts/s aggregate)",
        results.runs.len(),
        elapsed.as_secs_f64(),
        insts as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    if cache_armed {
        println!(
            "cache: {} hits, {} misses, {} stored ({} simulated)",
            response.cache.hits, response.cache.misses, response.cache.stores, response.simulated,
        );
    }

    let json = results.to_json();
    write_atomic(&out, &json)
        .unwrap_or_else(|e| usage_exit(&format!("cannot write {}: {e}", out.display())));
    println!("wrote {} ({} bytes)", out.display(), json.len());

    let failed = results.failed_count();
    if failed > 0 {
        eprintln!("sweep: {failed} of {} runs FAILED:", results.runs.len());
        for r in &results.runs {
            match &r.status {
                RunStatus::Ok => {}
                status => eprintln!(
                    "  point {} ({} {} {}): {}",
                    r.spec.index,
                    r.spec.benchmark.name(),
                    r.spec.mode.label(),
                    r.spec.dvfs.label,
                    status.label(),
                ),
            }
        }
        if cache_armed {
            eprintln!("  re-run with the same --cache to simulate only the failed points");
        }
        std::process::exit(exit_code::FAILED_RUNS);
    }
    std::process::exit(exit_code::OK);
}
