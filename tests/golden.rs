//! Pins what the sweep outputs. One sweep covers the paper matrix and the
//! same matrix over the three `prog:` kernels, at a 2,000-instruction
//! budget: 116 + 87 points. `tests/GOLDEN_reports.txt` holds one line per
//! point, in matrix order:
//!
//! ```text
//! <RunKey> <FNV-1a of the run's JSON object> <benchmark> <mode> <dvfs>
//!     <phase seed> <status> <committed> <exec_time_fs>
//! ```
//!
//! and a last `report <FNV-1a>` line over the whole rendered report, which
//! pins the derived tables too.
//!
//! The run JSON rounds some floats, so `tests/GOLDEN_simreports.txt` pins
//! the full `SimReport` of every point of the same matrix, simulated
//! directly: one `<RunKey> <FNV-1a of the report's Debug rendering>` line
//! per point. Rust's float `Debug` output round-trips, so every f64 bit is
//! pinned.
//!
//! On a mismatch a test writes the regenerated file under
//! `CARGO_TARGET_TMPDIR` and fails naming the first differing run key. A
//! deliberate behaviour change copies that file over the checked-in one
//! and says why in CHANGES.md.

use std::fmt::Write as _;
use std::path::Path;

use gals::core::{simulate, SimLimits};
use gals::sweep::stable_hash::{fnv1a, hex16};
use gals::sweep::{sweep, SweepMatrix, SweepOptions, SweepRequest};
use gals::workload::{generate_workload, ProgramKernel, Workload};

fn matrix() -> SweepMatrix {
    let mut matrix = SweepMatrix::paper_default(2_000);
    matrix
        .benchmarks
        .extend(ProgramKernel::ALL.iter().map(|&k| Workload::Kernel(k)));
    matrix
}

fn render() -> String {
    let request = SweepRequest::new(matrix()).with_options(SweepOptions::new().threads(2));
    let results = sweep(&request).expect("sweep").results;
    let mut out = String::new();
    for r in &results.runs {
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {} {} {}",
            r.spec.key().to_hex(),
            hex16(fnv1a(r.to_json_object().as_bytes())),
            r.spec.benchmark.name(),
            r.spec.mode.label(),
            r.spec.dvfs.label,
            r.spec.phase_seed,
            r.status.label(),
            r.committed,
            r.exec_time_fs,
        );
    }
    let _ = writeln!(out, "report {}", hex16(fnv1a(results.to_json().as_bytes())));
    out
}

fn render_simreports() -> String {
    let mut out = String::new();
    for spec in matrix().expand() {
        let program = generate_workload(spec.benchmark, spec.workload_seed);
        let report = simulate(&program, spec.config(), SimLimits::insts(spec.budget))
            .unwrap_or_else(|e| panic!("{} fails: {e}", spec.key().to_hex()));
        let digest = fnv1a(format!("{report:?}").as_bytes());
        let _ = writeln!(out, "{} {}", spec.key().to_hex(), hex16(digest));
    }
    out
}

/// Compares `got` with the checked-in `tests/<name>`; on a mismatch writes
/// `got` under `CARGO_TARGET_TMPDIR` and panics naming the first differing
/// key.
fn check_golden(name: &str, got: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(name);
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if got == want {
        return;
    }
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&fresh, got).expect("write the regenerated golden file");
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    let first = loop {
        match (got_lines.next(), want_lines.next()) {
            (Some(g), Some(w)) if g == w => continue,
            (g, w) => break g.or(w).unwrap_or_default(),
        }
    };
    panic!(
        "output differs from {} first at key {}; the regenerated file is {}",
        golden.display(),
        first.split(' ').next().unwrap_or_default(),
        fresh.display(),
    );
}

#[test]
fn sweep_output_matches_the_golden_file() {
    check_golden("GOLDEN_reports.txt", &render());
}

#[test]
fn simreports_match_the_golden_file() {
    check_golden("GOLDEN_simreports.txt", &render_simreports());
}
