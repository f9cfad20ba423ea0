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
//! On a mismatch the test writes the regenerated file under
//! `CARGO_TARGET_TMPDIR` and fails naming the first differing run key. A
//! deliberate behaviour change copies that file over the checked-in one
//! and says why in CHANGES.md.

use std::fmt::Write as _;
use std::path::Path;

use gals::sweep::stable_hash::{fnv1a, hex16};
use gals::sweep::{sweep, SweepMatrix, SweepOptions, SweepRequest};
use gals::workload::{ProgramKernel, Workload};

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

#[test]
fn sweep_output_matches_the_golden_file() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/GOLDEN_reports.txt");
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    let got = render();
    if got == want {
        return;
    }
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("GOLDEN_reports.txt");
    std::fs::write(&fresh, &got).expect("write the regenerated golden file");
    let (mut got_lines, mut want_lines) = (got.lines(), want.lines());
    let first = loop {
        match (got_lines.next(), want_lines.next()) {
            (Some(g), Some(w)) if g == w => continue,
            (g, w) => break g.or(w).unwrap_or_default(),
        }
    };
    panic!(
        "sweep output differs from {} first at key {}; the regenerated file is {}",
        golden.display(),
        first.split(' ').next().unwrap_or_default(),
        fresh.display(),
    );
}
