//! The checked-in example matrix files (`examples/sweep_matrix.json` and
//! `examples/program_matrix.json`, referenced from `docs/SWEEP_FORMAT.md`)
//! must stay loadable and must round-trip through the renderer — so the
//! documented format and the parser can never drift apart silently.

use gals_sweep::{ModePoint, SweepMatrix};
use gals_workload::{Benchmark, ProgramKernel, Workload};

const EXAMPLE: &str = include_str!("../../../examples/sweep_matrix.json");
const PROGRAM_EXAMPLE: &str = include_str!("../../../examples/program_matrix.json");

#[test]
fn example_matrix_file_parses_and_round_trips() {
    let matrix = SweepMatrix::from_json(EXAMPLE, 1_000).expect("example matrix must parse");
    // The file carries its own budget; the default must not leak in.
    assert_eq!(matrix.budget, 60_000);

    // It exercises every axis the docs describe: all three clocking
    // families, both pausible transfer models, a featured mode, and a
    // per-domain DVFS object next to the string forms.
    assert!(matrix
        .benchmarks
        .contains(&Workload::Profile(Benchmark::Gcc)));
    assert!(matrix.modes.contains(&ModePoint::Synchronous));
    assert!(matrix.modes.iter().any(|m| matches!(
        m,
        ModePoint::Pausible {
            rendezvous: true,
            ..
        }
    )));
    assert!(matrix.modes.iter().any(|m| matches!(
        m,
        ModePoint::Pausible {
            rendezvous: false,
            coalesce: false,
            ..
        }
    )));
    assert!(matrix.dvfs.iter().any(|d| d.label == "fp2x"));

    // Round-trip: render -> parse -> equal matrix.
    let rendered = matrix.to_matrix_json();
    let reparsed = SweepMatrix::from_json(&rendered, 0).expect("rendered matrix must parse");
    assert_eq!(reparsed, matrix);

    // The example expands to a real run list (sanity: the collapse rule
    // only drops non-uniform DVFS on sync).
    let specs = matrix.expand();
    assert!(!specs.is_empty());
    let sync_nonuniform = specs
        .iter()
        .any(|s| s.mode == ModePoint::Synchronous && !s.dvfs.is_uniform());
    assert!(!sync_nonuniform);
}

#[test]
fn program_matrix_file_parses_and_round_trips() {
    let matrix = SweepMatrix::from_json(PROGRAM_EXAMPLE, 1_000).expect("program matrix parses");
    // Every checked-in kernel appears, by its documented `prog:` name.
    for k in ProgramKernel::ALL {
        assert!(
            matrix.benchmarks.contains(&Workload::Kernel(k)),
            "missing {k}"
        );
    }
    // Round-trip: render -> parse -> equal matrix (the renderer writes
    // kernels back with the same `prog:` prefix the parser accepts).
    let rendered = matrix.to_matrix_json();
    assert!(rendered.contains("\"prog:gcc_like\""), "{rendered}");
    let reparsed = SweepMatrix::from_json(&rendered, 0).expect("rendered matrix must parse");
    assert_eq!(reparsed, matrix);
    assert!(!matrix.expand().is_empty());
}
