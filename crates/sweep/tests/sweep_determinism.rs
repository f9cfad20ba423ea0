//! The sweep harness's two contracts: a multi-worker sweep is bit-identical
//! to the serial sweep (per-run simulations are deterministic and results
//! are ordered by matrix index, not completion order), and every matrix —
//! including empty and singleton ones — renders a valid, schema-versioned
//! report.

use gals_sweep::{
    sweep, DvfsPoint, ModePoint, SweepMatrix, SweepOptions, SweepRequest, SweepResults,
    SCHEMA_VERSION, WORKLOAD_SEED,
};
use gals_workload::{Benchmark, ProgramKernel, Workload};
use proptest::prelude::*;

/// A small randomised matrix: every axis varies, runs stay cheap.
fn arb_matrix() -> impl Strategy<Value = SweepMatrix> {
    (
        0usize..4,     // benchmark pair selector
        any::<bool>(), // include sync?
        any::<bool>(), // gals wakeup filter
        50u64..600,    // pausible handshake ps
        any::<bool>(), // pausible coalesce
        any::<bool>(), // include a non-uniform dvfs point?
        1u64..5,       // phase seed
        400u64..900,   // budget
    )
        .prop_map(
            |(bsel, sync, filter, handshake_ps, coalesce, fp_dvfs, seed, budget)| {
                let benchmarks = match bsel {
                    0 => vec![Workload::Profile(Benchmark::Adpcm)],
                    1 => vec![Workload::Profile(Benchmark::Gcc)],
                    // A kernel whose one program every mode and DVFS
                    // point of the request shares, next to a profile.
                    2 => vec![
                        Workload::Profile(Benchmark::Adpcm),
                        Workload::Kernel(ProgramKernel::GccLike),
                    ],
                    _ => vec![
                        Workload::Profile(Benchmark::Adpcm),
                        Workload::Profile(Benchmark::Compress),
                    ],
                };
                let mut modes = vec![
                    ModePoint::Gals {
                        wakeup_filter: filter,
                    },
                    ModePoint::Pausible {
                        handshake_ps,
                        coalesce,
                        wakeup_filter: false,
                        // Cover both transfer-capacity models (the bool
                        // is independent of the pausible point's own
                        // feature axis, so roughly half the generated
                        // matrices carry a rendezvous point).
                        rendezvous: filter,
                    },
                ];
                if sync {
                    modes.insert(0, ModePoint::Synchronous);
                }
                let mut dvfs = vec![DvfsPoint::nominal()];
                if fp_dvfs {
                    dvfs.push(DvfsPoint::per_domain("fp2x", [1.0, 1.0, 1.0, 2.0, 1.0]));
                }
                SweepMatrix {
                    benchmarks,
                    modes,
                    dvfs,
                    phase_seeds: vec![seed],
                    workload_seed: WORKLOAD_SEED,
                    budget,
                }
            },
        )
}

fn run(matrix: &SweepMatrix, threads: usize) -> SweepResults {
    let options = SweepOptions::new().threads(threads);
    sweep(&SweepRequest::new(matrix.clone()).with_options(options))
        .expect("a cache-less sweep has no fallible I/O")
        .results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N-worker sweeps must be bit-identical to the serial sweep, JSON
    /// included — the contract CI's smoke run and the acceptance criterion
    /// (`--threads 4` vs `--threads 1`) rely on.
    #[test]
    fn parallel_sweep_is_bit_identical_to_serial(
        matrix in arb_matrix(),
        threads in 2usize..6,
    ) {
        let serial = run(&matrix, 1);
        let parallel = run(&matrix, threads);
        prop_assert_eq!(serial.runs.len(), parallel.runs.len());
        for (a, b) in serial.runs.iter().zip(parallel.runs.iter()) {
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(serial.to_json(), parallel.to_json());
    }
}

/// Structural validity checks cheap enough to run on every report: balanced
/// braces/brackets outside strings (no string here ever contains them), a
/// schema version, and no non-finite float leakage.
fn assert_valid_report(json: &str) {
    assert!(
        json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")),
        "missing schema version:\n{json}"
    );
    assert!(json.contains("\"tool\": \"gals-sweep\""));
    assert!(json.contains("\"runs\": ["));
    assert!(json.contains("\"tables\": {"));
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "braces:\n{json}"
    );
    assert_eq!(
        json.matches('[').count(),
        json.matches(']').count(),
        "brackets:\n{json}"
    );
    assert!(
        !json.contains("NaN") && !json.contains("inf"),
        "non-finite value:\n{json}"
    );
    assert!(json.ends_with("}\n"));
}

#[test]
fn empty_matrix_still_emits_a_valid_schema_versioned_report() {
    let matrix = SweepMatrix {
        benchmarks: vec![],
        modes: vec![],
        dvfs: vec![],
        phase_seeds: vec![],
        workload_seed: WORKLOAD_SEED,
        budget: 1_000,
    };
    let results = run(&matrix, 4);
    assert!(results.runs.is_empty());
    let json = results.to_json();
    assert_valid_report(&json);
    assert!(json.contains("\"run_count\": 0"));
}

#[test]
fn singleton_matrix_emits_one_run_and_empty_tables() {
    let matrix = SweepMatrix {
        benchmarks: vec![Workload::Profile(Benchmark::Adpcm)],
        modes: vec![ModePoint::Synchronous],
        dvfs: vec![DvfsPoint::nominal()],
        phase_seeds: vec![1],
        workload_seed: WORKLOAD_SEED,
        budget: 500,
    };
    let results = run(&matrix, 4);
    assert_eq!(results.runs.len(), 1);
    assert_eq!(results.runs[0].committed, 500);
    let json = results.to_json();
    assert_valid_report(&json);
    assert!(json.contains("\"run_count\": 1"));
    // No pausible or DVFS variation: the derived tables are present but
    // empty, not absent and not malformed.
    assert!(json.contains("\"pausible_slowdown_vs_handshake\": [\n    ]"));
    assert!(json.contains("\"wakeup_feature_ablation\": [\n    ]"));
}

#[test]
fn more_threads_than_runs_is_fine() {
    let matrix = SweepMatrix {
        benchmarks: vec![Workload::Profile(Benchmark::Adpcm)],
        modes: vec![ModePoint::Gals {
            wakeup_filter: false,
        }],
        dvfs: vec![DvfsPoint::nominal()],
        phase_seeds: vec![1, 2],
        workload_seed: WORKLOAD_SEED,
        budget: 500,
    };
    let a = run(&matrix, 64);
    let b = run(&matrix, 1);
    assert_eq!(a.to_json(), b.to_json());
}
