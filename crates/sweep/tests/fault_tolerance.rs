//! Fault-tolerant execution, proven end-to-end with deterministic fault
//! injection (`--features chaos`): injected panics and wedges must be
//! isolated to their own matrix point, surface as structured
//! [`RunStatus`] records, leave every *surviving* run bit-identical to a
//! failure-free serial sweep, and converge to a bit-identical clean report
//! when the sweep is rerun on the same cache.

#![cfg(feature = "chaos")]

use std::sync::atomic::{AtomicUsize, Ordering};

use gals_sweep::{
    sweep, DvfsPoint, FaultPlan, ModePoint, RunStatus, SweepMatrix, SweepOptions, SweepRequest,
    SweepResponse, SweepResults, WORKLOAD_SEED,
};
use gals_workload::{Benchmark, ProgramKernel, Workload};
use proptest::prelude::*;

/// Two profiles and a kernel × three clockings. The kernel's three points
/// share one program, so a fault injected at one of them lands next to
/// survivors that run the same program.
fn small_matrix(seed: u64, budget: u64) -> SweepMatrix {
    SweepMatrix {
        benchmarks: vec![
            Workload::Profile(Benchmark::Adpcm),
            Workload::Profile(Benchmark::Compress),
            Workload::Kernel(ProgramKernel::IjpegLike),
        ],
        modes: vec![
            ModePoint::Synchronous,
            ModePoint::Gals {
                wakeup_filter: false,
            },
            ModePoint::Pausible {
                handshake_ps: 300,
                coalesce: false,
                wakeup_filter: false,
                rendezvous: true,
            },
        ],
        dvfs: vec![DvfsPoint::nominal()],
        phase_seeds: vec![seed],
        workload_seed: WORKLOAD_SEED,
        budget,
    }
}

fn respond(matrix: &SweepMatrix, options: SweepOptions) -> SweepResponse {
    sweep(&SweepRequest::new(matrix.clone()).with_options(options)).expect("sweep completes")
}

fn run(matrix: &SweepMatrix, options: SweepOptions) -> SweepResults {
    respond(matrix, options).results
}

/// A unique temp directory per call (tests share one process).
fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "gals-sweep-chaos-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Injected panics and wedges at arbitrary points must not disturb a
    /// single bit of any surviving run, across thread counts.
    #[test]
    fn survivors_are_bit_identical_to_a_clean_serial_sweep(
        fault_seed in 0u64..1_000,
        phase_seed in 1u64..5,
        threads in 1usize..5,
    ) {
        let matrix = small_matrix(phase_seed, 600);
        let clean = run(&matrix, SweepOptions::new());
        let faults = FaultPlan::seeded(fault_seed, clean.runs.len(), 1, 1);
        let chaotic = run(
            &matrix,
            SweepOptions::new().threads(threads).faults(faults.clone()),
        );

        prop_assert_eq!(chaotic.runs.len(), clean.runs.len());
        prop_assert_eq!(chaotic.failed_count(), 2);
        for (got, want) in chaotic.runs.iter().zip(clean.runs.iter()) {
            let i = want.spec.index;
            if faults.panic_at.contains(&i) {
                prop_assert!(
                    matches!(&got.status, RunStatus::Panicked { msg }
                        if msg.contains(&format!("matrix point {i}"))),
                    "point {i}: {:?}", got.status
                );
                prop_assert_eq!(got.committed, 0);
            } else if faults.wedge_at.contains(&i) {
                prop_assert!(
                    matches!(got.status, RunStatus::Deadlocked { .. }),
                    "point {i}: {:?}", got.status
                );
            } else {
                // Survivors: bit-identical, metrics included.
                prop_assert_eq!(got, want);
            }
        }
    }
}

#[test]
fn faults_on_kernel_points_spare_the_points_sharing_their_program() {
    // Points 6..9 run the kernel. The panic hits the point that would
    // build the shared program first, so a sibling must build it; the
    // wedge then runs on that shared program.
    let matrix = small_matrix(1, 600);
    let clean = run(&matrix, SweepOptions::new());
    assert_eq!(clean.runs.len(), 9);
    for threads in [1, 3] {
        let faults = FaultPlan {
            panic_at: vec![6],
            wedge_at: vec![7],
            ..FaultPlan::default()
        };
        let chaotic = run(&matrix, SweepOptions::new().threads(threads).faults(faults));
        assert!(matches!(chaotic.runs[6].status, RunStatus::Panicked { .. }));
        assert!(matches!(
            chaotic.runs[7].status,
            RunStatus::Deadlocked { .. }
        ));
        for i in (0..9).filter(|i| ![6, 7].contains(i)) {
            assert_eq!(
                chaotic.runs[i], clean.runs[i],
                "threads({threads}), point {i}"
            );
        }
    }
}

#[test]
fn wedged_point_reports_a_deterministic_structured_deadlock() {
    let matrix = small_matrix(1, 600);
    let wedge_index = 1; // the adpcm FIFO-GALS point
    let faults = FaultPlan {
        wedge_at: vec![wedge_index],
        ..FaultPlan::default()
    };
    let opts = SweepOptions::new().faults(faults);
    let a = run(&matrix, opts.clone());
    let b = run(&matrix, opts);
    let RunStatus::Deadlocked { report: ra } = &a.runs[wedge_index].status else {
        panic!("expected deadlock, got {:?}", a.runs[wedge_index].status);
    };
    let RunStatus::Deadlocked { report: rb } = &b.runs[wedge_index].status else {
        panic!("expected deadlock, got {:?}", b.runs[wedge_index].status);
    };
    assert_eq!(ra, rb, "deadlock diagnostics must be deterministic");
    // The stuck machine really is stuck behind the withheld writeback.
    assert!(ra.committed < matrix.budget);
    assert_eq!(ra.rob_head_seq, Some(200), "head is the withheld seq");

    // The structured report lands in the JSON artifact.
    let json = a.to_json();
    assert!(json.contains("\"status\": \"deadlocked\""), "{json}");
    assert!(json.contains("\"deadlock\": {\"time_fs\": "), "{json}");
    assert!(json.contains("\"rob_head_seq\": 200"), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn static_check_flags_exactly_the_points_the_runtime_wedges() {
    // The `sweep --check` contract end-to-end: with a chaos wedge armed,
    // check_matrix flags GA002 at the wedged index and nowhere else, and
    // the real sweep's deadlock report for that point carries the same
    // verdict in `static_finding` (cross-referenced into the JSON).
    let matrix = small_matrix(1, 600);
    let wedge_index = 2;
    let opts = SweepOptions::new().faults(FaultPlan {
        wedge_at: vec![wedge_index],
        ..FaultPlan::default()
    });

    let checked = gals_sweep::check_matrix(&matrix, &opts);
    assert_eq!(checked.len(), matrix.expand().len());
    for (spec, findings) in &checked {
        if spec.index == wedge_index {
            assert_eq!(findings.len(), 1, "point {}: {findings:?}", spec.index);
            assert_eq!(findings[0].code, "GA002");
        } else {
            assert!(findings.is_empty(), "point {}: {findings:?}", spec.index);
        }
    }

    let results = run(&matrix, opts);
    let RunStatus::Deadlocked { report } = &results.runs[wedge_index].status else {
        panic!(
            "expected deadlock, got {:?}",
            results.runs[wedge_index].status
        );
    };
    assert_eq!(report.static_finding.as_deref(), Some("GA002"));
    let json = results.to_json();
    assert!(json.contains("\"static_finding\": \"GA002\""), "{json}");
    // The spec-level `analysis` arrays stay empty: the wedge is an
    // execution-policy fault, not a property of the matrix point, so
    // cached records recompute them bit-identically.
    assert!(!json.contains("\"analysis\""), "{json}");
}

#[test]
fn killed_sweep_resumes_to_a_bit_identical_clean_report() {
    let matrix = small_matrix(2, 600);
    let clean = run(&matrix, SweepOptions::new()).to_json();
    let dir = temp_dir("kill-resume");
    let cached = || SweepOptions::new().threads(2).cache(dir.clone());

    // First invocation: one panic + one wedge. Only the `ok` records
    // reach the cache.
    let faulted = respond(
        &matrix,
        cached().faults(FaultPlan {
            panic_at: vec![1],
            wedge_at: vec![4],
            ..FaultPlan::default()
        }),
    );
    assert_eq!(faulted.results.failed_count(), 2);
    assert_eq!(
        faulted.cache.stores as usize,
        faulted.results.runs.len() - 2
    );

    // Rerun without faults on the same cache: exactly the failed points
    // simulate, and the report is a clean sweep's.
    let resumed = respond(&matrix, cached());
    assert_eq!(resumed.simulated, 2);
    assert_eq!(resumed.results.failed_count(), 0);
    assert_eq!(resumed.results.to_json(), clean);

    // A killed sweep can leave a stray temporary file and a torn blob:
    // the stray is never read, the torn blob is a miss that re-simulates,
    // and the report does not change.
    let mut blobs: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .collect();
    blobs.sort();
    let text = std::fs::read_to_string(&blobs[0]).expect("blob");
    std::fs::write(&blobs[0], &text[..text.len() / 2]).expect("tear");
    let mut stray = blobs[1].clone().into_os_string();
    stray.push(".tmp-1-0");
    std::fs::write(&stray, &text[..text.len() / 3]).expect("stray");
    let repaired = respond(&matrix, cached());
    assert_eq!(repaired.simulated, 1);
    assert_eq!(repaired.cache.corrupt, 1);
    assert_eq!(repaired.results.to_json(), clean);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unarmed_fault_plan_changes_nothing() {
    let matrix = small_matrix(3, 500);
    let plain = run(&matrix, SweepOptions::new().threads(2));
    let chaos_built = run(
        &matrix,
        SweepOptions::new().threads(2).faults(FaultPlan::default()),
    );
    assert!(FaultPlan::default().is_empty());
    assert_eq!(plain.to_json(), chaos_built.to_json());
}
