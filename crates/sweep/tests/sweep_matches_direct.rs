//! A sweep request builds each `(workload, workload_seed)` program once
//! and shares it across the request's points, while `RunSpec::run` builds
//! its own program. The two must agree record for record, at any worker
//! count: sharing a program is a speed-up, never a change of output. A
//! point that panics is recorded as such and changes no other record.

use gals_sweep::{
    sweep, DvfsPoint, ModePoint, RunRecord, RunStatus, SweepMatrix, SweepOptions, SweepRequest,
    PHASE_SEED, WORKLOAD_SEED,
};
use gals_workload::{Benchmark, ProgramKernel, Workload};

/// One profile and two kernels × four clockings × two DVFS points (both
/// uniform, so the synchronous machine keeps both): 24 points, 16 of
/// which share one of two kernel programs.
fn matrix() -> SweepMatrix {
    SweepMatrix {
        benchmarks: vec![
            Workload::Profile(Benchmark::Gcc),
            Workload::Kernel(ProgramKernel::GccLike),
            Workload::Kernel(ProgramKernel::FppppLike),
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
                rendezvous: false,
            },
            ModePoint::Pausible {
                handshake_ps: 300,
                coalesce: false,
                wakeup_filter: false,
                rendezvous: true,
            },
        ],
        dvfs: vec![DvfsPoint::nominal(), DvfsPoint::uniform(1.5)],
        phase_seeds: vec![PHASE_SEED],
        workload_seed: WORKLOAD_SEED,
        budget: 1_000,
    }
}

#[test]
fn every_sweep_record_equals_the_direct_run() {
    let matrix = matrix();
    let direct: Vec<RunRecord> = matrix.expand().iter().map(|spec| spec.run()).collect();
    assert_eq!(direct.len(), 24);
    assert!(direct.iter().all(|r| r.status.is_ok()));
    for threads in [1, 3] {
        let request =
            SweepRequest::new(matrix.clone()).with_options(SweepOptions::new().threads(threads));
        let swept = sweep(&request).expect("sweep").results.runs;
        assert_eq!(swept.len(), direct.len(), "threads({threads})");
        for (got, want) in swept.iter().zip(&direct) {
            let at = format!("threads({threads}), point {}", want.spec.index);
            assert_eq!(got, want, "{at}");
            assert_eq!(got.to_json_object(), want.to_json_object(), "{at}");
        }
    }
}

#[test]
fn a_panicking_point_leaves_every_other_record_equal_to_the_direct_run() {
    // A slowdown below 1.0 panics in the clock constructor. Only FIFO-GALS
    // takes the per-domain point (the synchronous machine skips it), so
    // exactly one of the kernel's five points panics, next to points that
    // share its program.
    let matrix = SweepMatrix {
        benchmarks: vec![Workload::Kernel(ProgramKernel::GccLike)],
        modes: vec![
            ModePoint::Synchronous,
            ModePoint::Gals {
                wakeup_filter: false,
            },
        ],
        dvfs: vec![
            DvfsPoint::nominal(),
            DvfsPoint::uniform(1.5),
            DvfsPoint::per_domain("fp0.5x", [1.0, 1.0, 1.0, 0.5, 1.0]),
        ],
        phase_seeds: vec![PHASE_SEED],
        workload_seed: WORKLOAD_SEED,
        budget: 1_000,
    };
    let specs = matrix.expand();
    assert_eq!(specs.len(), 5);
    let bad = specs.iter().position(|s| s.dvfs.label == "fp0.5x").unwrap();
    for threads in [1, 3] {
        let request =
            SweepRequest::new(matrix.clone()).with_options(SweepOptions::new().threads(threads));
        let runs = sweep(&request).expect("the sweep returns").results.runs;
        assert_eq!(runs.len(), specs.len());
        assert!(
            matches!(runs[bad].status, RunStatus::Panicked { .. }),
            "threads({threads}): {:?}",
            runs[bad].status
        );
        assert_eq!(runs[bad].committed, 0);
        for (spec, got) in specs.iter().zip(&runs).filter(|(s, _)| s.index != bad) {
            assert_eq!(*got, spec.run(), "threads({threads}), point {}", spec.index);
        }
    }
}
