//! The content-addressed result cache, end to end: a warm rerun is
//! bit-identical with zero simulated points, corruption degrades to a
//! miss (never an error, never a wrong bit), execution policy never
//! touches a `RunKey`, and a rerun on the same cache resumes a killed
//! sweep.

use std::sync::atomic::{AtomicUsize, Ordering};

use gals_sweep::{
    stable_hash, sweep, DvfsPoint, ModePoint, RunKey, SweepMatrix, SweepOptions, SweepRequest,
    SCHEMA_VERSION, WORKLOAD_SEED,
};
use gals_workload::{Benchmark, ProgramKernel, Workload};
use proptest::prelude::*;

fn small_matrix(seed: u64, budget: u64) -> SweepMatrix {
    SweepMatrix {
        benchmarks: vec![
            Workload::Profile(Benchmark::Adpcm),
            Workload::Profile(Benchmark::Compress),
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
        ],
        dvfs: vec![DvfsPoint::nominal()],
        phase_seeds: vec![seed],
        workload_seed: WORKLOAD_SEED,
        budget,
    }
}

/// A unique temp dir per call (tests share one process).
fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "gals-sweep-cachetest-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cold run, then warm run: the warm pass simulates nothing, serves
    /// every point from cache, and renders byte-identical JSON — across
    /// seeds, budgets, and thread counts.
    #[test]
    fn warm_rerun_is_bit_identical_with_zero_simulated_points(
        seed in 1u64..5,
        budget in 300u64..700,
        threads in 1usize..5,
    ) {
        let dir = temp_dir("warm");
        let matrix = small_matrix(seed, budget);
        let opts = SweepOptions::new().threads(threads).cache(dir.clone());
        let request = SweepRequest::new(matrix).with_options(opts);

        let cold = sweep(&request).expect("cold sweep");
        prop_assert_eq!(cold.simulated, cold.results.runs.len());
        prop_assert_eq!(cold.cache.hits, 0);
        prop_assert_eq!(cold.cache.stores as usize, cold.results.runs.len());

        let warm = sweep(&request).expect("warm sweep");
        prop_assert_eq!(warm.simulated, 0);
        prop_assert_eq!(warm.cache.hits as usize, warm.results.runs.len());
        prop_assert_eq!(warm.cache.misses, 0);
        prop_assert_eq!(warm.results.to_json(), cold.results.to_json());

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupted_blobs_degrade_to_misses_and_the_output_stays_identical() {
    let dir = temp_dir("corrupt");
    let matrix = small_matrix(1, 500);
    let request =
        SweepRequest::new(matrix).with_options(SweepOptions::new().threads(2).cache(dir.clone()));
    let cold = sweep(&request).expect("cold sweep");

    // Sabotage every blob a different way: truncate one, garble one,
    // delete one; leave the rest intact.
    let mut blobs: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    blobs.sort();
    assert_eq!(blobs.len(), cold.results.runs.len());
    let text = std::fs::read_to_string(&blobs[0]).expect("blob");
    std::fs::write(&blobs[0], &text[..text.len() / 3]).expect("truncate");
    std::fs::write(&blobs[1], "{\"not\": \"a record\"}\n").expect("garble");
    std::fs::remove_file(&blobs[2]).expect("delete");

    let warm = sweep(&request).expect("sweep over damaged cache");
    assert_eq!(warm.simulated, 3, "only the damaged points re-simulate");
    assert_eq!(warm.cache.hits as usize, cold.results.runs.len() - 3);
    assert_eq!(warm.cache.misses, 3);
    assert_eq!(
        warm.cache.corrupt, 2,
        "truncated + garbled; deleted is a plain miss"
    );
    assert_eq!(
        warm.results.to_json(),
        cold.results.to_json(),
        "damage may cost time, never bits"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_keys_ignore_execution_policy_and_separate_content() {
    let matrix = small_matrix(1, 500);
    let base: Vec<RunKey> = matrix.expand().iter().map(RunKey::of).collect();

    // Execution policy — threads, the cache directory — lives in
    // SweepOptions, which never reaches a key: a parallel sweep files its
    // blobs under exactly the content keys.
    let dir = temp_dir("policy");
    let options = SweepOptions::new().threads(3).cache(dir.clone());
    sweep(&SweepRequest::new(matrix.clone()).with_options(options)).expect("sweep");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    names.sort();
    let mut want: Vec<String> = base
        .iter()
        .map(|k| format!("{}.json", k.to_hex()))
        .collect();
    want.sort();
    assert_eq!(names, want);
    let _ = std::fs::remove_dir_all(&dir);

    // Content — budget, seed, mode set — always does.
    let mut budget = matrix.clone();
    budget.budget += 1;
    assert!(budget
        .expand()
        .iter()
        .map(RunKey::of)
        .zip(&base)
        .all(|(k, b)| k != *b));
    let mut seed = matrix.clone();
    seed.phase_seeds = vec![2];
    assert!(seed
        .expand()
        .iter()
        .map(RunKey::of)
        .zip(&base)
        .all(|(k, b)| k != *b));

    // And the keys of distinct points are distinct.
    let mut sorted = base.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), base.len());

    // Hex round-trip.
    for key in &base {
        assert_eq!(RunKey::from_hex(&key.to_hex()), Some(*key));
    }
    assert_eq!(RunKey::from_hex("nope"), None);
    assert_eq!(
        RunKey::from_hex("ABCDEF0123456789"),
        None,
        "upper case rejected"
    );
}

#[test]
fn run_keys_follow_the_documented_canon() {
    // The key canon is part of the on-disk contract (docs/SWEEP_FORMAT.md):
    // an FNV-1a hash of
    //   v{schema}|{workload identity}|{mode}|{dvfs label}|{slowdown:?}|
    //   {phase_seed}|{workload_seed}|{budget}|{config identity}.
    // Recompute it from public pieces for every point of a mixed
    // profile+kernel matrix; drift here silently orphans every cached
    // blob on disk.
    let mut matrix = small_matrix(1, 500);
    matrix
        .benchmarks
        .push(Workload::Kernel(ProgramKernel::GccLike));
    for spec in matrix.expand() {
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
            spec.config().stable_identity(),
        );
        assert_eq!(
            spec.key().as_u64(),
            stable_hash::fnv1a(canon.as_bytes()),
            "canon drifted for {}",
            spec.benchmark.name()
        );
    }
}

#[test]
fn program_kernels_cache_and_parallelise_like_profiles() {
    // The program-kernel axis must be a first-class citizen of the cache:
    // kernel runs are content-addressed (their identity hashes the .gasm
    // source), a parallel cold pass and a serial warm pass render
    // byte-identical JSON, and the warm pass simulates nothing.
    let dir = temp_dir("kernels");
    let matrix = SweepMatrix {
        benchmarks: ProgramKernel::ALL
            .iter()
            .map(|&k| Workload::Kernel(k))
            .collect(),
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
        ],
        dvfs: vec![DvfsPoint::nominal()],
        phase_seeds: vec![1],
        workload_seed: WORKLOAD_SEED,
        budget: 400,
    };

    // Kernel keys are distinct from each other and from the profile keys
    // of their reference benchmarks (the identity carries the source hash).
    let keys: Vec<RunKey> = matrix.expand().iter().map(RunKey::of).collect();
    let mut uniq = keys.clone();
    uniq.sort();
    uniq.dedup();
    assert_eq!(uniq.len(), keys.len());
    let mut profiles = matrix.clone();
    profiles.benchmarks = vec![
        Workload::Profile(Benchmark::Gcc),
        Workload::Profile(Benchmark::Fpppp),
        Workload::Profile(Benchmark::Ijpeg),
    ];
    for pk in profiles.expand().iter().map(RunKey::of) {
        assert!(!keys.contains(&pk), "kernel and profile keys must differ");
    }

    let cold = sweep(
        &SweepRequest::new(matrix.clone())
            .with_options(SweepOptions::new().threads(3).cache(dir.clone())),
    )
    .expect("cold kernel sweep");
    assert_eq!(cold.simulated, cold.results.runs.len());
    assert_eq!(cold.results.failed_count(), 0, "kernel runs must succeed");

    let warm = sweep(
        &SweepRequest::new(matrix).with_options(SweepOptions::new().threads(1).cache(dir.clone())),
    )
    .expect("warm kernel sweep");
    assert_eq!(warm.simulated, 0);
    assert_eq!(warm.cache.hits as usize, warm.results.runs.len());
    assert_eq!(
        warm.results.to_json(),
        cold.results.to_json(),
        "parallel cold and serial warm kernel sweeps must render identical bits"
    );
    for k in ProgramKernel::ALL {
        assert!(
            warm.results
                .to_json()
                .contains(&format!("\"prog:{}\"", k.name())),
            "report names kernel {k}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overlapping_matrices_share_cache_entries() {
    let dir = temp_dir("overlap");
    let mut first = small_matrix(1, 500);
    first.modes.truncate(2); // sync + gals
    let first_runs = first.expand().len();
    let cold =
        sweep(&SweepRequest::new(first).with_options(SweepOptions::new().cache(dir.clone())))
            .expect("first sweep");
    assert_eq!(cold.simulated, first_runs);

    // The full matrix shares the first two modes' points; only the
    // pausible points are novel.
    let full = small_matrix(1, 500);
    let full_runs = full.expand().len();
    let warm = sweep(&SweepRequest::new(full).with_options(SweepOptions::new().cache(dir.clone())))
        .expect("overlapping sweep");
    assert_eq!(warm.cache.hits as usize, first_runs);
    assert_eq!(warm.simulated, full_runs - first_runs);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rerun_on_the_same_cache_resumes_a_killed_sweep() {
    // A sweep killed part-way has stored the points it finished, and may
    // leave a stray temporary file and a torn blob. Rerunning it on the
    // same directory simulates exactly the points without a usable blob
    // and renders the clean report.
    let dir = temp_dir("resume");
    let matrix = small_matrix(2, 500);
    let request =
        SweepRequest::new(matrix).with_options(SweepOptions::new().threads(2).cache(dir.clone()));
    let clean = sweep(&request).expect("clean sweep");
    let run_count = clean.results.runs.len();

    let mut blobs: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .collect();
    blobs.sort();
    // Two points the killed sweep never finished, one blob torn mid-write
    // and one temporary file it never renamed.
    std::fs::remove_file(&blobs[0]).expect("unfinished point");
    std::fs::remove_file(&blobs[1]).expect("unfinished point");
    let text = std::fs::read_to_string(&blobs[2]).expect("blob");
    std::fs::write(&blobs[2], &text[..text.len() / 2]).expect("tear");
    let mut stray = blobs[3].clone().into_os_string();
    stray.push(".tmp-1-0");
    std::fs::write(&stray, &text[..text.len() / 3]).expect("stray");

    let resumed = sweep(&request).expect("resumed sweep");
    assert_eq!(resumed.simulated, 3);
    assert_eq!(resumed.cache.hits as usize, run_count - 3);
    assert_eq!(
        resumed.cache.corrupt, 1,
        "the torn blob; the stray is never read"
    );
    assert_eq!(resumed.results.to_json(), clean.results.to_json());

    let warm = sweep(&request).expect("converged sweep");
    assert_eq!(warm.simulated, 0);
    assert_eq!(warm.results.to_json(), clean.results.to_json());

    let _ = std::fs::remove_dir_all(&dir);
}
