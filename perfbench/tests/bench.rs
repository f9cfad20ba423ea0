//! Tests of the benchmark itself: its statistics, its metric names, its
//! workloads and its output checks.

use perfbench::layers::{request, timed_sweep, traced_pass, Checked};
use perfbench::trace::Tracer;
use perfbench::workloads::{warmup_matrix, BenchWorkload};
use perfbench::{median, quantile, quartiles, result_json, Metrics, END_TO_END, PER_LAYER};

/// A budget small enough for a test, large enough to cross every domain.
const TINY: u64 = 300;

/// The checks' view of one sweep of `matrix` on `threads` workers.
fn checked(matrix: &gals_sweep::SweepMatrix, threads: usize) -> Checked {
    let r = timed_sweep(&request(matrix, threads)).0.expect("sweep");
    let mut c = Checked::default();
    c.add(&r, &r.to_json());
    c
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from Python's `statistics.quantiles(v, n=4)` and
    // `statistics.median(v)`.
    let cases: [(&[f64], [f64; 3]); 5] = [
        (
            &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
            [2.75, 5.5, 8.25],
        ),
        (&[1., 2., 3., 4.], [1.25, 2.5, 3.75]),
        (&[5., 1., 3.], [1.0, 3.0, 5.0]),
        (&[2.0, 7.5], [0.625, 4.75, 8.875]),
        (&[3.1, 0.4, 2.2, 9.9, 5.0, 6.1, 1.7], [1.7, 3.1, 6.1]),
    ];
    for (xs, want) in cases {
        let got = quartiles(xs);
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-12, "{xs:?}: got {got:?}, want {want:?}");
        }
        assert!((median(xs) - want[1]).abs() < 1e-12, "{xs:?}");
    }
    // `statistics.quantiles(v, n=10)[8]`, the p90 the traced pass reports.
    let p90 = quantile(&[3.1, 0.4, 2.2, 9.9, 5.0, 6.1, 1.7], 9, 10);
    assert!((p90 - 10.66).abs() < 1e-9, "{p90}");
    assert_eq!(median(&[]), 0.0);
    assert_eq!(quantile(&[4.0], 1, 4), 4.0);
}

/// True when `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_and_workload_names_are_valid_and_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    names.extend(BenchWorkload::ALL.map(BenchWorkload::name));
    for n in &names {
        assert!(
            valid_name(n),
            "{n} must match [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
        );
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "names are used once");
    for bad in ["", ".x", "a b", "wall/s", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?}");
    }
}

/// The `"name"`/`"unit"` pairs listed in one section of `BENCHMARK.json`.
fn listed(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_and_workloads_reported() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let owned = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
        xs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), owned(&PER_LAYER));
    for w in BenchWorkload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": \"", w.name())),
            "{w:?}"
        );
    }
}

#[test]
fn result_line_carries_exactly_the_contract_keys() {
    let mut m = Metrics::default();
    m.push("wall_s", 1.25);
    m.push("setup_s", 0.5);
    assert_eq!(
        result_json(10, 0, &m, &END_TO_END),
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
         \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
         \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
    );
    assert!(result_json(10, 1, &m, &END_TO_END).starts_with("{\"correct\": false,"));
}

#[test]
fn workloads_expand_to_their_point_counts_and_run_clean_on_any_thread_count() {
    for w in BenchWorkload::ALL {
        let matrices = w.matrices(7, TINY);
        assert_eq!(matrices.len(), w.seeds());
        let seeds: std::collections::BTreeSet<u64> =
            matrices.iter().map(|m| m.workload_seed).collect();
        assert_eq!(seeds.len(), w.seeds(), "{w:?}: distinct program sets");
        let matrix = &matrices[0];
        assert_eq!(matrix.expand().len(), w.points(), "{w:?}");
        let serial = checked(matrix, 1);
        let parallel = checked(matrix, 2);
        assert_eq!(serial.failures(&serial), 0, "{w:?}: every point ends ok");
        assert_eq!(parallel.failures(&serial), 0, "{w:?}: records agree");
        assert_eq!(
            serial.digest(),
            parallel.digest(),
            "{w:?}: digest is thread-independent"
        );

        let warm = warmup_matrix(matrix);
        assert_eq!(
            (&warm.benchmarks, &warm.modes),
            (&matrix.benchmarks, &matrix.modes),
            "{w:?}: warm-up runs every program at every mode"
        );
        assert_eq!(
            warm.expand().len(),
            matrix.benchmarks.len() * matrix.modes.len()
        );
    }
}

#[test]
fn the_seed_changes_the_programs_and_repeats_exactly() {
    let w = BenchWorkload::PaperDefault;
    let digest = |seed| checked(&w.matrix(seed, TINY), 2).digest();
    assert_eq!(digest(3), digest(3));
    assert_ne!(digest(3), digest(4));
}

#[test]
fn checks_count_a_changed_record_and_a_failed_status() {
    let matrix = BenchWorkload::DvfsSlowdown.matrix(1, TINY);
    let first = checked(&matrix, 2);
    let mut changed = first.clone();
    changed.records[3].1.push(' ');
    changed.records[5].0 = false;
    assert_eq!(changed.failures(&first), 2);
    let mut reordered = first.clone();
    reordered.digests[0] = "0".repeat(16);
    assert_eq!(
        reordered.failures(&first),
        1,
        "a report that differs counts once"
    );
}

#[test]
fn traced_pass_reports_every_layer_and_records_nested_spans() {
    for w in [BenchWorkload::ProgKernels, BenchWorkload::DvfsSlowdown] {
        let matrices = [w.matrix(5, TINY)];
        let mut tracer = Tracer::new();
        let pass = traced_pass(&matrices, &mut tracer);
        assert_eq!(
            pass.failed, 0,
            "{w:?}: simulate agrees with the engine everywhere"
        );
        assert_eq!(pass.attempted as usize, w.points());
        let want: Vec<&str> = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !n.starts_with("checks."))
            .collect();
        assert_eq!(pass.metrics.names(), want, "{w:?}");
        let get = |n| pass.metrics.get(n).expect("reported");
        assert_eq!(get("core.committed") as u64, TINY * w.points() as u64);
        assert!(get("core.simulate_s") > 0.0 && get("core.engine_s") > 0.0);
        let kernels = w == BenchWorkload::ProgKernels;
        assert_eq!(
            get("isa.execute_s") > 0.0,
            kernels,
            "{w:?}: parse+execute only for kernels"
        );

        let spans = tracer.spans();
        let points = spans.iter().filter(|s| s.name == "point").count();
        assert_eq!(points, w.points());
        for s in spans {
            assert!(s.end_ns >= s.start_ns, "{s:?}");
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
                assert!(s.point == parent.point || parent.point.is_none(), "{s:?}");
            } else {
                assert_eq!(s.name, "pass", "only the pass is a root");
            }
        }
        let self_total: f64 = tracer.layer_self_times().values().sum();
        let root = spans[0].secs();
        assert!(
            (self_total - root).abs() < 1e-6,
            "self times partition the pass"
        );
        let chrome = tracer.chrome_json();
        assert_eq!(chrome.matches("\"ph\": \"X\"").count(), spans.len());
    }
}
