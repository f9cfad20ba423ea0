//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_default|prog_kernels|dvfs_slowdown> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! A run covers one workload's matrix at several workload seeds derived
//! from `--seed`. Set-up builds and expands those matrices, then warms up
//! on each of them; `setup_s` is the time from the start of `main` to the
//! end of the warm-up, where the first timed repetition starts, so work
//! paid once per process shows in it. With `--trace 0` the command then
//! repeats one serial `sweep()` of each matrix for `--seconds` and reports
//! the end-to-end metrics; with `--trace 1` it repeats the traced pass
//! instead (at least twice, so counts and digests are compared across
//! passes), reports the per-layer metrics and writes the first pass's
//! spans as Chrome trace-event JSON to `perfbench/out/`. Standard output
//! carries a `host` fingerprint line, a `digest` line and, last, the JSON
//! result; any failed check makes the exit code 1.

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gals_sweep::SweepMatrix;
use perfbench::layers::{ratio, request, timed_sweep, traced_pass, Checked, LayerPass};
use perfbench::trace::Tracer;
use perfbench::workloads::{warmup_matrix, BenchWorkload};
use perfbench::{
    host_fingerprint, median, peak_rss_mb, quartiles, result_json, Metrics, END_TO_END, PER_LAYER,
};

/// Fewest timed sweeps per untraced run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Fewest traced passes per traced run: the cross-pass checks need two.
const MIN_PASSES: usize = 2;

const USAGE: &str = "usage: perfbench --workload <paper_default|prog_kernels|dvfs_slowdown> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: BenchWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(BenchWorkload::by_name(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run reports besides its metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let (matrices, setup_checks) = set_up(wl, args.seed);
    let setup_s = start.elapsed().as_secs_f64();
    // After the set-up clock stops: it runs `rustc -V` in a child process.
    println!("host {}", host_fingerprint());
    eprintln!(
        "perfbench: {} seed={} budget={} points={} ({} workload seeds) setup_s={setup_s:.4}",
        wl.name(),
        args.seed,
        wl.budget(),
        points(&matrices),
        matrices.len(),
    );

    let mut out = if args.trace {
        traced(&args, &matrices)
    } else {
        end_to_end(&args, &matrices, setup_s)
    };
    out.attempted += setup_checks.0;
    out.failed += setup_checks.1;
    if out.failed > 0 {
        eprintln!(
            "perfbench: {} of {} checks failed",
            out.failed, out.attempted
        );
    }
    let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_json(out.attempted, out.failed, &out.metrics, units)
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Builds and expands the run's matrices, then sweeps each one's warm-up
/// matrix (see [`warmup_matrix`]); returns the matrices, and the warm-up
/// points run and those that did not end `ok`.
fn set_up(wl: BenchWorkload, seed: u64) -> (Vec<SweepMatrix>, (u64, u64)) {
    let matrices = wl.matrices(seed, wl.budget());
    black_box(points(&matrices));
    let (mut warm_points, mut failed) = (0, 0);
    for matrix in &matrices {
        let warm = warmup_matrix(matrix);
        let n = warm.expand().len() as u64;
        warm_points += n;
        failed += match timed_sweep(&request(&warm, 1)).0 {
            Ok(r) => r.failed_count() as u64,
            Err(e) => {
                eprintln!("perfbench: warm-up sweep failed: {e}");
                n
            }
        };
    }
    (matrices, (warm_points, failed))
}

/// Points over all of a run's matrices.
fn points(matrices: &[SweepMatrix]) -> usize {
    matrices.iter().map(|m| m.expand().len()).sum()
}

/// Repeats one serial `sweep()` of each matrix while another repetition
/// fits in `--seconds` (at least [`MIN_REPS`] times), checking every
/// repetition's output against the first's. A repetition's wall time is
/// the sum of its sweeps' times.
fn end_to_end(args: &Args, matrices: &[SweepMatrix], setup_s: f64) -> Outcome {
    let requests: Vec<_> = matrices.iter().map(|m| request(m, 1)).collect();
    let start = Instant::now();
    let (mut attempted, mut failed) = (0, 0);
    let mut walls: Vec<f64> = Vec::new();
    let mut first: Option<Checked> = None;
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() + median(&walls) <= args.seconds {
        let mut wall = 0.0;
        let mut checked = Checked::default();
        for (req, matrix) in requests.iter().zip(matrices) {
            let (results, secs) = timed_sweep(req);
            wall += secs;
            match results {
                Ok(results) => checked.add(&results, &results.to_json()),
                Err(e) => {
                    eprintln!("perfbench: sweep failed: {e}");
                    failed += matrix.expand().len() as u64;
                }
            }
        }
        attempted += points(matrices) as u64;
        failed += checked.failures(first.get_or_insert_with(|| checked.clone()));
        walls.push(wall);
    }
    let first = first.expect("at least one repetition ran");
    print_digest(args, matrices, &first.digest());
    let wall_s = median(&walls);
    let [q1, _, q3] = quartiles(&walls);
    eprintln!(
        "perfbench: wall_s median {wall_s:.4} q1 {q1:.4} q3 {q3:.4} over {} reps",
        walls.len()
    );
    let mut metrics = Metrics::default();
    metrics.push("wall_s", wall_s);
    metrics.push("sim_insts_per_s", ratio(first.committed as f64, wall_s));
    metrics.push("setup_s", setup_s);
    metrics.push("peak_rss_mb", peak_rss_mb());
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// Repeats the traced pass while another fits in `--seconds` (at least
/// [`MIN_PASSES`] times), reports each per-layer metric's median over the
/// passes, and writes the first pass's spans.
fn traced(args: &Args, matrices: &[SweepMatrix]) -> Outcome {
    let start = Instant::now();
    let mut passes: Vec<LayerPass> = Vec::new();
    let mut first_trace: Option<Tracer> = None;
    loop {
        let mut tracer = Tracer::new();
        passes.push(traced_pass(matrices, &mut tracer));
        first_trace.get_or_insert(tracer);
        let elapsed = start.elapsed().as_secs_f64();
        if passes.len() >= MIN_PASSES && elapsed + elapsed / passes.len() as f64 > args.seconds {
            break;
        }
    }
    let first = &passes[0];
    print_digest(args, matrices, &first.digest);

    // Host times are medians over the passes; counts and the report must
    // repeat exactly.
    let mut attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mut metrics = Metrics::default();
    for &(name, unit) in PER_LAYER.iter().filter(|(n, _)| !n.starts_with("checks.")) {
        let values: Vec<f64> = passes
            .iter()
            .map(|p| {
                p.metrics
                    .get(name)
                    .expect("every pass reports every metric")
            })
            .collect();
        if unit == "count" {
            attempted += 1;
            if values.iter().any(|&v| v != values[0]) {
                eprintln!("perfbench: count {name} differs across passes: {values:?}");
                failed += 1;
            }
        }
        metrics.push(name, median(&values));
    }
    for p in &passes[1..] {
        attempted += 1;
        if p.digest != first.digest {
            eprintln!("perfbench: report digest differs across passes");
            failed += 1;
        }
    }
    metrics.push("checks.failed_frac", failed as f64 / attempted as f64);

    let trace = first_trace.expect("at least one pass ran");
    report_trace(args, &trace, first, &metrics);
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// Prints each layer's and span's self time and the tracing overhead, and
/// writes the spans as Chrome trace-event JSON under `perfbench/out/`.
fn report_trace(args: &Args, trace: &Tracer, pass: &LayerPass, metrics: &Metrics) {
    eprintln!("perfbench: self time by layer (first pass):");
    for (layer, secs) in trace.layer_self_times() {
        eprintln!("  {layer:<10} {secs:>10.4} s");
    }
    eprintln!("perfbench: self time by span (first pass):");
    for (name, secs) in trace.self_times() {
        eprintln!("  {name:<28} {secs:>10.4} s");
    }
    let wall = metrics.get("sweep.wall_s").unwrap_or(0.0);
    let overhead = pass.traced_walk_s - pass.direct_walk_s;
    eprintln!(
        "perfbench: tracing overhead (first pass): traced point walk {:.4} s - untraced RunSpec::run walk {:.4} s = {overhead:.4} s ({:.2}% of untraced sweep wall {wall:.4} s)",
        pass.traced_walk_s,
        pass.direct_walk_s,
        100.0 * ratio(overhead, wall),
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, trace.chrome_json()));
    match written {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {}",
            trace.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn print_digest(args: &Args, matrices: &[SweepMatrix], digest: &str) {
    println!(
        "digest {} seed={} budget={} points={} fnv1a={digest}",
        args.workload.name(),
        args.seed,
        matrices[0].budget,
        points(matrices)
    );
}
