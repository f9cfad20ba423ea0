//! The `sweep` and `ablation_pausible` command lines, run as processes:
//! every malformed invocation, including a flag the binary would not
//! read, exits 2 (`exit_code::USAGE`) with an `error:` line on stderr,
//! never a panic's 101, and a well-formed one exits 0 and writes its
//! report.

use std::path::{Path, PathBuf};
use std::process::Output;

/// A one-point matrix: the smallest sweep that simulates anything.
const ONE_POINT: &str = r#"{
  "benchmarks": ["gcc"],
  "modes": ["sync"],
  "dvfs": ["nominal"],
  "phase_seeds": [2002],
  "budget": 200
}"#;

const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");
const ABLATION_PAUSIBLE: &str = env!("CARGO_BIN_EXE_ablation_pausible");

fn run(exe: &str, args: &[&str]) -> Output {
    std::process::Command::new(exe)
        .args(args)
        .output()
        .expect("spawn the binary")
}

fn sweep(args: &[&str]) -> Output {
    run(SWEEP, args)
}

/// A fresh scratch directory of this test file, holding the one-point
/// matrix as `matrix.json` (tests run in parallel, so each gets its own).
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("sweep_cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    std::fs::write(dir.join("matrix.json"), ONE_POINT).expect("write the matrix");
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().expect("scratch paths are UTF-8")
}

#[track_caller]
fn assert_usage_error(args: &[&str]) {
    assert_exits_2(SWEEP, args);
}

#[track_caller]
fn assert_exits_2(exe: &str, args: &[&str]) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{exe} {args:?} must exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.lines().any(|l| l.starts_with("error: ")),
        "{exe} {args:?} printed no error line; stderr:\n{stderr}"
    );
}

#[test]
fn malformed_flags_are_usage_errors() {
    let dir = scratch("flags");
    let matrix = dir.join("matrix.json");
    assert_usage_error(&["--frobnicate"]);
    assert_usage_error(&["--budget", "abc"]);
    assert_usage_error(&["--threads", "0"]);
    // The result cache has no capacity bound to configure. (Given a
    // runnable one-point sweep, so a binary that accepts the flag fails
    // this test quickly.)
    let report = dir.join("r.json");
    assert_usage_error(&[
        "--matrix",
        path(&matrix),
        "--out",
        path(&report),
        "--cache-cap",
        "5",
    ]);
}

#[test]
fn bad_matrix_files_are_usage_errors() {
    let dir = scratch("matrix");
    let matrix = dir.join("matrix.json");
    let missing = dir.join("missing.json");
    let not_json = dir.join("not.json");
    std::fs::write(&not_json, "this is not JSON").expect("write the bad matrix");
    assert_usage_error(&["--matrix", path(&missing)]);
    assert_usage_error(&["--matrix", path(&not_json)]);
    assert_usage_error(&["--check", path(&matrix), "--matrix", path(&matrix)]);
}

#[test]
fn flags_a_binary_would_not_read_are_usage_errors() {
    let dir = scratch("unread");
    let matrix = dir.join("matrix.json");
    let missing = dir.join("missing").join("x");
    // `--check` simulates nothing and writes nothing.
    for unread in [
        ["--out", path(&missing)],
        ["--cache", path(&missing)],
        ["--threads", "3"],
    ] {
        let mut args = vec!["--check", path(&matrix)];
        args.extend(unread);
        assert_usage_error(&args);
    }
    // `ablation_pausible` reads its budget and nothing else.
    for unread in [
        ["--out", path(&missing)],
        ["--threads", "3"],
        ["--matrix", path(&matrix)],
        ["--check", path(&matrix)],
        ["--cache", path(&missing)],
        ["--chaos-panic", "1"],
        ["--chaos-wedge", "1"],
    ] {
        let mut args = vec!["--budget", "300"];
        args.extend(unread);
        assert_exits_2(ABLATION_PAUSIBLE, &args);
    }
}

#[test]
fn an_unwritable_report_path_is_a_usage_error() {
    let dir = scratch("out");
    let matrix = dir.join("matrix.json");
    let budget = ["--budget", "200", "--threads", "1"];
    let in_missing_dir = dir.join("missing").join("r.json");
    let a_directory = dir.join("existing");
    std::fs::create_dir(&a_directory).expect("create the directory");
    for out in [&in_missing_dir, &a_directory] {
        let mut args = vec!["--matrix", path(&matrix), "--out", path(out)];
        args.extend(budget);
        assert_usage_error(&args);
    }
}

#[test]
fn a_one_point_sweep_writes_its_report() {
    let dir = scratch("ok");
    let report = dir.join("r.json");
    let matrix = dir.join("matrix.json");
    let out = sweep(&[
        "--matrix",
        path(&matrix),
        "--budget",
        "200",
        "--threads",
        "1",
        "--out",
        path(&report),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&report).expect("the report was written");
    assert!(json.contains("\"benchmark\": \"gcc\""), "{json}");
}
