//! Layered same-host benchmark of the GALS simulator.
//!
//! The end-to-end quantity is the host time to regenerate sweeps: serial
//! [`gals_sweep::sweep`]s of a workload's matrix at several workload seeds
//! (see [`workloads`]). A separate traced pass ([`layers`]) walks the same
//! [`gals_sweep::RunSpec`]s and times every public call into each layer
//! (workload generation, `.gasm` parse and execute, the `DynStream` walk,
//! the static pre-flight, `simulate` per clocking family, the `Engine`
//! oracle, the sweep harness and report rendering), keeping spans in
//! memory ([`trace`]) and writing them as Chrome trace-event JSON.
//!
//! Everything is measured from outside: the benchmark only calls the
//! simulator crates' public API and adds no timer inside them.

pub mod layers;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;
use std::process::Command;

/// End-to-end metrics (reported with `--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("sim_insts_per_s", "insts/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (reported with `--trace 1`): name and unit, in the
/// order they are printed.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("workload.generate_s", "s"),
    ("workload.generate_frac", "ratio"),
    ("isa.parse_s", "s"),
    ("isa.execute_s", "s"),
    ("isa.stream_walk_s", "s"),
    ("isa.stream_walk_frac", "ratio"),
    ("analysis.preflight_s", "s"),
    ("core.simulate_s", "s"),
    ("core.simulate_frac", "ratio"),
    ("core.simulate_s.sync", "s"),
    ("core.simulate_s.gals", "s"),
    ("core.simulate_s.latched", "s"),
    ("core.simulate_s.rendezvous", "s"),
    ("core.insts_per_s.sync", "insts/s"),
    ("core.insts_per_s.gals", "insts/s"),
    ("core.insts_per_s.latched", "insts/s"),
    ("core.insts_per_s.rendezvous", "insts/s"),
    ("core.host_ns_per_domain_cycle", "ns"),
    ("core.simulate_ms_p50", "ms"),
    ("core.simulate_ms_p90", "ms"),
    ("core.engine_s", "s"),
    ("events.clockset_speedup_vs_engine", "ratio"),
    ("sweep.wall_s", "s"),
    ("sweep.overhead_s", "s"),
    ("sweep.overhead_frac", "ratio"),
    ("sweep.render_s", "s"),
    ("trace.overhead_s", "s"),
    ("core.committed", "count"),
    ("core.fetched", "count"),
    ("core.wrong_path_frac", "ratio"),
    ("core.domain_cycles.fetch", "count"),
    ("core.domain_cycles.decode", "count"),
    ("core.domain_cycles.int", "count"),
    ("core.domain_cycles.fp", "count"),
    ("core.domain_cycles.mem", "count"),
    ("clocks.channel_ops", "count"),
    ("clocks.stretches", "count"),
    ("clocks.rendezvous_blocked", "count"),
    ("checks.failed_frac", "ratio"),
];

/// Named metric values in print order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    /// Appends one value.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The names, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.0.iter().map(|&(n, _)| n).collect()
    }
}

/// The benchmark's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its value and the unit from `units`.
///
/// # Panics
///
/// Panics if a metric has no entry in `units` (a bug in this crate).
pub fn result_json(
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    units: &[(&str, &str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, &(name, value)) in metrics.0.iter().enumerate() {
        let unit = units
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} has no declared unit"))
            .1;
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Median (mean of the middle pair for an even count); 0 for no data.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `i`-th of the `n - 1` cut points dividing `xs` into `n` groups, by
/// the method of Python's `statistics.quantiles(xs, n=n)` (the default
/// "exclusive" method), so figures here and in `ab.py` agree. A single
/// value is its own quantile; no data gives 0.
pub fn quantile(xs: &[f64], i: usize, n: usize) -> f64 {
    assert!(0 < i && i < n, "cut point {i} of {n}");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return v.first().copied().unwrap_or(0.0);
    }
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
}

/// First quartile, median and third quartile, as
/// `statistics.quantiles(xs, n=4)` gives them.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    [quantile(xs, 1, 4), quantile(xs, 2, 4), quantile(xs, 3, 4)]
}

/// 64-bit FNV-1a, rendered as 16 hex digits: the digest that lets two
/// commits' outputs be compared byte for byte.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host fingerprint printed with every result: core count, CPU model,
/// compiler and commit. The commit comes from `BENCH_COMMIT` when set
/// (`ab.py` sets it), else from git when run inside a git checkout, else it
/// reads `unknown`.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit = std::env::var("BENCH_COMMIT")
        .ok()
        .or_else(|| {
            std::path::Path::new(".git")
                .exists()
                .then(|| command_output("git", &["describe", "--always", "--dirty", "--abbrev=40"]))
                .flatten()
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(&commit)
    )
}

/// Runs a command to completion and returns its trimmed standard output,
/// or `None` if it could not run or failed.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
