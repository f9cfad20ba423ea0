//! Sweep repetitions with their output checks, and the traced pass that
//! times each layer's public calls on the same run specs.

use std::hint::black_box;
use std::time::Instant;

use gals_core::{analyze, simulate, simulate_with_engine, SimLimits};
use gals_isa::DynStream;
use gals_sweep::{sweep, SweepMatrix, SweepOptions, SweepRequest, SweepResults};
use gals_workload::{generate_workload, Workload};

use crate::trace::Tracer;
use crate::{digest, quantile, Metrics};

/// Execution fuel for running a kernel directly: the same generous bound
/// the workload crate gives its kernels.
const KERNEL_FUEL: u64 = 4_000_000;

/// A request for one sweep of `matrix` on `threads` workers.
pub fn request(matrix: &SweepMatrix, threads: usize) -> SweepRequest {
    SweepRequest::new(matrix.clone()).with_options(SweepOptions::new().threads(threads))
}

/// Runs one sweep and times only the `sweep()` call, in seconds.
pub fn timed_sweep(request: &SweepRequest) -> (Result<SweepResults, String>, f64) {
    let start = Instant::now();
    let results = sweep(request).map(|r| r.results);
    (results, start.elapsed().as_secs_f64())
}

/// What the output checks keep of one run's sweeps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checked {
    /// Digest of each sweep's `SweepResults::to_json()` report.
    pub digests: Vec<String>,
    /// Per point, across the sweeps: whether its status is `ok`, and its
    /// record's JSON.
    pub records: Vec<(bool, String)>,
    /// Committed instructions summed over the points.
    pub committed: u64,
}

impl Checked {
    /// Adds one sweep's `results`, whose rendered report is `json`.
    pub fn add(&mut self, results: &SweepResults, json: &str) {
        self.digests.push(digest(json.as_bytes()));
        self.records.extend(
            results
                .runs
                .iter()
                .map(|r| (r.status.is_ok(), r.to_json_object())),
        );
        self.committed += results.runs.iter().map(|r| r.committed).sum::<u64>();
    }

    /// One digest over every report, to compare two commits' outputs.
    pub fn digest(&self) -> String {
        digest(self.digests.concat().as_bytes())
    }

    /// Points that fail a check against `first`, the first repetition of
    /// the run: a status other than `ok`, or a record that differs. Reports
    /// that differ while every record matches count once.
    pub fn failures(&self, first: &Checked) -> u64 {
        let bad = self
            .records
            .iter()
            .enumerate()
            .filter(|(i, (ok, json))| !ok || first.records.get(*i).map(|r| &r.1) != Some(json))
            .count() as u64;
        let shape = self.records.len() != first.records.len() || self.digests != first.digests;
        if bad == 0 && shape {
            1
        } else {
            bad
        }
    }
}

/// The per-layer figures of one traced pass.
#[derive(Debug)]
pub struct LayerPass {
    /// Every per-layer metric except the `checks.*` totals.
    pub metrics: Metrics,
    /// Points checked.
    pub attempted: u64,
    /// Points that failed a check.
    pub failed: u64,
    /// Digest of the pass's sweep reports.
    pub digest: String,
    /// Σ of the traced `point` spans (generate, pre-flight, simulate).
    pub traced_walk_s: f64,
    /// The same work untraced: Σ direct `RunSpec::run`.
    pub direct_walk_s: f64,
}

/// One traced pass over a run's `matrices`:
///
/// 1. one serial `sweep()` per matrix (their summed wall time is the base
///    of every share) and `SweepResults::to_json`;
/// 2. every `RunSpec::run` directly, untimed per point, so the harness's
///    overhead is `sweep()` minus their sum;
/// 3. per point, the calls `RunSpec::run` makes, each in its own span
///    (`RunSpec::config`, `generate_workload`, `analyze`, `simulate`);
/// 4. per point, probes off the sweep path: `.gasm` parse and execute for
///    kernels, a `DynStream` walk over the budget, and
///    `simulate_with_engine`, whose report must equal `simulate`'s.
pub fn traced_pass(matrices: &[SweepMatrix], tracer: &mut Tracer) -> LayerPass {
    let specs: Vec<_> = matrices.iter().flat_map(SweepMatrix::expand).collect();
    let n = specs.len();
    let mut bad = vec![false; n];
    let pass = tracer.open("pass", None);

    let (mut wall_s, mut render_s) = (0.0, 0.0);
    let mut checked = Checked::default();
    for matrix in matrices {
        let req = request(matrix, 1);
        let (swept, secs) = tracer.time("sweep.sweep", None, || sweep(&req).map(|r| r.results));
        wall_s += secs;
        match swept {
            Ok(results) => {
                let (json, secs) = tracer.time("sweep.render", None, || results.to_json());
                render_s += secs;
                checked.add(&results, &json);
            }
            Err(e) => eprintln!("perfbench: sweep failed: {e}"),
        }
    }
    let (direct, direct_walk_s) = tracer.time("sweep.run_direct", None, || {
        specs.iter().map(|s| black_box(s.run())).collect::<Vec<_>>()
    });
    for (i, rec) in direct.iter().enumerate() {
        if !rec.status.is_ok() || checked.records.get(i) != Some(&(true, rec.to_json_object())) {
            bad[i] = true;
        }
    }

    let mut t = Totals::default();
    let mut sim_ms = Vec::with_capacity(n);
    for (i, spec) in specs.iter().enumerate() {
        let at = Some(i);
        let limits = SimLimits::insts(spec.budget);
        let point = tracer.open("point", at);
        let (config, _) = tracer.time("sweep.config", at, || spec.config());
        let (program, gen_s) = tracer.time("workload.generate", at, || {
            generate_workload(spec.benchmark, spec.workload_seed)
        });
        let (analysis, pre_s) = tracer.time("analysis.preflight", at, || analyze(&config, &limits));
        let (report, sim_s) = tracer.time("core.simulate", at, || {
            simulate(&program, config.clone(), limits)
        });
        t.traced_walk += tracer.close(point);
        black_box(analysis);

        let probe = tracer.open("probe", at);
        if let Workload::Kernel(kernel) = spec.benchmark {
            let (module, parse_s) =
                tracer.time("isa.parse", at, || gals_isa::parse(kernel.source()));
            t.parse += parse_s;
            match module {
                Ok(module) => {
                    let (exec, exec_s) = tracer.time("isa.execute", at, || {
                        module.execute(spec.workload_seed, KERNEL_FUEL)
                    });
                    t.execute += exec_s;
                    // The directly executed trace must be the one the
                    // workload layer handed to the simulator.
                    bad[i] |= !matches!(exec, Ok(e) if e.program == program);
                }
                Err(_) => bad[i] = true,
            }
        }
        let budget = usize::try_from(spec.budget).unwrap_or(usize::MAX);
        let (_, walk_s) = tracer.time("isa.stream_walk", at, || {
            DynStream::new(black_box(&program))
                .take(budget)
                .fold(0u64, |h, d| h.rotate_left(5) ^ d.pc ^ d.next_pc)
        });
        let (engine, engine_s) = tracer.time("core.simulate_with_engine", at, || {
            simulate_with_engine(&program, config, limits)
        });
        tracer.close(probe);

        match (&report, &engine) {
            (Ok(r), Ok(e)) if format!("{r:?}") == format!("{e:?}") => {
                // Clocking family, in the order of the `core.simulate_s.*` names.
                let f = match (spec.mode.clocking(), spec.mode.pausible_model()) {
                    ("sync", _) => 0,
                    ("gals", _) => 1,
                    (_, Some("rendezvous")) => 3,
                    _ => 2,
                };
                t.sim_by_family[f] += sim_s;
                t.committed_by_family[f] += r.committed;
                t.committed += r.committed;
                t.fetched += r.fetched;
                t.wrong_path += r.wrong_path_fetched;
                for (acc, c) in t.domain_cycles.iter_mut().zip(r.domain_cycles) {
                    *acc += c;
                }
                t.channel_ops += r.channel_ops;
                t.stretches += r.stretches.iter().sum::<u64>();
                t.rendezvous_blocked += r.rendezvous_blocked.iter().sum::<u64>();
            }
            _ => bad[i] = true,
        }
        t.generate += gen_s;
        t.preflight += pre_s;
        t.simulate += sim_s;
        t.walk += walk_s;
        t.engine += engine_s;
        sim_ms.push(sim_s * 1e3);
    }
    tracer.close(pass);

    let frac = |x: f64| ratio(x, wall_s);
    let mut m = Metrics::default();
    m.push("workload.generate_s", t.generate);
    m.push("workload.generate_frac", frac(t.generate));
    m.push("isa.parse_s", t.parse);
    m.push("isa.execute_s", t.execute);
    m.push("isa.stream_walk_s", t.walk);
    m.push("isa.stream_walk_frac", frac(t.walk));
    m.push("analysis.preflight_s", t.preflight);
    m.push("core.simulate_s", t.simulate);
    m.push("core.simulate_frac", frac(t.simulate));
    const SIM_S: [&str; 4] = [
        "core.simulate_s.sync",
        "core.simulate_s.gals",
        "core.simulate_s.latched",
        "core.simulate_s.rendezvous",
    ];
    const IPS: [&str; 4] = [
        "core.insts_per_s.sync",
        "core.insts_per_s.gals",
        "core.insts_per_s.latched",
        "core.insts_per_s.rendezvous",
    ];
    for (f, name) in SIM_S.into_iter().enumerate() {
        m.push(name, t.sim_by_family[f]);
    }
    for (f, name) in IPS.into_iter().enumerate() {
        m.push(
            name,
            ratio(t.committed_by_family[f] as f64, t.sim_by_family[f]),
        );
    }
    let cycles: u64 = t.domain_cycles.iter().sum();
    m.push(
        "core.host_ns_per_domain_cycle",
        ratio(t.simulate * 1e9, cycles as f64),
    );
    m.push("core.simulate_ms_p50", quantile(&sim_ms, 1, 2));
    m.push("core.simulate_ms_p90", quantile(&sim_ms, 9, 10));
    m.push("core.engine_s", t.engine);
    m.push(
        "events.clockset_speedup_vs_engine",
        ratio(t.engine, t.simulate),
    );
    m.push("sweep.wall_s", wall_s);
    m.push("sweep.overhead_s", wall_s - direct_walk_s);
    m.push("sweep.overhead_frac", frac(wall_s - direct_walk_s));
    m.push("sweep.render_s", render_s);
    m.push("trace.overhead_s", t.traced_walk - direct_walk_s);
    m.push("core.committed", t.committed as f64);
    m.push("core.fetched", t.fetched as f64);
    m.push(
        "core.wrong_path_frac",
        ratio(t.wrong_path as f64, t.fetched as f64),
    );
    const CYCLES: [&str; 5] = [
        "core.domain_cycles.fetch",
        "core.domain_cycles.decode",
        "core.domain_cycles.int",
        "core.domain_cycles.fp",
        "core.domain_cycles.mem",
    ];
    for (name, c) in CYCLES.into_iter().zip(t.domain_cycles) {
        m.push(name, c as f64);
    }
    m.push("clocks.channel_ops", t.channel_ops as f64);
    m.push("clocks.stretches", t.stretches as f64);
    m.push("clocks.rendezvous_blocked", t.rendezvous_blocked as f64);

    LayerPass {
        metrics: m,
        attempted: n as u64,
        failed: bad.iter().filter(|&&b| b).count() as u64,
        digest: checked.digest(),
        traced_walk_s: t.traced_walk,
        direct_walk_s,
    }
}

/// `num / den`, or 0 when nothing was measured (`den` is 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Running sums of one traced pass.
#[derive(Debug, Default)]
struct Totals {
    generate: f64,
    parse: f64,
    execute: f64,
    walk: f64,
    preflight: f64,
    simulate: f64,
    engine: f64,
    traced_walk: f64,
    sim_by_family: [f64; 4],
    committed_by_family: [u64; 4],
    committed: u64,
    fetched: u64,
    wrong_path: u64,
    domain_cycles: [u64; 5],
    channel_ops: u64,
    stretches: u64,
    rendezvous_blocked: u64,
}
