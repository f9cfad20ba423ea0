//! Structured deadlock diagnostics: a run that stops making progress must
//! end in `Err(SimError::Deadlock)` with a deterministic snapshot of the
//! stuck machine, never a panic or a hang — this is the core-side contract
//! the sweep harness's fault isolation builds on.

use gals_core::{simulate, simulate_with_engine, ProcessorConfig, SimError};
use gals_core::{DeadlockReport, SimLimits};
use gals_workload::{generate, micro, Benchmark};

/// Unwraps the deadlock report out of a simulation result.
fn expect_deadlock(
    result: Result<gals_core::SimReport, SimError>,
    what: &str,
) -> Box<DeadlockReport> {
    match result {
        Err(SimError::Deadlock(report)) => report,
        Err(e) => panic!("{what}: expected deadlock, got error: {e}"),
        Ok(r) => panic!(
            "{what}: expected deadlock, got a report ({} committed)",
            r.committed
        ),
    }
}

#[test]
fn an_impossible_watchdog_window_trips_before_the_first_commit() {
    // One slow-domain period is far less than the pipeline's fill latency,
    // so the watchdog must fire before anything commits — on both drivers.
    let program = micro::alu_loop(10_000, 4);
    let limits = SimLimits::insts(5_000).with_watchdog_cycles(1);
    for (name, run) in [
        ("clockset", simulate as fn(_, _, _) -> _),
        ("engine", simulate_with_engine as fn(_, _, _) -> _),
    ] {
        let report = expect_deadlock(
            run(&program, ProcessorConfig::synchronous_1ghz(), limits),
            name,
        );
        assert_eq!(
            report.committed, 0,
            "{name}: nothing can commit in one cycle"
        );
        assert_eq!(report.watchdog_cycles, 1, "{name}");
        assert!(report.now > report.last_commit_time, "{name}");
    }
}

#[test]
fn deadlock_reports_are_deterministic_per_driver() {
    let program = generate(Benchmark::Adpcm, 7);
    // In the second case the watchdog trips at 3.068 ns, while the front
    // end waits on its first I-cache fill and the other domains idle: both
    // drivers tick every edge, so both trip it at that same edge.
    for (seed, window) in [(1, 1), (3, 3)] {
        let limits = SimLimits::insts(5_000).with_watchdog_cycles(window);
        let cfg = || ProcessorConfig::gals_equal_1ghz(seed);
        let a = expect_deadlock(simulate(&program, cfg(), limits), "first");
        let b = expect_deadlock(simulate(&program, cfg(), limits), "second");
        assert_eq!(a, b, "the same hung point must reproduce the same report");
        let ea = expect_deadlock(
            simulate_with_engine(&program, cfg(), limits),
            "engine first",
        );
        let eb = expect_deadlock(
            simulate_with_engine(&program, cfg(), limits),
            "engine second",
        );
        assert_eq!(ea, eb);
        assert_eq!(a, ea, "both drivers must report the same deadlock");
    }
}

#[test]
fn the_report_displays_its_trigger_and_occupancy() {
    let program = micro::alu_loop(10_000, 4);
    let limits = SimLimits::insts(5_000).with_watchdog_cycles(1);
    let err = simulate(&program, ProcessorConfig::synchronous_1ghz(), limits)
        .expect_err("watchdog must fire");
    let text = err.to_string();
    assert!(text.contains("deadlock (watchdog)"), "{text}");
    assert!(text.contains("rob="), "{text}");
    assert!(text.contains("wakeup_total="), "{text}");
}

#[test]
fn a_sane_watchdog_never_fires_on_a_healthy_run() {
    // The default window (200k slow periods) is orders of magnitude above
    // any real commit gap; a normal run must complete untouched.
    let program = generate(Benchmark::Compress, 3);
    let report = simulate(
        &program,
        ProcessorConfig::gals_equal_1ghz(1),
        SimLimits::insts(2_000),
    )
    .expect("healthy run");
    assert_eq!(report.committed, 2_000);
}

/// Chaos-mode wedges: withhold one writeback so the ROB head never
/// retires, and check the structured report names the culprit.
#[cfg(feature = "chaos")]
mod chaos {
    use super::*;

    fn wedged_limits(seq: u64) -> SimLimits {
        let mut limits = SimLimits::insts(2_000).with_watchdog_cycles(500);
        limits.chaos.withhold_writeback = Some(seq);
        limits
    }

    #[test]
    fn a_withheld_writeback_wedges_commit_behind_its_seq() {
        let program = generate(Benchmark::Adpcm, 1);
        for cfg in [
            ProcessorConfig::synchronous_1ghz(),
            ProcessorConfig::gals_equal_1ghz(1),
        ] {
            let report = expect_deadlock(
                simulate(&program, cfg.clone(), wedged_limits(150)),
                "wedged run",
            );
            // Commit is stuck exactly behind the instruction whose
            // writeback was withheld. (Seqs number *fetched* instructions,
            // squashed wrong-path ones included, so fewer than `seq`
            // instructions actually committed before the wedge.)
            assert_eq!(report.rob_head_seq, Some(150));
            assert!(report.committed > 0 && report.committed <= 150);
            assert!(report.rob_len > 0);
            let again =
                expect_deadlock(simulate(&program, cfg, wedged_limits(150)), "wedged rerun");
            assert_eq!(report, again, "wedge diagnostics must be deterministic");
        }
    }

    #[test]
    fn both_drivers_surface_the_same_stuck_head() {
        let program = generate(Benchmark::Compress, 2);
        let cfg = || ProcessorConfig::gals_equal_1ghz(1);
        let fast = expect_deadlock(simulate(&program, cfg(), wedged_limits(90)), "clockset");
        let engine = expect_deadlock(
            simulate_with_engine(&program, cfg(), wedged_limits(90)),
            "engine",
        );
        assert_eq!(fast.rob_head_seq, Some(90));
        assert_eq!(fast, engine, "both drivers must report the same deadlock");
    }

    #[test]
    fn an_unarmed_chaos_plan_changes_nothing() {
        let program = generate(Benchmark::Adpcm, 5);
        let limits = SimLimits::insts(1_500);
        assert_eq!(limits.chaos.withhold_writeback, None);
        let report = simulate(&program, ProcessorConfig::gals_equal_1ghz(1), limits)
            .expect("unarmed chaos build runs clean");
        assert_eq!(report.committed, 1_500);
    }
}
