//! Static pre-flight analysis of a processor configuration.
//!
//! [`analyze`] runs before any pipeline state is built: it applies the
//! scalar checks from [`gals_analysis::checks`] to the config and its run
//! limits. [`simulate`](crate::simulate) refuses any config with an
//! error-level finding up front
//! ([`SimError::InvalidConfig`](crate::SimError) carries the finding),
//! records the worst surviving warning as the run's *static verdict*, and
//! cross-references that verdict in any later
//! [`DeadlockReport`](crate::DeadlockReport) — so a watchdog-killed run
//! says "this wedge was flagged GA002 at submit" instead of leaving the
//! post-mortem to grep. `sweep --check` uses the same entry point to vet
//! whole matrices without simulating a cycle.

use gals_analysis::{checks, codes, AnalysisReport, Finding};
use gals_clocks::PausibleModel;

use crate::config::{Clocking, ProcessorConfig, SimLimits};

/// Runs the full static analysis of one configuration + run limits.
///
/// Applies the scalar parameter checks (uarch/energy validation,
/// capacities, FIFO synchroniser window, DVFS ranges, budget sanity, and
/// — in chaos builds — armed wedge detection). The report's finding
/// order is deterministic.
pub fn analyze(config: &ProcessorConfig, limits: &SimLimits) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    // GA010: structural parameter validation, original messages preserved.
    if let Err(msg) = config.uarch.validate() {
        report.push(Finding::error(codes::PARAM_INVALID, msg));
    }
    if let Err(msg) = config.energy.validate() {
        report.push(Finding::error(codes::PARAM_INVALID, msg));
    }
    report.extend(checks::channel_capacities(
        config.channel_capacity,
        config.side_channel_capacity,
    ));
    report.extend(checks::fifo_sync(config.fifo_sync_periods));
    report.extend(checks::dvfs(&config.dvfs.slowdown));
    report.extend(checks::dvfs_uniform_on_sync(
        config.clocking.is_synchronous(),
        &config.dvfs.slowdown,
    ));
    let rendezvous = matches!(
        &config.clocking,
        Clocking::Pausible {
            transfer: PausibleModel::Rendezvous,
            ..
        }
    );
    report.extend(checks::budget(
        limits.max_insts,
        limits.watchdog_cycles,
        rendezvous,
    ));
    #[cfg(feature = "chaos")]
    if let Some(seq) = limits.chaos.withhold_writeback {
        report.extend(checks::wedge(seq, limits.max_insts, limits.watchdog_cycles));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builder_config_analyzes_clean() {
        for (name, cfg) in [
            ("sync", ProcessorConfig::synchronous_1ghz()),
            ("gals", ProcessorConfig::gals_equal_1ghz(1)),
            ("pausible", ProcessorConfig::pausible_equal_1ghz(1)),
            ("rendezvous", ProcessorConfig::pausible_rendezvous_1ghz(1)),
        ] {
            let report = analyze(&cfg, &SimLimits::insts(10_000));
            assert!(report.is_clean(), "{name}: {:?}", report.findings);
        }
    }

    #[test]
    fn undersized_channels_become_ga005_errors() {
        let mut cfg = ProcessorConfig::synchronous_1ghz();
        cfg.channel_capacity = 1;
        let report = analyze(&cfg, &SimLimits::insts(1_000));
        let first = report.first_error().expect("undersized channel must error");
        assert_eq!(first.code, codes::CHANNEL_CAPACITY);
        assert!(first.message.contains("at least 2"));

        // Both capacities at zero: one finding per channel class, no more.
        let mut cfg = ProcessorConfig::gals_equal_1ghz(1);
        cfg.channel_capacity = 0;
        cfg.side_channel_capacity = 0;
        let report = analyze(&cfg, &SimLimits::insts(1_000));
        assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
        assert!(report
            .findings
            .iter()
            .all(|f| f.code == codes::CHANNEL_CAPACITY));
    }

    #[test]
    fn a_bad_dvfs_plan_is_ga006_without_touching_clock_constructors() {
        let mut cfg = ProcessorConfig::gals_equal_1ghz(1);
        // Bypass `with_dvfs` (which would assert) to model a hand-built
        // plan reaching the analyzer.
        cfg.dvfs.slowdown[2] = 0.25;
        let report = analyze(&cfg, &SimLimits::insts(1_000));
        assert_eq!(report.first_error().unwrap().code, codes::DVFS_RANGE);
    }

    #[test]
    fn a_disabled_watchdog_is_only_a_warning_on_blocking_machines() {
        let limits = SimLimits::insts(1_000).with_watchdog_cycles(0);
        let buffered = analyze(&ProcessorConfig::gals_equal_1ghz(1), &limits);
        assert!(
            buffered.static_verdict().is_none(),
            "{:?}",
            buffered.findings
        );
        assert!(!buffered.is_clean(), "info-level note expected");
        let blocking = analyze(&ProcessorConfig::pausible_rendezvous_1ghz(1), &limits);
        assert_eq!(
            blocking.static_verdict().unwrap().code,
            codes::BUDGET_SANITY
        );
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn an_armed_wedge_below_budget_is_the_static_verdict() {
        let mut limits = SimLimits::insts(2_000).with_watchdog_cycles(500);
        limits.chaos.withhold_writeback = Some(150);
        let report = analyze(&ProcessorConfig::gals_equal_1ghz(1), &limits);
        assert!(report.first_error().is_none());
        assert_eq!(
            report.static_verdict().unwrap().code,
            codes::WEDGED_PRODUCER
        );
        // Unarmed (or out-of-reach) wedges change nothing.
        limits.chaos.withhold_writeback = Some(2_000);
        assert!(analyze(&ProcessorConfig::gals_equal_1ghz(1), &limits).is_clean());
    }
}
