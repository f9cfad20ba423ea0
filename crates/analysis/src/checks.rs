//! The pre-flight checks: pure functions over scalar config values,
//! shared by `gals_core::analyze` and `RunSpec::static_findings` (which
//! must vet DVFS points *before* constructing a config, because the clock
//! constructors assert on out-of-range factors).

use crate::finding::{codes, Finding};

/// GA005: main (data) and side (completion/wakeup) channel capacities.
/// The main channels must cover dispatch width (≥ 2), the side channels
/// must absorb a full writeback burst (≥ 16).
pub fn channel_capacities(main: usize, side: usize) -> Vec<Finding> {
    let mut out = Vec::new();
    if main < 2 {
        out.push(Finding::error(
            codes::CHANNEL_CAPACITY,
            format!("channel capacity must be at least 2, got {main}"),
        ));
    }
    if side < 16 {
        out.push(Finding::error(
            codes::CHANNEL_CAPACITY,
            format!("side channel capacity must be at least 16, got {side}"),
        ));
    }
    out
}

/// GA007: `fifo_sync_periods` models a synchronizer latency of 0..=8
/// consumer periods; anything outside is a config typo.
pub fn fifo_sync(periods: f64) -> Option<Finding> {
    if periods.is_finite() && (0.0..=8.0).contains(&periods) {
        None
    } else {
        Some(Finding::error(
            codes::SYNC_RANGE,
            format!("fifo_sync_periods must be within [0, 8], got {periods}"),
        ))
    }
}

/// GA006: per-domain DVFS slowdowns must be finite and ≥ 1.0 (the model
/// only slows clocks down, never overclocks). This runs before any
/// `ClockSpec::slowed` call, turning a would-be assert into a finding.
pub fn dvfs(slowdown: &[f64; 5]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, &f) in slowdown.iter().enumerate() {
        if !f.is_finite() || f < 1.0 {
            out.push(Finding::error(
                codes::DVFS_RANGE,
                format!("dvfs slowdown for domain {i} must be a finite factor >= 1.0, got {f}"),
            ));
        }
    }
    out
}

/// GA006: a single-clock (synchronous) machine cannot scale domains
/// independently; a non-uniform plan there is a modeling error.
pub fn dvfs_uniform_on_sync(is_synchronous: bool, slowdown: &[f64; 5]) -> Option<Finding> {
    if is_synchronous && slowdown.iter().any(|&f| f != slowdown[0]) {
        Some(Finding::error(
            codes::DVFS_RANGE,
            "a synchronous machine cannot scale domains independently; \
             use a uniform dvfs plan",
        ))
    } else {
        None
    }
}

/// GA009: budget sanity. A zero instruction budget runs nothing (warn);
/// a disabled watchdog on a machine with blocking (rendezvous) transfers
/// means a wedge hangs forever instead of producing a deadlock report
/// (info on buffered machines, warning on blocking ones).
pub fn budget(max_insts: u64, watchdog_cycles: u64, blocking_transfers: bool) -> Vec<Finding> {
    let mut out = Vec::new();
    if max_insts == 0 {
        out.push(Finding::warning(
            codes::BUDGET_SANITY,
            "instruction budget is 0; the run will end before any work",
        ));
    }
    if watchdog_cycles == 0 {
        let msg = "watchdog is disabled (watchdog_cycles = 0); a wedged run \
                   will hang instead of producing a deadlock report";
        out.push(if blocking_transfers {
            Finding::warning(codes::BUDGET_SANITY, msg)
        } else {
            Finding::info(codes::BUDGET_SANITY, msg)
        });
    }
    out
}

/// GA002: an armed `withhold_writeback` wedge below the instruction
/// budget guarantees the ROB head at `seq` never retires — commit stops
/// there and the watchdog ends the run. (With `seq` at or above the
/// budget the wedge can never trigger, so nothing is flagged.)
pub fn wedge(withheld_seq: u64, max_insts: u64, watchdog_cycles: u64) -> Option<Finding> {
    if withheld_seq < max_insts {
        Some(Finding::warning(
            codes::WEDGED_PRODUCER,
            format!(
                "writeback withheld from seq {withheld_seq} with an instruction \
                 budget of {max_insts}: commit is guaranteed to wedge behind that \
                 seq and the watchdog will fire after {watchdog_cycles} idle cycles"
            ),
        ))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finding::Severity;

    #[test]
    fn capacities_flag_each_undersized_channel() {
        assert!(channel_capacities(12, 256).is_empty());
        assert_eq!(channel_capacities(1, 256).len(), 1);
        assert_eq!(channel_capacities(1, 8).len(), 2);
        for f in channel_capacities(0, 0) {
            assert_eq!(f.code, codes::CHANNEL_CAPACITY);
            assert_eq!(f.severity, Severity::Error);
        }
    }

    #[test]
    fn fifo_sync_window_is_zero_to_eight() {
        assert!(fifo_sync(0.0).is_none());
        assert!(fifo_sync(8.0).is_none());
        assert!(fifo_sync(1.5).is_none());
        assert_eq!(fifo_sync(-0.1).unwrap().code, codes::SYNC_RANGE);
        assert_eq!(fifo_sync(8.5).unwrap().code, codes::SYNC_RANGE);
        assert_eq!(fifo_sync(f64::NAN).unwrap().code, codes::SYNC_RANGE);
    }

    #[test]
    fn dvfs_rejects_speedups_and_nan() {
        assert!(dvfs(&[1.0; 5]).is_empty());
        assert!(dvfs(&[1.0, 2.5, 1.1, 4.0, 1.0]).is_empty());
        let bad = dvfs(&[0.5, 1.0, f64::NAN, 1.0, f64::INFINITY]);
        assert_eq!(bad.len(), 3);
        assert!(bad.iter().all(|f| f.code == codes::DVFS_RANGE));
    }

    #[test]
    fn sync_machines_need_uniform_plans() {
        assert!(dvfs_uniform_on_sync(false, &[1.0, 2.0, 1.0, 1.0, 1.0]).is_none());
        assert!(dvfs_uniform_on_sync(true, &[2.0; 5]).is_none());
        let f = dvfs_uniform_on_sync(true, &[1.0, 2.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(f.code, codes::DVFS_RANGE);
        assert!(f.message.contains("synchronous"));
    }

    #[test]
    fn budget_warnings_scale_with_blocking_mode() {
        assert!(budget(1_000, 200_000, false).is_empty());
        let zero = budget(0, 200_000, false);
        assert_eq!(zero[0].severity, Severity::Warning);
        assert_eq!(budget(1_000, 0, false)[0].severity, Severity::Info);
        assert_eq!(budget(1_000, 0, true)[0].severity, Severity::Warning);
    }

    #[test]
    fn a_wedge_below_budget_is_ga002() {
        let f = wedge(150, 2_000, 500).unwrap();
        assert_eq!(f.code, codes::WEDGED_PRODUCER);
        assert_eq!(f.severity, Severity::Warning);
        assert!(wedge(2_000, 2_000, 500).is_none());
        assert!(wedge(5_000, 2_000, 500).is_none());
    }
}
