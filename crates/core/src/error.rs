//! Structured simulation failures.
//!
//! A run that cannot produce a [`SimReport`](crate::SimReport) fails with a
//! [`SimError`] instead of aborting the process. The two failure classes
//! are caught at different layers:
//!
//! * **Invalid configuration** is rejected by [`simulate`](crate::simulate)
//!   before any pipeline state is built, so a mis-configured matrix point
//!   costs nothing and cannot poison a shared sweep.
//! * **Deadlock** — no commit inside the commit watchdog's window — ends
//!   the run with a [`DeadlockReport`]: a deterministic snapshot of the
//!   stuck machine (channel and rendezvous-port occupancy, ROB/IQ heads,
//!   last-commit time). The same hung configuration produces the same
//!   report bit-for-bit, so a wedge found in a sweep is reproducible from
//!   its recorded diagnostics alone.

use std::fmt;

use gals_analysis::Finding;
use gals_events::Time;

/// Occupancy of one inter-domain channel or rendezvous port at deadlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortState {
    /// Items currently buffered (0 or 1 for a rendezvous port).
    pub len: usize,
    /// Buffer capacity (1 for a rendezvous port).
    pub capacity: usize,
    /// Whether the crossing is a single-entry rendezvous port.
    pub rendezvous: bool,
}

impl fmt::Display for PortState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.rendezvous { "r" } else { "" };
        write!(f, "{}/{}{}", self.len, self.capacity, tag)
    }
}

/// Deterministic snapshot of the pipeline at the instant a deadlock was
/// detected.
///
/// Built once, by the first tick that trips the commit watchdog, from state that is itself a pure
/// function of the configuration and workload seed — so re-running the same
/// point reproduces the same report exactly, which the chaos-mode tests
/// pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Simulated time at detection.
    pub now: Time,
    /// Simulated time of the last commit (`Time::ZERO` if nothing ever
    /// committed).
    pub last_commit_time: Time,
    /// The configured watchdog window, in slow-domain periods.
    pub watchdog_cycles: u64,
    /// Instructions committed before the machine wedged.
    pub committed: u64,
    /// ROB occupancy.
    pub rob_len: usize,
    /// Sequence number of the ROB head — the instruction commit is stuck
    /// behind — if the ROB is non-empty.
    pub rob_head_seq: Option<u64>,
    /// Decode-buffer occupancy (fetched, not yet renamed).
    pub decode_buf_len: usize,
    /// Issue-queue occupancy per cluster (int, fp, mem).
    pub iq_len: [usize; 3],
    /// Finished executions awaiting writeback per cluster — in rendezvous
    /// mode these are exactly the instructions blocked on occupied ports.
    pub writeback_pending_len: [usize; 3],
    /// Fetch→decode channel occupancy.
    pub ch_fetch_decode: PortState,
    /// Decode→cluster dispatch channel occupancy (int, fp, mem).
    pub ch_dispatch: [PortState; 3],
    /// Cluster→decode completion channel occupancy (int, fp, mem).
    pub ch_complete: [PortState; 3],
    /// Cluster→fetch redirect channel occupancy.
    pub ch_redirect: PortState,
    /// Total wakeup tags in flight across the nine cross-cluster links.
    pub ch_wakeup_total: usize,
    /// Lifetime rendezvous-blocked cycles per domain (all zero outside
    /// rendezvous mode).
    pub rendezvous_blocked: [u64; 5],
    /// The unresolved-recovery branch sequence, if a misprediction was
    /// mid-recovery.
    pub pending_recovery: Option<u64>,
    /// Whether fetch had drained the program.
    pub fetch_halted: bool,
    /// Whether fetch was on the wrong path.
    pub wrong_path: bool,
    /// The static analyzer's pre-flight verdict on this run, if it
    /// flagged anything (the code of the worst warning-level finding,
    /// e.g. `"GA002"` for an armed chaos wedge): a deadlock that was
    /// statically predictable says so in its own report.
    pub static_finding: Option<String>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock (watchdog) at {}: no commit since {} ({} committed, window {} cycles)",
            self.now, self.last_commit_time, self.committed, self.watchdog_cycles,
        )?;
        writeln!(
            f,
            "  rob={} head_seq={:?} decode_buf={}",
            self.rob_len, self.rob_head_seq, self.decode_buf_len,
        )?;
        writeln!(
            f,
            "  iq=[{},{},{}] writeback_pending=[{},{},{}]",
            self.iq_len[0],
            self.iq_len[1],
            self.iq_len[2],
            self.writeback_pending_len[0],
            self.writeback_pending_len[1],
            self.writeback_pending_len[2],
        )?;
        writeln!(
            f,
            "  ch: fetch->decode={} dispatch=[{},{},{}] complete=[{},{},{}] \
             redirect={} wakeup_total={}",
            self.ch_fetch_decode,
            self.ch_dispatch[0],
            self.ch_dispatch[1],
            self.ch_dispatch[2],
            self.ch_complete[0],
            self.ch_complete[1],
            self.ch_complete[2],
            self.ch_redirect,
            self.ch_wakeup_total,
        )?;
        write!(
            f,
            "  rendezvous_blocked={:?} pending_recovery={:?} fetch_halted={} wrong_path={}",
            self.rendezvous_blocked, self.pending_recovery, self.fetch_halted, self.wrong_path,
        )?;
        if let Some(code) = &self.static_finding {
            write!(
                f,
                "\n  static_finding={code} (flagged by pre-flight analysis at submit)"
            )?;
        }
        Ok(())
    }
}

/// Why a simulation run failed to produce a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration failed static analysis; the simulation never
    /// started. The boxed [`Finding`] carries the stable code (`GA…`),
    /// severity and message of the first error-level finding.
    InvalidConfig(Box<Finding>),
    /// The machine stopped making progress; the boxed report is a
    /// deterministic snapshot of the stuck state.
    Deadlock(Box<DeadlockReport>),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(finding) => {
                write!(f, "invalid processor configuration: {finding}")
            }
            SimError::Deadlock(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for SimError {}
