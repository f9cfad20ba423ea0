//! Structured analysis findings.
//!
//! Every check in this crate reports through [`Finding`]: a stable code
//! (`GA…` for model-level config analysis, `GL…` for the source lint), a
//! [`Severity`], and a human-readable message. Codes are part of the
//! public contract — tests, CI greps and the sweep schema all key on
//! them — so existing codes must never be renumbered or reused.

use std::fmt;

/// How bad a finding is. `Error` blocks simulation; `Warning` lets the
/// run proceed but gates `sweep --check` and is cross-referenced by the
/// deadlock report; `Info` is advisory only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory note; never gates anything.
    Info,
    /// Suspicious but runnable; gates `sweep --check` (exit 4).
    Warning,
    /// The config cannot run; `simulate()` refuses it up front.
    Error,
}

impl Severity {
    /// Lower-case label used in rendered findings and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable finding codes for the model-level analysis pass (GA = "GALS
/// analysis"). See `docs/ANALYSIS.md` for the full table. GA001, GA003,
/// GA004 and GA008 are retired and never reused.
pub mod codes {
    /// A producer is statically known to stop producing (e.g. a chaos
    /// `withhold_writeback` wedge armed below the instruction budget),
    /// so downstream domains will starve and the watchdog will fire.
    pub const WEDGED_PRODUCER: &str = "GA002";
    /// A channel capacity below its legal minimum (main channels under
    /// 2, side channels under 16).
    pub const CHANNEL_CAPACITY: &str = "GA005";
    /// A DVFS slowdown below 1.0 / non-finite, or a non-uniform plan on
    /// a single-clock (synchronous) machine.
    pub const DVFS_RANGE: &str = "GA006";
    /// `fifo_sync_periods` outside the modeled [0, 8] window.
    pub const SYNC_RANGE: &str = "GA007";
    /// Budget sanity: zero instruction budget, or a disabled watchdog on
    /// a blocking (rendezvous) machine.
    pub const BUDGET_SANITY: &str = "GA009";
    /// A structural parameter failed its own validation (wraps the
    /// original uarch/energy message).
    pub const PARAM_INVALID: &str = "GA010";
}

/// One analysis finding: stable code + severity + message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable code, e.g. `"GA005"` — never renumbered.
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description naming the offending element.
    pub message: String,
}

impl Finding {
    /// Builds an error-severity finding.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Finding {
            code,
            severity: Severity::Error,
            message: message.into(),
        }
    }

    /// Builds a warning-severity finding.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Finding {
            code,
            severity: Severity::Warning,
            message: message.into(),
        }
    }

    /// Builds an info-severity finding.
    pub fn info(code: &'static str, message: impl Into<String>) -> Self {
        Finding {
            code,
            severity: Severity::Info,
            message: message.into(),
        }
    }

    /// Renders the finding as a JSON object (hand-rolled, like the rest
    /// of the workspace's serialization).
    pub fn json(&self) -> String {
        format!(
            "{{\"code\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\"}}",
            self.code,
            self.severity.as_str(),
            json_escape(&self.message)
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.code, self.severity, self.message)
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The outcome of an analysis pass: an ordered list of findings.
///
/// Order is deterministic (checks run in a fixed sequence), so two
/// analyses of the same config produce byte-identical reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// All findings, in the deterministic order the checks emitted them.
    pub findings: Vec<Finding>,
}

impl AnalysisReport {
    /// An empty (clean) report.
    pub fn new() -> Self {
        AnalysisReport::default()
    }

    /// Appends one finding.
    pub fn push(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// Appends every finding from `more`.
    pub fn extend(&mut self, more: impl IntoIterator<Item = Finding>) {
        self.findings.extend(more);
    }

    /// True when no findings of any severity were produced.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The first error-severity finding, if any — what `simulate()`
    /// attaches to `SimError::InvalidConfig`.
    pub fn first_error(&self) -> Option<&Finding> {
        self.findings.iter().find(|f| f.severity == Severity::Error)
    }

    /// The most severe warning-or-worse finding (ties broken by emission
    /// order). This is the "static verdict" a later `DeadlockReport`
    /// cross-references.
    pub fn static_verdict(&self) -> Option<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity >= Severity::Warning)
            .max_by_key(|f| f.severity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_below_warning_below_error() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_carries_code_severity_and_message() {
        let f = Finding::error(codes::CHANNEL_CAPACITY, "capacity 0 on fetch->decode");
        assert_eq!(f.to_string(), "[GA005] error: capacity 0 on fetch->decode");
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let f = Finding::warning(codes::BUDGET_SANITY, "say \"no\"\nplease");
        assert_eq!(
            f.json(),
            "{\"code\": \"GA009\", \"severity\": \"warning\", \
             \"message\": \"say \\\"no\\\"\\nplease\"}"
        );
    }

    #[test]
    fn static_verdict_prefers_the_most_severe_finding() {
        let mut report = AnalysisReport::new();
        report.push(Finding::info(codes::BUDGET_SANITY, "watchdog off"));
        assert!(report.static_verdict().is_none());
        report.push(Finding::warning(codes::WEDGED_PRODUCER, "wedge armed"));
        report.push(Finding::error(codes::CHANNEL_CAPACITY, "capacity 0"));
        assert_eq!(
            report.static_verdict().unwrap().code,
            codes::CHANNEL_CAPACITY
        );
        assert_eq!(report.first_error().unwrap().code, codes::CHANNEL_CAPACITY);
    }
}
