//! The structured diagnostics engine: findings, severities, reports, and
//! the human renderer every analyzer feeds into.

use swp_ir::{OpId, ScheduleError};

/// How much of the audit to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VerifyLevel {
    /// No verification (the production default).
    #[default]
    Off,
    /// The schedule analyzer only: dependences, modulo reservation table,
    /// and issue width re-derived from the DDG.
    Schedule,
    /// All four analyzers (schedule, registers, expansion, banks) plus the
    /// pre-scheduling IR lints.
    Full,
}

impl VerifyLevel {
    /// Stable lowercase name, used by the JSON renderer and cache keys.
    pub fn name(self) -> &'static str {
        match self {
            VerifyLevel::Off => "off",
            VerifyLevel::Schedule => "schedule",
            VerifyLevel::Full => "full",
        }
    }
}

/// Severity of a finding. Ordered so `Error` compares greatest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never a correctness problem.
    Note,
    /// Suspicious but not provably wrong (e.g. dead code).
    Warning,
    /// A proven violation of a correctness constraint.
    Error,
}

impl Severity {
    /// Stable lowercase name, used by both renderers.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One diagnostic from an analyzer or lint: a stable code, a severity, a
/// human message, and the op/cycle it anchors to when one exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable lint code (`SWP-Vxxx` for audit findings, `SWP-Lxxx` for IR
    /// lints); documented in DESIGN.md §7.
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description of the violated constraint.
    pub message: String,
    /// The operation involved, if the finding is about one.
    pub op: Option<OpId>,
    /// The cycle (or kernel row) involved, if any.
    pub cycle: Option<i64>,
}

impl Finding {
    /// An error-severity finding.
    pub fn error(code: &'static str, message: impl Into<String>) -> Finding {
        Finding {
            code,
            severity: Severity::Error,
            message: message.into(),
            op: None,
            cycle: None,
        }
    }

    /// A warning-severity finding.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Finding {
        Finding {
            severity: Severity::Warning,
            ..Finding::error(code, message)
        }
    }

    /// A note-severity finding.
    pub fn note(code: &'static str, message: impl Into<String>) -> Finding {
        Finding {
            severity: Severity::Note,
            ..Finding::error(code, message)
        }
    }

    /// Anchor the finding to an operation.
    pub fn at_op(mut self, op: OpId) -> Finding {
        self.op = Some(op);
        self
    }

    /// Anchor the finding to a cycle or kernel row.
    pub fn at_cycle(mut self, cycle: i64) -> Finding {
        self.cycle = Some(cycle);
        self
    }

    /// The single rendering path for schedule-constraint violations: wrap
    /// a [`ScheduleError`] (whose `Display` already carries its lint code)
    /// as an error finding, anchored to the offending op or row.
    pub fn from_schedule_error(e: &ScheduleError) -> Finding {
        let mut f = Finding::error(e.lint_code(), e.to_string());
        match e {
            ScheduleError::NegativeTime(op) => f.op = Some(*op),
            ScheduleError::Dependence { to, .. } => f.op = Some(*to),
            ScheduleError::Resource { row, .. } => f.cycle = Some(i64::from(*row)),
            ScheduleError::WrongLength { .. } => {}
        }
        f
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.severity.name(), self.code)?;
        if let Some(op) = self.op {
            write!(f, " op {}", op.0)?;
        }
        if let Some(c) = self.cycle {
            write!(f, " cycle {c}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The outcome of auditing one compiled loop.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// The level the audit ran at.
    pub level: VerifyLevel,
    /// Everything the analyzers found, lints first, in analyzer order.
    pub findings: Vec<Finding>,
}

impl VerifyReport {
    /// Whether the audit proved nothing wrong (notes and warnings do not
    /// count against cleanliness; errors do).
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0
    }

    /// The report as an accept/reject decision: `Ok` when no finding is
    /// error-severity, otherwise `Err` with the error count. This is how
    /// the degradation ladder uses the auditors as a *gate* — a rejected
    /// rung demotes to the next one instead of shipping a bad schedule.
    ///
    /// # Errors
    ///
    /// Returns the number of error-severity findings when there are any.
    pub fn gate(&self) -> Result<(), usize> {
        match self.count(Severity::Error) {
            0 => Ok(()),
            n => Err(n),
        }
    }

    /// Findings at exactly this severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// One line per finding, most severe first (stable within a severity).
    pub fn render_human(&self) -> String {
        let mut ordered: Vec<&Finding> = self.findings.iter().collect();
        ordered.sort_by_key(|f| std::cmp::Reverse(f.severity));
        let mut out = String::new();
        for f in ordered {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_cleanliness() {
        let mut r = VerifyReport {
            level: VerifyLevel::Full,
            findings: vec![
                Finding::note("SWP-L004", "pair"),
                Finding::warning("SWP-L002", "dead"),
            ],
        };
        assert!(r.is_clean());
        assert_eq!(r.gate(), Ok(()));
        r.findings
            .push(Finding::error("SWP-V202", "conflict").at_op(OpId(3)));
        assert!(!r.is_clean());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.gate(), Err(1), "warnings pass the gate, errors reject");
    }

    #[test]
    fn human_rendering_sorts_errors_first() {
        let r = VerifyReport {
            level: VerifyLevel::Full,
            findings: vec![
                Finding::note("SWP-L004", "a note"),
                Finding::error("SWP-V202", "an error"),
            ],
        };
        let text = r.render_human();
        let first = text.lines().next().expect("nonempty");
        assert!(first.starts_with("error[SWP-V202]"), "{first}");
    }
}
