//! Structured diagnostics with stable machine-readable codes.
//!
//! Every checker in this crate reports through [`Diagnostic`]. Codes are
//! grouped by subsystem (`CFG*`, `DOM*`, `LOOP*`, `REG*`, `ISA*`, `ANN*`,
//! `ENV*`, `PLAN*`) and are stable across releases: tests and CI scripts
//! match on them, so a code is never renumbered or reused. The full table
//! lives in `EXPERIMENTS.md`.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not a correctness violation (e.g. a register read
    /// that no path provably defines — the executor zero-initialises
    /// registers, so this is advisory).
    Warning,
    /// A violated invariant. `repro lint` exits non-zero on any error.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding: a stable code, a severity, where, and what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (see [`codes`]).
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable location (`proc \`main\` block b2 inst 3`).
    pub location: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            location: location.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )
    }
}

/// `true` if any diagnostic in `diags` is an [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// The stable diagnostic codes (documentation of record: `EXPERIMENTS.md`).
pub mod codes {
    /// Dangling reference: a block successor, branch target, fall-through,
    /// call target or entry points outside the program.
    pub const CFG001: &str = "CFG001";
    /// A control-transfer instruction is followed by a real (non-hint)
    /// instruction in the same block.
    pub const CFG002: &str = "CFG002";
    /// A block neither returns nor has any successor: control falls off
    /// the end of the procedure.
    pub const CFG003: &str = "CFG003";
    /// CFG edge asymmetry: the built CFG's successor/predecessor lists
    /// disagree with the blocks' terminators.
    pub const CFG004: &str = "CFG004";
    /// The dominator tree disagrees with an independent reachability-based
    /// recomputation.
    pub const DOM001: &str = "DOM001";
    /// Loop-forest inconsistency: a loop header that does not dominate a
    /// body block, or a loop with no back edge.
    pub const LOOP001: &str = "LOOP001";
    /// (Warning) a register is read on some path before any definition.
    /// Advisory: the executor zero-initialises the register file, and
    /// procedures legitimately read incoming argument registers.
    pub const REG001: &str = "REG001";
    /// An instruction fails structural validation (operand shape does not
    /// fit its opcode).
    pub const ISA001: &str = "ISA001";
    /// A decoded resize hint advertises zero issue-queue entries — a value
    /// the annotation encoder can never produce.
    pub const ISA002: &str = "ISA002";
    /// An advertised window lies outside `[floor, capacity]`.
    pub const ANN001: &str = "ANN001";
    /// A hint NOOP is placed after a control transfer, where decode never
    /// reaches it.
    pub const ANN002: &str = "ANN002";
    /// Precedence violation: the loop pre-header hint is not the last hint
    /// decoded in its block, so the loop would run under the wrong window.
    pub const ANN003: &str = "ANN003";
    /// A low-energy-encoding mark references a block outside the program
    /// or inside a library routine the pass never analyses.
    pub const ANN004: &str = "ANN004";
    /// A DAG block's advertised window is below its recomputed demand: the
    /// monotone over-approximation (Graham-anomaly envelope) is violated.
    pub const ENV001: &str = "ENV001";
    /// A loop's advertised window is below its recomputed demand.
    pub const ENV002: &str = "ENV002";
    /// The plan's static table or stream lengths disagree with the
    /// program or the trace.
    pub const PLAN001: &str = "PLAN001";
    /// A static `InstRecord` fails the field round-trip against its
    /// instruction (swapped or corrupted fields), or a stream entry names
    /// another slot or carries fetch flags its instruction and trace
    /// contradict.
    pub const PLAN002: &str = "PLAN002";
    /// The plan's memory-address stream disagrees with the trace.
    pub const PLAN003: &str = "PLAN003";
    /// The plan's I-miss stream disagrees with its own miss flags.
    pub const PLAN004: &str = "PLAN004";
    /// A baked activity-counter identity does not hold, or the
    /// per-instruction commit counts disagree with the baked commits or
    /// with a recount from the committed stream.
    pub const PLAN005: &str = "PLAN005";
    /// A re-marked plan does not share its source plan's stream, totals or
    /// configuration, or its program differs from the source's in more
    /// than markers; or a plan the artifact cache made differs from the
    /// plan built from its program's own trace.
    pub const PLAN006: &str = "PLAN006";
    /// (Warning) the workload's execution stopped at the dynamic
    /// instruction cap, so the plan covers a prefix of the workload.
    pub const PLAN007: &str = "PLAN007";
}
