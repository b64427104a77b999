//! # sdiq-verify — static verification of programs, annotations and plans
//!
//! Every scaling substrate in this repository (shards, the remote fleet,
//! compiled plans) is pinned by *dynamic* bit-identity checks; this crate
//! adds the *static* side: a malformed CFG, an unsound advertised-window
//! annotation or a mis-packed plan record is caught by construction, not
//! only when a differential test happens to execute the broken path.
//!
//! Three layers, reported through [`Diagnostic`]s with stable codes (the
//! full table is in `EXPERIMENTS.md`):
//!
//! 1. **Structural** ([`structural::verify_program`]) — CFG
//!    well-formedness, dominator-tree and loop-forest consistency against
//!    independent recomputations, instruction encoding checks and
//!    def-before-use warnings (`CFG*`, `DOM*`, `LOOP*`, `ISA*`, `REG*`).
//! 2. **Annotations** ([`annotations`]) — advertised-window legality
//!    (`ANN*`) and the paper's soundness claim, verified rather than
//!    trusted: every window is a monotone over-approximation of the
//!    region's recomputed demand (`ENV*`).
//! 3. **Plan lint** ([`plan_lint::lint_plan`],
//!    [`plan_lint::lint_lowered_plan`], [`plan_lint::lint_remarked_plan`])
//!    — a compiled [`sdiq_sim::ExecPlan`] cross-checked field-by-field
//!    against its source program and trace, collected or re-executed, or
//!    a re-marked plan against its program and its source plan; and
//!    [`plan_lint::lint_remark_oracle`], a plan the artifact cache made
//!    against the plan built from the program's own trace (`PLAN*`).
//!
//! [`StandardVerifier`] wires layers 1–2 between the compiler's registered
//! passes (see `sdiq_compiler::PassManager`); [`verify_compiled`] and the
//! plan lint run the full suite over finished artifacts — that is what
//! `ArtifactCache` (once per cached artifact, [`lint_lowered_plan`] or
//! [`lint_remarked_plan`]) and the `repro lint` subcommand ([`lint_plan`]
//! and [`lint_remark_oracle`]) call.
//!
//! The guarantees are exactly the listed invariants — the verifier does
//! *not* prove the simulator's timing model correct, nor that advertised
//! windows are *tight* (over-approximation is the contract, minimality is
//! not).

pub mod annotations;
pub mod diag;
pub mod pass_verifier;
pub mod plan_lint;
pub mod structural;

pub use annotations::{verify_annotations, verify_envelope};
pub use diag::{codes, has_errors, Diagnostic, Severity};
pub use pass_verifier::StandardVerifier;
pub use plan_lint::{lint_lowered_plan, lint_plan, lint_remark_oracle, lint_remarked_plan};
pub use structural::verify_program;

use sdiq_compiler::CompiledProgram;

/// The full static suite over a finished compile: structural verification
/// of the annotated program, annotation legality, and the soundness
/// envelope.
pub fn verify_compiled(compiled: &CompiledProgram) -> Vec<Diagnostic> {
    let mut diags = verify_program(&compiled.program);
    diags.extend(verify_annotations(compiled));
    diags.extend(verify_envelope(compiled));
    diags
}
