//! Layer 3: the execution-plan lint.
//!
//! [`sdiq_sim::ExecPlan`] packs every static fact of a
//! `(program, trace, config)` cell into flat arrays; the simulator then
//! trusts those arrays completely. This lint cross-checks a built plan
//! against its sources:
//!
//! * stream lengths agree with the trace (`PLAN001`),
//! * every packed [`InstRecord`](sdiq_sim::InstRecord) round-trips against
//!   its source instruction — destination/source registers under the dense
//!   encoding, FU class, latency, hint value, and every flag that is a
//!   pure function of the instruction and trace (`PLAN002`),
//! * the memory-address stream equals the trace's, with the simulator's
//!   default applied (`PLAN003`),
//! * the I-miss address stream is consistent with the miss flags
//!   (`PLAN004`),
//! * the baked activity counters satisfy their defining identities, and
//!   the per-instruction commit counts sum to the baked commits and equal
//!   a recount from the committed stream (`PLAN005`).
//!
//! Front-end bits that depend on predictor or cache *state* (mispredicts,
//! BTB stalls, L1i hit/miss placement) are not recomputed here — the
//! workspace's golden save pins them, since any change to them moves the
//! cycles and counters of its cells.
//!
//! The check walks the committed instructions one at a time, so it runs
//! the same way over a collected trace ([`lint_plan`]) and over a second
//! execution streamed straight into it ([`lint_lowered_plan`], what the
//! artifact cache runs on plans lowered from the executor). A finding's
//! location is formatted only when the finding is reported.

use crate::diag::{codes, Diagnostic};
use sdiq_isa::exec::DATA_BASE;
use sdiq_isa::{AddressMap, DynInst, ExecError, Executor, Program, Trace};
use sdiq_sim::plan::{commit_slot, dense_arch, flag, ExecPlan, NO_REG};

/// Per-record diagnostics stop after this many findings; corrupted plans
/// tend to fail on every record and a bounded report reads better.
const MAX_RECORD_DIAGS: usize = 25;

/// Cross-checks `plan` against the `program` and `trace` it was built
/// from.
pub fn lint_plan(plan: &ExecPlan, program: &Program, trace: &Trace) -> Vec<Diagnostic> {
    let mut lint = RecordLint::new(plan, program);
    for dyn_inst in &trace.committed {
        lint.check(dyn_inst);
    }
    lint.finish()
}

/// Cross-checks `plan`, lowered with `ExecPlan::lower` from `program` and
/// `max_insts`, against a second execution of `program` under the same
/// cap. Each committed instruction goes through the same per-record check
/// as [`lint_plan`] the moment it commits, so the diagnostics are exactly
/// [`lint_plan`]'s over the trace that execution would collect, and no
/// trace is ever held.
///
/// # Errors
///
/// The executor's fault, if `program` does not execute cleanly.
pub fn lint_lowered_plan(
    plan: &ExecPlan,
    program: &Program,
    max_insts: u64,
) -> Result<Vec<Diagnostic>, ExecError> {
    let mut lint = RecordLint::new(plan, program);
    Executor::new(program).stream(max_insts, |dyn_inst| lint.check(&dyn_inst))?;
    Ok(lint.finish())
}

/// The plan lint's state while it walks the committed instructions in
/// order: the per-record findings so far and the tallies the whole-plan
/// identities need at the end.
struct RecordLint<'a> {
    plan: &'a ExecPlan,
    program: &'a Program,
    line_bytes: u64,
    /// Committed instructions seen so far (the index of the next one).
    seen: usize,
    last_line: Option<u64>,
    record_diags: usize,
    flagged_misses: u64,
    broadcasts: u64,
    hints: u64,
    /// Commits of each static instruction, recounted from the stream and
    /// indexed by `commit_slot` of its address.
    commits: Vec<u32>,
    diags: Vec<Diagnostic>,
}

impl<'a> RecordLint<'a> {
    fn new(plan: &'a ExecPlan, program: &'a Program) -> Self {
        RecordLint {
            plan,
            program,
            line_bytes: plan.config().l1i.line_bytes as u64,
            seen: 0,
            last_line: None,
            record_diags: 0,
            flagged_misses: 0,
            broadcasts: 0,
            hints: 0,
            commits: vec![0; commit_slot(AddressMap::build(program).end())],
            diags: Vec::new(),
        }
    }

    /// Records one per-record finding (PLAN002/PLAN003), up to the cap.
    /// The location is formatted here, only for a finding that is kept.
    fn report(&mut self, code: &'static str, idx: usize, message: String) {
        if self.record_diags < MAX_RECORD_DIAGS {
            self.diags.push(Diagnostic::error(
                code,
                format!("plan `{}` record {idx}", self.plan.workload()),
                message,
            ));
        }
        self.record_diags += 1;
    }

    /// Checks the next committed instruction against its plan record.
    fn check(&mut self, dyn_inst: &DynInst) {
        let idx = self.seen;
        self.seen += 1;
        let plan = self.plan;
        let (Some(rec), Some(&mem_addr)) = (plan.records().get(idx), plan.mem_addrs().get(idx))
        else {
            // The streams are too short; `finish` reports PLAN001.
            return;
        };
        let inst = self.program.instruction(dyn_inst.loc);

        // Counters for the PLAN004/PLAN005 identities below.
        if !inst.is_hint_noop() {
            self.commits[commit_slot(dyn_inst.addr)] += 1;
        }
        if rec.flags & flag::L1I_MISS != 0 {
            self.flagged_misses += 1;
        }
        if rec.flags & flag::IS_HINT != 0 {
            self.hints += 1;
        } else if rec.dest != NO_REG {
            self.broadcasts += 1;
        }

        // PLAN003 — memory stream.
        let expected_mem_addr = dyn_inst.mem_addr.unwrap_or(DATA_BASE);
        if mem_addr != expected_mem_addr {
            self.report(
                codes::PLAN003,
                idx,
                format!(
                    "memory address {mem_addr:#x} disagrees with the trace's {expected_mem_addr:#x}"
                ),
            );
        }

        // PLAN002 — field round-trip.
        let mut expected_srcs = [NO_REG; 2];
        for (slot, src) in expected_srcs.iter_mut().zip(inst.srcs.iter()) {
            if let Some(arch) = src {
                *slot = dense_arch(*arch);
            }
        }
        let expected_dest = inst.dest.map_or(NO_REG, dense_arch);
        let expected_latency = inst.opcode.latency().max(1) as u8;
        let expected_hint = inst.iq_hint.unwrap_or(0);
        let line = dyn_inst.addr / self.line_bytes;
        let expected_new_line = self.last_line != Some(line);
        self.last_line = Some(line);
        let expected_ends_group = if inst.opcode.is_cond_branch() {
            dyn_inst.taken.unwrap_or(false)
        } else {
            inst.opcode.is_control()
        };

        let mismatch = if rec.dest != expected_dest {
            Some(format!("dest {} ≠ expected {expected_dest}", rec.dest))
        } else if rec.srcs != expected_srcs {
            Some(format!("srcs {:?} ≠ expected {expected_srcs:?}", rec.srcs))
        } else if rec.fu != inst.opcode.fu_class() {
            Some(format!(
                "fu {:?} ≠ expected {:?}",
                rec.fu,
                inst.opcode.fu_class()
            ))
        } else if rec.latency != expected_latency {
            Some(format!(
                "latency {} ≠ expected {expected_latency}",
                rec.latency
            ))
        } else if (rec.flags & flag::HAS_HINT != 0) != inst.iq_hint.is_some() {
            Some("HAS_HINT flag disagrees with the instruction's iq_hint".to_string())
        } else if inst.iq_hint.is_some() && rec.hint != expected_hint {
            Some(format!("hint {} ≠ expected {expected_hint}", rec.hint))
        } else if (rec.flags & flag::IS_HINT != 0) != inst.is_hint_noop() {
            Some("IS_HINT flag disagrees with the opcode".to_string())
        } else if (rec.flags & flag::IS_LOAD != 0) != inst.opcode.is_load() {
            Some("IS_LOAD flag disagrees with the opcode".to_string())
        } else if (rec.flags & flag::IS_STORE != 0) != inst.opcode.is_store() {
            Some("IS_STORE flag disagrees with the opcode".to_string())
        } else if (rec.flags & flag::ENDS_GROUP != 0) != expected_ends_group {
            Some("ENDS_GROUP flag disagrees with the control-flow outcome".to_string())
        } else if (rec.flags & flag::NEW_LINE != 0) != expected_new_line {
            Some("NEW_LINE flag disagrees with the fetch-line sequence".to_string())
        } else if rec.flags & flag::L1I_MISS != 0 && rec.flags & flag::NEW_LINE == 0 {
            Some("L1I_MISS set on a record that performs no I-cache access".to_string())
        } else {
            None
        };
        if let Some(problem) = mismatch {
            self.report(codes::PLAN002, idx, problem);
        }
    }

    /// The diagnostics: PLAN001 alone if the plan's streams do not match
    /// the number of committed instructions, otherwise the per-record
    /// findings followed by the whole-plan identities.
    fn finish(self) -> Vec<Diagnostic> {
        let RecordLint {
            plan,
            seen,
            record_diags,
            flagged_misses,
            broadcasts,
            hints,
            commits,
            mut diags,
            ..
        } = self;
        let records = plan.records();
        let mem_addrs = plan.mem_addrs();
        if records.len() != seen || mem_addrs.len() != seen {
            return vec![Diagnostic::error(
                codes::PLAN001,
                format!("plan `{}`", plan.workload()),
                format!(
                    "plan covers {} records / {} memory addresses for a {seen}-instruction trace",
                    records.len(),
                    mem_addrs.len(),
                ),
            )];
        }
        if record_diags > MAX_RECORD_DIAGS {
            diags.push(Diagnostic::error(
                codes::PLAN002,
                format!("plan `{}`", plan.workload()),
                format!(
                    "{} further per-record findings suppressed",
                    record_diags - MAX_RECORD_DIAGS
                ),
            ));
        }
        let total = seen as u64;

        // PLAN004 — I-miss stream consistency.
        if plan.imiss_addrs().len() as u64 != flagged_misses {
            diags.push(Diagnostic::error(
                codes::PLAN004,
                format!("plan `{}`", plan.workload()),
                format!(
                    "{} I-miss addresses for {} L1I_MISS-flagged records",
                    plan.imiss_addrs().len(),
                    flagged_misses
                ),
            ));
        }

        // PLAN005 — baked-counter identities.
        let baked = plan.baked_stats();
        let mut identity = |ok: bool, what: String| {
            if !ok {
                diags.push(Diagnostic::error(
                    codes::PLAN005,
                    format!("plan `{}`", plan.workload()),
                    what,
                ));
            }
        };
        identity(
            baked.committed + baked.committed_hints == total,
            format!(
                "committed {} + hints {} ≠ trace length {total}",
                baked.committed, baked.committed_hints
            ),
        );
        identity(
            baked.committed_hints == hints,
            format!(
                "committed_hints {} ≠ {} IS_HINT records",
                baked.committed_hints, hints
            ),
        );
        identity(
            baked.dispatched == baked.committed
                && baked.issued == baked.committed
                && baked.iq_writes == baked.committed
                && baked.iq_reads == baked.committed,
            format!(
                "dispatched/issued/iq_writes/iq_reads ({}/{}/{}/{}) must all equal committed {}",
                baked.dispatched, baked.issued, baked.iq_writes, baked.iq_reads, baked.committed
            ),
        );
        identity(
            baked.wakeup_broadcasts == broadcasts,
            format!(
                "wakeup_broadcasts {} ≠ {} destination-writing records",
                baked.wakeup_broadcasts, broadcasts
            ),
        );
        identity(
            baked.wakeup_comparisons_full
                == baked.wakeup_broadcasts * 2 * plan.config().iq.entries as u64,
            format!(
                "wakeup_comparisons_full {} ≠ broadcasts × 2 × capacity",
                baked.wakeup_comparisons_full
            ),
        );
        identity(
            baked.icache_misses == flagged_misses,
            format!(
                "icache_misses {} ≠ {} L1I_MISS-flagged records",
                baked.icache_misses, flagged_misses
            ),
        );
        let counts = plan.commit_counts();
        let summed: u64 = counts.iter().map(|&count| u64::from(count)).sum();
        identity(
            summed == baked.committed,
            format!(
                "commit counts sum to {summed} ≠ committed {}",
                baked.committed
            ),
        );
        identity(
            counts.len() == commits.len(),
            format!(
                "{} commit counts for {} instruction addresses",
                counts.len(),
                commits.len()
            ),
        );
        if let Some(slot) = counts
            .iter()
            .zip(&commits)
            .position(|(planned, streamed)| planned != streamed)
        {
            identity(
                false,
                format!(
                    "instruction slot {slot} counts {} commits, the stream commits it {} times",
                    counts[slot], commits[slot]
                ),
            );
        }
        diags
    }
}
