//! Layer 3: the execution-plan lint.
//!
//! [`sdiq_sim::ExecPlan`] packs every static fact of a
//! `(program, trace, config)` cell into a static table with one record per
//! instruction address and a committed stream with one entry per
//! instruction; the simulator then trusts both completely. This lint
//! cross-checks a plan against its sources:
//!
//! * the static table and the stream's arrays have the lengths the
//!   program and the trace give (`PLAN001`),
//! * every static [`InstRecord`](sdiq_sim::InstRecord) round-trips against
//!   its instruction — destination/source registers under the dense
//!   encoding, FU class, latency, hint value and the static flags — and
//!   every stream entry names its instruction's slot and carries the fetch
//!   flags that are a pure function of the instruction and trace
//!   (`PLAN002`),
//! * the memory-address stream equals the trace's, with the simulator's
//!   default applied (`PLAN003`),
//! * the I-miss address stream is consistent with the miss flags
//!   (`PLAN004`),
//! * the baked activity counters satisfy their defining identities, and
//!   the per-instruction commit counts sum to the baked commits and equal
//!   a recount from the committed stream (`PLAN005`),
//! * a re-marked plan shares its source plan's stream and totals, over a
//!   program that differs from the source in nothing but markers, and a
//!   re-mark equals the plan lowered from the program's own trace
//!   (`PLAN006`).
//!
//! Front-end bits that depend on predictor or cache *state* (mispredicts,
//! BTB stalls, L1i hit/miss placement) are not recomputed here — the
//! workspace's golden save pins them, since any change to them moves the
//! cycles and counters of its cells.
//!
//! The stream check walks the committed instructions one at a time, so it
//! runs the same way over a collected trace ([`lint_plan`]) and over a
//! second execution streamed straight into it ([`lint_lowered_plan`], what
//! the artifact cache runs on plans lowered from the executor). A
//! re-marked plan needs no execution at all ([`lint_remarked_plan`]): its
//! stream is its source plan's, linted when that plan was. A finding's
//! location is formatted only when the finding is reported.

use crate::diag::{codes, Diagnostic};
use sdiq_isa::exec::DATA_BASE;
use sdiq_isa::{AddressMap, BlockRef, DynInst, ExecError, Executor, Program, Trace};
use sdiq_sim::plan::{commit_slot, dense_arch, fetch, flag, low_energy_commits, ExecPlan, NO_REG};
use sdiq_sim::ActivityStats;

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

/// Cross-checks `plan`, re-marked with `ExecPlan::remark` for `program`
/// from `source`, without executing anything: its static table against
/// `program` (`PLAN001`/`PLAN002`), its low-energy commits against the
/// shared counts (`PLAN005`), and its stream, configuration and
/// stream-derived totals against `source`'s, which must accept `program`
/// as a re-mark (`PLAN006`). The stream itself was checked when `source`
/// was linted.
pub fn lint_remarked_plan(
    plan: &ExecPlan,
    program: &Program,
    source: &ExecPlan,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut findings = 0;
    check_static_table(plan, program, &mut diags, &mut findings);
    suppressed(plan, findings, &mut diags);
    let mut remark_finding = |ok: bool, what: &str| {
        if !ok {
            diags.push(Diagnostic::error(
                codes::PLAN006,
                format!("plan `{}`", plan.workload()),
                what.to_string(),
            ));
        }
    };
    remark_finding(
        plan.shares_stream(source),
        "a re-marked plan does not share its source plan's stream",
    );
    remark_finding(
        source.can_remark(program),
        "the program differs from the source plan's in more than markers",
    );
    remark_finding(
        plan.config() == source.config(),
        "the configuration differs from the source plan's",
    );
    let stream_totals = |stats: &ActivityStats| ActivityStats {
        committed_low_energy: 0,
        ..stats.clone()
    };
    remark_finding(
        stream_totals(plan.baked_stats()) == stream_totals(source.baked_stats()),
        "baked totals other than the low-energy commits differ from the source plan's",
    );
    // The counts are indexed by the program's slots only if the shapes
    // agree; a mismatch is already reported above.
    if plan.commit_counts().len() == program_slots(program) {
        let expected = low_energy_commits(program, plan.commit_counts());
        let baked = plan.baked_stats().committed_low_energy;
        if baked != expected {
            diags.push(Diagnostic::error(
                codes::PLAN005,
                format!("plan `{}`", plan.workload()),
                format!("committed_low_energy {baked} ≠ {expected} commits of marked instructions"),
            ));
        }
    }
    diags
}

/// Checks that re-marking `raw` for `program`, which a compile produced
/// from `raw`'s program by changing only markers, gives exactly `lowered`,
/// the plan built from `program`'s own trace (`PLAN006`). This is the
/// independent oracle for `ExecPlan::remark`: `lowered` executed `program`
/// and never saw `raw`.
pub fn lint_remark_oracle(
    raw: &ExecPlan,
    program: &Program,
    lowered: &ExecPlan,
) -> Vec<Diagnostic> {
    let problem = match raw.remark(program) {
        None => Some("the raw plan refuses to re-mark a markers-only compile".to_string()),
        Some(remarked) => {
            if let Some(slot) = (0..remarked.statics().len().max(lowered.statics().len()))
                .find(|&slot| remarked.statics().get(slot) != lowered.statics().get(slot))
            {
                Some(format!(
                    "the re-marked static table differs from the lowered one at slot {slot}"
                ))
            } else if remarked.baked_stats() != lowered.baked_stats() {
                Some("the re-marked baked totals differ from the lowered ones".to_string())
            } else if remarked != *lowered {
                Some("the re-marked stream differs from the lowered one".to_string())
            } else {
                None
            }
        }
    };
    problem
        .map(|problem| {
            Diagnostic::error(
                codes::PLAN006,
                format!("plan `{}`", lowered.workload()),
                problem,
            )
        })
        .into_iter()
        .collect()
}

/// The number of instruction addresses of `program`: the length of a
/// plan's static table and commit counts.
fn program_slots(program: &Program) -> usize {
    commit_slot(AddressMap::build(program).end())
}

/// Reports one per-record finding, up to the cap; `findings` counts them
/// all. The location is formatted here, only for a finding that is kept.
fn report(
    diags: &mut Vec<Diagnostic>,
    findings: &mut usize,
    code: &'static str,
    location: impl FnOnce() -> String,
    message: String,
) {
    if *findings < MAX_RECORD_DIAGS {
        diags.push(Diagnostic::error(code, location(), message));
    }
    *findings += 1;
}

/// The PLAN002 finding that says how many per-record findings the cap
/// suppressed, if any.
fn suppressed(plan: &ExecPlan, findings: usize, diags: &mut Vec<Diagnostic>) {
    if findings > MAX_RECORD_DIAGS {
        diags.push(Diagnostic::error(
            codes::PLAN002,
            format!("plan `{}`", plan.workload()),
            format!(
                "{} further per-record findings suppressed",
                findings - MAX_RECORD_DIAGS
            ),
        ));
    }
}

/// Checks the plan's static table against `program`: one record per
/// instruction address (`PLAN001`), each round-tripping against its
/// instruction (`PLAN002`, located at the record's slot).
fn check_static_table(
    plan: &ExecPlan,
    program: &Program,
    diags: &mut Vec<Diagnostic>,
    findings: &mut usize,
) {
    let addresses = AddressMap::build(program);
    let statics = plan.statics();
    let expected_len = commit_slot(addresses.end());
    if statics.len() != expected_len {
        diags.push(Diagnostic::error(
            codes::PLAN001,
            format!("plan `{}`", plan.workload()),
            format!(
                "static table holds {} records for {expected_len} instruction addresses",
                statics.len()
            ),
        ));
        return;
    }
    for (proc, procedure) in program.iter_procs() {
        for (block, basic_block) in procedure.iter_blocks() {
            let base = commit_slot(addresses.block_addr(BlockRef { proc, block }));
            for (index, inst) in basic_block.instructions.iter().enumerate() {
                let slot = base + index;
                let rec = &statics[slot];
                let mut expected_srcs = [NO_REG; 2];
                for (expected, src) in expected_srcs.iter_mut().zip(inst.srcs.iter()) {
                    if let Some(arch) = src {
                        *expected = dense_arch(*arch);
                    }
                }
                let expected_dest = inst.dest.map_or(NO_REG, dense_arch);
                let expected_latency = inst.opcode.latency().max(1) as u8;
                let expected_hint = inst.iq_hint.unwrap_or(0);
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
                } else {
                    None
                };
                if let Some(problem) = mismatch {
                    report(
                        diags,
                        findings,
                        codes::PLAN002,
                        || format!("plan `{}` slot {slot}", plan.workload()),
                        problem,
                    );
                }
            }
        }
    }
}

/// The plan lint's state while it walks the committed instructions in
/// order: the findings so far and the tallies the whole-plan identities
/// need at the end.
struct RecordLint<'a> {
    plan: &'a ExecPlan,
    program: &'a Program,
    line_bytes: u64,
    /// Committed instructions seen so far (the index of the next one).
    seen: usize,
    last_line: Option<u64>,
    /// Per-record findings so far, reported or suppressed.
    findings: usize,
    flagged_misses: u64,
    broadcasts: u64,
    hints: u64,
    /// Commits of each static instruction, recounted from the stream and
    /// indexed by `commit_slot` of its address.
    commits: Vec<u32>,
    diags: Vec<Diagnostic>,
}

impl<'a> RecordLint<'a> {
    /// Starts the walk with the static-table check.
    fn new(plan: &'a ExecPlan, program: &'a Program) -> Self {
        let mut diags = Vec::new();
        let mut findings = 0;
        check_static_table(plan, program, &mut diags, &mut findings);
        RecordLint {
            plan,
            program,
            line_bytes: plan.config().l1i.line_bytes as u64,
            seen: 0,
            last_line: None,
            findings,
            flagged_misses: 0,
            broadcasts: 0,
            hints: 0,
            commits: vec![0; program_slots(program)],
            diags,
        }
    }

    /// Records one stream finding (PLAN002/PLAN003) at record `idx`.
    fn report(&mut self, code: &'static str, idx: usize, message: String) {
        let workload = self.plan.workload();
        report(
            &mut self.diags,
            &mut self.findings,
            code,
            || format!("plan `{workload}` record {idx}"),
            message,
        );
    }

    /// Checks the next committed instruction against its stream entry.
    fn check(&mut self, dyn_inst: &DynInst) {
        let idx = self.seen;
        self.seen += 1;
        let plan = self.plan;
        let (Some(&slot), Some(&flags), Some(&mem_addr)) = (
            plan.slots().get(idx),
            plan.fetch_flags().get(idx),
            plan.mem_addrs().get(idx),
        ) else {
            // The streams are too short; `finish` reports PLAN001.
            return;
        };
        let inst = self.program.instruction(dyn_inst.loc);
        let expected_slot = commit_slot(dyn_inst.addr);

        // Counters for the PLAN004/PLAN005 identities below, from the
        // plan's own records.
        if !inst.is_hint_noop() {
            self.commits[expected_slot] += 1;
        }
        if flags & fetch::L1I_MISS != 0 {
            self.flagged_misses += 1;
        }
        if let Some(rec) = plan.statics().get(slot as usize) {
            if rec.flags & flag::IS_HINT != 0 {
                self.hints += 1;
            } else if rec.dest != NO_REG {
                self.broadcasts += 1;
            }
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

        // PLAN002 — the entry's slot and fetch flags.
        let line = dyn_inst.addr / self.line_bytes;
        let expected_new_line = self.last_line != Some(line);
        self.last_line = Some(line);
        let expected_ends_group = if inst.opcode.is_cond_branch() {
            dyn_inst.taken.unwrap_or(false)
        } else {
            inst.opcode.is_control()
        };
        let mismatch = if slot as usize != expected_slot {
            Some(format!("slot {slot} ≠ expected {expected_slot}"))
        } else if (flags & fetch::ENDS_GROUP != 0) != expected_ends_group {
            Some("ENDS_GROUP flag disagrees with the control-flow outcome".to_string())
        } else if (flags & fetch::NEW_LINE != 0) != expected_new_line {
            Some("NEW_LINE flag disagrees with the fetch-line sequence".to_string())
        } else if flags & fetch::L1I_MISS != 0 && flags & fetch::NEW_LINE == 0 {
            Some("L1I_MISS set on a record that performs no I-cache access".to_string())
        } else {
            None
        };
        if let Some(problem) = mismatch {
            self.report(codes::PLAN002, idx, problem);
        }
    }

    /// The diagnostics: PLAN001 alone if the plan's stream does not match
    /// the number of committed instructions, otherwise the per-record
    /// findings followed by the whole-plan identities.
    fn finish(self) -> Vec<Diagnostic> {
        let RecordLint {
            plan,
            program,
            seen,
            findings,
            flagged_misses,
            broadcasts,
            hints,
            commits,
            mut diags,
            ..
        } = self;
        let lengths = [
            plan.slots().len(),
            plan.fetch_flags().len(),
            plan.mem_addrs().len(),
        ];
        if lengths.iter().any(|&len| len != seen) {
            return vec![Diagnostic::error(
                codes::PLAN001,
                format!("plan `{}`", plan.workload()),
                format!(
                    "plan covers {} slots / {} fetch flags / {} memory addresses for a \
                     {seen}-instruction trace",
                    lengths[0], lengths[1], lengths[2],
                ),
            )];
        }
        suppressed(plan, findings, &mut diags);
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
        if counts.len() == commits.len() {
            let marked = low_energy_commits(program, &commits);
            identity(
                baked.committed_low_energy == marked,
                format!(
                    "committed_low_energy {} ≠ {marked} commits of marked instructions",
                    baked.committed_low_energy
                ),
            );
        }
        diags
    }
}
