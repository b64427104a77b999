//! Mutation corpus: deliberately corrupted programs, annotations and plans
//! must be *rejected*, each with its documented stable diagnostic code.
//!
//! The clean-workload proptests prove the verifier accepts everything the
//! toolchain actually produces; this file proves it is not vacuously
//! accepting. Every mutation starts from a real compiled benchmark (so the
//! corruption is the only anomaly) and asserts the specific `codes::*`
//! entry fires — not merely "some error".

use sdiq_compiler::{CompiledProgram, CompilerPass, Pass, PassConfig, PassManager, PassState};
use sdiq_isa::reg::int_reg;
use sdiq_isa::{BlockId, Executor, Instruction, Opcode, Program, Trace};
use sdiq_sim::plan::{fetch, flag, ExecPlan, NO_REG};
use sdiq_sim::SimConfig;
use sdiq_verify::{
    codes, lint_lowered_plan, lint_plan, lint_remark_oracle, lint_remarked_plan,
    verify_annotations, verify_compiled, verify_envelope, verify_program, StandardVerifier,
};
use sdiq_workloads::Benchmark;

/// A small real program: scaled-down gzip (loop-dominated, has calls).
fn program() -> Program {
    Benchmark::Gzip.build_scaled(0.02)
}

fn compiled() -> CompiledProgram {
    CompilerPass::new(PassConfig::noop_insertion()).run(&program())
}

fn assert_code(diags: &[sdiq_verify::Diagnostic], code: &str) {
    assert!(
        diags.iter().any(|d| d.code == code),
        "expected a {code} diagnostic, got: {:?}",
        diags.iter().map(|d| d.code).collect::<Vec<_>>()
    );
}

/// Asserts a `code` diagnostic whose location names stream record `idx`.
fn assert_code_at_record(diags: &[sdiq_verify::Diagnostic], code: &str, idx: usize) {
    assert_code_at(diags, code, &format!("record {idx}"));
}

/// Asserts a `code` diagnostic whose location names static-table slot
/// `slot`.
fn assert_code_at_slot(diags: &[sdiq_verify::Diagnostic], code: &str, slot: usize) {
    assert_code_at(diags, code, &format!("slot {slot}"));
}

/// Asserts a `code` diagnostic whose location ends with `suffix`.
fn assert_code_at(diags: &[sdiq_verify::Diagnostic], code: &str, suffix: &str) {
    assert!(
        diags
            .iter()
            .any(|d| d.code == code && d.location.ends_with(suffix)),
        "expected a {code} diagnostic at `{suffix}`, got: {:?}",
        diags
            .iter()
            .map(|d| (d.code, d.location.as_str()))
            .collect::<Vec<_>>()
    );
}

fn assert_clean(program: &Program) {
    let errors: Vec<_> = verify_program(program)
        .into_iter()
        .filter(|d| d.severity == sdiq_verify::Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "baseline program must verify clean: {errors:?}"
    );
}

// --- structural mutations (CFG*, ISA*) ---------------------------------

#[test]
fn dangling_branch_target_is_cfg001() {
    let mut program = program();
    assert_clean(&program);
    let site = program
        .procedures
        .iter()
        .enumerate()
        .find_map(|(p, proc)| {
            proc.blocks.iter().enumerate().find_map(|(b, block)| {
                block
                    .instructions
                    .iter()
                    .position(|i| i.branch_target.is_some())
                    .map(|idx| (p, b, idx))
            })
        })
        .expect("gzip has conditional branches");
    program.procedures[site.0].blocks[site.1].instructions[site.2].branch_target =
        Some(BlockId(9999));
    assert_code(&verify_program(&program), codes::CFG001);
}

#[test]
fn dangling_fallthrough_is_cfg001() {
    let mut program = program();
    let site = program
        .procedures
        .iter()
        .enumerate()
        .find_map(|(p, proc)| {
            proc.blocks
                .iter()
                .position(|b| b.fallthrough.is_some())
                .map(|b| (p, b))
        })
        .expect("gzip has fall-through edges");
    program.procedures[site.0].blocks[site.1].fallthrough = Some(BlockId(9999));
    assert_code(&verify_program(&program), codes::CFG001);
}

/// A block ending in a control transfer, for the trailing-instruction
/// mutations.
fn control_terminated_block(program: &Program) -> (usize, usize) {
    program
        .procedures
        .iter()
        .enumerate()
        .find_map(|(p, proc)| {
            proc.blocks
                .iter()
                .position(|b| b.instructions.last().is_some_and(|i| i.opcode.is_control()))
                .map(|b| (p, b))
        })
        .expect("gzip has control-terminated blocks")
}

#[test]
fn instruction_after_control_transfer_is_cfg002() {
    let mut program = program();
    let (p, b) = control_terminated_block(&program);
    program.procedures[p].blocks[b]
        .instructions
        .push(Instruction::rrr(
            Opcode::Add,
            int_reg(1),
            int_reg(1),
            int_reg(2),
        ));
    assert_code(&verify_program(&program), codes::CFG002);
}

#[test]
fn hint_noop_after_control_transfer_is_ann002() {
    let mut program = program();
    let (p, b) = control_terminated_block(&program);
    let mut hint = Instruction::new(Opcode::HintNoop);
    hint.iq_hint = Some(8);
    program.procedures[p].blocks[b].instructions.push(hint);
    let diags = verify_program(&program);
    assert_code(&diags, codes::ANN002);
    // The unreachable hint is ANN002 specifically, not the generic CFG002.
    assert!(!diags.iter().any(|d| d.code == codes::CFG002));
}

#[test]
fn block_falling_off_the_procedure_is_cfg003() {
    let mut program = program();
    // An unconditional jump with no fall-through: popping it leaves the
    // block with no successor and no return.
    let site = program
        .procedures
        .iter()
        .enumerate()
        .find_map(|(p, proc)| {
            proc.blocks.iter().enumerate().find_map(|(b, block)| {
                let last_is_jump = block
                    .instructions
                    .last()
                    .is_some_and(|i| i.opcode == Opcode::Jump);
                (last_is_jump && block.fallthrough.is_none()).then_some((p, b))
            })
        })
        .expect("gzip has unconditional jumps");
    program.procedures[site.0].blocks[site.1].instructions.pop();
    assert_code(&verify_program(&program), codes::CFG003);
}

#[test]
fn malformed_instruction_encoding_is_isa001() {
    let mut program = program();
    let site = program
        .procedures
        .iter()
        .enumerate()
        .find_map(|(p, proc)| {
            proc.blocks.iter().enumerate().find_map(|(b, block)| {
                block
                    .instructions
                    .iter()
                    .position(|i| i.opcode.is_load())
                    .map(|idx| (p, b, idx))
            })
        })
        .expect("gzip has loads");
    // A load without a memory reference fails operand-shape validation.
    program.procedures[site.0].blocks[site.1].instructions[site.2].mem = None;
    assert_code(&verify_program(&program), codes::ISA001);
}

#[test]
fn zero_entry_hint_is_isa002() {
    let mut compiled = compiled();
    let site = compiled
        .program
        .procedures
        .iter()
        .enumerate()
        .find_map(|(p, proc)| {
            proc.blocks.iter().enumerate().find_map(|(b, block)| {
                block
                    .instructions
                    .iter()
                    .position(|i| i.iq_hint.is_some())
                    .map(|idx| (p, b, idx))
            })
        })
        .expect("the compiled program carries hints");
    compiled.program.procedures[site.0].blocks[site.1].instructions[site.2].iq_hint = Some(0);
    assert_code(&verify_program(&compiled.program), codes::ISA002);
}

// --- annotation mutations (ANN*, ENV*) ---------------------------------

#[test]
fn out_of_range_window_is_ann001() {
    let mut compiled = compiled();
    let cap = compiled.config.widths.iq_capacity as u32;
    let key = *compiled
        .annotations
        .block_entries
        .keys()
        .next()
        .expect("the compile annotates blocks");
    compiled.annotations.block_entries.insert(key, cap + 100);
    assert_code(&verify_annotations(&compiled), codes::ANN001);
}

#[test]
fn stale_loop_preheader_value_is_ann003() {
    let mut compiled = compiled();
    let (key, value) = compiled
        .annotations
        .loop_preheader_entries
        .iter()
        .map(|(k, v)| (*k, *v))
        .find(|(k, _)| !compiled.annotations.max_before_call.contains(k))
        .expect("gzip has loop pre-headers without library calls");
    // The annotation map now disagrees with the hint actually emitted last
    // in the block — the loop would run under the wrong window.
    compiled
        .annotations
        .loop_preheader_entries
        .insert(key, if value > 2 { value - 1 } else { value + 1 });
    assert_code(&verify_annotations(&compiled), codes::ANN003);
}

#[test]
fn dangling_low_energy_block_is_ann004() {
    use sdiq_isa::ProcId;
    use sdiq_verify::annotations::check_low_energy_blocks;
    let mut compiled = CompilerPass::new(PassConfig::low_energy_encoding()).run(&program());
    assert!(
        !compiled.annotations.low_energy_blocks.is_empty(),
        "gzip is loop-dominated, the pass marks its loop blocks"
    );
    assert!(
        check_low_energy_blocks(&compiled.program, &compiled.annotations).is_empty(),
        "a real compile's low-energy marks verify clean"
    );
    compiled
        .annotations
        .low_energy_blocks
        .insert(sdiq_isa::BlockRef {
            proc: ProcId(compiled.program.procedures.len()),
            block: BlockId(0),
        });
    assert_code(
        &check_low_energy_blocks(&compiled.program, &compiled.annotations),
        codes::ANN004,
    );
}

#[test]
fn library_low_energy_block_is_ann004() {
    use sdiq_verify::annotations::check_low_energy_blocks;
    let mut compiled = CompilerPass::new(PassConfig::low_energy_encoding()).run(&program());
    // Retroactively declare a marked procedure a library routine: the mark
    // now points where the pass could never legitimately have looked.
    let marked = *compiled
        .annotations
        .low_energy_blocks
        .iter()
        .next()
        .expect("gzip is loop-dominated, the pass marks its loop blocks");
    compiled.program.proc_mut(marked.proc).is_library = true;
    assert_code(
        &check_low_energy_blocks(&compiled.program, &compiled.annotations),
        codes::ANN004,
    );
}

#[test]
fn window_below_recomputed_demand_is_env001() {
    let mut compiled = compiled();
    let cap = compiled.config.widths.iq_capacity as u32;
    let key = *compiled
        .block_requirements
        .iter()
        .find(|(_, req)| req.entries.min(cap) >= 2)
        .map(|(k, _)| k)
        .expect("some DAG block demands at least 2 entries");
    let required = compiled.block_requirements[&key].entries.min(cap);
    compiled.annotations.block_entries.insert(key, required - 1);
    assert_code(&verify_envelope(&compiled), codes::ENV001);
}

#[test]
fn stripped_annotations_are_env001_and_env002() {
    let mut compiled = compiled();
    assert!(
        !compiled.loop_requirements.is_empty(),
        "gzip is loop-dominated"
    );
    // Strip every advertised window: all analysed DAG blocks and loops now
    // have demand but no cover.
    compiled.annotations.block_entries.clear();
    compiled.annotations.loop_preheader_entries.clear();
    let diags = verify_envelope(&compiled);
    assert_code(&diags, codes::ENV001);
    assert_code(&diags, codes::ENV002);
}

// --- plan mutations (PLAN*) --------------------------------------------

fn planned() -> (ExecPlan, Program, Trace) {
    let compiled = compiled();
    let program = compiled.program;
    let trace = Executor::new(&program)
        .run(4_000)
        .expect("gzip executes cleanly");
    let plan = ExecPlan::build(SimConfig::hpca2005(), &program, &trace);
    (plan, program, trace)
}

#[test]
fn baseline_plan_lints_clean() {
    let (plan, program, trace) = planned();
    let diags = lint_plan(&plan, &program, &trace);
    assert!(
        diags.is_empty(),
        "unmutated plan must lint clean: {diags:?}"
    );
}

#[test]
fn trace_length_mismatch_is_plan001() {
    let (plan, program, _) = planned();
    let short_trace = Executor::new(&program)
        .run(1_000)
        .expect("gzip executes cleanly");
    assert_ne!(plan.len(), short_trace.len());
    assert_code(&lint_plan(&plan, &program, &short_trace), codes::PLAN001);
}

/// The slot of a static record that writes a destination distinct from
/// its first source.
fn swappable_slot(plan: &ExecPlan) -> usize {
    plan.statics()
        .iter()
        .position(|r| r.dest != NO_REG && r.srcs[0] != r.dest)
        .expect("some record writes a destination distinct from its source")
}

#[test]
fn swapped_record_fields_are_plan002() {
    let (mut plan, program, trace) = planned();
    let slot = swappable_slot(&plan);
    let rec = &mut plan.statics_mut()[slot];
    std::mem::swap(&mut rec.dest, &mut rec.srcs[0]);
    assert_code_at_slot(&lint_plan(&plan, &program, &trace), codes::PLAN002, slot);
}

#[test]
fn a_stream_entry_naming_another_slot_is_plan002() {
    let (plan, program, mut trace) = planned();
    // The trace's third instruction claims another address: the plan's
    // entry for it now names the wrong static slot.
    trace.committed[2].addr += 4;
    let diags = lint_plan(&plan, &program, &trace);
    assert_code_at_record(&diags, codes::PLAN002, 2);
}

#[test]
fn corrupted_memory_stream_is_plan003() {
    let (plan, program, mut trace) = planned();
    let idx = trace
        .committed
        .iter()
        .position(|d| d.mem_addr.is_some())
        .expect("gzip performs memory accesses");
    // The plan no longer matches the trace it claims to have been built
    // from.
    let addr = trace.committed[idx].mem_addr.map(|a| a + 64);
    trace.committed[idx].mem_addr = addr;
    assert_code_at_record(&lint_plan(&plan, &program, &trace), codes::PLAN003, idx);
}

/// The cache's lint of a plan lowered from the executor: the same
/// per-record check against a second execution of the program, so its
/// findings equal `lint_plan`'s over the collected trace.
#[test]
fn lowered_plan_lint_against_a_second_execution_matches_the_trace_lint() {
    let (_, program, trace) = planned();
    let mut plan = ExecPlan::lower(SimConfig::hpca2005(), &program, 4_000).expect("gzip executes");
    let clean = lint_lowered_plan(&plan, &program, 4_000).expect("gzip executes");
    assert!(clean.is_empty(), "lowered plan must lint clean: {clean:?}");

    let slot = swappable_slot(&plan);
    let rec = &mut plan.statics_mut()[slot];
    std::mem::swap(&mut rec.dest, &mut rec.srcs[0]);
    let streamed = lint_lowered_plan(&plan, &program, 4_000).expect("gzip executes");
    assert_code_at_slot(&streamed, codes::PLAN002, slot);
    assert_eq!(streamed, lint_plan(&plan, &program, &trace));
    // A second execution under another cap is another instruction count.
    let short = lint_lowered_plan(&plan, &program, 1_000).expect("gzip executes");
    assert_code(&short, codes::PLAN001);
}

#[test]
fn dropped_miss_flag_is_plan004_and_plan005() {
    let (mut plan, program, trace) = planned();
    let idx = plan
        .fetch_flags()
        .iter()
        .position(|&flags| flags & fetch::L1I_MISS != 0)
        .expect("a cold I-cache always misses at least once");
    plan.fetch_flags_mut()[idx] &= !fetch::L1I_MISS;
    let diags = lint_plan(&plan, &program, &trace);
    // The I-miss address stream and the baked icache_misses counter both
    // disagree with the flags now.
    assert_code(&diags, codes::PLAN004);
    assert_code(&diags, codes::PLAN005);
}

#[test]
fn corrupted_commit_counts_are_plan005() {
    let (plan, program, trace) = planned();
    let committed: Vec<usize> = plan
        .commit_counts()
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(slot, _)| slot)
        .take(2)
        .collect();
    assert_eq!(committed.len(), 2, "gzip commits more than one instruction");
    // One count too many: the sum and the recount both disagree.
    let mut extra = plan.clone();
    extra.commit_counts_mut()[committed[0]] += 1;
    assert_code(&lint_plan(&extra, &program, &trace), codes::PLAN005);
    // One commit moved to another instruction keeps the sum; the recount
    // from the trace still catches it.
    let mut moved = plan;
    moved.commit_counts_mut()[committed[0]] -= 1;
    moved.commit_counts_mut()[committed[1]] += 1;
    assert_code(&lint_plan(&moved, &program, &trace), codes::PLAN005);
}

// --- re-marked plan mutations (PLAN006) --------------------------------

/// The raw gzip plan, and the output of the tagging pass, which puts the
/// hints on existing instructions and so changes only markers.
fn raw_and_tagged() -> (ExecPlan, Program) {
    let raw = ExecPlan::lower(SimConfig::hpca2005(), &program(), 4_000).expect("gzip executes");
    let tagged = CompilerPass::new(PassConfig::tagging())
        .run(&program())
        .program;
    (raw, tagged)
}

#[test]
fn remarked_plan_lints_clean_and_equals_the_lowered_plan() {
    let (raw, tagged) = raw_and_tagged();
    let remarked = raw.remark(&tagged).expect("tagging changes only markers");
    let diags = lint_remarked_plan(&remarked, &tagged, &raw);
    assert!(
        diags.is_empty(),
        "re-marked plan must lint clean: {diags:?}"
    );
    let lowered = ExecPlan::lower(SimConfig::hpca2005(), &tagged, 4_000).expect("gzip executes");
    let oracle = lint_remark_oracle(&raw, &tagged, &lowered);
    assert!(oracle.is_empty(), "re-mark must equal lowering: {oracle:?}");
}

#[test]
fn a_static_hint_that_disagrees_with_its_program_is_plan002() {
    let (raw, tagged) = raw_and_tagged();
    let mut remarked = raw.remark(&tagged).expect("tagging changes only markers");
    let slot = remarked
        .statics()
        .iter()
        .position(|r| r.flags & flag::HAS_HINT != 0)
        .expect("the tagging pass tags some instruction");
    remarked.statics_mut()[slot].hint += 1;
    assert_code_at_slot(
        &lint_remarked_plan(&remarked, &tagged, &raw),
        codes::PLAN002,
        slot,
    );
    // The oracle sees the same defect in a lowered plan.
    let mut lowered =
        ExecPlan::lower(SimConfig::hpca2005(), &tagged, 4_000).expect("gzip executes");
    lowered.statics_mut()[slot].hint += 1;
    let trace = Executor::new(&tagged).run(4_000).expect("gzip executes");
    assert_code_at_slot(&lint_plan(&lowered, &tagged, &trace), codes::PLAN002, slot);
    assert_code(&lint_remark_oracle(&raw, &tagged, &lowered), codes::PLAN006);
}

#[test]
fn a_remarked_plan_over_another_plans_stream_is_plan006() {
    let (raw, tagged) = raw_and_tagged();
    // Lowered again: equal content, but a stream of its own.
    let twin = ExecPlan::lower(SimConfig::hpca2005(), &program(), 4_000).expect("gzip executes");
    assert!(twin == raw && !twin.shares_stream(&raw));
    let remarked = twin.remark(&tagged).expect("tagging changes only markers");
    assert_code(
        &lint_remarked_plan(&remarked, &tagged, &raw),
        codes::PLAN006,
    );
    assert!(lint_remarked_plan(&remarked, &tagged, &twin).is_empty());
}

#[test]
fn a_remark_of_a_program_that_differs_in_more_than_markers_is_refused() {
    let (raw, tagged) = raw_and_tagged();
    // The noop pass inserts hint NOOPs: another stream, over more
    // instruction addresses than the raw plan counts commits for. Every
    // instruction is marked low-energy, so a lint that summed those
    // counts over this program would index past them.
    let mut inserted = compiled().program;
    for inst in inserted
        .procedures
        .iter_mut()
        .flat_map(|proc| proc.blocks.iter_mut())
        .flat_map(|block| block.instructions.iter_mut())
    {
        inst.low_energy = true;
    }
    // One immediate moved: the same shape, another execution.
    let mut retimed = tagged.clone();
    let inst = retimed
        .procedures
        .iter_mut()
        .flat_map(|proc| proc.blocks.iter_mut())
        .flat_map(|block| block.instructions.iter_mut())
        .find(|inst| inst.imm.is_some())
        .expect("gzip has immediates");
    inst.imm = inst.imm.map(|imm| imm + 1);
    for (what, other) in [
        ("inserted hint NOOPs", &inserted),
        ("a moved immediate", &retimed),
    ] {
        assert!(raw.remark(other).is_none(), "{what}");
        // A plan re-marked for the tagged program does not pass for one of
        // these either.
        let remarked = raw.remark(&tagged).expect("tagging changes only markers");
        assert_code(&lint_remarked_plan(&remarked, other, &raw), codes::PLAN006);
    }
}

// --- full-suite and pass-manager integration ---------------------------

#[test]
fn verify_compiled_runs_all_layers() {
    let mut compiled = compiled();
    let cap = compiled.config.widths.iq_capacity as u32;
    let key = *compiled
        .annotations
        .block_entries
        .keys()
        .next()
        .expect("the compile annotates blocks");
    compiled.annotations.block_entries.insert(key, cap + 100);
    // One corruption, observed by two layers through the one entry point.
    let diags = verify_compiled(&compiled);
    assert_code(&diags, codes::ANN001);
}

#[test]
fn corrupting_pass_is_caught_and_named_by_the_inter_pass_verifier() {
    /// A pass that plants an illegal window, registered under a
    /// window-producing name so the standard verifier audits it.
    struct PlantBadWindow;
    impl Pass for PlantBadWindow {
        fn name(&self) -> &'static str {
            "dag-windows"
        }
        fn description(&self) -> &'static str {
            "test-only: emit an out-of-range advertised window"
        }
        fn run(&self, state: &mut PassState<'_>) {
            let cap = state.config.widths.iq_capacity as u32;
            let block_ref = sdiq_isa::BlockRef {
                proc: state.program.entry,
                block: state.program.proc(state.program.entry).entry,
            };
            state.annotations.block_entries.insert(block_ref, cap + 7);
        }
    }
    let program = program();
    let mut manager = PassManager::new(PassConfig::noop_insertion());
    manager.register(Box::new(PlantBadWindow));
    let err = manager
        .with_verifier(Box::new(StandardVerifier))
        .run(&program)
        .expect_err("the planted window must abort the pipeline");
    assert_eq!(err.pass, "dag-windows");
    assert!(err.diagnostics.iter().any(|d| d.code == codes::ANN001));
}
