//! Properties of execution-plan replay over random cells.
//!
//! These drive randomly generated `(program, SimConfig, policy)` cells —
//! odd widths, tiny queues, shallow ROBs, hint-annotated programs on
//! resized machines — through [`ExecPlan::build`], [`ExecPlan::lower`]
//! and [`PlanSimulator`], and check each run against oracles that are not
//! a second simulator: the conservation identities over its
//! [`ActivityStats`](sdiq::sim::ActivityStats), recounted from the trace
//! where they are trace-determined (`common::check_identities`); the plan
//! lint, which re-derives every record from the program and trace; the
//! independence of a plan from the replays that used it before; and, for
//! programs that differ only in markers, the plan lowered from the
//! program's own execution, which a re-marked plan must equal.

mod common;

use proptest::prelude::*;
use sdiq::compiler::{CompilerPass, PassConfig};
use sdiq::isa::builder::ProgramBuilder;
use sdiq::isa::reg::int_reg;
use sdiq::isa::{Executor, Opcode, Program, Trace};
use sdiq::sim::{AdaptiveConfig, ExecPlan, PlanSimulator, ResizePolicy, SimConfig};
use sdiq::verify::{has_errors, lint_plan, lint_remarked_plan};

/// Strategy: a single-loop program with a configurable dependence shape —
/// loads, chained adds and a live loop counter, so renaming, wakeup and
/// the D-cache all see traffic.
fn arb_loop_program() -> impl Strategy<Value = Program> {
    (2i64..30i64, 1usize..5usize, 1usize..4usize).prop_map(|(trips, chains, chain_len)| {
        let mut b = ProgramBuilder::new();
        b.name("plan-prop-loop");
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let entry = p.block();
            let body = p.block();
            let exit = p.block();
            p.with_block(entry, |bb| {
                bb.li(int_reg(1), 0);
                bb.li(int_reg(2), 7);
                bb.li(int_reg(20), 0x3000_0000);
                bb.jump(body);
            });
            p.with_block(body, |bb| {
                bb.load(int_reg(10), int_reg(20), 0);
                for c in 0..chains {
                    let reg = int_reg(3 + c as u8);
                    bb.add(reg, reg, int_reg(10));
                    for k in 1..chain_len {
                        bb.addi(reg, reg, k as i64);
                    }
                }
                bb.addi(int_reg(20), int_reg(20), 8);
                bb.addi(int_reg(1), int_reg(1), 1);
                bb.blt(int_reg(1), trips, body, exit);
            });
            p.with_block(exit, |bb| {
                bb.ret();
            });
            p.set_entry(entry);
        }
        b.finish(main).expect("generated loop program is valid")
    })
}

/// Strategy: a machine shape. Everything replay-relevant varies — width,
/// window sizes, queue geometry, front-end depth, memory latency — around
/// the Table 1 base, within the ranges the rest of the repo exercises.
fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        (0usize..3, 0usize..3, 0usize..3),
        (1u32..4u32, 0usize..3, 0usize..2),
    )
        .prop_map(|((width, rob, iq), (decode_stages, fetch_queue, memory))| {
            let mut config = SimConfig::hpca2005();
            config.widths.pipeline_width = [2, 4, 8][width];
            config.widths.rob_capacity = [32, 64, 128][rob];
            let iq_entries = [40, 64, 80][iq];
            config.widths.iq_capacity = iq_entries;
            config.iq.entries = iq_entries;
            config.decode_stages = decode_stages;
            config.fetch_queue_entries = [8, 16, 32][fetch_queue];
            config.memory_latency = [50, 100][memory];
            config
        })
}

/// Strategy: how to cap a run, resolved against the program by
/// [`choose_cap`] — `(mode, pick)`.
fn arb_cap() -> impl Strategy<Value = (usize, usize)> {
    (0usize..3, 0usize..100_000)
}

/// The instruction cap for `program` under a drawn `(mode, pick)`: mode 0
/// runs to the end (the last record is the entry procedure's `ret`), mode
/// 1 stops right after a taken branch or a jump chosen by `pick`, and
/// mode 2 after `pick` instructions, zero included. The first two end the
/// stream on a control transfer whose BTB target no later record gives,
/// which is where lowering falls back to `addr + 4`.
fn choose_cap(program: &Program, (mode, pick): (usize, usize)) -> u64 {
    const RUN_TO_END: u64 = 20_000;
    let full = Executor::new(program).run(RUN_TO_END).unwrap();
    match mode {
        0 => RUN_TO_END,
        1 => {
            let taken_transfers: Vec<usize> = full
                .committed
                .iter()
                .enumerate()
                .filter(|(_, d)| {
                    let opcode = program.instruction(d.loc).opcode;
                    d.taken == Some(true) || opcode == Opcode::Jump
                })
                .map(|(idx, _)| idx)
                .collect();
            taken_transfers[pick % taken_transfers.len()] as u64 + 1
        }
        _ => (pick % (full.len() + 1)) as u64,
    }
}

fn arb_policy() -> impl Strategy<Value = ResizePolicy> {
    (0usize..3).prop_map(|index| {
        [
            ResizePolicy::Fixed,
            ResizePolicy::SoftwareHint,
            ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()),
        ][index]
    })
}

/// Strategy: markers to put on a program's instructions, in layout order
/// and cycled when the program is longer — a hint value (0 = no tag) and
/// whether the instruction takes the low-energy encoding.
fn arb_markers() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..81u8, 0u8..2u8), 1..24)
}

/// `program` with `markers` put on its instructions. A hint NOOP keeps
/// a hint (it needs one) but may take another value.
fn marked(program: &Program, markers: &[(u8, u8)]) -> Program {
    let mut marked = program.clone();
    let mut cycle = markers.iter().cycle();
    for procedure in &mut marked.procedures {
        for block in &mut procedure.blocks {
            for inst in &mut block.instructions {
                let &(hint, low_energy) = cycle.next().expect("at least one marker");
                if hint > 0 || !inst.is_hint_noop() {
                    inst.iq_hint = (hint > 0).then_some(hint);
                }
                inst.low_energy = low_energy == 1;
            }
        }
    }
    marked
}

/// Builds the plan for `program` / `trace` on `config` and checks that
/// the plan lint finds no error in it.
fn linted_plan(config: SimConfig, program: &Program, trace: &Trace) -> Result<ExecPlan, String> {
    let plan = ExecPlan::build(config, program, trace);
    let diags = lint_plan(&plan, program, trace);
    if has_errors(&diags) {
        return Err(format!("plan lint reports errors: {diags:?}"));
    }
    Ok(plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any (program, config, policy) cell and instruction cap, the
    /// plan lints clean, lowering straight from the executor gives the
    /// plan built from the collected trace, and the replay satisfies
    /// every conservation identity, including the counters recounted
    /// from the trace.
    #[test]
    fn replayed_plans_satisfy_the_conservation_identities(
        program in arb_loop_program(),
        config in arb_config(),
        policy in arb_policy(),
        cap in arb_cap(),
    ) {
        // The software-hint policy is only meaningful on an annotated
        // program — mirror the production pairing (the other policies run
        // the raw program, exactly as the experiment runner does).
        let program = if policy.uses_hints() {
            CompilerPass::new(PassConfig::noop_insertion()).run(&program).program
        } else {
            program
        };
        let cap = choose_cap(&program, cap);
        let trace = Executor::new(&program).run(cap).unwrap();
        let plan = linted_plan(config, &program, &trace)?;
        let lowered = ExecPlan::lower(config, &program, cap).unwrap();
        prop_assert!(
            lowered == plan,
            "lowering from the executor differs from building over the trace (cap {})",
            cap
        );
        let result = PlanSimulator::new(&plan, policy).run().unwrap();
        common::check_identities(&result.stats, Some((&program, &trace)))?;
    }

    /// The two registry-landed techniques (`way-memo`, `lowen-isa`) obey
    /// the same identities. `lowen-isa` tags loop blocks, whose
    /// `committed_low_energy` count is baked into the plan and recounted
    /// here from the trace; both commit the same work.
    #[test]
    fn new_techniques_satisfy_the_conservation_identities(
        program in arb_loop_program(),
        config in arb_config(),
    ) {
        use sdiq::core::Technique;
        let mut runs = Vec::new();
        for technique in [Technique::WayMemo, Technique::LowenIsa] {
            let prepared = match technique.pass_config_for(config.widths, config.fu_counts) {
                Some(pass_config) => CompilerPass::new(pass_config).run(&program).program,
                None => program.clone(),
            };
            let trace = Executor::new(&prepared).run(20_000).unwrap();
            let plan = linted_plan(config, &prepared, &trace)?;
            let result = PlanSimulator::new(&plan, technique.resize_policy()).run().unwrap();
            common::check_identities(&result.stats, Some((&prepared, &trace)))?;
            if technique == Technique::LowenIsa {
                // Loop programs always have marked blocks: the recount just
                // compared is live, not vacuously zero.
                prop_assert!(result.stats.committed_low_energy > 0);
            } else {
                prop_assert_eq!(result.stats.committed_low_energy, 0);
            }
            runs.push((technique.name(), result.stats));
        }
        common::check_equal_committed(runs.iter().map(|(name, stats)| (*name, stats)))?;
    }

    /// A program whose markers differ from a raw or NOOP-annotated loop's
    /// commits the same stream on any machine with the same front end:
    /// the loop's plan re-marked for it onto another drawn back end equals
    /// the plan lowered from its own execution there, shares the loop's
    /// stream, lints clean, and replays identically under any policy.
    #[test]
    fn a_remarked_plan_equals_the_lowered_plan(
        program in arb_loop_program(),
        annotate in 0usize..2,
        config in arb_config(),
        target in arb_config(),
        policy in arb_policy(),
        markers in arb_markers(),
        cap in arb_cap(),
    ) {
        let program = if annotate == 1 {
            CompilerPass::new(PassConfig::noop_insertion()).run(&program).program
        } else {
            program
        };
        let cap = choose_cap(&program, cap);
        let remarked_program = marked(&program, &markers);
        let source = ExecPlan::lower(config, &program, cap).unwrap();
        // `arb_config` varies the back end only.
        prop_assert_eq!(target.front_end(), config.front_end());
        let remarked = source
            .remark(target, &remarked_program)
            .expect("only the markers and the back end differ");
        prop_assert!(remarked.shares_stream(&source));
        let lowered = ExecPlan::lower(target, &remarked_program, cap).unwrap();
        prop_assert!(
            remarked == lowered,
            "the re-marked plan differs from the lowered one (cap {})",
            cap
        );
        let diags = lint_remarked_plan(&remarked, &remarked_program, &source);
        prop_assert!(!has_errors(&diags), "re-marked plan lint: {:?}", diags);
        prop_assert_eq!(
            PlanSimulator::new(&remarked, policy).run().unwrap(),
            PlanSimulator::new(&lowered, policy).run().unwrap()
        );
    }

    /// One plan is shared across every policy of a cell shape (that is
    /// what makes the artifact cache effective), so a plan replayed first
    /// under the other policies must still give exactly what a freshly
    /// built plan gives.
    #[test]
    fn one_plan_serves_every_policy(
        program in arb_loop_program(),
        config in arb_config(),
    ) {
        let trace = Executor::new(&program).run(20_000).unwrap();
        let plan = linted_plan(config, &program, &trace)?;
        for policy in [
            ResizePolicy::Fixed,
            ResizePolicy::SoftwareHint,
            ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()),
        ] {
            let shared = PlanSimulator::new(&plan, policy).run().unwrap();
            let fresh_plan = ExecPlan::build(config, &program, &trace);
            let fresh = PlanSimulator::new(&fresh_plan, policy).run().unwrap();
            prop_assert_eq!(&shared, &fresh);
            common::check_identities(&shared.stats, Some((&program, &trace)))?;
        }
    }
}
