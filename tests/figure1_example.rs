//! Figure 1 / §2 — the paper's worked example.
//!
//! A basic block of six instructions (`a`..`f`) where `c`,`d` depend on
//! `a`,`b` and `e`,`f` depend on `c`,`d`. Limiting the issue queue so that
//! only two instructions are resident at a time does not slow the block
//! down (the dependent instructions could not have issued earlier anyway)
//! but causes far fewer wakeups — the principle behind the whole technique.

use sdiq::isa::builder::ProgramBuilder;
use sdiq::isa::reg::int_reg;
use sdiq::isa::{Executor, Instruction, Program};
use sdiq::sim::{ExecPlan, PlanSimulator, ResizePolicy, SimConfig};

/// Builds the Figure 1 block, repeated `reps` times. When `limit` is given,
/// the first instruction of every repetition carries an issue-queue tag (the
/// paper's Extension encoding) advertising that window.
fn figure1_program(reps: i64, limit: Option<u8>) -> Program {
    let mut b = ProgramBuilder::new();
    b.name("figure1");
    let main = b.procedure("main");
    {
        let p = b.proc_mut(main);
        let entry = p.block();
        let body = p.block();
        let exit = p.block();
        p.with_block(entry, |bb| {
            bb.li(int_reg(1), 1);
            bb.li(int_reg(2), 2);
            bb.li(int_reg(7), 5);
            bb.li(int_reg(9), 0);
            bb.jump(body);
        });
        p.with_block(body, |bb| {
            // a: add r1, 1, r1      b: add r2, 2, r2
            // c: mul r1, 5, r3      d: mul r2, 5, r4
            // e: add r3, r4, r5     f: add r2, r4, r6
            let mut a = Instruction::rri(sdiq::isa::Opcode::Addi, int_reg(1), int_reg(1), 1);
            if let Some(v) = limit {
                a.iq_hint = Some(v);
            }
            bb.push(a);
            bb.addi(int_reg(2), int_reg(2), 2);
            bb.mul(int_reg(3), int_reg(1), int_reg(7));
            bb.mul(int_reg(4), int_reg(2), int_reg(7));
            bb.add(int_reg(5), int_reg(3), int_reg(4));
            bb.add(int_reg(6), int_reg(2), int_reg(4));
            bb.addi(int_reg(9), int_reg(9), 1);
            bb.blt(int_reg(9), reps, body, exit);
        });
        p.with_block(exit, |bb| {
            bb.ret();
        });
        p.set_entry(entry);
    }
    b.finish(main).unwrap()
}

fn run(program: &Program, policy: ResizePolicy) -> sdiq::sim::SimResult {
    let trace = Executor::new(program).run(200_000).unwrap();
    let plan = ExecPlan::build(SimConfig::hpca2005(), program, &trace);
    PlanSimulator::new(&plan, policy).run().unwrap()
}

#[test]
fn a_two_entry_window_does_not_slow_the_single_block_down() {
    // Exactly the situation of Figure 1: the block executes once, with its
    // dependence structure forcing three issue groups (a,b → c,d → e,f). The
    // paper's point is that a two-entry queue executes it in the same number
    // of cycles as the 80-entry queue, with far fewer wakeups.
    let unlimited = run(&figure1_program(1, None), ResizePolicy::Fixed);
    let limited = run(&figure1_program(1, Some(2)), ResizePolicy::SoftwareHint);

    assert_eq!(unlimited.stats.committed, limited.stats.committed);
    assert!(
        limited.stats.cycles <= unlimited.stats.cycles + 3,
        "limited {} vs unlimited {} cycles",
        limited.stats.cycles,
        unlimited.stats.cycles
    );
    assert!(
        limited.stats.wakeup_comparisons_gated <= unlimited.stats.wakeup_comparisons_gated,
        "limited {} vs unlimited {} wakeups",
        limited.stats.wakeup_comparisons_gated,
        unlimited.stats.wakeup_comparisons_gated
    );
}

#[test]
fn limiting_the_repeated_block_saves_wakeups_and_occupancy() {
    // Repeating the block turns it into a loop with a carried dependence, so
    // timing is no longer identical; the power-side claim still holds: fewer
    // resident instructions, fewer operands woken.
    let reps = 500;
    let unlimited = run(&figure1_program(reps, None), ResizePolicy::Fixed);
    let limited = run(&figure1_program(reps, Some(4)), ResizePolicy::SoftwareHint);

    assert_eq!(unlimited.stats.committed, limited.stats.committed);
    assert!(
        limited.stats.wakeup_comparisons_gated < unlimited.stats.wakeup_comparisons_gated,
        "limited {} vs unlimited {}",
        limited.stats.wakeup_comparisons_gated,
        unlimited.stats.wakeup_comparisons_gated
    );
    assert!(limited.stats.avg_iq_occupancy() < unlimited.stats.avg_iq_occupancy());
}

#[test]
fn the_example_block_behaves_as_described_functionally() {
    // One repetition, no limiting: 6 real instructions in the block plus the
    // loop bookkeeping; all of them commit and the dependences resolve.
    let program = figure1_program(1, None);
    let trace = Executor::new(&program).run(1000).unwrap();
    assert!(!trace.hit_cap);
    // entry (4 + jump) + body (8) + ret.
    assert_eq!(trace.len(), 14);
}
