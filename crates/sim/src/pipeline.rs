//! Behaviour tests of the cycle-level pipeline ([`crate::plan`]): whole
//! programs replayed through [`crate::PlanSimulator`], checking what the
//! paper's mechanism must do — hints throttle dispatch, an unhinted program
//! runs the same under the fixed and the software-hint policy, the adaptive
//! controller resizes, the predictor learns a loop. Test-only.

#[cfg(test)]
pub(crate) mod tests {
    use crate::resize::AdaptiveConfig;
    use crate::{ExecPlan, PlanSimulator, ResizePolicy, SimConfig, SimResult};
    use sdiq_isa::builder::ProgramBuilder;
    use sdiq_isa::reg::int_reg;
    use sdiq_isa::{Executor, Program};

    /// A counted loop with `ilp` independent adds, a load and a dependent
    /// add per iteration.
    pub(crate) fn loop_program(trips: i64, ilp: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let entry = p.block();
            let body = p.block();
            let exit = p.block();
            p.with_block(entry, |bb| {
                bb.li(int_reg(1), 0);
                bb.li(int_reg(2), 1000);
                bb.jump(body);
            });
            p.with_block(body, |bb| {
                for k in 0..ilp {
                    bb.addi(int_reg(3 + (k % 6) as u8), int_reg(2), k as i64);
                }
                bb.load(int_reg(10), int_reg(2), 0);
                bb.addi(int_reg(11), int_reg(10), 1);
                bb.addi(int_reg(1), int_reg(1), 1);
                bb.blt(int_reg(1), trips, body, exit);
            });
            p.with_block(exit, |bb| {
                bb.ret();
            });
            p.set_entry(entry);
        }
        b.finish(main).unwrap()
    }

    /// A 300-iteration loop whose body advertises a tiny region (a hint
    /// NOOP of 4 entries) before eight independent adds.
    pub(crate) fn hinted_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.procedure("main");
        {
            let p = b.proc_mut(main);
            let entry = p.block();
            let body = p.block();
            let exit = p.block();
            p.with_block(entry, |bb| {
                bb.li(int_reg(1), 0);
                bb.li(int_reg(2), 1000);
                bb.jump(body);
            });
            p.with_block(body, |bb| {
                bb.hint_noop(4);
                for k in 0..8 {
                    bb.addi(int_reg(3 + (k % 6) as u8), int_reg(2), k as i64);
                }
                bb.addi(int_reg(1), int_reg(1), 1);
                bb.blt(int_reg(1), 300, body, exit);
            });
            p.with_block(exit, |bb| {
                bb.ret();
            });
            p.set_entry(entry);
        }
        b.finish(main).unwrap()
    }

    fn run(program: &Program, policy: ResizePolicy) -> SimResult {
        let trace = Executor::new(program).run(200_000).unwrap();
        let plan = ExecPlan::build(SimConfig::hpca2005(), program, &trace);
        PlanSimulator::new(&plan, policy).run().unwrap()
    }

    #[test]
    fn baseline_run_commits_everything() {
        let program = loop_program(200, 4);
        let trace = Executor::new(&program).run(200_000).unwrap();
        let result = run(&program, ResizePolicy::Fixed);
        assert_eq!(result.stats.committed, trace.len() as u64);
        assert!(result.stats.cycles > 0);
        let ipc = result.stats.ipc();
        assert!(ipc > 0.5 && ipc <= 8.0, "IPC {ipc} out of range");
    }

    #[test]
    fn wakeup_accounting_orders_schemes_correctly() {
        let program = loop_program(300, 6);
        let result = run(&program, ResizePolicy::Fixed);
        let s = &result.stats;
        assert!(s.wakeup_comparisons_full >= s.wakeup_comparisons_nonempty);
        assert!(s.wakeup_comparisons_nonempty >= s.wakeup_comparisons_gated);
        assert!(s.wakeup_broadcasts > 0);
    }

    #[test]
    fn adaptive_policy_resizes_and_still_commits() {
        let program = loop_program(4000, 2);
        let result = run(&program, ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()));
        assert!(result.stats.committed > 0);
        assert!(result.adaptive_resizes > 0, "controller should have acted");
        // Low-ILP loop → the adaptive queue shrinks → fewer banks on average
        // than the 10-bank baseline.
        assert!(result.stats.avg_iq_banks_on() < 10.0);
    }

    #[test]
    fn branch_predictor_learns_the_loop() {
        let program = loop_program(400, 1);
        let result = run(&program, ResizePolicy::Fixed);
        assert!(result.stats.branches >= 400);
        assert!(result.stats.mispredict_rate() < 0.2);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let program = loop_program(150, 3);
        let result = run(&program, ResizePolicy::Fixed);
        let s = &result.stats;
        assert_eq!(s.dispatched, s.iq_writes);
        assert_eq!(s.issued, s.iq_reads);
        assert!(s.issued >= s.committed);
        assert!(s.dispatched >= s.issued);
        assert!(s.iq_occupancy_sum > 0);
        assert!(s.avg_iq_occupancy() <= s.iq_total_entries as f64);
        assert!(s.avg_iq_banks_on() <= s.iq_total_banks as f64);
    }

    /// On a program with no hints, the software-hint policy degenerates to
    /// the fixed baseline bit-for-bit.
    #[test]
    fn policies_agree_where_they_must() {
        let program = loop_program(250, 3);
        let fixed = run(&program, ResizePolicy::Fixed);
        let hinted = run(&program, ResizePolicy::SoftwareHint);
        assert_eq!(fixed.stats, hinted.stats);
    }

    /// A hand-hinted loop body drives the region accounting: the hint NOOP
    /// is stripped (counted separately), everything still commits, and the
    /// tight region limit actually stalls dispatch.
    #[test]
    fn software_hints_limit_dispatch_on_a_hinted_program() {
        let program = hinted_program();
        let trace = Executor::new(&program).run(200_000).unwrap();
        let fixed = run(&program, ResizePolicy::Fixed);
        let hinted = run(&program, ResizePolicy::SoftwareHint);
        for result in [&fixed, &hinted] {
            assert_eq!(
                result.stats.committed + result.stats.committed_hints,
                trace.len() as u64
            );
            assert!(result.stats.committed_hints >= 300);
        }
        // Only the hint-honouring policy is throttled by the region limit.
        assert_eq!(fixed.stats.dispatch_limit_stall_cycles, 0);
        assert!(hinted.stats.dispatch_limit_stall_cycles > 0);
        assert!(hinted.stats.avg_iq_occupancy() < fixed.stats.avg_iq_occupancy());
    }
}
