//! The experiment runner: compile (if needed) → execute → simulate → power.

use crate::technique::Technique;
use sdiq_compiler::{CompileStats, CompilerPass};
use sdiq_isa::Program;
use sdiq_power::{EnergyModel, PowerBreakdown, PowerSavings};
use sdiq_sim::{ActivityStats, ExecPlan, PlanSimulator, SimConfig, SimResult};
use sdiq_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// The result of running one (workload, technique) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Workload name (a benchmark name or a custom program's name).
    pub workload: String,
    /// The technique that produced this run.
    pub technique: Technique,
    /// Raw activity counters from the simulator.
    pub stats: ActivityStats,
    /// Energy breakdown under the technique's wakeup-accounting scheme.
    pub power: PowerBreakdown,
    /// Compiler statistics (present only for the software techniques).
    pub compile: Option<CompileStats>,
    /// Number of resize decisions taken by the adaptive controller.
    pub adaptive_resizes: u64,
    /// Special NOOPs added to the static program by the compiler pass.
    pub hint_noops_inserted: usize,
}

impl RunReport {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Compares this run (as the technique) against `baseline`, producing
    /// the normalised quantities the paper reports.
    pub fn compared_to(&self, baseline: &RunReport) -> Comparison {
        let ipc_loss_percent = if baseline.ipc() > 0.0 {
            (1.0 - self.ipc() / baseline.ipc()) * 100.0
        } else {
            0.0
        };
        let occ_base = baseline.stats.avg_iq_occupancy();
        let iq_occupancy_reduction_percent = if occ_base > 0.0 {
            (1.0 - self.stats.avg_iq_occupancy() / occ_base) * 100.0
        } else {
            0.0
        };
        let inflight_base = baseline.stats.avg_rob_occupancy();
        let in_flight_reduction_percent = if inflight_base > 0.0 {
            (1.0 - self.stats.avg_rob_occupancy() / inflight_base) * 100.0
        } else {
            0.0
        };
        Comparison {
            ipc_loss_percent,
            iq_occupancy_reduction_percent,
            in_flight_reduction_percent,
            iq_banks_off_percent: self.stats.iq_banks_off_fraction() * 100.0,
            savings: PowerSavings::relative_to(&baseline.power, &self.power),
        }
    }
}

/// Normalised comparison of a technique run against the baseline run of the
/// same workload.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Comparison {
    /// IPC loss in percent (Figures 6 and 10).
    pub ipc_loss_percent: f64,
    /// Reduction in average issue-queue occupancy, percent (Figure 7).
    pub iq_occupancy_reduction_percent: f64,
    /// Reduction in average in-flight (ROB-resident) instructions, percent
    /// (the "fewer instructions dispatched/in flight" effect of §5.2.3 that
    /// shrinks register-file pressure).
    pub in_flight_reduction_percent: f64,
    /// Fraction of issue-queue banks turned off in the technique run,
    /// percent (§5.2.2 reports 37% for the NOOP technique vs 34% for
    /// abella).
    pub iq_banks_off_percent: f64,
    /// Power savings relative to the baseline (Figures 8, 9, 11, 12).
    pub savings: PowerSavings,
}

/// Experiment configuration: machine model, energy model and workload scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment {
    /// Simulator configuration (Table 1 by default).
    pub sim_config: SimConfig,
    /// Per-event energy model.
    pub energy_model: EnergyModel,
    /// Scale factor applied to every benchmark's outer iteration count
    /// (1.0 = the default scale used by the reproduction figures).
    pub scale: f64,
    /// Hard cap on executed dynamic instructions per run, hint NOOPs
    /// included. On the Table 1 machine every cell ends below it up to
    /// scale 15.4; from 15.45 `bzip2` is cut short, and more benchmarks at
    /// larger scales. `repro` warns on stderr about every cell that
    /// reached it.
    pub max_dynamic_instructions: u64,
}

impl Experiment {
    /// The configuration used to regenerate the paper's figures.
    pub fn paper() -> Self {
        Experiment {
            sim_config: SimConfig::hpca2005(),
            energy_model: EnergyModel::wattch_default(),
            scale: 1.0,
            max_dynamic_instructions: 2_000_000,
        }
    }

    /// A fast configuration for tests, examples and doc tests: the same
    /// machine model over much shorter workloads.
    pub fn quick() -> Self {
        Experiment {
            scale: 0.15,
            ..Experiment::paper()
        }
    }

    /// Runs one benchmark under one technique.
    pub fn run(&self, benchmark: Benchmark, technique: Technique) -> RunReport {
        let program = benchmark.build_scaled(self.scale);
        self.run_program(&program, technique)
    }

    /// Runs an arbitrary (already built) program under one technique. The
    /// program's own name labels the report.
    ///
    /// The input is only borrowed: software techniques run the compiler
    /// pass (which produces the annotated copy it needs), hardware
    /// techniques simulate the borrowed program directly — the experiment
    /// layer never clones a `Program` just to run it. The pass is
    /// retargeted at this experiment's machine (not the hard-coded paper
    /// machine), matching what the matrix engine does per variant. The
    /// program's execution is lowered into an [`ExecPlan`] as it runs
    /// ([`ExecPlan::lower`]), the plan is replayed under the technique's
    /// resize policy, and [`Experiment::report`] prices the replay. This is
    /// the serial reference path the engine's cells are compared against.
    pub fn run_program(&self, program: &Program, technique: Technique) -> RunReport {
        let compiled = technique
            .pass_config_for(self.sim_config.widths, self.sim_config.fu_counts)
            .map(|config| CompilerPass::new(config).run(program));
        let (program_to_run, compile, hint_noops) = match &compiled {
            Some(compiled) => (
                &compiled.program,
                Some(compiled.stats.clone()),
                compiled.stats.hint_noops_inserted,
            ),
            None => (program, None, 0),
        };
        let plan = match ExecPlan::lower(
            self.sim_config,
            program_to_run,
            self.max_dynamic_instructions,
        ) {
            Ok(plan) => plan,
            Err(fault) => panic!("workload must execute cleanly, faulted with {fault:?}"),
        };
        let result = match PlanSimulator::new(&plan, technique.resize_policy()).run() {
            Ok(result) => result,
            Err(err) => panic!("simulation must complete over a committed trace: {err:?}"),
        };
        self.report(plan.workload(), &result, technique, compile, hint_noops)
    }

    /// Prices a replay's counters for `technique` and assembles its report.
    /// The engine enters here with replays shared through
    /// [`crate::ArtifactCache::replayed`]: techniques with the same plan and
    /// resize policy differ only in this step.
    pub fn report(
        &self,
        workload: &str,
        result: &SimResult,
        technique: Technique,
        compile: Option<CompileStats>,
        hint_noops_inserted: usize,
    ) -> RunReport {
        let power = PowerBreakdown::from_stats(
            &result.stats,
            &self.energy_model,
            technique.wakeup_scheme(),
            technique.bank_gating(),
        );
        RunReport {
            workload: workload.to_string(),
            technique,
            stats: result.stats.clone(),
            power,
            compile,
            adaptive_resizes: result.adaptive_resizes,
            hint_noops_inserted,
        }
    }

    /// Runs the full (benchmarks × techniques) matrix on the job engine —
    /// a worker pool sized to the machine pulling cells from a shared
    /// queue, with program builds and compiler passes deduplicated through
    /// a [`crate::ArtifactCache`] — and returns the collected suite. The
    /// result is bit-identical to a serial run (see [`crate::Matrix`]).
    pub fn run_matrix(&self, benchmarks: &[Benchmark], techniques: &[Technique]) -> Suite {
        crate::engine::Matrix::new(self)
            .benchmarks(benchmarks)
            .techniques(techniques)
            .run()
            .into_suite()
    }

    /// Measures the compile time of every benchmark with and without the
    /// analysis pass (the analogue of Table 2). Returns
    /// `(benchmark, baseline_duration, limited_duration)` tuples.
    pub fn compile_times(&self, benchmarks: &[Benchmark]) -> Vec<(Benchmark, Duration, Duration)> {
        benchmarks
            .iter()
            .map(|&b| {
                let start = std::time::Instant::now();
                let program = b.build_scaled(self.scale);
                let baseline = start.elapsed();
                let pass_start = std::time::Instant::now();
                let pass_config = Technique::Noop
                    .pass_config()
                    .unwrap_or_else(|| unreachable!("the NOOP technique always has a pass"));
                let _ = CompilerPass::new(pass_config).run(&program);
                let limited = baseline + pass_start.elapsed();
                (b, baseline, limited)
            })
            .collect()
    }
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment::paper()
    }
}

/// Results of a full (benchmark × technique) matrix.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Suite {
    reports: BTreeMap<(Benchmark, Technique), RunReport>,
}

impl Suite {
    /// The report for one (benchmark, technique) pair, if it was run.
    pub fn get(&self, benchmark: Benchmark, technique: Technique) -> Option<&RunReport> {
        self.reports.get(&(benchmark, technique))
    }

    /// The comparison of `technique` against the baseline for `benchmark`.
    /// Returns `None` unless both runs are present.
    pub fn comparison(&self, benchmark: Benchmark, technique: Technique) -> Option<Comparison> {
        let baseline = self.get(benchmark, Technique::Baseline)?;
        let run = self.get(benchmark, technique)?;
        Some(run.compared_to(baseline))
    }

    /// All benchmarks present in the suite.
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        let mut out: Vec<Benchmark> = self.reports.keys().map(|(b, _)| *b).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All techniques present in the suite.
    pub fn techniques(&self) -> Vec<Technique> {
        let mut out: Vec<Technique> = self.reports.keys().map(|(_, t)| *t).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of stored reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// `true` if the suite holds no reports.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Inserts a report (used by the harness when composing suites manually).
    pub fn insert(&mut self, benchmark: Benchmark, report: RunReport) {
        self.reports.insert((benchmark, report.technique), report);
    }

    /// All reports, in deterministic (benchmark, technique) order.
    pub fn iter(&self) -> impl Iterator<Item = (&(Benchmark, Technique), &RunReport)> {
        self.reports.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_experiment() -> Experiment {
        Experiment {
            scale: 0.05,
            ..Experiment::paper()
        }
    }

    #[test]
    fn baseline_and_noop_runs_produce_consistent_reports() {
        let exp = tiny_experiment();
        let baseline = exp.run(Benchmark::Gzip, Technique::Baseline);
        let noop = exp.run(Benchmark::Gzip, Technique::Noop);
        assert_eq!(baseline.workload, "gzip");
        assert!(baseline.compile.is_none());
        assert!(noop.compile.is_some());
        assert!(noop.hint_noops_inserted > 0);
        // Both runs commit the same number of real instructions.
        assert_eq!(baseline.stats.committed, noop.stats.committed);
        // The NOOP run additionally fetched and stripped the hints.
        assert!(noop.stats.committed_hints > 0);
        assert_eq!(baseline.stats.committed_hints, 0);
        let cmp = noop.compared_to(&baseline);
        // The software technique saves issue-queue dynamic power.
        assert!(cmp.savings.iq_dynamic_pct > 0.0);
        assert!(cmp.iq_occupancy_reduction_percent > 0.0);
    }

    #[test]
    fn run_matrix_fills_every_cell() {
        let exp = tiny_experiment();
        let suite = exp.run_matrix(
            &[Benchmark::Gzip, Benchmark::Mcf],
            &[Technique::Baseline, Technique::Noop],
        );
        assert_eq!(suite.len(), 4);
        assert_eq!(suite.benchmarks().len(), 2);
        assert_eq!(suite.techniques().len(), 2);
        assert!(suite.comparison(Benchmark::Mcf, Technique::Noop).is_some());
        assert!(suite
            .comparison(Benchmark::Mcf, Technique::Abella)
            .is_none());
    }

    #[test]
    fn compile_times_report_baseline_and_limited() {
        let exp = tiny_experiment();
        let times = exp.compile_times(&[Benchmark::Gzip]);
        assert_eq!(times.len(), 1);
        let (b, baseline, limited) = times[0];
        assert_eq!(b, Benchmark::Gzip);
        assert!(limited >= baseline, "analysis can only add time");
    }

    #[test]
    fn nonempty_run_shares_timing_with_baseline() {
        let exp = tiny_experiment();
        let baseline = exp.run(Benchmark::Vpr, Technique::Baseline);
        let nonempty = exp.run(Benchmark::Vpr, Technique::NonEmpty);
        assert_eq!(baseline.stats.cycles, nonempty.stats.cycles);
        let cmp = nonempty.compared_to(&baseline);
        assert!(cmp.ipc_loss_percent.abs() < 1e-9);
        // But it still saves wakeup (dynamic) power.
        assert!(cmp.savings.iq_dynamic_pct > 0.0);
        assert!(cmp.savings.iq_static_pct.abs() < 1e-9);
    }
}
