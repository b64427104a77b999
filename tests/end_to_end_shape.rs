//! Cross-crate integration tests: the qualitative *shape* of the paper's
//! results must hold on a reduced-scale experiment matrix.
//!
//! These are the claims the paper's evaluation rests on:
//!
//! 1. the software technique saves more issue-queue dynamic power than
//!    Folegnani-style `nonEmpty` wakeup gating alone,
//! 2. it reduces issue-queue occupancy and turns banks off (static power),
//! 3. the register file also gets cheaper because fewer instructions are in
//!    flight,
//! 4. the Extension (tagging) variant loses less IPC than the NOOP variant,
//!    and Improved loses no more than Extension,
//! 5. every technique commits exactly the same real instructions as the
//!    baseline (the special NOOPs change nothing architecturally).

use sdiq::core::{experiments, Experiment, Technique};
use sdiq::workloads::Benchmark;

fn suite() -> sdiq::core::Suite {
    let experiment = Experiment {
        scale: 0.12,
        ..Experiment::paper()
    };
    experiment.run_matrix(
        &[Benchmark::Gzip, Benchmark::Crafty, Benchmark::Mcf],
        &Technique::all(),
    )
}

#[test]
fn software_resizing_beats_wakeup_gating_alone_and_preserves_work() {
    let suite = suite();

    for benchmark in [Benchmark::Gzip, Benchmark::Crafty, Benchmark::Mcf] {
        let baseline = suite.get(benchmark, Technique::Baseline).unwrap();
        for technique in Technique::evaluated() {
            let run = suite.get(benchmark, technique).unwrap();
            // 5. identical architectural work.
            assert_eq!(
                run.stats.committed, baseline.stats.committed,
                "{benchmark}/{technique}: committed instructions must match the baseline"
            );
            let cmp = suite.comparison(benchmark, technique).unwrap();
            // Savings are sane percentages.
            assert!(cmp.savings.iq_dynamic_pct <= 100.0);
            assert!(cmp.savings.iq_static_pct <= 100.0);
            assert!(
                cmp.ipc_loss_percent < 35.0,
                "{benchmark}/{technique} pathological IPC loss"
            );
        }

        // 1. NOOP beats nonEmpty on dynamic power.
        let nonempty = suite.comparison(benchmark, Technique::NonEmpty).unwrap();
        let noop = suite.comparison(benchmark, Technique::Noop).unwrap();
        assert!(
            noop.savings.iq_dynamic_pct > nonempty.savings.iq_dynamic_pct,
            "{benchmark}: noop {:.1}% should beat nonEmpty {:.1}%",
            noop.savings.iq_dynamic_pct,
            nonempty.savings.iq_dynamic_pct
        );

        // 2. occupancy reduction and bank gating.
        assert!(noop.iq_occupancy_reduction_percent > 0.0);
        assert!(noop.savings.iq_static_pct > 0.0);

        // 3. register-file savings follow from fewer in-flight instructions.
        assert!(noop.savings.rf_static_pct > 0.0);
        assert!(noop.in_flight_reduction_percent > 0.0);
    }
}

#[test]
fn extension_and_improved_reduce_the_ipc_cost_of_the_noop_scheme() {
    let suite = suite();
    let mut noop_total = 0.0;
    let mut extension_total = 0.0;
    let mut improved_total = 0.0;
    for benchmark in [Benchmark::Gzip, Benchmark::Crafty, Benchmark::Mcf] {
        noop_total += suite
            .comparison(benchmark, Technique::Noop)
            .unwrap()
            .ipc_loss_percent;
        extension_total += suite
            .comparison(benchmark, Technique::Extension)
            .unwrap()
            .ipc_loss_percent;
        improved_total += suite
            .comparison(benchmark, Technique::Improved)
            .unwrap()
            .ipc_loss_percent;
    }
    // 4. Extension (no NOOP overhead) ≤ NOOP; Improved ≤ Extension (within a
    // small tolerance for run-to-run noise on these short workloads).
    assert!(
        extension_total <= noop_total + 0.5,
        "extension {extension_total:.2} vs noop {noop_total:.2}"
    );
    assert!(
        improved_total <= extension_total + 0.5,
        "improved {improved_total:.2} vs extension {extension_total:.2}"
    );
}

#[test]
fn figure_data_is_complete_and_consistent() {
    let suite = suite();
    let f8 = experiments::figure8(&suite);
    assert_eq!(f8.dynamic.len(), 3);
    for series in &f8.dynamic {
        assert_eq!(series.points.len(), 3, "one point per benchmark");
        assert!(series.average.unwrap().is_finite());
    }
    let f10 = experiments::figure10(&suite);
    assert_eq!(f10.len(), 4);
    let summary = experiments::summarise(&suite, Technique::Noop).expect("noop has a baseline");
    assert!(summary.iq_dynamic_pct > summary.rf_dynamic_pct.min(100.0) - 100.0);
    let overall = experiments::overall_processor_savings(&suite, Technique::Noop, 0.22, 0.11)
        .expect("noop has a baseline");
    assert!(overall > 0.0 && overall < 40.0);
}
