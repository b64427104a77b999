//! Regeneration of the paper's tables and figures from a [`Suite`] of runs.
//!
//! Every public function here corresponds to one table or figure of the
//! paper's evaluation (§5); the `repro` binary in `sdiq-bench` prints their
//! output, and `EXPERIMENTS.md` records the measured values next to the
//! paper's.

use crate::runner::{Comparison, Suite};
use crate::technique::Technique;
use sdiq_power::PowerSavings;
use sdiq_sim::SimConfig;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One series of per-benchmark values plus its average — one group of bars
/// in a paper figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureSeries {
    /// Series label (technique name).
    pub label: String,
    /// `(benchmark, value)` pairs in figure order.
    pub points: Vec<(String, f64)>,
    /// Arithmetic mean over the benchmarks (the paper's `SPECINT` bar);
    /// `None` when there are no points, so an empty series never reads
    /// as 0.
    pub average: Option<f64>,
}

/// The arithmetic mean of `values`, or `None` when there are none.
fn mean(values: impl ExactSizeIterator<Item = f64>) -> Option<f64> {
    let count = values.len();
    (count > 0).then(|| values.sum::<f64>() / count as f64)
}

impl FigureSeries {
    fn from_values(label: &str, points: Vec<(String, f64)>) -> Self {
        FigureSeries {
            label: label.to_string(),
            average: mean(points.iter().map(|&(_, value)| value)),
            points,
        }
    }

    /// Renders the series as an aligned text table row block (`n/a` for
    /// a missing average).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "  {}:", self.label);
        for (name, value) in &self.points {
            let _ = writeln!(out, "    {name:10} {value:8.2}");
        }
        let _ = match self.average {
            Some(average) => writeln!(out, "    {:10} {average:8.2}", "AVERAGE"),
            None => writeln!(out, "    {:10} {:>8}", "AVERAGE", "n/a"),
        };
        out
    }
}

/// A figure with a dynamic-power panel and a static-power panel (Figures 8,
/// 9, 11 and 12 all have this two-panel shape).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerFigure {
    /// Left panel: dynamic power savings (percent).
    pub dynamic: Vec<FigureSeries>,
    /// Right panel: static power savings (percent).
    pub static_: Vec<FigureSeries>,
}

/// One series per technique in `techniques` that the suite ran (in that
/// order): `metric` of its comparison against the baseline, per benchmark
/// that ran both.
fn series<F>(suite: &Suite, techniques: &[Technique], metric: F) -> Vec<FigureSeries>
where
    F: Fn(&Comparison) -> f64,
{
    let ran = suite.techniques();
    techniques
        .iter()
        .filter(|technique| ran.contains(technique))
        .map(|&technique| {
            let points = suite
                .benchmarks()
                .into_iter()
                .filter_map(|b| {
                    let comparison = suite.comparison(b, technique)?;
                    Some((b.name().to_string(), metric(&comparison)))
                })
                .collect();
            FigureSeries::from_values(technique.name(), points)
        })
        .collect()
}

/// Figure 6: normalised IPC loss for the NOOP technique, with the `abella`
/// comparator.
pub fn figure6(suite: &Suite) -> Vec<FigureSeries> {
    series(suite, &[Technique::Noop, Technique::Abella], |c| {
        c.ipc_loss_percent
    })
}

/// Figure 7: normalised issue-queue occupancy reduction for the NOOP
/// technique; `None` when the suite did not run it.
pub fn figure7(suite: &Suite) -> Option<FigureSeries> {
    series(suite, &[Technique::Noop], |c| {
        c.iq_occupancy_reduction_percent
    })
    .pop()
}

/// A two-panel power figure over `techniques`: each technique's
/// `dynamic` and `static_` saving against the baseline.
fn power_figure(
    suite: &Suite,
    techniques: &[Technique],
    dynamic: fn(&PowerSavings) -> f64,
    static_: fn(&PowerSavings) -> f64,
) -> PowerFigure {
    PowerFigure {
        dynamic: series(suite, techniques, |c| dynamic(&c.savings)),
        static_: series(suite, techniques, |c| static_(&c.savings)),
    }
}

/// Figure 8: issue-queue dynamic and static power savings for the NOOP
/// technique, with the `nonEmpty` and `abella` comparators.
pub fn figure8(suite: &Suite) -> PowerFigure {
    power_figure(
        suite,
        &[Technique::NonEmpty, Technique::Noop, Technique::Abella],
        |s| s.iq_dynamic_pct,
        |s| s.iq_static_pct,
    )
}

/// Figure 9: integer register-file dynamic and static power savings for the
/// NOOP technique and the `abella` comparator.
pub fn figure9(suite: &Suite) -> PowerFigure {
    power_figure(
        suite,
        &[Technique::Noop, Technique::Abella],
        |s| s.rf_dynamic_pct,
        |s| s.rf_static_pct,
    )
}

/// Figure 10: normalised IPC loss for the Extension and Improved techniques
/// (with the NOOP scheme and `abella` shown for comparison, as in the
/// paper).
pub fn figure10(suite: &Suite) -> Vec<FigureSeries> {
    series(
        suite,
        &[
            Technique::Extension,
            Technique::Improved,
            Technique::Noop,
            Technique::Abella,
        ],
        |c| c.ipc_loss_percent,
    )
}

/// Figure 11: issue-queue power savings for Extension and Improved.
pub fn figure11(suite: &Suite) -> PowerFigure {
    power_figure(
        suite,
        &[Technique::Extension, Technique::Improved],
        |s| s.iq_dynamic_pct,
        |s| s.iq_static_pct,
    )
}

/// Figure 12: integer register-file power savings for Extension and
/// Improved.
pub fn figure12(suite: &Suite) -> PowerFigure {
    power_figure(
        suite,
        &[Technique::Extension, Technique::Improved],
        |s| s.rf_dynamic_pct,
        |s| s.rf_static_pct,
    )
}

/// §6's overall-processor estimate: dynamic power saving of the whole chip
/// assuming the issue queue consumes `iq_share` (22%) and the integer
/// register file `rf_share` (11%) of total processor power, averaged over
/// the benchmarks that ran `technique` beside the baseline; `None` if
/// there are none.
pub fn overall_processor_savings(
    suite: &Suite,
    technique: Technique,
    iq_share: f64,
    rf_share: f64,
) -> Option<f64> {
    let savings: Vec<f64> = suite
        .benchmarks()
        .into_iter()
        .filter_map(|b| suite.comparison(b, technique))
        .map(|c| sdiq_power::overall_processor_dynamic_savings(&c.savings, iq_share, rf_share))
        .collect();
    mean(savings.into_iter())
}

/// Table 1: the processor configuration, rendered as a text table.
pub fn table1(config: &SimConfig) -> String {
    let mut out = String::new();
    let mut row = |k: &str, v: String| {
        let _ = writeln!(out, "  {k:32} {v}");
    };
    row(
        "Fetch/decode/commit width",
        format!("{} instructions", config.widths.pipeline_width),
    );
    row(
        "Branch predictor",
        format!(
            "Hybrid {}K gshare, {}K bimodal, {}K selector",
            config.branch.gshare_entries / 1024,
            config.branch.bimodal_entries / 1024,
            config.branch.selector_entries / 1024
        ),
    );
    row(
        "BTB",
        format!(
            "{} entries, {}-way",
            config.branch.btb_entries, config.branch.btb_ways
        ),
    );
    row(
        "L1 Icache",
        format!(
            "{}KB, {}-way, {}B line, {} cycle hit",
            config.l1i.size_bytes / 1024,
            config.l1i.ways,
            config.l1i.line_bytes,
            config.l1i.hit_latency
        ),
    );
    row(
        "L1 Dcache",
        format!(
            "{}KB, {}-way, {}B line, {} cycles hit",
            config.l1d.size_bytes / 1024,
            config.l1d.ways,
            config.l1d.line_bytes,
            config.l1d.hit_latency
        ),
    );
    row(
        "Unified L2 cache",
        format!(
            "{}KB, {}-way, {}B line, {} cycles hit, {} cycles miss",
            config.l2.size_bytes / 1024,
            config.l2.ways,
            config.l2.line_bytes,
            config.l2.hit_latency,
            config.memory_latency
        ),
    );
    row(
        "ROB size",
        format!("{} entries", config.widths.rob_capacity),
    );
    row(
        "Issue queue",
        format!(
            "{} entries ({} banks of {})",
            config.iq.entries,
            config.iq.banks(),
            config.iq.bank_size
        ),
    );
    row(
        "Int register file",
        format!(
            "{} entries ({} banks of {})",
            config.int_rf.regs_per_class,
            config.int_rf.banks(),
            config.int_rf.bank_size
        ),
    );
    row(
        "FP register file",
        format!(
            "{} entries ({} banks of {})",
            config.fp_rf.regs_per_class,
            config.fp_rf.banks(),
            config.fp_rf.bank_size
        ),
    );
    row(
        "Int FUs",
        format!(
            "{} ALU (1 cycle), {} Mul (3 cycles)",
            config.fu_counts.int_alu, config.fu_counts.int_mul
        ),
    );
    row(
        "FP FUs",
        format!(
            "{} ALU (2 cycles), {} MultDiv (4 cycles mult, 12 cycles div)",
            config.fu_counts.fp_alu, config.fu_counts.fp_mul_div
        ),
    );
    out
}

/// One row of a sweep sensitivity table: a configuration variant's
/// suite-average headline numbers for one technique.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// The variant's label (`base`, `iq64`, ...).
    pub variant: String,
    /// Issue-queue entries of the variant's machine.
    pub iq_entries: usize,
    /// Workload scale of the variant.
    pub scale: f64,
    /// The technique the row summarises.
    pub technique: Technique,
    /// Suite-average summary at this configuration; `None` if no
    /// benchmark ran it beside the baseline.
    pub summary: Option<TechniqueSummary>,
}

/// Figure-10-style sensitivity data: for every point of a configuration
/// sweep and every requested technique the point's suite ran, the
/// suite-average IPC loss and power savings. This is the sweep analogue of
/// [`summarise`] — the paper's extension figures vary the machine while
/// holding the workload set fixed, which is exactly a [`crate::Matrix`]
/// with a config axis.
pub fn sweep_sensitivity(sweep: &crate::Sweep, techniques: &[Technique]) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for (variant, suite) in sweep.iter() {
        let ran = suite.techniques();
        for &technique in techniques
            .iter()
            .filter(|technique| ran.contains(technique))
        {
            rows.push(SweepRow {
                variant: variant.label.clone(),
                iq_entries: variant.sim_config.iq.entries,
                scale: variant.scale,
                technique,
                summary: summarise(suite, technique),
            });
        }
    }
    rows
}

/// Renders sweep sensitivity rows as an aligned text table (one block per
/// variant, one row per technique).
pub fn render_sweep_sensitivity(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    let mut current: Option<&str> = None;
    for row in rows {
        if current != Some(row.variant.as_str()) {
            current = Some(row.variant.as_str());
            let _ = writeln!(
                out,
                "  variant {} (IQ {} entries, scale {}):",
                row.variant, row.iq_entries, row.scale
            );
            let _ = writeln!(
                out,
                "    {:10} {:>9} {:>9} {:>9} {:>9}",
                "technique", "IPC loss", "IQ dyn", "IQ stat", "RF dyn"
            );
        }
        let columns = row.summary.map(|summary| {
            [
                summary.ipc_loss_pct,
                summary.iq_dynamic_pct,
                summary.iq_static_pct,
                summary.rf_dynamic_pct,
            ]
        });
        let _ = writeln!(
            out,
            "    {:10}{}",
            row.technique.name(),
            percent_columns(columns.as_ref().map(|columns| &columns[..]), 4)
        );
    }
    out
}

/// `values` as right-aligned percentage columns, each ` {:>8.1}%`, or
/// `count` columns of `n/a` when there are none (a technique with no
/// baseline to compare against).
pub fn percent_columns(values: Option<&[f64]>, count: usize) -> String {
    match values {
        Some(values) => values
            .iter()
            .map(|value| format!(" {value:>8.1}%"))
            .collect(),
        None => (0..count).map(|_| format!(" {:>9}", "n/a")).collect(),
    }
}

/// Headline numbers used by `EXPERIMENTS.md` and the integration tests:
/// suite-average IPC loss and power savings per technique.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TechniqueSummary {
    /// Average IPC loss, percent.
    pub ipc_loss_pct: f64,
    /// Average issue-queue occupancy reduction, percent.
    pub iq_occupancy_reduction_pct: f64,
    /// Average issue-queue dynamic power saving, percent.
    pub iq_dynamic_pct: f64,
    /// Average issue-queue static power saving, percent.
    pub iq_static_pct: f64,
    /// Average integer register-file dynamic power saving, percent.
    pub rf_dynamic_pct: f64,
    /// Average integer register-file static power saving, percent.
    pub rf_static_pct: f64,
    /// Average fraction of issue-queue banks turned off, percent.
    pub iq_banks_off_pct: f64,
}

/// Computes the suite-average summary for one technique over the
/// benchmarks that ran it beside the baseline; `None` if there are none,
/// so a technique with nothing to compare against never reads as 0 %.
pub fn summarise(suite: &Suite, technique: Technique) -> Option<TechniqueSummary> {
    let mut summary = TechniqueSummary::default();
    let mut count = 0usize;
    for b in suite.benchmarks() {
        if let Some(c) = suite.comparison(b, technique) {
            summary.ipc_loss_pct += c.ipc_loss_percent;
            summary.iq_occupancy_reduction_pct += c.iq_occupancy_reduction_percent;
            summary.iq_dynamic_pct += c.savings.iq_dynamic_pct;
            summary.iq_static_pct += c.savings.iq_static_pct;
            summary.rf_dynamic_pct += c.savings.rf_dynamic_pct;
            summary.rf_static_pct += c.savings.rf_static_pct;
            summary.iq_banks_off_pct += c.iq_banks_off_percent;
            count += 1;
        }
    }
    if count == 0 {
        return None;
    }
    let n = count as f64;
    summary.ipc_loss_pct /= n;
    summary.iq_occupancy_reduction_pct /= n;
    summary.iq_dynamic_pct /= n;
    summary.iq_static_pct /= n;
    summary.rf_dynamic_pct /= n;
    summary.rf_static_pct /= n;
    summary.iq_banks_off_pct /= n;
    Some(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Experiment;
    use sdiq_workloads::Benchmark;

    fn small_suite() -> Suite {
        let exp = Experiment {
            scale: 0.05,
            ..Experiment::paper()
        };
        exp.run_matrix(
            &[Benchmark::Gzip, Benchmark::Mcf],
            &[
                Technique::Baseline,
                Technique::NonEmpty,
                Technique::Noop,
                Technique::Abella,
            ],
        )
    }

    #[test]
    fn figure_series_average_is_mean_of_points() {
        let s = FigureSeries::from_values(
            "x",
            vec![("a".into(), 2.0), ("b".into(), 4.0), ("c".into(), 6.0)],
        );
        assert!((s.average.unwrap() - 4.0).abs() < 1e-9);
        assert!(s.render().contains("AVERAGE"));
        let empty = FigureSeries::from_values("x", Vec::new());
        assert_eq!(empty.average, None, "no points is no average, not 0");
        assert!(empty.render().contains("n/a"));
    }

    #[test]
    fn figures_cover_the_requested_benchmarks() {
        let suite = small_suite();
        let f6 = figure6(&suite);
        assert_eq!(f6.len(), 2);
        assert_eq!(f6[0].points.len(), 2);
        let f7 = figure7(&suite).expect("the suite ran noop");
        assert_eq!(f7.points.len(), 2);
        let f8 = figure8(&suite);
        assert_eq!(f8.dynamic.len(), 3);
        assert_eq!(f8.static_.len(), 3);
        let f9 = figure9(&suite);
        assert_eq!(f9.dynamic.len(), 2);
    }

    #[test]
    fn noop_saves_more_dynamic_power_than_nonempty_gating_alone() {
        let suite = small_suite();
        let f8 = figure8(&suite);
        let nonempty = f8.dynamic.iter().find(|s| s.label == "nonEmpty").unwrap();
        let noop = f8.dynamic.iter().find(|s| s.label == "noop").unwrap();
        let (noop, nonempty) = (noop.average.unwrap(), nonempty.average.unwrap());
        assert!(
            noop > nonempty,
            "noop {noop} should beat nonEmpty {nonempty}"
        );
    }

    #[test]
    fn table1_mentions_the_key_structures() {
        let text = table1(&SimConfig::hpca2005());
        assert!(text.contains("80 entries"));
        assert!(text.contains("128 entries"));
        assert!(text.contains("112 entries"));
        assert!(text.contains("6 ALU (1 cycle), 3 Mul (3 cycles)"));
    }

    #[test]
    fn summary_averages_are_finite_and_consistent() {
        let suite = small_suite();
        let s = summarise(&suite, Technique::Noop).expect("noop ran beside the baseline");
        assert!(s.iq_dynamic_pct.is_finite());
        assert!(s.iq_dynamic_pct > 0.0);
        assert!(s.iq_occupancy_reduction_pct > 0.0);
        let overall = overall_processor_savings(&suite, Technique::Noop, 0.22, 0.11);
        assert!(overall.unwrap() > 0.0);
    }

    #[test]
    fn figures_leave_out_techniques_the_suite_did_not_run() {
        // Figure 10 plots extension, improved, noop and abella; this suite
        // ran the last two, and only those are plotted. Figure 11's
        // techniques did not run at all, and §6 has nothing to average
        // for them.
        let suite = small_suite();
        let labels: Vec<String> = figure10(&suite).into_iter().map(|s| s.label).collect();
        assert_eq!(labels, ["noop", "abella"]);
        let f11 = figure11(&suite);
        assert!(f11.dynamic.is_empty() && f11.static_.is_empty());
        assert_eq!(
            overall_processor_savings(&suite, Technique::Improved, 0.22, 0.11),
            None
        );
    }
}
