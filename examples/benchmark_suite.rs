//! Runs the whole benchmark suite under every technique and prints a
//! Figure 6 / Figure 8-style comparison table.
//!
//! ```text
//! cargo run --release --example benchmark_suite [scale]
//! ```
//!
//! The optional `scale` argument (default `0.25`) multiplies every
//! benchmark's outer-loop iteration count; `1.0` reproduces the scale used
//! by `repro` and `EXPERIMENTS.md`.

use sdiq::core::{experiments, Experiment, Technique};
use sdiq::workloads::Benchmark;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.25);
    let experiment = Experiment {
        scale,
        ..Experiment::paper()
    };

    println!(
        "running {} benchmarks x {} techniques at scale {scale} ...",
        Benchmark::ALL.len(),
        Technique::all().len()
    );
    let suite = experiment.run_matrix(&Benchmark::ALL, &Technique::all());

    println!();
    println!(
        "{:10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "noop IPC-", "ext IPC-", "abella IPC-", "noop IQdyn", "noop IQstat"
    );
    for benchmark in Benchmark::ALL {
        let noop = suite.comparison(benchmark, Technique::Noop).unwrap();
        let ext = suite.comparison(benchmark, Technique::Extension).unwrap();
        let abella = suite.comparison(benchmark, Technique::Abella).unwrap();
        println!(
            "{:10} {:>9.1}% {:>9.1}% {:>10.1}% {:>9.1}% {:>10.1}%",
            benchmark.name(),
            noop.ipc_loss_percent,
            ext.ipc_loss_percent,
            abella.ipc_loss_percent,
            noop.savings.iq_dynamic_pct,
            noop.savings.iq_static_pct,
        );
    }

    println!();
    println!("suite averages:");
    for technique in Technique::evaluated() {
        let summary =
            experiments::summarise(&suite, technique).expect("the suite runs the baseline");
        println!(
            "  {:10} IPC loss {:>5.1}%   IQ dyn {:>5.1}%   IQ stat {:>5.1}%   RF dyn {:>5.1}%   RF stat {:>5.1}%",
            technique.name(),
            summary.ipc_loss_pct,
            summary.iq_dynamic_pct,
            summary.iq_static_pct,
            summary.rf_dynamic_pct,
            summary.rf_static_pct,
        );
    }
    let overall = experiments::overall_processor_savings(&suite, Technique::Improved, 0.22, 0.11)
        .expect("the suite runs the baseline");
    println!();
    println!(
        "overall processor dynamic power saving (Improved, IQ=22%, RF=11% of total): {overall:.1}%"
    );
}
