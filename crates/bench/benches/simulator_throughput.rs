//! Simulator throughput: simulated instructions per second of wall-clock
//! time for the cycle-level model, under each resize policy. Not a paper
//! figure, but the number that determines how large an experiment the
//! harness can afford.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdiq_isa::Executor;
use sdiq_sim::{AdaptiveConfig, ExecPlan, PlanSimulator, ResizePolicy, SimConfig};
use sdiq_workloads::Benchmark;
use std::hint::black_box;

fn simulator_throughput(c: &mut Criterion) {
    let program = Benchmark::Gzip.build_scaled(0.2);
    let trace = Executor::new(&program).run(2_000_000).expect("executes");
    // Lowered once, as the engine's artifact cache does; the timed loop is
    // the replay alone.
    let plan = ExecPlan::build(SimConfig::hpca2005(), &program, &trace);

    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(trace.len() as u64));
    for (name, policy) in [
        ("fixed", ResizePolicy::Fixed),
        ("software_hint", ResizePolicy::SoftwareHint),
        (
            "adaptive",
            ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()),
        ),
    ] {
        group.bench_with_input(BenchmarkId::new("policy", name), &policy, |b, &policy| {
            b.iter(|| {
                black_box(
                    PlanSimulator::new(&plan, policy)
                        .run()
                        .expect("simulation completes"),
                )
            })
        });
    }
    group.finish();

    let mut exec_group = c.benchmark_group("functional_executor");
    exec_group.throughput(Throughput::Elements(trace.len() as u64));
    exec_group.bench_function("gzip_scaled", |b| {
        b.iter(|| black_box(Executor::new(&program).run(2_000_000).expect("executes")))
    });
    exec_group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = simulator_throughput
}
criterion_main!(benches);
