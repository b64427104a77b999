//! `sim_throughput` — simulator wall-clock throughput smoke benchmark.
//!
//! ```text
//! sim_throughput [--scale <f64>] [--repeats <n>] [--out <path>] [--quick]
//! ```
//!
//! Runs the gzip-analogue trace through the cycle-level simulator under each
//! resize policy, measures simulated instructions per second of wall-clock
//! time, and emits the result as JSON (stdout and, unless `--out -`, to
//! `BENCH_sim_throughput.json`). The per-policy rows replay an `ExecPlan`
//! lowered once outside the timed region, exactly as the engine's
//! `ArtifactCache` amortises it across sweep variants and policies. The
//! binary is cheap enough for CI, so the perf trajectory is tracked on
//! every change: CI fails loudly if the smoke run regresses by an order of
//! magnitude (below the throughput floor).
//!
//! When rewriting an existing output file this binary first parses it and
//! carries the hand-curated `history` block (per-PR before/after records)
//! over into the new file — regenerating the artifact no longer loses it.
//!
//! `--quick` shrinks the workload and repeat count for CI smoke runs.

use sdiq_compiler::{CompilerPass, PassConfig};
use sdiq_core::persist::{self, Json};
use sdiq_core::{ArtifactCache, Experiment, Matrix, MatrixSpec, Technique};
use sdiq_sim::{AdaptiveConfig, ExecPlan, PlanSimulator, ResizePolicy, SimConfig, SimResult};
use sdiq_workloads::Benchmark;
use std::collections::HashMap;
use std::io::BufRead;
use std::time::Instant;

/// Floor for the per-policy rows, in simulated instructions per second of
/// wall-clock time. Plan replay sustains 15–19M instructions/s in release
/// builds on commodity hardware; 3M keeps ~5× headroom for slow CI
/// machines while still catching an accidental reintroduction of per-cycle
/// allocation or O(capacity) scans into the replay loop.
const MIN_INSTRUCTIONS_PER_SECOND: f64 = 3_000_000.0;

/// Ceiling for the binary-codec remote row's wall clock, as a multiple of
/// the in-process engine's. With `bin1` frames, pipelined batches and the
/// interruptible heartbeat teardown, two localhost daemons land around
/// 1.3–1.5× the engine at the committed `--scale 1.0` artifact; 2.5
/// leaves headroom for loaded CI machines while still failing loudly on
/// a regression to the old per-batch stop-and-wait shape (3.6× and up).
const MAX_REMOTE_WALL_VS_ENGINE: f64 = 2.5;

/// Absolute grace added on top of the ratio ceiling, pricing the fixed
/// per-run costs (two TCP dials, codec negotiation, per-daemon artifact
/// warm-up) that do not shrink with the workload. Without it the
/// `--quick` smoke — engine wall under 10 ms — would flake on millisecond
/// noise; with it, even the quick run still catches the 0.3 s fixed
/// teardown stall this assertion exists to keep out.
const REMOTE_WALL_GRACE_SECONDS: f64 = 0.05;

/// Ceiling for the verified matrix row's wall clock, as a multiple of the
/// verify-off engine's. `--verify` is off by default in release builds,
/// and when forced on the static suite runs **once per cached artifact**
/// (a handful of compiles and plans for the whole matrix) — so its cost
/// must stay within the 2% the acceptance criteria allow.
const MAX_VERIFIED_WALL_VS_ENGINE: f64 = 1.02;

/// Absolute grace on top of the verified ratio ceiling, pricing the fixed
/// once-per-artifact checks (structural + envelope verification per
/// compile, one linear plan lint per plan key) that do not shrink with
/// the simulated instruction count. The `--quick` smoke's engine wall is
/// tens of milliseconds, where that fixed cost would otherwise dominate
/// the ratio; at the committed `--scale 1.0` artifact the 2% ratio is
/// the binding constraint.
const VERIFIED_WALL_GRACE_SECONDS: f64 = 0.25;

/// Ceiling for the traced matrix row's wall clock, as a multiple of the
/// tracing-off engine's. `sdiq-obs` spans are a thread-local push onto a
/// pre-allocated buffer and metrics are relaxed atomics, so with tracing
/// forced on the engine matrix must stay within 3% of the untraced wall —
/// any more means instrumentation leaked onto a hot path (per-cycle spans,
/// a lock on the record path) rather than the per-cell seams it is meant
/// to ride.
const MAX_TRACED_WALL_VS_ENGINE: f64 = 1.03;

/// Absolute grace on top of the traced ratio ceiling, pricing the fixed
/// per-run costs (first-touch buffer allocation per pool thread, the
/// final drain) that do not shrink with the workload. The `--quick`
/// smoke's engine wall is tens of milliseconds, where millisecond noise
/// would otherwise dominate the ratio; at the committed `--scale 1.0`
/// artifact the 3% ratio is the binding constraint.
const TRACED_WALL_GRACE_SECONDS: f64 = 0.1;

struct Options {
    scale: f64,
    repeats: usize,
    out: Option<String>,
    quick: bool,
}

fn parse_args() -> Options {
    let mut options = Options {
        scale: 0.2,
        repeats: 3,
        out: Some("BENCH_sim_throughput.json".to_string()),
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                options.scale = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --scale needs a float value");
                    std::process::exit(2);
                });
            }
            "--repeats" => {
                options.repeats = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --repeats needs an integer value");
                    std::process::exit(2);
                });
            }
            "--out" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("error: --out needs a path (or - for stdout only)");
                    std::process::exit(2);
                });
                options.out = if path == "-" { None } else { Some(path) };
            }
            "--quick" => options.quick = true,
            "--help" | "-h" => {
                println!(
                    "sim_throughput [--scale <f64>] [--repeats <n>] [--out <path>|-] [--quick]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if options.quick {
        options.scale = options.scale.min(0.05);
        options.repeats = 1;
    }
    options.repeats = options.repeats.max(1);
    options
}

/// Starts one `repro serve` daemon on an ephemeral localhost port and
/// blocks until it announces its bound address (the machine-readable
/// `LISTENING <addr>` first stdout line).
fn spawn_serve_daemon(exe: &std::path::Path, jobs: usize) -> Option<(std::process::Child, String)> {
    let mut child = std::process::Command::new(exe)
        .args(["serve", "--listen", "127.0.0.1:0", "--jobs"])
        .arg(jobs.to_string())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .ok()?;
    let stdout = child.stdout.take()?;
    let mut line = String::new();
    let announced = std::io::BufReader::new(stdout).read_line(&mut line).is_ok();
    match line.trim().strip_prefix("LISTENING ") {
        Some(addr) if announced => Some((child, addr.to_string())),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            None
        }
    }
}

/// One measured per-policy row: best wall seconds over the repeats plus the
/// run's result.
struct TimedRow {
    wall_seconds_best: f64,
    result: SimResult,
}

fn time_best<F: FnMut() -> SimResult>(repeats: usize, mut run: F) -> TimedRow {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let this = run();
        best = best.min(start.elapsed().as_secs_f64());
        result = Some(this);
    }
    TimedRow {
        wall_seconds_best: best,
        result: result.expect("repeats >= 1"),
    }
}

fn policy_row_json(row: &TimedRow, instructions: f64) -> Json {
    Json::Obj(vec![
        (
            "wall_seconds_best".to_string(),
            Json::Num(format!("{:.6}", row.wall_seconds_best)),
        ),
        (
            "sim_instructions_per_second".to_string(),
            Json::Num(format!("{:.0}", instructions / row.wall_seconds_best)),
        ),
        ("cycles".to_string(), Json::of_u64(row.result.stats.cycles)),
        (
            "instructions".to_string(),
            Json::of_u64(row.result.stats.committed + row.result.stats.committed_hints),
        ),
    ])
}

/// Renders `json` with two-space indentation (the artifact is a committed,
/// hand-read file; the compact `Json::render` is for wire frames).
fn render_pretty(json: &Json, depth: usize, out: &mut String) {
    match json {
        Json::Obj(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&"  ".repeat(depth + 1));
                Json::Str(key.clone()).render(out);
                out.push_str(": ");
                render_pretty(value, depth + 1, out);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
            out.push('}');
        }
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&"  ".repeat(depth + 1));
                render_pretty(item, depth + 1, out);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
            out.push(']');
        }
        other => other.render(out),
    }
}

/// The machine the numbers were taken on: architecture, OS, hardware
/// threads and (where `/proc/cpuinfo` exists) the CPU model.
fn machine_json() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::Obj(vec![
        (
            "arch".to_string(),
            Json::Str(std::env::consts::ARCH.to_string()),
        ),
        (
            "os".to_string(),
            Json::Str(std::env::consts::OS.to_string()),
        ),
        (
            "hardware_threads".to_string(),
            Json::of_usize(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("cpu_model".to_string(), Json::Str(cpu_model)),
    ])
}

fn main() {
    let options = parse_args();
    let program = Benchmark::Gzip.build_scaled(options.scale);
    // The software-hint row must actually exercise the hint hot path
    // (`apply_hint` / region accounting), so it runs the compiler-annotated
    // program rather than the raw one.
    let hinted_program = CompilerPass::new(PassConfig::noop_insertion())
        .run(&program)
        .program;

    // Lower the two execution plans once, outside every timed region: this
    // is the production shape — the engine's ArtifactCache lowers one plan
    // per (program, SimConfig), straight from the executor, and shares it
    // across every policy, sweep variant and batch that needs it (one of
    // the two plans below serves both the fixed and the adaptive row).
    let sim_config = SimConfig::hpca2005();
    let lower_start = Instant::now();
    let plan = ExecPlan::lower(sim_config, &program, 2_000_000).expect("gzip analogue executes");
    let lower_raw = lower_start.elapsed().as_secs_f64();
    let lower_start = Instant::now();
    let hinted_plan = ExecPlan::lower(sim_config, &hinted_program, 2_000_000)
        .expect("hinted gzip analogue executes");
    let lower_hinted = lower_start.elapsed().as_secs_f64();

    let mut policy_rows: Vec<(String, Json)> = Vec::new();
    let mut slowest = f64::INFINITY;
    for (name, policy, plan) in [
        ("fixed", ResizePolicy::Fixed, &plan),
        ("software_hint", ResizePolicy::SoftwareHint, &hinted_plan),
        (
            "adaptive",
            ResizePolicy::Adaptive(AdaptiveConfig::iqrob64()),
            &plan,
        ),
    ] {
        let instructions = plan.len() as f64;
        let row = time_best(options.repeats, || {
            PlanSimulator::new(plan, policy)
                .run()
                .expect("simulation completes")
        });
        let rate = instructions / row.wall_seconds_best;
        slowest = slowest.min(rate);
        eprintln!(
            "{name:>14}: {rate:>12.0} sim-instructions/s  ({:.3}s best of {}, {} cycles)",
            row.wall_seconds_best, options.repeats, row.result.stats.cycles,
        );
        policy_rows.push((name.to_string(), policy_row_json(&row, instructions)));
    }

    // Matrix throughput: a reduced (benchmark × technique) matrix on the
    // job engine with its shared artifact cache; the rows below re-run it
    // with verification, tracing and remote workers and compare their
    // suites with this one.
    let matrix_benchmarks = [
        Benchmark::Gzip,
        Benchmark::Mcf,
        Benchmark::Vortex,
        Benchmark::Gcc,
    ];
    // Every registered technique — the six paper techniques plus the
    // registry-landed way-memo and lowen-isa — so the matrix row tracks
    // the cost of the full default technique axis.
    let matrix_techniques = Technique::all();
    let matrix_experiment = Experiment {
        scale: options.scale,
        ..Experiment::paper()
    };

    let engine_start = Instant::now();
    let engine_suite = Matrix::new(&matrix_experiment)
        .benchmarks(&matrix_benchmarks)
        .techniques(&matrix_techniques)
        .run()
        .into_suite();
    let engine_wall = engine_start.elapsed().as_secs_f64();

    let cells = matrix_benchmarks.len() * matrix_techniques.len();
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "{:>14}: {cells} cells  engine {engine_wall:.3}s  ({jobs} jobs)",
        "matrix"
    );

    // Verified row: the same engine matrix on a fresh artifact cache with
    // the full static verifier forced on (sdiq-verify's structural,
    // annotation-envelope and plan-lint suites, once per artifact). The
    // suite must stay bit-identical — verification observes artifacts, it
    // never alters them — and the wall-clock ratio is the release-mode
    // `--verify` overhead the acceptance criteria bound at 2%.
    let verified_cache = ArtifactCache::new();
    verified_cache.set_verify(true);
    let verified_start = Instant::now();
    let verified_suite = Matrix::new(&matrix_experiment)
        .benchmarks(&matrix_benchmarks)
        .techniques(&matrix_techniques)
        .run_with(&verified_cache, &HashMap::new())
        .into_suite();
    let verified_wall = verified_start.elapsed().as_secs_f64();
    assert_eq!(
        verified_suite, engine_suite,
        "verified matrix suite must be bit-identical to the unverified engine"
    );
    let verified_vs_engine = verified_wall / engine_wall.max(1e-9);
    eprintln!(
        "{:>14}: {cells} cells  verify-on engine {verified_wall:.3}s  \
         ({verified_vs_engine:.2}x of verify-off wall, bit-identical)",
        "verified"
    );

    // Traced row: the engine matrix once more on a fresh artifact cache
    // with `sdiq-obs` tracing forced on — every per-cell span, cache
    // hit/miss instant and checkpoint marker recorded, then drained and
    // discarded. The suite must stay bit-identical (observability is
    // strictly out-of-band; a traced run's persisted bytes never differ
    // from an untraced one's) and the wall-clock ratio is the tracing-on
    // overhead the acceptance criteria bound at 3% + fixed grace.
    let traced_cache = ArtifactCache::new();
    sdiq_obs::set_tracing(true);
    let traced_start = Instant::now();
    let traced_suite = Matrix::new(&matrix_experiment)
        .benchmarks(&matrix_benchmarks)
        .techniques(&matrix_techniques)
        .run_with(&traced_cache, &HashMap::new())
        .into_suite();
    let traced_wall = traced_start.elapsed().as_secs_f64();
    sdiq_obs::set_tracing(false);
    let traced_events = sdiq_obs::drain().len();
    assert_eq!(
        traced_suite, engine_suite,
        "traced matrix suite must be bit-identical to the untraced engine"
    );
    assert!(
        traced_events > 0,
        "tracing was on for the whole matrix yet drained no events"
    );
    let traced_vs_engine = traced_wall / engine_wall.max(1e-9);
    eprintln!(
        "{:>14}: {cells} cells  tracing-on engine {traced_wall:.3}s  \
         ({traced_vs_engine:.2}x of tracing-off wall, {traced_events} events, bit-identical)",
        "traced"
    );

    // Remote rows: the same reduced matrix once more, now through two
    // localhost `repro serve` daemons driven by the TCP scheduler
    // (sdiq-remote) — once with the negotiated `bin1` binary codec and
    // pipelined batches (the fleet defaults), once pinned to JSON frames
    // for the side-by-side. On one box this prices the networked
    // substrate — frame codec, per-cell streaming, pipelined scheduling,
    // seeded reassembly — against the in-process engine; across boxes it
    // is the substrate that scales. Counters asserted bit-identical yet
    // again before any timing is reported.
    let repro_exe = std::env::current_exe().ok().and_then(|own| {
        let exe = own
            .parent()?
            .join(format!("repro{}", std::env::consts::EXE_SUFFIX));
        exe.exists().then_some(exe)
    });
    let mut remote_rows = [Json::Null, Json::Null];
    let mut remote_binary_wall = None;
    match repro_exe {
        Some(exe) => {
            const WORKERS: usize = 2;
            let worker_jobs = (jobs / WORKERS).max(1);
            let spec = MatrixSpec {
                scale: options.scale,
                sweeps: Vec::new(),
                benchmarks: matrix_benchmarks
                    .iter()
                    .map(|b| b.name().to_string())
                    .collect(),
                techniques: matrix_techniques
                    .iter()
                    .map(|t| t.name().to_string())
                    .collect(),
            };
            // Fresh daemons per codec row: a daemon's artifact cache
            // survives coordinator disconnects, so reusing the pool
            // would hand the second row pre-warmed workers and skew the
            // side-by-side.
            for (row, (label, codec_name, binary_wire)) in remote_rows
                .iter_mut()
                .zip([("remote", "bin1", true), ("remote_json", "json", false)])
            {
                let mut daemons: Vec<(std::process::Child, String)> = Vec::new();
                for _ in 0..WORKERS {
                    match spawn_serve_daemon(&exe, worker_jobs) {
                        Some(daemon) => daemons.push(daemon),
                        None => break,
                    }
                }
                if daemons.len() < WORKERS {
                    eprintln!("{label:>14}: skipped (could not start serve daemons)");
                } else {
                    let addrs: Vec<String> = daemons.iter().map(|(_, addr)| addr.clone()).collect();
                    let options = sdiq_remote::RemoteOptions {
                        workers: addrs,
                        binary_wire,
                        ..sdiq_remote::RemoteOptions::new(spec.clone())
                    };
                    let matrix = spec
                        .matrix(&matrix_experiment)
                        .expect("spec mirrors the reduced matrix");
                    let remote_start = Instant::now();
                    let remote = sdiq_remote::run(&matrix, &options, &HashMap::new(), None);
                    let remote_wall = remote_start.elapsed().as_secs_f64();
                    match remote {
                        Ok(sweep) => {
                            let remote_suite = sweep.into_suite();
                            assert_eq!(
                                remote_suite, engine_suite,
                                "{label} suite must be bit-identical to the in-process engine"
                            );
                            let vs_engine = remote_wall / engine_wall.max(1e-9);
                            eprintln!(
                                "{label:>14}: {cells} cells  {WORKERS} localhost workers \
                                 {remote_wall:.3}s  ({vs_engine:.2}x of engine wall, \
                                 {codec_name} frames, bit-identical)"
                            );
                            if binary_wire {
                                remote_binary_wall = Some(remote_wall);
                            }
                            *row = Json::Obj(vec![
                                ("workers".to_string(), Json::of_usize(WORKERS)),
                                ("codec".to_string(), Json::Str(codec_name.to_string())),
                                (
                                    "wall_seconds".to_string(),
                                    Json::Num(format!("{remote_wall:.6}")),
                                ),
                                (
                                    "wall_vs_engine".to_string(),
                                    Json::Num(format!("{vs_engine:.3}")),
                                ),
                            ]);
                        }
                        Err(error) => {
                            eprintln!("{label:>14}: skipped ({error})");
                        }
                    }
                }
                for (mut child, _) in daemons {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
        }
        None => {
            eprintln!(
                "{:>14}: skipped (repro worker binary not built next to sim_throughput)",
                "remote"
            );
        }
    };
    let [remote_json, remote_json_codec] = remote_rows;

    // Read-merge-write: re-attach the hand-curated `history` block from the
    // existing output file (if any) so regenerating the artifact never
    // drops the per-PR before/after records.
    let history = options
        .out
        .as_deref()
        .and_then(|path| std::fs::read_to_string(path).ok())
        .and_then(|text| persist::parse(&text).ok())
        .and_then(|old| old.get("history").ok().cloned())
        .unwrap_or(Json::Obj(Vec::new()));

    let note = "Wall-clock throughput of the cycle-level simulator (per resize policy, \
                gzip-analogue trace, best of N repeats; software_hint runs the \
                compiler-annotated program). The 'policies' rows replay an ExecPlan \
                lowered outside the timed region (the production shape: the \
                engine's ArtifactCache lowers one plan per (program, SimConfig) \
                straight from the functional executor and shares it across \
                policies, sweep variants and batches; 'plan_lowering' prices that \
                one-time cost, execution included). Then a matrix row: a \
                reduced benchmark x technique matrix on the work-queue engine with \
                the shared artifact cache, plus a verified row \
                re-running the engine matrix with the sdiq-verify static suite \
                forced on (once per artifact; suite asserted bit-identical and the \
                wall bounded at 2% + fixed grace over the verify-off engine — the \
                release-mode --verify overhead), and a traced row re-running it \
                once more with sdiq-obs tracing forced on (events drained and \
                discarded; suite asserted bit-identical — observability is \
                out-of-band — and the wall bounded at 3% + fixed grace over the \
                tracing-off engine), and two remote rows running it through two \
                localhost repro serve \
                daemons driven by the sdiq-remote TCP scheduler — 'remote' with the \
                negotiated bin1 binary frames and pipelined batches (the fleet \
                defaults), 'remote_json' pinned to JSON frames for the side-by-side \
                (suites asserted bit-identical again; on one box this prices the \
                networked substrate, across boxes it is the substrate that scales). \
                Regenerate with: cargo run --release -p sdiq-bench --bin sim_throughput \
                -- --scale 1.0 --repeats 7. The hand-curated 'history' block \
                (per-PR before/after records) is parsed from the existing file and \
                carried over automatically.";
    let scale_json = if options.scale.fract() == 0.0 {
        Json::of_u64(options.scale as u64)
    } else {
        Json::Num(format!("{:?}", options.scale))
    };
    let doc = Json::Obj(vec![
        (
            "bench".to_string(),
            Json::Str("simulator_throughput".to_string()),
        ),
        (
            "workload".to_string(),
            Json::Str("gzip-analogue".to_string()),
        ),
        ("note".to_string(), Json::Str(note.to_string())),
        ("scale".to_string(), scale_json),
        ("repeats".to_string(), Json::of_usize(options.repeats)),
        ("machine".to_string(), machine_json()),
        ("trace_instructions".to_string(), Json::of_usize(plan.len())),
        (
            "plan_lowering".to_string(),
            Json::Obj(vec![
                (
                    "raw_seconds".to_string(),
                    Json::Num(format!("{lower_raw:.6}")),
                ),
                (
                    "hinted_seconds".to_string(),
                    Json::Num(format!("{lower_hinted:.6}")),
                ),
            ]),
        ),
        ("policies".to_string(), Json::Obj(policy_rows)),
        (
            "matrix".to_string(),
            Json::Obj(vec![
                (
                    "benchmarks".to_string(),
                    Json::of_usize(matrix_benchmarks.len()),
                ),
                (
                    "techniques".to_string(),
                    Json::of_usize(matrix_techniques.len()),
                ),
                ("cells".to_string(), Json::of_usize(cells)),
                ("jobs".to_string(), Json::of_usize(jobs)),
                (
                    "engine_wall_seconds".to_string(),
                    Json::Num(format!("{engine_wall:.6}")),
                ),
                (
                    "verified".to_string(),
                    Json::Obj(vec![
                        (
                            "wall_seconds".to_string(),
                            Json::Num(format!("{verified_wall:.6}")),
                        ),
                        (
                            "wall_vs_engine".to_string(),
                            Json::Num(format!("{verified_vs_engine:.3}")),
                        ),
                    ]),
                ),
                (
                    "traced".to_string(),
                    Json::Obj(vec![
                        (
                            "wall_seconds".to_string(),
                            Json::Num(format!("{traced_wall:.6}")),
                        ),
                        (
                            "wall_vs_engine".to_string(),
                            Json::Num(format!("{traced_vs_engine:.3}")),
                        ),
                        ("trace_events".to_string(), Json::of_usize(traced_events)),
                    ]),
                ),
                ("remote".to_string(), remote_json),
                ("remote_json".to_string(), remote_json_codec),
            ]),
        ),
        ("history".to_string(), history),
    ]);
    let mut json = String::new();
    render_pretty(&doc, 0, &mut json);
    json.push('\n');
    print!("{json}");
    if let Some(path) = &options.out {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }

    let mut failed = false;
    if slowest < MIN_INSTRUCTIONS_PER_SECOND {
        eprintln!(
            "FAIL: slowest policy simulates {slowest:.0} instructions/s, \
             below the {MIN_INSTRUCTIONS_PER_SECOND:.0}/s floor"
        );
        failed = true;
    }
    {
        let ceiling = engine_wall * MAX_VERIFIED_WALL_VS_ENGINE + VERIFIED_WALL_GRACE_SECONDS;
        if verified_wall > ceiling {
            eprintln!(
                "FAIL: verify-on matrix took {verified_wall:.3}s against a verify-off engine \
                 wall of {engine_wall:.3}s — above the {MAX_VERIFIED_WALL_VS_ENGINE}x + \
                 {VERIFIED_WALL_GRACE_SECONDS}s ceiling ({ceiling:.3}s)"
            );
            failed = true;
        }
    }
    {
        let ceiling = engine_wall * MAX_TRACED_WALL_VS_ENGINE + TRACED_WALL_GRACE_SECONDS;
        if traced_wall > ceiling {
            eprintln!(
                "FAIL: tracing-on matrix took {traced_wall:.3}s against a tracing-off engine \
                 wall of {engine_wall:.3}s — above the {MAX_TRACED_WALL_VS_ENGINE}x + \
                 {TRACED_WALL_GRACE_SECONDS}s ceiling ({ceiling:.3}s)"
            );
            failed = true;
        }
    }
    if let Some(remote_wall) = remote_binary_wall {
        let ceiling = engine_wall * MAX_REMOTE_WALL_VS_ENGINE + REMOTE_WALL_GRACE_SECONDS;
        if remote_wall > ceiling {
            eprintln!(
                "FAIL: binary-codec remote row took {remote_wall:.3}s against an engine wall \
                 of {engine_wall:.3}s — above the {MAX_REMOTE_WALL_VS_ENGINE}x + \
                 {REMOTE_WALL_GRACE_SECONDS}s ceiling ({ceiling:.3}s)"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
