//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--scale <f64>] [--jobs <n>] [--sweep <axis>=<v1,v2,...>]
//!       [--benchmarks <b1,b2,...>] [--techniques <t1,t2,...>]
//!       [--save <path>] [--load <path>]... [--checkpoint <path>]
//!       [--shard <k>/<n>] [--workers <host:port,...>] [--retry-budget <n>]
//!       [--connect-timeout <secs>] [--heartbeat-deadline <secs>]
//!       [--auth-key <key>] [--trace <path>] [--progress] [--stats]
//!       [--table1] [--table2] [--figure6] [--figure7] [--figure8]
//!       [--figure9] [--figure10] [--figure11] [--figure12]
//!       [--overall] [--summary] [--sweep-summary] [--all]
//!       [--verify | --no-verify]
//! repro serve [--listen <host:port>] [--jobs <n>]
//!             [--fail-after <n>] [--stall-after <n>] [--auth-key <key>]
//! repro lint [--scale <f64>] [--sweep <axis>=<v1,v2,...>]
//!            [--benchmarks <b1,b2,...>] [--techniques <t1,t2,...>]
//! ```
//!
//! With no selection flags, `--all` is assumed; a `--flag` that is neither
//! an option nor a section is an error (exit 2). `--scale` (positive
//! and finite) shrinks or grows every workload's outer loop (1.0 = the
//! default reproduction scale).
//! Each cell's program is executed and lowered once, straight from the
//! executor, into a cached execution plan that every technique of that
//! machine replays; techniques that also share the resize policy share
//! the replay and differ only in pricing.
//!
//! The matrix runs on the job engine (`sdiq_core::Matrix`): `--jobs` fixes
//! the worker-pool size (default: one worker per hardware thread), and
//! `--sweep` adds a configuration axis on top of the base machine —
//! `--sweep iq=64,48,32` sweeps the issue-queue capacity,
//! `--sweep bank=4,16` the bank size and `--sweep scale=0.5,1.0` the
//! workload scale (repeatable; each adds variants next to `base`).
//! Swept runs print a Figure-10-style sensitivity table after the base
//! figures. `--benchmarks`/`--techniques` restrict the other two axes by
//! name. A benchmark, technique or variant named twice is an error
//! (exit 2): each cell of the matrix is one key.
//!
//! `--save` writes every computed cell as JSON keyed by its cell cache
//! key; `--load` (repeatable — later files win on key collisions) seeds a
//! later run from save *or* checkpoint files so only missing cells (new
//! benchmarks, techniques or configurations) are re-run.
//!
//! Scaling beyond one process (see EXPERIMENTS.md for the protocol):
//!
//! * `--checkpoint <path>` appends every completed cell to a JSONL
//!   checkpoint the moment it finishes and *seeds itself from that file*
//!   on start — a killed run re-invoked with the same flags resumes,
//!   recomputing only the cells that were still missing.
//! * `--shard k/n` (worker mode) computes exactly the cells the stable
//!   key partition assigns to shard `k` of `n`, writes them via
//!   `--save`/`--checkpoint`, and prints no figures. Loading every
//!   shard's file (`--load`, repeatable) merges them into a suite
//!   bit-identical to a serial run — the file-based path for batch
//!   systems.
//! * `repro serve` turns this binary into a networked worker daemon
//!   (`sdiq-remote`): it listens for a coordinator, advertises `--jobs`
//!   as its capacity and streams computed cells back per cell.
//!   `--fail-after n` (die) and `--stall-after n` (hang silently, socket
//!   open) are the fault-injection hooks the failover tests and CI smoke
//!   use to simulate the two shapes of worker death.
//! * `--workers host:port,...` (remote coordinator mode) distributes the
//!   missing cells over those daemons instead of computing locally, in
//!   whole plan groups (one benchmark on every machine with one front
//!   end, so a daemon lowers each stream once, makes each plan once and
//!   drops them after the batch), each cell to exactly one worker and
//!   each worker one batch at a time.
//!   A worker that dies — or goes silent past `--heartbeat-deadline`
//!   (default 30 s) — has its cells re-queued onto the survivors under
//!   `--retry-budget` (default 3), and the assembled suite is still
//!   byte-for-byte identical to a serial run. Dials are bounded by
//!   `--connect-timeout` (default 10 s). Composes with `--checkpoint` (a
//!   killed coordinator resumes by re-running the identical command) and
//!   `--save`.
//!   Every fleet run ends with one `remote: worker <addr>: <n> cell(s)
//!   done, … sim-inst/s` line per worker, counted from the cells this
//!   run received from it.
//! * Every frame in both directions is `bin1`: a coordinator and its
//!   daemons run the same build. `--auth-key <key>` (on both sides)
//!   requires the HMAC handshake on every connection — a peer with a
//!   wrong or missing key gets a clean protocol error, never a hang.
//!
//! Observability (`sdiq-obs`, see the EXPERIMENTS.md span-and-metric
//! taxonomy) — strictly out-of-band: none of these flags ever change a
//! computed number or a persisted byte, only what gets reported:
//!
//! * `--trace <path>` records structured spans (cell runs, cache
//!   builds/compiles, checkpoint appends, scheduler verdicts) and writes
//!   a Chrome trace-event JSON on exit — load it in Perfetto or
//!   `chrome://tracing`. In remote mode the workers' spans are shipped
//!   back and merged, one `pid` lane per worker.
//! * `--progress` streams a rate-limited `progress:` line to **stderr**
//!   (cells done/total, throughput, ETA; in remote mode also each
//!   worker's cells and instruction rate in this run).
//! * `--stats` prints the process metrics registry after the figures
//!   and, with `--trace`, the count and summed seconds of the spans of
//!   each name.
//! * Both `--trace` and `--progress` are coordinator-side flags:
//!   `repro serve` refuses them (exit 2) — daemons are observed *by*
//!   their coordinator, which asks each batch for its spans.
//!
//! Static verification (`sdiq-verify`, see EXPERIMENTS.md for the
//! diagnostic-code table):
//!
//! * `--verify` / `--no-verify` override the artifact cache's default
//!   (on in debug builds, off in release): with verification on, every
//!   compile runs through the pass manager's inter-pass checker and
//!   every cached artifact is statically verified once when first
//!   built — a finding aborts the run. The two flags are mutually
//!   exclusive, and both are refused with `--workers`:
//!   a `repro serve` daemon verifies according to its own build.
//! * `repro lint` runs the full checker suite — structural program
//!   verification, annotation legality, the soundness envelope and the
//!   execution-plan lint — over every artifact of the selected
//!   (variant × benchmark × technique) space, and requires every plan the
//!   artifact cache makes for it to equal the plan built from the
//!   program's own trace, *collecting* structured diagnostics instead of
//!   aborting. Exit 0 = clean, 1 = findings,
//!   2 = flag error. A purely local, read-only checker: it refuses
//!   `--workers`/`--shard`.

use sdiq_compiler::CompilerPass;
use sdiq_core::{
    experiments, persist, ArtifactCache, CompileKey, Experiment, MatrixSpec, PlanKey, PlanSource,
    ProgramKey, Suite, Technique,
};
use sdiq_isa::{Executor, Program};
use sdiq_sim::{ExecPlan, SimConfig};
use sdiq_verify::StandardVerifier;
use sdiq_workloads::Benchmark;
use std::collections::{BTreeSet, HashMap, HashSet};

#[derive(Debug, Default)]
struct Options {
    scale: Option<f64>,
    jobs: Option<usize>,
    sweeps: Vec<(String, Vec<f64>)>,
    benchmarks: Option<Vec<Benchmark>>,
    techniques: Option<Vec<Technique>>,
    save: Option<String>,
    loads: Vec<String>,
    checkpoint: Option<String>,
    /// Worker mode: `(index, count)`, zero-based index.
    shard: Option<(usize, usize)>,
    /// Remote coordinator mode: worker daemon addresses.
    workers: Option<Vec<String>>,
    /// Per-cell re-queue budget for the remote scheduler.
    retry_budget: Option<usize>,
    /// Dial bound for remote workers, seconds (0 disables).
    connect_timeout: Option<f64>,
    /// Silence-means-dead threshold for remote workers, seconds
    /// (0 disables — the pre-liveness behaviour).
    heartbeat_deadline: Option<f64>,
    /// Shared secret for the HMAC connection handshake.
    auth_key: Option<String>,
    /// Per-artifact static verification override (`--verify` /
    /// `--no-verify`); `None` keeps the cache default (on in debug
    /// builds, off in release).
    verify: Option<bool>,
    /// Chrome trace-event JSON output path (`--trace`); also turns span
    /// recording on for the whole run.
    trace: Option<String>,
    /// Stream a rate-limited progress line to stderr (`--progress`).
    progress: bool,
    selections: BTreeSet<String>,
}

/// The output sections a `--<section>` flag selects (`--all` prints every
/// one but `--stats`).
const SECTIONS: [&str; 14] = [
    "all",
    "table1",
    "table2",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "overall",
    "summary",
    "sweep-summary",
    "stats",
];

fn required_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    })
}

fn parse_args() -> Options {
    let mut options = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = required_value(&mut args, "--scale");
                options.scale = Some(parse_scale(&value));
            }
            "--jobs" => {
                let value = required_value(&mut args, "--jobs");
                options.jobs = Some(parse_jobs(&value));
            }
            "--sweep" => {
                let spec = required_value(&mut args, "--sweep");
                options.sweeps.push(parse_sweep_spec(&spec));
            }
            "--benchmarks" => {
                let spec = required_value(&mut args, "--benchmarks");
                options.benchmarks = Some(parse_benchmarks_spec(&spec));
            }
            "--techniques" => {
                let spec = required_value(&mut args, "--techniques");
                options.techniques = Some(parse_techniques_spec(&spec));
            }
            "--save" => options.save = Some(required_value(&mut args, "--save")),
            "--load" => options.loads.push(required_value(&mut args, "--load")),
            "--checkpoint" => options.checkpoint = Some(required_value(&mut args, "--checkpoint")),
            "--shard" => {
                let spec = required_value(&mut args, "--shard");
                let parsed = spec
                    .split_once('/')
                    .and_then(|(k, n)| Some((k.parse::<usize>().ok()?, n.parse::<usize>().ok()?)));
                let Some((k, n)) = parsed else {
                    eprintln!("error: --shard wants <k>/<n>, got `{spec}`");
                    std::process::exit(2);
                };
                if n < 1 || k < 1 || k > n {
                    eprintln!("error: --shard {spec}: need 1 <= k <= n");
                    std::process::exit(2);
                }
                options.shard = Some((k - 1, n));
            }
            "--workers" => {
                let spec = required_value(&mut args, "--workers");
                let workers: Vec<String> = spec
                    .split(',')
                    .map(str::trim)
                    .filter(|worker| !worker.is_empty())
                    .map(str::to_string)
                    .collect();
                if workers.is_empty() {
                    eprintln!("error: --workers wants <host:port>[,<host:port>...], got `{spec}`");
                    std::process::exit(2);
                }
                options.workers = Some(workers);
            }
            "--retry-budget" => {
                let value = required_value(&mut args, "--retry-budget");
                options.retry_budget = Some(value.parse::<usize>().unwrap_or_else(|_| {
                    eprintln!("error: --retry-budget needs a non-negative integer, got `{value}`");
                    std::process::exit(2);
                }));
            }
            "--connect-timeout" => {
                let value = required_value(&mut args, "--connect-timeout");
                options.connect_timeout = Some(parse_seconds("--connect-timeout", &value));
            }
            "--heartbeat-deadline" => {
                let value = required_value(&mut args, "--heartbeat-deadline");
                options.heartbeat_deadline = Some(parse_seconds("--heartbeat-deadline", &value));
            }
            "--auth-key" => options.auth_key = Some(required_value(&mut args, "--auth-key")),
            "--trace" => options.trace = Some(required_value(&mut args, "--trace")),
            "--progress" => options.progress = true,
            "--verify" | "--no-verify" => {
                let on = arg == "--verify";
                if options.verify.is_some_and(|prev| prev != on) {
                    eprintln!("error: --verify and --no-verify are mutually exclusive");
                    std::process::exit(2);
                }
                options.verify = Some(on);
            }
            "--help" | "-h" => {
                println!(
                    "repro [--scale <f>] [--jobs <n>] \
                     [--sweep iq|bank|scale=<v,..>] \
                     [--benchmarks <b,..>] [--techniques <t,..>] \
                     [--save <path>] [--load <path>]... [--checkpoint <path>] \
                     [--shard <k>/<n>] [--workers <host:port,..>] [--retry-budget <n>] \
                     [--connect-timeout <secs>] [--heartbeat-deadline <secs>] \
                     [--auth-key <key>] [--trace <path>] [--progress] [--stats] \
                     [--verify | --no-verify] \
                     [--table1] [--table2] [--figure6..12] \
                     [--overall] [--summary] [--sweep-summary] [--all]\n\
                     repro serve [--listen <host:port>] [--jobs <n>] \
                     [--fail-after <n>] [--stall-after <n>] [--auth-key <key>]\n\
                     repro lint [--scale <f>] [--sweep iq|bank|scale=<v,..>] \
                     [--benchmarks <b,..>] [--techniques <t,..>]"
                );
                std::process::exit(0);
            }
            flag if flag
                .strip_prefix("--")
                .is_some_and(|section| SECTIONS.contains(&section)) =>
            {
                options.selections.insert(flag[2..].to_string());
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let remote = options.workers.is_some();
    if remote && options.shard.is_some() {
        eprintln!(
            "error: --workers (remote coordinator) cannot combine with --shard (shard worker)"
        );
        std::process::exit(2);
    }
    if remote && options.verify.is_some() {
        eprintln!(
            "error: --verify/--no-verify cannot combine with --workers: \
             a `repro serve` daemon verifies according to its own build"
        );
        std::process::exit(2);
    }
    if options.shard.is_some() && options.save.is_none() && options.checkpoint.is_none() {
        eprintln!("error: a --shard worker needs --save or --checkpoint to deliver its cells");
        std::process::exit(2);
    }
    if options.selections.is_empty() {
        options.selections.insert("all".to_string());
    }
    options
}

/// Parses a `--scale` value (non-numbers exit 2). Its range is checked
/// by `MatrixSpec::matrix`, like the sweep values.
fn parse_scale(value: &str) -> f64 {
    value.parse::<f64>().unwrap_or_else(|_| {
        eprintln!("error: --scale needs a number, got `{value}`");
        std::process::exit(2);
    })
}

/// Parses a `--sweep <axis>=<v1,v2,...>` spec. Axis names and value
/// ranges are validated by the one shared validator, `MatrixSpec::matrix`
/// (worker daemons apply the identical rules to wire input, so the two
/// cannot drift); callers exit 2 on its error.
fn parse_sweep_spec(spec: &str) -> (String, Vec<f64>) {
    let Some((axis, values)) = spec.split_once('=') else {
        eprintln!("error: --sweep wants <axis>=<v1,v2,...>, got `{spec}`");
        std::process::exit(2);
    };
    let values: Vec<f64> = values
        .split(',')
        .map(|v| {
            v.parse::<f64>().unwrap_or_else(|_| {
                eprintln!("error: bad sweep value `{v}` in `{spec}`");
                std::process::exit(2);
            })
        })
        .collect();
    (axis.to_string(), values)
}

/// Parses a `--benchmarks <b1,b2,...>` spec (unknown names exit 2).
fn parse_benchmarks_spec(spec: &str) -> Vec<Benchmark> {
    spec.split(',')
        .map(|name| {
            Benchmark::from_name(name).unwrap_or_else(|| {
                eprintln!("error: unknown benchmark `{name}`");
                std::process::exit(2);
            })
        })
        .collect()
}

/// Parses a `--techniques <t1,t2,...>` spec (unknown names exit 2, with
/// the registered names listed so the valid spellings are discoverable).
fn parse_techniques_spec(spec: &str) -> Vec<Technique> {
    spec.split(',')
        .map(|name| {
            Technique::from_name(name).unwrap_or_else(|| {
                eprintln!(
                    "error: unknown technique `{name}` (registered: {})",
                    sdiq_core::TechniqueRegistry::names().join(", ")
                );
                std::process::exit(2);
            })
        })
        .collect()
}

/// Parses a seconds value for the remote timeouts (`--connect-timeout`,
/// `--heartbeat-deadline`). Zero means "disabled" and is allowed;
/// anything non-numeric, negative, or past a year exits 2 (the upper
/// bound is really an overflow guard: `Duration::from_secs_f64` panics
/// on values that do not fit a `Duration`).
fn parse_seconds(flag: &str, value: &str) -> f64 {
    const MAX_SECONDS: f64 = 365.0 * 24.0 * 3600.0;
    match value.parse::<f64>() {
        Ok(seconds) if seconds.is_finite() && (0.0..=MAX_SECONDS).contains(&seconds) => seconds,
        _ => {
            eprintln!(
                "error: {flag} needs a number of seconds between 0 and {MAX_SECONDS:.0}, \
                 got `{value}`"
            );
            std::process::exit(2);
        }
    }
}

/// Parses a `--jobs` value. Zero is rejected here rather than silently
/// meaning "auto": a pool of zero workers is never what the user asked
/// for, and in worker-budget arithmetic it would divide away to nothing.
fn parse_jobs(value: &str) -> usize {
    match value.parse::<usize>() {
        Ok(0) => {
            eprintln!("error: --jobs wants a positive worker count (omit the flag for one per hardware thread), got `0`");
            std::process::exit(2);
        }
        Ok(jobs) => jobs,
        Err(_) => {
            eprintln!("error: --jobs needs an integer, got `{value}`");
            std::process::exit(2);
        }
    }
}

/// Parses the `repro serve ...` argument tail and runs the worker daemon
/// (never returns on success — the daemon serves until killed).
fn serve_main(args: impl Iterator<Item = String>) -> ! {
    let mut options = sdiq_remote::server::ServeOptions {
        listen: "127.0.0.1:0".to_string(),
        jobs: 0,
        fail_after: None,
        stall_after: None,
        auth_key: None,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => options.listen = required_value(&mut args, "--listen"),
            "--jobs" => {
                let value = required_value(&mut args, "--jobs");
                options.jobs = parse_jobs(&value);
            }
            "--fail-after" => {
                let value = required_value(&mut args, "--fail-after");
                options.fail_after = Some(value.parse::<usize>().unwrap_or_else(|_| {
                    eprintln!("error: --fail-after needs an integer, got `{value}`");
                    std::process::exit(2);
                }));
            }
            "--stall-after" => {
                let value = required_value(&mut args, "--stall-after");
                options.stall_after = Some(value.parse::<usize>().unwrap_or_else(|_| {
                    eprintln!("error: --stall-after needs an integer, got `{value}`");
                    std::process::exit(2);
                }));
            }
            "--auth-key" => options.auth_key = Some(required_value(&mut args, "--auth-key")),
            "--trace" | "--progress" => {
                eprintln!(
                    "error: {arg} is a coordinator flag; a `repro serve` daemon is observed \
                     by its coordinator (run the coordinator with {arg})"
                );
                std::process::exit(2);
            }
            "--help" | "-h" => {
                println!(
                    "repro serve [--listen <host:port>] [--jobs <n>] \
                     [--fail-after <n>] [--stall-after <n>] [--auth-key <key>]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown serve argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let error = sdiq_remote::server::serve(&options).expect_err("serve only returns on error");
    eprintln!("error: worker daemon: {error}");
    std::process::exit(1);
}

/// Prints each diagnostic under its artifact context, tallying by
/// severity. Diagnostics render as `severity[CODE] location: message`
/// (see EXPERIMENTS.md for the code table).
fn print_diags(
    context: &str,
    diags: &[sdiq_verify::Diagnostic],
    errors: &mut usize,
    warnings: &mut usize,
) {
    for d in diags {
        match d.severity {
            sdiq_verify::Severity::Error => *errors += 1,
            sdiq_verify::Severity::Warning => *warnings += 1,
        }
        println!("{context}: {d}");
    }
}

/// Parses the `repro lint ...` argument tail and runs the full static
/// checker suite — structural program verification, annotation legality,
/// the soundness envelope and the execution-plan lint — over every
/// artifact of the selected (variant × benchmark × technique) space, plus
/// the oracle that the plan the artifact cache makes for each plan key,
/// lowered or re-marked, equals the plan built from the program's own
/// trace. Artifacts are deduplicated by their cache keys, so the work
/// matches what an equivalent run would build. Exits 0 when no
/// error-severity diagnostics were found, 1 otherwise, 2 on flag errors.
fn lint_main(args: impl Iterator<Item = String>) -> ! {
    let mut scale: Option<f64> = None;
    let mut sweeps: Vec<(String, Vec<f64>)> = Vec::new();
    let mut benchmarks: Option<Vec<Benchmark>> = None;
    let mut techniques: Option<Vec<Technique>> = None;
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = required_value(&mut args, "--scale");
                scale = Some(parse_scale(&value));
            }
            "--sweep" => {
                let spec = required_value(&mut args, "--sweep");
                sweeps.push(parse_sweep_spec(&spec));
            }
            "--benchmarks" => {
                let spec = required_value(&mut args, "--benchmarks");
                benchmarks = Some(parse_benchmarks_spec(&spec));
            }
            "--techniques" => {
                let spec = required_value(&mut args, "--techniques");
                techniques = Some(parse_techniques_spec(&spec));
            }
            "--workers" | "--shard" => {
                eprintln!(
                    "error: `repro lint` is a local static checker; {arg} (distributed \
                     execution) does not combine with it"
                );
                std::process::exit(2);
            }
            "--help" | "-h" => {
                println!(
                    "repro lint [--scale <f>] [--sweep iq|bank|scale=<v,..>] \
                     [--benchmarks <b,..>] [--techniques <t,..>]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown lint argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let mut experiment = Experiment::paper();
    if let Some(scale) = scale {
        experiment.scale = scale;
    }
    let benchmarks = benchmarks.unwrap_or_else(|| Benchmark::ALL.to_vec());
    let techniques = techniques.unwrap_or_else(Technique::all);
    // The one shared sweep validator (`MatrixSpec::matrix`) builds the
    // variant list, so lint covers exactly the configurations a run with
    // the same flags would execute.
    let matrix_spec = MatrixSpec {
        scale: experiment.scale,
        sweeps,
        benchmarks: benchmarks.iter().map(|b| b.name().to_string()).collect(),
        techniques: techniques.iter().map(|t| t.name().to_string()).collect(),
    };
    let matrix = matrix_spec.matrix(&experiment).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let variants = matrix.config_variants();
    let cap = experiment.max_dynamic_instructions;

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut programs_checked = 0usize;
    let mut compiles_checked = 0usize;
    let mut plans_checked = 0usize;
    let mut remarks_checked = 0u64;

    // One benchmark at a time, each on a fresh cache, which makes every
    // plan of the benchmark exactly as a run does: lowered for the first
    // plan of each stream, re-marked for the rest. Its
    // panic-on-first-finding verification stays off — lint collects and
    // prints every diagnostic instead of aborting.
    for &benchmark in &benchmarks {
        let cache = ArtifactCache::new();
        cache.set_verify(false);
        let mut seen_programs: HashSet<ProgramKey> = HashSet::new();
        // `None` marks a compile whose pipeline verification failed — the
        // plan stage has nothing sound to lint against for those.
        let mut compiled: HashMap<CompileKey, Option<sdiq_compiler::CompiledProgram>> =
            HashMap::new();
        let mut seen_plans: HashSet<PlanKey> = HashSet::new();
        for variant in &variants {
            let program_key = ProgramKey::new(benchmark, variant.scale);
            let program = cache.program(program_key);
            if seen_programs.insert(program_key) {
                programs_checked += 1;
                let context = format!("{}/{}", variant.label, benchmark.name());
                let diags = sdiq_verify::verify_program(&program);
                print_diags(&context, &diags, &mut errors, &mut warnings);
            }
            for &technique in &techniques {
                let context = format!(
                    "{}/{}/{}",
                    variant.label,
                    benchmark.name(),
                    technique.name()
                );
                let pass = technique
                    .pass_config_for(variant.sim_config.widths, variant.sim_config.fu_counts);
                let (plan_source, source_program): (PlanSource, &Program) = match pass {
                    Some(pass) => {
                        let compile_key = CompileKey {
                            program: program_key,
                            pass,
                        };
                        let result = compiled.entry(compile_key).or_insert_with(|| {
                            compiles_checked += 1;
                            match CompilerPass::new(pass)
                                .run_verified(&program, Box::new(StandardVerifier))
                            {
                                Ok(result) => {
                                    let diags = sdiq_verify::verify_compiled(&result);
                                    print_diags(&context, &diags, &mut errors, &mut warnings);
                                    Some(result)
                                }
                                Err(err) => {
                                    for d in &err.diagnostics {
                                        errors += 1;
                                        println!(
                                            "{context}: error[{}] after pass `{}`: {}",
                                            d.code, err.pass, d.message
                                        );
                                    }
                                    None
                                }
                            }
                        });
                        match result {
                            Some(result) => (PlanSource::Compiled(compile_key), &result.program),
                            None => continue,
                        }
                    }
                    None => (PlanSource::Program(program_key), &program),
                };
                let plan_key = PlanKey {
                    source: plan_source,
                    sim_config: variant.sim_config,
                    max_dynamic_instructions: cap,
                };
                if !seen_plans.insert(plan_key) {
                    continue;
                }
                plans_checked += 1;
                // The trace is dropped at the end of this arm, before the
                // cache may execute the program again to lower its plan.
                let (built, mut diags) = match Executor::new(source_program).run(cap) {
                    Ok(trace) => {
                        let built = ExecPlan::build(variant.sim_config, source_program, &trace);
                        let mut diags = sdiq_verify::lint_plan(&built, source_program, &trace);
                        if trace.hit_cap {
                            diags.push(sdiq_verify::Diagnostic::warning(
                                sdiq_verify::codes::PLAN007,
                                "stream",
                                format!(
                                    "execution stopped after {} instructions, at the \
                                     {cap}-instruction cap: the plan covers a prefix of \
                                     the workload",
                                    trace.len()
                                ),
                            ));
                        }
                        (built, diags)
                    }
                    Err(fault) => {
                        errors += 1;
                        println!("{context}: error[EXEC] workload faulted: {fault:?}");
                        continue;
                    }
                };
                // The oracle: the plan a run gets for this key, lowered or
                // re-marked by the cache, must equal the plan built from
                // this program's own trace on this machine.
                diags.extend(sdiq_verify::lint_remark_oracle(
                    &cache.planned(plan_key),
                    &built,
                ));
                print_diags(&context, &diags, &mut errors, &mut warnings);
            }
        }
        remarks_checked += cache.plan_remarks();
    }

    println!(
        "lint: {} variant(s) x {} benchmark(s) x {} technique(s): \
         {programs_checked} program(s), {compiles_checked} compile(s), \
         {plans_checked} plan(s), {remarks_checked} re-mark(s) checked - {errors} error(s), \
         {warnings} warning(s)",
        variants.len(),
        benchmarks.len(),
        techniques.len(),
    );
    std::process::exit(if errors > 0 { 1 } else { 0 });
}

fn wants(options: &Options, what: &str) -> bool {
    options.selections.contains("all") || options.selections.contains(what)
}

/// The `--progress` cell sink: forwards every completed cell to the
/// wrapped sink (the checkpoint writer, when one is open), then prints
/// the rate-limited progress line — to **stderr**, so piped stdout
/// (figures, saves) stays clean. In remote mode each line also carries
/// each worker's share of this run from the fleet registry.
struct ProgressSink<'a> {
    inner: Option<&'a dyn sdiq_core::CellSink>,
    progress: sdiq_obs::Progress,
    fleet: bool,
}

impl sdiq_core::CellSink for ProgressSink<'_> {
    fn cell_complete(&self, key: &str, report: &sdiq_core::RunReport) {
        if let Some(inner) = self.inner {
            inner.cell_complete(key, report);
        }
        if let Some(mut line) = self.progress.record() {
            if self.fleet {
                let (elapsed, workers) = sdiq_remote::fleet::snapshot();
                for (addr, tally) in workers {
                    line.push_str(&format!(
                        " | {addr}: {} done, {:.0} inst/s",
                        tally.cells,
                        tally.instructions_per_second(elapsed)
                    ));
                }
            }
            eprintln!("{line}");
        }
    }
}

fn print_table2(experiment: &Experiment, benchmarks: &[Benchmark]) {
    println!("== Table 2: compilation time (baseline vs with analysis pass) ==");
    for (benchmark, baseline, limited) in experiment.compile_times(benchmarks) {
        println!(
            "  {:10} baseline {:>10.3?}   with pass {:>10.3?}   growth {:>5.2}x",
            benchmark.name(),
            baseline,
            limited,
            if baseline.as_secs_f64() > 0.0 {
                limited.as_secs_f64() / baseline.as_secs_f64()
            } else {
                f64::NAN
            }
        );
    }
    println!();
}

fn print_power_figure(title: &str, figure: &experiments::PowerFigure) {
    println!("{title} — dynamic power savings (%)");
    for series in &figure.dynamic {
        print!("{}", series.render());
    }
    println!("{title} — static power savings (%)");
    for series in &figure.static_ {
        print!("{}", series.render());
    }
}

fn main() {
    // `repro serve` (a daemon) and `repro lint` (a checker) are different
    // program shapes; branch before flag parsing so their flags don't
    // collide with the run flags.
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("serve") => serve_main(args),
        Some("lint") => lint_main(args),
        _ => {}
    }
    let options = parse_args();
    if options.trace.is_some() {
        // Recording starts before any artifact is built so the trace
        // covers cache builds, compiles and plan lowering too.
        sdiq_obs::set_tracing(true);
    }
    let mut experiment = Experiment::paper();
    if let Some(scale) = options.scale {
        experiment.scale = scale;
    }

    let benchmarks = options
        .benchmarks
        .clone()
        .unwrap_or_else(|| Benchmark::ALL.to_vec());
    let techniques = options.techniques.clone().unwrap_or_else(Technique::all);
    // Both the local matrix and (in remote mode) the spec shipped to
    // worker daemons derive from this one description, so the two sides
    // cannot disagree about what the matrix is. `MatrixSpec::matrix` is
    // also the one validator of sweep axes and values (worker daemons
    // apply the identical rules to wire input): built before anything
    // prints, so a bad sweep exits 2 up front whatever was selected.
    let matrix_spec = MatrixSpec {
        scale: experiment.scale,
        sweeps: options.sweeps.clone(),
        benchmarks: benchmarks.iter().map(|b| b.name().to_string()).collect(),
        techniques: techniques.iter().map(|t| t.name().to_string()).collect(),
    };
    let mut matrix = matrix_spec.matrix(&experiment).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if let Some(jobs) = options.jobs {
        matrix = matrix.jobs(jobs);
    }
    if let Some((index, count)) = options.shard {
        matrix = matrix.shard(index, count);
    }

    // Worker mode computes cells, nothing else: skip the table sections
    // (table2 alone would re-compile every benchmark).
    let tables = options.shard.is_none();
    if tables && wants(&options, "table1") {
        println!("== Table 1: processor configuration ==");
        print!("{}", experiments::table1(&SimConfig::hpca2005()));
        println!();
    }

    // Every section but the two tables reads the suite.
    let needs_suite = options
        .selections
        .iter()
        .any(|section| !matches!(section.as_str(), "table1" | "table2"))
        || options.save.is_some()
        || !options.loads.is_empty()
        || options.checkpoint.is_some()
        || options.shard.is_some()
        || options.workers.is_some();

    // Table 2 builds and compiles the run's benchmarks outside the
    // artifact cache. With a matrix to run it waits until the matrix is
    // done, so the first cell (and, in fleet mode, every daemon) does not
    // wait for it; stdout keeps its section order either way.
    let table2 = tables && wants(&options, "table2");
    if table2 && !needs_suite {
        print_table2(&experiment, &benchmarks);
    }

    let sweep = if needs_suite {
        // Seed from every --load file, then (for crash resume) from the
        // cells the checkpoint file already holds. Later sources win on
        // key collisions; `load_cells_any` accepts save and checkpoint
        // formats interchangeably.
        let mut seed: HashMap<String, sdiq_core::RunReport> = HashMap::new();
        for path in &options.loads {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: reading {path}: {e}");
                std::process::exit(2);
            });
            let cells = persist::load_cells_any(&text).unwrap_or_else(|e| {
                eprintln!("error: parsing {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("loaded {} cells from {path}", cells.len());
            seed.extend(cells);
        }

        // --checkpoint receives every newly computed cell the moment it
        // exists, computed in-process or streamed back by a worker daemon.
        // Opening it heals a torn tail and returns the cells it holds.
        let checkpoint = options.checkpoint.as_ref().map(|path| {
            let (writer, cells) = persist::CheckpointWriter::append_to(path).unwrap_or_else(|e| {
                eprintln!("error: opening checkpoint {path}: {e}");
                std::process::exit(2);
            });
            if !cells.is_empty() {
                eprintln!("loaded {} cells from {path}", cells.len());
            }
            seed.extend(cells);
            writer
        });
        let checkpoint_sink = checkpoint.as_ref().map(|w| w as &dyn sdiq_core::CellSink);

        // `--progress` wraps whatever sink is already there; the engine
        // sees one sink either way, so persistence is untouched.
        let progress_sink = options.progress.then(|| ProgressSink {
            inner: checkpoint_sink,
            progress: sdiq_obs::Progress::new(matrix.missing_cells(&seed)),
            fleet: options.workers.is_some(),
        });
        let cell_sink: Option<&dyn sdiq_core::CellSink> = match &progress_sink {
            Some(sink) => Some(sink),
            None => checkpoint_sink,
        };

        let sweep = if let Some(workers) = &options.workers {
            // Remote coordinator mode: distribute the missing cells over
            // the `repro serve` daemons `--workers` names; completed
            // cells stream back into the checkpoint sink as they land,
            // and the assembled sweep is bit-identical to a serial run.
            let defaults = sdiq_remote::RemoteOptions::new(matrix_spec.clone());
            let remote = sdiq_remote::RemoteOptions {
                workers: workers.clone(),
                retry_budget: options.retry_budget.unwrap_or(defaults.retry_budget),
                connect_timeout: options
                    .connect_timeout
                    .map(std::time::Duration::from_secs_f64)
                    .unwrap_or(defaults.connect_timeout),
                heartbeat_deadline: options
                    .heartbeat_deadline
                    .map(std::time::Duration::from_secs_f64)
                    .unwrap_or(defaults.heartbeat_deadline),
                auth_key: options.auth_key.clone(),
                // Workers ship spans only when a trace will be written.
                observe: sdiq_remote::ObserveSpec {
                    trace: options.trace.is_some(),
                },
                ..defaults
            };
            eprintln!(
                "remote coordinator: distributing {} of {} cells across {} worker(s) ...",
                matrix.missing_cells(&seed),
                matrix.cell_count(),
                workers.len()
            );
            let sweep = sdiq_remote::run(&matrix, &remote, &seed, cell_sink).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            eprintln!("remote coordinator: suite complete");
            sweep
        } else {
            let total = matrix.cell_count();
            // `missing_cells` applies the engine's own seed-integrity check
            // (key present *and* report matches the cell), so this count is
            // exactly what the workers will compute — a corrupted save file
            // shows up here instead of being silently recomputed.
            let missing = matrix.missing_cells(&seed);
            match options.shard {
                Some((index, count)) => eprintln!(
                    "shard {}/{}: running {} of {} owned cells ({} in the full matrix, scale {}) ...",
                    index + 1,
                    count,
                    missing,
                    total,
                    matrix.unsharded_cell_count(),
                    experiment.scale
                ),
                None => eprintln!(
                    "running {} of {} matrix cells ({} benchmarks x {} techniques x {} configs, scale {}) ...",
                    missing,
                    total,
                    benchmarks.len(),
                    techniques.len(),
                    total / (benchmarks.len() * techniques.len()).max(1),
                    experiment.scale
                ),
            }
            let cache = ArtifactCache::new();
            if let Some(on) = options.verify {
                cache.set_verify(on);
            }
            let sweep = matrix.run_with_sink(&cache, &seed, cell_sink);
            eprintln!(
                "engine: {} program builds, {} compiler passes, {} plans lowered, {} re-marked, \
                 {} replays for {} computed cells",
                cache.program_builds(),
                cache.compile_runs(),
                cache.plan_builds(),
                cache.plan_remarks(),
                cache.replay_runs(),
                missing
            );
            if let Some(writer) = &checkpoint {
                eprintln!(
                    "checkpointed {missing} newly computed cells to {}",
                    writer.path().display()
                );
            }
            sweep
        };

        let cells = matrix.collect_cells(&sweep);
        if let Some(path) = &options.save {
            std::fs::write(path, persist::save_cells(&cells)).unwrap_or_else(|e| {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("saved {} cells to {path}", cells.len());
        }
        // The executor stops a workload at the instruction cap, so a cell
        // that reached it reports a cut-short run, not the whole workload.
        let cap = experiment.max_dynamic_instructions;
        let mut truncated = cells
            .iter()
            .filter(|(_, report)| report.stats.committed + report.stats.committed_hints >= cap);
        if let Some((first, _)) = truncated.next() {
            eprintln!(
                "warning: {} cell(s) stopped at the {cap}-instruction cap, so their \
                 workloads were cut short (first: {first})",
                1 + truncated.count()
            );
        }
        Some(sweep)
    } else {
        None
    };

    // The trace is written after --save so a crash while exporting can
    // never cost computed cells; the export itself touches no suite
    // state (out-of-band by construction).
    let span_totals = options.trace.as_ref().map(|path| {
        sdiq_obs::set_tracing(false);
        let events = sdiq_obs::drain();
        sdiq_core::trace::write_chrome_trace(path, &events).unwrap_or_else(|e| {
            eprintln!("error: writing trace {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("wrote {} trace event(s) to {path}", events.len());
        sdiq_core::trace::span_totals(&events)
    });

    // A --shard run is a worker: its suite is partial, so figures would be
    // misleading — the cells were delivered via --save/--checkpoint.
    if options.shard.is_some() {
        return;
    }
    if table2 && needs_suite {
        print_table2(&experiment, &benchmarks);
    }
    let suite: Option<&Suite> = sweep.as_ref().map(|s| s.suite(0));

    if let Some(suite) = suite {
        if wants(&options, "figure6") {
            println!("== Figure 6: normalised IPC loss, NOOP technique (%) ==");
            for series in experiments::figure6(suite) {
                print!("{}", series.render());
            }
            println!();
        }
        if wants(&options, "figure7") {
            println!("== Figure 7: issue-queue occupancy reduction, NOOP technique (%) ==");
            if let Some(series) = experiments::figure7(suite) {
                print!("{}", series.render());
            }
            println!();
        }
        if wants(&options, "figure8") {
            print_power_figure(
                "== Figure 8: issue-queue power savings, NOOP technique ==",
                &experiments::figure8(suite),
            );
            println!();
        }
        if wants(&options, "figure9") {
            print_power_figure(
                "== Figure 9: integer register-file power savings, NOOP technique ==",
                &experiments::figure9(suite),
            );
            println!();
        }
        if wants(&options, "figure10") {
            println!("== Figure 10: normalised IPC loss, Extension and Improved (%) ==");
            for series in experiments::figure10(suite) {
                print!("{}", series.render());
            }
            println!();
        }
        if wants(&options, "figure11") {
            print_power_figure(
                "== Figure 11: issue-queue power savings, Extension and Improved ==",
                &experiments::figure11(suite),
            );
            println!();
        }
        if wants(&options, "figure12") {
            print_power_figure(
                "== Figure 12: integer register-file power savings, Extension and Improved ==",
                &experiments::figure12(suite),
            );
            println!();
        }
        if wants(&options, "overall") {
            println!("== §6: overall processor dynamic power savings ==");
            // As in the figures: the suite's own techniques only, `n/a`
            // where no baseline ran.
            let ran = suite.techniques();
            for technique in [Technique::Noop, Technique::Extension, Technique::Improved] {
                if !ran.contains(&technique) {
                    continue;
                }
                let overall =
                    match experiments::overall_processor_savings(suite, technique, 0.22, 0.11) {
                        Some(overall) => format!("{overall:5.1}%"),
                        None => format!("{:>6}", "n/a"),
                    };
                println!(
                    "  {:10} {overall} (IQ at 22%, int RF at 11% of processor power)",
                    technique.name()
                );
            }
            println!();
        }
        if wants(&options, "summary") {
            println!("== Suite-average summary (paper headline numbers) ==");
            println!(
                "  {:10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "technique", "IPC loss", "IQ occ-", "IQ dyn", "IQ stat", "RF dyn", "RF stat"
            );
            // The suite's own techniques only; `n/a` where no benchmark
            // ran the technique beside the baseline.
            let ran = suite.techniques();
            for technique in Technique::evaluated() {
                if !ran.contains(&technique) {
                    continue;
                }
                let columns = experiments::summarise(suite, technique).map(|s| {
                    [
                        s.ipc_loss_pct,
                        s.iq_occupancy_reduction_pct,
                        s.iq_dynamic_pct,
                        s.iq_static_pct,
                        s.rf_dynamic_pct,
                        s.rf_static_pct,
                    ]
                });
                println!(
                    "  {:10}{}",
                    technique.name(),
                    experiments::percent_columns(columns.as_ref().map(|c| &c[..]), 6)
                );
            }
            println!();
        }
    }

    if let Some(sweep) = &sweep {
        if sweep.len() == 1 && options.selections.contains("sweep-summary") {
            eprintln!(
                "warning: --sweep-summary needs a sweep axis (add e.g. --sweep iq=64,48); \
                 nothing to print for a base-only run"
            );
        }
        if sweep.len() > 1 && wants(&options, "sweep-summary") {
            println!("== Sweep sensitivity (Figure-10-style, suite averages per configuration) ==");
            let rows = experiments::sweep_sensitivity(
                sweep,
                &[
                    Technique::Noop,
                    Technique::Extension,
                    Technique::Improved,
                    Technique::Abella,
                ],
            );
            print!("{}", experiments::render_sweep_sensitivity(&rows));
            println!();
        }
    }

    // `--stats` is deliberately *not* part of `--all`: the metrics
    // snapshot is run-shaped (timings, cache traffic), so folding it
    // into the default figure set would make --all output unstable.
    if options.selections.contains("stats") {
        println!("== Metrics snapshot (sdiq-obs registry) ==");
        for sample in sdiq_obs::metrics().snapshot() {
            match &sample.value {
                sdiq_obs::SampleValue::Counter(v) | sdiq_obs::SampleValue::Gauge(v) => {
                    println!("  {:22} {v:>14} {}", sample.name, sample.unit);
                }
                sdiq_obs::SampleValue::Histogram(h) => {
                    println!(
                        "  {:22} {:>14} {} over {} observation(s), mean {:.0}",
                        sample.name,
                        h.sum,
                        sample.unit,
                        h.count,
                        h.mean()
                    );
                }
            }
        }
        let metrics = sdiq_obs::metrics();
        let (hits, misses) = (metrics.cache_hits(), metrics.cache_misses());
        if hits + misses > 0 {
            println!(
                "  {:22} {:>13.1}% ({hits} hit(s), {misses} miss(es))",
                "cache_hit_rate",
                hits as f64 * 100.0 / (hits + misses) as f64
            );
        }
        println!();
        if let Some(totals) = &span_totals {
            println!("== Span totals (--trace; a span includes the spans inside it) ==");
            for (name, (count, nanos)) in totals {
                println!(
                    "  {name:22} {count:>8} span(s) {:>10.3} s",
                    *nanos as f64 / 1e9
                );
            }
            println!();
        }
    }
}
