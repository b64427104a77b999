//! Layer run of the repository benchmark (see `perfbench/README.md`).
//!
//! Replays every cell of one workload serially on this thread, calling each
//! crate's public entry point in pipeline order — program build, compiler
//! pass, functional execution, plan lowering, plan lint, cycle replay and
//! power pricing — once per artifact key, exactly as `ArtifactCache` would,
//! and times every call from here. It then checks the replayed cells
//! against the save the end-to-end run wrote, times the save encoder (and,
//! with `--codecs`, the fleet's wire codecs on each cell's `CellDone`),
//! reruns the same cells through the serial engine to price what the
//! engine adds on top of the layers, prints one JSON object of per-layer
//! metrics as its last stdout line and writes its spans as a Chrome trace.
//!
//! ```text
//! layers --scale <f64> [--sweep-iq <n,..>] [--verify] [--codecs]
//!        --save <path> [--spans <path>]
//! ```
//!
//! Exit 0: every replayed cell equals the saved cell and the re-encoded
//! save is byte-identical. Exit 1: a mismatch or a failed check (named on
//! stderr). Exit 2: bad arguments or unreadable input.

use sdiq_compiler::{CompileStats, CompilerPass};
use sdiq_core::{
    cell_key, persist, ArtifactCache, CompileKey, ConfigVariant, Experiment, MatrixSpec, PlanKey,
    PlanSource, ProgramKey, RunReport, Technique,
};
use sdiq_isa::{Executor, Program};
use sdiq_power::PowerBreakdown;
use sdiq_remote::binary;
use sdiq_remote::protocol::Message;
use sdiq_sim::{ActivityStats, ExecPlan, PlanSimulator};
use sdiq_verify::{has_errors, lint_plan, verify_compiled, StandardVerifier};
use sdiq_workloads::Benchmark;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed passes over all cells per wire codec; the median pass is kept.
const CODEC_PASSES: usize = 15;

struct Args {
    /// Parsed from the same text `repro --scale` gets, so both processes
    /// address the same cells.
    scale: f64,
    sweep_iq: Vec<f64>,
    verify: bool,
    codecs: bool,
    save: String,
    spans: Option<String>,
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: layers --scale <f64> [--sweep-iq <n,..>] [--verify] [--codecs] \
         --save <path> [--spans <path>]"
    );
    std::process::exit(2);
}

fn fail(message: &str) -> ! {
    eprintln!("layers: check failed: {message}");
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut scale = None;
    let mut sweep_iq = Vec::new();
    let mut verify = false;
    let mut codecs = false;
    let mut save = None;
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--scale" => {
                let text = value();
                scale = Some(text.parse::<f64>().unwrap_or_else(|_| {
                    usage_error(&format!("--scale needs a number, got `{text}`"))
                }));
            }
            "--sweep-iq" => {
                sweep_iq = value()
                    .split(',')
                    .map(|v| {
                        v.parse::<f64>().unwrap_or_else(|_| {
                            usage_error(&format!("--sweep-iq: bad value `{v}`"))
                        })
                    })
                    .collect();
            }
            "--verify" => verify = true,
            "--codecs" => codecs = true,
            "--save" => save = Some(value()),
            "--spans" => spans = Some(value()),
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    Args {
        scale: scale.unwrap_or_else(|| usage_error("--scale is required")),
        sweep_iq,
        verify,
        codecs,
        save: save.unwrap_or_else(|| usage_error("--save is required")),
        spans,
    }
}

/// One timed call, recorded from this file around a call into a layer.
struct SpanRecord {
    name: &'static str,
    /// The layer (crate) the call belongs to.
    cat: &'static str,
    detail: String,
    parent: Option<usize>,
    start: Duration,
    dur: Duration,
}

/// Spans kept in memory and written out once, when the run ends.
struct Recorder {
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, cat: &'static str, detail: String) {
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            cat,
            detail,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            dur: Duration::ZERO,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span and returns its length in seconds.
    fn end(&mut self) -> f64 {
        let now = self.origin.elapsed();
        let id = self
            .open
            .pop()
            .expect("end() pairs with an earlier begin()");
        let span = &mut self.spans[id];
        span.dur = now - span.start;
        span.dur.as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result and its seconds.
    fn time<T>(
        &mut self,
        name: &'static str,
        cat: &'static str,
        detail: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        self.begin(name, cat, detail.to_string());
        let out = f();
        (out, self.end())
    }

    /// Chrome trace-event JSON (complete `X` events, microseconds).
    fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"detail\":\"{}\"}}}}",
                span.name,
                span.cat,
                span.start.as_secs_f64() * 1e6,
                span.dur.as_secs_f64() * 1e6,
                json_escape(&span.detail)
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Seconds and work counts per layer, summed over the replay.
#[derive(Default)]
struct Ledger {
    build_s: f64,
    programs: u64,
    compile_s: f64,
    compiles: u64,
    verify_compiled_s: f64,
    exec_s: f64,
    dyn_insts: u64,
    lower_s: f64,
    plans: u64,
    plan_records: u64,
    lint_s: f64,
    replay_s: f64,
    replays: u64,
    price_s: f64,
}

impl Ledger {
    /// Every timed layer call of the replay (what the serial engine also
    /// runs for the same cells).
    fn layer_seconds(&self) -> f64 {
        self.build_s
            + self.compile_s
            + self.verify_compiled_s
            + self.exec_s
            + self.lower_s
            + self.lint_s
            + self.replay_s
            + self.price_s
    }
}

/// A compiler-pass output as the cache stores it: durations zeroed, so it
/// is a pure function of its key.
struct Compiled {
    program: Arc<Program>,
    stats: CompileStats,
}

fn compile(
    rec: &mut Recorder,
    ledger: &mut Ledger,
    key: CompileKey,
    program: &Program,
    verify: bool,
) -> Compiled {
    let detail = key.program.benchmark.name();
    let pass = CompilerPass::new(key.pass);
    let compiled = if verify {
        let (result, seconds) = rec.time("compile", "compiler", detail, || {
            pass.run_verified(program, Box::new(StandardVerifier))
        });
        ledger.compile_s += seconds;
        let compiled = result.unwrap_or_else(|err| fail(&format!("{detail}: {err}")));
        let (diags, seconds) = rec.time("verify-compiled", "verify", detail, || {
            verify_compiled(&compiled)
        });
        ledger.verify_compiled_s += seconds;
        if has_errors(&diags) {
            fail(&format!("{detail}: compiled artifact failed verification"));
        }
        compiled
    } else {
        let (compiled, seconds) = rec.time("compile", "compiler", detail, || pass.run(program));
        ledger.compile_s += seconds;
        compiled
    };
    ledger.compiles += 1;
    let mut stats = compiled.stats;
    stats.total_duration = Duration::ZERO;
    for procedure in &mut stats.per_procedure {
        procedure.duration = Duration::ZERO;
    }
    Compiled {
        program: Arc::new(compiled.program),
        stats,
    }
}

fn lower(
    rec: &mut Recorder,
    ledger: &mut Ledger,
    key: PlanKey,
    program: &Program,
    verify: bool,
    detail: &str,
) -> ExecPlan {
    let (trace, seconds) = rec.time("functional-exec", "isa", detail, || {
        Executor::new(program).run(key.max_dynamic_instructions)
    });
    ledger.exec_s += seconds;
    let trace = trace.unwrap_or_else(|fault| fail(&format!("{detail}: faulted: {fault:?}")));
    ledger.dyn_insts += trace.len() as u64;
    let (plan, seconds) = rec.time("lower", "sim", detail, || {
        ExecPlan::build(key.sim_config, program, &trace)
    });
    ledger.lower_s += seconds;
    ledger.plans += 1;
    ledger.plan_records += plan.len() as u64;
    if verify {
        let (diags, seconds) = rec.time("lint", "verify", detail, || {
            lint_plan(&plan, program, &trace)
        });
        ledger.lint_s += seconds;
        if has_errors(&diags) {
            fail(&format!("{detail}: execution plan failed lint"));
        }
    }
    plan
}

/// Replays every cell of one benchmark's column of the matrix. Artifacts
/// are memoised per key, as `ArtifactCache` does; no key of one benchmark
/// can be asked for by another, so they are dropped on return.
fn replay(
    rec: &mut Recorder,
    ledger: &mut Ledger,
    experiment: &Experiment,
    variants: &[ConfigVariant],
    benchmark: Benchmark,
    verify: bool,
) -> BTreeMap<String, RunReport> {
    let mut cells = BTreeMap::new();
    let mut programs: HashMap<ProgramKey, Arc<Program>> = HashMap::new();
    let mut compiles: HashMap<CompileKey, Compiled> = HashMap::new();
    let mut plans: HashMap<PlanKey, ExecPlan> = HashMap::new();
    for variant in variants {
        let program_key = ProgramKey::new(benchmark, variant.scale);
        let program = programs
            .entry(program_key)
            .or_insert_with(|| {
                let (program, seconds) =
                    rec.time("build-program", "workloads", benchmark.name(), || {
                        benchmark.build_scaled_shared(variant.scale)
                    });
                ledger.build_s += seconds;
                ledger.programs += 1;
                program
            })
            .clone();
        for technique in Technique::all() {
            let key = cell_key(experiment, variant, benchmark, technique);
            let pass =
                technique.pass_config_for(variant.sim_config.widths, variant.sim_config.fu_counts);
            let (source, source_program, compile_stats, hint_noops) = match pass {
                Some(pass) => {
                    let compile_key = CompileKey {
                        program: program_key,
                        pass,
                    };
                    let compiled = compiles
                        .entry(compile_key)
                        .or_insert_with(|| compile(rec, ledger, compile_key, &program, verify));
                    (
                        PlanSource::Compiled(compile_key),
                        compiled.program.clone(),
                        Some(compiled.stats.clone()),
                        compiled.stats.hint_noops_inserted,
                    )
                }
                None => (PlanSource::Program(program_key), program.clone(), None, 0),
            };
            let plan_key = PlanKey {
                source,
                sim_config: variant.sim_config,
                max_dynamic_instructions: experiment.max_dynamic_instructions,
            };
            let plan: &ExecPlan = plans
                .entry(plan_key)
                .or_insert_with(|| lower(rec, ledger, plan_key, &source_program, verify, &key));
            let (result, seconds) = rec.time("replay", "sim", &key, || {
                PlanSimulator::new(plan, technique.resize_policy()).run()
            });
            ledger.replay_s += seconds;
            ledger.replays += 1;
            let result = result.unwrap_or_else(|err| fail(&format!("{key}: {err:?}")));
            let (power, seconds) = rec.time("price", "power", &key, || {
                PowerBreakdown::from_stats(
                    &result.stats,
                    &experiment.energy_model,
                    technique.wakeup_scheme(),
                    technique.bank_gating(),
                )
            });
            ledger.price_s += seconds;
            cells.insert(
                key,
                RunReport {
                    workload: plan.workload().to_string(),
                    technique,
                    stats: result.stats,
                    power,
                    compile: compile_stats,
                    adaptive_resizes: result.adaptive_resizes,
                    hint_noops_inserted: hint_noops,
                },
            );
        }
    }
    cells
}

/// Median seconds of `CODEC_PASSES` timed passes of `f` over all cells.
fn median_pass(
    rec: &mut Recorder,
    name: &'static str,
    mut f: impl FnMut() -> usize,
) -> (f64, usize) {
    let mut seconds = Vec::with_capacity(CODEC_PASSES);
    let mut bytes = 0;
    for pass in 0..CODEC_PASSES {
        let (pass_bytes, s) = rec.time(name, "remote", &format!("pass {pass}"), &mut f);
        bytes = pass_bytes;
        seconds.push(s);
    }
    seconds.sort_by(f64::total_cmp);
    (seconds[CODEC_PASSES / 2], bytes)
}

/// Encode/decode cost and size of every cell's `CellDone` frame in both
/// wire codecs. Decoded frames must equal the originals.
fn codec_metrics(
    rec: &mut Recorder,
    cells: &BTreeMap<String, RunReport>,
    out: &mut Vec<(&'static str, Value)>,
) {
    let messages: Vec<Message> = cells
        .iter()
        .map(|(key, report)| Message::CellDone {
            key: key.clone(),
            report: Box::new(report.clone()),
        })
        .collect();
    let bin1: Vec<Vec<u8>> = messages.iter().map(binary::encode_message).collect();
    let json: Vec<String> = messages.iter().map(Message::render).collect();
    for (message, (bin1, json)) in messages.iter().zip(bin1.iter().zip(&json)) {
        let from_bin1 = binary::decode_message(bin1).unwrap_or_else(|e| fail(&e.to_string()));
        let from_json = Message::parse(json).unwrap_or_else(|e| fail(&e.to_string()));
        if from_bin1 != *message || from_json != *message {
            fail("a CellDone frame did not survive a wire round trip");
        }
    }

    let n = messages.len() as f64;
    let (bin1_encode, bin1_bytes) = median_pass(rec, "bin1-encode", || {
        messages
            .iter()
            .map(|m| std::hint::black_box(binary::encode_message(m)).len())
            .sum()
    });
    let (bin1_decode, _) = median_pass(rec, "bin1-decode", || {
        bin1.iter()
            .map(|b| std::hint::black_box(binary::decode_message(b)).is_ok() as usize)
            .sum()
    });
    let (json_encode, json_bytes) = median_pass(rec, "json-encode", || {
        messages
            .iter()
            .map(|m| std::hint::black_box(m.render()).len())
            .sum()
    });
    let (json_decode, _) = median_pass(rec, "json-decode", || {
        json.iter()
            .map(|t| std::hint::black_box(Message::parse(t)).is_ok() as usize)
            .sum()
    });
    out.push((
        "remote.bin1_encode_ns_per_cell",
        Value::F(bin1_encode * 1e9 / n),
    ));
    out.push((
        "remote.bin1_decode_ns_per_cell",
        Value::F(bin1_decode * 1e9 / n),
    ));
    out.push((
        "remote.json_encode_ns_per_cell",
        Value::F(json_encode * 1e9 / n),
    ));
    out.push((
        "remote.json_decode_ns_per_cell",
        Value::F(json_decode * 1e9 / n),
    ));
    out.push((
        "remote.bin1_bytes_per_cell",
        Value::F(bin1_bytes as f64 / n),
    ));
    out.push((
        "remote.json_bytes_per_cell",
        Value::F(json_bytes as f64 / n),
    ));
}

enum Value {
    F(f64),
    U(u64),
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn main() {
    let args = parse_args();
    let mut experiment = Experiment::paper();
    experiment.scale = args.scale;
    // The matrix `repro` builds from the same flags: every benchmark and
    // registered technique, plus the iq sweep when one is given.
    let spec = MatrixSpec {
        scale: args.scale,
        sweeps: if args.sweep_iq.is_empty() {
            Vec::new()
        } else {
            vec![("iq".to_string(), args.sweep_iq.clone())]
        },
        benchmarks: Benchmark::ALL
            .iter()
            .map(|b| b.name().to_string())
            .collect(),
        techniques: Technique::all()
            .iter()
            .map(|t| t.name().to_string())
            .collect(),
    };
    let matrix = spec.matrix(&experiment).unwrap_or_else(|e| usage_error(&e));
    let variants = matrix.config_variants();
    let saved_text = std::fs::read_to_string(&args.save)
        .unwrap_or_else(|e| usage_error(&format!("reading {}: {e}", args.save)));
    let saved = persist::load_cells(&saved_text)
        .unwrap_or_else(|e| usage_error(&format!("parsing {}: {e}", args.save)));

    let mut rec = Recorder::new();
    let mut ledger = Ledger::default();
    rec.begin("layer-run", "layer-run", format!("scale {}", args.scale));
    // Each benchmark's cells go through the serial engine, in a fresh
    // cache as `repro --jobs 1` runs them, and through the timed layer
    // calls. What the engine takes beyond the layer calls is its own
    // overhead. Interleaving the two per benchmark keeps slow drift on a
    // shared host out of that difference, and alternating which goes
    // first cancels the head start the second one gets from a warm heap.
    let metrics = sdiq_obs::metrics();
    let hits_before = metrics.cache_hits();
    let misses_before = metrics.cache_misses();
    let plan_hits_before = metrics.cache_plan_hits.get();
    let plan_misses_before = metrics.cache_plan_misses.get();
    let mut serial_s = 0.0;
    let mut cells = BTreeMap::new();
    for (index, benchmark) in Benchmark::ALL.into_iter().enumerate() {
        rec.begin("benchmark", "layer-run", benchmark.name().to_string());
        let column = matrix.clone().benchmarks(&[benchmark]).jobs(1);
        let engine = |rec: &mut Recorder| {
            rec.time("engine-serial", "core", benchmark.name(), || {
                let cache = ArtifactCache::new();
                cache.set_verify(args.verify);
                let sweep = column.run_with(&cache, &HashMap::new());
                column.collect_cells(&sweep)
            })
        };
        let layers = |rec: &mut Recorder, ledger: &mut Ledger| {
            replay(rec, ledger, &experiment, &variants, benchmark, args.verify)
        };
        let ((engine_cells, seconds), replayed) = if index % 2 == 0 {
            let engine_run = engine(&mut rec);
            (engine_run, layers(&mut rec, &mut ledger))
        } else {
            let replayed = layers(&mut rec, &mut ledger);
            (engine(&mut rec), replayed)
        };
        serial_s += seconds;
        if engine_cells != replayed {
            fail(&format!(
                "{}: the serial engine's cells differ from the replayed cells",
                benchmark.name()
            ));
        }
        cells.extend(replayed);
        rec.end();
    }
    let hits = (metrics.cache_hits() - hits_before) as f64;
    let misses = (metrics.cache_misses() - misses_before) as f64;
    let plan_hits = (metrics.cache_plan_hits.get() - plan_hits_before) as f64;
    let plan_misses = (metrics.cache_plan_misses.get() - plan_misses_before) as f64;

    // Correctness gate: the replay reproduces the end-to-end run's cells.
    if cells.len() != saved.len() {
        fail(&format!(
            "replayed {} cells, the save holds {}",
            cells.len(),
            saved.len()
        ));
    }
    let mismatched: Vec<&String> = cells
        .iter()
        .filter(|(key, report)| saved.get(*key) != Some(*report))
        .map(|(key, _)| key)
        .collect();
    if let Some(first) = mismatched.first() {
        fail(&format!(
            "{} replayed cell(s) differ from the save, first `{first}`",
            mismatched.len()
        ));
    }

    let (encoded, encode_s) = rec.time("save-cells", "core", "persist", || {
        persist::save_cells(&cells)
    });
    if encoded != saved_text {
        fail("re-encoded cells are not byte-identical to the save");
    }

    let mut out: Vec<(&'static str, Value)> = Vec::new();
    if args.codecs {
        codec_metrics(&mut rec, &cells, &mut out);
    }

    rec.end();

    // The modelled machine, summed over every cell (simulated time).
    let sum = |field: fn(&ActivityStats) -> u64| -> u64 {
        cells.values().map(|report| field(&report.stats)).sum()
    };
    let cycles = sum(|s| s.cycles);
    let committed = sum(|s| s.committed);
    let occupancy = sum(|s| s.iq_occupancy_sum);
    let banks_on = sum(|s| s.iq_banks_on_sum);
    let bank_cycles = sum(|s| s.iq_total_banks * s.cycles);
    let dispatch = sum(|s| s.dispatch_limit_stall_cycles);
    let rob = sum(|s| s.rob_full_stall_cycles);
    let rename = sum(|s| s.rename_stall_cycles);

    let l = &ledger;
    out.extend([
        ("workloads.build_s", Value::F(l.build_s)),
        ("workloads.programs", Value::U(l.programs)),
        ("compiler.compile_s", Value::F(l.compile_s)),
        ("compiler.compiles", Value::U(l.compiles)),
        ("isa.exec_s", Value::F(l.exec_s)),
        ("isa.dyn_insts", Value::U(l.dyn_insts)),
        (
            "isa.exec_ns_per_inst",
            Value::F(ratio(l.exec_s * 1e9, l.dyn_insts as f64)),
        ),
        ("sim.lower_s", Value::F(l.lower_s)),
        ("sim.plans", Value::U(l.plans)),
        (
            "sim.lower_ns_per_inst",
            Value::F(ratio(l.lower_s * 1e9, l.plan_records as f64)),
        ),
        ("verify.lint_s", Value::F(l.lint_s)),
        ("verify.compiled_s", Value::F(l.verify_compiled_s)),
        (
            "verify.lint_per_lower",
            Value::F(ratio(l.lint_s, l.lower_s)),
        ),
        ("sim.replay_s", Value::F(l.replay_s)),
        ("sim.replays", Value::U(l.replays)),
        (
            "sim.replay_ns_per_inst",
            Value::F(ratio(l.replay_s * 1e9, committed as f64)),
        ),
        (
            "sim.replay_ns_per_cycle",
            Value::F(ratio(l.replay_s * 1e9, cycles as f64)),
        ),
        ("power.price_s", Value::F(l.price_s)),
        ("power.prices", Value::U(l.replays)),
        ("core.serial_matrix_s", Value::F(serial_s)),
        (
            "core.engine_overhead_s",
            Value::F(serial_s - l.layer_seconds()),
        ),
        ("core.cache_hit_rate", Value::F(ratio(hits, hits + misses))),
        (
            "core.plan_hit_rate",
            Value::F(ratio(plan_hits, plan_hits + plan_misses)),
        ),
        ("persist.encode_s", Value::F(encode_s)),
        ("persist.save_bytes", Value::U(encoded.len() as u64)),
        ("model.cycles", Value::U(cycles)),
        (
            "model.ipc",
            Value::F(ratio(committed as f64, cycles as f64)),
        ),
        (
            "model.iq_occupancy_avg",
            Value::F(ratio(occupancy as f64, cycles as f64)),
        ),
        (
            "model.iq_banks_off_frac",
            Value::F(1.0 - ratio(banks_on as f64, bank_cycles as f64)),
        ),
        ("model.dispatch_limit_stall_cycles", Value::U(dispatch)),
        ("model.rob_full_stall_cycles", Value::U(rob)),
        ("model.rename_stall_cycles", Value::U(rename)),
    ]);

    if let Some(path) = &args.spans {
        std::fs::write(path, rec.chrome_trace())
            .unwrap_or_else(|e| usage_error(&format!("writing {path}: {e}")));
    }

    let mut line = String::from("{");
    for (i, (name, value)) in out.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        match value {
            Value::F(v) => {
                let _ = write!(line, "\"{name}\": {v:?}");
            }
            Value::U(v) => {
                let _ = write!(line, "\"{name}\": {v}");
            }
        }
    }
    line.push('}');
    println!("{line}");
}
