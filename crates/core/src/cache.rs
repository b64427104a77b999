//! Content-addressed artifact cache shared by every cell of an experiment
//! matrix.
//!
//! A (benchmark × technique × configuration) sweep re-uses four expensive,
//! fully deterministic artifacts across many cells:
//!
//! * the **built program** — a function of `(benchmark, scale)` only: all
//!   techniques and every `SimConfig` variant at the same scale simulate
//!   the same synthetic program,
//! * the **compiler-pass output** — a function of
//!   `(benchmark, scale, PassConfig)` only: the software techniques differ
//!   per pass configuration, not per simulator configuration (unless the
//!   sweep changes the machine widths the pass targets, which changes the
//!   `PassConfig` and therefore the key),
//! * the **execution plan** — a function of `(program, SimConfig,
//!   instruction cap)`: lowered straight from the functional executor
//!   ([`ExecPlan::lower`]) or re-marked from another plan of its group
//!   ([`ExecPlan::remark`]), shared by every technique and resize policy
//!   of that shape, and
//! * the **replay** — a function of `(plan, ResizePolicy)`: the techniques
//!   that differ only in how the power model prices the same counters
//!   (`baseline`, `nonEmpty`, `way-memo`) share one [`SimResult`].
//!
//! A plan's committed stream depends on less than its key: on the program
//! with its markers (the low-energy bit and hint tags) cleared, on the
//! machine's front end (the branch predictor and the L1i, the only
//! configuration lowering reads) and on the cap. Only decode reads the
//! markers, and only replay reads the back end. So the cache slots
//! streams by **plan group** — one built program (benchmark and scale),
//! one front end, one cap: every technique and every back-end variant of
//! a benchmark — and keys each of a group's streams by the fingerprint of
//! its unmarked program ([`sdiq_sim::plan::unmarked_fingerprint`]),
//! confirmed with [`only_markers_differ`] before it is shared. A plan is
//! lowered only when no stream of its group commits the same
//! instructions; every other plan is the stream's first plan re-marked
//! onto its own machine: a new static table and new baked totals over the
//! shared stream, with nothing executed. The tagging techniques
//! `extension` and `improved`, whose passes change only markers, take the
//! raw program's stream this way, and every `iq=` or `bank=` sweep point
//! takes the first point's streams; the `noop` pass retargeted at another
//! queue size changes only its hint values, so it shares the `noop`
//! stream too. `lowen-isa`, whose policy ignores hints, needs no replay of
//! its own: its replay slot holds the raw program's replay, with its
//! low-energy commits summed from the raw plan's per-instruction commit
//! counts over the instructions its pass marked
//! ([`ArtifactCache::replayed`]). A pass that inserts a hint NOOP commits
//! another stream, which is lowered once per group.
//!
//! The cache keys artifacts by exactly those inputs and hands out
//! `Arc`-shared handles. The eight built-in techniques over 11 benchmarks
//! on one machine therefore build 11 programs, run 44 compiler passes,
//! lower 22 plans (the raw program and the `noop` output), re-mark 22
//! (the `extension` and `improved` outputs) and run 55 replays for 88
//! cells. A sweep point with the same front end (any `iq=` or `bank=`
//! value) adds 44 compiler passes (the passes retarget at its machine), no
//! lowered plan, 44 re-marked plans (its raw, `noop`, `extension` and
//! `improved` plans) and 55 replays: `--sweep iq=32,48,64,80,96` lowers 22
//! plans and re-marks 198, as `iq=80` is the base machine under another
//! label. A machine with another front end is another group, and lowers
//! its own 22. This cache is the only code that decides what a cell
//! shares: the engine asks it for each cell's own replay, and `repro
//! lint` checks each plan it makes against the plan built from the
//! program's own trace.
//!
//! # Plan lifetime
//!
//! Plans are by far the largest artifacts. A lowered plan's stream takes
//! 13 bytes per committed instruction (its static slot, fetch flags and
//! memory address) plus its I-miss addresses; its static table, and the
//! whole of a re-marked plan, is one 10-byte record per instruction
//! address: a few KB, against the MB of the streams it rides on. A plan
//! group's plans and streams are needed until the group's last cell has
//! run. Before a matrix run ([`crate::Matrix::run_with`]) or a `repro
//! serve` batch ([`crate::Matrix::run_cells_by_key`]) starts its workers,
//! every cell it will compute holds its plan group, and each finished cell
//! releases its hold: the group's last release drops its plans together
//! with its streams. Replays stay cached, so a later cell or a re-run on
//! the same cache that needs only those lowers nothing.
//!
//! The engine runs the matrix group by group, so a run holds the plans
//! and streams of the groups its workers are in: a serial run holds one
//! group's plans (four per machine for the built-in techniques) and its
//! two streams at a time. The remote scheduler sends a daemon whole
//! groups, so a batch lowers each of its streams once and leaves none
//! behind.
//!
//! # Determinism
//!
//! Cached content is a *pure function of its key*. Wall-clock compile
//! durations are not content, so they are zeroed in the cached
//! [`CompileStats`]; this is what makes a parallel matrix run bit-identical
//! to a serial one (the engine's hard guarantee). Timing measurement
//! belongs to [`crate::Experiment::compile_times`], which deliberately
//! bypasses the cache.
//!
//! # Concurrency
//!
//! Each key maps to a [`OnceLock`] slot: the first worker to reach a key
//! runs the build, compile, lowering, re-mark or replay, any concurrent
//! worker blocks on the same slot and receives the same `Arc` — an
//! artifact is never computed twice (a matrix run drops a plan only after
//! every cell that can use it). A group's streams are slotted the same
//! way, so two workers that start plans of one stream at once lower it
//! once and re-mark the other plan from it, which the instrumented
//! [`ArtifactCache::program_builds`], [`ArtifactCache::compile_runs`],
//! [`ArtifactCache::plan_builds`], [`ArtifactCache::plan_remarks`] and
//! [`ArtifactCache::replay_runs`] counters let tests assert exactly.

use sdiq_compiler::{CompileStats, CompilerPass, PassConfig};
use sdiq_isa::Program;
use sdiq_sim::plan::{low_energy_commits, only_markers_differ, unmarked_fingerprint};
use sdiq_sim::{
    AdaptiveConfig, ExecPlan, FrontEnd, PlanSimulator, ResizePolicy, SimConfig, SimResult,
};
use sdiq_verify::{
    has_errors, lint_lowered_plan, lint_remarked_plan, verify_compiled, Diagnostic, Severity,
    StandardVerifier,
};
use sdiq_workloads::Benchmark;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Content address of one built benchmark program: the benchmark plus the
/// exact bit pattern of the scale factor (quantising would alias distinct
/// workload lengths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgramKey {
    /// The benchmark whose synthetic analogue is built.
    pub benchmark: Benchmark,
    scale_bits: u64,
}

impl ProgramKey {
    /// Key for `benchmark` built at `scale`.
    pub fn new(benchmark: Benchmark, scale: f64) -> Self {
        ProgramKey {
            benchmark,
            scale_bits: scale.to_bits(),
        }
    }

    /// The scale factor this key addresses.
    pub fn scale(&self) -> f64 {
        f64::from_bits(self.scale_bits)
    }
}

/// Content address of one compiler-pass output: the program it ran over
/// plus the full pass configuration (machine widths, functional units,
/// emission kind, inter-procedural flag, advertised floor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompileKey {
    /// The input program.
    pub program: ProgramKey,
    /// The pass configuration.
    pub pass: PassConfig,
}

/// A cached compiler-pass output: the annotated program plus the
/// deterministic parts of the compile statistics.
#[derive(Debug)]
pub struct CompiledArtifact {
    /// The annotated program, shared across every cell with this key.
    pub program: Arc<Program>,
    /// Compile statistics with wall-clock durations zeroed (see the module
    /// docs: cached content is a pure function of the key).
    pub stats: CompileStats,
    /// Special NOOPs present in the annotated program.
    pub hint_noops_inserted: usize,
    /// `true` if the pass changed nothing but the instruction markers
    /// `low_energy` and `iq_hint` ([`only_markers_differ`]): the same
    /// procedures and blocks, the same instruction counts, every other
    /// instruction field equal. The annotated program then commits its
    /// input's stream (its plan is re-marked from the input's, see
    /// [`ArtifactCache::planned`]), and under a policy that ignores hints
    /// it replays exactly as its input does, low-energy commits aside.
    pub markers_only: bool,
}

/// The program an execution plan is lowered from: either the raw built
/// benchmark (hardware techniques) or a compiler-pass output (software
/// techniques). Both are themselves cache keys, so a plan key is a pure
/// content address all the way down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanSource {
    /// The built benchmark program, unannotated.
    Program(ProgramKey),
    /// The output of a compiler pass over the built program.
    Compiled(CompileKey),
}

/// Content address of one lowered [`ExecPlan`]: the exact program it
/// replays, the full simulator configuration it was lowered under (plan
/// contents bake in cache geometry, predictor behaviour and decode
/// timing), and the instruction budget bounding its trace.
///
/// The resize policy is deliberately **absent**: nothing in a plan depends
/// on it, so one plan serves all techniques of a cell shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The program the plan replays.
    pub source: PlanSource,
    /// The machine configuration the plan was lowered for.
    pub sim_config: SimConfig,
    /// The dynamic-instruction cap used when tracing the program.
    pub max_dynamic_instructions: u64,
}

impl PlanKey {
    /// The plan group this plan belongs to.
    pub(crate) fn group(&self) -> PlanGroup {
        let program = match self.source {
            PlanSource::Program(program) => program,
            PlanSource::Compiled(compile) => compile.program,
        };
        PlanGroup {
            program,
            front_end: self.sim_config.front_end(),
            max_dynamic_instructions: self.max_dynamic_instructions,
        }
    }
}

/// What a plan's committed stream depends on besides its program's
/// instructions: the built program every pass of the group starts from,
/// the machine's front end (the only configuration lowering reads) and
/// the instruction cap. A plan group holds every technique and every
/// back-end variant of one benchmark; its plans commit a few streams
/// (for the built-in techniques two: the raw program's, shared by every
/// pass that changes only markers, and the `noop` output's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlanGroup {
    program: ProgramKey,
    front_end: FrontEnd,
    max_dynamic_instructions: u64,
}

/// A [`ResizePolicy`] as the exact bit pattern of its parameters: the
/// adaptive policy's `f64` fields rule out `Eq` and `Hash` on the policy
/// itself, and two policies replay identically exactly when their bits
/// agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PolicyBits {
    Fixed,
    SoftwareHint,
    Adaptive([u64; 6]),
}

impl PolicyBits {
    pub(crate) fn of(policy: ResizePolicy) -> Self {
        match policy {
            ResizePolicy::Fixed => PolicyBits::Fixed,
            ResizePolicy::SoftwareHint => PolicyBits::SoftwareHint,
            // Destructured field by field, so a new controller parameter
            // cannot be left out of the key.
            ResizePolicy::Adaptive(AdaptiveConfig {
                interval_cycles,
                bank_entries,
                min_entries,
                youngest_contribution_threshold,
                expand_period_intervals,
                rob_ratio,
            }) => PolicyBits::Adaptive([
                interval_cycles,
                bank_entries as u64,
                min_entries as u64,
                youngest_contribution_threshold.to_bits(),
                expand_period_intervals,
                rob_ratio.to_bits(),
            ]),
        }
    }
}

/// The shared artifact cache. One instance serves a whole sweep; creating
/// it is free, so ad-hoc callers can also pass a fresh one per run.
///
/// # Verification
///
/// When [`ArtifactCache::set_verify`] is on (the default in debug builds
/// and under `cargo test`; release matrix runs leave it off unless
/// `--verify` is passed), every cached artifact is statically verified
/// **once**, at the moment it is first built: compiles run through the
/// pass manager with the inter-pass [`StandardVerifier`] plus the full
/// `sdiq_verify::verify_compiled` suite, lowered plans are cross-checked
/// against a second execution of their source program with
/// `sdiq_verify::lint_lowered_plan`, and re-marked plans against their
/// program and the plan whose stream they share, on whichever back end
/// it was lowered for, with `sdiq_verify::lint_remarked_plan`, which
/// executes nothing: each stream is linted against an execution once. A
/// failed
/// check is a logic error in this repository, not a user error, so it
/// panics with the full diagnostic listing. Because verification happens
/// inside the [`OnceLock`] initialiser, a sweep touching the same key a
/// thousand times pays for the check exactly once.
#[derive(Debug)]
pub struct ArtifactCache {
    programs: Slots<ProgramKey, Arc<Program>>,
    compiles: Slots<CompileKey, Arc<CompiledArtifact>>,
    plans: Slots<PlanKey, Arc<ExecPlan>>,
    /// Each plan group's streams, keyed by the [`unmarked_fingerprint`] of
    /// the programs that commit them: the key and plan of the first plan
    /// lowered over each, which every later plan of the stream is
    /// re-marked from.
    streams: Slots<(PlanGroup, u64), (PlanKey, Arc<ExecPlan>)>,
    /// Holds of the running matrices' cells on plan groups (see
    /// [`ArtifactCache::hold_group`]).
    pending: Mutex<HashMap<PlanGroup, usize>>,
    replays: Slots<(PlanKey, PolicyBits), Arc<SimResult>>,
    program_builds: AtomicU64,
    compile_runs: AtomicU64,
    plan_builds: AtomicU64,
    plan_remarks: AtomicU64,
    replay_runs: AtomicU64,
    verify: AtomicBool,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache {
            programs: Mutex::default(),
            compiles: Mutex::default(),
            plans: Mutex::default(),
            streams: Mutex::default(),
            pending: Mutex::default(),
            replays: Mutex::default(),
            program_builds: AtomicU64::new(0),
            compile_runs: AtomicU64::new(0),
            plan_builds: AtomicU64::new(0),
            plan_remarks: AtomicU64::new(0),
            replay_runs: AtomicU64::new(0),
            verify: AtomicBool::new(cfg!(debug_assertions)),
        }
    }
}

/// Panics with the full listing if the plan lint found an error: a plan
/// that fails it is a logic error in this repository.
fn fail_on_errors(diags: &[Diagnostic]) {
    if has_errors(diags) {
        let listing: Vec<String> = diags.iter().map(ToString::to_string).collect();
        panic!("execution plan failed lint:\n  {}", listing.join("\n  "));
    }
}

/// One artifact kind's map: a once-initialisable slot per key.
type Slots<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// Fetches (or inserts) the once-initialisable slot for `key`. The map
/// lock is held only for the slot lookup, never across a build.
fn slot<K: Eq + Hash + Copy, V>(map: &Slots<K, V>, key: K) -> Arc<OnceLock<V>> {
    lock(map).entry(key).or_default().clone()
}

/// Locks one of the cache's maps. A poisoned lock is recovered: every
/// critical section is a single `HashMap` lookup, insert or removal,
/// which cannot leave the map inconsistent.
fn lock<T>(map: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ArtifactCache {
    /// Creates an empty cache. Verification defaults to on in debug builds
    /// (and therefore under `cargo test`) and off in release builds.
    pub fn new() -> Self {
        ArtifactCache::default()
    }

    /// Turns per-artifact static verification on or off (see the type-level
    /// docs). Takes effect for artifacts not yet built; already-cached
    /// artifacts are not re-checked.
    pub fn set_verify(&self, on: bool) {
        self.verify.store(on, Ordering::Relaxed);
    }

    /// Whether artifacts built by this cache are statically verified.
    pub fn verify_enabled(&self) -> bool {
        self.verify.load(Ordering::Relaxed)
    }

    /// The program for `key`, building it exactly once per key.
    pub fn program(&self, key: ProgramKey) -> Arc<Program> {
        let slot = slot(&self.programs, key);
        if slot.get().is_some() {
            sdiq_obs::metrics().cache_program_hits.inc();
        }
        slot.get_or_init(|| {
            let metrics = sdiq_obs::metrics();
            metrics.cache_program_misses.inc();
            let _span = sdiq_obs::span("build-program", "cache");
            self.program_builds.fetch_add(1, Ordering::Relaxed);
            key.benchmark.build_scaled_shared(key.scale())
        })
        .clone()
    }

    /// The compiler-pass output for `key`, running the pass exactly once
    /// per key (building the input program through the cache if needed).
    pub fn compiled(&self, key: CompileKey) -> Arc<CompiledArtifact> {
        let input = self.program(key.program);
        let slot = slot(&self.compiles, key);
        if slot.get().is_some() {
            sdiq_obs::metrics().cache_compile_hits.inc();
        }
        slot.get_or_init(|| {
            let metrics = sdiq_obs::metrics();
            metrics.cache_compile_misses.inc();
            let _span = sdiq_obs::span("compile", "cache");
            self.compile_runs.fetch_add(1, Ordering::Relaxed);
            let compiled = if self.verify_enabled() {
                let compiled = match CompilerPass::new(key.pass)
                    .run_verified(&input, Box::new(StandardVerifier))
                {
                    Ok(compiled) => compiled,
                    Err(err) => panic!(
                        "compile of `{}` failed inter-pass verification: {err}",
                        key.program.benchmark.name()
                    ),
                };
                let errors: Vec<String> = verify_compiled(&compiled)
                    .into_iter()
                    .filter(|d| d.severity == Severity::Error)
                    .map(|d| d.to_string())
                    .collect();
                if !errors.is_empty() {
                    panic!(
                        "compiled artifact for `{}` failed verification:\n  {}",
                        key.program.benchmark.name(),
                        errors.join("\n  ")
                    );
                }
                compiled
            } else {
                CompilerPass::new(key.pass).run(&input)
            };
            let mut stats = compiled.stats;
            stats.total_duration = Duration::ZERO;
            for proc_stats in &mut stats.per_procedure {
                proc_stats.duration = Duration::ZERO;
            }
            let hint_noops_inserted = stats.hint_noops_inserted;
            Arc::new(CompiledArtifact {
                markers_only: only_markers_differ(&input, &compiled.program),
                program: Arc::new(compiled.program),
                stats,
                hint_noops_inserted,
            })
        })
        .clone()
    }

    /// The execution plan for `key`, made exactly once per key (building
    /// the source program — and running its compiler pass, for
    /// [`PlanSource::Compiled`] — through the cache if needed).
    ///
    /// A plan is lowered only when no stream of its plan group commits the
    /// same instructions: the first plan of a stream is lowered, with the
    /// functional execution streamed straight into the lowering by
    /// [`ExecPlan::lower`] (no trace is collected), and every other plan
    /// of the group whose program differs from that plan's in nothing but
    /// markers is that plan re-marked onto its own machine
    /// ([`ExecPlan::remark`]): nothing executes. So a compile that changed
    /// only markers shares the raw program's stream, and every back-end
    /// variant of a sweep shares the first variant's streams. Streams are
    /// found by the [`unmarked_fingerprint`] of the program and confirmed
    /// with [`only_markers_differ`] before one is shared. With
    /// verification on, a lowered plan is linted against a second streamed
    /// execution of the same program, and a re-marked one against its
    /// program and the plan it was re-marked from, without executing
    /// anything.
    ///
    /// A matrix run drops a group's plans and streams once the group's
    /// last cell has finished (see the module docs); asking for a dropped
    /// plan makes it again.
    pub fn planned(&self, key: PlanKey) -> Arc<ExecPlan> {
        let program = match key.source {
            PlanSource::Program(program) => self.program(program),
            PlanSource::Compiled(compile) => self.compiled(compile).program.clone(),
        };
        let slot = slot(&self.plans, key);
        if slot.get().is_some() {
            sdiq_obs::metrics().cache_plan_hits.inc();
        }
        slot.get_or_init(|| {
            sdiq_obs::metrics().cache_plan_misses.inc();
            self.over_group_stream(key, &program)
        })
        .clone()
    }

    /// The plan for `key`, whose program is `program`, over the stream of
    /// its plan group that commits `program`'s instructions: the plan that
    /// stream was first lowered for, re-marked onto `key`'s machine, or,
    /// if no such stream exists yet, a new lowering that starts it.
    fn over_group_stream(&self, key: PlanKey, program: &Program) -> Arc<ExecPlan> {
        let stream = slot(&self.streams, (key.group(), unmarked_fingerprint(program)));
        let (first, source) = stream
            .get_or_init(|| (key, Arc::new(self.lowered(program, key))))
            .clone();
        if first == key {
            return source;
        }
        let _span = sdiq_obs::span("remark-plan", "cache");
        match source.remark(key.sim_config, program) {
            Some(plan) => {
                self.plan_remarks.fetch_add(1, Ordering::Relaxed);
                if self.verify_enabled() {
                    fail_on_errors(&lint_remarked_plan(&plan, program, &source));
                }
                Arc::new(plan)
            }
            // Equal fingerprints of different programs: another stream,
            // which is not shared.
            None => Arc::new(self.lowered(program, key)),
        }
    }

    /// Executes and lowers `program` for `key`, linting the plan against a
    /// second execution when verification is on.
    fn lowered(&self, program: &Program, key: PlanKey) -> ExecPlan {
        self.plan_builds.fetch_add(1, Ordering::Relaxed);
        let cap = key.max_dynamic_instructions;
        let plan = {
            let _span = sdiq_obs::span("lower-plan", "cache");
            match ExecPlan::lower(key.sim_config, program, cap) {
                Ok(plan) => plan,
                Err(fault) => panic!("workload must execute cleanly, faulted with {fault:?}"),
            }
        };
        if self.verify_enabled() {
            let _span = sdiq_obs::span("lint", "cache");
            match lint_lowered_plan(&plan, program, cap) {
                Ok(diags) => fail_on_errors(&diags),
                Err(fault) => panic!("workload must execute cleanly, faulted with {fault:?}"),
            }
        }
        plan
    }

    /// The replay of the plan for `key` under `policy`, made exactly once
    /// per (plan key, policy). The plan is fetched through
    /// [`ArtifactCache::planned`] only when the replay is not cached yet.
    /// Techniques that differ only in how the power model prices the same
    /// counters (`baseline`, `nonEmpty` and `way-memo` all replay the raw
    /// program under [`ResizePolicy::Fixed`]) share one result.
    ///
    /// A plan whose compile changed only markers commits the raw program's
    /// stream, and under a policy that ignores hints it replays exactly as
    /// the raw plan does, low-energy commits aside. Its slot therefore
    /// holds the raw plan's replay under `policy`, with
    /// `committed_low_energy` summed from the raw plan's commit counts
    /// over the instructions the pass marked: no replay runs, and
    /// [`ArtifactCache::replay_runs`] does not count it.
    ///
    /// Deliberately not counted in the `sdiq-obs` cache hit/miss metrics,
    /// which count artifact fetches; the plan fetch of a replay that runs
    /// is counted there.
    pub fn replayed(&self, key: PlanKey, policy: ResizePolicy) -> Arc<SimResult> {
        slot(&self.replays, (key, PolicyBits::of(policy)))
            .get_or_init(|| {
                if let Some(result) = self.raw_replay_of(key, policy) {
                    return Arc::new(result);
                }
                let plan = self.planned(key);
                let _span = sdiq_obs::span("replay", "cache");
                self.replay_runs.fetch_add(1, Ordering::Relaxed);
                match PlanSimulator::new(&plan, policy).run() {
                    Ok(result) => Arc::new(result),
                    Err(err) => panic!("simulation must complete over a committed trace: {err:?}"),
                }
            })
            .clone()
    }

    /// The raw plan's replay under `policy`, priced for `key`'s program,
    /// if `key` is a compile that changed only markers and `policy`
    /// ignores hints (see [`ArtifactCache::replayed`]).
    fn raw_replay_of(&self, key: PlanKey, policy: ResizePolicy) -> Option<SimResult> {
        let PlanSource::Compiled(compile) = key.source else {
            return None;
        };
        if policy.uses_hints() {
            return None;
        }
        let artifact = self.compiled(compile);
        if !artifact.markers_only {
            return None;
        }
        let raw = PlanKey {
            source: PlanSource::Program(compile.program),
            ..key
        };
        let mut result = (*self.replayed(raw, policy)).clone();
        result.stats.committed_low_energy =
            low_energy_commits(&artifact.program, self.planned(raw).commit_counts());
        Some(result)
    }

    /// Registers one more cell that may use the plans of `group`. The
    /// group's plans and streams stay cached until
    /// [`ArtifactCache::release_group`] has released it as often as it
    /// was held. A matrix run holds the group of every cell it computes
    /// before its workers start.
    pub(crate) fn hold_group(&self, group: PlanGroup) {
        *lock(&self.pending).entry(group).or_default() += 1;
    }

    /// Releases one hold on `group`. Its last release drops the group's
    /// plans together with its streams; replays stay cached, so a later
    /// cell that needs only those lowers nothing.
    pub(crate) fn release_group(&self, group: PlanGroup) {
        let mut pending = lock(&self.pending);
        let Some(count) = pending.get_mut(&group) else {
            unreachable!("a group is released only after it was held");
        };
        *count -= 1;
        if *count == 0 {
            pending.remove(&group);
            lock(&self.plans).retain(|key, _| key.group() != group);
            lock(&self.streams).retain(|&(held, _), _| held != group);
        }
    }

    /// Number of programs actually built (one per unique [`ProgramKey`]
    /// requested, regardless of concurrency).
    pub fn program_builds(&self) -> u64 {
        self.program_builds.load(Ordering::Relaxed)
    }

    /// Number of compiler-pass executions (one per unique [`CompileKey`]
    /// requested, regardless of concurrency).
    pub fn compile_runs(&self) -> u64 {
        self.compile_runs.load(Ordering::Relaxed)
    }

    /// Number of execution plans lowered: executed and lowered, one per
    /// stream of a plan group (see [`ArtifactCache::planned`]), regardless
    /// of concurrency.
    pub fn plan_builds(&self) -> u64 {
        self.plan_builds.load(Ordering::Relaxed)
    }

    /// Number of execution plans re-marked from the first plan of their
    /// stream instead of lowered: one per unique [`PlanKey`] requested
    /// whose plan group already had a stream for its program, regardless
    /// of concurrency.
    pub fn plan_remarks(&self) -> u64 {
        self.plan_remarks.load(Ordering::Relaxed)
    }

    /// Number of cycle replays run (one per unique (plan key, resize
    /// policy) requested, regardless of concurrency).
    pub fn replay_runs(&self) -> u64 {
        self.replay_runs.load(Ordering::Relaxed)
    }

    /// Number of plans the cache holds now.
    #[cfg(test)]
    fn plans_held(&self) -> usize {
        lock(&self.plans).len()
    }

    /// Number of plan-group streams the cache holds now.
    #[cfg(test)]
    fn streams_held(&self) -> usize {
        lock(&self.streams).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ConfigVariant, Matrix};
    use crate::runner::{Experiment, RunReport};
    use crate::technique::Technique;
    use sdiq_isa::builder::ProgramBuilder;
    use sdiq_isa::reg::int_reg;
    use sdiq_isa::Executor;
    use std::sync::Barrier;

    #[test]
    fn program_is_built_once_per_key_and_shared() {
        let cache = ArtifactCache::new();
        let key = ProgramKey::new(Benchmark::Gzip, 0.05);
        let a = cache.program(key);
        let b = cache.program(key);
        assert!(Arc::ptr_eq(&a, &b), "same handle");
        assert_eq!(cache.program_builds(), 1);
        // A different scale is a different artifact.
        let c = cache.program(ProgramKey::new(Benchmark::Gzip, 0.1));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.program_builds(), 2);
    }

    #[test]
    fn compile_is_run_once_per_pass_config() {
        let cache = ArtifactCache::new();
        let program = ProgramKey::new(Benchmark::Mcf, 0.05);
        let noop = Technique::Noop.pass_config().unwrap();
        let tagging = Technique::Extension.pass_config().unwrap();
        let a = cache.compiled(CompileKey {
            program,
            pass: noop,
        });
        let b = cache.compiled(CompileKey {
            program,
            pass: noop,
        });
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.compiled(CompileKey {
            program,
            pass: tagging,
        });
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.compile_runs(), 2);
        // The input program was built once, through the cache.
        assert_eq!(cache.program_builds(), 1);
        assert!(a.hint_noops_inserted > 0, "noop pass inserts hints");
        assert_eq!(c.hint_noops_inserted, 0, "tagging pass does not");
    }

    #[test]
    fn cached_compile_stats_are_deterministic_content() {
        let key = CompileKey {
            program: ProgramKey::new(Benchmark::Gzip, 0.05),
            pass: Technique::Noop.pass_config().unwrap(),
        };
        let a = ArtifactCache::new().compiled(key);
        let b = ArtifactCache::new().compiled(key);
        assert_eq!(a.stats, b.stats, "durations zeroed → stats bit-identical");
        assert_eq!(a.program, b.program);
        assert_eq!(a.stats.total_duration, Duration::ZERO);
    }

    #[test]
    fn plan_is_lowered_once_per_key_and_shared() {
        let cache = ArtifactCache::new();
        let key = PlanKey {
            source: PlanSource::Program(ProgramKey::new(Benchmark::Gzip, 0.05)),
            sim_config: SimConfig::hpca2005(),
            max_dynamic_instructions: 2_000_000,
        };
        let a = cache.planned(key);
        let b = cache.planned(key);
        assert!(Arc::ptr_eq(&a, &b), "same handle");
        assert_eq!(cache.plan_builds(), 1);
        assert_eq!(cache.program_builds(), 1, "program built through the cache");
        // A different machine configuration is a different plan over the
        // same built program.
        let c = cache.planned(PlanKey {
            sim_config: SimConfig::small_for_tests(),
            ..key
        });
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.plan_builds(), 2);
        assert_eq!(cache.program_builds(), 1);
    }

    #[test]
    fn compiled_source_plans_lower_the_annotated_program() {
        let cache = ArtifactCache::new();
        let program = ProgramKey::new(Benchmark::Gzip, 0.05);
        let compile = CompileKey {
            program,
            pass: Technique::Noop.pass_config().unwrap(),
        };
        let annotated = cache.planned(PlanKey {
            source: PlanSource::Compiled(compile),
            sim_config: SimConfig::hpca2005(),
            max_dynamic_instructions: 2_000_000,
        });
        let raw = cache.planned(PlanKey {
            source: PlanSource::Program(program),
            sim_config: SimConfig::hpca2005(),
            max_dynamic_instructions: 2_000_000,
        });
        assert_eq!(cache.compile_runs(), 1);
        assert_eq!(cache.plan_builds(), 2);
        // The annotated program carries the inserted hint NOOPs; the raw
        // one does not — the two sources must not alias.
        assert!(annotated.len() > raw.len());
    }

    /// The eight built-in techniques (tests elsewhere may register more).
    const BUILTIN_TECHNIQUES: [Technique; 8] = [
        Technique::Baseline,
        Technique::NonEmpty,
        Technique::Noop,
        Technique::Extension,
        Technique::Improved,
        Technique::Abella,
        Technique::WayMemo,
        Technique::LowenIsa,
    ];

    fn tiny_experiment() -> Experiment {
        Experiment {
            scale: 0.05,
            ..Experiment::paper()
        }
    }

    fn gzip_key() -> PlanKey {
        PlanKey {
            source: PlanSource::Program(ProgramKey::new(Benchmark::Gzip, 0.05)),
            sim_config: SimConfig::hpca2005(),
            max_dynamic_instructions: 2_000_000,
        }
    }

    /// The plans and replays the cache made: (lowered, re-marked, replays).
    fn work(cache: &ArtifactCache) -> (u64, u64, u64) {
        (
            cache.plan_builds(),
            cache.plan_remarks(),
            cache.replay_runs(),
        )
    }

    /// Two plans lowered per benchmark (the raw program and the `noop`
    /// pass output, which inserts hint NOOPs) and two re-marked from the
    /// raw one (the tagging outputs of `extension` and `improved`); five
    /// replays: `baseline`, `nonEmpty` and `way-memo` replay the raw
    /// program under the fixed policy and differ only in pricing, and
    /// `lowen-isa`, whose pass only sets markers, prices the same replay.
    #[test]
    fn one_benchmark_under_the_builtin_techniques_runs_five_replays() {
        let experiment = tiny_experiment();
        let cache = ArtifactCache::new();
        let matrix = Matrix::new(&experiment)
            .benchmarks(&[Benchmark::Gzip])
            .techniques(&BUILTIN_TECHNIQUES)
            .jobs(2);
        let sweep = matrix.run_with(&cache, &HashMap::new());
        assert_eq!(sweep.suite(0).len(), 8);
        assert_eq!(work(&cache), (2, 2, 5));
    }

    /// `iq=80` is the base machine under another label: its cells have keys
    /// of their own but find every plan and replay already cached.
    #[test]
    fn an_iq80_variant_adds_no_replay() {
        let experiment = tiny_experiment();
        let cache = ArtifactCache::new();
        let matrix = Matrix::new(&experiment)
            .benchmarks(&[Benchmark::Gzip])
            .techniques(&BUILTIN_TECHNIQUES)
            .variants(vec![
                ConfigVariant::base(&experiment),
                ConfigVariant::with_iq_entries(&experiment, 80),
            ])
            .jobs(2);
        let sweep = matrix.run_with(&cache, &HashMap::new());
        assert_eq!(matrix.collect_cells(&sweep).len(), 16);
        assert_eq!(work(&cache), (2, 2, 5));
    }

    /// Every point of an issue-queue sweep has the base machine's front
    /// end, so each benchmark lowers its two streams once: the raw
    /// program's and the `noop` output's. The base machine re-marks two
    /// plans (`extension`, `improved`) and `iq48` and `iq96` four each
    /// (their raw, `noop`, `extension` and `improved` plans); `iq80` is the
    /// base machine. Each distinct machine runs its five replays.
    #[test]
    fn an_iq_sweep_lowers_each_stream_once() {
        let experiment = tiny_experiment();
        let cache = ArtifactCache::new();
        let matrix = Matrix::new(&experiment)
            .benchmarks(&[Benchmark::Gzip])
            .techniques(&BUILTIN_TECHNIQUES)
            .sweep_iq_entries(&[48, 80, 96])
            .jobs(2);
        let sweep = matrix.run_with(&cache, &HashMap::new());
        assert_eq!(matrix.collect_cells(&sweep).len(), 32);
        assert_eq!(work(&cache), (2, 10, 15));
        assert_eq!(cache.plans_held(), 0);
        assert_eq!(cache.streams_held(), 0, "the group's streams were dropped");
    }

    /// `report` with its compile durations zeroed, as the cache keeps them.
    fn untimed(mut report: RunReport) -> RunReport {
        if let Some(stats) = &mut report.compile {
            stats.total_duration = Duration::ZERO;
            for proc_stats in &mut stats.per_procedure {
                proc_stats.duration = Duration::ZERO;
            }
        }
        report
    }

    /// `lowen-isa`'s pass only sets markers, so the cache derives its
    /// cells' replays from the raw program's and lowers nothing of their
    /// own. `Experiment::run` lowers the compiled program itself: the
    /// cells agree on every benchmark and on both machines.
    #[test]
    fn marker_only_cells_price_the_raw_replay_and_equal_a_lowered_run() {
        let experiment = tiny_experiment();
        let small = ConfigVariant {
            label: "small".to_string(),
            sim_config: SimConfig::small_for_tests(),
            scale: experiment.scale,
        };
        let matrix = Matrix::new(&experiment)
            .techniques(&[Technique::LowenIsa])
            .variants(vec![ConfigVariant::base(&experiment), small.clone()])
            .jobs(2);
        let cache = ArtifactCache::new();
        let sweep = matrix.run_with(&cache, &HashMap::new());
        let machines = 2 * Benchmark::ALL.len() as u64;
        assert_eq!(
            work(&cache),
            (machines, 0, machines),
            "one raw plan and replay per benchmark and machine"
        );
        for (index, sim_config) in [experiment.sim_config, small.sim_config]
            .into_iter()
            .enumerate()
        {
            let direct = Experiment {
                sim_config,
                ..tiny_experiment()
            };
            for benchmark in Benchmark::ALL {
                let cell = sweep.suite(index).get(benchmark, Technique::LowenIsa);
                let lowered = untimed(direct.run(benchmark, Technique::LowenIsa));
                assert!(lowered.stats.committed_low_energy > 0, "{benchmark}");
                assert_eq!(cell, Some(&lowered), "{benchmark} on machine {index}");
            }
        }
    }

    /// A loop whose preheader is a lone jump: the tagging emitter finds
    /// the block-entry tag already on the terminator and inserts a hint
    /// NOOP for it.
    fn jump_preheader_program() -> Program {
        let mut builder = ProgramBuilder::new();
        let main = builder.procedure("jump-preheader");
        {
            let p = builder.proc_mut(main);
            let entry = p.block();
            let preheader = p.block();
            let body = p.block();
            let exit = p.block();
            p.with_block(entry, |bb| {
                bb.li(int_reg(1), 0);
                bb.fallthrough(preheader);
            });
            p.with_block(preheader, |bb| {
                bb.jump(body);
            });
            p.with_block(body, |bb| {
                bb.addi(int_reg(2), int_reg(1), 3);
                bb.addi(int_reg(1), int_reg(1), 1);
                bb.blt(int_reg(1), 50, body, exit);
            });
            p.with_block(exit, |bb| {
                bb.ret();
            });
            p.set_entry(entry);
        }
        builder.finish(main).expect("a valid program")
    }

    /// A pass that inserts a hint NOOP fails the marker check, so its
    /// cell lowers the compiled program and still equals a lowered run.
    #[test]
    fn a_pass_that_inserts_a_hint_noop_lowers_its_own_plan() {
        let experiment = tiny_experiment();
        let program = jump_preheader_program();
        let key = ProgramKey::new(Benchmark::Gzip, experiment.scale);
        let cache = ArtifactCache::new();
        // The cell's program is the hand-built one, not gzip.
        slot(&cache.programs, key)
            .set(Arc::new(program.clone()))
            .expect("a fresh cache holds no program");
        let matrix = Matrix::new(&experiment)
            .benchmarks(&[Benchmark::Gzip])
            .techniques(&[Technique::LowenIsa]);
        let sweep = matrix.run_with(&cache, &HashMap::new());
        let compiled = cache.compiled(CompileKey {
            program: key,
            pass: Technique::LowenIsa.pass_config().unwrap(),
        });
        assert!(
            compiled.hint_noops_inserted > 0,
            "the fallback NOOP arm ran"
        );
        assert!(!compiled.markers_only);
        let cell = sweep.suite(0).get(Benchmark::Gzip, Technique::LowenIsa);
        let lowered = untimed(experiment.run_program(&program, Technique::LowenIsa));
        assert!(lowered.stats.committed_hints > 0);
        assert!(lowered.stats.committed_low_energy > 0);
        assert_eq!(cell, Some(&lowered));
        assert_eq!(work(&cache), (1, 0, 1), "the compiled program's plan only");
    }

    /// `extension` and `improved` put their hints in tags on existing
    /// instructions, so on these workloads their passes change only
    /// markers and both commit the raw program's stream: the engine lowers
    /// the first of them it meets and re-marks that plan for the other.
    /// The two machines have different front ends, so each lowers its own.
    /// `Experiment::run` lowers the compiled program itself: the cells
    /// agree on every benchmark and on both machines.
    #[test]
    fn tagging_cells_replay_a_remarked_plan_and_equal_a_lowered_run() {
        let experiment = tiny_experiment();
        let small = ConfigVariant {
            label: "small".to_string(),
            sim_config: SimConfig::small_for_tests(),
            scale: experiment.scale,
        };
        let tagging = [Technique::Extension, Technique::Improved];
        let matrix = Matrix::new(&experiment)
            .techniques(&tagging)
            .variants(vec![ConfigVariant::base(&experiment), small.clone()])
            .jobs(2);
        let cache = ArtifactCache::new();
        let sweep = matrix.run_with(&cache, &HashMap::new());
        let machines = 2 * Benchmark::ALL.len() as u64;
        assert_eq!(
            work(&cache),
            (machines, machines, 2 * machines),
            "one plan lowered per benchmark and machine, and one re-marked from it"
        );
        assert_eq!(cache.plans_held(), 0, "the re-marked plans were dropped");
        for (index, sim_config) in [experiment.sim_config, small.sim_config]
            .into_iter()
            .enumerate()
        {
            let direct = Experiment {
                sim_config,
                ..tiny_experiment()
            };
            for benchmark in Benchmark::ALL {
                for technique in tagging {
                    let cell = sweep.suite(index).get(benchmark, technique);
                    let lowered = untimed(direct.run(benchmark, technique));
                    assert_eq!(lowered.hint_noops_inserted, 0, "{benchmark} {technique}");
                    assert_eq!(
                        cell,
                        Some(&lowered),
                        "{benchmark} {technique} on machine {index}"
                    );
                }
            }
        }
    }

    /// Computes `cells` of `matrix` in one batch on a fresh cache that
    /// holds, before the batch starts, the plan group of every benchmark
    /// on every variant's machine, so the batch drops no plan. Returns how
    /// many plans that lowered and re-marked: the distinct plans the cells
    /// need.
    fn distinct_plans(
        experiment: &Experiment,
        matrix: &Matrix<'_>,
        cells: &[String],
    ) -> (u64, u64) {
        let cache = ArtifactCache::new();
        for variant in matrix.config_variants() {
            for benchmark in Benchmark::ALL {
                let raw = PlanKey {
                    source: PlanSource::Program(ProgramKey::new(benchmark, variant.scale)),
                    sim_config: variant.sim_config,
                    max_dynamic_instructions: experiment.max_dynamic_instructions,
                };
                cache.hold_group(raw.group());
            }
        }
        let requested = cells.iter().cloned().collect();
        matrix
            .run_cells_by_key(&cache, &requested, None)
            .expect("the matrix owns its keys");
        (cache.plan_builds(), cache.plan_remarks())
    }

    /// A run drops every plan with its group's last cell, and never makes
    /// one twice: it lowers and re-marks as many plans as a cache that
    /// keeps them all, with a sweep point that aliases the base machine,
    /// partial seeds and a shard. A raw plan dropped before its last
    /// re-mark would be lowered again, and a group that no computed cell
    /// holds would never be dropped. A second run on the same cache
    /// lowers, re-marks and replays nothing.
    #[test]
    fn each_plan_is_lowered_once_and_dropped_after_its_last_cell() {
        let experiment = tiny_experiment();
        let paper = Matrix::new(&experiment)
            .benchmarks(&[Benchmark::Gzip, Benchmark::Mcf, Benchmark::Vortex])
            .techniques(&BUILTIN_TECHNIQUES)
            .jobs(2);
        let swept = paper.clone().sweep_iq_entries(&[80, 48]);
        let cells = paper.collect_cells(&paper.run());
        let all_but = |missing: [Technique; 2]| -> HashMap<String, RunReport> {
            cells
                .iter()
                .filter(|(_, report)| !missing.contains(&report.technique))
                .map(|(key, report)| (key.clone(), report.clone()))
                .collect()
        };
        // Without `abella` and `lowen-isa`, the run computes only cells
        // that use the raw plan and not its fixed-policy replay, which
        // `lowen-isa`'s replay slot then derives its result from: the raw
        // plan must outlive the `abella` cells. Without `extension` and
        // `improved`, it computes only cells whose plans are the raw plan
        // re-marked, so only their own group holds keep the raw plan until
        // its last re-mark.
        let partial = all_but([Technique::Abella, Technique::LowenIsa]);
        let tagging = all_but([Technique::Extension, Technique::Improved]);
        let sharded = paper.clone().shard(0, 2);
        for (matrix, seed) in [
            (&paper, HashMap::new()),
            (&swept, HashMap::new()),
            (&paper, partial),
            (&paper, tagging),
            (&sharded, HashMap::new()),
        ] {
            let cache = ArtifactCache::new();
            let sweep = matrix.run_with(&cache, &seed);
            assert_eq!(cache.plans_held(), 0, "every plan was dropped");
            assert_eq!(cache.streams_held(), 0, "every stream was dropped");
            let computed = matrix.missing_cell_groups(&seed).concat();
            assert!(!computed.is_empty());
            assert_eq!(
                (cache.plan_builds(), cache.plan_remarks()),
                distinct_plans(&experiment, matrix, &computed)
            );
            let made = work(&cache);
            assert_eq!(matrix.run_with(&cache, &seed), sweep);
            assert_eq!(work(&cache), made);
        }
    }

    /// Records the most plans and plan-group streams `cache` held after
    /// any cell. The engine calls a sink after the cell has released its
    /// plan group.
    struct MostPlansHeld<'c> {
        cache: &'c ArtifactCache,
        plans: std::sync::atomic::AtomicUsize,
        streams: std::sync::atomic::AtomicUsize,
    }

    impl crate::CellSink for MostPlansHeld<'_> {
        fn cell_complete(&self, _: &str, _: &RunReport) {
            self.plans
                .fetch_max(self.cache.plans_held(), Ordering::Relaxed);
            self.streams
                .fetch_max(self.cache.streams_held(), Ordering::Relaxed);
        }
    }

    /// A run takes the matrix plan group by plan group, so a serial run of
    /// all 11 benchmarks holds one group's plans after any cell: the four
    /// the built-in techniques make on each distinct machine (the raw
    /// program's, and the `noop`, `extension` and `improved` outputs';
    /// `lowen-isa`'s replay is derived from the raw plan's). An `iq=80`
    /// point is the base machine under another label and adds no plan;
    /// an `iq=48` point joins the base groups with four plans of its own,
    /// so the bound is eight. Every run holds one group's two streams at a
    /// time (the raw program's and the `noop` output's) and drops them
    /// with the group's plans at the group's last cell.
    #[test]
    fn a_serial_run_holds_one_plan_group_at_a_time() {
        let experiment = tiny_experiment();
        let paper = Matrix::new(&experiment)
            .techniques(&BUILTIN_TECHNIQUES)
            .jobs(1);
        let aliased = paper.clone().sweep_iq_entries(&[80]);
        let swept = paper.clone().sweep_iq_entries(&[48]);
        for (matrix, bound) in [(&paper, 4), (&aliased, 4), (&swept, 8)] {
            let cache = ArtifactCache::new();
            let sink = MostPlansHeld {
                cache: &cache,
                plans: Default::default(),
                streams: Default::default(),
            };
            matrix.run_with_sink(&cache, &HashMap::new(), Some(&sink));
            assert_eq!(sink.plans.into_inner(), bound);
            assert_eq!(sink.streams.into_inner(), 2);
            assert_eq!(cache.plans_held(), 0);
            assert_eq!(cache.streams_held(), 0);
        }
    }

    /// A daemon batch ([`Matrix::run_cells_by_key`]) holds and drops plan
    /// groups as a matrix run does: it makes each plan of its groups once
    /// and leaves none cached, whether it gets every group at once or, as a
    /// capacity-1 daemon does, one group per batch. The same batches run
    /// again on a warm cache make nothing: every replay is cached,
    /// `lowen-isa`'s derived one included, so no plan is asked for.
    #[test]
    fn a_batch_makes_each_plan_once_and_leaves_none_cached() {
        let experiment = tiny_experiment();
        let matrix = Matrix::new(&experiment)
            .benchmarks(&[Benchmark::Gzip, Benchmark::Mcf, Benchmark::Vortex])
            .techniques(&BUILTIN_TECHNIQUES)
            .jobs(2);
        let groups = matrix.missing_cell_groups(&HashMap::new());
        assert_eq!(groups.len(), 3);
        let whole = ArtifactCache::new();
        let requested = groups.concat().into_iter().collect();
        let reports = matrix.run_cells_by_key(&whole, &requested, None);
        assert_eq!(reports.expect("own keys").len(), 24);
        assert_eq!(whole.plans_held(), 0, "the batch dropped its plans");
        assert_eq!(work(&whole), (6, 6, 15));
        let per_group = ArtifactCache::new();
        for _ in 0..2 {
            for group in &groups {
                let requested = group.iter().cloned().collect();
                matrix
                    .run_cells_by_key(&per_group, &requested, None)
                    .expect("own keys");
                assert_eq!(per_group.plans_held(), 0, "the batch dropped its plans");
            }
            assert_eq!(work(&per_group), (6, 6, 15));
        }
    }

    #[test]
    fn concurrent_requests_for_one_replay_run_it_once() {
        let cache = ArtifactCache::new();
        let key = gzip_key();
        let barrier = Barrier::new(4);
        let results: Vec<Arc<SimResult>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.replayed(key, ResizePolicy::Fixed)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(cache.replay_runs(), 1);
        assert!(results.iter().all(|r| Arc::ptr_eq(r, &results[0])));
        // Another policy, or an adaptive policy with one parameter moved,
        // is another replay.
        let mut adaptive = AdaptiveConfig::iqrob64();
        cache.replayed(key, ResizePolicy::Adaptive(adaptive));
        adaptive.rob_ratio += 0.5;
        cache.replayed(key, ResizePolicy::Adaptive(adaptive));
        assert_eq!(work(&cache), (1, 0, 3), "the replays share one plan");
    }

    /// Lowering straight from the executor gives exactly the plan built
    /// over the collected trace: every benchmark, raw and after every
    /// registered compiler pass, on both machines, and for the empty trace.
    #[test]
    fn lowering_from_the_executor_equals_building_over_the_trace() {
        let cap = tiny_experiment().max_dynamic_instructions;
        let mut passes: Vec<PassConfig> = Vec::new();
        for pass in Technique::all().iter().filter_map(Technique::pass_config) {
            if !passes.contains(&pass) {
                passes.push(pass);
            }
        }
        assert!(passes.len() >= 4, "noop, tagging, improved, low-energy");
        for benchmark in Benchmark::ALL {
            let raw = benchmark.build_scaled(0.05);
            let compiled = passes
                .iter()
                .map(|&pass| CompilerPass::new(pass).run(&raw).program);
            for program in std::iter::once(raw.clone()).chain(compiled) {
                let trace = Executor::new(&program).run(cap).unwrap();
                let empty = Executor::new(&program).run(0).unwrap();
                assert!(empty.is_empty());
                for config in [SimConfig::hpca2005(), SimConfig::small_for_tests()] {
                    for (cap, trace) in [(cap, &trace), (0, &empty)] {
                        let lowered = ExecPlan::lower(config, &program, cap).unwrap();
                        assert!(
                            lowered == ExecPlan::build(config, &program, trace),
                            "{} ({} records, cap {cap}): lowered plan differs",
                            benchmark.name(),
                            trace.len()
                        );
                    }
                }
            }
        }
    }

    /// Re-marking gives exactly the plan lowered from the program on the
    /// target machine, on every benchmark. On one machine: the raw plan
    /// re-marked for every registered pass that changes only markers, on
    /// both machines; the pass that inserts hint NOOPs is refused. Across
    /// back ends: the base machine's raw and `noop` plans re-marked onto an
    /// `iq=32` and a `bank=4` machine, for the raw program and for the
    /// `noop` pass retargeted at that machine, which differs from the base
    /// machine's `noop` output only in its hint values.
    #[test]
    fn remarking_the_raw_plan_equals_lowering_a_markers_only_compile() {
        let experiment = tiny_experiment();
        let cap = experiment.max_dynamic_instructions;
        let mut passes: Vec<PassConfig> = Vec::new();
        for pass in Technique::all().iter().filter_map(Technique::pass_config) {
            if !passes.contains(&pass) {
                passes.push(pass);
            }
        }
        let base = experiment.sim_config;
        let back_ends = [
            ConfigVariant::with_iq_entries(&experiment, 32).sim_config,
            ConfigVariant::with_iq_bank_size(&experiment, 4).sim_config,
        ];
        let noop = |config: SimConfig| {
            Technique::Noop
                .pass_config_for(config.widths, config.fu_counts)
                .expect("noop runs a pass")
        };
        for benchmark in Benchmark::ALL {
            let raw = benchmark.build_scaled(0.05);
            let compiled: Vec<Program> = passes
                .iter()
                .map(|&pass| CompilerPass::new(pass).run(&raw).program)
                .collect();
            let markers_only: Vec<&Program> = compiled
                .iter()
                .filter(|program| only_markers_differ(&raw, program))
                .collect();
            assert_eq!(
                markers_only.len(),
                3,
                "{}: tagging, improved and low-energy change only markers",
                benchmark.name()
            );
            for config in [SimConfig::hpca2005(), SimConfig::small_for_tests()] {
                let raw_plan = ExecPlan::lower(config, &raw, cap).unwrap();
                for program in &compiled {
                    let remarked = raw_plan.remark(config, program);
                    if !only_markers_differ(&raw, program) {
                        assert!(remarked.is_none(), "{}", benchmark.name());
                        continue;
                    }
                    let remarked = remarked.expect("a markers-only compile re-marks");
                    assert!(remarked.shares_stream(&raw_plan));
                    assert!(
                        remarked == ExecPlan::lower(config, program, cap).unwrap(),
                        "{}: re-marked plan differs from the lowered one",
                        benchmark.name()
                    );
                }
            }
            let noop_base = CompilerPass::new(noop(base)).run(&raw).program;
            let sources = [
                (ExecPlan::lower(base, &raw, cap).unwrap(), &raw),
                (ExecPlan::lower(base, &noop_base, cap).unwrap(), &noop_base),
            ];
            for config in back_ends {
                let noop_there = CompilerPass::new(noop(config)).run(&raw).program;
                for (source, program) in [(&sources[0], &raw), (&sources[1], &noop_there)] {
                    assert!(only_markers_differ(source.1, program));
                    let remarked = source
                        .0
                        .remark(config, program)
                        .expect("the same front end, only markers differ");
                    assert!(remarked.shares_stream(&source.0));
                    assert!(
                        remarked == ExecPlan::lower(config, program, cap).unwrap(),
                        "{}: plan re-marked onto iq={} bank={} differs from the lowered one",
                        benchmark.name(),
                        config.iq.entries,
                        config.iq.bank_size
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_requests_build_exactly_once() {
        let cache = ArtifactCache::new();
        let key = ProgramKey::new(Benchmark::Vortex, 0.05);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| cache.program(key));
            }
        });
        assert_eq!(cache.program_builds(), 1);
    }
}
