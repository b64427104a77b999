//! The experiment job engine: a fixed worker pool over a shared queue of
//! (workload, technique, configuration) cells.
//!
//! The previous matrix runner spawned one thread per benchmark, which is
//! unbalanced (a `gcc`-analogue column takes far longer than a `gzip` one)
//! and caps parallelism at the benchmark count regardless of the machine.
//! The engine instead flattens the whole
//! (benchmark × technique × [`ConfigVariant`]) cross product into a cell
//! list, sizes a worker pool to `std::thread::available_parallelism`, and
//! lets idle workers pull the next unclaimed cell from a shared atomic
//! cursor — so an 11 × 6 × K sweep saturates every core no matter how the
//! axes are shaped, and a long cell never strands the rest of its row.
//! The list comes in plan groups, the cells of one benchmark on every
//! machine with one front end, which share every execution plan they use,
//! so a group's plans are dropped together as soon as the group is done.
//!
//! Expensive per-cell work that is shared between cells (program
//! generation, compiler passes, plans and replays) goes through the
//! [`ArtifactCache`], which alone decides what a cell shares: a cell asks
//! it for the replay of its own plan under its resize policy. Every cell's
//! result is a pure function of its cell key, which yields the
//! engine's hard guarantee: **the assembled [`Sweep`] is bit-identical for
//! any worker count**, `jobs = 1` included. The integration suite asserts
//! this.
//!
//! # Scaling beyond one process
//!
//! The same cell space shards across processes: [`shard_of`] assigns every
//! cell key to one of `N` shards by a stable fingerprint and
//! [`Matrix::shard`] restricts a matrix to exactly its shard's cells, so
//! separately launched processes (`repro --shard k/n`) compute disjoint
//! save files that merge back through `--load`. The `sdiq-remote` crate
//! distributes cells over networked worker daemons instead: each daemon
//! runs its share through [`Matrix::run_cells_by_key`], and the
//! coordinator seeds [`Matrix::run_with`] with what they return, so this
//! crate holds no process or transport code. Every path keeps the same
//! hard guarantee: the merged sweep is bit-identical to a serial run.
//! Completed cells can additionally stream into a [`CellSink`] (the
//! engine's crash-resume hook: [`crate::persist::CheckpointWriter`]
//! appends each one to disk the moment it exists). A [`MatrixSpec`] is
//! the portable matrix description the remote coordinator ships to
//! daemons that never saw its command line.

use crate::cache::{
    ArtifactCache, CompileKey, PlanGroup, PlanKey, PlanSource, PolicyBits, ProgramKey,
};
use crate::runner::{Experiment, RunReport, Suite};
use crate::technique::Technique;
use sdiq_compiler::PassConfig;
use sdiq_sim::{ResizePolicy, SimConfig};
use sdiq_workloads::Benchmark;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One point on the configuration sweep axis: a simulator configuration
/// plus the workload scale to run it at.
///
/// The paper's Figure-10-style sensitivity studies vary the machine under
/// a fixed workload set; a sweep here is a list of variants, each labelled
/// for reporting and keyed (together with the experiment's energy model
/// and instruction budget) into every cell's cache key.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigVariant {
    /// Label used in reports and cell keys (e.g. `base`, `iq64`).
    pub label: String,
    /// The simulator configuration for this variant.
    pub sim_config: SimConfig,
    /// Workload scale factor for this variant.
    pub scale: f64,
}

impl ConfigVariant {
    /// The experiment's own configuration, labelled `base`.
    pub fn base(experiment: &Experiment) -> Self {
        ConfigVariant {
            label: "base".to_string(),
            sim_config: experiment.sim_config,
            scale: experiment.scale,
        }
    }

    /// A variant of the experiment's machine with a different issue-queue
    /// capacity (both the queue geometry and the machine width the
    /// compiler pass targets follow).
    ///
    /// # Panics
    ///
    /// If `entries` is zero — a zero-capacity queue can never dispatch,
    /// and catching it at construction beats a panic inside a worker
    /// thread.
    pub fn with_iq_entries(experiment: &Experiment, entries: usize) -> Self {
        assert!(entries >= 1, "issue-queue capacity must be at least 1");
        let mut sim_config = experiment.sim_config;
        sim_config.iq.entries = entries;
        sim_config.widths.iq_capacity = entries;
        ConfigVariant {
            label: format!("iq{entries}"),
            sim_config,
            scale: experiment.scale,
        }
    }

    /// A variant of the experiment's machine with a different issue-queue
    /// bank size (same capacity, different gating granularity).
    ///
    /// # Panics
    ///
    /// If `bank_size` is zero (the bank count would divide by it).
    pub fn with_iq_bank_size(experiment: &Experiment, bank_size: usize) -> Self {
        assert!(bank_size >= 1, "issue-queue bank size must be at least 1");
        let mut sim_config = experiment.sim_config;
        sim_config.iq.bank_size = bank_size;
        ConfigVariant {
            label: format!("bank{bank_size}"),
            sim_config,
            scale: experiment.scale,
        }
    }

    /// A variant running the experiment's machine at a different workload
    /// scale.
    ///
    /// # Panics
    ///
    /// If `scale` is not a positive finite number.
    pub fn with_scale(experiment: &Experiment, scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "workload scale must be positive and finite"
        );
        ConfigVariant {
            label: format!("scale{scale}"),
            sim_config: experiment.sim_config,
            scale,
        }
    }
}

/// Results of a configuration sweep: one [`Suite`] per [`ConfigVariant`],
/// in the order the variants were declared.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    points: Vec<(ConfigVariant, Suite)>,
}

impl Sweep {
    /// The sweep points in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &(ConfigVariant, Suite)> {
        self.points.iter()
    }

    /// The suite of the `index`-th variant.
    pub fn suite(&self, index: usize) -> &Suite {
        &self.points[index].1
    }

    /// The variant of the `index`-th point.
    pub fn variant(&self, index: usize) -> &ConfigVariant {
        &self.points[index].0
    }

    /// The suite for the variant with the given label, if present.
    pub fn suite_for(&self, label: &str) -> Option<&Suite> {
        self.points
            .iter()
            .find(|(v, _)| v.label == label)
            .map(|(_, s)| s)
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the sweep holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Collapses a single-point sweep (the common non-sweeping case) into
    /// its one suite.
    pub fn into_suite(mut self) -> Suite {
        assert!(
            self.points.len() == 1,
            "into_suite on a {}-point sweep; pick a variant instead",
            self.points.len()
        );
        match self.points.pop() {
            Some((_, suite)) => suite,
            None => unreachable!("asserted exactly one point above"),
        }
    }
}

/// A self-contained, serialisable description of a matrix: everything a
/// process that did **not** parse this run's command line needs to rebuild
/// the identical cell space (experiment scale, sweep axes, benchmark and
/// technique names).
///
/// The remote coordinator ships a `MatrixSpec` inside its `RunCells`
/// frame (see `sdiq-remote`) so a worker daemon on another machine
/// rebuilds the same matrix. Both the coordinator and the worker derive
/// their [`Matrix`] from the same spec via [`MatrixSpec::matrix`], so they
/// cannot drift.
///
/// The parts of an [`Experiment`] that are not spelled out here (energy
/// model, instruction budget) are pinned to [`Experiment::paper`]; the
/// per-cell key fingerprint covers them, so any future divergence shows up
/// as a key mismatch, never as a silently different result.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSpec {
    /// Workload scale ([`Experiment::scale`]).
    pub scale: f64,
    /// Sweep axes in declaration order: `(axis, values)` with axis one of
    /// `iq`, `bank`, `scale` (the `repro --sweep` grammar).
    pub sweeps: Vec<(String, Vec<f64>)>,
    /// Benchmark names ([`Benchmark::name`]) of the benchmark axis.
    pub benchmarks: Vec<String>,
    /// Technique names ([`Technique::name`]) of the technique axis.
    pub techniques: Vec<String>,
}

impl MatrixSpec {
    /// The experiment this spec describes: the paper's machine at the
    /// spec's workload scale.
    pub fn experiment(&self) -> Experiment {
        Experiment {
            scale: self.scale,
            ..Experiment::paper()
        }
    }

    /// Builds the matrix this spec describes over `experiment` (which must
    /// come from [`MatrixSpec::experiment`] — split only because [`Matrix`]
    /// borrows it). Returns an error for unknown benchmark, technique or
    /// axis names, for a scale or sweep value out of range, and for a
    /// benchmark, technique or variant listed twice (two cells would
    /// share one key): a spec arriving over the wire is input, not an
    /// invariant, so nothing here panics.
    pub fn matrix<'a>(&self, experiment: &'a Experiment) -> Result<Matrix<'a>, String> {
        if !(self.scale > 0.0 && self.scale.is_finite()) {
            return Err(format!(
                "workload scale must be positive and finite, got `{}`",
                self.scale
            ));
        }
        let benchmarks = self
            .benchmarks
            .iter()
            .map(|name| {
                Benchmark::from_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let techniques = self
            .techniques
            .iter()
            .map(|name| {
                Technique::from_name(name).ok_or_else(|| {
                    format!(
                        "unknown technique `{name}` (registered: {})",
                        crate::TechniqueRegistry::names().join(", ")
                    )
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        if let Some(name) = first_repeat(benchmarks.iter().map(|b| b.name())) {
            return Err(format!("benchmark `{name}` is listed twice"));
        }
        if let Some(name) = first_repeat(techniques.iter().map(|t| t.name())) {
            return Err(format!("technique `{name}` is listed twice"));
        }
        let mut matrix = Matrix::new(experiment)
            .benchmarks(&benchmarks)
            .techniques(&techniques);
        for (axis, values) in &self.sweeps {
            matrix = match axis.as_str() {
                "iq" | "bank" => {
                    // Machine geometry: zero would panic in `banks()`,
                    // fractions would silently truncate, huge values OOM
                    // the simulator (the CLI enforces the same bound).
                    const MAX_GEOMETRY: f64 = 65536.0;
                    let entries = values
                        .iter()
                        .map(|&v| {
                            if v >= 1.0 && v.fract() == 0.0 && v <= MAX_GEOMETRY {
                                Ok(v as usize)
                            } else {
                                Err(format!(
                                    "sweep axis `{axis}` wants integers in 1..={MAX_GEOMETRY}, got `{v}`"
                                ))
                            }
                        })
                        .collect::<Result<Vec<_>, String>>()?;
                    if axis == "iq" {
                        matrix.sweep_iq_entries(&entries)
                    } else {
                        matrix.sweep_iq_bank_sizes(&entries)
                    }
                }
                "scale" => {
                    for &v in values {
                        if !(v > 0.0 && v.is_finite()) {
                            return Err(format!(
                                "sweep axis `scale` wants positive values, got `{v}`"
                            ));
                        }
                    }
                    matrix.sweep_scales(values)
                }
                other => return Err(format!("unknown sweep axis `{other}` (iq, bank, scale)")),
            };
        }
        let variants = matrix.config_variants();
        if let Some(label) = first_repeat(variants.iter().map(|v| v.label.as_str())) {
            return Err(format!("sweep variant `{label}` is listed twice"));
        }
        Ok(matrix)
    }
}

/// The first name `names` yields twice, if any.
fn first_repeat<'n>(names: impl IntoIterator<Item = &'n str>) -> Option<&'n str> {
    let mut seen = HashSet::new();
    names.into_iter().find(|&name| !seen.insert(name))
}

/// A stable fingerprint of a matrix's whole cell-key space (order
/// independent). The remote coordinator sends it with every `RunCells`
/// frame and the worker daemon recomputes it from the shipped
/// [`MatrixSpec`]: a mismatch means the two processes disagree about what
/// the matrix *is* (version skew, a hand-edited spec) and is rejected
/// before any cell runs.
pub fn matrix_fingerprint(keys: &[String]) -> u64 {
    let mut sorted: Vec<&String> = keys.iter().collect();
    sorted.sort();
    let mut hasher = Fnv1a::default();
    for key in sorted {
        hasher.write(key.as_bytes());
        hasher.write_u8(0); // unambiguous key boundary
    }
    hasher.finish()
}

/// One cell of the flattened cross product (see [`Matrix`]).
#[derive(Debug, Clone, Copy)]
struct Cell {
    variant: usize,
    benchmark: Benchmark,
    technique: Technique,
}

/// The report `seed` holds for `cell` under `key`, if it genuinely
/// describes that cell (guards suite assembly against corrupted or
/// hand-edited save files: a mismatched seed is recomputed).
fn seed_for<'s>(
    seed: &'s HashMap<String, RunReport>,
    key: &str,
    cell: &Cell,
) -> Option<&'s RunReport> {
    seed.get(key).filter(|report| {
        report.technique == cell.technique && report.workload == cell.benchmark.name()
    })
}

/// Builder for a full (benchmark × technique × configuration) sweep run on
/// the job engine.
///
/// ```
/// use sdiq_core::{Experiment, Matrix, Technique};
/// use sdiq_workloads::Benchmark;
///
/// let experiment = Experiment { scale: 0.05, ..Experiment::paper() };
/// let sweep = Matrix::new(&experiment)
///     .benchmarks(&[Benchmark::Gzip])
///     .techniques(&[Technique::Baseline, Technique::Noop])
///     .jobs(2)
///     .run();
/// assert_eq!(sweep.len(), 1); // no sweep axis declared → just `base`
/// assert_eq!(sweep.suite(0).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Matrix<'a> {
    experiment: &'a Experiment,
    benchmarks: Vec<Benchmark>,
    techniques: Vec<Technique>,
    variants: Vec<ConfigVariant>,
    jobs: usize,
    /// `(index, count)`: restrict to the cells [`shard_of`] assigns to
    /// `index` (zero-based) out of `count` shards. `None` = every cell.
    shard: Option<(usize, usize)>,
}

impl<'a> Matrix<'a> {
    /// A matrix over every benchmark and technique of `experiment`'s base
    /// configuration, auto-sized worker pool.
    pub fn new(experiment: &'a Experiment) -> Self {
        Matrix {
            experiment,
            benchmarks: Benchmark::ALL.to_vec(),
            techniques: Technique::all(),
            variants: Vec::new(),
            jobs: 0,
            shard: None,
        }
    }

    /// Restricts the benchmark axis.
    pub fn benchmarks(mut self, benchmarks: &[Benchmark]) -> Self {
        self.benchmarks = benchmarks.to_vec();
        self
    }

    /// Restricts the technique axis.
    pub fn techniques(mut self, techniques: &[Technique]) -> Self {
        self.techniques = techniques.to_vec();
        self
    }

    /// Replaces the configuration axis with an explicit variant list.
    pub fn variants(mut self, variants: Vec<ConfigVariant>) -> Self {
        self.variants = variants;
        self
    }

    /// Appends issue-queue-capacity variants to the configuration axis
    /// (the base configuration is kept as the first point).
    pub fn sweep_iq_entries(mut self, entries: &[usize]) -> Self {
        self.ensure_base();
        self.variants.extend(
            entries
                .iter()
                .map(|&e| ConfigVariant::with_iq_entries(self.experiment, e)),
        );
        self
    }

    /// Appends issue-queue bank-size variants to the configuration axis.
    pub fn sweep_iq_bank_sizes(mut self, bank_sizes: &[usize]) -> Self {
        self.ensure_base();
        self.variants.extend(
            bank_sizes
                .iter()
                .map(|&b| ConfigVariant::with_iq_bank_size(self.experiment, b)),
        );
        self
    }

    /// Appends workload-scale variants to the configuration axis.
    pub fn sweep_scales(mut self, scales: &[f64]) -> Self {
        self.ensure_base();
        self.variants.extend(
            scales
                .iter()
                .map(|&s| ConfigVariant::with_scale(self.experiment, s)),
        );
        self
    }

    /// Fixes the worker-pool size (`0` = auto:
    /// `std::thread::available_parallelism`).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Restricts the matrix to shard `index` (zero-based) of `count`:
    /// exactly the cells whose key [`shard_of`] assigns to that shard, and
    /// nothing else — key generation, execution, persistence and seed
    /// accounting all see only the owned cells. The partition is a pure
    /// function of the cell keys, so every process of a sharded run
    /// computes the same assignment without coordination.
    ///
    /// # Panics
    ///
    /// If `count` is zero or `index >= count`.
    pub fn shard(mut self, index: usize, count: usize) -> Self {
        assert!(count >= 1, "shard count must be at least 1");
        assert!(
            index < count,
            "shard index {index} out of range for {count} shards"
        );
        self.shard = Some((index, count));
        self
    }

    fn ensure_base(&mut self) {
        if self.variants.is_empty() {
            self.variants.push(ConfigVariant::base(self.experiment));
        }
    }

    /// The configuration-axis points this matrix sweeps (`base` alone if
    /// no axis was declared) — the same list the cell space is built
    /// from, so external checkers (`repro lint`) cover exactly the
    /// variants a run would execute.
    pub fn config_variants(&self) -> Vec<ConfigVariant> {
        self.effective_variants()
    }

    /// The effective variant list (`base` alone if no axis was declared).
    fn effective_variants(&self) -> Vec<ConfigVariant> {
        if self.variants.is_empty() {
            vec![ConfigVariant::base(self.experiment)]
        } else {
            self.variants.clone()
        }
    }

    /// Total number of cells this matrix owns: the full cross product, or
    /// only this shard's share of it when [`Matrix::shard`] is set.
    pub fn cell_count(&self) -> usize {
        match self.shard {
            None => self.effective_variants().len() * self.benchmarks.len() * self.techniques.len(),
            Some(_) => self.cells(&self.effective_variants()).len(),
        }
    }

    /// The full cross-product size, ignoring any shard restriction.
    pub fn unsharded_cell_count(&self) -> usize {
        self.effective_variants().len() * self.benchmarks.len() * self.techniques.len()
    }

    /// The cells of this matrix in plan groups, each with its cache key:
    /// the single definition of cell order. Key generation, execution,
    /// reassembly, seed accounting and the remote scheduler's claims all
    /// iterate this, so they cannot drift apart (suite assembly keys by
    /// cell, so the order is free to serve the cache).
    ///
    /// A plan group is every cell whose plans commit the streams of one
    /// program on one front end under one instruction cap: one benchmark
    /// at one scale, on every machine that shares the front end. Every
    /// plan a cell uses is lowered over one of its group's streams or
    /// re-marked from another plan of the group, so a run that takes the
    /// groups one after another can drop each plan, and the group's
    /// streams, as soon as its group is done. Groups come in (variant,
    /// benchmark) order; a variant with the front end and scale of an
    /// earlier one (every `iq=` and `bank=` point of a sweep) joins that
    /// variant's groups.
    ///
    /// Inside a group, a cell whose replay (its own plan key under its
    /// resize policy) an earlier cell already names comes after every
    /// cell whose replay is new; otherwise cells keep the order of the
    /// variant and technique axes. For the built-in techniques that is
    /// `baseline, noop, extension, improved, abella, lowen-isa, nonEmpty,
    /// way-memo`: the two cells that reprice `baseline`'s replay come
    /// last instead of parking a worker on that replay while other
    /// replays could run. The rule reads the cells' keys, never technique
    /// names. The trade-off: a pool with more workers than a group has
    /// distinct replays blocks on shared artifacts early in every group.
    /// The benchmark's pools are 2 workers in process and 1 per daemon.
    fn groups(&self, variants: &[ConfigVariant]) -> Vec<Vec<(String, Cell)>> {
        // What each technique replays on each variant's machine: the
        // machine (named by the first variant that is that machine), and
        // its pass output (or, for none, the raw program) under its resize
        // policy. A group's cells share the program, so two of them run
        // one replay exactly when these agree; naming them once per
        // variant and technique keeps listing the cells cheap.
        let names: Vec<Vec<ReplayName>> = variants
            .iter()
            .map(|variant| {
                let machine = variants
                    .iter()
                    .position(|other| other.sim_config == variant.sim_config)
                    .unwrap_or_else(|| unreachable!("a variant is its own machine"));
                self.techniques
                    .iter()
                    .map(|&technique| CellPlans::replay_name(machine, variant, technique))
                    .collect()
            })
            .collect();
        // A cell's key is its benchmark and technique names plus its
        // variant's part, which hashes the whole machine: hash once per
        // variant, not once per cell.
        let variant_keys: Vec<String> = variants
            .iter()
            .map(|variant| variant_key(self.experiment, variant))
            .collect();
        let technique_names: Vec<&str> = self.techniques.iter().map(Technique::name).collect();
        let mut groups: Vec<Vec<(String, Cell, &ReplayName)>> = Vec::new();
        let mut group_of: HashMap<PlanGroup, usize> = HashMap::new();
        for (variant, config) in variants.iter().enumerate() {
            for &benchmark in &self.benchmarks {
                let group = CellPlans::raw(self.experiment, config, benchmark).group();
                let index = *group_of.entry(group).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                let cells = self
                    .techniques
                    .iter()
                    .zip(&technique_names)
                    .zip(&names[variant]);
                groups[index].extend(cells.map(|((&technique, name), replay)| {
                    let key = format!("{}|{name}|{}", benchmark.name(), variant_keys[variant]);
                    let cell = Cell {
                        variant,
                        benchmark,
                        technique,
                    };
                    (key, cell, replay)
                }));
            }
        }
        groups
            .into_iter()
            .map(|group| {
                // A group holds a few cells per technique: a linear scan
                // finds a repeated replay faster than hashing.
                let mut replays = Vec::with_capacity(group.len());
                let (fresh, repeats): (Vec<_>, Vec<_>) =
                    group.into_iter().partition(|&(_, _, replay)| {
                        let fresh = !replays.contains(&replay);
                        if fresh {
                            replays.push(replay);
                        }
                        fresh
                    });
                // Shard restriction: keep only the cells whose key this
                // shard owns. Filtering the canonical list (instead of
                // building a different one) preserves the relative cell
                // order, so a sharded save file merges back into exactly
                // the serial key space.
                fresh
                    .into_iter()
                    .chain(repeats)
                    .map(|(key, cell, _)| (key, cell))
                    .filter(|(key, _)| {
                        self.shard
                            .is_none_or(|(index, count)| shard_of(key, count) == index)
                    })
                    .collect::<Vec<_>>()
            })
            .filter(|group| !group.is_empty())
            .collect()
    }

    /// [`Matrix::groups`], flattened.
    fn cells(&self, variants: &[ConfigVariant]) -> Vec<(String, Cell)> {
        self.groups(variants).concat()
    }

    /// The cached artifacts `cell`, one of this matrix's cells over
    /// `variants`, is computed from.
    fn plans(&self, variants: &[ConfigVariant], cell: &Cell) -> CellPlans {
        CellPlans::new(
            self.experiment,
            &variants[cell.variant],
            cell.benchmark,
            cell.technique,
        )
    }

    /// The cache key of every cell, in deterministic cell order. This is
    /// the key space `--save`/`--load` persistence is indexed by.
    pub fn cell_keys(&self) -> Vec<String> {
        let variants = self.effective_variants();
        self.cells(&variants)
            .into_iter()
            .map(|(key, _)| key)
            .collect()
    }

    /// Number of cells [`Matrix::run_with`] would actually compute given
    /// `seed`: cells whose key is absent *plus* cells whose seeded report
    /// fails the integrity check (wrong technique/workload under the key)
    /// and is therefore recomputed.
    pub fn missing_cells(&self, seed: &HashMap<String, RunReport>) -> usize {
        self.missing_cell_groups(seed).iter().map(Vec::len).sum()
    }

    /// The keys of exactly the cells [`Matrix::run_with`] would compute
    /// given `seed` (the predicate of [`Matrix::missing_cells`]), in
    /// canonical cell order and split into their plan groups; a group
    /// with nothing to compute is left out. This is the work list the
    /// remote scheduler hands out group by group: seeded cells are
    /// already durable and never leave the coordinator.
    pub fn missing_cell_groups(&self, seed: &HashMap<String, RunReport>) -> Vec<Vec<String>> {
        let variants = self.effective_variants();
        self.groups(&variants)
            .into_iter()
            .map(|group| {
                group
                    .into_iter()
                    .filter(|(key, cell)| seed_for(seed, key, cell).is_none())
                    .map(|(key, _)| key)
                    .collect::<Vec<String>>()
            })
            .filter(|keys| !keys.is_empty())
            .collect()
    }

    /// Runs exactly the cells named by `requested` (a subset of this
    /// matrix's key space) on the worker pool, streaming each computed
    /// report into `sink` as it lands, and returns the key-addressed
    /// results. A requested key this matrix does not own is an error —
    /// it means the requester built a different matrix (the remote worker
    /// daemon's defence against version skew). Plans live as in
    /// [`Matrix::run_with`]: a plan group's plans are dropped after its
    /// last requested cell, so a call leaves no plan cached. The remote
    /// scheduler requests whole plan groups, so a daemon makes each plan
    /// of a group once.
    pub fn run_cells_by_key(
        &self,
        cache: &ArtifactCache,
        requested: &HashSet<String>,
        sink: Option<&dyn CellSink>,
    ) -> Result<HashMap<String, RunReport>, String> {
        let variants = self.effective_variants();
        let keyed = self.cells(&variants);
        {
            let own: HashSet<&str> = keyed.iter().map(|(key, _)| key.as_str()).collect();
            let mut foreign: Vec<&str> = requested
                .iter()
                .map(String::as_str)
                .filter(|key| !own.contains(key))
                .collect();
            if !foreign.is_empty() {
                foreign.sort();
                return Err(format!(
                    "{} requested cell key(s) not in this matrix (configurations \
                     disagree), first: `{}`",
                    foreign.len(),
                    foreign[0]
                ));
            }
        }
        let todo: Vec<(String, Cell)> = keyed
            .into_iter()
            .filter(|(key, _)| requested.contains(key))
            .collect();
        let reports = self.compute(cache, &variants, &todo, sink);
        Ok(todo.into_iter().map(|(key, _)| key).zip(reports).collect())
    }

    /// Runs the matrix on a private artifact cache with no seeded cells.
    pub fn run(&self) -> Sweep {
        self.run_with(&ArtifactCache::new(), &HashMap::new())
    }

    /// Runs the matrix: cells whose key appears in `seed` are taken from
    /// it verbatim (the `--load` path re-runs only missing cells), the
    /// rest are computed on the worker pool through `cache`, which drops
    /// each plan group's plans and streams once its last computed cell has
    /// finished (its replays stay cached).
    pub fn run_with(&self, cache: &ArtifactCache, seed: &HashMap<String, RunReport>) -> Sweep {
        self.run_with_sink(cache, seed, None)
    }

    /// [`Matrix::run_with`], additionally streaming every **computed**
    /// cell (not the seeded ones — they are already durable wherever the
    /// seed came from) into `sink` the moment its report exists. This is
    /// the crash-resume hook: with a
    /// [`crate::persist::CheckpointWriter`] as the sink, a killed run
    /// loses at most the cells that were still in flight.
    pub fn run_with_sink(
        &self,
        cache: &ArtifactCache,
        seed: &HashMap<String, RunReport>,
        sink: Option<&dyn CellSink>,
    ) -> Sweep {
        let variants = self.effective_variants();
        // A seeded report must actually describe its cell — `Suite::insert`
        // slots by the report's own technique, so a corrupted save file
        // could otherwise mis-file a cell and silently leave another empty.
        // Mismatched seeds are treated as missing and recomputed
        // (`missing_cells` applies the same predicate).
        let mut todo: Vec<(String, Cell)> = Vec::new();
        let cells: Vec<(Cell, Option<&RunReport>)> = self
            .cells(&variants)
            .into_iter()
            .map(|(key, cell)| {
                let report = seed_for(seed, &key, &cell);
                if report.is_none() {
                    todo.push((key, cell));
                }
                (cell, report)
            })
            .collect();
        let mut computed = self.compute(cache, &variants, &todo, sink).into_iter();

        // Reassembly is keyed by each result's own cell, not by position,
        // so it is independent of whatever order `cells()` chooses.
        let mut suites: Vec<Suite> = variants.iter().map(|_| Suite::default()).collect();
        for (cell, seeded) in cells {
            let report = match seeded {
                Some(report) => report.clone(),
                None => computed
                    .next()
                    .unwrap_or_else(|| unreachable!("one computed report per unseeded cell")),
            };
            suites[cell.variant].insert(cell.benchmark, report);
        }
        Sweep {
            points: variants.into_iter().zip(suites).collect(),
        }
    }

    /// Computes `todo` on the worker pool, streaming each report into
    /// `sink` as it lands, and returns the reports in `todo` order. Every
    /// cell holds its plan group from before the workers start until it
    /// finishes, so a group's plans are dropped after its last cell in
    /// `todo`; their replays stay cached.
    fn compute(
        &self,
        cache: &ArtifactCache,
        variants: &[ConfigVariant],
        todo: &[(String, Cell)],
        sink: Option<&dyn CellSink>,
    ) -> Vec<RunReport> {
        let plans: Vec<CellPlans> = todo
            .iter()
            .map(|(_, cell)| self.plans(variants, cell))
            .collect();
        for cell_plans in &plans {
            cache.hold_group(cell_plans.raw.group());
        }
        let results: Vec<OnceLock<RunReport>> = todo.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let jobs = self.effective_jobs(todo.len());
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(((key, cell), plans)) = todo.get(index).zip(plans.get(index))
                        else {
                            break;
                        };
                        let report =
                            observed_cell(self.experiment, cache, plans, key, cell.technique);
                        cache.release_group(plans.raw.group());
                        if let Some(sink) = sink {
                            let _span = sdiq_obs::span("persist-cell", "persist");
                            sink.cell_complete(key, &report);
                        }
                        results[index].set(report).unwrap_or_else(|_| {
                            unreachable!("each cell is claimed by exactly one worker")
                        });
                    }
                    // Last act, not left to TLS teardown: the scope owner
                    // unblocks the moment this closure returns and may
                    // drain immediately.
                    sdiq_obs::flush();
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|| unreachable!("worker pool filled every cell before exiting"))
            })
            .collect()
    }

    /// Flattens a sweep produced by this matrix back into its
    /// key-addressed cells (the `--save` path).
    pub fn collect_cells(&self, sweep: &Sweep) -> std::collections::BTreeMap<String, RunReport> {
        let variants = self.effective_variants();
        let mut cells = std::collections::BTreeMap::new();
        for (key, cell) in self.cells(&variants) {
            if let Some(report) = sweep
                .suite(cell.variant)
                .get(cell.benchmark, cell.technique)
            {
                cells.insert(key, report.clone());
            }
        }
        cells
    }

    fn effective_jobs(&self, cells: usize) -> usize {
        let auto = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let jobs = if self.jobs == 0 { auto() } else { self.jobs };
        jobs.clamp(1, cells.max(1))
    }
}

/// Observer of completed cells (see [`Matrix::run_with_sink`]). Called from
/// worker threads, hence `Sync`; implementations serialise internally.
pub trait CellSink: Sync {
    /// One computed cell's report, delivered as soon as it exists.
    fn cell_complete(&self, key: &str, report: &RunReport);
}

/// The shard a cell key belongs to, out of `count` shards: a stable
/// FNV-1a fingerprint of the key text, reduced mod `count`. Pure function
/// of `(key, count)` — every process computes the same partition, so a
/// worker needs no coordination to know which cells are its own.
///
/// # Panics
///
/// If `count` is zero.
pub fn shard_of(key: &str, count: usize) -> usize {
    assert!(count >= 1, "shard count must be at least 1");
    let mut hasher = Fnv1a::default();
    hasher.write(key.as_bytes());
    (hasher.finish() % count as u64) as usize
}

/// [`run_cell`] wrapped in the engine's observability instrumentation:
/// the in-flight gauge, a traced `cell` span carrying the cell key, and
/// the per-cell counters/histogram (`sdiq-obs` metrics are always on; the
/// span is a no-op unless tracing was enabled).
/// Strictly out-of-band — the report is returned untouched, so results
/// are bit-identical with observability on or off.
fn observed_cell(
    experiment: &Experiment,
    cache: &ArtifactCache,
    plans: &CellPlans,
    key: &str,
    technique: Technique,
) -> RunReport {
    let metrics = sdiq_obs::metrics();
    metrics.cells_in_flight.add(1);
    let started = std::time::Instant::now();
    let span = sdiq_obs::span("cell", "cell").map(|s| s.arg("key", key));
    let report = run_cell(experiment, cache, plans, technique);
    drop(span);
    metrics.cells_in_flight.sub(1);
    metrics.cells_done.inc();
    metrics.sim_instructions.add(report.stats.committed);
    metrics
        .cell_wall_nanos
        .observe(started.elapsed().as_nanos() as u64);
    report
}

/// What a cell replays inside its plan group: its machine (the index of
/// the first variant that is that machine), the pass output it runs
/// (`None`: the raw program) and its resize policy
/// ([`CellPlans::replay_name`]).
type ReplayName = (usize, Option<PassConfig>, PolicyBits);

/// The cached artifacts one cell is computed from.
#[derive(Debug, Clone, Copy)]
struct CellPlans {
    /// The built benchmark program.
    program: ProgramKey,
    /// The plan of the built program.
    raw: PlanKey,
    /// For a software technique: its compiler pass, and the plan of the
    /// pass output.
    pass: Option<(CompileKey, PlanKey)>,
    policy: ResizePolicy,
}

impl CellPlans {
    fn new(
        experiment: &Experiment,
        variant: &ConfigVariant,
        benchmark: Benchmark,
        technique: Technique,
    ) -> Self {
        let raw = CellPlans::raw(experiment, variant, benchmark);
        let program = ProgramKey::new(benchmark, variant.scale);
        let pass = technique
            .pass_config_for(variant.sim_config.widths, variant.sim_config.fu_counts)
            .map(|pass| {
                let compile = CompileKey { program, pass };
                let plan = PlanKey {
                    source: PlanSource::Compiled(compile),
                    ..raw
                };
                (compile, plan)
            });
        CellPlans {
            program,
            raw,
            pass,
            policy: technique.resize_policy(),
        }
    }

    /// The plan of `benchmark`'s built program on `variant`'s machine,
    /// whose [`PlanKey::group`] is the plan group of every cell of that
    /// benchmark and front end: the group the cell holds.
    fn raw(experiment: &Experiment, variant: &ConfigVariant, benchmark: Benchmark) -> PlanKey {
        PlanKey {
            source: PlanSource::Program(ProgramKey::new(benchmark, variant.scale)),
            sim_config: variant.sim_config,
            max_dynamic_instructions: experiment.max_dynamic_instructions,
        }
    }

    /// The plan of the program the cell runs.
    fn own(&self) -> PlanKey {
        self.pass.map_or(self.raw, |(_, plan)| plan)
    }

    /// What `technique` replays on `variant`'s machine, named `machine`:
    /// that machine, and the output of its pass retargeted at it (`None`:
    /// the raw program) under its resize policy ([`Matrix::groups`]
    /// orders a group's cells by it).
    fn replay_name(machine: usize, variant: &ConfigVariant, technique: Technique) -> ReplayName {
        let config = variant.sim_config;
        (
            machine,
            technique.pass_config_for(config.widths, config.fu_counts),
            PolicyBits::of(technique.resize_policy()),
        )
    }

    /// The replay the cell asks the cache for: its own plan under its
    /// resize policy.
    #[cfg(test)]
    fn replay(&self) -> (PlanKey, PolicyBits) {
        (self.own(), PolicyBits::of(self.policy))
    }
}

/// Runs one cell through the artifact cache: the replay of its own plan
/// under its resize policy, which the cache makes, shares or derives
/// ([`ArtifactCache::replayed`]), priced by the power model. Software
/// techniques reuse the cached compiler-pass output, hardware techniques
/// run the shared built program directly — no per-cell `Program` clone in
/// either path. Only the power pricing runs per cell.
fn run_cell(
    experiment: &Experiment,
    cache: &ArtifactCache,
    plans: &CellPlans,
    technique: Technique,
) -> RunReport {
    let result = cache.replayed(plans.own(), plans.policy);
    let Some((compile, _)) = plans.pass else {
        let program = cache.program(plans.program);
        return experiment.report(&program.name, &result, technique, None, 0);
    };
    let artifact = cache.compiled(compile);
    experiment.report(
        &artifact.program.name,
        &result,
        technique,
        Some(artifact.stats.clone()),
        artifact.hint_noops_inserted,
    )
}

/// The cache key of one cell: human-readable axes plus a fingerprint of
/// everything else the result depends on (simulator configuration, scale,
/// energy model, instruction budget). Loading a save file produced under a
/// different configuration therefore never aliases into the wrong cell.
pub fn cell_key(
    experiment: &Experiment,
    variant: &ConfigVariant,
    benchmark: Benchmark,
    technique: Technique,
) -> String {
    format!(
        "{}|{}|{}",
        benchmark.name(),
        technique.name(),
        variant_key(experiment, variant)
    )
}

/// The part of a cell key its variant fixes: the variant's label and the
/// fingerprint (see [`cell_key`]).
fn variant_key(experiment: &Experiment, variant: &ConfigVariant) -> String {
    let mut hasher = Fnv1a::default();
    variant.sim_config.hash(&mut hasher);
    hasher.write_u64(variant.scale.to_bits());
    hasher.write_u64(experiment.max_dynamic_instructions);
    let energy = &experiment.energy_model;
    for field in [
        energy.iq_wakeup_comparison,
        energy.iq_write,
        energy.iq_read,
        energy.iq_selection_per_cycle,
        energy.iq_bank_leakage_per_cycle,
        energy.rf_access,
        energy.rf_bank_leakage_per_cycle,
    ] {
        hasher.write_u64(field.to_bits());
    }
    format!("{}|{:016x}", variant.label, hasher.finish())
}

/// FNV-1a, used for cell-key fingerprints because (unlike the std hasher)
/// its output is stable across processes — save files written by one run
/// must be readable by the next. The integer methods are overridden to
/// canonical little-endian 64-bit writes: the defaults use native byte
/// order and pointer width, which would make fingerprints differ across
/// architectures (derived `Hash` impls funnel `usize` fields and enum
/// discriminants through them).
#[derive(Debug)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_i8(&mut self, i: i8) {
        self.write_u64(i as u8 as u64);
    }

    fn write_i16(&mut self, i: i16) {
        self.write_u64(i as u16 as u64);
    }

    fn write_i32(&mut self, i: i32) {
        self.write_u64(i as u32 as u64);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as i64 as u64);
    }

    fn finish(&self) -> u64 {
        self.0
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
    fn matrix_fills_every_cell_of_every_variant() {
        let exp = tiny_experiment();
        let sweep = Matrix::new(&exp)
            .benchmarks(&[Benchmark::Gzip, Benchmark::Mcf])
            .techniques(&[Technique::Baseline, Technique::Noop])
            .sweep_iq_entries(&[48])
            .jobs(2)
            .run();
        assert_eq!(sweep.len(), 2, "base + iq48");
        assert_eq!(sweep.variant(0).label, "base");
        assert_eq!(sweep.variant(1).label, "iq48");
        assert_eq!(sweep.variant(1).sim_config.iq.entries, 48);
        for (_, suite) in sweep.iter() {
            assert_eq!(suite.len(), 4);
        }
        assert!(sweep.suite_for("iq48").is_some());
        assert!(sweep.suite_for("iq64").is_none());
    }

    #[test]
    fn shrinking_the_queue_cannot_increase_committed_work() {
        let exp = tiny_experiment();
        let sweep = Matrix::new(&exp)
            .benchmarks(&[Benchmark::Gzip])
            .techniques(&[Technique::Baseline])
            .sweep_iq_entries(&[32])
            .run();
        let base = sweep.suite(0).get(Benchmark::Gzip, Technique::Baseline);
        let small = sweep.suite(1).get(Benchmark::Gzip, Technique::Baseline);
        let (base, small) = (base.unwrap(), small.unwrap());
        // Same program, same committed work; the smaller queue can only
        // cost cycles.
        assert_eq!(base.stats.committed, small.stats.committed);
        assert!(small.stats.cycles >= base.stats.cycles);
        assert_eq!(small.stats.iq_total_entries, 32);
    }

    #[test]
    fn cell_keys_distinguish_configuration_content_not_just_labels() {
        let exp = tiny_experiment();
        let mut renamed = ConfigVariant::with_iq_entries(&exp, 48);
        renamed.label = "base".to_string(); // masquerade as the base label
        let base = ConfigVariant::base(&exp);
        let a = cell_key(&exp, &base, Benchmark::Gzip, Technique::Noop);
        let b = cell_key(&exp, &renamed, Benchmark::Gzip, Technique::Noop);
        assert_ne!(a, b, "fingerprint catches the different machine");
        // And the key is stable across calls (it seeds save files).
        assert_eq!(a, cell_key(&exp, &base, Benchmark::Gzip, Technique::Noop));
    }

    /// Cells come in plan groups: one per benchmark and front end, in
    /// (variant, benchmark) order, with every sweep point (`iq=80`, the
    /// base machine under another label, and `iq=48`, another back end
    /// behind the same front end) inside the base groups. Inside a group
    /// every cell whose replay repeats an earlier cell's comes after every
    /// cell whose replay is new, which puts each machine's built-in
    /// techniques in the order `baseline, noop, extension, improved,
    /// abella, lowen-isa, nonEmpty, way-memo`.
    #[test]
    fn cells_come_in_plan_groups_with_repeated_replays_last() {
        let exp = tiny_experiment();
        let builtin = [
            Technique::Baseline,
            Technique::NonEmpty,
            Technique::Noop,
            Technique::Extension,
            Technique::Improved,
            Technique::Abella,
            Technique::WayMemo,
            Technique::LowenIsa,
        ];
        let matrix = Matrix::new(&exp)
            .techniques(&builtin)
            .sweep_iq_entries(&[80, 48]);
        let variants = matrix.effective_variants();
        let keyed = matrix.groups(&variants);
        let axis: Vec<&str> = builtin.iter().map(Technique::name).collect();
        let reordered = [
            "baseline",
            "noop",
            "extension",
            "improved",
            "abella",
            "lowen-isa",
            "nonEmpty",
            "way-memo",
        ];
        let groups: Vec<Vec<Cell>> = keyed
            .iter()
            .map(|group| group.iter().map(|&(_, cell)| cell).collect())
            .collect();
        let heads: Vec<(usize, Benchmark)> = groups
            .iter()
            .map(|group| (group[0].variant, group[0].benchmark))
            .collect();
        let expected: Vec<(usize, Benchmark)> =
            Benchmark::ALL.map(|benchmark| (0, benchmark)).to_vec();
        assert_eq!(heads, expected, "one group per benchmark and front end");
        for group in &groups {
            assert_eq!(group.len(), builtin.len() * variants.len());
            let plans: Vec<CellPlans> = group
                .iter()
                .map(|cell| matrix.plans(&variants, cell))
                .collect();
            assert!(plans
                .iter()
                .all(|cell| cell.raw.group() == plans[0].raw.group()));
            let mut replays = HashSet::new();
            let repeats: Vec<bool> = plans
                .iter()
                .map(|cell| !replays.insert(cell.replay()))
                .collect();
            let first = repeats.iter().position(|&repeat| repeat);
            assert!(
                repeats[first.unwrap_or(repeats.len())..]
                    .iter()
                    .all(|&repeat| repeat),
                "a new replay after a repeated one: {repeats:?}"
            );
            // Every replay of `iq80` repeats one of `base`, so its cells
            // keep the technique axis' order.
            for (variant, order) in [(0, &reordered[..]), (1, &axis), (2, &reordered)] {
                let techniques: Vec<&str> = group
                    .iter()
                    .filter(|cell| cell.variant == variant)
                    .map(|cell| cell.technique.name())
                    .collect();
                assert_eq!(techniques, order, "variant {variant}");
            }
        }
        // Each cell carries the key `cell_key` gives it, and `cell_keys`
        // lists them in group order.
        for (key, cell) in keyed.iter().flatten() {
            let variant = &variants[cell.variant];
            assert_eq!(
                *key,
                cell_key(&exp, variant, cell.benchmark, cell.technique)
            );
        }
        assert_eq!(
            matrix.cell_keys(),
            keyed
                .into_iter()
                .flatten()
                .map(|(key, _)| key)
                .collect::<Vec<_>>()
        );
    }

    /// `MatrixSpec::matrix` is the one validator of a matrix description,
    /// from the command line and from the wire alike: each of these specs
    /// is refused with an error that names what is wrong.
    #[test]
    fn matrix_spec_refuses_what_no_matrix_can_hold() {
        let valid = MatrixSpec {
            scale: 0.05,
            sweeps: vec![("iq".to_string(), vec![48.0])],
            benchmarks: vec!["gzip".to_string(), "mcf".to_string()],
            techniques: vec!["baseline".to_string(), "noop".to_string()],
        };
        let experiment = valid.experiment();
        assert!(valid.matrix(&experiment).is_ok());
        let names = |list: &[&str]| list.iter().map(|name| name.to_string()).collect();
        let sweeps = |sweeps: &[(&str, &[f64])]| MatrixSpec {
            sweeps: sweeps
                .iter()
                .map(|&(axis, values)| (axis.to_string(), values.to_vec()))
                .collect(),
            ..valid.clone()
        };
        let cases = [
            (sweeps(&[("warp", &[1.0])]), "unknown sweep axis `warp`"),
            (
                MatrixSpec {
                    benchmarks: names(&["gzip", "gzipp"]),
                    ..valid.clone()
                },
                "unknown benchmark `gzipp`",
            ),
            (
                MatrixSpec {
                    techniques: names(&["baseline", "bogus"]),
                    ..valid.clone()
                },
                "unknown technique `bogus`",
            ),
            (sweeps(&[("iq", &[0.0])]), "axis `iq` wants integers"),
            (sweeps(&[("iq", &[1.5])]), "axis `iq` wants integers"),
            (
                sweeps(&[("bank", &[70000.0])]),
                "axis `bank` wants integers",
            ),
            (sweeps(&[("scale", &[0.0])]), "axis `scale` wants positive"),
            (
                MatrixSpec {
                    scale: 0.0,
                    ..valid.clone()
                },
                "scale must be positive and finite, got `0`",
            ),
            (
                MatrixSpec {
                    scale: f64::NAN,
                    ..valid.clone()
                },
                "scale must be positive and finite, got `NaN`",
            ),
            (
                MatrixSpec {
                    scale: f64::INFINITY,
                    ..valid.clone()
                },
                "scale must be positive and finite, got `inf`",
            ),
            (
                MatrixSpec {
                    benchmarks: names(&["gzip", "mcf", "gzip"]),
                    ..valid.clone()
                },
                "benchmark `gzip` is listed twice",
            ),
            (
                MatrixSpec {
                    techniques: names(&["baseline", "baseline"]),
                    ..valid.clone()
                },
                "technique `baseline` is listed twice",
            ),
            (
                sweeps(&[("iq", &[48.0, 48.0])]),
                "variant `iq48` is listed twice",
            ),
            (
                sweeps(&[("iq", &[48.0]), ("iq", &[48.0])]),
                "variant `iq48` is listed twice",
            ),
        ];
        for (spec, reason) in cases {
            let experiment = spec.experiment();
            match spec.matrix(&experiment) {
                Ok(_) => panic!("{spec:?} was accepted"),
                Err(error) => assert!(
                    error.contains(reason),
                    "{spec:?}: `{error}` does not say `{reason}`"
                ),
            }
        }
    }

    #[test]
    fn seeded_cells_are_returned_verbatim_without_recomputation() {
        let exp = tiny_experiment();
        let matrix = Matrix::new(&exp)
            .benchmarks(&[Benchmark::Gzip])
            .techniques(&[Technique::Baseline, Technique::NonEmpty]);
        let sweep = matrix.run();
        let cells = matrix.collect_cells(&sweep);
        assert_eq!(cells.len(), 2);
        let cache = ArtifactCache::new();
        let seeded: HashMap<String, RunReport> = cells.into_iter().collect();
        let again = matrix.run_with(&cache, &seeded);
        assert_eq!(sweep, again, "seeded run reproduces the original");
        assert_eq!(cache.program_builds(), 0, "nothing was rebuilt");
    }
}
